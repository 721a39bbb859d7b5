"""The padsum benchmark: the ``padsum`` CLI timed end to end on four
workloads, with a traced run that gives per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seconds S        # every workload in turn
    python3 perfbench/run.py --self-test              # tracer counts vs. anchors

Run it from any directory of a source checkout; nothing needs installing.
A pass runs the workload's invocations one at a time, each as a fresh
``python3`` process, because every user of ``padsum`` pays the interpreter
start and the cold factorial memo.  Passes repeat while another fits in
``--seconds`` (at least three run), and each metric is the median over the
passes.

Times are reported in seconds at a reference machine speed.  The benchmark,
its children and ``speed.py`` share one core; the probe runs at the lowest
priority throughout, and every measured time is scaled by the probe's speed
over ``REF_SPEED``.  On a shared host whose speed swings 2x within minutes
this keeps a regression visible; the raw seconds are printed as well.

Every invocation's exit code and output digest are checked against
``references.json``; a mismatch counts as a failed invocation and makes the
benchmark exit nonzero.

With ``--trace 1`` untraced and traced passes alternate; a traced pass runs
each invocation under ``tracer.py``.  The per-layer times are medians over
the traced passes, and every count must be identical in all of them.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metrics are the ones
``BENCHMARK.json`` lists for the mode.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import tracer
from workloads import WORKLOADS, Step, check_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_SAMPLES = 3  # import timings taken before the first pass
SETUP_SPREAD = 10  # and about this many more, spread over the run
# Chunks per CPU-second of speed.py at which measured seconds are reported
# unscaled.  On the 2-vCPU Xeon VM (CPython 3.11.7) where the benchmark was
# defined, the probe ran at 4,100-8,900 as the host's load came and went; at
# 7,000, `verify padic` took about 5 s, the figure usually quoted for it.
REF_SPEED = 7000.0
DEADLINE_S = 170.0  # a run must end within 180 s; no child may outlive this
LAUNCH = "import sys; from padsum.cli import main; sys.exit(main())"


class Runner:
    """Spawns children one at a time, each with the run's environment, and
    kills any child still running when the run's deadline comes."""

    def __init__(self, scratch: Path, cache: Path):
        self.scratch = scratch
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PADSUM_")}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PADSUM_CACHE_DIR"] = str(cache)

    def spawn(self, argv: list[str], stdout: Path) -> tuple[float, float, float, int]:
        """Run argv to completion: (wall s, user+sys CPU s, max RSS MB, exit code)."""
        with open(stdout, "wb") as out, open(self.scratch / "stderr", "wb") as err:
            actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
            start = time.perf_counter()
            pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                                 file_actions=actions)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                     os.kill, (pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(pid, 0)
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        rc = os.waitstatus_to_exitcode(status)
        if rc != 0:
            sys.stderr.write((self.scratch / "stderr").read_text(errors="replace")[-2000:])
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, rc

    def start_speed_probe(self) -> int:
        """Start speed.py beside the passes; it runs until stop_speed_probe."""
        with open(self.scratch / "speed.out", "wb") as out:
            return os.posix_spawn(sys.executable, [sys.executable, str(HERE / "speed.py")],
                                  self.env, file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1)])

    def stop_speed_probe(self, pid: int) -> float:
        """Stop the probe; its reference chunks per CPU-second."""
        os.kill(pid, signal.SIGTERM)
        os.waitpid(pid, 0)
        try:
            chunks, cpu = (self.scratch / "speed.out").read_text().split()
            return int(chunks) / float(cpu)
        except (ValueError, ZeroDivisionError):
            raise RuntimeError("the speed probe reported nothing") from None

    def setup_time(self) -> float:
        wall, _, _, rc = self.spawn(["-c", "import padsum.cli"], self.scratch / "setup.out")
        if rc != 0:
            raise RuntimeError("importing padsum.cli failed")
        return wall


@dataclass
class PassResult:
    cold_s: float = 0.0
    warm_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.cold_s + self.warm_s


def run_pass(runner: Runner, steps: tuple[Step, ...], seed: int, refs: dict[str, str],
             traced: bool) -> PassResult:
    """One pass of a workload in fresh, empty output and cache directories."""
    pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=runner.scratch))
    out, cache = pass_dir / "out", pass_dir / "cache"
    out.mkdir()
    cache.mkdir()
    result = PassResult()
    try:
        for index, step in enumerate(steps):
            cli_args = step.fill(seed, out, cache)
            stats_file = pass_dir / f"stats{index}.json"
            argv = ([str(HERE / "tracer.py"), str(stats_file), *cli_args] if traced
                    else ["-c", LAUNCH, *cli_args])
            stdout = pass_dir / f"stdout{index}"
            wall, cpu, rss, rc = runner.spawn(argv, stdout)
            if step.half == "warm":
                result.warm_s += wall
            else:
                result.cold_s += wall
            result.cpu_s += cpu
            result.peak_rss_mb = max(result.peak_rss_mb, rss)
            result.attempted += 1
            problem = check_output(step, seed, rc, stdout.read_bytes(), out, refs)
            if problem is None and traced:
                try:
                    stats = json.loads(stats_file.read_text())
                except (OSError, ValueError) as exc:
                    problem = f"no trace stats: {exc}"
                else:
                    for name, value in tracer.summarize(stats).items():
                        result.layers[name] = result.layers.get(name, 0) + value
            if problem is not None:
                result.failed += 1
                print(f"FAILED {step.key(seed)}: {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    return result


def pass_series(passes: list[PassResult], steps: tuple[Step, ...]) -> dict[str, list[float]]:
    """Per-pass values of the end-to-end metrics other than set-up time."""
    has_warm = any(step.half == "warm" for step in steps)
    return {
        "wall_s": [p.cold_s for p in passes],
        # Without a warm half the whole pass is the cold half.
        "warm_wall_s": [p.warm_s if has_warm else p.cold_s for p in passes],
        "cpu_s": [p.cpu_s for p in passes],
        "peak_rss_mb": [p.peak_rss_mb for p in passes],
    }


def per_layer(traced: list[PassResult], untraced: list[PassResult]) -> dict:
    """Per-layer figures: counts from the traced passes (which must agree),
    times as medians over them, and the two derived ratios."""
    times = {name for name in traced[0].layers if name.endswith("_s")}
    for p in traced[1:]:
        for name, value in p.layers.items():
            if name not in times and value != traced[0].layers[name]:
                raise RuntimeError(f"traced passes disagree on {name}:"
                                   f" {traced[0].layers[name]} vs {value}")
    layers = {name: (median(p.layers[name] for p in traced) if name in times else value)
              for name, value in traced[0].layers.items()}
    lookups = layers[tracer.CACHE_LOOKUPS]
    done = layers[tracer.EVAL_DONE]
    # A ratio without a base (the workload never reaches the layer) reads 0.
    layers["cli.cache.hit_ratio"] = layers[tracer.CACHE_HITS] / lookups if lookups else 0.0
    layers["series.remainder_eval.useful_ratio"] = layers[tracer.EVAL_USEFUL] / done if done else 0.0
    layers["trace.overhead_s"] = (median(p.wall_s for p in traced)
                                  - median(p.wall_s for p in untraced))
    return layers


@dataclass
class WorkloadRun:
    passes: list[PassResult]
    traced: list[PassResult]
    setups: list[float]
    speed: float = REF_SPEED  # reference chunks per CPU-second during the run

    @property
    def scale(self) -> float:
        """Factor from measured seconds to seconds at the reference speed."""
        return self.speed / REF_SPEED

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes + self.traced)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes + self.traced)


def measure(runner: Runner, name: str, seed: int, seconds: float, trace: bool,
            refs: dict[str, str]) -> WorkloadRun:
    """Passes for ``seconds``: a pass starts only if a typical pass of its
    kind still fits, once each kind has its minimum.  With ``trace``
    untraced and traced passes alternate.  Set-up samples are spread over
    the run, and the speed probe runs throughout, so that both see the same
    machine as the passes."""
    steps = WORKLOADS[name]
    minimum = {False: 1 if trace else MIN_PASSES, True: MIN_TRACED_PASSES if trace else 0}
    runner.setup_time()  # writes the bytecode cache; not a sample
    probe = runner.start_speed_probe()
    try:
        run = WorkloadRun([], [], [runner.setup_time() for _ in range(SETUP_SAMPLES)])
        durations: dict[bool, list[float]] = {False: [], True: []}
        start = last_setup = time.perf_counter()
        while True:
            traced = trace and len(run.traced) < len(run.passes)
            now = time.perf_counter()
            short = len(run.passes) < minimum[False] or len(run.traced) < minimum[True]
            if not short and now - start + median(durations[traced]) > seconds:
                break
            if now - last_setup >= seconds / SETUP_SPREAD:
                run.setups.append(runner.setup_time())
                last_setup = now = time.perf_counter()
            (run.traced if traced else run.passes).append(
                run_pass(runner, steps, seed, refs, traced))
            durations[traced].append(time.perf_counter() - now)
    finally:
        speed = runner.stop_speed_probe(probe)
    run.speed = speed
    return run


def report(name: str, run: WorkloadRun, trace: bool, bench: dict) -> dict:
    """Print the human summary of one workload and return its JSON result."""
    series = pass_series(run.passes, WORKLOADS[name])
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"# {name}: {len(run.passes)} passes, {len(run.traced)} traced,"
          f" {len(run.setups)} set-up samples")
    print(f"{name} speed = {run.speed:.6g} reference chunks per CPU-second;"
          f" measured seconds are scaled by {run.scale:.6g}")
    e2e = {}
    for metric, raw in [*series.items(), ("setup_s", run.setups)]:
        values = raw if units[metric] != "s" else [v * run.scale for v in raw]
        e2e[metric] = median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(f"{name} {metric} = {e2e[metric]:.6g} {units[metric]}"
              f" (q1 {q1:.6g}, q3 {q3:.6g}, n {len(values)}; as measured:"
              f" {' '.join(f'{v:.6g}' for v in raw)})")
    print(f"{name} fail_ratio = {run.failed / run.attempted:.6g} ratio"
          f" ({run.failed} of {run.attempted} invocations)")
    if not trace:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    elif run.failed:
        metrics = {}  # a failed traced pass leaves its figures incomplete
    else:
        layers = per_layer(run.traced, run.passes)
        layers.update({m: v * run.scale for m, v in layers.items() if m.endswith("_s")})
        wanted = [m["name"] for m in bench["per_layer"]]
        missing = [m for m in wanted if m not in layers]
        if missing:
            raise RuntimeError(f"no per-layer figure for {missing}")
        metrics = {m: {"value": layers[m], "unit": units[m]} for m in wanted}
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def self_test(runner: Runner, refs: dict, bench: dict) -> bool:
    """Two traced passes per anchored workload must give identical counts,
    equal to the anchors recorded when the benchmark was defined; and every
    per-layer metric must have its expected effect written down."""
    interactions = json.loads((HERE / "interactions.json").read_text())["per_layer"]
    unmapped = [m["name"] for m in bench["per_layer"] if m["name"] not in interactions]
    ok = not unmapped
    if unmapped:
        print(f"FAIL per-layer metrics missing from interactions.json: {unmapped}")
    for name, anchors in refs["trace_anchors"].items():
        passes = [run_pass(runner, WORKLOADS[name], 0, refs["outputs"], True) for _ in range(2)]
        if any(p.failed for p in passes):
            print(f"FAIL {name}: an invocation failed")
            ok = False
            continue
        for metric, expected in anchors.items():
            got = [p.layers[metric] for p in passes]
            good = got == [expected, expected]
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {name} {metric} = {got} (anchor {expected})")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--self-test", action="store_true", help="check the tracer's counts")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (args.workload or args.all or args.self_test):
        parser.error("give --workload, --all or --self-test")
    if not (SRC / "padsum" / "cli.py").is_file():
        print(f"no padsum sources under {SRC}", file=sys.stderr)
        return 2
    refs = json.loads((HERE / "references.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One core for the benchmark, its children and the speed probe, so that
    # the probe sees the speed the passes get.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        runner = Runner(scratch, scratch / "env-cache")
        if args.self_test:
            return 0 if self_test(runner, refs, bench) else 1
        names = sorted(WORKLOADS) if args.all else [args.workload]
        failed = 0
        result = None
        for name in names:
            run = measure(runner, name, args.seed, args.seconds, bool(args.trace), refs["outputs"])
            result = report(name, run, bool(args.trace), bench)
            failed += result["failed"]
        if not args.all:
            print(json.dumps(result))
        return 1 if failed else 0
    except RuntimeError as exc:  # a broken tracer or an unlaunchable interpreter
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer timings of padsum's tables and verify suites, and the CPU time
of a cold padsum process.

    python3 tools/bench_layers.py --src src > timings.json
    python3 tools/bench_layers.py --src ../other-checkout/src

Six stages:

- **tables**, at kmax 15, 30, 60 and 100: at eps = +1, as ``tables``
  builds one sign, ``gen_poly_table``, the residual check
  ``recurrence_residuals``, the checked ``TableSet.build`` and the bundle's
  serialisation ``bundle_text``; and the two-sign build of the grid that
  ``verify finite`` and ``verify padic`` run, ``cli._grid`` with no
  x-values, which checks both signs' tables and yields no cell;
- **p-adic**, on the grid of the benchmark's ``verify padic`` argv (both
  signs, k <= kmax, its x-values and primes) at its (kmax, nmax) and at
  ``LARGE``, each timed over the whole grid: a profile per cell
  (``series_error_profile``), the verdicts on each claim and on the claim
  plus 1 at each prime (``padic_sum_verify``), an expansion of each claim
  to the argv's precision at each prime (``expand``) and the domain gate
  ``require_convergence(x, p)`` per cell and prime;
- **finite**: the sweeps of the benchmark's ``verify finite`` argv over
  its k, both signs and ``FINITE_X_SET`` (``finite_identity_sweep``);
- **telescope**: the sweeps of the benchmark's ``verify telescope`` argv
  over its random specs and the two named ones, at its nmax
  (``telescope_sweep``);
- **ode**: the checks of the benchmark's ``verify ode`` argv at each order
  3..nmax, each ODE timed apart (``check_first_order_ode`` and
  ``check_second_order_ode``);
- **process**: the user plus system CPU time, from ``os.wait4``, of a
  child interpreter that imports ``padsum.cli`` or runs one of the argvs,
  one child at a time, with ``PYTHONPATH`` set to ``--src``; whether
  bytecode is written (``PYTHONDONTWRITEBYTECODE``) is in the host record.

The argvs are read from ``perfbench/workloads.py`` beside this script, with
``{seed}`` filled as ``SEED``, and the measured checkout's own CLI parser
reads their sizes.  An in-process figure is the least wall time, in
milliseconds, of N runs, N shrinking as the size grows; a process figure is
the least of N children.  Only public names of padsum are called, and
``cli._grid`` and the ``verify telescope`` command's named specs, so two
checkouts are compared by running this script once on the ``src`` directory
of each.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
KMAXES = (15, 30, 60, 100)
TABLES_TIMED = ("gen_poly_table", "recurrence_residuals", "TableSet.build", "bundle_text",
                "cli._grid")
LARGE = (20, 500)  # a p-adic size beyond the benchmark's, where growth in kmax and nmax shows
TIMED = ("series_error_profile", "padic_sum_verify", "expand", "require_convergence")
LAUNCH = "import sys; from padsum.cli import main; sys.exit(main())"
PROCESS_RUNS = 25
SEED = 0  # perfbench's default seed
ODE_TIMED = ("check_first_order_ode", "check_second_order_ode")
SUITE_RUNS = 30  # the runs each telescope or ode figure is the least of


def table_runs(kmax: int) -> int:
    """How many runs each tables figure at this kmax is the least of."""
    return min(100, max(3, 18_000 // max(kmax, 1) ** 2))


def runs(kmax: int, nmax: int) -> int:
    """How many runs each p-adic or finite figure at this size is the least of."""
    return min(50, max(3, 4_000_000 // (kmax * nmax**2)))


def _least_ms(call, count: int) -> float:
    best = float("inf")
    for _ in range(count):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return round(best * 1e3, 4)


def load(src, name: str):
    """The module ``padsum.<name>`` of the checkout whose ``src`` directory is ``src``."""
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    try:
        module = importlib.import_module(f"padsum.{name}")
    finally:
        sys.path.remove(str(src))
    if Path(module.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"padsum was already imported from {module.__file__}")
    return module


def host() -> dict:
    """The interpreter and machine a measurement ran on."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def benchmark_argvs() -> dict[str, tuple[str, ...]]:
    """The argvs of the benchmark's verify-padic, verify-finite and
    verify-telescope-ode steps at ``SEED``, each named by its first two
    words ("verify padic", "verify finite", "verify telescope", "verify ode")."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # @dataclass looks its class's module up here
    spec.loader.exec_module(workloads)
    steps = [step for name in ("verify-padic", "verify-finite", "verify-telescope-ode")
             for step in workloads.WORKLOADS[name]]
    # no argv of these steps names an output or cache directory
    return {" ".join(step.argv[:2]): tuple(step.fill(SEED, None, None)) for step in steps}


def tables_stage(src, kmaxes) -> list[dict]:
    """The timings of the tables at each kmax of ``kmaxes``: one sign's
    stages at eps = +1, and the grid's two-sign build."""
    tables, cli = load(src, "tables"), load(src, "cli")
    records = []
    for kmax in kmaxes:
        gen = tables.gen_poly_table(kmax, 1)
        checked = tables.TableSet.build(kmax, 1)
        calls = (
            lambda: tables.gen_poly_table(kmax, 1),
            lambda: tables.recurrence_residuals(gen),
            lambda: tables.TableSet.build(kmax, 1),
            lambda: tables.bundle_text(checked),
            lambda: list(cli._grid(kmax, ())),
        )
        count = table_runs(kmax)
        ms = {name: _least_ms(call, count) for name, call in zip(TABLES_TIMED, calls)}
        records.append({"kmax": kmax, "runs": count, "ms": ms})
    return records


def padic_stage(src, grid, sizes) -> list[dict]:
    """The timings of the p-adic stages at each (kmax, nmax) of ``sizes``, on
    the x-values, primes and precision of the parsed ``verify padic`` ``grid``."""
    series, padic, tables = (load(src, name) for name in ("series", "padic", "tables"))
    records = []
    for kmax, nmax in sizes:
        cells = [(series.SeriesSpec(eps=eps, x=x, k=k), table)
                 for eps in (1, -1) for table in [tables.TableSet.build(kmax, eps)]
                 for k in range(1, kmax + 1) for x in grid.x_values]
        claims = [spec.claimed_sum(table) for spec, table in cells]

        def profiles():
            return [series.series_error_profile(spec, claim, nmax, table)
                    for (spec, table), claim in zip(cells, claims)]

        built = [(profile, profile.shifted_claim(1)) for profile in profiles()]
        calls = (
            profiles,
            lambda: [series.padic_sum_verify(profile, p)
                     for pair in built for profile in pair for p in grid.primes],
            lambda: [padic.expand(claim, p, grid.precision)
                     for claim in claims for p in grid.primes],
            lambda: [padic.require_convergence(spec.x, p)
                     for spec, _ in cells for p in grid.primes],
        )
        count = runs(kmax, nmax)
        ms = {name: _least_ms(call, count) for name, call in zip(TIMED, calls)}
        records.append({"kmax": kmax, "nmax": nmax, "runs": count, "ms": ms})
    return records


def finite_stage(src, size) -> dict:
    """The timings of the finite sweeps of ``verify finite`` at ``size``."""
    series, tables = load(src, "series"), load(src, "tables")
    # a submodule of the package just loaded from ``src``
    x_set = importlib.import_module(f"{series.__package__}.commands.verify_finite").FINITE_X_SET
    kmax, nmax = size
    built = {eps: tables.TableSet.build(kmax, eps) for eps in (1, -1)}
    count = runs(kmax, nmax)
    ms = _least_ms(lambda: sum(series.finite_identity_sweep(k, eps, x, nmax, table)
                               for eps, table in built.items()
                               for k in range(1, kmax + 1) for x in x_set), count)
    return {"kmax": kmax, "nmax": nmax, "runs": count, "ms": {"finite_identity_sweep": ms}}


def telescope_stage(src, count: int, seed: int, nmax: int) -> dict:
    """The timing of the sweeps of ``verify telescope`` over ``count``
    random specs drawn from ``seed`` and the two named ones, at ``nmax``."""
    telescope = load(src, "telescope")
    command = importlib.import_module(f"{telescope.__package__}.commands.verify_telescope")
    rng = random.Random(seed)
    specs = ([telescope.random_telescope_spec(rng) for _ in range(count)]
             + [spec for _, spec in command._named_telescope_specs()])
    ms = _least_ms(lambda: [telescope.telescope_sweep(spec, nmax) for spec in specs], SUITE_RUNS)
    return {"count": count, "seed": seed, "nmax": nmax, "runs": SUITE_RUNS,
            "ms": {"telescope_sweep": ms}}


def ode_stage(src, nmax: int) -> dict:
    """The timings of the two ODE checks of ``verify ode`` at each order 3..nmax."""
    fps, orders = load(src, "fps"), range(3, nmax + 1)
    calls = (lambda: [fps.check_first_order_ode(order) for order in orders],
             lambda: [fps.check_second_order_ode(order) for order in orders])
    ms = {name: _least_ms(call, SUITE_RUNS) for name, call in zip(ODE_TIMED, calls)}
    return {"nmax": nmax, "runs": SUITE_RUNS, "ms": ms}


def _child_cpu_ms(argv, env: dict) -> float:
    """User plus system CPU time, in milliseconds, of one child ``python argv``."""
    child = subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if child.returncode != 0:
        raise RuntimeError(f"{argv} exited {child.returncode}")
    return (usage.ru_utime + usage.ru_stime) * 1e3


def process_stage(src, argvs: dict, count: int) -> dict:
    """The least child CPU time, in milliseconds, of ``count`` children that
    import ``padsum.cli`` and of ``count`` that run each of ``argvs``, one at a time."""
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    children = {"import padsum.cli": ("-c", "import padsum.cli"),
                **{name: ("-c", LAUNCH, *argv) for name, argv in argvs.items()}}
    return {"runs": count,
            "ms": {name: round(min(_child_cpu_ms(argv, env) for _ in range(count)), 4)
                   for name, argv in children.items()}}


def measure(src, kmaxes=KMAXES, sizes=None, finite=None, telescope=None, ode=None,
            process_runs: int = PROCESS_RUNS) -> dict:
    """The timings of the padsum found under ``src``, as a JSON-ready dict.
    ``sizes``, ``finite``, ``telescope`` (count, seed, nmax) and ``ode``
    (nmax) default to the benchmark's sizes, with ``LARGE`` after the
    p-adic one."""
    argvs = benchmark_argvs()
    parse = load(src, "cli").build_parser().parse_args
    grid, sweep = parse(argvs["verify padic"]), parse(argvs["verify finite"])
    specs, orders = parse(argvs["verify telescope"]), parse(argvs["verify ode"])
    return {
        **host(),
        "tables": tables_stage(src, kmaxes),
        "timings": padic_stage(src, grid, sizes or ((grid.kmax, grid.nmax), LARGE)),
        "finite": finite_stage(src, finite or (sweep.kmax, sweep.nmax)),
        "telescope": telescope_stage(src, *(telescope or (specs.count, specs.seed, specs.nmax))),
        "ode": ode_stage(src, ode or orders.nmax),
        "process": process_stage(src, argvs, process_runs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--src", required=True, help="the src directory of a padsum checkout")
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.src), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer timings of padsum's verify suites, and the CPU time of a cold
padsum process.

    python3 tools/bench_layers.py --src src > timings.json
    python3 tools/bench_layers.py --src ../other-checkout/src

Three stages:

- **p-adic**, on the grid of ``verify padic`` (both signs, k <= kmax,
  x in {1, -1, 2}, p in {2, 3, 5, 7, 11}) at (kmax, nmax) = (8, 200) and
  (20, 500), each stage timed over the whole grid as the command runs it:
  a profile per cell (``series_error_profile``), the verdicts on each
  claim and on the claim plus 1 at each prime (``padic_sum_verify``), an
  expansion of each claim to 16 digits at each prime (``expand``) and a
  gate per cell and prime (``require_convergence``);
- **finite**, at ``verify finite``'s defaults (kmax, nmax) = (15, 25): the
  checked tables of both signs (``TableSet.build``) and the sweeps over its
  grid of k, both signs and ``FINITE_X_SET`` (``finite_identity_sweep``);
- **process**: the user plus system CPU time of a child interpreter, read
  from ``os.wait4``'s rusage, that imports ``padsum.cli`` or runs the
  benchmark's ``verify padic`` or ``verify finite`` argv.  The children run
  one at a time, in the environment of this script with ``PYTHONPATH`` set
  to ``--src``; whether that environment writes bytecode
  (``PYTHONDONTWRITEBYTECODE``) is in the host record.

Each in-process figure is the least wall time, in milliseconds, of N runs
(:func:`runs`), and each process figure the least child CPU time of N
children.  Only public names of padsum are called, and the timing loop and
``--src`` are those of ``bench_tables.py``, so two checkouts are compared
by running this script once on each.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from bench_tables import _least_ms, host, load

SIZES = ((8, 200), (20, 500))
X_VALUES = (1, -1, 2)
PRIMES = (2, 3, 5, 7, 11)
PRECISION = 16
TIMED = ("series_error_profile", "padic_sum_verify", "expand", "require_convergence")
FINITE = (15, 25)
FINITE_TIMED = ("TableSet.build", "finite_identity_sweep")
LAUNCH = "import sys; from padsum.cli import main; sys.exit(main())"
# the children: the import alone, and the argvs of perfbench/workloads.py
PROCESSES = {
    "import padsum.cli": ("-c", "import padsum.cli"),
    "verify padic": ("-c", LAUNCH, "verify", "padic", "--kmax", "8", "--nmax", "200",
                     "--primes", "2,3,5,7,11", "--x-values", "1,-1,2", "--precision", "16",
                     "--format", "json"),
    "verify finite": ("-c", LAUNCH, "verify", "finite", "--kmax", "15", "--nmax", "25",
                      "--format", "json"),
}
PROCESS_RUNS = 25


def runs(kmax: int, nmax: int) -> int:
    """How many runs each figure at this size is the least of."""
    return min(50, max(3, 4_000_000 // (kmax * nmax**2)))


def padic_stage(src, sizes=SIZES) -> list[dict]:
    """The timings of the p-adic stages at each (kmax, nmax) of ``sizes``."""
    series, padic, tables = (load(src, name) for name in ("series", "padic", "tables"))
    primes = [padic.Prime(p) for p in PRIMES]
    records = []
    for kmax, nmax in sizes:
        cells = [(series.SeriesSpec(eps=eps, x=x, k=k), table)
                 for eps in (1, -1) for table in [tables.TableSet.build(kmax, eps)]
                 for k in range(1, kmax + 1) for x in X_VALUES]
        claims = [spec.claimed_sum(table) for spec, table in cells]

        def profiles():
            return [series.series_error_profile(spec, claim, nmax, table)
                    for (spec, table), claim in zip(cells, claims)]

        built = [(profile, profile.shifted_claim(1)) for profile in profiles()]
        calls = (
            profiles,
            lambda: [series.padic_sum_verify(profile, p)
                     for pair in built for profile in pair for p in primes],
            lambda: [padic.expand(claim, p, PRECISION) for claim in claims for p in primes],
            lambda: [padic.require_convergence(spec.x, p, 1, 1)
                     for spec, _ in cells for p in primes],
        )
        count = runs(kmax, nmax)
        ms = {name: _least_ms(call, count) for name, call in zip(TIMED, calls)}
        records.append({"kmax": kmax, "nmax": nmax, "runs": count, "ms": ms})
    return records


def finite_stage(src, size=FINITE) -> dict:
    """The timings of the checked tables and the finite sweeps of ``verify finite`` at ``size``."""
    series, tables = load(src, "series"), load(src, "tables")
    # a submodule of the package just loaded from ``src``
    x_set = importlib.import_module(f"{series.__package__}.commands.verify_finite").FINITE_X_SET
    kmax, nmax = size
    built = {eps: tables.TableSet.build(kmax, eps) for eps in (1, -1)}
    calls = (
        lambda: [tables.TableSet.build(kmax, eps) for eps in (1, -1)],
        lambda: sum(series.finite_identity_sweep(k, eps, x, nmax, table)
                    for eps, table in built.items()
                    for k in range(1, kmax + 1) for x in x_set),
    )
    count = runs(kmax, nmax)
    ms = {name: _least_ms(call, count) for name, call in zip(FINITE_TIMED, calls)}
    return {"kmax": kmax, "nmax": nmax, "runs": count, "ms": ms}


def _child_cpu_ms(argv, env: dict) -> float:
    """User plus system CPU time, in milliseconds, of one child ``python argv``."""
    child = subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if child.returncode != 0:
        raise RuntimeError(f"{argv} exited {child.returncode}")
    return (usage.ru_utime + usage.ru_stime) * 1e3


def process_stage(src, count: int = PROCESS_RUNS) -> dict:
    """The least child CPU time, in milliseconds, of ``count`` children of
    each of ``PROCESSES``, run one at a time."""
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    return {"runs": count,
            "ms": {name: round(min(_child_cpu_ms(argv, env) for _ in range(count)), 4)
                   for name, argv in PROCESSES.items()}}


def measure(src, sizes=SIZES, finite=FINITE, process_runs: int = PROCESS_RUNS) -> dict:
    """The timings of the padsum found under ``src``, as a JSON-ready dict."""
    return {
        **host(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "timings": padic_stage(src, sizes),
        "finite": finite_stage(src, finite),
        "process": process_stage(src, process_runs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--src", required=True, help="the src directory of a padsum checkout")
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.src), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

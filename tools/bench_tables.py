"""Per-layer timings of padsum's tables: generation, the residual check, a
checked build, the bundle's serialisation and a cache read, at several
kmax for both signs.

    python3 tools/bench_tables.py --src src > timings.json
    python3 tools/bench_tables.py --src ../other-checkout/src --kmax 15,30

Each figure is the least wall time, in milliseconds, of N in-process runs,
with N shrinking as kmax grows (:func:`runs`).  ``--src`` is the ``src``
directory of the checkout to measure, so two checkouts are compared by
running this script once on each.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
import time
from pathlib import Path

KMAXES = (15, 30, 60, 100)
TIMED = ("gen_poly_table", "recurrence_residuals", "TableSet.build", "bundle_text",
         "bundle_from_text")


def runs(kmax: int) -> int:
    """How many runs each figure at this kmax is the least of."""
    return min(100, max(3, 18_000 // max(kmax, 1) ** 2))


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
    }


def measure(src, kmaxes=KMAXES) -> dict:
    """The timings of the ``padsum.tables`` found under ``src``, as a JSON-ready dict."""
    tables = load(src, "tables")
    records = []
    for kmax in kmaxes:
        for eps in (1, -1):
            gen = tables.gen_poly_table(kmax, eps)
            checked = tables.TableSet.build(kmax, eps)
            text = tables.bundle_text(checked)
            calls = (
                lambda: tables.gen_poly_table(kmax, eps),
                lambda: tables.recurrence_residuals(gen),
                lambda: tables.TableSet.build(kmax, eps),
                lambda: tables.bundle_text(checked),
                lambda: tables.bundle_from_text(text),
            )
            count = runs(kmax)
            ms = {name: _least_ms(call, count) for name, call in zip(TIMED, calls)}
            records.append({"kmax": kmax, "eps": eps, "runs": count, "ms": ms})
    return {**host(), "timings": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--src", required=True, help="the src directory of a padsum checkout")
    parser.add_argument("--kmax", default=",".join(map(str, KMAXES)),
                        help="comma-separated kmax values (default %(default)s)")
    args = parser.parse_args(argv)
    kmaxes = [int(k) for k in args.kmax.split(",")]
    print(json.dumps(measure(args.src, kmaxes), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

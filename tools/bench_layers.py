"""Per-layer timings of padsum's p-adic suite: the error profiles, the
verdicts, the claims' expansions and the convergence gate, on the grid of
``verify padic`` (both signs, k <= kmax, x in {1, -1, 2}, p in
{2, 3, 5, 7, 11}) at (kmax, nmax) = (8, 200) and (20, 500).

    python3 tools/bench_layers.py --src src > timings.json
    python3 tools/bench_layers.py --src ../other-checkout/src

Each stage is timed over the whole grid, as the command runs it: a
profile per cell (``series_error_profile``), the verdicts on each claim
and on the claim plus 1 at each prime (``padic_sum_verify``), an
expansion of each claim to 16 digits at each prime (``expand``) and a
gate per cell and prime (``require_convergence``).  Each figure is the
least wall time, in milliseconds, of N in-process runs (:func:`runs`).
Only public names of padsum are called, and the timing loop and
``--src`` are those of ``bench_tables.py``, so two checkouts are compared
by running this script once on each.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import sys

from bench_tables import _least_ms, host, load

SIZES = ((8, 200), (20, 500))
X_VALUES = (1, -1, 2)
PRIMES = (2, 3, 5, 7, 11)
PRECISION = 16
TIMED = ("series_error_profile", "padic_sum_verify", "expand", "require_convergence")


def runs(kmax: int, nmax: int) -> int:
    """How many runs each figure at this size is the least of."""
    return min(50, max(3, 4_000_000 // (kmax * nmax**2)))


def measure(src, sizes=SIZES) -> dict:
    """The timings of the p-adic stages of the padsum found under ``src``, as a JSON-ready dict."""
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
    return {**host(), "timings": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--src", required=True, help="the src directory of a padsum checkout")
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.src), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``verify telescope``: exact telescoping for random specs and two named
instances; it reads no table."""

from __future__ import annotations

import random

from .. import cli, telescope
from ..kernel import VerificationError
from ..poly import RatPoly


def _named_telescope_specs() -> list[tuple[str, telescope.TelescopeSpec]]:
    # sum n! * n (aux = 1) and sum n! * ((n+1)^2 - n) (aux = n), both at x = 1
    step = dict(mu=(1,), nu=(0,), lam=(1,), alpha=1, beta=0, eps=1, x=1)
    return [("factorial-times-n", telescope.TelescopeSpec(**step, aux=RatPoly.one())),
            ("weighted-square-step", telescope.TelescopeSpec(**step, aux=RatPoly.monomial(1)))]


def run(args) -> tuple[bool, list[str], list[dict]]:
    count, seed, nmax = args.count, args.seed, args.nmax
    rng = random.Random(seed)
    named = _named_telescope_specs()
    specs = [(f"random-{i}", telescope.random_telescope_spec(rng)) for i in range(count)] + named
    for name, spec in specs:
        try:
            reached = telescope.telescope_sweep(spec, nmax).n_terms
        except VerificationError as exc:  # its FAIL line names the spec
            exc.label = f"telescope[{name}]"
            raise
        cli._expect(reached, nmax)
    line = (
        f"PASS telescope: exact telescoping for {count} random specs"
        f" (seed {seed}) + {len(named)} named instances, N<={nmax}"
    )
    return True, [line], [{"check": "telescope", "verdict": "PASS", "specs": len(specs)}]

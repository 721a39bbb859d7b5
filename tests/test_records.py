"""The records' semantics: immutable fields, the equalities the code relies
on, and an import of the CLI that pulls in neither ``dataclasses`` nor
``inspect``."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from padsum.fps import check_first_order_ode
from padsum.padic import PadicApprox, Prime, expand
from padsum.poly import RatPoly
from padsum.series import (
    PadicVerdict,
    PartialSumResult,
    SeriesErrorProfile,
    SeriesSpec,
    TelescopeSpec,
    padic_sum_verify,
    series_error_profile,
)
from padsum.tables import TableSet, aux_poly, gen_poly_table, int_pairs

ROOT = Path(__file__).resolve().parents[1]

TELESCOPE = dict(mu=(1,), nu=(0,), lam=(1,), alpha=1, beta=0, eps=1, x=1, aux=RatPoly.one())


def _records(tables):
    spec = SeriesSpec(eps=1, x=1, k=1)
    profile = series_error_profile(spec, -1, 5, tables)
    return [
        PartialSumResult(1, 0, 0, 0),
        padic_sum_verify(profile, Prime(2)),
        check_first_order_ode(3),
        tables.gen,
        tables.corr,
        int_pairs(3),
        aux_poly(2),
        tables,
        spec,
        TelescopeSpec(**TELESCOPE),
        profile,
        expand(Fraction(1, 3), Prime(5), 4),
        RatPoly((1, 2)),
        tables.gen.poly(1),
    ]


def _fields(record):
    return getattr(type(record), "_fields", None) or type(record).__slots__


def test_every_record_refuses_assignment_and_deletion():
    records = _records(TableSet.build(2, 1))
    assert len({type(r) for r in records}) == 14
    for record in records:
        for name in _fields(record):
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1  # no attribute beyond the fields


def test_every_record_survives_copy_and_pickle():
    for record in _records(TableSet.build(2, 1)):
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert type(clone) is type(record) and clone == record


def test_series_spec_equality_reads_the_stored_fields():
    short, spelled = SeriesSpec(1, 2, k=3), SeriesSpec(1, 2, coeffs=(0, 0, 1))
    assert short == spelled and hash(short) == hash(spelled)
    assert SeriesSpec(1, Fraction(4, 2), k=1) == SeriesSpec(1, 2, k=1)
    assert SeriesSpec(1, 2, k=1) != SeriesSpec(-1, 2, k=1)
    # a validated record equals only a record of its own class
    assert short != (1, 2, (0, 0, 1))
    assert TelescopeSpec(**{**TELESCOPE, "mu": [1]}) == TelescopeSpec(**TELESCOPE)
    assert TelescopeSpec(**TELESCOPE) != TelescopeSpec(**{**TELESCOPE, "beta": 1})


def test_telescope_spec_prints_its_fields():
    # a failed telescoping check names its spec this way
    assert repr(TelescopeSpec(**{**TELESCOPE, "x": Fraction(-1, 2)})) == (
        "TelescopeSpec(mu=(1,), nu=(0,), lam=(1,), alpha=1, beta=0, eps=1,"
        " x=Fraction(-1, 2), aux=RatPoly(['1']))"
    )


def test_shifted_claim_derives_its_own_denominators():
    spec, tables = SeriesSpec(eps=1, x=1, k=1), TableSet.build(1, 1)
    profile = series_error_profile(spec, -1, 20, tables)
    shifted = profile.shifted_claim(1)
    assert shifted.claimed == 0
    fresh = series_error_profile(spec, 0, 20, tables)
    assert shifted == fresh
    for p in (2, 3, 5, 7, 11):
        assert padic_sum_verify(shifted, Prime(p)) == padic_sum_verify(fresh, Prime(p))
    assert profile.shifted_claim(0) == profile
    assert shifted.errors == tuple(e - 1 for e in profile.errors)
    assert shifted.remainders == profile.remainders
    rebuilt = SeriesErrorProfile(spec, 0, profile.value, 20, profile.scale, profile.dr)
    assert rebuilt == shifted and hash(rebuilt) == hash(shifted)


def test_padic_approx_equality():
    assert expand(Fraction(1, 3), Prime(5), 4) == PadicApprox(Prime(5), 0, (2, 3, 1, 3))
    assert expand(0, Prime(5), 2) == PadicApprox(Prime(5), 0, (0, 0))
    assert expand(5, Prime(5), 2) != expand(1, Prime(5), 2)


def test_rat_poly_equality_keeps_the_hash_contract():
    # a constant polynomial is not its number: equal values must hash alike
    assert RatPoly((3,)) != 3
    assert len({RatPoly((3,)), 3}) == 2
    assert RatPoly((1,)) == RatPoly((Fraction(1),))
    assert hash(RatPoly((1,))) == hash(RatPoly((Fraction(1),)))


def test_table_sets_compare_by_their_tables():
    # the bundle round trip of test_tables is pinned through this equality
    assert TableSet.build(3, 1) == TableSet.checked(gen_poly_table(3, 1))
    assert hash(TableSet.build(3, 1)) == hash(TableSet.build(3, 1))
    assert TableSet.build(3, 1) != TableSet.build(3, -1)
    assert TableSet.build(3, 1) != TableSet.build(2, 1)


def test_plain_records_are_named_tuples():
    # these compare equal to the plain tuple of their fields, as the README states
    assert PadicVerdict(False, 3) == (False, 3)
    assert PartialSumResult(2, 5, 3, 2).residual == 0
    assert tuple(int_pairs(2)) == ((0, 1), (-1, 1))
    assert TableSet.build(1, 1)._replace(corr=None).corr is None
    # sum n! n = -1 = V: the profile keeps V, n_max, d = 1 and d R = A_0 = 1, and
    # each error S_N + 1 = N! equals its remainder B_N
    spec = SeriesSpec(eps=1, x=1, k=1)
    profile = series_error_profile(spec, -1, 3, TableSet.build(1, 1))
    assert profile == (spec, -1, -1, 3, 1, (1,))
    assert profile.errors == profile.remainders == (1, 2, 6)


def test_import_loads_neither_dataclasses_nor_inspect():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def modules(code):
        run = subprocess.run([sys.executable, "-c", f"{code}; import sys; print(*sys.modules)"],
                             env=env, capture_output=True, text=True, timeout=60, check=True)
        return set(run.stdout.split())

    added = modules("import padsum.cli") - modules("pass")
    assert "padsum.cli" in added
    assert not {"dataclasses", "inspect"} & added

"""Fixtures shared by the test modules."""

import pytest

from padsum.poly import GenPoly, RatPoly


def _shift_v1(tables):
    vs = (tables.corr.v_polys[0] + RatPoly.one(),) + tables.corr.v_polys[1:]
    return tables._replace(corr=tables.corr._replace(v_polys=vs))


@pytest.fixture()
def tamper_v1():
    """A function giving a TableSet's copy with V_1 shifted by 1, so every
    finite identity with C_1 != 0 has the residual -C_1."""
    return _shift_v1


def _bump_a1(tables):
    a1 = tables.gen.poly(1)
    bumped = GenPoly(a1.eps, (a1.coeff(0) + 1, *a1.coeffs[1:]))
    polys = (tables.gen.polys[0], bumped, *tables.gen.polys[2:])
    return tables._replace(gen=tables.gen._replace(polys=polys))


@pytest.fixture()
def tamper_a1():
    """A function giving a TableSet's copy with the n^0 x^0 coefficient of
    A_1 raised by 1, so the k = 2 finite identity at N = 1 has the
    residual -x."""
    return _bump_a1

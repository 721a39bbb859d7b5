"""Fixtures shared by the test modules."""

import pytest


def _shift_v1(tables):
    (v1,), *vs = tables.corr.vs  # V_1 is the constant -eps
    return tables._replace(corr=tables.corr._replace(vs=((v1 + 1,), *vs)))


@pytest.fixture()
def tamper_v1():
    """A function giving a TableSet's copy with V_1 shifted by 1, so every
    finite identity with C_1 != 0 has the residual -C_1."""
    return _shift_v1


def _bump_a1(tables):
    a0, ((c, *col), *cols), *rows = tables.gen.rows
    bumped = ((c + 1, *col), *cols)
    return tables._replace(gen=tables.gen._replace(rows=(a0, bumped, *rows)))


@pytest.fixture()
def tamper_a1():
    """A function giving a TableSet's copy with the n^0 x^0 coefficient of
    A_1 raised by 1, so the k = 2 finite identity at N = 1 has the
    residual -x."""
    return _bump_a1

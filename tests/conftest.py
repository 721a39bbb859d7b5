"""Fixtures shared by the test modules."""

import dataclasses

import pytest

from padsum.poly import RatPoly


def _shift_v1(tables):
    vs = (tables.corr.v_polys[0] + RatPoly.one(),) + tables.corr.v_polys[1:]
    return dataclasses.replace(tables, corr=dataclasses.replace(tables.corr, v_polys=vs))


@pytest.fixture()
def tamper_v1():
    """A function giving a TableSet's copy with V_1 shifted by 1, so every
    finite identity with C_1 != 0 has the residual -C_1."""
    return _shift_v1

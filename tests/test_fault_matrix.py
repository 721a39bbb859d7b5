"""The fault matrix: a fault in one exact primitive must make each command
that can see it report a failure and exit 1, with no traceback, and
``verify all`` must fail under every fault.  A ``verify`` suite reports it
as a ``FAIL`` line, with nothing on stderr; ``tables`` as ``verification
failure: ...`` on stderr.  Every command runs at its defaults (``tables``
at kmax 8).

A fault is bound at every ``padsum`` module global that holds the
original, which are the names its callers resolve.  The suites that do
not appear in a row do not read the faulty primitive, or cannot tell the
fault from a correct run; the README's note on what each suite can
detect says which.
"""

import sys

import pytest

from padsum import kernel, poly, tables
from padsum.cli import main

FACTORIAL, RISING_BLOCK = kernel.factorial, kernel.rising_block
ADD_SHIFTED, HORNER = poly._add_shifted, poly._horner
ADD_PRODUCT, DERIVATIVE = poly._add_product, poly._derivative
PACK, UNPACK, SIGN_FLIP = tables._pack, tables._unpack, tables.sign_flip


def _add_unshifted(acc, coeffs, scale, shift=0):
    ADD_SHIFTED(acc, coeffs, scale)


def _add_doubling_3(acc, coeffs, scale, shift=0):
    ADD_SHIFTED(acc, coeffs, 2 * scale if scale == 3 else scale, shift)


def _horner_at_t_plus_1(coeffs, t, *start):
    return HORNER(coeffs, t + 1, *start)


def _add_product_short(acc, coeffs, other):
    ADD_PRODUCT(acc, coeffs[:-1], other)


def _derivative_top_unscaled(coeffs):
    derivative = DERIVATIVE(coeffs)
    return (*derivative[:-1], coeffs[-1]) if derivative else derivative


def _sign_flip_keeps_a3_x0(gen):
    # k + j = 3 is odd, so the true flip negates A_3's x^0 column
    flipped = SIGN_FLIP(gen)
    row = (gen.rows[3][0], *flipped.rows[3][1:])
    return flipped._replace(rows=(*flipped.rows[:3], row, *flipped.rows[4:]))


TABLE_READERS = {"finite", "padic", "tables"}  # the commands that build checked tables

# fault: (original, replacement, the commands that must fail besides ``verify all``)
FAULTS = {
    "factorial x2": (FACTORIAL, lambda n: 2 * FACTORIAL(n), {"ode"}),
    "factorial wrong at n=7": (FACTORIAL, lambda n: FACTORIAL(n) + (n == 7), {"telescope", "ode"}),
    "rising_block x2": (RISING_BLOCK, lambda *args: 2 * RISING_BLOCK(*args), {"telescope"}),
    "_add_shifted ignores shift": (ADD_SHIFTED, _add_unshifted, TABLE_READERS | {"ode"}),
    # the residual check sums its packed rows by _add_shifted, scaled by C(k+1, m):
    # C(3, 1) = 3 at k = 2 breaks every table build
    "_add_shifted doubles scale 3": (ADD_SHIFTED, _add_doubling_3, TABLE_READERS | {"ode"}),
    "_horner at t + 1": (HORNER, _horner_at_t_plus_1, TABLE_READERS),
    "_pack drops its last coefficient": (PACK, lambda coeffs, width: PACK(coeffs[:-1], width),
                                         TABLE_READERS),
    "_unpack drops its top digit": (UNPACK, lambda value, width: UNPACK(value, width)[:-1],
                                    TABLE_READERS),
    # only the two-sign grid flips; the -1 table's residual check fails at k = 3
    "sign_flip keeps A_3's x^0 column": (SIGN_FLIP, _sign_flip_keeps_a3_x0, {"finite", "padic"}),
    "_add_product drops a last term": (ADD_PRODUCT, _add_product_short, {"ode"}),
    "_derivative top unscaled": (DERIVATIVE, _derivative_top_unscaled, {"ode"}),
}

CASES = [(fault, cmd) for fault, (_, _, cmds) in FAULTS.items() for cmd in sorted(cmds | {"all"})]


def _inject(monkeypatch, original, replacement):
    bound = [
        (module, name)
        for module_name, module in list(sys.modules.items())
        if module is not None and module_name.partition(".")[0] == "padsum"
        for name, value in vars(module).items()
        if value is original
    ]
    assert bound, "the fault is bound nowhere"
    for module, name in bound:
        monkeypatch.setattr(module, name, replacement)


@pytest.mark.parametrize("fault, command", CASES)
def test_fault_is_reported(fault, command, monkeypatch, capsys, tmp_path):
    original, replacement, _ = FAULTS[fault]
    _inject(monkeypatch, original, replacement)
    argv = (["tables", "--kmax", "8", "--out", str(tmp_path)]
            if command == "tables" else ["verify", command])
    assert main(argv) == 1  # an exception here would be a traceback
    captured = capsys.readouterr()
    if command == "tables":
        assert captured.err.startswith("verification failure: ")
    else:  # each failed check of a verify suite, a table's cross-check included, is a FAIL line
        assert any(line.startswith("FAIL ") for line in captured.out.splitlines())
        assert captured.err == ""

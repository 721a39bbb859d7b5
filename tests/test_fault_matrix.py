"""The fault matrix: a fault in one exact primitive must make each command
that can see it report a failure and exit 1, with no traceback, and
``verify all`` must fail under every fault.  Every command runs at its
defaults (``tables`` at kmax 8).

A fault is bound at every ``padsum`` module global that holds the
original, which are the names its callers resolve.  The suites that do
not appear in a row do not read the faulty primitive, or cannot tell the
fault from a correct run; the README's note on what each suite can
detect says which.
"""

import sys

import pytest

from padsum import kernel, poly
from padsum.cli import main

FACTORIAL, RISING_BLOCK = kernel.factorial, kernel.rising_block
ADD_SHIFTED, HORNER = poly._add_shifted, poly._horner


def _add_unshifted(acc, coeffs, scale, shift=0):
    ADD_SHIFTED(acc, coeffs, scale)


def _add_doubling_3(acc, coeffs, scale, shift=0):
    ADD_SHIFTED(acc, coeffs, 2 * scale if scale == 3 else scale, shift)


def _horner_at_t_plus_1(coeffs, t, *start):
    return HORNER(coeffs, t + 1, *start)


TABLE_READERS = {"finite", "padic", "tables"}  # the commands that build checked tables

# fault: (original, replacement, the commands that must fail besides ``verify all``)
FAULTS = {
    "factorial x2": (FACTORIAL, lambda n: 2 * FACTORIAL(n), {"ode"}),
    "factorial wrong at n=7": (FACTORIAL, lambda n: FACTORIAL(n) + (n == 7), {"telescope", "ode"}),
    "rising_block x2": (RISING_BLOCK, lambda *args: 2 * RISING_BLOCK(*args), {"telescope"}),
    "_add_shifted ignores shift": (ADD_SHIFTED, _add_unshifted, TABLE_READERS | {"ode"}),
    "_add_shifted doubles scale 3": (ADD_SHIFTED, _add_doubling_3, TABLE_READERS | {"ode"}),
    "_horner at t + 1": (HORNER, _horner_at_t_plus_1, TABLE_READERS),
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
    reported = any(line.startswith("FAIL ") for line in captured.out.splitlines())
    assert reported or captured.err.startswith("verification failure: ")

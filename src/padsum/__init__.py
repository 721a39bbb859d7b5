"""Exact arithmetic for p-adic factorial series.

Generates the generating-polynomial, correction-polynomial and
integer-pair tables of the summation identity

    sum_{n>=0} eps^n n! [n^k x^k + U_k(x)] x^n = V_k(x)

by recurrence, cross-checks every table along an independent route, and
verifies the identities three ways: exact finite residuals, telescoping
boundary identities, and p-adic checks of partial-sum errors against the
exact remainder.

``import padsum`` exports only the names of the README's quick tour
(``__all__``); everything else is imported from its module
(``padsum.tables``, ``padsum.series``, ...).

The submodules load on first use.  ``import padsum`` puts each of
``kernel``, ``poly``, ``padic``, ``tables``, ``series``, ``telescope`` and
``fps`` into ``sys.modules`` at once, with a ``LazyLoader``, and its code
compiles and runs at its first attribute access; the quick-tour names
resolve through the module ``__getattr__``.  Since every module is in
``sys.modules`` from the start, code that walks ``sys.modules`` for
padsum's names still finds each of them: reading a module's namespace
(``vars``) loads it.

``padsum.cli`` parses the arguments and imports the module of
``padsum.commands`` that runs the command, so a command runs only its own
code, and ``poly`` only where a polynomial object is needed; the exact
scalars (``kernel._exact_scalar``, ``_exact``, ``_quotient``) load
``fractions`` only for a non-integer.  ``verify ode`` runs ``kernel`` and
``fps``; ``tables --format json`` and ``--format csv``, ``seq`` and
``seq-compare`` run ``kernel`` and ``tables`` alone, on integer rows;
``verify telescope`` runs ``kernel``, ``poly`` and ``telescope``;
``tables --format text`` runs ``kernel``, ``tables`` and ``poly``;
``verify finite`` runs ``kernel``, ``tables``, ``series`` and
``telescope`` (which ``series`` binds), and ``verify padic`` adds
``padic``, with no ``fractions`` at integer points and claims.
"""

import importlib.util
import sys

__version__ = "0.1.0"

for _name in ("kernel", "poly", "padic", "tables", "series", "telescope", "fps"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)  # runs nothing yet: the first attribute access will
    # as a package attribute too, so that ``from . import tables`` does not load it
    sys.modules[_spec.name] = globals()[_name] = _module
del _name, _spec, _module

# the quick tour's names and their modules
_EXPORTS = {
    "Prime": "padic",
    "SeriesSpec": "series",
    "finite_identity_sweep": "series",
    "padic_sum_verify": "series",
    "series_error_profile": "series",
    "TableSet": "tables",
    "bell_numbers": "tables",
    "int_pairs": "tables",
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(globals()[_EXPORTS[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

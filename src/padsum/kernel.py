"""Exact integer primitives: factorials, rising blocks, digit sums.

Everything here is pure and exact.  Integers are plain Python ints
(arbitrary precision), and they stay ints through the rest of the package:
a ``fractions.Fraction`` (reduced, positive denominator) appears only
where an input is fractional or a division happens.
"""

from __future__ import annotations

import threading

_factorials = [1]
_lock = threading.Lock()


def factorial(n: int) -> int:
    """n!, memoized across calls.

    Partial-sum sweeps up to N reuse every smaller factorial, so the memo
    pays for itself immediately.  The table is append-only and guarded by a
    lock, safe to share between threads.
    """
    if n < 0:
        raise ValueError(f"factorial undefined for n = {n}")
    if n >= len(_factorials):
        with _lock:
            while len(_factorials) <= n:
                _factorials.append(_factorials[-1] * len(_factorials))
    return _factorials[n]


def rising_block(base: int, width: int, power: int) -> int:
    """[(base+1)(base+2)...(base+width)]**power.

    With base = m*n + v, width = m, power = l this is exactly the factor
    turning ((m*n + v)!)**l into ((m*(n+1) + v)!)**l, i.e. the step a
    factorial product telescopes over.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    prod = 1
    for s in range(1, width + 1):
        prod *= base + s
    return prod**power


def digit_sum(n: int, base: int) -> int:
    """Sum of the digits of n written in the given base (>= 2)."""
    if n < 0:
        raise ValueError(f"digit_sum needs n >= 0, got {n}")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    total = 0
    while n:
        n, d = divmod(n, base)
        total += d
    return total

"""Reference loop that measures how fast the benchmark's core runs.

Run as ``python3 perfbench/speed.py``.  At the lowest priority it repeats a
fixed chunk of pure-Python integer and ``Fraction`` arithmetic, the kind of
work padsum does, until it receives SIGTERM.  Then it prints the number of
chunks done and the CPU seconds they took.

The benchmark runs it on the same core as the passes for the whole run.
The scheduler interleaves it with the passes every few milliseconds, so its
chunks per CPU-second follow the speed that the host lends the core to the
passes, which swings by up to 2x within minutes on a shared machine.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from fractions import Fraction

_stop = False


def chunk() -> int:
    acc = Fraction(0)
    for i in range(1, 25):
        acc += Fraction(i, i + 1) * Fraction(2 * i + 1, 3)
    n = 1
    for i in range(1, 60):
        n *= i
    return acc.numerator + n


def main() -> int:
    def stop(*_):
        global _stop
        _stop = True

    signal.signal(signal.SIGTERM, stop)
    os.nice(19)
    chunks = 0
    start = time.process_time()
    while not _stop:
        chunk()
        chunks += 1
    print(chunks, time.process_time() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())

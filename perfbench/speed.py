"""The machine's speed, measured by a fixed reference loop.

The shared host this benchmark runs on changes speed by up to a third over
minutes (neighbours come and go), and every job, interpreter start and
pure-Python loop slows or speeds up with it.  Timing the same loop right
before each measured piece of work gives that speed; dividing the work's
time by the loop's time and multiplying by the loop's time on the reference
machine (``REFERENCE_LOOP_S``) gives the work's time at reference speed.
The loop mixes what the program does: interpreted integer arithmetic,
big-int multiplication, numpy vector arithmetic and dict/str building.
It never calls the program, so no change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

# Time of reference_loop() on the reference machine, a 2-vCPU Intel Xeon
# (2.1 GHz) virtual machine with Python 3.11.7, numpy 2.4.6 and one BLAS
# thread, where its median over a minute ranged from 14 to 16 ms as the
# host's speed changed.  It only sets the unit: a time at reference speed is
# a time in reference loops, times this constant.
REFERENCE_LOOP_S = 0.015


def reference_loop() -> int:
    s = 0
    for i in range(60_000):
        s += i * i % 7
    x = 3 ** 3000
    for _ in range(200):
        s ^= (x * x) >> 9000
    a = np.arange(20_000.0)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    d = {i: str(i) for i in range(20_000)}
    return s + len(d) + int(a[-1])


def time_reference_loop() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start

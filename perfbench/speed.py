"""The speed kernel that scales every benchmark time to one reference speed.

On a 2-core VM that shares its cores with other tenants, the speed drifted
by up to 2x over minutes: one op on fixed input took 1.0 s and 2.0 s within
the same minute, in CPU time as in wall time. A time measured there says as
much about the neighbours as about the program. So
the benchmark runs a fixed exact-arithmetic kernel, stdlib only, just before
and just after every timed step, and reports the step's time as

    measured seconds * REFERENCE_S / (mean kernel CPU seconds around it)

that is, in seconds at the speed where the kernel takes REFERENCE_S. The
kernel multiplies rational polynomials with ``fractions.Fraction``, the same
kind of work as the package's ``Poly`` hot loop, but it is the benchmark's
own code: no change to the package can move it. The raw wall times are
recorded beside the scaled ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

# A round figure near the kernel's CPU time on that 2-core VM (Python 3.11.7,
# where it read 0.12 to 0.2 s). It only sets the scale.
REFERENCE_S = 0.15
_STEPS = 95
# The speed of that VM changed within a second. Over a 1.3 s op, the op time
# over the kernel time varied less with four products per kernel run (sd of
# its log 0.107) than with one (0.135), measured on 30 ops of fixed input.
_REPEATS = 4


def _kernel() -> None:
    weights = [Fraction(i + 1, 2 * i + 3) for i in range(40)]
    poly = [Fraction(1)]
    for k in range(_STEPS):  # poly *= (x + w_k), coefficients grow as they do in q_n
        w = weights[k % 40]
        nxt = [Fraction(0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i] += c * w
            nxt[i + 1] += c
        poly = nxt


def kernel_seconds() -> float:
    """CPU seconds of one kernel run in this process."""
    start = time.process_time()
    for _ in range(_REPEATS):
        _kernel()
    return time.process_time() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """Seconds at the reference speed, given the kernel times around a step."""
    return seconds * REFERENCE_S / ((before + after) / 2)

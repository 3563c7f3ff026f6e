"""Typical windows of the method of types.

The planners cover the count window of each source (:func:`typical_range`)
and apportion frequencies to integer counts; cardinalities, probabilities
and masses of types come from the certified kernel in
:mod:`athermal.counting`.  Entropies are in nats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

__all__ = [
    "shannon_entropy",
    "typical_range",
    "apportion",
]


def shannon_entropy(f: Sequence[float]) -> float:
    """H(f) = -sum f_i ln f_i in nats, with 0 ln 0 = 0."""
    values = [float(x) for x in f]
    return -sum(v * math.log(v) for v in values if v > 0.0)


def _window_center(n: int, f: float) -> int:
    """Rounded mean count; exact half-integers round toward the likelier count."""
    mu = n * f
    lo = math.floor(mu)
    if mu - lo != 0.5:
        return round(mu)
    # pmf(lo + 1) / pmf(lo) = (n - lo) f / ((lo + 1) (1 - f)), compared in
    # exact rationals; ties go to the lower count.
    f = Fraction(f)
    return lo + ((n - lo) * f > (lo + 1) * (1 - f))


def typical_range(n: int, f: float, width: float) -> tuple[int, int]:
    """Inclusive count window [center - w sqrt(n), center + w sqrt(n)] clipped
    to [0, n]; deterministic levels (f in {0, 1}) pin their exact count.
    The width must be finite and nonnegative (ValueError otherwise)."""
    if not 0.0 <= width < math.inf:
        raise ValueError(f"window width must be finite and nonnegative, got {width}")
    if f <= 0.0:
        return 0, 0
    if f >= 1.0:
        return n, n
    center = _window_center(n, f)
    radius = width * math.sqrt(n)
    lo = max(0, math.ceil(center - radius))
    hi = min(n, math.floor(center + radius))
    if lo > hi:
        lo = hi = min(n, max(0, center))
    return lo, hi


def apportion(total: int, freqs: Sequence[float]) -> tuple[int, ...]:
    """Integer counts summing to ``total`` by largest-remainder rounding."""
    raw = [total * float(f) for f in freqs]
    counts = [math.floor(v) for v in raw]
    order = sorted(range(len(freqs)), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return tuple(counts)

"""Exact method-of-types machinery.

Type descriptors hold exact integer occupation counts; cardinalities are
exact arbitrary-precision integers below a configurable size threshold and
log-gamma approximations above it (the mode in use is recorded wherever it
matters).  Entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

__all__ = [
    "TypeDescriptor",
    "FrequencyVector",
    "EXACT_COUNT_THRESHOLD",
    "type_cardinality",
    "log_type_cardinality",
    "log_binomial",
    "cardinality_bounds",
    "typical_types",
    "typical_mass",
    "typical_range",
    "type_probability",
    "shannon_entropy",
    "all_types",
]

# Above this total, log_type_cardinality switches from exact integer
# arithmetic to a log-gamma approximation (relative error < 1e-8).
EXACT_COUNT_THRESHOLD = 10_000


@dataclass(frozen=True)
class TypeDescriptor:
    """Occupation counts per energy level of a multi-copy string ensemble."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")

    @classmethod
    def two_level(cls, n: int, ones: int) -> "TypeDescriptor":
        if not 0 <= ones <= n:
            raise ValueError("ones must lie in [0, n]")
        return cls((n - ones, ones))

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def ones(self) -> int:
        """Number of 1s, for two-level descriptors."""
        if self.dim != 2:
            raise ValueError("ones is only defined for two-level descriptors")
        return self.counts[1]

    def frequencies(self) -> "FrequencyVector":
        n = self.total
        return FrequencyVector(tuple(Fraction(c, n) for c in self.counts))


@dataclass(frozen=True)
class FrequencyVector:
    """Occupation frequencies; exact when built from Fractions."""

    freqs: tuple

    def __post_init__(self):
        freqs = tuple(self.freqs)
        object.__setattr__(self, "freqs", freqs)
        if any(f < 0 or f > 1 for f in freqs):
            raise ValueError("frequencies must lie in [0, 1]")
        total = sum(freqs)
        if self.is_rational:
            if total != 1:
                raise ValueError("rational frequencies must sum to exactly 1")
        elif abs(float(total) - 1.0) > 1e-12:
            raise ValueError("frequencies must sum to 1 within 1e-12")

    @property
    def is_rational(self) -> bool:
        return all(isinstance(f, (Fraction, int)) for f in self.freqs)

    @property
    def dim(self) -> int:
        return len(self.freqs)

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(f) for f in self.freqs)


def type_cardinality(t: TypeDescriptor) -> int:
    """Exact multinomial coefficient n! / prod(counts_i!)."""
    n = t.total
    result = 1
    remaining = n
    for c in t.counts[:-1]:
        result *= math.comb(remaining, c)
        remaining -= c
    return result


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k) via log-gamma; -inf outside the valid range."""
    if k < 0 or k > n:
        return -math.inf
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def log_type_cardinality(t: TypeDescriptor,
                         exact_threshold: int = EXACT_COUNT_THRESHOLD) -> float:
    """ln of the multinomial cardinality.

    Exact-integer route below ``exact_threshold`` total systems, log-gamma
    beyond (relative error below 1e-8).
    """
    if t.total <= exact_threshold:
        return math.log(type_cardinality(t)) if t.total > 0 else 0.0
    result = math.lgamma(t.total + 1)
    for c in t.counts:
        result -= math.lgamma(c + 1)
    return result


def cardinality_bounds(t: TypeDescriptor) -> tuple[float, float]:
    """Entropy sandwich for ln(multinomial), in nats.

    Lower: n H(f) + 1 - d' ln(n e) - sum ln f_i over positive-count levels
    (d' of them); upper: n H(f) + ln n.  Both follow from Stirling-type
    factorial bounds and hold for every type with n >= 1.
    """
    n = t.total
    if n == 0:
        return 0.0, 0.0
    positive = [c for c in t.counts if c > 0]
    d_eff = len(positive)
    ent = n * shannon_entropy(t.frequencies())
    lower = ent + 1.0 - d_eff * math.log(n * math.e) - sum(
        math.log(Fraction(c, n)) for c in positive
    )
    upper = ent + math.log(n)
    return lower, upper


def shannon_entropy(f: FrequencyVector | Sequence[float]) -> float:
    """H(f) = -sum f_i ln f_i in nats, with 0 ln 0 = 0."""
    values = f.as_floats() if isinstance(f, FrequencyVector) else [float(x) for x in f]
    return -sum(v * math.log(v) for v in values if v > 0.0)


def _window_center(n: int, f: float) -> int:
    """Rounded mean count; exact half-integers round toward the likelier count."""
    mu = n * f
    lo = math.floor(mu)
    if mu - lo != 0.5:
        return round(mu)
    hi = lo + 1
    # Compare binomial pmf at the two candidates; ties go to the lower count.
    if 0 < f < 1:
        log_ratio = (log_binomial(n, hi) - log_binomial(n, lo)
                     + math.log(f) - math.log(1 - f))
        if log_ratio > 0:
            return hi
    return lo


def typical_range(n: int, f: float, width: float) -> tuple[int, int]:
    """Inclusive count window [center - w sqrt(n), center + w sqrt(n)] clipped
    to [0, n]; deterministic levels (f in {0, 1}) pin their exact count."""
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


def typical_types(n: int, probs: FrequencyVector | Sequence[float],
                  width: float) -> list[TypeDescriptor]:
    """All types whose per-level counts deviate from the rounded means by
    at most width * sqrt(n), intersected with the simplex; never empty."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if width <= 0:
        raise ValueError("width must be positive")
    freqs = probs.as_floats() if isinstance(probs, FrequencyVector) else [float(p) for p in probs]
    bounds = [typical_range(n, f, width) for f in freqs]

    out: list[TypeDescriptor] = []

    def recurse(level: int, remaining: int, prefix: tuple[int, ...]):
        if level == len(freqs) - 1:
            lo, hi = bounds[level]
            if lo <= remaining <= hi:
                out.append(TypeDescriptor(prefix + (remaining,)))
            return
        lo, hi = bounds[level]
        # Keep enough headroom for the remaining levels.
        tail_lo = sum(b[0] for b in bounds[level + 1:])
        tail_hi = sum(b[1] for b in bounds[level + 1:])
        for c in range(max(lo, remaining - tail_hi), min(hi, remaining - tail_lo) + 1):
            recurse(level + 1, remaining - c, prefix + (c,))

    recurse(0, n, ())
    if not out:
        # Degenerate window (possible only for tiny n*width): fall back to
        # the largest-remainder apportionment of the means.
        counts = [math.floor(n * f) for f in freqs]
        rema = sorted(range(len(freqs)), key=lambda i: n * freqs[i] - counts[i],
                      reverse=True)
        for i in rema[: n - sum(counts)]:
            counts[i] += 1
        out.append(TypeDescriptor(tuple(counts)))
    return out


def type_probability(t: TypeDescriptor, probs: FrequencyVector | Sequence) -> Fraction | float:
    """Probability that an i.i.d. source with the given single-copy
    distribution emits a string of this type; exact in rational mode."""
    values = probs.freqs if isinstance(probs, FrequencyVector) else tuple(probs)
    if all(isinstance(v, (Fraction, int)) for v in values):
        prob = Fraction(type_cardinality(t))
        for f, c in zip(values, t.counts):
            if c:
                if f == 0:
                    return Fraction(0)
                prob *= Fraction(f) ** c
        return prob
    log_p = 0.0
    for f, c in zip(values, t.counts):
        if c:
            if f == 0.0:
                return 0.0
            log_p += c * math.log(float(f))
    return math.exp(log_type_cardinality(t) + log_p)


def typical_mass(n: int, probs: FrequencyVector | Sequence,
                 window: Sequence[TypeDescriptor]) -> Fraction | float:
    """Total source probability of the given window of types."""
    total = None
    for t in window:
        if t.total != n:
            raise ValueError("window contains a type of the wrong total")
        p = type_probability(t, probs)
        total = p if total is None else total + p
    return total if total is not None else 0


def all_types(n: int, d: int) -> Iterator[TypeDescriptor]:
    """All compositions of n into d nonnegative parts."""

    def recurse(level: int, remaining: int, prefix: tuple[int, ...]):
        if level == d - 1:
            yield TypeDescriptor(prefix + (remaining,))
            return
        for c in range(remaining + 1):
            yield from recurse(level + 1, remaining - c, prefix + (c,))

    yield from recurse(0, n, ())

"""Finite-size work-distillation plans for two-level systems.

A plan maps ``gamma^(ell) (x) rho^(n)`` to ``exhaust^(k) (x) |1><1|^(m)`` by
an energy-conserving injection on strings, applied separately to every
composite typical type.  Every feasibility decision reads a float
log-gamma margin and is certified by a proven rounding bound on it; the
rare margin inside that bound is settled in exact integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Iterator

import numpy as np

from .core import DensityMatrix, binary_entropy, gibbs_weight, von_neumann_entropy
from .typeclass import log_binomial, typical_range

__all__ = [
    "PerTypeRecord",
    "DistillationPlan",
    "BlockRecord",
    "BlockDiagonalizationRecord",
    "rate_limit",
    "solve_single_type",
    "distill_feasible",
    "plan_distillation",
    "plan_distillation_general",
    "binomial_log_pmf",
    "binomial_outside_mass",
]


def rate_limit(p: float, beta: float) -> float:
    """Asymptotic distillation rate (h(q) - h(p) + beta (p - q)) / (h(q) + beta (1 - q)).

    Equals D(rho||gamma) / D(|1><1| || gamma) for the two-level system with
    unit gap; the denominator is -ln q.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not (beta > 0 and math.isfinite(beta)):
        raise ValueError("beta must be positive and finite")
    q = gibbs_weight(beta)
    numerator = binary_entropy(q) - binary_entropy(p) + beta * (p - q)
    denominator = binary_entropy(q) + beta * (1.0 - q)
    return numerator / denominator


def distill_feasible(ell: int, gibbs_ones: int, n: int, resource_ones: int,
                     m: int, exact: bool = True) -> bool:
    """Whether C(ell,g) C(n,r) <= C(ell+n-m, g+r-m) with a valid exhaust."""
    e = gibbs_ones + resource_ones - m
    k = ell + n - m
    if e < 0 or e > k:
        return False
    if exact:
        return math.comb(ell, gibbs_ones) * math.comb(n, resource_ones) <= math.comb(k, e)
    lhs = log_binomial(ell, gibbs_ones) + log_binomial(n, resource_ones)
    return lhs <= log_binomial(k, e)


def solve_single_type(ell: int, gibbs_ones: int, n: int, resource_ones: int,
                      exact: bool = True) -> int:
    """Largest m such that the per-type counting inequality holds.

    The feasible set is downward closed in m, so a binary search applies.
    m = 0 is always feasible (Vandermonde), hence the result is >= 0.
    """
    if not 0 <= gibbs_ones <= ell or not 0 <= resource_ones <= n:
        raise ValueError("one-counts out of range")
    return _bisect(lambda m: distill_feasible(ell, gibbs_ones, n, resource_ones, m, exact=exact),
                   0, gibbs_ones + resource_ones, largest=True)


@dataclass(frozen=True)
class PerTypeRecord:
    """Injection record for one composite type (bath type, resource type)."""

    gibbs_ones: int
    resource_ones: int
    exhaust_ones: int
    m: int
    log_input_cardinality: float
    log_exhaust_cardinality: float

    def check(self) -> None:
        if self.gibbs_ones + self.resource_ones != self.exhaust_ones + self.m:
            raise ValueError("per-type record violates conservation of 1s")
        if self.log_input_cardinality > self.log_exhaust_cardinality + 1e-6:
            raise ValueError("per-type record violates the counting inequality")


@dataclass(frozen=True)
class DistillationPlan:
    """Complete finite-n distillation protocol record.

    The plan is fixed by (ell, n, m) and the windows; the record of every
    covered composite type is derived from them on demand by
    :meth:`records`.  ``worst_type`` is the record of the largest type in
    the binding shell.
    """

    n: int
    ell: int
    m: int
    k: int
    p: float
    beta: float
    width: float
    failure_mass: float
    achieved_rate: float
    epsilon: float
    r_limit: float
    worst_type: PerTypeRecord
    no_resource: bool = False
    # Built through the rotate-then-permute route: per-type records hold
    # energy-block rank caps instead of full type cardinalities, so the
    # string executors do not apply.
    coherent: bool = False
    gibbs_window: tuple[int, int] = (0, 0)
    resource_window: tuple[int, int] = (0, 0)
    num_composite_types: int = 0

    def __post_init__(self):
        if self.k != self.ell + self.n - self.m:
            raise ValueError("conservation of dimension violated: k != ell + n - m")
        if self.worst_type.m != self.m:
            raise ValueError("worst type carries a foreign m")
        if not self.covers(self.worst_type.gibbs_ones, self.worst_type.resource_ones):
            raise ValueError("worst type lies outside the plan windows")
        self.worst_type.check()

    @property
    def q(self) -> float:
        return gibbs_weight(self.beta)

    def covers(self, gibbs_ones: int, resource_ones: int) -> bool:
        return (self.gibbs_window[0] <= gibbs_ones <= self.gibbs_window[1]
                and self.resource_window[0] <= resource_ones <= self.resource_window[1])

    def records(self, blocks: BlockDiagonalizationRecord | None = None
                ) -> Iterator[PerTypeRecord]:
        """Yield the certified record of every covered composite type.

        Coherent plans read their block rank caps from ``blocks``, the
        record :func:`plan_distillation_general` returned with the plan.
        """
        if self.coherent and blocks is None:
            raise ValueError("a coherent plan derives its records from its block record")
        axis = (_cap_axis(self.n, blocks, self.resource_window) if self.coherent
                else _binomial_axis(self.n, self.resource_window))
        yield from _records(self.ell, self.n, self.m, self.gibbs_window, self.resource_window,
                            *axis)

    # Schema-1 name of the records, kept as a lazily derived view because
    # perfbench/tracer.py still reads it.
    per_type_maps = property(records)


def _log_comb(big: int, ks: np.ndarray) -> np.ndarray:
    """ln C(big, k) for every k of ``ks``, from log-factorials of those indices only."""
    return _log_factorial(big) - _log_factorial(ks) - _log_factorial(big - ks)


# ln k! for k = 0 .. 15, pinned to the doubles of Cephes' lgam (scipy's
# gammaln), so plans and formation documents derived from them do not move.
_LOG_FACTORIAL_SMALL = np.array([
    0.0, 0.0, 0.6931471805599453, 1.791759469228055, 3.1780538303479458,
    4.787491742782046, 6.579251212010101, 8.525161361065415, 10.60460290274525,
    12.801827480081469, 15.104412573075516, 17.502307845873887, 19.987214495661885,
    22.55216385312342, 25.191221182738683, 27.899271383840894])
# Arrays whose largest entry is below this read ln k! from a table.
_TABLE_SIZE = 2 ** 16
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def _stirling(k: np.ndarray) -> np.ndarray:
    """ln k! for float k >= 16: Stirling's formula plus :func:`_stirlerr`'s
    series, of which 1/(12k) is all that counts once k >= 2^16 (the next
    term is then below 1e-17, and ln k! above 6e5)."""
    series = _stirlerr(k) if k.min() < _TABLE_SIZE else (1 / 12) / k
    return (k + 0.5) * np.log(k) - k + _HALF_LOG_2PI + series


@cache
def _log_factorial_table() -> np.ndarray:
    """ln k! for 0 <= k < _TABLE_SIZE, then +inf, read at every negative k."""
    return np.concatenate((_LOG_FACTORIAL_SMALL, _stirling(np.arange(16.0, _TABLE_SIZE)),
                           [np.inf]))


def _log_factorial(k) -> np.ndarray:
    """ln k! at integer-valued k, +inf below 0 (the poles of log-gamma).

    Pinned values below 16 and Stirling's formula from 16 up (the error
    budget is in :func:`_margin_bound`); arrays whose entries all lie in
    [0, 2^16) read the same values from a table.
    """
    k = np.asarray(k, dtype=np.int64)
    table = _log_factorial_table()
    if k.view(np.uint64).max(initial=0) < _TABLE_SIZE:     # a negative k reads as huge
        return table[k]
    if k.min() >= 16:
        return _stirling(k.astype(float))
    return np.where(k >= 16, _stirling(np.maximum(k, 16).astype(float)),
                    table[np.clip(k, -1, 15)])


def _stirlerr(k) -> np.ndarray:
    """ln k! - ln(sqrt(2 pi k) (k/e)^k) for k >= 1: pinned log-factorials up
    to 15, Stirling's series above (its first omitted term is then below 1e-16)."""
    k = np.asarray(k, dtype=float)
    u = (1.0 / k) ** 2
    series = (1 / 12 - u * (1 / 360 - u * (1 / 1260 - u * (1 / 1680 - u / 1188)))) / k
    if k.min() > 15:
        return series
    small = np.minimum(k, 15.0)
    return np.where(k > 15, series, _log_factorial(small)
                    - (small + 0.5) * np.log(small) + small - _HALF_LOG_2PI)


def _bd0(x: np.ndarray, mean: float) -> np.ndarray:
    """Deviance x ln(x / mean) + mean - x for x > 0.  Where |v| < 0.1, with
    v = (x - mean) / (x + mean), it is summed free of cancellation as
    (x - mean) v + 2x sum_j v^(2j+1) / (2j+1), to the first j with
    max v^(2j) below 1e-18 (at most nine terms).  Elsewhere the logarithm
    is ln(x / mean), or ln x - ln mean where x / mean overflows (a
    subnormal mean)."""
    d = x - mean
    v = (0.5 * d) / (0.5 * x + 0.5 * mean)     # halved, as x + mean passes 1e308
    v2 = v * v
    near = v2 < 0.01
    top = float(np.max(v2, where=near, initial=0.0))
    total, power = d * v, 2.0 * (x * v)
    for j in range(1, math.ceil(math.log(1e-18) / math.log(top)) + 1 if top > 0 else 1):
        power = power * v2
        total = total + power / (2 * j + 1)
    if near.all():
        return total
    log_ratio = (np.log(x / mean) if float(np.max(x)) / mean < math.inf
                 else np.log(x) - math.log(mean))
    return np.where(near, total, x * log_ratio + mean - x)


def _log_sum_exp(logs: np.ndarray) -> float:
    """ln sum exp(logs), shifted by the largest term so none overflows."""
    top = float(np.max(logs))
    if not math.isfinite(top):
        return top
    return top + math.log(np.sum(np.exp(logs - top)))


def binomial_log_pmf(n: int, p: float, ks) -> np.ndarray:
    """ln Pr[Binomial(n, p) = k] for every k of ``ks``; -inf where impossible.

    Loader's saddle-point form (C. Loader, "Fast and accurate computation
    of binomial probabilities", 2000) keeps ~1e-11 relative precision at
    n ~ 1e8, where ln C(n, k) as a difference of log-gamma values of size
    n ln n loses ~1e-6.  k in {0, n} and p in {0, 1} are exact.
    """
    ks = np.asarray(ks)
    if p == 0.0 or p == 1.0:
        return np.where(ks == (0 if p == 0.0 else n), 0.0, -np.inf)
    out = np.full(ks.shape, -np.inf)
    out[ks == 0] = n * math.log1p(-p)
    out[ks == n] = n * math.log(p)
    inner = (ks > 0) & (ks < n)
    if inner.any():
        k = ks[inner].astype(float)
        out[inner] = (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
                      - _bd0(k, n * p) - _bd0(n - k, n * (1.0 - p))
                      - 0.5 * (math.log(2 * math.pi) + np.log(k) + np.log1p(-k / n)))
    return out


def binomial_outside_mass(n: int, p: float, window: tuple[int, int]) -> float:
    """Binomial(n, p) mass outside an inclusive count window.

    Each tail is summed in log space outward from the window edge, in
    blocks of doubling size, so small masses keep their relative precision.
    The pmf is log-concave: once the outward step ratio r is below 1, the
    rest of the tail is at most pmf r / (1 - r), and the sum stops when
    that bound falls below 1e-16 of the tail so far.
    """
    lo, hi = window
    if not 0.0 < p < 1.0:
        return 0.0 if lo <= round(n * p) <= hi else 1.0
    total = -math.inf
    for k, step, odds in ((lo - 1, -1, (1.0 - p) / p), (hi + 1, 1, p / (1.0 - p))):
        tail, block = -math.inf, 256
        while 0 <= k <= n:
            last = min(n, k + block - 1) if step > 0 else max(0, k - block + 1)
            logs = binomial_log_pmf(n, p, np.arange(k, last + step, step))
            tail = np.logaddexp(tail, _log_sum_exp(logs))
            k, block = last + step, 2 * block
            ratio = odds * ((n - last) / (last + 1) if step > 0 else last / (n - last + 1))
            rest = logs[-1] + math.log(ratio / (1.0 - ratio)) if 0.0 < ratio < 1.0 else math.inf
            if rest <= tail + _LOG_RESOLUTION:
                break
        total = np.logaddexp(total, tail)
    return min(float(np.exp(total)), 1.0)


# Machine epsilon of IEEE doubles, 2^-52.
_EPS = float(np.finfo(float).eps)
# A tail this far below the sum it joins cannot move it (float resolution).
_LOG_RESOLUTION = math.log(1e-16)


def _margin_bound(big: int) -> float:
    """delta(N) = 16 eps (N ln N + N + 4): bound on the rounding error of a
    float shell or pair margin whose binomial tops are all at most N.

    A margin is ln C(k, e) less ln of the input strings it must absorb,
    built from ln C(x, y) = G(x) - G(y) - G(x-y), G = :func:`_log_factorial`,
    over the tops x in {ell, n, k}.  The callers pass N = ell + max(n, m), which
    bounds all three (k = ell + n - m in distillation, m + ell - n in
    formation), so the tops have sum x <= 2N and sum x ln x <= 2 N ln N.
    Rounding budget, eps = 2^-52:

    - G errs by <= 2.5 eps relative: its pinned values below 16 are
      within 0.71 eps, and its Stirling branch peaks at 1.4 eps over every
      k <= 2,000 and 3,000 random k up to 1e8 (tested against mpmath).
      G >= 0 and G(y) + G(x-y) <= G(x) <= x ln x + 1, so the three
      values of one ln C(x, .) err by <= 2.5 eps (2 x ln x + 5), and its two
      subtractions round values <= x ln x + 1, adding <= eps (x ln x + x + 1).
      Over the three tops: <= eps (12 N ln N + 2N + 41).
    - A shell sum (:func:`_shell_log_sums`) shifts, tilts and untilts values
      of size <= 2N ln 2 and convolves <= N + 1 positive products (relative
      error <= (N + 2) eps); a coherent rank cap adds a log-sum of <= n + 1
      terms.  In all <= eps (6N + 8).
    - The final difference rounds once; |margin| <= 2N: <= eps N.

    The total, eps (12 N ln N + 9N + 49), stays below delta(N).
    """
    return 16.0 * _EPS * (big * math.log(big) + big + 4)


def _certify(margins: np.ndarray, delta: float, holds: Callable[[int], bool]) -> int | None:
    """Index of an inequality proven to fail, or None when all are proven.

    A float margin >= delta proves its inequality and one <= -delta refutes
    it (the most negative is returned); only the indices whose margin lies
    in between are passed to ``holds``, which decides them in exact integers.
    """
    worst = int(np.argmin(margins))
    if margins[worst] <= -delta:
        return worst
    return next((int(i) for i in np.flatnonzero(margins < delta) if not holds(int(i))), None)


def _bisect(feasible: Callable[[int], bool], lo: int, hi: int, largest: bool) -> int:
    """Monotone search over [lo, hi]: the largest feasible value of a
    downward-closed set containing lo, or the smallest of an upward-closed
    set containing hi."""
    while lo < hi:
        if largest:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if feasible(mid) else (lo, mid - 1)
        else:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if feasible(mid) else (mid + 1, hi)
    return lo


Factor = tuple[int, int] | int      # (x, y) stands for C(x, y), an int for itself


def _factor_value(f: Factor) -> int:
    return math.comb(*f) if isinstance(f, tuple) else f


def _products_leq(lhs: list[Factor], rhs: list[Factor]) -> bool:
    """prod(lhs) <= prod(rhs) in exact integers.  Binomials present on both
    sides (C(x, y) = C(x, x - y)) cancel before any product is formed, so an
    identity such as C(n, t) <= C(0, 0) C(n, t) costs no big integer."""
    left, right = ([(f[0], min(f[1], f[0] - f[1])) if isinstance(f, tuple) else f for f in fs]
                   for fs in (lhs, rhs))
    for f in list(left):
        if f in right:
            left.remove(f)
            right.remove(f)
    return math.prod(map(_factor_value, left)) <= math.prod(map(_factor_value, right))


def _identities(ell: int, k: int, gs, es, unit) -> np.ndarray:
    """Where C(ell, g) u <= C(k, e) u' holds as an identity: k = ell,
    e in {g, ell - g}, and ``unit`` marks u = u' = 1.  Structural ties of
    this form are settled in one numpy pass rather than in exact integers."""
    return unit & (k == ell) & ((es == gs) | (es == ell - gs))


def _binomial_axis(n: int, window: tuple[int, int]
                   ) -> tuple[np.ndarray, Callable[[int], Factor]]:
    """ln C(n, r) over an inclusive window, and the exact count C(n, r) as
    a factor."""
    return _log_comb(n, np.arange(window[0], window[1] + 1)), lambda r: (n, r)


def _cap_axis(n: int, blocks: BlockDiagonalizationRecord, window: tuple[int, int]
              ) -> tuple[np.ndarray, Callable[[int], Factor]]:
    """ln rank cap of every energy block of a window, and the exact cap
    min(C(n, t), sum over the eigenvalue window of C(n, j)), computed on
    first demand."""
    caps = {b.block_energy: b.log_rank_cap for b in blocks.blocks}
    total = cache(lambda: sum(math.comb(n, j)
                              for j in range(blocks.eig_window[0], blocks.eig_window[1] + 1)))
    return (np.array([caps[t] for t in range(window[0], window[1] + 1)]),
            lambda t: min(math.comb(n, t), total()))


def _records(ell: int, n: int, m: int, g_window: tuple[int, int], r_window: tuple[int, int],
             log_r: np.ndarray, factor_r: Callable[[int], Factor]) -> Iterator[PerTypeRecord]:
    """Certified record of every (g, r) in the windows, row by row of g.

    ``log_r`` and ``factor_r`` give the resource string counts (C(n, r), or
    coherent block rank caps) as floats and exactly; a record whose margin
    is not certified raises ValueError.
    """
    k = ell + n - m
    rs = np.arange(r_window[0], r_window[1] + 1)
    delta = _margin_bound(ell + max(n, m))
    unit = np.isin(rs, [r for r in (0, n) if k == ell and r_window[0] <= r <= r_window[1]
                        and _factor_value(factor_r(r)) == 1])
    for g in range(g_window[0], g_window[1] + 1):
        log_in = _log_comb(ell, np.array([g])) + log_r
        log_ex = _log_comb(k, g + rs - m)
        margins = log_ex - log_in
        margins[_identities(ell, k, g, g + rs - m, unit)] = np.inf
        if _certify(margins, delta, lambda i: _products_leq(
                [(ell, g), factor_r(int(rs[i]))], [(k, g + int(rs[i]) - m)])) is not None:
            raise ValueError("per-type record violates the counting inequality")
        for r, li, le in zip(rs.tolist(), log_in.tolist(), log_ex.tolist()):
            yield PerTypeRecord(g, r, g + r - m, m, li, le)


# Largest spread, in nats, of one run of a tilted log vector: the product of
# two run-relative exponentials stays above exp(-600), inside double range.
_RUN_SPAN = 300.0


def _runs(v: np.ndarray) -> list[tuple[int, int, float, np.ndarray]]:
    """Contiguous runs of ``v`` spanning <= _RUN_SPAN nats, as
    (start, stop, top, exp(v[start:stop] - top))."""
    runs, start = [], 0
    while start < len(v):
        spread = np.maximum.accumulate(v[start:]) - np.minimum.accumulate(v[start:])
        stop = start + int(np.searchsorted(spread, _RUN_SPAN, side="right"))
        top = v[start:stop].max()
        runs.append((start, stop, top, np.exp(v[start:stop] - top)))
        start = stop
    return runs


def _shell_log_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ln sum_{i+j=s} exp(a_i + b_j) for every shell s = 0 .. len(a)+len(b)-2.

    Every summand is positive, so each shell sum is a plain convolution in
    linear space and suffers no cancellation.  Both vectors are shifted to
    their peaks and tilted by one common slope theta (the mean slope of the
    longer one; shell s picks up e^(theta s), removed at the end), then cut
    into runs of at most _RUN_SPAN nats.  Each pair of runs is convolved
    from run-relative exponentials and log-added into its shell slice.
    """
    longer = a if len(a) >= len(b) else b
    theta = (longer[0] - longer[-1]) / (len(longer) - 1) if len(longer) > 1 else 0.0
    b_runs = _runs((b - b.max()) + theta * np.arange(len(b)))
    out = np.full(len(a) + len(b) - 1, -np.inf)
    for a0, a1, a_top, a_exp in _runs((a - a.max()) + theta * np.arange(len(a))):
        for b0, b1, b_top, b_exp in b_runs:
            seg = out[a0 + b0:a1 + b1 - 1]
            np.logaddexp(seg, np.log(np.convolve(a_exp, b_exp)) + (a_top + b_top), out=seg)
    return (out - theta * np.arange(len(out))) + (a.max() + b.max())


class _Shells:
    """Total-1s shells s = g + r of a plan window at every m.

    Shell s holds sum_{g+r=s} C(ell, g) R_r input strings and must fit into
    the C(ell+n-m, s-m) exhaust strings; R_r is C(n, r), or a coherent
    block's rank cap, given as floats ``log_r`` over the r window and
    exactly by ``factor_r``.  Exact counts are computed on first demand.
    """

    def __init__(self, ell: int, n: int, g_window: tuple[int, int], r_window: tuple[int, int],
                 log_r: np.ndarray, factor_r: Callable[[int], Factor]):
        self.ell, self.n, self.g_window, self.r_window = ell, n, g_window, r_window
        self.log_g = _log_comb(ell, np.arange(g_window[0], g_window[1] + 1))
        self.factor_r = factor_r
        self.count_r = cache(lambda r: _factor_value(factor_r(r)))
        self.shells = np.arange(g_window[0] + r_window[0], g_window[1] + r_window[1] + 1)
        self.log_sums = _shell_log_sums(self.log_g, log_r)
        self.comb_g = cache(partial(math.comb, ell))

    def margins(self, m: int) -> np.ndarray:
        """ln C(ell+n-m, s-m) less ln of the shell's input strings, per shell."""
        return _log_comb(self.ell + self.n - m, self.shells - m) - self.log_sums

    def fits(self, s: int, m: int) -> bool:
        """Whether shell s fits at m, in exact integers.  A shell of one
        pair is a product inequality, compared with its common binomials
        cancelled (at p = 1 and m = n every shell reads C(ell, g) <= C(ell, g))."""
        (g_lo, g_hi), (r_lo, r_hi) = self.g_window, self.r_window
        gs = range(max(g_lo, s - r_hi), min(g_hi, s - r_lo) + 1)
        exhaust = (self.ell + self.n - m, s - m)
        if len(gs) == 1:
            return _products_leq([(self.ell, gs[0]), self.factor_r(s - gs[0])], [exhaust])
        return sum(self.comb_g(g) * self.count_r(s - g) for g in gs) <= math.comb(*exhaust)

    def identities(self) -> np.ndarray:
        """Shells that fit by identity at m = n: a shell of one pair (g, r)
        with R_r = 1 reads C(ell, g) <= C(ell, s - n)."""
        (g_lo, g_hi), (r_lo, r_hi) = self.g_window, self.r_window
        g = np.maximum(g_lo, self.shells - r_hi)
        r = self.shells - g
        unit = (g == np.minimum(g_hi, self.shells - r_lo)) & ((r == 0) | (r == self.n))
        if unit.any():
            unit &= np.isin(r, [x for x in (0, self.n) if self.count_r(x) == 1])
        return _identities(self.ell, self.ell, g, self.shells - self.n, unit)

    def violation(self, m: int) -> int | None:
        """A shell proven to overflow at m, or None when every shell fits;
        identities settle in one pass, without exact integers."""
        margins = self.margins(m)
        if m == self.n:
            margins[self.identities()] = np.inf
        i = _certify(margins, _margin_bound(self.ell + max(self.n, m)),
                     lambda i: self.fits(int(self.shells[i]), m))
        return None if i is None else int(self.shells[i])


def _solve_window(ell: int, n: int, g_window: tuple[int, int], r_window: tuple[int, int],
                  log_r: np.ndarray, factor_r: Callable[[int], Factor]
                  ) -> tuple[int, tuple[int, int]]:
    """Largest m jointly feasible for the whole window.

    Joint unitarity needs one injection over ALL covered pairs at once, so
    every shell must fit (:class:`_Shells`); the feasible set is downward
    closed in m and contains m = 0 (Vandermonde).  Also returns the largest
    single pair of the shell of smallest margin at m, for reporting.
    """
    shells = _Shells(ell, n, g_window, r_window, log_r, factor_r)
    m = _bisect(lambda m: shells.violation(m) is None, 0, int(shells.shells[0]), largest=True)
    s = int(shells.shells[np.argmin(shells.margins(m))])
    gs = np.arange(max(g_window[0], s - r_window[1]), min(g_window[1], s - r_window[0]) + 1)
    g = int(gs[np.argmax(shells.log_g[gs - g_window[0]] + log_r[s - gs - r_window[0]])])
    return m, (g, s - g)


def plan_distillation(n: int, p: float, beta: float, width: float = 3.0) -> DistillationPlan:
    """Construct a distillation plan with ell = ceil((R n)^(3/2)) bath copies.

    The output size m is fitted to the worst composite typical type, so the
    same injection length works for every type in the window.  If p equals
    the Gibbs weight q the plan is flagged ``no_resource`` and extracts
    nothing.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    r_lim = rate_limit(p, beta)
    q = gibbs_weight(beta)
    no_resource = abs(p - q) < 1e-12

    ell = 0 if no_resource else math.ceil((r_lim * n) ** 1.5)
    g_window = typical_range(ell, q, width) if ell > 0 else (0, 0)
    r_window = typical_range(n, p, width)

    num_types = (g_window[1] - g_window[0] + 1) * (r_window[1] - r_window[0] + 1)

    if no_resource:
        m, (g, r) = 0, (g_window[0], r_window[0])
    else:
        m, (g, r) = _solve_window(ell, n, g_window, r_window, *_binomial_axis(n, r_window))

    bath_out = 0.0 if ell == 0 else binomial_outside_mass(ell, q, g_window)
    resource_out = binomial_outside_mass(n, p, r_window)
    failure_mass = bath_out + resource_out - bath_out * resource_out

    return DistillationPlan(
        n=n, ell=ell, m=m, k=ell + n - m, p=p, beta=beta, width=width,
        failure_mass=failure_mass,
        achieved_rate=m / n,
        epsilon=(n / ell) if ell > 0 else math.inf,
        r_limit=r_lim,
        worst_type=next(_records(ell, n, m, (g, g), (r, r), *_binomial_axis(n, (r, r)))),
        no_resource=no_resource,
        gibbs_window=g_window,
        resource_window=r_window,
        num_composite_types=num_types,
    )


# ---------------------------------------------------------------------------
# Distillation of arbitrary (possibly coherent) two-level states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockRecord:
    """Rank budget for one total-energy block of the rotated resource."""

    block_energy: int
    log_block_dim: float
    log_rank_cap: float


@dataclass(frozen=True)
class BlockDiagonalizationRecord:
    """Energy-block bookkeeping for the rotate-then-permute protocol."""

    mean_energy: float            # <H> per copy, energy units
    entropy: float                # S(rho) per copy, nats
    eig_window: tuple[int, int]   # eigenvalue-type window used for the rank cap
    log_rank_cap_total: float     # ln of the typical-subspace dimension bound
    blocks: tuple[BlockRecord, ...]
    energy_tail: float
    eig_tail: float


def plan_distillation_general(rho: DensityMatrix, n: int, beta: float, width: float = 3.0
                              ) -> tuple[DistillationPlan, BlockDiagonalizationRecord]:
    """Distillation plan for a general two-level state.

    The resource is first rotated block-by-block into the energy basis;
    within the energy window [n<E> +/- width sqrt(n)] each block's rank is
    capped by the typical-subspace dimension exp(n S(rho) + O(sqrt n)),
    realized here as the exact eigenvalue-type window count.  Diagonal
    states reduce exactly to :func:`plan_distillation`.
    """
    if rho.dim != 2:
        raise ValueError("unsupported dimension: the general plan handles two-level states")
    if not (beta > 0 and math.isfinite(beta)):
        raise ValueError("beta must be positive and finite")

    def snap(x: float) -> float:
        # Deterministic levels must be recognized exactly for the windows.
        if x < 1e-12:
            return 0.0
        if x > 1 - 1e-12:
            return 1.0
        return x

    a = snap(float(rho.entries[1, 1].real))     # Pr[energy measurement = 1]
    evals, _ = rho.eigensystem()
    lam = snap(float(max(evals)))
    entropy = von_neumann_entropy(rho)
    diagonal = abs(rho.entries[0, 1]) <= 1e-12

    e_window = typical_range(n, a, width)
    eig_window = typical_range(n, lam, width)
    log_cap_total = _log_sum_exp(_log_comb(n, np.arange(eig_window[0], eig_window[1] + 1)))
    log_dims = _log_comb(n, np.arange(e_window[0], e_window[1] + 1)).tolist()
    blocks = [BlockRecord(t, log_dim, log_dim if diagonal else min(log_dim, log_cap_total))
              for t, log_dim in enumerate(log_dims, e_window[0])]

    energy_tail = binomial_outside_mass(n, a, e_window)
    eig_tail = binomial_outside_mass(n, lam, eig_window)

    record = BlockDiagonalizationRecord(
        mean_energy=a,
        entropy=entropy,
        eig_window=eig_window,
        log_rank_cap_total=log_cap_total,
        blocks=tuple(blocks),
        energy_tail=energy_tail,
        eig_tail=eig_tail,
    )

    if diagonal:
        return plan_distillation(n, a, beta, width), record

    # Coherent case: per (bath type, energy block), the injection must
    # absorb C(ell, g) * rank_cap(t) strings into C(k, g + t - m).
    q = gibbs_weight(beta)
    d_rho = -entropy + beta * a + math.log(1.0 + math.exp(-beta))
    d_one = beta + math.log(1.0 + math.exp(-beta))
    r_lim = d_rho / d_one
    ell = math.ceil(max(r_lim * n, 0.0) ** 1.5)
    g_window = typical_range(ell, q, width) if ell > 0 else (0, 0)

    # Joint feasibility: every total-energy shell s = g + t must absorb the
    # summed string budgets of the covered (bath type, block) pairs.
    m, (g_worst, t_worst) = _solve_window(ell, n, g_window, e_window,
                                          *_cap_axis(n, record, e_window))

    bath_out = 0.0 if ell == 0 else binomial_outside_mass(ell, q, g_window)
    failure = min(1.0, bath_out + energy_tail + 2.0 * math.sqrt(eig_tail))

    plan = DistillationPlan(
        n=n, ell=ell, m=m, k=ell + n - m, p=a, beta=beta, width=width,
        failure_mass=failure,
        achieved_rate=m / n,
        epsilon=(n / ell) if ell > 0 else math.inf,
        r_limit=r_lim,
        worst_type=next(_records(ell, n, m, (g_worst, g_worst), (t_worst, t_worst),
                                 *_cap_axis(n, record, (t_worst, t_worst)))),
        coherent=True,
        gibbs_window=g_window,
        resource_window=e_window,
        num_composite_types=(g_window[1] - g_window[0] + 1) * len(blocks),
    )
    return plan, record

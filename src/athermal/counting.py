"""Certified counting kernel of the method of types.

Every planner decides inequalities between products of binomial or
multinomial counts.  It reads a float log-gamma margin, certifies it
against a proven rounding bound (delta(N) for binomials, delta_d(N) for
d-level multinomials), and settles the rare margin inside that bound in
exact integers.  This module holds that kernel: ln k! and ln C, Loader's
binomial pmf and tails, the shell log-sums, both rounding bounds, the
certifier, the exact comparator and the monotone search.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Callable

import numpy as np

__all__ = [
    "EPS",
    "LOG_RESOLUTION",
    "Factor",
    "log_factorial",
    "log_comb",
    "stirlerr",
    "bd0",
    "log_sum_exp",
    "binomial_log_pmf",
    "binomial_outside_mass",
    "shell_log_sums",
    "margin_bound",
    "multinomial_margin_bound",
    "certify",
    "search",
    "factor_value",
    "products_leq",
    "identities",
]

# Machine epsilon of IEEE doubles, 2^-52.
EPS = float(np.finfo(float).eps)
# A tail this far below the sum it joins cannot move it (float resolution).
LOG_RESOLUTION = math.log(1e-16)

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
    """ln k! for float k >= 16: Stirling's formula plus :func:`stirlerr`'s
    series, of which 1/(12k) is all that counts once k >= 2^16 (the next
    term is then below 1e-17, and ln k! above 6e5)."""
    series = stirlerr(k) if k.min() < _TABLE_SIZE else (1 / 12) / k
    return (k + 0.5) * np.log(k) - k + _HALF_LOG_2PI + series


@cache
def _log_factorial_table() -> np.ndarray:
    """ln k! for 0 <= k < _TABLE_SIZE, then +inf, read at every negative k."""
    return np.concatenate((_LOG_FACTORIAL_SMALL, _stirling(np.arange(16.0, _TABLE_SIZE)),
                           [np.inf]))


def log_factorial(k) -> np.ndarray:
    """ln k! at integer-valued k, +inf below 0 (the poles of log-gamma).

    Pinned values below 16 and Stirling's formula from 16 up (the error
    budget is in :func:`margin_bound`); arrays whose entries all lie in
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


def log_comb(big: int, ks) -> np.ndarray:
    """ln C(big, k) for every k of ``ks``, from log-factorials of those
    indices only; -inf for k outside [0, big]."""
    return log_factorial(big) - log_factorial(ks) - log_factorial(big - ks)


def stirlerr(k) -> np.ndarray:
    """ln k! - ln(sqrt(2 pi k) (k/e)^k) for k >= 1: pinned log-factorials up
    to 15, Stirling's series above (its first omitted term is then below 1e-16)."""
    k = np.asarray(k, dtype=float)
    u = (1.0 / k) ** 2
    series = (1 / 12 - u * (1 / 360 - u * (1 / 1260 - u * (1 / 1680 - u / 1188)))) / k
    if k.min() > 15:
        return series
    small = np.minimum(k, 15.0)
    return np.where(k > 15, series, log_factorial(small)
                    - (small + 0.5) * np.log(small) + small - _HALF_LOG_2PI)


def bd0(x: np.ndarray, mean: float) -> np.ndarray:
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


def log_sum_exp(logs: np.ndarray) -> float:
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
        out[inner] = (stirlerr(n) - stirlerr(k) - stirlerr(n - k)
                      - bd0(k, n * p) - bd0(n - k, n * (1.0 - p))
                      - 0.5 * (math.log(2 * math.pi) + np.log(k) + np.log1p(-k / n)))
    return out


def _step_ratio(n: int, odds: float, k: int, step: int) -> float:
    """pmf(k + step) / pmf(k) of Binomial(n, p), ``odds`` being p / (1 - p)
    for step = 1 and its inverse for step = -1."""
    return odds * ((n - k) / (k + 1) if step > 0 else k / (n - k + 1))


# Longest first block sized by the edge's step ratio.  A tail needing more
# is summed in doubling blocks from 256: the pmf's cost per point grows
# with its array (on a 2-vCPU Xeon, about 60 ns at 4k points and 140 ns at
# 256k), so past this size the blocks' call overhead is the smaller cost.
_SIZED_BLOCK_MAX = 2 ** 14


def _first_block(ratio: float) -> int:
    """Points of a tail's first block, ``ratio`` being the outward step
    ratio r at the window edge.  For 0 < r < 1 log-concavity bounds the
    tail after L points by pmf(edge) r^L / (1 - r), which
    L = ceil((ln 1e-16 + ln(1 - r)) / ln r) + 1 puts below 1e-16 of
    pmf(edge), with a factor r to spare, so the block meets the stop test
    of :func:`binomial_outside_mass`.  An edge inside the bulk (r >= 1) or
    an L above _SIZED_BLOCK_MAX starts at 256 points."""
    if ratio <= 0.0:            # the last count, or none
        return 1
    if ratio >= 1.0:
        return 256
    size = math.ceil((LOG_RESOLUTION + math.log1p(-ratio)) / math.log(ratio)) + 1
    return size if size <= _SIZED_BLOCK_MAX else 256


def _block(n: int, k: int, size: int, step: int) -> np.ndarray:
    """Up to ``size`` counts from k outward by ``step`` within [0, n]; none
    if k lies outside."""
    if not 0 <= k <= n:
        return np.arange(0)
    end = min(n, k + size - 1) if step > 0 else max(0, k - size + 1)
    return np.arange(k, end + step, step)


def binomial_outside_mass(n: int, p: float, window: tuple[int, int]) -> float:
    """Binomial(n, p) mass outside an inclusive count window.

    Each tail is summed in log space outward from the window edge, so small
    masses keep their relative precision.  The pmf is log-concave: once
    the outward step ratio r is below 1, the rest of the tail is at most
    pmf r / (1 - r), and the sum stops when that bound falls below 1e-16
    of the tail so far.  The first block of each tail is sized by the step
    ratio at its edge to meet that test (:func:`_first_block`), and both
    first blocks come from one pmf call; a tail the first block does not
    close goes on in blocks of doubling size.  A p above 1/2 is summed as
    its mirror image (1 - p, counts n - k), where the pmf's ln(1 - k/n)
    term, which loses ~eps n / (n - k) near k = n, stays precise.
    """
    lo, hi = window
    if not 0.0 < p < 1.0:
        return 0.0 if lo <= round(n * p) <= hi else 1.0
    if p > 0.5:
        return binomial_outside_mass(n, 1.0 - p, (n - hi, n - lo))
    tails = ((lo - 1, -1, (1.0 - p) / p), (hi + 1, 1, p / (1.0 - p)))
    firsts = [_block(n, k, _first_block(_step_ratio(n, odds, k, step)), step)
              for k, step, odds in tails]
    first_logs = binomial_log_pmf(n, p, np.concatenate(firsts))
    total = -math.inf
    for (_, step, odds), ks, logs in zip(tails, firsts,
                                         np.split(first_logs, [len(firsts[0])])):
        tail, block = -math.inf, len(ks)
        while len(ks):
            tail = np.logaddexp(tail, log_sum_exp(logs))
            last = int(ks[-1])
            ratio = _step_ratio(n, odds, last, step)
            rest = logs[-1] + math.log(ratio / (1.0 - ratio)) if 0.0 < ratio < 1.0 else math.inf
            if rest <= tail + LOG_RESOLUTION or ratio == 0.0:     # 0: the last count
                break
            block *= 2
            ks = _block(n, last + step, block, step)
            logs = binomial_log_pmf(n, p, ks)
        total = np.logaddexp(total, tail)
    return min(float(np.exp(total)), 1.0)


# Largest spread, in nats, of one run of a tilted log vector: the product of
# two run-relative exponentials stays above exp(-600), inside double range.
_RUN_SPAN = 300.0
# Longest piece of a run that the pruning test of shell_log_sums bounds as one.
_RUN_LENGTH = 1024


def _runs(v: np.ndarray) -> list[tuple[int, int, float, np.ndarray]]:
    """Contiguous runs of ``v`` spanning <= _RUN_SPAN nats, as
    (start, stop, top, exp(v[start:stop] - top))."""
    runs, start = [], 0
    while start < len(v):
        # Windows of doubling width join the run while its max and min stay
        # within _RUN_SPAN; the prefix spread is scanned only in the window
        # that passes it.  Each run costs O(its length), and the stop is the
        # one a scan over all of v[start:] finds (max and min are exact).
        stop, hi, lo, width = start, v[start], v[start], 64
        while stop < len(v):
            window = v[stop:stop + width]
            w_hi, w_lo = np.maximum(hi, window.max()), np.minimum(lo, window.min())
            if not w_hi - w_lo <= _RUN_SPAN:
                spread = (np.maximum(np.maximum.accumulate(window), hi)
                          - np.minimum(np.minimum.accumulate(window), lo))
                stop += int(np.searchsorted(spread, _RUN_SPAN, side="right"))
                break
            stop, hi, lo, width = stop + len(window), w_hi, w_lo, 2 * width
        top = v[start:stop].max()
        runs.append((start, stop, top, np.exp(v[start:stop] - top)))
        start = stop
    return runs


def _kept_pairs(va: np.ndarray, vb: np.ndarray, bounds_a: np.ndarray, bounds_b: np.ndarray,
                slack: float) -> np.ndarray:
    """Which piece pairs may hold eps/4K of a shell they reach, K pairs in
    all (the test is derived in :func:`margin_bound`).  A pair is bounded
    by top_a + top_b + ln(overlap), a shell by the max-plus path, which
    takes the larger next step of either vector (b's l-th after l of its
    own and every a step at least as large): a term of every shell, its
    largest when both are concave."""
    at = np.arange(len(vb) - 1) + np.searchsorted(-np.diff(va), -np.diff(vb), side="right")
    j = np.concatenate(([0], np.cumsum(np.bincount(at, minlength=len(va) + len(vb) - 2))))
    path = va[np.arange(len(j)) - j] + vb[j]
    sa, ea, sb, eb = bounds_a[:-1], bounds_a[1:], bounds_b[:-1], bounds_b[1:]
    ends = np.stack(np.broadcast_arrays(sa[:, None] + sb, ea[:, None] + eb - 1), axis=-1)
    floor = np.minimum.reduceat(np.append(path, np.inf), ends.ravel())[::2]
    top = (np.maximum.reduceat(va, sa)[:, None] + np.maximum.reduceat(vb, sb)
           + np.log(np.minimum((ea - sa)[:, None], eb - sb)))
    return top >= floor.reshape(top.shape) + (math.log(EPS / 4 / top.size) - slack)


def shell_log_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ln sum_{i+j=s} exp(a_i + b_j) for every shell s = 0 .. len(a)+len(b)-2.

    Every summand is positive, so each shell sum is a plain convolution in
    linear space and suffers no cancellation.  Both vectors are shifted to
    their peaks and tilted by one common slope theta (the mean slope of the
    longer one; shell s picks up e^(theta s), removed at the end), then cut
    into runs of at most _RUN_SPAN nats and pieces of at most _RUN_LENGTH
    entries.  Piece pairs certified below eps/4 of their shells are
    skipped (:func:`_kept_pairs`).  Of each pair of runs, the span of its
    kept pieces is convolved from run-relative exponentials as one block
    (the whole runs where nothing is skipped) and log-added into its slice.
    """
    longer = a if len(a) >= len(b) else b
    theta = (longer[0] - longer[-1]) / (len(longer) - 1) if len(longer) > 1 else 0.0
    va, vb = ((x - x.max()) + theta * np.arange(len(x)) for x in (a, b))
    runs_a, runs_b = _runs(va), _runs(vb)
    bounds_a, bounds_b = (np.append([i for r in runs for i in range(r[0], r[1], _RUN_LENGTH)],
                                    runs[-1][1]) for runs in (runs_a, runs_b))     # piece starts, end
    kept = np.ones((len(bounds_a) - 1, len(bounds_b) - 1), bool)
    if len(a) * len(b) > _RUN_LENGTH ** 2:      # a smaller window cannot repay the test
        slack = 8 * EPS * (float(np.ptp(a) + np.ptp(b)) + abs(theta) * (len(a) + len(b)) + 32)
        kept = _kept_pairs(va, vb, bounds_a, bounds_b, slack)
    out = np.full(len(a) + len(b) - 1, -np.inf)
    for a0, a1, a_top, a_exp in runs_a:
        p0, p1 = np.searchsorted(bounds_a, (a0, a1))
        for b0, b1, b_top, b_exp in runs_b:
            q0, q1 = np.searchsorted(bounds_b, (b0, b1))
            rows, cols = (np.flatnonzero(kept[p0:p1, q0:q1].any(axis=k)) for k in (1, 0))
            if rows.size:
                i0, i1 = bounds_a[p0 + rows[0]], bounds_a[p0 + rows[-1] + 1]
                j0, j1 = bounds_b[q0 + cols[0]], bounds_b[q0 + cols[-1] + 1]
                seg = out[i0 + j0:i1 + j1 - 1]
                conv = np.convolve(a_exp[i0 - a0:i1 - a0], b_exp[j0 - b0:j1 - b0])
                np.logaddexp(seg, np.log(conv) + (a_top + b_top), out=seg)
    return (out - theta * np.arange(len(out))) + (a.max() + b.max())


def margin_bound(big: int) -> float:
    """delta(N) = 16 eps (N ln N + N + 4): bound on the rounding error of a
    float shell or pair margin whose binomial tops are all at most N.

    A margin is ln C(k, e) less ln of the input strings it must absorb,
    built from ln C(x, y) = G(x) - G(y) - G(x-y), G = :func:`log_factorial`,
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
    - A shell sum (:func:`shell_log_sums`) shifts, tilts and untilts values
      of size <= 2N ln 2 and convolves <= N + 1 positive products (relative
      error <= (N + 2) eps); a coherent rank cap adds a log-sum of <= n + 1
      terms.  The run pairs it skips hold < eps/4 of every shell they reach
      (below).  In all <= eps (6N + 8.25).
    - The final difference rounds once; |margin| <= 2N: <= eps N.

    The total, eps (12 N ln N + 9N + 49.25), stays below delta(N).

    Skipped pairs: of K piece pairs, one is skipped when top_a + top_b +
    ln(overlap) lies below the least max-plus path term of its shells plus
    ln(eps/4K), less the slack 8 eps (V + 32).  A path term is a term of
    its shell, so the skipped pairs hold < eps/4 of it.  With u = eps/2,
    V_x = spread(x) + |theta| len(x) and V = V_a + V_b, a tilted value
    errs by <= 2u V_x (1 + u): the two tops by <= eps V, the path term (one
    more sum) by <= 1.5 eps V, and the test's sums, of size <= V + 80, by
    <= eps (1.5 V + 110).  In all < 8 eps (V + 32).
    """
    return 16.0 * EPS * (big * math.log(big) + big + 4)


def multinomial_margin_bound(total: int, d: int) -> float:
    """delta_d(N) = 8 eps ((d + 6) N ln N + 4 (d + 1)): bound on the rounding
    error of a float margin ln M(nu) - (ln M(a) + ln M(b)) over d levels,
    N = sum nu = sum a + sum b.

    Each ln M(c) of a vector of total t is G(t) less the sum of the d
    values G(c_i), G = :func:`log_factorial`.  G >= 0 and
    sum_i G(c_i) <= G(t) <= t ln t.  Rounding budget, eps = 2^-52:

    - G errs by <= 2.5 eps relative (see :func:`margin_bound`); its d + 1
      values total <= 2 t ln t: <= 2.5 eps (2 t ln t + d + 1).
    - The d - 1 additions of the sum and the subtraction from G(t) round
      values <= t ln t: <= d eps t ln t.
    - Over nu, a and b, with n ln n + ell ln ell <= N ln N:
      <= eps ((2d + 10) N ln N + 7.5 (d + 1)).
    - ln M(a) + ln M(b) and the final difference round values <= N ln N:
      <= 2 eps N ln N.

    The total, eps ((2d + 12) N ln N + 7.5 (d + 1)), is below delta_d(N) / 4.
    """
    return 8.0 * EPS * ((d + 6) * total * math.log(max(total, 1)) + 4 * (d + 1))


def certify(margins: np.ndarray, delta: float, holds: Callable[[int], bool]) -> int | None:
    """Index of an inequality proven to fail, or None when all are proven.

    A float margin >= delta proves its inequality and one <= -delta refutes
    it (the most negative is returned); only the indices whose margin lies
    in between are passed to ``holds``, which decides them in exact integers.
    """
    worst = int(np.argmin(margins))
    if margins[worst] <= -delta:
        return worst
    return next((int(i) for i in np.flatnonzero(margins < delta) if not holds(int(i))), None)


def search(probe: Callable[[int], tuple[bool, float]], lo: int, hi: int, largest: bool) -> int:
    """The largest m in [lo, hi] of a downward-closed set containing lo, or
    the smallest of an upward-closed set containing hi.  ``probe(m)`` gives
    (m in the set, a float margin crossing zero at its edge); only membership
    moves the bracket, so the result is bisection's whatever the margins.
    They pick the next m just past the crossing by regula falsi with Illinois
    halving (Dowell & Jarratt 1971); the midpoint is taken where they are not
    finite or do not straddle zero, and once as many steps failed to halve
    the bracket as bisection takes in all (Brent 1973), so at most twice
    bisection's probes run, plus both ends."""
    good, bad = (lo, hi) if largest else (hi, lo)
    if lo == hi or (far := probe(bad))[0]:
        return bad
    f_good, f_bad, moved, spare = probe(good)[1], far[1], None, (abs(bad - good) - 1).bit_length()
    while (width := abs(bad - good)) > 1:
        x = (good + bad) // 2
        if spare and -math.inf < f_bad < 0 <= f_good < math.inf:
            step = math.ceil(width * (f_good / (f_good - f_bad)))
            x = good + min(max(step, 1), width - 1) * (1 if bad > good else -1)
        holds, f = probe(x)
        if holds:
            good, f_good, f_bad = x, f, f_bad / 2 if moved == "good" else f_bad
        else:
            bad, f_bad, f_good = x, f, f_good / 2 if moved == "bad" else f_good
        moved = "good" if holds else "bad"
        spare -= 2 * abs(bad - good) > width + 1
    return good


Factor = tuple[int, int] | int      # (x, y) stands for C(x, y), an int for itself


def factor_value(f: Factor) -> int:
    return math.comb(*f) if isinstance(f, tuple) else f


def products_leq(lhs: list[Factor], rhs: list[Factor]) -> bool:
    """prod(lhs) <= prod(rhs) in exact integers.  Binomials present on both
    sides (C(x, y) = C(x, x - y)) cancel before any product is formed, so an
    identity such as C(n, t) <= C(0, 0) C(n, t) costs no big integer."""
    left, right = ([(f[0], min(f[1], f[0] - f[1])) if isinstance(f, tuple) else f for f in fs]
                   for fs in (lhs, rhs))
    for f in list(left):
        if f in right:
            left.remove(f)
            right.remove(f)
    return math.prod(map(factor_value, left)) <= math.prod(map(factor_value, right))


def identities(ell: int, k: int, gs, es, unit) -> np.ndarray:
    """Where C(ell, g) u <= C(k, e) u' holds as an identity: k = ell,
    e in {g, ell - g}, and ``unit`` marks u = u' = 1.  Structural ties of
    this form are settled in one numpy pass rather than in exact integers."""
    return unit & (k == ell) & ((es == gs) | (es == ell - gs))

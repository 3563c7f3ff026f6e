"""Finite-size work-distillation plans for two-level systems.

A plan maps ``gamma^(ell) (x) rho^(n)`` to ``exhaust^(k) (x) |1><1|^(m)`` by
an energy-conserving injection on strings, applied separately to every
composite typical type.  All feasibility decisions use exact integer
counting below a size threshold and log-gamma counting above it; the mode
in force is recorded on the plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.special import gammaln, logsumexp, xlogy

from .core import DensityMatrix, binary_entropy, gibbs_weight, von_neumann_entropy
from .typeclass import log_binomial, typical_range

__all__ = [
    "PerTypeRecord",
    "DistillationPlan",
    "BlockRecord",
    "BlockDiagonalizationRecord",
    "StringMap",
    "rate_limit",
    "solve_single_type",
    "distill_feasible",
    "plan_distillation",
    "plan_distillation_general",
    "build_string_map",
    "rank_fixed_weight",
    "unrank_fixed_weight",
    "binomial_log_pmf",
    "binomial_window_mass",
    "binomial_outside_mass",
]

# Plan construction sweeps whole composite windows, so its exact-integer
# mode switches to log-gamma counting earlier than single cardinalities do.
PLAN_EXACT_THRESHOLD = 2_000


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
    lo, hi = 0, gibbs_ones + resource_ones
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if distill_feasible(ell, gibbs_ones, n, resource_ones, mid, exact=exact):
            lo = mid
        else:
            hi = mid - 1
    return lo


@dataclass(frozen=True)
class PerTypeRecord:
    """Injection record for one composite type (bath type, resource type)."""

    gibbs_ones: int
    resource_ones: int
    exhaust_ones: int
    m: int
    log_input_cardinality: float
    log_exhaust_cardinality: float
    input_cardinality: int | None = None
    exhaust_cardinality: int | None = None

    def check(self) -> None:
        if self.gibbs_ones + self.resource_ones != self.exhaust_ones + self.m:
            raise ValueError("per-type record violates conservation of 1s")
        if self.input_cardinality is not None and self.exhaust_cardinality is not None:
            if self.input_cardinality > self.exhaust_cardinality:
                raise ValueError("per-type record violates the counting inequality")
        elif self.log_input_cardinality > self.log_exhaust_cardinality + 1e-6:
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
    mode: str                      # "exact" | "loggamma"
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
        """Yield the checked record of every covered composite type.

        Coherent plans read their block rank caps from ``blocks``, the
        record :func:`plan_distillation_general` returned with the plan.
        """
        if self.coherent and blocks is None:
            raise ValueError("a coherent plan derives its records from its block record")
        caps = {b.block_energy: b.log_rank_cap for b in blocks.blocks} if self.coherent else None
        yield from _records(self.ell, self.n, self.m, self.gibbs_window, self.resource_window,
                            self.mode == "exact" and not self.coherent, caps)

    # Schema-1 name of the records, kept as a lazily derived view because
    # perfbench/tracer.py still reads it.
    per_type_maps = property(records)


def _log_comb(big: int, ks: np.ndarray) -> np.ndarray:
    """ln C(big, k) for every k of ``ks``, via log-gamma on those indices only."""
    return gammaln(big + 1) - gammaln(ks + 1) - gammaln(big - ks + 1)


def _stirlerr(k) -> np.ndarray:
    """ln k! - ln(sqrt(2 pi k) (k/e)^k) for k >= 1: log-gamma up to 15,
    Stirling's series above (its first omitted term is then below 1e-16)."""
    k = np.asarray(k, dtype=float)
    u = 1.0 / (k * k)
    series = (1 / 12 - u * (1 / 360 - u * (1 / 1260 - u * (1 / 1680 - u / 1188)))) / k
    if k.min() > 15:
        return series
    small = np.minimum(k, 15.0)
    return np.where(k > 15, series, gammaln(small + 1) - (small + 0.5) * np.log(small)
                    + small - 0.5 * math.log(2 * math.pi))


def _bd0(x: np.ndarray, mean: float) -> np.ndarray:
    """Deviance x ln(x / mean) + mean - x.  Where |v| < 0.1, with
    v = (x - mean) / (x + mean), it is summed free of cancellation as
    (x - mean) v + 2x sum_j v^(2j+1) / (2j+1), to the first j with
    max v^(2j) below 1e-18 (at most nine terms)."""
    d = x - mean
    v = d / (x + mean)
    v2 = v * v
    near = v2 < 0.01
    top = float(np.max(v2, where=near, initial=0.0))
    total, power = d * v, 2.0 * x * v
    for j in range(1, math.ceil(math.log(1e-18) / math.log(top)) + 1 if top > 0 else 1):
        power = power * v2
        total = total + power / (2 * j + 1)
    return total if near.all() else np.where(near, total, xlogy(x, x / mean) + mean - x)


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


def binomial_window_mass(n: int, p: float, window: tuple[int, int]) -> float:
    """Binomial(n, p) mass of an inclusive count window."""
    lo, hi = window
    return min(math.exp(logsumexp(binomial_log_pmf(n, p, np.arange(lo, hi + 1)))), 1.0)


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
            tail = np.logaddexp(tail, logsumexp(logs))
            k, block = last + step, 2 * block
            ratio = odds * ((n - last) / (last + 1) if step > 0 else last / (n - last + 1))
            rest = logs[-1] + math.log(ratio / (1.0 - ratio)) if 0.0 < ratio < 1.0 else math.inf
            if rest <= tail + math.log(1e-16):
                break
        total = np.logaddexp(total, tail)
    return min(float(np.exp(total)), 1.0)


def _comb_row(big: int, window: tuple[int, int], comb=math.comb) -> dict[int, int]:
    """C(big, j) for every j of an inclusive window, keyed by j (its log
    with ``comb=log_binomial``)."""
    return {j: comb(big, j) for j in range(window[0], window[1] + 1)}


def _records(ell: int, n: int, m: int, g_window: tuple[int, int],
             r_window: tuple[int, int], exact: bool,
             log_caps: dict[int, float] | None = None) -> Iterator[PerTypeRecord]:
    """Checked record of every (g, r) in the windows, read from per-axis
    rows of C(ell, g), C(n, r) and C(k, e), exact or log-gamma; ``log_caps``
    replaces ln C(n, r) by coherent block rank caps."""
    comb = math.comb if exact else log_binomial
    row_g = _comb_row(ell, g_window, comb)
    row_r = _comb_row(n, r_window, comb) if log_caps is None else log_caps
    row_e = _comb_row(ell + n - m, (g_window[0] + r_window[0] - m,
                                    g_window[1] + r_window[1] - m), comb)
    for g, c_g in row_g.items():
        for r, c_r in row_r.items():
            e = g + r - m
            if exact:
                record = PerTypeRecord(g, r, e, m, math.log(c_g * c_r), math.log(row_e[e]),
                                       c_g * c_r, row_e[e])
            else:
                record = PerTypeRecord(g, r, e, m, c_g + c_r, row_e[e])
            record.check()
            yield record


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


def _solve_window_loggamma(ell: int, n: int, g_window: tuple[int, int],
                           r_window: tuple[int, int],
                           lhs_r: np.ndarray) -> tuple[int, tuple[int, int]]:
    """Largest m jointly feasible for the whole window, via log-gamma counting.

    ``lhs_r`` holds the log string counts of the covered resource types (or
    energy blocks).  Joint unitarity needs one injection over ALL covered
    pairs at once, so every shell s must satisfy
    sum_{g+r=s} C(ell,g) exp(lhs_r) <= C(ell+n-m, s-m); the feasible set is
    downward closed in m.  Also returns the largest single pair of the
    binding shell for reporting.
    """
    lhs_g = _log_comb(ell, np.arange(g_window[0], g_window[1] + 1))
    shells = np.arange(g_window[0] + r_window[0], g_window[1] + r_window[1] + 1)
    lhs = _shell_log_sums(lhs_g, lhs_r)

    def margins(m: int) -> np.ndarray:
        return _log_comb(ell + n - m, shells - m) - lhs

    lo, hi = 0, int(shells[0])
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if margins(mid).min() >= 0.0:
            lo = mid
        else:
            hi = mid - 1
    s = int(shells[np.argmin(margins(lo))])
    gs = np.arange(max(g_window[0], s - r_window[1]), min(g_window[1], s - r_window[0]) + 1)
    g = int(gs[np.argmax(lhs_g[gs - g_window[0]] + lhs_r[s - gs - r_window[0]])])
    return lo, (g, s - g)


def _shell_sums(row_g: dict[int, int], row_r: dict[int, int]) -> dict[int, int]:
    """Exact sums of row_g[g] row_r[r] over each shell g + r, by ascending shell."""
    sums: dict[int, int] = {}
    for g, c_g in row_g.items():
        for r, c_r in row_r.items():
            sums[g + r] = sums.get(g + r, 0) + c_g * c_r
    return sums


def shell_input_counts(ell: int, n: int, g_window: tuple[int, int],
                       r_window: tuple[int, int]) -> dict[int, int]:
    """Exact number of covered input strings per total-1s shell."""
    return _shell_sums(_comb_row(ell, g_window), _comb_row(n, r_window))


def _solve_window_exact(ell: int, n: int, g_window: tuple[int, int],
                        r_window: tuple[int, int]) -> tuple[int, tuple[int, int]]:
    """Largest m jointly feasible for the whole window, in exact integers.

    Same shell-sum condition as the log-gamma route: every total-1s shell
    must fit into C(ell+n-m, s-m).
    """
    row_g, row_r = _comb_row(ell, g_window), _comb_row(n, r_window)
    sums = _shell_sums(row_g, row_r)
    s_min = min(sums)

    def feasible(m: int) -> bool:
        if m > s_min:
            return False
        k = ell + n - m
        return all(math.comb(k, s - m) >= total for s, total in sums.items())

    lo, hi = 0, s_min
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid - 1
    m_star = lo

    # Binding shell: the one with the smallest log margin at m*; report its
    # largest single composite type.
    k = ell + n - m_star
    s_binding = min(sums, key=lambda s: log_binomial(k, s - m_star) - math.log(sums[s]))
    best_g = max((g for g in row_g if s_binding - g in row_r),
                 key=lambda g: row_g[g] * row_r[s_binding - g])
    return m_star, (best_g, s_binding - best_g)


def plan_distillation(n: int, p: float, beta: float, width: float = 3.0,
                      exact: bool | None = None,
                      exact_threshold: int = PLAN_EXACT_THRESHOLD) -> DistillationPlan:
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
    if exact is None:
        exact = (ell + n) <= exact_threshold
    mode = "exact" if exact else "loggamma"

    g_window = typical_range(ell, q, width) if ell > 0 else (0, 0)
    r_window = typical_range(n, p, width)

    num_types = (g_window[1] - g_window[0] + 1) * (r_window[1] - r_window[0] + 1)

    if no_resource:
        m = 0
        worst = (g_window[0], r_window[0])
    elif exact:
        m, worst = _solve_window_exact(ell, n, g_window, r_window)
    else:
        m, worst = _solve_window_loggamma(
            ell, n, g_window, r_window, _log_comb(n, np.arange(r_window[0], r_window[1] + 1)))

    bath_out = 0.0 if ell == 0 else binomial_outside_mass(ell, q, g_window)
    resource_out = binomial_outside_mass(n, p, r_window)
    failure_mass = bath_out + resource_out - bath_out * resource_out

    g, r = worst
    return DistillationPlan(
        n=n, ell=ell, m=m, k=ell + n - m, p=p, beta=beta, width=width,
        failure_mass=failure_mass,
        achieved_rate=m / n,
        epsilon=(n / ell) if ell > 0 else math.inf,
        r_limit=r_lim,
        mode=mode,
        worst_type=next(_records(ell, n, m, (g, g), (r, r), exact)),
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


def plan_distillation_general(rho: DensityMatrix, n: int, beta: float,
                              width: float = 3.0,
                              exact: bool | None = None,
                              exact_threshold: int = PLAN_EXACT_THRESHOLD,
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
    exact_mode = (n <= exact_threshold) if exact is None else exact

    if exact_mode:
        log_cap_total = math.log(
            sum(math.comb(n, j) for j in range(eig_window[0], eig_window[1] + 1)))
    else:
        eig_counts = np.arange(eig_window[0], eig_window[1] + 1)
        log_cap_total = float(logsumexp(_log_comb(n, eig_counts)))

    blocks = []
    for t in range(e_window[0], e_window[1] + 1):
        log_dim = log_binomial(n, t)
        cap = log_dim if diagonal else min(log_dim, log_cap_total)
        blocks.append(BlockRecord(t, log_dim, cap))

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
        return plan_distillation(n, a, beta, width, exact=exact,
                                 exact_threshold=exact_threshold), record

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
    caps = np.array([block.log_rank_cap for block in blocks])
    m, (g_worst, t_worst) = _solve_window_loggamma(ell, n, g_window, e_window, caps)

    bath_out = 0.0 if ell == 0 else binomial_outside_mass(ell, q, g_window)
    failure = min(1.0, bath_out + energy_tail + 2.0 * math.sqrt(eig_tail))

    worst_cap = {t_worst: blocks[t_worst - e_window[0]].log_rank_cap}
    plan = DistillationPlan(
        n=n, ell=ell, m=m, k=ell + n - m, p=a, beta=beta, width=width,
        failure_mass=failure,
        achieved_rate=m / n,
        epsilon=(n / ell) if ell > 0 else math.inf,
        r_limit=r_lim,
        mode="exact" if exact_mode else "loggamma",
        worst_type=next(_records(ell, n, m, (g_worst, g_worst), (t_worst, t_worst),
                                 False, worst_cap)),
        coherent=True,
        gibbs_window=g_window,
        resource_window=e_window,
        num_composite_types=(g_window[1] - g_window[0] + 1) * len(blocks),
    )
    return plan, record


# ---------------------------------------------------------------------------
# Explicit string maps
# ---------------------------------------------------------------------------

def rank_fixed_weight(bits: tuple[int, ...]) -> int:
    """Lexicographic rank of a binary string among strings of its weight."""
    rank = 0
    ones_left = sum(bits)
    length = len(bits)
    for i, b in enumerate(bits):
        if b:
            rank += math.comb(length - i - 1, ones_left)
            ones_left -= 1
    return rank


def unrank_fixed_weight(rank: int, length: int, weight: int) -> tuple[int, ...]:
    """Inverse of :func:`rank_fixed_weight`."""
    if not 0 <= rank < math.comb(length, weight):
        raise ValueError("rank out of range")
    bits = []
    ones_left = weight
    for i in range(length):
        zero_branch = math.comb(length - i - 1, ones_left)
        if rank < zero_branch:
            bits.append(0)
        else:
            rank -= zero_branch
            bits.append(1)
            ones_left -= 1
    return tuple(bits)


@dataclass(frozen=True)
class StringMap:
    """Explicit injection for one composite type of a distillation plan.

    Input strings (bath substring of weight g, resource substring of weight
    r, enumerated lexicographically) map to consecutive exhaust strings of
    weight e in lexicographic order, with m trailing 1s appended.  Types
    sharing a total-1s shell receive disjoint rank ranges through
    ``shell_offset``, so the union over the whole plan stays injective.
    Every pair conserves total 1s.
    """

    ell: int
    n: int
    m: int
    gibbs_ones: int
    resource_ones: int
    shell_offset: int = 0

    @property
    def k(self) -> int:
        return self.ell + self.n - self.m

    @property
    def exhaust_ones(self) -> int:
        return self.gibbs_ones + self.resource_ones - self.m

    @property
    def input_cardinality(self) -> int:
        return math.comb(self.ell, self.gibbs_ones) * math.comb(self.n, self.resource_ones)

    def apply(self, bath: tuple[int, ...], resource: tuple[int, ...]) -> tuple[int, ...]:
        if len(bath) != self.ell or sum(bath) != self.gibbs_ones:
            raise ValueError("bath string does not match the composite type")
        if len(resource) != self.n or sum(resource) != self.resource_ones:
            raise ValueError("resource string does not match the composite type")
        index = (self.shell_offset
                 + rank_fixed_weight(bath) * math.comb(self.n, self.resource_ones)
                 + rank_fixed_weight(resource))
        exhaust = unrank_fixed_weight(index, self.k, self.exhaust_ones)
        return exhaust + (1,) * self.m

    def pairs(self):
        """Yield every (input string, output string) pair; small sizes only."""
        from itertools import combinations

        def strings(length, weight):
            for positions in combinations(range(length), weight):
                bits = [0] * length
                for pos in positions:
                    bits[pos] = 1
                yield tuple(bits)

        for bath in strings(self.ell, self.gibbs_ones):
            for resource in strings(self.n, self.resource_ones):
                yield bath + resource, self.apply(bath, resource)


def build_string_map(plan: DistillationPlan, composite: tuple[int, int]) -> StringMap:
    """Explicit injection for a composite type covered by the plan.

    Within the type's total-1s shell, covered types are laid out in
    ascending bath-count order; the shell-sum feasibility built into the
    plan guarantees the offsets stay below C(k, e).
    """
    g, r = composite
    if plan.coherent:
        raise ValueError("string maps apply to quasiclassical plans only")
    if not plan.covers(g, r):
        raise ValueError(f"composite type {composite} is not covered by the plan")
    s = g + r
    offset = 0
    for g_prev in range(plan.gibbs_window[0], g):
        r_prev = s - g_prev
        if plan.resource_window[0] <= r_prev <= plan.resource_window[1]:
            offset += math.comb(plan.ell, g_prev) * math.comb(plan.n, r_prev)
    map_ = StringMap(plan.ell, plan.n, plan.m, g, r, shell_offset=offset)
    if offset + map_.input_cardinality > math.comb(map_.k, map_.exhaust_ones):
        raise ValueError(f"composite type {composite} has no feasible injection")
    return map_

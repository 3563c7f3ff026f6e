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
from typing import Callable

import numpy as np

from .core import DensityMatrix, binary_entropy, gibbs_weight, von_neumann_entropy
from .counting import (
    Factor,
    binomial_outside_mass,
    certify,
    factor_value,
    identities,
    log_comb,
    log_factorial,
    log_sum_exp,
    margin_bound,
    products_leq,
    search,
    shell_log_sums,
)
from .typeclass import typical_range

__all__ = [
    "PerTypeRecord",
    "DistillationPlan",
    "BlockDiagonalizationRecord",
    "rate_limit",
    "solve_single_type",
    "distill_feasible",
    "plan_distillation",
    "plan_distillation_general",
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
    return bool(log_comb(ell, gibbs_ones) + log_comb(n, resource_ones) <= log_comb(k, e))


def solve_single_type(ell: int, gibbs_ones: int, n: int, resource_ones: int,
                      exact: bool = True) -> int:
    """Largest m such that the per-type counting inequality holds.

    The feasible set is downward closed in m and holds m = 0 (Vandermonde):
    :func:`.counting.search` finds its edge, steered by float log-binomial
    margins.
    """
    if not 0 <= gibbs_ones <= ell or not 0 <= resource_ones <= n:
        raise ValueError("one-counts out of range")
    log_in = log_comb(ell, gibbs_ones) + log_comb(n, resource_ones)
    return search(lambda m: (distill_feasible(ell, gibbs_ones, n, resource_ones, m, exact=exact),
                             log_comb(ell + n - m, gibbs_ones + resource_ones - m) - log_in),
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

    The plan is fixed by (ell, n, m) and the windows, and every covered
    composite type fits because its shell does.  ``worst_type`` is the
    certified record of the largest type in the binding shell.
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
        if self.n < 1 or self.achieved_rate != self.m / self.n:
            raise ValueError("achieved_rate is not m / n at n >= 1")
        if self.epsilon != (self.n / self.ell if self.ell > 0 else math.inf):
            raise ValueError("epsilon is not n / ell (inf at ell = 0)")
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

    # Per-type records are not kept; perfbench/tracer.py still reads this
    # schema-1 name.
    per_type_maps = ()


def _binomial_axis(n: int, window: tuple[int, int]
                   ) -> tuple[np.ndarray, Callable[[int], Factor]]:
    """ln C(n, r) over an inclusive window, and the exact count C(n, r) as
    a factor."""
    return log_comb(n, np.arange(window[0], window[1] + 1)), lambda r: (n, r)


def _cap_axis(n: int, blocks: BlockDiagonalizationRecord, window: tuple[int, int]
              ) -> tuple[np.ndarray, Callable[[int], Factor]]:
    """ln rank cap of every energy block of a window, min(ln C(n, t), ln
    of the typical-subspace bound), and the exact cap min(C(n, t), sum over
    the eigenvalue window of C(n, j)), computed on first demand."""
    total = cache(lambda: sum(math.comb(n, j)
                              for j in range(blocks.eig_window[0], blocks.eig_window[1] + 1)))
    return (np.minimum(log_comb(n, np.arange(window[0], window[1] + 1)),
                       blocks.log_rank_cap_total),
            lambda t: min(math.comb(n, t), total()))


def _record(ell: int, n: int, m: int, g: int, r: int, log_r: np.ndarray,
            factor_r: Callable[[int], Factor]) -> PerTypeRecord:
    """Certified record of the type (g, r).

    ``log_r`` (one entry) and ``factor_r`` give its resource string count
    (C(n, r), or a coherent block rank cap) as a float and exactly; a
    record whose margin is not certified raises ValueError.
    """
    k, es = ell + n - m, np.array([g + r - m])
    log_in = log_comb(ell, np.array([g])) + log_r
    log_ex = log_comb(k, es)
    margins = log_ex - log_in
    unit = k == ell and r in (0, n) and factor_value(factor_r(r)) == 1
    margins[identities(ell, k, g, es, unit)] = np.inf
    if certify(margins, margin_bound(ell + max(n, m)), lambda i: products_leq(
            [(ell, g), factor_r(r)], [(k, g + r - m)])) is not None:
        raise ValueError("per-type record violates the counting inequality")
    return PerTypeRecord(g, r, g + r - m, m, float(log_in[0]), float(log_ex[0]))


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
        self.log_g = log_comb(ell, np.arange(g_window[0], g_window[1] + 1))
        self.factor_r = factor_r
        self.count_r = cache(lambda r: factor_value(factor_r(r)))
        self.shells = np.arange(g_window[0] + r_window[0], g_window[1] + r_window[1] + 1)
        self.log_sums = shell_log_sums(self.log_g, log_r)
        # ln (ell+n-s)!, the one factor of ln C(ell+n-m, s-m) free of m.
        self.rest = log_factorial(ell + n - self.shells)
        self.comb_g = cache(partial(math.comb, ell))
        self._margins: dict[int, np.ndarray] = {}

    def margins(self, m: int) -> np.ndarray:
        """ln C(ell+n-m, s-m) less ln of the shell's input strings, per
        shell; computed once per m and read-only."""
        if (margins := self._margins.get(m)) is None:
            margins = (log_factorial(self.ell + self.n - m) - log_factorial(self.shells - m)
                       - self.rest - self.log_sums)
            margins.flags.writeable = False
            self._margins[m] = margins
        return margins

    def fits(self, s: int, m: int) -> bool:
        """Whether shell s fits at m, in exact integers.  A shell of one
        pair is a product inequality, compared with its common binomials
        cancelled (at p = 1 and m = n every shell reads C(ell, g) <= C(ell, g))."""
        (g_lo, g_hi), (r_lo, r_hi) = self.g_window, self.r_window
        gs = range(max(g_lo, s - r_hi), min(g_hi, s - r_lo) + 1)
        exhaust = (self.ell + self.n - m, s - m)
        if len(gs) == 1:
            return products_leq([(self.ell, gs[0]), self.factor_r(s - gs[0])], [exhaust])
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
        return identities(self.ell, self.ell, g, self.shells - self.n, unit)

    def violation(self, m: int) -> tuple[int | None, float]:
        """(A shell proven to overflow at m or None, the least float margin);
        identities settle in one pass, without exact integers."""
        margins = self.margins(m)
        if m == self.n:
            margins = np.where(self.identities(), np.inf, margins)
        i = certify(margins, margin_bound(self.ell + max(self.n, m)),
                    lambda i: self.fits(int(self.shells[i]), m))
        return None if i is None else int(self.shells[i]), float(margins.min())


def _solve_window(ell: int, n: int, g_window: tuple[int, int], r_window: tuple[int, int],
                  log_r: np.ndarray, factor_r: Callable[[int], Factor]
                  ) -> tuple[int, tuple[int, int]]:
    """Largest m jointly feasible for the whole window.

    Joint unitarity needs one injection over ALL covered pairs at once, so
    every shell must fit (:class:`_Shells`); the feasible set is downward
    closed in m and holds m = 0 (Vandermonde, as R_r <= C(n, r)), so the
    margins there, near ties at a small bath, only steer
    :func:`.counting.search` to its edge.  Also returns the largest single pair
    of the binding shell, the lowest whose margin at m is within
    delta(N) of the least: margins tied exactly (each fully covered shell's
    at m = 0) then report one shell whatever their rounding.
    """
    shells = _Shells(ell, n, g_window, r_window, log_r, factor_r)
    m = search(lambda m: (True, float(shells.margins(0).min())) if m == 0
               else ((v := shells.violation(m))[0] is None, v[1]),
               0, int(shells.shells[0]), largest=True)
    margins = shells.margins(m)       # the probe's, before identities read +inf
    s = int(shells.shells[np.argmax(margins <= margins.min() + margin_bound(ell + max(n, m)))])
    gs = np.arange(max(g_window[0], s - r_window[1]), min(g_window[1], s - r_window[0]) + 1)
    g = int(gs[np.argmax(shells.log_g[gs - g_window[0]] + log_r[s - gs - r_window[0]])])
    return m, (g, s - g)


def _plan(n: int, p: float, beta: float, width: float, r_lim: float,
          r_window: tuple[int, int],
          axis: Callable[[tuple[int, int]], tuple[np.ndarray, Callable[[int], Factor]]],
          failure: Callable[[float], float], coherent: bool = False) -> DistillationPlan:
    """The plan with ell = ceil(max(R n, 0)^(3/2)) bath copies for a resource
    whose string counts over a window are ``axis(window)``; ``failure``
    joins the bath's outside mass with the resource's."""
    q = gibbs_weight(beta)
    no_resource = not coherent and abs(p - q) < 1e-12
    ell = 0 if no_resource else math.ceil(max(r_lim * n, 0.0) ** 1.5)
    g_window = typical_range(ell, q, width) if ell > 0 else (0, 0)
    if no_resource:
        m, (g, r) = 0, (g_window[0], r_window[0])
    else:
        m, (g, r) = _solve_window(ell, n, g_window, r_window, *axis(r_window))
    return DistillationPlan(
        n=n, ell=ell, m=m, k=ell + n - m, p=p, beta=beta, width=width,
        failure_mass=failure(0.0 if ell == 0 else binomial_outside_mass(ell, q, g_window)),
        achieved_rate=m / n,
        epsilon=(n / ell) if ell > 0 else math.inf,
        r_limit=r_lim,
        worst_type=_record(ell, n, m, g, r, *axis((r, r))),
        no_resource=no_resource,
        coherent=coherent,
        gibbs_window=g_window,
        resource_window=r_window,
        num_composite_types=(g_window[1] - g_window[0] + 1) * (r_window[1] - r_window[0] + 1),
    )


def plan_distillation(n: int, p: float, beta: float, width: float = 3.0) -> DistillationPlan:
    """Construct a distillation plan with ell = ceil((R n)^(3/2)) bath copies.

    The output size m is fitted to the worst composite typical type, so the
    same injection length works for every type in the window.  If p equals
    the Gibbs weight q the plan is flagged ``no_resource`` and extracts
    nothing.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    r_lim = rate_limit(p, beta)
    r_window = typical_range(n, p, width)
    resource_out = binomial_outside_mass(n, p, r_window)
    return _plan(n, p, beta, width, r_lim, r_window, partial(_binomial_axis, n),
                 lambda bath_out: bath_out + resource_out - bath_out * resource_out)


# ---------------------------------------------------------------------------
# Distillation of arbitrary (possibly coherent) two-level states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockDiagonalizationRecord:
    """Energy-block bookkeeping for the rotate-then-permute protocol."""

    mean_energy: float            # <H> per copy, energy units
    entropy: float                # S(rho) per copy, nats
    eig_window: tuple[int, int]   # eigenvalue-type window used for the rank cap
    log_rank_cap_total: float     # ln of the typical-subspace dimension bound
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
    log_cap_total = log_sum_exp(log_comb(n, np.arange(eig_window[0], eig_window[1] + 1)))
    record = BlockDiagonalizationRecord(
        mean_energy=a, entropy=entropy, eig_window=eig_window, log_rank_cap_total=log_cap_total,
        energy_tail=binomial_outside_mass(n, a, e_window),
        eig_tail=binomial_outside_mass(n, lam, eig_window))

    if diagonal:
        return plan_distillation(n, a, beta, width), record

    # Coherent case: per (bath type, energy block), the injection must
    # absorb C(ell, g) * rank_cap(t) strings into C(k, g + t - m).
    d_rho = -entropy + beta * a + math.log(1.0 + math.exp(-beta))
    d_one = beta + math.log(1.0 + math.exp(-beta))
    return _plan(n, a, beta, width, d_rho / d_one, e_window, partial(_cap_axis, n, record),
                 lambda bath_out: min(1.0, bath_out + record.energy_tail
                                      + 2.0 * math.sqrt(record.eig_tail)),
                 coherent=True), record

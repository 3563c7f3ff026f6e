"""Finite-size formation plans for two-level quasiclassical states.

Formation runs in three stages: a fixed-type stage mapping one Gibbs type
onto one target type, a conditional stage extending this to all typical
Gibbs types through a log-sized register, and a type-distribution stage
that reproduces the target's mixture over types with the Birkhoff
primitive (probabilistic energy-commuting unitaries conditioned on extra
Gibbs strings).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .core import gibbs_weight
from .distill import (
    _bisect,
    _certify,
    _identities,
    _log_comb,
    _margin_bound,
    _products_leq,
    binomial_log_pmf,
    binomial_outside_mass,
    rate_limit,
)
from .typeclass import TypeDescriptor, type_probability, typical_range

__all__ = [
    "InfeasibleFormationError",
    "FormationRecord",
    "FormationPlan",
    "BirkhoffSpan",
    "BirkhoffPartition",
    "solve_formation_single_type",
    "formation_feasible",
    "plan_formation",
    "birkhoff_partition",
    "gibbs_type_birkhoff",
    "target_birkhoff",
    "type_distribution",
]


class InfeasibleFormationError(RuntimeError):
    """No m up to ell + n satisfies the formation counting inequality.

    Should never trigger for typical types; reaching it indicates a bug.
    """


def formation_feasible(n: int, target_ones: int, ell: int, gibbs_ones: int, m: int) -> bool:
    """Whether C(ell,g) <= C(m+ell-n, g+m-t) C(n,t) with a valid exhaust."""
    k = m + ell - n
    e = gibbs_ones + m - target_ones
    if k < 0 or e < 0 or e > k:
        return False
    return math.comb(ell, gibbs_ones) <= math.comb(k, e) * math.comb(n, target_ones)


def solve_formation_single_type(n: int, target_ones: int, ell: int, gibbs_ones: int) -> int:
    """Smallest m >= 0 making the formation inequality hold.

    The feasible set is upward closed in m; raises
    InfeasibleFormationError when even m = ell + n fails.
    """
    if not 0 <= gibbs_ones <= ell or not 0 <= target_ones <= n:
        raise ValueError("one-counts out of range")
    lo = max(0, n - ell, target_ones - gibbs_ones)
    hi = ell + n
    if not formation_feasible(n, target_ones, ell, gibbs_ones, hi):
        raise InfeasibleFormationError(
            f"no feasible m <= {hi} for (n={n}, t={target_ones}, ell={ell}, g={gibbs_ones})"
        )
    return _bisect(lambda m: formation_feasible(n, target_ones, ell, gibbs_ones, m),
                   lo, hi, largest=False)


@dataclass(frozen=True)
class FormationRecord:
    """Injection record: one Gibbs type onto one target type plus exhaust."""

    gibbs_ones: int
    target_ones: int
    exhaust_ones: int
    m: int
    log_gibbs_cardinality: float
    log_output_cardinality: float      # exhaust x target

    def check(self) -> None:
        if self.gibbs_ones + self.m != self.exhaust_ones + self.target_ones:
            raise ValueError("formation record violates conservation of 1s")
        if self.log_gibbs_cardinality > self.log_output_cardinality + 1e-6:
            raise ValueError("formation record violates the counting inequality")


@dataclass(frozen=True)
class BirkhoffSpan:
    """A contiguous run of lexicographic ranks inside one Gibbs type class."""

    ones: int
    start: int
    count: int


@dataclass(frozen=True)
class BirkhoffPartition:
    """Partition of a Gibbs eigenstring index space realizing target weights.

    ``sets[k]`` collects the strings whose conditional unitary is U_k; the
    greedy largest-first construction keeps ``max_deviation`` at or below
    the largest single string weight.  Grouped spans index the type-major
    lexicographic layout (all weight-0 strings first, then weight-1, ...);
    an ungrouped partition stores the original string index in ``ones``.
    """

    ell: int
    target_weights: tuple[float, ...]
    sets: tuple[tuple[BirkhoffSpan, ...], ...]
    achieved_weights: tuple[float, ...]
    max_deviation: float
    tolerance: float
    within_tolerance: bool
    grouped: bool = True


def _greedy_fill(groups: list[tuple[float, int, int]], targets: Sequence[float],
                 ell: int, tolerance: float, grouped: bool = True) -> BirkhoffPartition:
    """Largest-first, most-deficient-bin greedy over weight groups.

    groups: (single-string weight, multiplicity, ones-count) triples.
    """
    n_sets = len(targets)
    spans: list[list[BirkhoffSpan]] = [[] for _ in range(n_sets)]
    achieved = [0.0] * n_sets
    heap = [(-float(t), k) for k, t in enumerate(targets)]
    heapq.heapify(heap)

    max_weight = max((w for w, mult, _ in groups if mult > 0), default=0.0)

    for weight, mult, ones in sorted(groups, key=lambda x: (-x[0], x[2])):
        offset = 0
        remaining = mult
        while remaining > 0:
            neg_d, k = heapq.heappop(heap)
            deficit = -neg_d
            if weight <= 0.0 or deficit <= 0.0:
                # Zero-weight groups, or float slop past all targets: dump.
                chunk = remaining
            else:
                # Fill the most-deficient bin up to its target in one span;
                # single items handle the sub-weight remainder, keeping the
                # deviation below the largest single weight.
                chunk = min(remaining, max(1, math.floor(deficit / weight)))
            spans[k].append(BirkhoffSpan(ones, offset, chunk))
            achieved[k] += chunk * weight
            offset += chunk
            remaining -= chunk
            heapq.heappush(heap, (-(deficit - chunk * weight), k))

    merged = []
    for k in range(n_sets):
        runs: list[BirkhoffSpan] = []
        for span in sorted(spans[k], key=lambda s: (s.ones, s.start)):
            if runs and runs[-1].ones == span.ones and runs[-1].start + runs[-1].count == span.start:
                runs[-1] = BirkhoffSpan(span.ones, runs[-1].start, runs[-1].count + span.count)
            else:
                runs.append(span)
        merged.append(tuple(runs))

    deviation = max(abs(a - float(t)) for a, t in zip(achieved, targets))
    return BirkhoffPartition(
        ell=ell,
        target_weights=tuple(float(t) for t in targets),
        sets=tuple(merged),
        achieved_weights=tuple(achieved),
        max_deviation=deviation,
        tolerance=tolerance,
        within_tolerance=bool(deviation <= tolerance + 1e-12 and max_weight <= tolerance + 1e-12),
        grouped=grouped,
    )


def birkhoff_partition(weights: Sequence[float], targets: Sequence[float],
                       tolerance: float) -> BirkhoffPartition:
    """Partition explicit string weights into sets approximating the targets.

    Guaranteed deviation <= tolerance whenever the largest single weight is
    <= tolerance; otherwise the result carries the best greedy deviation
    with ``within_tolerance`` cleared.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if abs(sum(float(w) for w in weights) - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    if abs(sum(float(t) for t in targets) - 1.0) > 1e-9:
        raise ValueError("targets must sum to 1")
    # Each string is its own group; the ones-slot stores the string index
    # so explicit indices can be recovered from the spans.
    groups = [(float(w), 1, i) for i, w in enumerate(weights)]
    return _greedy_fill(groups, targets, ell=len(groups), tolerance=tolerance,
                        grouped=False)


def gibbs_type_birkhoff(ell: int, q: float, targets: Sequence[float],
                        tolerance: float) -> BirkhoffPartition:
    """Birkhoff partition over the 2^ell Gibbs eigenstrings, grouped by type.

    Strings of equal weight q^t (1-q)^(ell-t) are handled in blocks, so the
    construction scales with the number of types rather than of strings.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    groups = []
    for ones in range(ell + 1):
        weight = (q ** ones) * ((1.0 - q) ** (ell - ones))
        groups.append((weight, math.comb(ell, ones), ones))
    return _greedy_fill(groups, targets, ell=ell, tolerance=tolerance)


def type_distribution(n: int, p, window: Sequence[TypeDescriptor]):
    """Renormalized binomial type probabilities over a window of types."""
    if not window:
        raise ValueError("window must be nonempty")
    if isinstance(p, (Fraction, int)):
        masses = [type_probability(t, (1 - p, p)) for t in window]
        total = sum(masses)
        if total == 0:
            raise ValueError("window has zero mass under the source")
        return [m / total for m in masses]
    logs = binomial_log_pmf(n, float(p), [t.ones for t in window])
    if logs.max() == -np.inf:
        raise ValueError("window has zero mass under the source")
    masses = np.exp(logs - logs.max())
    return (masses / masses.sum()).tolist()


@dataclass(frozen=True)
class FormationPlan:
    """Complete finite-n formation protocol record.

    ``m`` excited-state inputs and ``ell`` Gibbs states produce ``n`` target
    copies plus a ``k``-system exhaust; one m serves every (Gibbs type,
    target type) pair in the windows.  ``cost_rate`` is the number of
    copies formed per consumed excited qubit (approaching the inverse
    distillation rate); ``work_per_copy`` is its reciprocal m/n.  The
    record of every pair is derived on demand by :meth:`records`;
    ``worst_type`` is the binding pair's record (for a free target, whose
    identity records all hold with equality, the first one).
    """

    n: int
    ell: int
    m: int
    k: int
    p: float
    beta: float
    width: float
    register_bits: int
    birkhoff: BirkhoffPartition
    cost_rate: float
    work_per_copy: float
    failure_mass: float
    worst_type: FormationRecord
    free_target: bool = False
    gibbs_window: tuple[int, int] = (0, 0)
    target_window: tuple[int, int] = (0, 0)
    fixed_point_iterations: int = 0

    def __post_init__(self):
        if self.m + self.ell != self.n + self.k:
            raise ValueError("reverse conservation of dimension violated")
        n_types = self.gibbs_window[1] - self.gibbs_window[0] + 1
        if self.register_bits > max(0, (n_types - 1)).bit_length():
            raise ValueError("register larger than needed for the type count")
        if self.worst_type.m != self.m:
            raise ValueError("worst type carries a foreign m")
        if not self.covers(self.worst_type.gibbs_ones, self.worst_type.target_ones):
            raise ValueError("worst type lies outside the plan windows")
        self.worst_type.check()

    @property
    def q(self) -> float:
        return gibbs_weight(self.beta)

    def covers(self, gibbs_ones: int, target_ones: int) -> bool:
        return (self.gibbs_window[0] <= gibbs_ones <= self.gibbs_window[1]
                and self.target_window[0] <= target_ones <= self.target_window[1])

    def records(self) -> Iterator[FormationRecord]:
        """Yield the certified record of every covered pair; a free target
        covers only the identity pairs (t, t)."""
        if not self.free_target:
            yield from _formation_records(self.n, self.ell, self.m, self.gibbs_window,
                                          self.target_window)
            return
        for t in range(self.target_window[0], self.target_window[1] + 1):
            yield from _formation_records(self.n, self.ell, self.m, (t, t), (t, t))

    # Schema-1 name of the records, kept as a lazily derived view because
    # perfbench/tracer.py still reads it.
    per_type_maps = property(records)


def _pair_identities(n: int, ell: int, m: int, gs, ts) -> np.ndarray:
    """Pairs whose inequality C(ell, g) <= C(k, e) C(n, t) is an identity:
    one factor on the right is 1 and the other is C(ell, g) (at m = n, pairs
    (g, n); for a free target, (t, t) at m = 0)."""
    k, es = m + ell - n, gs + m - ts
    return (_identities(ell, k, gs, es, (ts == 0) | (ts == n))
            | _identities(ell, n, gs, ts, (es == 0) | (es == k)))


class _Pairs:
    """(Gibbs type g, target type t) pairs of a formation window at every m.

    Pair (g, t) needs C(ell, g) <= C(k, e) C(n, t) with k = m + ell - n and
    e = j + m on its diagonal j = g - t, so each diagonal binds through its
    pair of largest phi_j(g) = ln C(ell, g) - ln C(n, g - j): ``top``, at
    Gibbs count ``top_g`` (the smallest g of a float tie).

    Diagonal j holds g in [lo_j, hi_j], lo_j = max(g_lo, j + t_lo) and
    hi_j = min(g_hi, j + t_hi).  Its step phi_j(g + 1) - phi_j(g) =
    ln[(ell - g)(t + 1) / ((g + 1)(n - t))] has the sign of the integer
    (ell - g)(t + 1) - (g + 1)(n - t) = (ell - n)(g + 1) - j (ell + 1): the
    g^2 terms cancel, so the sign is exact and linear in g.  Hence

    - ell > n: the sign goes from - to +, phi_j falls, then rises, and
      peaks at lo_j or hi_j;
    - ell = n: the sign is that of -j throughout, phi_j is monotone and
      peaks at lo_j or hi_j;
    - ell < n: the sign goes from + to -, phi_j rises while
      g + 1 < x_j = j (ell + 1) / (ell - n) and falls after, so it peaks at
      c_j = floor(x_j) clipped into [lo_j, hi_j], in an exact tie with
      c_j - 1 when x_j is an integer.

    So the real maximiser of every diagonal is one of lo_j, c_j - 1, c_j,
    c_j + 1, hi_j (clipped), and ``top`` is the largest float value among
    these candidates.  Float margins against it carry the pair bound of
    :func:`distill._margin_bound`: a margin >= delta proves the maximiser's
    pair, and so its whole diagonal, and one <= -delta refutes the pair at
    ``top_g``.  The build costs O(|G| + |T|); c_j + 1 joins the candidates
    so that a rounding-level near-tie resolves as a scan of the diagonal
    would.
    """

    def __init__(self, n: int, ell: int, g_window: tuple[int, int], t_window: tuple[int, int]):
        self.n, self.ell, self.g_window, self.t_window = n, ell, g_window, t_window
        (g_lo, g_hi), (t_lo, t_hi) = g_window, t_window
        self.log_g = _log_comb(ell, np.arange(g_lo, g_hi + 1))
        self.log_t = _log_comb(n, np.arange(t_lo, t_hi + 1))
        self.js = np.arange(g_lo - t_hi, g_hi - t_lo + 1)
        self.lo = np.maximum(g_lo, self.js + t_lo)
        self.hi = np.minimum(g_hi, self.js + t_hi)
        c = self.js * (ell + 1) // (ell - n) if ell < n else self.lo
        # Candidates in ascending g, so argmax breaks float ties to the smallest.
        cands = np.clip(np.stack([self.lo, c - 1, c, c + 1, self.hi], axis=1),
                        self.lo[:, None], self.hi[:, None])
        vals = self.log_g[cands - g_lo] - self.log_t[cands - self.js[:, None] - t_lo]
        best = np.argmax(vals, axis=1)
        rows = np.arange(len(self.js))
        self.top, self.top_g = vals[rows, best], cands[rows, best]

    def margins(self, m: int) -> np.ndarray:
        """ln C(k, j + m) less ``top``, per diagonal."""
        return _log_comb(m + self.ell - self.n, self.js + m) - self.top

    def pair(self, i: int) -> tuple[int, int]:
        """The binding pair of diagonal i."""
        return int(self.top_g[i]), int(self.top_g[i] - self.js[i])

    def violation(self, m: int) -> tuple[int, int] | None:
        """A pair proven infeasible at m, or None when every pair is feasible."""
        k = m + self.ell - self.n
        log_e = _log_comb(k, self.js + m)
        margins = log_e - self.top
        delta = _margin_bound(self.ell + max(self.n, m))
        worst = int(np.argmin(margins))
        if margins[worst] <= -delta:
            return self.pair(worst)
        near = np.flatnonzero(margins < delta)
        if not len(near):
            return None
        # Every pair of the diagonals their top pair leaves open, diagonal
        # after diagonal, each one's pairs at offsets starts[r]:ends[r].
        sizes = self.hi[near] - self.lo[near] + 1
        ends = np.cumsum(sizes)
        starts = ends - sizes
        gs = np.arange(ends[-1]) + np.repeat(self.lo[near] - starts, sizes)
        ts = gs - np.repeat(self.js[near], sizes)
        pair_margins = np.repeat(log_e[near], sizes) - (self.log_g[gs - self.g_window[0]]
                                                       - self.log_t[ts - self.t_window[0]])
        pair_margins[_pair_identities(self.n, self.ell, m, gs, ts)] = np.inf
        for r in np.flatnonzero(np.minimum.reduceat(pair_margins, starts) < delta):
            a, b = int(starts[r]), int(ends[r])
            x = _certify(pair_margins[a:b], delta, lambda x: _products_leq(
                [(self.ell, int(gs[a + x]))], [(k, int(gs[a + x] + m - ts[a + x])),
                                               (self.n, int(ts[a + x]))]))
            if x is not None:
                return int(gs[a + x]), int(ts[a + x])
        return None


def _formation_m(n: int, ell: int, g_window: tuple[int, int],
                 t_window: tuple[int, int]) -> tuple[int, tuple[int, int]]:
    """Smallest m feasible for every (Gibbs type, target type) pair of the
    windows, and its binding pair: one proven infeasible at m - 1, or, when
    m is the least m with a valid exhaust, the pair of smallest margin."""
    if g_window[1] - t_window[0] > ell - n:
        raise InfeasibleFormationError("a window pair violates e <= k at every m")
    pairs = _Pairs(n, ell, g_window, t_window)
    lo, hi = max(0, n - ell, t_window[1] - g_window[0]), ell + n
    if pairs.violation(hi) is not None:
        raise InfeasibleFormationError("window infeasible at m = ell + n")
    m = _bisect(lambda m: pairs.violation(m) is None, lo, hi, largest=False)
    return m, pairs.violation(m - 1) if m > lo else pairs.pair(int(np.argmin(pairs.margins(m))))


def _formation_records(n: int, ell: int, m: int, g_window: tuple[int, int],
                       t_window: tuple[int, int]) -> Iterator[FormationRecord]:
    """Certified record of every (g, t) in the windows, row by row of g; a
    record whose margin is not certified raises ValueError."""
    k = m + ell - n
    ts = np.arange(t_window[0], t_window[1] + 1)
    log_t = _log_comb(n, ts)
    delta = _margin_bound(ell + max(n, m))
    for g in range(g_window[0], g_window[1] + 1):
        log_g = float(_log_comb(ell, np.array([g]))[0])
        log_out = _log_comb(k, g + m - ts) + log_t
        margins = log_out - log_g
        margins[_pair_identities(n, ell, m, g, ts)] = np.inf
        if _certify(margins, delta, lambda i: _products_leq(
                [(ell, g)], [(k, g + m - int(ts[i])), (n, int(ts[i]))])) is not None:
            raise ValueError("formation record violates the counting inequality")
        for t, log_output in zip(ts.tolist(), log_out.tolist()):
            yield FormationRecord(g, t, g + m - t, m, log_g, log_output)


def plan_formation(n: int, p: float, beta: float, width: float = 3.0,
                   birkhoff_tolerance: float = 1e-3) -> FormationPlan:
    """Construct a formation plan with ell = ceil(m^(3/2)) Gibbs copies.

    The bath size depends on the solved m, so the pair (ell, m) is settled
    by a short fixed-point iteration seeded with the asymptotic work cost.
    One m covers every (Gibbs type, target type) pair in the typical
    windows (worst case over both).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    r_lim = rate_limit(p, beta)
    q = gibbs_weight(beta)
    free_target = abs(p - q) < 1e-12
    t_window = typical_range(n, p, width)

    if free_target:
        # Forming Gibbs states is free: take ell = n thermal copies as-is.
        ell, m, iterations = n, 0, 0
        g_window = t_window
        worst = (t_window[0], t_window[0])
        failure_mass = binomial_outside_mass(n, p, t_window)
    else:
        m_prev = max(1, math.ceil(n * r_lim))
        for iterations in range(1, 25):
            ell = math.ceil(m_prev ** 1.5)
            g_window = typical_range(ell, q, width)
            try:
                m, worst = _formation_m(n, ell, g_window, t_window)
            except InfeasibleFormationError:
                # Bath too small for the windows (some pair needs e > k at
                # every m); grow it and retry.
                m_prev = max(m_prev + 1, math.ceil(m_prev * 1.3))
                continue
            if m <= m_prev or abs(m - m_prev) <= max(1, m_prev // 1000):
                break
            m_prev = m
        else:
            raise InfeasibleFormationError("formation fixed point did not settle")
        bath_out = binomial_outside_mass(ell, q, g_window)
        target_out = binomial_outside_mass(n, p, t_window)
        failure_mass = bath_out + target_out - bath_out * target_out

    return FormationPlan(
        n=n, ell=ell, m=m, k=m + ell - n, p=p, beta=beta, width=width,
        register_bits=max(0, g_window[1] - g_window[0]).bit_length(),
        birkhoff=target_birkhoff(n, p, q, t_window, birkhoff_tolerance),
        cost_rate=n / m if m else math.inf,
        work_per_copy=m / n,
        failure_mass=failure_mass,
        worst_type=next(_formation_records(n, ell, m, (worst[0], worst[0]),
                                           (worst[1], worst[1]))),
        free_target=free_target,
        gibbs_window=g_window,
        target_window=t_window,
        fixed_point_iterations=iterations,
    )


def target_birkhoff(n: int, p: float, q: float, t_window: tuple[int, int],
                    tolerance: float) -> BirkhoffPartition:
    """The type-distribution stage of a formation plan: the Gibbs-type
    Birkhoff partition over the smallest bath ell with max(q, 1-q)^ell <=
    tolerance, whose targets are the binomial masses of the target window's
    one-counts, renormalised as :func:`type_distribution` does."""
    top = max(q, 1.0 - q)
    if top >= 1.0:
        raise ValueError("degenerate Gibbs weight")
    logs = binomial_log_pmf(n, float(p), np.arange(t_window[0], t_window[1] + 1))
    masses = np.exp(logs - logs.max())
    return gibbs_type_birkhoff(max(1, math.ceil(math.log(tolerance) / math.log(top))), q,
                               (masses / masses.sum()).tolist(), tolerance)

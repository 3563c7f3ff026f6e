"""Finite-size formation plans for two-level quasiclassical states.

Formation runs in three stages: a fixed-type stage mapping one Gibbs type
onto one target type, a conditional stage extending this to all typical
Gibbs types through a log-sized register, and a type-distribution stage
that reproduces the target's mixture over types with the Birkhoff
primitive (probabilistic energy-commuting unitaries conditioned on extra
Gibbs strings), filled in log space one Gibbs type class at a time, so it
serves every beta up to about 707.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import gibbs_weight
from .counting import (
    LOG_RESOLUTION,
    binomial_log_pmf,
    binomial_outside_mass,
    certify,
    identities,
    log_comb,
    margin_bound,
    products_leq,
    search,
)
from .distill import rate_limit
from .typeclass import typical_range

__all__ = [
    "BIRKHOFF_TOLERANCE",
    "InfeasibleFormationError",
    "FormationRecord",
    "FormationPlan",
    "BirkhoffSpan",
    "BirkhoffPartition",
    "formation_feasible",
    "formation_record",
    "plan_formation",
    "birkhoff_partition",
    "gibbs_type_birkhoff",
    "target_birkhoff",
]


# Largest deviation of the type-distribution stage's weights from the target's.
BIRKHOFF_TOLERANCE = 1e-3


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


class BirkhoffSpan(NamedTuple):
    """A contiguous run of lexicographic ranks inside one Gibbs type class."""

    ones: int
    start: int
    count: int


# One class's share of a Birkhoff fill: its ones-count, the shift e of its
# units of 2^e strings, its multiplicity, and the bins taking its strings in
# allocation order with the units each takes.
Allocation = tuple[int, int, int, tuple[int, ...], tuple[float, ...]]


@dataclass(frozen=True)
class BirkhoffPartition:
    """Partition of a Gibbs eigenstring index space realizing target weights.

    ``sets[k]`` collects the strings whose conditional unitary is U_k; the
    greedy largest-first construction keeps ``max_deviation`` at or below
    the largest single string weight.  Grouped spans index the type-major
    lexicographic layout (all weight-0 strings first, then weight-1, ...);
    an ungrouped partition stores the original string index in ``ones``.
    Set ``rest`` (or None) also holds every string of the classes no span
    lists, up to 2^ell of them.  The fill keeps only its ``allocations``,
    one per class in fill order; ``sets`` is derived from them on its
    first read, since no plan stage reads the spans.  Equality compares
    the allocations, so equal partitions have equal spans.
    """

    ell: int
    target_weights: tuple[float, ...]
    achieved_weights: tuple[float, ...]
    max_deviation: float
    tolerance: float
    within_tolerance: bool
    allocations: tuple[Allocation, ...] = field(repr=False)
    grouped: bool = True
    rest: int | None = None

    @cached_property
    def sets(self) -> tuple[tuple[BirkhoffSpan, ...], ...]:
        """Each bin's spans in (class, offset) order.  A class's strings are
        handed out in allocation order, so an allocation's span starts where
        the previous one ended; a bin taking two allocations in a row takes
        one span.  Offsets are exact Python ints, past 2^63 for long baths."""
        columns = []
        for ones, shift, mult, takers, units in self.allocations:
            takers, units = np.array(takers, dtype=np.int64), np.array(units)
            first = np.flatnonzero(np.concatenate(([True], takers[1:] != takers[:-1])))
            starts = (np.cumsum(units) - units)[first].astype(np.int64).astype(object) << shift
            columns.append((takers[first], np.full(len(first), ones), starts,
                            np.append(starts[1:], mult) - starts))
        bins, ones, starts, counts = map(np.concatenate, zip(*columns))
        order = np.argsort(bins, kind="stable")
        spans = list(map(BirkhoffSpan._make, zip(ones[order].tolist(), starts[order].tolist(),
                                                 counts[order].tolist())))
        edges = np.cumsum(np.bincount(bins, minlength=len(self.target_weights))).tolist()
        return tuple(tuple(spans[a:b]) for a, b in zip([0] + edges, edges))


def _fill(classes: Iterable[tuple[int, float, int]], targets: Sequence[float], ell: int,
          tolerance: float, grouped: bool, stopped: bool = False) -> BirkhoffPartition:
    """Largest-first, most-deficient-bin greedy over weight classes.

    ``classes`` yields (ones, ln w, multiplicity), heaviest w first; each is
    one numpy pass over the target bins.  Bins whose deficit d is at least
    w take floor(d / w) strings, then bins still short take one, most
    deficient first in both rounds, and the most deficient bin the rest.
    Counts run in units of 2^e strings, e the least shift bringing the
    multiplicity below 2^53, so units and offsets are exact floats.  Each
    class leaves its allocation (the bins it fed and their units), from
    which the partition derives its spans when they are read.  With
    ``stopped``, the classes left out go to ``rest``.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    targets = np.array(targets, dtype=float)
    achieved = np.zeros_like(targets)
    heaviest, allocations = -math.inf, []
    for t, log_w, mult in classes:
        heaviest, shift = max(heaviest, log_w), max(0, mult.bit_length() - 53)
        log_unit, left = log_w + shift * math.log(2), mult / 2 ** shift
        deficit = targets - achieved
        order = np.argsort(-deficit, kind="stable")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            quota = np.floor(np.exp(np.log(deficit[order]) - log_unit))
        quota[~(quota >= 1.0)] = 0.0            # d < w, or d <= 0 (log nan or -inf)
        units = np.minimum(quota, np.maximum(
            left - np.concatenate(([0.0], np.cumsum(quota)[:-1])), 0.0))
        left -= units.sum()
        if left > 0:
            deficit[order] -= units * math.exp(log_unit)
            short = np.argsort(-deficit, kind="stable")[:np.count_nonzero(deficit > 0)]
            tops = np.minimum(1.0, np.maximum(left - np.arange(len(short)), 0.0))
            deficit[short] -= tops * math.exp(log_unit)
            order = np.concatenate((order, short, [np.argmax(deficit)]))
            units = np.concatenate((units, tops, [max(0.0, left - len(short))]))
        takers, units = order[units > 0], units[units > 0]
        achieved += np.bincount(takers, units * math.exp(log_unit), len(targets))
        allocations.append((t, shift, mult, tuple(takers.tolist()), tuple(units.tolist())))

    deviation = float(np.max(np.abs(achieved - targets)))
    return BirkhoffPartition(
        ell=ell, target_weights=tuple(targets.tolist()),
        achieved_weights=tuple(achieved.tolist()), max_deviation=deviation, tolerance=tolerance,
        within_tolerance=bool(max(deviation, math.exp(heaviest)) <= tolerance + 1e-12),
        grouped=grouped, rest=int(np.argmax(targets - achieved)) if stopped else None,
        allocations=tuple(allocations))


def birkhoff_partition(weights: Sequence[float], targets: Sequence[float],
                       tolerance: float) -> BirkhoffPartition:
    """Partition explicit string weights into sets approximating the targets.

    Guaranteed deviation <= tolerance whenever the largest single weight is
    <= tolerance; otherwise the result carries the best greedy deviation
    with ``within_tolerance`` cleared.
    """
    if max(abs(math.fsum(map(float, xs)) - 1.0) for xs in (weights, targets)) > 1e-9:
        raise ValueError("weights and targets must each sum to 1")
    # Each string is its own class; the ones-slot stores the string index
    # so explicit indices can be recovered from the spans.
    log_w = [math.log(w) if w > 0 else -math.inf for w in map(float, weights)]
    classes = sorted(((i, w, 1) for i, w in enumerate(log_w)), key=lambda c: -c[1])
    return _fill(classes, targets, len(log_w), tolerance, grouped=False)


def gibbs_type_birkhoff(ell: int, q: float, targets: Sequence[float],
                        tolerance: float) -> BirkhoffPartition:
    """Birkhoff partition over the 2^ell Gibbs eigenstrings, grouped by type.

    With u = min(q, 1 - q), the class of s u-letters holds C(ell, s) strings
    of weight u^s (1-u)^(ell-s), heaviest at s = 0, and Binomial(ell, u)
    mass; weights and masses stay in logs.  The fill visits s = 0, 1, ...
    up to the first class past the mode whose log-concave tail bound pmf
    r / (1 - r), r the next step ratio, is below the float resolution of
    the weight sums; every later string goes to the ``rest`` set.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"degenerate Gibbs weight q = {q!r}")
    u, size, stop = min(q, 1.0 - q), 16, []
    while not len(stop):
        size *= 4
        s = np.arange(min(ell, size) + 1)
        ratio = u / (1.0 - u) * (float(ell) - s) / (s + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = binomial_log_pmf(ell, u, s) + np.log(ratio / (1.0 - ratio))
        stop = np.flatnonzero((ratio < 1.0) & (tail <= LOG_RESOLUTION))
    s = s[:stop[0] + 1]
    log_w = (s * math.log(u) + (float(ell) - s) * math.log1p(-u)).tolist()
    classes = ((t if q <= 0.5 else ell - t, log_w[t], math.comb(ell, t)) for t in range(len(s)))
    return _fill(classes, targets, ell, tolerance, grouped=True, stopped=len(s) <= ell)


@dataclass(frozen=True)
class FormationPlan:
    """Complete finite-n formation protocol record.

    ``m`` excited-state inputs and ``ell`` Gibbs states produce ``n`` target
    copies plus a ``k``-system exhaust; one m serves every (Gibbs type,
    target type) pair in the windows.  ``cost_rate`` is the number of
    copies formed per consumed excited qubit (approaching the inverse
    distillation rate); ``work_per_copy`` is its reciprocal m/n.
    ``worst_type`` is the certified record of the binding pair (for a free
    target, whose identity pairs (t, t) all hold with equality, the first
    one).
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

    # Per-type records are not kept; perfbench/tracer.py still reads this
    # schema-1 name.
    per_type_maps = ()


def _pair_identities(n: int, ell: int, m: int, gs, ts) -> np.ndarray:
    """Pairs whose inequality C(ell, g) <= C(k, e) C(n, t) is an identity:
    one factor on the right is 1 and the other is C(ell, g) (at m = n, pairs
    (g, n); for a free target, (t, t) at m = 0)."""
    k, es = m + ell - n, gs + m - ts
    return (identities(ell, k, gs, es, (ts == 0) | (ts == n))
            | identities(ell, n, gs, ts, (es == 0) | (es == k)))


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
    :func:`.counting.margin_bound`: a margin >= delta proves the maximiser's
    pair, and so its whole diagonal, and one <= -delta refutes the pair at
    ``top_g``.  The build costs O(|G| + |T|); c_j + 1 joins the candidates
    so that a rounding-level near-tie resolves as a scan of the diagonal
    would.
    """

    def __init__(self, n: int, ell: int, g_window: tuple[int, int], t_window: tuple[int, int]):
        self.n, self.ell, self.g_window, self.t_window = n, ell, g_window, t_window
        (g_lo, g_hi), (t_lo, t_hi) = g_window, t_window
        self.log_g = log_comb(ell, np.arange(g_lo, g_hi + 1))
        self.log_t = log_comb(n, np.arange(t_lo, t_hi + 1))
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
        return log_comb(m + self.ell - self.n, self.js + m) - self.top

    def pair(self, i: int) -> tuple[int, int]:
        """The binding pair of diagonal i."""
        return int(self.top_g[i]), int(self.top_g[i] - self.js[i])

    def violation(self, m: int) -> tuple[tuple[int, int] | None, float]:
        """(A pair proven infeasible at m or None, the least diagonal margin)."""
        k = m + self.ell - self.n
        log_e = log_comb(k, self.js + m)
        margins = log_e - self.top
        delta = margin_bound(self.ell + max(self.n, m))
        worst = int(np.argmin(margins))
        least = float(margins[worst])
        if least <= -delta:
            return self.pair(worst), least
        near = np.flatnonzero(margins < delta)
        if not len(near):
            return None, least
        # Every pair of the diagonals their top pair leaves open, diagonal
        # after diagonal.
        sizes = self.hi[near] - self.lo[near] + 1
        ends = np.cumsum(sizes)
        starts = ends - sizes
        gs = np.arange(ends[-1]) + np.repeat(self.lo[near] - starts, sizes)
        ts = gs - np.repeat(self.js[near], sizes)
        pair_margins = np.repeat(log_e[near], sizes) - (self.log_g[gs - self.g_window[0]]
                                                       - self.log_t[ts - self.t_window[0]])
        pair_margins[_pair_identities(self.n, self.ell, m, gs, ts)] = np.inf
        x = certify(pair_margins, delta, lambda x: products_leq(
            [(self.ell, int(gs[x]))], [(k, int(gs[x] + m - ts[x])), (self.n, int(ts[x]))]))
        return (None if x is None else (int(gs[x]), int(ts[x]))), least


def _formation_m(n: int, ell: int, g_window: tuple[int, int],
                 t_window: tuple[int, int]) -> tuple[int, tuple[int, int]]:
    """Smallest m feasible for every (Gibbs type, target type) pair of the
    windows, and its binding pair: one proven infeasible at m - 1, or, when
    m is the least m with a valid exhaust, the pair of smallest margin.
    :func:`.counting.search` finds m from the least diagonal margins; its
    probes are kept, so those at m = ell + n and m - 1 run once."""
    pairs = _Pairs(n, ell, g_window, t_window)
    violation = cache(pairs.violation)
    lo, hi = max(0, n - ell, t_window[1] - g_window[0]), ell + n
    if violation(hi)[0] is not None:
        raise InfeasibleFormationError("window infeasible at m = ell + n")
    m = search(lambda m: ((v := violation(m))[0] is None, v[1]), lo, hi, largest=False)
    return m, violation(m - 1)[0] if m > lo else pairs.pair(int(np.argmin(pairs.margins(m))))


def formation_record(n: int, ell: int, m: int, gibbs_ones: int,
                     target_ones: int) -> FormationRecord:
    """The certified record of one (Gibbs type, target type) pair at m; a
    record whose margin is not certified raises ValueError."""
    g, t, k = gibbs_ones, target_ones, m + ell - n
    ts = np.array([t])
    log_g = float(log_comb(ell, np.array([g]))[0])
    log_out = log_comb(k, g + m - ts) + log_comb(n, ts)
    margins = log_out - log_g
    margins[_pair_identities(n, ell, m, g, ts)] = np.inf
    if certify(margins, margin_bound(ell + max(n, m)), lambda i: products_leq(
            [(ell, g)], [(k, g + m - t), (n, t)])) is not None:
        raise ValueError("formation record violates the counting inequality")
    return FormationRecord(g, t, g + m - t, m, log_g, float(log_out[0]))


def plan_formation(n: int, p: float, beta: float, width: float = 3.0) -> FormationPlan:
    """Construct a formation plan with ell = ceil(m^(3/2)) Gibbs copies.

    The bath size depends on the solved m, so the pair (ell, m) is settled
    by a short fixed-point iteration seeded with the asymptotic work cost.
    One m covers every (Gibbs type, target type) pair in the typical
    windows (worst case over both).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
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
        # Near the Gibbs weight m_prev starts far below the m the windows
        # need, and the bath-too-small branch takes O(log n) steps to reach it.
        for iterations in range(1, 25 + n.bit_length()):
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
        birkhoff=target_birkhoff(n, p, q, t_window),
        cost_rate=n / m if m else math.inf,
        work_per_copy=m / n,
        failure_mass=failure_mass,
        worst_type=formation_record(n, ell, m, *worst),
        free_target=free_target,
        gibbs_window=g_window,
        target_window=t_window,
        fixed_point_iterations=iterations,
    )


def target_birkhoff(n: int, p: float, q: float, t_window: tuple[int, int]) -> BirkhoffPartition:
    """The type-distribution stage of a formation plan: the Gibbs-type
    Birkhoff partition over the smallest bath ell with max(q, 1-q)^ell <=
    BIRKHOFF_TOLERANCE (through log1p, so only beta above about 707 leaves
    no finite ell), targeting the renormalised binomial masses of the target window."""
    u = min(q, 1.0 - q)
    size = math.log(BIRKHOFF_TOLERANCE) / math.log1p(-u) if u > 0.0 else math.inf
    if not math.isfinite(size):
        raise ValueError(f"degenerate Gibbs weight q = {q!r}: no finite Birkhoff bath")
    logs = binomial_log_pmf(n, float(p), np.arange(t_window[0], t_window[1] + 1))
    masses = np.exp(logs - logs.max())
    return gibbs_type_birkhoff(max(1, math.ceil(size)), q, (masses / masses.sum()).tolist(),
                               BIRKHOFF_TOLERANCE)

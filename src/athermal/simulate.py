"""Ground-truth engines: brute-force oracles and exact plan execution.

Everything here is deliberately independent of the solver algebra: the
feasibility oracle builds injections over explicitly enumerated strings
(or counts them with a Pascal triangle).  Plan execution builds index
arrays from one set of rank tables: a distillation plan's shell-preserving
permutation of all 2^(ell+n) strings, applied to a dense input vector of
integer numerators over one common denominator, and a formation plan's
images of every covered string for every target type at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping

import numpy as np

from .distill import DistillationPlan
from .form import FormationPlan, formation_feasible

__all__ = [
    "StringDistribution",
    "ExhaustReport",
    "ExecutionReport",
    "ChannelReport",
    "WorkBalanceError",
    "UnsupportedSizeError",
    "INPUT_MAX_QUBITS",
    "oracle_max_m",
    "thermal_input_distribution",
    "formation_input_distribution",
    "execute_plan_classical",
    "execute_plan_quantum",
    "exhaust_analysis",
    "work_balance_audit",
]

Bits = tuple[int, ...]
INPUT_MAX_QUBITS = 20


class UnsupportedSizeError(ValueError):
    """The requested instance exceeds the brute-force size caps."""


class WorkBalanceError(AssertionError):
    """Energy bookkeeping failed on some trajectory; indicates a bug."""


def _popcounts(length: int) -> np.ndarray:
    """Weight of every string of the given length, indexed by its value."""
    return np.bitwise_count(np.arange(2 ** length)).astype(np.int64)


def _strings(values: np.ndarray, length: int) -> list[Bits]:
    """The strings spelled by ``values`` in binary, most significant bit first."""
    return list(map(tuple, ((values[:, None] >> np.arange(length - 1, -1, -1)) & 1).tolist()))


class StringDistribution:
    """Exact distribution over occupation strings of one length, held densely.

    ``weights[x] / denominator`` is the mass of the string that spells x in
    binary, most significant bit first: Python-int numerators (an object
    array) over one int denominator.  ``probs`` maps each string of nonzero
    mass to its mass as a Fraction.
    """

    def __init__(self, length: int, probs: Mapping[Bits, Fraction | float] | None = None, *,
                 weights: np.ndarray | None = None, denominator: int = 1):
        if probs is not None:
            if length > 24:
                raise UnsupportedSizeError("string distributions capped at 24 qubits")
            probs = {string: Fraction(mass) for string, mass in probs.items()}
            denominator = math.lcm(*(mass.denominator for mass in probs.values()))
            weights = np.zeros(2 ** length, dtype=object)
            for string, mass in probs.items():
                if len(string) != length:
                    raise ValueError("support string of wrong length")
                weights[int("".join(map(str, string)) or "0", 2)] += int(mass * denominator)
        if weights.shape != (2 ** length,):
            raise ValueError("weight vector does not match the string length")
        if weights.sum() != denominator:
            raise ValueError("probabilities must sum to exactly 1 (floats are taken as "
                             "the exact binary fractions they are)")
        self.length, self.weights, self.denominator = length, weights, denominator

    # Every distribution is exact; kept as a constant because
    # perfbench/workloads.py still reads it.
    is_rational = True

    def _mass(self, weight) -> Fraction:
        return Fraction(weight, self.denominator)

    @cached_property
    def probs(self) -> dict[Bits, Fraction]:
        return self.marginal(range(self.length))

    def marginal_weights(self, positions: Iterable[int]) -> np.ndarray:
        """Weights summed over every position not in ``positions``, indexed
        by the value of the kept bits in the given order."""
        positions = list(positions)
        drop = [i for i in range(self.length) if i not in positions]
        tensor = self.weights.reshape((2,) * self.length).sum(axis=tuple(drop), keepdims=True)
        return tensor.transpose(positions + drop).reshape(-1)

    def marginal(self, positions: Iterable[int]) -> dict[Bits, Fraction]:
        positions = list(positions)
        weights = self.marginal_weights(positions)
        support = np.flatnonzero(weights)
        masses = weights[support].tolist()
        # One Fraction (and one gcd) per distinct weight, not per string.
        shared = {w: self._mass(w) for w in set(masses)}
        return dict(zip(_strings(support, len(positions)), map(shared.__getitem__, masses)))


@lru_cache(maxsize=None)
def _pascal_row(n: int) -> tuple[int, ...]:
    if n == 0:
        return (1,)
    prev = _pascal_row(n - 1)
    return (1,) + tuple(prev[i] + prev[i + 1] for i in range(n - 1)) + (1,)


def _pascal_binomial(n: int, k: int) -> int:
    """C(n, k) via additive Pascal recursion (independent of math.comb)."""
    if k < 0 or k > n:
        return 0
    return _pascal_row(n)[k]


@lru_cache(maxsize=None)
def _fixed_weight_codes(length: int, weight: int) -> np.ndarray:
    """Values of all strings with the given weight, ascending (lexicographic)."""
    return np.flatnonzero(_popcounts(length) == weight)


def oracle_max_m(ell: int, gibbs_ones: int, n: int, resource_ones: int) -> int:
    """Largest m admitting an explicit injection, by direct construction.

    For ell + n <= 14 the injection is built over enumerated strings, as
    their values, and its injectivity and energy conservation verified; up
    to 24 the string sets are counted with a Pascal triangle.  Must agree
    with solve_single_type everywhere.
    """
    if ell + n > 24:
        raise UnsupportedSizeError("oracle supports ell + n <= 24")
    if not 0 <= gibbs_ones <= ell or not 0 <= resource_ones <= n:
        raise ValueError("one-counts out of range")
    enumerate_strings = ell + n <= 14
    total_ones = gibbs_ones + resource_ones

    if enumerate_strings:
        inputs = ((_fixed_weight_codes(ell, gibbs_ones)[:, None] << n)
                  | _fixed_weight_codes(n, resource_ones)[None, :]).ravel()
    else:
        input_count = (_pascal_binomial(ell, gibbs_ones)
                       * _pascal_binomial(n, resource_ones))

    for m in range(total_ones, -1, -1):
        k = ell + n - m
        e = total_ones - m
        if enumerate_strings:
            codes = _fixed_weight_codes(k, e)
            if len(inputs) <= len(codes):
                outputs = (codes[:len(inputs)] << m) | (2 ** m - 1)
                assert (outputs[1:] > outputs[:-1]).all()
                assert (np.bitwise_count(inputs) == np.bitwise_count(outputs)).all()
                return m
        elif input_count <= _pascal_binomial(k, e):
            return m
    return 0


def _bernoulli_weights(x: Fraction | float, length: int) -> tuple[np.ndarray, int]:
    """x^w (1-x)^(length-w) for w = 0..length over a common denominator: for
    x = a/b the integers a^w (b-a)^(length-w) over b^length."""
    exact = isinstance(x, Fraction)
    a, b = (x.numerator, x.denominator) if exact else (x, 1)
    return (np.array([a ** w * (b - a) ** (length - w) for w in range(length + 1)],
                     dtype=object if exact else float), b ** length)


def thermal_input_distribution(plan: DistillationPlan) -> StringDistribution:
    """gamma^(ell) (x) rho^(n) as an explicit string distribution.

    The float weights are taken as the exact dyadic rationals q = a/A and
    p = b/B they are: every string's mass is an integer numerator over
    A^ell B^n, and the numerator depends only on the type.
    """
    total = plan.ell + plan.n
    if total > INPUT_MAX_QUBITS:
        raise UnsupportedSizeError(f"full enumeration capped at {INPUT_MAX_QUBITS} qubits")
    bath, bath_den = _bernoulli_weights(Fraction(plan.q), plan.ell)
    resource, resource_den = _bernoulli_weights(Fraction(plan.p), plan.n)
    weights = np.multiply.outer(bath, resource)[_popcounts(plan.ell)[:, None], _popcounts(plan.n)]
    return StringDistribution(total, weights=weights.reshape(-1),
                              denominator=bath_den * resource_den)


def formation_input_distribution(plan: FormationPlan) -> StringDistribution:
    """gamma^(ell) (x) |1><1|^(m) as an explicit string distribution."""
    total = plan.ell + plan.m
    if total > INPUT_MAX_QUBITS:
        raise UnsupportedSizeError(f"full enumeration capped at {INPUT_MAX_QUBITS} qubits")
    bath, den = _bernoulli_weights(Fraction(plan.q), plan.ell)
    weights = np.zeros(2 ** total, dtype=object)
    weights[(np.arange(2 ** plan.ell) << plan.m) | ((1 << plan.m) - 1)] = \
        bath[_popcounts(plan.ell)]
    return StringDistribution(total, weights=weights, denominator=den)


@dataclass(frozen=True, eq=False)
class ExecutionReport:
    """Classical execution record: output distribution, work marginal, and
    the moves actually made, as the values of the input strings of nonzero
    mass and of their images."""

    output: StringDistribution
    work_marginal: dict[Bits, Fraction]
    routed_failure_mass: Fraction
    kind: str
    moves: tuple[np.ndarray, np.ndarray]

    @cached_property
    def trajectories(self) -> tuple[tuple[Bits, Bits], ...]:
        """The moves as (input string, output string) pairs."""
        return tuple(zip(*(_strings(values, self.output.length) for values in self.moves)))


def execute_plan_classical(plan: DistillationPlan | FormationPlan,
                           input_dist: StringDistribution) -> ExecutionReport:
    """Apply the plan's per-type injections to an explicit distribution.

    Mass on types the plan does not cover is routed unchanged to a failure
    branch and reported.  Every mass is exact: distillation permutes
    probabilities, and formation mixes them with the plan's achieved
    Birkhoff weights, taken as the exact dyadic rationals they are.
    """
    if isinstance(plan, DistillationPlan):
        return _execute_distillation(plan, input_dist)
    return _execute_formation(plan, input_dist)


def _lex_order(length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lexicographic rank and unrank tables of the strings of one length.

    Within a weight, lexicographic order is increasing value, so a stable
    sort by weight lists the weight classes in turn: ``order[start[w] + j]``
    is the string of weight w and rank j, and ``rank[x]`` the rank of x.
    """
    pop = _popcounts(length)
    order = np.argsort(pop, kind="stable")
    start = np.concatenate(([0], np.cumsum(np.bincount(pop, minlength=length + 1))))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) - start[pop[order]]
    return order, start, rank


def _plan_permutation(plan: DistillationPlan) -> tuple[np.ndarray, np.ndarray]:
    """The plan's shell-preserving permutation: string x goes to perm[x].

    Within a total-1s shell s = g + r the covered types are laid out in
    ascending g: a string of covered type (g, r) goes to the exhaust string
    of weight s - m and rank offset + rank(bath) C(n, r) + rank(resource),
    followed by m ones, where offset counts the shell's covered strings of
    smaller g.  A type whose ranks reach C(k, s - m) has no feasible
    injection.  Each shell's uncovered strings go, in increasing order, to
    its free strings, also in increasing order.  Returns perm and the mask
    of covered strings.
    """
    if plan.coherent:
        raise ValueError("string maps apply to quasiclassical plans only")
    ell, n, m = plan.ell, plan.n, plan.m
    (g_lo, g_hi), (r_lo, r_hi) = plan.gibbs_window, plan.resource_window
    x = np.arange(2 ** (ell + n))
    bath, resource = x >> n, x & ((1 << n) - 1)
    g, r = _popcounts(ell)[bath], _popcounts(n)[resource]
    covered = (g_lo <= g) & (g <= g_hi) & (r_lo <= r) & (r <= r_hi)
    src = np.flatnonzero(covered)
    g, r, e = g[src], r[src], g[src] + r[src] - m
    # Sorted by (shell, g), a string's type starts at the number of covered
    # strings of smaller key, and its shell at the number of smaller shells.
    key = (g + r) * (ell + 1) + g
    ordered = np.sort(key)
    binomial_n = np.array([math.comb(n, j) for j in range(n + 1)])
    index = (np.searchsorted(ordered, key) - np.searchsorted(ordered, key - g)
             + _lex_order(ell)[2][bath[src]] * binomial_n[r] + _lex_order(n)[2][resource[src]])
    order, start, _ = _lex_order(plan.k)
    bad = np.flatnonzero((e < 0) | (index >= np.diff(start)[np.maximum(e, 0)]))
    if bad.size:
        raise ValueError(f"composite type {(int(g[bad[0]]), int(r[bad[0]]))} "
                         "has no feasible injection")
    perm = np.empty_like(x)
    perm[src] = (order[start[e] + index] << m) | ((1 << m) - 1)

    free = np.ones(x.size, dtype=bool)
    free[perm[src]] = False
    leftover, free = x[~covered], np.flatnonzero(free)
    assert leftover.size == free.size, "plan permutation is not a bijection"
    weight = _popcounts(ell + n)
    perm[leftover[np.argsort(weight[leftover], kind="stable")]] = \
        free[np.argsort(weight[free], kind="stable")]
    return perm, covered


def _execute_distillation(plan: DistillationPlan,
                          input_dist: StringDistribution) -> ExecutionReport:
    if input_dist.length != plan.ell + plan.n:
        raise ValueError("input length does not match the plan")
    perm, covered = _plan_permutation(plan)
    weights = input_dist.weights
    out = np.zeros_like(weights)
    out[perm] = weights
    output = StringDistribution(input_dist.length, weights=out,
                                denominator=input_dist.denominator)
    work = output.marginal(range(plan.k, input_dist.length))
    routed = input_dist._mass(weights[~covered].sum())
    support = np.flatnonzero(weights)
    return ExecutionReport(output, work, routed, "distillation", (support, perm[support]))


def _execute_formation(plan: FormationPlan,
                       input_dist: StringDistribution) -> ExecutionReport:
    """Round robin over the whole (string x target) grid: a covered string
    of bath rank i goes, for each target type t, to target rank i mod
    C(n, t) and exhaust rank i div C(n, t) with its mass times t's achieved
    Birkhoff weight; every other string stays put.  The output is
    renormalised by its exact total, which differs from 1 as the achieved
    weights' sum does.  A free target covers only the identity pairs, so a
    covered string of Gibbs type g takes t = g with share 1 and is its own
    image: the output is the input."""
    ell, n, m, k, length = plan.ell, plan.n, plan.m, plan.k, input_dist.length
    if length != ell + m:
        raise ValueError("input length does not match the plan")
    (g_lo, g_hi), (t_lo, t_hi) = plan.gibbs_window, plan.target_window
    mix = [Fraction(w) for w in plan.birkhoff.achieved_weights]
    if len(mix) != t_hi - t_lo + 1:
        raise ValueError("birkhoff partition does not match the target window")
    for g in range(g_lo, g_hi + 1):
        for t in (g,) if plan.free_target else range(t_lo, t_hi + 1):
            if not formation_feasible(n, t, ell, g, m):
                raise ValueError(f"pair {(g, t)} has no feasible injection")

    weights = input_dist.weights
    x = np.flatnonzero(weights)
    g = _popcounts(ell)[x >> m]
    covered = ((x & ((1 << m) - 1)) == (1 << m) - 1) & (g_lo <= g) & (g <= g_hi)
    t, mix = ((g[covered, None], [Fraction(1)]) if plan.free_target
              else (np.arange(t_lo, t_hi + 1), mix))
    binomial_n = np.array([math.comb(n, j) for j in range(n + 1)])[t]
    i = _lex_order(ell)[2][x[covered, None] >> m]
    (order_n, start_n, _), (order_k, start_k, _) = _lex_order(n), _lex_order(k)
    images = ((order_n[start_n[t] + i % binomial_n] << k)
              | order_k[start_k[g[covered, None] + m - t] + i // binomial_n])
    assert np.unique(images).size == images.size, "formation images collide"

    # One row per string of nonzero mass, one column per target type; an
    # uncovered string keeps its whole mass in the first column.  Shares
    # are integers over the weights' common denominator ``scale``.
    dst = np.repeat(x[:, None], len(mix), axis=1)
    dst[covered] = images
    scale = math.lcm(*(w.denominator for w in mix))
    share = np.zeros(dst.shape, dtype=object)
    share[covered], share[~covered, 0] = [int(w * scale) for w in mix], scale
    moved = weights[x, None] * share
    keep = moved != 0
    src, dst = (np.broadcast_to(a, dst.shape)[keep] for a in (x[:, None], dst))
    out = np.zeros(2 ** length, dtype=object)
    np.add.at(out, dst, moved[keep])
    output = StringDistribution(length, weights=out, denominator=moved.sum())
    routed = input_dist._mass(weights[x[~covered]].sum())
    return ExecutionReport(output, output.marginal(range(n)), routed, "formation", (src, dst))


@dataclass(frozen=True)
class ChannelReport:
    """Exact quantum execution of a distillation plan."""

    total_qubits: int
    commutator_nonzeros: int
    trace_preserved: bool
    work_trace_distance: float
    permutation: tuple[int, ...]


def execute_plan_quantum(plan: DistillationPlan, max_qubits: int = 14) -> ChannelReport:
    """Build the explicit permutation unitary of a plan and verify legality.

    The permutation is the classical executor's, so it commutes with H_tot
    exactly (integer weights).  The channel is applied to
    gamma^(ell) (x) rho^(n) and the work register compared with |1><1|^(m).
    """
    total = plan.ell + plan.n
    if total > max_qubits:
        raise UnsupportedSizeError(f"quantum execution capped at {max_qubits} qubits")
    perm, _ = _plan_permutation(plan)

    # Exact commutator check: V e_x = e_perm(x), H diagonal by weight.
    weights = _popcounts(total)
    commutator_nonzeros = int(np.count_nonzero(weights[perm] - weights))

    bath = _bernoulli_weights(plan.q, plan.ell)[0][_popcounts(plan.ell)]
    resource = _bernoulli_weights(plan.p, plan.n)[0][_popcounts(plan.n)]
    probs = np.multiply.outer(bath, resource).reshape(-1)
    out = np.zeros_like(probs)
    out[perm] = probs
    trace_preserved = bool(abs(out.sum() - probs.sum()) < 1e-12)

    # Work register marginal (the last m qubits) against |1><1|^(m).
    marg = out.reshape(2 ** plan.k, 2 ** plan.m).sum(axis=0)
    marg[-1] -= 1.0
    work_distance = 0.5 * float(np.abs(marg).sum())

    return ChannelReport(
        total_qubits=total,
        commutator_nonzeros=commutator_nonzeros,
        trace_preserved=trace_preserved,
        work_trace_distance=work_distance,
        permutation=tuple(perm.tolist()),
    )


@dataclass(frozen=True)
class ExhaustReport:
    """Structure of the traced-out exhaust state by L-system blocks."""

    block_size: int
    num_blocks: int
    rel_entropies: tuple[float, ...]
    pinsker_bounds: tuple[float, ...]
    measured_trace_distances: tuple[float, ...]
    total_rel_entropy: float
    subadditivity_holds: bool
    per_system_rel_entropy: float


def _is_gibbs(weights: np.ndarray, denominator: int, q: Fraction) -> bool:
    """Whether exact weights over L-bit strings, over ``denominator``, are
    gamma^(L) at q = a/b: weight(x) b^L = a^w (b-a)^(L-w) denominator for
    every x, in integers.  The all-zero string settles most other cases."""
    length = weights.size.bit_length() - 1
    gibbs, scale = _bernoulli_weights(q, length)
    return (weights[0] * scale == gibbs[0] * denominator
            and bool((weights * scale == gibbs[_popcounts(length)] * denominator).all()))


def _classical_rel_entropy(p: np.ndarray, q: float) -> float:
    """D(p || gamma^(L)) for a dense distribution p over L-bit strings:
    the sum of p (ln p - w ln q - (L - w) ln(1 - q)), w the string weight."""
    length = p.size.bit_length() - 1
    w = _popcounts(length)[p > 0]
    p = p[p > 0]
    total = np.sum(p * (np.log(p) - w * math.log(q) - (length - w) * math.log(1 - q)))
    return max(float(total), 0.0)


def exhaust_analysis(plan: DistillationPlan, block_size: int = 1) -> ExhaustReport:
    """Exact exhaust reductions and their distance to the Gibbs state.

    Computes D(pi_block || gamma^(L)) for disjoint L-blocks of the exhaust,
    the Pinsker bounds sqrt(2 D), the measured trace distances, and the
    subadditivity chain sum_blocks D <= D(pi_k || gamma^(k)).  The Gibbs
    reference uses the same exact weight as the executed input so the
    comparison is exact: a reduction whose exact weights are Gibbs (every
    one at p = q) has D = 0 exactly.
    """
    if block_size < 1:
        raise ValueError("block size must be at least 1")
    if not 0 < plan.q < 1:
        raise ValueError(f"degenerate Gibbs weight q = {plan.q!r}: no Gibbs reference")
    output = execute_plan_classical(plan, thermal_input_distribution(plan)).output
    q, q_exact = plan.q, Fraction(plan.q)
    exhaust = StringDistribution(plan.k, weights=output.marginal_weights(range(plan.k)),
                                 denominator=output.denominator)

    def reduction(positions: range) -> tuple[np.ndarray, float]:
        weights = exhaust.marginal_weights(positions)
        vec = np.asarray(weights / exhaust.denominator, dtype=float)
        if _is_gibbs(weights, exhaust.denominator, q_exact):
            return vec, 0.0
        return vec, _classical_rel_entropy(vec, q)

    num_blocks = plan.k // block_size
    rel_ents, pinskers, distances = [], [], []
    for b in range(num_blocks):
        vec, d_block = reduction(range(b * block_size, (b + 1) * block_size))
        gamma_block = _bernoulli_weights(q, block_size)[0][_popcounts(block_size)]
        rel_ents.append(d_block)
        pinskers.append(math.sqrt(2.0 * d_block))
        distances.append(0.5 * float(np.abs(vec - gamma_block).sum()))

    d_total = reduction(range(plan.k))[1]
    return ExhaustReport(
        block_size=block_size,
        num_blocks=num_blocks,
        rel_entropies=tuple(rel_ents),
        pinsker_bounds=tuple(pinskers),
        measured_trace_distances=tuple(distances),
        total_rel_entropy=d_total,
        subadditivity_holds=bool(sum(rel_ents) <= d_total + 1e-9),
        per_system_rel_entropy=d_total / plan.k if plan.k else 0.0,
    )


def work_balance_audit(plan: DistillationPlan | FormationPlan,
                       execution: ExecutionReport) -> dict:
    """Verify exact energy conservation on every recorded move, in one pass
    over the moves' weights.

    Raises WorkBalanceError naming the first imbalanced trajectory.  Returns
    a ledger with the expected work-register surplus over its thermal value
    (<= 0 for Gibbs-only inputs).
    """
    src, dst = execution.moves
    bad = np.flatnonzero(np.bitwise_count(src) != np.bitwise_count(dst))
    if bad.size:
        before, after = _strings(np.array([src[bad[0]], dst[bad[0]]]), execution.output.length)
        raise WorkBalanceError(f"trajectory {before} -> {after} changes the total energy")

    ledger = {"trajectories": src.size, "balanced": True}
    if isinstance(plan, DistillationPlan) and plan.m > 0:
        expected_ones = 0.0
        for bits, mass in execution.work_marginal.items():
            expected_ones += float(mass) * sum(bits)
        thermal = plan.m * plan.q
        ledger["expected_work_surplus"] = expected_ones - thermal
    return ledger

"""Ground-truth engines: brute-force oracles and exact plan execution.

Everything here is deliberately independent of the solver algebra: the
feasibility oracle builds injections over explicitly enumerated strings
(or counts them with a Pascal triangle), and plan execution applies the
recorded per-type maps string by string, in exact rational arithmetic when
requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np
import scipy.sparse as sp

from .core import DensityMatrix
from .distill import DistillationPlan, StringMap, _fixed_weight_strings, build_string_map
from .form import FormationPlan, FormationStringMap, build_formation_string_map

__all__ = [
    "StringDistribution",
    "ExhaustReport",
    "ExecutionReport",
    "ChannelReport",
    "WorkBalanceError",
    "UnsupportedSizeError",
    "oracle_max_m",
    "thermal_input_distribution",
    "formation_input_distribution",
    "execute_plan_classical",
    "execute_plan_quantum",
    "exhaust_analysis",
    "work_balance_audit",
]

Bits = tuple[int, ...]


class UnsupportedSizeError(ValueError):
    """The requested instance exceeds the brute-force size caps."""


class WorkBalanceError(AssertionError):
    """Energy bookkeeping failed on some trajectory; indicates a bug."""


@dataclass(frozen=True)
class StringDistribution:
    """Distribution over occupation strings, exact when built from Fractions."""

    length: int
    probs: Mapping[Bits, Fraction | float]

    def __post_init__(self):
        object.__setattr__(self, "probs", dict(self.probs))
        for string in self.probs:
            if len(string) != self.length:
                raise ValueError("support string of wrong length")
        total = sum(self.probs.values())
        if isinstance(total, Fraction):
            if total != 1:
                raise ValueError("exact probabilities must sum to 1")
        elif abs(float(total) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")

    @property
    def is_rational(self) -> bool:
        return all(isinstance(p, Fraction) for p in self.probs.values())

    def marginal(self, positions: Iterable[int]) -> dict[Bits, Fraction | float]:
        positions = tuple(positions)
        out: dict[Bits, Fraction | float] = {}
        for string, prob in self.probs.items():
            key = tuple(string[i] for i in positions)
            out[key] = out.get(key, 0) + prob
        return out


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


def oracle_max_m(ell: int, gibbs_ones: int, n: int, resource_ones: int) -> int:
    """Largest m admitting an explicit injection, by direct construction.

    For ell + n <= 14 the injection is actually built over enumerated
    strings and its injectivity and energy conservation verified; up to 24
    the string sets are counted with a Pascal triangle.  Must agree with
    solve_single_type everywhere.
    """
    if ell + n > 24:
        raise UnsupportedSizeError("oracle supports ell + n <= 24")
    if not 0 <= gibbs_ones <= ell or not 0 <= resource_ones <= n:
        raise ValueError("one-counts out of range")
    enumerate_strings = ell + n <= 14
    total_ones = gibbs_ones + resource_ones

    if enumerate_strings:
        inputs = [b + r
                  for b in _fixed_weight_strings(ell, gibbs_ones)
                  for r in _fixed_weight_strings(n, resource_ones)]
    else:
        input_count = (_pascal_binomial(ell, gibbs_ones)
                       * _pascal_binomial(n, resource_ones))

    for m in range(total_ones, -1, -1):
        k = ell + n - m
        e = total_ones - m
        if e > k:
            continue
        if enumerate_strings:
            outputs = [s + (1,) * m for s in _fixed_weight_strings(k, e)]
            if len(inputs) <= len(outputs):
                mapping = dict(zip(inputs, outputs))
                assert len(set(mapping.values())) == len(mapping)
                assert all(sum(src) == sum(dst) for src, dst in mapping.items())
                return m
        else:
            if input_count <= _pascal_binomial(k, e):
                return m
    return 0


def _rationalize(x: float, limit: int = 10 ** 9) -> Fraction:
    return Fraction(x).limit_denominator(limit)


def thermal_input_distribution(plan: DistillationPlan, rational: bool = True,
                               max_qubits: int = 20) -> StringDistribution:
    """gamma^(ell) (x) rho^(n) as an explicit string distribution.

    In rational mode the weights q and p are replaced by nearby fractions
    (denominators <= 1e9) so that probabilities add to exactly 1.
    """
    total = plan.ell + plan.n
    if total > max_qubits:
        raise UnsupportedSizeError(f"full enumeration capped at {max_qubits} qubits")
    if rational:
        q, p = _rationalize(plan.q), _rationalize(plan.p)
        one = Fraction(1)
    else:
        q, p = plan.q, plan.p
        one = 1.0
    probs: dict[Bits, Fraction | float] = {}
    for x in range(2 ** total):
        bits = tuple((x >> (total - 1 - i)) & 1 for i in range(total))
        g = sum(bits[: plan.ell])
        r = sum(bits[plan.ell:])
        weight = (q ** g) * ((one - q) ** (plan.ell - g)) \
            * (p ** r) * ((one - p) ** (plan.n - r))
        if weight != 0:
            probs[bits] = weight
    return StringDistribution(total, probs)


def formation_input_distribution(plan: FormationPlan, rational: bool = True,
                                 max_qubits: int = 20) -> StringDistribution:
    """gamma^(ell) (x) |1><1|^(m) as an explicit string distribution."""
    total = plan.ell + plan.m
    if total > max_qubits:
        raise UnsupportedSizeError(f"full enumeration capped at {max_qubits} qubits")
    q = _rationalize(plan.q) if rational else plan.q
    one = Fraction(1) if rational else 1.0
    probs: dict[Bits, Fraction | float] = {}
    for x in range(2 ** plan.ell):
        bits = tuple((x >> (plan.ell - 1 - i)) & 1 for i in range(plan.ell))
        g = sum(bits)
        weight = (q ** g) * ((one - q) ** (plan.ell - g))
        if weight != 0:
            probs[bits + (1,) * plan.m] = weight
    return StringDistribution(total, probs)


@dataclass(frozen=True)
class ExecutionReport:
    """Classical execution record: output distribution, work marginal, and
    the trajectories actually taken (input -> output string pairs)."""

    output: StringDistribution
    work_marginal: dict[Bits, Fraction | float]
    routed_failure_mass: Fraction | float
    trajectories: tuple[tuple[Bits, Bits], ...]
    kind: str


def execute_plan_classical(plan: DistillationPlan | FormationPlan,
                           input_dist: StringDistribution) -> ExecutionReport:
    """Apply the plan's per-type injections to an explicit distribution.

    Mass on types the plan does not cover is routed unchanged to a failure
    branch and reported.  Probabilities are permuted, never mixed, so the
    output masses sum to 1 exactly in rational mode.
    """
    if isinstance(plan, DistillationPlan):
        return _execute_distillation(plan, input_dist)
    return _execute_formation(plan, input_dist)


def _uncovered_shell_map(plan: DistillationPlan, shell: int) -> dict[Bits, Bits]:
    """Permutation branch for the shell's uncovered strings.

    Covered inputs occupy the first lexicographic exhaust ranks of the
    shell (the maps stack contiguous ranges), so the uncovered strings are
    matched, in order, to the remaining strings of the same total weight,
    exactly as the quantum executor completes its permutation.
    """
    total = plan.ell + plan.n
    covered_inputs = 0
    for g in range(plan.gibbs_window[0], plan.gibbs_window[1] + 1):
        r = shell - g
        if plan.resource_window[0] <= r <= plan.resource_window[1]:
            covered_inputs += math.comb(plan.ell, g) * math.comb(plan.n, r)
    e = shell - plan.m
    images = set()
    if covered_inputs and 0 <= e <= plan.k:
        from .distill import unrank_fixed_weight

        images = {unrank_fixed_weight(j, plan.k, e) + (1,) * plan.m
                  for j in range(covered_inputs)}
    uncovered, free = [], []
    for bits in _fixed_weight_strings(total, shell):
        g = sum(bits[: plan.ell])
        r = shell - g
        if not plan.covers(g, r):
            uncovered.append(bits)
        if bits not in images:
            free.append(bits)
    return dict(zip(uncovered, free))


def _execute_distillation(plan: DistillationPlan,
                          input_dist: StringDistribution) -> ExecutionReport:
    if input_dist.length != plan.ell + plan.n:
        raise ValueError("input length does not match the plan")
    maps: dict[tuple[int, int], StringMap] = {}
    shell_maps: dict[int, dict[Bits, Bits]] = {}
    out_probs: dict[Bits, Fraction | float] = {}
    trajectories = []
    routed = 0
    for string, prob in sorted(input_dist.probs.items()):
        bath, resource = string[: plan.ell], string[plan.ell:]
        g, r = sum(bath), sum(resource)
        key = (g, r)
        if plan.covers(g, r):
            if key not in maps:
                maps[key] = build_string_map(plan, key)
            out = maps[key].apply(bath, resource)
        else:
            shell = g + r
            if shell not in shell_maps:
                shell_maps[shell] = _uncovered_shell_map(plan, shell)
            out = shell_maps[shell][string]
            routed = routed + prob
        out_probs[out] = out_probs.get(out, 0) + prob
        trajectories.append((string, out))
    output = StringDistribution(plan.k + plan.m, out_probs)
    work = output.marginal(range(plan.k, plan.k + plan.m))
    return ExecutionReport(output, work, routed, tuple(trajectories), "distillation")


def _execute_formation(plan: FormationPlan,
                       input_dist: StringDistribution) -> ExecutionReport:
    if input_dist.length != plan.ell + plan.m:
        raise ValueError("input length does not match the plan")
    # The type-distribution stage conditions on the Birkhoff partition: the
    # output is the mixture over target types with the achieved weights.
    t_lo, t_hi = plan.target_window
    targets = list(range(t_lo, t_hi + 1))
    weights = plan.birkhoff.achieved_weights
    if len(weights) != len(targets):
        raise ValueError("birkhoff partition does not match the target window")
    maps: dict[tuple[int, int], FormationStringMap] = {}
    out_probs: dict[Bits, Fraction | float] = {}
    trajectories = []
    routed = 0
    for string, prob in sorted(input_dist.probs.items()):
        bath = string[: plan.ell]
        work_register = string[plan.ell:]
        if work_register != (1,) * plan.m:
            routed = routed + prob
            out_probs[string] = out_probs.get(string, 0) + prob
            trajectories.append((string, string))
            continue
        g = sum(bath)
        if not plan.gibbs_window[0] <= g <= plan.gibbs_window[1]:
            routed = routed + prob
            out_probs[string] = out_probs.get(string, 0) + prob
            trajectories.append((string, string))
            continue
        for t, w in zip(targets, weights):
            key = (g, t)
            if key not in maps:
                maps[key] = build_formation_string_map(plan, key)
            target_bits, exhaust_bits = maps[key].apply(bath)
            out = target_bits + exhaust_bits
            mass = prob * w
            if mass != 0:
                out_probs[out] = out_probs.get(out, 0) + mass
                trajectories.append((string, out))
    # Mixing weights are floats, so renormalize the tiny float slop away
    # unless the distribution is exactly rational.
    total = sum(out_probs.values())
    if not isinstance(total, Fraction) and abs(float(total) - 1.0) > 1e-15:
        out_probs = {s: p / total for s, p in out_probs.items()}
    output = StringDistribution(plan.n + plan.k, out_probs)
    target_marginal = output.marginal(range(plan.n))
    return ExecutionReport(output, target_marginal, routed, tuple(trajectories), "formation")


@dataclass(frozen=True)
class ChannelReport:
    """Exact quantum execution of a distillation plan."""

    total_qubits: int
    commutator_nonzeros: int
    trace_preserved: bool
    work_trace_distance: float
    failure_mass: float
    permutation: tuple[int, ...]

    @property
    def energy_conserving(self) -> bool:
        return self.commutator_nonzeros == 0

    def unitary(self) -> sp.csr_matrix:
        """The permutation as an explicit sparse matrix V e_x = e_perm(x)."""
        dim = len(self.permutation)
        return sp.csr_matrix(
            (np.ones(dim), (np.array(self.permutation), np.arange(dim))),
            shape=(dim, dim),
        )


def execute_plan_quantum(plan: DistillationPlan, max_qubits: int = 14,
                         input_probs: np.ndarray | None = None) -> ChannelReport:
    """Build the explicit permutation unitary of a plan and verify legality.

    The permutation applies the per-type string maps on covered types and
    completes each total-energy shell with the identity-ordered leftover
    matching, so it commutes with H_tot exactly (integer weights).  The
    channel is applied to gamma^(ell) (x) rho^(n) (or the supplied diagonal
    input) and the work register compared with |1><1|^(m).
    """
    total = plan.ell + plan.n
    if total > max_qubits:
        raise UnsupportedSizeError(f"quantum execution capped at {max_qubits} qubits")

    def bits_of(x: int) -> Bits:
        return tuple((x >> (total - 1 - i)) & 1 for i in range(total))

    def int_of(bits: Bits) -> int:
        value = 0
        for b in bits:
            value = (value << 1) | b
        return value

    maps: dict[tuple[int, int], StringMap] = {}
    perm = [-1] * (2 ** total)
    images: dict[int, set[int]] = {}
    domain_by_shell: dict[int, list[int]] = {}
    for x in range(2 ** total):
        bits = bits_of(x)
        bath, resource = bits[: plan.ell], bits[plan.ell:]
        g, r = sum(bath), sum(resource)
        shell = g + r
        if plan.covers(g, r):
            key = (g, r)
            if key not in maps:
                maps[key] = build_string_map(plan, key)
            y = int_of(maps[key].apply(bath, resource))
            perm[x] = y
            images.setdefault(shell, set()).add(y)
            assert sum(bits_of(y)) == shell
        else:
            domain_by_shell.setdefault(shell, []).append(x)
    # Complete every shell: unmapped states go to the unused states of the
    # same shell, both in sorted order.
    free_by_shell: dict[int, list[int]] = {}
    for x in range(2 ** total):
        shell = sum(bits_of(x))
        if x not in images.get(shell, set()):
            free_by_shell.setdefault(shell, []).append(x)
    for shell, xs in domain_by_shell.items():
        frees = free_by_shell.get(shell, [])
        for x, y in zip(sorted(xs), sorted(frees)):
            perm[x] = y
    assert all(y >= 0 for y in perm)
    assert len(set(perm)) == len(perm)

    # Exact commutator check: V e_x = e_perm(x), H diagonal by weight.
    weights = np.array([sum(bits_of(x)) for x in range(2 ** total)])
    commutator_nonzeros = int(np.count_nonzero(weights[np.array(perm)] - weights))

    if input_probs is None:
        q, p = plan.q, plan.p
        probs = np.ones(1)
        for _ in range(plan.ell):
            probs = np.kron(probs, np.array([1 - q, q]))
        for _ in range(plan.n):
            probs = np.kron(probs, np.array([1 - p, p]))
    else:
        probs = np.asarray(input_probs, dtype=float)
    out = np.zeros_like(probs)
    out[np.array(perm)] = probs
    trace_preserved = bool(abs(out.sum() - probs.sum()) < 1e-12)

    # Work register marginal: the last m qubits.
    work_dim = 2 ** plan.m
    marg = out.reshape(2 ** plan.k, work_dim).sum(axis=0)
    target = np.zeros(work_dim)
    target[-1] = 1.0
    work_distance = 0.5 * float(np.abs(marg - target).sum())

    return ChannelReport(
        total_qubits=total,
        commutator_nonzeros=commutator_nonzeros,
        trace_preserved=trace_preserved,
        work_trace_distance=work_distance,
        failure_mass=plan.failure_mass,
        permutation=tuple(perm),
    )


@dataclass(frozen=True)
class ExhaustReport:
    """Structure of the traced-out exhaust state by L-system blocks."""

    block_size: int
    num_blocks: int
    reduced_states: tuple[DensityMatrix, ...]
    rel_entropies: tuple[float, ...]
    pinsker_bounds: tuple[float, ...]
    measured_trace_distances: tuple[float, ...]
    total_rel_entropy: float
    subadditivity_holds: bool
    per_system_rel_entropy: float


def _classical_rel_entropy(p: dict[Bits, float], q_probs: np.ndarray,
                           length: int) -> float:
    total = 0.0
    for bits, mass in p.items():
        mass = float(mass)
        if mass <= 0.0:
            continue
        ref = 1.0
        for i, b in enumerate(bits):
            ref *= q_probs[b]
        total += mass * (math.log(mass) - math.log(ref))
    return max(total, 0.0)


def exhaust_analysis(plan: DistillationPlan, block_size: int = 1,
                     execution: ExecutionReport | None = None,
                     reference_q: float | None = None) -> ExhaustReport:
    """Exact exhaust reductions and their distance to the Gibbs state.

    Computes D(pi_block || gamma^(L)) for disjoint L-blocks of the exhaust,
    the Pinsker bounds sqrt(2 D), the measured trace distances, and the
    subadditivity chain sum_blocks D <= D(pi_k || gamma^(k)).  The Gibbs
    reference uses the same (rationalized) weight as the executed input so
    the comparison is exact.
    """
    if execution is None:
        execution = execute_plan_classical(plan, thermal_input_distribution(plan))
        if reference_q is None:
            reference_q = float(_rationalize(plan.q))
    q = plan.q if reference_q is None else reference_q
    gamma1 = np.array([1 - q, q])

    exhaust = execution.output.marginal(range(plan.k))
    exhaust = {s: float(p) for s, p in exhaust.items()}

    num_blocks = plan.k // block_size
    states, rel_ents, pinskers, distances = [], [], [], []
    for b in range(num_blocks):
        positions = range(b * block_size, (b + 1) * block_size)
        reduced: dict[Bits, float] = {}
        for bits, mass in exhaust.items():
            key = tuple(bits[i] for i in positions)
            reduced[key] = reduced.get(key, 0.0) + float(mass)
        dim = 2 ** block_size
        vec = np.zeros(dim)
        gamma_block = np.ones(dim)
        for idx in range(dim):
            key = tuple((idx >> (block_size - 1 - i)) & 1 for i in range(block_size))
            vec[idx] = reduced.get(key, 0.0)
            for b_ in key:
                gamma_block[idx] *= gamma1[b_]
        d_block = _classical_rel_entropy(reduced, gamma1, block_size)
        states.append(DensityMatrix.diagonal(vec / vec.sum()))
        rel_ents.append(d_block)
        pinskers.append(math.sqrt(2.0 * d_block))
        distances.append(0.5 * float(np.abs(vec - gamma_block).sum()))

    d_total = _classical_rel_entropy(exhaust, gamma1, plan.k)
    return ExhaustReport(
        block_size=block_size,
        num_blocks=num_blocks,
        reduced_states=tuple(states),
        rel_entropies=tuple(rel_ents),
        pinsker_bounds=tuple(pinskers),
        measured_trace_distances=tuple(distances),
        total_rel_entropy=d_total,
        subadditivity_holds=bool(sum(rel_ents) <= d_total + 1e-9),
        per_system_rel_entropy=d_total / plan.k if plan.k else 0.0,
    )


def work_balance_audit(plan: DistillationPlan | FormationPlan,
                       execution: ExecutionReport) -> dict:
    """Verify exact energy conservation on every recorded trajectory.

    Raises WorkBalanceError on any imbalance.  Returns a ledger with the
    expected work-register surplus over its thermal value (<= 0 for
    Gibbs-only inputs).
    """
    for src, dst in execution.trajectories:
        if sum(src) != sum(dst):
            raise WorkBalanceError(
                f"trajectory {src} -> {dst} changes the total energy")

    ledger = {"trajectories": len(execution.trajectories), "balanced": True}
    if isinstance(plan, DistillationPlan) and plan.m > 0:
        expected_ones = 0.0
        for bits, mass in execution.work_marginal.items():
            expected_ones += float(mass) * sum(bits)
        thermal = plan.m * plan.q
        ledger["expected_work_surplus"] = expected_ones - thermal
    return ledger

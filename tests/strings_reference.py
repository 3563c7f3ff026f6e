"""String-level definitions of the plans' layouts, one string at a time.

The engine executes plans on index arrays.  This module keeps the
string-by-string definitions the tests check it against: fixed-weight
ranking, the brute-force feasibility oracle on tuples of bits, a
distillation plan's per-type injection (types of one total-1s
shell at consecutive rank offsets), a formation plan's round robin, the
flat index sets of a Birkhoff partition, the exact covered-string counts
per shell, the joint system-plus-frame Hamiltonian with the frame-compensated
joint unitary acting on it, and a permutation as an explicit sparse unitary.
Nothing here is imported by ``athermal``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from athermal.coherent import ReferenceFrame
from athermal.distill import DistillationPlan
from athermal.form import BirkhoffPartition, FormationPlan, formation_feasible


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


@lru_cache(maxsize=None)
def fixed_weight_strings(length: int, weight: int) -> tuple[tuple[int, ...], ...]:
    """All strings of one weight, in lexicographic order."""
    return tuple(unrank_fixed_weight(i, length, weight) for i in range(math.comb(length, weight)))


def reference_oracle_max_m(ell: int, gibbs_ones: int, n: int, resource_ones: int) -> int:
    """The brute-force feasibility oracle on tuples of bits.

    For ell + n <= 14 the injection is built string by string, bath-major
    inputs onto the exhaust strings of weight e in lexicographic order with
    m 1s appended, and its injectivity and energy conservation verified; up
    to 24 the string sets are counted.
    """
    enumerate_strings = ell + n <= 14
    total_ones = gibbs_ones + resource_ones
    if enumerate_strings:
        inputs = [b + r
                  for b in fixed_weight_strings(ell, gibbs_ones)
                  for r in fixed_weight_strings(n, resource_ones)]
    else:
        input_count = math.comb(ell, gibbs_ones) * math.comb(n, resource_ones)
    for m in range(total_ones, -1, -1):
        k = ell + n - m
        e = total_ones - m
        if e > k:
            continue
        if enumerate_strings:
            if len(inputs) <= len(fixed_weight_strings(k, e)):
                outputs = [s + (1,) * m for s in fixed_weight_strings(k, e)]
                mapping = dict(zip(inputs, outputs))
                assert len(set(mapping.values())) == len(mapping)
                assert all(sum(src) == sum(dst) for src, dst in mapping.items())
                return m
        elif input_count <= math.comb(k, e):
            return m
    return 0


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
        for bath in fixed_weight_strings(self.ell, self.gibbs_ones):
            for resource in fixed_weight_strings(self.n, self.resource_ones):
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


@dataclass(frozen=True)
class FormationStringMap:
    """Explicit injection for one (Gibbs type, target type) pair.

    Gibbs strings (lexicographic within their type) are assigned round
    robin: input rank i maps to target string i mod N_T and exhaust string
    i div N_T, so exhaust sets of distinct target strings differ in size by
    at most one and the traced-out output is uniform over the target type
    up to total variation (#targets)/(#inputs).
    """

    ell: int
    n: int
    m: int
    gibbs_ones: int
    target_ones: int

    @property
    def k(self) -> int:
        return self.m + self.ell - self.n

    @property
    def exhaust_ones(self) -> int:
        return self.gibbs_ones + self.m - self.target_ones

    def apply(self, gibbs_string: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if len(gibbs_string) != self.ell or sum(gibbs_string) != self.gibbs_ones:
            raise ValueError("Gibbs string does not match the type")
        n_targets = math.comb(self.n, self.target_ones)
        i = rank_fixed_weight(gibbs_string)
        target = unrank_fixed_weight(i % n_targets, self.n, self.target_ones)
        exhaust = unrank_fixed_weight(i // n_targets, self.k, self.exhaust_ones)
        return target, exhaust


def build_formation_string_map(plan: FormationPlan,
                               pair: tuple[int, int]) -> FormationStringMap:
    g, t = pair
    if not plan.covers(g, t):
        raise ValueError(f"(gibbs, target) pair {pair} is not covered by the plan")
    if not formation_feasible(plan.n, t, plan.ell, g, plan.m):
        raise ValueError(f"pair {pair} has no feasible injection")
    return FormationStringMap(plan.ell, plan.n, plan.m, g, t)


def explicit_sets(partition: BirkhoffPartition) -> list[list[int]]:
    """Expand a partition's spans into flat string indices; small index
    spaces only.

    Grouped partitions use the type-major lexicographic layout (all
    weight-0 strings first, then weight-1, ...); ungrouped partitions
    store the original string index in the ``ones`` slot.  Every string of
    a type class no span lists belongs to the set ``partition.rest``.
    """
    if not partition.grouped:
        return [sorted(span.ones for span in spans) for spans in partition.sets]
    offsets = {}
    acc = 0
    for ones in range(partition.ell + 1):
        offsets[ones] = acc
        acc += math.comb(partition.ell, ones)
    out = []
    for spans in partition.sets:
        indices: list[int] = []
        for span in spans:
            base = offsets[span.ones] + span.start
            indices.extend(range(base, base + span.count))
        out.append(indices)
    listed = {span.ones for spans in partition.sets for span in spans}
    for ones in set(offsets) - listed:
        size = math.comb(partition.ell, ones)
        out[partition.rest].extend(range(offsets[ones], offsets[ones] + size))
    return [sorted(indices) for indices in out]


def shell_input_counts(ell: int, n: int, g_window: tuple[int, int],
                       r_window: tuple[int, int]) -> dict[int, int]:
    """Exact number of covered input strings per total-1s shell."""
    row_r = [math.comb(n, r) for r in range(r_window[0], r_window[1] + 1)]
    sums: dict[int, int] = {}
    for g in range(g_window[0], g_window[1] + 1):
        c_g = math.comb(ell, g)
        for r, c_r in enumerate(row_r, r_window[0]):
            sums[g + r] = sums.get(g + r, 0) + c_g * c_r
    return sums


def joint_hamiltonian(system_energies: Sequence[int], frame: ReferenceFrame) -> sp.csr_matrix:
    """System energy plus frame level, diagonal over (system, level) pairs."""
    energies = np.asarray([int(e) for e in system_energies])
    diag = (energies[:, None] + np.arange(frame.num_levels)[None, :]).reshape(-1)
    return sp.diags(diag.astype(float)).tocsr()


def build_Uinv(system_unitary: np.ndarray, system_energies: Sequence[int],
               frame: ReferenceFrame) -> sp.csr_matrix:
    """Joint unitary acting as ``system_unitary`` with frame-compensated shifts.

    Within every total-energy shell whose frame partners all exist, the
    block is the system unitary; shells clipped by the frame boundary act
    as the identity.  The result commutes with the joint Hamiltonian
    exactly and is unitary on the padded space.
    """
    u = np.asarray(system_unitary, dtype=complex)
    energies = [int(e) for e in system_energies]
    d = u.shape[0]
    if u.shape != (d, d) or len(energies) != d:
        raise ValueError("unitary and energy list sizes disagree")
    if np.max(np.abs(u.conj().T @ u - np.eye(d))) > 1e-10:
        raise ValueError("system operator is not unitary")
    gaps = {abs(ei - ej) for i, ei in enumerate(energies)
            for j, ej in enumerate(energies) if abs(u[i, j]) > 1e-14}
    max_gap = max(gaps, default=0)
    if frame.window_size <= max_gap:
        raise ValueError(
            f"invalid frame: window of {frame.window_size} levels cannot span gaps up to {max_gap}")
    if frame.window_start < max_gap or (frame.num_levels - frame.window_start
                                        - frame.window_size) < max_gap:
        raise ValueError("invalid frame: padding thinner than the largest gap")

    nf = frame.num_levels
    dim = d * nf
    rows, cols, vals = [], [], []
    index = lambda i, f: i * nf + f

    covered = np.zeros(dim, dtype=bool)
    shells: dict[int, list[tuple[int, int]]] = {}
    for i in range(d):
        for f in range(nf):
            shells.setdefault(energies[i] + f, []).append((i, f))
    for total, members in shells.items():
        complete = len(members) == d and len({i for i, _ in members}) == d
        if complete:
            for (j, fj) in members:
                for (i, fi) in members:
                    if abs(u[i, j]) > 0.0:
                        rows.append(index(i, fi))
                        cols.append(index(j, fj))
                        vals.append(u[i, j])
                covered[index(j, fj)] = True
    for idx in range(dim):
        if not covered[idx]:
            rows.append(idx)
            cols.append(idx)
            vals.append(1.0)
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


def permutation_unitary(permutation: Sequence[int]) -> sp.csr_matrix:
    """A string permutation as an explicit sparse matrix V e_x = e_perm(x)."""
    dim = len(permutation)
    return sp.csr_matrix((np.ones(dim), (np.array(permutation), np.arange(dim))),
                         shape=(dim, dim))

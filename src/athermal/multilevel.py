"""Work extraction from d-level quasiclassical states.

Occupation counts of the resource and bath strings are changed by an
integer shift vector; unitarity is the exact multinomial counting
condition M(n f_rho) M(ell f_gamma) <= M((n+ell) nu), and the work system
is a pure ledger that absorbs the energy difference but no entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product
from typing import Sequence

import numpy as np

from .core import Hamiltonian, gibbs_state
from .counting import Factor, log_factorial, multinomial_margin_bound, products_leq
from .typeclass import apportion, shannon_entropy

__all__ = [
    "WorkLedger",
    "max_work",
    "classical_relative_entropy",
]

# Beyond this many candidate output vectors the exhaustive search gives way
# to a seeded hill climb with a bounded polish.
ENUMERATION_CAP = 300_000


def _log_multinomials(counts: np.ndarray) -> np.ndarray:
    """ln M(c) = ln (sum c)! - sum_i ln c_i!, per row."""
    return log_factorial(counts.sum(axis=-1)) - log_factorial(counts).sum(axis=-1)


def _multinomial_factors(counts: Sequence[int]) -> list[Factor]:
    """M(c) as the product of the binomials C(c_0 + ... + c_i, c_i), i >= 1."""
    tops = np.cumsum(counts).tolist()
    return [(tops[i], int(counts[i])) for i in range(1, len(tops))]


class _CountingTest:
    """Certified test M(nu) >= M(counts_rho) M(counts_bath) over output types nu."""

    def __init__(self, counts_rho: Sequence[int], counts_bath: Sequence[int]):
        self.lhs = _multinomial_factors(counts_rho) + _multinomial_factors(counts_bath)
        self.lhs_log = float(_log_multinomials(np.array([counts_rho, counts_bath])).sum())
        self.delta = multinomial_margin_bound(sum(counts_rho) + sum(counts_bath), len(counts_rho))

    def decide(self, nus: np.ndarray, log_m: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
        """(holds, margins) for every row of ``nus`` (``log_m``: their ln M,
        if known); only margins in (-delta, delta) go to exact integers."""
        margins = (_log_multinomials(nus) if log_m is None else log_m) - self.lhs_log
        holds = margins >= self.delta
        for i in np.flatnonzero(np.abs(margins) < self.delta):
            holds[i] = products_leq(self.lhs, _multinomial_factors(nus[i]))
        return holds, margins


def classical_relative_entropy(f: Sequence[float], g: Sequence[float]) -> float:
    """D(f||g) in nats for probability vectors; inf on support violation."""
    total = 0.0
    for fi, gi in zip(f, g):
        if fi > 0.0:
            if gi <= 0.0:
                return math.inf
            total += fi * math.log(fi / gi)
    return max(total, 0.0)


@dataclass(frozen=True)
class WorkLedger:
    """Outcome of a work-extraction search.

    ``extracted`` is the energy moved to the work ledger in the worst
    probed type pair; ``per_level_delta`` are the per-level occupation
    decreases realizing it there, and ``feasibility_margin`` the counting
    slack (nats) at that solution, a float within delta_d(n + ell) / 4 of
    the exact value (a feasible solution never reports a negative one).
    """

    extracted: float
    per_level_delta: tuple[int, ...]
    feasibility_margin: float
    n: int
    ell: int
    per_copy: float
    bound_per_copy: float
    exact_search: bool
    partial_search: bool
    probes: tuple[tuple[tuple[int, ...], tuple[int, ...], float], ...]

    def check_energy_bookkeeping(self, hamiltonian: Hamiltonian) -> None:
        exact_energy = sum(d * e for d, e in zip(self.per_level_delta, hamiltonian.energies))
        if abs(self.extracted - exact_energy) > 1e-12 * max(1.0, abs(exact_energy)):
            raise ValueError("ledger energy does not match the integer count difference")


@lru_cache(maxsize=1)
def _compositions(total: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Every composition of ``total`` into d parts, as int rows, with its ln M.

    Stars and bars: d - 1 bars among total + d - 1 slots, less their index,
    are nondecreasing cuts of [0, total]; the parts are the gaps.
    """
    count = math.comb(total + d - 1, d - 1)
    bars = np.fromiter(chain.from_iterable(combinations(range(total + d - 1), d - 1)),
                       dtype=np.int64, count=count * (d - 1)).reshape(count, d - 1)
    nus = np.diff(bars - np.arange(d - 1), axis=1, prepend=0, append=total)
    log_m = _log_multinomials(nus)
    nus.flags.writeable = log_m.flags.writeable = False
    return nus, log_m


@lru_cache(maxsize=None)
def _polish_steps(d: int) -> np.ndarray:
    """Nonzero shifts in [-2, 2]^d that keep the total, in product order."""
    steps = np.array(list(product(range(-2, 3), repeat=d)))
    return steps[(steps.sum(axis=1) == 0) & steps.any(axis=1)]


def _search_best_shift(counts_rho: tuple[int, ...], counts_bath: tuple[int, ...],
                       energies: tuple[float, ...],
                       ) -> tuple[float, tuple[int, ...], float, bool, bool]:
    """Maximize H . delta subject to the certified counting condition.

    Returns (work, deltas, margin, exact_search, partial).  Exhaustive over
    all output compositions when the space is small: the optimum is the
    lexicographic maximum of (work, -deltas) over the feasible ones.
    Otherwise a Gibbs-like seed plus greedy unit moves and a radius-2
    polish, every accept or reject through the same certified test.
    """
    d = len(energies)
    total = sum(counts_rho) + sum(counts_bath)
    s_vec = np.add(counts_rho, counts_bath)
    test = _CountingTest(counts_rho, counts_bath)

    def work_of(nus: np.ndarray) -> np.ndarray:
        # Summed in level order, so each value equals sum((s - v) * e).
        work = np.zeros(len(nus))
        for i, e in enumerate(energies):
            work = work + (s_vec[i] - nus[:, i]) * e
        return work

    def result(nu: np.ndarray, exhaustive: bool, partial: bool):
        (holds,), (margin,) = test.decide(nu[None])
        return (float(work_of(nu[None])[0]), tuple(int(v) for v in s_vec - nu),
                max(float(margin), 0.0) if holds else float(margin), exhaustive, partial)

    if math.comb(total + d - 1, d - 1) <= ENUMERATION_CAP:
        nus, log_m = _compositions(total, d)
        holds, _ = test.decide(nus, log_m)
        fits = nus[holds]
        keys = (fits - s_vec).T[::-1]
        return result(fits[np.lexsort((*keys, work_of(fits)))[-1]], True, False)

    # Seed: Gibbs-shaped output whose entropy rate matches the input count
    # rate, found by bisection on the effective inverse temperature.
    target_rate = test.lhs_log / total

    def gibbs_probs(beta_eff: float) -> list[float]:
        ground = min(energies)
        weights = [math.exp(-beta_eff * (e - ground)) for e in energies]
        z = sum(weights)
        return [w / z for w in weights]

    lo, hi = 0.0, 1.0
    while shannon_entropy(gibbs_probs(hi)) > target_rate and hi < 1e6:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):     # adjacent floats: no later step moves either end
            break
        lo, hi = (mid, hi) if shannon_entropy(gibbs_probs(mid)) > target_rate else (lo, mid)
    nu = np.array(apportion(total, gibbs_probs(lo)))

    def first_feasible(cands: np.ndarray) -> np.ndarray | None:
        cands = cands[(cands >= 0).all(axis=1)]
        holds, _ = test.decide(cands)
        return cands[np.argmax(holds)] if holds.any() else None

    # Repair: raise the multinomial by moving units toward emptier levels.
    # The first of equal maxima wins, here and in the greedy moves below.
    unit = np.eye(d, dtype=np.int64)
    for _ in range(10 * total):
        if first_feasible(nu[None]) is not None:
            break
        gain, a, b = max(((math.log(nu[a]) - math.log(nu[b] + 1), a, b)
                          for a in range(d) if nu[a] for b in range(d) if b != a),
                         key=lambda move: move[0], default=(0.0, 0, 0))
        if gain <= 0.0:
            break
        nu += unit[b] - unit[a]
    partial = first_feasible(nu[None]) is None

    # Greedy: the feasible unit move of largest energy gain (sorted is stable).
    moves = sorted(((energies[a] - energies[b], a, b) for a in range(d) for b in range(d)
                    if energies[a] - energies[b] > 0.0), key=lambda m: -m[0])
    steps = np.array([unit[b] - unit[a] for _, a, b in moves], dtype=np.int64).reshape(-1, d)
    while (nxt := first_feasible(nu + steps)) is not None:
        nu = nxt

    # Radius-2 polish around the incumbent: the first improving feasible step.
    steps = _polish_steps(d)
    while True:
        cands = nu + steps
        nxt = first_feasible(cands[work_of(cands) > work_of(nu[None])[0] + 1e-12])
        if nxt is None:
            break
        nu = nxt

    return result(nu, False, partial)


def _corner_probes(total: int, freqs: Sequence[float], width: float) -> list[tuple[int, ...]]:
    """Center count vector plus one probe per ordered level pair, shifted by
    width standard deviations of the source level."""
    center = apportion(total, freqs)
    probes = [center]
    d = len(freqs)
    for i in range(d):
        sd = math.sqrt(total * freqs[i] * (1.0 - freqs[i]))
        shift = round(width * sd)
        if shift == 0:
            continue
        for j in range(d):
            if i == j:
                continue
            moved = list(center)
            usable = min(shift, moved[i])
            if usable == 0:
                continue
            moved[i] -= usable
            moved[j] += usable
            probes.append(tuple(moved))
    return list(dict.fromkeys(probes))


def max_work(f_rho: Sequence, hamiltonian: Hamiltonian,
             beta: float, n: int, ell: int, width: float = 3.0) -> WorkLedger:
    """Worst-case-type maximal work from n resource and ell bath copies.

    The per-type optimum is searched exhaustively (bounded enumeration) at
    small sizes and by a seeded local search above; the reported work is
    the minimum over the probed typical type pairs, matching a protocol
    that must deliver the same ledger amount for every likely frequency
    pair.  ``width`` is the probe offset in standard deviations; width = 0
    probes the centre type only.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if ell < 0:
        raise ValueError(f"ell must be nonnegative, got {ell}")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not width >= 0:
        raise ValueError(f"width must be nonnegative, got {width}")
    f_rho = tuple(f_rho)
    # Fractions (and ints) must sum to exactly 1, floats to within 1e-12.
    exact = all(isinstance(f, (Fraction, int)) for f in f_rho)
    if (not all(0 <= f <= 1 for f in f_rho)
            or (sum(f_rho) != 1 if exact else abs(float(sum(f_rho)) - 1.0) > 1e-12)):
        raise ValueError(f"f_rho is not a probability vector: {f_rho}")
    rho = tuple(float(f) for f in f_rho)
    if len(rho) != hamiltonian.dim:
        raise ValueError("dimension mismatch with the Hamiltonian")
    if hamiltonian.dim > 6:
        raise ValueError("exact integer search supports d <= 6")
    gamma = gibbs_state(hamiltonian, beta).probs

    rho_probes = _corner_probes(n, rho, width)
    bath_probes = _corner_probes(ell, gamma, width)

    results = []
    exact_search_all = True
    partial_any = False
    for cr in rho_probes:
        for cb in bath_probes:
            w, deltas, margin, was_exact, partial = _search_best_shift(
                cr, cb, hamiltonian.energies)
            results.append((max(w, 0.0), cr, cb, deltas, margin))
            exact_search_all &= was_exact
            partial_any |= partial

    w_star, cr_star, cb_star, deltas_star, margin_star = min(results, key=lambda item: item[0])
    if w_star == 0.0:
        deltas_star = tuple(0 for _ in hamiltonian.energies)
        margin_star = float(_CountingTest(cr_star, cb_star).decide(
            np.add([cr_star], [cb_star]))[1][0])

    bound = classical_relative_entropy(rho, gamma) / beta
    return WorkLedger(
        extracted=w_star,
        per_level_delta=deltas_star,
        feasibility_margin=margin_star,
        n=n,
        ell=ell,
        per_copy=w_star / n,
        bound_per_copy=bound,
        exact_search=exact_search_all,
        partial_search=partial_any,
        probes=tuple((cr, cb, w) for w, cr, cb, _, _ in results),
    )

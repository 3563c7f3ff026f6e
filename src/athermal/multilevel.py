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
from functools import cache, lru_cache
from itertools import chain, combinations, product
from typing import Sequence

import numpy as np

from .core import Hamiltonian, gibbs_state
from .counting import Factor, log_factorial, multinomial_margin_bound, products_leq
from .typeclass import apportion

__all__ = [
    "WorkLedger",
    "max_work",
    "classical_relative_entropy",
]

# Beyond this many candidate output vectors the exhaustive search gives way
# to a seeded hill climb with a bounded polish.
ENUMERATION_CAP = 300_000
# Cells of each (pairs x compositions) matrix in one block of the sweep.
_SWEEP_CELLS = 2 ** 19


def _log_multinomials(counts: np.ndarray) -> np.ndarray:
    """ln M(c) = ln (sum c)! - sum_i ln c_i!, per row."""
    return log_factorial(counts.sum(axis=-1)) - log_factorial(counts).sum(axis=-1)


def _multinomial_factors(counts: Sequence[int]) -> list[Factor]:
    """M(c) as the product of the binomials C(c_0 + ... + c_i, c_i), i >= 1."""
    tops = np.cumsum(counts).tolist()
    return [(tops[i], int(counts[i])) for i in range(1, len(tops))]


class _CountingTest:
    """Certified tests M(nu) >= M(a) M(b) for type pairs (a, b) of one total."""

    def __init__(self, pairs: Sequence[tuple[Sequence[int], Sequence[int]]]):
        self.pairs = pairs
        self.lhs_log = _log_multinomials(np.array(pairs)).sum(axis=-1)
        a, b = pairs[0]
        self.delta = multinomial_margin_bound(sum(a) + sum(b), len(a))

    def decide(self, owners: int | np.ndarray, nus: np.ndarray, log_m: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
        """(holds, margins) of pairs ``owners`` at outputs ``nus`` (``log_m``:
        their ln M, if known), broadcast, a margin's last index naming its row
        of ``nus``; only margins in (-delta, delta) go to exact integers."""
        margins = (_log_multinomials(nus) if log_m is None else log_m) - self.lhs_log[owners]
        holds = margins >= self.delta
        owners = np.broadcast_to(owners, margins.shape)
        for i in zip(*np.nonzero(np.abs(margins) < self.delta)):
            a, b = self.pairs[owners[i]]
            holds[i] = products_leq(_multinomial_factors(a) + _multinomial_factors(b),
                                    _multinomial_factors(nus[i[-1]]))
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


def _search_best_shifts(pairs: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
                        energies: tuple[float, ...],
                        ) -> list[tuple[float, tuple[int, ...], float, bool, bool]]:
    """Maximize H . delta under the certified counting condition for every
    (counts_rho, counts_bath) pair of one total N: (work, deltas, margin,
    exact_search, partial) per pair.

    When the C(N + d - 1, d - 1) output compositions are few, one sweep
    tests all of them against all pairs, in row blocks: a pair's optimum is
    the lexicographic maximum of (work, -deltas) over its feasible outputs.
    Otherwise each pair is seeded Gibbs-like, repaired, and climbs by greedy
    unit moves and a radius-2 polish, all pairs in lockstep: one certified
    test per round over every active pair's candidates.
    """
    d = len(energies)
    total = sum(pairs[0][0]) + sum(pairs[0][1])
    s_vec = np.array(pairs).sum(axis=1)
    test = _CountingTest(pairs)
    holds, margins = np.zeros(len(pairs), dtype=bool), np.zeros(len(pairs))

    def work_of(s: np.ndarray, nus: np.ndarray) -> np.ndarray:
        # Summed from 0 in level order, so each value equals sum((s - nu) * e).
        return sum((s[..., i] - nus[..., i]) * e for i, e in enumerate(energies))

    exhaustive = math.comb(total + d - 1, d - 1) <= ENUMERATION_CAP
    if exhaustive:
        nus, log_m = _compositions(total, d)
        levels = np.asfortranarray(nus, dtype=float)    # exact, one contiguous column per level
        nu = np.empty_like(s_vec)
        rows = max(1, _SWEEP_CELLS // len(nus))
        for block in np.split(np.arange(len(pairs))[:, None], range(rows, len(pairs), rows)):
            fits, margin = test.decide(block, nus, log_m)
            work = np.where(fits, work_of(s_vec[block], levels), -np.inf)
            # Compositions ascend lexicographically: the last best has least deltas.
            last = len(nus) - 1 - np.argmax(work[:, ::-1], axis=1)
            nu[block[:, 0]] = nus[last]
            margins[block[:, 0]] = margin[np.arange(len(block)), last]
        holds[:], partial = True, np.zeros(len(pairs), dtype=bool)
    else:
        # Seed: Gibbs-shaped output (probabilities, entropy) whose entropy rate
        # matches the input count rate, by bisection on the effective inverse
        # temperature, in scalar math (numpy's exp and log differ in the last bit).
        gaps = [e - min(energies) for e in energies]

        def gibbs(beta_eff: float) -> tuple[list[float], float]:
            weights = [math.exp(-beta_eff * g) for g in gaps]
            z = sum(weights)
            probs = [w / z for w in weights]
            return probs, -sum([v * math.log(v) for v in probs if v > 0.0])

        @cache
        def seed(target_rate: float) -> tuple[int, ...]:
            lo, hi = 0.0, 1.0
            while gibbs(hi)[1] > target_rate and hi < 1e6:
                hi *= 2.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):     # adjacent floats: no later step moves either end
                    break
                lo, hi = (mid, hi) if gibbs(mid)[1] > target_rate else (lo, mid)
            return apportion(total, gibbs(lo)[0])

        nu = np.array([seed(rate) for rate in (test.lhs_log / total).tolist()])

        # Repair: raise the multinomial by moving units toward emptier
        # levels.  The first of equal maxima wins, here and in the climb.
        unit = np.eye(d, dtype=np.int64)
        active = np.arange(len(pairs))
        for moves_left in range(10 * total, -1, -1):
            holds[active], margins[active] = test.decide(active, nu[active])
            moving = []
            for p in active[~holds[active]]:
                c = nu[p].tolist()
                gain, a, b = max(((math.log(c[a]) - math.log(c[b] + 1), a, b)
                                  for a in range(d) if c[a] for b in range(d) if b != a),
                                 key=lambda move: move[0], default=(0.0, 0, 0))
                if gain > 0.0 and moves_left:
                    nu[p] += unit[b] - unit[a]
                    moving.append(p)
            if not moving:
                break
            active = np.array(moving)
        partial = ~holds

        def climb(steps: np.ndarray, min_gain: float) -> None:
            """Move each pair to its first feasible nu + step gaining over min_gain, till none."""
            active = np.arange(len(pairs))
            while active.size:
                cands = nu[active, None] + steps
                floor = work_of(s_vec[active], nu[active])[:, None] + min_gain
                keep = (cands >= 0).all(axis=-1) & (work_of(s_vec[active, None], cands) > floor)
                rows, cols = np.nonzero(keep)
                fits, margin = test.decide(active[rows], cands[rows, cols])
                hits = np.flatnonzero(fits)
                moved, first = np.unique(rows[hits], return_index=True)
                hits, active = hits[first], active[moved]
                nu[active] = cands[rows[hits], cols[hits]]
                holds[active], margins[active] = True, margin[hits]

        # Greedy: the feasible unit move of largest energy gain (sorted is
        # stable), then the first improving feasible step of radius 2.
        moves = sorted(((energies[a] - energies[b], a, b) for a in range(d) for b in range(d)
                        if energies[a] - energies[b] > 0.0), key=lambda m: -m[0])
        climb(np.array([unit[b] - unit[a] for _, a, b in moves], dtype=np.int64).reshape(-1, d),
              -np.inf)
        climb(_polish_steps(d), 1e-12)

    return [(w, tuple(deltas), max(m, 0.0) if h else m, exhaustive, p)
            for w, deltas, m, h, p in zip(work_of(s_vec, nu).tolist(), (s_vec - nu).tolist(),
                                          margins.tolist(), holds.tolist(), partial.tolist())]


def _corner_probes(total: int, freqs: Sequence[float], width: float) -> list[tuple[int, ...]]:
    """Center count vector plus one probe per ordered level pair, shifted by
    width standard deviations of the source level."""
    center = apportion(total, freqs)
    probes = [center]
    d = len(freqs)
    for i in range(d):
        sd = math.sqrt(total * freqs[i] * (1.0 - freqs[i]))
        usable = min(round(width * sd), center[i])
        for j in range(d):
            if i == j or usable == 0:
                continue
            moved = list(center)
            moved[i] -= usable
            moved[j] += usable
            probes.append(tuple(moved))
    return list(dict.fromkeys(probes))


def max_work(f_rho: Sequence, hamiltonian: Hamiltonian,
             beta: float, n: int, ell: int, width: float = 3.0) -> WorkLedger:
    """Worst-case-type maximal work from n resource and ell bath copies.

    Every probed type pair has the total n + ell, so one search serves all
    (:func:`_search_best_shifts`): a sweep of every output composition at
    small sizes, a lockstep seeded climb above.  The reported work is the
    minimum over the probed pairs, matching a protocol that must deliver the
    same ledger amount for every likely frequency pair.  ``width`` is the
    probe offset in standard deviations; width = 0 probes the centre type only.
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

    pairs = [(cr, cb) for cr in _corner_probes(n, rho, width)
             for cb in _corner_probes(ell, gamma, width)]
    searched = _search_best_shifts(pairs, hamiltonian.energies)
    results = [(max(w, 0.0), cr, cb, deltas, margin)
               for (cr, cb), (w, deltas, margin, _, _) in zip(pairs, searched)]

    w_star, cr_star, cb_star, deltas_star, margin_star = min(results, key=lambda item: item[0])
    if w_star == 0.0:
        deltas_star = tuple(0 for _ in hamiltonian.energies)
        margin_star = float(_CountingTest([(cr_star, cb_star)]).decide(
            0, np.add([cr_star], [cb_star]))[1][0])

    bound = classical_relative_entropy(rho, gamma) / beta
    return WorkLedger(
        extracted=w_star,
        per_level_delta=deltas_star,
        feasibility_margin=margin_star,
        n=n,
        ell=ell,
        per_copy=w_star / n,
        bound_per_copy=bound,
        exact_search=all(found[3] for found in searched),
        partial_search=any(found[4] for found in searched),
        probes=tuple((cr, cb, w) for w, cr, cb, _, _ in results),
    )

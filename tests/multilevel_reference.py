"""The one-pair d-level work search that ``athermal.multilevel`` batches.

``_search_best_shift`` searches one (counts_rho, counts_bath) type pair at a
time: one certified test per pair, one composition sweep per pair in the
exhaustive branch and one hill climb per pair, with a ``decide`` call for
every probe, above it.  The engine's ``_search_best_shifts`` runs every
pair of a ``max_work`` call through one sweep or one lockstep climb, and
the tests require it to return exactly these tuples.  The composition
table, the polish steps and the counting kernel are shared with the
engine.  Nothing here is imported by ``athermal``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from athermal.counting import multinomial_margin_bound, products_leq
from athermal.multilevel import (
    ENUMERATION_CAP,
    _compositions,
    _log_multinomials,
    _multinomial_factors,
    _polish_steps,
)
from athermal.typeclass import apportion, shannon_entropy


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

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
from .distill import _EPS, Factor, _log_factorial, _products_leq
from .typeclass import FrequencyVector, apportion, shannon_entropy

__all__ = [
    "OccupationShift",
    "WorkLedger",
    "InvalidShiftError",
    "apportion",
    "unitarity_condition",
    "asymptotic_condition",
    "max_work",
    "classical_relative_entropy",
]

# Beyond this many candidate output vectors the exhaustive search gives way
# to a seeded hill climb with a bounded polish.
ENUMERATION_CAP = 300_000


class InvalidShiftError(ValueError):
    """The shift would drive some occupation count negative."""


@dataclass(frozen=True)
class OccupationShift:
    """Per-level occupation change, scaled by n: the counts move by -n x."""

    x: tuple[Fraction, ...]
    work: float = 0.0

    def __post_init__(self):
        x = tuple(Fraction(v) for v in self.x)
        object.__setattr__(self, "x", x)
        if sum(x) != 0:
            raise ValueError("shift components must sum to zero")

    @classmethod
    def from_deltas(cls, deltas: Sequence[int], n: int,
                    hamiltonian: Hamiltonian | None = None) -> "OccupationShift":
        work = 0.0
        if hamiltonian is not None:
            work = float(sum(d * e for d, e in zip(deltas, hamiltonian.energies)))
        return cls(tuple(Fraction(int(d), n) for d in deltas), work)

    def deltas(self, n: int) -> tuple[int, ...]:
        out = []
        for v in self.x:
            scaled = v * n
            if scaled.denominator != 1:
                raise ValueError(f"shift {v} does not give an integer count at n={n}")
            out.append(int(scaled))
        return tuple(out)


def _as_counts(total: int, f: FrequencyVector | Sequence) -> tuple[int, ...]:
    values = f.freqs if isinstance(f, FrequencyVector) else tuple(f)
    if all(isinstance(v, (Fraction, int)) for v in values):
        scaled = [Fraction(v) * total for v in values]
        if all(s.denominator == 1 for s in scaled) and sum(scaled) == total:
            return tuple(int(s) for s in scaled)
    return apportion(total, [float(v) for v in values])


def _log_multinomials(counts: np.ndarray) -> np.ndarray:
    """ln M(c) = ln (sum c)! - sum_i ln c_i!, per row."""
    return _log_factorial(counts.sum(axis=-1)) - _log_factorial(counts).sum(axis=-1)


def _multinomial_factors(counts: Sequence[int]) -> list[Factor]:
    """M(c) as the product of the binomials C(c_0 + ... + c_i, c_i), i >= 1."""
    tops = np.cumsum(counts).tolist()
    return [(tops[i], int(counts[i])) for i in range(1, len(tops))]


def _margin_bound(total: int, d: int) -> float:
    """delta_d(N) = 8 eps ((d + 6) N ln N + 4 (d + 1)): bound on the rounding
    error of a float margin ln M(nu) - (ln M(a) + ln M(b)) over d levels,
    N = sum nu = sum a + sum b.

    Each ln M(c) of a vector of total t is G(t) less the sum of the d
    values G(c_i), G = ln k! (:func:`athermal.distill._log_factorial`).
    G >= 0 and sum_i G(c_i) <= G(t) <= t ln t.  Rounding budget, eps = 2^-52:

    - G errs by <= 2.5 eps relative (see :func:`athermal.distill._margin_bound`);
      its d + 1 values total <= 2 t ln t: <= 2.5 eps (2 t ln t + d + 1).
    - The d - 1 additions of the sum and the subtraction from G(t) round
      values <= t ln t: <= d eps t ln t.
    - Over nu, a and b, with n ln n + ell ln ell <= N ln N:
      <= eps ((2d + 10) N ln N + 7.5 (d + 1)).
    - ln M(a) + ln M(b) and the final difference round values <= N ln N:
      <= 2 eps N ln N.

    The total, eps ((2d + 12) N ln N + 7.5 (d + 1)), is below delta_d(N) / 4.
    """
    return 8.0 * _EPS * ((d + 6) * total * math.log(max(total, 1)) + 4 * (d + 1))


class _CountingTest:
    """Certified test M(nu) >= M(counts_rho) M(counts_bath) over output types nu."""

    def __init__(self, counts_rho: Sequence[int], counts_bath: Sequence[int]):
        self.lhs = _multinomial_factors(counts_rho) + _multinomial_factors(counts_bath)
        self.lhs_log = float(_log_multinomials(np.array([counts_rho, counts_bath])).sum())
        self.delta = _margin_bound(sum(counts_rho) + sum(counts_bath), len(counts_rho))

    def decide(self, nus: np.ndarray, log_m: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
        """(holds, margins) for every row of ``nus`` (``log_m``: their ln M,
        if known); only margins in (-delta, delta) go to exact integers."""
        margins = (_log_multinomials(nus) if log_m is None else log_m) - self.lhs_log
        holds = margins >= self.delta
        for i in np.flatnonzero(np.abs(margins) < self.delta):
            holds[i] = _products_leq(self.lhs, _multinomial_factors(nus[i]))
        return holds, margins


def unitarity_condition(f_rho: FrequencyVector | Sequence,
                        f_gamma: FrequencyVector | Sequence,
                        shift: OccupationShift, n: int, ell: int) -> tuple[bool, float]:
    """Certified multinomial unitarity check M(n f_rho) M(ell f_gamma) <= M((n+ell) nu).

    Returns (holds, margin) with margin = ln RHS - ln LHS in nats, a
    log-gamma float within delta_d(n + ell) / 4 of the exact value;
    ``holds`` is exact.
    """
    counts_rho = _as_counts(n, f_rho)
    counts_gamma = _as_counts(ell, f_gamma)
    deltas = shift.deltas(n)
    if len(counts_rho) != len(counts_gamma) or len(deltas) != len(counts_rho):
        raise ValueError("dimension mismatch")
    nu = tuple(r + g - d for r, g, d in zip(counts_rho, counts_gamma, deltas))
    if any(v < 0 for v in nu):
        raise InvalidShiftError(f"shift drives occupation negative: nu = {nu}")
    holds, margins = _CountingTest(counts_rho, counts_gamma).decide(np.array([nu]))
    return bool(holds[0]), float(margins[0])


def classical_relative_entropy(f: Sequence[float], g: Sequence[float]) -> float:
    """D(f||g) in nats for probability vectors; inf on support violation."""
    total = 0.0
    for fi, gi in zip(f, g):
        if fi > 0.0:
            if gi <= 0.0:
                return math.inf
            total += fi * math.log(fi / gi)
    return max(total, 0.0)


def asymptotic_condition(f_rho: FrequencyVector | Sequence,
                         f_gamma: FrequencyVector | Sequence,
                         shift: OccupationShift) -> bool:
    """The ell -> inf unitarity relation -x . ln f_gamma <= D(f_rho || f_gamma)."""
    rho = f_rho.as_floats() if isinstance(f_rho, FrequencyVector) else [float(v) for v in f_rho]
    gam = f_gamma.as_floats() if isinstance(f_gamma, FrequencyVector) else [float(v) for v in f_gamma]
    if any(g <= 0.0 for g in gam):
        raise ValueError("f_gamma must have full support")
    lhs = -sum(float(x) * math.log(g) for x, g in zip(shift.x, gam))
    rhs = classical_relative_entropy(rho, gam)
    return lhs <= rhs + 1e-12


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


def max_work(f_rho: FrequencyVector | Sequence, hamiltonian: Hamiltonian,
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
    if not isinstance(f_rho, FrequencyVector):
        try:
            f_rho = FrequencyVector(tuple(f_rho))
        except ValueError as exc:
            raise ValueError(f"f_rho is not a probability vector: {exc}") from None
    rho = f_rho.as_floats()
    if len(rho) != hamiltonian.dim:
        raise ValueError("dimension mismatch with the Hamiltonian")
    if hamiltonian.dim > 6:
        raise ValueError("exact integer search supports d <= 6")
    gamma = gibbs_state(hamiltonian, beta).probs.probs

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

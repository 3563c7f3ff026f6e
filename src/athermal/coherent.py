"""Reference frames for coherent formation and their error analysis.

A reference frame is a uniform superposition over a window of integer
energy levels riding on a padding eigenstate.  Conditional energy shifts
against the frame implement arbitrary system unitaries while conserving
total energy exactly; the cost is a frame disturbance controlled by the
window size.  Trace distances follow the (1/2)||.||_1 convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .counting import (
    binomial_log_pmf,
    binomial_outside_mass,
    certify,
    log_comb,
    log_sum_exp,
    margin_bound,
    products_leq,
)

__all__ = [
    "ReferenceFrame",
    "CoherentTarget",
    "CoherentFormationReport",
    "DegeneracyShortfallError",
    "shift_overlap",
    "err_norm",
    "coherent_formation_error",
]


class DegeneracyShortfallError(ValueError):
    """The diagonal surrogate needs more degeneracy labels than exist."""


@dataclass(frozen=True)
class ReferenceFrame:
    """Uniform superposition over ``window_size`` consecutive integer levels.

    The frame Hilbert space spans ``num_levels`` integer energies starting
    at zero; the flat window occupies [window_start, window_start +
    window_size).
    """

    window_size: int
    window_start: int
    num_levels: int

    def __post_init__(self):
        if self.window_size < 1:
            raise ValueError("window must contain at least one level")
        if self.window_start < 0 or self.window_start + self.window_size > self.num_levels:
            raise ValueError("window does not fit inside the frame space")

    @classmethod
    def for_formation(cls, n: int) -> "ReferenceFrame":
        """Frame sized for an n-copy formation: window of 2 ceil(n^(2/3)) + 1
        levels, padded on both sides by n, the largest energy shift."""
        window = 2 * math.ceil(n ** (2.0 / 3.0)) + 1
        return cls(window_size=window, window_start=n, num_levels=window + 2 * n)

    def state_vector(self, shift: int = 0) -> np.ndarray:
        """The frame state shifted by ``shift`` levels, as a dense vector."""
        vec = np.zeros(self.num_levels)
        lo = self.window_start + shift
        hi = lo + self.window_size
        lo_c, hi_c = max(lo, 0), min(hi, self.num_levels)
        if lo_c < hi_c:
            vec[lo_c:hi_c] = 1.0 / math.sqrt(self.window_size)
        return vec


def _overlap(window_size: int, delta) -> np.ndarray:
    """Inner product (1 - |delta|/N)_+ between the flat window of N levels
    and its copy shifted by each delta."""
    delta = np.abs(delta)
    return np.where(delta <= window_size, 1.0 - delta / window_size, 0.0)


def shift_overlap(window_size: int, delta: int) -> float:
    """Inner product between the flat window and its delta-shifted copy."""
    if window_size < 1:
        raise ValueError("window_size must be at least 1")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return float(_overlap(window_size, delta))


def err_norm(shift: int, window_size: int) -> float:
    """Norm of the difference between the window and its shifted copy,
    sqrt(2 (1 - overlap)) for the unit vectors of both windows."""
    return math.sqrt(2.0 * (1.0 - shift_overlap(window_size, shift)))


def _window(center: float, n: int) -> tuple[int, int]:
    """The integers of [0, n] within sqrt(n) of ``center``, as (lo, hi)."""
    radius = math.sqrt(n)
    return max(0, math.ceil(center - radius)), min(n, math.floor(center + radius))


@dataclass(frozen=True)
class CoherentTarget:
    """n copies of rho = p |phi1><phi1| + (1-p) |phi2><phi2|.

    phi1 = a|0> + b|1> and phi2 = conj(b)|0> - conj(a)|1>, orthogonal for
    all complex amplitudes (and matching b|0> - a|1> in the real case).
    """

    a: complex
    b: complex
    p: float
    n: int

    def __post_init__(self):
        norm = abs(self.a) ** 2 + abs(self.b) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("amplitudes must satisfy |a|^2 + |b|^2 = 1")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.n < 1:
            raise ValueError("n must be at least 1")

    @property
    def phi1(self) -> np.ndarray:
        return np.array([self.a, self.b], dtype=complex)

    @property
    def phi2(self) -> np.ndarray:
        return np.array([np.conj(self.b), -np.conj(self.a)], dtype=complex)

    def mean_energy(self, k: int) -> float:
        """Average energy of Psi_{k,g} (k factors of phi1)."""
        return k * abs(self.b) ** 2 + (self.n - k) * abs(self.a) ** 2


@dataclass(frozen=True)
class SectorAnalysis:
    k: int
    weight: float                 # p_k times the number of arrangements
    surrogate_energy: int         # t_k
    typ_window: tuple[int, int]
    nu2_norm: float
    nu3_bound: float
    nu1_distance: float
    sector_bound: float           # on (1/2)||U in U' - Psi x H||_1


@dataclass(frozen=True)
class CoherentFormationReport:
    target: CoherentTarget
    frame: ReferenceFrame
    analytic_bound: float
    exact_trace_distance: float | None
    k_window: tuple[int, int]
    k_tail: float
    sectors: tuple[SectorAnalysis, ...]
    catalyst_fidelity: float | None


def _weight_distribution(target: CoherentTarget, k: int) -> np.ndarray:
    """Distribution of the total excitation number of Psi_{k,g} (exact
    convolution of Binomial(k, |b|^2) and Binomial(n-k, |a|^2))."""
    eb = min(abs(target.b) ** 2, 1.0)
    ea = min(abs(target.a) ** 2, 1.0)
    pmf1 = np.exp(binomial_log_pmf(k, eb, np.arange(k + 1)))
    pmf2 = np.exp(binomial_log_pmf(target.n - k, ea, np.arange(target.n - k + 1)))
    return np.convolve(pmf1, pmf2)


def _labels(n: int, ks: list[int], log_count: float) -> str:
    """Text of the label count sum C(n, k) over ``ks``, whose ln is
    ``log_count``: exact below 4,000 digits, a power of ten above them,
    since Python refuses to print an int past 4,300 digits."""
    if log_count < 4000 * math.log(10):
        return str(sum(math.comb(n, k) for k in ks))
    return f"about 10^{log_count / math.log(10):.4f}"


def _check_degeneracy(n: int, levels: dict[int, list[int]]) -> None:
    """Refuse an energy level whose C(n, level) labels are fewer than the
    sum of C(n, k) over its sectors ``ks``.

    Each level is decided by :func:`.counting.certify` on the float margin
    ln C(n, level) - ln sum C(n, k) at delta = :func:`.counting.margin_bound`
    (n), whose budget covers two ln C with top n and a log-sum of <= n + 1
    terms; a margin inside delta is decided in exact integers, where the tie
    C(n, k) = C(n, level) of a one-sector level cancels (:func:`.counting.products_leq`).
    """
    groups = list(levels.items())
    offered = [log_comb(n, level) for level in levels]
    needed = [log_sum_exp(log_comb(n, np.array(ks))) for ks in levels.values()]

    def holds(i: int) -> bool:
        level, ks = groups[i]
        needed = [(n, ks[0])] if len(ks) == 1 else [sum(math.comb(n, k) for k in ks)]
        return products_leq(needed, [(n, level)])

    bad = certify(np.subtract(offered, needed), margin_bound(n), holds)
    if bad is not None:
        level, ks = groups[bad]
        raise DegeneracyShortfallError(
            f"energy level {level} offers {_labels(n, [level], offered[bad])} labels "
            f"but {_labels(n, ks, needed[bad])} are needed")


def coherent_formation_error(target: CoherentTarget, exact: bool | None = None,
                             ) -> CoherentFormationReport:
    """Error analysis of forming rho^(n) from a diagonal surrogate plus frame.

    Analytic mode assembles the nu1/nu2/nu3 decomposition from exact window
    norms and binomial tails; exact mode (n <= 10) adds the true trace
    distance between the protocol output and rho^(n) (x) |H><H|, which must
    not exceed the analytic bound.
    """
    n = target.n
    if exact is None:
        exact = n <= 10
    if exact and n > 10:
        raise ValueError("exact mode supports n <= 10")

    frame = ReferenceFrame.for_formation(n)
    frame_n = frame.window_size

    k_lo, k_hi = _window(n * target.p, n)
    k_tail = binomial_outside_mass(n, target.p, (k_lo, k_hi))
    # Sector masses C(n, k) p^k (1-p)^(n-k) in logs, which hold at every n;
    # -inf exactly where p_k = 0 (k > 0 at p = 0, k < n at p = 1).
    log_weight = dict(zip(range(k_lo, k_hi + 1),
                          binomial_log_pmf(n, target.p, np.arange(k_lo, k_hi + 1)).tolist()))
    present = [k for k, value in log_weight.items() if value > -math.inf]

    # Degeneracy allocation for the surrogate eigenstates: every (k, g)
    # needs its own label within the energy level t_k.
    t_of = {k: round(target.mean_energy(k)) for k in range(k_lo, k_hi + 1)}
    levels: dict[int, list[int]] = {}
    for k in present:
        levels.setdefault(t_of[k], []).append(k)
    _check_degeneracy(n, levels)

    # Each sector weighs the squared frame-shift norm 2 (1 - overlap) of
    # every excitation number t' in its window by the pmf of t'.
    sectors = []
    analytic = 0.0
    for k in present:
        weight = math.exp(log_weight[k])
        t_k = t_of[k]
        typ_lo, typ_hi = _window(target.mean_energy(k), n)
        pmf = _weight_distribution(target, k)
        shift_sq = 2.0 * (1.0 - _overlap(frame_n, t_k - np.arange(typ_lo, typ_hi + 1)))
        nu2 = math.sqrt(pmf[typ_lo:typ_hi + 1] @ shift_sq)
        tail = pmf[:typ_lo].sum() + pmf[typ_hi + 1:].sum()
        nu1 = nu3 = math.sqrt(tail)
        sector_bound = min(1.0, math.sqrt(2.0) * (nu1 + nu2 + nu3))
        analytic += weight * sector_bound
        sectors.append(SectorAnalysis(
            k=k, weight=weight, surrogate_energy=t_k,
            typ_window=(typ_lo, typ_hi),
            nu2_norm=nu2, nu3_bound=nu3, nu1_distance=nu1,
            sector_bound=sector_bound,
        ))
    analytic += 0.5 * k_tail

    exact_distance = None
    catalyst_fidelity = None
    if exact:
        exact_distance, catalyst_fidelity = _exact_formation_error(
            target, frame_n, t_of, (k_lo, k_hi))

    return CoherentFormationReport(
        target=target,
        frame=frame,
        analytic_bound=analytic,
        exact_trace_distance=exact_distance,
        k_window=(k_lo, k_hi),
        k_tail=k_tail,
        sectors=tuple(sectors),
        catalyst_fidelity=catalyst_fidelity,
    )


def _exact_formation_error(target: CoherentTarget, frame_n: int, t_of: dict[int, int],
                           k_window: tuple[int, int]) -> tuple[float, float]:
    """True trace distance via the Gram spectrum of the involved vectors.

    The protocol output Sum p_k u u+ and the target Sum p_k v v+ (v = Psi
    (x) H) live in the span of the u and v vectors; nonzero eigenvalues of
    the difference equal those of G C with G the Gram matrix.  Each sum
    runs in a fixed order (strings ascending within each excitation number,
    excitation numbers ascending), the order of the entry-by-entry
    reference in the tests, which G C matches byte for byte.

    The phases of a and b are gauged away first, so every entry of G C
    has an imaginary part of exactly zero, and its real part, signs of zero
    included, goes to LAPACK's real solver (dgeev).  The mixed block is
    summed in float64, which gives its complex entries bit for bit.  The
    rest stays complex: the inner block (zdotc) and G C = G diag(coeff)
    (zgemm).  The spectrum of this non-Hermitian, rank-deficient G C moves
    with the last bits and signs of zero of its entries, and the pinned
    benchmark distances hold to 1e-9 only with these.  A real inner block
    (ddot) sums in another order, and a real G times diag(coeff) (dgemm)
    or an elementwise product changes signs of zero; real arithmetic
    throughout moves the n = 4 distance by 3.8e-9.
    """
    # The free energy-preserving phase diag(e^{-i arg a}, e^{-i arg b}) on
    # every copy maps phi1 to the modulus twin's phi1 and phi2 to a global
    # phase times the twin's phi2.  Its n-fold power is one phase on each
    # excitation number, so it commutes with the frame coupling and maps
    # every u and v vector to the twin's up to a global phase: the trace
    # distance and the catalyst fidelity are the twin's.
    target = CoherentTarget(abs(target.a), abs(target.b), target.p, target.n)
    n = target.n
    k_lo, k_hi = k_window
    p_k = [(target.p ** k) * ((1 - target.p) ** (n - k)) for k in range(n + 1)]

    # One row psi_g = pi_g phi1^k phi2^(n-k) per arrangement g (the
    # positions carrying phi1), built as a kron chain one position at a time.
    arrangements = [(k, g) for k in range(n + 1) if p_k[k] != 0.0
                    for g in combinations(range(n), k)]
    ks = np.array([k for k, _ in arrangements])
    carries = np.array([[pos in g for pos in range(n)] for _, g in arrangements], dtype=bool)
    psi = np.ones((len(arrangements), 1), dtype=complex)
    for pos in range(n):
        factor = np.where(carries[:, pos, None], target.phi1, target.phi2)
        psi = (psi[:, :, None] * factor[:, None, :]).reshape(len(arrangements), -1)

    typical = (k_lo <= ks) & (ks <= k_hi)
    t_typ = np.array([t_of[k] for k in ks[typical]])

    # Inner products: <v_i | v_j> = <psi_i | psi_j>;  <u_i | u_j> =
    # overlap(t_ki - t_kj) <psi_i | psi_j>;  <v_j | u_i> resolves by the
    # excitation number w of each computational component, with u_i's frame
    # overlap frame_w[i, w] against the padding level w.  One vecdot call
    # runs the same BLAS zdotc per pair as np.vdot.
    inner = np.vecdot(psi[:, None, :], psi[None, :, :])
    frame_w = _overlap(frame_n, t_typ[:, None] - np.arange(n + 1)[None, :])
    # The mixed block from x-major copies (string x's amplitudes in one
    # contiguous row).  The real part of each complex product is a * b
    # exactly (its imaginary terms are signed zeros), and float64 einsum
    # adds the strings one at a time in ascending x within each weight,
    # without a fused multiply-add, as the reference does; the weights add
    # in ascending w.  A spare zero column on the typical operand keeps a
    # single arrangement (p = 0 or 1) off the dot kernel einsum takes for a
    # 1 x 1 block, which sums in another order.
    excitations = np.bitwise_count(np.arange(2 ** n))
    by_weight = [np.flatnonzero(excitations == w) for w in range(n + 1)]
    conj_x = np.ascontiguousarray(psi.real.T)
    typ_x = np.zeros((len(conj_x), len(t_typ) + 1))
    typ_x[:, :-1] = conj_x[:, typical]
    mixed = np.zeros((len(psi), len(t_typ)))
    for w, strings in enumerate(by_weight):
        sums = np.einsum("xi,xj->ij", conj_x[strings], typ_x[strings], optimize=False)
        mixed += frame_w[:, w] * sums[:, :-1]
    mixed = mixed.astype(complex)
    del conj_x
    prob_x = typ_x[:, :-1] ** 2
    fidelity_k = np.zeros(len(t_typ))
    for w, strings in enumerate(by_weight):
        probs = np.cumsum(prob_x[strings], axis=0)[-1]
        fidelity_k = fidelity_k + probs * frame_w[:, w] ** 2

    gram = np.block([
        [_overlap(frame_n, t_typ[:, None] - t_typ[None, :]) * inner[np.ix_(typical, typical)],
         mixed.conj().T],
        [mixed, inner],
    ])
    weights = np.array(p_k)[ks]
    coeff = np.concatenate([weights[typical], -weights])
    # Not gram * coeff: that has the same values but other signs of zero,
    # which LAPACK's reflectors read (2e-7 relative on one spectrum).
    matrix = gram @ np.diag(coeff)
    del gram
    evals = np.linalg.eigvals(np.ascontiguousarray(matrix.real))
    distance = 0.5 * float(np.abs(evals.real).sum())

    # Frame catalyst fidelity <H| Tr_sys(rho_out) |H>, summed over the
    # typical arrangements in order.
    fidelity = float(np.cumsum(weights[typical] * fidelity_k)[-1])
    return distance, fidelity

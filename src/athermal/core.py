"""States, Hamiltonians, Gibbs states, entropic quantities and resource monotones.

Everything is finite-dimensional and expressed in nats (k_B = 1, so the
inverse temperature beta carries all dimensional content).  Support
violations of the relative entropy return math.inf rather than raising,
because downstream rate logic needs to propagate the sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Hamiltonian",
    "QuasiclassicalState",
    "DensityMatrix",
    "GibbsState",
    "FreeTargetError",
    "gibbs_state",
    "gibbs_weight",
    "binary_entropy",
    "von_neumann_entropy",
    "relative_entropy",
    "free_energy",
    "interconversion_rate",
    "reversed_monotone",
    "trace_distance",
    "continuity_bound_check",
    "ContinuityReport",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIG_CLAMP = 1e-12


class FreeTargetError(ZeroDivisionError):
    """Raised when an interconversion target is the Gibbs state itself."""


@dataclass(frozen=True)
class Hamiltonian:
    """Diagonal Hamiltonian given by its energy levels (length >= 2)."""

    energies: tuple[float, ...]

    def __post_init__(self):
        energies = tuple(float(e) for e in self.energies)
        object.__setattr__(self, "energies", energies)
        if len(energies) < 2:
            raise ValueError("need at least two energy levels")
        if not all(math.isfinite(e) for e in energies):
            raise ValueError("energies must be finite")

    @classmethod
    def two_level(cls, gap: float = 1.0) -> "Hamiltonian":
        if not (gap > 0 and math.isfinite(gap)):
            raise ValueError("gap must be positive and finite")
        return cls((0.0, gap))

    @property
    def dim(self) -> int:
        return len(self.energies)

    @property
    def e_max(self) -> float:
        return max(self.energies)

    def matrix(self) -> np.ndarray:
        return np.diag(np.asarray(self.energies, dtype=float))


@dataclass(frozen=True)
class QuasiclassicalState:
    """Probability vector over the energy levels of a diagonal Hamiltonian.

    Commutes with its Hamiltonian by construction.
    """

    probs: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if any(p < -EIG_CLAMP or p > 1 + EIG_CLAMP for p in probs):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")

    @classmethod
    def two_level(cls, p: float) -> "QuasiclassicalState":
        return cls((1.0 - p, p))

    @property
    def dim(self) -> int:
        return len(self.probs)

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(np.diag(np.asarray(self.probs, dtype=complex)))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace complex matrix."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-10 or abs(np.trace(m).imag) > 1e-10:
            raise ValueError("trace must equal 1")
        evals = np.linalg.eigvalsh(m)
        if evals.min() < -1e-10:
            raise ValueError(f"matrix is not PSD (min eigenvalue {evals.min():g})")

    @classmethod
    def pure(cls, vector) -> "DensityMatrix":
        v = np.asarray(vector, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def diagonal(cls, probs) -> "DensityMatrix":
        return cls(np.diag(np.asarray(probs, dtype=complex)))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (clamped into [0, 1]) and eigenvectors."""
        evals, evecs = np.linalg.eigh(self.entries)
        return np.clip(evals, 0.0, None), evecs

    def expectation(self, operator: np.ndarray) -> float:
        return float(np.trace(self.entries @ operator).real)


@dataclass(frozen=True)
class GibbsState:
    """Thermal state exp(-beta H)/Z of a diagonal Hamiltonian."""

    beta: float
    hamiltonian: Hamiltonian
    probs: QuasiclassicalState
    partition_function: float

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    def density_matrix(self) -> DensityMatrix:
        return self.probs.density_matrix()

    @property
    def q(self) -> float:
        """Excited-level weight in the two-level case."""
        if self.dim != 2:
            raise ValueError("q is only defined for two-level systems")
        return self.probs.probs[1]


def gibbs_state(hamiltonian: Hamiltonian, beta: float) -> GibbsState:
    """Normalized Boltzmann weights at inverse temperature beta.

    beta = 0 is accepted as the infinite-temperature (uniform) limit and
    beta = +inf as the ground-state limit (uniform over the minimal-energy
    levels).  Any other non-finite beta, or a negative one, is rejected.
    """
    if isinstance(beta, float) and math.isnan(beta):
        raise ValueError("beta must not be NaN")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    energies = np.asarray(hamiltonian.energies, dtype=float)
    if math.isinf(beta):
        ground = energies == energies.min()
        weights = ground.astype(float)
        z = float(weights.sum())
    else:
        # Shift by the ground energy for numerical stability; Z is reported
        # in the unshifted convention.
        shifted = np.exp(-beta * (energies - energies.min()))
        z = float(np.exp(-beta * energies.min()) * shifted.sum())
        weights = shifted
    probs = weights / weights.sum()
    return GibbsState(
        beta=float(beta),
        hamiltonian=hamiltonian,
        probs=QuasiclassicalState(tuple(probs)),
        partition_function=z,
    )


def gibbs_weight(beta: float) -> float:
    """Excited-level weight q = e^(-beta) / (1 + e^(-beta)) of the unit-gap
    two-level Gibbs state.

    Plan windows are floor/ceil of q-dependent floats, so this exact
    expression is kept (``expit(-beta)`` may differ in the last ulp).
    """
    return math.exp(-beta) / (1.0 + math.exp(-beta))


def binary_entropy(p: float) -> float:
    """h(p) = -p ln p - (1-p) ln(1-p), in nats."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def _entropy_from_evals(evals: np.ndarray) -> float:
    evals = evals[evals > 0]
    return float(-(evals * np.log(evals)).sum())


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -Tr[rho ln rho] in nats, with the 0 ln 0 = 0 convention."""
    evals, _ = rho.eigensystem()
    return _entropy_from_evals(evals)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix,
                     support_tol: float = 1e-10) -> float:
    """Quantum relative entropy D(rho||sigma) = Tr[rho(ln rho - ln sigma)] in nats.

    Returns math.inf when the support of rho is not contained in the
    support of sigma.
    """
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    r_evals, r_vecs = rho.eigensystem()
    s_evals, s_vecs = sigma.eigensystem()

    # Support check: weight of rho on the kernel of sigma.
    kernel = s_evals <= EIG_CLAMP
    if kernel.any():
        overlap = np.einsum(
            "ij,jk,ki->i",
            s_vecs[:, kernel].conj().T,
            rho.entries,
            s_vecs[:, kernel],
        ).real
        if overlap.sum() > support_tol:
            return math.inf

    term1 = -_entropy_from_evals(r_evals)
    # Tr[rho ln sigma] over the support of sigma.
    log_s = np.where(s_evals > EIG_CLAMP, np.log(np.clip(s_evals, EIG_CLAMP, None)), 0.0)
    weights = np.einsum(
        "ij,jk,ki->i", s_vecs.conj().T, rho.entries, s_vecs
    ).real
    term2 = float((weights * log_s).sum())
    return max(term1 - term2, 0.0)


def free_energy(rho: DensityMatrix, hamiltonian: Hamiltonian, beta: float) -> float:
    """F_beta(rho) = <H> - S(rho)/beta (k_B = 1), in energy units.

    Satisfies D(rho||gamma) = beta (F(rho) - F(gamma)).
    """
    if not (beta > 0 and math.isfinite(beta)):
        raise ValueError("beta must be positive and finite")
    if rho.dim != hamiltonian.dim:
        raise ValueError("dimension mismatch")
    energy = rho.expectation(hamiltonian.matrix())
    return energy - von_neumann_entropy(rho) / beta


def interconversion_rate(rho: DensityMatrix, sigma: DensityMatrix,
                         gamma: GibbsState) -> float:
    """Optimal asymptotic rate D(rho||gamma) / D(sigma||gamma).

    Raises FreeTargetError when sigma equals the Gibbs state (the target
    would be free and the rate diverges / is ill-defined).
    """
    gamma_dm = gamma.density_matrix()
    denom = relative_entropy(sigma, gamma_dm)
    if denom < 1e-13:
        raise FreeTargetError("target state is free (equals the Gibbs state)")
    num = relative_entropy(rho, gamma_dm)
    if num == math.inf and denom == math.inf:
        return 1.0 if np.allclose(rho.entries, sigma.entries) else math.nan
    return num / denom


def reversed_monotone(rho: DensityMatrix, gamma: GibbsState) -> float:
    """D(gamma||rho), a monotone that is not asymptotically continuous.

    Returns math.inf when rho is not full rank on the support of gamma.
    """
    return relative_entropy(gamma.density_matrix(), rho)


def trace_distance(rho: DensityMatrix | np.ndarray, sigma: DensityMatrix | np.ndarray) -> float:
    """(1/2) ||rho - sigma||_1."""
    a = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho)
    b = sigma.entries if isinstance(sigma, DensityMatrix) else np.asarray(sigma)
    evals = np.linalg.eigvalsh(a - b)
    return 0.5 * float(np.abs(evals).sum())


@dataclass(frozen=True)
class ContinuityReport:
    holds: bool
    lhs: float                 # |f(rho1) - f(rho2)|, nats
    trace_norm: float          # ||rho1 - rho2||_1, dimensionless
    rhs: float                 # M * trace_norm * ln d + 4c, nats
    m_constant: float
    c_constant: float


def continuity_bound_check(rho1: DensityMatrix, rho2: DensityMatrix,
                           gamma: GibbsState, m_constant: float,
                           c_constant: float = math.log(2)) -> ContinuityReport:
    """Check |D(rho1||g) - D(rho2||g)| <= M ||rho1 - rho2||_1 ln d + 4c.

    M should be derived from the extensivity of energy (E_max <= K ln d
    gives M = beta K + 1) and c = ln 2 converts the single-bit affinity
    defect to nats.
    """
    gamma_dm = gamma.density_matrix()
    f1 = relative_entropy(rho1, gamma_dm)
    f2 = relative_entropy(rho2, gamma_dm)
    lhs = abs(f1 - f2)
    tnorm = 2.0 * trace_distance(rho1, rho2)
    rhs = m_constant * tnorm * math.log(gamma.dim) + 4.0 * c_constant
    return ContinuityReport(
        holds=bool(lhs <= rhs + 1e-9),
        lhs=lhs,
        trace_norm=tnorm,
        rhs=rhs,
        m_constant=m_constant,
        c_constant=c_constant,
    )


def continuity_constant(hamiltonian: Hamiltonian, beta: float) -> float:
    """The M of the asymptotic-continuity bound, from E_max <= K ln d."""
    k = hamiltonian.e_max / math.log(hamiltonian.dim)
    return beta * k + 1.0

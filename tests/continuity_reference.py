"""Asymptotic continuity of the relative entropy to a Gibbs state.

|D(rho1||gamma) - D(rho2||gamma)| <= M ||rho1 - rho2||_1 ln d + 4c is a
property the tests check of :func:`athermal.core.relative_entropy`, and
D(gamma||rho) is the monotone that lacks it; no planner reads either.
Nothing here is imported by ``athermal``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from athermal.core import DensityMatrix, GibbsState, Hamiltonian, relative_entropy, trace_distance


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


def reversed_monotone(rho: DensityMatrix, gamma: GibbsState) -> float:
    """D(gamma||rho), a monotone that is not asymptotically continuous.

    Returns math.inf when rho is not full rank on the support of gamma.
    """
    return relative_entropy(gamma.density_matrix(), rho)


def continuity_constant(hamiltonian: Hamiltonian, beta: float) -> float:
    """The M of the asymptotic-continuity bound, from E_max <= K ln d."""
    k = hamiltonian.e_max / math.log(hamiltonian.dim)
    return beta * k + 1.0

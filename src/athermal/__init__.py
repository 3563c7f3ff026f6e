"""Desk-scale toolkit for the resource theory of athermal states.

Exact finite-size distillation and formation protocols via the method of
types, interconversion-rate formulas, d-level work extraction, coherent
reference frames, and brute-force verification engines.
"""

from .core import (
    DensityMatrix,
    FreeTargetError,
    GibbsState,
    Hamiltonian,
    binary_entropy,
    free_energy,
    gibbs_state,
    interconversion_rate,
    relative_entropy,
    trace_distance,
    von_neumann_entropy,
)
from .distill import plan_distillation, plan_distillation_general, rate_limit, solve_single_type
from .form import birkhoff_partition, plan_formation

__version__ = "0.1.0"

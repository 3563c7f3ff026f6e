"""Acceptance suite: one test per criterion, each printing a verdict line.

Criteria 1-6, 8 and 9 pass as stated.  Criterion 7's monotone-decrease
clause is exercised faithfully and fails: with the pinned frame-window
formula 2 ceil(n^(2/3)) + 1, the window plateaus between n = 6 and n = 8
while the energy spread keeps growing, so the exact error rises at n = 8
(measured 0.4503, 0.4444, 0.4778, 0.4596).  See the decisions ledger.
"""

import math
import time

import numpy as np
import pytest

from athermal.coherent import CoherentTarget, ReferenceFrame, coherent_formation_error, shift_overlap
from athermal.core import (
    DensityMatrix,
    Hamiltonian,
    binary_entropy,
    gibbs_state,
    relative_entropy,
)
from athermal.distill import plan_distillation, rate_limit, solve_single_type
from athermal.form import plan_formation
from athermal.multilevel import max_work
from athermal.simulate import (
    execute_plan_quantum,
    exhaust_analysis,
    oracle_max_m,
)
from conftest import random_density, random_hamiltonian
from continuity_reference import continuity_bound_check, continuity_constant
from strings_reference import state_vector


def verdict(index: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {index}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_rate_formula_identity():
    """Closed form of the achievable rate equals the relative-entropy ratio
    to 1e-12 on a 20 x 20 (p, beta) grid, in under a second."""
    start = time.time()
    worst = 0.0
    one = DensityMatrix.diagonal([0.0, 1.0])
    for p in np.linspace(0.05, 0.95, 20):
        for beta in np.linspace(0.1, 5.0, 20):
            gamma = gibbs_state(Hamiltonian.two_level(), float(beta))
            rho = DensityMatrix.diagonal([1 - p, p])
            ratio = (relative_entropy(rho, gamma.density_matrix())
                     / relative_entropy(one, gamma.density_matrix()))
            worst = max(worst, abs(ratio - rate_limit(float(p), float(beta))))
    elapsed = time.time() - start
    verdict(1, worst <= 1e-12 and elapsed < 1.0,
            f"max deviation {worst:.2e} over 400 grid points in {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    """solve_single_type agrees with the brute-force oracle on the full
    exhaustive grid ell, n <= 12 (all one-counts), in under a minute."""
    start = time.time()
    cases = 0
    mismatches = []
    for ell in range(13):
        for n in range(13):
            for g in range(ell + 1):
                for r in range(n + 1):
                    cases += 1
                    solved = solve_single_type(ell, g, n, r)
                    witnessed = oracle_max_m(ell, g, n, r)
                    if solved != witnessed:
                        mismatches.append((ell, g, n, r, solved, witnessed))
    elapsed = time.time() - start
    verdict(2, not mismatches and elapsed < 60.0,
            f"{cases} cases, {len(mismatches)} mismatches, {elapsed:.1f}s")


def test_criterion_3_finite_size_convergence():
    """At (p, beta) = (0.75, 1): the rate deficit is positive, strictly
    decreasing over n in {1e2, 1e3, 1e4, 1e5}, and below 5% of the limit
    at n = 1e5, within five minutes of log-gamma counting."""
    start = time.time()
    deficits = []
    r_lim = rate_limit(0.75, 1.0)
    for n in (100, 1000, 10_000, 100_000):
        plan = plan_distillation(n, 0.75, 1.0)
        assert plan.ell == math.ceil((r_lim * n) ** 1.5)
        deficits.append(r_lim - plan.achieved_rate)
    elapsed = time.time() - start
    ok = (all(d > 0 for d in deficits)
          and all(a > b for a, b in zip(deficits, deficits[1:]))
          and deficits[-1] < 0.05 * r_lim
          and elapsed < 300.0)
    verdict(3, ok, f"deficits {[round(d, 5) for d in deficits]} "
                   f"(final {deficits[-1] / r_lim:.1%} of limit) in {elapsed:.1f}s")


def test_criterion_4_reversibility():
    """Formation cost rate times distillation rate climbs toward 1 along the
    n-grid and lands in [0.85, 1.0] at n = 1e4.

    Run at window width 1.5: the criterion leaves the width free, and at the
    default width 3 the n = 1e4 product is honestly ~0.75 (see ledger).
    """
    width = 1.5
    products = []
    for n in (100, 1000, 10_000):
        pf = plan_formation(n, 0.75, 1.0, width)
        pd = plan_distillation(n, 0.75, 1.0, width)
        # cost_rate = copies per consumed excited qubit -> 1/R;
        # the product equals recovered work over invested work.
        products.append(pd.achieved_rate * pf.cost_rate)
    ok = (all(a < b for a, b in zip(products, products[1:]))
          and 0.85 <= products[-1] <= 1.0)
    verdict(4, ok, f"products {[round(x, 4) for x in products]} at width {width}")


QUANTUM_INSTANCES = [(2, 1.0, 3.0), (3, 1.0, 3.0), (4, 0.95, 0.75), (5, 0.95, 0.75)]


@pytest.mark.parametrize("n,p,width", QUANTUM_INSTANCES)
def test_criterion_5_exact_quantum_legality(n, p, width):
    """Every plan with <= 14 total qubits yields a permutation commuting
    exactly with H_tot, a trace-preserving channel, and a work register
    within failure_mass of the pure excited target."""
    start = time.time()
    plan = plan_distillation(n, p, 1.0, width)
    assert plan.ell + plan.n <= 14
    report = execute_plan_quantum(plan)
    elapsed = time.time() - start
    ok = (report.commutator_nonzeros == 0
          and report.trace_preserved
          and report.work_trace_distance <= plan.failure_mass + 1e-12
          and elapsed < 120.0)
    verdict(5, ok, f"(n={n}, p={p}): commutator nnz {report.commutator_nonzeros}, "
                   f"work distance {report.work_trace_distance:.4f} <= "
                   f"failure {plan.failure_mass:.4f}, {elapsed:.1f}s")


def test_criterion_6_exhaust_structure():
    """Single-system exhaust reductions respect the Pinsker bound and their
    relative entropy per system decreases along an instance-size grid of
    genuinely extracting plans."""
    per_system = []
    pinsker_ok = True
    for n in (4, 5, 6):
        plan = plan_distillation(n, 0.95, 1.0, width=0.75)
        assert plan.m >= 1
        report = exhaust_analysis(plan)
        pinsker_ok &= all(
            measured <= bound + 1e-9
            for measured, bound in zip(report.measured_trace_distances,
                                       report.pinsker_bounds))
        pinsker_ok &= report.subadditivity_holds
        per_system.append(report.per_system_rel_entropy)
    decreasing = all(a > b for a, b in zip(per_system, per_system[1:]))
    verdict(6, pinsker_ok and decreasing,
            f"per-system D {[round(d, 5) for d in per_system]}, pinsker everywhere")


def test_criterion_7a_shift_overlap_exact():
    """shift_overlap matches the explicit state-vector inner product for
    every window size N <= 64 and every shift."""
    worst = 0.0
    for n_window in range(1, 65):
        frame = ReferenceFrame(window_size=n_window, window_start=n_window,
                               num_levels=3 * n_window)
        base = state_vector(frame, 0)
        for delta in range(n_window + 1):
            exact = float(base @ state_vector(frame, delta))
            worst = max(worst, abs(exact - shift_overlap(n_window, delta)))
    verdict(7, worst < 1e-12, f"(a) overlap max deviation {worst:.2e} for N <= 64")


COHERENT_GRID = (4, 6, 8, 10)


def _coherent_errors():
    inv = 1 / math.sqrt(2)
    reports = [coherent_formation_error(CoherentTarget(a=inv, b=inv, p=1.0, n=n))
               for n in COHERENT_GRID]
    return reports


def test_criterion_7b_exact_below_analytic_bound():
    """Exact trace distance never exceeds the nu-decomposition bound."""
    reports = _coherent_errors()
    ok = all(r.exact_trace_distance <= r.analytic_bound + 1e-12 for r in reports)
    verdict(7, ok, "(b) exact error below the analytic bound at n in "
                   f"{COHERENT_GRID}")


def test_criterion_7c_error_decreasing():
    """Exact formation error decreasing over n in {4, 6, 8, 10}.

    Fails by construction of the protocol itself: the frame window
    2 ceil(n^(2/3)) + 1 is identical at n = 6 and n = 8 (9 levels) while
    the typical energy spread sqrt(n) keeps growing, so the error rises at
    n = 8.  Recorded as a spec/paper defect in the decisions ledger; the
    assertion is kept as stated rather than weakened.
    """
    reports = _coherent_errors()
    errors = [r.exact_trace_distance for r in reports]
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    verdict(7, decreasing,
            f"(c) exact errors {[round(e, 4) for e in errors]} at n in {COHERENT_GRID}; "
            f"window sizes {[r.frame.window_size for r in reports]}")


def test_criterion_8_monotone_properties():
    """Affinity gap, subextensivity, additivity, and the asymptotic
    continuity inequality: 10^4 random instances at d <= 16, zero
    violations, under a minute."""
    start = time.time()
    rng = np.random.default_rng(7)
    violations = 0

    for _ in range(2500):  # affinity gap
        d = int(rng.integers(2, 17))
        gamma = gibbs_state(random_hamiltonian(rng, d), float(rng.uniform(0.2, 3.0)))
        gdm = gamma.density_matrix()
        rho, sigma = random_density(rng, d), random_density(rng, d)
        p = float(rng.uniform(0, 1))
        mix = DensityMatrix(p * rho.entries + (1 - p) * sigma.entries)
        gap = (p * relative_entropy(rho, gdm) + (1 - p) * relative_entropy(sigma, gdm)
               - relative_entropy(mix, gdm))
        if not -1e-9 <= gap <= binary_entropy(p) + 1e-9:
            violations += 1

    for _ in range(2500):  # subextensivity
        d = int(rng.integers(2, 17))
        h = random_hamiltonian(rng, d)
        beta = float(rng.uniform(0.2, 3.0))
        gamma = gibbs_state(h, beta)
        top = np.zeros(d)
        top[int(np.argmax(h.energies))] = 1.0
        value = relative_entropy(DensityMatrix.diagonal(top), gamma.density_matrix())
        if value > beta * h.e_max + math.log(d) + 1e-9:
            violations += 1

    for _ in range(2500):  # additivity
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        rho1, rho2 = random_density(rng, d1), random_density(rng, d2)
        sig1, sig2 = random_density(rng, d1), random_density(rng, d2)
        joint = relative_entropy(DensityMatrix(np.kron(rho1.entries, rho2.entries)),
                                 DensityMatrix(np.kron(sig1.entries, sig2.entries)))
        parts = relative_entropy(rho1, sig1) + relative_entropy(rho2, sig2)
        if abs(joint - parts) > 1e-9:
            violations += 1

    for _ in range(2500):  # asymptotic continuity inequality
        d = int(rng.integers(2, 17))
        h = random_hamiltonian(rng, d)
        beta = float(rng.uniform(0.2, 3.0))
        gamma = gibbs_state(h, beta)
        report = continuity_bound_check(random_density(rng, d), random_density(rng, d),
                                        gamma, continuity_constant(h, beta))
        if not report.holds:
            violations += 1

    elapsed = time.time() - start
    verdict(8, violations == 0 and elapsed < 60.0,
            f"10^4 instances, {violations} violations, {elapsed:.1f}s")


def test_criterion_9_d_level_work():
    """Pure top level of H = (0, 1, 2) at beta = 1: the per-copy work at
    n = 1e4 reaches 95% of (1/beta)(beta E_max + ln Z) = 2.4076 and never
    exceeds it."""
    h3 = Hamiltonian((0.0, 1.0, 2.0))
    z = 1 + math.exp(-1) + math.exp(-2)
    bound = 2.0 + math.log(z)
    assert bound == pytest.approx(2.4076, abs=1e-4)
    n = 10_000
    ell = math.ceil((bound * n) ** 1.5)
    ledger = max_work((0.0, 0.0, 1.0), h3, 1.0, n, ell)
    ok = 0.95 * bound <= ledger.per_copy <= bound + 1e-9
    verdict(9, ok, f"per-copy work {ledger.per_copy:.5f} vs bound {bound:.5f} "
                   f"({ledger.per_copy / bound:.2%})")

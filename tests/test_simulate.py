import dataclasses
import math
import random
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from athermal import simulate
from athermal.core import gibbs_weight
from athermal.distill import DistillationPlan, PerTypeRecord, plan_distillation, solve_single_type
from athermal.form import plan_formation
from athermal.simulate import (
    QUANTUM_MAX_QUBITS,
    UnsupportedSizeError,
    execute_plan_classical,
    execute_plan_quantum,
    exhaust_analysis,
    formation_input_distribution,
    oracle_max_m,
    thermal_input_distribution,
)
from strings_reference import (
    WorkBalanceError,
    permutation_unitary,
    reference_oracle_max_m,
    string_distribution,
    work_balance_audit,
)

Q1 = math.exp(-1) / (1 + math.exp(-1))


def reference_plan() -> DistillationPlan:
    """Hand-built plan for the reference instance ell=4, g=1, n=2, r=2."""
    record = PerTypeRecord(1, 2, 1, 2, math.log(4), math.log(4))
    return DistillationPlan(
        n=2, ell=4, m=2, k=4, p=1.0, beta=1.0, width=0.5,
        failure_mass=1 - 4 * Q1 * (1 - Q1) ** 3,
        achieved_rate=1.0, epsilon=0.5, r_limit=1.0,
        worst_type=record, gibbs_window=(1, 1), resource_window=(2, 2),
        num_composite_types=1,
    )


class TestOracle:
    def test_reference_instance(self):
        assert oracle_max_m(4, 1, 2, 2) == 2

    def test_no_ones_no_work(self):
        assert oracle_max_m(5, 0, 3, 0) == 0

    def test_matches_solver_enumerated_regime(self):
        for ell in range(0, 6):
            for n in range(0, 6):
                for g in range(ell + 1):
                    for r in range(n + 1):
                        assert oracle_max_m(ell, g, n, r) == solve_single_type(ell, g, n, r)

    def test_pascal_regime_consistent(self):
        # Past 14 qubits, where the tuple reference stops enumerating, too.
        for (ell, g, n, r) in [(10, 3, 6, 4), (12, 5, 5, 3), (9, 2, 8, 6)]:
            assert oracle_max_m(ell, g, n, r) == solve_single_type(ell, g, n, r)

    def test_size_cap(self):
        with pytest.raises(UnsupportedSizeError):
            oracle_max_m(20, 5, 10, 5)

    def test_matches_tuple_reference_where_enumerated(self):
        for total in range(15):
            for ell in range(total + 1):
                n = total - ell
                for g in range(ell + 1):
                    for r in range(n + 1):
                        assert oracle_max_m(ell, g, n, r) == reference_oracle_max_m(ell, g, n, r)

    def test_matches_tuple_reference_to_24(self):
        rng = random.Random(0)
        for _ in range(300):
            total = rng.randint(1, 24)
            ell = rng.randint(0, total)
            g, r = rng.randint(0, ell), rng.randint(0, total - ell)
            assert oracle_max_m(ell, g, total - ell, r) \
                == reference_oracle_max_m(ell, g, total - ell, r)

    def test_popcounts_are_signed_string_weights(self):
        # Signed, since the executors subtract m from sums of them.
        for length in (0, 1, 9):
            weights = simulate._popcounts(length)
            assert weights.dtype == np.int64
            assert weights.tolist() == [bin(x).count("1") for x in range(2 ** length)]


class TestStringDistribution:
    def test_exact_normalization(self):
        string_distribution(2, {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
        with pytest.raises(ValueError):
            string_distribution(2, {(0, 0): Fraction(1, 3)})

    def test_floats_taken_as_exact(self):
        # 0.25 and 0.75 are exact binary fractions; 0.1 and 0.9 are not, and
        # their exact values sum to 1 + 2^-55.
        dist = string_distribution(1, {(0,): 0.25, (1,): 0.75})
        assert dist.probs == {(0,): Fraction(1, 4), (1,): Fraction(3, 4)}
        assert all(type(mass) is Fraction for mass in dist.probs.values())
        with pytest.raises(ValueError, match="floats are taken as the exact"):
            string_distribution(1, {(0,): 0.1, (1,): 0.9})

    def test_marginal(self):
        dist = string_distribution(2, {(0, 1): Fraction(1, 4), (1, 1): Fraction(3, 4)})
        assert dist.marginal([1]) == {(1,): Fraction(1)}

    def test_marginal_equals_per_string_fractions(self):
        # Strings of one type share a weight, and marginal builds one
        # Fraction per distinct weight; the result must equal one Fraction
        # per support string exactly, for the full and a permuted marginal.
        dist = formation_input_distribution(plan_formation(3, 0.8, 1.0, width=1.0))
        for positions in (list(range(dist.length)), [2, 0, 1]):
            weights = dist.marginal_weights(positions)
            expected = {tuple(int(c) for c in format(x, f"0{len(positions)}b")):
                        Fraction(int(w), dist.denominator)
                        for x, w in enumerate(weights) if w}
            got = dist.marginal(positions)
            assert len(set(got.values())) < len(got)
            assert got == expected and list(got) == list(expected)
            assert all(type(mass) is Fraction for mass in got.values())

    def test_thermal_input_is_exact(self):
        plan = plan_distillation(2, 0.75, 1.0, width=1.0)
        dist = thermal_input_distribution(plan)
        assert all(type(mass) is Fraction for mass in dist.probs.values())
        assert sum(dist.probs.values()) == Fraction(1)


class TestClassicalExecution:
    def test_identity_plan_returns_input(self):
        # A Gibbs-input plan (no resource) permutes nothing.
        plan = plan_distillation(4, Q1, 1.0)
        dist = thermal_input_distribution(plan)
        report = execute_plan_classical(plan, dist)
        assert report.output.probs == dist.probs

    def test_reference_plan_work_register(self):
        # Conditioned on the covered composite type, the work register is
        # exactly |11>.
        plan = reference_plan()
        strings = {}
        weight = Fraction(1, 4 * 1)
        from itertools import combinations
        for pos in combinations(range(4), 1):
            bath = tuple(1 if i in pos else 0 for i in range(4))
            strings[bath + (1, 1)] = weight
        report = execute_plan_classical(plan, string_distribution(6, strings))
        assert report.work_marginal == {(1, 1): Fraction(1)}
        assert report.routed_failure_mass == 0

    def test_probability_conservation_exact(self):
        plan = plan_distillation(3, 0.9, 1.0, width=1.0)
        report = execute_plan_classical(plan, thermal_input_distribution(plan))
        assert sum(report.output.probs.values()) == Fraction(1)

    def test_work_marginal_success_probability(self):
        plan = plan_distillation(4, 0.95, 1.0, width=0.75)
        assert plan.m >= 1
        report = execute_plan_classical(plan, thermal_input_distribution(plan))
        success = report.work_marginal.get((1,) * plan.m, Fraction(0))
        assert float(success) >= 1 - plan.failure_mass - 1e-9

    def test_ones_conserved_on_every_trajectory(self):
        plan = plan_distillation(4, 0.9, 1.0, width=1.5)
        report = execute_plan_classical(plan, thermal_input_distribution(plan))
        for src, dst in report.trajectories:
            assert sum(src) == sum(dst)


class TestFormationExecution:
    def test_round_trip_distribution(self):
        plan = plan_formation(3, 0.8, 1.0, width=1.0)
        report = execute_plan_classical(plan, formation_input_distribution(plan))
        # Output marginal over the n target systems approximates rho^(x n).
        marg = report.output.marginal(range(plan.n))
        p_hat = sum(float(prob) * sum(bits) / plan.n for bits, prob in marg.items())
        assert p_hat == pytest.approx(0.8, abs=0.1)

    def test_balance_audit(self):
        plan = plan_formation(3, 0.8, 1.0, width=1.0)
        report = execute_plan_classical(plan, formation_input_distribution(plan))
        assert work_balance_audit(plan, report)["balanced"]

    @pytest.mark.parametrize("n,width", [(2, 3.0), (8, 1.0)])
    def test_free_target_is_identity(self, n, width):
        # A free target covers only the identity pairs (t, t): every covered
        # string is its own image, and the rest is routed unchanged.
        plan = plan_formation(n, Q1, 1.0, width)
        assert plan.free_target and plan.m == 0
        dist = formation_input_distribution(plan)
        report = execute_plan_classical(plan, dist)
        assert report.output.probs == dist.probs
        assert report.output.weights.tolist() == dist.weights.tolist()
        assert report.output.denominator == dist.denominator
        q = Fraction(plan.q)
        lo, hi = plan.gibbs_window
        outside = sum((math.comb(n, g) * q ** g * (1 - q) ** (n - g)
                       for g in range(n + 1) if not lo <= g <= hi), Fraction(0))
        assert report.routed_failure_mass == outside
        assert (outside > 0) == (width < 3.0)
        assert len(report.trajectories) == 2 ** n
        assert all(src == dst for src, dst in report.trajectories)


class TestQuantumExecution:
    def test_commutator_exactly_zero(self):
        for (n, p, w) in [(2, 1.0, 3.0), (4, 0.95, 0.75), (3, 0.9, 1.0)]:
            plan = plan_distillation(n, p, 1.0, w)
            report = execute_plan_quantum(plan)
            assert report.commutator_nonzeros == 0
            assert report.trace_preserved

    def test_work_register_distance_bounded(self):
        plan = plan_distillation(4, 0.95, 1.0, width=0.75)
        report = execute_plan_quantum(plan)
        assert report.work_trace_distance <= plan.failure_mass + 1e-12

    def test_gibbs_fixed_point(self):
        # gamma^(n+ell) is invariant under every constructed channel.
        plan = plan_distillation(3, 0.9, 1.0, width=1.0)
        total = plan.ell + plan.n
        gamma_probs = np.ones(1)
        for _ in range(total):
            gamma_probs = np.kron(gamma_probs, np.array([1 - Q1, Q1]))
        out = np.zeros_like(gamma_probs)
        out[simulate._plan_permutation(plan)[0]] = gamma_probs
        assert np.array_equal(out, gamma_probs)

    def test_unital_when_no_work(self):
        plan = plan_distillation(4, Q1, 1.0)
        report = execute_plan_quantum(plan)
        assert report.work_trace_distance == 0.0  # m = 0: empty register
        assert report.trace_preserved

    def test_unitary_matrix_is_permutation(self):
        plan = plan_distillation(2, 1.0, 1.0)
        dense = permutation_unitary(simulate._plan_permutation(plan)[0]).toarray()
        assert np.array_equal(dense @ dense.T, np.eye(dense.shape[0]))

    def test_size_cap(self):
        # 14 qubits run; 15 are refused.
        assert QUANTUM_MAX_QUBITS == 14
        at_cap = plan_distillation(5, 0.95, 1.0, width=0.75)
        assert at_cap.ell + at_cap.n == 14
        assert execute_plan_quantum(at_cap).total_qubits == 14
        plan = plan_distillation(6, 0.9, 1.0, width=1.0)
        assert plan.ell + plan.n == 15
        with pytest.raises(UnsupportedSizeError, match="capped at 14 qubits"):
            execute_plan_quantum(plan)

    @pytest.mark.parametrize("n,p,width", [(3, 0.9, 1.0), (4, 0.95, 0.75)])
    def test_matches_classical_executor(self, n, p, width):
        # Both executors realize the same channel, uncovered branch included.
        plan = plan_distillation(n, p, 1.0, width)
        perm = simulate._plan_permutation(plan)[0]
        classical = execute_plan_classical(plan, thermal_input_distribution(plan))
        for src, dst in classical.trajectories:
            x = int("".join(str(b) for b in src), 2)
            y = int("".join(str(b) for b in dst), 2)
            assert perm[x] == y


class TestExhaustAnalysis:
    def test_gibbs_plan_exhaust_is_gibbs(self):
        plan = plan_distillation(4, Q1, 1.0)
        report = exhaust_analysis(plan)
        assert report.total_rel_entropy == pytest.approx(0.0, abs=1e-9)
        assert all(d == pytest.approx(0.0, abs=1e-9) for d in report.rel_entropies)

    @pytest.mark.parametrize("n, beta", [(3, 1.0), (4, 1.0), (6, 1.0), (4, 20.0), (4, 35.0)])
    @pytest.mark.parametrize("block_size", [1, 2])
    def test_exactly_gibbs_exhaust_has_zero_entropy(self, n, beta, block_size):
        # At p = q the input is gamma^(ell+n) exactly and the weight-preserving
        # permutation keeps it so: every relative entropy is exactly 0, not
        # a rounding residue of the float sum (1.3e-17 at n = 4).  The test
        # is on exact integers, so nothing underflows at large beta.
        q = gibbs_weight(beta)
        report = exhaust_analysis(plan_distillation(n, q, beta), block_size=block_size)
        assert report.num_blocks > 0
        assert report.total_rel_entropy == 0.0 and report.per_system_rel_entropy == 0.0
        assert report.rel_entropies == (0.0,) * report.num_blocks
        assert report.pinsker_bounds == (0.0,) * report.num_blocks

    @pytest.mark.parametrize("beta", [22.0, 35.0])
    def test_large_beta_runs_the_plans_bath(self, beta):
        # q < 5e-10 here: the input is the plan's own float q as the exact
        # dyadic rational it is, never a rounded one that could reach 0.
        # The total relative entropy is checked against a 50-digit sum over
        # the exact exhaust marginal.
        plan = plan_distillation(3, 0.95, beta, width=1.0)
        assert 0 < plan.q < 5e-10
        report = exhaust_analysis(plan)
        output = execute_plan_classical(plan, thermal_input_distribution(plan)).output
        q = Fraction(plan.q)
        with mpmath.workdps(50):
            reference = sum(
                mass * (mpmath.log(mass.numerator) - mpmath.log(mass.denominator)
                        - sum(bits) * mpmath.log(q.numerator)
                        - (plan.k - sum(bits)) * mpmath.log(q.denominator - q.numerator)
                        + plan.k * mpmath.log(q.denominator))
                for bits, mass in output.marginal(range(plan.k)).items())
        assert report.total_rel_entropy == pytest.approx(float(reference), rel=1e-12)
        assert report.subadditivity_holds and all(map(math.isfinite, report.rel_entropies))

    def test_gibbs_check_is_exact(self):
        # One numerator off in the last place of an exact Gibbs vector fails.
        q = Fraction(1, 3)
        weights, scale = simulate._bernoulli_weights(q, 3)
        weights = weights[simulate._popcounts(3)]
        assert simulate._is_gibbs(weights, scale, q)
        assert simulate._is_gibbs(weights * 7, scale * 7, q)
        nudged = weights * 10 ** 12
        nudged[5] += 1
        nudged[6] -= 1
        assert not simulate._is_gibbs(nudged, scale * 10 ** 12, q)

    def test_pinsker_and_subadditivity(self):
        plan = plan_distillation(4, 0.95, 1.0, width=0.75)
        report = exhaust_analysis(plan)
        assert report.subadditivity_holds
        for measured, bound in zip(report.measured_trace_distances, report.pinsker_bounds):
            assert measured <= bound + 1e-9

    def test_two_system_blocks(self):
        plan = plan_distillation(4, 0.95, 1.0, width=0.75)
        report = exhaust_analysis(plan, block_size=2)
        assert report.num_blocks == plan.k // 2
        assert report.subadditivity_holds

    def test_block_longer_than_exhaust_gives_no_blocks(self):
        plan = plan_distillation(2, 1.0, 1.0)
        report = exhaust_analysis(plan, block_size=plan.k + 1)
        assert report.num_blocks == 0 and report.rel_entropies == ()


class TestWorkBalanceAudit:
    def test_valid_plans_balance(self):
        plan = plan_distillation(3, 0.9, 1.0, width=1.0)
        report = execute_plan_classical(plan, thermal_input_distribution(plan))
        assert work_balance_audit(plan, report)["balanced"]

    @staticmethod
    def flip_image_bit(report, i):
        """The report with the last bit of move i's image flipped, and the
        audit's message naming that trajectory."""
        src, dst = report.moves
        dst = dst.copy()
        dst[i] ^= 1
        before, after = report.trajectories[i]
        flipped = after[:-1] + (1 - after[-1],)
        return (dataclasses.replace(report, moves=(src, dst)),
                re.escape(f"trajectory {before} -> {flipped} changes the total energy"))

    def test_fault_injection_detected(self):
        plan = plan_distillation(3, 0.9, 1.0, width=1.0)
        report = execute_plan_classical(plan, thermal_input_distribution(plan))
        broken, message = self.flip_image_bit(report, 0)
        with pytest.raises(WorkBalanceError, match=message):
            work_balance_audit(plan, broken)

    def test_formation_fault_injection_detected(self):
        plan = plan_formation(3, 0.8, 1.0, width=1.0)
        report = execute_plan_classical(plan, formation_input_distribution(plan))
        assert work_balance_audit(plan, report)["trajectories"] == len(report.trajectories)
        broken, message = self.flip_image_bit(report, len(report.trajectories) // 2)
        with pytest.raises(WorkBalanceError, match=message):
            work_balance_audit(plan, broken)

    def test_gibbs_only_input_yields_no_work(self):
        # Feed gamma into a plan built for an athermal state.
        plan = plan_distillation(4, 0.95, 1.0, width=0.75)
        q = Fraction(Q1)
        probs = {}
        total = plan.ell + plan.n
        for x in range(2 ** total):
            bits = tuple((x >> (total - 1 - i)) & 1 for i in range(total))
            probs[bits] = (q ** sum(bits)) * ((1 - q) ** (total - sum(bits)))
        report = execute_plan_classical(plan, string_distribution(total, probs))
        ledger = work_balance_audit(plan, report)
        assert ledger["expected_work_surplus"] <= 1e-6

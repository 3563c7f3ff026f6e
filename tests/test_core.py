import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from athermal.core import (
    DensityMatrix,
    FreeTargetError,
    Hamiltonian,
    binary_entropy,
    free_energy,
    gibbs_state,
    interconversion_rate,
    relative_entropy,
    trace_distance,
    von_neumann_entropy,
)
from conftest import random_density, random_hamiltonian
from continuity_reference import continuity_bound_check, continuity_constant, reversed_monotone

H2 = Hamiltonian.two_level()


def two_level_gibbs(beta):
    return gibbs_state(H2, beta)


class TestGibbsState:
    def test_uniform_at_infinite_temperature(self):
        g = gibbs_state(H2, 0.0)
        assert g.probs == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_two_level_closed_form(self):
        # q = e^{-beta}/(1 + e^{-beta}); at beta = ln 2 this is (1/2)/(3/2).
        g = gibbs_state(H2, math.log(2))
        assert g.q == pytest.approx(1 / 3, abs=1e-15)

    def test_three_level_boltzmann_sum(self):
        # Direct Boltzmann sum with E = (0, 1, 2), beta = 1.
        weights = [math.exp(-e) for e in (0.0, 1.0, 2.0)]
        z = sum(weights)
        g = gibbs_state(Hamiltonian((0.0, 1.0, 2.0)), 1.0)
        assert g.partition_function == pytest.approx(z, abs=1e-12)
        assert g.probs == pytest.approx(tuple(w / z for w in weights), abs=1e-12)
        assert g.probs == pytest.approx((0.665241, 0.244728, 0.090031), abs=1e-6)

    def test_ground_state_limit(self):
        g = gibbs_state(Hamiltonian((0.0, 1.0, 1.0)), math.inf)
        assert g.probs == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)

    @pytest.mark.parametrize("beta", [math.nan, -1.0, -math.inf])
    def test_invalid_beta(self, beta):
        with pytest.raises(ValueError):
            gibbs_state(H2, beta)

    @given(beta=st.floats(0.05, 8.0))
    def test_weights_normalized(self, beta):
        g = gibbs_state(Hamiltonian((0.0, 0.7, 1.3, 2.9)), beta)
        assert abs(sum(g.probs) - 1.0) < 1e-12


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == pytest.approx(math.log(2), abs=1e-15)

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_known_value(self):
        # h at the beta=1 Gibbs weight, evaluated directly.
        q = math.exp(-1) / (1 + math.exp(-1))
        expected = -q * math.log(q) - (1 - q) * math.log(1 - q)
        assert binary_entropy(q) == pytest.approx(expected, abs=1e-15)
        assert binary_entropy(0.268941) == pytest.approx(0.582208, abs=1e-5)

    @given(p=st.floats(0.0, 1.0))
    def test_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-12)

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            binary_entropy(p)


class TestDensityMatrix:
    @pytest.mark.parametrize("entries", [
        [[math.nan, 0.0], [0.0, math.nan]],
        [[math.inf, 0.0], [0.0, 1.0 - math.inf]],
        [[0.5, math.nan], [math.nan, 0.5]],
    ])
    def test_non_finite_entries_refused(self, entries):
        # Every comparison with NaN is False, so without this check all
        # three validity checks pass and the entropy of [[nan, 0], [0, nan]]
        # came out as -0.0.
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(np.array(entries))


class TestRelativeEntropy:
    def test_identity_is_zero(self):
        gamma = two_level_gibbs(1.0).density_matrix()
        assert relative_entropy(gamma, gamma) == pytest.approx(0.0, abs=1e-12)

    def test_pure_excited_vs_gibbs(self):
        # D(|1><1| || gamma) = -ln q = beta + ln(1 + e^{-beta}).
        gamma = two_level_gibbs(1.0)
        one = DensityMatrix.diagonal([0.0, 1.0])
        expected = 1.0 + math.log(1 + math.exp(-1.0))
        assert relative_entropy(one, gamma.density_matrix()) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.313262, abs=1e-6)

    def test_support_violation_is_inf(self):
        rho = DensityMatrix.diagonal([1.0, 0.0])
        sigma = DensityMatrix.diagonal([0.0, 1.0])
        assert relative_entropy(rho, sigma) == math.inf

    @pytest.mark.parametrize("sigma_spec,rho_spec", [
        ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),     # sigma = |psi><psi|
        ((0.3, 0.7, 0.0), (0.6, 0.4, 0.0)),     # rank 2
    ])
    def test_rotated_rank_deficient_sigma(self, sigma_spec, rho_spec):
        # sigma and rho share the eigenbasis of a complex unitary, whose first
        # column psi is no basis vector; rho puts eps on sigma's last
        # eigenvector, which is in sigma's kernel.  Up to 1e-10 on the kernel
        # counts as inside the support.
        u = np.linalg.qr(np.array([[1, 2j, 0.5], [0.3, 1, -1j], [2, 0.1, 1]]))[0]

        def rotated(spec):
            return DensityMatrix(u @ np.diag(spec) @ u.conj().T)

        sigma = rotated(sigma_spec)
        assert relative_entropy(sigma, sigma) == pytest.approx(0.0, abs=1e-12)
        for eps in (1e-9, 1e-11):
            spec = tuple((1 - eps) * r for r in rho_spec[:2]) + (eps,)
            closed = sum(r * math.log(r) for r in spec if r > 0) - sum(
                r * math.log(s) for r, s in zip(spec, sigma_spec) if r > 0 and s > 0)
            value = relative_entropy(rotated(spec), sigma)
            if eps > 1e-10:
                assert value == math.inf
            else:
                assert value == pytest.approx(max(closed, 0.0), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            relative_entropy(DensityMatrix.diagonal([1.0, 0.0]),
                             DensityMatrix.diagonal([0.4, 0.3, 0.3]))

    @given(p=st.floats(0.01, 0.99), beta=st.floats(0.1, 4.0))
    @settings(max_examples=60)
    def test_two_level_closed_form(self, p, beta):
        # D(rho||gamma) = h(q) - h(p) + beta (p - q) for diagonal qubits.
        gamma = two_level_gibbs(beta)
        q = gamma.q
        rho = DensityMatrix.diagonal([1 - p, p])
        closed = binary_entropy(q) - binary_entropy(p) + beta * (p - q)
        assert relative_entropy(rho, gamma.density_matrix()) == pytest.approx(closed, abs=1e-10)

    def test_additivity(self, rng):
        for _ in range(20):
            rho1, rho2 = random_density(rng, 3), random_density(rng, 4)
            sig1, sig2 = random_density(rng, 3), random_density(rng, 4)
            joint = relative_entropy(
                DensityMatrix(np.kron(rho1.entries, rho2.entries)),
                DensityMatrix(np.kron(sig1.entries, sig2.entries)),
            )
            parts = relative_entropy(rho1, sig1) + relative_entropy(rho2, sig2)
            assert joint == pytest.approx(parts, abs=1e-10)

    def test_nonnegative(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            assert relative_entropy(random_density(rng, d), random_density(rng, d)) >= 0.0


class TestFreeEnergy:
    def test_gibbs_value(self):
        # Substituting the Gibbs weights gives F(gamma) = -(1/beta) ln Z.
        for beta in (0.5, 1.0, 2.0):
            g = gibbs_state(Hamiltonian((0.0, 1.0, 2.5)), beta)
            expected = -math.log(g.partition_function) / beta
            assert free_energy(g.density_matrix(), g.hamiltonian, beta) == pytest.approx(
                expected, abs=1e-12)

    def test_pure_top_eigenstate(self):
        h = Hamiltonian((0.0, 1.0, 2.0))
        top = DensityMatrix.diagonal([0.0, 0.0, 1.0])
        assert free_energy(top, h, 1.3) == pytest.approx(2.0, abs=1e-12)

    def test_relative_entropy_identity(self, rng):
        # beta (F(rho) - F(gamma)) = D(rho || gamma) on random states.
        for _ in range(100):
            d = int(rng.integers(2, 6))
            h = random_hamiltonian(rng, d)
            beta = float(rng.uniform(0.2, 3.0))
            g = gibbs_state(h, beta)
            rho = random_density(rng, d)
            lhs = beta * (free_energy(rho, h, beta) - free_energy(g.density_matrix(), h, beta))
            assert lhs == pytest.approx(relative_entropy(rho, g.density_matrix()), abs=1e-10)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            free_energy(DensityMatrix.diagonal([0.5, 0.5]), H2, 0.0)


class TestInterconversionRate:
    def test_self_conversion(self, rng):
        gamma = two_level_gibbs(1.0)
        rho = DensityMatrix.diagonal([0.3, 0.7])
        assert interconversion_rate(rho, rho, gamma) == pytest.approx(1.0, abs=1e-12)

    def test_free_input(self):
        gamma = two_level_gibbs(1.0)
        sigma = DensityMatrix.diagonal([0.0, 1.0])
        assert interconversion_rate(gamma.density_matrix(), sigma, gamma) == 0.0

    def test_free_target_raises(self):
        gamma = two_level_gibbs(1.0)
        rho = DensityMatrix.diagonal([0.2, 0.8])
        with pytest.raises(FreeTargetError):
            interconversion_rate(rho, gamma.density_matrix(), gamma)

    def test_two_level_value(self):
        gamma = two_level_gibbs(1.0)
        rho = DensityMatrix.diagonal([0.25, 0.75])
        one = DensityMatrix.diagonal([0.0, 1.0])
        rate = interconversion_rate(rho, one, gamma)
        # = (h(q) - h(0.75) + (0.75 - q)) / (-ln q), evaluated directly.
        q = gamma.q
        expected = (binary_entropy(q) - binary_entropy(0.75) + (0.75 - q)) / (-math.log(q))
        assert rate == pytest.approx(expected, abs=1e-12)
        assert rate == pytest.approx(0.38144, abs=1e-5)


class TestReversedMonotone:
    def test_zero_at_gibbs(self):
        g = two_level_gibbs(1.0)
        assert reversed_monotone(g.density_matrix(), g) == pytest.approx(0.0, abs=1e-10)

    def test_pure_state_is_inf(self):
        g = two_level_gibbs(1.0)
        assert reversed_monotone(DensityMatrix.diagonal([0.0, 1.0]), g) == math.inf

    def test_finite_positive(self):
        g = two_level_gibbs(1.0)
        value = reversed_monotone(DensityMatrix.diagonal([0.25, 0.75]), g)
        assert 0.0 < value < math.inf


class TestContinuityBound:
    def test_equal_states(self):
        g = two_level_gibbs(1.0)
        rho = DensityMatrix.diagonal([0.6, 0.4])
        report = continuity_bound_check(rho, rho, g, m_constant=2.0)
        assert report.holds and report.lhs == pytest.approx(0.0, abs=1e-12)

    def test_gibbs_vs_top_state(self):
        h = Hamiltonian((0.5, 1.0, 1.5, 2.0))
        beta = 1.0
        g = gibbs_state(h, beta)
        top = DensityMatrix.diagonal([0.0, 0.0, 0.0, 1.0])
        m = continuity_constant(h, beta)
        report = continuity_bound_check(g.density_matrix(), top, g, m_constant=m)
        assert report.holds
        # The right side dominates the subextensivity value beta E_max + ln d.
        assert report.rhs >= beta * h.e_max + math.log(h.dim) - 1e-9

    def test_random_pairs(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 9))
            h = random_hamiltonian(rng, d)
            beta = float(rng.uniform(0.2, 3.0))
            g = gibbs_state(h, beta)
            report = continuity_bound_check(
                random_density(rng, d), random_density(rng, d), g,
                m_constant=continuity_constant(h, beta))
            assert report.holds


class TestMonotoneProperties:
    def test_affinity_gap(self, rng):
        # 0 <= p D(rho||g) + (1-p) D(sigma||g) - D(mix||g) <= h2(p) <= ln 2.
        g = gibbs_state(Hamiltonian((0.0, 0.8, 1.7)), 1.0)
        gdm = g.density_matrix()
        for _ in range(100):
            rho, sigma = random_density(rng, 3), random_density(rng, 3)
            p = float(rng.uniform(0, 1))
            mix = DensityMatrix(p * rho.entries + (1 - p) * sigma.entries)
            gap = (p * relative_entropy(rho, gdm)
                   + (1 - p) * relative_entropy(sigma, gdm)
                   - relative_entropy(mix, gdm))
            assert -1e-10 <= gap <= binary_entropy(p) + 1e-10
            assert gap <= math.log(2) + 1e-10

    def test_subextensivity(self, rng):
        # D(|E_max><E_max| || gamma) <= beta E_max + ln d for positive energies.
        for _ in range(50):
            d = int(rng.integers(2, 9))
            h = random_hamiltonian(rng, d)
            beta = float(rng.uniform(0.2, 3.0))
            g = gibbs_state(h, beta)
            top = np.zeros(d)
            top[int(np.argmax(h.energies))] = 1.0
            value = relative_entropy(DensityMatrix.diagonal(top), g.density_matrix())
            assert value <= beta * h.e_max + math.log(d) + 1e-10


class TestStateValidation:
    def test_quasiclassical_normalization(self):
        with pytest.raises(ValueError, match="trace must equal 1"):
            DensityMatrix.diagonal([0.5, 0.6])

    def test_density_matrix_not_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_matrix_not_psd(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))

    def test_hamiltonian_needs_two_levels(self):
        with pytest.raises(ValueError):
            Hamiltonian((1.0,))

    def test_trace_distance_basic(self):
        a = DensityMatrix.diagonal([1.0, 0.0])
        b = DensityMatrix.diagonal([0.0, 1.0])
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)
        assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_von_neumann_entropy_pure(self):
        assert von_neumann_entropy(DensityMatrix.pure([1, 1])) == pytest.approx(0.0, abs=1e-10)

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from athermal.coherent import (
    CoherentTarget,
    DegeneracyShortfallError,
    ReferenceFrame,
    build_Uinv,
    coherent_formation_error,
    err_norm,
    joint_hamiltonian,
    shift_overlap,
)


class TestShiftOverlap:
    def test_reference_values(self):
        assert shift_overlap(100, 1) == pytest.approx(0.99, abs=1e-15)
        assert shift_overlap(7, 0) == 1.0
        assert shift_overlap(5, 9) == 0.0

    @pytest.mark.parametrize("window", [1, 2, 5, 16])
    def test_exact_vector_inner_product(self, window):
        for delta in range(window + 1):
            frame = ReferenceFrame(window_size=window, window_start=window,
                                   num_levels=3 * window)
            value = float(frame.state_vector(0) @ frame.state_vector(delta))
            assert value == pytest.approx(shift_overlap(window, delta), abs=1e-13)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            shift_overlap(10, -1)

    @pytest.mark.parametrize("window", [0, -3])
    def test_empty_window_rejected(self, window):
        with pytest.raises(ValueError):
            shift_overlap(window, 1)


class TestErrNorm:
    def test_zero_shift(self):
        assert err_norm(0, 9) == 0.0

    def test_disjoint_windows(self):
        assert err_norm(9, 9) == pytest.approx(math.sqrt(2), abs=1e-15)
        assert err_norm(15, 9) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_reference_value(self):
        assert err_norm(4, 32) == pytest.approx(0.5, abs=1e-15)

    @given(window=st.integers(1, 40), shift=st.integers(0, 60))
    @settings(max_examples=50)
    def test_brute_force_norm(self, window, shift):
        frame = ReferenceFrame(window_size=window, window_start=70,
                               num_levels=200)
        diff = frame.state_vector(shift) - frame.state_vector(0)
        assert np.linalg.norm(diff) == pytest.approx(err_norm(shift, window), abs=1e-12)


class TestReferenceFrame:
    def test_formation_window_size(self):
        for n in (4, 6, 8, 10, 27):
            frame = ReferenceFrame.for_formation(n)
            assert frame.window_size == 2 * math.ceil(n ** (2 / 3)) + 1

    def test_window_must_fit(self):
        with pytest.raises(ValueError):
            ReferenceFrame(window_size=10, window_start=0, num_levels=5)

    def test_state_vector_normalized(self):
        frame = ReferenceFrame.for_formation(6)
        assert np.linalg.norm(frame.state_vector()) == pytest.approx(1.0, abs=1e-13)


class TestBuildUinv:
    def test_identity_passthrough(self):
        frame = ReferenceFrame.for_formation(4, max_gap=1)
        u = build_Uinv(np.eye(2), [0, 1], frame)
        assert (u != sp.identity(u.shape[0], format="csr")).nnz == 0

    def test_exact_energy_conservation(self):
        # The commutator with the joint Hamiltonian vanishes identically.
        frame = ReferenceFrame.for_formation(4, max_gap=2)
        had = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        for energies in ([0, 1], [0, 2]):
            u = build_Uinv(had, energies, frame)
            h_tot = joint_hamiltonian(energies, frame)
            assert (u @ h_tot - h_tot @ u).nnz == 0

    def test_unitarity(self):
        frame = ReferenceFrame.for_formation(6, max_gap=1)
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        u = build_Uinv(rot, [0, 1], frame)
        dev = (u.getH() @ u - sp.identity(u.shape[0])).toarray()
        assert np.abs(dev).max() < 1e-12

    def test_window_too_small(self):
        frame = ReferenceFrame(window_size=2, window_start=5, num_levels=12)
        had = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        with pytest.raises(ValueError):
            build_Uinv(had, [0, 3], frame)

    def test_acts_as_system_unitary_with_frame_recoil(self):
        # U (|0> (x) |H>) = u00 |0>|H> + u10 |1>|H shifted down by the gap>.
        frame = ReferenceFrame.for_formation(4, max_gap=1)
        had = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        u = build_Uinv(had, [0, 1], frame)
        psi = np.kron(np.array([1.0, 0.0]), frame.state_vector())
        out = u @ psi
        expected = (had[0, 0] * np.kron([1.0, 0.0], frame.state_vector(0))
                    + had[1, 0] * np.kron([0.0, 1.0], frame.state_vector(-1)))
        assert np.allclose(out, expected, atol=1e-12)


class TestCoherentTarget:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            CoherentTarget(a=1.0, b=0.5, p=1.0, n=4)

    def test_orthogonal_components(self):
        t = CoherentTarget(a=0.6 + 0.3j, b=math.sqrt(1 - 0.45), p=0.5, n=4)
        assert abs(np.vdot(t.phi2, t.phi1)) < 1e-12


class TestFormationError:
    def test_energy_eigenstate_is_exact(self):
        # a=1, b=0: the target is diagonal and the protocol is exact.
        report = coherent_formation_error(CoherentTarget(a=1.0, b=0.0, p=1.0, n=6))
        assert report.exact_trace_distance == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_exact_below_analytic_bound(self, n):
        inv = 1 / math.sqrt(2)
        report = coherent_formation_error(CoherentTarget(a=inv, b=inv, p=1.0, n=n))
        assert report.exact_trace_distance <= report.analytic_bound + 1e-12

    def test_mixed_target_exact_mode(self):
        target = CoherentTarget(a=math.sqrt(0.1), b=math.sqrt(0.9), p=0.5, n=4)
        report = coherent_formation_error(target)
        assert report.exact_trace_distance <= report.analytic_bound + 1e-12
        assert report.k_tail >= 0.0

    def test_degeneracy_shortfall_detected(self):
        inv = 1 / math.sqrt(2)
        with pytest.raises(DegeneracyShortfallError):
            coherent_formation_error(CoherentTarget(a=inv, b=inv, p=0.5, n=8))

    def test_typicality_tail_decreasing(self):
        # Mass outside Typ_t shrinks with n (exact binomial tails).
        inv = 1 / math.sqrt(2)
        tails = []
        for n in (4, 16, 36, 64):
            target = CoherentTarget(a=inv, b=inv, p=1.0, n=n)
            report = coherent_formation_error(target, exact=False)
            tails.append(sum(s.nu3_bound ** 2 * s.weight for s in report.sectors))
        assert all(b <= a + 1e-12 for a, b in zip(tails, tails[1:]))

    def test_catalyst_preserved(self):
        inv = 1 / math.sqrt(2)
        for n in (4, 8):
            report = coherent_formation_error(CoherentTarget(a=inv, b=inv, p=1.0, n=n))
            assert report.catalyst_fidelity >= 1 - report.exact_trace_distance - 1e-12

    def test_vector_to_trace_conversion(self, rng):
        # (1/2)||psi psi - phi phi||_1 <= sqrt(2) ||psi - phi|| for unit vectors.
        for _ in range(50):
            d = int(rng.integers(2, 12))
            psi = rng.normal(size=d) + 1j * rng.normal(size=d)
            phi = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi /= np.linalg.norm(psi)
            phi /= np.linalg.norm(phi)
            overlap = abs(np.vdot(psi, phi)) ** 2
            tdist = math.sqrt(max(0.0, 1 - overlap))
            assert tdist <= math.sqrt(2) * np.linalg.norm(psi - phi) + 1e-12

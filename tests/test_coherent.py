import cmath
import contextlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from athermal import coherent
from athermal.coherent import (
    CoherentTarget,
    DegeneracyShortfallError,
    ReferenceFrame,
    coherent_formation_error,
    shift_overlap,
)
from athermal.counting import binomial_log_pmf
from strings_reference import build_Uinv, joint_hamiltonian, state_vector


def _reference_psi_vector(target: CoherentTarget, k: int, arrangement) -> np.ndarray:
    """Dense 2^n amplitude vector of pi_g phi1^k phi2^(n-k); arrangement
    lists the positions carrying phi1."""
    n = target.n
    phi1 = target.phi1
    phi2 = target.phi2
    single = [phi1 if i in arrangement else phi2 for i in range(n)]
    vec = np.ones(1, dtype=complex)
    for factor in single:
        vec = np.kron(vec, factor)
    return vec


def reference_gram_product(target: CoherentTarget, frame_n: int,
                           t_of: dict[int, int], k_window: tuple[int, int]
                           ) -> tuple[np.ndarray, float]:
    """The Gram-matrix route entry by entry: one vdot or one weight-resolved
    sum per pair of vectors.  Returns the complex product G C and the
    catalyst fidelity."""
    n = target.n
    k_lo, k_hi = k_window
    p_k = lambda k: (target.p ** k) * ((1 - target.p) ** (n - k))
    weights_by_index = np.array([bin(x).count("1") for x in range(2 ** n)])

    psi_list = []        # (k, dense psi vector)
    for k in range(0, n + 1):
        if p_k(k) == 0.0:
            continue
        for arrangement in combinations(range(n), k):
            psi_list.append((k, _reference_psi_vector(target, k, set(arrangement))))

    typical = [idx for idx, (k, _) in enumerate(psi_list) if k_lo <= k <= k_hi]

    def frame_overlap(shift: int) -> float:
        return shift_overlap(frame_n, abs(shift)) if abs(shift) <= frame_n else 0.0

    m_typ = len(typical)
    m_all = len(psi_list)
    vectors = m_typ + m_all
    gram = np.zeros((vectors, vectors), dtype=complex)
    coeff = np.zeros(vectors)

    def weight_resolved(psi_i, psi_j):
        prod = np.conj(psi_i) * psi_j
        sums = np.zeros(n + 1, dtype=complex)
        np.add.at(sums, weights_by_index, prod)
        return sums

    for a_pos, idx_i in enumerate(typical):
        k_i, psi_i = psi_list[idx_i]
        coeff[a_pos] = p_k(k_i)
        for b_pos, idx_j in enumerate(typical):
            k_j, psi_j = psi_list[idx_j]
            inner = np.vdot(psi_i, psi_j)
            gram[a_pos, b_pos] = frame_overlap(t_of[k_i] - t_of[k_j]) * inner
    for j, (k_j, psi_j) in enumerate(psi_list):
        coeff[m_typ + j] = -p_k(k_j)
        for i, (k_i, psi_i) in enumerate(psi_list):
            gram[m_typ + j, m_typ + i] = np.vdot(psi_j, psi_i)
    for a_pos, idx_i in enumerate(typical):
        k_i, psi_i = psi_list[idx_i]
        for j, (k_j, psi_j) in enumerate(psi_list):
            sums = weight_resolved(psi_j, psi_i)
            val = sum(
                frame_overlap(t_of[k_i] - w) * sums[w]
                for w in range(n + 1)
            )
            gram[m_typ + j, a_pos] = val
            gram[a_pos, m_typ + j] = np.conj(val)

    fidelity = 0.0
    for idx in typical:
        k, psi = psi_list[idx]
        probs = np.zeros(n + 1)
        np.add.at(probs, weights_by_index, np.abs(psi) ** 2)
        fidelity += p_k(k) * sum(
            probs[w] * frame_overlap(t_of[k] - w) ** 2 for w in range(n + 1)
        )
    return gram @ np.diag(coeff), fidelity


def reference_exact_formation_error(target: CoherentTarget, frame_n: int,
                                    t_of: dict[int, int], k_window: tuple[int, int]
                                    ) -> tuple[float, float]:
    """Trace distance and fidelity from :func:`reference_gram_product`, with
    the spectral step of ``_exact_formation_error``: a product whose
    imaginary part is identically zero, as at every real-amplitude target,
    goes to eigvals as its real part.  The vectorised routine must
    reproduce it bit for bit at the modulus twin of its target."""
    matrix, fidelity = reference_gram_product(target, frame_n, t_of, k_window)
    if not matrix.imag.any():
        matrix = np.ascontiguousarray(matrix.real)
    evals = np.linalg.eigvals(matrix)
    return 0.5 * float(np.abs(evals.real).sum()), fidelity


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
            value = float(state_vector(frame, 0) @ state_vector(frame, delta))
            assert value == pytest.approx(shift_overlap(window, delta), abs=1e-13)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            shift_overlap(10, -1)

    @pytest.mark.parametrize("window", [0, -3])
    def test_empty_window_rejected(self, window):
        with pytest.raises(ValueError):
            shift_overlap(window, 1)


def err_norm(shift: int, window_size: int) -> float:
    """The norm sqrt(2 (1 - overlap)) of the difference between the window
    and its shifted copy, as the analytic pass writes it inline."""
    return math.sqrt(2.0 * (1.0 - shift_overlap(window_size, shift)))


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
        diff = state_vector(frame, shift) - state_vector(frame, 0)
        assert np.linalg.norm(diff) == pytest.approx(err_norm(shift, window), abs=1e-12)

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            err_norm(-1, 9)

    @pytest.mark.parametrize("shift, window", [(1, -1), (3, -2), (1, 0), (0, 0)])
    def test_empty_window_rejected(self, shift, window):
        with pytest.raises(ValueError):
            err_norm(shift, window)


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
        assert np.linalg.norm(state_vector(frame)) == pytest.approx(1.0, abs=1e-13)


class TestBuildUinv:
    def test_identity_passthrough(self):
        frame = ReferenceFrame(window_size=7, window_start=1, num_levels=9)
        u = build_Uinv(np.eye(2), [0, 1], frame)
        assert (u != sp.identity(u.shape[0], format="csr")).nnz == 0

    def test_exact_energy_conservation(self):
        # The commutator with the joint Hamiltonian vanishes identically.
        frame = ReferenceFrame(window_size=7, window_start=2, num_levels=11)
        had = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        for energies in ([0, 1], [0, 2]):
            u = build_Uinv(had, energies, frame)
            h_tot = joint_hamiltonian(energies, frame)
            assert (u @ h_tot - h_tot @ u).nnz == 0

    def test_unitarity(self):
        frame = ReferenceFrame(window_size=9, window_start=1, num_levels=11)
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
        frame = ReferenceFrame(window_size=7, window_start=1, num_levels=9)
        had = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        u = build_Uinv(had, [0, 1], frame)
        psi = np.kron(np.array([1.0, 0.0]), state_vector(frame))
        out = u @ psi
        expected = (had[0, 0] * np.kron([1.0, 0.0], state_vector(frame, 0))
                    + had[1, 0] * np.kron([0.0, 1.0], state_vector(frame, -1)))
        assert np.allclose(out, expected, atol=1e-12)


class TestCoherentTarget:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            CoherentTarget(a=1.0, b=0.5, p=1.0, n=4)

    @pytest.mark.parametrize("a, p, n, message", [
        (math.nan, 0.5, 4, "amplitudes"),
        (math.inf, 0.5, 4, "amplitudes"),
        (0.0, math.nan, 4, "p must lie"),
        (0.0, 0.5, 2.5, "n must be a positive integer"),
        (0.0, 0.5, 0, "n must be a positive integer"),
    ])
    def test_invalid_target_refused(self, a, p, n, message):
        # Every comparison with NaN is False: a NaN amplitude used to pass
        # the norm check and fail later, in the formation error, as "cannot
        # convert float NaN to integer".
        with pytest.raises(ValueError, match=message):
            CoherentTarget(a=a, b=1.0, p=p, n=n)

    def test_orthogonal_components(self):
        t = CoherentTarget(a=0.6 + 0.3j, b=math.sqrt(1 - 0.45), p=0.5, n=4)
        assert abs(np.vdot(t.phi2, t.phi1)) < 1e-12


class TestFormationError:
    def test_energy_eigenstate_is_exact(self):
        # a=1, b=0: the target is diagonal and the protocol is exact.
        report = coherent_formation_error(CoherentTarget(a=1.0, b=0.0, p=1.0, n=6))
        assert report.exact_trace_distance == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("n, a, b, p", [
        *(pytest.param(n, 1 / math.sqrt(2), 1 / math.sqrt(2), 1.0, id=str(n))
          for n in (4, 6, 8, 10)),
        # Phased pure targets, and mixed ones with or without phases.
        (4, math.sqrt(0.1), math.sqrt(0.9) * cmath.exp(0.3j), 1.0),
        (5, math.sqrt(0.3) * cmath.exp(2.1j), -math.sqrt(0.7), 1.0),
        (7, math.sqrt(0.8) * cmath.exp(0.7j), math.sqrt(0.2) * cmath.exp(-1.9j), 1.0),
        (8, -math.sqrt(0.6), math.sqrt(0.4) * cmath.exp(1.2j), 1.0),
        (4, math.sqrt(0.9), math.sqrt(0.1), 0.2),
        (5, math.sqrt(0.05) * cmath.exp(4.4j), math.sqrt(0.95), 0.8),
        (6, math.sqrt(0.1) * cmath.exp(0.7j), math.sqrt(0.9) * cmath.exp(-1.9j), 0.5),
        (7, math.sqrt(0.05), -math.sqrt(0.95), 0.2),
        (8, math.sqrt(0.9) * cmath.exp(2.6j), math.sqrt(0.1) * cmath.exp(0.4j), 0.5),
        (8, math.sqrt(0.05), math.sqrt(0.95) * cmath.exp(5.0j), 0.8),
    ])
    def test_exact_below_analytic_bound(self, n, a, b, p):
        report = coherent_formation_error(CoherentTarget(a=a, b=b, p=p, n=n))
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


@contextlib.contextmanager
def _eigvals_spy():
    """Record every matrix handed to np.linalg.eigvals, as handed (eigvals
    leaves its argument as it is, and a copy would hide its layout)."""
    seen = []
    original = np.linalg.eigvals

    def spy(matrix):
        seen.append(matrix)
        return original(matrix)

    np.linalg.eigvals = spy
    try:
        yield seen
    finally:
        np.linalg.eigvals = original


def _exact_inputs(target: CoherentTarget):
    """Frame size, surrogate energies and k window, derived as
    coherent_formation_error derives them for the exact routine."""
    n = target.n
    sqrt_n = math.sqrt(n)
    k_lo = max(0, math.ceil(n * target.p - sqrt_n))
    k_hi = min(n, math.floor(n * target.p + sqrt_n))
    t_of = {k: round(target.mean_energy(k)) for k in range(k_lo, k_hi + 1)}
    return 2 * math.ceil(n ** (2.0 / 3.0)) + 1, t_of, (k_lo, k_hi)


class TestExactMatchesReference:
    """The vectorised Gram assembly hands eigvals the reference's matrix."""

    @given(n=st.integers(1, 6), a2=st.floats(0.0, 1.0),
           phase_a=st.floats(0.0, 2 * math.pi), phase_b=st.floats(0.0, 2 * math.pi),
           p=st.one_of(st.sampled_from([0.0, 1.0]),
                       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
    @example(n=3, a2=5e-324, phase_a=0.0, phase_b=1.0, p=0.75)
    @example(n=7, a2=0.3, phase_a=0.4, phase_b=2.0, p=0.45)
    @example(n=7, a2=0.6, phase_a=5.1, phase_b=0.3, p=0.0)
    @example(n=7, a2=0.6, phase_a=5.1, phase_b=0.3, p=1.0)
    @example(n=7, a2=5e-324, phase_a=0.0, phase_b=1.0, p=0.75)
    @example(n=8, a2=0.2, phase_a=1.3, phase_b=4.4, p=0.03)
    @example(n=8, a2=0.7, phase_a=2.9, phase_b=0.8, p=0.97)
    # A single arrangement, a 1 x 1 mixed block, which einsum would sum
    # with a dot kernel in another order without the spare zero column.
    @example(n=6, a2=0.1, phase_a=0.0, phase_b=0.0, p=0.0)
    @example(n=6, a2=0.3, phase_a=0.0, phase_b=0.0, p=0.0)
    @example(n=6, a2=0.7, phase_a=0.0, phase_b=0.0, p=0.0)
    @example(n=6, a2=0.1, phase_a=0.0, phase_b=0.0, p=1.0)
    @example(n=6, a2=0.3, phase_a=0.0, phase_b=0.0, p=1.0)
    @example(n=6, a2=0.7, phase_a=0.0, phase_b=0.0, p=1.0)
    @example(n=7, a2=0.1, phase_a=0.0, phase_b=0.0, p=0.0)
    @example(n=7, a2=0.3, phase_a=0.0, phase_b=0.0, p=0.0)
    @example(n=7, a2=0.7, phase_a=0.0, phase_b=0.0, p=0.0)
    @example(n=7, a2=0.1, phase_a=0.0, phase_b=0.0, p=1.0)
    @example(n=7, a2=0.3, phase_a=0.0, phase_b=0.0, p=1.0)
    @example(n=7, a2=0.7, phase_a=0.0, phase_b=0.0, p=1.0)
    @example(n=8, a2=0.1, phase_a=0.0, phase_b=0.0, p=0.0)
    @example(n=8, a2=0.3, phase_a=0.0, phase_b=0.0, p=0.0)
    @example(n=8, a2=0.7, phase_a=0.0, phase_b=0.0, p=0.0)
    @example(n=8, a2=0.1, phase_a=0.0, phase_b=0.0, p=1.0)
    @example(n=8, a2=0.3, phase_a=0.0, phase_b=0.0, p=1.0)
    @example(n=8, a2=0.7, phase_a=0.0, phase_b=0.0, p=1.0)
    @settings(max_examples=60, deadline=None)
    def test_bit_identical(self, n, a2, phase_a, phase_b, p):
        # Phases are gauged away, so the reference runs at the modulus twin.
        target = CoherentTarget(a=math.sqrt(a2) * complex(math.cos(phase_a), math.sin(phase_a)),
                                b=math.sqrt(1 - a2) * complex(math.cos(phase_b), math.sin(phase_b)),
                                p=p, n=n)
        twin = CoherentTarget(a=abs(target.a), b=abs(target.b), p=p, n=n)
        args = _exact_inputs(target)
        with _eigvals_spy() as seen:
            result = coherent._exact_formation_error(target, *args)
            expected = reference_exact_formation_error(twin, *args)
        assert len(seen) == 2
        assert np.array_equal(seen[0], seen[1])
        # Signs of zero too: eigvals reads them (the n = 3, a^2 = 5e-324
        # example moves by 2e-7 relative when only they differ).
        assert seen[0].tobytes() == seen[1].tobytes()
        assert result == expected

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_benchmark_points(self, n):
        target = CoherentTarget(a=math.sqrt(0.1), b=math.sqrt(0.9), p=0.5, n=n)
        with _eigvals_spy() as seen:
            report = coherent_formation_error(target, exact=True)
            expected = reference_exact_formation_error(target, *_exact_inputs(target))
        assert len(seen) == 2
        assert np.array_equal(seen[0], seen[1])
        assert seen[0].tobytes() == seen[1].tobytes()
        assert report.exact_trace_distance == expected[0]
        assert report.catalyst_fidelity == expected[1]

    @pytest.mark.parametrize("n, a, b, p", [
        (4, math.sqrt(0.1), math.sqrt(0.9), 0.5),
        (6, math.sqrt(0.1), math.sqrt(0.9), 0.5),
        (8, math.sqrt(0.1), math.sqrt(0.9), 0.5),
        (4, 1 / math.sqrt(2), 1 / math.sqrt(2), 0.5),
        (4, math.sqrt(0.1) * cmath.exp(0.3j), math.sqrt(0.9), 0.5),
        (4, math.sqrt(0.1), math.sqrt(0.9) * cmath.exp(0.3j), 0.5),
        (5, math.sqrt(0.1), math.sqrt(0.9), 0.5),
        (5, math.sqrt(0.3), -math.sqrt(0.7), 0.2),
        (5, math.sqrt(0.1), math.sqrt(0.9), 0.0),
        (5, math.sqrt(0.1), math.sqrt(0.9), 1.0),
        (5, math.sqrt(0.1) * cmath.exp(0.3j), math.sqrt(0.9), 0.5),
        (5, math.sqrt(0.1), math.sqrt(0.9) * cmath.exp(0.3j), 0.5),
    ])
    def test_spectral_route(self, monkeypatch, n, a, b, p):
        # Every target, phased or not and at any p, sums the mixed block in
        # float64, one einsum per excitation number, and hands eigvals a
        # real matrix laid out for the real solver (dgeev).
        einsums = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum",
                            lambda *args, **kw: einsums.append(args) or einsum(*args, **kw))
        target = CoherentTarget(a=a, b=b, p=p, n=n)
        with _eigvals_spy() as seen:
            coherent._exact_formation_error(target, *_exact_inputs(target))
        assert len(einsums) == n + 1
        assert all(op.dtype == np.float64 for _, *ops in einsums for op in ops)
        (matrix,) = seen
        assert matrix.dtype == np.float64 and matrix.flags.c_contiguous


def _ascending_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_x a[x, i] b[x, j], one unfused multiply and add per string in
    ascending x: the order of the reference's weight-resolved sums."""
    sums = np.zeros((a.shape[1], b.shape[1]))
    product = np.empty_like(sums)
    for x in range(len(a)):
        np.add(sums, np.multiply(a[x, :, None], b[x, None, :], out=product), out=sums)
    return sums


def test_einsum_sums_strings_in_order():
    # The mixed block sums each weight's strings with float64 einsum, which
    # must add them one at a time in ascending x, unfused, on every shape it
    # gets: (C(n, w), 2^n) x (C(n, w), typical + 1) for each k window at
    # 0 < p < 1, and (C(n, w), 1) x (C(n, w), 2) for the single arrangement
    # of p = 0 or 1; the + 1 is the spare zero column.  A NumPy that fuses
    # or reorders this sum fails here by name.  n = 10 is left out at
    # 0 < p < 1: its loops take about 20 s on a 2-vCPU Xeon, and a one-off
    # sweep of its shapes with NumPy 2.4 found no difference.
    rng = np.random.default_rng(7)
    for n in range(1, 11):
        shapes = {(1, 2)}
        for p in np.linspace(0.0, 1.0, 401)[1:-1] if n < 10 else ():
            k_lo = max(0, math.ceil(n * p - math.sqrt(n)))
            k_hi = min(n, math.floor(n * p + math.sqrt(n)))
            shapes.add((2 ** n, sum(math.comb(n, k) for k in range(k_lo, k_hi + 1)) + 1))
        for rows, cols in sorted(shapes):
            for w in range(n + 1):
                a = rng.standard_normal((math.comb(n, w), rows))
                b = rng.standard_normal((math.comb(n, w), cols))
                a[rng.random(a.shape) < 0.1] = -0.0
                b[:, -1] = 0.0
                summed = np.einsum("xi,xj->ij", a, b, optimize=False)
                assert summed.tobytes() == _ascending_sums(a, b).tobytes(), (n, w, rows, cols)


def hermitian_formation_error(target: CoherentTarget, frame_n: int,
                              t_of: dict[int, int], k_window: tuple[int, int]
                              ) -> tuple[float, float]:
    """Trace distance and catalyst fidelity of the dense problem, solved
    apart from the Gram route: the explicit u and v vectors in system (x)
    frame, an orthonormal basis of their span by QR, and eigvalsh of the
    Hermitian difference of the two states projected onto it."""
    n = target.n
    k_lo, k_hi = k_window
    levels = frame_n + 2 * n          # every window shift t - w lies in [-n, n]

    def window(shift: int) -> np.ndarray:
        vec = np.zeros(levels)
        vec[n + shift:n + shift + frame_n] = 1 / math.sqrt(frame_n)
        return vec

    excitation = [bin(x).count("1") for x in range(2 ** n)]
    us, vs, p_u, p_v = [], [], [], []
    for k in range(n + 1):
        weight = target.p ** k * (1 - target.p) ** (n - k)
        for g in combinations(range(n), k):
            psi = _reference_psi_vector(target, k, set(g))
            vs.append(np.kron(psi, window(0)))
            p_v.append(weight)
            if k_lo <= k <= k_hi:
                frames = np.array([window(t_of[k] - w) for w in excitation])
                us.append((psi[:, None] * frames).ravel())
                p_u.append(weight)
    basis, _ = np.linalg.qr(np.column_stack(us + vs))
    u = basis.conj().T @ np.column_stack(us)
    v = basis.conj().T @ np.column_stack(vs)
    difference = (u * p_u) @ u.conj().T - (v * p_v) @ v.conj().T
    distance = 0.5 * float(np.abs(np.linalg.eigvalsh(difference)).sum())
    fidelity = sum(w * np.linalg.norm(vec.reshape(2 ** n, levels) @ window(0)) ** 2
                   for w, vec in zip(p_u, us))
    return distance, fidelity


@pytest.mark.parametrize("n, a, b, p", [
    (3, math.sqrt(0.3) * cmath.exp(1.1j), math.sqrt(0.7) * cmath.exp(-2.5j), 0.4),
    (4, math.sqrt(0.1) * cmath.exp(0.3j), math.sqrt(0.9), 0.5),
    (5, math.sqrt(0.6), math.sqrt(0.4) * cmath.exp(2.2j), 0.3),
    (6, math.sqrt(0.2) * cmath.exp(4.0j), math.sqrt(0.8) * cmath.exp(0.7j), 0.65),
    (7, math.sqrt(0.15) * cmath.exp(5.9j), math.sqrt(0.85) * cmath.exp(3.1j), 0.45),
    (5, -math.sqrt(0.3), math.sqrt(0.7), 0.5),
    (6, math.sqrt(0.4), -math.sqrt(0.6), 0.2),
    (7, -math.sqrt(0.25), -math.sqrt(0.75), 0.8),
    (6, math.sqrt(0.3) * cmath.exp(2.0j), math.sqrt(0.7) * cmath.exp(0.5j), 0.0),
    (7, math.sqrt(0.7) * cmath.exp(0.9j), -math.sqrt(0.3), 1.0),
    (7, -math.sqrt(0.1), math.sqrt(0.9) * cmath.exp(1.7j), 0.0),
])
def test_phases_gauged_away(n, a, b, p):
    # Phases and signs of a and b are a free energy-preserving unitary on
    # each copy, so the exact error is the modulus twin's to the last bit,
    # and the twin's value solves the phased problem itself.  The 1e-7
    # bound covers the Gram route's non-Hermitian eigensolver noise.
    target = CoherentTarget(a=a, b=b, p=p, n=n)
    twin = CoherentTarget(a=abs(a), b=abs(b), p=p, n=n)
    args = _exact_inputs(target)
    result = coherent._exact_formation_error(target, *args)
    assert result == coherent._exact_formation_error(twin, *args)
    expected = hermitian_formation_error(target, *args)
    assert result == pytest.approx(expected, rel=1e-7, abs=0.0)


def test_pinned_benchmark_distances():
    # The seed-0 oracle-exec distances pinned in perfbench/reference.json,
    # checked to its gate's 1e-9 relative.  They carry eigensolver noise
    # (the BLAS thread count alone moves coherent-6 by 1.4e-9), so they are
    # computed in a fresh interpreter with one BLAS thread, as the benchmark
    # runs them; a host or LAPACK that moves them fails here first.
    pins = {4: 0.26909239365099974, 6: 0.29031893378517254, 8: 0.3288418751284601}
    code = ("import math, sys; from athermal.coherent import CoherentTarget, "
            "coherent_formation_error as f\n"
            "for n in map(int, sys.argv[1:]):\n"
            "    t = CoherentTarget(a=math.sqrt(0.1), b=math.sqrt(1.0 - 0.1), p=0.5, n=n)\n"
            "    print(repr(f(t, exact=True).exact_trace_distance))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code, *map(str, pins)], env=env,
                         capture_output=True, text=True, check=True)
    distances = [float(line) for line in out.stdout.split()]
    assert distances == [pytest.approx(pin, rel=1e-9, abs=0.0) for pin in pins.values()]


def test_exact_mode_peak_allocation():
    # n = 8 (a^2 = 0.1, p = 0.5) traces a peak of about 18.3 MB with NumPy
    # 2.4, under the 21.9 MB bound.  The mixed block built as one 3-D
    # product tensor (256 x 239 x 256 float64 values) would hold about
    # 125 MB.
    coherent_formation_error(CoherentTarget(a=math.sqrt(0.1), b=math.sqrt(0.9), p=0.5, n=4),
                             exact=True)
    target = CoherentTarget(a=math.sqrt(0.1), b=math.sqrt(0.9), p=0.5, n=8)
    tracemalloc.start()
    try:
        coherent_formation_error(target, exact=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (20.9 + 1.0) * 1e6


class TestDegeneracyCheck:
    """Levels are decided by float margins certified at margin_bound(n)."""

    @staticmethod
    def levels(n, a2, p):
        # The sectors in the k window of coherent_formation_error that
        # carry mass, grouped by surrogate energy level.
        target = CoherentTarget(a=math.sqrt(a2), b=math.sqrt(1 - a2), p=p, n=n)
        k_lo = max(0, math.ceil(n * p - math.sqrt(n)))
        k_hi = min(n, math.floor(n * p + math.sqrt(n)))
        levels = {}
        for k in range(k_lo, k_hi + 1):
            if p < 1 or k == n:
                levels.setdefault(round(target.mean_energy(k)), []).append(k)
        return levels

    @staticmethod
    def exact_shortfalls(n, levels):
        # The refusal text of every short level, in exact integers.
        out = set()
        for level, ks in levels.items():
            count = sum(math.comb(n, k) for k in ks)
            offered = math.comb(n, level)
            if count > offered:
                out.add(f"energy level {level} offers {offered} labels but {count} are needed")
        return out

    def test_decisions_equal_exact_integers(self):
        shortfalls = 0
        for n in range(1, 301):
            for a2 in (0.05, 0.1, 0.2, 0.5):
                for p in (0.5, 0.75, 0.9, 1.0):
                    levels = self.levels(n, a2, p)
                    expected = self.exact_shortfalls(n, levels)
                    try:
                        coherent._check_degeneracy(n, levels)
                        assert not expected, (n, a2, p)
                    except DegeneracyShortfallError as exc:
                        assert str(exc) in expected, (n, a2, p)
                    shortfalls += bool(expected)
        assert 0 < shortfalls < 4800

    def test_full_report_refuses_a_short_level(self):
        levels = self.levels(10, 0.1, 0.5)
        with pytest.raises(DegeneracyShortfallError) as exc:
            coherent_formation_error(
                CoherentTarget(a=math.sqrt(0.1), b=math.sqrt(0.9), p=0.5, n=10))
        assert str(exc.value) == "energy level 3 offers 120 labels but 165 are needed"
        assert str(exc.value) in self.exact_shortfalls(10, levels)

    def test_huge_counts_are_given_as_powers_of_ten(self):
        # C(20000, 9998) has 6,019 digits, past the 4,300 Python prints.
        with pytest.raises(DegeneracyShortfallError) as exc:
            coherent_formation_error(
                CoherentTarget(a=math.sqrt(0.1), b=math.sqrt(0.9), p=0.5, n=20000))
        level, offered, needed = re.fullmatch(
            r"energy level (\d+) offers about 10\^(\S+) labels but about 10\^(\S+) are needed",
            str(exc.value)).groups()
        assert float(offered) == pytest.approx(
            math.log10(math.comb(20000, int(level))), abs=1e-4)
        assert float(offered) < float(needed)

    def test_large_level_takes_no_exact_binomial(self, monkeypatch):
        # C(1e6, 5e5) alone takes about 10 s in exact integers; its margin
        # is far above delta, so it is never formed.
        def refuse(*args):
            raise AssertionError(f"math.comb{args}")
        monkeypatch.setattr(coherent.math, "comb", refuse)
        coherent._check_degeneracy(10**6, self.levels(10**6, 0.5, 1.0))

    @staticmethod
    def comb_calls(monkeypatch):
        calls = []
        real = math.comb
        monkeypatch.setattr(coherent.math, "comb", lambda *a: calls.append(a) or real(*a))
        return calls

    def test_tied_level_is_decided_exactly(self, monkeypatch):
        # C(n, k) needed at level k or n - k: margin 0, inside delta, and
        # the two sides cancel, so no C(n, .) is formed.
        calls = self.comb_calls(monkeypatch)
        coherent._check_degeneracy(40, {25: [15]})
        assert calls == []

    def test_identity_target_forms_no_binomial(self, monkeypatch):
        # At |a|^2 = 0 every level holds one sector k at level k: all ties.
        levels = self.levels(30000, 0.0, 0.5)
        assert len(levels) > 300 and all(ks == [level] for level, ks in levels.items())
        calls = self.comb_calls(monkeypatch)
        coherent._check_degeneracy(30000, levels)
        assert calls == []


class TestAnalyticMasses:
    """Sector masses and k_tail come from log-space binomials at every n."""

    @pytest.mark.parametrize("n", [1200, 5000])
    @pytest.mark.parametrize("a2, p", [(0.5, 1.0), (0.1, 0.9)])
    def test_large_n_tail_matches_scipy(self, n, a2, p):
        report = coherent_formation_error(
            CoherentTarget(a=math.sqrt(a2), b=math.sqrt(1 - a2), p=p, n=n))
        assert report.exact_trace_distance is None
        lo, hi = report.k_window
        expected = binom.cdf(lo - 1, n, p) + binom.sf(hi, n, p)
        assert report.k_tail == pytest.approx(expected, rel=1e-9, abs=0.0)
        mass = sum(s.weight for s in report.sectors) + report.k_tail
        assert mass == pytest.approx(1.0, rel=1e-9)
        assert 0.0 <= report.analytic_bound <= 1.0 + 1e-12

    # analytic_bound and k_tail of the former float products
    # math.comb(n, k) * p**k * (1 - p)**(n - k), which overflow above n ~ 1030.
    @pytest.mark.parametrize("n, a2, p, bound, tail", [
        (4, 0.1, 0.5, 0.5064925597980107, 0.0),
        (16, 0.5, 1.0, 1.0, 0.0),
        (50, 0.1, 0.9, 0.5854414526204816, 0.001004619861786328),
        (100, 0.37, 0.3, 0.9893071922587039, 0.021385615482580903),
        (120, 0.2, 0.05, 0.8298527370982861, 0.00010416735634275906),
        (150, 0.9, 0.01, 0.5361887415919696, 5.02250132254826e-10),
        (200, 0.1, 0.9, 0.5271353129805084, 0.0008230585865298309),
    ])
    def test_small_n_values_kept(self, n, a2, p, bound, tail):
        report = coherent_formation_error(
            CoherentTarget(a=math.sqrt(a2), b=math.sqrt(1 - a2), p=p, n=n), exact=False)
        assert report.analytic_bound == pytest.approx(bound, rel=1e-12, abs=0.0)
        assert report.k_tail == pytest.approx(tail, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [1, 7, 1200])
    def test_edge_probabilities_keep_one_sector(self, n):
        for p, k in ((0.0, 0), (1.0, n)):
            report = coherent_formation_error(
                CoherentTarget(a=math.sqrt(0.3), b=math.sqrt(0.7), p=p, n=n), exact=False)
            assert [s.k for s in report.sectors] == [k]
            assert report.sectors[0].weight == 1.0
            assert report.k_tail == 0.0

    # Targets without a degeneracy shortfall at these n: pure ones at p = 0
    # and p = 1, and two mixed ones.
    @pytest.mark.parametrize("n, a2, p", [
        (n, a2, p) for a2, p in ((0.5, 1.0), (0.9, 1.0), (0.3, 0.0), (0.05, 0.5))
        for n in range(1, 13)] + [(n, 0.1, 0.9) for n in range(1, 5)])
    def test_sector_norms_match_direct_sums(self, n, a2, p):
        # Each sector's nu2 and nu3 from the excitation pmf as math.comb sums
        # and the frame-shift norms as dense state-vector differences.
        target = CoherentTarget(a=math.sqrt(a2), b=math.sqrt(1 - a2), p=p, n=n)
        report = coherent_formation_error(target, exact=False)
        frame = report.frame
        ea, eb = abs(target.a) ** 2, abs(target.b) ** 2
        assert report.sectors
        for sector in report.sectors:
            k = sector.k
            mu = target.mean_energy(k)
            assert sector.surrogate_energy == round(mu)
            pmf = [sum(math.comb(k, j) * eb ** j * (1 - eb) ** (k - j)
                       * math.comb(n - k, t - j) * ea ** (t - j) * (1 - ea) ** (n - k - t + j)
                       for j in range(max(0, t - n + k), min(k, t) + 1))
                   for t in range(n + 1)]
            inside = [t for t in range(n + 1) if abs(t - mu) <= math.sqrt(n)]
            assert sector.typ_window == (inside[0], inside[-1])
            base = state_vector(frame, 0)
            nu2_sq = sum(pmf[t] * np.linalg.norm(
                state_vector(frame, t - sector.surrogate_energy) - base) ** 2 for t in inside)
            tail = sum(pmf[t] for t in range(n + 1) if t not in inside)
            assert sector.nu2_norm == pytest.approx(math.sqrt(nu2_sq), rel=1e-12, abs=1e-15)
            assert sector.nu3_bound == pytest.approx(math.sqrt(tail), rel=1e-12, abs=1e-15)

    def test_amplitude_just_above_one(self):
        # The constructor admits |a|^2 + |b|^2 within 1e-12 of 1, so |b|^2
        # can exceed 1; the excitation distribution treats it as 1.
        reports = [coherent_formation_error(CoherentTarget(a=0.0, b=b, p=0.3, n=12), exact=False)
                   for b in (1.0 + 1e-13, 1.0)]
        assert reports[0].analytic_bound == pytest.approx(reports[1].analytic_bound, rel=1e-12)


class TestWeightDistribution:
    """Each sector's excitation pmf is convolved over its nonzero spans."""

    @staticmethod
    def full_convolution(target, k):
        eb, ea = min(abs(target.b) ** 2, 1.0), min(abs(target.a) ** 2, 1.0)
        n = target.n
        return np.convolve(np.exp(binomial_log_pmf(k, eb, np.arange(k + 1))),
                           np.exp(binomial_log_pmf(n - k, ea, np.arange(n - k + 1))))

    @pytest.mark.parametrize("n", [8, 1000, 10000])
    @pytest.mark.parametrize("a2, p", [(0.0, 0.5), (0.05, 0.9), (0.5, 1.0), (0.9, 0.3)])
    def test_matches_full_convolution(self, n, a2, p):
        target = CoherentTarget(a=math.sqrt(a2), b=math.sqrt(1 - a2), p=p, n=n)
        for k in sorted({0, 1, n // 3, round(p * n), n}):
            dist = coherent._weight_distribution(target, k)
            assert dist.shape == (n + 1,)
            np.testing.assert_allclose(dist, self.full_convolution(target, k), rtol=0, atol=1e-15)

    def test_point_masses_convolve_one_term(self, monkeypatch):
        # At |a|^2 = 0 both pmfs of every sector are point masses.
        sizes = []
        real = np.convolve
        monkeypatch.setattr(np, "convolve", lambda x, y: sizes.append((len(x), len(y)))
                            or real(x, y))
        report = coherent_formation_error(CoherentTarget(a=0.0, b=1.0, p=0.5, n=30000),
                                          exact=False)
        assert len(sizes) == len(report.sectors) > 300
        assert set(sizes) == {(1, 1)}
        dist = coherent._weight_distribution(report.target, 7)
        assert dist[7] == 1.0 and np.count_nonzero(dist) == 1

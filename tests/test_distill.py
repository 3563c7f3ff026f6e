import itertools
import math
from fractions import Fraction
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy.special import gammaln, logsumexp
from scipy.stats import binom

from athermal import counting, distill
from athermal.core import DensityMatrix, binary_entropy, gibbs_state, Hamiltonian, relative_entropy
from athermal.counting import binomial_log_pmf, binomial_outside_mass
from athermal.distill import (
    distill_feasible,
    plan_distillation,
    plan_distillation_general,
    rate_limit,
    solve_single_type,
)
from athermal.form import plan_formation
from athermal.simulate import oracle_max_m
from athermal.typeclass import typical_range
from strings_reference import (
    StringMap,
    build_string_map,
    rank_fixed_weight,
    shell_input_counts,
    unrank_fixed_weight,
)

Q1 = math.exp(-1) / (1 + math.exp(-1))
COHERENT_RHO = DensityMatrix(np.array([[0.25, 0.3], [0.3, 0.75]]))


def gibbs_q(beta):
    return math.exp(-beta) / (1 + math.exp(-beta))


def outside_reference(n, p, window):
    """Binomial mass outside the window, from scipy's two tails."""
    return float(binom.cdf(window[0] - 1, n, p) + binom.sf(window[1], n, p))


def covered_types(plan):
    """Every (Gibbs type, resource type) of a distillation plan's windows."""
    return itertools.product(range(plan.gibbs_window[0], plan.gibbs_window[1] + 1),
                             range(plan.resource_window[0], plan.resource_window[1] + 1))


def check_worst_type(plan, count_r):
    """The binding record lies in the windows, conserves 1s and carries the
    exact logs of its counts; ``count_r(r)`` is a resource type's string count."""
    rec = plan.worst_type
    assert plan.covers(rec.gibbs_ones, rec.resource_ones) and rec.m == plan.m
    assert rec.gibbs_ones + rec.resource_ones == rec.exhaust_ones + plan.m
    inputs = math.comb(plan.ell, rec.gibbs_ones) * count_r(rec.resource_ones)
    exhaust = math.comb(plan.k, rec.exhaust_ones)
    assert inputs <= exhaust
    assert rec.log_input_cardinality == pytest.approx(math.log(inputs), rel=1e-12)
    assert rec.log_exhaust_cardinality == pytest.approx(math.log(exhaust), rel=1e-12)


def joint_shell_m(ell, n, g_window, r_window, count=math.comb):
    """Largest m fitting every shell, in exact integers: shell s holds
    sum C(ell, g) count(n, r) over its covered pairs, one math.comb per pair;
    returns m and the shell sums."""
    shells = {}
    for g in range(g_window[0], g_window[1] + 1):
        for r in range(r_window[0], r_window[1] + 1):
            shells[g + r] = shells.get(g + r, 0) + math.comb(ell, g) * count(n, r)
    m = min(shells)
    while any(math.comb(ell + n - m, s - m) < c for s, c in shells.items()):
        m -= 1
    return m, shells


def coherent_exact_m(plan, record):
    """Largest m fitting every shell of a coherent plan, in exact integers."""
    cap_total = sum(math.comb(plan.n, j) for j in range(record.eig_window[0],
                                                         record.eig_window[1] + 1))
    return joint_shell_m(plan.ell, plan.n, plan.gibbs_window, plan.resource_window,
                         lambda n, t: min(math.comb(n, t), cap_total))[0]


class TestRateLimit:
    def test_pure_excited(self):
        # h(q) + beta (1 - q) = -ln q makes numerator = denominator at p = 1.
        for beta in (0.3, 1.0, 2.5):
            q = math.exp(-beta) / (1 + math.exp(-beta))
            assert binary_entropy(q) + beta * (1 - q) == pytest.approx(-math.log(q), abs=1e-12)
            assert rate_limit(1.0, beta) == pytest.approx(1.0, abs=1e-12)

    def test_gibbs_input(self):
        assert rate_limit(Q1, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_reference_value(self):
        assert rate_limit(0.75, 1.0) == pytest.approx(0.38144, abs=1e-5)

    @given(p=st.floats(0.02, 0.98), beta=st.floats(0.1, 5.0))
    @settings(max_examples=60)
    def test_matches_relative_entropy_ratio(self, p, beta):
        gamma = gibbs_state(Hamiltonian.two_level(), beta)
        rho = DensityMatrix.diagonal([1 - p, p])
        one = DensityMatrix.diagonal([0.0, 1.0])
        ratio = (relative_entropy(rho, gamma.density_matrix())
                 / relative_entropy(one, gamma.density_matrix()))
        assert rate_limit(p, beta) == pytest.approx(ratio, abs=1e-12)


class TestSolveSingleType:
    def test_pure_excited_passthrough(self):
        assert solve_single_type(0, 0, 2, 2) == 2

    def test_reference_instance(self):
        # m=2: C(4,1) = 4 >= 4*1; m=3: C(3,0) = 1 < 4.
        assert solve_single_type(4, 1, 2, 2) == 2
        assert distill_feasible(4, 1, 2, 2, 2)
        assert not distill_feasible(4, 1, 2, 2, 3)

    def test_balanced_types_small_slack(self):
        # Gibbs-like inputs at q = 1/2: the per-type slack admits only a
        # vanishing-rate m (here 1 at ell = n = 8), verified by the oracle.
        m = solve_single_type(8, 4, 8, 4)
        assert m == oracle_max_m(8, 4, 8, 4)
        assert m / 8 <= 0.2

    def test_matches_oracle_small_grid(self):
        for ell in range(0, 7):
            for n in range(0, 7):
                for g in range(ell + 1):
                    for r in range(n + 1):
                        assert solve_single_type(ell, g, n, r) == oracle_max_m(ell, g, n, r)

    @given(ell=st.integers(0, 10), n=st.integers(0, 10), data=st.data())
    @settings(max_examples=60)
    def test_boundary_exactness(self, ell, n, data):
        g = data.draw(st.integers(0, ell))
        r = data.draw(st.integers(0, n))
        m = solve_single_type(ell, g, n, r)
        assert distill_feasible(ell, g, n, r, m)
        if m < g + r:
            assert not distill_feasible(ell, g, n, r, m + 1)

    def test_loggamma_mode_agrees(self):
        for args in [(40, 11, 30, 22), (25, 7, 25, 19)]:
            assert solve_single_type(*args, exact=True) == solve_single_type(*args, exact=False)


class TestPlanDistillation:
    def test_gibbs_input_no_resource(self):
        plan = plan_distillation(20, Q1, 1.0)
        assert plan.no_resource and plan.m == 0 and plan.achieved_rate == 0.0

    @pytest.mark.parametrize("beta", [1.0, 3.0])
    @pytest.mark.parametrize("offset", [-1e-9, -1e-10, -2e-12, 2e-12, 1e-10, 1e-9])
    def test_rate_rounding_near_gibbs_plans_nothing(self, beta, offset):
        # Within ~1e-9 of q the rate limit rounds to +-1e-17: a negative one
        # takes no bath, as in the coherent planner, instead of (R n)^(3/2)
        # turning complex.
        plan = plan_distillation(100, gibbs_q(beta) + offset, beta)
        assert plan.m == 0 and plan.ell <= 1 and not plan.no_resource

    def test_near_gibbs_plans_certify_no_shell_exactly(self, monkeypatch):
        # A small bath (114 at n = 1e5, 17 for the coherent plan) makes every
        # shell a Vandermonde near-tie at m = 0; that m holds by Vandermonde
        # and is not certified, so no shell needs exact integers.
        def refuse(self, s, m):
            raise AssertionError(f"exact fallback for shell {s} at m = {m}")

        monkeypatch.setattr(distill._Shells, "fits", refuse)
        plan = plan_distillation(10**5, 0.28, 1.0)
        assert plan.m == 0 and plan.ell == 114
        rho = DensityMatrix(np.array([[1 - Q1, 0.02], [0.02, Q1]]))
        plan, _ = plan_distillation_general(rho, 10**4, 1.0)
        assert plan.m == 0 and plan.ell == 17

    def test_pure_excited(self):
        plan = plan_distillation(50, 1.0, 1.0)
        assert plan.m >= 1
        assert plan.achieved_rate <= rate_limit(1.0, 1.0) + 1e-12

    def test_conservation_of_dimension(self):
        plan = plan_distillation(30, 0.9, 1.0, width=1.0)
        assert plan.k == plan.ell + plan.n - plan.m
        assert plan.epsilon == pytest.approx(plan.n / plan.ell)

    def test_per_type_records(self):
        # Every covered type fits at the plan's m in exact integers, though
        # only the binding record is kept.
        for n, width in ((12, 1.0), (24, 1.0), (40, 1.2)):
            plan = plan_distillation(n, 0.9, 1.0, width=width)
            assert plan.per_type_maps == ()
            assert all(distill_feasible(plan.ell, g, n, r, plan.m)
                       for g, r in covered_types(plan))
            check_worst_type(plan, partial(math.comb, n))

    def test_records_in_loggamma_mode(self):
        # The shell sums, in exact integers, bind at the plan's m; each type
        # inside them fits on its own.
        plan = plan_distillation(40, 0.9, 1.0, width=1.2)
        assert joint_shell_m(plan.ell, 40, plan.gibbs_window, plan.resource_window)[0] == plan.m
        assert all(distill_feasible(plan.ell, g, 40, r, plan.m) for g, r in covered_types(plan))
        check_worst_type(plan, partial(math.comb, 40))

    def test_ell_scaling(self):
        plan = plan_distillation(100, 0.75, 1.0)
        assert plan.ell == math.ceil((plan.r_limit * 100) ** 1.5)

    @pytest.mark.parametrize("n,p,beta,width", [
        (20, 0.9, 1.0, 1.0), (35, 0.8, 0.7, 2.0), (50, 1.0, 1.0, 3.0),
        (25, 0.6, 2.0, 1.5),
    ])
    def test_rate_never_exceeds_monotone_bound(self, n, p, beta, width):
        plan = plan_distillation(n, p, beta, width)
        assert plan.achieved_rate <= rate_limit(p, beta) + 1e-12

    def test_shell_sums_feasible_at_m(self):
        # Joint unitarity: every shell fits below C(k, s - m).
        plan = plan_distillation(24, 0.9, 1.0, width=1.0)
        sums = shell_input_counts(plan.ell, plan.n, plan.gibbs_window,
                                  plan.resource_window)
        for s, total in sums.items():
            assert total <= math.comb(plan.k, s - plan.m)

    def test_worst_type_recorded(self):
        plan = plan_distillation(40, 0.85, 1.0, width=1.2)
        assert plan.worst_type is not None
        assert plan.covers(plan.worst_type.gibbs_ones, plan.worst_type.resource_ones)
        # A no-resource plan (p = q) still names a (trivially binding) type.
        assert plan_distillation(20, Q1, 1.0).worst_type.m == 0

    @pytest.mark.parametrize("n, p, beta", [(5, 0.99, 0.5), (20, 0.6, 1.0), (20, 0.75, 1.0),
                                            (50, 0.6, 1.0)])
    @pytest.mark.parametrize("direction", [np.inf, -np.inf])
    def test_worst_pair_ignores_rounding_at_m0(self, monkeypatch, n, p, beta, direction):
        # At m = 0 every fully covered shell has margin exactly 0
        # (Vandermonde); the lowest shell within delta(N) of the least
        # margin binds, so one ulp on every ln k! moves no reported pair.
        plan = plan_distillation(n, p, beta)
        assert plan.m == 0
        log_factorial, calls = counting.log_factorial, []

        def nudged(k):
            value = log_factorial(k)
            calls.append(k)
            return np.where(np.isfinite(value), np.nextafter(value, direction), value)

        monkeypatch.setattr(counting, "log_factorial", nudged)
        moved = plan_distillation(n, p, beta)
        assert calls
        assert (moved.ell, moved.m, moved.k, moved.gibbs_window, moved.resource_window) \
            == (plan.ell, plan.m, plan.k, plan.gibbs_window, plan.resource_window)
        assert (moved.worst_type.gibbs_ones, moved.worst_type.resource_ones) \
            == (plan.worst_type.gibbs_ones, plan.worst_type.resource_ones)
        # The binding shell is the lowest of least exhaust-to-input ratio,
        # found here in exact integers.
        counts = shell_input_counts(plan.ell, n, plan.gibbs_window, plan.resource_window)
        ratios = {s: Fraction(math.comb(plan.k, s), count) for s, count in counts.items()}
        assert plan.worst_type.gibbs_ones + plan.worst_type.resource_ones \
            == min(sorted(ratios), key=ratios.get)

    @given(n=st.integers(1, 60), p=st.floats(0.05, 0.99), beta=st.floats(0.2, 3.0),
           width=st.floats(0.5, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_exact_solve_matches_joint_shell_search(self, n, p, beta, width):
        # An independent joint shell-count search, one math.comb per pair.
        q = gibbs_q(beta)
        ell = math.ceil((rate_limit(p, beta) * n) ** 1.5) if abs(p - q) > 1e-9 else 0
        g_window = typical_range(ell, q, width) if ell else (0, 0)
        r_window = typical_range(n, p, width)
        m, shells = joint_shell_m(ell, n, g_window, r_window)
        solved, (g, r) = distill._solve_window(ell, n, g_window, r_window,
                                               *distill._binomial_axis(n, r_window))
        assert solved == m
        # The reported shell has the smallest exact margin (exact ties, as
        # in full windows, may go either way).
        k = ell + n - m
        ratio = {s: Fraction(math.comb(k, s - m), c) for s, c in shells.items()}
        binding = g + r
        assert ratio[binding] == min(ratio.values())
        assert math.comb(ell, g) * math.comb(n, r) == max(
            math.comb(ell, x) * math.comb(n, binding - x)
            for x in range(g_window[0], g_window[1] + 1)
            if r_window[0] <= binding - x <= r_window[1])

    def test_failure_mass_is_window_complement(self):
        def window_mass(n, p, window):
            # Exact binomial mass of the window at the float p's exact value.
            p = Fraction(p)
            return sum(math.comb(n, k) * p ** k * (1 - p) ** (n - k)
                       for k in range(window[0], window[1] + 1))

        plan = plan_distillation(30, 0.8, 1.0, width=1.5)
        bath = window_mass(plan.ell, plan.q, plan.gibbs_window)
        res = window_mass(plan.n, plan.p, plan.resource_window)
        assert plan.failure_mass == pytest.approx(float(1 - bath * res), abs=1e-12)

    def test_solver_modes_agree(self):
        # The certified window solver must reproduce the exact-integer m.
        for (n, p, beta, width) in [(150, 0.75, 1.0, 1.5), (150, 0.75, 1.0, 3.0),
                                    (100, 0.9, 1.0, 3.0), (80, 0.95, 2.0, 3.0),
                                    (60, 0.99, 4.0, 3.0)]:
            plan = plan_distillation(n, p, beta, width)
            exact_m, _ = joint_shell_m(plan.ell, n, plan.gibbs_window, plan.resource_window)
            assert plan.m == exact_m > 0
        # The coherent planner's shell solve against exact integer shells.
        for (c, p, n) in [(0.3, 0.75, 100), (0.45, 0.5, 300), (0.1, 0.9, 150)]:
            rho = DensityMatrix(np.array([[1 - p, c], [c, p]]))
            plan, record = plan_distillation_general(rho, n, 1.0)
            assert plan.m == coherent_exact_m(plan, record)

    @pytest.mark.parametrize("n,ell,m", [(100_000, 7_449_621, 36_457),
                                         (50_000, 2_633_839, 17_873)])
    def test_pinned_large_plans(self, n, ell, m):
        plan = plan_distillation(n, 0.75, 1.0)
        assert (plan.ell, plan.m) == (ell, m)

    def test_failure_mass_from_direct_tails(self):
        # The true tails are ~1e-11, far below the rounding of 1 - mass.
        plan = plan_distillation(100_000, 0.75, 1.0)
        bath = outside_reference(plan.ell, plan.q, plan.gibbs_window)
        res = outside_reference(plan.n, plan.p, plan.resource_window)
        assert plan.failure_mass == pytest.approx(bath + res - bath * res, rel=1e-6)

    def test_deficit_decreases_with_n(self):
        deficits = []
        for n in (200, 800, 3200):
            plan = plan_distillation(n, 0.75, 1.0, width=1.5)
            deficits.append(plan.r_limit - plan.achieved_rate)
        assert all(d > 0 for d in deficits)
        assert deficits[0] > deficits[1] > deficits[2]


def reference_runs(v):
    """Contiguous runs of v spanning <= 300 nats, as (start, stop, top, exp(v - top))."""
    runs, start = [], 0
    while start < len(v):
        spread = np.maximum.accumulate(v[start:]) - np.minimum.accumulate(v[start:])
        stop = start + int(np.searchsorted(spread, 300.0, side="right"))
        top = v[start:stop].max()
        runs.append((start, stop, top, np.exp(v[start:stop] - top)))
        start = stop
    return runs


def reference_shell_log_sums(a, b):
    """The shell log-sums without pruning: both vectors tilted by one slope,
    cut into runs of <= 300 nats, and every pair of runs convolved."""
    longer = a if len(a) >= len(b) else b
    theta = (longer[0] - longer[-1]) / (len(longer) - 1) if len(longer) > 1 else 0.0
    b_runs = reference_runs((b - b.max()) + theta * np.arange(len(b)))
    out = np.full(len(a) + len(b) - 1, -np.inf)
    for a0, a1, a_top, a_exp in reference_runs((a - a.max()) + theta * np.arange(len(a))):
        for b0, b1, b_top, b_exp in b_runs:
            seg = out[a0 + b0:a1 + b1 - 1]
            np.logaddexp(seg, np.log(np.convolve(a_exp, b_exp)) + (a_top + b_top), out=seg)
    return (out - theta * np.arange(len(out))) + (a.max() + b.max())


class TestShellKernel:
    @staticmethod
    def exact_logs(big, window):
        return np.array([math.log(math.comb(big, k)) for k in range(window[0], window[1] + 1)])

    def check_against_exact(self, ell, n, g_window, r_window):
        sums = counting.shell_log_sums(self.exact_logs(ell, g_window),
                                       self.exact_logs(n, r_window))
        s_lo = g_window[0] + r_window[0]
        exact = shell_input_counts(ell, n, g_window, r_window)
        assert len(sums) == len(exact)
        for s, count in exact.items():
            ref = math.log(count)
            assert abs(sums[s - s_lo] - ref) <= 1e-12 * max(1.0, abs(ref))

    @given(ell=st.integers(1, 2000), n=st.integers(1, 300), p=st.floats(0.005, 0.995),
           beta=st.floats(0.05, 8.0), width=st.floats(0.5, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_matches_exact_shell_counts(self, ell, n, p, beta, width):
        self.check_against_exact(ell, n, typical_range(ell, gibbs_q(beta), width),
                                 typical_range(n, p, width))

    @pytest.mark.parametrize("ell,n,p,beta,width", [
        (2000, 300, 0.99, 6.0, 4.0), (300, 2000, 0.95, 0.2, 6.0), (2000, 40, 0.5, 8.0, 30.0),
    ])
    def test_multi_run_windows(self, monkeypatch, ell, n, p, beta, width):
        # Extreme p and beta: the tilted vectors span more than one run.
        runs = []
        real = counting._runs
        monkeypatch.setattr(counting, "_runs", lambda v: runs.append(real(v)) or runs[-1])
        self.check_against_exact(ell, n, typical_range(ell, gibbs_q(beta), width),
                                 typical_range(n, p, width))
        assert max(len(r) for r in runs) > 1

    @staticmethod
    def window_logs(ell, n, p, beta, width):
        g_window, r_window = typical_range(ell, gibbs_q(beta), width), typical_range(n, p, width)
        return (counting.log_comb(ell, np.arange(g_window[0], g_window[1] + 1)),
                counting.log_comb(n, np.arange(r_window[0], r_window[1] + 1)))

    @staticmethod
    def assert_matches_reference(a, b):
        # Log-sums within 1e-13 of each other: shell sums within 1e-13 relative.
        sums, ref = counting.shell_log_sums(a, b), reference_shell_log_sums(a, b)
        assert np.max(np.abs(sums - ref)) <= 1e-13

    @given(ell=st.integers(100_000, 1_000_000), n=st.integers(300, 3_000),
           p=st.floats(0.5, 0.999), beta=st.floats(0.2, 8.0), width=st.floats(2.0, 6.0))
    @settings(max_examples=40, deadline=None)
    def test_pruned_windows_match_reference(self, ell, n, p, beta, width):
        # Long bath windows against short, steep resource ones: most run pairs
        # lie far below the shells they reach.
        self.assert_matches_reference(*self.window_logs(ell, n, p, beta, width))

    @given(n=st.integers(1, 100_000), beta=st.floats(0.2, 3.0), offset=st.floats(1e-4, 0.02),
           width=st.floats(0.5, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_near_gibbs_windows_equal_reference(self, n, beta, offset, width):
        # p just above the Gibbs weight: ell = (R n)^1.5 is small, nothing is
        # pruned, and the kernel convolves exactly the reference's run pairs.
        p = gibbs_q(beta) + offset
        ell = max(1, math.ceil((rate_limit(p, beta) * n) ** 1.5))
        a, b = self.window_logs(ell, n, p, beta, width)
        real, kept = counting._kept_pairs, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(counting, "_kept_pairs", lambda *args: kept.append(real(*args)) or kept[-1])
            sums = counting.shell_log_sums(a, b)
        assert np.array_equal(sums, reference_shell_log_sums(a, b))
        assert all(k.all() for k in kept)

    @given(len_a=st.integers(1, 3_000), len_b=st.integers(1, 3_000),
           step=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_walks_match_reference(self, len_a, len_b, step, seed):
        # The pruning bound holds without concavity: the max-plus path then
        # yields some term of each shell rather than its largest.
        rng = np.random.default_rng(seed)
        self.assert_matches_reference(np.cumsum(rng.uniform(-step, step, len_a)),
                                      np.cumsum(rng.uniform(-step, step, len_b)))

    @given(length=st.integers(1, 5_000), step=st.floats(0.01, 200.0),
           seed=st.integers(0, 2**32 - 1))
    @example(length=4_097, step=0.0, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_runs_equal_full_scan(self, length, step, seed):
        # The windowed scan of _runs cuts the runs of the full scan, bit for
        # bit, from one run over the whole vector to hundreds of short ones.
        rng = np.random.default_rng(seed)
        v = np.cumsum(rng.uniform(-step, step, length))
        runs, ref = counting._runs(v), reference_runs(v)
        assert [r[:3] for r in runs] == [r[:3] for r in ref]
        assert all(r[3].tobytes() == f[3].tobytes() for r, f in zip(runs, ref))

    def test_pruning_skips_pairs_on_a_large_window(self, monkeypatch):
        # The distill n = 1e5 window at p = 0.75: 16,377 bath counts against
        # 1,897 resource counts.
        a, b = self.window_logs(7_449_621, 100_000, 0.75, 1.0, 3.0)
        ref = reference_shell_log_sums(a, b)
        products, real = [], np.convolve
        monkeypatch.setattr(counting.np, "convolve",
                            lambda x, y: products.append(len(x) * len(y)) or real(x, y))
        sums = counting.shell_log_sums(a, b)
        assert np.max(np.abs(sums - ref)) <= 1e-13
        assert 0 < sum(products) < 0.2 * len(a) * len(b)


def exact_log_ratio(top: int, bottom: int) -> float:
    """ln(top / bottom) of two positive big integers, to 50 digits."""
    with mpmath.workdps(50):
        return float(mpmath.log(mpmath.mpf(top)) - mpmath.log(mpmath.mpf(bottom)))


class TestCertifiedMargins:
    @given(n=st.integers(1, 700), p=st.floats(0.5, 0.99), beta=st.floats(0.2, 3.0),
           width=st.floats(0.5, 3.0), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_shell_margins_within_quarter_delta(self, n, p, beta, width, data):
        # ell = ceil((R n)^1.5) <= 700^1.5, so ell + n stays below 2e4.
        ell = math.ceil((rate_limit(p, beta) * n) ** 1.5)
        g_window, r_window = typical_range(ell, gibbs_q(beta), width), typical_range(n, p, width)
        shells = distill._Shells(ell, n, g_window, r_window, *distill._binomial_axis(n, r_window))
        m = data.draw(st.integers(0, int(shells.shells[0])))
        margins, delta = shells.margins(m), counting.margin_bound(ell + max(n, m))
        for i in data.draw(st.lists(st.integers(0, len(margins) - 1), min_size=1, max_size=6)):
            s = int(shells.shells[i])
            inputs = sum(math.comb(ell, g) * math.comb(n, s - g)
                         for g in range(max(g_window[0], s - r_window[1]),
                                        min(g_window[1], s - r_window[0]) + 1))
            ref = exact_log_ratio(math.comb(ell + n - m, s - m), inputs)
            assert abs(margins[i] - ref) <= delta / 4

    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)) | st.integers(1, 50),
                    max_size=3),
           st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)) | st.integers(1, 50),
                    max_size=3))
    @settings(max_examples=200)
    def test_products_compare_exactly(self, lhs, rhs):
        # Factors (x, y) stand for C(x, y) (y folded into [0, x]); common
        # binomials, repeated ones included, cancel without changing the answer.
        def fold(fs):
            return [(f[0], f[1] % (f[0] + 1)) if isinstance(f, tuple) else f for f in fs]

        def value(fs):
            return math.prod(math.comb(*f) if isinstance(f, tuple) else f for f in fs)

        lhs, rhs = fold(lhs), fold(rhs)
        assert counting.products_leq(lhs, rhs) == (value(lhs) <= value(rhs))
        assert counting.products_leq(lhs + lhs, lhs + rhs) == (value(lhs) <= value(rhs))

    @pytest.mark.parametrize("ell, n, width", [(40, 12, 1.0), (3000, 200, 2.0), (0, 30, 1.5)])
    def test_margins_match_log_comb(self, ell, n, width):
        # ln (ell+n-s)! is computed once per window; every m still reads the
        # bytes of ln C(ell+n-m, s-m) less the log sums, -inf included where
        # m passes the lowest shells.
        g_window = typical_range(ell, gibbs_q(1.0), width) if ell else (0, 0)
        r_window = typical_range(n, 0.8, width)
        shells = distill._Shells(ell, n, g_window, r_window, *distill._binomial_axis(n, r_window))
        lowest = int(shells.shells[0])
        for m in sorted({0, 1, lowest // 2, lowest, lowest + 1, lowest + 3, n}):
            expected = counting.log_comb(ell + n - m, shells.shells - m) - shells.log_sums
            assert shells.margins(m).tobytes() == expected.tobytes()
            if m > lowest:
                assert shells.margins(m)[0] == -math.inf

    def test_zero_margins_go_to_exact_fallback(self, monkeypatch):
        # Full windows at m = 0: shell s holds exactly C(ell + n, s) strings
        # (Vandermonde), so every float margin is 0 up to rounding.
        ell, n = 30, 20
        shells = distill._Shells(ell, n, (0, ell), (0, n), *distill._binomial_axis(n, (0, n)))
        assert np.all(np.abs(shells.margins(0)) < counting.margin_bound(ell + n))
        decided = []
        real = distill._Shells.fits
        monkeypatch.setattr(distill._Shells, "fits",
                            lambda self, s, m: decided.append(s) or real(self, s, m))
        assert shells.violation(0)[0] is None
        assert sorted(decided) == list(range(ell + n + 1))

    def test_one_string_short_is_infeasible(self):
        # No bath and one resource count raised by a single string: shell
        # 30 holds C(60, 30) + 1 strings for C(60, 30) exhaust strings, a
        # shortfall far below float resolution.
        n, r0 = 60, 30
        log_r, _ = distill._binomial_axis(n, (0, n))
        shells = distill._Shells(0, n, (0, 0), (0, n), log_r,
                                 lambda r: math.comb(n, r) + (r == r0))
        assert abs(shells.margins(0)[r0]) < counting.margin_bound(n)
        assert shells.violation(0)[0] == r0

    def test_records_certify_exactly_tight_types(self):
        # A no-resource plan (ell = 0, m = 0) maps each type onto itself:
        # type (0, r) reads C(n, r) <= C(n, r), and its record certifies the tie.
        plan = plan_distillation(200_000, Q1, 1.0)
        assert (plan.ell, plan.m, plan.gibbs_window) == (0, 0, (0, 0))
        assert all((plan.k, g + r - plan.m) == (plan.n, r) for g, r in covered_types(plan))
        rec = plan.worst_type
        assert rec.log_input_cardinality == rec.log_exhaust_cardinality
        assert rec.log_input_cardinality == pytest.approx(
            float(gammaln(200_001) - gammaln(rec.resource_ones + 1)
                  - gammaln(200_001 - rec.resource_ones)), rel=1e-12)


def mp_tail(n, p, a, b):
    """Binomial(n, p) mass of the counts a..b in 50-digit arithmetic: from
    the largest pmf term of the range outward both ways, by exact step
    ratios, each way until the log-concave bound term r / (1 - r) on what
    it leaves is below 1e-40 of the sum."""
    if a > b:
        return mpmath.mpf(0)
    with mpmath.workdps(50):
        p = mpmath.mpf(p)
        odds = p / (1 - p)
        top = min(b, max(a, math.floor((n + 1) * float(p))))
        peak = mpmath.exp(mpmath.loggamma(n + 1) - mpmath.loggamma(top + 1)
                          - mpmath.loggamma(n - top + 1) + top * mpmath.log(p)
                          + (n - top) * mpmath.log1p(-p))
        total = peak
        for step, end in ((1, b), (-1, a)):
            k, term = top, peak
            while k != end:
                r = odds * (n - k) / (k + 1) if step > 0 else k / ((n - k + 1) * odds)
                k, term = k + step, term * r
                total += term
                if r < 1 and term * r / (1 - r) < total * mpmath.mpf(10) ** -40:
                    break
        return total


def mp_outside(n, p, window):
    """Binomial(n, p) mass outside an inclusive window, 50 digits."""
    return mp_tail(n, p, 0, window[0] - 1) + mp_tail(n, p, window[1] + 1, n)


def count_pmf_calls(monkeypatch):
    calls = []
    real = counting.binomial_log_pmf
    monkeypatch.setattr(counting, "binomial_log_pmf",
                        lambda n, p, ks: calls.append(len(ks)) or real(n, p, ks))
    return calls


@st.composite
def tail_cases(draw):
    """(n, p, window): n log-uniform up to 1e7, p often within 1e-3 of 0
    or 1, window edges at sigma multiples around the mean (one often inside
    the bulk, so its tail holds the mode) or at 0 and n."""
    n = round(10 ** draw(st.floats(0, 7)))
    p = draw(st.floats(1e-3, 1 - 1e-3) | st.floats(1e-9, 1e-3)
             | st.floats(1e-9, 1e-3).map(lambda x: 1 - x))
    mean, sd = n * p, math.sqrt(n * p * (1 - p))
    edge = st.floats(-12, 12).map(lambda z: min(n, max(0, round(mean + z * sd))))
    lo, hi = sorted((draw(edge | st.just(0)), draw(edge | st.just(n))))
    return n, p, (lo, hi)


class TestOutsideMass:
    @given(n=st.integers(1, 10**6), p=st.floats(0.001, 0.999), width=st.floats(0.3, 6.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_tails(self, n, p, width):
        window = typical_range(n, p, width)
        assert binomial_outside_mass(n, p, window) == pytest.approx(
            outside_reference(n, p, window), rel=1e-6, abs=1e-300)

    @given(tail_cases())
    @settings(max_examples=40, deadline=None)
    @example((10**7, 0.75, typical_range(10**7, 0.75, 3.0)))
    @example((10**7, Q1, typical_range(10**7, Q1, 1.0)))
    @example((10**6, 1e-6, (0, 5)))                            # p near 0, lower tail empty
    @example((10**5, 1 - 1e-7, (10**5 - 3, 10**5)))            # p near 1, upper tail empty
    @example((10**6, 0.5, (500_100, 600_000)))                 # lower edge inside the bulk
    @example((10**6, 0.5, (400_000, 499_900)))                 # upper edge inside the bulk
    @example((10**6, 0.5, (499_950, 600_000)))                 # lower block past the size cap
    @example((1000, 0.3, (0, 1000)))                           # both tails empty
    @example((1000, 0.3, (1000, 1000)))                        # lower tail alone
    @example((1000, 0.3, (0, 0)))                              # upper tail alone
    @example((50, 0.999, (50, 50)))
    def test_matches_mpmath_tail_sums(self, case):
        # Masses below 1e-300 leave double precision, so only they get an
        # absolute bound.
        n, p, window = case
        assert binomial_outside_mass(n, p, window) == pytest.approx(
            float(mp_outside(n, p, window)), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("n, p, window", [
        (10, 0.75, (5, 9)), (10**4, 0.75, typical_range(10**4, 0.75, 3.0)),
        (10**5, 0.75, typical_range(10**5, 0.75, 3.0)), (291_366, Q1, (76_741, 79_979)),
        (7_449_621, Q1, (1_995_324, 2_011_700)), (10**7, 0.75, typical_range(10**7, 0.75, 3.0)),
        (10**6, 1e-4, (80, 120)), (10**6, 1 - 1e-4, (999_880, 999_920))])
    def test_one_pmf_call_past_the_mode(self, monkeypatch, n, p, window):
        # Both edges lie past the mode, where the edge step ratio sizes each
        # first block to close its tail; both blocks come from one call.
        calls = count_pmf_calls(monkeypatch)
        binomial_outside_mass(n, p, window)
        assert len(calls) == 1

    @pytest.mark.parametrize("window", [(500_100, 600_000), (499_950, 600_000)])
    def test_doubling_where_the_ratio_does_not_close(self, monkeypatch, window):
        # The lower edge lies inside the bulk (ratio >= 1), or so near the
        # mode that its block would pass _SIZED_BLOCK_MAX: its tail starts
        # at 256 points beside the upper tail's sized block, then doubles.
        calls = count_pmf_calls(monkeypatch)
        binomial_outside_mass(10**6, 0.5, window)
        assert calls[0] > 256 and calls[1:] == [512 * 2 ** i for i in range(len(calls) - 1)]
        assert len(calls) > 2

    def test_off_center_window(self):
        # The window misses the mode: one tail holds nearly all the mass.
        assert binomial_outside_mass(1000, 0.3, (500, 600)) == pytest.approx(
            outside_reference(1000, 0.3, (500, 600)), rel=1e-12)

    def test_deterministic_levels(self):
        assert binomial_outside_mass(10, 0.0, (0, 0)) == 0.0
        assert binomial_outside_mass(10, 1.0, (0, 9)) == 1.0


class TestBinomialLogPmf:
    @staticmethod
    def reference(n, p, k):
        with mpmath.workdps(50):
            p = mpmath.mpf(p)
            return float(mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1)
                         - mpmath.loggamma(n - k + 1) + k * mpmath.log(p)
                         + (n - k) * mpmath.log(1 - p))

    @pytest.mark.parametrize("n", [100_000, 30_000_000, 240_000_000])
    @pytest.mark.parametrize("p", [0.75, Q1, 0.003])
    def test_matches_mpmath_at_large_n(self, n, p):
        # A log error of 1e-10 is a 1e-10 relative error of the pmf.
        sd = math.sqrt(n * p * (1 - p))
        ks = [round(n * p + z * sd) for z in (-8, -3, -1, 0, 0.5, 2, 3, 8)]
        for k, value in zip(ks, binomial_log_pmf(n, p, ks)):
            assert abs(value - self.reference(n, p, k)) <= 1e-10

    def test_edges_exact(self):
        assert binomial_log_pmf(10, 0.3, [0, 10, -1, 11]).tolist() == [
            10 * math.log1p(-0.3), 10 * math.log(0.3), -math.inf, -math.inf]
        assert binomial_log_pmf(5, 0.0, [0, 1]).tolist() == [0.0, -math.inf]
        assert binomial_log_pmf(5, 1.0, [4, 5]).tolist() == [-math.inf, 0.0]

    def test_small_n_matches_mpmath(self):
        for n in (1, 2, 15, 16, 40):
            for p in (0.1, 0.5, 0.9):
                for k, value in zip(range(n + 1), binomial_log_pmf(n, p, np.arange(n + 1))):
                    assert value == pytest.approx(self.reference(n, p, k), rel=1e-13, abs=1e-13)


class TestLogFactorial:
    @staticmethod
    def relative_errors(ks):
        values = counting.log_factorial(np.asarray(ks))
        with mpmath.workdps(40):
            return [abs((mpmath.mpf(float(v)) - mpmath.loggamma(k + 1)) / mpmath.loggamma(k + 1))
                    for k, v in zip(ks, values.tolist())]

    def test_small_values_pinned_to_gammaln(self):
        # Bit for bit, so documents whose Birkhoff summary reads these
        # values load as they were written.
        assert counting.log_factorial(np.arange(16)).tolist() == gammaln(np.arange(16) + 1).tolist()

    def test_within_margin_bound_budget(self):
        # The margin bounds budget 2.5 eps relative error per log-factorial.
        rng = np.random.default_rng(20130)
        ks = [*range(2, 2001), *rng.integers(2001, 10**8, 3000).tolist(), 7_517_287]
        assert max(self.relative_errors(ks)) <= 2.5 * counting.EPS

    def test_table_and_direct_paths_agree(self):
        # Arrays below 2^16 read the table; larger ones evaluate directly.
        ks = np.arange(2 ** 16 + 1)
        assert counting.log_factorial(ks)[:-1].tolist() == counting.log_factorial(ks[:-1]).tolist()
        assert (counting.log_factorial(ks[16:])[:-1].tolist()
                == counting.log_factorial(ks[16:-1]).tolist())

    def test_poles_and_empty(self):
        # Negative k reads +inf, as log-gamma's poles do, on both paths.
        big = counting.log_factorial(np.array([-1, 2 ** 20, -5]))
        assert big[[0, 2]].tolist() == [math.inf, math.inf] and math.isfinite(big[1])
        assert counting.log_factorial(np.array([-1, 3])).tolist() == [math.inf, math.log(6)]
        assert counting.log_factorial(np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)

    @pytest.mark.filterwarnings("error")
    def test_stirlerr_does_not_overflow(self):
        assert counting.stirlerr(np.array([1e155, 1e300])).tolist() == pytest.approx(
            [1 / 12e155, 1 / 12e300], rel=1e-15)


class TestLogSumExp:
    @pytest.mark.parametrize("logs", [
        [-math.inf, -math.inf], [-3.5], [0.0], [700.0, 0.0, -700.0],
        list(np.linspace(-700.0, 0.0, 1001)), list(np.linspace(-1400.0, -700.0, 513)),
        [-745.0, -740.0], [1e-300, 0.0]])
    def test_matches_scipy(self, logs):
        assert counting.log_sum_exp(np.array(logs)) == pytest.approx(
            float(logsumexp(logs)), rel=4 * counting.EPS, abs=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("planner,p,beta", [
    (plan_distillation, 5e-324, 1.0), (plan_formation, 5e-324, 1.0),
    (plan_formation, 0.75, 707.5)])
def test_extreme_binomials_plan_without_warning(planner, p, beta):
    # Binomial(20, 5e-324) has a subnormal mean, which the deviance must not
    # divide by; at beta = 707.5 the Birkhoff bath holds ~1.3e308 strings,
    # so x + mean passes the float range.
    planner(20, p, beta)


class TestStringRanking:
    @given(st.integers(1, 16), st.data())
    def test_round_trip(self, length, data):
        weight = data.draw(st.integers(0, length))
        rank = data.draw(st.integers(0, math.comb(length, weight) - 1))
        bits = unrank_fixed_weight(rank, length, weight)
        assert sum(bits) == weight and len(bits) == length
        assert rank_fixed_weight(bits) == rank

    def test_lexicographic_order(self):
        # Lexicographically increasing bit strings get increasing ranks.
        strings = sorted(
            unrank_fixed_weight(r, 6, 3) for r in range(math.comb(6, 3)))
        assert [rank_fixed_weight(s) for s in strings] == list(range(20))


class TestStringMap:
    def test_identity_for_pure_input(self):
        smap = StringMap(ell=0, n=2, m=2, gibbs_ones=0, resource_ones=2)
        assert smap.apply((), (1, 1)) == (1, 1)

    def test_reference_instance_distinct_outputs(self):
        smap = StringMap(ell=4, n=2, m=2, gibbs_ones=1, resource_ones=2)
        pairs = list(smap.pairs())
        outputs = [out for _, out in pairs]
        assert len(pairs) == 4
        assert len(set(outputs)) == 4
        assert all(out[-2:] == (1, 1) for out in outputs)

    @pytest.mark.parametrize("ell,n,m,g,r", [
        (3, 3, 1, 1, 2), (4, 2, 2, 1, 2), (5, 4, 1, 2, 3), (6, 4, 0, 3, 2),
    ])
    def test_energy_conserved_pairwise(self, ell, n, m, g, r):
        assert distill_feasible(ell, g, n, r, m)
        smap = StringMap(ell, n, m, g, r)
        for src, dst in smap.pairs():
            assert sum(src) == sum(dst)

    def test_build_from_plan_requires_coverage(self):
        plan = plan_distillation(10, 0.9, 1.0, width=1.0)
        with pytest.raises(ValueError):
            build_string_map(plan, (plan.gibbs_window[1] + 1, plan.resource_window[0]))

    @given(ell=st.integers(0, 5), n=st.integers(1, 5), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_small_instances_conserve_and_inject(self, ell, n, data):
        g = data.draw(st.integers(0, ell))
        r = data.draw(st.integers(0, n))
        m = solve_single_type(ell, g, n, r)
        smap = StringMap(ell, n, m, g, r)
        outputs = set()
        for src, dst in smap.pairs():
            assert sum(src) == sum(dst)
            outputs.add(dst)
        assert len(outputs) == smap.input_cardinality

    def test_cross_type_injectivity(self):
        # Types sharing a total-1s shell must not collide anywhere.
        plan = plan_distillation(6, 0.8, 1.0, width=2.0)
        seen = {}
        for g in range(plan.gibbs_window[0], plan.gibbs_window[1] + 1):
            for r in range(plan.resource_window[0], plan.resource_window[1] + 1):
                smap = build_string_map(plan, (g, r))
                for src, dst in smap.pairs():
                    assert dst not in seen, f"collision between {seen.get(dst)} and {(g, r)}"
                    seen[dst] = (g, r)


class TestGeneralPlan:
    def test_diagonal_reduces_to_quasiclassical(self):
        rho = DensityMatrix.diagonal([0.25, 0.75])
        plan, record = plan_distillation_general(rho, 40, 1.0)
        assert plan == plan_distillation(40, 0.75, 1.0)
        assert record.entropy == pytest.approx(binary_entropy(0.75), abs=1e-12)

    @pytest.mark.parametrize("excited", [0.0, 1e-13, 1.0 - 1e-13, 1.0])
    def test_deterministic_levels_snap(self, excited):
        # |0><0| and |1><1|, and states within 1e-12 of them, plan as p = 0
        # and p = 1 exactly.
        rho = DensityMatrix.diagonal([1.0 - excited, excited])
        plan, record = plan_distillation_general(rho, 40, 1.0)
        assert plan == plan_distillation(40, round(excited), 1.0)
        assert record.mean_energy == round(excited)

    def test_pure_coherent_rate_target(self):
        rho = DensityMatrix.pure([1, 1])
        plan, record = plan_distillation_general(rho, 150, 1.0)
        target = (binary_entropy(Q1) + (0.5 - Q1)) / (binary_entropy(Q1) + (1 - Q1))
        assert plan.r_limit == pytest.approx(target, abs=1e-12)
        assert record.entropy == pytest.approx(0.0, abs=1e-10)
        assert record.eig_window == (150, 150)

    @pytest.mark.parametrize("theta,lam,n", [
        (0.3, 0.8, 60), (0.8, 0.65, 90), (1.2, 0.95, 120),
    ])
    def test_rate_never_exceeds_monotone(self, theta, lam, n):
        v1 = np.array([math.cos(theta), math.sin(theta)])
        v2 = np.array([-math.sin(theta), math.cos(theta)])
        rho = DensityMatrix(lam * np.outer(v1, v1) + (1 - lam) * np.outer(v2, v2))
        gamma = gibbs_state(Hamiltonian.two_level(), 1.0)
        bound = (relative_entropy(rho, gamma.density_matrix())
                 / relative_entropy(DensityMatrix.diagonal([0, 1]), gamma.density_matrix()))
        plan, _ = plan_distillation_general(rho, n, 1.0)
        assert plan.achieved_rate <= bound + 1e-12
        assert plan.r_limit == pytest.approx(bound, abs=1e-10)

    @pytest.mark.parametrize("n,ell,m", [(2_000, 36_145, 792), (100_000, 12_778_965, 52_421)])
    def test_pinned_coherent_plans(self, n, ell, m):
        plan, _ = plan_distillation_general(COHERENT_RHO, n, 1.0)
        assert (plan.ell, plan.m) == (ell, m)

    def test_coherent_failure_mass_from_direct_tails(self):
        plan, record = plan_distillation_general(COHERENT_RHO, 2_000, 1.0)
        lam = max(COHERENT_RHO.eigensystem()[0])
        reference = (outside_reference(plan.ell, plan.q, plan.gibbs_window)
                     + outside_reference(plan.n, plan.p, plan.resource_window)
                     + 2 * math.sqrt(outside_reference(plan.n, lam, record.eig_window)))
        assert plan.failure_mass == pytest.approx(reference, rel=1e-6)

    def test_non_qubit_rejected(self):
        with pytest.raises(ValueError):
            plan_distillation_general(DensityMatrix.diagonal([0.3, 0.3, 0.4]), 10, 1.0)

    def test_coherent_records_from_block_record(self):
        # Each energy block t holds min(C(n, t), the eigenvalue window's
        # count) strings, and every covered (g, t) fits at m.
        plan, record = plan_distillation_general(COHERENT_RHO, 100, 1.0)
        total = sum(math.comb(100, j) for j in range(record.eig_window[0], record.eig_window[1] + 1))
        cap = lambda t: min(math.comb(100, t), total)
        assert all(math.comb(plan.ell, g) * cap(t) <= math.comb(plan.k, g + t - plan.m)
                   for g, t in covered_types(plan))
        check_worst_type(plan, cap)

    def test_coherent_plan_has_no_string_maps(self):
        # Rank-capped block records are not literal type classes, so the
        # string executors must refuse them.
        plan, _ = plan_distillation_general(DensityMatrix.pure([1, 1]), 30, 1.0)
        assert plan.coherent
        with pytest.raises(ValueError):
            build_string_map(plan, (plan.gibbs_window[0], plan.resource_window[0]))

import heapq
import json
import math
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from athermal import distill, form
from athermal.cli import dumps_report, plan_from_dict, plan_to_dict
from athermal.core import gibbs_weight
from athermal.counting import log_comb, margin_bound
from athermal.distill import plan_distillation, rate_limit, solve_single_type
from athermal.form import (
    BirkhoffSpan,
    InfeasibleFormationError,
    birkhoff_partition,
    formation_feasible,
    gibbs_type_birkhoff,
    plan_formation,
    target_birkhoff,
)
from athermal.typeclass import typical_range
from birkhoff_reference import eager_fill
from strings_reference import build_formation_string_map, explicit_sets

Q1 = math.exp(-1) / (1 + math.exp(-1))


def reference_pairs(n, ell, g_window, t_window):
    """Per-diagonal maxima of ln C(ell, g) - ln C(n, t) by a scan of every
    pair, one numpy pass per target type; a float tie keeps the smallest g."""
    (g_lo, g_hi), (t_lo, t_hi) = g_window, t_window
    gs = np.arange(g_lo, g_hi + 1)
    log_g, log_t = log_comb(ell, gs), log_comb(n, np.arange(t_lo, t_hi + 1))
    js = np.arange(g_lo - t_hi, g_hi - t_lo + 1)
    top = np.full(len(js), -np.inf)
    top_g = np.zeros(len(js), dtype=np.int64)
    for i, lt in enumerate(log_t):
        start = t_hi - t_lo - i            # index of j = g_lo - t
        seg = top[start:start + len(gs)]
        vals = log_g - lt
        better = vals > seg
        seg[better] = vals[better]
        top_g[start:start + len(gs)][better] = gs[better]
    return top, top_g


def reference_greedy_fill(groups, targets, ell, tolerance, grouped=True):
    """The heap greedy the log-space fill replaced: a heap of bin deficits,
    one pop per span, chunks floor(deficit / weight) in exact integers, and
    a merge pass over each set's spans.  groups: (single-string weight,
    multiplicity, ones-count) triples.  Returns the partition's fields,
    spans included."""
    n_sets = len(targets)
    spans = [[] for _ in range(n_sets)]
    achieved = [0.0] * n_sets
    heap = [(-float(t), k) for k, t in enumerate(targets)]
    heapq.heapify(heap)
    max_weight = max((w for w, mult, _ in groups if mult > 0), default=0.0)
    for weight, mult, ones in sorted(groups, key=lambda x: (-x[0], x[2])):
        offset, remaining = 0, mult
        while remaining > 0:
            neg_d, k = heapq.heappop(heap)
            deficit = -neg_d
            if weight <= 0.0 or deficit <= 0.0:
                chunk = remaining
            else:
                chunk = min(remaining, max(1, math.floor(deficit / weight)))
            spans[k].append(BirkhoffSpan(ones, offset, chunk))
            achieved[k] += chunk * weight
            offset += chunk
            remaining -= chunk
            heapq.heappush(heap, (-(deficit - chunk * weight), k))
    merged = []
    for k in range(n_sets):
        runs = []
        for span in sorted(spans[k], key=lambda s: (s.ones, s.start)):
            if runs and runs[-1].ones == span.ones and runs[-1].start + runs[-1].count == span.start:
                runs[-1] = BirkhoffSpan(span.ones, runs[-1].start, runs[-1].count + span.count)
            else:
                runs.append(span)
        merged.append(tuple(runs))
    deviation = max(abs(a - float(t)) for a, t in zip(achieved, targets))
    return SimpleNamespace(
        ell=ell, target_weights=tuple(float(t) for t in targets), sets=tuple(merged),
        achieved_weights=tuple(achieved), max_deviation=deviation, tolerance=tolerance,
        within_tolerance=bool(deviation <= tolerance + 1e-12 and max_weight <= tolerance + 1e-12),
        grouped=grouped)


def reference_gibbs_groups(ell, q):
    """Every type class of ell Gibbs strings: (weight, C(ell, t), t)."""
    return [(q ** t * (1.0 - q) ** (ell - t), math.comb(ell, t), t) for t in range(ell + 1)]


def check_fill(part, weights):
    """The sets partition the string indices, each achieved weight is its
    set's string weight sum, and no bin misses its target by more than the
    largest single weight."""
    sets = explicit_sets(part)
    assert sorted(i for s in sets for i in s) == list(range(len(weights)))
    for achieved, indices in zip(part.achieved_weights, sets):
        assert abs(achieved - math.fsum(weights[i] for i in indices)) <= 1e-12
    assert part.max_deviation <= max(weights)


def draw_window(data, top):
    """An inclusive window in [0, top]; its ends often sit at 0 or top, and
    it often holds a single type."""
    end = st.sampled_from([0, top]) | st.integers(0, top)
    a = data.draw(end)
    return tuple(sorted((a, data.draw(st.just(a) | end))))


def least_m(n, t, ell, g):
    """The window solve at the one pair (g, t): the smallest m >= 0 making
    the formation inequality hold, as plan_formation decides it."""
    return form._formation_m(n, ell, (g, g), (t, t))[0]


class TestSolveFormation:
    def test_forming_gibbs_type_is_free(self):
        # n = ell and target = Gibbs type: k = 0 and equality holds at m = 0.
        assert least_m(6, 3, 6, 3) == 0
        assert least_m(10, 2, 10, 2) == 0

    def test_reference_instance(self):
        # smallest m with C(4,1) <= C(m+2, m-1): m = 2 gives 4 <= C(4,1) = 4.
        assert least_m(2, 2, 4, 1) == 2
        assert formation_feasible(2, 2, 4, 1, 2)
        assert not formation_feasible(2, 2, 4, 1, 1)

    def test_infeasible_signal(self):
        # g - t > ell - n makes the exhaust overflow at every m.
        with pytest.raises(InfeasibleFormationError):
            least_m(2, 0, 3, 3)

    @given(ell=st.integers(1, 10), n=st.integers(1, 10), data=st.data())
    @settings(max_examples=60)
    def test_boundary_minimality(self, ell, n, data):
        g = data.draw(st.integers(0, ell))
        t = data.draw(st.integers(0, n))
        any_feasible = any(formation_feasible(n, t, ell, g, m)
                           for m in range(ell + n + 1))
        if not any_feasible:
            with pytest.raises(InfeasibleFormationError):
                least_m(n, t, ell, g)
            return
        m = least_m(n, t, ell, g)
        assert formation_feasible(n, t, ell, g, m)
        if m > 0:
            assert not formation_feasible(n, t, ell, g, m - 1)

    def test_exhaustive_grid_matches_scan(self):
        # Every instance with n <= 8 and ell <= 16: the least m of a plain
        # scan, and InfeasibleFormationError exactly when the scan finds none.
        for n in range(1, 9):
            for ell in range(17):
                for t in range(n + 1):
                    for g in range(ell + 1):
                        least = next((m for m in range(ell + n + 1)
                                      if formation_feasible(n, t, ell, g, m)), None)
                        if least is None:
                            with pytest.raises(InfeasibleFormationError):
                                least_m(n, t, ell, g)
                        else:
                            assert least_m(n, t, ell, g) == least, \
                                (n, t, ell, g)

    def test_duality_with_distillation(self):
        # Formation of a type costs at least what distillation recovers
        # from it; the gap stays within the small-instance counting slack.
        for (ell, g, n, t) in [(8, 2, 4, 3), (10, 3, 5, 4), (12, 3, 6, 4),
                               (9, 2, 6, 5), (14, 4, 7, 5)]:
            recovered = solve_single_type(ell, g, n, t)
            invested = least_m(n, t, ell, g)
            assert invested >= recovered
            assert invested - recovered <= 3


class TestPlanFormation:
    def test_free_target(self):
        plan = plan_formation(12, Q1, 1.0)
        assert plan.free_target and plan.m == 0 and plan.k == 0
        assert plan.work_per_copy == 0.0
        # identity per-type records: Gibbs type maps to itself
        records = list(plan.records())
        assert len(records) == plan.target_window[1] - plan.target_window[0] + 1
        assert plan.worst_type == records[0]
        for rec in records:
            assert rec.gibbs_ones == rec.target_ones and rec.exhaust_ones == 0
            assert rec.log_gibbs_cardinality == rec.log_output_cardinality == pytest.approx(
                math.log(math.comb(12, rec.target_ones)), rel=1e-12)

    @pytest.mark.parametrize("n", [10**5, 10**6])
    @pytest.mark.parametrize("p", [0.269, 0.27])
    def test_near_gibbs_fixed_point_settles(self, n, p):
        # m_prev starts at 1 here and the bath-too-small branch grows it by
        # 1.3x per step: 24 steps were too few from n = 1e5 on.
        plan = plan_formation(n, p, 1.0)
        assert 24 < plan.fixed_point_iterations < 24 + n.bit_length()
        assert plan.m + plan.ell == plan.n + plan.k

    def test_reverse_conservation_of_dimension(self):
        plan = plan_formation(20, 0.75, 1.0, width=1.5)
        assert plan.m + plan.ell == plan.n + plan.k

    def test_per_type_records(self):
        for n in (8, 15, 20):
            plan = plan_formation(n, 0.8, 1.0, width=1.2)
            records = list(plan.records())
            n_gibbs = plan.gibbs_window[1] - plan.gibbs_window[0] + 1
            assert len(records) == n_gibbs * (plan.target_window[1] - plan.target_window[0] + 1)
            assert plan.worst_type in records
            for rec in records:
                assert rec.gibbs_ones + plan.m == rec.exhaust_ones + rec.target_ones
                gibbs = math.comb(plan.ell, rec.gibbs_ones)
                output = math.comb(plan.k, rec.exhaust_ones) * math.comb(n, rec.target_ones)
                assert gibbs <= output
                assert rec.log_gibbs_cardinality == pytest.approx(math.log(gibbs), rel=1e-12)
                assert rec.log_output_cardinality == pytest.approx(math.log(output), rel=1e-12)

    @given(n=st.integers(1, 40), p=st.floats(0.3, 0.99), beta=st.floats(0.3, 3.0),
           width=st.floats(0.5, 2.5), growth=st.floats(1.0, 1.5))
    @settings(max_examples=40, deadline=None)
    def test_exact_refinement_matches_pair_scan(self, n, p, beta, width, growth):
        # Reference: one exact formation_feasible call per pair.  m is the
        # least feasible m because every pair holds at m and the reported
        # pair fails at m - 1, or m is the least m with a valid exhaust.
        ell = math.ceil((growth * max(1, math.ceil(n * rate_limit(p, beta)))) ** 1.5)
        g_window, t_window = typical_range(ell, gibbs_weight(beta), width), typical_range(n, p, width)
        pairs = [(g, t) for g in range(g_window[0], g_window[1] + 1)
                 for t in range(t_window[0], t_window[1] + 1)]
        if any(not formation_feasible(n, t, ell, g, ell + n) for g, t in pairs):
            with pytest.raises(InfeasibleFormationError):
                form._formation_m(n, ell, g_window, t_window)
            return
        m, (g, t) = form._formation_m(n, ell, g_window, t_window)
        assert all(formation_feasible(n, t_, ell, g_, m) for g_, t_ in pairs)
        assert (g, t) in pairs
        if m > max(0, n - ell, t_window[1] - g_window[0]):
            assert not formation_feasible(n, t, ell, g, m - 1)

    def test_register_bits(self):
        plan = plan_formation(20, 0.75, 1.0, width=1.5)
        n_types = plan.gibbs_window[1] - plan.gibbs_window[0] + 1
        expected = math.ceil(math.log2(n_types)) if n_types > 1 else 0
        assert plan.register_bits == expected

    def test_register_bits_logarithmic_in_ell(self):
        small = plan_formation(10, 0.75, 1.0, width=1.5)
        large = plan_formation(160, 0.75, 1.0, width=1.5)
        assert large.ell > 8 * small.ell
        # The register grows by O(log ell), not by any power of it.
        assert large.register_bits <= small.register_bits + math.log2(
            large.ell / small.ell) / 2 + 2

    def test_work_rate_approaches_limit(self):
        # cost_rate (copies per excited qubit) decreases toward 1/R.
        rates = []
        for n in (100, 400, 1600):
            plan = plan_formation(n, 0.75, 1.0, width=1.5)
            rates.append(plan.cost_rate)
        limit = 1 / 0.3814369578  # reciprocal of rate_limit(0.75, 1)
        assert rates[0] < rates[1] < rates[2] <= limit + 1e-9

    def test_round_trip_product_below_one(self):
        for n in (20, 60):
            pf = plan_formation(n, 0.8, 1.0, width=1.2)
            pd = plan_distillation(n, 0.8, 1.0, width=1.2)
            assert pd.m <= pf.m

    def test_solver_modes_agree(self):
        # The certified pair solve against an exact scan of every pair.
        for n in (60, 100):
            plan = plan_formation(n, 0.75, 1.0, 1.5)
            pairs = [(g, t) for g in range(plan.gibbs_window[0], plan.gibbs_window[1] + 1)
                     for t in range(plan.target_window[0], plan.target_window[1] + 1)]
            assert all(formation_feasible(n, t, plan.ell, g, plan.m) for g, t in pairs)
            assert not all(formation_feasible(n, t, plan.ell, g, plan.m - 1) for g, t in pairs)


class TestCertifiedPairs:
    @given(n=st.integers(1, 400), p=st.floats(0.5, 0.99), beta=st.floats(0.3, 3.0),
           width=st.floats(0.5, 2.5), growth=st.floats(1.0, 1.5), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_pair_margins_within_quarter_delta(self, n, p, beta, width, growth, data):
        # ell <= (1.5 * 400)^1.5, so ell + n stays below 2e4.
        ell = math.ceil((growth * max(1, math.ceil(n * rate_limit(p, beta)))) ** 1.5)
        g_window, t_window = typical_range(ell, gibbs_weight(beta), width), typical_range(n, p, width)
        assume(g_window[1] - t_window[0] <= ell - n)
        pairs = form._Pairs(n, ell, g_window, t_window)
        m = data.draw(st.integers(max(0, n - ell, t_window[1] - g_window[0]), ell + n))
        margins, delta = pairs.margins(m), margin_bound(ell + max(n, m))
        k = m + ell - n
        for i in data.draw(st.lists(st.integers(0, len(margins) - 1), min_size=1, max_size=6)):
            g, t = pairs.pair(i)
            with mpmath.workdps(50):
                ref = float(mpmath.log(mpmath.mpf(math.comb(k, g + m - t) * math.comb(n, t)))
                            - mpmath.log(mpmath.mpf(math.comb(ell, g))))
            assert abs(margins[i] - ref) <= delta / 4

    def test_tight_pairs_go_to_exact_fallback(self, monkeypatch):
        # C(4, 2) = 6 = C(3, 2) C(2, 1): pair (2, 1) at m = 1 holds with
        # equality, a margin of 0 that is no identity, so only the exact
        # comparison decides it.
        pairs = form._Pairs(2, 4, (2, 2), (1, 1))
        decided = []
        real = form.products_leq
        monkeypatch.setattr(form, "products_leq",
                            lambda lhs, rhs: decided.append((lhs, rhs)) or real(lhs, rhs))
        assert abs(pairs.margins(1)[0]) < margin_bound(4 + 2)
        assert pairs.violation(1)[0] is None
        assert decided == [([(4, 2)], [(3, 2), (2, 1)])]
        assert pairs.violation(0)[0] == (2, 1)
        assert form._formation_m(2, 4, (2, 2), (1, 1)) == (1, (2, 1))


class TestPairsBuild:
    @given(n=st.integers(1, 400), regime=st.sampled_from(["below", "equal", "above"]),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_scan(self, n, regime, data):
        # The step-sign candidates find the scan's maximum and its Gibbs
        # count byte for byte, for ell below, at and above n.
        ell = data.draw({"below": st.integers(0, n - 1), "equal": st.just(n),
                         "above": st.integers(n + 1, 3 * n + 20)}[regime])
        g_window, t_window = draw_window(data, ell), draw_window(data, n)
        pairs = form._Pairs(n, ell, g_window, t_window)
        top, top_g = reference_pairs(n, ell, g_window, t_window)
        assert pairs.top.tobytes() == top.tobytes()
        assert pairs.top_g.tobytes() == top_g.tobytes()

    @pytest.mark.parametrize("n", [10_000, 50_000])
    def test_benchmark_windows_match_reference_scan(self, n):
        plan = plan_formation(n, 0.75, 1.0)
        pairs = form._Pairs(n, plan.ell, plan.gibbs_window, plan.target_window)
        top, top_g = reference_pairs(n, plan.ell, plan.gibbs_window, plan.target_window)
        assert pairs.top.tobytes() == top.tobytes()
        assert pairs.top_g.tobytes() == top_g.tobytes()

    @given(n=st.integers(1, 39), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_top_g_maximises_exactly(self, n, data):
        # ell + n <= 40: every top_g maximises C(ell, g) / C(n, g - j) over
        # its diagonal in exact rationals.
        ell = data.draw(st.integers(0, 40 - n))
        g_window, t_window = draw_window(data, ell), draw_window(data, n)
        pairs = form._Pairs(n, ell, g_window, t_window)
        for i, j in enumerate(pairs.js.tolist()):
            def ratio(g):
                return Fraction(math.comb(ell, g), math.comb(n, g - j))
            diagonal = range(max(g_window[0], j + t_window[0]), min(g_window[1], j + t_window[1]) + 1)
            assert ratio(int(pairs.top_g[i])) == max(map(ratio, diagonal))


class TestIdentityScreen:
    @pytest.fixture
    def exact_calls(self, monkeypatch):
        calls = []
        for module in (form, distill):
            real = module.products_leq
            monkeypatch.setattr(module, "products_leq", lambda lhs, rhs, real=real:
                                calls.append((lhs, rhs)) or real(lhs, rhs))
        fits = distill._Shells.fits
        monkeypatch.setattr(distill._Shells, "fits",
                            lambda self, s, m: calls.append((s, m)) or fits(self, s, m))
        return calls

    def test_p1_plans_make_no_exact_call(self, exact_calls):
        # p = 1: every pair (formation) or shell (distillation) at m = n is
        # C(ell, g) <= C(ell, g), an identity settled without exact integers.
        assert plan_formation(10**4, 1.0, 1.0).m == 10**4
        assert plan_distillation(10**6, 1.0, 1.0).m == 10**6
        assert exact_calls == []

    def test_pair_identities(self, exact_calls):
        # Target window {n}: at m = n every pair reads C(ell, g) <= C(ell, g) C(n, n).
        n, ell = 20, 300
        g_window = typical_range(ell, Q1, 3.0)
        pairs = form._Pairs(n, ell, g_window, (n, n))
        assert pairs.violation(n)[0] is None
        assert pairs.violation(n - 1)[0] is not None
        assert form._formation_m(n, ell, g_window, (n, n))[0] == n
        # t = 0 and ell = 2g + n: C(10, 3) <= C(10, 7) C(4, 0).
        pairs = form._Pairs(4, 10, (3, 3), (0, 0))
        assert pairs.violation(4)[0] is None
        assert pairs.violation(3)[0] == (3, 0)
        assert exact_calls == []

    def test_shell_identities(self, exact_calls):
        # r = 0 and ell = 2g - n: shell g reads C(10, 7) C(4, 0) <= C(10, 3).
        shells = distill._Shells(10, 4, (7, 7), (0, 0), *distill._binomial_axis(4, (0, 0)))
        assert shells.violation(4)[0] is None
        assert shells.violation(5)[0] == 7
        assert exact_calls == []

    def test_records_skip_identities(self, exact_calls):
        plan = plan_formation(12, Q1, 1.0)
        assert len(list(plan.records())) == plan.target_window[1] - plan.target_window[0] + 1
        assert exact_calls == []


class TestBirkhoffPartition:
    def test_single_target(self):
        part = birkhoff_partition([0.25, 0.25, 0.5], [1.0], tolerance=0.6)
        assert part.max_deviation == pytest.approx(0.0, abs=1e-12)
        assert explicit_sets(part) == [[0, 1, 2]]

    def test_exact_even_split(self):
        part = birkhoff_partition([1 / 8] * 8, [0.5, 0.5], tolerance=0.2)
        sets = explicit_sets(part)
        assert sorted(len(s) for s in sets) == [4, 4]
        assert part.max_deviation == pytest.approx(0.0, abs=1e-12)

    def test_deviation_bounded_by_max_weight(self):
        part = birkhoff_partition([0.4, 0.3, 0.2, 0.1], [0.5, 0.5], tolerance=0.4)
        assert part.max_deviation <= 0.4 + 1e-12

    def test_best_effort_flag(self):
        part = birkhoff_partition([0.9, 0.1], [0.5, 0.5], tolerance=0.2)
        assert not part.within_tolerance

    @given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=24),
           st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5))
    @settings(max_examples=60)
    def test_greedy_deviation_bound(self, raw_weights, raw_targets):
        weights = [w / sum(raw_weights) for w in raw_weights]
        targets = [t / sum(raw_targets) for t in raw_targets]
        part = birkhoff_partition(weights, targets, tolerance=1.0)
        assert part.max_deviation <= max(weights) + 1e-9
        # and the sets partition the index space
        flat = sorted(i for s in explicit_sets(part) for i in s)
        assert flat == list(range(len(weights)))

    def test_entropy_ledger_logarithmic(self):
        # The type-distribution stage mixes over at most #typical-types
        # branches, so the entropy it injects is <= ln(#types) nats.
        plan = plan_formation(40, 0.75, 1.0, width=1.5)
        weights = [w for w in plan.birkhoff.achieved_weights if w > 0]
        mixing_entropy = -sum(w * math.log(w) for w in weights)
        assert mixing_entropy <= math.log(len(plan.birkhoff.target_weights)) + 1e-9

    def test_gibbs_strings_grouped(self):
        # ell = 10 Gibbs strings at beta = 1, targets from a binomial over
        # three type classes; deviation bounded by the largest weight
        # (1-q)^10, computed directly.
        targets = target_birkhoff(2, 0.75, Q1, typical_range(2, 0.75, 5), 1e-3).target_weights
        assert len(targets) == 3
        max_weight = (1 - Q1) ** 10
        part = gibbs_type_birkhoff(10, Q1, targets, tolerance=max_weight)
        assert part.max_deviation <= max_weight + 1e-12
        assert max_weight == pytest.approx(0.043604, abs=1e-6)
        sets = explicit_sets(part)
        assert sorted(i for s in sets for i in s) == list(range(2 ** 10))


class TestLogSpaceFill:
    @given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=24),
           st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_explicit_weights(self, raw_weights, raw_targets):
        weights = [w / sum(raw_weights) for w in raw_weights]
        targets = [t / sum(raw_targets) for t in raw_targets]
        check_fill(birkhoff_partition(weights, targets, tolerance=1.0), weights)

    @given(ell=st.integers(1, 12), q=st.floats(0.0, 0.5, exclude_min=True),
           raw_targets=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_gibbs_classes(self, ell, q, raw_targets):
        # Strings in the type-major layout; a small q stops the fill early
        # and leaves the tail classes to the rest set.
        targets = [t / sum(raw_targets) for t in raw_targets]
        part = gibbs_type_birkhoff(ell, q, targets, tolerance=1.0)
        ts = np.repeat(np.arange(ell + 1), [math.comb(ell, t) for t in range(ell + 1)])
        check_fill(part, (q ** ts * (1.0 - q) ** (ell - ts)).tolist())

    @pytest.mark.parametrize("beta", [0.5, 1.0, 3.0, 5.0])
    def test_matches_heap_reference_on_plan_grid(self, beta):
        # The bath size of the former ln(max(q, 1-q)) formula, achieved
        # weights within 1e-12 and a deviation no larger than the heap
        # fill's, on the formation plans' own targets.
        q = gibbs_weight(beta)
        for n in (1, 2, 5, 8, 20, 100, 1000, 10**4, 5 * 10**4):
            for p in (0.0, 0.6, 0.75, 0.95, 1.0):
                part = target_birkhoff(n, p, q, typical_range(n, p, 3.0), 1e-3)
                assert part.ell == math.ceil(math.log(1e-3) / math.log(max(q, 1 - q)))
                ref = reference_greedy_fill(reference_gibbs_groups(part.ell, q),
                                            part.target_weights, part.ell, 1e-3)
                gap = np.subtract(part.achieved_weights, ref.achieved_weights)
                assert np.abs(gap).max() <= 1e-12
                assert part.max_deviation <= ref.max_deviation + 1e-15
                assert part.within_tolerance

    @pytest.mark.parametrize("beta", [5.5, 7.0, 10.0, 20.0, 35.0, 50.0, 700.0])
    def test_every_beta_within_tolerance(self, beta):
        # The bath grows like 1/q (3.4e9 strings at beta = 20, 1e304 at
        # beta = 700); the fill visits a few dozen classes and sends the
        # rest to one set.
        q = gibbs_weight(beta)
        part = target_birkhoff(20, 0.75, q, typical_range(20, 0.75, 3.0), 1e-3)
        # The smallest bath whose heaviest string, (1 - q)^ell, is within
        # tolerance: ell ln(1/(1-q)) lies in [ln 1e3, ln 1e3 + ln(1/(1-q))].
        step = -math.log1p(-q)
        assert math.log(1e3) - 1e-9 <= part.ell * step <= math.log(1e3) + step + 1e-9
        assert part.within_tolerance and part.rest is not None
        assert len({s.ones for spans in part.sets for s in spans}) < 100
        assert math.fsum(part.achieved_weights) == pytest.approx(1.0, abs=1e-12)


def fill_against_eager(monkeypatch):
    """Route form._fill through a wrapper that also runs the eager span
    builder on the same classes; returns the (partition, reference) pairs."""
    pairs = []
    real = form._fill

    def both(classes, *args, **kwargs):
        classes = list(classes)
        part = real(classes, *args, **kwargs)
        pairs.append((part, eager_fill(classes, *args, **kwargs)))
        return part
    monkeypatch.setattr(form, "_fill", both)
    return pairs


def assert_same_partition(part, ref):
    for name in ("ell", "target_weights", "sets", "achieved_weights", "max_deviation",
                 "tolerance", "within_tolerance", "grouped", "rest"):
        assert getattr(part, name) == getattr(ref, name), name


class TestDerivedSpans:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 5.0, 20.0, 35.0])
    def test_sets_match_eager_builder(self, monkeypatch, beta):
        # The spans derived on first read are the eager builder's, on the
        # formation plans' own targets; from beta = 5 on, the fill stops
        # early (a rest set) and span offsets pass 2^63.
        pairs = fill_against_eager(monkeypatch)
        q = gibbs_weight(beta)
        for n in (1, 2, 8, 100, 10**4, 5 * 10**4):
            for p in (0.0, 0.6, 0.75, 1.0):
                target_birkhoff(n, p, q, typical_range(n, p, 3.0), 1e-3)
        assert len(pairs) == 24
        for part, ref in pairs:
            assert_same_partition(part, ref)
        long_bath = all(part.rest is not None for part, _ in pairs) and max(
            s.start + s.count for part, _ in pairs for spans in part.sets for s in spans) > 2**63
        assert long_bath == (beta >= 5)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
           st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_ungrouped_sets_match_eager_builder(self, raw_weights, raw_targets):
        assume(sum(raw_weights) > 0)
        with pytest.MonkeyPatch.context() as monkeypatch:
            pairs = fill_against_eager(monkeypatch)
            birkhoff_partition([w / sum(raw_weights) for w in raw_weights],
                               [t / sum(raw_targets) for t in raw_targets], tolerance=0.5)
        (part, ref), = pairs
        assert not part.grouped
        assert_same_partition(part, ref)

    def test_no_span_built_unless_read(self, monkeypatch):
        # Planning, serializing, loading and comparing plans build no span;
        # the first read of sets builds each span once and keeps them.
        made = []
        real = BirkhoffSpan._make
        monkeypatch.setattr(BirkhoffSpan, "_make", lambda fields: made.append(1) or real(fields))
        plan = plan_formation(10**4, 0.75, 1.0)
        rebuilt = plan_from_dict(json.loads(dumps_report(plan_to_dict(plan))))
        assert rebuilt == plan and made == []
        spans = plan.birkhoff.sets
        assert len(made) == sum(map(len, spans)) > 100
        assert plan.birkhoff.sets is spans and len(made) == sum(map(len, spans))
        assert rebuilt.birkhoff.sets == spans


def exact_target_weights(n, p, window):
    """Binomial(n, p) masses over an inclusive window, renormalised, in
    exact rationals."""
    p = Fraction(p)
    masses = [math.comb(n, t) * p ** t * (1 - p) ** (n - t)
              for t in range(window[0], window[1] + 1)]
    return [m / sum(masses) for m in masses]


class TestTypeDistribution:
    # The targets of the type-distribution stage, from target_birkhoff,
    # against exact math.comb / Fraction masses.
    def test_point_mass(self):
        window = typical_range(6, 1.0, 3.0)
        assert target_birkhoff(6, 1.0, Q1, window, 1e-3).target_weights == (1.0,)

    def test_exact_binomial(self):
        weights = target_birkhoff(2, 0.5, Q1, (0, 2), 1e-3).target_weights
        assert weights == pytest.approx([0.25, 0.5, 0.25], rel=1e-15)

    def test_window_mass_consistency(self):
        for n in range(1, 21):
            for p in (0.1, 0.5, 0.75, 0.95):
                for window in (typical_range(n, p, 1.0), (0, n)):
                    weights = target_birkhoff(n, p, Q1, window, 1e-3).target_weights
                    exact = exact_target_weights(n, p, window)
                    assert weights == pytest.approx([float(w) for w in exact], rel=1e-12)


class TestFormationStringMap:
    def test_round_robin_balance(self):
        # Exhaust sets of distinct target strings differ in size by <= 1.
        plan = plan_formation(3, 0.8, 1.0, width=1.0)
        g = plan.gibbs_window[1]
        t = plan.target_window[0]
        smap = build_formation_string_map(plan, (g, t))
        from itertools import combinations
        counts = {}
        seen_outputs = set()
        for ones_at in combinations(range(plan.ell), g):
            bits = tuple(1 if i in ones_at else 0 for i in range(plan.ell))
            target, exhaust = smap.apply(bits)
            assert sum(target) == t and sum(exhaust) == smap.exhaust_ones
            assert sum(bits) + plan.m == sum(target) + sum(exhaust)
            counts[target] = counts.get(target, 0) + 1
            assert (target, exhaust) not in seen_outputs
            seen_outputs.add((target, exhaust))
        sizes = sorted(counts.values())
        assert sizes[-1] - sizes[0] <= 1

    def test_uncovered_pair_rejected(self):
        plan = plan_formation(10, 0.8, 1.0, width=1.0)
        with pytest.raises(ValueError):
            build_formation_string_map(plan, (plan.gibbs_window[1] + 1,
                                              plan.target_window[0]))

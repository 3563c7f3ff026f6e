"""The monotone search behind every planner's m: ``counting.search`` against
plain bisection, on arbitrary predicates and margins and on whole plans."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from athermal import counting, distill, form
from athermal.cli import plan_to_dict
from athermal.core import DensityMatrix


def reference_bisect(feasible, lo, hi, largest):
    """Monotone search over [lo, hi]: the largest feasible value of a
    downward-closed set containing lo, or the smallest of an upward-closed
    set containing hi."""
    while lo < hi:
        if largest:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if feasible(mid) else (lo, mid - 1)
        else:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if feasible(mid) else (mid + 1, hi)
    return lo


def probe_budget(lo, hi):
    """Twice bisection's probe count, plus the two ends."""
    return 2 * math.ceil(math.log2(hi - lo + 1)) + 2


MARGINS = {
    # A margin that crosses zero at the edge, as the planners' do.
    "linear": lambda m, edge, inside, draw: (0.5 + abs(m - edge)) * (1 if inside else -1),
    "wrong sign": lambda m, edge, inside, draw: (0.5 + abs(m - edge)) * (-1 if inside else 1),
    "random": lambda m, edge, inside, draw: draw(st.floats(-1e6, 1e6)),
    "constant": lambda m, edge, inside, draw: 1.0,
    "infinite": lambda m, edge, inside, draw: draw(st.sampled_from([math.inf, -math.inf])),
    "nan": lambda m, edge, inside, draw: math.nan,
    "mixed": lambda m, edge, inside, draw: draw(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True), st.just(0.0))),
    # Pulls every interpolated step to the inside end of the bracket, so
    # no interpolated step halves it.
    "steer": lambda m, edge, inside, draw: 1e-300 if inside else -1e300,
}


class TestSearch:
    @given(lo=st.integers(0, 100), span=st.integers(0, 10**7), largest=st.booleans(),
           kind=st.sampled_from(sorted(MARGINS)), data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_bisection_within_budget(self, lo, span, largest, kind, data):
        hi = lo + span
        edge = data.draw(st.sampled_from([lo, hi, (lo + hi) // 2]) | st.integers(lo, hi))

        def inside(m):
            return m <= edge if largest else m >= edge

        probed = []

        def probe(m):
            assert lo <= m <= hi
            probed.append(m)
            return inside(m), MARGINS[kind](m, edge, inside(m), data.draw)

        assert counting.search(probe, lo, hi, largest) == reference_bisect(inside, lo, hi, largest)
        assert len(probed) <= probe_budget(lo, hi)

    def test_single_point_range_probes_nothing(self):
        assert counting.search(lambda m: pytest.fail("probed"), 7, 7, largest=True) == 7

    @pytest.mark.parametrize("largest", [True, False])
    def test_steered_margins_fall_back_to_bisection(self, largest):
        # Margins that pull every interpolation to the inside end would take
        # one probe per count; the search bisects instead.
        lo, hi, edge = 0, 10**7, 5 * 10**6
        probed = []

        def probe(m):
            probed.append(m)
            inside = m <= edge if largest else m >= edge
            return inside, 1e-300 if inside else -1e300

        assert counting.search(probe, lo, hi, largest) == edge
        assert len(probed) <= probe_budget(lo, hi)


def grid_plans():
    """Serialized distillation, coherent and formation plans over a grid."""
    ns = list(range(1, 13)) + [50, 100, 10**3, 10**4, 10**5]
    for n, p, beta, width in itertools.product(ns, [0.6, 0.75, 0.95, 1.0], [0.5, 1.0, 3.0],
                                               [0.5, 1.5, 3.0]):
        yield json.dumps(plan_to_dict(distill.plan_distillation(n, p, beta, width)))
        c = 0.3 * math.sqrt(p * (1.0 - p))
        rho = DensityMatrix(np.array([[1.0 - p, c], [c, p]]))
        yield json.dumps(plan_to_dict(distill.plan_distillation_general(rho, n, beta, width)[0]))
        yield json.dumps(plan_to_dict(form.plan_formation(n, p, beta, width)))


class TestPlans:
    def test_plans_equal_bisection_byte_for_byte(self, monkeypatch):
        searched, bisected = list(grid_plans()), []

        def bisecting(probe, lo, hi, largest):
            bisected.append((lo, hi))
            return reference_bisect(lambda m: probe(m)[0], lo, hi, largest)

        for module in (distill, form):
            monkeypatch.setattr(module, "search", bisecting)
        assert list(grid_plans()) == searched
        assert bisected

    @pytest.mark.parametrize("plan, n", [(distill.plan_distillation, 10**5),
                                         (distill.plan_distillation, 5 * 10**4),
                                         (form.plan_formation, 5 * 10**4),
                                         (form.plan_formation, 10**4)])
    def test_benchmark_plans_probe_at_most_eight_times(self, monkeypatch, plan, n):
        # Bisection takes 18 to 22 probes per search at these plans.  No m
        # is evaluated twice: formation reuses its check at m = ell + n and
        # its last probe, m - 1, for the binding pair.  Distillation's m = 0
        # holds by Vandermonde, so its probe reads margins and certifies nothing.
        probed, evaluated, real = [], [], counting.search

        def recording(probe, lo, hi, largest):
            probed.append([])
            return real(lambda m: probed[-1].append(m) or probe(m), lo, hi, largest)

        for module in (distill, form):
            monkeypatch.setattr(module, "search", recording)
        for cls in (distill._Shells, form._Pairs):
            monkeypatch.setattr(cls, "violation", lambda self, m, real=cls.violation:
                                evaluated.append(m) or real(self, m))
        plan(n, 0.75, 1.0, 3.0)
        skipped = {0} if plan is distill.plan_distillation else set()
        assert probed and max(map(len, probed)) <= 8
        assert skipped.isdisjoint(evaluated)
        assert len(evaluated) == sum(len(set(ms) - skipped) for ms in probed)

"""Both planners over n <= 200, p in [0, 1], beta in [0.05, 60] and width
in [0.5, 4]: every draw plans without raising, and each plan's binding
shell or pair is re-checked in exact integers at m and m +- 1."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from athermal.distill import plan_distillation
from athermal.form import formation_feasible, plan_formation
from strings_reference import shell_input_counts

DRAWS = dict(n=st.integers(1, 200), p=st.floats(0.0, 1.0), beta=st.floats(0.05, 60.0),
             width=st.floats(0.5, 4.0))


@given(**DRAWS)
@settings(max_examples=80, deadline=None)
def test_distillation_plan(n, p, beta, width):
    # The solver's m is the largest with every shell s = g + r fitting into
    # the C(ell + n - m, s - m) exhaust strings; its binding shell is that
    # of the worst type.
    plan = plan_distillation(n, p, beta, width)
    ell, m = plan.ell, plan.m
    assert plan.k == ell + n - m
    assert 0.0 <= plan.failure_mass <= 1.0
    counts = shell_input_counts(ell, n, plan.gibbs_window, plan.resource_window)

    def fits(s, m):
        return 0 <= s - m <= ell + n - m and counts[s] <= math.comb(ell + n - m, s - m)

    binding = plan.worst_type.gibbs_ones + plan.worst_type.resource_ones
    assert fits(binding, m)
    assert m == 0 or fits(binding, m - 1)
    if not plan.no_resource:
        assert not all(fits(s, m + 1) for s in counts)


@given(**DRAWS)
@settings(max_examples=80, deadline=None)
def test_formation_plan(n, p, beta, width):
    # The solver's m is the least with every (g, t) pair feasible; its
    # binding pair is infeasible at m - 1 unless m is the least m with a
    # valid exhaust.  A free target takes m = 0 and identity pairs.
    plan = plan_formation(n, p, beta, width)
    ell, m = plan.ell, plan.m
    assert plan.k == m + ell - n
    assert 0.0 <= plan.failure_mass <= 1.0
    g, t = plan.worst_type.gibbs_ones, plan.worst_type.target_ones
    assert formation_feasible(n, t, ell, g, m)
    assert formation_feasible(n, t, ell, g, m + 1)
    lowest = max(0, n - ell, plan.target_window[1] - plan.gibbs_window[0])
    if not plan.free_target and m > lowest:
        assert not formation_feasible(n, t, ell, g, m - 1)
    assert plan.birkhoff.within_tolerance
    assert abs(math.fsum(plan.birkhoff.achieved_weights) - 1.0) <= 1e-12

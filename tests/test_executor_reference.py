"""The dense index-array kernels against string-by-string reference executors.

The distillation reference applies each covered type's StringMap to one
string at a time, completes every total-1s shell by matching its
uncovered strings to its free strings in sorted order, and accumulates
Fraction masses built from Fraction products.  The formation reference
applies FormationStringMap one string and one target type at a time and
accumulates into a dict.  Both layouts come from ``strings_reference``
and share no layout code with the kernel: shell offsets, the round robin,
ranking and unranking are written there string by string, and leftover
matching, input masses and marginals here.  Only the counting inequality
``formation_feasible`` is common to both.
"""

import dataclasses
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from athermal import simulate
from athermal.core import DensityMatrix
from athermal.distill import (
    gibbs_weight,
    plan_distillation,
    plan_distillation_general,
)
from athermal.form import FormationPlan, plan_formation
from athermal.simulate import (
    Bits,
    ExecutionReport,
    StringDistribution,
    execute_plan_classical,
    execute_plan_quantum,
    exhaust_analysis,
    formation_input_distribution,
    thermal_input_distribution,
)
from strings_reference import FormationStringMap, build_formation_string_map, build_string_map


def reference_permutation(plan) -> dict[tuple, tuple]:
    """Image of every string of length ell + n, string by string."""
    strings = list(product((0, 1), repeat=plan.ell + plan.n))   # sorted
    maps, perm, images, uncovered = {}, {}, set(), {}
    for s in strings:
        bath, resource = s[:plan.ell], s[plan.ell:]
        key = (sum(bath), sum(resource))
        if plan.covers(*key):
            if key not in maps:
                maps[key] = build_string_map(plan, key)
            perm[s] = maps[key].apply(bath, resource)
            images.add(perm[s])
        else:
            uncovered.setdefault(sum(s), []).append(s)
    free = {}
    for s in strings:
        if s not in images:
            free.setdefault(sum(s), []).append(s)
    for shell, xs in uncovered.items():
        assert len(xs) == len(free[shell])
        perm.update(zip(xs, free[shell]))
    return perm


def reference_input(plan) -> dict[tuple, Fraction]:
    """gamma^(ell) (x) rho^(n) with the exact weights, as products."""
    q, p = Fraction(plan.q), Fraction(plan.p)
    probs = {}
    for s in product((0, 1), repeat=plan.ell + plan.n):
        g, r = sum(s[:plan.ell]), sum(s[plan.ell:])
        mass = q ** g * (1 - q) ** (plan.ell - g) * p ** r * (1 - p) ** (plan.n - r)
        if mass:
            probs[s] = mass
    return probs


def marginal(probs: dict, positions) -> dict:
    out = {}
    for s, mass in probs.items():
        key = tuple(s[i] for i in positions)
        out[key] = out.get(key, 0) + mass
    return out


def bits_value(bits) -> int:
    return int("".join(map(str, bits)) or "0", 2)


@given(n=st.integers(1, 4),
       p=st.one_of(st.just(1.0), st.floats(0.55, 1.0), st.none()),
       beta=st.floats(0.5, 2.0), width=st.floats(0.5, 3.0))
@example(n=2, p=1.0, beta=1.0, width=3.0)
@example(n=4, p=0.95, beta=1.0, width=0.75)
@example(n=3, p=None, beta=1.0, width=1.0)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_reference_executor(n, p, beta, width):
    # p = None stands for rho = gamma: a no-resource plan.
    plan = plan_distillation(n, gibbs_weight(beta) if p is None else p, beta, width)
    assume(plan.ell + plan.n <= 12)
    total = plan.ell + plan.n
    perm = reference_permutation(plan)
    probs = reference_input(plan)
    out = {}
    for s, mass in probs.items():
        out[perm[s]] = out.get(perm[s], 0) + mass
    routed = sum((mass for s, mass in probs.items()
                  if not plan.covers(sum(s[:plan.ell]), sum(s[plan.ell:]))), Fraction(0))

    quantum = execute_plan_quantum(plan)
    assert quantum.permutation == tuple(bits_value(perm[s])
                                        for s in product((0, 1), repeat=total))
    report = execute_plan_classical(plan, thermal_input_distribution(plan))
    assert report.trajectories == tuple((s, perm[s]) for s in sorted(probs))
    assert report.output.probs == out
    assert report.routed_failure_mass == routed
    assert report.work_marginal == marginal(out, range(plan.k, total))
    assert report.output.marginal(range(plan.k)) == marginal(out, range(plan.k))
    for i in range(plan.k):
        assert report.output.marginal([i]) == marginal(out, [i])

    q = plan.q
    exhaust = exhaust_analysis(plan)
    for i, distance in enumerate(exhaust.measured_trace_distances):
        mass_one = float(marginal(out, [i]).get((1,), 0))
        assert distance == pytest.approx(abs(mass_one - q), abs=1e-12)


def reference_formation(plan: FormationPlan,
                        input_dist: StringDistribution) -> ExecutionReport:
    """The string-by-string formation executor: one FormationStringMap.apply
    per (covered string, target type), accumulated into a dict of Fractions,
    the achieved weights taken as the exact dyadic rationals they are.  A
    free target covers only the identity pairs: Gibbs type g takes t = g
    whole."""
    if input_dist.length != plan.ell + plan.m:
        raise ValueError("input length does not match the plan")
    # The type-distribution stage conditions on the Birkhoff partition: the
    # output is the mixture over target types with the achieved weights.
    t_lo, t_hi = plan.target_window
    targets = list(range(t_lo, t_hi + 1))
    weights = [Fraction(w) for w in plan.birkhoff.achieved_weights]
    if len(weights) != len(targets):
        raise ValueError("birkhoff partition does not match the target window")
    maps: dict[tuple[int, int], FormationStringMap] = {}
    out_probs: dict[Bits, Fraction] = {}
    trajectories = []
    routed = Fraction(0)
    for string, prob in sorted(input_dist.probs.items()):
        bath = string[: plan.ell]
        g = sum(bath)
        if (string[plan.ell:] != (1,) * plan.m
                or not plan.gibbs_window[0] <= g <= plan.gibbs_window[1]):
            routed = routed + prob
            out_probs[string] = out_probs.get(string, 0) + prob
            trajectories.append((string, string))
            continue
        for t, w in [(g, Fraction(1))] if plan.free_target else zip(targets, weights):
            key = (g, t)
            if key not in maps:
                maps[key] = build_formation_string_map(plan, key)
            target_bits, exhaust_bits = maps[key].apply(bath)
            out = target_bits + exhaust_bits
            mass = prob * w
            if mass != 0:
                out_probs[out] = out_probs.get(out, 0) + mass
                trajectories.append((string, out))
    # The achieved weights need not sum to exactly 1: renormalize by the
    # exact total, over the whole output at once.
    total = sum(out_probs.values())
    output = StringDistribution(plan.n + plan.k, {s: p / total for s, p in out_probs.items()})
    target_marginal = output.marginal(range(plan.n))
    moves = tuple(np.array([bits_value(s) for s in strings])
                  for strings in zip(*trajectories))
    return ExecutionReport(output, target_marginal, routed, "formation", moves)


def mixed_formation_input(plan) -> StringDistribution:
    """Half the formation input, half uniform over every string: the strings
    whose resource bits are not all ones stay put, onto cells that covered
    strings' images also reach."""
    base = formation_input_distribution(plan)
    size = base.weights.size
    return StringDistribution(base.length, weights=base.weights * size + base.denominator,
                              denominator=2 * size * base.denominator)


@given(n=st.integers(1, 4), p=st.one_of(st.just(1.0), st.floats(0.55, 1.0)),
       beta=st.floats(0.5, 2.0), width=st.floats(0.5, 3.0))
@example(n=4, p=0.95, beta=1.0, width=0.75)
@example(n=3, p=0.8, beta=1.0, width=1.0)
@example(n=4, p=gibbs_weight(1.0), beta=1.0, width=1.0)   # a free target
@settings(max_examples=40, deadline=None)
def test_formation_kernel_matches_reference_executor(n, p, beta, width):
    plan = plan_formation(n, p, beta, width)
    assume(plan.ell + plan.m <= 14)
    # The last input's strings have resource bits 0 (m >= 1), so nothing is
    # mixed: the output is the input.
    length = plan.ell + plan.m
    for dist in (formation_input_distribution(plan),
                 mixed_formation_input(plan),
                 StringDistribution(length, {(0,) * length: Fraction(1, 3),
                                             (1,) + (0,) * (length - 1): Fraction(2, 3)})):
        expected = reference_formation(plan, dist)
        report = execute_plan_classical(plan, dist)
        assert report.kind == "formation"
        assert report.output.probs == expected.output.probs
        masses = report.output.probs.values()
        assert all(type(mass) is Fraction for mass in masses) and sum(masses) == 1
        assert report.trajectories == expected.trajectories
        assert report.work_marginal == expected.work_marginal
        assert report.routed_failure_mass == expected.routed_failure_mass
        assert type(report.routed_failure_mass) is Fraction


def test_formation_total_is_exact_over_leading_exact_cells():
    # Strings 0 and 1 stay put beside the mixed cells; 2/10 + 4/10 is 0.6
    # exactly but 0.6000000000000001 when added as floats.  The executor
    # renormalises by the exact integer total of every cell, so its output
    # equals the Fraction reference's and sums to exactly 1.
    plan = plan_formation(3, 0.8, 1.0, width=1.0)
    base = formation_input_distribution(plan)
    weights = base.weights * 4
    weights[0] += 2 * base.denominator
    weights[1] += 4 * base.denominator
    dist = StringDistribution(base.length, weights=weights, denominator=10 * base.denominator)
    assert float(Fraction(2, 10)) + float(Fraction(4, 10)) != float(Fraction(6, 10))
    output = execute_plan_classical(plan, dist).output
    assert output.probs == reference_formation(plan, dist).output.probs
    assert sum(output.probs.values()) == 1


class TestKernelSafetyChecks:
    def test_coherent_plan_refused(self):
        plan, _ = plan_distillation_general(DensityMatrix.pure([1, 1]), 3, 1.0)
        assert plan.coherent and plan.ell + plan.n <= 14
        with pytest.raises(ValueError, match="quasiclassical"):
            execute_plan_quantum(plan)
        with pytest.raises(ValueError, match="quasiclassical"):
            execute_plan_classical(plan, thermal_input_distribution(plan))

    def test_overflowing_shell_refused(self):
        # Covering every bath type overfills the shells the plan's m was
        # fitted to.
        plan = plan_distillation(4, 0.95, 1.0, width=0.75)
        wide = dataclasses.replace(plan, gibbs_window=(0, plan.ell))
        with pytest.raises(ValueError, match="no feasible injection"):
            execute_plan_quantum(wide)
        with pytest.raises(ValueError, match="no feasible injection"):
            execute_plan_classical(wide, thermal_input_distribution(wide))

    def test_colliding_images_refused(self, monkeypatch):
        # With every rank read as 0, the strings of one type share an image.
        lex_order = simulate._lex_order

        def rankless(length):
            order, start, rank = lex_order(length)
            return order, start, np.zeros_like(rank)

        monkeypatch.setattr(simulate, "_lex_order", rankless)
        plan = plan_distillation(4, 0.95, 1.0, width=0.75)
        with pytest.raises(AssertionError, match="not a bijection"):
            execute_plan_quantum(plan)
        plan = plan_formation(3, 0.8, 1.0, width=1.0)
        with pytest.raises(AssertionError, match="formation images collide"):
            execute_plan_classical(plan, formation_input_distribution(plan))


def test_formation_pair_without_injection_refused():
    # Covering every bath type adds pairs the plan's m was not fitted to.
    plan = plan_formation(3, 0.8, 1.0, width=1.0)
    wide = dataclasses.replace(plan, gibbs_window=(0, plan.ell))
    with pytest.raises(ValueError, match="no feasible injection"):
        execute_plan_classical(wide, formation_input_distribution(wide))

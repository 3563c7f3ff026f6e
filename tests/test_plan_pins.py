"""A grid of plans pinned across commits: every integer and string of each
plan document exactly, every float to 1e-12 relative (a full digest would
break on CPUs whose vectorised ``np.log`` differs by one ulp).

After a deliberate change of the plans, regenerate the pins with
``PYTHONPATH=src python tests/test_plan_pins.py``.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from athermal.cli import plan_to_dict
from athermal.core import DensityMatrix, gibbs_weight
from athermal.distill import plan_distillation, plan_distillation_general
from athermal.form import plan_formation

PINS = Path(__file__).parent / "data" / "plan_pins.json"
NS = [*range(1, 13), 50, 51, 100, 10**3, 10**4]
BETA_WIDTHS = list(itertools.product([0.5, 1.0, 3.0], [1.5, 3.0]))


def coherent_plan(n, p, beta, width):
    c = 0.3 * math.sqrt(p * (1.0 - p))
    plan, record = plan_distillation_general(DensityMatrix(np.array([[1.0 - p, c], [c, p]])),
                                             n, beta, width)
    summary = {name: getattr(record, name) for name in (
        "mean_energy", "entropy", "eig_window", "log_rank_cap_total", "energy_tail", "eig_tail")}
    blocks = plan.resource_window[1] - plan.resource_window[0] + 1
    return {**plan_to_dict(plan), "block_record": {**summary, "blocks": blocks}}


def cases():
    """(label, builder, arguments): both planners at every n and p of the
    grid, the (beta, width) pairs taken in turn (distillation twice, half a
    turn apart), free targets at p = q, and coherent plans."""
    for i, (n, p) in enumerate(itertools.product(NS, [0.5, 0.75, 0.95, 1.0])):
        for planner, turn in (("distill", 0), ("distill", 3), ("form", 0)):
            beta, width = BETA_WIDTHS[(i + turn) % len(BETA_WIDTHS)]
            yield planner, (n, p, beta, width)
    for i, n in enumerate([1, 5, 12, 100, 10**4]):
        beta, width = BETA_WIDTHS[i]
        yield "distill", (n, gibbs_weight(beta), beta, width)
        yield "form", (n, gibbs_weight(beta), beta, width)
    for i, (n, p) in enumerate(itertools.product([1, 2, 5, 10, 50, 100, 10**3, 10**4],
                                                 [0.6, 0.95])):
        yield "coherent", (n, p, *BETA_WIDTHS[i % len(BETA_WIDTHS)])


PLANNERS = {"distill": lambda *a: plan_to_dict(plan_distillation(*a)),
            "form": lambda *a: plan_to_dict(plan_formation(*a)),
            "coherent": coherent_plan}


def documents():
    """Every plan of the grid as a JSON-normalised document, by label."""
    return {f"{planner} {json.dumps(args)}": json.loads(json.dumps(PLANNERS[planner](*args)))
            for planner, args in cases()}


def assert_matches(got, pinned, path):
    if isinstance(pinned, float):
        assert isinstance(got, float) and math.isclose(got, pinned, rel_tol=1e-12), path
    elif isinstance(pinned, dict):
        assert sorted(got) == sorted(pinned), path
        for key in pinned:
            assert_matches(got[key], pinned[key], f"{path}.{key}")
    elif isinstance(pinned, list):
        assert len(got) == len(pinned), path
        for i, (a, b) in enumerate(zip(got, pinned)):
            assert_matches(a, b, f"{path}[{i}]")
    else:
        assert type(got) is type(pinned) and got == pinned, path


def test_plans_match_pins():
    pinned = json.loads(PINS.read_text())
    got = documents()
    assert sorted(got) == sorted(pinned)
    for label, doc in pinned.items():
        assert_matches(got[label], doc, label)


@pytest.mark.parametrize("got, pinned", [(1.0 + 1e-11, 1.0), (2, 2.0), ([1, 2], [1, 3]),
                                         ({"m": 1}, {"m": 1, "k": 2}), (True, 1)])
def test_mismatches_are_caught(got, pinned):
    with pytest.raises(AssertionError):
        assert_matches(got, pinned, "plan")


if __name__ == "__main__":
    lines = [f"{json.dumps(label)}: {json.dumps(doc, sort_keys=True)}"
             for label, doc in documents().items()]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} plans to {PINS}")

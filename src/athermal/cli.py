"""Command-line front end and bit-exact serialization.

All reports are JSON with sorted keys (byte-identical across runs for
identical configurations); sweep grids are CSV with a fixed header.  Exit
codes: 0 success, 1 internal error, 2 domain error (e.g. a free target).

Plan documents are O(windows): schema version 5 stores the parameters,
windows and binding record of a plan, which keeps no per-type records,
and not its Birkhoff partition, which the log-space fill derives on load
at any beta and which must reproduce the stored summary.  A document of
any other ``schema_version``, the earlier versions 1 to 4 included, or of
none, is refused.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import shutil
import sys
from dataclasses import MISSING, astuple, fields, is_dataclass

from .core import (
    DensityMatrix,
    FreeTargetError,
    Hamiltonian,
    gibbs_state,
    gibbs_weight,
    interconversion_rate,
    relative_entropy,
)
from .coherent import shift_overlap
from .distill import DistillationPlan, PerTypeRecord, plan_distillation, rate_limit
from .form import (
    BirkhoffPartition,
    FormationPlan,
    FormationRecord,
    plan_formation,
    target_birkhoff,
)
from .simulate import (
    INPUT_MAX_QUBITS,
    execute_plan_classical,
    execute_plan_quantum,
    exhaust_analysis,
    thermal_input_distribution,
)

__all__ = [
    "SCHEMA_VERSION",
    "SWEEP_HEADER",
    "main",
    "plan_to_dict",
    "plan_from_dict",
    "dumps_report",
]

SCHEMA_VERSION = 5
SWEEP_HEADER = "n,ell,m,rate,deficit,failure_mass"


def dumps_report(report: dict) -> str:
    """Deterministic JSON encoding (sorted keys, exact float repr)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


_UNITS = {
    "distillation": {
        "beta": "1/E0",
        "achieved_rate": "dimensionless",
        "r_limit": "dimensionless",
        "failure_mass": "dimensionless",
        "log_cardinalities": "nats",
    },
    "formation": {
        "beta": "1/E0",
        "work_per_copy": "E0 per copy",
        "cost_rate": "copies per E0",
        "failure_mass": "dimensionless",
        "log_cardinalities": "nats",
    },
}


# The fields of a Birkhoff partition that a formation document stores.
_BIRKHOFF_SUMMARY = ("ell", "tolerance", "max_deviation", "within_tolerance", "grouped")


def _to_json(value):
    """A plan or report field as JSON: records as lists of their fields, the Birkhoff
    partition as its summary, tuples as lists, infinities as null."""
    if isinstance(value, BirkhoffPartition):
        return {name: getattr(value, name) for name in _BIRKHOFF_SUMMARY}
    if is_dataclass(value):
        return list(astuple(value))
    if isinstance(value, tuple):
        return list(value)
    return None if isinstance(value, float) and math.isinf(value) else value


def _document(obj, **extra) -> dict:
    """Every field of a plan or report dataclass as JSON, the schema version
    and ``extra``."""
    doc = {f.name: _to_json(getattr(obj, f.name)) for f in fields(obj)}
    return {**doc, "schema_version": SCHEMA_VERSION, **extra}


def plan_to_dict(plan: DistillationPlan | FormationPlan) -> dict:
    kind = "distillation" if isinstance(plan, DistillationPlan) else "formation"
    return _document(plan, kind=kind, units=_UNITS[kind])


def plan_from_dict(data: dict) -> DistillationPlan | FormationPlan:
    """Rebuild a plan from a schema-5 document.

    Keys that are not plan fields are ignored.  A formation plan's Birkhoff
    partition is derived as :func:`plan_formation` does, and its stored
    summary must agree (ValueError otherwise).  A missing kind, plan field
    or Birkhoff summary key is a ValueError naming it, as is a ``birkhoff``
    that is not an object and a ``worst_type`` that is not a list of its
    record's fields.
    """
    version = data.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unknown plan schema_version {version!r}")
    cls = {"distillation": DistillationPlan, "formation": FormationPlan}.get(data.get("kind"))
    if cls is None:
        raise ValueError(f"unknown plan kind {data.get('kind')!r}")
    # A formation plan derives its Birkhoff partition from its target window.
    if missing := [f.name for f in fields(cls) if f.name not in data
                   and (f.default is MISSING or f.name == "target_window")]:
        raise ValueError(f"plan document without {', '.join(missing)}")
    kw = {f.name: tuple(data[f.name]) if isinstance(data[f.name], list) else data[f.name]
          for f in fields(cls) if f.name in data}
    for name in ("epsilon", "cost_rate"):
        if name in kw and kw[name] is None:
            kw[name] = math.inf
    if cls is FormationPlan:
        stored = data["birkhoff"]
        if not isinstance(stored, dict):
            raise ValueError(f"Birkhoff summary {stored!r} is not an object of "
                             f"{', '.join(_BIRKHOFF_SUMMARY)}")
        if absent := [name for name in _BIRKHOFF_SUMMARY if name not in stored]:
            raise ValueError(f"Birkhoff summary without {', '.join(absent)}")
        kw["birkhoff"] = target_birkhoff(kw["n"], kw["p"], gibbs_weight(kw["beta"]),
                                         kw["target_window"])
        if any(stored[name] != getattr(kw["birkhoff"], name) for name in _BIRKHOFF_SUMMARY):
            raise ValueError("Birkhoff summary disagrees with the partition the plan derives")
    record = PerTypeRecord if cls is DistillationPlan else FormationRecord
    size, worst = len(fields(record)), kw["worst_type"]
    if not isinstance(worst, tuple) or len(worst) != size:
        raise ValueError(f"worst_type {worst!r} is not a list of the {size} fields "
                         f"of a {record.__name__}")
    kw["worst_type"] = record(*worst)
    return cls(**kw)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _emit(payload: str, path: str | None, summary: str | None = None) -> None:
    """Write a command's document to ``path``, or to stdout without one; the
    summary line then goes to stderr, so that stdout parses on its own."""
    if path:
        with open(path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    if summary is not None:
        print(summary, file=sys.stdout if path else sys.stderr)


def cmd_rate(args) -> int:
    p, sigma_p = args.p, args.sigma_p
    if not 0.0 <= sigma_p <= 1.0:
        raise ValueError(f"--sigma-p must lie in [0, 1], got {sigma_p!r}")
    gamma = gibbs_state(Hamiltonian.two_level(), args.beta)
    closed = rate_limit(p, args.beta)
    rho = DensityMatrix.diagonal([1 - p, p])
    sigma = DensityMatrix.diagonal([1 - sigma_p, sigma_p])
    via_entropy = interconversion_rate(rho, sigma, gamma)
    if sigma_p != 1.0:
        closed /= rate_limit(sigma_p, args.beta)
    diff = abs(closed - via_entropy)
    print(f"closed_form_rate {closed!r} dimensionless")
    print(f"relative_entropy_rate {via_entropy!r} dimensionless")
    print(f"difference {diff!r}")
    if args.bits:
        d_rho = relative_entropy(rho, gamma.density_matrix())
        print(f"relative_entropy_nats {d_rho!r} nats")
        print(f"relative_entropy_bits {d_rho / math.log(2)!r} bits")
    return 0


def cmd_distill(args) -> int:
    plan = plan_distillation(args.n, args.p, args.beta, args.width)
    _emit(dumps_report(plan_to_dict(plan)), args.output,
          f"summary n={plan.n} ell={plan.ell} m={plan.m} rate={plan.achieved_rate!r} "
          f"r_limit={plan.r_limit!r} failure_mass={plan.failure_mass!r}")
    return 0


def cmd_form(args) -> int:
    plan = plan_formation(args.n, args.p, args.beta, args.width)
    _emit(dumps_report(plan_to_dict(plan)), args.output,
          f"summary n={plan.n} ell={plan.ell} m={plan.m} "
          f"work_per_copy={plan.work_per_copy!r} cost_rate={plan.cost_rate!r} "
          f"failure_mass={plan.failure_mass!r}")
    return 0


def sweep_rows(p: float, beta: float, n_grid, width: float) -> list[str]:
    rows = [SWEEP_HEADER]
    for n in n_grid:
        plan = plan_distillation(n, p, beta, width)
        deficit = plan.r_limit - plan.achieved_rate
        rows.append(f"{plan.n},{plan.ell},{plan.m},{plan.achieved_rate!r},"
                    f"{deficit!r},{plan.failure_mass!r}")
    return rows


def cmd_sweep(args) -> int:
    n_grid = [int(x) for x in args.n_grid.split(",")]
    rows = sweep_rows(args.p, args.beta, n_grid, args.width)
    _emit("\n".join(rows) + "\n", args.output,
          f"sweep schema_version={SCHEMA_VERSION} rows={len(rows) - 1} "
          f"units=rate:dimensionless,deficit:dimensionless")
    return 0


def cmd_simulate(args) -> int:
    if args.max_qubits < 0:
        raise ValueError(f"--max-qubits must be nonnegative, got {args.max_qubits}")
    if args.max_qubits > INPUT_MAX_QUBITS:
        raise ValueError(f"--max-qubits {args.max_qubits} cannot take effect: the classical "
                         f"input is capped at {INPUT_MAX_QUBITS} qubits")
    plan = plan_distillation(args.n, args.p, args.beta, args.width)
    report = {
        "schema_version": SCHEMA_VERSION,
        "plan": {"n": plan.n, "ell": plan.ell, "m": plan.m, "k": plan.k},
        "units": {"work_trace_distance": "dimensionless"},
    }
    dist = thermal_input_distribution(plan)
    if plan.ell + plan.n <= args.max_qubits:
        channel = execute_plan_quantum(plan, max_qubits=args.max_qubits)
        report["quantum"] = {
            "commutator_nonzeros": channel.commutator_nonzeros,
            "trace_preserved": channel.trace_preserved,
            "work_trace_distance": channel.work_trace_distance,
            "failure_mass": plan.failure_mass,
        }
    execution = execute_plan_classical(plan, dist)
    success = execution.work_marginal.get((1,) * plan.m, 0)
    report["classical"] = {
        "work_register_success": float(success),
        "routed_failure_mass": float(execution.routed_failure_mass),
    }
    _emit(dumps_report(report), args.output)
    return 0


def cmd_exhaust(args) -> int:
    plan = plan_distillation(args.n, args.p, args.beta, args.width)
    report = exhaust_analysis(plan, block_size=args.block_size)
    units = {"rel_entropies": "nats", "trace_distances": "dimensionless"}
    _emit(dumps_report(_document(report, units=units)), args.output)
    return 0


def cmd_frame(args) -> int:
    value = shift_overlap(args.N, args.delta)
    print(f"shift_overlap {value!r} dimensionless")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # The width argparse would read: once for the tree, where its default
    # formatter reads the terminal again for every argument it checks.
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="athermal",
        description="Exact desk-scale protocols for the resource theory of athermal states",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def planner(name, func, help):
        p = sub.add_parser(name, help=help, formatter_class=formatter)
        p.add_argument("--p", type=float, required=True)
        p.add_argument("--beta", type=float, default=1.0, help="inverse temperature (1/E0)")
        p.add_argument("--width", type=float, default=3.0, help="typicality window width")
        p.add_argument("--output", type=str, default=None, help="output path (default: stdout)")
        p.set_defaults(func=func)
        return p

    p_rate = sub.add_parser("rate", help="interconversion rate by both routes",
                            formatter_class=formatter)
    p_rate.add_argument("--p", type=float, required=True)
    p_rate.add_argument("--sigma-p", type=float, default=1.0,
                        help="excited weight of the target state (default: pure excited)")
    p_rate.add_argument("--bits", action="store_true", help="also print bits")
    p_rate.add_argument("--beta", type=float, default=1.0, help="inverse temperature (1/E0)")
    p_rate.set_defaults(func=cmd_rate)

    planner("distill", cmd_distill, "construct a distillation plan").add_argument(
        "--n", type=int, required=True)
    planner("form", cmd_form, "construct a formation plan").add_argument(
        "--n", type=int, required=True)
    planner("sweep", cmd_sweep, "rate-convergence CSV over an n grid").add_argument(
        "--n-grid", type=str, required=True, help="comma-separated n values")
    p_sim = planner("simulate", cmd_simulate, "execute a small plan exactly")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--max-qubits", type=int, default=14)
    p_ex = planner("exhaust", cmd_exhaust, "exhaust-state structure report")
    p_ex.add_argument("--n", type=int, required=True)
    p_ex.add_argument("--block-size", type=int, default=1)

    p_fr = sub.add_parser("frame", help="reference-frame shift overlap",
                          formatter_class=formatter)
    p_fr.add_argument("--N", type=int, required=True)
    p_fr.add_argument("--delta", type=int, required=True)
    p_fr.set_defaults(func=cmd_frame)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FreeTargetError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

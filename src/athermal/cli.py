"""Command-line front end and bit-exact serialization.

All reports are JSON with sorted keys (byte-identical across runs for
identical configurations); sweep grids are CSV with a fixed header.  Exit
codes: 0 success, 1 internal error, 2 domain error (e.g. a free target).

Plan documents are O(windows): schema version 2 stores the parameters,
windows and binding record of a plan, never its per-type records, which
the plan derives on demand.  Version-1 documents, which also list the
per-type records, are still read; their records are ignored.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import astuple, fields, is_dataclass
from fractions import Fraction

from .core import (
    DensityMatrix,
    FreeTargetError,
    Hamiltonian,
    gibbs_state,
    interconversion_rate,
    relative_entropy,
)
from .coherent import shift_overlap
from .distill import DistillationPlan, PerTypeRecord, plan_distillation, rate_limit
from .form import (
    BirkhoffPartition,
    BirkhoffSpan,
    FormationPlan,
    FormationRecord,
    _formation_records,
    plan_formation,
)
from .simulate import (
    StringDistribution,
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
    "write_string_distribution_csv",
    "read_string_distribution_csv",
]

SCHEMA_VERSION = 2
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


def _to_json(value):
    """A plan field as JSON: records as lists of their fields, the Birkhoff
    partition as an object whose spans are [ones, start, count] lists,
    tuples as lists, infinities as null."""
    if isinstance(value, BirkhoffPartition):
        doc = {f.name: _to_json(getattr(value, f.name)) for f in fields(value) if f.name != "sets"}
        return {**doc, "sets": [[[s.ones, s.start, s.count] for s in spans]
                                for spans in value.sets]}
    if is_dataclass(value):
        return list(astuple(value))
    if isinstance(value, tuple):
        return list(value)
    return None if isinstance(value, float) and math.isinf(value) else value


def plan_to_dict(plan: DistillationPlan | FormationPlan) -> dict:
    kind = "distillation" if isinstance(plan, DistillationPlan) else "formation"
    doc = {f.name: _to_json(getattr(plan, f.name)) for f in fields(plan)}
    return {**doc, "schema_version": SCHEMA_VERSION, "kind": kind, "units": _UNITS[kind]}


def plan_from_dict(data: dict) -> DistillationPlan | FormationPlan:
    """Rebuild a plan from a schema-2 or schema-1 document.

    Keys that are not plan fields are ignored, among them the per-type
    records of schema 1 (``per_type_maps``, ``records_complete``).  Schema 1
    left ``worst_type`` empty for free-target formation plans; it is
    derived here as :func:`plan_formation` does.
    """
    cls = {"distillation": DistillationPlan, "formation": FormationPlan}.get(data["kind"])
    if cls is None:
        raise ValueError(f"unknown plan kind {data['kind']!r}")
    kw = {f.name: tuple(data[f.name]) if isinstance(data[f.name], list) else data[f.name]
          for f in fields(cls) if f.name in data}
    for name in ("epsilon", "cost_rate"):
        if name in kw and kw[name] is None:
            kw[name] = math.inf
    if cls is FormationPlan:
        b = data["birkhoff"]
        kw["birkhoff"] = BirkhoffPartition(**{
            **b, "target_weights": tuple(b["target_weights"]),
            "achieved_weights": tuple(b["achieved_weights"]),
            "sets": tuple(tuple(BirkhoffSpan(*s) for s in spans) for spans in b["sets"])})
    if kw["worst_type"] is not None:
        record = PerTypeRecord if cls is DistillationPlan else FormationRecord
        kw["worst_type"] = record(*kw["worst_type"])
    elif kw.get("free_target"):
        t = kw["target_window"][0]
        kw["worst_type"] = next(_formation_records(kw["n"], kw["ell"], 0, (t, t), (t, t),
                                                   kw["mode"] == "exact"))
    else:
        raise ValueError("plan document without a worst type")
    return cls(**kw)


def write_string_distribution_csv(dist: StringDistribution, path: str) -> None:
    """Compact exact CSV: string, numerator, denominator."""
    lines = ["string,numerator,denominator"]
    for string in sorted(dist.probs):
        prob = dist.probs[string]
        frac = prob if isinstance(prob, Fraction) else Fraction(prob).limit_denominator(10 ** 15)
        text = "".join(str(b) for b in string)
        lines.append(f"{text},{frac.numerator},{frac.denominator}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_string_distribution_csv(path: str) -> StringDistribution:
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    if lines[0] != "string,numerator,denominator":
        raise ValueError("unexpected CSV header")
    probs = {}
    length = None
    for line in lines[1:]:
        text, num, den = line.split(",")
        bits = tuple(int(c) for c in text)
        length = len(bits) if length is None else length
        probs[bits] = Fraction(int(num), int(den))
    return StringDistribution(length, probs)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_rate(args) -> int:
    beta = args.beta
    p = args.p
    sigma_p = args.sigma_p
    h = Hamiltonian.two_level()
    gamma = gibbs_state(h, beta)
    closed = rate_limit(p, beta)
    rho = DensityMatrix.diagonal([1 - p, p])
    try:
        if sigma_p == 1.0:
            sigma = DensityMatrix.diagonal([0.0, 1.0])
            via_entropy = interconversion_rate(rho, sigma, gamma)
        else:
            sigma = DensityMatrix.diagonal([1 - sigma_p, sigma_p])
            via_entropy = interconversion_rate(rho, sigma, gamma)
            closed = (rate_limit(p, beta) / rate_limit(sigma_p, beta))
    except FreeTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    payload = dumps_report(plan_to_dict(plan))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    print(f"summary n={plan.n} ell={plan.ell} m={plan.m} rate={plan.achieved_rate!r} "
          f"r_limit={plan.r_limit!r} failure_mass={plan.failure_mass!r}")
    return 0


def cmd_form(args) -> int:
    plan = plan_formation(args.n, args.p, args.beta, args.width)
    payload = dumps_report(plan_to_dict(plan))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    print(f"summary n={plan.n} ell={plan.ell} m={plan.m} "
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
    payload = "\n".join(rows) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    print(f"sweep schema_version={SCHEMA_VERSION} rows={len(rows) - 1} "
          f"units=rate:dimensionless,deficit:dimensionless")
    return 0


def cmd_simulate(args) -> int:
    plan = plan_distillation(args.n, args.p, args.beta, args.width)
    report = {
        "schema_version": SCHEMA_VERSION,
        "plan": {"n": plan.n, "ell": plan.ell, "m": plan.m, "k": plan.k},
        "units": {"work_trace_distance": "dimensionless"},
    }
    if plan.ell + plan.n <= args.max_qubits:
        channel = execute_plan_quantum(plan, max_qubits=args.max_qubits)
        report["quantum"] = {
            "commutator_nonzeros": channel.commutator_nonzeros,
            "trace_preserved": channel.trace_preserved,
            "work_trace_distance": channel.work_trace_distance,
            "failure_mass": channel.failure_mass,
        }
    execution = execute_plan_classical(plan, thermal_input_distribution(plan))
    success = execution.work_marginal.get((1,) * plan.m, 0)
    report["classical"] = {
        "work_register_success": float(success),
        "routed_failure_mass": float(execution.routed_failure_mass),
    }
    payload = dumps_report(report)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def cmd_exhaust(args) -> int:
    plan = plan_distillation(args.n, args.p, args.beta, args.width)
    report = exhaust_analysis(plan, block_size=args.block_size)
    payload = dumps_report({
        "schema_version": SCHEMA_VERSION,
        "block_size": report.block_size,
        "num_blocks": report.num_blocks,
        "rel_entropies": list(report.rel_entropies),
        "pinsker_bounds": list(report.pinsker_bounds),
        "measured_trace_distances": list(report.measured_trace_distances),
        "total_rel_entropy": report.total_rel_entropy,
        "per_system_rel_entropy": report.per_system_rel_entropy,
        "subadditivity_holds": report.subadditivity_holds,
        "units": {"rel_entropies": "nats", "trace_distances": "dimensionless"},
    })
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def cmd_frame(args) -> int:
    value = shift_overlap(args.N, args.delta)
    print(f"shift_overlap {value!r} dimensionless")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="athermal",
        description="Exact desk-scale protocols for the resource theory of athermal states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--beta", type=float, default=1.0, help="inverse temperature (1/E0)")
        p.add_argument("--width", type=float, default=3.0, help="typicality window width")
        p.add_argument("--output", type=str, default=None, help="output path")

    p_rate = sub.add_parser("rate", help="interconversion rate by both routes")
    p_rate.add_argument("--p", type=float, required=True)
    p_rate.add_argument("--sigma-p", type=float, default=1.0,
                        help="excited weight of the target state (default: pure excited)")
    p_rate.add_argument("--bits", action="store_true", help="also print bits")
    common(p_rate)
    p_rate.set_defaults(func=cmd_rate)

    p_d = sub.add_parser("distill", help="construct a distillation plan")
    p_d.add_argument("--n", type=int, required=True)
    p_d.add_argument("--p", type=float, required=True)
    common(p_d)
    p_d.set_defaults(func=cmd_distill)

    p_f = sub.add_parser("form", help="construct a formation plan")
    p_f.add_argument("--n", type=int, required=True)
    p_f.add_argument("--p", type=float, required=True)
    common(p_f)
    p_f.set_defaults(func=cmd_form)

    p_s = sub.add_parser("sweep", help="rate-convergence CSV over an n grid")
    p_s.add_argument("--n-grid", type=str, required=True, help="comma-separated n values")
    p_s.add_argument("--p", type=float, required=True)
    common(p_s)
    p_s.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="execute a small plan exactly")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--p", type=float, required=True)
    p_sim.add_argument("--max-qubits", type=int, default=14)
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_ex = sub.add_parser("exhaust", help="exhaust-state structure report")
    p_ex.add_argument("--n", type=int, required=True)
    p_ex.add_argument("--p", type=float, required=True)
    p_ex.add_argument("--block-size", type=int, default=1)
    common(p_ex)
    p_ex.set_defaults(func=cmd_exhaust)

    p_fr = sub.add_parser("frame", help="reference-frame shift overlap")
    p_fr.add_argument("--N", type=int, required=True)
    p_fr.add_argument("--delta", type=int, required=True)
    p_fr.set_defaults(func=cmd_frame)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FreeTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

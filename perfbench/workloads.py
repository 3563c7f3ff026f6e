"""Job lists of the three benchmark workloads.

A job is one call into the program: a CLI command through
``athermal.cli.main(argv)`` writing into a scratch directory, or a direct
call of a public function where no CLI command exists.  ``run`` is the
timed part; ``summarize`` turns its raw result into a small JSON-able dict
for the correctness gate and runs outside the timed region.

Every job draws its own (p, beta) from the workload seed, in a narrow band
around its base point: |dp| <= 0.002 and |dbeta| <= 0.01, rounded to four
decimals.  Seed 0 is the base point itself.  The band is narrow enough that
the plan structure of the small exact jobs (ell, windows, m) stays put, so
the work per pass changes by about a percent between seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import athermal.cli as cli
import athermal.coherent as coherent
import athermal.core as core
import athermal.distill as distill
import athermal.multilevel as multilevel
import athermal.simulate as simulate

WORKLOADS = ("plan-scale", "plan-exact-io", "oracle-exec")
SIZES = ("full", "tiny")

P0, BETA0 = 0.75, 1.0
P_BAND, BETA_BAND = 0.002, 0.01
# Off-diagonal element of the coherent two-level resource [[1-p, c], [c, p]].
COHERENCE = 0.3


@dataclass
class Job:
    name: str
    kind: str
    params: dict
    run: Callable[[], Any]
    summarize: Callable[[Any], dict]
    expect_rc: int = 0


def jitter(workload: str, seed: int, job: str, p0: float | None, beta0: float = BETA0):
    """(p, beta) of one job: the base point at seed 0, a band draw otherwise."""
    if seed == 0:
        return p0, beta0
    rng = random.Random(f"{workload}/{seed}/{job}")
    dp = round(rng.uniform(-P_BAND, P_BAND), 4)
    db = round(rng.uniform(-BETA_BAND, BETA_BAND), 4)
    p = None if p0 is None else (p0 if p0 >= 1.0 else round(p0 + dp, 4))
    return p, round(beta0 + db, 4)


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:   # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

PLAN_FIELDS = ("kind", "n", "ell", "m", "k", "p", "beta", "width", "failure_mass",
               "mode", "gibbs_window", "num_composite_types")


def plan_summary(d: dict) -> dict:
    """Small view of a serialized plan (no per-type records)."""
    out = {key: d[key] for key in PLAN_FIELDS if key in d}
    if d["kind"] == "distillation":
        out.update(resource_window=d["resource_window"], r_limit=d["r_limit"],
                   achieved_rate=d["achieved_rate"], coherent=d.get("coherent", False))
    else:
        out.update(target_window=d["target_window"],
                   fixed_point_iterations=d["fixed_point_iterations"])
    out["records"] = stored_records(d.get("per_type_maps"))
    return out


def stored_records(records) -> int:
    """Number of materialized per-type records (0 for a lazily derived view)."""
    return len(records) if isinstance(records, (list, tuple)) else 0


def plan_object_summary(plan) -> dict:
    """The same view as :func:`plan_summary`, taken from a plan object."""
    d = {"kind": "distillation" if isinstance(plan, distill.DistillationPlan) else "formation"}
    for key in PLAN_FIELDS[1:] + ("per_type_maps", "resource_window", "target_window",
                                  "r_limit", "achieved_rate", "coherent",
                                  "fixed_point_iterations"):
        if hasattr(plan, key):
            value = getattr(plan, key)
            d[key] = list(value) if key.endswith("_window") else value
    return plan_summary(d)


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Job constructors
# ---------------------------------------------------------------------------

class JobList:
    def __init__(self, workload: str, seed: int, tmpdir: str, span):
        self.workload, self.seed, self.tmpdir = workload, seed, tmpdir
        self.span = span
        self.jobs: list[Job] = []

    def params(self, name: str, p0: float | None, beta0: float = BETA0, **extra) -> dict:
        p, beta = jitter(self.workload, self.seed, name, p0, beta0)
        return {"p": p, "beta": beta, **extra}

    def path(self, name: str, ext: str) -> str:
        return os.path.join(self.tmpdir, f"{name}.{ext}")

    def cli_plan(self, command: str, n: int, width: float = 3.0, read_back: bool = False):
        name = f"{command}-{n}"
        prm = self.params(name, P0, n=n, width=width, command=command)
        path = self.path(name, "json")
        argv = [command, "--n", str(n), "--p", repr(prm["p"]), "--beta", repr(prm["beta"]),
                "--width", repr(width), "--output", path]

        if read_back:
            def run():
                rc, _ = call_cli(argv)
                if rc != 0:
                    return rc, None
                with self.span("cli.load_json"), open(path) as fh:
                    data = json.load(fh)
                return rc, cli.plan_from_dict(data)

            def summarize(raw):
                rc, plan = raw
                return {"rc": rc, "plan": plan_object_summary(plan) if plan else None,
                        "bytes": os.path.getsize(path) if rc == 0 else 0}
            name += "-roundtrip"
        else:
            def run():
                return call_cli(argv)[0]

            def summarize(rc):
                return {"rc": rc, "plan": plan_summary(read_json(path)) if rc == 0 else None}
        self.jobs.append(Job(name, "plan", prm, run, summarize))

    def general(self, n: int, width: float = 3.0):
        name = f"general-{n}"
        prm = self.params(name, P0, n=n, width=width, coherence=COHERENCE)
        rho = core.DensityMatrix(np.array([[1.0 - prm["p"], COHERENCE],
                                           [COHERENCE, prm["p"]]]))

        def run():
            return distill.plan_distillation_general(rho, n, prm["beta"], width)

        def summarize(raw):
            plan, record = raw
            s = plan_object_summary(plan)
            s.update(eig_window=list(record.eig_window), mean_energy=record.mean_energy,
                     entropy=record.entropy)
            return {"rc": 0, "plan": s}
        self.jobs.append(Job(name, "plan", prm, run, summarize))

    def sweep(self, grid: tuple[int, ...]):
        name = "sweep"
        prm = self.params(name, P0, grid=list(grid), width=3.0)
        path = self.path(name, "csv")
        argv = ["sweep", "--p", repr(prm["p"]), "--beta", repr(prm["beta"]),
                "--n-grid", ",".join(map(str, grid)), "--output", path]

        def summarize(rc):
            if rc != 0:
                return {"rc": rc, "header": None, "rows": []}
            with open(path) as fh:
                lines = fh.read().splitlines()
            rows = []
            for line in lines[1:]:
                n, ell, m, rate, deficit, failure = line.split(",")
                rows.append({"n": int(n), "ell": int(ell), "m": int(m), "rate": float(rate),
                             "deficit": float(deficit), "failure_mass": float(failure)})
            return {"rc": rc, "header": lines[0], "rows": rows}
        self.jobs.append(Job(name, "sweep", prm, lambda: call_cli(argv)[0], summarize))

    def domain_error(self, name: str, argv: list[str], prm: dict):
        def summarize(raw):
            rc, stdout = raw
            return {"rc": rc, "stdout": stdout.strip()}
        self.jobs.append(Job(name, "domain-error", prm, lambda: call_cli(argv),
                             summarize, expect_rc=2))

    def domain_errors(self):
        prm = self.params("rate-free-target", P0)
        q = math.exp(-prm["beta"]) / (1.0 + math.exp(-prm["beta"]))
        self.domain_error("rate-free-target",
                          ["rate", "--p", repr(prm["p"]), "--beta", repr(prm["beta"]),
                           "--sigma-p", repr(q)], {**prm, "sigma_p": q})
        prm = self.params("distill-n0", P0)
        self.domain_error("distill-n0",
                          ["distill", "--n", "0", "--p", repr(prm["p"]),
                           "--beta", repr(prm["beta"])], prm)
        self.domain_error("frame-N0", ["frame", "--N", "0", "--delta", "1"], {})

    def exhaust(self, n: int, p0: float, width: float):
        name = f"exhaust-{n}"
        prm = self.params(name, p0, n=n, width=width)
        path = self.path(name, "json")
        argv = ["exhaust", "--n", str(n), "--p", repr(prm["p"]), "--beta", repr(prm["beta"]),
                "--width", repr(width), "--output", path]

        def summarize(rc):
            return {"rc": rc, "report": read_json(path) if rc == 0 else None}
        self.jobs.append(Job(name, "exhaust", prm, lambda: call_cli(argv)[0], summarize))

    def simulate(self, n: int, p0: float, width: float):
        name = f"simulate-{n}"
        prm = self.params(name, p0, n=n, width=width)
        path = self.path(name, "json")
        argv = ["simulate", "--n", str(n), "--p", repr(prm["p"]), "--beta", repr(prm["beta"]),
                "--width", repr(width), "--output", path]

        def summarize(rc):
            return {"rc": rc, "report": read_json(path) if rc == 0 else None}
        self.jobs.append(Job(name, "simulate", prm, lambda: call_cli(argv)[0], summarize))

    def execute(self, n: int, p0: float, width: float):
        name = f"execute-{n}"
        prm = self.params(name, p0, n=n, width=width)

        def run():
            plan = distill.plan_distillation(n, prm["p"], prm["beta"], width)
            channel = simulate.execute_plan_quantum(plan)
            execution = simulate.execute_plan_classical(
                plan, simulate.thermal_input_distribution(plan))
            return plan, channel, execution

        def summarize(raw):
            plan, channel, execution = raw
            success = execution.work_marginal.get((1,) * plan.m, 0)
            return {"rc": 0, "plan": plan_object_summary(plan),
                    "quantum": {"commutator_nonzeros": channel.commutator_nonzeros,
                                "trace_preserved": channel.trace_preserved,
                                "work_trace_distance": channel.work_trace_distance,
                                "total_qubits": channel.total_qubits},
                    "classical": {"work_register_success": float(success),
                                  "routed_failure_mass": float(execution.routed_failure_mass),
                                  "exact": execution.output.is_rational}}
        self.jobs.append(Job(name, "execute", prm, run, summarize))

    def oracle_grid(self, enumerate_upto: int, pascal_upto: int, pascal_points: int):
        name = "oracle-grid"
        rng = random.Random(f"{self.workload}/{self.seed}/{name}")
        points = [(ell, g, tot - ell, r)
                  for tot in range(1, enumerate_upto + 1)
                  for ell in range(tot + 1)
                  for g in range(ell + 1)
                  for r in range(tot - ell + 1)]
        for _ in range(pascal_points):
            tot = rng.randint(enumerate_upto + 1, pascal_upto)
            ell = rng.randint(0, tot)
            points.append((ell, rng.randint(0, ell), tot - ell, rng.randint(0, tot - ell)))
        prm = {"enumerate_upto": enumerate_upto, "pascal_upto": pascal_upto,
               "points": len(points)}

        def run():
            return [simulate.oracle_max_m(*pt) for pt in points]

        def summarize(ms):
            return {"rc": 0, "points": [list(pt) for pt in points], "m": ms}
        self.jobs.append(Job(name, "oracle-grid", prm, run, summarize))

    def coherent_error(self, n: int, a2: float, p0: float):
        name = f"coherent-{n}"
        prm = self.params(name, p0, n=n, a2=a2)
        target = coherent.CoherentTarget(a=math.sqrt(a2), b=math.sqrt(1.0 - a2),
                                         p=prm["p"], n=n)

        def run():
            return coherent.coherent_formation_error(target, exact=True)

        def summarize(report):
            return {"rc": 0, "exact_trace_distance": report.exact_trace_distance,
                    "analytic_bound": report.analytic_bound,
                    "k_window": list(report.k_window), "k_tail": report.k_tail,
                    "sectors": len(report.sectors),
                    "catalyst_fidelity": report.catalyst_fidelity,
                    "window_size": report.frame.window_size}
        self.jobs.append(Job(name, "coherent", prm, run, summarize))

    def max_work(self, n: int, ell: int, exhaustive: bool):
        name = f"max-work-{n}"
        prm = self.params(name, P0, n=n, ell=ell, energies=[0.0, 1.0, 2.0],
                          exhaustive=exhaustive)
        f_rho = ((1.0 - prm["p"]) / 2, (1.0 - prm["p"]) / 2, prm["p"])
        prm["f_rho"] = list(f_rho)
        hamiltonian = core.Hamiltonian((0.0, 1.0, 2.0))

        def run():
            return multilevel.max_work(f_rho, hamiltonian, prm["beta"], n, ell)

        def summarize(ledger):
            ledger.check_energy_bookkeeping(hamiltonian)
            return {"rc": 0, "extracted": ledger.extracted,
                    "per_level_delta": list(ledger.per_level_delta),
                    "feasibility_margin": ledger.feasibility_margin,
                    "per_copy": ledger.per_copy, "bound_per_copy": ledger.bound_per_copy,
                    "exact_search": ledger.exact_search,
                    "partial_search": ledger.partial_search, "probes": len(ledger.probes)}
        self.jobs.append(Job(name, "max-work", prm, run, summarize))


def build(workload: str, seed: int, tmpdir: str, size: str = "full",
          span=None) -> list[Job]:
    """The workload's jobs in pass order; ``span(name)`` marks benchmark-side
    reads of CLI output for the tracer."""
    b = JobList(workload, seed, tmpdir, span or (lambda name: contextlib.nullcontext()))
    tiny = size == "tiny"
    if workload == "plan-scale":
        # Large-n planning: the log-gamma window solve, the coherent
        # bath x block loop and big-int window masses; one record per plan.
        for n in ((30_000, 20_000) if tiny else (100_000, 50_000)):
            b.cli_plan("distill", n)
        for n in ((30_000, 20_000) if tiny else (50_000, 10_000)):
            b.cli_plan("form", n)
        b.general(200 if tiny else 2_000)
    elif workload == "plan-exact-io":
        # Record building, JSON write and read, exact math.comb paths and
        # domain errors; barely touches the large-n solve.
        b.cli_plan("distill", 100 if tiny else 500, read_back=True)
        b.cli_plan("distill", 50 if tiny else 200)
        b.cli_plan("form", 30 if tiny else 100)
        b.sweep((30, 100) if tiny else (100, 1000, 5000))
        b.domain_errors()
    elif workload == "oracle-exec":
        # Ground truth: brute-force oracles and exact executors at toy sizes.
        b.exhaust(3 if tiny else 5, 0.95, 0.75)
        b.simulate(3 if tiny else 5, 0.95, 0.75)
        for n, p0, width in ((2, 1.0, 3.0), (3, 1.0, 3.0), (4, 0.95, 0.75))[: 2 if tiny else 3]:
            b.execute(n, p0, width)
        b.oracle_grid(8 if tiny else 12, 24, 50 if tiny else 200)
        for n in ((4,) if tiny else (4, 6, 8)):
            b.coherent_error(n, 0.1, 0.5)
        b.max_work(10 if tiny else 20, 20 if tiny else 40, exhaustive=True)
        b.max_work(300 if tiny else 1000, 600 if tiny else 2000, exhaustive=False)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return b.jobs

"""Runs one workload in a fresh process and writes what it measured.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --size full|tiny --out RESULT.json

Jobs run one after another in this process, each starting when the
previous one returns (a closed loop with one client).  The first pass is an
untimed warm-up (lazy imports and first calls); its outputs are gated like
the others.  Then timed passes run while the next one, judged by the last
pass of its kind, ends within ``--seconds`` of the start: at least one, and
with tracing at least one untraced and one traced pass, alternating.  Each
pass starts with the program's function caches cleared, as a fresh CLI
call would.  Before each job the reference loop of speed.py is timed, so
the job's time can be scaled to reference speed.  The result file holds
every job's time, reference-loop time and output summary per pass, the
process's peak RSS, and with tracing the per-layer metrics of each traced
pass; the last traced pass's spans are written to .perfbench/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from speed import time_reference_loop  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def clear_program_caches() -> None:
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "athermal" or name.startswith("athermal.")):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_pass(jobs, tracer: Tracer | None, warmup: bool = False) -> dict:
    clear_program_caches()
    gc.collect()
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    if tracer is not None:
        tracer.reset()
        tracer.install()
        tracer.enabled = True
    out = {}
    try:
        for job in jobs:
            error = None
            ref = time_reference_loop()
            start = time.perf_counter()
            with span(f"bench.{job.name}"):
                try:
                    raw = job.run()
                except Exception:   # a failing job is recorded, not fatal
                    error = traceback.format_exc(limit=-4).strip()
            seconds = time.perf_counter() - start
            summary = None
            if error is None:
                with tracer.paused() if tracer is not None else nullcontext():
                    try:
                        summary = job.summarize(raw)
                    except Exception:
                        error = "in summary: " + traceback.format_exc(limit=-4).strip()
            raw = None   # release a large result before the next job runs
            out[job.name] = {"seconds": seconds, "ref": ref, "error": error,
                             "summary": summary}
    finally:
        if tracer is not None:
            tracer.enabled = False
            tracer.uninstall()
    return {"warmup": warmup, "traced": tracer is not None,
            "wall": sum(j["seconds"] for j in out.values()), "jobs": out}


def layer_metrics(tracer: Tracer, wall: float) -> dict:
    """Per-layer metrics of one traced pass."""
    a = tracer.analyse()
    incl, own, lay, c = a["inclusive"], a["self"], a["layer_self"], tracer.counters

    def inclusive(*names):
        return sum(incl[name] for name in names)

    calls = c["multilevel.calls"]
    metrics = {
        "distill.plan_s": own["distill.plan_distillation"],
        "distill.general_s": inclusive("distill.plan_distillation_general"),
        "distill.window_mass_s": inclusive("distill.binomial_window_mass"),
        "distill.types": c["distill.types"],
        "distill.records": c["distill.records"],
        "distill.string_maps": c["distill.string_maps"],
        "typeclass.s": lay["typeclass"],
        "typeclass.calls": c["typeclass.calls"],
        "form.plan_s": own["form.plan_formation"],
        "form.records": c["form.records"],
        "form.fixed_point_iterations": c["form.fixed_point_iterations"],
        "form.birkhoff_s": inclusive("form.gibbs_type_birkhoff", "form.birkhoff_partition"),
        "core.s": lay["core"],
        "simulate.input_dist_s": inclusive("simulate.thermal_input_distribution",
                                           "simulate.formation_input_distribution"),
        "simulate.classical_s": inclusive("simulate.execute_plan_classical"),
        "simulate.quantum_s": inclusive("simulate.execute_plan_quantum"),
        "simulate.exhaust_s": own["simulate.exhaust_analysis"],
        "simulate.oracle_s": inclusive("simulate.oracle_max_m"),
        "simulate.strings": c["simulate.strings"],
        "coherent.formation_error_s": inclusive("coherent.coherent_formation_error"),
        "coherent.sectors": c["coherent.sectors"],
        "multilevel.max_work_s": inclusive("multilevel.max_work"),
        "multilevel.probes": c["multilevel.probes"],
        "multilevel.exhaustive_share": c["multilevel.exhaustive"] / calls if calls else 0.0,
        "cli.write_s": inclusive("cli.plan_to_dict", "cli.dumps_report",
                                 "cli.write_string_distribution_csv", "cli.file_write"),
        "cli.read_s": inclusive("cli.plan_from_dict", "cli.read_string_distribution_csv",
                                "cli.load_json"),
        "cli.output_bytes": c["cli.output_bytes"],
        "cli.self_s": lay["cli"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = lay[layer] / wall if wall > 0 else 0.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    tmpdir = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        jobs = workloads.build(args.workload, args.seed, str(tmpdir), args.size,
                               span=tracer.span if tracer else None)
        start = time.perf_counter()
        passes, layers = [run_pass(jobs, None, warmup=True)], []
        while True:
            timed = [p for p in passes if not p["warmup"]]
            traced = bool(args.trace) and len(timed) % 2 == 1
            same = [p["wall"] for p in timed if p["traced"] == traced] or [passes[-1]["wall"]]
            ends = time.perf_counter() - start + same[-1]
            if len(timed) >= 1 + args.trace and ends > args.seconds:
                break
            passes.append(run_pass(jobs, tracer if traced else None))
            if traced:
                layers.append(layer_metrics(tracer, passes[-1]["wall"]))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    result = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace,
        "jobs": [{"name": j.name, "kind": j.kind, "params": j.params,
                  "expect_rc": j.expect_rc} for j in jobs],
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        walls = lambda traced: [p["wall"] for p in passes
                                if p["traced"] == traced and not p["warmup"]]
        overhead = statistics.median(walls(True)) - statistics.median(walls(False))
        result["layers"] = [{**m, "trace.overhead_s": overhead} for m in layers]
        spans_path = ROOT / ".perfbench" / f"spans-{args.workload}.json"
        tracer.write(str(spans_path))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

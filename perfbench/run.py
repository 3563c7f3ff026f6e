"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload plan-scale --seed 0 --seconds 34 --trace 0

Run from the root of a checkout.  The run times the set-up every CLI call
pays (a fresh interpreter importing ``athermal.cli`` and building its
parser), then starts a worker process that repeats passes over the
workload's jobs for ``--seconds``, then gates the worker's outputs.  Both
times are reported at reference speed (speed.py), so the host's changing
speed cancels out; the readable report gives the raw times beside them.  It
prints a readable report and, as its last line, one JSON object:
``correct``, ``attempted`` and ``failed`` job runs, and the end-to-end
metrics (``--trace 0``) or the per-layer metrics of traced passes
(``--trace 1``).  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from speed import REFERENCE_LOOP_S, time_reference_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); "
              "import athermal.cli; athermal.cli.build_parser()")
WORKER_GRACE_SECONDS = 120
# One thread of load: BLAS thread pools would compete for the machine's few cores.
SINGLE_THREAD = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def metric_units(spec: dict) -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics."""
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def at_reference_speed(samples) -> float:
    """Median of (seconds, reference-loop seconds) samples, as seconds at
    reference speed."""
    return REFERENCE_LOOP_S * statistics.median(t / ref for t, ref in samples)


def time_interpreter() -> float:
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=SINGLE_THREAD,
                            stdout=subprocess.DEVNULL)
    # wait() with a timeout polls every 50 ms, which would quantise the time;
    # a timer thread kills a hung interpreter instead.
    guard = threading.Timer(60, proc.kill)
    guard.start()
    try:
        rc = proc.wait()
    finally:
        guard.cancel()
    seconds = time.perf_counter() - start
    if rc != 0:
        raise subprocess.CalledProcessError(rc, proc.args)
    return seconds


def measure_setup() -> list[tuple[float, float]]:
    """(wall time, reference-loop time) of fresh interpreters importing the
    CLI; one untimed warm-up first, so byte-code compilation of a new
    checkout is not counted."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        ref = statistics.median(time_reference_loop() for _ in range(3))
        seconds = time_interpreter()
        if i:
            samples.append((seconds, ref))
    return samples


def run_worker(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    out = ROOT / ".perfbench" / f"worker-{os.getpid()}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    try:
        subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                        "--size", size, "--out", str(out)],
                       cwd=ROOT, env=SINGLE_THREAD, check=True,
                       timeout=seconds + WORKER_GRACE_SECONDS)
        with open(out) as fh:
            return json.load(fh)
    finally:
        out.unlink(missing_ok=True)


def load_reference(workload: str) -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)[workload]


def timed_passes(result: dict, traced: bool) -> list:
    return [p for p in result["passes"] if not p["warmup"] and p["traced"] == traced]


def job_medians(result: dict, scaled: bool = True) -> dict:
    """Each job's median time over the untraced passes, at reference speed
    or as measured."""
    untraced = timed_passes(result, traced=False)
    medians = {}
    for job in result["jobs"]:
        runs = [p["jobs"][job["name"]] for p in untraced]
        medians[job["name"]] = (at_reference_speed((r["seconds"], r["ref"]) for r in runs)
                                if scaled else statistics.median(r["seconds"] for r in runs))
    return medians


def end_to_end(result: dict, setup: list[tuple[float, float]], verdict) -> dict:
    return {"setup_s": at_reference_speed(setup), "wall_s": sum(job_medians(result).values()),
            "peak_rss_mb": result["peak_rss_mb"], "success_rate": verdict.success_rate,
            "accurate_share": verdict.accurate_share}


def per_layer(result: dict) -> dict:
    layers = result["layers"]
    return {name: statistics.median(m[name] for m in layers) for name in layers[0]}


def report(args, result: dict, setup: list[tuple[float, float]], verdict, e2e: dict,
           units: dict) -> None:
    """Readable lines; the JSON result follows as the last line."""
    untraced = timed_passes(result, traced=False)
    traced = timed_passes(result, traced=True)
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace}: "
          f"a warm-up pass, {len(untraced)} untraced and {len(traced)} timed traced passes, "
          f"{verdict.attempted} job runs")
    s1, s2, s3 = quartiles([t for t, _ in setup])
    w1, w2, w3 = quartiles([p["wall"] for p in untraced])
    refs = [run["ref"] for p in untraced for run in p["jobs"].values()]
    speed = REFERENCE_LOOP_S / statistics.median(refs)
    raw_wall = sum(job_medians(result, scaled=False).values())
    failed = verdict.failed + verdict.defective
    notes = {
        "setup_s": f"median of {len(setup)} interpreters at reference speed; as measured "
                   f"{s2:.4f}, quartiles {s1:.4f}..{s3:.4f}",
        "wall_s": f"sum of per-job medians at reference speed; as measured {raw_wall:.4f} "
                  f"(machine at {speed:.3f} x reference speed); pass wall median {w2:.4f}, "
                  f"quartiles {w1:.4f}..{w3:.4f}, n={len(untraced)}",
        "peak_rss_mb": "worker process, ru_maxrss",
        "success_rate": f"error_rate {failed / verdict.attempted:.4f} "
                        f"({failed} of {verdict.attempted} job runs failed)",
        "accurate_share": f"inaccurate_results {len(verdict.inaccurate)} of "
                          f"{verdict.floats_checked} float results",
    }
    for name, value in e2e.items():
        print(f"  {name:16s} {value:12.6g} {units[name]:6s} {notes[name]}")
    print("  job medians at reference speed (s): " + ", ".join(
        f"{name} {t:.3f}" for name, t in job_medians(result).items()))
    for job, message in dict.fromkeys(verdict.known):
        print(f"  known defect {job}: {message}")
    for job, message in dict.fromkeys(verdict.unexpected):
        print(f"  FAILED {job}: {message}")
    for job, label, value, ref in dict.fromkeys(verdict.inaccurate):
        rel = abs(value - ref) / abs(ref) if ref else float("inf")
        print(f"  inaccurate {job} {label}: {value!r} vs reference {ref!r} "
              f"(relative error {rel:.3g})")
    if args.trace:
        metrics = per_layer(result)
        shares = sorted(((k[:-6], v) for k, v in metrics.items() if k.endswith(".share")),
                        key=lambda kv: -kv[1])
        print("  share of traced wall by module (self time): " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in shares))
        print(f"  spans written to {result['spans_file']}")
    print(f"  verdict: {'correct' if verdict.correct else 'INCORRECT'}")


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny job sizes, for the benchmark's own self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "athermal" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks  # imports the program, so only after the source check

    setup = measure_setup()
    result = run_worker(args.workload, args.seed, args.seconds, args.trace, args.size)
    reference = load_reference(args.workload) if args.seed == 0 and args.size == "full" else None
    verdict = checks.verify(result, reference)
    e2e = end_to_end(result, setup, verdict)
    e2e_units, layer_units = metric_units(spec)
    report(args, result, setup, verdict, e2e, e2e_units)
    values, units = (per_layer(result), layer_units) if args.trace else (e2e, e2e_units)
    if values.keys() != units.keys():
        print(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": verdict.correct, "attempted": verdict.attempted,
                      "failed": verdict.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. The workloads of BENCHMARK.json are the ones workloads.py builds.  A
   tiny-size run of each, untraced and traced, prints every metric of
   BENCHMARK.json with its unit and a correct verdict.
2. One full-size pass of each workload at seed 0 matches the stored
   reference, and the gate trips for every job whose stored reference
   value is perturbed.  A known defect is excused only for its exact
   symptom: any other failure of that job makes the run incorrect.
3. In a directory holding only BENCHMARK.json and the benchmark, the run
   exits with a nonzero code and prints no result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from run import run_worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_metric_names(spec: dict) -> None:
    names = tuple(w["name"] for w in spec["workloads"])
    assert names == WORKLOADS, f"BENCHMARK.json workloads {names} != workloads.py {WORKLOADS}"
    for workload in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = run_bench(["--workload", workload, "--seed", "1", "--seconds", "1",
                              "--trace", str(trace), "--size", "tiny"], ROOT)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["attempted"] >= 1, result
            units = {m["name"]: m["unit"] for m in wanted}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == units, f"{workload} trace={trace}: {got} != {units}"
            readable = done.stdout.strip().rsplit("\n", 1)[0]
            missing = [name for name in units if trace == 0 and name not in readable]
            assert not missing, f"{workload}: not in the readable report: {missing}"
            print(f"ok   {workload} trace={trace}: {len(units)} metrics with units")


def perturb(value):
    """The same reference value, changed by one unit in its first number."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * (1 + 1e-6) + 1e-9
    if isinstance(value, list):
        return [perturb(value[0])] + value[1:]
    if isinstance(value, dict):
        key = sorted(value)[0]
        return {**value, key: perturb(value[key])}
    raise TypeError(type(value))


def check_reference_gate() -> None:
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    for workload in WORKLOADS:
        result = run_worker(workload, 0, 0.0, 0, "full")
        verdict = checks.verify(result, reference[workload])
        assert verdict.correct, verdict.unexpected
        for name, value in reference[workload].items():
            if value is None:
                continue
            bad = copy.deepcopy(reference[workload])
            bad[name] = perturb(value)
            tripped = checks.verify(result, bad)
            assert not tripped.correct and any(job == name for job, _ in tripped.unexpected), \
                f"{workload}/{name}: perturbed reference not caught"
        print(f"ok   {workload}: seed-0 outputs match, every perturbed reference trips")
        check_known_defects(result, verdict)


def check_known_defects(result: dict, verdict) -> None:
    for name in checks.KNOWN_DEFECTS.keys() & {job["name"] for job in result["jobs"]}:
        assert verdict.defective > 0 and not any(job == name for job, _ in verdict.unexpected), \
            f"{name}: the documented symptom is not recognised"
        for run in ({"error": None, "summary": {"rc": 1, "stdout": ""}},
                    {"error": "RuntimeError('boom')", "summary": None}):
            bad = copy.deepcopy(result)
            for p in bad["passes"]:
                p["jobs"][name].update(run)
            tripped = checks.verify(bad, None)
            assert not tripped.correct and tripped.failed == len(bad["passes"]), \
                f"{name}: a failure other than the known defect was excused"
        print(f"ok   {name}: only the documented symptom is excused")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(["--workload", "plan-scale", "--seed", "0", "--seconds", "1",
                          "--trace", "0"], bare)
        assert done.returncode != 0 and "metrics" not in done.stdout, done.stdout
        print(f"ok   bare directory: exit code {done.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    check_metric_names(spec)
    check_reference_gate()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

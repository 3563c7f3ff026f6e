"""One command for every workload: end-to-end metrics, verdicts, module shares.

    python3 perfbench/report.py [--seconds S]

Runs perfbench/run.py at seed 0, untraced and then traced, for every
workload of BENCHMARK.json, streams each run's readable report, and ends
with tables: every end-to-end metric by name and unit per
workload with the correctness verdict, and each module's share of traced
wall time (self time) per workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, seconds: float, trace: int) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "0", "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    if done.returncode != 0:
        sys.exit(f"{workload}: exit code {done.returncode}\n{done.stderr}")
    return json.loads(lines[-1])


def table(title: str, rows: list[tuple], results: dict) -> None:
    width = max(len(r[0]) for r in rows) + 2
    print(f"\n{title}")
    print(f"  {'':{width}s}{'unit':8s}" + "".join(f"{w:>16s}" for w in results))
    for name, unit, cell in rows:
        print(f"  {name:{width}s}{unit:8s}" + "".join(f"{cell(r):>16s}" for r in results.values()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args()
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = [w["name"] for w in spec["workloads"]]

    untraced = {w: run(w, seconds, 0) for w in workloads}
    first = untraced[workloads[0]]
    rows = [(n, first["metrics"][n]["unit"],
             lambda r, n=n: f"{r['metrics'][n]['value']:.6g}") for n in first["metrics"]]
    rows += [("failed / attempted", "", lambda r: f"{r['failed']}/{r['attempted']}"),
             ("verdict", "", lambda r: "correct" if r["correct"] else "INCORRECT")]
    table("End-to-end metrics (untraced runs)", rows, untraced)

    traced = {w: run(w, seconds, 1) for w in workloads}
    names = list(traced[workloads[0]]["metrics"])
    shares = [n for n in names if n.endswith(".share")]
    rows = [(n[: -len(".share")], "ratio", lambda r, n=n: f"{r['metrics'][n]['value']:.1%}")
            for n in shares]
    table("Share of traced wall time by module (self time)", rows, traced)
    rows = [(n, traced[workloads[0]]["metrics"][n]["unit"],
             lambda r, n=n: f"{r['metrics'][n]['value']:.4g}") for n in names if n not in shares]
    table("Per-layer metrics (traced runs)", rows, traced)
    return 0


if __name__ == "__main__":
    sys.exit(main())

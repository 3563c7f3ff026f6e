"""Writes perfbench/reference.json: the pinned seed-0 outputs of every job.

    python3 perfbench/make_reference.py

Runs one full-size pass of each workload at seed 0, refuses to write if
any job fails a gate other than a known defect, and stores the part of each
summary that ``checks.reference_view`` pins.  Regenerate only when a change
is meant to alter those outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from run import run_worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    reference = {}
    for workload in WORKLOADS:
        result = run_worker(workload, 0, 0.0, 0, "full")
        verdict = checks.verify(result, None)
        if not verdict.correct:
            print(f"{workload}: gate failed, reference not written: {verdict.unexpected}",
                  file=sys.stderr)
            return 1
        kinds = {job["name"]: job["kind"] for job in result["jobs"]}
        reference[workload] = {
            name: checks.reference_view(kinds[name], run["summary"])
            for name, run in result["passes"][0]["jobs"].items()}
    with open(HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

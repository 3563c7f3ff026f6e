"""The two ROADMAP single cases that are too long to repeat in a workload.

    python3 perfbench/single_cases.py

Runs each case once, in its own fresh interpreter, at the ROADMAP point
(p = 0.75, beta = 1): ``distill --n 1000000`` through the CLI, and the
coherent ``plan_distillation_general`` at n = 1e5 for the resource
[[1 - p, c], [c, p]] of the plan-scale workload.  Records wall time, peak
RSS, the plan integers and the machine, so the ROADMAP north-star figures
can be reproduced and compared against; writes perfbench/single_cases.json.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CASE_CODE = r"""
import json, resource, sys, time
sys.path.insert(0, "src")
sys.path.insert(0, "perfbench")
import numpy as np
import athermal.cli as cli
import athermal.core as core
import athermal.distill as distill
from workloads import COHERENCE, P0, BETA0, call_cli
case, out = sys.argv[1], sys.argv[2]
start = time.perf_counter()
if case == "distill-1000000":
    rc, _ = call_cli(["distill", "--n", "1000000", "--p", repr(P0), "--beta", repr(BETA0),
                      "--output", out])
    seconds = time.perf_counter() - start
    with open(out) as fh:
        plan = json.load(fh)
else:
    rho = core.DensityMatrix(np.array([[1 - P0, COHERENCE], [COHERENCE, P0]]))
    plan_obj, _ = distill.plan_distillation_general(rho, 100_000, BETA0)
    seconds = time.perf_counter() - start
    rc, plan = 0, cli.plan_to_dict(plan_obj)
print(json.dumps({"seconds": seconds, "exit_code": rc,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  **{k: plan[k] for k in ("n", "ell", "m", "k", "gibbs_window",
                                          "resource_window", "failure_mass", "mode")}}))
"""

CASES = ("distill-1000000", "general-100000")


def machine() -> dict:
    model = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    import numpy
    import scipy
    return {"cpu": model, "logical_cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main() -> int:
    scratch = ROOT / ".perfbench" / "single-case.json"
    scratch.parent.mkdir(parents=True, exist_ok=True)
    results = {}
    try:
        for case in CASES:
            done = subprocess.run([sys.executable, "-c", CASE_CODE, case, str(scratch)],
                                  cwd=ROOT, capture_output=True, text=True, check=True,
                                  timeout=900)
            results[case] = json.loads(done.stdout.strip().splitlines()[-1])
            print(case, results[case], flush=True)
    finally:
        scratch.unlink(missing_ok=True)
    with open(HERE / "single_cases.json", "w") as fh:
        json.dump({"machine": machine(), "cases": results}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

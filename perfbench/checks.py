"""Correctness gate and independent accuracy reference.

The gate runs on the job summaries a worker wrote.  A job fails when it
raised, exited with another code than expected, broke an invariant or gave
a wrong integer result; at seed 0 its outputs must also match the stored
reference values.  A job listed in ``KNOWN_DEFECTS`` whose summary is
exactly the documented symptom is reported like any failure but does not
make the run incorrect; any other failure of that job counts as usual.

Float results are compared with references computed here without the
program's own formulas: binomial tails from ``scipy.stats.binom``, relative
entropies from ``scipy.special.rel_entr`` and eigenvalues.  A float counts
as inaccurate when its relative error exceeds ``TOLERANCE``; the known
``1 - mass * mass`` cancellation in ``failure_mass`` shows up here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, rel_entr
from scipy.stats import binom

from athermal import distill, simulate
from athermal.typeclass import typical_range

TOLERANCE = 1e-6
REFERENCE_RTOL = 1e-9
SWEEP_HEADER = "n,ell,m,rate,deficit,failure_mass"

# job -> (the summary the defect produces, description)
KNOWN_DEFECTS = {
    "frame-N0": ({"rc": 0, "stdout": "shift_overlap 0.0 dimensionless"},
                 "frame --N 0 prints 0.0 and exits 0 instead of a domain error (exit 2)"),
}

PLAN_INTS = ("n", "ell", "m", "k", "gibbs_window", "resource_window", "target_window")
QUANTUM_KEYS = ("commutator_nonzeros", "trace_preserved", "work_trace_distance")


@dataclass
class Verdict:
    failures: list = field(default_factory=list)    # (job, message)
    floats: list = field(default_factory=list)      # (job, label, value, reference, ok)

    def require(self, job: str, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append((job, message))

    def close(self, job: str, label: str, value: float, reference: float) -> None:
        err = abs(value - reference)
        ok = err <= TOLERANCE * abs(reference) if reference != 0 else err <= 1e-12
        self.floats.append((job, label, value, reference, ok))


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------

def gibbs_q(beta: float) -> float:
    """Excited-level Gibbs weight of the unit-gap two-level system."""
    return float(expit(-beta))


def outside_mass(n: int, p: float, window) -> float:
    """Binomial(n, p) mass outside the inclusive window, from the two tails."""
    lo, hi = window
    return float(binom.cdf(lo - 1, n, p) + binom.sf(hi, n, p))


def product_failure(a: float, b: float) -> float:
    """1 - (1 - a)(1 - b) without cancellation."""
    return a + b - a * b


def rate_reference(p: float, beta: float) -> float:
    """D(rho || gamma) / D(|1><1| || gamma) for a diagonal two-level rho."""
    q = gibbs_q(beta)
    d_rho = float(rel_entr(p, q) + rel_entr(1.0 - p, 1.0 - q))
    return d_rho / -math.log(q)


def coherent_rate_reference(p: float, c: float, beta: float) -> float:
    q = gibbs_q(beta)
    evals = np.linalg.eigvalsh(np.array([[1.0 - p, c], [c, p]]))
    neg_entropy = float(sum(v * math.log(v) for v in evals if v > 0))
    d_rho = neg_entropy - ((1.0 - p) * math.log(1.0 - q) + p * math.log(q))
    return d_rho / -math.log(q)


def max_m_reference(ell: int, g: int, n: int, r: int) -> int:
    """Largest m with C(ell, g) C(n, r) <= C(ell + n - m, g + r - m)."""
    inputs = math.comb(ell, g) * math.comb(n, r)
    for m in range(g + r, -1, -1):
        if inputs <= math.comb(ell + n - m, g + r - m):
            return m
    return 0


def joint_m_reference(ell: int, n: int, g_window, r_window) -> int:
    """Largest m whose every total-1s shell fits its covered strings."""
    shells: dict[int, int] = {}
    for g in range(g_window[0], g_window[1] + 1):
        for r in range(r_window[0], r_window[1] + 1):
            shells[g + r] = shells.get(g + r, 0) + math.comb(ell, g) * math.comb(n, r)
    m = min(shells)
    while m > 0 and any(math.comb(ell + n - m, s - m) < c for s, c in shells.items()):
        m -= 1
    return m


def multilevel_bound(f_rho, energies, beta: float) -> float:
    weights = np.exp(-beta * np.asarray(energies))
    gamma = weights / weights.sum()
    return float(rel_entr(np.asarray(f_rho), gamma).sum()) / beta


# ---------------------------------------------------------------------------
# Per-kind checks
# ---------------------------------------------------------------------------

def check_windows(v: Verdict, job: str, d: dict) -> None:
    g_lo, g_hi = d["gibbs_window"]
    v.require(job, 0 <= g_lo <= g_hi <= d["ell"], f"gibbs window {d['gibbs_window']} "
              f"outside [0, {d['ell']}]")
    key = "resource_window" if d["kind"] == "distillation" else "target_window"
    lo, hi = d[key]
    v.require(job, 0 <= lo <= hi <= d["n"], f"{key} {d[key]} outside [0, {d['n']}]")


def check_plan(v: Verdict, job: str, d: dict, params: dict) -> None:
    check_windows(v, job, d)
    n, ell, m, k = d["n"], d["ell"], d["m"], d["k"]
    v.require(job, m >= 0, f"negative m {m}")
    q = gibbs_q(params["beta"])
    bath = outside_mass(ell, q, d["gibbs_window"]) if ell > 0 else 0.0
    if d["kind"] == "formation":
        v.require(job, k == m + ell - n, f"k={k} != m + ell - n")
        v.close(job, "failure_mass", d["failure_mass"],
                product_failure(bath, outside_mass(n, params["p"], d["target_window"])))
        return
    v.require(job, k == ell + n - m, f"k={k} != ell + n - m")
    v.require(job, d["achieved_rate"] == m / n, "achieved_rate != m / n")
    if d.get("coherent"):
        eig = np.linalg.eigvalsh(np.array([[1.0 - params["p"], params["coherence"]],
                                           [params["coherence"], params["p"]]]))
        energy_tail = outside_mass(n, params["p"], d["resource_window"])
        eig_tail = outside_mass(n, float(eig.max()), d["eig_window"])
        v.close(job, "failure_mass", d["failure_mass"],
                min(1.0, bath + energy_tail + 2.0 * math.sqrt(eig_tail)))
        v.close(job, "r_limit", d["r_limit"],
                coherent_rate_reference(params["p"], params["coherence"], params["beta"]))
        return
    v.close(job, "failure_mass", d["failure_mass"],
            product_failure(bath, outside_mass(n, params["p"], d["resource_window"])))
    v.close(job, "r_limit", d["r_limit"], rate_reference(params["p"], params["beta"]))
    if ell + n <= 24:
        check_against_oracle(v, job, d)


def check_against_oracle(v: Verdict, job: str, d: dict) -> None:
    """Plan m against the brute-force oracle on every covered type."""
    ell, n, m = d["ell"], d["n"], d["m"]
    for g in range(d["gibbs_window"][0], d["gibbs_window"][1] + 1):
        for r in range(d["resource_window"][0], d["resource_window"][1] + 1):
            single = distill.solve_single_type(ell, g, n, r, exact=True)
            oracle = simulate.oracle_max_m(ell, g, n, r)
            v.require(job, single == oracle, f"type ({g}, {r}): solver m={single} "
                      f"!= oracle m={oracle}")
            v.require(job, m <= oracle, f"plan m={m} exceeds oracle m={oracle} at ({g}, {r})")
    joint = joint_m_reference(ell, n, d["gibbs_window"], d["resource_window"])
    v.require(job, m == joint, f"plan m={m} != joint shell-count m={joint}")


def check_execution(v: Verdict, job: str, quantum: dict | None, classical: dict) -> None:
    if quantum is not None:
        v.require(job, quantum["trace_preserved"] is True, "quantum channel not trace preserving")
        v.require(job, quantum["commutator_nonzeros"] == 0,
                  f"{quantum['commutator_nonzeros']} nonzero commutator entries")
        v.close(job, "work_trace_distance", quantum["work_trace_distance"],
                1.0 - classical["work_register_success"])
    v.require(job, 0.0 <= classical["routed_failure_mass"] <= 1.0, "routed mass outside [0, 1]")


def check_job(v: Verdict, job: dict, s: dict) -> None:
    name, kind, params = job["name"], job["kind"], job["params"]
    v.require(name, s["rc"] == job["expect_rc"],
              f"exit code {s['rc']}, expected {job['expect_rc']}")
    if s["rc"] != job["expect_rc"] or kind == "domain-error":
        return
    if kind == "plan":
        check_plan(v, name, s["plan"], params)
        if "bytes" in s:
            v.require(name, s["bytes"] > 0, "empty plan file")
    elif kind == "sweep":
        v.require(name, s["header"] == SWEEP_HEADER, f"sweep header {s['header']!r}")
        v.require(name, [r["n"] for r in s["rows"]] == params["grid"], "sweep rows != grid")
        q = gibbs_q(params["beta"])
        r_ref = rate_reference(params["p"], params["beta"])
        for row in s["rows"]:
            n, ell, m = row["n"], row["ell"], row["m"]
            v.require(name, row["rate"] == m / n, f"n={n}: rate != m / n")
            v.close(name, f"n={n} deficit", row["deficit"], r_ref - m / n)
            bath = outside_mass(ell, q, typical_range(ell, q, params["width"]))
            resource = outside_mass(n, params["p"], typical_range(n, params["p"], params["width"]))
            v.close(name, f"n={n} failure_mass", row["failure_mass"],
                    product_failure(bath, resource))
    elif kind == "exhaust":
        r = s["report"]
        v.require(name, r["subadditivity_holds"] is True, "block subadditivity fails")
        v.require(name, len(r["rel_entropies"]) == r["num_blocks"], "block count mismatch")
        v.require(name, min(r["rel_entropies"]) >= 0.0, "negative relative entropy")
        v.require(name, all(t <= b + 1e-12 for t, b in
                            zip(r["measured_trace_distances"], r["pinsker_bounds"])),
                  "a block's trace distance exceeds its Pinsker bound")
    elif kind == "simulate":
        r = s["report"]
        plan = distill.plan_distillation(params["n"], params["p"], params["beta"],
                                         params["width"])
        d = {"kind": "distillation", "n": plan.n, "ell": plan.ell, "m": plan.m, "k": plan.k,
             "gibbs_window": list(plan.gibbs_window),
             "resource_window": list(plan.resource_window),
             "achieved_rate": plan.achieved_rate, "r_limit": plan.r_limit,
             "failure_mass": r["quantum"]["failure_mass"] if "quantum" in r
             else plan.failure_mass}
        v.require(name, r["plan"] == {key: d[key] for key in ("n", "ell", "m", "k")},
                  f"report plan {r['plan']} differs from the plan it names")
        v.require(name, ("quantum" in r) == (plan.ell + plan.n <= 14),
                  "quantum execution missing or beyond its qubit cap")
        check_plan(v, name, d, params)
        check_execution(v, name, r.get("quantum"), r["classical"])
    elif kind == "execute":
        check_plan(v, name, s["plan"], params)
        v.require(name, s["classical"]["exact"] is True, "classical execution not exact")
        check_execution(v, name, s["quantum"], s["classical"])
    elif kind == "oracle-grid":
        for point, m in zip(s["points"], s["m"]):
            ref = max_m_reference(*point)
            v.require(name, m == ref, f"oracle_max_m{tuple(point)} = {m}, expected {ref}")
    elif kind == "coherent":
        n = params["n"]
        v.require(name, s["exact_trace_distance"] <= s["analytic_bound"] + 1e-12,
                  "exact error exceeds the analytic bound")
        v.require(name, s["sectors"] >= 1, "no typical sector")
        lo, hi = s["k_window"]
        v.require(name, 0 <= lo <= hi <= n, f"k window {s['k_window']} outside [0, {n}]")
        v.require(name, -1e-12 <= s["catalyst_fidelity"] <= 1.0 + 1e-9,
                  "catalyst fidelity outside [0, 1]")
        v.close(name, "k_tail", s["k_tail"], outside_mass(n, params["p"], s["k_window"]))
    elif kind == "max-work":
        v.require(name, s["exact_search"] == params["exhaustive"],
                  f"exact_search={s['exact_search']}, expected {params['exhaustive']}")
        v.require(name, s["per_copy"] <= s["bound_per_copy"] + 1e-9,
                  "work per copy exceeds the relative-entropy bound")
        v.require(name, s["extracted"] <= 0.0 or s["feasibility_margin"] >= 0.0,
                  "solution violates the counting condition")
        v.close(name, "bound_per_copy", s["bound_per_copy"],
                multilevel_bound(params["f_rho"], params["energies"], params["beta"]))
    else:
        raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# Stored seed-0 reference
# ---------------------------------------------------------------------------

def reference_view(kind: str, s: dict):
    """The part of a summary pinned by the stored reference (None: nothing).

    Only results a correct change keeps are pinned: integers of the plans,
    exact-arithmetic outputs of the executors and oracles.  ``failure_mass``
    and format details such as ``mode`` and the schema version are not.
    """
    if s["rc"] != 0:
        return None
    if kind == "plan":
        return {key: s["plan"][key] for key in PLAN_INTS if key in s["plan"]}
    if kind == "sweep":
        return [{key: row[key] for key in ("n", "ell", "m")} for row in s["rows"]]
    if kind == "exhaust":
        return {key: value for key, value in s["report"].items()
                if key not in ("schema_version", "units")}
    if kind == "simulate":
        r = s["report"]
        return {"plan": r["plan"], "classical": r["classical"],
                "quantum": {key: r["quantum"][key] for key in QUANTUM_KEYS}
                if "quantum" in r else None}
    if kind == "execute":
        return {"plan": {key: s["plan"][key] for key in PLAN_INTS if key in s["plan"]},
                "quantum": {key: s["quantum"][key] for key in QUANTUM_KEYS},
                "classical": {key: s["classical"][key]
                              for key in ("work_register_success", "routed_failure_mass")}}
    if kind == "oracle-grid":
        return s["m"]
    if kind == "coherent":
        return {key: s[key] for key in ("exact_trace_distance", "analytic_bound", "k_window",
                                        "sectors", "window_size")}
    if kind == "max-work":
        return {key: s[key] for key in ("extracted", "per_level_delta", "exact_search")}
    return None


def same(a, b) -> bool:
    """Equal, with floats compared to a relative REFERENCE_RTOL (and an
    absolute 1e-12 for results that are zero up to rounding)."""
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and not isinstance(a, bool) and not isinstance(b, bool)
                and abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b)) + 1e-12)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


# ---------------------------------------------------------------------------
# Whole run
# ---------------------------------------------------------------------------

@dataclass
class RunVerdict:
    attempted: int              # job runs, over all passes
    failed: int                 # job runs that failed, known defects excluded
    defective: int              # job runs that showed exactly a known defect's symptom
    unexpected: list            # (job, message) not explained by a known defect
    known: list                 # (job, message) explained by a known defect
    floats_checked: int
    inaccurate: list            # (job, label, value, reference)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    @property
    def success_rate(self) -> float:
        return (self.attempted - self.failed - self.defective) / self.attempted

    @property
    def accurate_share(self) -> float:
        if not self.floats_checked:
            return 1.0
        return (self.floats_checked - len(self.inaccurate)) / self.floats_checked


def verify(result: dict, reference: dict | None) -> RunVerdict:
    """Gate every pass of a worker result; ``reference`` applies at seed 0."""
    jobs = {job["name"]: job for job in result["jobs"]}
    out = RunVerdict(0, 0, 0, [], [], 0, [])
    first = result["passes"][0]["jobs"]
    for index, p in enumerate(result["passes"]):
        for name, run in p["jobs"].items():
            job = jobs[name]
            out.attempted += 1
            v = Verdict()
            if run["error"] is not None:
                v.failures.append((name, f"raised {run['error']}"))
            else:
                check_job(v, job, run["summary"])
                if first[name]["error"] is None and index > 0:
                    v.require(name, json.dumps(run["summary"], sort_keys=True)
                              == json.dumps(first[name]["summary"], sort_keys=True),
                              f"pass {index} output differs from pass 0")
                if reference is not None and index == 0:
                    want = reference.get(name)
                    got = reference_view(job["kind"], run["summary"])
                    v.require(name, want is None or same(got, want),
                              f"seed-0 output differs from the stored reference: "
                              f"got {got!r}, stored {want!r}")
            if v.failures:
                symptom, description = KNOWN_DEFECTS.get(name, (None, ""))
                if run["error"] is None and run["summary"] == symptom:
                    out.defective += 1
                    out.known.extend((job, f"{message} ({description})")
                                     for job, message in v.failures)
                else:
                    out.failed += 1
                    out.unexpected.extend(v.failures)
            out.floats_checked += len(v.floats)
            out.inaccurate.extend(f[:4] for f in v.floats if not f[4])
    return out

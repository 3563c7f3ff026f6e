import json
import math
from dataclasses import astuple

import pytest

from athermal.cli import (
    SWEEP_HEADER,
    dumps_report,
    main,
    plan_from_dict,
    plan_to_dict,
    read_string_distribution_csv,
    sweep_rows,
    write_string_distribution_csv,
)
from athermal.distill import plan_distillation
from athermal.form import plan_formation
from athermal.simulate import thermal_input_distribution

Q1 = math.exp(-1) / (1 + math.exp(-1))


class TestRateCommand:
    def test_pure_excited_rate_one(self, capsys):
        assert main(["rate", "--p", "1.0", "--beta", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "closed_form_rate 1.0" in out

    def test_routes_agree(self, capsys):
        assert main(["rate", "--p", "0.75", "--beta", "1.0"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        diff = float(lines[2].split()[1])
        assert diff < 1e-12

    def test_gibbs_input_rate_zero(self, capsys):
        assert main(["rate", "--p", repr(Q1), "--beta", "1.0"]) == 0
        out = capsys.readouterr().out
        assert float(out.split("\n")[0].split()[1]) == pytest.approx(0.0, abs=1e-12)

    def test_free_target_exit_code(self, capsys):
        assert main(["rate", "--p", "0.75", "--beta", "1.0",
                     "--sigma-p", repr(Q1)]) == 2

    def test_bits_column_optional(self, capsys):
        assert main(["rate", "--p", "0.75", "--beta", "1.0", "--bits"]) == 0
        out = capsys.readouterr().out
        nats = float([l for l in out.split("\n") if l.startswith("relative_entropy_nats")][0].split()[1])
        bits = float([l for l in out.split("\n") if l.startswith("relative_entropy_bits")][0].split()[1])
        assert bits == pytest.approx(nats / math.log(2), abs=1e-12)


class TestPlanSerialization:
    def test_distillation_round_trip(self):
        plan = plan_distillation(12, 0.9, 1.0, width=1.0)
        payload = dumps_report(plan_to_dict(plan))
        rebuilt = plan_from_dict(json.loads(payload))
        assert rebuilt == plan
        assert dumps_report(plan_to_dict(rebuilt)) == payload

    def test_formation_round_trip(self):
        plan = plan_formation(8, 0.8, 1.0, width=1.0)
        payload = dumps_report(plan_to_dict(plan))
        rebuilt = plan_from_dict(json.loads(payload))
        assert rebuilt == plan
        assert dumps_report(plan_to_dict(rebuilt)) == payload

    def test_schema_carries_units(self):
        doc = plan_to_dict(plan_distillation(6, 0.9, 1.0, width=1.0))
        assert doc["schema_version"] == 2
        assert doc["units"]["log_cardinalities"] == "nats"

    @pytest.mark.parametrize("plan", [
        plan_distillation(12, 0.9, 1.0, width=1.0), plan_formation(8, 0.8, 1.0, width=1.0),
        plan_formation(8, Q1, 1.0),
    ], ids=["distillation", "formation", "free-target"])
    def test_reads_schema_1(self, plan):
        # A version-1 document also lists every per-type record, and left
        # worst_type empty for free-target formation; both load as version 2.
        doc = json.loads(dumps_report(plan_to_dict(plan)))
        v1 = dict(doc, schema_version=1, records_complete=True,
                  per_type_maps=[list(astuple(r)) for r in plan.records()])
        if getattr(plan, "free_target", False):
            v1["worst_type"] = None
        assert "per_type_maps" not in doc and "records_complete" not in doc
        assert plan_from_dict(v1) == plan

    def test_plan_file_is_small(self, tmp_path):
        # O(windows): no per-type records, though the window has ~1e5 types.
        out = tmp_path / "plan.json"
        assert main(["distill", "--n", "1000", "--p", "0.75", "--output", str(out)]) == 0
        plan = plan_from_dict(json.loads(out.read_text()))
        assert plan.num_composite_types > 50_000
        assert out.stat().st_size < 4096

    def test_no_resource_round_trip(self):
        # Infinite epsilon (ell = 0) survives serialization.
        plan = plan_distillation(10, Q1, 1.0)
        assert plan.no_resource
        payload = dumps_report(plan_to_dict(plan))
        rebuilt = plan_from_dict(json.loads(payload))
        assert rebuilt == plan

    def test_free_target_formation_round_trip(self):
        plan = plan_formation(8, Q1, 1.0)
        assert plan.free_target
        payload = dumps_report(plan_to_dict(plan))
        rebuilt = plan_from_dict(json.loads(payload))
        assert rebuilt == plan


class TestSweepCommand:
    def test_header_exact(self):
        rows = sweep_rows(0.75, 1.0, [200], 1.5)
        assert rows[0] == SWEEP_HEADER == "n,ell,m,rate,deficit,failure_mass"

    def test_deficit_positive_and_decreasing(self):
        rows = sweep_rows(0.75, 1.0, [400, 1600], 1.5)
        deficits = [float(r.split(",")[4]) for r in rows[1:]]
        assert all(d > 0 for d in deficits)
        assert deficits[0] > deficits[1]

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (out1, out2):
            assert main(["sweep", "--p", "0.9", "--beta", "1.0",
                         "--n-grid", "50,100", "--width", "1.0",
                         "--output", str(path)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestSimulateCommand:
    def test_reproduces_reference_m(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        assert main(["simulate", "--n", "2", "--p", "1.0", "--beta", "1.0",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["plan"]["m"] == 2
        assert doc["quantum"]["commutator_nonzeros"] == 0
        assert doc["quantum"]["work_trace_distance"] <= doc["quantum"]["failure_mass"] + 1e-12


class TestExhaustCommand:
    def test_pinsker_columnwise(self, tmp_path):
        out = tmp_path / "exhaust.json"
        assert main(["exhaust", "--n", "4", "--p", "0.95", "--beta", "1.0",
                     "--width", "0.75", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        for measured, bound in zip(doc["measured_trace_distances"], doc["pinsker_bounds"]):
            assert measured <= bound + 1e-9


class TestFrameCommand:
    def test_reference_value(self, capsys):
        assert main(["frame", "--N", "100", "--delta", "1"]) == 0
        out = capsys.readouterr().out
        assert float(out.split()[1]) == pytest.approx(0.99, abs=1e-15)

    def test_empty_window_is_domain_error(self, capsys):
        assert main(["frame", "--N", "0", "--delta", "1"]) == 2
        assert capsys.readouterr().out == ""


class TestPlanCommands:
    def test_distill_summary_and_file(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        assert main(["distill", "--n", "20", "--p", "0.9", "--beta", "1.0",
                     "--width", "1.0", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "distillation"
        summary = capsys.readouterr().out
        assert "summary" in summary and f"m={doc['m']}" in summary
        # m/n stays below the asymptotic rate
        assert doc["achieved_rate"] <= doc["r_limit"] + 1e-12

    def test_form_writes_plan(self, tmp_path):
        out = tmp_path / "form.json"
        assert main(["form", "--n", "8", "--p", "0.8", "--beta", "1.0",
                     "--width", "1.0", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "formation"
        assert doc["m"] + doc["ell"] == doc["n"] + doc["k"]

    def test_identical_config_identical_bytes(self, tmp_path):
        paths = [tmp_path / "p1.json", tmp_path / "p2.json"]
        for path in paths:
            assert main(["distill", "--n", "15", "--p", "0.85", "--beta", "1.2",
                         "--width", "1.0", "--output", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestStringDistributionCSV:
    def test_round_trip(self, tmp_path):
        plan = plan_distillation(2, 0.9, 1.0, width=1.0)
        dist = thermal_input_distribution(plan)
        path = tmp_path / "dist.csv"
        write_string_distribution_csv(dist, str(path))
        back = read_string_distribution_csv(str(path))
        assert back.probs == dist.probs

    def test_header(self, tmp_path):
        plan = plan_distillation(2, 0.9, 1.0, width=1.0)
        path = tmp_path / "dist.csv"
        write_string_distribution_csv(thermal_input_distribution(plan), str(path))
        assert path.read_text().split("\n")[0] == "string,numerator,denominator"

import csv
import io
import json
import math
import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from athermal.cli import (
    SWEEP_HEADER,
    dumps_report,
    main,
    plan_from_dict,
    plan_to_dict,
    sweep_rows,
)
from athermal.distill import plan_distillation
from athermal.form import plan_formation
from athermal.simulate import ExhaustReport

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

    @pytest.mark.parametrize("sigma_p", ["1.5", "-0.1", "nan"])
    def test_sigma_p_outside_unit_interval(self, sigma_p, capsys):
        assert main(["rate", "--p", "0.5", "--sigma-p", sigma_p]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--sigma-p must lie in [0, 1]" in captured.err

    @pytest.mark.parametrize("flag", ["--width", "--output"])
    def test_planner_options_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rate", "--p", "0.75", flag, "1"])
        assert exc.value.code == 2 and flag in capsys.readouterr().err

    def test_bits_column_optional(self, capsys):
        assert main(["rate", "--p", "0.75", "--beta", "1.0", "--bits"]) == 0
        out = capsys.readouterr().out
        nats = float([l for l in out.split("\n") if l.startswith("relative_entropy_nats")][0].split()[1])
        bits = float([l for l in out.split("\n") if l.startswith("relative_entropy_bits")][0].split()[1])
        assert bits == pytest.approx(nats / math.log(2), abs=1e-12)


# `athermal form --n N --p 0.75 --beta B` documents as schema 5 first wrote them.
SCHEMA_5_FORMATION = json.loads(
    (Path(__file__).parent / "data" / "formation_schema5.json").read_text())


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
        assert doc["schema_version"] == 5
        assert doc["units"]["log_cardinalities"] == "nats"

    @pytest.mark.parametrize("kind", ["distillation", "formation", "free-target", "loggamma"])
    @pytest.mark.parametrize("version", [0, 1, 2, 3, 4, 6, 99, "x", "5", 5.0, True, None,
                                         "missing"])
    def test_unknown_schema_version_refused(self, kind, version):
        # Only the integer 5 names a schema this reader knows; anything else,
        # the earlier schemas 1 to 4 and a missing key included, is a domain
        # error naming the value.  "loggamma" is a plan whose cardinalities
        # are past the exact-count range schema 2 once switched at.
        plan = {"distillation": lambda: plan_distillation(6, 0.9, 1.0, width=1.0),
                "formation": lambda: plan_formation(8, 0.8, 1.0, width=1.0),
                "free-target": lambda: plan_formation(8, Q1, 1.0),
                "loggamma": lambda: plan_distillation(3000, 0.75, 1.0)}[kind]()
        doc = json.loads(dumps_report(plan_to_dict(plan)))
        if version == "missing":
            del doc["schema_version"]
            version = None
        else:
            doc["schema_version"] = version
        with pytest.raises(ValueError, match=re.escape(f"schema_version {version!r}")):
            plan_from_dict(doc)

    @pytest.mark.parametrize("field,value", [
        ("max_deviation", 0.5), ("within_tolerance", False), ("tolerance", 0.01), ("ell", 3)])
    def test_tampered_birkhoff_summary_refused(self, field, value):
        # A summary the derived partition does not reproduce is a domain
        # error (ValueError, exit code 2 on the command line).
        doc = json.loads(dumps_report(plan_to_dict(plan_formation(8, 0.8, 1.0, width=1.0))))
        doc["birkhoff"][field] = value
        with pytest.raises(ValueError, match="Birkhoff summary"):
            plan_from_dict(doc)

    @pytest.mark.parametrize("beta", [1.0, 3.0, 5.0, 5.5, 7.0, 10.0, 20.0, 35.0, 50.0])
    def test_formation_round_trip_across_beta(self, beta):
        q = math.exp(-beta) / (1 + math.exp(-beta))
        plans = [plan_formation(20, 0.75, beta), plan_formation(8, q, beta)]
        assert plans[1].free_target
        for plan in plans:
            assert plan.birkhoff.within_tolerance
            payload = dumps_report(plan_to_dict(plan))
            rebuilt = plan_from_dict(json.loads(payload))
            assert rebuilt == plan
            assert dumps_report(plan_to_dict(rebuilt)) == payload
        if beta == 5.0:
            # The Birkhoff bath is long enough here that C(ell_b, t), and so
            # span offsets, pass 2^63.
            assert max(s.start + s.count for spans in plans[0].birkhoff.sets
                       for s in spans) > 2 ** 63

    @pytest.mark.parametrize("command", sorted(SCHEMA_5_FORMATION))
    def test_reads_schema_5_documents(self, command):
        # Documents the first schema-5 writer produced, log-factorials from
        # scipy's gammaln.  They load, and today's writer reproduces every
        # field but the worst type's log cardinalities, which may move in
        # their last digits.
        doc = SCHEMA_5_FORMATION[command]
        fresh = plan_formation(doc["n"], doc["p"], doc["beta"])
        assert plan_from_dict(json.loads(json.dumps(doc))).birkhoff == fresh.birkhoff
        rewritten, stored = plan_to_dict(fresh), dict(doc)
        worst, stored_worst = rewritten.pop("worst_type"), stored.pop("worst_type")
        assert rewritten == stored and worst[:4] == stored_worst[:4]
        assert worst[4:] == pytest.approx(stored_worst[4:], rel=1e-14)

    def test_formation_plan_file_is_small(self, tmp_path):
        # O(windows): neither per-type records nor the Birkhoff partition,
        # though the target window has ~1,300 types.
        out = tmp_path / "form.json"
        assert main(["form", "--n", "50000", "--p", "0.75", "--output", str(out)]) == 0
        plan = plan_from_dict(json.loads(out.read_text()))
        assert len(plan.birkhoff.sets) > 1_000 and plan.birkhoff.within_tolerance
        assert out.stat().st_size < 4096

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

    @pytest.mark.parametrize("plan", [
        plan_distillation(6, 0.9, 1.0, 1.0), plan_formation(8, 0.8, 1.0, width=1.0),
    ], ids=["distillation", "formation"])
    def test_missing_key_is_domain_error(self, plan):
        # Each key deleted in turn: the kind, a plan field without a default
        # or a formation plan's target window (its Birkhoff partition is
        # derived from it) is a ValueError naming the key; any other key
        # leaves a document that loads or is refused by a ValueError.
        doc = json.loads(dumps_report(plan_to_dict(plan)))
        required = {"kind", "target_window"} & set(doc) | {
            f.name for f in fields(plan) if f.default is MISSING}
        assert {"worst_type", "n"} <= required
        for key in doc:
            try:
                plan_from_dict({k: v for k, v in doc.items() if k != key})
            except ValueError as err:
                assert key not in required or key in str(err), (key, err)
            else:
                assert key not in required, key

    @pytest.mark.parametrize("plan", [
        plan_distillation(6, 0.9, 1.0, 1.0), plan_formation(8, 0.8, 1.0, width=1.0),
    ], ids=["distillation", "formation"])
    def test_broken_summary_or_record_is_domain_error(self, plan):
        # A worst_type cut short, too long or not a list, a null Birkhoff
        # summary and each summary key deleted in turn: a ValueError naming
        # the record's field count, the summary or the key.
        doc = json.loads(dumps_report(plan_to_dict(plan)))
        broken = [({**doc, "worst_type": doc["worst_type"][:cut]}, "the 6 fields")
                  for cut in (0, 3, 5)] + [({**doc, "worst_type": bad}, "the 6 fields")
                                           for bad in (7, doc["worst_type"] + [1, 2])]
        if "birkhoff" in doc:
            summary = doc["birkhoff"]
            assert sorted(summary) == ["ell", "grouped", "max_deviation", "tolerance",
                                       "within_tolerance"]
            broken += [({**doc, "birkhoff": bad}, "Birkhoff summary .* is not an object")
                       for bad in (None, [], 1.0)]
            broken += [({**doc, "birkhoff": {k: v for k, v in summary.items() if k != key}},
                        f"Birkhoff summary without {key}") for key in summary]
        for bad, message in broken:
            with pytest.raises(ValueError, match=message):
                plan_from_dict(bad)


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

    def test_classical_cap_fails_before_quantum_work(self, monkeypatch, capsys):
        # A 21-qubit plan under the default --max-qubits: planning runs, then
        # the classical input's enumeration refuses it at its 20-qubit cap,
        # and no quantum execution runs.
        planned = []

        def plan(*args, **kwargs):
            planned.append(plan_distillation(*args, **kwargs))
            return planned[-1]

        def refuse(*args, **kwargs):
            raise AssertionError("quantum execution ran")
        monkeypatch.setattr("athermal.cli.plan_distillation", plan)
        monkeypatch.setattr("athermal.cli.execute_plan_quantum", refuse)
        assert main(["simulate", "--n", "7", "--p", "0.95", "--width", "0.75"]) == 2
        assert [p.ell + p.n for p in planned] == [21]
        assert "full enumeration capped at 20 qubits" in capsys.readouterr().err

    @pytest.mark.parametrize("max_qubits", ["21", "24"])
    def test_max_qubits_above_input_cap_refused(self, monkeypatch, capsys, max_qubits):
        # n = 2 fits every cap; the option alone is refused, before any planning.
        def refuse(*args, **kwargs):
            raise AssertionError("planning ran")
        monkeypatch.setattr("athermal.cli.plan_distillation", refuse)
        assert main(["simulate", "--n", "2", "--p", "1.0", "--max-qubits", max_qubits]) == 2
        err = capsys.readouterr().err
        assert f"--max-qubits {max_qubits}" in err and "capped at 20 qubits" in err

    def test_negative_max_qubits_refused(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("planning ran")
        monkeypatch.setattr("athermal.cli.plan_distillation", refuse)
        assert main(["simulate", "--n", "2", "--p", "1.0", "--max-qubits", "-1"]) == 2
        assert "--max-qubits must be nonnegative, got -1" in capsys.readouterr().err

    def test_zero_max_qubits_skips_quantum_run(self, capsys):
        # No plan fits zero qubits, so only the classical execution runs.
        assert main(["simulate", "--n", "2", "--p", "1.0", "--max-qubits", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "quantum" not in doc and "classical" in doc

    def test_max_qubits_at_input_cap_runs(self, capsys):
        assert main(["simulate", "--n", "2", "--p", "1.0", "--max-qubits", "20"]) == 0
        assert json.loads(capsys.readouterr().out)["quantum"]["commutator_nonzeros"] == 0


class TestExhaustCommand:
    def test_pinsker_columnwise(self, tmp_path):
        out = tmp_path / "exhaust.json"
        assert main(["exhaust", "--n", "4", "--p", "0.95", "--beta", "1.0",
                     "--width", "0.75", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        for measured, bound in zip(doc["measured_trace_distances"], doc["pinsker_bounds"]):
            assert measured <= bound + 1e-9

    @pytest.mark.parametrize("beta, expected", [("22", 40.231), ("35", 64.344)])
    def test_large_beta_exhaust_runs(self, capsys, beta, expected):
        # q < 5e-10: the executed bath must keep its excited strings.
        assert main(["exhaust", "--n", "3", "--p", "0.95", "--beta", beta,
                     "--width", "1.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_rel_entropy"] == pytest.approx(expected, abs=1e-3)

    def test_degenerate_gibbs_weight_is_domain_error(self, capsys):
        # From beta = 745.2 on the Gibbs weight underflows to 0, and the
        # exhaust has no Gibbs reference to compare with.
        assert main(["exhaust", "--n", "3", "--p", "0.9", "--beta", "800"]) == 2
        captured = capsys.readouterr()
        assert "Gibbs weight q = 0.0" in captured.err and captured.out == ""

    def test_subnormal_gibbs_weight_runs(self, capsys):
        # At beta = 745, q = 5e-324 is the smallest subnormal float.
        assert main(["exhaust", "--n", "3", "--p", "0.9", "--beta", "745"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["subadditivity_holds"] and math.isfinite(doc["total_rel_entropy"])

    @pytest.mark.parametrize("block_size", ["0", "-1"])
    def test_nonpositive_block_size_is_domain_error(self, tmp_path, capsys, block_size):
        out = tmp_path / "exhaust.json"
        assert main(["exhaust", "--n", "2", "--p", "1.0", "--beta", "1.0",
                     "--block-size", block_size, "--output", str(out)]) == 2
        assert "block size" in capsys.readouterr().err
        assert not out.exists()

    def test_report_is_every_field(self, tmp_path):
        out = tmp_path / "exhaust.json"
        assert main(["exhaust", "--n", "3", "--p", "0.95", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {f.name for f in fields(ExhaustReport)} | {"schema_version", "units"}


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

    @pytest.mark.parametrize("argv", [
        ["distill", "--n", "100", "--p", "0.04742587417856589", "--beta", "3"],
        ["sweep", "--n-grid", "10,100", "--p", "0.04742587417856589", "--beta", "3"],
        ["form", "--n", "100000", "--p", "0.27"]])
    def test_near_gibbs_commands_succeed(self, argv, tmp_path, capsys):
        assert main(argv + ["--output", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv,parse,summary", [
        (["distill", "--n", "20"], json.loads, "summary n=20 "),
        (["form", "--n", "20"], json.loads, "summary n=20 "),
        (["sweep", "--n-grid", "10,100"], lambda text: list(csv.reader(io.StringIO(text))),
         "sweep schema_version=5 rows=2 "),
    ], ids=["distill", "form", "sweep"])
    def test_stdout_holds_the_document_alone(self, argv, parse, summary, tmp_path, capsys):
        # Without --output the summary goes to stderr, so stdout parses and
        # equals the file --output writes, where the summary is on stdout.
        argv = argv + ["--p", "0.75"]
        assert main(argv) == 0
        piped = capsys.readouterr()
        assert main(argv + ["--output", str(tmp_path / "doc")]) == 0
        beside_file = capsys.readouterr()
        assert piped.out == (tmp_path / "doc").read_text()
        assert parse(piped.out)
        assert piped.err == beside_file.out and piped.err.startswith(summary)
        assert piped.err.count("\n") == 1 and beside_file.err == ""

    @pytest.mark.parametrize("width", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["distill", "--n", "20"], ["form", "--n", "20"], ["sweep", "--n-grid", "20"],
        ["simulate", "--n", "3"], ["exhaust", "--n", "3"]], ids=lambda argv: argv[0])
    def test_bad_width_is_domain_error(self, argv, width, capsys):
        assert main(argv + ["--p", "0.75", f"--width={width}"]) == 2
        captured = capsys.readouterr()
        assert "width" in captured.err and captured.out == ""

    def test_form_degenerate_gibbs_weight(self, capsys):
        # At beta = 800 the Gibbs weight underflows to 0: no finite bath.
        assert main(["form", "--n", "20", "--p", "0.75", "--beta", "800"]) == 2
        assert "Gibbs weight" in capsys.readouterr().err

    def test_identical_config_identical_bytes(self, tmp_path):
        paths = [tmp_path / "p1.json", tmp_path / "p2.json"]
        for path in paths:
            assert main(["distill", "--n", "15", "--p", "0.85", "--beta", "1.2",
                         "--width", "1.0", "--output", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

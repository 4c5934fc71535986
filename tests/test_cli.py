"""Tests for the command-line interface (driving main() directly)."""

import os

import pytest

from repro.cli import main
from repro.mof import Model
from repro.profiles import SA_SCHEDULABLE
from repro.xmi import write_xml


@pytest.fixture
def model_file(cruise_model, tmp_path):
    model = Model("urn:cruise", "cruise")
    model.add_root(cruise_model.model)
    path = tmp_path / "cruise.xmi"
    path.write_text(write_xml(model))
    return str(path)


@pytest.fixture
def scheduled_model_file(cruise_model, tmp_path):
    for name, period, wcet in (("SpeedSensor", 10.0, 2.0),
                               ("CruiseController", 20.0, 5.0),
                               ("ThrottleActuator", 20.0, 3.0)):
        SA_SCHEDULABLE.apply(cruise_model.model.member(name),
                             sa_period_ms=period, sa_wcet_ms=wcet)
    model = Model("urn:cruise", "cruise")
    model.add_root(cruise_model.model)
    path = tmp_path / "cruise_rt.xmi"
    path.write_text(write_xml(model))
    return str(path)


class TestCheckVerb:
    def test_clean_model(self, model_file, capsys):
        assert main(["check", model_file]) == 0
        out = capsys.readouterr().out
        assert "check: 0 error(s)" in out
        assert "structural" in out and "consistency" in out

    def test_family_subset(self, model_file, capsys):
        assert main(["check", model_file,
                     "--families", "structural,wellformed"]) == 0
        out = capsys.readouterr().out
        assert "[structural, wellformed]" in out

    def test_unknown_family(self, model_file, capsys):
        assert main(["check", model_file, "--families", "nope"]) == 2
        assert "unknown check families" in capsys.readouterr().err

    def test_defective_model(self, factory, tmp_path, capsys):
        factory.clazz("Dup")
        factory.clazz("Dup")
        model = Model("urn:bad")
        model.add_root(factory.model)
        path = tmp_path / "bad.xmi"
        path.write_text(write_xml(model))
        assert main(["check", str(path)]) == 1
        # exit code is the contract; message content covered elsewhere

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.xmi"]) == 2

    def test_removed_verb_and_options_rejected(self, model_file, capsys):
        for argv in (["validate", model_file],
                     ["check", model_file, "--workers", "2"],
                     ["report", model_file, "--workers", "2"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
        for verb in ("check", "report"):
            with pytest.raises(SystemExit):
                main([verb, "--help"])
            assert "--workers" not in capsys.readouterr().out


class TestLint:
    def test_clean_model(self, model_file, capsys):
        assert main(["lint", model_file]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_defective_model(self, factory, tmp_path, capsys):
        from repro.uml import StateMachine
        cls = factory.clazz("C")
        machine = StateMachine(name="sm")
        cls.owned_behaviors.append(machine)
        region = machine.main_region()
        initial = region.add_initial()
        alive = region.add_state("Alive")
        region.add_state("Limbo")
        region.add_transition(initial, alive)
        model = Model("urn:dead")
        model.add_root(factory.model)
        path = tmp_path / "dead.xmi"
        path.write_text(write_xml(model))
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "SM001" in out and "Limbo" in out

    def test_disable_turns_finding_off(self, factory, tmp_path):
        from repro.uml import StateMachine
        cls = factory.clazz("C")
        machine = StateMachine(name="sm")
        cls.owned_behaviors.append(machine)
        region = machine.main_region()
        initial = region.add_initial()
        alive = region.add_state("Alive")
        region.add_state("Limbo")
        region.add_transition(initial, alive)
        model = Model("urn:dead")
        model.add_root(factory.model)
        path = tmp_path / "dead.xmi"
        path.write_text(write_xml(model))
        assert main(["lint", str(path), "--disable", "SM001"]) == 0

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("SM001", "ACT001", "TR001", "OCL101", "UML100"):
            assert code in out

    def test_missing_file(self, capsys):
        assert main(["lint", "/nonexistent.xmi"]) == 2

    def test_no_model_argument(self, capsys):
        assert main(["lint"]) == 2

    def test_exit_codes_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "--help"])
        out = capsys.readouterr().out
        assert "exit codes" in out and "usage/load error" in out


class TestMetrics:
    def test_summary(self, model_file, capsys):
        assert main(["metrics", model_file]) == 0
        assert "coupling_density" in capsys.readouterr().out

    def test_per_class(self, model_file, capsys):
        assert main(["metrics", model_file, "--per-class"]) == 0
        out = capsys.readouterr().out
        assert "CruiseController" in out and "CBO" in out


class TestPurity:
    def test_clean(self, model_file, capsys):
        assert main(["purity", model_file, "--platform", "posix"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_polluted(self, factory, tmp_path, capsys):
        factory.clazz("Worker_thread")
        model = Model("urn:dirty")
        model.add_root(factory.model)
        path = tmp_path / "dirty.xmi"
        path.write_text(write_xml(model))
        assert main(["purity", str(path)]) == 1
        assert "pollution" in capsys.readouterr().out


class TestTransformGenerate:
    def test_transform_then_generate(self, model_file, tmp_path, capsys):
        psm_path = str(tmp_path / "psm.xmi")
        assert main(["transform", model_file, "--platform", "posix",
                     "-o", psm_path]) == 0
        assert os.path.exists(psm_path)
        out_dir = str(tmp_path / "gen")
        assert main(["generate", psm_path, "--lang", "c",
                     "-o", out_dir]) == 0
        out = capsys.readouterr().out
        assert "lines of c" in out
        generated = os.listdir(out_dir)
        assert any(name.endswith(".c") for name in generated)
        text = open(os.path.join(out_dir, generated[0])).read()
        assert "CruiseController" in text

    def test_generate_java(self, model_file, tmp_path):
        psm_path = str(tmp_path / "psm.json")       # json output too
        assert main(["transform", model_file, "--platform", "baremetal",
                     "-o", psm_path]) == 0
        out_dir = str(tmp_path / "gen")
        assert main(["generate", psm_path, "--lang", "java",
                     "-o", out_dir]) == 0
        assert any(name.endswith(".java") for name in os.listdir(out_dir))


class TestSchedule:
    def test_schedulable(self, scheduled_model_file, capsys):
        assert main(["schedule", scheduled_model_file]) == 0
        assert "SCHEDULABLE" in capsys.readouterr().out

    def test_no_annotations(self, model_file, capsys):
        assert main(["schedule", model_file]) == 2


class TestDiffConvert:
    def test_diff_identical(self, model_file, tmp_path, capsys):
        copy_path = str(tmp_path / "copy.xmi")
        assert main(["convert", model_file, "-o", copy_path]) == 0
        assert main(["diff", model_file, copy_path]) == 0
        assert "+0 -0 ~0" in capsys.readouterr().out

    def test_diff_changed(self, model_file, tmp_path, capsys):
        changed = open(model_file).read().replace(
            'name="SpeedSensor"', 'name="WheelSensor"')
        changed_path = tmp_path / "changed.xmi"
        changed_path.write_text(changed)
        assert main(["diff", model_file, str(changed_path)]) == 1
        out = capsys.readouterr().out
        assert "WheelSensor" in out or "SpeedSensor" in out

    def test_convert_roundtrip(self, model_file, tmp_path):
        json_path = str(tmp_path / "m.json")
        back_path = str(tmp_path / "back.xmi")
        assert main(["convert", model_file, "-o", json_path]) == 0
        assert main(["convert", json_path, "-o", back_path]) == 0
        assert main(["diff", model_file, back_path]) == 0


class TestReportFootprint:
    def test_report_command(self, model_file, capsys):
        code = main(["report", model_file, "--platform", "posix"])
        out = capsys.readouterr().out
        assert "model quality report" in out
        assert "domain purity" in out
        assert code in (0, 1)

    def test_footprint_command(self, model_file, tmp_path, capsys):
        psm_path = str(tmp_path / "psm.xmi")
        assert main(["transform", model_file, "--platform", "baremetal",
                     "-o", psm_path]) == 0
        assert main(["footprint", psm_path,
                     "--platform", "baremetal"]) == 0
        out = capsys.readouterr().out
        assert "footprint:" in out and "FITS" in out
        assert "CruiseController" in out


class TestDiagram:
    def test_class_diagram(self, model_file, capsys):
        assert main(["diagram", model_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph") and "CruiseController" in out

    def test_statemachine_diagram(self, model_file, capsys):
        assert main(["diagram", model_file, "--kind", "statemachine",
                     "--name", "CruiseSM"]) == 0
        out = capsys.readouterr().out
        assert "engage" in out

    def test_unknown_machine_name(self, model_file):
        assert main(["diagram", model_file, "--kind", "statemachine",
                     "--name", "Nope"]) == 1


class TestTestgen:
    def test_generates_for_all_machines(self, model_file, capsys):
        assert main(["testgen", model_file]) == 0
        out = capsys.readouterr().out
        assert "CruiseController" in out and "100%" in out

    def test_class_filter(self, model_file, capsys):
        assert main(["testgen", model_file,
                     "--class", "ThrottleActuator"]) == 0
        out = capsys.readouterr().out
        assert "ThrottleActuator" in out
        assert "CruiseController" not in out

    def test_no_match(self, model_file):
        assert main(["testgen", model_file, "--class", "Nope"]) == 1


class TestSharedDiagnosticContract:
    def test_check_json_format(self, model_file, capsys):
        import json
        assert main(["check", model_file, "--format", "json",
                     "--families",
                     "structural,invariant,wellformed"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert set(doc["families"]) == {"structural", "invariant",
                                        "wellformed"}

    def test_lint_json_format(self, model_file, capsys):
        import json
        assert main(["lint", model_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["errors"] == 0 and list(doc["families"]) == ["lint"]

    def test_severity_floor_filters_warnings(self, factory, tmp_path,
                                             capsys):
        import json
        from repro.uml import Clazz
        factory.model.add(Clazz())          # unnamed -> uml-name warning
        path = tmp_path / "warny.xmi"
        model = Model("urn:w", "w")
        model.add_root(factory.model)
        path.write_text(write_xml(model))
        assert main(["check", str(path), "--format", "json"]) == 0
        with_warnings = json.loads(capsys.readouterr().out)
        assert with_warnings["warnings"] > 0
        assert main(["check", str(path), "--format", "json",
                     "--severity", "error"]) == 0
        errors_only = json.loads(capsys.readouterr().out)
        assert errors_only["warnings"] == 0

    def test_watch_json_format(self, model_file, capsys):
        import json
        assert main(["watch", model_file, "--once",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True and "families" in doc

    def test_report_json_format(self, model_file, capsys):
        import json
        code = main(["report", model_file, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code in (0, 1)
        assert doc["passed"] in (True, False)
        titles = [section["title"] for section in doc["sections"]]
        assert "structural validity" in titles
        assert "domain purity" in titles

    def test_trace_writes_jsonl(self, model_file, tmp_path, capsys):
        import json
        trace_path = tmp_path / "trace.jsonl"
        assert main(["check", model_file,
                     "--trace", str(trace_path)]) == 0
        records = [json.loads(line) for line in
                   trace_path.read_text().splitlines()]
        names = {record["name"] for record in records}
        assert "cli.check" in names and "xmi.read" in names
        assert any(record["parent"] is None for record in records)
        from repro.obs import is_enabled
        assert not is_enabled()             # main() tore tracing down


class TestProfile:
    def test_profile_prints_span_tree_and_table(self, model_file, capsys):
        assert main(["profile", model_file]) == 0
        out = capsys.readouterr().out
        assert "cli.profile" in out
        assert "session.check" in out       # validate stage
        assert "transform.run" in out       # transform stage
        assert "codegen.lower" in out       # generate stage
        assert "self ms" in out and "span(s) recorded" in out

    def test_profile_pipeline_subset(self, model_file, capsys):
        assert main(["profile", model_file, "--pipeline", "lint"]) == 0
        out = capsys.readouterr().out
        assert "session.check.lint" in out
        assert "transform.run" not in out

    def test_profile_unknown_stage(self, model_file, capsys):
        assert main(["profile", model_file, "--pipeline", "nope"]) == 2
        assert "unknown pipeline stage" in capsys.readouterr().err

    def test_profile_leaves_tracing_off(self, model_file, capsys):
        from repro.obs import is_enabled
        assert main(["profile", model_file]) == 0
        assert not is_enabled()


class TestStats:
    def test_stats_prometheus(self, model_file, capsys):
        from repro.obs import REGISTRY
        REGISTRY.reset()
        assert main(["stats", model_file]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_mof_reads_total counter" in out
        assert "repro_session_checks_total" in out
        REGISTRY.reset()

    def test_stats_json(self, model_file, capsys):
        import json
        from repro.obs import REGISTRY
        REGISTRY.reset()
        assert main(["stats", model_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # the Session.stats() document: metrics + OCL cache + model block
        assert "mof.reads" in doc["metrics"]
        assert "ocl_cache" in doc
        assert doc["model"]["roots"] == 1
        REGISTRY.reset()

    def test_stats_without_model_prints_current_registry(self, capsys):
        from repro.obs import REGISTRY
        REGISTRY.reset()
        REGISTRY.counter("adhoc.counter", help="x").inc(3)
        assert main(["stats"]) == 0
        assert "repro_adhoc_counter_total 3" in capsys.readouterr().out
        REGISTRY.reset()

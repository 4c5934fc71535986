"""Unit tests for the :mod:`repro.generate` subsystem.

Covers the clean import under ``-W error::DeprecationWarning``, the
narrowed mutation-error policy (a planted kernel bug must surface
through the fuzzer), the
``violate_lower_bounds`` flag, the repair engine's per-diagnostic
strategies, coverage target enumeration, and the dual-mode
``python -m repro generate`` CLI verb.
"""

from __future__ import annotations

import importlib
import json
import sys

import pytest

from repro.generate import (
    PACKAGES,
    CoverageMap,
    DirectedGenerator,
    EditFuzzer,
    GenerationResult,
    ModelGenerator,
    RepairEngine,
    demo_generator,
    demo_package,
    generate_model,
    make_generator,
    uml_generator,
)
from repro.mof import (
    Element,
    M_1N,
    MInteger,
    MString,
    MultiplicityError,
    add_attribute,
    add_reference,
    define_class,
    define_package,
)
from repro.mof.repository import Model
from repro.session import Session


# ---------------------------------------------------------------------------
# warning hygiene
# ---------------------------------------------------------------------------

def test_repro_generate_imports_cleanly_under_warning_hygiene():
    # importing repro.generate must not trip -W error::DeprecationWarning
    # (the flag CI runs the tier-1 suite with)
    import os
    import subprocess
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning",
         "-c", "import repro.generate"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# narrowed _MUTATION_ERRORS: planted kernel bugs surface
# ---------------------------------------------------------------------------

def test_fuzzer_surfaces_planted_value_error(monkeypatch):
    from repro.generate.random import _MUTATION_ERRORS
    assert ValueError not in _MUTATION_ERRORS

    generator = demo_generator(seed=5)
    root = generator.generate(30)
    fuzzer = EditFuzzer(root, seed=5, generator=generator)

    def broken_eset(self, name, value):
        raise ValueError("planted kernel bug")

    monkeypatch.setattr(Element, "eset", broken_eset)
    with pytest.raises(ValueError, match="planted kernel bug"):
        for _ in range(200):
            fuzzer.random_edit()


def test_fuzzer_still_absorbs_typed_kernel_rejections(monkeypatch):
    generator = demo_generator(seed=6)
    root = generator.generate(30)
    fuzzer = EditFuzzer(root, seed=6, generator=generator)

    def rejecting_eset(self, name, value):
        raise MultiplicityError("kernel says no")

    monkeypatch.setattr(Element, "eset", rejecting_eset)
    # typed rejections are part of the mutation contract: the op
    # reports "not applicable" instead of raising
    for _ in range(40):
        fuzzer._op_set_attr()


# ---------------------------------------------------------------------------
# violate_lower_bounds
# ---------------------------------------------------------------------------

def _lower_bound_package():
    pkg = define_package("lbtest", "urn:test:lbtest")
    team = define_class(pkg, "Team")
    member = define_class(pkg, "Member")
    add_attribute(member, "name", MString)
    add_reference(team, "members", member, containment=True,
                  multiplicity=M_1N)
    add_attribute(team, "label", MString, multiplicity=M_1N)
    return pkg


def _unsatisfied(root):
    from repro.mof.validate import validate_tree
    return [d for d in validate_tree(root).diagnostics
            if d.code == "multiplicity"]


def test_violate_lower_bounds_default_leaves_bounds_to_chance():
    pkg = _lower_bound_package()
    generator = ModelGenerator(pkg, seed=0, root_class="Team")
    assert generator.violate_lower_bounds is True
    root = generator.instantiate(generator.root_class)
    # a bare Team violates both 1..* bounds and the default profile
    # leaves it that way (fuzzer profiles need unsatisfied models)
    assert _unsatisfied(root)


def test_violate_lower_bounds_off_fills_every_bound():
    pkg = _lower_bound_package()
    generator = ModelGenerator(pkg, seed=0, root_class="Team",
                               violate_lower_bounds=False)
    root = generator.generate(6)
    assert not _unsatisfied(root)
    for team in [root] + [e for e in root.all_contents()
                          if e.meta.name == "Team"]:
        assert len(team.eget("members")) >= 1
        assert len(team.eget("label")) >= 1


def test_corpus_entry_points_default_to_satisfying_bounds():
    assert make_generator("demo").violate_lower_bounds is False
    assert demo_generator().violate_lower_bounds is True
    assert uml_generator().violate_lower_bounds is True


# ---------------------------------------------------------------------------
# the repair engine
# ---------------------------------------------------------------------------

def _planted_demo_model():
    """A small demo model with one violation per repair strategy."""
    pkg = demo_package()
    lib = pkg.classifier("GLibrary").instantiate()
    shelf = pkg.classifier("GShelf").instantiate()
    lib.eget("shelves").append(shelf)
    shelf.eset("capacity", 1)
    books = []
    for index in range(4):
        book = pkg.classifier("GBook").instantiate()
        book.eset("name", f"b{index}")
        book.eset("pages", 10)
        shelf.eget("books").append(book)
        books.append(book)
    books[0].eset("pages", -3)              # violates positive-pages
    books[1].eset("sequel", books[1])       # violates sequel-not-self
    author = pkg.classifier("GAuthor").instantiate()
    lib.eget("staff").append(author)        # violates staff-named
    model = Model("urn:test:planted")
    model.add_root(lib)
    return model, lib, shelf, books


def test_repair_reaches_zero_errors_on_planted_violations():
    model, lib, shelf, books = _planted_demo_model()
    session = Session(model)
    assert session.check().errors
    engine = RepairEngine(session, generator=demo_generator(0), seed=0)
    report = engine.repair()
    assert report.converged, report.render()
    assert not session.check().errors
    assert report.initial_errors >= 3
    actions = {edit.action for edit in report.edits}
    assert "retype" in actions


def test_repair_informed_retype_prefers_raising_capacity_over_pruning():
    model, lib, shelf, books = _planted_demo_model()
    engine = RepairEngine(model, generator=demo_generator(0), seed=0)
    report = engine.repair()
    assert report.converged
    # the over-capacity shelf keeps its books; capacity grows to fit
    assert len(shelf.eget("books")) == 4
    assert shelf.eget("capacity") >= 4


def test_repair_report_json_shape():
    model, *_ = _planted_demo_model()
    report = RepairEngine(model, generator=demo_generator(0)).repair()
    doc = report.to_json()
    assert doc["converged"] is True
    assert doc["remaining_errors"] == 0
    assert doc["edits"] and all(
        set(e) == {"action", "code", "path", "detail"}
        for e in doc["edits"])
    assert "converged" in report.render()


def test_repair_is_deterministic_for_a_seed():
    def run():
        model, *_ = _planted_demo_model()
        engine = RepairEngine(model, generator=demo_generator(0), seed=3)
        report = engine.repair()
        return [(e.action, e.code, e.detail) for e in report.edits]
    assert run() == run()


# ---------------------------------------------------------------------------
# coverage instrumentation
# ---------------------------------------------------------------------------

def test_coverage_targets_enumerate_the_demo_universe():
    coverage = CoverageMap(demo_generator(0))
    assert sorted(coverage.metaclass_targets.values()) == [
        "GAuthor", "GBook", "GLibrary", "GShelf"]
    assert sorted(coverage.end_targets.values()) == [
        "GBook.authors", "GBook.sequel", "GLibrary.featured",
        "GLibrary.shelves", "GLibrary.staff", "GShelf.books"]
    # one short-circuit decision (sequel-not-self's `or`), two outcomes
    assert sorted(coverage.branch_targets) == [
        "GBook::sequel-not-self#0:false", "GBook::sequel-not-self#0:true"]


def test_coverage_measure_scores_a_finished_model():
    generator = demo_generator(1)
    root = generator.generate(120)
    coverage = CoverageMap(generator).measure(root)
    report = coverage.report()
    assert report.metaclasses[0] == report.metaclasses[1]
    assert 0 < report.end_fraction <= 1.0
    doc = report.to_json()
    assert doc["metaclasses"]["total"] == 4
    assert "coverage:" in report.render()


def test_directed_generator_records_live_and_completes_faster():
    directed = make_generator("demo", seed=2, directed=True)
    assert isinstance(directed, DirectedGenerator)
    directed.generate(40)
    assert directed.coverage.structural_complete, \
        directed.coverage.report().to_json()


# ---------------------------------------------------------------------------
# generate_model / Session.generate
# ---------------------------------------------------------------------------

def test_generate_model_repairs_to_zero_errors():
    result = generate_model("demo", size=200, seed=0, repair=True)
    assert isinstance(result, GenerationResult)
    assert result.repair is not None and result.repair.converged
    assert not result.session().check().errors
    assert result.n_elements >= 150
    # stable ids: containment-order reseating
    assert result.root.eid == "g0"


def test_generate_model_rejects_unknown_package():
    with pytest.raises(ValueError, match="unknown generation package"):
        generate_model("nope", size=10)
    assert PACKAGES == ("demo", "uml")


def test_session_generate_classmethod():
    session = Session.generate("demo", size=150, seed=4)
    assert isinstance(session, Session)
    assert session.generation is not None
    assert session.generation.repair.converged
    assert not session.check().errors


# ---------------------------------------------------------------------------
# the CLI verb (both modes)
# ---------------------------------------------------------------------------

def _run_cli(argv, capsys):
    from repro.cli import main
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_generate_corpus_to_file(tmp_path, capsys):
    out = tmp_path / "corpus.xmi"
    cov = tmp_path / "coverage.json"
    code, stdout, _ = _run_cli(
        ["generate", "--size", "200", "--seed", "0", "--repair",
         "--coverage-report", str(cov), "-o", str(out)], capsys)
    assert code == 0
    assert "converged" in stdout and str(out) in stdout
    assert out.exists()
    doc = json.loads(cov.read_text())
    assert doc["metaclasses"]["total"] == 4
    # the emitted file loads back through the stock CLI loader
    from repro.cli import load_model
    model = load_model(str(out))
    assert not Session(model).check().errors


def test_cli_generate_corpus_to_stdout_keeps_summary_on_stderr(capsys):
    code, stdout, stderr = _run_cli(
        ["generate", "--size", "60", "--seed", "1"], capsys)
    assert code == 0
    assert stdout.startswith("<xmi ")
    assert "generated" in stderr and "coverage:" in stderr


def test_cli_generate_json_format(tmp_path, capsys):
    out = tmp_path / "corpus.json"
    code, *_ = _run_cli(
        ["generate", "--size", "60", "--seed", "1", "-o", str(out)],
        capsys)
    assert code == 0
    from repro.cli import load_model
    assert load_model(str(out)).roots


def test_cli_generate_mode_collisions_are_usage_errors(tmp_path, capsys):
    code, _, err = _run_cli(
        ["generate", "--size", "10", "model.xmi"], capsys)
    assert code == 2 and "drop the MODEL" in err
    code, _, err = _run_cli(
        ["generate", "--size", "10", "--lang", "c"], capsys)
    assert code == 2 and "--lang" in err
    code, _, err = _run_cli(["generate", "model.xmi"], capsys)
    assert code == 2 and "--size N" in err


def test_cli_generated_uml_corpus_feeds_the_toolchain(tmp_path, capsys):
    # a generated UML corpus loads back through the stock loader and
    # the checking verbs run over it (PSM->code itself is covered by
    # test_cli.py::test_transform_then_generate against a curated PIM)
    from repro.cli import main
    corpus = tmp_path / "pim.xmi"
    assert main(["generate", "--size", "60", "--seed", "2",
                 "--package", "uml", "--repair", "-o", str(corpus)]) == 0
    assert main(["check", str(corpus),
                 "--families", "structural,invariant,wellformed"]) == 0
    assert main(["metrics", str(corpus)]) == 0
    capsys.readouterr()

"""The cross-diagram consistency family (``XD001``–``XD007``).

Four layers of coverage:

* **seeded-defect corpora** — for every rule, a model population with a
  known set of planted inconsistencies; the rule must find each planted
  defect (recall = 1.0) and nothing else (precision = 1.0);
* **reachable-trigger analysis** — one analysis per machine per lint
  pass, and answers that follow edits and the inverse ops a transaction
  rollback replays;
* **incremental parity** — a consistency-enabled
  :class:`~repro.incremental.IncrementalEngine` stays multiset-equal to
  the batch checkers over hundreds of fuzzed edits on models that
  include interactions;
* **plumbing** — dual-endpoint diagnostics in text/JSON renderings, the
  ``Session`` family, and the ``--families`` CLI flag.
"""

from __future__ import annotations

import json

import pytest

from repro.generate import (
    EditFuzzer,
    ModelGenerator,
    UML_SAFE_CLASSES,
)
from repro.mof import add_attribute, define_class, define_package
from repro.analysis import (
    LintConfig,
    ModelLinter,
    compute_reachability,
    reachable_triggers,
)
from repro.analysis import rules_consistency
from repro.incremental import IncrementalEngine, report_signature
from repro.mof import MInteger, transaction
from repro.mof.validate import Severity, ValidationReport, validate_tree
from repro.ocl.invariants import Invariant
from repro.session import DEFAULT_FAMILIES, Session
from repro.uml.factory import ModelFactory
from repro.uml.interactions import Interaction
from repro.uml.statemachines import StateMachine
from repro.uml.wellformed import run_wellformed_rules


def consistency_lint(root):
    return ModelLinter(families=("consistency",)).lint(root)


def codes(report, code):
    return [d for d in report.diagnostics if d.code == code]


# ---------------------------------------------------------------------------
# Corpus builders
# ---------------------------------------------------------------------------


def bank_model(*, defects=()):
    """A small bank PIM: classes, a state machine, one interaction.

    *defects* selects planted inconsistencies by name; with none, the
    model is consistency-clean.
    """
    f = ModelFactory("bank")
    account = f.clazz("Account", attrs={"balance": "Integer"})
    f.operation(account, "deposit", params={"amount": "Integer"})
    f.operation(account, "audit")
    teller = f.clazz("Teller")
    f.associate(teller, account, name="serves", end_b="account")

    machine = StateMachine(name="AccountLife")
    account.owned_behaviors.append(machine)
    region = machine.add_region("main")
    initial = region.add_initial()
    idle = region.add_state("Idle")
    active = region.add_state("Active")
    region.add_transition(initial, idle)
    region.add_transition(idle, active, trigger="open")
    region.add_transition(active, idle, trigger="close",
                          effect="balance := 0")

    scenario = Interaction(name="scenario")
    f.model.add(scenario)
    lt = scenario.add_lifeline("t", teller)
    la = scenario.add_lifeline("a", account)
    scenario.add_message(lt, la, "open")
    scenario.add_message(lt, la, "deposit", arguments=["10"])

    if "unresolved" in defects:
        scenario.add_message(lt, la, "frobnicate")
    if "arity" in defects:
        scenario.add_message(lt, la, "deposit", arguments=["1", "2"])
    if "argtype" in defects:
        scenario.add_message(lt, la, "deposit", arguments=["'cash'"])
    if "unreachable" in defects:
        orphan = region.add_state("Orphan")
        region.add_transition(orphan, idle, trigger="expire")
        scenario.add_message(lt, la, "expire")
    if "effect" in defects:
        region.add_transition(active, active, trigger="poke",
                              effect="self.frob()")
    if "no-association" in defects:
        auditor = f.clazz("Auditor")
        lx = scenario.add_lifeline("x", auditor)
        scenario.add_message(lx, la, "audit")
    return f, scenario


# ---------------------------------------------------------------------------
# Seeded-defect precision/recall, one test per rule
# ---------------------------------------------------------------------------


def assert_exact(report, code, expected_count):
    """precision = recall = 1.0 for *code*: exactly the planted findings,
    and no findings of any other error code."""
    found = codes(report, code)
    assert len(found) == expected_count, \
        f"{code}: expected {expected_count} finding(s), got " \
        f"{[d.render() for d in report.diagnostics]}"
    strays = [d for d in report.diagnostics
              if d.code != code and d.severity is Severity.ERROR]
    assert not strays, f"false positives: {[d.render() for d in strays]}"


def test_clean_model_has_no_findings():
    f, _ = bank_model()
    report = consistency_lint(f.model)
    assert not report.diagnostics, \
        [d.render() for d in report.diagnostics]


def test_xd001_unresolved_message():
    f, _ = bank_model(defects=("unresolved",))
    report = consistency_lint(f.model)
    assert_exact(report, "XD001", 1)
    finding = codes(report, "XD001")[0]
    assert "frobnicate" in finding.message
    assert finding.related is not None           # names the classifier too


def test_xd002_arity_mismatch():
    f, _ = bank_model(defects=("arity",))
    report = consistency_lint(f.model)
    assert_exact(report, "XD002", 1)
    assert "2 argument(s)" in codes(report, "XD002")[0].message


def test_xd002_literal_type_mismatch():
    f, _ = bank_model(defects=("argtype",))
    report = consistency_lint(f.model)
    assert_exact(report, "XD002", 1)
    assert "String literal" in codes(report, "XD002")[0].message


def test_xd003_unreachable_trigger():
    f, _ = bank_model(defects=("unreachable",))
    report = consistency_lint(f.model)
    assert_exact(report, "XD003", 1)
    finding = codes(report, "XD003")[0]
    assert "expire" in finding.message
    assert isinstance(finding.related, StateMachine)


def test_xd003_not_raised_once_state_is_connected():
    f, _ = bank_model(defects=("unreachable",))
    machine = next(e for e in f.model.all_contents()
                   if isinstance(e, StateMachine))
    region = machine.regions[0]
    idle = next(v for v in region.subvertices if v.name == "Idle")
    orphan = next(v for v in region.subvertices if v.name == "Orphan")
    region.add_transition(idle, orphan, trigger="suspend")
    report = consistency_lint(f.model)
    assert not codes(report, "XD003")


def test_xd004_unknown_features_in_actions():
    f, _ = bank_model(defects=("effect",))
    report = consistency_lint(f.model)
    assert_exact(report, "XD004", 1)
    assert "frob" in codes(report, "XD004")[0].message


def test_xd004_assignment_to_undeclared_attribute_is_warning():
    f, _ = bank_model()
    machine = next(e for e in f.model.all_contents()
                   if isinstance(e, StateMachine))
    region = machine.regions[0]
    idle = next(v for v in region.subvertices if v.name == "Idle")
    idle.entry = "ghost := 1"
    report = consistency_lint(f.model)
    found = codes(report, "XD004")
    assert len(found) == 1
    assert found[0].severity is Severity.WARNING


def test_xd004_send_over_known_link_is_clean():
    f = ModelFactory("ring")
    cell = f.clazz("Cell")
    f.associate(cell, cell, name="succ", end_b="next", end_a="prev")
    machine = StateMachine(name="Hop")
    cell.owned_behaviors.append(machine)
    region = machine.add_region("main")
    initial = region.add_initial()
    run = region.add_state("Run")
    region.add_transition(initial, run)
    region.add_transition(run, run, trigger="token",
                          effect="send next.token()")
    report = consistency_lint(f.model)
    assert not codes(report, "XD004")


def test_xd005_unsatisfiable_multiplicities():
    f = ModelFactory("loops")
    cell = f.clazz("Cell")
    # every cell has exactly 2 successors but exactly 1 predecessor over
    # the same association: 2n <= links <= n forces n = 0
    f.associate(cell, cell, name="succ", end_b="next", end_a="prev",
                b_lower=2, b_upper=2, a_lower=1, a_upper=1)
    report = consistency_lint(f.model)
    assert_exact(report, "XD005", 1)
    assert "Cell" in codes(report, "XD005")[0].message


def test_xd005_satisfiable_chain_is_clean():
    f = ModelFactory("ok")
    a = f.clazz("A")
    b = f.clazz("B")
    # each A has exactly 3 B's, each B belongs to exactly 2 A's:
    # feasible at n_A = 2k, n_B = 3k
    f.associate(a, b, name="uses", b_lower=3, b_upper=3,
                a_lower=2, a_upper=2)
    report = consistency_lint(f.model)
    assert not codes(report, "XD005")


def test_xd005_two_association_squeeze():
    f = ModelFactory("squeeze")
    a = f.clazz("A")
    b = f.clazz("B")
    # 3 n_A <= L1 <= 2 n_B and 3 n_B <= L2 <= 2 n_A combine into
    # 9 n_A <= 4 n_A: infeasible for n_A >= 1 (and symmetrically n_B)
    f.associate(a, b, name="r1", b_lower=3, b_upper=-1,
                a_lower=0, a_upper=2)
    f.associate(b, a, name="r2", b_lower=3, b_upper=-1,
                a_lower=0, a_upper=2)
    report = consistency_lint(f.model)
    assert len(codes(report, "XD005")) == 2     # both classes uninstantiable


def test_xd006_unsatisfiable_invariant():
    pkg = define_package("xd6corpus", "urn:test:xd6corpus")
    gauge = define_class(pkg, "XGauge")
    add_attribute(gauge, "v", MInteger, 0)
    Invariant(gauge, "impossible", "self.v > 10 and self.v < 5").register()
    Invariant(gauge, "fine", "self.v >= 0").register()
    instance = gauge.instantiate(v=3)
    report = consistency_lint(instance)
    assert_exact(report, "XD006", 1)
    assert "impossible" in codes(report, "XD006")[0].message


def test_xd007_message_without_association():
    f, _ = bank_model(defects=("no-association",))
    report = consistency_lint(f.model)
    found = codes(report, "XD007")
    assert len(found) == 1
    assert found[0].severity is Severity.WARNING
    assert "Auditor" in found[0].message


def test_xd007_association_through_superclass_counts():
    f = ModelFactory("inherit")
    party = f.clazz("Party")
    person = f.clazz("Person", supers=[party])
    registry = f.clazz("Registry")
    f.associate(registry, party, name="tracks")
    f.operation(person, "notify")
    scenario = Interaction(name="s")
    f.model.add(scenario)
    lr = scenario.add_lifeline("r", registry)
    lp = scenario.add_lifeline("p", person)
    scenario.add_message(lr, lp, "notify")
    report = consistency_lint(f.model)
    assert not codes(report, "XD007")


def test_population_precision_and_recall():
    """Across the whole defect population at once: every planted defect
    found, nothing else flagged as an error."""
    planted = {"XD001": 1, "XD002": 2, "XD003": 1, "XD004": 1}
    f, _ = bank_model(defects=("unresolved", "arity", "argtype",
                               "unreachable", "effect"))
    report = consistency_lint(f.model)
    flagged = [d for d in report.diagnostics
               if d.severity is Severity.ERROR]
    true_positives = sum(
        min(len(codes(report, code)), wanted)
        for code, wanted in planted.items())
    recall = true_positives / sum(planted.values())
    precision = true_positives / max(len(flagged), 1)
    assert recall == 1.0, [d.render() for d in report.diagnostics]
    assert precision == 1.0, [d.render() for d in report.diagnostics]


# ---------------------------------------------------------------------------
# Reachable-trigger analysis
# ---------------------------------------------------------------------------


def _machine():
    f = ModelFactory("m")
    owner = f.clazz("Owner")
    machine = StateMachine(name="M")
    owner.owned_behaviors.append(machine)
    region = machine.add_region("main")
    initial = region.add_initial()
    a = region.add_state("A")
    b = region.add_state("B")
    region.add_transition(initial, a)
    region.add_transition(a, b, trigger="go")
    region.add_transition(b, a, trigger="back")
    return f, machine, region


def test_reachability_summary():
    _, machine, region = _machine()
    summary = compute_reachability(machine)
    assert summary.states == {"A", "B"}
    assert summary.triggers == {"go", "back"}
    assert summary.accepts("go") and not summary.accepts("nope")


def test_lint_pass_analyses_each_machine_once(monkeypatch):
    """XD003 keeps one summary per machine for its lint pass: the model's
    two event messages to one machine cost one analysis."""
    f, scenario = bank_model(defects=("unreachable",))
    machine = next(e for e in f.model.all_contents()
                   if isinstance(e, StateMachine))
    events = [m for m in scenario.messages if m.name in ("open", "expire")]
    assert len(events) == 2
    analysed = []

    def counting(target):
        analysed.append(target)
        return compute_reachability(target)

    monkeypatch.setattr(rules_consistency, "compute_reachability", counting)
    report = consistency_lint(f.model)
    assert analysed == [machine]
    assert len(codes(report, "XD003")) == 1


def test_reachability_cache_invalidated_by_edit():
    _, machine, region = _machine()
    assert reachable_triggers(machine) == {"go", "back"}
    gone = next(t for t in region.transitions if t.trigger == "back")
    region.transitions.remove(gone)
    assert reachable_triggers(machine) == {"go"}


def test_reachability_cache_invalidated_by_new_state():
    _, machine, region = _machine()
    assert reachable_triggers(machine) == {"go", "back"}
    b = next(v for v in region.subvertices if v.name == "B")
    c = region.add_state("C")
    region.add_transition(b, c, trigger="jump")
    assert reachable_triggers(machine) == {"go", "back", "jump"}


def test_reachability_cache_invalidated_by_rollback():
    """A transaction rollback replays inverse ops; the answer after it
    is the one from before the rolled-back structure."""
    _, machine, region = _machine()
    assert reachable_triggers(machine) == {"go", "back"}
    with pytest.raises(RuntimeError):
        with transaction(machine):
            a = next(v for v in region.subvertices if v.name == "A")
            z = region.add_state("Z")
            region.add_transition(a, z, trigger="zap")
            # answer from the mid-transaction structure, then abort
            assert reachable_triggers(machine) == {"go", "back", "zap"}
            raise RuntimeError("abort")
    assert reachable_triggers(machine) == {"go", "back"}


def test_reachability_unanalysable_machines():
    f = ModelFactory("multi")
    owner = f.clazz("O")
    machine = StateMachine(name="Two")
    owner.owned_behaviors.append(machine)
    machine.add_region("left")
    machine.add_region("right")
    assert compute_reachability(machine) is None
    assert reachable_triggers(machine) is None


def test_reachability_prunes_unsatisfiable_guards():
    _, machine, region = _machine()
    b = next(v for v in region.subvertices if v.name == "B")
    c = region.add_state("C")
    region.add_transition(b, c, guard="x > 3 and x < 1", trigger="never")
    summary = compute_reachability(machine)
    assert "never" not in summary.triggers
    assert "C" not in summary.states


# ---------------------------------------------------------------------------
# Dual-endpoint diagnostics
# ---------------------------------------------------------------------------


def test_related_endpoint_in_text_rendering():
    f, _ = bank_model(defects=("unresolved",))
    finding = codes(consistency_lint(f.model), "XD001")[0]
    rendered = finding.render()
    assert "[with " in rendered
    assert finding.related_path in rendered
    assert "Account" in finding.related_path


def test_related_endpoint_in_session_json():
    f, _ = bank_model(defects=("unresolved",))
    session = Session(f.model)
    result = session.check(families=("consistency",))
    doc = json.loads(result.render("json"))
    records = doc["families"]["consistency"]
    assert any("frobnicate" in r["message"] for r in records)
    record = next(r for r in records if "frobnicate" in r["message"])
    assert record["related_path"].endswith("Account")
    # single-endpoint records don't grow the fields
    plain = Session(f.model).check(families=("structural",))
    for rec in json.loads(plain.render("json"))["families"]["structural"]:
        assert "related" not in rec


# ---------------------------------------------------------------------------
# Session and CLI plumbing
# ---------------------------------------------------------------------------


def test_session_consistency_family():
    f, _ = bank_model(defects=("unresolved",))
    result = Session(f.model).check(families=["consistency"])
    assert result.families == ("consistency",)
    assert any(d.code == "XD001" for d in result.diagnostics)
    # default family set includes consistency
    default = Session(f.model).check()
    assert "consistency" in default.families
    assert any(d.code == "XD001" for d in default.diagnostics)


def test_session_lint_family_excludes_xd_rules():
    f, _ = bank_model(defects=("unresolved",))
    result = Session(f.model).check(families=["lint"])
    assert not any(d.code.startswith("XD") for d in result.diagnostics)


def test_cli_lint_families_flag(tmp_path, capsys):
    from repro.cli import main, save_model

    # unsatisfiable multiplicities are invisible to the lint family;
    # only consistency (XD005) proves the contradiction
    f = ModelFactory("loops")
    cell = f.clazz("Cell")
    f.associate(cell, cell, name="succ", end_b="next", end_a="prev",
                b_lower=2, b_upper=2, a_lower=1, a_upper=1)
    path = str(tmp_path / "loops.json")
    save_model(f.model, path)

    assert main(["lint", path]) == 0            # default: lint only
    capsys.readouterr()
    assert main(["lint", path, "--families", "consistency"]) == 1
    out = capsys.readouterr().out
    assert "XD005" in out
    assert main(["lint", path, "--families", "lint,consistency",
                 "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["families"]) == ["lint", "consistency"]
    assert main(["lint", path, "--families", "bogus"]) == 2


def test_cli_list_rules_shows_family_column(capsys):
    from repro.cli import main

    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "XD001" in out and "consistency" in out


def test_quality_report_has_consistency_section():
    f, _ = bank_model(defects=("unresolved",))
    report = Session(f.model).quality_report()
    section = report.section("cross-diagram consistency")
    assert not section.passed
    assert any("XD001" in line for line in section.lines)
    clean_f, _ = bank_model()
    clean = Session(clean_f.model).quality_report()
    assert clean.section("cross-diagram consistency").passed


# ---------------------------------------------------------------------------
# Incremental parity under fuzzed edits
# ---------------------------------------------------------------------------

#: UML slice for consistency fuzzing: the safe core plus interactions
#: and associations, so cross-diagram units exist and churn
XD_FUZZ_CLASSES = UML_SAFE_CLASSES + (
    "Interaction", "Lifeline", "Message", "Association")

PARITY_SEEDS = 34
EDITS_PER_SEED = 6


def xd_generator(seed):
    from repro.uml import UML
    return ModelGenerator(UML, seed=seed, classes=XD_FUZZ_CLASSES,
                          root_class="UmlModel")


def _batch_signature(root):
    linter = ModelLinter(config=LintConfig(disabled={"uml-wellformed"}))
    consistency = ModelLinter(families=("consistency",))
    return (report_signature(validate_tree(root))
            + report_signature(run_wellformed_rules(root))
            + report_signature(linter.lint(root))
            + report_signature(consistency.lint(root)))


@pytest.mark.parametrize("seed", range(PARITY_SEEDS))
def test_incremental_parity_with_consistency(seed):
    """Engine with consistency=True stays multiset-equal to the batch
    stack over fuzzed edits of interaction-bearing models."""
    generator = xd_generator(seed)
    root = generator.generate(30 + (seed % 4) * 8)
    engine = IncrementalEngine(Session(root), DEFAULT_FAMILIES)
    fuzzer = EditFuzzer(root, seed=seed + 31_000, generator=generator)
    history = []
    for step in range(EDITS_PER_SEED + 1):
        engine.revalidate()
        actual = report_signature(engine.report())
        expected = _batch_signature(root)
        if actual != expected:
            pytest.fail(
                f"divergence at seed={seed} step={step}\n"
                f"  edits: {history}\n"
                f"  extra: {dict(actual - expected)}\n"
                f"  missing: {dict(expected - actual)}")
        history.append(fuzzer.random_edit() or "(none)")
    engine.detach()


def test_parity_edit_budget():
    """The parity suite covers the promised >= 200 fuzzed edits."""
    assert PARITY_SEEDS * EDITS_PER_SEED >= 200


def test_hand_built_model_parity_over_targeted_edits():
    """Deterministic end-to-end: plant and heal defects on the bank
    model under a consistency-enabled engine; every state agrees with
    batch."""
    f, scenario = bank_model()
    root = f.model
    engine = IncrementalEngine(Session(f.model), DEFAULT_FAMILIES)

    def check():
        engine.revalidate()
        assert report_signature(engine.report()) == _batch_signature(root)

    check()
    lt = scenario.lifeline("t")
    la = scenario.lifeline("a")
    bad = scenario.add_message(lt, la, "frobnicate")
    check()
    engine.revalidate()
    assert any(d.code == "XD001" for d in engine.report().diagnostics)
    scenario.messages.remove(bad)
    check()
    assert not any(d.code == "XD001"
                   for d in engine.report().diagnostics)
    # grow an unreachable state + message: XD003 appears incrementally
    machine = next(e for e in root.all_contents()
                   if isinstance(e, StateMachine))
    region = machine.regions[0]
    idle = next(v for v in region.subvertices if v.name == "Idle")
    orphan = region.add_state("Orphan")
    region.add_transition(orphan, idle, trigger="expire")
    scenario.add_message(lt, la, "expire")
    check()
    assert any(d.code == "XD003" for d in engine.report().diagnostics)
    # connect the orphan: the finding heals
    region.add_transition(idle, orphan, trigger="suspend")
    check()
    assert not any(d.code == "XD003"
                   for d in engine.report().diagnostics)
    engine.detach()


def test_single_edit_reruns_few_units():
    """A message rename re-runs only the interaction-scoped units, not
    the whole model's worth."""
    f, scenario = bank_model()
    engine = IncrementalEngine(Session(f.model), DEFAULT_FAMILIES)
    engine.revalidate()
    total = engine.unit_count()
    scenario.messages[0].name = "open"          # no-op value, real write
    engine.revalidate()
    assert engine.stats.last_rerun < total / 4
    engine.detach()


def test_engine_keeps_no_stale_flattened_machine():
    """XD003 reads a fresh flattened copy of a composite machine on each
    run.  The engine observes such an out-of-model element only while a
    recorded read names it, so reruns do not pile up old copies."""
    f, _ = bank_model(defects=("unreachable",))
    machine = next(e for e in f.model.all_contents()
                   if isinstance(e, StateMachine))
    region = machine.regions[0]
    active = next(v for v in region.subvertices if v.name == "Active")
    inner = active.add_region("inner")
    inner.add_transition(inner.add_initial(), inner.add_state("Busy"))
    orphan = next(v for v in region.subvertices if v.name == "Orphan")
    engine = IncrementalEngine(Session(f.model), ["consistency"])
    engine.revalidate()
    observed = len(engine._external)
    assert observed > 0
    for step in range(50):
        orphan.name = f"Orphan{step}"
        engine.revalidate()
    assert len(engine._external) == observed
    assert engine.verify() == []
    engine.detach()


def _xd005_key(engine):
    (key,) = [key for key in engine._units
              if key[:2] == ("lint", "class-unsatisfiable")]
    return key


def test_xd005_reads_extents_not_the_tree(monkeypatch):
    """XD005 takes classes and associations from the model index, so
    its root unit reads two extents and the root's container, and a
    create or delete of an unrelated element does not rerun it."""
    session = Session.generate("demo", size=2000, seed=0, repair=False)
    view = session.watch()
    assert len(view._deps.reads(_xd005_key(view))) <= 3
    from repro.incremental.engine import LintUnit
    runs = []
    run = LintUnit.run

    def counting(unit):
        runs.append(unit.rule.name)
        return run(unit)

    monkeypatch.setattr(LintUnit, "run", counting)
    library = session.model.roots[0]
    shelf = library.shelves[0]
    book = shelf.meta.feature("books").target.instantiate(name="fresh")
    shelf.books.append(book)
    view.revalidate()
    assert view.stats.last_rerun > 0
    book.delete()
    view.revalidate()
    assert view.stats.last_rerun > 0
    assert "class-unsatisfiable" not in runs
    assert view.verify() == []
    view.detach()


def test_xd005_reruns_when_an_unsatisfiable_pair_is_created():
    f, _ = bank_model()
    engine = IncrementalEngine(Session(f.model), DEFAULT_FAMILIES)
    engine.revalidate()
    key = _xd005_key(engine)

    def consistency():
        engine.revalidate()
        found = engine.report()
        by_family = engine.check_result().by_family
        assert report_signature(ValidationReport(by_family["consistency"])) \
            == report_signature(consistency_lint(f.model))
        return codes(found, "XD005")

    assert consistency() == []
    cell = f.clazz("Cell")
    assert consistency() == []
    f.associate(cell, cell, name="succ", end_b="next", end_a="prev",
                b_lower=2, b_upper=2, a_lower=1, a_upper=1)
    (finding,) = consistency()
    assert "Cell" in finding.message
    assert engine._results[key] == (finding,)
    engine.detach()


def test_check_result_splits_families():
    f, _ = bank_model(defects=("unresolved",))
    engine = IncrementalEngine(Session(f.model), DEFAULT_FAMILIES)
    engine.revalidate()
    by_family = engine.check_result().by_family
    assert tuple(by_family) == DEFAULT_FAMILIES
    assert any(d.code == "XD001" for d in by_family["consistency"])
    assert not any(d.code.startswith("XD") for d in by_family["lint"])
    engine.detach()

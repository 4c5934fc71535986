"""Tests for structural validation."""

import pytest

from repro.mof import (
    M_0N,
    M_11,
    M_1N,
    MString,
    PackageBuilder,
    Severity,
    Model,
    validate_element,
    validate_invariants,
    validate_tree,
)
from repro.generate import demo_package, generate_model
from repro.mof.index import walk
from repro.mof.kernel import FeatureList, set_read_hook
from repro.session import Session
from repro.xmi import load_model, save_model
from kernel_fixture import TBook, TLibrary


@pytest.fixture
def strict_pkg():
    return (PackageBuilder("strict")
            .clazz("Team")
            .attr("name", MString, multiplicity=M_11)
            .ref("members", "Member", containment=True,
                 multiplicity=M_1N, opposite="team")
            .clazz("Member").attr("name", MString).ref("team", "Team")
            .build())


class TestMultiplicityValidation:
    def test_missing_required_attribute(self, strict_pkg):
        team = strict_pkg.classifier("Team")()
        report = validate_element(team)
        codes = {d.code for d in report.errors}
        assert "multiplicity" in codes

    def test_lower_bound_on_reference(self, strict_pkg):
        team = strict_pkg.classifier("Team")(name="t")
        report = validate_element(team)
        assert not report.ok            # members 1..* empty
        team.members.append(strict_pkg.classifier("Member")(name="m"))
        assert validate_element(team).ok

    def test_valid_tree(self, library):
        lib, *_ = library
        assert validate_tree(lib).ok

    def test_validate_model(self, library):
        lib, *_ = library
        model = Model("urn:v")
        model.add_root(lib)
        report = validate_tree(model.roots[0])
        report.extend(validate_invariants(model.roots[0]))
        assert report.ok

    def test_counting_reports_each_read_to_the_hook(self):
        item = (PackageBuilder("tagged").clazz("Item")
                .attr("tags", MString, multiplicity=M_0N).build()
                .classifier("Item")())
        seen = []
        previous = set_read_hook(
            lambda element, name: seen.append((element, name)))
        try:
            validate_element(item, check_invariants=False)
        finally:
            set_read_hook(previous)
        assert (item, "tags") in seen

    @pytest.mark.parametrize("run", [
        lambda model: Session(model).watch(),
        lambda model: Session(model).check(),
    ], ids=["watch", "check"])
    def test_counting_stores_no_empty_list(self, run, tmp_path):
        save_model(generate_model("demo", size=2_000, seed=0,
                                  repair=False).model, tmp_path / "m.xmi")
        model = load_model(tmp_path / "m.xmi", [demo_package()])

        def empty_lists():
            return sum(1 for root in model.roots for element in walk(root)
                       for value in element._slots.values()
                       if isinstance(value, FeatureList) and not len(value))

        before = empty_lists()
        run(model)
        assert empty_lists() == before


class TestOppositeIntegrity:
    def test_raw_damage_detected(self, library):
        lib, b1, _ = library
        # sabotage the inverse directly (bypassing the protocol)
        b1._slots["library"] = None
        report = validate_element(lib)
        assert any(d.code == "opposite" for d in report.errors)

    def test_containment_bookkeeping_detected(self, library):
        lib, b1, _ = library
        object.__setattr__(b1, "_container", None)
        report = validate_element(lib)
        assert any(d.code == "containment" for d in report.errors)


class TestInvariantIntegration:
    def test_registered_invariant_checked(self):
        from repro.ocl import invariant
        inv = invariant(TBook, "positive-pages", "pages > 0")
        try:
            good = TBook(pages=5)
            assert validate_element(good).ok
            bad = TBook(pages=0)
            report = validate_element(bad)
            assert any(d.code == "invariant" for d in report.errors)
        finally:
            inv.unregister()

    def test_invariant_error_reported_not_raised(self):
        from repro.ocl import invariant
        inv = invariant(TBook, "broken", "nonexistent_feature > 1")
        try:
            report = validate_element(TBook())
            assert any(d.code == "invariant-error" for d in report.errors)
        finally:
            inv.unregister()

    def test_severity_filtering(self):
        report = validate_element(TBook())
        assert report.ok
        report.add(Severity.WARNING, None, "just a warning")
        assert report.ok and len(report.warnings) == 1
        report.add(Severity.ERROR, None, "now broken")
        assert not report.ok


def test_report_string_rendering(library):
    lib, *_ = library
    report = validate_tree(lib)
    assert "ok" in str(report)
    report.add(Severity.ERROR, lib, "boom", code="x")
    assert "boom" in str(report)

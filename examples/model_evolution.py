#!/usr/bin/env python3
"""Model evolution: interchange, diff, and the quality dashboard.

The day-2 story of a model-driven project: models live in files, change
over time, and every revision must answer "is it still good?".

* serialize the cruise-control PIM to the XMI dialect (stereotypes
  included) and reload it losslessly;
* evolve the model (add a class, retune a timing annotation, break a
  naming rule);
* diff old vs new revision structurally;
* regenerate the one-page quality report before and after;
* show the same operations through the command-line interface.

Run:  python examples/model_evolution.py
"""

import os
import subprocess
import sys
import tempfile

from repro.mof import Model, compare
from repro.profiles import SA_SCHEDULABLE, SPT
from repro.uml import ModelFactory, StateMachine, UML
from repro.session import Session
from repro.platforms import posix_platform
from repro.xmi import read_xml, write_xml


def build_revision_1() -> ModelFactory:
    factory = ModelFactory("gearbox")
    controller = factory.clazz("GearController",
                               attrs={"gear": "Integer"}, is_active=True)
    sensor = factory.clazz("RpmSensor", attrs={"rpm": "Integer"},
                           is_active=True)
    factory.associate(sensor, controller, end_b="controller",
                      end_a="sensor", navigable_b_to_a=True)
    machine = StateMachine(name="GearSM")
    controller.owned_behaviors.append(machine)
    controller.classifier_behavior = machine
    region = machine.main_region()
    initial = region.add_initial()
    neutral = region.add_state("Neutral")
    driving = region.add_state("Driving")
    region.add_transition(initial, neutral)
    region.add_transition(neutral, driving, trigger="clutch",
                          effect="gear := 1")
    region.add_transition(driving, neutral, trigger="stop",
                          effect="gear := 0")
    SA_SCHEDULABLE.apply(controller, sa_period_ms=20.0, sa_wcet_ms=3.0)
    SA_SCHEDULABLE.apply(sensor, sa_period_ms=5.0, sa_wcet_ms=1.0)
    return factory


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="repro-evolution-")
    platform = posix_platform()

    print("== revision 1: build, report, persist ==")
    revision_1 = build_revision_1()
    report_1 = Session(revision_1.model).quality_report(platforms=[platform])
    print("\n".join("  " + line
                    for line in report_1.render().splitlines()))

    path_1 = os.path.join(workdir, "gearbox_r1.xmi")
    wrapper = Model("urn:gearbox", "gearbox")
    wrapper.add_root(revision_1.model)
    with open(path_1, "w") as handle:
        handle.write(write_xml(wrapper))
    print(f"\n  persisted to {path_1}")

    print("\n== reload: lossless, stereotypes intact ==")
    loaded = read_xml(open(path_1).read(), [UML], profiles=[SPT])
    controller = [e for e in loaded.all_elements()
                  if getattr(e, "name", "") == "GearController"][0]
    print(f"  reloaded {sum(1 for _ in loaded.all_elements())} elements; "
          f"«SASchedulable» period on GearController: "
          f"{SA_SCHEDULABLE.value_on(controller, 'sa_period_ms')} ms")
    assert write_xml(loaded) == open(path_1).read()
    print("  round trip is byte-identical")

    print("\n== revision 2: evolve the reloaded model ==")
    root = loaded.roots[0]
    factory_like_member = root.member("GearController")
    from repro.uml import Clazz, Property
    display = Clazz(name="GearDisplay")
    display.owned_attributes.append(Property(name="digits"))
    root.add(display)
    factory_like_member.attribute("gear").name = "current_gear"
    print("  + class GearDisplay")
    print("  ~ renamed attribute gear -> current_gear")

    diff = compare(wrapper.roots[0], root)
    print(f"\n  structural diff ({diff.summary()}):")
    for difference in diff.differences:
        print(f"    {difference}")

    report_2 = Session(root).quality_report(platforms=[platform])
    print("\n  revision-2 quality: "
          + ("PASS" if report_2.passed else "FAIL"))
    warnings = report_2.section("uml well-formedness")
    for line in warnings.lines:
        print(f"    {line}")

    print("\n== the same toolchain from the shell ==")
    # the children import repro through this interpreter's (absolute)
    # sys.path, so a relative PYTHONPATH such as src/ keeps working
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for args in (["check", path_1,
                  "--families", "structural,invariant,wellformed"],
                 ["metrics", path_1],
                 ["schedule", path_1]):
        command = [sys.executable, "-m", "repro", *args]
        print(f"  $ python -m repro {' '.join(args)}")
        output = subprocess.run(command, capture_output=True, text=True,
                                env=env)
        for line in output.stdout.strip().splitlines():
            print(f"    {line}")
        if output.returncode != 0:
            sys.exit(f"`python -m repro {args[0]}` exited "
                     f"{output.returncode}:\n{output.stderr}")


if __name__ == "__main__":
    main()

"""Smoke tests: every example script runs to completion.

Protects the documented entry points from rot; output is captured and a
few load-bearing phrases are asserted.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

CASES = [
    ("quickstart.py", ["PIM -> PSM", "typedef struct"]),
    ("protocol_stack.py", ["conformance: PASS", "one PIM, two platforms"]),
    ("embedded_controller.py", ["SCHEDULABLE", "SC_MODULE"]),
    ("usecases_as_tests.py", ["scenario 'happy-path': PASS",
                              "coupling density"]),
    ("model_evolution.py", ["round trip is byte-identical",
                            "structural diff", "check: 0 error(s)",
                            "rta=SCHEDULABLE"]),
    ("information_model.py", ["CREATE TABLE customer",
                              "relational table"]),
]


@pytest.mark.parametrize("script,expected", CASES,
                         ids=[c[0] for c in CASES])
def test_example_runs(script, expected):
    path = os.path.join(EXAMPLES_DIR, script)
    result = subprocess.run([sys.executable, path],
                            capture_output=True, text=True, timeout=180)
    assert result.returncode == 0, result.stderr[-2000:]
    for phrase in expected:
        assert phrase in result.stdout, (
            f"{script}: {phrase!r} missing from output")

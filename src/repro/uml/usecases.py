"""UML use cases — deliberately positioned the way the paper demands.

Use cases here are *requirements and test obligations*, never units of
design: a :class:`UseCase` may reference the interactions that realise it
as scenarios, and those scenarios are replayed as conformance tests by
``repro.validation.scenarios``.  There is intentionally no facility for
"implementing" a use case directly; the class model is developed separately
and the system's ability to enact the scenario is checked, matching the
paper's "use cases ... can be thought of as scripts or constraints in the
model checking sense".
"""

from __future__ import annotations

from typing import List

from ..mof import (
    Attribute,
    M_0N,
    MString,
    Reference,
)
from .classifiers import Classifier
from .interactions import Interaction


class Actor(Classifier):
    """An external role interacting with the subject."""


class UseCase(Classifier):
    """A named unit of externally observable required behaviour."""

    description = Attribute(MString)
    actors = Reference(Actor, multiplicity=M_0N,
                       doc="Actors participating in this use case.")
    subjects = Reference(Classifier, multiplicity=M_0N,
                         doc="Classifiers to which the requirement applies "
                             "(typically the system class).")
    includes = Reference("UseCase", multiplicity=M_0N,
                         doc="Use cases whose behaviour is always included.")
    extends = Reference("UseCase", multiplicity=M_0N,
                        doc="Use cases this one conditionally extends.")
    scenarios = Reference(Interaction, multiplicity=M_0N,
                          doc="Interactions that realise this use case as "
                              "executable test scenarios.")

    def all_included(self) -> List["UseCase"]:
        """Transitive closure of ``includes``."""
        out: List[UseCase] = []
        stack = list(self.includes)
        while stack:
            current = stack.pop(0)
            if current in out:
                continue
            out.append(current)
            stack.extend(current.includes)
        return out

    def is_testable(self) -> bool:
        """A use case is testable once at least one scenario realises it —
        the paper's minimum bar for any model element."""
        return len(self.scenarios) > 0

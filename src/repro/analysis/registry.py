"""The lint rule registry: declaration, enable/disable, severity policy.

A :class:`LintRule` names one check with a stable primary code and the
kind of target it inspects; registering it (usually via the
:func:`lint_rule` decorator) makes the batch runner dispatch to it.
A :class:`LintConfig` adjusts a run without touching the registry:
disable rules or individual diagnostic codes, opt into off-by-default
rules, and override the severity of any code.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Set

from .diagnostics import Diagnostic, Severity

#: Target kinds the runner knows how to dispatch.
TARGETS = ("model", "statemachine", "activity", "interaction",
           "metaclass", "transformation")

#: Rule families: ``lint`` is the classic single-diagram analyses,
#: ``consistency`` the cross-diagram ``XD`` rules.  Runners select the
#: families to execute; :class:`LintConfig` still filters individual
#: rules within them.
FAMILIES = ("lint", "consistency")

CheckFn = Callable[[Any, Any], Iterable[Diagnostic]]


@dataclass
class LintRule:
    """One registered static check."""

    code: str                 # primary diagnostic code, e.g. "SM001"
    name: str                 # slug, e.g. "dead-state"
    target: str               # one of TARGETS
    check: CheckFn
    severity: Severity = Severity.ERROR
    description: str = ""
    opt_in: bool = False      # excluded unless LintConfig enables it
    family: str = "lint"      # one of FAMILIES

    def __post_init__(self) -> None:
        if self.target not in TARGETS:
            raise ValueError(f"unknown lint target '{self.target}' "
                             f"(expected one of {TARGETS})")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown rule family '{self.family}' "
                             f"(expected one of {FAMILIES})")


@dataclass
class LintConfig:
    """Per-run adjustments, keyed by rule name or diagnostic code."""

    disabled: Set[str] = field(default_factory=set)
    enabled: Set[str] = field(default_factory=set)   # opt-in rules to run
    severity_overrides: Dict[str, Severity] = field(default_factory=dict)

    def is_disabled(self, rule: LintRule) -> bool:
        return rule.name in self.disabled or rule.code in self.disabled

    def is_enabled(self, rule: LintRule) -> bool:
        return rule.name in self.enabled or rule.code in self.enabled

    def admit(self, diagnostic: Diagnostic) -> Optional[Diagnostic]:
        """*diagnostic* as a run under this config reports it: None when
        its code is disabled, else a copy at the overriding severity,
        or the diagnostic itself when no override changes it."""
        if diagnostic.code in self.disabled:
            return None
        severity = self.severity_overrides.get(diagnostic.code,
                                               diagnostic.severity)
        if severity is not diagnostic.severity:
            diagnostic = replace(diagnostic, severity=severity)
        return diagnostic


class RuleRegistry:
    """All known lint rules, keyed by name and by code."""

    def __init__(self) -> None:
        self._rules: Dict[str, LintRule] = {}

    def register(self, rule: LintRule) -> LintRule:
        for existing in self._rules.values():
            if existing.code == rule.code and existing.name != rule.name:
                raise ValueError(
                    f"code '{rule.code}' already registered by rule "
                    f"'{existing.name}'")
        self._rules[rule.name] = rule
        return rule

    def rule(self, name_or_code: str) -> Optional[LintRule]:
        found = self._rules.get(name_or_code)
        if found is not None:
            return found
        for rule in self._rules.values():
            if rule.code == name_or_code:
                return rule
        return None

    def rules(self, target: Optional[str] = None,
              config: Optional[LintConfig] = None,
              families: Optional[Iterable[str]] = None) -> List[LintRule]:
        config = config or LintConfig()
        family_filter = None if families is None else set(families)
        selected = []
        for rule in self._rules.values():
            if target is not None and rule.target != target:
                continue
            if family_filter is not None \
                    and rule.family not in family_filter:
                continue
            if config.is_disabled(rule):
                continue
            if rule.opt_in and not config.is_enabled(rule):
                continue
            selected.append(rule)
        return selected

    def all_rules(self) -> List[LintRule]:
        return list(self._rules.values())

    def codes(self) -> List[str]:
        return sorted(rule.code for rule in self._rules.values())

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, name_or_code: str) -> bool:
        return self.rule(name_or_code) is not None


#: The registry populated by the bundled rule modules on import.
DEFAULT_REGISTRY = RuleRegistry()


def lint_rule(code: str, name: str, target: str, *,
              severity: Severity = Severity.ERROR,
              description: str = "", opt_in: bool = False,
              family: str = "lint",
              registry: Optional[RuleRegistry] = None
              ) -> Callable[[CheckFn], CheckFn]:
    """Decorator: register *fn* as a lint rule and return it unchanged."""
    def decorate(fn: CheckFn) -> CheckFn:
        target_registry = DEFAULT_REGISTRY if registry is None else registry
        target_registry.register(LintRule(
            code=code, name=name, target=target, check=fn,
            severity=severity,
            description=description or (fn.__doc__ or "").strip(),
            opt_in=opt_in, family=family))
        return fn
    return decorate

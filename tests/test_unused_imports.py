"""No module of ``repro`` imports a name it never uses.

A plain :mod:`ast` scan, with no linter dependency.  An import counts
as used when its bound name appears as a name anywhere in the scope
that holds the import (the module, or the function of a lazy import),
inside a string annotation there, or in the module's ``__all__``.
Package ``__init__`` modules re-export by design and are not scanned;
elsewhere a deliberate re-export says so with ``# noqa: F401``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, List, Set, Tuple

SOURCE = Path(__file__).resolve().parent.parent / "src" / "repro"

_NOQA_F401 = re.compile(r"#\s*noqa:[^#]*\bF401\b")

_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)


def _annotations(tree: ast.AST) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for argument in (arguments.posonlyargs + arguments.args
                             + arguments.kwonlyargs
                             + [arguments.vararg, arguments.kwarg]):
                if argument is not None and argument.annotation is not None:
                    yield argument.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree: ast.AST) -> Set[str]:
    """Every name *tree* uses, string annotations included."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    return used


def _exported(tree: ast.Module) -> Set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> List[Tuple[int, str]]:
    """(line, name) for each import in *path* that nothing uses."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    exported = _exported(tree)
    used_in = {}
    found = []

    def visit(scope: ast.AST) -> None:
        for node in ast.iter_child_nodes(scope):
            visit_node(node, scope)

    def visit_node(node: ast.AST, scope: ast.AST) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            check(node, scope)
        for child in ast.iter_child_nodes(node):
            visit_node(child, node if isinstance(node, _SCOPES) else scope)

    def check(node: ast.AST, scope: ast.AST) -> None:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            return
        if any(_NOQA_F401.search(line)
               for line in lines[node.lineno - 1:node.end_lineno]):
            return
        if id(scope) not in used_in:
            used_in[id(scope)] = _names(scope)
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "*" or bound in exported:
                continue
            if bound not in used_in[id(scope)]:
                found.append((node.lineno, bound))

    visit(tree)
    return found


def test_no_unused_imports():
    modules = sorted(path for path in SOURCE.rglob("*.py")
                     if path.name != "__init__.py")
    assert len(modules) > 100
    unused = [f"{path.relative_to(SOURCE.parent)}:{line} {name}"
              for path in modules for line, name in unused_imports(path)]
    assert unused == []


def test_scan_sees_each_kind_of_use(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import json\n"
        "from typing import TYPE_CHECKING, Dict, List\n"
        "from collections import Counter  # noqa: F401\n"
        "from itertools import chain\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "__all__ = ['chain']\n"
        "def size(values: 'List[Decimal]') -> int:\n"
        "    import sys\n"
        "    import re\n"
        "    return len(values) + sys.maxsize\n"
        "def keys(table: Dict) -> list:\n"
        "    return re.findall(table)\n")
    # os and json are never used; re is used only outside the function
    # that imports it
    assert unused_imports(module) == [(2, "os"), (3, "json"), (12, "re")]

"""The code-model intermediate representation (IR).

The IR is the *last model* in the MDA chain: a language-neutral description
of compilation units, type declarations, functions and statements.  The
PSM→IR lowering (:mod:`repro.codegen.lower`) is **semantic** — it consumes
platform/PSM structure and changes abstraction level; the printers
(:mod:`repro.codegen.c` and friends) are **syntactic** — they re-express
the same IR in a concrete language without adding information.  This makes
the paper's semantic/syntactic distinction structural rather than
rhetorical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


# -- statements -------------------------------------------------------------

@dataclass
class Stmt:
    """Base class of IR statements."""


@dataclass
class CommentStmt(Stmt):
    text: str = ""


@dataclass
class RawStmt(Stmt):
    """An opaque statement in the target language (escape hatch)."""
    text: str = ""


@dataclass
class VarDeclStmt(Stmt):
    name: str = ""
    type_name: str = "int"
    init: Optional[str] = None


@dataclass
class AssignStmt(Stmt):
    """``lhs := rhs`` — both sides in the abstract action language."""
    lhs: str = ""
    rhs: str = ""


@dataclass
class SendStmt(Stmt):
    """Asynchronous event emission ``send target.event(args)``."""
    target: str = ""
    event: str = ""
    arguments: Tuple[str, ...] = ()


@dataclass
class CallStmt(Stmt):
    """Synchronous call ``receiver.operation(args)``."""
    receiver: str = ""
    operation: str = ""
    arguments: Tuple[str, ...] = ()


@dataclass
class ReturnStmt(Stmt):
    expr: Optional[str] = None


@dataclass
class BreakStmt(Stmt):
    pass


@dataclass
class IfStmt(Stmt):
    """Condition is an OCL-like boolean expression, translated by each
    printer."""
    condition: str = "true"
    then_body: List[Stmt] = field(default_factory=list)
    else_body: List[Stmt] = field(default_factory=list)


@dataclass
class SwitchCase:
    label: str = ""
    body: List[Stmt] = field(default_factory=list)


@dataclass
class SwitchStmt(Stmt):
    selector: str = ""
    cases: List[SwitchCase] = field(default_factory=list)
    default: List[Stmt] = field(default_factory=list)


# -- declarations -----------------------------------------------------------

@dataclass
class Field_:
    """A struct/class member."""
    name: str = ""
    type_name: str = "int"
    default: Optional[str] = None
    doc: str = ""


@dataclass
class StructDecl:
    name: str = ""
    fields: List[Field_] = field(default_factory=list)
    doc: str = ""
    is_active: bool = False


@dataclass
class EnumDecl:
    name: str = ""
    literals: List[str] = field(default_factory=list)
    doc: str = ""


@dataclass
class Param:
    name: str = ""
    type_name: str = "int"


@dataclass
class FunctionDecl:
    name: str = ""
    return_type: str = "void"
    params: List[Param] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)
    doc: str = ""
    owner_struct: Optional[str] = None   # method of which struct, if any


@dataclass
class CompilationUnit:
    """One generated source file."""
    name: str = ""
    includes: List[str] = field(default_factory=list)
    enums: List[EnumDecl] = field(default_factory=list)
    structs: List[StructDecl] = field(default_factory=list)
    functions: List[FunctionDecl] = field(default_factory=list)
    doc: str = ""

    def struct(self, name: str) -> Optional[StructDecl]:
        for struct in self.structs:
            if struct.name == name:
                return struct
        return None

    def function(self, name: str) -> Optional[FunctionDecl]:
        for function in self.functions:
            if function.name == name:
                return function
        return None


@dataclass
class CodeModel:
    """The root of the IR: the whole generated program."""
    name: str = ""
    units: List[CompilationUnit] = field(default_factory=list)

    def unit(self, name: str) -> Optional[CompilationUnit]:
        for unit in self.units:
            if unit.name == name:
                return unit
        return None

    def all_functions(self) -> List[FunctionDecl]:
        out: List[FunctionDecl] = []
        for unit in self.units:
            out.extend(unit.functions)
        return out

    def all_structs(self) -> List[StructDecl]:
        out: List[StructDecl] = []
        for unit in self.units:
            out.extend(unit.structs)
        return out

    def stats(self) -> dict:
        return {
            "units": len(self.units),
            "structs": len(self.all_structs()),
            "functions": len(self.all_functions()),
            "enums": sum(len(u.enums) for u in self.units),
        }

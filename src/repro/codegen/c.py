"""C printer — a purely *syntactic* transformation of the IR.

No platform or model knowledge enters here: every decision was already
made by the PSM transformation and the PSM→IR lowering.  The printer only
chooses spellings.
"""

from __future__ import annotations

from typing import Dict

from .actions import to_c_expr
from .ir import (
    AssignStmt,
    BreakStmt,
    CallStmt,
    CodeModel,
    CommentStmt,
    CompilationUnit,
    EnumDecl,
    FunctionDecl,
    IfStmt,
    RawStmt,
    ReturnStmt,
    SendStmt,
    Stmt,
    StructDecl,
    SwitchStmt,
    VarDeclStmt,
)
from .printer import CodeWriter


class CPrinter:
    """Prints a :class:`CodeModel` as C source text (one string per unit)."""

    def print_model(self, code: CodeModel) -> Dict[str, str]:
        return {f"{unit.name}.c": self.print_unit(unit)
                for unit in code.units}

    def print_unit(self, unit: CompilationUnit) -> str:
        writer = CodeWriter()
        writer.line(f"/* {unit.name}.c — generated; do not edit. */")
        if unit.doc.strip():
            for doc_line in unit.doc.strip().splitlines():
                writer.line(f"/* {doc_line.strip()} */")
        writer.line("#include <stdint.h>")
        writer.line("#include <stdbool.h>")
        for include in unit.includes:
            writer.line(f"#include {include}")
        writer.blank()
        for enum in unit.enums:
            self._enum(writer, enum)
            writer.blank()
        for struct in unit.structs:
            self._struct(writer, struct)
            writer.blank()
        for function in unit.functions:
            self._function(writer, function)
            writer.blank()
        return writer.text()

    # -- declarations -----------------------------------------------------

    def _enum(self, writer: CodeWriter, enum: EnumDecl) -> None:
        if enum.doc:
            writer.line(f"/* {enum.doc} */")
        with writer.block(f"typedef enum {{", f"}} {enum.name};"):
            for literal in enum.literals:
                writer.line(f"{literal},")

    def _struct(self, writer: CodeWriter, struct: StructDecl) -> None:
        if struct.doc:
            writer.line(f"/* {struct.doc} */")
        with writer.block("typedef struct {", f"}} {struct.name};"
                          .replace("}}", "}")):
            if not struct.fields:
                writer.line("char _empty;")
            for field in struct.fields:
                comment = f"  /* {field.doc} */" if field.doc else ""
                writer.line(self._field_decl(field.name, field.type_name)
                            + ";" + comment)

    @staticmethod
    def _field_decl(name: str, type_name: str) -> str:
        if type_name.endswith("]"):           # e.g. char[16]
            base, bracket = type_name.split("[", 1)
            return f"{base} {name}[{bracket}"
        return f"{type_name} {name}"

    def _function(self, writer: CodeWriter, function: FunctionDecl) -> None:
        if function.doc:
            writer.line(f"/* {function.doc} */")
        params = ", ".join(
            f"{self._param_type(p.type_name)} {p.name}"
            for p in function.params) or "void"
        with writer.block(f"{self._param_type(function.return_type)} "
                          f"{function.name}({params}) {{"):
            for stmt in function.body:
                self._stmt(writer, stmt)

    @staticmethod
    def _param_type(type_name: str) -> str:
        return type_name

    # -- statements --------------------------------------------------------

    def _stmt(self, writer: CodeWriter, stmt: Stmt) -> None:
        if isinstance(stmt, CommentStmt):
            writer.line(f"/* {stmt.text} */")
        elif isinstance(stmt, RawStmt):
            writer.line(stmt.text)
        elif isinstance(stmt, VarDeclStmt):
            init = f" = {to_c_expr(stmt.init)}" if stmt.init else ""
            writer.line(f"{stmt.type_name} {stmt.name}{init};")
        elif isinstance(stmt, AssignStmt):
            writer.line(f"{self._lvalue(stmt.lhs)} = "
                        f"{to_c_expr(self._rvalue(stmt.rhs))};")
        elif isinstance(stmt, SendStmt):
            args = ", ".join(["&" + self._lvalue(stmt.target),
                              f"EV_{stmt.event.upper()}"]
                             + [to_c_expr(a) for a in stmt.arguments])
            writer.line(f"event_send({args});")
        elif isinstance(stmt, CallStmt):
            receiver = ([self._lvalue(stmt.receiver)]
                        if stmt.receiver else [])
            args = ", ".join(receiver
                             + [to_c_expr(a) for a in stmt.arguments])
            writer.line(f"{stmt.operation}({args});")
        elif isinstance(stmt, ReturnStmt):
            writer.line(f"return {to_c_expr(stmt.expr)};"
                        if stmt.expr else "return;")
        elif isinstance(stmt, BreakStmt):
            writer.line("break;")
        elif isinstance(stmt, IfStmt):
            with writer.block(f"if ({to_c_expr(self._rvalue(stmt.condition))}) {{"):
                for inner in stmt.then_body:
                    self._stmt(writer, inner)
            if stmt.else_body:
                with writer.block("else {"):
                    for inner in stmt.else_body:
                        self._stmt(writer, inner)
        elif isinstance(stmt, SwitchStmt):
            with writer.block(f"switch ({self._rvalue(stmt.selector)}) {{"):
                for case in stmt.cases:
                    writer.line(f"case {case.label}: {{")
                    writer.indent()
                    for inner in case.body:
                        self._stmt(writer, inner)
                    writer.dedent()
                    writer.line("}")
                if stmt.default:
                    writer.line("default: {")
                    writer.indent()
                    for inner in stmt.default:
                        self._stmt(writer, inner)
                    writer.dedent()
                    writer.line("}")
        else:
            writer.line(f"/* unsupported stmt {stmt!r} */")

    @staticmethod
    def _lvalue(path: str) -> str:
        """'self.x' → 'self->x'; deeper paths keep C arrow spelling."""
        parts = path.split(".")
        if len(parts) == 1:
            return path
        return parts[0] + "->" + ".".join(parts[1:])

    @classmethod
    def _rvalue(cls, expr: str) -> str:
        if expr.startswith("self."):
            return cls._lvalue(expr)
        return expr


def generate_c(code: CodeModel) -> Dict[str, str]:
    """Convenience: print all units to ``{filename: text}``."""
    from .printer import _print_observed
    return _print_observed("c", lambda: CPrinter().print_model(code))

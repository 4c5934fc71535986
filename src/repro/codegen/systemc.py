"""SystemC-like printer — the hardware-facing syntactic rendering.

Active structs become ``SC_MODULE`` s with an event-driven process; passive
structs become plain C++ structs.  Like the other printers it adds no
semantic content to the IR — it exists to show one IR feeding software
*and* hardware flows, the "system domain and the hardware aspects" the
paper says UML tooling lacks.
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

_HW_TYPES = {
    "bit": "sc_bit", "q15_t": "sc_int<16>", "int16_t": "sc_int<16>",
    "uint8_t": "sc_uint<8>", "int32_t": "sc_int<32>",
    "uint32_t": "sc_uint<32>", "bool": "bool", "double": "double",
}


def _hwtype(type_name: str) -> str:
    return _HW_TYPES.get(type_name, type_name)


class SystemCPrinter:
    """Prints a :class:`CodeModel` as SystemC-like module definitions."""

    def print_model(self, code: CodeModel) -> Dict[str, str]:
        return {f"{unit.name}.h": self.print_unit(unit)
                for unit in code.units}

    def print_unit(self, unit: CompilationUnit) -> str:
        writer = CodeWriter()
        writer.line(f"// {unit.name}.h — generated; do not edit.")
        writer.line("#include <systemc.h>")
        writer.blank()
        for enum in unit.enums:
            literals = ", ".join(enum.literals)
            writer.line(f"enum {enum.name} {{ {literals} }};")
        writer.blank()
        for struct in unit.structs:
            if struct.is_active:
                self._module(writer, unit, struct)
            else:
                self._plain_struct(writer, struct)
            writer.blank()
        return writer.text()

    def _plain_struct(self, writer: CodeWriter, struct: StructDecl) -> None:
        with writer.block(f"struct {struct.name} {{", "};"):
            for field in struct.fields:
                writer.line(f"{_hwtype(field.type_name)} {field.name};")

    def _module(self, writer: CodeWriter, unit: CompilationUnit,
                struct: StructDecl) -> None:
        if struct.doc:
            writer.line(f"// {struct.doc}")
        with writer.block(f"SC_MODULE({struct.name}) {{", "};"):
            writer.line("sc_in<bool> clk;")
            writer.line(f"sc_fifo_in<int> events;")
            for field in struct.fields:
                writer.line(f"{_hwtype(field.type_name)} {field.name};")
            writer.blank()
            dispatch = unit.function(f"{struct.name}_dispatch")
            with writer.block("void step() {"):
                if dispatch is not None:
                    writer.line("int event;")
                    with writer.block("while (events.nb_read(event)) {"):
                        for stmt in dispatch.body:
                            self._stmt(writer, stmt)
                else:
                    writer.line("// combinational body")
            writer.blank()
            with writer.block(f"SC_CTOR({struct.name}) {{"):
                writer.line("SC_METHOD(step);")
                writer.line("sensitive << clk.pos();")

    def _stmt(self, writer: CodeWriter, stmt: Stmt) -> None:
        if isinstance(stmt, CommentStmt):
            writer.line(f"// {stmt.text}")
        elif isinstance(stmt, RawStmt):
            writer.line(stmt.text)
        elif isinstance(stmt, VarDeclStmt):
            init = f" = {to_c_expr(stmt.init)}" if stmt.init else ""
            writer.line(f"{_hwtype(stmt.type_name)} {stmt.name}{init};")
        elif isinstance(stmt, AssignStmt):
            writer.line(f"{self._path(stmt.lhs)} = "
                        f"{to_c_expr(stmt.rhs)};")
        elif isinstance(stmt, SendStmt):
            writer.line(f"{self._path(stmt.target)}_events.write("
                        f"EV_{stmt.event.upper()});")
        elif isinstance(stmt, CallStmt):
            receiver = f"{self._path(stmt.receiver)}." if stmt.receiver else ""
            args = ", ".join(to_c_expr(a) for a in stmt.arguments)
            writer.line(f"{receiver}{stmt.operation}({args});")
        elif isinstance(stmt, ReturnStmt):
            writer.line("return;")
        elif isinstance(stmt, BreakStmt):
            writer.line("break;")
        elif isinstance(stmt, IfStmt):
            with writer.block(f"if ({to_c_expr(stmt.condition)}) {{"):
                for inner in stmt.then_body:
                    self._stmt(writer, inner)
            if stmt.else_body:
                with writer.block("else {"):
                    for inner in stmt.else_body:
                        self._stmt(writer, inner)
        elif isinstance(stmt, SwitchStmt):
            with writer.block(f"switch ({self._path(stmt.selector)}) {{"):
                for case in stmt.cases:
                    writer.line(f"case {case.label}: {{")
                    writer.indent()
                    for inner in case.body:
                        self._stmt(writer, inner)
                    writer.dedent()
                    writer.line("}")
                if stmt.default:
                    writer.line("default: break;")
        else:
            writer.line(f"// unsupported stmt {stmt!r}")

    @staticmethod
    def _path(path: str) -> str:
        return path.replace("self.", "") if path else path


def generate_systemc(code: CodeModel) -> Dict[str, str]:
    """Convenience: print all units to ``{filename: text}``."""
    from .printer import _print_observed
    return _print_observed("systemc",
                           lambda: SystemCPrinter().print_model(code))

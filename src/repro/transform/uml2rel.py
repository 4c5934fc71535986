"""The canonical MDA transformation: UML classes → relational schema.

Every MDA tutorial of the paper's era demonstrated class→table; this
module provides it as a *real* rule set over a dynamically defined
relational metamodel — demonstrating at once (a) the kernel's dynamic
(M3) facilities, (b) the two-phase engine on a non-UML target, and (c) a
second "platform" that is a data store rather than an execution
environment.

Mapping:

* class → table with a synthetic ``id`` primary key;
* primitive attribute → column (SQL type from the UML primitive);
* single-valued association end → foreign-key column + constraint;
* many-valued association end → join table;
* generalization → foreign key to the parent's table (one table per
  class).

``schema_to_sql`` prints the resulting schema model as DDL — another
*syntactic* back end.
"""

from __future__ import annotations

from typing import List

from ..mof import (
    MBoolean,
    MString,
    MetaPackage,
    PackageBuilder,
)
from ..uml import (
    Behavior,
    Clazz,
    Property,
    UmlModel,
)
from .engine import Transformation
from .rule import Rule

# ---------------------------------------------------------------------------
# The relational metamodel — defined dynamically (M3 at work)
# ---------------------------------------------------------------------------

RELATIONAL: MetaPackage = (
    PackageBuilder("relational", uri="urn:repro:relational")
    .clazz("Schema").attr("name", MString)
    .contains("tables", "Table")
    .clazz("Table").attr("name", MString)
    .contains("columns", "Column")
    .contains("foreign_keys", "ForeignKey")
    .clazz("Column").attr("name", MString)
    .attr("sql_type", MString, "INTEGER")
    .attr("is_primary", MBoolean, False)
    .attr("is_nullable", MBoolean, True)
    .clazz("ForeignKey").attr("name", MString)
    .ref("column", "Column")
    .ref("references", "Table")
    .build())

SCHEMA = RELATIONAL.classifier("Schema")
TABLE = RELATIONAL.classifier("Table")
COLUMN = RELATIONAL.classifier("Column")
FOREIGN_KEY = RELATIONAL.classifier("ForeignKey")

SQL_TYPES = {
    "Integer": "INTEGER",
    "Real": "DOUBLE PRECISION",
    "String": "VARCHAR(255)",
    "Boolean": "BOOLEAN",
}


def _table_name(cls: Clazz) -> str:
    return cls.name.lower()


class SchemaRule(Rule):
    source_type = UmlModel

    def create(self, source, ctx):
        return SCHEMA(name=source.name)


class ClassToTableRule(Rule):
    source_type = Clazz

    def matches(self, element, ctx):
        return super().matches(element, ctx) \
            and not isinstance(element, Behavior)

    def create(self, source: Clazz, ctx):
        table = TABLE(name=_table_name(source))
        table.columns.append(COLUMN(name="id", sql_type="INTEGER",
                                    is_primary=True, is_nullable=False))
        return table

    def bind(self, source: Clazz, targets, ctx):
        table = targets["default"]
        schema = ctx.resolve_optional(source.root())
        if schema is not None and table not in schema.tables:
            schema.tables.append(table)
        # inheritance: one table per class, child keeps parent's key
        for sup in source.supers():
            parent_table = ctx.resolve_optional(sup)
            if parent_table is None:
                continue
            column = COLUMN(name=f"{parent_table.name}_id",
                            sql_type="INTEGER", is_nullable=False)
            table.columns.append(column)
            table.foreign_keys.append(FOREIGN_KEY(
                name=f"fk_{table.name}_{parent_table.name}",
                column=column, references=parent_table))


class AttributeToColumnRule(Rule):
    source_type = Property

    def matches(self, element: Property, ctx):
        if not super().matches(element, ctx):
            return False
        if isinstance(element.container, Clazz) \
                and isinstance(element.container, Behavior):
            return False
        return not isinstance(element.type, Clazz)    # ends handled apart

    def create(self, source: Property, ctx):
        type_name = source.type.name if source.type is not None else ""
        return COLUMN(name=source.name,
                      sql_type=SQL_TYPES.get(type_name, "VARCHAR(255)"),
                      is_nullable=source.lower == 0)

    def bind(self, source: Property, targets, ctx):
        owner = source.container
        table = ctx.resolve_optional(owner) if owner is not None else None
        if table is not None and table.meta is TABLE:
            if targets["default"] not in table.columns:
                table.columns.append(targets["default"])


class EndToForeignKeyRule(Rule):
    """Single-valued, class-typed property → FK column; many-valued →
    join table."""

    source_type = Property

    def matches(self, element: Property, ctx):
        return super().matches(element, ctx) \
            and isinstance(element.type, Clazz) \
            and isinstance(element.container, Clazz)

    def create(self, source: Property, ctx):
        if source.is_many:
            owner = source.container
            return TABLE(name=f"{_table_name(owner)}_{source.name}")
        return COLUMN(name=f"{source.name}_id", sql_type="INTEGER",
                      is_nullable=source.lower == 0)

    def bind(self, source: Property, targets, ctx):
        owner_table = ctx.resolve_optional(source.container)
        target_table = ctx.resolve_optional(source.type)
        produced = targets["default"]
        if owner_table is None or target_table is None:
            return
        if source.is_many:
            join_table = produced
            schema = owner_table.container
            if schema is not None and join_table not in schema.tables:
                schema.tables.append(join_table)
            for end_table in (owner_table, target_table):
                column = COLUMN(name=f"{end_table.name}_id",
                                sql_type="INTEGER", is_nullable=False)
                join_table.columns.append(column)
                join_table.foreign_keys.append(FOREIGN_KEY(
                    name=f"fk_{join_table.name}_{end_table.name}",
                    column=column, references=end_table))
            return
        if produced not in owner_table.columns:
            owner_table.columns.append(produced)
        owner_table.foreign_keys.append(FOREIGN_KEY(
            name=f"fk_{owner_table.name}_{source.name}",
            column=produced, references=target_table))


def uml_to_relational() -> Transformation:
    """The class→table transformation (semantic: target metamodel is a
    different domain at a different abstraction)."""
    return Transformation(
        "uml2relational",
        [SchemaRule(), ClassToTableRule(), AttributeToColumnRule(),
         EndToForeignKeyRule()],
        kind="semantic", abstraction_delta=-1,
        description="classic MDA class->table mapping onto a dynamically "
                    "defined relational metamodel")


def schema_to_sql(schema) -> str:
    """Print a schema model as SQL DDL (syntactic)."""
    statements: List[str] = []
    for table in schema.tables:
        column_lines = []
        for column in table.columns:
            nullability = "" if column.is_nullable else " NOT NULL"
            primary = " PRIMARY KEY" if column.is_primary else ""
            column_lines.append(
                f"  {column.name} {column.sql_type}{nullability}{primary}")
        for foreign_key in table.foreign_keys:
            column_lines.append(
                f"  CONSTRAINT {foreign_key.name} FOREIGN KEY "
                f"({foreign_key.column.name}) REFERENCES "
                f"{foreign_key.references.name}(id)")
        body = ",\n".join(column_lines)
        statements.append(f"CREATE TABLE {table.name} (\n{body}\n);")
    return "\n\n".join(statements) + "\n"

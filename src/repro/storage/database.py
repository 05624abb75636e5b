"""The in-memory relational database used as the paper's MySQL substitute.

A :class:`Database` owns the tables and enforces foreign-key integrity on
insert.  It also knows how to enumerate the foreign-key *edges* between
tuples, which is the raw material of the tuple graph (Definition 1) and of
the term-augmented tuple graph (Definition 5).
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import DuplicateKeyError, IntegrityError, UnknownTableError
from repro.storage.schema import DatabaseSchema, ForeignKey, TableSchema
from repro.storage.table import Row, Table

#: A tuple is globally identified by ``(table_name, primary_key_value)``.
TupleRef = Tuple[str, object]


class Database:
    """A set of tables with enforced foreign keys.

    Parameters
    ----------
    schema:
        The full :class:`DatabaseSchema`.  Tables are created empty.
    enforce_fk:
        When True (default) inserts that reference a missing parent row
        raise :class:`IntegrityError`.  Bulk loaders that insert parents
        later can disable this and call :meth:`check_integrity` at the end.
    """

    def __init__(self, schema: DatabaseSchema, enforce_fk: bool = True) -> None:
        self.schema = schema
        self.enforce_fk = enforce_fk
        self._tables: Dict[str, Table] = {
            name: Table(tschema) for name, tschema in schema.tables.items()
        }
        # Outgoing FK columns per table, precomputed for fast edge iteration.
        self._fk_by_table: Dict[str, List[ForeignKey]] = {
            name: schema.foreign_keys_of(name) for name in schema.tables
        }

    # ------------------------------------------------------------------ #
    # table access
    # ------------------------------------------------------------------ #

    def table(self, name: str) -> Table:
        """Table object by name (raises if unknown)."""
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"unknown table {name!r}") from None

    @property
    def table_names(self) -> Tuple[str, ...]:
        """All table names."""
        return tuple(self._tables)

    def __len__(self) -> int:
        """Total number of tuples across all tables."""
        return sum(len(t) for t in self._tables.values())

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def insert(self, table_name: str, row: Row) -> TupleRef:
        """Insert *row* into *table_name*; returns its :data:`TupleRef`."""
        table = self.table(table_name)
        if self.enforce_fk:
            self._check_row_fks(table_name, row)
        pk = table.insert(row)
        return (table_name, pk)

    def insert_many(self, table_name: str, rows: List[Row]) -> int:
        """Insert many rows into one table."""
        for row in rows:
            self.insert(table_name, row)
        return len(rows)

    def insert_all(self, items: Sequence[Tuple[str, Row]]) -> List[TupleRef]:
        """Insert ``(table, row)`` pairs in order, all or none.

        Every row is checked before any is inserted: its table exists, it
        passes the schema, its primary key is new both in the table and
        within *items*, and (with ``enforce_fk``) each foreign key
        resolves against the database or an earlier row of *items*.  A
        rejected batch therefore leaves the database untouched.
        """
        pending: Set[TupleRef] = set()
        for table_name, row in items:
            table = self.table(table_name)
            table.schema.validate_row(row)
            ref: TupleRef = (table_name, row[table.schema.primary_key])
            if ref[1] in table or ref in pending:
                raise DuplicateKeyError(
                    f"table {table_name!r}: duplicate primary key {ref[1]!r}"
                )
            if self.enforce_fk:
                self._check_row_fks(table_name, row, pending)
            pending.add(ref)
        return [self.insert(table_name, row) for table_name, row in items]

    # ------------------------------------------------------------------ #
    # integrity
    # ------------------------------------------------------------------ #

    def _check_row_fks(
        self,
        table_name: str,
        row: Row,
        pending: AbstractSet[TupleRef] = frozenset(),
    ) -> None:
        """Raise unless every FK of *row* has a parent in the database or
        among the *pending* refs (rows about to be inserted first)."""
        for fk in self._fk_by_table[table_name]:
            value = row.get(fk.column)
            if value is None:
                continue
            if (
                value not in self.table(fk.ref_table)
                and (fk.ref_table, value) not in pending
            ):
                raise IntegrityError(
                    f"{fk}: value {value!r} has no parent row"
                )

    def check_integrity(self) -> None:
        """Validate every foreign key in the database (for bulk loads)."""
        for fk in self.schema.foreign_keys:
            parent = self.table(fk.ref_table)
            for row in self.table(fk.table).scan():
                value = row.get(fk.column)
                if value is not None and value not in parent:
                    raise IntegrityError(f"{fk}: dangling value {value!r}")

    # ------------------------------------------------------------------ #
    # graph material
    # ------------------------------------------------------------------ #

    def tuple_refs(self) -> Iterator[TupleRef]:
        """Every tuple in the database as a ``(table, pk)`` reference."""
        for name, table in self._tables.items():
            for pk in table.primary_keys():
                yield (name, pk)

    def fk_edges(self) -> Iterator[Tuple[TupleRef, TupleRef]]:
        """Every foreign-key edge as a pair of tuple refs (child, parent)."""
        for table_name, fks in self._fk_by_table.items():
            if not fks:
                continue
            table = self.table(table_name)
            for row in table.scan():
                child: TupleRef = (table_name, row[table.schema.primary_key])
                for fk in fks:
                    value = row.get(fk.column)
                    if value is not None:
                        yield (child, (fk.ref_table, value))

    def fetch(self, ref: TupleRef) -> Row:
        """Fetch the row behind a tuple ref."""
        table_name, pk = ref
        return self.table(table_name).get(pk)

    def fetch_or_none(self, ref: TupleRef) -> Optional[Row]:
        """Row behind a tuple ref, or None."""
        table_name, pk = ref
        if table_name not in self._tables:
            return None
        return self.table(table_name).get_or_none(pk)

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #

    def describe(self) -> str:
        """Human-readable summary (used by examples and the README)."""
        lines = [f"Database with {len(self._tables)} tables, {len(self)} tuples"]
        for name, table in self._tables.items():
            lines.append(f"  {name}: {len(table)} rows, pk={table.schema.primary_key}")
        for fk in self.schema.foreign_keys:
            lines.append(f"  FK {fk}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Database(tables={list(self._tables)}, tuples={len(self)})"

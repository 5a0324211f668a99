"""CSV ingestion, column-kind inference, metadata validation, and seeded splits.

Tables are held column-major: numeric columns as float64 arrays, categorical
columns as integer codes plus a per-column category table. A ``Dataset`` is
immutable once built and safe to share across threads.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import compress, count, islice
from pathlib import Path
from typing import Container, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DuplicateColumnName,
    EmptyTable,
    InsufficientRows,
    LabelNotBinary,
    MetadataMismatch,
    ParseError,
    SchemaMismatch,
    ValidationFailure,
)

#: A parseable-as-numeric column with at most this many distinct values is
#: treated as categorical (it is usually a coded scale). Overridable through
#: ``Metadata.declared_kinds``.
CATEGORICAL_CARDINALITY_CUTOFF = 20

#: The only cell token treated as missing.
MISSING_TOKEN = ""

# A character no plain decimal holds. A plain decimal is an optional sign,
# ASCII digits with an optional fraction, and an optional exponent; this
# rejects "nan", "inf", underscores, spaces and other scripts' digits, which
# float() would accept. Over the remaining characters float() accepts exactly
# the plain decimals, so one search of a column's joined cells plus float()
# checks every cell.
_NON_NUMBER_CHAR = re.compile(r"[^0-9+\-.eE]")


def _read_json(path: str | Path):
    """Parse a JSON file, with or without a UTF-8 byte order mark; a file that
    is not UTF-8 JSON is a ValidationFailure."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8; nesting too deep
            raise ValidationFailure(f"{path}: not a UTF-8 JSON file: {exc}")


class ColumnKind(Enum):
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"


@dataclass(frozen=True)
class TableSchema:
    """Ordered (name, kind) pairs matching source-file column order."""

    columns: tuple[tuple[str, ColumnKind], ...]
    # Derived from ``columns`` once; every ``Dataset.column`` lookup reads it.
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(name for name, _ in self.columns)
        for name in names:
            if not name:
                raise DuplicateColumnName("empty column name")
        dupes = [n for n, c in Counter(names).items() if c > 1]
        if dupes:
            raise DuplicateColumnName(f"duplicate column name(s): {dupes}")
        object.__setattr__(self, "names", names)

    def kind_of(self, name: str) -> ColumnKind:
        for col, kind in self.columns:
            if col == name:
                return kind
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return name in self.names


@dataclass(frozen=True)
class Metadata:
    """User-declared label/protected-attribute information for a table."""

    label_column: str
    positive_label: str
    protected_attributes: tuple[str, ...] = ()
    declared_kinds: Mapping[str, ColumnKind] | None = None

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "Metadata":
        try:
            label = doc["label"]
            label_column = label["column"]
            positive_label = label["positive"]
        except (KeyError, TypeError) as exc:
            raise MetadataMismatch(f"metadata JSON missing label fields: {exc}")
        if not (isinstance(label_column, str) and isinstance(positive_label, str)):
            raise MetadataMismatch("metadata label column and positive label must be strings")
        try:
            protected = tuple(doc.get("protected", ()))
            columns = doc.get("columns") or {}
            declared = {name: ColumnKind(spec["kind"]) for name, spec in columns.items()}
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise MetadataMismatch(f"metadata JSON has malformed protected/columns fields: {exc}")
        return cls(label_column, positive_label, protected, declared or None)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "Metadata":
        return cls.from_json_dict(_read_json(path))

    def to_json_dict(self) -> dict:
        doc: dict = {
            "label": {"column": self.label_column, "positive": self.positive_label},
            "protected": list(self.protected_attributes),
        }
        if self.declared_kinds:
            doc["columns"] = {
                name: {"kind": kind.value} for name, kind in self.declared_kinds.items()
            }
        return doc


@dataclass(frozen=True)
class SplitSpec:
    train_rows: int
    holdout_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.train_rows <= 0:
            raise InsufficientRows("train_rows must be positive")
        if not (0.0 < self.holdout_fraction < 1.0):
            raise InsufficientRows("holdout_fraction must lie in (0, 1)")
        if self.seed < 0:
            raise ValidationFailure("seed must be non-negative")


@dataclass(frozen=True)
class NumericColumn:
    values: np.ndarray  # float64, finite

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=np.float64)
        if arr.size and not np.isfinite(arr).all():
            raise ParseError(0, "numeric column contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self):
        return len(self.values)

    def decoded(self) -> np.ndarray:
        return self.values


@dataclass(frozen=True)
class CategoricalColumn:
    codes: np.ndarray  # int32 indices into categories
    categories: tuple[str, ...]

    def __post_init__(self):
        arr = np.ascontiguousarray(self.codes, dtype=np.int32)
        arr.setflags(write=False)
        object.__setattr__(self, "codes", arr)
        object.__setattr__(self, "categories", tuple(self.categories))

    def __len__(self):
        return len(self.codes)

    def decoded(self) -> np.ndarray:
        table = np.array(self.categories, dtype=object)
        if len(self.codes) == 0:
            return np.array([], dtype=object)
        return table[self.codes]

    @classmethod
    def from_values(cls, values: Iterable[str]) -> "CategoricalColumn":
        """Intern string values in first-appearance order."""
        values = list(values)
        table = dict(zip(dict.fromkeys(values), count()))
        codes = np.fromiter(map(table.__getitem__, values), np.int32, len(values))
        return cls(codes, tuple(table))


Column = NumericColumn | CategoricalColumn


@dataclass(frozen=True)
class IngestStats:
    rows_read: int
    rows_dropped: int
    imputed: Mapping[str, int]


@dataclass(frozen=True, eq=False)
class Dataset:
    schema: TableSchema
    columns: tuple[Column, ...]
    ingest: IngestStats | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.columns) != len(self.schema.columns):
            raise SchemaMismatch("column count does not match schema")
        lengths = {len(c) for c in self.columns}
        if len(lengths) > 1:
            raise SchemaMismatch(f"ragged columns: lengths {sorted(lengths)}")
        for (name, kind), col in zip(self.schema.columns, self.columns):
            want = NumericColumn if kind is ColumnKind.NUMERIC else CategoricalColumn
            if not isinstance(col, want):
                raise SchemaMismatch(f"column {name!r} does not match declared kind")

    @property
    def row_count(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def column(self, name: str) -> Column:
        return self.columns[self.schema.names.index(name)]

    def decoded(self, name: str) -> np.ndarray:
        return self.column(name).decoded()

    def take(self, indices: np.ndarray) -> "Dataset":
        indices = np.asarray(indices)
        out = []
        for col in self.columns:
            if isinstance(col, NumericColumn):
                out.append(NumericColumn(col.values[indices]))
            else:
                out.append(CategoricalColumn(col.codes[indices], col.categories))
        return Dataset(self.schema, tuple(out))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if self.schema != other.schema or self.row_count != other.row_count:
            return False
        for a, b in zip(self.columns, other.columns):
            if isinstance(a, NumericColumn):
                if not np.array_equal(a.values, b.values):
                    return False
            else:
                # Compare decoded text so code-table permutations do not matter.
                if not np.array_equal(a.decoded(), b.decoded()):
                    return False
        return True


def _parse_numeric(cells: Sequence[str]) -> np.ndarray | None:
    """Parse a column's cells, missing cells as nan; None unless every
    non-missing cell is a plain, finite decimal."""
    # The missing token "" is the only falsy cell, so filter(None, ...) and
    # map(bool, ...) pick out the present cells without a Python-level loop.
    if _NON_NUMBER_CHAR.search("".join(cells)):
        return None
    n_missing = cells.count(MISSING_TOKEN)
    try:
        values = np.fromiter(map(float, filter(None, cells)), np.float64, len(cells) - n_missing)
    except ValueError:  # such as "1e", "." or "1+2"
        return None
    if np.isinf(values).any():  # overflow, such as "1e999"
        return None
    if not n_missing:
        return values
    out = np.full(len(cells), np.nan)
    out[np.fromiter(map(bool, cells), bool, len(cells))] = values
    return out


def infer_schema(
    header: Sequence[str],
    columns: Sequence[list[str] | np.ndarray],
    declared_kinds: Mapping[str, ColumnKind] | None = None,
) -> tuple[TableSchema, list[np.ndarray | None]]:
    """Infer per-column kinds from raw string cells, given column by column.

    A column is numeric iff every non-missing cell parses as a plain decimal
    number and the distinct parsed values exceed the cardinality cutoff;
    declared kinds always win. The rule sees only which cells occur, so a
    column may be given by its distinct cells, or by its parsed values (a
    float64 array, nan where missing) when every cell is known to parse. Also
    returns per column the parsed values of a numeric column when known (not
    for a declared-numeric column given as cells), else None, so ingest
    parses each cell once.
    """
    if not header or not len(columns[0]):
        raise EmptyTable("table needs at least one column and one data row")
    declared = declared_kinds or {}
    kinds = []
    parsed: list[np.ndarray | None] = []
    for name, cells in zip(header, columns):
        values = cells if isinstance(cells, np.ndarray) else None
        if name in declared:
            kind = declared[name]
        else:
            if values is None:
                values = _parse_numeric(cells)
            if values is not None:
                distinct = np.unique(values[~np.isnan(values)])
                if len(distinct) <= CATEGORICAL_CARDINALITY_CUTOFF:
                    values = None
            kind = ColumnKind.CATEGORICAL if values is None else ColumnKind.NUMERIC
        kinds.append((name, kind))
        parsed.append(values if kind is ColumnKind.NUMERIC else None)
    return TableSchema(tuple(kinds)), parsed


# Rows move from the CSV reader into per-column lists this many at a time.
# No table-sized list of row lists is ever alive, and a block stays below
# CPython's first-generation collection threshold (700 container allocations
# by default in 3.11), so its row lists are freed before any collector pass
# has to traverse them.
_READ_BLOCK_ROWS = 256


def _checked_rows(reader, width: int):
    """Yield the reader's rows; a row of another width is a ParseError at the
    physical line where it ends."""
    for row in reader:
        if len(row) != width:
            raise ParseError(reader.line_num, f"expected {width} fields, found {len(row)}")
        yield row


def _read_cells(
    fh, stamp: os.stat_result, header: list[str], n_rows: int, indices: list[int]
) -> list[list[str]]:
    """The cells of the columns at ``indices``, in file order, from a second
    read of ``fh`` from its start. A file whose size, modification time,
    header, row widths or row count differ from the first read's (``stamp``,
    ``header``, ``n_rows``) is a ValidationFailure."""
    changed = ValidationFailure(f"{fh.name}: file changed while it was read")
    now = os.fstat(fh.fileno())
    if (now.st_size, now.st_mtime_ns) != (stamp.st_size, stamp.st_mtime_ns):
        raise changed
    fh.seek(0)
    reader = csv.reader(fh)
    cells: list[list[str]] = [[] for _ in indices]
    try:
        if next(reader, None) != header:
            raise changed
        while block := list(islice(reader, _READ_BLOCK_ROWS)):
            if any(len(row) != len(header) for row in block):
                raise changed
            by_column = list(zip(*block))
            for out, j in zip(cells, indices):
                out.extend(by_column[j])
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationFailure(f"{fh.name}: unreadable as UTF-8 CSV: {exc}")
    if len(cells[0]) != n_rows:
        raise changed
    return cells


def _read_csv(
    csv_path: str | Path, text_columns: Container[str] = ()
) -> tuple[list[str], list, int]:
    """Read an RFC-4180 CSV column by column, skipping a UTF-8 byte order mark;
    returns (header, columns, row count). Each column is (keys, codes) with
    ``keys[codes]`` its cells in file order: its distinct cells in first-
    appearance order while it has at most the cutoff plus one (the missing
    token), or while every cell parses and they hold at most the cutoff
    distinct values. Past that, codes are None and keys are either the
    column's float64 values (nan where missing), parsed per read block while
    every cell is a plain decimal or missing, or else all its cells.

    Columns named in ``text_columns``, and every column of an input that
    cannot be read twice (a pipe), are never parsed. A column that stops
    parsing partway through a file is read once more for its cells."""
    with open(csv_path, newline="", encoding="utf-8-sig") as fh:
        stamp = os.fstat(fh.fileno())
        reader = csv.reader(fh)
        try:
            header = next(reader)
            seekable = fh.seekable()
            parse = [seekable and name not in text_columns for name in header]
            # A cell's code is its table's size when first seen: first-
            # appearance order, assigned inside map() without a Python loop.
            tables: list[dict[str, int] | None] = [defaultdict(count().__next__) for _ in header]
            # Codes while interned; past the limit the parsed blocks, or the
            # cells, or None for a column whose cells must be read again.
            columns: list = [array("i") for _ in header]
            # Distinct values among an interned column's first checked[j] keys,
            # kept once it is past the cutoff plus one keys that all parse.
            distinct: list[set[float]] = [set() for _ in header]
            checked = [0] * len(header)
            numeric = [False] * len(header)
            n_rows = 0
            rows = _checked_rows(reader, len(header))
            while block := list(islice(rows, _READ_BLOCK_ROWS)):
                n_rows += len(block)
                for j, cells in enumerate(zip(*block)):
                    table = tables[j]
                    if table is not None:
                        columns[j].extend(map(table.__getitem__, cells))
                        n_keys = len(table)
                        if n_keys <= CATEGORICAL_CARDINALITY_CUTOFF + 1 or n_keys == checked[j]:
                            continue
                        keys = list(table)
                        values = _parse_numeric(keys[checked[j] :])
                        checked[j] = n_keys
                        if values is not None:
                            distinct[j].update(values[~np.isnan(values)].tolist())
                            if len(distinct[j]) <= CATEGORICAL_CARDINALITY_CUTOFF:
                                continue  # categorical by value so far
                        numeric[j] = values is not None and parse[j]
                        if numeric[j]:
                            values = _parse_numeric(keys)
                            columns[j] = [values[np.frombuffer(columns[j], np.int32)]]
                        else:
                            columns[j] = list(map(keys.__getitem__, columns[j]))
                        tables[j] = None
                    elif numeric[j]:
                        values = _parse_numeric(cells)
                        if values is None:
                            columns[j], numeric[j] = None, False
                        else:
                            columns[j].append(values)
                    elif columns[j] is not None:
                        columns[j].extend(cells)
        except StopIteration:
            raise EmptyTable(f"{csv_path}: no header row")
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValidationFailure(f"{csv_path}: unreadable as UTF-8 CSV: {exc}")
        stale = [j for j, column in enumerate(columns) if column is None]
        if stale:
            for j, cells in zip(stale, _read_cells(fh, stamp, header, n_rows, stale)):
                columns[j] = cells
    return header, [
        (list(table), np.frombuffer(column, np.int32))
        if table is not None
        else (np.concatenate(column) if is_numeric else column, None)
        for table, column, is_numeric in zip(tables, columns, numeric)
    ], n_rows


def _impute_numeric(values: np.ndarray, name: str) -> tuple[NumericColumn, int]:
    missing = np.isnan(values)
    if missing.all():
        raise MetadataMismatch(f"numeric column {name!r} has no values to impute from")
    values[missing] = np.median(values[~missing])
    return NumericColumn(values), int(missing.sum())


def _kept_rows(keys: list[str], codes: np.ndarray | None, keep: np.ndarray) -> tuple:
    """A column restricted to the kept rows; a coded column keeps only the
    keys those rows use, renumbered by first appearance among them."""
    if codes is None:
        return list(compress(keys, keep.tolist())), None
    used, first, inverse = np.unique(codes[keep], return_index=True, return_inverse=True)
    order = np.argsort(first)
    return [keys[k] for k in used[order].tolist()], np.argsort(order)[inverse]


def _impute_mode(keys: list[str], codes: np.ndarray, name: str) -> tuple[CategoricalColumn, int]:
    """Categories of a coded column whose keys all occur. The missing key is
    replaced by the mode (ties broken by text), which takes its place in
    first-appearance order; ``keys`` is overwritten."""
    if MISSING_TOKEN not in keys:
        return CategoricalColumn(codes, keys), 0
    if len(keys) == 1:
        raise MetadataMismatch(f"categorical column {name!r} has no values to impute from")
    missing = keys.index(MISSING_TOKEN)
    counts = np.bincount(codes, minlength=len(keys))
    imputed = int(counts[missing])
    counts[missing] = 0
    top = counts.max()
    keys[missing] = min(k for k, c in zip(keys, counts.tolist()) if c == top)
    table = CategoricalColumn.from_values(keys)
    return CategoricalColumn(table.codes[codes], table.categories), imputed


def load_dataset(
    csv_path: str | Path, metadata: Metadata, require_binary_label: bool = True
) -> Dataset:
    """Load a CSV into a ``Dataset`` under ``metadata``.

    Rows missing the label or any protected attribute are dropped; other
    missing cells are imputed (numeric: column median, categorical: column
    mode). Drop/impute counts land in ``Dataset.ingest``. Every protected
    attribute must be categorical and differ from the label column.

    ``require_binary_label=False`` admits single-class labels, with or without
    the positive label; synthetic backend output may legitimately collapse to
    one class and is flagged as degenerate downstream instead of rejected here.
    """
    declared = metadata.declared_kinds or {}
    header, read, n_rows = _read_csv(
        csv_path, {name for name, kind in declared.items() if kind is ColumnKind.CATEGORICAL}
    )
    if not n_rows:
        raise EmptyTable(f"{csv_path}: no data rows")

    required = [metadata.label_column, *metadata.protected_attributes]
    for col in required:
        if col not in header:
            raise MetadataMismatch(f"column {col!r} declared in metadata is absent")
    if metadata.label_column in metadata.protected_attributes:
        raise MetadataMismatch(
            f"label column {metadata.label_column!r} is also a protected attribute"
        )

    schema, parsed = infer_schema(header, [keys for keys, _ in read], declared)
    if schema.kind_of(metadata.label_column) is not ColumnKind.CATEGORICAL:
        raise LabelNotBinary(
            f"label column {metadata.label_column!r} is numeric, not a binary category"
        )
    for col in metadata.protected_attributes:
        if schema.kind_of(col) is not ColumnKind.CATEGORICAL:
            raise MetadataMismatch(f"protected attribute {col!r} is numeric, not categorical")
    # _read_csv parses no column declared categorical and none with at most
    # the cutoff distinct values, so a categorical column is coded or cells.
    for j, (_, kind) in enumerate(schema.columns):
        if kind is ColumnKind.CATEGORICAL and read[j][1] is None:
            interned = CategoricalColumn.from_values(read[j][0])
            read[j] = list(interned.categories), interned.codes

    # A row is kept iff none of its required cells is the missing token.
    keep = np.ones(n_rows, dtype=bool)
    for col in required:
        keys, codes = read[header.index(col)]
        if MISSING_TOKEN in keys:
            keep &= codes != keys.index(MISSING_TOKEN)
    dropped = n_rows - int(np.count_nonzero(keep))
    if dropped == n_rows:
        raise EmptyTable("all rows dropped: label or protected attribute always missing")

    columns: list[Column] = []
    imputed_counts: dict[str, int] = {}
    for (name, kind), (keys, codes), values in zip(schema.columns, read, parsed):
        if values is not None:  # numeric, parsed per key or per cell of all rows
            if codes is not None:
                values = values[codes]
            column, n_imputed = _impute_numeric(values[keep] if dropped else values, name)
        else:
            if dropped:
                keys, codes = _kept_rows(keys, codes, keep)
            if kind is ColumnKind.CATEGORICAL:
                column, n_imputed = _impute_mode(keys, codes, name)
            else:  # declared numeric: only the kept cells must parse
                values = _parse_numeric(keys)
                if values is None:
                    bad = next(c for c in keys if _parse_numeric([c]) is None)
                    raise ParseError(0, f"column {name!r}: non-numeric cell {bad!r}")
                if codes is not None:
                    values = values[codes]
                column, n_imputed = _impute_numeric(values, name)
        columns.append(column)
        if n_imputed:
            imputed_counts[name] = n_imputed

    dataset = Dataset(
        schema,
        tuple(columns),
        IngestStats(rows_read=n_rows, rows_dropped=dropped, imputed=imputed_counts),
    )

    label_values = set(dataset.column(metadata.label_column).categories)
    if require_binary_label and len(label_values) != 2:
        raise LabelNotBinary(
            f"label column {metadata.label_column!r} has {len(label_values)} distinct "
            f"values, expected 2"
        )
    if require_binary_label and metadata.positive_label not in label_values:
        raise MetadataMismatch(
            f"positive label {metadata.positive_label!r} does not occur in label column "
            f"{metadata.label_column!r}"
        )
    return dataset


def load_synthetic(csv_path: str | Path, metadata: Metadata, schema: TableSchema) -> Dataset:
    """Load synthetic rows with ``schema``'s column kinds forced, so kind
    inference cannot drift from the real table. A single-class label is
    admitted; it is flagged as degenerate downstream."""
    pinned = replace(metadata, declared_kinds=dict(schema.columns))
    return load_dataset(csv_path, pinned, require_binary_label=False)


# Rows go to the file this many at a time, each block as one joined string.
_WRITE_BLOCK_ROWS = 1024


def write_csv(dataset: Dataset, csv_path: str | Path) -> None:
    """Write a Dataset as RFC-4180 CSV (CRLF, UTF-8, minimal quoting); floats
    use the shortest round-trip form.

    The bytes are ``csv.writer``'s: each category is quoted once by the
    writer itself, in a row of the table's width so that a lone empty field
    reads ``""``, and ``repr`` of a finite float never needs quoting."""
    lone = len(dataset.columns) == 1
    buf = io.StringIO()
    writer = csv.writer(buf)

    def quoted(category: str) -> str:
        buf.seek(0)
        buf.truncate()
        writer.writerow([category] if lone else [category, ""])
        return buf.getvalue()[: -2 if lone else -3]  # drop "\r\n" or ",\r\n"

    tables = [
        None if isinstance(col, NumericColumn) else list(map(quoted, col.categories))
        for col in dataset.columns
    ]
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(dataset.schema.names)
        for start in range(0, dataset.row_count, _WRITE_BLOCK_ROWS):
            rows = slice(start, start + _WRITE_BLOCK_ROWS)
            cells = [
                map(repr, col.values[rows].tolist())
                if table is None
                else map(table.__getitem__, col.codes[rows].tolist())
                for col, table in zip(dataset.columns, tables)
            ]
            fh.write("\r\n".join(map(",".join, zip(*cells))))
            fh.write("\r\n")


def split_holdout(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Deterministic seeded split: the last ceil(n*fraction) shuffled rows are
    the holdout; the first ``train_rows`` of the remainder are the train set."""
    n = data.row_count
    n_holdout = holdout_size(n, spec.holdout_fraction)
    available = n - n_holdout
    if spec.train_rows > available:
        raise InsufficientRows(
            f"train_rows={spec.train_rows} exceeds {available} rows available "
            f"after holding out {n_holdout} of {n}"
        )
    perm = np.random.default_rng(spec.seed).permutation(n)
    train = data.take(perm[: spec.train_rows])
    holdout = data.take(perm[available:])
    return train, holdout


def holdout_size(row_count: int, holdout_fraction: float) -> int:
    # The 1e-9 slack cancels float noise such as 10*0.3 == 3.0000000000000004.
    return math.ceil(row_count * holdout_fraction - 1e-9)

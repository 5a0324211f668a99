"""CSV ingestion, column-kind inference, metadata validation, and seeded splits.

Tables are held column-major: numeric columns as float64 arrays, categorical
columns as integer codes plus a per-column category table. A ``Dataset`` is
immutable once built and safe to share across threads.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

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

# Plain decimal syntax with optional exponent; deliberately rejects
# "nan"/"inf"/underscores so ingested numerics are always finite.
_NUMBER_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?\Z")


def _read_json(path: str | Path):
    """Parse a JSON file; a file that is not UTF-8 JSON is a ValidationFailure."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8; nesting too deep
            raise ValidationFailure(f"{path}: not a UTF-8 JSON file: {exc}")


class ColumnKind(Enum):
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"


def parse_number(token: str) -> float | None:
    """Return the float value of ``token`` or None when it is not a plain,
    finite decimal literal."""
    if not _NUMBER_RE.match(token):
        return None
    value = float(token)
    if not math.isfinite(value):
        return None
    return value


@dataclass(frozen=True)
class TableSchema:
    """Ordered (name, kind) pairs matching source-file column order."""

    columns: tuple[tuple[str, ColumnKind], ...]

    def __post_init__(self):
        names = [name for name, _ in self.columns]
        for name in names:
            if not name:
                raise DuplicateColumnName("empty column name")
        dupes = [n for n, c in Counter(names).items() if c > 1]
        if dupes:
            raise DuplicateColumnName(f"duplicate column name(s): {dupes}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.columns)

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
        table: dict[str, int] = {}
        codes = []
        for v in values:
            code = table.setdefault(v, len(table))
            codes.append(code)
        return cls(np.array(codes, dtype=np.int32), tuple(table))


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


def infer_schema(
    header: Sequence[str],
    rows: Sequence[Sequence[str]],
    declared_kinds: Mapping[str, ColumnKind] | None = None,
) -> TableSchema:
    """Infer per-column kinds from raw string cells.

    A column is numeric iff every non-missing cell parses as a plain decimal
    number and the distinct parsed values exceed the cardinality cutoff;
    declared kinds always win.
    """
    if not header or not rows:
        raise EmptyTable("table needs at least one column and one data row")
    declared = declared_kinds or {}
    columns = []
    for j, name in enumerate(header):
        if name in declared:
            columns.append((name, declared[name]))
            continue
        distinct: set[float] = set()
        all_numeric = True
        for row in rows:
            token = row[j]
            if token == MISSING_TOKEN:
                continue
            value = parse_number(token)
            if value is None:
                all_numeric = False
                break
            distinct.add(value)
        numeric = all_numeric and len(distinct) > CATEGORICAL_CARDINALITY_CUTOFF
        columns.append((name, ColumnKind.NUMERIC if numeric else ColumnKind.CATEGORICAL))
    return TableSchema(tuple(columns))


def _read_csv(csv_path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Read an RFC-4180 CSV; returns (header, rows)."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            rows = []
            for row in reader:
                if len(row) != len(header):
                    raise ParseError(
                        reader.line_num,
                        f"expected {len(header)} fields, found {len(row)}",
                    )
                rows.append(row)
        except StopIteration:
            raise EmptyTable(f"{csv_path}: no header row")
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValidationFailure(f"{csv_path}: unreadable as UTF-8 CSV: {exc}")
    return header, rows


def _impute_numeric(cells: list[str], name: str) -> tuple[np.ndarray, int]:
    # A missing cell parses to nan, which parse_number never returns.
    parsed = [math.nan if c == MISSING_TOKEN else parse_number(c) for c in cells]
    if None in parsed:
        bad = cells[parsed.index(None)]
        raise ParseError(0, f"column {name!r}: non-numeric cell {bad!r}")
    values = np.array(parsed, dtype=np.float64)
    missing = np.isnan(values)
    if missing.all():
        raise MetadataMismatch(f"numeric column {name!r} has no values to impute from")
    values[missing] = np.median(values[~missing])
    return values, int(missing.sum())


def _impute_categorical(cells: list[str], name: str) -> tuple[list[str], int]:
    present = [c for c in cells if c != MISSING_TOKEN]
    if not present:
        raise MetadataMismatch(f"categorical column {name!r} has no values to impute from")
    counts = Counter(present)
    # Mode; ties broken by value text ascending for determinism.
    mode = min(counts, key=lambda c: (-counts[c], c))
    imputed = sum(1 for c in cells if c == MISSING_TOKEN)
    return [mode if c == MISSING_TOKEN else c for c in cells], imputed


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
    header, rows = _read_csv(csv_path)
    if not rows:
        raise EmptyTable(f"{csv_path}: no data rows")

    required = [metadata.label_column, *metadata.protected_attributes]
    for col in required:
        if col not in header:
            raise MetadataMismatch(f"column {col!r} declared in metadata is absent")
    if metadata.label_column in metadata.protected_attributes:
        raise MetadataMismatch(
            f"label column {metadata.label_column!r} is also a protected attribute"
        )

    schema = infer_schema(header, rows, metadata.declared_kinds)
    if schema.kind_of(metadata.label_column) is not ColumnKind.CATEGORICAL:
        raise LabelNotBinary(
            f"label column {metadata.label_column!r} is numeric, not a binary category"
        )
    for col in metadata.protected_attributes:
        if schema.kind_of(col) is not ColumnKind.CATEGORICAL:
            raise MetadataMismatch(f"protected attribute {col!r} is numeric, not categorical")

    required_idx = [header.index(c) for c in required]
    kept = [row for row in rows if all(row[j] != MISSING_TOKEN for j in required_idx)]
    dropped = len(rows) - len(kept)
    if not kept:
        raise EmptyTable("all rows dropped: label or protected attribute always missing")

    columns: list[Column] = []
    imputed_counts: dict[str, int] = {}
    for j, (name, kind) in enumerate(schema.columns):
        cells = [row[j] for row in kept]
        if kind is ColumnKind.NUMERIC:
            values, n_imputed = _impute_numeric(cells, name)
            columns.append(NumericColumn(values))
        else:
            values, n_imputed = _impute_categorical(cells, name)
            columns.append(CategoricalColumn.from_values(values))
        if n_imputed:
            imputed_counts[name] = n_imputed

    dataset = Dataset(
        schema,
        tuple(columns),
        IngestStats(rows_read=len(rows), rows_dropped=dropped, imputed=imputed_counts),
    )

    label_values = set(dataset.decoded(metadata.label_column).tolist())
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


def write_csv(dataset: Dataset, csv_path: str | Path) -> None:
    """Write a Dataset as RFC-4180 CSV (CRLF, UTF-8, minimal quoting); floats
    use the shortest round-trip form."""
    columns = [
        map(repr, col.values.tolist()) if isinstance(col, NumericColumn) else col.decoded().tolist()
        for col in dataset.columns
    ]
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.schema.names)
        writer.writerows(zip(*columns))


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

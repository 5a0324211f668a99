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
import re
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, count, filterfalse, islice, repeat
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

# The characters of a plain decimal: an optional sign, ASCII digits with an
# optional fraction, and an optional exponent. Any other character rules out
# "nan", "inf", underscores, spaces and other scripts' digits, which float()
# would accept. Over these characters float() accepts exactly the plain
# decimals, so one screen of a column's joined cells plus float() checks
# every cell.
_DECIMAL_BYTES = b"0123456789+-.eE"
_NON_NUMBER_CHAR = re.compile(f"[^{re.escape(_DECIMAL_BYTES.decode())}]")


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
        protected = doc.get("protected", [])
        if not (isinstance(protected, list) and all(isinstance(p, str) for p in protected)):
            raise MetadataMismatch('metadata "protected" must be a list of column names')
        columns = doc.get("columns", {})
        if not isinstance(columns, dict):
            raise MetadataMismatch(
                "metadata JSON has a malformed columns field: expected an object, not "
                f"{type(columns).__name__}"
            )
        try:
            declared = {name: ColumnKind(spec["kind"]) for name, spec in columns.items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise MetadataMismatch(f"metadata JSON has a malformed columns field: {exc}")
        return cls(label_column, positive_label, tuple(protected), declared or None)

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
            raise ParseError(None, "numeric column contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self):
        return len(self.values)

    def decoded(self) -> np.ndarray:
        return self.values


def _unit_scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(``values`` times 2**-e, e): a copy whose largest magnitude lies in
    [0.5, 1), and the exponent that scales it back. Exact for every value
    that stays a normal float. The mean and variance of a non-constant copy
    neither overflow nor underflow to 0, and scaled back by ``math.ldexp``
    they have the bits of those of ``values`` wherever these do neither."""
    _, e = math.frexp(max(float(values.max()), -float(values.min())))
    return np.ldexp(values, -e), e


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
        return np.array(self.categories, dtype=object)[self.codes]

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
    # Deleting the decimal characters leaves nothing iff no cell holds another.
    joined = "".join(cells)
    if not joined.isascii() or joined.encode("ascii").translate(None, _DECIMAL_BYTES):
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


# The body is read this many physical lines at a time. A block that csv.reader
# reads becomes row lists; a block stays below CPython's first-generation
# collection threshold (700 container allocations by default in 3.11), so its
# row lists are freed before any collector pass has to traverse them.
_READ_BLOCK_ROWS = 256


def _read_blocks(fh, width: int, line: int):
    """Yield the rows of ``fh`` one read block at a time, as (row count, the
    block's cells of each column); ``line`` is the physical line the rows
    start after. A row of another width is a ParseError at the physical line
    where it ends.

    A block without a '"' is split here. Its lines end in "\\r\\n", "\\n" or
    "\\r", the only line ends of a ``newline=""`` stream, so every other
    character is cell text, and a line holds one field more than it holds
    commas unless it is blank: csv.reader reads a blank line as a row of 0
    fields. A block with a '"', or too long for csv.reader's field limit, is
    read by csv.reader until it has consumed the block's lines; a quoted cell
    may carry it on into the stream. A UnicodeDecodeError is raised once
    the lines read before it are checked, so errors come in file order."""
    limit = csv.field_size_limit()
    while True:
        lines, unreadable = [], None
        try:
            lines += islice(fh, _READ_BLOCK_ROWS)  # keeps the lines read before an error
        except UnicodeDecodeError as exc:
            unreadable = exc
        text = "".join(lines)
        if '"' in text or len(text) > limit:
            reader = csv.reader(chain(lines, () if unreadable else fh))
            rows = []
            for row in reader:
                if len(row) != width:
                    message = f"expected {width} fields, found {len(row)}"
                    raise ParseError(line + reader.line_num, message)
                rows.append(row)
                if reader.line_num >= len(lines):
                    break
            line += reader.line_num
            block = list(zip(*rows))
        else:
            rows = list(map(str.rstrip, lines, repeat("\r\n")))
            commas = list(map(str.count, rows, repeat(",")))
            if commas.count(width - 1) != len(rows) or (width == 1 and "" in rows):
                for i, (row, n_commas) in enumerate(zip(rows, commas)):
                    found = n_commas + 1 if row else 0
                    if found != width:
                        raise ParseError(line + i + 1, f"expected {width} fields, found {found}")
            flat = ",".join(rows).split(",")
            line += len(rows)
            block = [flat[j::width] for j in range(width)]
        if unreadable:
            raise unreadable
        if not rows:
            return
        yield len(rows), block


def _parse_or_stray(cells: Sequence[str]) -> tuple[np.ndarray, list[int]]:
    """Parse cells as ``_parse_numeric`` does, but read a cell that is not a
    plain decimal as missing; also returns the indices of those cells."""
    values = _parse_numeric(cells)
    if values is not None:
        return values, []
    bad = [i for i, cell in enumerate(cells) if _parse_numeric([cell]) is None]
    cells = list(cells)
    for i in bad:
        cells[i] = MISSING_TOKEN
    return _parse_numeric(cells), bad


def _stray_cell(name: str, cell: str, row: int, declared: bool = False) -> ParseError:
    """The error for a cell of a numbers column that is not a plain, finite
    decimal; ``declared``: the column was declared numeric. A plain decimal
    that float64 cannot hold is named as such: declaring a kind does not
    help it."""
    if _out_of_range(cell):
        message = f"cell {cell!r} in data row {row} is a number out of float64's range"
    elif declared:
        message = f"non-numeric cell {cell!r} in data row {row}"
    else:
        message = (
            f"non-numeric cell {cell!r} in data row {row}, among more than "
            f"{CATEGORICAL_CARDINALITY_CUTOFF} distinct numbers; declare the column's kind "
            f'under "columns" in the metadata'
        )
    return ParseError(None, f"column {name!r}: {message}")


def _out_of_range(cell: str) -> bool:
    """Whether ``cell`` is a plain decimal that float() reads as +-inf, such
    as "1e309"."""
    try:
        return not _NON_NUMBER_CHAR.search(cell) and math.isinf(float(cell))
    except ValueError:  # such as "1e" or "1+2"
        return False


def _first_stray_key(keys: list[str]) -> int | None:
    """The index of the first key that is neither missing nor a plain decimal,
    if the keys also hold more than the cutoff distinct plain decimals; else
    None."""
    values: set[float] = set()
    # A key holding a character no plain decimal holds is skipped at C speed,
    # so a text column costs no per-key parse; the scan stops past the cutoff.
    for key in filter(None, filterfalse(_NON_NUMBER_CHAR.search, keys)):
        if _parse_numeric([key]) is not None:
            values.add(float(key))
            if len(values) > CATEGORICAL_CARDINALITY_CUTOFF:
                return next(k for k, text in enumerate(keys) if _parse_numeric([text]) is None)
    return None


def _read_csv(
    csv_path: str | Path, declared_kinds: Mapping[str, ColumnKind], pinned: bool = False
) -> tuple[list[str], list, int, list[list[tuple[int, str]]]]:
    """Read an RFC-4180 CSV once, column by column, skipping a UTF-8 byte
    order mark; returns (header, columns, row count, strays).

    A declared column the header lacks is a MetadataMismatch, unless the
    kinds are ``pinned`` from a schema whose names the caller checks itself.

    Each column is either interned, as (keys, codes) with ``keys[codes]`` its
    cells in file order and keys in first-appearance order, or parsed, as
    (float64 values, None) with nan where missing, parsed one read block at a
    time. A declared kind holds from the first row: a column declared
    categorical is interned, one declared numeric parsed. An undeclared
    column is parsed from the block where it has more than the cutoff
    distinct cells that all parse and hold more than the cutoff distinct
    values, and interned until then or for good. So a column is numeric iff
    it comes back parsed. A file with no data row is an EmptyTable.

    An undeclared column with more than the cutoff distinct plain decimals
    and a cell that is neither missing nor a plain decimal is a ParseError
    naming its first such cell: a parsed column raises when it meets the
    cell, an interned one after the read. A column declared numeric reads
    such a cell as missing instead, and ``strays[j]`` lists the (row index,
    cell) of each in file order, so that only kept rows need to parse."""
    with open(csv_path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            absent = None if pinned else next((n for n in declared_kinds if n not in header), None)
            if absent is not None:
                raise MetadataMismatch(
                    f'column {absent!r} declared under "columns" in metadata is absent'
                )
            # A cell's code is its table's size when first seen: first-
            # appearance order, assigned inside map() without a Python loop.
            # A column's table is None while it is parsed. Its column holds
            # its codes while interned, its parsed blocks once parsed.
            parsed = [declared_kinds.get(name) is ColumnKind.NUMERIC for name in header]
            tables: list = [None if p else defaultdict(count().__next__) for p in parsed]
            columns: list = [[] if p else array("i") for p in parsed]
            # An interned column stays so for good once declared categorical or
            # once its keys do not all parse.
            text = [declared_kinds.get(name) is ColumnKind.CATEGORICAL for name in header]
            strays: list[list[tuple[int, str]]] = [[] for _ in header]
            n_rows = 0
            for n_block, block in _read_blocks(fh, len(header), reader.line_num):
                for j, cells in enumerate(block):
                    table = tables[j]
                    if table is None:
                        values, bad = _parse_or_stray(cells)
                        if bad and header[j] not in declared_kinds:
                            raise _stray_cell(header[j], cells[bad[0]], n_rows + bad[0] + 1)
                        strays[j] += [(n_rows + i, cells[i]) for i in bad]
                        columns[j].append(values)
                        continue
                    before = len(table)
                    columns[j].extend(map(table.__getitem__, cells))
                    n_keys = len(table)
                    if text[j] or n_keys == before or n_keys <= CATEGORICAL_CARDINALITY_CUTOFF:
                        continue
                    values = _parse_numeric(list(table))
                    if values is None:
                        text[j] = True
                    elif len(np.unique(values[~np.isnan(values)])) > CATEGORICAL_CARDINALITY_CUTOFF:
                        columns[j] = [values[np.frombuffer(columns[j], np.int32)]]
                        tables[j] = None
                n_rows += n_block
        except StopIteration:
            raise EmptyTable(f"{csv_path}: no header row")
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValidationFailure(f"{csv_path}: unreadable as UTF-8 CSV: {exc}")
    if not n_rows:
        raise EmptyTable(f"{csv_path}: no data rows")
    read = []
    for name, table, column, is_text in zip(header, tables, columns, text):
        if table is None:
            read.append((np.concatenate(column), None))
            continue
        keys, codes = list(table), np.frombuffer(column, np.int32)
        if is_text and name not in declared_kinds:
            k = _first_stray_key(keys)
            if k is not None:
                raise _stray_cell(name, keys[k], column.index(k) + 1)
        read.append((keys, codes))
    return header, read, n_rows, strays


def _impute_numeric(values: np.ndarray, name: str) -> tuple[NumericColumn, int]:
    missing = np.isnan(values)
    if missing.all():
        raise MetadataMismatch(f"numeric column {name!r} has no values to impute from")
    if missing.any():  # the median costs a copy and a partition
        values[missing] = np.median(values[~missing])
    return NumericColumn(values), int(missing.sum())


def _kept_rows(keys: list[str], codes: np.ndarray, keep: np.ndarray) -> tuple:
    """An interned column restricted to the kept rows: only the keys those
    rows use, renumbered by first appearance among them. The int32 codes are
    read through a key-sized table of new codes, so no full-length inverse
    of ``np.unique`` is built."""
    kept = codes[keep]
    used, first = np.unique(kept, return_index=True)
    used = used[np.argsort(first)]
    renumbered = np.empty(len(keys), np.int32)
    renumbered[used] = np.arange(len(used), dtype=np.int32)
    return [keys[k] for k in used.tolist()], np.take(renumbered, kept)


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
    csv_path: str | Path,
    metadata: Metadata,
    pinned: TableSchema | None = None,
) -> Dataset:
    """Load a CSV into a ``Dataset`` under ``metadata``.

    Rows missing the label or any protected attribute are dropped; other
    missing cells are imputed (numeric: column median, categorical: column
    mode). Drop/impute counts land in ``Dataset.ingest``. Every protected
    attribute must be categorical and differ from the label column.

    A column declared under ``metadata.declared_kinds`` must be in the file.
    An undeclared categorical column of more than the cutoff categories in
    which most kept rows hold a category of their own is rejected as an ID
    or free-text column. A ``pinned`` schema marks synthetic rows: its kinds
    replace the declared ones, so kind inference cannot drift from the real
    table; a schema column the file lacks is left to the caller's schema
    check; and a single-class label is admitted, with or without the
    positive label (synthetic output may collapse to one class; it is
    flagged as degenerate downstream instead of rejected here).
    """
    declared = (metadata.declared_kinds or {}) if pinned is None else dict(pinned.columns)
    header, read, n_rows, strays = _read_csv(csv_path, declared, pinned is not None)

    required = [metadata.label_column, *metadata.protected_attributes]
    for col in required:
        if col not in header:
            raise MetadataMismatch(f"column {col!r} declared in metadata is absent")
    if metadata.label_column in metadata.protected_attributes:
        raise MetadataMismatch(
            f"label column {metadata.label_column!r} is also a protected attribute"
        )

    schema = TableSchema(
        tuple(
            (name, ColumnKind.CATEGORICAL if codes is not None else ColumnKind.NUMERIC)
            for name, (_, codes) in zip(header, read)
        )
    )
    if schema.kind_of(metadata.label_column) is not ColumnKind.CATEGORICAL:
        raise LabelNotBinary(
            f"label column {metadata.label_column!r} is numeric, not a binary category"
        )
    for col in metadata.protected_attributes:
        if schema.kind_of(col) is not ColumnKind.CATEGORICAL:
            raise MetadataMismatch(f"protected attribute {col!r} is numeric, not categorical")

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
    for name, column_strays in zip(header, strays):
        # Each read column is let go once its column is built, so a load that
        # drops rows holds one column's copy at a time, not the whole table's.
        cells, codes = read.pop(0)
        if codes is not None:  # interned: the cells are its keys
            keys, codes = _kept_rows(cells, codes, keep) if dropped else (cells, codes)
            column, n_imputed = _impute_mode(keys, codes, name)
        else:
            # Parsed: the cells are its values. A declared column's stray
            # cells read as missing; only a kept one is an error.
            for row, cell in column_strays:
                if keep[row]:
                    raise _stray_cell(name, cell, row + 1, declared=True)
            column, n_imputed = _impute_numeric(cells[keep] if dropped else cells, name)
        columns.append(column)
        if n_imputed:
            imputed_counts[name] = n_imputed

    dataset = Dataset(
        schema,
        tuple(columns),
        IngestStats(rows_read=n_rows, rows_dropped=dropped, imputed=imputed_counts),
    )

    label_values = set(dataset.column(metadata.label_column).categories)
    if pinned is None and len(label_values) != 2:
        raise LabelNotBinary(
            f"label column {metadata.label_column!r} has {len(label_values)} distinct "
            f"values, expected 2"
        )
    if pinned is None and metadata.positive_label not in label_values:
        raise MetadataMismatch(
            f"positive label {metadata.positive_label!r} does not occur in label column "
            f"{metadata.label_column!r}"
        )
    for name, column in zip(header, columns):
        if isinstance(column, CategoricalColumn) and name not in declared:
            _reject_ids(name, column)
    return dataset


def _reject_ids(name: str, column: CategoricalColumn) -> None:
    """An undeclared categorical column with more than the cutoff categories,
    in which most rows hold a category no other row holds (a record ID or
    free text), is a ValidationFailure: every later stage would pay for a
    vocabulary as large as the table, and synthetic rows would replay its
    real cells."""
    if len(column.categories) <= CATEGORICAL_CARDINALITY_CUTOFF:
        return
    singles = int(np.count_nonzero(np.bincount(column.codes) == 1))
    if 2 * singles > len(column):
        raise ValidationFailure(
            f"column {name!r} looks like an ID or free text: {len(column.categories)} distinct "
            f"categories, and {singles} of its {len(column)} rows hold a category no other row "
            f'holds; drop the column, or declare its kind under "columns" in the metadata'
        )


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

import codecs
import csv
import io
import json
import math
import os
import re
import signal
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fairsynth import schema
from fairsynth.demo import DemoSpec, make_demo_dataset
from fairsynth.errors import (
    DuplicateColumnName,
    EmptyTable,
    InsufficientRows,
    LabelNotBinary,
    MetadataMismatch,
    ParseError,
    SchemaMismatch,
    ValidationFailure,
)
from fairsynth.schema import (
    _READ_BLOCK_ROWS,
    _WRITE_BLOCK_ROWS,
    _read_csv,
    CategoricalColumn,
    ColumnKind,
    Dataset,
    IngestStats,
    Metadata,
    NumericColumn,
    SplitSpec,
    TableSchema,
    holdout_size,
    _parse_numeric,
    load_dataset,
    split_holdout,
    write_csv,
)


def write_lines(path, lines):
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")


# Plain decimal syntax with optional exponent in ASCII digits; rejects
# "nan"/"inf"/underscores and other scripts' digits, which float() accepts.
_NUMBER_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?\Z", re.ASCII)


def parse_number(token: str) -> float | None:
    """The float value of ``token``, or None when it is not a plain, finite
    decimal literal: one cell at a time, the oracle for ``_parse_numeric``."""
    if not _NUMBER_RE.match(token):
        return None
    value = float(token)
    if not math.isfinite(value):
        return None
    return value


def _parsed(token: str) -> float | None:
    values = _parse_numeric([token])
    return None if values is None else float(values[0])


def test_parse_number_accepts_decimals_and_exponents():
    assert _parsed("1.5") == 1.5
    assert _parsed("-2") == -2.0
    assert _parsed("3e2") == 300.0
    assert _parsed(".5") == 0.5


def test_parse_number_rejects_non_numbers_and_non_finite():
    for token in ["M", "nan", "inf", "-inf", "1e999", "1.2.3", "0x10", " 1"]:
        assert _parsed(token) is None, token
    assert np.isnan(_parsed(""))  # the missing token parses as missing


def test_parse_number_rejects_non_ascii_digits():
    # float() reads Arabic-Indic and fullwidth digits; a plain decimal does not.
    assert _parsed("\u0661\u0662\u0663") is None
    assert _parsed("\uff11\uff12") is None


def test_one_scan_numeric_check_matches_parse_number():
    rng = np.random.default_rng(11)
    alphabet = np.array(list("0123456789+-.eE_ nNaIif\u0661\uff11"))
    weights = np.r_[np.full(10, 5.0), np.full(5, 4.0), np.ones(10)]
    picks = rng.choice(len(alphabet), size=(100_000, 7), p=weights / weights.sum())
    lengths = rng.integers(1, 8, len(picks))
    accepted = 0
    for row, length in zip(alphabet[picks].tolist(), lengths.tolist()):
        token = "".join(row[:length])
        want, got = parse_number(token), _parse_numeric([token])
        if want is None:
            assert got is None, token
        else:
            accepted += 1
            assert got is not None and got.tobytes() == np.float64(want).tobytes(), token
    assert accepted > 10_000


def test_categorical_ingest_peak_memory_stays_near_file_size(tmp_path, demo_md):
    data = make_demo_dataset(DemoSpec(n_rows=50_000, seed=5))
    names = [name for name, kind in data.schema.columns if kind is ColumnKind.CATEGORICAL]
    assert len(names) == 4
    schema = TableSchema(tuple((name, ColumnKind.CATEGORICAL) for name in names))
    p = tmp_path / "categorical.csv"
    write_csv(Dataset(schema, tuple(data.column(name) for name in names)), p)
    tracemalloc.start()
    try:
        loaded = load_dataset(p, demo_md)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.row_count == 50_000
    # Per-cell strings of four low-cardinality columns would cost several
    # times the file; codes cost four bytes a cell.
    assert peak < 3 * p.stat().st_size


def test_dropping_a_row_does_not_copy_the_table_at_once(tmp_path, demo_md):
    full, dropped = tmp_path / "full.csv", tmp_path / "dropped.csv"
    write_csv(make_demo_dataset(DemoSpec(n_rows=50_000, seed=11)), full)
    lines = full.read_bytes().split(b"\r\n")
    cells = lines[1000].split(b",")
    cells[lines[0].split(b",").index(b"Diagnosis")] = b""
    lines[1000] = b",".join(cells)
    dropped.write_bytes(b"\r\n".join(lines))
    peaks = []
    for p in (full, dropped):
        tracemalloc.start()
        try:
            loaded = load_dataset(p, demo_md)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert loaded.row_count == 49_999 and loaded.ingest.rows_dropped == 1
    # Copying every kept column while the read table is alive, or a
    # full-length int64 inverse per categorical column, would double the
    # peak of the load that drops nothing.
    assert peaks[1] < 1.2 * peaks[0], peaks


def test_byte_order_mark_skipped_on_read_and_never_written(tmp_path, demo_data, demo_md):
    plain = tmp_path / "plain.csv"
    write_csv(demo_data, plain)
    assert not plain.read_bytes().startswith(codecs.BOM_UTF8)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    md_path = tmp_path / "metadata.json"
    md_path.write_bytes(codecs.BOM_UTF8 + json.dumps(demo_md.to_json_dict()).encode("utf-8"))
    md = Metadata.from_json_file(md_path)
    assert md == demo_md
    assert load_dataset(bom, md) == load_dataset(plain, md)


def test_metadata_json_file_round_trips(tmp_path):
    """Declared kinds and names with quotes, backslashes and non-ASCII
    characters come back as they went, from indented JSON with a trailing
    newline and the BOM-free UTF-8 bytes of ``json.dumps``."""
    md = Metadata(
        'Diagnose "Ä"',
        "positiv\\ja",
        ("Ethnie", "région"),
        {"symptôme": ColumnKind.NUMERIC, 'site "α"': ColumnKind.CATEGORICAL},
    )
    path = tmp_path / "metadata.json"
    md.to_json_file(path)
    assert Metadata.from_json_file(path) == md
    assert path.read_bytes() == (json.dumps(md.to_json_dict(), indent=2) + "\n").encode("ascii")


def test_metadata_protected_must_be_a_list_of_strings():
    doc = {"label": {"column": "Diagnosis", "positive": "positive"}}
    assert Metadata.from_json_dict({**doc, "protected": ["Race"]}).protected_attributes == ("Race",)
    assert Metadata.from_json_dict(doc).protected_attributes == ()
    # A bare string would otherwise become one attribute per character.
    for protected in ("Race", [1], {"Race": True}, None):
        with pytest.raises(MetadataMismatch, match='metadata "protected" must be a list'):
            Metadata.from_json_dict({**doc, "protected": protected})


def test_metadata_columns_must_be_an_object():
    doc = {"label": {"column": "Diagnosis", "positive": "positive"}}
    assert Metadata.from_json_dict(doc).declared_kinds is None
    assert Metadata.from_json_dict({**doc, "columns": {}}).declared_kinds is None
    kinds = Metadata.from_json_dict({**doc, "columns": {"v": {"kind": "numeric"}}}).declared_kinds
    assert kinds == {"v": ColumnKind.NUMERIC}
    # A falsy value is not "no declarations".
    for columns in ([], "", 0, False, None, ["setting"], "setting"):
        with pytest.raises(MetadataMismatch, match="malformed columns field"):
            Metadata.from_json_dict({**doc, "columns": columns})


def test_declared_column_absent_from_the_table_is_metadata_mismatch(tmp_path):
    p = tmp_path / "t.csv"
    write_lines(p, ["symptom_scale,label", "1,yes", "2,no"])
    md = Metadata("label", "yes", declared_kinds={"symptom_scal": ColumnKind.CATEGORICAL})
    with pytest.raises(MetadataMismatch, match="column 'symptom_scal' declared"):
        load_dataset(p, md)
    # The misspelt declaration is named, not the stray cell it meant to admit.
    n = 3 * _READ_BLOCK_ROWS
    cells = [repr(i / 7) for i in range(n)]
    cells[n - 1] = "NA"
    write_lines(p, ["symptom_scale,label"] + [f"{c},{'yes' if i % 2 else 'no'}"
                                              for i, c in enumerate(cells)])
    with pytest.raises(MetadataMismatch, match="column 'symptom_scal' declared"):
        load_dataset(p, md)
    fixed = Metadata("label", "yes", declared_kinds={"symptom_scale": ColumnKind.CATEGORICAL})
    assert load_dataset(p, fixed).schema.kind_of("symptom_scale") is ColumnKind.CATEGORICAL


def test_cell_level_parse_errors_carry_no_line(tmp_path):
    p = tmp_path / "t.csv"
    md = Metadata("label", "yes", declared_kinds={"v": ColumnKind.NUMERIC})
    write_lines(p, ["v,label", "1,yes", "2,", "1e999,no", "3,no"])
    with pytest.raises(ParseError) as err:
        load_dataset(p, md)
    assert err.value.line is None
    assert str(err.value) == "column 'v': cell '1e999' in data row 3 is a number out of float64's range"
    with pytest.raises(ParseError) as err:
        NumericColumn(np.array([1.0, np.inf]))
    assert err.value.line is None
    assert str(err.value) == "numeric column contains non-finite values"


# Column kinds are inferred while the CSV is read: a column is numeric iff
# _read_csv returns it parsed, with codes None.


def _one_column(tmp_path, cells, declared=None):
    """The CSV of column ``c`` holding ``cells`` beside a two-class label, and
    its metadata."""
    p = tmp_path / "c.csv"
    labels = ["yes", "no"] * len(cells)
    write_lines(p, ["c,label"] + [f"{c},{y}" for c, y in zip(cells, labels)])
    return p, Metadata("label", "yes", (), declared)


def test_infer_schema_numeric_above_cutoff(tmp_path):
    cells = [f"{i}.5" for i in range(40)]
    p, md = _one_column(tmp_path, cells)
    values, codes = _read_csv(p, {})[1][0]
    assert codes is None and values.tolist() == [i + 0.5 for i in range(40)]
    data = load_dataset(p, md)
    assert data.schema.kind_of("c") is ColumnKind.NUMERIC
    assert data.decoded("c").tolist() == [i + 0.5 for i in range(40)]


def test_infer_schema_non_numeric_tokens_categorical(tmp_path):
    p, md = _one_column(tmp_path, ["M", "F", "F", "M"])
    data = load_dataset(p, md)
    assert data.schema.kind_of("c") is ColumnKind.CATEGORICAL
    assert data.column("c").categories == ("M", "F")


def test_infer_schema_low_cardinality_numeric_is_categorical(tmp_path):
    # parseable values, but only 2 distinct: under the cutoff of 20
    p, md = _one_column(tmp_path, ["0", "1", "0", "1"])
    keys, codes = _read_csv(p, {})[1][0]
    assert keys == ["0", "1"] and codes.tolist() == [0, 1, 0, 1]
    data = load_dataset(p, md)
    assert data.schema.kind_of("c") is ColumnKind.CATEGORICAL
    assert data.column("c").categories == ("0", "1")


def test_infer_schema_declared_kind_overrides(tmp_path):
    p, md = _one_column(tmp_path, ["0", "1", "0", "1"], {"c": ColumnKind.NUMERIC})
    data = load_dataset(p, md)
    assert data.schema.kind_of("c") is ColumnKind.NUMERIC
    assert data.decoded("c").tolist() == [0.0, 1.0, 0.0, 1.0]


def test_infer_schema_errors(tmp_path):
    p = tmp_path / "t.csv"
    md = Metadata("label", "yes")
    write_lines(p, ["a,label"])
    with pytest.raises(EmptyTable):
        load_dataset(p, md)
    write_lines(p, ["a,a,label", "1,2,yes", "3,4,no"])
    with pytest.raises(DuplicateColumnName):
        load_dataset(p, md)


def test_infer_schema_is_pure(tmp_path):
    declared = {"c": ColumnKind.CATEGORICAL}
    p, md = _one_column(tmp_path, ["x", "y", "x"], dict(declared))
    first, second = load_dataset(p, md), load_dataset(p, md)
    assert first.schema == second.schema
    _assert_same_ingest(second, first)
    assert md.declared_kinds == declared


def test_read_csv_parses_a_column_from_21_distinct_cells(tmp_path):
    # 21 distinct plain decimals are parsed; 20 plus the missing token, which
    # hold only 20 distinct values, stay interned.
    p = tmp_path / "t.csv"
    plain = [f"{i}.5" for i in range(21)]
    with_missing = [f"{i}.5" for i in range(20)] + [""]
    write_lines(p, ["a,b"] + [f"{a},{b}" for a, b in zip(plain, with_missing)])
    (values, codes), (keys, missing_codes) = _read_csv(p, {})[1]
    assert codes is None and values.tolist() == [i + 0.5 for i in range(21)]
    assert keys == with_missing and missing_codes.tolist() == list(range(21))


def test_load_dataset_drops_rows_missing_protected(tmp_path):
    p = tmp_path / "t.csv"
    write_lines(p, [
        "Race,label",
        "A,yes",
        ",no",
        "B,no",
        "A,yes",
    ])
    md = Metadata("label", "yes", ("Race",))
    data = load_dataset(p, md)
    assert data.row_count == 3
    assert data.ingest.rows_dropped == 1


def test_load_dataset_imputes_numeric_median(tmp_path):
    p = tmp_path / "t.csv"
    write_lines(p, [
        "v,label",
        "1,yes",
        ",no",
        "3,yes",
    ])
    md = Metadata("label", "yes", (), declared_kinds={"v": ColumnKind.NUMERIC})
    data = load_dataset(p, md)
    assert data.decoded("v").tolist() == [1.0, 2.0, 3.0]
    assert data.ingest.imputed == {"v": 1}


def test_load_dataset_imputes_categorical_mode(tmp_path):
    p = tmp_path / "t.csv"
    write_lines(p, [
        "c,label",
        "a,yes",
        "a,no",
        ",yes",
        "b,no",
    ])
    data = load_dataset(p, Metadata("label", "yes"))
    assert data.decoded("c").tolist() == ["a", "a", "a", "b"]


def test_load_dataset_label_not_binary(tmp_path):
    p = tmp_path / "t.csv"
    write_lines(p, ["label", "a", "b", "c"])
    with pytest.raises(LabelNotBinary):
        load_dataset(p, Metadata("label", "a"))
    with pytest.raises(LabelNotBinary):
        load_dataset(p, Metadata("label", "a", declared_kinds={"label": ColumnKind.NUMERIC}))


def test_load_dataset_single_class_allowed_when_not_required(tmp_path):
    p = tmp_path / "t.csv"
    write_lines(p, ["label,v", "a,x", "a,y"])
    pinned = TableSchema((("label", ColumnKind.CATEGORICAL), ("v", ColumnKind.CATEGORICAL)))
    data = load_dataset(p, Metadata("label", "a"), pinned=pinned)
    assert data.row_count == 2
    # A synthetic label may collapse to the negative class alone.
    data = load_dataset(p, Metadata("label", "b"), pinned=pinned)
    assert data.row_count == 2


def test_load_dataset_metadata_mismatch(tmp_path):
    p = tmp_path / "t.csv"
    write_lines(p, ["a,label", "1,yes", "2,no"])
    with pytest.raises(MetadataMismatch):
        load_dataset(p, Metadata("label", "yes", ("Race",)))
    with pytest.raises(MetadataMismatch):
        load_dataset(p, Metadata("NoSuch", "yes"))


def test_dataset_rejects_inconsistent_columns_with_schema_mismatch():
    schema = TableSchema((("v", ColumnKind.NUMERIC), ("c", ColumnKind.CATEGORICAL)))
    numeric = NumericColumn(np.array([1.0, 2.0]))
    with pytest.raises(SchemaMismatch):
        Dataset(schema, (numeric,))
    with pytest.raises(SchemaMismatch):
        Dataset(schema, (numeric, CategoricalColumn.from_values(["a"])))
    with pytest.raises(SchemaMismatch):
        Dataset(schema, (numeric, numeric))


def test_load_dataset_ragged_row_is_parse_error(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,label\r\n1,yes,extra\r\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_dataset(p, Metadata("label", "yes"))
    assert err.value.line == 2


def test_ragged_row_after_multiline_field_reports_physical_line(tmp_path):
    p = tmp_path / "t.csv"
    lines = ["a,label"] + ["1,yes"] * 4200 + ['"two\r\nlines",no', "1,yes,extra", "2,no"]
    write_lines(p, lines)
    with pytest.raises(ParseError) as err:
        load_dataset(p, Metadata("label", "yes"))
    # header + 4200 rows + the two physical lines of the quoted field, then the ragged row
    assert err.value.line == 4204


def test_declared_numeric_checks_only_kept_rows(tmp_path):
    p = tmp_path / "t.csv"
    md = Metadata("label", "yes", declared_kinds={"v": ColumnKind.NUMERIC})
    write_lines(p, ["v,label", "1,yes", "oops,", "3,no"])
    data = load_dataset(p, md)  # "oops" sits only in a row dropped for its missing label
    assert data.decoded("v").tolist() == [1.0, 3.0]
    assert data.ingest.rows_dropped == 1
    # The first bad kept cell in file order is named, whichever rule it breaks.
    write_lines(p, ["v,label", "1,yes", "2,", "1e999,no", "x,yes", "3,no"])
    with pytest.raises(ParseError, match="cell '1e999' in data row 3 is a number out of float64"):
        load_dataset(p, md)
    write_lines(p, ["v,label", "1,yes", "x,no", "1e999,yes", "3,no"])
    with pytest.raises(ParseError, match="non-numeric cell 'x'"):
        load_dataset(p, md)
    # The same past the interning limit, where the column is parsed while read
    # and its stray cells are read as missing until the kept rows are known.
    n = 3 * _READ_BLOCK_ROWS
    cells = [repr(i / 7) for i in range(n)]
    labels = ["yes" if i % 2 else "no" for i in range(n)]
    cells[_READ_BLOCK_ROWS + 3], labels[_READ_BLOCK_ROWS + 3] = "oops", ""
    write_lines(p, ["v,label"] + [f"{c},{y}" for c, y in zip(cells, labels)])
    data = load_dataset(p, md)
    assert data.ingest.rows_dropped == 1 and not data.ingest.imputed
    assert data.decoded("v").tolist() == [i / 7 for i in range(n) if i != _READ_BLOCK_ROWS + 3]
    cells[n - 5], cells[n - 2] = "1e999", "x"
    write_lines(p, ["v,label"] + [f"{c},{y}" for c, y in zip(cells, labels)])
    with pytest.raises(ParseError, match=r"cell '1e999' in data row \d+ is a number out of float64"):
        load_dataset(p, md)


def test_declared_numeric_column_is_parsed_block_by_block(tmp_path, monkeypatch):
    # A column declared numeric is parsed from its first read block, a stray
    # cell included, rather than interned for the whole read and its keys
    # parsed afterwards: no parse ever sees more than one block of cells.
    sizes = []
    parse = schema._parse_or_stray

    def counted(cells):
        sizes.append(len(cells))
        return parse(cells)

    monkeypatch.setattr(schema, "_parse_or_stray", counted)
    n = 3 * _READ_BLOCK_ROWS
    cells = [repr(i / 7) for i in range(n)]
    labels = ["yes" if i % 2 else "no" for i in range(n)]
    cells[1], labels[1] = "NA", ""
    p = tmp_path / "t.csv"
    write_lines(p, ["v,label"] + [f"{c},{y}" for c, y in zip(cells, labels)])
    md = Metadata("label", "yes", declared_kinds={"v": ColumnKind.NUMERIC})
    data = load_dataset(p, md)
    assert sizes and max(sizes) <= _READ_BLOCK_ROWS
    _assert_same_ingest(data, _reference_load(p, md))


def test_header_only_file_with_declared_numeric_column_is_empty(tmp_path):
    p = tmp_path / "t.csv"
    write_lines(p, ["v,label"])
    md = Metadata("label", "yes", declared_kinds={"v": ColumnKind.NUMERIC})
    with pytest.raises(EmptyTable, match="no data rows"):
        load_dataset(p, md)
    pinned = TableSchema((("v", ColumnKind.NUMERIC), ("label", ColumnKind.CATEGORICAL)))
    with pytest.raises(EmptyTable, match="no data rows"):
        load_dataset(p, Metadata("label", "yes"), pinned=pinned)


def _reference_stray(name, cell, row, advice):
    """The error text for a bad cell of a numbers column: a plain decimal
    beyond float64's range is named as such, any other cell is non-numeric
    and followed by ``advice``."""
    if _NUMBER_RE.match(cell) and math.isinf(float(cell)):
        return f"column {name!r}: cell {cell!r} in data row {row} is a number out of float64's range"
    return f"column {name!r}: non-numeric cell {cell!r} in data row {row}{advice}"


def _reference_load(path, md):
    """Row-wise ingest in plain Python: the oracle for the columnar loader."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for row in reader:
            if len(row) != len(header):
                message = f"expected {len(header)} fields, found {len(row)}"
                raise ParseError(reader.line_num, message)
            rows.append(row)
    declared = md.declared_kinds or {}
    kinds = []
    for j, name in enumerate(header):
        parsed = [parse_number(row[j]) for row in rows if row[j] != ""]
        distinct = set(parsed) - {None}
        if name not in declared and None in parsed and len(distinct) > 20:
            row = next(i for i, r in enumerate(rows) if r[j] != "" and parse_number(r[j]) is None)
            advice = (', among more than 20 distinct numbers; declare the column\'s kind under '
                      '"columns" in the metadata')
            raise ParseError(None, _reference_stray(name, rows[row][j], row + 1, advice))
        numeric = None not in parsed and len(distinct) > 20
        inferred = ColumnKind.NUMERIC if numeric else ColumnKind.CATEGORICAL
        kinds.append((name, declared.get(name, inferred)))
    required = [header.index(c) for c in (md.label_column, *md.protected_attributes)]
    kept_at = [i for i, row in enumerate(rows) if all(row[j] != "" for j in required)]
    kept = [rows[i] for i in kept_at]
    columns, imputed = [], {}
    for j, (name, kind) in enumerate(kinds):
        cells = [row[j] for row in kept]
        present = [c for c in cells if c != ""]
        if kind is ColumnKind.NUMERIC:
            values = [parse_number(c) for c in present]
            if None in values:
                k = next(k for k, c in enumerate(cells) if c and parse_number(c) is None)
                raise ParseError(None, _reference_stray(name, cells[k], kept_at[k] + 1, ""))
            fill = np.median(np.array(values))
            it = iter(values)
            columns.append(NumericColumn(np.array([next(it) if c else fill for c in cells])))
        else:
            counts = Counter(present)
            mode = min(counts, key=lambda c: (-counts[c], c))
            table = {}
            codes = [table.setdefault(c or mode, len(table)) for c in cells]
            columns.append(CategoricalColumn(np.array(codes), tuple(table)))
        if len(present) < len(cells):
            imputed[name] = len(cells) - len(present)
    stats = IngestStats(rows_read=len(rows), rows_dropped=len(rows) - len(kept), imputed=imputed)
    return Dataset(TableSchema(tuple(kinds)), tuple(columns), stats)


_QUOTED = ["a,b", 'say "hi"', "two\nlines", "crlf\r\nline", "plain", '",\r\n"']
_BAD_TOKENS = ["nan", "inf", "1e999", " 1", "1_0", "\u0661\u0662\u0663", "\uff11\uff12"]


def _hostile_rows(rng, n):
    """Seeded rows over every ingest rule: missing cells in each column kind,
    quoted separators and line breaks, odd number spellings, and columns at
    the cardinality cutoff."""

    def sometimes_missing(values, rate):
        return ["" if rng.random() < rate else v for v in values]

    def draw(choices):
        return [str(rng.choice(choices)) for _ in range(n)]

    label = sometimes_missing(draw(["yes", "no"]), 0.03)
    group = sometimes_missing(draw(["A", "B", "C"]), 0.03)
    label[:5], group[:5] = ["yes", "no", "yes", "", "no"], ["A", "B", "C", "A", "B"]
    label[-1] = ""  # dropped, like row 3
    spellings = ["-0", "0", "+.5", "5.", "1e3", ".25"]
    num = [s if rng.random() < 0.1 else repr(float(rng.normal(0, 10))) for s in draw(spellings)]
    num = sometimes_missing(num, 0.05)
    cat = sometimes_missing(draw(["x", "x", "y", "z"]), 0.1)
    cat[:3] = ["", "z", "x"]  # the mode "x" first appears at a missing cell
    text = sometimes_missing(draw(_QUOTED), 0.05)
    # tok, stops and dnum each hold more than 20 distinct numbers and one
    # non-numeric cell, so each is a ParseError unless its kind is declared.
    # Numbers and one hostile token, which may sit in a dropped row.
    tok = [repr(float(v)) for v in rng.random(n)]
    tok[int(rng.integers(3, n))] = str(rng.choice(_BAD_TOKENS))
    # 20 distinct values, though "-0" and "0" are 21 distinct strings.
    d20 = [str(i % 20) for i in range(n)]
    d20[20::40] = ["-0"] * len(d20[20::40])
    # 21 distinct values, the 21st only in the dropped last row.
    d21 = [str(i % 20) for i in range(n - 1)] + ["20"]
    # Text past the interning limit from the first read block, with missing cells.
    many = sometimes_missing([f"w{v}" for v in rng.integers(0, n // 4, n)], 0.05)
    # 21 distinct cells in the first read block; the 22nd ("" or "21") comes later.
    late = [str(i % 21) for i in range(_READ_BLOCK_ROWS)]
    late += sometimes_missing([str(i % 22) for i in range(_READ_BLOCK_ROWS, n)], 0.05)
    # "r" first appears in the dropped row 3, before "q" in the kept row 4.
    early = draw(["p", "q", "r"])
    early[:5] = ["p", "p", "p", "r", "q"]
    # Numbers for several read blocks, then one text cell in the last block;
    # the spellings are not what repr() of their values gives back.
    stops = [f"{v:+.3f}" for v in rng.normal(0, 5, n)]
    stops[n - 2] = "x"
    # Numbers whose only bad cell sits in the dropped last row, after block 1.
    dnum = [f"{v:.2f}0" for v in rng.random(n)]
    dnum[-1] = "oops"
    # 80 distinct cells but only 20 distinct values.
    spellings = ["{}", "{}.0", "+{}", "{}e0"]
    spell = [str(rng.choice(spellings)).format(i % 20) for i in range(n)]
    # "a" and "b" tie for the mode among kept rows; the text tie-break picks "a".
    kept = [i for i in range(n) if label[i] and group[i]]
    paired = kept[1 : 1 + 2 * ((len(kept) - 1) // 2)]
    tie = [""] * n
    for k, i in enumerate(paired):
        tie[i] = "ba"[k % 2]
    for i in set(range(n)) - set(kept):
        tie[i] = "c"
    header = ["label", "grp", "num", "cat", "text", "tok", "d20", "d21", "tie", "many", "late",
              "early", "stops", "dnum", "spell"]
    columns = [label, group, num, cat, text, tok, d20, d21, tie, many, late, early, stops, dnum,
               spell]
    return header, [list(r) for r in zip(*columns)]


def _write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _assert_same_ingest(got, want):
    assert got == want
    assert got.schema == want.schema
    assert got.ingest == want.ingest
    for a, b in zip(got.columns, want.columns):
        if isinstance(b, NumericColumn):
            assert a.values.tobytes() == b.values.tobytes()  # bitwise, so -0.0 != 0.0
        else:
            assert a.categories == b.categories
            assert a.codes.tolist() == b.codes.tolist()


def _assert_same_outcome(path, md):
    """The loader gives the oracle's Dataset, or raises its ParseError text."""
    try:
        want = _reference_load(path, md)
    except ParseError as exc:
        with pytest.raises(ParseError) as got_err:
            load_dataset(path, md)
        assert str(got_err.value) == str(exc)
        return str(exc)
    _assert_same_ingest(load_dataset(path, md), want)
    return None


def test_columnar_ingest_matches_row_wise_reference(tmp_path):
    rng = np.random.default_rng(2026)
    strays = {"tok": ColumnKind.CATEGORICAL, "stops": ColumnKind.CATEGORICAL,
              "dnum": ColumnKind.CATEGORICAL}
    inferred = Metadata("label", "yes", ("grp",), strays)
    declared = Metadata(
        "label",
        "yes",
        ("grp",),
        {
            **strays,
            "d20": ColumnKind.NUMERIC,
            "num": ColumnKind.CATEGORICAL,
            "late": ColumnKind.CATEGORICAL,
            "dnum": ColumnKind.NUMERIC,
            "spell": ColumnKind.NUMERIC,
        },
    )
    for case in range(8):
        n = 2 * _READ_BLOCK_ROWS + int(rng.integers(1, 2 * _READ_BLOCK_ROWS))
        header, rows = _hostile_rows(rng, n)
        p = tmp_path / f"t{case}.csv"
        _write_rows(p, header, rows)
        for md in (inferred, declared):
            _assert_same_ingest(load_dataset(p, md), _reference_load(p, md))
        # Left undeclared, each stray column alone fails as the oracle does.
        for name in strays:
            others = {k: v for k, v in strays.items() if k != name}
            message = _assert_same_outcome(p, Metadata("label", "yes", ("grp",), others))
            assert message is not None and f"column {name!r}" in message
        # Declared numeric, "x" in stops fails only where its row is kept.
        _assert_same_outcome(p, replace(declared, declared_kinds={
            **declared.declared_kinds, "stops": ColumnKind.NUMERIC}))
        want = _reference_load(p, inferred)
        kinds = {name: kind.value for name, kind in want.schema.columns}
        assert kinds == {
            "label": "categorical", "grp": "categorical", "num": "numeric",
            "cat": "categorical", "text": "categorical", "tok": "categorical",
            "d20": "categorical", "d21": "numeric", "tie": "categorical",
            "many": "categorical", "late": "numeric", "early": "categorical",
            "stops": "categorical", "dnum": "categorical", "spell": "categorical",
        }
        assert dict(_reference_load(p, declared).schema.columns)["dnum"] is ColumnKind.NUMERIC
        assert want.column("cat").categories[0] == "x"
        assert want.column("tie").categories == ("a", "b")
        assert want.column("early").categories == ("p", "q", "r")  # kept-row order
        assert set(want.ingest.imputed) == {"num", "cat", "text", "tie", "many", "late"}
        assert want.ingest.rows_dropped > 0
        # A ragged row on either side of a read-block boundary names the same line.
        for at in (_READ_BLOCK_ROWS - 1, _READ_BLOCK_ROWS, n - 1):
            ragged = rows[:at] + [rows[at] + ["extra"]] + rows[at + 1 :]
            _write_rows(p, header, ragged)
            with pytest.raises(ParseError) as want_err:
                _reference_load(p, inferred)
            with pytest.raises(ParseError) as got_err:
                load_dataset(p, inferred)
            assert got_err.value.line == want_err.value.line
            assert str(got_err.value) == str(want_err.value)


def test_read_csv_parses_numeric_columns_per_block(tmp_path):
    p = tmp_path / "t.csv"
    n = 3 * _READ_BLOCK_ROWS + 5
    cells = [f"{i / 4}" for i in range(n)]
    cells[_READ_BLOCK_ROWS + 1] = ""
    write_lines(p, ["v,label"] + [f"{c},{'yes' if i % 2 else 'no'}" for i, c in enumerate(cells)])
    header, columns, n_rows, strays = _read_csv(p, {})
    assert header == ["v", "label"] and n_rows == n
    values, codes = columns[0]
    assert codes is None
    assert isinstance(values, np.ndarray) and values.dtype == np.float64
    want = np.array([float(c) if c else np.nan for c in cells])
    assert values.tobytes() == want.tobytes()
    assert columns[1][0] == ["no", "yes"]
    assert strays == [[], []]


def test_read_csv_reads_declared_and_few_valued_columns_once(tmp_path, monkeypatch):
    # A numeric column declared categorical stays interned; one with 60
    # spellings of 20 values stays interned too. The file is opened once.
    opened = []

    def open_once(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(schema, "open", open_once, raising=False)
    p = tmp_path / "t.csv"
    n = 3 * _READ_BLOCK_ROWS
    ids = [str(1000 + i) for i in range(n)]
    spell = [("{}", "{}.0", "+{}")[i % 3].format(i % 20) for i in range(n)]
    label = ["yes" if i % 3 else "no" for i in range(n)]
    rows = [f"{a},{b},g,{c}" for a, b, c in zip(ids, spell, label)]
    write_lines(p, ["id,spell,grp,label"] + rows)
    header, columns, _, _ = _read_csv(p, {"id": ColumnKind.CATEGORICAL})
    keys, codes = columns[0]
    assert keys == ids and codes.tolist() == list(range(n))
    keys, codes = columns[1]
    assert len(keys) == 60 and [keys[c] for c in codes.tolist()] == spell
    md = Metadata("label", "yes", ("grp",), {"id": ColumnKind.CATEGORICAL})
    got = load_dataset(p, md)
    assert dict(got.schema.columns)["spell"] is ColumnKind.CATEGORICAL
    _assert_same_ingest(got, _reference_load(p, md))
    assert opened == [p, p]


def _through_fifo(tmp_path, data: bytes, read):
    """``read`` of a FIFO that a thread fills with ``data``. A second open of
    the pipe would wait for a writer forever; the alarm turns that into a
    failure. ``data`` stays below the pipe's buffer, so the writer finishes
    even when ``read`` stops early."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(data))

    def opened_twice(signum, frame):
        raise TimeoutError("pipe input opened a second time")

    previous = signal.signal(signal.SIGALRM, opened_twice)
    signal.alarm(60)
    writer.start()
    try:
        return read(fifo)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        writer.join()
        fifo.unlink()


def test_pipe_and_byte_order_mark_inputs_match_reference(tmp_path):
    md = Metadata("label", "yes", ("grp",))
    p = tmp_path / "t.csv"
    n = 3 * _READ_BLOCK_ROWS
    rows = [f"{i / 7!r},{'ab'[i % 2]},{'yes' if i % 3 else 'no'}" for i in range(n)]
    write_lines(p, ["v,grp,label"] + rows)
    want = _reference_load(p, md)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(codecs.BOM_UTF8 + p.read_bytes())
    _assert_same_ingest(load_dataset(bom, md), want)
    # A pipe is read like a file: once, its numeric column parsed while read.
    header, columns, n_rows, strays = _through_fifo(
        tmp_path, bom.read_bytes(), lambda fifo: _read_csv(fifo, {})
    )
    file_header, file_columns, file_rows, file_strays = _read_csv(bom, {})
    assert (header, n_rows, strays) == (file_header, file_rows, file_strays)
    assert columns[0][1] is None and columns[0][0].dtype == np.float64
    assert columns[0][0].tobytes() == want.column("v").values.tobytes()
    for (keys, codes), (file_keys, file_codes) in zip(columns, file_columns):
        if file_codes is None:
            assert codes is None and keys.tobytes() == file_keys.tobytes()
        else:
            assert keys == file_keys and codes.tobytes() == file_codes.tobytes()
    _assert_same_ingest(_through_fifo(tmp_path, bom.read_bytes(), lambda f: load_dataset(f, md)),
                        want)


@pytest.mark.parametrize("row", [2, 3 * _READ_BLOCK_ROWS - 40])
def test_stray_cell_in_numbers_column_fails_fast(tmp_path, row):
    """A numbers column with one "NA" is a ParseError that names the cell and
    its data row, whether the column was still interned when the cell came
    (few distinct values before it) or already parsed, and from a pipe."""
    n = 3 * _READ_BLOCK_ROWS
    want = (
        f"column 'v': non-numeric cell 'NA' in data row {row}, among more than 20 "
        f'distinct numbers; declare the column\'s kind under "columns" in the metadata'
    )
    md = Metadata("label", "yes")
    for before in (lambda i: i % 5, lambda i: i / 7):
        cells = [repr(before(i)) if i < row - 1 else repr(i / 7) for i in range(n)]
        cells[row - 1] = "NA"
        p = tmp_path / "t.csv"
        labels = ["yes" if i % 3 else "no" for i in range(n)]
        write_lines(p, ["v,label"] + [f"{c},{y}" for c, y in zip(cells, labels)])
        with pytest.raises(ParseError) as err:
            load_dataset(p, md)
        assert str(err.value) == want
        with pytest.raises(ParseError) as err:
            _through_fifo(tmp_path, p.read_bytes(), lambda fifo: load_dataset(fifo, md))
        assert str(err.value) == want
        with pytest.raises(ParseError) as err:
            _reference_load(p, md)
        assert str(err.value) == want
        # A declared kind reads the column as declared.
        text = load_dataset(p, replace(md, declared_kinds={"v": ColumnKind.CATEGORICAL}))
        assert "NA" in text.column("v").categories
        with pytest.raises(ParseError, match="non-numeric cell 'NA'"):
            load_dataset(p, replace(md, declared_kinds={"v": ColumnKind.NUMERIC}))


# Cell text, not line ends: str.splitlines() would split a line at each.
_NOT_LINE_ENDS = ["n\x00ul", "vt\v", "ff\f", "fs\x1c", "nel\x85", "ls\u2028", "ps\u2029", "tab\t"]
_LINE_ENDS = {"lf": ("\n",), "cr": ("\r",), "crlf": ("\r\n",), "mixed": ("\n", "\r", "\r\n")}
# The metadata of _hostile_rows tables: with every column's kind inferred
# but for the three stray columns, and with five more kinds declared.
_STRAY_KINDS = {"tok": ColumnKind.CATEGORICAL, "stops": ColumnKind.CATEGORICAL,
                "dnum": ColumnKind.CATEGORICAL}
_HOSTILE_METADATA = (
    Metadata("label", "yes", ("grp",), _STRAY_KINDS),
    Metadata("label", "yes", ("grp",), {
        **_STRAY_KINDS, "d20": ColumnKind.NUMERIC, "num": ColumnKind.CATEGORICAL,
        "late": ColumnKind.CATEGORICAL, "dnum": ColumnKind.NUMERIC, "spell": ColumnKind.NUMERIC,
    }),
)


def _quote_free_hostile_rows(rng, n, quoted_blocks=()):
    """_hostile_rows whose text cells hold no quote, comma or line end,
    except in the rows of the read blocks (by row index) in ``quoted_blocks``."""
    header, rows = _hostile_rows(rng, n)
    text = header.index("text")
    for i, row in enumerate(rows):
        if i // _READ_BLOCK_ROWS not in quoted_blocks:
            # By index: numpy strings would drop a trailing "\x00".
            row[text] = (_NOT_LINE_ENDS + [""])[rng.integers(len(_NOT_LINE_ENDS) + 1)]
    return header, rows


def _write_spelled(path, header, rows, ends, rng, quoted_blocks=()):
    """Write ``rows`` under ``header``, each line ended by one of ``ends`` and
    the last line by none. A row of a read block (by row index) in
    ``quoted_blocks`` is spelled by csv.writer with every cell quoted; any
    other row is its cells joined by commas."""
    spelled = io.StringIO()
    writer = csv.writer(spelled, quoting=csv.QUOTE_ALL, lineterminator="")
    lines = [",".join(header)]
    for i, row in enumerate(rows):
        if i // _READ_BLOCK_ROWS in quoted_blocks:
            spelled.seek(0)
            spelled.truncate()
            writer.writerow(row)
            lines.append(spelled.getvalue())
        else:
            lines.append(",".join(row))
    picks = rng.integers(0, len(ends), len(lines)).tolist()
    text = "".join(line + ends[k] for line, k in zip(lines[:-1], picks)) + lines[-1]
    path.write_bytes(text.encode("utf-8"))


@pytest.mark.parametrize("ends", sorted(_LINE_ENDS))
def test_quote_free_blocks_match_reference(tmp_path, ends):
    """Blocks without a quote are split without csv.reader: at every line end
    the stream knows, and nowhere else."""
    rng = np.random.default_rng(23)
    n = 2 * _READ_BLOCK_ROWS + int(rng.integers(1, _READ_BLOCK_ROWS))
    header, rows = _quote_free_hostile_rows(rng, n)
    p = tmp_path / "t.csv"
    # The text column also last, where its odd characters end a line.
    last = [j for j, name in enumerate(header) if name != "text"] + [header.index("text")]
    for order in (range(len(header)), last):
        spelled = [[row[j] for j in order] for row in rows]
        _write_spelled(p, [header[j] for j in order], spelled, _LINE_ENDS[ends], rng)
        for md in _HOSTILE_METADATA:
            _assert_same_ingest(load_dataset(p, md), _reference_load(p, md))
        assert set(load_dataset(p, md).column("text").categories) == set(_NOT_LINE_ENDS)
    # A row one field short or long, first, either side of a block boundary
    # and last, names the oracle's line and count.
    for at in (0, _READ_BLOCK_ROWS - 1, _READ_BLOCK_ROWS, n - 1):
        for ragged in (rows[at][:-1], rows[at] + ["extra"]):
            _write_spelled(p, header, rows[:at] + [ragged] + rows[at + 1 :], _LINE_ENDS[ends], rng)
            message = _assert_same_outcome(p, _HOSTILE_METADATA[0])
            assert message is not None and f"found {len(ragged)}" in message


def test_cell_over_the_field_limit_is_unreadable(tmp_path):
    # A quote-free block keeps csv.reader's limit on the length of a field.
    p = tmp_path / "t.csv"
    limit = csv.field_size_limit()
    md = Metadata("label", "yes")
    write_lines(p, ["v,label", "x" * limit + ",yes", "1,no"])
    assert load_dataset(p, md).row_count == 2
    write_lines(p, ["v,label", "x" * (limit + 1) + ",yes", "1,no"])
    with pytest.raises(ValidationFailure, match=r"field larger than field limit \(131072\)"):
        load_dataset(p, md)


@pytest.mark.parametrize("end", ["\n", "\r", "\r\n"])
def test_blank_line_is_a_row_of_no_fields(tmp_path, end):
    """csv.reader reads a blank line as a row of 0 fields, so it is a width
    error at its physical line, in a one-column table too."""
    n = 3 * _READ_BLOCK_ROWS
    labels = ["yes" if i % 3 else "no" for i in range(n)]
    tables = {"v,label": [f"{i / 7!r},{y}" for i, y in enumerate(labels)], "label": labels}
    md = Metadata("label", "yes")
    p = tmp_path / "t.csv"
    for header, lines in tables.items():
        width = len(header.split(","))
        # In the first, a middle and the last read block, and as the last line.
        for at in (0, _READ_BLOCK_ROWS + 5, n - 3, n):
            p.write_bytes(end.join([header, *lines[:at], "", *lines[at:]]).encode() + end.encode())
            want = f"line {at + 2}: expected {width} fields, found 0"
            assert _assert_same_outcome(p, md) == want
            with pytest.raises(ParseError) as err:
                load_dataset(p, md)
            assert err.value.line == at + 2


@pytest.mark.parametrize("after", [0, 40])
@pytest.mark.parametrize("span", [2, 300])
def test_quoted_cell_across_blocks_then_ragged_row(tmp_path, span, after):
    """A quoted cell that opens on a read block's last line carries csv.reader
    into the next lines; the quote-free rows after it keep their line numbers."""
    rows = [f"{i % 5},{'yes' if i % 3 else 'no'}" for i in range(_READ_BLOCK_ROWS - 1 + after)]
    cell = '"' + "\r\n".join(f"part {k}" for k in range(span)) + '",no'
    # The header is line 1, so the cell opens on line 257, the first block's last.
    lines = ["v,label", *rows[: _READ_BLOCK_ROWS - 1], cell, *rows[_READ_BLOCK_ROWS - 1 :]]
    md = Metadata("label", "yes")
    p = tmp_path / "t.csv"
    write_lines(p, lines + ["2,no"])
    assert _assert_same_outcome(p, md) is None
    write_lines(p, lines + ["1,yes,extra", "2,no"])
    line = 1 + _READ_BLOCK_ROWS + span + after
    assert _assert_same_outcome(p, md) == f"line {line}: expected 2 fields, found 3"


@pytest.mark.parametrize("quoted", [False, True])
def test_rows_before_an_undecodable_byte_are_checked_first(tmp_path, quoted):
    """Errors come in file order, though a read block reaches past the first
    8 KiB decode chunk, where the bad byte sits."""
    rows = [b"%d.%s,yes" % (i, b"1" * 40) for i in range(300)]
    if quoted:
        rows[2] = b'"2",no'
    md = Metadata("label", "yes")
    p = tmp_path / "t.csv"
    for ragged, undecodable in ((5, 200), (250, 200)):
        spelled = list(rows)
        spelled[ragged], spelled[undecodable] = b"1,yes,extra", b"\xff,yes"
        p.write_bytes(b"\r\n".join([b"v,label", *spelled]) + b"\r\n")
        if ragged < undecodable:
            assert _assert_same_outcome(p, md) == f"line {ragged + 2}: expected 2 fields, found 3"
        else:
            with pytest.raises(ValidationFailure, match="unreadable as UTF-8 CSV"):
                load_dataset(p, md)


def test_quoted_and_quote_free_blocks_alternate(tmp_path, monkeypatch):
    rng = np.random.default_rng(29)
    # Quoted rows hold multi-line cells, so a quoted block of rows spans more
    # than one read block; two quote-free blocks of rows follow each.
    n = 7 * _READ_BLOCK_ROWS + 17
    quoted = (0, 3, 6)
    header, rows = _quote_free_hostile_rows(rng, n, quoted)
    p = tmp_path / "t.csv"
    _write_spelled(p, header, rows, _LINE_ENDS["mixed"], rng, quoted)
    for md in _HOSTILE_METADATA:
        _assert_same_ingest(load_dataset(p, md), _reference_load(p, md))
    # A ragged row in a quoted block, in a quote-free one and last.
    for at in (_READ_BLOCK_ROWS // 2, 3 * _READ_BLOCK_ROWS // 2, n - 1):
        ragged = rows[:at] + [rows[at][:-1]] + rows[at + 1 :]
        _write_spelled(p, header, ragged, _LINE_ENDS["mixed"], rng, quoted)
        message = _assert_same_outcome(p, _HOSTILE_METADATA[0])
        assert message is not None and f"found {len(header) - 1}" in message
    # csv.reader reads the header and the quoted blocks only.
    readers = []

    def counted(lines):
        readers.append(lines)
        return csv.reader(lines)

    monkeypatch.setattr(schema, "csv", SimpleNamespace(**{**vars(csv), "reader": counted}))
    _write_spelled(p, header, rows, _LINE_ENDS["mixed"], rng, quoted)
    load_dataset(p, _HOSTILE_METADATA[0])
    with open(p, newline="", encoding="utf-8") as fh:
        blocks = math.ceil((sum(1 for _ in fh) - 1) / _READ_BLOCK_ROWS)
    # At least one read block between two quoted ones is quote-free.
    assert 1 + len(quoted) <= len(readers) <= 1 + blocks - (len(quoted) - 1)
    header, rows = _quote_free_hostile_rows(rng, n)
    _write_spelled(p, header, rows, _LINE_ENDS["crlf"], rng)
    readers.clear()
    load_dataset(p, _HOSTILE_METADATA[0])
    assert len(readers) == 1


def _id_table(path, ids, labels=None):
    labels = labels or ["yes" if i % 3 else "no" for i in range(len(ids))]
    write_lines(path, ["label,record_id"] + [f"{y},{v}" for y, v in zip(labels, ids)])


def test_text_id_column_fails_fast(tmp_path):
    """An undeclared categorical column in which most kept rows hold a
    category of their own (a record ID) is a ValidationFailure that names the
    column and its distinct count, from a file and from a pipe alike;
    declared, it loads."""
    n = 400
    p = tmp_path / "ids.csv"
    # Row 0 lacks its label and is dropped: 399 kept rows, each its own ID.
    labels = [""] + ["yes" if i % 3 else "no" for i in range(1, n)]
    _id_table(p, [f"P{i:07d}" for i in range(n)], labels)
    want = (
        "column 'record_id' looks like an ID or free text: 399 distinct categories, and 399 of "
        'its 399 rows hold a category no other row holds; drop the column, or declare its kind '
        'under "columns" in the metadata'
    )
    md = Metadata("label", "yes")
    with pytest.raises(ValidationFailure) as err:
        load_dataset(p, md)
    assert str(err.value) == want
    with pytest.raises(ValidationFailure) as err:
        _through_fifo(tmp_path, p.read_bytes(), lambda fifo: load_dataset(fifo, md))
    assert str(err.value) == want
    declared = load_dataset(p, replace(md, declared_kinds={"record_id": ColumnKind.CATEGORICAL}))
    assert len(declared.column("record_id").categories) == n - 1


@pytest.mark.parametrize("singles, fails", [(200, False), (201, True)])
def test_text_id_rule_needs_most_rows(tmp_path, singles, fails):
    # 400 rows: `singles` IDs once each, the rest in pairs; half is not most.
    n = 400
    ids = [f"s{i}" for i in range(singles)] + [f"d{i // 2}" for i in range(n - singles)]
    p = tmp_path / "ids.csv"
    _id_table(p, ids)
    md = Metadata("label", "yes")
    if fails:
        with pytest.raises(ValidationFailure, match="'record_id' looks like an ID"):
            load_dataset(p, md)
    else:
        assert load_dataset(p, md).column("record_id").categories[0] == "s0"


def test_text_id_rule_spares_few_categories(tmp_path):
    # 20 rows with 20 distinct IDs: at the cardinality cutoff, not past it.
    p = tmp_path / "ids.csv"
    _id_table(p, [f"P{i}" for i in range(20)])
    assert len(load_dataset(p, Metadata("label", "yes")).column("record_id").categories) == 20


def test_split_holdout_partition():
    data = _numbered_dataset(10)
    train, holdout = split_holdout(data, SplitSpec(7, 0.3, 0))
    assert train.row_count == 7
    assert holdout.row_count == 3
    train_ids = set(train.decoded("id").tolist())
    holdout_ids = set(holdout.decoded("id").tolist())
    assert not (train_ids & holdout_ids)


def test_split_holdout_deterministic():
    data = _numbered_dataset(50)
    a = split_holdout(data, SplitSpec(30, 0.3, 5))
    b = split_holdout(data, SplitSpec(30, 0.3, 5))
    assert a[0] == b[0] and a[1] == b[1]


def test_split_holdout_insufficient_rows():
    data = _numbered_dataset(1000)
    with pytest.raises(InsufficientRows):
        split_holdout(data, SplitSpec(1000, 0.3, 0))


def test_split_spec_rejects_bad_values_with_validation_failures():
    with pytest.raises(InsufficientRows):
        SplitSpec(0, 0.3, 0)
    with pytest.raises(InsufficientRows):
        SplitSpec(10, 1.0, 0)
    with pytest.raises(ValidationFailure):
        SplitSpec(10, 0.3, -1)


def test_holdout_size_float_noise():
    # 10 * 0.3 is 3.0000000000000004 in floats; the size must still be 3
    assert holdout_size(10, 0.3) == 3
    assert holdout_size(1000, 0.3) == 300
    assert holdout_size(7, 0.5) == 4


def test_round_trip_dataset(tmp_path, demo_data, demo_md):
    p = tmp_path / "demo.csv"
    write_csv(demo_data, p)
    again = load_dataset(p, demo_md)
    assert again == demo_data


def test_round_trip_random_tables(tmp_path):
    rng = np.random.default_rng(7)
    for case in range(20):
        n = int(rng.integers(5, 40))
        num = NumericColumn(rng.standard_normal(n) * 10 ** int(rng.integers(-3, 4)))
        cat = CategoricalColumn.from_values(
            [str(rng.choice(["a", "b", "c"])) for _ in range(n)]
        )
        label = CategoricalColumn.from_values(
            ["yes" if rng.random() < 0.5 else "no" for _ in range(n - 2)] + ["yes", "no"]
        )
        schema = TableSchema(
            (
                ("v", ColumnKind.NUMERIC),
                ("c", ColumnKind.CATEGORICAL),
                ("label", ColumnKind.CATEGORICAL),
            )
        )
        data = Dataset(schema, (num, cat, label))
        p = tmp_path / f"t{case}.csv"
        write_csv(data, p)
        md = Metadata("label", "yes", declared_kinds={"v": ColumnKind.NUMERIC})
        assert load_dataset(p, md) == data


def _writer_oracle(dataset: Dataset, path) -> None:
    """``write_csv`` as one ``csv.writer`` pass over the decoded rows."""
    columns = [
        map(repr, col.values.tolist()) if isinstance(col, NumericColumn) else col.decoded().tolist()
        for col in dataset.columns
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.schema.names)
        writer.writerows(zip(*columns))


_AWKWARD = ["a,b", 'say "hi"', "two\nlines", "cr\ronly", "crlf\r\nline", '""', "", " lead",
            "caf\u00e9 \u6771\u4eac", "plain"]


def _assert_writes_like_oracle(tmp_path, dataset):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(dataset, got)
    _writer_oracle(dataset, want)
    assert got.read_bytes() == want.read_bytes()


def test_write_csv_bytes_match_csv_writer(tmp_path):
    rng = np.random.default_rng(41)
    floats = np.array([-0.0, 0.0, 5e-324, 1e16, 1e-05, 0.1, -2.5, 1.7976931348623157e308])
    n = 2 * _WRITE_BLOCK_ROWS + 3
    schema = TableSchema(
        (
            ("x", ColumnKind.NUMERIC),
            ('odd, "name"\r\n', ColumnKind.CATEGORICAL),
            ("c", ColumnKind.CATEGORICAL),
        )
    )
    odd = CategoricalColumn(rng.integers(0, len(_AWKWARD), n), _AWKWARD)
    # Codes out of table order, and a table entry no row uses.
    few = CategoricalColumn(rng.integers(1, 3, n), ("unused", "", "q"))
    dataset = Dataset(schema, (NumericColumn(rng.choice(floats, n)), odd, few))
    for rows in (np.arange(n), np.arange(_WRITE_BLOCK_ROWS), np.arange(1), np.arange(0)):
        _assert_writes_like_oracle(tmp_path, dataset.take(rows))
    # A one-column table writes its lone empty field as "", whatever its kind.
    for categories in (("",), ("", "x"), _AWKWARD):
        column = CategoricalColumn(np.arange(len(categories))[::-1], categories)
        lone = Dataset(TableSchema((("only", ColumnKind.CATEGORICAL),)), (column,))
        _assert_writes_like_oracle(tmp_path, lone)
    lone = Dataset(TableSchema((("v", ColumnKind.NUMERIC),)), (NumericColumn(floats),))
    _assert_writes_like_oracle(tmp_path, lone)
    # A row of empty fields in a wider table.
    empty = CategoricalColumn(np.zeros(3, np.int32), ("",))
    schema = TableSchema((("a", ColumnKind.CATEGORICAL), ("b", ColumnKind.CATEGORICAL)))
    _assert_writes_like_oracle(tmp_path, Dataset(schema, (empty, empty)))


def test_write_csv_peak_memory_stays_below_file_size(tmp_path):
    data = make_demo_dataset(DemoSpec(n_rows=50_000, seed=5))
    p = tmp_path / "demo.csv"
    tracemalloc.start()
    try:
        write_csv(data, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The rows are built and written one block at a time; no column of cell
    # strings for the whole table is ever alive.
    assert peak < p.stat().st_size


def test_ingest_interns_codes_like_from_values(tmp_path):
    n = 3 * _READ_BLOCK_ROWS + 7
    # New cells first appear in later read blocks.
    late = [("a", "b")[i % 2] if i < _READ_BLOCK_ROWS else f"n{i % (3 + i // _READ_BLOCK_ROWS)}"
            for i in range(n)]
    # Ten distinct cells in the first block; the key count passes the cutoff
    # plus one in the middle of the second block.
    cross = [f"t{i % 10}" for i in range(_READ_BLOCK_ROWS + _READ_BLOCK_ROWS // 2)]
    cross += [f"t{i % 40}" for i in range(len(cross), n)]
    label = ["yes" if i % 3 else "no" for i in range(n)]
    p = tmp_path / "t.csv"
    _write_rows(p, ["late", "cross", "label"], zip(late, cross, label))
    loaded = load_dataset(p, Metadata("label", "yes"))
    for name, cells in (("late", late), ("cross", cross), ("label", label)):
        want = CategoricalColumn.from_values(cells)
        got = loaded.column(name)
        assert got.categories == want.categories, name
        assert got.codes.tobytes() == want.codes.tobytes(), name


def _numbered_dataset(n: int) -> Dataset:
    schema = TableSchema((("id", ColumnKind.NUMERIC), ("label", ColumnKind.CATEGORICAL)))
    return Dataset(
        schema,
        (
            NumericColumn(np.arange(n, dtype=np.float64)),
            CategoricalColumn.from_values(["yes" if i % 2 else "no" for i in range(n)]),
        ),
    )

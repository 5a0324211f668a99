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
    infer_schema,
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


def test_infer_schema_numeric_above_cutoff():
    schema, parsed = infer_schema(["v"], [[f"{i}.5" for i in range(40)]])
    assert schema.kind_of("v") is ColumnKind.NUMERIC
    assert parsed[0].tolist() == [i + 0.5 for i in range(40)]


def test_infer_schema_non_numeric_tokens_categorical():
    schema, _ = infer_schema(["sex"], [["M", "F", "F", "M"]])
    assert schema.kind_of("sex") is ColumnKind.CATEGORICAL


def test_infer_schema_low_cardinality_numeric_is_categorical():
    # parseable values, but only 2 distinct: under the cutoff of 20
    schema, parsed = infer_schema(["flag"], [["0", "1", "0", "1"]])
    assert schema.kind_of("flag") is ColumnKind.CATEGORICAL
    assert parsed == [None]


def test_infer_schema_declared_kind_overrides():
    schema, _ = infer_schema(["flag"], [["0", "1", "0", "1"]], {"flag": ColumnKind.NUMERIC})
    assert schema.kind_of("flag") is ColumnKind.NUMERIC


def test_infer_schema_errors():
    with pytest.raises(EmptyTable):
        infer_schema(["a"], [[]])
    with pytest.raises(DuplicateColumnName):
        infer_schema(["a", "a"], [["1"], ["2"]])


def test_infer_schema_is_pure():
    columns = [["x", "y", "x"]]
    assert infer_schema(["c"], columns)[0] == infer_schema(["c"], columns)[0]


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
    data = load_dataset(p, Metadata("label", "a"), require_binary_label=False)
    assert data.row_count == 2
    # A synthetic label may collapse to the negative class alone.
    data = load_dataset(p, Metadata("label", "b"), require_binary_label=False)
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
    with pytest.raises(ParseError, match="non-numeric cell '1e999'"):
        load_dataset(p, md)
    write_lines(p, ["v,label", "1,yes", "x,no", "1e999,yes", "3,no"])
    with pytest.raises(ParseError, match="non-numeric cell 'x'"):
        load_dataset(p, md)


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
        numeric = None not in parsed and len(set(parsed)) > 20
        inferred = ColumnKind.NUMERIC if numeric else ColumnKind.CATEGORICAL
        kinds.append((name, declared.get(name, inferred)))
    required = [header.index(c) for c in (md.label_column, *md.protected_attributes)]
    kept = [row for row in rows if all(row[j] != "" for j in required)]
    columns, imputed = [], {}
    for j, (name, kind) in enumerate(kinds):
        cells = [row[j] for row in kept]
        present = [c for c in cells if c != ""]
        if kind is ColumnKind.NUMERIC:
            values = [parse_number(c) for c in present]
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


def test_columnar_ingest_matches_row_wise_reference(tmp_path):
    rng = np.random.default_rng(2026)
    inferred = Metadata("label", "yes", ("grp",))
    declared = Metadata(
        "label",
        "yes",
        ("grp",),
        {
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
    header, columns, n_rows = _read_csv(p)
    assert header == ["v", "label"] and n_rows == n
    values, codes = columns[0]
    assert codes is None
    assert isinstance(values, np.ndarray) and values.dtype == np.float64
    want = np.array([float(c) if c else np.nan for c in cells])
    assert values.tobytes() == want.tobytes()
    assert columns[1][0] == ["no", "yes"]


def test_read_csv_reads_declared_and_few_valued_columns_once(tmp_path, monkeypatch):
    # A numeric column declared categorical stays cells; one with 60 spellings
    # of 20 values stays coded. Neither makes ingest read the file again.
    def read_again(*args):
        raise AssertionError("file read twice")

    monkeypatch.setattr(schema, "_read_cells", read_again)
    p = tmp_path / "t.csv"
    n = 3 * _READ_BLOCK_ROWS
    ids = [str(1000 + i) for i in range(n)]
    spell = [("{}", "{}.0", "+{}")[i % 3].format(i % 20) for i in range(n)]
    label = ["yes" if i % 3 else "no" for i in range(n)]
    rows = [f"{a},{b},g,{c}" for a, b, c in zip(ids, spell, label)]
    write_lines(p, ["id,spell,grp,label"] + rows)
    header, columns, _ = _read_csv(p, {"id"})
    assert columns[0] == (ids, None)
    keys, codes = columns[1]
    assert len(keys) == 60 and [keys[c] for c in codes.tolist()] == spell
    md = Metadata("label", "yes", ("grp",), {"id": ColumnKind.CATEGORICAL})
    got = load_dataset(p, md)
    assert dict(got.schema.columns)["spell"] is ColumnKind.CATEGORICAL
    _assert_same_ingest(got, _reference_load(p, md))


def _late_text_table(path):
    """A CSV whose column "v" parses for two read blocks, then holds a text
    cell, so ingest reads the file a second time for its cells."""
    n = 3 * _READ_BLOCK_ROWS
    rows = [f"{i / 7!r},{'ab'[i % 2]},{'yes' if i % 3 else 'no'}" for i in range(n)]
    lines = ["v,grp,label"] + rows
    lines[-1] = "x,a,yes"
    write_lines(path, lines)
    return lines


def test_pipe_and_byte_order_mark_inputs_match_reference(tmp_path):
    md = Metadata("label", "yes", ("grp",))
    p = tmp_path / "t.csv"
    _late_text_table(p)
    want = _reference_load(p, md)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(codecs.BOM_UTF8 + p.read_bytes())
    _assert_same_ingest(load_dataset(bom, md), want)
    # A pipe cannot be read twice, so no column of it is parsed while read.
    # A second open of the pipe would wait for a writer forever; the alarm
    # turns that into a failure.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(bom.read_bytes()))

    def opened_twice(signum, frame):
        raise TimeoutError("pipe input opened a second time")

    previous = signal.signal(signal.SIGALRM, opened_twice)
    signal.alarm(60)
    writer.start()
    try:
        got = load_dataset(fifo, md)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        writer.join()
    _assert_same_ingest(got, want)


@pytest.mark.parametrize(
    "edit, seen_by_stat",
    [
        (lambda lines: lines[: len(lines) // 2], False),
        (lambda lines: lines + ["1.5,a,yes"], False),
        (lambda lines: [], False),
        (lambda lines: ["w" + lines[0][1:]] + lines[1:], False),
        (lambda lines: lines[:9] + [lines[9].replace(".", ",")] + lines[10:], False),
        (lambda lines: lines[:-2] + ["y" + lines[-2][1:]] + lines[-1:], True),
    ],
    ids=["truncated", "appended", "emptied", "renamed", "widened", "recelled"],
)
def test_file_changed_before_second_read_is_validation_failure(
    tmp_path, monkeypatch, edit, seen_by_stat
):
    p = tmp_path / "t.csv"
    lines = _late_text_table(p)
    assert p.stat().st_size > 2 * io.DEFAULT_BUFFER_SIZE  # the re-read reaches the file
    read_cells = schema._read_cells

    def edit_then_read(fh, stamp, *args):
        before = p.stat()
        with open(p, "w", newline="", encoding="utf-8") as fh_out:  # same inode, truncated
            fh_out.write("".join(line + "\r\n" for line in edit(lines)))
        if seen_by_stat:  # a later modification time, even where the clock has not ticked
            os.utime(p, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))
        else:  # a change that size and modification time do not show
            stamp = os.fstat(fh.fileno())
        return read_cells(fh, stamp, *args)

    monkeypatch.setattr(schema, "_read_cells", edit_then_read)
    with pytest.raises(ValidationFailure, match="changed while it was read"):
        load_dataset(p, Metadata("label", "yes", ("grp",)))


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

import numpy as np
import pytest

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
    CategoricalColumn,
    ColumnKind,
    Dataset,
    Metadata,
    NumericColumn,
    SplitSpec,
    TableSchema,
    holdout_size,
    infer_schema,
    load_dataset,
    parse_number,
    split_holdout,
    write_csv,
)


def write_lines(path, lines):
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")


def test_parse_number_accepts_decimals_and_exponents():
    assert parse_number("1.5") == 1.5
    assert parse_number("-2") == -2.0
    assert parse_number("3e2") == 300.0
    assert parse_number(".5") == 0.5


def test_parse_number_rejects_non_numbers_and_non_finite():
    for token in ["", "M", "nan", "inf", "-inf", "1e999", "1.2.3", "0x10", " 1"]:
        assert parse_number(token) is None, token


def test_infer_schema_numeric_above_cutoff():
    values = [[f"{i}.5"] for i in range(40)]
    schema = infer_schema(["v"], values)
    assert schema.kind_of("v") is ColumnKind.NUMERIC


def test_infer_schema_non_numeric_tokens_categorical():
    schema = infer_schema(["sex"], [["M"], ["F"], ["F"], ["M"]])
    assert schema.kind_of("sex") is ColumnKind.CATEGORICAL


def test_infer_schema_low_cardinality_numeric_is_categorical():
    # parseable values, but only 2 distinct: under the cutoff of 20
    rows = [["0"], ["1"], ["0"], ["1"]]
    schema = infer_schema(["flag"], rows)
    assert schema.kind_of("flag") is ColumnKind.CATEGORICAL


def test_infer_schema_declared_kind_overrides():
    rows = [["0"], ["1"], ["0"], ["1"]]
    schema = infer_schema(["flag"], rows, {"flag": ColumnKind.NUMERIC})
    assert schema.kind_of("flag") is ColumnKind.NUMERIC


def test_infer_schema_errors():
    with pytest.raises(EmptyTable):
        infer_schema(["a"], [])
    with pytest.raises(DuplicateColumnName):
        infer_schema(["a", "a"], [["1", "2"]])


def test_infer_schema_is_pure():
    rows = [["x"], ["y"], ["x"]]
    assert infer_schema(["c"], rows) == infer_schema(["c"], rows)


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


def _numbered_dataset(n: int) -> Dataset:
    schema = TableSchema((("id", ColumnKind.NUMERIC), ("label", ColumnKind.CATEGORICAL)))
    return Dataset(
        schema,
        (
            NumericColumn(np.arange(n, dtype=np.float64)),
            CategoricalColumn.from_values(["yes" if i % 2 else "no" for i in range(n)]),
        ),
    )

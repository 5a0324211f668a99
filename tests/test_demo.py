import numpy as np
import pytest

from fairsynth.demo import (
    BASE_POSITIVE_RATE,
    DEMO_SCHEMA,
    ELEVATED_GROUP,
    RACES,
    DemoSpec,
    make_demo_dataset,
)
from fairsynth.errors import ValidationFailure
from fairsynth.schema import ColumnKind, load_dataset, write_csv


def _group_positive_rates(data):
    race = data.decoded("Race")
    label = data.decoded("Diagnosis")
    rates = {}
    for group in RACES:
        mask = race == group
        rates[group] = float((label[mask] == "positive").mean())
    return rates


class TestDemoSpec:
    def test_defaults(self):
        spec = DemoSpec()
        assert spec.n_rows == 2000 and spec.seed == 0 and spec.disparity_strength == 0.3

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValidationFailure):
            DemoSpec(n_rows=10)


class TestMakeDemoDataset:
    def test_shape_and_schema(self):
        data = make_demo_dataset(DemoSpec(n_rows=200, seed=1))
        assert data.row_count == 200
        assert data.schema == DEMO_SCHEMA
        names = [name for name, _ in data.schema.columns]
        assert names == ["Race", "Sex", "symptom_scale", "functioning_score", "setting", "Diagnosis"]
        kinds = dict(data.schema.columns)
        assert kinds["symptom_scale"] == ColumnKind.NUMERIC
        assert kinds["Race"] == ColumnKind.CATEGORICAL

    def test_metadata_is_valid(self, tmp_path, demo_data, demo_md):
        p = tmp_path / "demo.csv"
        write_csv(demo_data, p)
        loaded = load_dataset(p, demo_md)  # raises on a missing column or non-binary label
        assert demo_md.positive_label in set(loaded.decoded(demo_md.label_column).tolist())
        for attr in demo_md.protected_attributes:
            assert loaded.schema.kind_of(attr) is ColumnKind.CATEGORICAL
        assert demo_md.label_column not in demo_md.protected_attributes
        assert demo_md.label_column == "Diagnosis"
        assert demo_md.positive_label == "positive"
        assert demo_md.protected_attributes == ("Race", "Sex")

    def test_deterministic_bytes(self, tmp_path):
        spec = DemoSpec(n_rows=500, seed=7, disparity_strength=0.3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(make_demo_dataset(spec), a)
        write_csv(make_demo_dataset(spec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_data(self):
        a = make_demo_dataset(DemoSpec(n_rows=500, seed=0))
        b = make_demo_dataset(DemoSpec(n_rows=500, seed=1))
        assert a != b

    def test_zero_disparity_rates_near_base(self):
        data = make_demo_dataset(DemoSpec(n_rows=4000, seed=2, disparity_strength=0.0))
        for group, rate in _group_positive_rates(data).items():
            assert rate == pytest.approx(BASE_POSITIVE_RATE, abs=0.05), group

    def test_disparity_elevates_one_group(self, demo_data):
        rates = _group_positive_rates(demo_data)
        elevated = rates.pop(ELEVATED_GROUP)
        for group, rate in rates.items():
            assert elevated - rate == pytest.approx(0.3, abs=0.06), group
            assert rate == pytest.approx(BASE_POSITIVE_RATE, abs=0.05), group

    def test_numeric_columns_finite(self, demo_data):
        for name in ("symptom_scale", "functioning_score"):
            values = demo_data.column(name).values
            assert np.all(np.isfinite(values))

    def test_label_correlates_with_symptoms(self, demo_data):
        symptom = demo_data.column("symptom_scale").values
        y = demo_data.decoded("Diagnosis") == "positive"
        assert symptom[y].mean() - symptom[~y].mean() > 1.0

    def test_setting_depends_on_label(self, demo_data):
        setting = demo_data.decoded("setting")
        y = demo_data.decoded("Diagnosis") == "positive"
        inpatient_pos = float((setting[y] == "inpatient").mean())
        inpatient_neg = float((setting[~y] == "inpatient").mean())
        assert inpatient_pos == pytest.approx(0.5, abs=0.05)
        assert inpatient_neg == pytest.approx(0.2, abs=0.05)

import numpy as np
import pytest
from scipy.optimize import minimize

from fairsynth.copula import SynthesizerConfig, fit, sample
from fairsynth.errors import (
    DimensionMismatch,
    EmptyDataset,
    LengthMismatch,
)
from fairsynth.schema import (
    CategoricalColumn,
    ColumnKind,
    Dataset,
    Metadata,
    NumericColumn,
    SplitSpec,
    TableSchema,
    split_holdout,
)
from fairsynth.tstr import (
    INFINITE,
    UNDEFINED,
    LogisticModel,
    TstrHyperparams,
    encode,
    fairness_report,
    fit_encoder,
    group_fpr,
    logistic_gradient,
    logistic_loss,
    max_relative_fpr,
    predict,
    train_logreg,
)


def _toy_dataset(numeric, cats, labels):
    schema = TableSchema(
        (
            ("v", ColumnKind.NUMERIC),
            ("g", ColumnKind.CATEGORICAL),
            ("label", ColumnKind.CATEGORICAL),
        )
    )
    return Dataset(
        schema,
        (
            NumericColumn(np.asarray(numeric, dtype=np.float64)),
            CategoricalColumn.from_values(list(cats)),
            CategoricalColumn.from_values(list(labels)),
        ),
    )


TOY_MD = Metadata("label", "yes", ("g",))


class TestEncoder:
    def test_feature_dimension(self):
        data = _toy_dataset([1.0, 2.0, 3.0], ["a", "b", "c"], ["yes", "no", "yes"])
        enc = fit_encoder(data, TOY_MD)
        # 1 numeric + 3 one-hot categories
        assert len(enc.feature_names) == 4
        assert "label" not in enc.feature_columns

    def test_zero_variance_numeric_encodes_zero(self):
        data = _toy_dataset([5.0, 5.0, 5.0], ["a", "a", "b"], ["yes", "no", "yes"])
        enc = fit_encoder(data, TOY_MD)
        X, _, _ = encode(enc, data)
        assert np.all(X[:, 0] == 0.0)

    def test_standardization_identity(self):
        rng = np.random.default_rng(0)
        data = _toy_dataset(
            rng.standard_normal(64) * 3 + 7,
            [str(c) for c in rng.integers(0, 3, 64)],
            ["yes" if rng.random() < 0.4 else "no" for _ in range(64)],
        )
        enc = fit_encoder(data, TOY_MD)
        X, y, groups = encode(enc, data)
        assert abs(X[:, 0].mean()) <= 1e-9
        assert X[:, 0].std() == pytest.approx(1.0, abs=1e-9)
        assert set(groups) == {"g"}

    def test_unseen_category_is_zero_block(self, caplog):
        train = _toy_dataset([1.0, 2.0, 3.0], ["a", "b", "c"], ["yes", "no", "yes"])
        enc = fit_encoder(train, TOY_MD)
        # The test column's code table (zzz, c, a, yyy) is permuted against
        # the fitted vocabulary (a, b, c) and holds two unseen categories.
        test = _toy_dataset(
            [1.0, 2.0, 3.0, 4.0, 5.0], ["zzz", "c", "a", "zzz", "yyy"], ["yes"] * 4 + ["no"]
        )
        with caplog.at_level("WARNING", logger="fairsynth.tstr"):
            X, _, groups = encode(enc, test)
        # columns: v, g=a, g=b, g=c; an unseen category row has an all-zero block
        assert X[:, 1:].tolist() == [
            [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
        ]
        assert groups["g"] == ["zzz", "c", "a", "zzz", "yyy"]
        warned = sorted(r.getMessage() for r in caplog.records)
        assert len(warned) == 2
        assert "'yyy'" in warned[0] and "'zzz'" in warned[1]

    def test_positive_label_maps_to_one(self):
        data = _toy_dataset([1.0, 2.0], ["a", "b"], ["yes", "no"])
        enc = fit_encoder(data, TOY_MD)
        _, y, _ = encode(enc, data)
        assert y.tolist() == [1, 0]

    def test_empty_dataset(self):
        schema = TableSchema((("v", ColumnKind.NUMERIC), ("label", ColumnKind.CATEGORICAL)))
        empty = Dataset(
            schema, (NumericColumn(np.empty(0)), CategoricalColumn(np.empty(0, np.int32), ("x",)))
        )
        with pytest.raises(EmptyDataset):
            fit_encoder(empty, Metadata("label", "x"))


class TestTrainLogreg:
    def test_linearly_separable(self):
        X = np.array([[-2.0], [2.0]])
        y = np.array([0, 1])
        model = train_logreg(X, y)
        assert predict(model, X).tolist() == [0, 1]

    def test_one_class_guard_all_positive(self):
        X = np.array([[0.5], [1.5], [2.5]])
        model = train_logreg(X, np.array([1, 1, 1]))
        assert model.constant
        p = 1.0 / (1.0 + np.exp(-(X @ model.weights + model.bias)))
        assert np.all(p >= 0.5)
        assert predict(model, X).tolist() == [1, 1, 1]

    def test_one_class_guard_all_negative(self):
        X = np.array([[0.5], [1.5]])
        model = train_logreg(X, np.array([0, 0]))
        assert model.constant
        assert predict(model, X).tolist() == [0, 0]

    def test_loss_history_non_increasing(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((120, 4))
        w_true = np.array([1.5, -2.0, 0.5, 0.0])
        y = (X @ w_true + 0.3 * rng.standard_normal(120) > 0).astype(int)
        model = train_logreg(X, y)
        hist = np.array(model.loss_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_meets_tolerance_on_toy_and_demo_tstr_sets(self, demo_data, demo_md):
        rng = np.random.default_rng(1)
        X_toy = rng.standard_normal((120, 4))
        w_true = np.array([1.5, -2.0, 0.5, 0.0])
        y_toy = (X_toy @ w_true + 0.3 * rng.standard_normal(120) > 0).astype(int)
        # The TSTR training set of `fairsynth run` with default flags on the demo.
        train, _ = split_holdout(demo_data, SplitSpec(1000, 0.3, 0))
        synthetic = sample(fit(train, SynthesizerConfig(seed=0)), 500, 0)
        X_demo, y_demo, _ = encode(fit_encoder(synthetic, demo_md), synthetic)
        hp = TstrHyperparams()
        for X, y in ((X_toy, y_toy), (X_demo, y_demo)):
            model = train_logreg(X, y, hp)
            grad_w, grad_b = logistic_gradient(model.weights, model.bias, X, y, hp.l2_strength)
            assert max(np.max(np.abs(grad_w)), abs(grad_b)) < hp.tolerance

    def test_loss_at_most_lbfgs_optimum(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n, d = int(rng.integers(10, 300)), int(rng.integers(1, 9))
            X = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0, d)
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(X @ rng.standard_normal(d))))).astype(int)
            hp = TstrHyperparams(l2_strength=10.0 ** float(rng.uniform(-4, -1)))
            model = train_logreg(X, y, hp)

            def objective(theta):
                w, b = theta[:d], float(theta[d])
                grad_w, grad_b = logistic_gradient(w, b, X, y, hp.l2_strength)
                return logistic_loss(w, b, X, y, hp.l2_strength), np.append(grad_w, grad_b)

            ref = minimize(
                objective, np.zeros(d + 1), jac=True, method="L-BFGS-B",
                options={"gtol": 1e-12, "ftol": 1e-15, "maxiter": 10_000},
            )
            loss = logistic_loss(model.weights, model.bias, X, y, hp.l2_strength)
            assert loss <= ref.fun + 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 3))
        y = (rng.random(50) < 0.5).astype(int)
        a = train_logreg(X, y)
        b = train_logreg(X, y)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_gradient_matches_finite_differences(self):
        # central differences with h = 1e-5 at random parameter points
        rng = np.random.default_rng(3)
        h = 1e-5
        worst = 0.0
        for _ in range(10):
            n, d = int(rng.integers(5, 30)), int(rng.integers(1, 6))
            X = rng.standard_normal((n, d))
            y = (rng.random(n) < 0.5).astype(float)
            w = rng.standard_normal(d)
            b = float(rng.standard_normal())
            l2 = 10.0 ** float(rng.uniform(-4, -1))
            grad_w, grad_b = logistic_gradient(w, b, X, y, l2)
            for k in range(d):
                e = np.zeros(d)
                e[k] = h
                num = (logistic_loss(w + e, b, X, y, l2) - logistic_loss(w - e, b, X, y, l2)) / (2 * h)
                worst = max(worst, abs(grad_w[k] - num) / max(abs(num), 1e-8))
            num_b = (logistic_loss(w, b + h, X, y, l2) - logistic_loss(w, b - h, X, y, l2)) / (2 * h)
            worst = max(worst, abs(grad_b - num_b) / max(abs(num_b), 1e-8))
        assert worst < 1e-4


class TestPredict:
    def test_zero_model_predicts_all_positive(self):
        model = LogisticModel(
            weights=np.zeros(2), bias=0.0, hyperparams=TstrHyperparams(),
            loss_history=(), constant=False,
        )
        X = np.random.default_rng(4).standard_normal((10, 2))
        assert predict(model, X).tolist() == [1] * 10

    def test_large_bias_all_positive(self):
        model = LogisticModel(
            weights=np.zeros(1), bias=100.0, hyperparams=TstrHyperparams(),
            loss_history=(), constant=False,
        )
        assert predict(model, np.array([[-5.0], [5.0]])).tolist() == [1, 1]

    def test_sigmoid_below_threshold(self):
        model = LogisticModel(
            weights=np.array([1.0]), bias=0.0, hyperparams=TstrHyperparams(),
            loss_history=(), constant=False,
        )
        # sigmoid(-1) = 0.269 < 0.5
        assert predict(model, np.array([[-1.0]])).tolist() == [0]

    def test_dimension_mismatch(self):
        model = LogisticModel(
            weights=np.zeros(3), bias=0.0, hyperparams=TstrHyperparams(),
            loss_history=(), constant=False,
        )
        with pytest.raises(DimensionMismatch):
            predict(model, np.zeros((4, 2)))


def oracle_group_fpr(y_true, y_pred, groups, min_support):
    out = {}
    for g in dict.fromkeys(groups):
        neg = sum(1 for yt, gg in zip(y_true, groups) if gg == g and yt == 0)
        fp = sum(
            1 for yt, yp, gg in zip(y_true, y_pred, groups) if gg == g and yt == 0 and yp == 1
        )
        out[g] = (fp / neg if neg >= min_support else None, neg, fp)
    return out


class TestGroupFpr:
    def test_hand_confusion(self):
        rates = group_fpr([0, 0, 1], [1, 0, 1], ["A", "A", "A"], min_support=1)
        assert rates["A"].fpr == 0.5
        assert rates["A"].negatives == 2 and rates["A"].false_positives == 1

    def test_zero_negatives_undefined(self):
        rates = group_fpr([1, 1], [1, 0], ["A", "A"], min_support=1)
        assert rates["A"].fpr is UNDEFINED

    def test_all_negative_predictions(self):
        rates = group_fpr([0, 0, 0, 0, 0], [0, 0, 0, 0, 0], ["A"] * 5, min_support=1)
        assert rates["A"].fpr == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            group_fpr([0, 1], [0], ["A", "B"])

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(1, 200))
            k = int(rng.integers(1, 6))
            y_true = rng.integers(0, 2, n).tolist()
            y_pred = rng.integers(0, 2, n).tolist()
            groups = [str(c) for c in rng.integers(0, k, n)]
            support = int(rng.integers(1, 8))
            got = group_fpr(y_true, y_pred, groups, support)
            expect = oracle_group_fpr(y_true, y_pred, groups, support)
            assert set(got) == set(expect)
            for g in got:
                assert (got[g].fpr, got[g].negatives, got[g].false_positives) == expect[g]
                if got[g].fpr is not None:
                    assert 0.0 <= got[g].fpr <= 1.0


class TestMaxRelativeFpr:
    def test_ratio(self):
        overall, per = max_relative_fpr({"x": {"A": 0.5, "B": 0.25}})
        assert overall == 2.0 and per["x"] == 2.0

    def test_all_equal_is_one(self):
        overall, _ = max_relative_fpr({"x": {"A": 1.0, "B": 1.0, "C": 1.0}})
        assert overall == 1.0

    def test_zero_min_is_infinite(self):
        overall, _ = max_relative_fpr({"x": {"A": 0.1, "B": 0.0}})
        assert overall == INFINITE

    def test_all_zero_is_parity(self):
        overall, _ = max_relative_fpr({"x": {"A": 0.0, "B": 0.0}})
        assert overall == 1.0

    def test_single_defined_group_undefined(self):
        overall, per = max_relative_fpr({"x": {"A": 0.5, "B": None}})
        assert per["x"] is UNDEFINED and overall is UNDEFINED

    def test_overall_max_across_attributes(self):
        overall, _ = max_relative_fpr(
            {"x": {"A": 0.3, "B": 0.2}, "y": {"C": 0.48, "D": 0.2}}
        )
        assert overall == pytest.approx(2.4)

    def test_undefined_attribute_excluded_from_overall(self):
        overall, _ = max_relative_fpr({"x": {"A": 0.5, "B": None}, "y": {"C": 0.2, "D": 0.1}})
        assert overall == pytest.approx(2.0)

    def test_at_least_one_whenever_defined(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            rates = {
                "g": {
                    str(i): (None if rng.random() < 0.2 else float(rng.random()))
                    for i in range(int(rng.integers(1, 6)))
                }
            }
            overall, _ = max_relative_fpr(rates)
            if overall is not None:
                assert overall >= 1.0

    def test_group_relabeling_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            vals = [float(rng.random()) for _ in range(int(rng.integers(2, 6)))]
            base = {str(i): v for i, v in enumerate(vals)}
            renamed = {f"grp_{i}": v for i, v in enumerate(vals)}
            a, _ = max_relative_fpr({"x": base})
            b, _ = max_relative_fpr({"x": renamed})
            assert a == b


class TestFairnessReport:
    def test_fpr_equals_brute_force(self, demo_data, demo_md):
        # synthetic == holdout == demo data: the report's per-group FPRs must
        # equal a direct confusion-matrix recount of the same predictions
        report = fairness_report(demo_data, demo_data, demo_md)
        enc = fit_encoder(demo_data, demo_md)
        X, y, groups = encode(enc, demo_data)
        model = train_logreg(X, y)
        y_pred = predict(model, X)
        for attr in ("Race", "Sex"):
            expect = oracle_group_fpr(y.tolist(), y_pred.tolist(), groups[attr], 5)
            got = report.by_attribute[attr]
            for g, (fpr, neg, fp) in expect.items():
                assert got.fpr[g] == fpr
                assert got.counts[g] == (neg, fp)

    def test_constant_positive_classifier_degenerate(self, demo_data, demo_md):
        # single-class synthetic training labels force the all-positive model
        n = demo_data.row_count
        forced = Dataset(
            demo_data.schema,
            tuple(
                CategoricalColumn.from_values(["positive"] * n)
                if name == "Diagnosis"
                else demo_data.column(name)
                for name, _ in demo_data.schema.columns
            ),
        )
        report = fairness_report(forced, demo_data, demo_md)
        assert report.degenerate
        for attr_entry in report.by_attribute.values():
            for fpr in attr_entry.fpr.values():
                assert fpr == 1.0
        assert report.max_rel_fpr == 1.0

    def test_deterministic(self, demo_data, demo_md):
        a = fairness_report(demo_data, demo_data, demo_md)
        b = fairness_report(demo_data, demo_data, demo_md)
        assert a == b

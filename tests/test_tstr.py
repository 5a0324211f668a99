import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from fairsynth.copula import SynthesizerConfig, fit, sample
from fairsynth.demo import DemoSpec, demo_metadata, make_demo_dataset
from fairsynth.errors import (
    DimensionMismatch,
    EmptyDataset,
    LengthMismatch,
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
    split_holdout,
)
from fairsynth.tstr import (
    INFINITE,
    MAX_NEWTON_STEPS,
    MAX_STEP_HALVINGS,
    UNDEFINED,
    HoldoutGroups,
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


def _oracle_encode(encoder, data):
    """``encode``'s X built one row at a time in plain Python: standardised
    numerics, one-hot categories, and zeros for a constant numeric column or
    a category unseen at fit time."""
    rows = []
    for i in range(data.row_count):
        row = []
        for name in encoder.feature_columns:
            col = data.column(name)
            if name in encoder.constant_numeric:
                row.append(0.0)
            elif name in encoder.numeric_stats:
                mean, std = encoder.numeric_stats[name]
                row.append((float(col.values[i]) - mean) / std)
            else:
                text = col.categories[int(col.codes[i])]
                row.extend(1.0 if text == c else 0.0 for c in encoder.category_maps[name])
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(data.row_count, len(encoder.feature_names))


def _reference_train_logreg(X, y, hp):
    """The damped Newton solver before each step's logits were reused: the
    logits recomputed for the gradient, the Hessian weights and every Armijo
    trial, and the Gram matrix as the general product (rows.T * s) @ rows.
    Returns (weights, bias, losses)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    l2 = hp.l2_strength
    w, b = np.zeros(d), 0.0
    losses = [logistic_loss(w, b, X, y, l2)]
    for _ in range(MAX_NEWTON_STEPS):
        grad = np.append(*logistic_gradient(w, b, X, y, l2))
        if np.max(np.abs(grad)) < hp.tolerance:
            break
        s = expit(X @ w + b)
        s *= (1.0 - s) / n
        gram = l2 * np.eye(d)
        for start in range(0, n, 1024):
            rows = X[start : start + 1024]
            gram += (rows.T * s[start : start + 1024]) @ rows
        col = (X.T @ s)[:, None]
        hessian = np.block([[gram, col], [col.T, s.sum()]])
        direction = np.linalg.solve(hessian, grad)
        for t in 0.5 ** np.arange(MAX_STEP_HALVINGS):
            loss = logistic_loss(w - t * direction[:d], b - t * direction[d], X, y, l2)
            if loss <= losses[-1] - 1e-4 * t * float(grad @ direction):
                break
        else:
            break
        w, b = w - t * direction[:d], b - float(t * direction[d])
        losses.append(loss)
    return w, b, losses


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
        assert groups["g"].decoded().tolist() == ["zzz", "c", "a", "zzz", "yyy"]
        # One line for the column: its unseen count and first unseen category.
        assert [r.getMessage() for r in caplog.records] == [
            "column 'g': 2 categories unseen at fit time, first 'yyy'; encoded as zeros"
        ]

    def test_unseen_categories_warn_once_per_column(self, caplog):
        train = _toy_dataset([1.0, 2.0, 3.0], ["a", "b", "c"], ["yes", "no", "yes"])
        enc = fit_encoder(train, TOY_MD)
        groups = [f"u{i:02d}" for i in range(50)][::-1] + ["a"]
        test = _toy_dataset(np.arange(51.0), groups, ["yes", "no"] * 25 + ["yes"])
        with caplog.at_level("WARNING", logger="fairsynth.tstr"):
            encode(enc, test)
        assert len(caplog.records) == 1
        assert "50 categories" in caplog.records[0].getMessage()
        assert "first 'u00'" in caplog.records[0].getMessage()

    def test_matches_row_wise_oracle(self, demo_data, demo_md, caplog):
        # Fit on a slice that uses no row of one race (its category table
        # still holds it) and on which symptom_scale is constant; the
        # holdout has that race (unseen at fit time) and a varying scale.
        rng = np.random.default_rng(29)
        data = _shuffled_tables(demo_data, rng)
        race = data.column("Race").codes
        absent = int(race[0])
        fit_rows = np.flatnonzero(race != absent)[:700]
        sliced = data.take(fit_rows)
        synth = Dataset(
            sliced.schema,
            tuple(
                NumericColumn(np.full(sliced.row_count, 3.25)) if name == "symptom_scale" else col
                for (name, _), col in zip(sliced.schema.columns, sliced.columns)
            ),
        )
        assert len(synth.column("Race").categories) == 4
        holdout = data.take(rng.permutation(data.row_count)[:300])
        enc = fit_encoder(synth, demo_md)
        assert len(enc.category_maps["Race"]) == 3
        assert enc.constant_numeric == frozenset({"symptom_scale"})
        with caplog.at_level("WARNING", logger="fairsynth.tstr"):
            for table in (synth, holdout):
                X, _, _ = encode(enc, table)
                want = _oracle_encode(enc, table)
                assert X.shape == want.shape
                assert np.array_equal(X.view(np.int64), want.view(np.int64))
        assert np.any(holdout.column("Race").codes == absent)
        assert len(caplog.records) == 1 and "'Race'" in caplog.records[0].getMessage()

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

    def test_agrees_with_reference_solver_on_demo_tstr_sets(self, demo_data, demo_md):
        # The TSTR sets of RunConfig seeds 0-9 on the demo (defaults: 1000
        # train rows, 500 sampled rows), and one set of several Gram blocks.
        train, holdout = split_holdout(demo_data, SplitSpec(1000, 0.3, 0))
        hp = TstrHyperparams()
        for seed, rows in [(seed, 500) for seed in range(10)] + [(0, 3000)]:
            synthetic = sample(fit(train, SynthesizerConfig(seed=seed)), rows, seed)
            enc = fit_encoder(synthetic, demo_md)
            X, y, _ = encode(enc, synthetic)
            model = train_logreg(X, y, hp)
            w_ref, b_ref, losses_ref = _reference_train_logreg(X, y, hp)
            got = np.append(model.weights, model.bias)
            want = np.append(w_ref, b_ref)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), seed
            assert len(model.loss_history) == len(losses_ref), seed
            X_test, _, _ = encode(enc, holdout)
            reference = LogisticModel(w_ref, b_ref, hp, tuple(losses_ref), False)
            assert np.array_equal(predict(model, X_test), predict(reference, X_test)), seed

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


def _reference_group_fpr(y_true, y_pred, groups, min_support):
    """The string-keyed counting loop that category codes replaced."""
    negatives, false_pos = {}, {}
    for yt, yp, g in zip(y_true, y_pred, groups):
        negatives.setdefault(g, 0)
        false_pos.setdefault(g, 0)
        if yt == 0:
            negatives[g] += 1
            false_pos[g] += yp == 1
    return {
        g: (false_pos[g] / negatives[g] if negatives[g] >= min_support else None,
            negatives[g], false_pos[g])
        for g in negatives
    }


def _shuffled_tables(data, rng):
    """``data`` with every category table permuted out of text order."""
    columns = []
    for col in data.columns:
        if isinstance(col, CategoricalColumn):
            slot = rng.permutation(len(col.categories))
            table = [""] * len(slot)
            for code, text in enumerate(col.categories):
                table[slot[code]] = text
            col = CategoricalColumn(slot[col.codes], tuple(table))
        columns.append(col)
    return Dataset(data.schema, tuple(columns))


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
    def test_numeric_attribute_or_label_rejected(self):
        data = make_demo_dataset(DemoSpec(n_rows=300, seed=0))
        for md in (
            Metadata("Diagnosis", "positive", ("Race", "symptom_scale")),
            Metadata("functioning_score", "positive", ("Race",)),
        ):
            with pytest.raises(ValidationFailure, match="is not categorical"):
                fairness_report(data, data, md)

    def test_holdout_column_of_another_kind_is_schema_mismatch(self):
        data = make_demo_dataset(DemoSpec(n_rows=300, seed=0))
        # Race is protected, Diagnosis the label, symptom_scale a numeric feature.
        for name in ("Race", "Diagnosis", "symptom_scale"):
            kinds = dict(data.schema.columns)
            col = data.column(name)
            if kinds[name] is ColumnKind.NUMERIC:
                swapped = CategoricalColumn.from_values(map(repr, col.values.tolist()))
                kinds[name] = ColumnKind.CATEGORICAL
            else:
                swapped = NumericColumn(col.codes.astype(np.float64))
                kinds[name] = ColumnKind.NUMERIC
            holdout = Dataset(
                TableSchema(tuple(kinds.items())),
                tuple(swapped if n == name else c for n, c in zip(kinds, data.columns)),
            )
            with pytest.raises(SchemaMismatch, match=repr(name)):
                fairness_report(data, holdout, demo_metadata())
        with pytest.raises(SchemaMismatch, match="'Nope'"):
            fairness_report(data, data, Metadata("Diagnosis", "positive", ("Race", "Nope")))

    def test_fpr_equals_brute_force(self, demo_data, demo_md):
        # synthetic == holdout == demo data: the report's per-group FPRs must
        # equal a direct confusion-matrix recount of the same predictions
        report = fairness_report(demo_data, demo_data, demo_md)
        enc = fit_encoder(demo_data, demo_md)
        X, y, groups = encode(enc, demo_data)
        model = train_logreg(X, y)
        y_pred = predict(model, X)
        for attr in ("Race", "Sex"):
            labels = groups[attr].decoded().tolist()
            expect = oracle_group_fpr(y.tolist(), y_pred.tolist(), labels, 5)
            got = report.by_attribute[attr]
            for g, (fpr, neg, fp) in expect.items():
                assert got.fpr[g] == fpr
                assert got.counts[g] == (neg, fp)

    def test_coded_counts_match_string_reference(self, demo_data, demo_md):
        # Category tables out of text order; the holdout, built with take,
        # lacks one race that its table still holds, and small groups fall
        # below min_support.
        rng = np.random.default_rng(17)
        data = _shuffled_tables(demo_data, rng)
        race = data.column("Race").codes
        any_excluded = False
        for absent in range(4):
            perm = rng.permutation(data.row_count)
            synth = data.take(perm[:600])
            rest = perm[600:700]
            holdout = data.take(rest[race[rest] != absent])
            report = fairness_report(synth, holdout, demo_md, TstrHyperparams(min_support=8))
            enc = fit_encoder(synth, demo_md)
            X, y, _ = encode(enc, synth)
            X_test, y_test, _ = encode(enc, holdout)
            positive = [int(v == "positive") for v in holdout.decoded("Diagnosis").tolist()]
            assert y_test.tolist() == positive
            y_pred = predict(train_logreg(X, y), X_test).tolist()
            excluded = []
            for attr in demo_md.protected_attributes:
                labels = holdout.decoded(attr).tolist()
                want = sorted(_reference_group_fpr(positive, y_pred, labels, 8).items())
                got = report.by_attribute[attr]
                assert list(got.counts.items()) == [(g, (neg, fp)) for g, (_, neg, fp) in want]
                assert list(got.fpr.items()) == [(g, fpr) for g, (fpr, _, _) in want]
                excluded += [(attr, g) for g, (fpr, _, _) in want if fpr is None]
            assert [(a, g) for a, g, _ in report.excluded_groups] == excluded
            any_excluded |= bool(excluded)
        assert any_excluded

    def test_kept_holdout_groups_give_the_same_report(self, demo_data, demo_md):
        # One holdout scored against several synthetic tables: its group
        # negatives, counted in the first report, serve the later ones.
        rng = np.random.default_rng(18)
        data = _shuffled_tables(demo_data, rng)
        perm = rng.permutation(data.row_count)
        holdout = data.take(perm[:300])
        hyperparams = TstrHyperparams(min_support=8)
        kept = HoldoutGroups(holdout)
        for lo in (300, 900, 1500):
            synth = data.take(perm[lo:lo + 600])
            report = fairness_report(synth, holdout, demo_md, hyperparams, holdout_groups=kept)
            assert list(kept.negatives) == list(demo_md.protected_attributes)
            assert report == fairness_report(synth, holdout, demo_md, hyperparams)
        # The kept negatives belong to that holdout, not to an equal copy.
        with pytest.raises(ValidationFailure, match="another holdout"):
            fairness_report(synth, data.take(perm[:300]), demo_md, hyperparams, holdout_groups=kept)

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

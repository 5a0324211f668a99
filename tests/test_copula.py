import json
import math
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from fairsynth import copula
from fairsynth.copula import (
    CONSTANT_VARIANCE,
    PSD_EPS,
    CategoricalMarginal,
    CopulaModel,
    NumericMarginal,
    _correlation,
    _fit_scores,
    _inverse_numeric,
    fit,
    fit_marginal,
    load_model,
    model_from_json_dict,
    model_to_json_dict,
    nearest_psd,
    sample,
    save_model,
    shrink_correlation,
    slice_ranks,
)
from fairsynth.errors import NotFitted, SchemaMismatch, TooFewValues, ValidationFailure
from fairsynth.schema import (
    CategoricalColumn,
    Column,
    ColumnKind,
    Dataset,
    NumericColumn,
    TableSchema,
)
from fairsynth.supervisor import balance_groups


def to_normal_scores(column: Column, marginal, rng: np.random.Generator) -> np.ndarray:
    """Forward copula transform of a column against a fitted marginal: the
    oracle for ``fit``'s own scores.

    Numeric value with (average, 1-based) rank r among the n fitted values
    maps through u = r/(n+1); the values are looked up in ascending order and
    the ranks scattered back to row order. Categorical values draw u
    uniformly inside the category's interval. A category the marginal lacks
    is a ValidationFailure naming the first such row's value.
    """
    if isinstance(column, NumericColumn) != isinstance(marginal, NumericMarginal):
        raise SchemaMismatch(
            f"cannot score a {type(column).__name__} against a {type(marginal).__name__}"
        )
    if isinstance(marginal, NumericMarginal):
        fitted = marginal.sorted_values
        n = len(fitted)
        order = np.argsort(column.values)
        arr = column.values[order]
        less = np.searchsorted(fitted, arr, side="left")
        leq = np.searchsorted(fitted, arr, side="right")
        ties = leq - less
        rank = np.empty(len(arr))
        rank[order] = np.where(ties > 0, less + (ties + 1) / 2.0, less + 0.5)
        u = rank / (n + 1)
        return ndtri(u)
    index = {c: i for i, c in enumerate(marginal.categories)}
    # Marginal slot of each table entry; -1 marks a category the fit never saw.
    slots = np.array([index.get(c, -1) for c in column.categories], dtype=np.int64)
    idx = slots[column.codes]
    if (idx < 0).any():
        value = column.categories[column.codes[np.argmax(idx < 0)]]
        raise ValidationFailure(f"value {value!r} absent from fitted marginal")
    upper = marginal.upper_bounds
    lower = np.concatenate(([0.0], upper[:-1]))
    lo = lower[idx]
    width = upper[idx] - lo
    u = lo + rng.random(len(idx)) * width
    return ndtri(u)


def mp_cdf(z: float) -> float:
    # high-precision normal CDF oracle via erf
    mpmath.mp.dps = 50
    return float(0.5 * (1 + mpmath.erf(mpmath.mpf(z) / mpmath.sqrt(2))))


class TestNormalCdf:
    def test_zero(self):
        assert ndtr(0.0) == 0.5

    def test_against_high_precision_oracle(self):
        rng = np.random.default_rng(0)
        for z in [1.959963985, -1.959963985, *rng.uniform(-6, 6, 50)]:
            assert abs(ndtr(float(z)) - mp_cdf(float(z))) <= 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for z in rng.uniform(-8, 8, 100):
            assert abs(ndtr(z) + ndtr(-z) - 1.0) <= 1e-12


class TestNormalQuantile:
    def test_half(self):
        assert ndtri(0.5) == 0.0

    def test_bisection_oracle(self):
        # invert ndtr by bisection, compare the closed form to it
        def oracle(u, lo=-10.0, hi=10.0):
            for _ in range(80):
                mid = (lo + hi) / 2
                if ndtr(mid) < u:
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2

        assert abs(ndtri(0.975) - 1.95996) <= 1e-5
        rng = np.random.default_rng(2)
        for u in rng.uniform(0.001, 0.999, 25):
            assert abs(ndtri(float(u)) - oracle(float(u))) <= 1e-8

    def test_round_trip(self):
        for z in np.linspace(-6, 6, 121):
            assert abs(ndtri(ndtr(float(z))) - z) <= 1e-7


class TestFitMarginal:
    def test_categorical_tie_broken_lexicographically(self):
        m = fit_marginal(CategoricalColumn.from_values(["a", "a", "b", "b"]))
        assert m.categories == ("a", "b")
        assert m.frequencies.tolist() == [0.5, 0.5]
        # "a" owns [0.0, 0.5) and "b" owns [0.5, 1.0)
        assert m.upper_bounds.tolist() == [0.5, 1.0]

    def test_numeric_sorted(self):
        m = fit_marginal(NumericColumn([3.0, 1.0, 2.0]))
        assert m.sorted_values.tolist() == [1.0, 2.0, 3.0]

    def test_single_category(self):
        m = fit_marginal(CategoricalColumn.from_values(["x"]))
        assert m.frequencies.tolist() == [1.0]
        # "x" owns [0.0, 1.0)
        assert m.upper_bounds.tolist() == [1.0]

    def test_too_few_values(self):
        with pytest.raises(TooFewValues):
            fit_marginal(NumericColumn([1.0]))
        with pytest.raises(TooFewValues):
            fit_marginal(CategoricalColumn.from_values([]))

    def test_frequency_invariants(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            values = [str(c) for c in rng.integers(0, 8, int(rng.integers(1, 60)))]
            m = fit_marginal(CategoricalColumn.from_values(values))
            assert abs(m.frequencies.sum() - 1.0) <= 1e-9
            assert m.upper_bounds[-1] == 1.0
            assert np.all(np.diff(m.upper_bounds) > 0) or len(m.upper_bounds) == 1
            # descending frequency, ties by text ascending
            key = [(-f, c) for f, c in zip(m.frequencies, m.categories)]
            assert key == sorted(key)


def _reference_fit_marginal(values, kind):
    """The string-keyed fit that category codes replaced: the oracle for it."""
    if kind is ColumnKind.NUMERIC:
        return NumericMarginal(np.sort(np.asarray(values, dtype=np.float64)))
    seq = [str(v) for v in values]
    counts = Counter(seq)
    ordered = sorted(counts, key=lambda c: (-counts[c], c))
    freqs = np.array([counts[c] / len(seq) for c in ordered], dtype=np.float64)
    upper = np.cumsum(freqs)
    upper[-1] = 1.0
    return CategoricalMarginal(tuple(ordered), freqs, upper)


def _reference_correlation(train, seed):
    """``fit``'s score correlation with string lookups into each marginal."""
    rng = np.random.default_rng(seed)
    scores = []
    for name, kind in train.schema.columns:
        values = train.decoded(name)
        m = _reference_fit_marginal(values, kind)
        if kind is ColumnKind.NUMERIC:
            scores.append(to_normal_scores(NumericColumn(values), m, rng))
            continue
        index = {c: i for i, c in enumerate(m.categories)}
        idx = np.array([index[str(v)] for v in values], dtype=np.int64)
        lower = np.concatenate(([0.0], m.upper_bounds[:-1]))
        u = lower[idx] + rng.random(len(idx)) * (m.upper_bounds[idx] - lower[idx])
        scores.append(ndtri(u))
    return _correlation(np.array(scores))


def _coded_slices(rng):
    """Seeded slices, built with ``take``, of a table whose category tables
    are out of text order; a slice's tables keep categories it lacks, and
    small slices over few categories tie often."""
    n = 60
    schema, columns = [], []
    for j, width in enumerate((2, 3, 6)):
        texts = rng.permutation([f"{chr(ord('a') + i)}{j}" for i in range(width)]).tolist()
        columns.append(CategoricalColumn(rng.integers(0, width, n), tuple(texts)))
        schema.append((f"c{j}", ColumnKind.CATEGORICAL))
    columns.append(NumericColumn(rng.standard_normal(n)))
    schema.append(("x", ColumnKind.NUMERIC))
    data = Dataset(TableSchema(tuple(schema)), tuple(columns))
    for _ in range(40):
        yield data.take(rng.choice(n, size=int(rng.integers(2, 30)), replace=False))
    # "z" and "a" tie in code order z, a; "y" is in the table but not the slice.
    tied = CategoricalColumn(np.array([0, 1, 2, 2, 0, 1]), ("z", "y", "a"))
    yield Dataset(
        TableSchema((("t", ColumnKind.CATEGORICAL), ("x", ColumnKind.NUMERIC))),
        (tied, NumericColumn(np.arange(6.0))),
    ).take(np.array([0, 2, 3, 4]))


class TestCodedFitMatchesStringReference:
    def test_marginals_and_correlation(self):
        rng = np.random.default_rng(11)
        for train in _coded_slices(rng):
            for (name, kind), col in zip(train.schema.columns, train.columns):
                got = fit_marginal(col)
                want = _reference_fit_marginal(train.decoded(name), kind)
                if kind is ColumnKind.NUMERIC:
                    assert got.sorted_values.tobytes() == want.sorted_values.tobytes()
                else:
                    assert got.categories == want.categories
                    assert got.frequencies.tobytes() == want.frequencies.tobytes()
                    assert got.upper_bounds.tobytes() == want.upper_bounds.tobytes()
            model = fit(train, seed=5)
            assert model.correlation.tobytes() == _reference_correlation(train, 5).tobytes()

    def test_unknown_category_names_first_unseen_row(self):
        m = fit_marginal(CategoricalColumn.from_values(["a", "b"]))
        column = CategoricalColumn(np.array([1, 2, 0]), ("x", "a", "w"))
        with pytest.raises(ValidationFailure, match="'w'"):
            to_normal_scores(column, m, np.random.default_rng(0))


class TestNormalScores:
    def test_numeric_middle_rank(self):
        m = fit_marginal(NumericColumn([1.0, 2.0, 3.0]))
        z = to_normal_scores(NumericColumn([2.0]), m, np.random.default_rng(0))
        assert z[0] == 0.0  # u = 2/4 = 0.5

    def test_numeric_tie_average_rank(self):
        m = fit_marginal(NumericColumn([1.0, 2.0, 2.0, 3.0]))
        z = to_normal_scores(NumericColumn([2.0]), m, np.random.default_rng(0))
        # ranks 2 and 3 average to 2.5; u = 2.5/5 = 0.5
        assert z[0] == 0.0

    def test_categorical_full_interval_reproducible(self):
        m = fit_marginal(CategoricalColumn.from_values(["x", "x"]))
        xs = CategoricalColumn.from_values(["x"] * 10)
        a = to_normal_scores(xs, m, np.random.default_rng(9))
        b = to_normal_scores(xs, m, np.random.default_rng(9))
        assert a.tolist() == b.tolist()
        assert np.all(np.isfinite(a))

    def test_unknown_category(self):
        m = fit_marginal(CategoricalColumn.from_values(["a", "b"]))
        with pytest.raises(ValidationFailure):
            to_normal_scores(CategoricalColumn.from_values(["z"]), m, np.random.default_rng(0))


def _reference_scores(values, marginal):
    """Numeric normal scores with one searchsorted pair over the needles in
    row order, as before the lookups were sorted: the oracle for them."""
    fitted = marginal.sorted_values
    less = np.searchsorted(fitted, values, side="left")
    leq = np.searchsorted(fitted, values, side="right")
    ties = leq - less
    rank = np.where(ties > 0, less + (ties + 1) / 2.0, less + 0.5)
    return ndtri(rank / (len(fitted) + 1))


def _reference_inverse(u, marginal):
    """The numeric inverse ECDF with np.interp over u in row order."""
    xs = marginal.sorted_values
    positions = np.arange(1, len(xs) + 1, dtype=np.float64) / (len(xs) + 1)
    return np.interp(u, positions, xs)


def _assert_scores_match(values, fitted_values):
    m = fit_marginal(NumericColumn(fitted_values))
    got = to_normal_scores(NumericColumn(values), m, np.random.default_rng(0))
    want = _reference_scores(np.asarray(values, dtype=np.float64), m)
    assert got.tobytes() == want.tobytes()


class TestSortedLookupMatchesUnsortedReference:
    def test_heavy_ties(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            values = np.round(rng.standard_normal(int(rng.integers(2, 400))), 1)
            _assert_scores_match(values, values)

    def test_signed_zeros(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            values = rng.choice([-0.0, 0.0, -1.5, 2.0], size=int(rng.integers(2, 50)))
            _assert_scores_match(values, values)
            _assert_scores_match(values[::-1], values)

    def test_foreign_needles(self):
        rng = np.random.default_rng(23)
        fitted = np.round(rng.uniform(-5, 5, 60), 1)
        inside = rng.uniform(fitted.min(), fitted.max(), 40)
        needles = np.concatenate(
            ([-100.0, fitted.min() - 1e-9, fitted.max() + 1e-9, 100.0], inside, fitted[:20])
        )
        _assert_scores_match(rng.permutation(needles), fitted)

    def test_empty_and_single_needle(self):
        fitted = [3.0, 1.0, 1.0, 2.0]
        _assert_scores_match(np.array([]), fitted)
        for needle in (0.0, 1.0, 1.5, 3.0, 4.0):
            _assert_scores_match([needle], fitted)

    def test_sample_inverse(self):
        # Column scales 0, 1 and 1e3 in the factor give u = 0.5 on every row
        # (the middle plotting position of three values), generic u, and u
        # saturated at exactly 0.0 or 1.0.
        rng = np.random.default_rng(24)
        fitted = {
            "half": np.array([-0.0, 0.0, 1.0]),
            "plain": np.round(rng.standard_normal(200), 1),
            "edge": np.array([0.0, -0.0, 2.0, 2.0, -3.0]),
        }
        marginals = {name: fit_marginal(NumericColumn(v)) for name, v in fitted.items()}
        order = tuple(fitted)
        cholesky = np.diag([0.0, 1.0, 1e3])
        model = CopulaModel(marginals, np.eye(3), cholesky, order, 200, 0)
        for n_rows in (0, 1, 500):
            out = sample(model, n_rows, 7)
            u = ndtr(np.random.default_rng(7).standard_normal((n_rows, 3)) @ cholesky.T)
            if n_rows == 500:
                assert set(np.unique(u[:, 2])) >= {0.0, 1.0}
            for j, name in enumerate(order):
                want = _reference_inverse(u[:, j], marginals[name])
                assert out.column(name).values.tobytes() == want.tobytes()



def _interp_inverse(u, xs):
    """np.interp over the positions r/(n+1), u and positions stretched by the
    sampler's power of two: the oracle for ``_inverse_numeric``'s arithmetic."""
    n = len(xs)
    scale = 2.0 ** (n + 1).bit_length()
    positions = np.arange(1, n + 1, dtype=np.float64) / (n + 1)
    return np.interp(u * scale, positions * scale, xs)


def _grid_queries(rng, n):
    """Random scores, every position, the floats next to each on both sides,
    and the ends of [0, 1] with the smallest normal and subnormal scores."""
    positions = np.arange(1, n + 1, dtype=np.float64) / (n + 1)
    return np.concatenate([
        rng.random(200), positions, np.nextafter(positions, 0.0), np.nextafter(positions, 1.0),
        [0.0, 1.0, 1e-300, 5e-324],
    ])


class TestInverseMatchesInterp:
    """``_inverse_numeric`` finds each score's interval by arithmetic on the
    grid instead of a search, and gives ``np.interp``'s bits."""

    @staticmethod
    def _assert_matches(xs, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _inverse_numeric(u.copy(), NumericMarginal(xs))
            want = _interp_inverse(u, xs)
        assert got.tobytes() == want.tobytes()
        return got

    def test_random_marginals(self):
        rng = np.random.default_rng(32)
        for case in range(1000):
            n = int(rng.integers(2, 3001))
            if case % 3 == 0:
                values = rng.integers(-5, 6, n).astype(np.float64)  # ties
            else:
                values = rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5)
            values[rng.random(n) < 1 / 3] = -0.0
            self._assert_matches(np.sort(values), _grid_queries(rng, n))

    def test_two_values_and_scaled_marginals(self):
        rng = np.random.default_rng(33)
        for n in (2, 3, 7, 500):
            xs = np.sort(rng.standard_normal(n))
            for factor in (1.0, 2.0**1014, 2.0**-1000):
                self._assert_matches(xs * factor, _grid_queries(rng, n))

    def test_step_between_signs_near_float_max(self):
        # The step between -1.7e308 and 1.7e308 overflows: both sides give
        # the same inf between them, and neither warns.
        rng = np.random.default_rng(34)
        for n in (3, 4, 50, 501):
            xs = np.where(np.arange(n) < n // 2, -1.7e308, 1.7e308)
            got = self._assert_matches(xs, _grid_queries(rng, n))
            assert np.isinf(got).any() and not np.isnan(got).any()


def _hostile_tables(demo_data, demo_metadata):
    """Tables whose fit scores are easy to get wrong."""
    rng = np.random.default_rng(31)
    n = 300
    yield "many ties", Dataset(
        TableSchema((("a", ColumnKind.NUMERIC), ("b", ColumnKind.NUMERIC))),
        (NumericColumn(rng.integers(0, 4, n) * 0.5), NumericColumn(np.round(rng.standard_normal(n)))),
    )
    yield "balanced slice", balance_groups(demo_data.take(np.arange(400)), demo_metadata, 3)[0]
    yield "signed zeros", Dataset(
        TableSchema((("z", ColumnKind.NUMERIC), ("x", ColumnKind.NUMERIC))),
        (NumericColumn(rng.choice([-0.0, 0.0, 1.0], n)), NumericColumn(rng.standard_normal(n))),
    )
    yield "constant", Dataset(
        TableSchema((("k", ColumnKind.NUMERIC), ("x", ColumnKind.NUMERIC))),
        (NumericColumn(np.full(n, -2.5)), NumericColumn(rng.standard_normal(n))),
    )
    yield "two rows", demo_data.take(np.array([5, 1]))
    # Categories 1 and 3 are in every table but in no row of the slice.
    table = Dataset(
        TableSchema((("c", ColumnKind.CATEGORICAL), ("x", ColumnKind.NUMERIC))),
        (CategoricalColumn(np.arange(n) % 5, ("q", "b", "z", "a", "m")), NumericColumn(np.arange(n) % 7.0)),
    )
    yield "sliced categories", table.take(np.flatnonzero(np.isin(np.arange(n) % 5, (0, 2, 4))))


class TestFitScoresMatchOracle:
    """``fit`` scores its own columns without searching its marginals;
    ``to_normal_scores``, drawn in column order from the same rng, is the
    oracle."""

    def test_scores_and_model(self, demo_data, demo_md):
        for name, train in _hostile_tables(demo_data, demo_md):
            marginals, got = _fit_scores(train.columns, np.random.default_rng(8))
            rng = np.random.default_rng(8)
            want = np.empty(got.shape)
            for row, col, marginal in zip(want, train.columns, marginals):
                oracle = fit_marginal(col)
                assert vars(marginal).keys() == vars(oracle).keys(), name
                for field, value in vars(oracle).items():
                    assert np.array_equal(getattr(marginal, field), value), (name, field)
                row[:] = to_normal_scores(col, oracle, rng)
            assert got.tobytes() == want.tobytes(), name

            for lam in (0.0, 0.3):
                model = shrink_correlation(fit(train, seed=8), lam)
                corr = _correlation(want.copy())
                if lam > 0.0:
                    corr = (1.0 - lam) * corr + lam * np.eye(len(train.columns))
                assert model.correlation.tobytes() == corr.tobytes(), name
                assert model.cholesky.tobytes() == np.linalg.cholesky(corr).tobytes(), name

    def test_scoring_other_kind_is_schema_mismatch(self):
        numeric = NumericColumn([1.0, 2.0, 3.0])
        categorical = CategoricalColumn.from_values(["a", "b", "a"])
        rng = np.random.default_rng(0)
        with pytest.raises(SchemaMismatch):
            to_normal_scores(numeric, fit_marginal(categorical), rng)
        with pytest.raises(SchemaMismatch):
            to_normal_scores(categorical, fit_marginal(numeric), rng)


def _resamples(demo_data, demo_metadata):
    """(name, slice, rows): slices whose refit ranks are easy to get wrong,
    and rows of each that a refit draws."""
    rng = np.random.default_rng(41)
    n = 300
    ties = Dataset(
        TableSchema((("a", ColumnKind.NUMERIC), ("b", ColumnKind.NUMERIC))),
        (NumericColumn(rng.integers(0, 4, n) * 0.5), NumericColumn(np.round(rng.standard_normal(n)))),
    )
    yield "heavy ties", ties, rng.integers(0, n, 2 * n)
    yield "rows missed", ties, rng.integers(0, n, 40)
    yield "one row drawn many times", ties, np.concatenate([np.arange(n), np.full(500, 17)])
    zeros = Dataset(
        TableSchema((("z", ColumnKind.NUMERIC), ("x", ColumnKind.NUMERIC))),
        (NumericColumn(rng.choice([-0.0, 0.0, 1.0], n)), NumericColumn(rng.standard_normal(n))),
    )
    yield "signed zeros", zeros, rng.integers(0, n, 700)
    constant = Dataset(
        TableSchema((("k", ColumnKind.NUMERIC), ("x", ColumnKind.NUMERIC))),
        (NumericColumn(np.full(n, -2.5)), NumericColumn(rng.standard_normal(n))),
    )
    yield "constant", constant, rng.integers(0, n, 500)
    yield "two-row slice", demo_data.take(np.array([5, 1])), np.array([1, 1, 0, 1, 1, 1])
    table = demo_data.take(np.arange(400))
    _, rows = balance_groups(table, demo_metadata, 3)
    yield "balanced slice", table, rows


class TestRefitRanksMatchOracle:
    """A refit on a slice, or on rows drawn from it, ranks its numeric columns
    by the slice's ``slice_ranks`` instead of sorting; ``to_normal_scores``
    and a fit without them are the oracles."""

    def test_scores(self, demo_data, demo_md):
        for name, table, drawn in _resamples(demo_data, demo_md):
            ranks = slice_ranks(table)
            for rows in (None, drawn):
                resample = table if rows is None else table.take(rows)
                _, got = _fit_scores(resample.columns, np.random.default_rng(8), ranks, rows)
                rng = np.random.default_rng(8)
                for row, col in zip(got, resample.columns):
                    want = to_normal_scores(col, fit_marginal(col), rng)
                    assert row.tobytes() == want.tobytes(), (name, rows is None)

    def test_model(self, demo_data, demo_md):
        for name, table, drawn in _resamples(demo_data, demo_md):
            ranks = slice_ranks(table)
            for rows in (None, drawn):
                resample = table if rows is None else table.take(rows)
                for lam in (0.0, 0.3):
                    got = shrink_correlation(fit(resample, seed=8, ranks=ranks, rows=rows), lam)
                    want = shrink_correlation(fit(resample, seed=8), lam)
                    assert got.marginals.keys() == want.marginals.keys(), name
                    for column, marginal in want.marginals.items():
                        for field, value in vars(marginal).items():
                            kept = getattr(got.marginals[column], field)
                            assert np.asarray(kept).tobytes() == np.asarray(value).tobytes(), name
                    assert got.correlation.tobytes() == want.correlation.tobytes(), name
                    assert got.cholesky.tobytes() == want.cholesky.tobytes(), name
                    assert got.fitted_rows == want.fitted_rows == resample.row_count

    def test_ranks_must_describe_the_table(self, demo_data):
        table = demo_data.take(np.arange(50))
        ranks = slice_ranks(table)
        with pytest.raises(ValidationFailure):
            fit(table, ranks=ranks[:-1])
        with pytest.raises(ValidationFailure):
            fit(table.take(np.arange(10)), ranks=ranks, rows=np.arange(9))



def _tie_free_table(n, seed):
    """Three numeric columns of n distinct values, one with ties and one
    categorical."""
    rng = np.random.default_rng(seed)
    schema = TableSchema((
        ("a", ColumnKind.NUMERIC), ("b", ColumnKind.NUMERIC), ("t", ColumnKind.NUMERIC),
        ("c", ColumnKind.CATEGORICAL), ("z", ColumnKind.NUMERIC),
    ))
    return Dataset(schema, (
        NumericColumn(rng.standard_normal(n)),
        NumericColumn(rng.permutation(n) - n / 2.0),  # one -0.0 or 0.0, not both
        NumericColumn(np.round(rng.standard_normal(n))),
        CategoricalColumn(rng.integers(0, 3, n), ("p", "q", "r")),
        NumericColumn(rng.permutation(n) * 1e-3 + 7.0),
    ))


class TestTieFreeColumnsShareOneGrid:
    """A numeric column of n distinct values fitted on its own rows reads its
    scores from one ``ndtri`` grid per fit; ``to_normal_scores`` is the
    oracle, with or without slice ranks, and on drawn rows."""

    def test_scores(self):
        for n in (2, 3, 301):
            table = _tie_free_table(n, n)
            ranks = slice_ranks(table)
            drawn = np.random.default_rng(n).permutation(n)
            for ranks_given, rows in ((None, None), (ranks, None), (ranks, drawn)):
                resample = table if rows is None else table.take(rows)
                _, got = _fit_scores(resample.columns, np.random.default_rng(8), ranks_given, rows)
                rng = np.random.default_rng(8)
                for name, row, col in zip(resample.schema.names, got, resample.columns):
                    want = to_normal_scores(col, fit_marginal(col), rng)
                    assert row.tobytes() == want.tobytes(), (n, name, rows is None)
                model = fit(resample, seed=8, ranks=ranks_given, rows=rows)
                assert model.correlation.tobytes() == _correlation(got).tobytes(), n

    def test_one_ndtri_for_every_tie_free_column(self, monkeypatch):
        # The grid, the tied column's runs and the categorical column's
        # scores: three calls, however many tie-free columns there are.
        calls = []

        def counted(x, *args, **kwargs):
            calls.append(np.size(x))
            return ndtri(x, *args, **kwargs)

        monkeypatch.setattr(copula, "ndtri", counted)
        table = _tie_free_table(301, 5)
        for ranks in (None, slice_ranks(table)):
            calls.clear()
            _fit_scores(table.columns, np.random.default_rng(8), ranks)
            assert len(calls) == 3 and calls.count(301) == 2, calls


class TestEstimateCorrelation:
    """The copula's score correlation, formed by ``copula._correlation`` in a
    C-ordered (columns, rows) matrix of its own."""

    @staticmethod
    def _estimate(scores: np.ndarray) -> np.ndarray:
        """The correlation of the (rows, columns) ``scores``, from a copy."""
        return _correlation(np.array(scores.T, dtype=np.float64, order="C"))

    def test_identical_columns(self):
        x = np.random.default_rng(4).standard_normal(100)
        r = self._estimate(np.column_stack([x, x]))
        # exact collinearity is repaired to the PSD boundary, eps away from 1
        assert r[0, 1] == pytest.approx(1.0, abs=2e-6)

    def test_negated_column(self):
        x = np.random.default_rng(5).standard_normal(100)
        r = self._estimate(np.column_stack([x, -x]))
        assert r[0, 1] == pytest.approx(-1.0, abs=2e-6)

    def test_hand_computed_collinear_pair(self):
        scores = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]])
        # hand Pearson: cov = 4/3, sx*sy = sqrt(2/3)*sqrt(8/3) = 4/3, rho = 1
        x, y = scores[:, 0], scores[:, 1]
        cov = np.mean((x - x.mean()) * (y - y.mean()))
        assert cov / (x.std() * y.std()) == pytest.approx(1.0, abs=1e-12)
        r = self._estimate(scores)
        assert r[0, 1] == pytest.approx(1.0, abs=2e-6)

    def test_constant_column_zero_correlation(self):
        rng = np.random.default_rng(6)
        scores = np.column_stack([np.full(50, 2.0), rng.standard_normal(50)])
        r = self._estimate(scores)
        assert r[0, 0] == 1.0 and r[1, 1] == 1.0
        assert r[0, 1] == 0.0
        # Among active columns, a constant one keeps zero correlation too.
        scores = rng.standard_normal((2000, 5)) @ rng.standard_normal((5, 5))
        r = self._estimate(np.insert(scores, 2, 3.0, axis=1))
        assert r[2, [0, 1, 3, 4, 5]].tolist() == [0.0] * 5

    def test_matches_corrcoef(self):
        for scores in _random_scores(np.random.default_rng(30)):
            want = _corrcoef_correlation(scores).tobytes()
            assert self._estimate(scores).tobytes() == want


def _corrcoef_correlation(scores: np.ndarray) -> np.ndarray:
    """The oracle of ``fit``'s correlation (``copula._correlation``):
    ``np.corrcoef`` of a C-ordered copy of the (rows, columns) scores'
    active columns."""
    scores = np.asarray(scores, dtype=np.float64)
    n, d = scores.shape
    variances = scores.var(axis=0)
    active = variances >= CONSTANT_VARIANCE
    corr = np.eye(d)
    if active.sum() >= 2:
        sub = scores.T if active.all() else scores[:, active].T
        sub = np.corrcoef(np.ascontiguousarray(sub))
        sub = np.clip(sub, -1.0, 1.0)
        ij = np.where(active)[0]
        corr[np.ix_(ij, ij)] = sub
    np.fill_diagonal(corr, 1.0)
    return nearest_psd(corr, PSD_EPS)


def _random_scores(rng):
    """Seeded (rows, columns) score matrices: 2 to 59 columns, 3 to 2,999
    rows, column scales from 1e-3 to 1e3, a constant column in about 30 %."""
    for _ in range(80):
        d, n = int(rng.integers(2, 60)), int(rng.integers(3, 3000))
        scores = rng.standard_normal((n, d)) @ rng.standard_normal((d, d))
        scores *= 10.0 ** rng.uniform(-3, 3, d)
        if rng.random() < 0.3:
            scores[:, rng.integers(0, d)] = rng.standard_normal()
        yield scores


class TestFitCorrelationMatchesCorrcoef:
    """``fit`` forms the correlation in its own score matrix; ``np.corrcoef``
    of the same scores is the oracle, bit for bit."""

    def test_fit(self, demo_data, demo_md):
        tables = [(name, table, None, None) for name, table in _hostile_tables(demo_data, demo_md)]
        for name, table, drawn in _resamples(demo_data, demo_md):
            tables += [(name, table.take(drawn), slice_ranks(table), drawn)]
        rng = np.random.default_rng(12)
        wide = Dataset(
            TableSchema(tuple((f"x{j}", ColumnKind.NUMERIC) for j in range(40))),
            tuple(NumericColumn(v) for v in rng.standard_normal((40, 30)) @ rng.standard_normal((30, 900))),
        )
        tables.append(("wide", wide, None, None))
        for name, train, ranks, rows in tables:
            _, scores = _fit_scores(train.columns, np.random.default_rng(8), ranks, rows)
            want = _corrcoef_correlation(scores.T)
            model = fit(train, seed=8, ranks=ranks, rows=rows)
            assert model.correlation.tobytes() == want.tobytes(), name
            assert _correlation(scores).tobytes() == want.tobytes(), name


class TestNearestPsd:
    def test_identity_unchanged(self):
        assert np.array_equal(nearest_psd(np.eye(3)), np.eye(3))

    def test_already_psd_unchanged(self):
        m = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert np.max(np.abs(nearest_psd(m) - m)) <= 1e-9

    def test_indefinite_repair_matches_eigen_oracle(self):
        eps = 1e-6
        m = np.array([[1.0, 1.2], [1.2, 1.0]])
        out = nearest_psd(m, eps)
        # eigenvectors (1,1)/sqrt2 and (1,-1)/sqrt2; clip -0.2 to eps, rescale
        expect = (1.1 - eps / 2) / (1.1 + eps / 2)
        assert out[0, 1] == pytest.approx(expect, abs=1e-12)
        assert np.linalg.eigvalsh(out).min() >= 0.0

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationFailure):
            nearest_psd(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_output_always_choleskyable(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(2, 8))
            a = rng.uniform(-1, 1, (d, d))
            m = (a + a.T) / 2
            np.fill_diagonal(m, 1.0)
            out = nearest_psd(m)
            np.linalg.cholesky(out)  # must not raise, no jitter
            assert np.max(np.abs(np.diag(out) - 1.0)) <= 1e-12
            assert np.max(np.abs(out - out.T)) == 0.0


def _two_column_numeric(z1, z2) -> Dataset:
    schema = TableSchema((("x", ColumnKind.NUMERIC), ("y", ColumnKind.NUMERIC)))
    return Dataset(schema, (NumericColumn(z1), NumericColumn(z2)))


def _bivariate_normal(rho: float, n: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(n)
    z2 = rho * z1 + math.sqrt(1 - rho * rho) * rng.standard_normal(n)
    return _two_column_numeric(z1, z2)


class TestFit:
    def test_independent_backend_identity_correlation(self, demo_data):
        model = fit(demo_data, "independent")
        assert np.array_equal(model.correlation, np.eye(6))

    def test_full_shrinkage_is_identity(self):
        data = _bivariate_normal(0.8, 500, 0)
        model = shrink_correlation(fit(data), 1.0)
        assert np.array_equal(model.correlation, np.eye(2))

    def test_recovers_planted_correlation(self):
        data = _bivariate_normal(0.8, 2000, 42)
        model = fit(data, seed=0)
        assert abs(model.correlation[0, 1] - 0.8) <= 0.08

    def test_unknown_backend(self, demo_data):
        with pytest.raises(ValidationFailure):
            fit(demo_data, "ctgan")

    def test_fit_deterministic(self, demo_data):
        a = fit(demo_data, seed=3)
        b = fit(demo_data, seed=3)
        assert np.array_equal(a.correlation, b.correlation)


class TestSample:
    def test_zero_rows_keeps_schema(self, demo_data):
        model = fit(demo_data)
        out = sample(model, 0, 0)
        assert out.row_count == 0
        assert out.schema == demo_data.schema

    def test_single_category_column_constant(self):
        schema = TableSchema((("c", ColumnKind.CATEGORICAL), ("x", ColumnKind.NUMERIC)))
        data = Dataset(
            schema,
            (CategoricalColumn.from_values(["only"] * 20), NumericColumn(np.arange(20.0))),
        )
        model = fit(data, seed=0)
        out = sample(model, 100, 5)
        assert set(out.decoded("c").tolist()) == {"only"}

    def test_sample_correlation_near_planted(self):
        data = _bivariate_normal(0.8, 2000, 42)
        model = fit(data, seed=0)
        out = sample(model, 2000, 1)
        rho = np.corrcoef(out.decoded("x"), out.decoded("y"))[0, 1]
        assert abs(rho - 0.8) <= 0.1

    def test_numeric_range_clamped(self, demo_data):
        model = fit(demo_data)
        out = sample(model, 1000, 9)
        for col in ("symptom_scale", "functioning_score"):
            fitted = demo_data.decoded(col)
            got = out.decoded(col)
            assert got.min() >= fitted.min() and got.max() <= fitted.max()

    def test_sample_deterministic(self, demo_data):
        model = fit(demo_data)
        assert sample(model, 200, 11) == sample(model, 200, 11)

    def test_categorical_marginal_preserved(self, demo_data):
        model = fit(demo_data)
        out = sample(model, 2000, 3)
        for col in ("Race", "Sex", "setting", "Diagnosis"):
            marg = model.marginals[col]
            assert isinstance(marg, CategoricalMarginal)
            sampled = out.decoded(col).tolist()
            n = len(sampled)
            tvd = 0.5 * sum(
                abs(f - sampled.count(c) / n) for c, f in zip(marg.categories, marg.frequencies)
            )
            assert tvd <= 0.05, (col, tvd)

    def test_full_shrinkage_decorrelates(self):
        data = _bivariate_normal(0.8, 2000, 8)
        model = shrink_correlation(fit(data, seed=0), 1.0)
        out = sample(model, 2000, 2)
        rho = np.corrcoef(out.decoded("x"), out.decoded("y"))[0, 1]
        assert abs(rho) <= 0.08


class TestPersistence:
    def test_round_trip_samples_identically(self, tmp_path, demo_data):
        model = fit(demo_data, seed=2)
        path = tmp_path / "model.json"
        save_model(model, path)
        again = load_model(path)
        assert sample(model, 100, 4) == sample(again, 100, 4)

    def test_exact_field_names(self, demo_data):
        model = fit(demo_data)
        doc = model_to_json_dict(model)
        assert set(doc) == {"marginals", "correlation", "column_order", "fitted_rows", "seed"}

    def test_non_finite_sorted_values_not_fitted(self, demo_data):
        doc = model_to_json_dict(fit(demo_data))
        doc["marginals"]["symptom_scale"]["sorted_values"][-1] = math.inf
        with pytest.raises(NotFitted, match="finite"):
            model_from_json_dict(doc)

    def test_file_is_plain_json(self, tmp_path, demo_data):
        model = fit(demo_data)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["fitted_rows"] == demo_data.row_count


class TestConfigValidation:
    def test_bad_shrinkage(self, demo_data):
        with pytest.raises(ValidationFailure):
            shrink_correlation(fit(demo_data), 1.5)

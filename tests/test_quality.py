import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fairsynth import quality
from fairsynth.errors import EmptyColumn, LengthMismatch, SchemaMismatch
from fairsynth.quality import (
    contingency_similarity,
    correlation_similarity,
    discretize,
    ks_complement,
    quality_report,
    quantile_bin_edges,
    real_side,
    tv_complement,
)
from fairsynth.schema import (
    CategoricalColumn,
    ColumnKind,
    Dataset,
    NumericColumn,
    TableSchema,
)


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson rho by ``np.corrcoef``, clipped to [-1, 1]; a constant column
    gives 0. The bit-exact oracle of the numeric pair metric."""
    if np.all(x == x[0]) or np.all(y == y[0]):
        return 0.0
    rho = float(np.corrcoef(x, y)[0, 1])
    return min(1.0, max(-1.0, rho))


class TestKsComplement:
    def test_identical(self):
        vals = [0.3, 1.2, -4.0, 0.3]
        assert ks_complement(vals, list(vals)) == 1.0

    def test_disjoint_supports(self):
        assert ks_complement([0.1, 0.5, 0.9], [10.2, 10.5, 10.9]) == 0.0

    def test_hand_enumerated(self):
        # pooled points {0, 1}: |2/4 - 1/4| = 0.25 at 0, zero at 1
        assert ks_complement([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75

    def test_empty(self):
        with pytest.raises(EmptyColumn):
            ks_complement([], [1.0])


class TestTvComplement:
    def test_identical(self):
        assert tv_complement(["a", "b", "a"], ["b", "a", "a"]) == 1.0

    def test_disjoint(self):
        assert tv_complement(["a", "b"], ["c", "d"]) == 0.0

    def test_hand_tvd(self):
        # p = (0.75, 0.25), q = (0.5, 0.5) -> 1 - (0.25 + 0.25)/2 = 0.75
        assert tv_complement(["a", "a", "a", "b"], ["a", "a", "b", "b"]) == 0.75

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = [str(c) for c in rng.integers(0, 5, int(rng.integers(1, 30)))]
            b = [str(c) for c in rng.integers(0, 5, int(rng.integers(1, 30)))]
            assert tv_complement(a, b) == tv_complement(b, a)

    def test_empty(self):
        with pytest.raises(EmptyColumn):
            tv_complement(["a"], [])


class TestCorrelationSimilarity:
    def test_equal_correlations(self):
        x = [0.0, 1.0, 2.0]
        assert correlation_similarity(x, x, x, x) == 1.0

    def test_maximal_disagreement(self):
        x = [0.0, 1.0, 2.0]
        neg = [0.0, -1.0, -2.0]
        assert correlation_similarity(x, x, x, neg) == pytest.approx(0.0, abs=1e-12)

    def test_formula_against_direct_pearson(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            ra, rb = rng.standard_normal(n), rng.standard_normal(n)
            sa, sb = rng.standard_normal(n), rng.standard_normal(n)

            def rho(x, y):
                xc, yc = x - x.mean(), y - y.mean()
                return float((xc * yc).sum() / math.sqrt((xc * xc).sum() * (yc * yc).sum()))

            expect = 1.0 - abs(rho(ra, rb) - rho(sa, sb)) / 2.0
            assert correlation_similarity(ra, rb, sa, sb) == pytest.approx(expect, abs=1e-12)

    def test_zero_variance_convention(self):
        const = [2.0, 2.0, 2.0]
        x = [0.0, 1.0, 2.0]
        # rho_real = 0 by convention, rho_synth = 1 -> 1 - 1/2
        assert correlation_similarity(const, x, x, x) == 0.5
        # A column whose squares underflow is scored at unit scale, with no
        # warning, as the same column in another unit: rho = 5 / sqrt(70).
        tiny, y = [0.0, 1e-170, 2e-170, 5e-170], [1.0, 2.0, 4.0, 3.0]
        unit = [math.ldexp(v, 564) for v in tiny]
        direct = correlation_similarity(tiny, y, tiny, [-v for v in y])
        assert direct == pytest.approx(1.0 - 5.0 / math.sqrt(70.0), abs=1e-12)
        assert direct == correlation_similarity(unit, y, unit, [-v for v in y])
        assert correlation_similarity(tiny, y, y, y) == correlation_similarity(unit, y, y, y)
        assert correlation_similarity(tiny, y, y, y) == pytest.approx(
            1.0 - (1.0 - 5.0 / math.sqrt(70.0)) / 2.0, abs=1e-12
        )

    def test_gram_overflow(self):
        # n times the largest square of x passes the float64 limit: the pair
        # is scored at unit scale, with no overflow warning. rho = +-5 /
        # sqrt(70), so 1 - 5 / sqrt(70).
        huge, y = [0.0, 1e200, 2e200, 5e200], [1.0, 2.0, 4.0, 3.0]
        table = TableSchema((("h", ColumnKind.NUMERIC), ("y", ColumnKind.NUMERIC)))
        real = Dataset(table, (NumericColumn(huge), NumericColumn(y)))
        synth = Dataset(table, (NumericColumn(huge), NumericColumn([-v for v in y])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            direct = correlation_similarity(huge, y, huge, [-v for v in y])
            (trend,) = quality_report(real_side(real), synth).pair_trends
        assert direct == pytest.approx(1.0 - 5.0 / math.sqrt(70.0), abs=1e-12)
        assert round(direct, 3) == 0.402
        assert trend[2:] == ("CorrelationSimilarity", direct)

    def test_unequal_paired_lengths(self):
        x, short = [1.0, 2.0, 3.0], [1.0, 2.0]
        with pytest.raises(LengthMismatch):
            correlation_similarity(x, short, x, [3.0, 2.0, 1.0])
        with pytest.raises(LengthMismatch):
            correlation_similarity(x, [3.0, 2.0, 1.0], short, x)


class TestContingencySimilarity:
    def test_identical(self):
        a, b = ["x", "y", "x"], ["u", "u", "v"]
        assert contingency_similarity(a, b, list(a), list(b)) == 1.0

    def test_disjoint(self):
        assert contingency_similarity(["a"], ["b"], ["c"], ["d"]) == 0.0

    def test_hand_joint_tvd(self):
        # p uniform over 2x2, q concentrated on one cell:
        # 1 - (|1/4 - 1| + 3*(1/4)) / 2 = 0.25
        ra = ["a", "a", "b", "b"]
        rb = ["x", "y", "x", "y"]
        sa = ["a", "a", "a", "a"]
        sb = ["x", "x", "x", "x"]
        assert contingency_similarity(ra, rb, sa, sb) == 0.25


class TestDiscretize:
    def test_right_closed_bins(self):
        edges = np.array([1.0, 2.0, 3.0])
        assert discretize([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 99.0], edges).tolist() == [
            0, 0, 1, 1, 2, 2, 3,
        ]
        # Values equal to an edge, tied edges, and -0.0 and 0.0 against a 0.0
        # edge: the int16 codes are searchsorted's "left" insertion points.
        values = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 99.0, -0.0, 0.0, -1.0, -5.0]
        for edges in ([1.0, 1.0, 3.0], [2.0, 2.0, 2.0], [-1.0, 0.0, 0.0], [-0.0, 0.0, 2.0]):
            codes = discretize(values, np.array(edges))
            assert codes.dtype == np.int16
            assert codes.tolist() == np.searchsorted(edges, values, side="left").tolist(), edges

    def test_edges_are_real_quartiles(self):
        values = np.arange(101, dtype=np.float64)
        edges = quantile_bin_edges(values)
        assert edges.tolist() == [25.0, 50.0, 75.0]
        # A sorted copy of a column gives the same edges as the column.
        rng = np.random.default_rng(5)
        for column in (
            rng.permutation(values),
            rng.standard_normal(1001),
            np.round(rng.standard_normal(998), 1),  # ties
            rng.permutation(np.r_[np.full(40, -0.0), np.zeros(40), rng.standard_normal(7)]),
        ):
            assert np.array_equal(quantile_bin_edges(np.sort(column)), quantile_bin_edges(column))


def _table(num_a, num_b, cat):
    schema = TableSchema(
        (
            ("na", ColumnKind.NUMERIC),
            ("nb", ColumnKind.NUMERIC),
            ("c", ColumnKind.CATEGORICAL),
        )
    )
    return Dataset(
        schema,
        (
            NumericColumn(np.asarray(num_a, dtype=np.float64)),
            NumericColumn(np.asarray(num_b, dtype=np.float64)),
            CategoricalColumn.from_values(list(cat)),
        ),
    )


def _random_table(rng, n):
    return _table(
        rng.standard_normal(n),
        rng.standard_normal(n),
        [str(c) for c in rng.integers(0, 3, n)],
    )


class TestQualityReport:
    def test_self_identity(self, demo_data):
        report = quality_report(real_side(demo_data), demo_data)
        assert abs(report.overall_score - 1.0) <= 1e-9

    def test_overall_is_mean_of_averages(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            real = _random_table(rng, int(rng.integers(10, 60)))
            synth = _random_table(rng, int(rng.integers(10, 60)))
            report = quality_report(real_side(real), synth)
            assert report.overall_score == pytest.approx(
                (report.shapes_average + report.trends_average) / 2.0, abs=1e-12
            )
            shape_scores = [s for _, s in report.shapes.values()]
            assert report.shapes_average == pytest.approx(np.mean(shape_scores), abs=1e-12)
            assert all(0.0 <= s <= 1.0 for s in shape_scores)
            assert all(0.0 <= t[3] <= 1.0 for t in report.pair_trends)
            # metric routing: numeric-numeric pair is correlation, the rest contingency
            metrics = {(a, b): m for a, b, m, _ in report.pair_trends}
            assert metrics[("na", "nb")] == "CorrelationSimilarity"
            assert metrics[("na", "c")] == "ContingencySimilarity"
            assert metrics[("nb", "c")] == "ContingencySimilarity"

    def test_single_column_table_falls_back_to_shapes(self):
        schema = TableSchema((("v", ColumnKind.NUMERIC),))
        real = Dataset(schema, (NumericColumn(np.arange(30.0)),))
        synth = Dataset(schema, (NumericColumn(np.arange(30.0) + 0.5),))
        report = quality_report(real_side(real), synth)
        assert report.trends_average == report.shapes_average
        assert report.overall_score == report.shapes_average

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(3)
        real = _random_table(rng, 40)
        synth = _random_table(rng, 35)
        base = quality_report(real_side(real), synth)
        perm = np.random.default_rng(4).permutation(40)
        shuffled = real.take(perm)
        again = quality_report(real_side(shuffled), synth)
        assert again.overall_score == base.overall_score
        assert again.shapes == base.shapes
        assert again.pair_trends == base.pair_trends

    def test_schema_mismatch(self, demo_data):
        other = _table([1.0, 2.0], [3.0, 4.0], ["a", "b"])
        with pytest.raises(SchemaMismatch):
            quality_report(real_side(demo_data), other)

    def test_category_tables_in_different_orders_score_like_decoded_lists(self):
        rng = np.random.default_rng(7)
        # real holds "d" and lists it first; synth holds "e" and lists it first.
        # 18 rows against 4 bins x 5 categories = 20 joint keys also takes the
        # pairs through the renumbering of sparse keys.
        real = _table(rng.standard_normal(10), rng.standard_normal(10),
                      ["d", *rng.choice(list("abcd"), 9)])
        synth = _table(rng.standard_normal(8) + 0.3, rng.standard_normal(8),
                       ["e", "c", *rng.choice(list("abce"), 6)])
        assert real.column("c").categories[0] == "d" and "e" not in real.column("c").categories
        assert synth.column("c").categories[:2] == ("e", "c")
        assert "d" not in synth.column("c").categories
        report = quality_report(real_side(real), synth)

        edges = {n: quantile_bin_edges(real.decoded(n)) for n in ("na", "nb")}

        def labels(data, name):
            if name == "c":
                return data.decoded(name).tolist()
            return discretize(data.decoded(name), edges[name]).tolist()

        assert report.shapes == {
            "na": ("KSComplement", ks_complement(real.decoded("na"), synth.decoded("na"))),
            "nb": ("KSComplement", ks_complement(real.decoded("nb"), synth.decoded("nb"))),
            "c": ("TVComplement", tv_complement(labels(real, "c"), labels(synth, "c"))),
        }
        expect = [
            ("na", "nb", "CorrelationSimilarity", correlation_similarity(
                real.decoded("na"), real.decoded("nb"), synth.decoded("na"), synth.decoded("nb")
            )),
        ] + [
            (a, "c", "ContingencySimilarity", contingency_similarity(
                labels(real, a), labels(real, "c"), labels(synth, a), labels(synth, "c")
            ))
            for a in ("na", "nb")
        ]
        assert list(report.pair_trends) == expect
        assert report.shapes["c"][1] < 1.0 and all(t[3] < 1.0 for t in expect)

    def test_numeric_pairs_equal_correlation_similarity(self):
        # Columns are centred once per side in quality_report; every pair, and
        # correlation_similarity, must still carry the bits of the np.corrcoef
        # oracle, a constant column included.
        names = ("a", "b", "k", "c", "d")
        kinds = (ColumnKind.NUMERIC,) * 3 + (ColumnKind.CATEGORICAL, ColumnKind.NUMERIC)
        schema = TableSchema(tuple(zip(names, kinds)))

        def table(rng, n, constant):
            return Dataset(schema, (
                NumericColumn(rng.standard_normal(n) * 1e3 + 7.0),
                NumericColumn(np.round(rng.standard_normal(n), 1)),
                NumericColumn(np.full(n, constant)),
                CategoricalColumn(rng.integers(0, 3, n), ("x", "y", "z")),
                NumericColumn(rng.exponential(size=n)),
            ))

        for seed in range(4):
            rng = np.random.default_rng(seed)
            real, synth = table(rng, 500, 2.5), table(rng, 333, -1.0)
            # On the synthetic side "k" varies, so a pair with it is scored.
            if seed % 2:
                synth = Dataset(schema, tuple(
                    NumericColumn(rng.standard_normal(333)) if n == "k" else col
                    for n, col in zip(names, synth.columns)
                ))
            self._assert_pairs_match_oracle(real, synth, 6)

        # A wide table: 22 numeric columns of mixed scales, with a constant
        # column, one of tiny variance and one holding both -0.0 and 0.0.
        wide = TableSchema(tuple((f"n{i:02d}", ColumnKind.NUMERIC) for i in range(22)))

        def wide_table(rng, n, constant):
            columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9) + rng.integers(-50, 50)
                       for _ in range(18)]
            columns.append(np.full(n, constant))
            columns.append(1.0 + rng.standard_normal(n) * 1e-9)
            columns.append(rng.choice([-0.0, 0.0, 1.0], n))
            columns.append(columns[0] * -3.0 + rng.standard_normal(n) * 1e-3)  # near -1
            return Dataset(wide, tuple(NumericColumn(c) for c in columns))

        for seed in range(2):
            rng = np.random.default_rng(40 + seed)
            real, synth = wide_table(rng, 6000, 2.5), wide_table(rng, 5000, -0.0)
            side = quality.real_side(real)
            assert len(side.rhos) == 231
            for (a, b), rho in side.rhos.items():
                assert rho == _pearson(real.column(a).values, real.column(b).values), (seed, a, b)
            self._assert_pairs_match_oracle(real, synth, 231)

    @staticmethod
    def _assert_pairs_match_oracle(real, synth, count):
        pairs = [t for t in quality_report(real_side(real), synth).pair_trends
                 if t[2] == "CorrelationSimilarity"]
        assert len(pairs) == count
        for a, b, _, score in pairs:
            ra, rb = real.column(a).values, real.column(b).values
            sa, sb = synth.column(a).values, synth.column(b).values
            want = 1.0 - abs(_pearson(ra, rb) - _pearson(sa, sb)) / 2.0
            assert score == want, (a, b)
            assert correlation_similarity(ra, rb, sa, sb) == want, (a, b)

    def test_mixed_pair_uses_real_bin_edges(self):
        # real numeric spread differs from synth; identical joint structure
        # after binning by REAL edges must give a deterministic score
        real = _table([1, 2, 3, 4, 5, 6, 7, 8], [1] * 8, list("aabbaabb"))
        synth = _table([100, 200, 300, 400], [1] * 4, list("abab"))
        report = quality_report(real_side(real), synth)
        edges = quantile_bin_edges(real.decoded("na"))
        # all synth values land above the real top edge: last bin
        assert discretize(synth.decoded("na"), edges).tolist() == [3, 3, 3, 3]
        assert all(0.0 <= t[3] <= 1.0 for t in report.pair_trends)


def oracle_tv(a, b):
    na, nb = len(a), len(b)
    cats = sorted(set(a) | set(b))
    return 1.0 - 0.5 * math.fsum(abs(a.count(c) / na - b.count(c) / nb) for c in cats)


class TestOracleSpotChecks:
    # the full 1,000-case oracle sweeps live in the acceptance suite; these
    # are quick smoke-level equivalents
    def test_tv_matches_oracle_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = [str(c) for c in rng.integers(0, 6, int(rng.integers(1, 50)))]
            b = [str(c) for c in rng.integers(0, 6, int(rng.integers(1, 50)))]
            assert tv_complement(a, b) == oracle_tv(a, b)

    def test_ks_matches_counter_oracle_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = [float(v) for v in rng.integers(0, 10, int(rng.integers(1, 50)))]
            b = [float(v) for v in rng.integers(0, 10, int(rng.integers(1, 50)))]
            pooled = sorted(set(a) | set(b))
            d = max(
                abs(
                    sum(1 for v in a if v <= x) / len(a)
                    - sum(1 for v in b if v <= x) / len(b)
                )
                for x in pooled
            )
            assert ks_complement(a, b) == 1.0 - d


def _pairwise_report(real, synth):
    """quality_report's shapes and pair trends, scored one column and one
    pair at a time by the public metrics on decoded labels, numeric columns
    binned by the real edges."""
    labels, shapes = {}, {}
    for name, kind in real.schema.columns:
        r, s = real.decoded(name), synth.decoded(name)
        if kind is ColumnKind.NUMERIC:
            edges = quantile_bin_edges(r)
            labels[name] = (discretize(r, edges).tolist(), discretize(s, edges).tolist())
            shapes[name] = ("KSComplement", ks_complement(r, s))
        else:
            labels[name] = (r.tolist(), s.tolist())
            shapes[name] = ("TVComplement", tv_complement(*labels[name]))
    trends = []
    columns = real.schema.columns
    for i, (a, kind_a) in enumerate(columns):
        for b, kind_b in columns[i + 1:]:
            if kind_a is ColumnKind.NUMERIC and kind_b is ColumnKind.NUMERIC:
                score = correlation_similarity(
                    real.decoded(a), real.decoded(b), synth.decoded(a), synth.decoded(b)
                )
                trends.append((a, b, "CorrelationSimilarity", score))
            else:
                (ra, sa), (rb, sb) = labels[a], labels[b]
                score = contingency_similarity(ra, rb, sa, sb)
                trends.append((a, b, "ContingencySimilarity", score))
    return shapes, trends


WIDE = quality.MAX_LEVELS + 6  # levels of the column scored pair by pair

_MIXED_SCHEMA = TableSchema((
    ("x", ColumnKind.NUMERIC),
    ("c", ColumnKind.CATEGORICAL),
    ("t", ColumnKind.NUMERIC),
    ("w", ColumnKind.CATEGORICAL),
    ("d", ColumnKind.CATEGORICAL),
    ("k", ColumnKind.CATEGORICAL),
))


def _mixed_table(rng, n, side):
    """Every kind of column the report codes: continuous and tied numbers
    (-0.0 next to 0.0), a column past the level bound, categories that only
    one side's table lists (``side`` 0 or 1), and a single-level column."""
    one_side = ("a", "b", "c", "d") if side == 0 else ("e", "c", "a")
    return Dataset(_MIXED_SCHEMA, (
        NumericColumn(rng.standard_normal(n) + 0.2 * side),
        CategoricalColumn(rng.integers(0, 5, n), ("p", "q", "r", "s", "u")),
        NumericColumn(rng.choice([-0.0, 0.0, 1.0, -2.5, 3.0], n)),
        CategoricalColumn(rng.integers(0, WIDE, n), tuple(f"w{v}" for v in range(WIDE))),
        CategoricalColumn(rng.integers(0, len(one_side), n), one_side),
        CategoricalColumn(np.zeros(n, dtype=np.int32), ("only",)),
    ))


class TestCooccurrencePath:
    """quality_report counts contingency tables of all narrow columns at once
    (``quality._joint_tvs``); every score must still carry the bits of the
    metric that scores one pair."""

    @staticmethod
    def _assert_exact(real, synth, monkeypatch):
        calls = []
        pair_tv = quality._pair_tv
        monkeypatch.setattr(quality, "_pair_tv", lambda a, b: calls.append(1) or pair_tv(a, b))
        report = quality_report(real_side(real), synth)
        # Only the five pairs with the wide column take the pair-by-pair route.
        assert len(calls) == 5
        shapes, trends = _pairwise_report(real, synth)
        assert report.shapes == shapes
        assert list(report.pair_trends) == trends

    @pytest.mark.parametrize("n_real, n_synth", [
        (1, 1), (1, 40), (40, 1), (2, 3), (6898, 7), (6899, 6898), (12001, 5000),
    ])
    def test_matches_pairwise_metrics(self, n_real, n_synth, monkeypatch):
        # The narrow columns hold 19 levels, so a one-hot block holds 6,898
        # rows: the larger sizes fill blocks exactly or end in a partial one.
        assert quality.ONE_HOT_CELLS // 19 == 6898
        rng = np.random.default_rng(n_real * 31 + n_synth)
        real, synth = _mixed_table(rng, n_real, 0), _mixed_table(rng, n_synth, 1)
        self._assert_exact(real, synth, monkeypatch)

    def test_sliced_tables_with_unused_categories(self, monkeypatch):
        rng = np.random.default_rng(11)
        real, synth = _mixed_table(rng, 900, 0), _mixed_table(rng, 700, 1)
        # Rows of one category of "c" and "d" only: their tables keep the rest.
        real = real.take(np.flatnonzero(real.column("c").codes == 2))
        synth = synth.take(np.flatnonzero(synth.column("d").codes == 1)[:50])
        assert set(real.column("c").codes.tolist()) == {2}
        self._assert_exact(real, synth, monkeypatch)

    def test_tiles_and_small_blocks(self, monkeypatch):
        # Tiles of at most 9 levels and one-hot blocks of a few rows take the
        # counts through every pair of tiles and many partial blocks.
        monkeypatch.setattr(quality, "TILE_LEVELS", 9)
        monkeypatch.setattr(quality, "ONE_HOT_CELLS", 50)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            real, synth = _mixed_table(rng, 301, 0), _mixed_table(rng, 97 + seed, 1)
            self._assert_exact(real, synth, monkeypatch)
            monkeypatch.undo()
            monkeypatch.setattr(quality, "TILE_LEVELS", 9)
            monkeypatch.setattr(quality, "ONE_HOT_CELLS", 50)

    def test_empty_side(self):
        schema = TableSchema((("a", ColumnKind.CATEGORICAL), ("b", ColumnKind.CATEGORICAL)))
        full = Dataset(schema, (CategoricalColumn([0, 1], ("x", "y")),) * 2)
        empty = full.take(np.array([], dtype=np.int64))
        with pytest.raises(EmptyColumn):
            quality_report(real_side(full), empty)

    def test_peak_memory_is_bounded(self):
        # A 5,000-level column is scored pair by pair, and 300 four-level
        # columns (1,200 levels) in tiles. Counts over all levels at once
        # would take 200 MB a side for the first and 11 MB for the second.
        def table(rng, n, levels):
            columns = tuple(
                CategoricalColumn(rng.integers(0, k, n), tuple(f"v{v}" for v in range(k)))
                for k in levels
            )
            names = tuple((f"c{j}", ColumnKind.CATEGORICAL) for j in range(len(levels)))
            return Dataset(TableSchema(names), columns)

        rng = np.random.default_rng(3)
        for levels, n, ceiling_mb in (((5000, 4, 3, 2), 4000, 4), ((4,) * 300, 1000, 16)):
            real, synth = table(rng, n, levels), table(rng, n // 2, levels)
            tracemalloc.start()
            try:
                report = quality_report(real_side(real), synth)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(report.pair_trends) == len(levels) * (len(levels) - 1) // 2
            assert peak < ceiling_mb * 2**20, (levels[:2], peak)


class TestRealSide:
    """quality_report against a ``real_side`` built once scores every
    synthetic table with the bits of the one-shot report."""

    @staticmethod
    def _constant(table, name, value):
        """``table`` with numeric column ``name`` set to ``value``, broadcast
        over the rows."""
        j = table.schema.names.index(name)
        columns = list(table.columns)
        columns[j] = NumericColumn(np.full(table.row_count, value))
        return Dataset(table.schema, tuple(columns))

    def test_prepared_equals_one_shot(self, monkeypatch):
        rng = np.random.default_rng(21)
        # Side 0 lists categories "b" and "d" of column "d", which side 1
        # lacks, and side 1 lists "e", which the real table lacks; "w" has
        # 70 levels and takes the pair-by-pair route.
        real = _mixed_table(rng, 1200, 0)
        synths = [
            _mixed_table(rng, 1, 1),
            _mixed_table(rng, 500, 1),
            self._constant(_mixed_table(rng, 800, 1), "x", 2.5),
            real,
        ]
        edges_calls = []
        bin_edges = quality.quantile_bin_edges
        monkeypatch.setattr(
            quality, "quantile_bin_edges", lambda v: edges_calls.append(1) or bin_edges(v)
        )
        side = quality.real_side(real)
        assert len(edges_calls) == 2  # once per numeric column
        prepared = [quality_report(side, synth) for synth in synths]
        assert len(edges_calls) == 2
        monkeypatch.undo()
        for synth, report in zip(synths, prepared):
            assert report == quality_report(real_side(real), synth)
            shapes, trends = _pairwise_report(real, synth)
            assert report.shapes == shapes
            assert list(report.pair_trends) == trends

    def test_constant_real_column(self):
        # A constant column has rho 0; a column whose squares underflow is
        # not constant, and has the rho of the same column in any unit.
        rng = np.random.default_rng(22)
        tiny = rng.choice([0.0, 1e-170, 2e-170, 5e-170], 600)
        for t in (-0.0, tiny):
            real = self._constant(_mixed_table(rng, 600, 0), "t", t)
            side = quality.real_side(real)
            if t is tiny:
                ((pair, rho),) = side.rhos.items()
                unit = quality.real_side(self._constant(real, "t", np.ldexp(tiny, 563)))
                assert side.rhos == unit.rhos
                assert (pair, round(rho, 4)) == (("x", "t"), 0.0198)
            else:
                assert side.rhos == {("x", "t"): 0.0}
            for synth in (
                _mixed_table(rng, 300, 1),
                self._constant(_mixed_table(rng, 9, 1), "t", 0.0),
                self._constant(_mixed_table(rng, 600, 1), "t", tiny),
            ):
                report = quality_report(side, synth)
                assert report == quality_report(real_side(real), synth)
                shapes, trends = _pairwise_report(real, synth)
                assert (report.shapes, list(report.pair_trends)) == (shapes, trends)

    def test_column_near_float_limit(self):
        # Scaling a column by 1e200 would overflow its Gram entries; the
        # report scores it at unit scale, with no warning.
        rng = np.random.default_rng(23)
        real, synth = _mixed_table(rng, 600, 0), _mixed_table(rng, 300, 1)
        scaled = []
        for table in (real, synth):
            columns = list(table.columns)
            columns[0] = NumericColumn(table.columns[0].values * 1e200)
            scaled.append(Dataset(table.schema, tuple(columns)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = quality_report(real_side(scaled[0]), scaled[1])
        want = quality_report(real_side(real), synth)
        assert report.shapes == want.shapes
        for got, expect in zip(report.pair_trends, want.pair_trends, strict=True):
            assert got[:3] == expect[:3]
            assert got[3] == pytest.approx(expect[3], abs=1e-12)

    def test_kept_counts_follow_the_coded_layout(self):
        # Side 1 lists category "e", which the real table lacks (as an
        # external backend can emit): the coded layout changes, and the kept
        # counts are built again for it, and again when it changes back.
        rng = np.random.default_rng(24)
        real = _mixed_table(rng, 900, 0)
        side = quality.real_side(real)
        counts = side.counts
        layouts, kept = [], []
        for synth in (
            _mixed_table(rng, 400, 0),
            _mixed_table(rng, 300, 0),
            _mixed_table(rng, 500, 1),
            _mixed_table(rng, 200, 0),
            real,
        ):
            report = quality_report(side, synth)
            assert report == quality_report(real_side(real), synth)
            layouts.append(side.layout)
            kept.append([tile.shape for tile in side.counts])
        assert layouts[0] == layouts[1] == layouts[3] == layouts[4] != layouts[2]
        # One list, holding the counts of one layout at a time.
        assert side.counts is counts
        assert kept[0] == kept[1] == kept[3] == kept[4] != kept[2]
        assert kept[0] and len(kept[0]) == len(kept[2])

    def test_schema_checked_against_the_side(self):
        rng = np.random.default_rng(23)
        real = _mixed_table(rng, 50, 0)
        other = Dataset(
            TableSchema((("x", ColumnKind.NUMERIC),)), (NumericColumn(rng.standard_normal(5)),)
        )
        with pytest.raises(SchemaMismatch):
            quality_report(quality.real_side(real), other)
        with pytest.raises(SchemaMismatch):
            quality_report(quality.real_side(other), real)


def test_ks_merge_matches_brute_force_counts():
    # Ties across the sides, -0.0 against 0.0, infinities and one-element
    # sides: the merge must evaluate the same count pairs as the oracle.
    rng = np.random.default_rng(8)
    support = [-0.0, 0.0, 1.0, -1.5, 2.0, np.inf, -np.inf]
    for _ in range(600):
        a = [float(v) for v in rng.choice(support, int(rng.integers(1, 13)))]
        b = [float(v) for v in rng.choice(support, int(rng.integers(1, 13)))]
        d = max(
            abs(sum(v <= x for v in a) / len(a) - sum(v <= x for v in b) / len(b))
            for x in a + b
        )
        assert ks_complement(a, b) == 1.0 - d
    assert ks_complement([-0.0], [0.0]) == 1.0
    assert ks_complement([1.0], [2.0]) == 0.0

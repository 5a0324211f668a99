import math

import numpy as np
import pytest

from fairsynth.errors import EmptyColumn, SchemaMismatch
from fairsynth.quality import (
    contingency_similarity,
    correlation_similarity,
    discretize,
    ks_complement,
    quality_report,
    quantile_bin_edges,
    tv_complement,
)
from fairsynth.schema import (
    CategoricalColumn,
    ColumnKind,
    Dataset,
    NumericColumn,
    TableSchema,
)


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

    def test_edges_are_real_quartiles(self):
        values = np.arange(101, dtype=np.float64)
        edges = quantile_bin_edges(values)
        assert edges.tolist() == [25.0, 50.0, 75.0]


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
        report = quality_report(demo_data, demo_data, demo_data.schema)
        assert abs(report.overall_score - 1.0) <= 1e-9

    def test_overall_is_mean_of_averages(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            real = _random_table(rng, int(rng.integers(10, 60)))
            synth = _random_table(rng, int(rng.integers(10, 60)))
            report = quality_report(real, synth, real.schema)
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
        report = quality_report(real, synth, schema)
        assert report.trends_average == report.shapes_average
        assert report.overall_score == report.shapes_average

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(3)
        real = _random_table(rng, 40)
        synth = _random_table(rng, 35)
        base = quality_report(real, synth, real.schema)
        perm = np.random.default_rng(4).permutation(40)
        shuffled = real.take(perm)
        again = quality_report(shuffled, synth, real.schema)
        assert again.overall_score == base.overall_score
        assert again.shapes == base.shapes
        assert again.pair_trends == base.pair_trends

    def test_schema_mismatch(self, demo_data):
        other = _table([1.0, 2.0], [3.0, 4.0], ["a", "b"])
        with pytest.raises(SchemaMismatch):
            quality_report(demo_data, other, demo_data.schema)

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
        report = quality_report(real, synth, real.schema)

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

    def test_mixed_pair_uses_real_bin_edges(self):
        # real numeric spread differs from synth; identical joint structure
        # after binning by REAL edges must give a deterministic score
        real = _table([1, 2, 3, 4, 5, 6, 7, 8], [1] * 8, list("aabbaabb"))
        synth = _table([100, 200, 300, 400], [1] * 4, list("abab"))
        report = quality_report(real, synth, real.schema)
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

"""Distributional-fidelity report: per-column shape scores, per-pair trend
scores, and their combined overall value.

Numeric shapes use the Kolmogorov-Smirnov complement, categorical shapes the
total-variation complement. Numeric pairs use correlation similarity; any pair
involving a categorical column is compared as a joint contingency table, with
numeric columns discretized into 4 quantile bins whose edges come from the
real column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyColumn, LengthMismatch, SchemaMismatch
from .schema import ColumnKind, Dataset, TableSchema

KS_COMPLEMENT = "KSComplement"
TV_COMPLEMENT = "TVComplement"
CORRELATION_SIMILARITY = "CorrelationSimilarity"
CONTINGENCY_SIMILARITY = "ContingencySimilarity"

QUANTILE_BINS = 4


@dataclass(frozen=True)
class QualityReport:
    overall_score: float
    shapes: dict[str, tuple[str, float]]  # column -> (metric_name, score)
    pair_trends: tuple[tuple[str, str, str, float], ...]  # (a, b, metric, score)
    shapes_average: float
    trends_average: float


def ks_complement(real_col, synth_col) -> float:
    """1 - D where D is the two-sample KS statistic over pooled sample points.

    ECDF values are computed as count/n so the result is bit-identical to a
    brute-force enumeration of the same ratios.
    """
    r = np.sort(np.asarray(real_col, dtype=np.float64))
    s = np.sort(np.asarray(synth_col, dtype=np.float64))
    if r.size == 0 or s.size == 0:
        raise EmptyColumn("ks_complement requires nonempty columns")
    pooled = np.union1d(r, s)
    cdf_r = np.searchsorted(r, pooled, side="right") / r.size
    cdf_s = np.searchsorted(s, pooled, side="right") / s.size
    d = float(np.max(np.abs(cdf_r - cdf_s)))
    return 1.0 - d


def tv_complement(real_col, synth_col) -> float:
    """1 - TVD between the empirical category frequencies."""
    return _tv(*_coded(real_col, synth_col))


def correlation_similarity(real_a, real_b, synth_a, synth_b) -> float:
    """1 - |rho_real - rho_synth| / 2 with Pearson rho; a zero-variance column
    contributes rho = 0."""
    rho_r = _pearson(np.asarray(real_a, dtype=np.float64), np.asarray(real_b, dtype=np.float64))
    rho_s = _pearson(np.asarray(synth_a, dtype=np.float64), np.asarray(synth_b, dtype=np.float64))
    return 1.0 - abs(rho_r - rho_s) / 2.0


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    if x.size == 0 or y.size == 0:
        raise EmptyColumn("correlation requires nonempty columns")
    if np.all(x == x[0]) or np.all(y == y[0]):
        return 0.0
    rho = float(np.corrcoef(x, y)[0, 1])
    return min(1.0, max(-1.0, rho))


def contingency_similarity(real_a, real_b, synth_a, synth_b) -> float:
    """1 - TVD between the empirical joint frequency tables of two label
    sequences."""
    a, b = _coded(real_a, synth_a), _coded(real_b, synth_b)
    if a[0].size != b[0].size or a[1].size != b[1].size:
        raise LengthMismatch("paired label sequences must have equal lengths")
    return _pair_tv(a, b)


def _coded(real_labels, synth_labels) -> tuple[np.ndarray, np.ndarray, int]:
    """(real keys, synthetic keys, key count): the two label sequences coded
    over one key table, numbered in first-appearance order."""
    table: dict = {}
    real, synth = (
        np.array([table.setdefault(v, len(table)) for v in labels], dtype=np.int64)
        for labels in (real_labels, synth_labels)
    )
    return real, synth, len(table)


def _tv(real_keys: np.ndarray, synth_keys: np.ndarray, size: int) -> float:
    """1 - TVD between the frequencies of two arrays of keys in [0, size).

    Counts are integers and each frequency a single division, and math.fsum
    sums exactly, so the result does not depend on how the keys are numbered
    and matches a brute-force count over the labels bitwise.
    """
    nr, ns = real_keys.size, synth_keys.size
    if nr == 0 or ns == 0:
        raise EmptyColumn("total variation requires nonempty columns")
    if size > nr + ns:  # sparse keys: renumber the ones that occur
        _, keys = np.unique(np.concatenate([real_keys, synth_keys]), return_inverse=True)
        real_keys, synth_keys, size = keys[:nr], keys[nr:], nr + ns
    freq_real = np.bincount(real_keys, minlength=size) / nr
    freq_synth = np.bincount(synth_keys, minlength=size) / ns
    return 1.0 - 0.5 * math.fsum(np.abs(freq_real - freq_synth).tolist())


def _pair_tv(a: tuple, b: tuple) -> float:
    """``_tv`` of the joint keys of two columns coded like ``_coded``'s output."""
    (real_a, synth_a, size_a), (real_b, synth_b, size_b) = a, b
    return _tv(real_a * size_b + real_b, synth_a * size_b + synth_b, size_a * size_b)


def quantile_bin_edges(real_values, bins: int = QUANTILE_BINS) -> np.ndarray:
    """Interior quantile edges of the real column (bins-1 of them)."""
    arr = np.asarray(real_values, dtype=np.float64)
    if arr.size == 0:
        raise EmptyColumn("cannot derive bin edges from an empty column")
    qs = np.arange(1, bins) / bins
    return np.quantile(arr, qs)


def discretize(values, edges: np.ndarray) -> np.ndarray:
    """Right-closed binning: value v lands in bin #edges strictly below v, so
    v <= edges[0] is bin 0 and anything above the top edge is the last bin."""
    arr = np.asarray(values, dtype=np.float64)
    return np.searchsorted(edges, arr, side="left")


def quality_report(real: Dataset, synth: Dataset, schema: TableSchema) -> QualityReport:
    """Full fidelity report of ``synth`` against ``real`` under ``schema``.

    overall = (mean of shape scores + mean of pair-trend scores) / 2; a table
    with fewer than 2 columns reuses the shape average as the trend average.
    """
    if real.schema != schema or synth.schema != schema:
        raise SchemaMismatch("real and synthetic datasets must share the given schema")

    # Each column is coded once: a categorical column's codes through one key
    # table for both category tables, a numeric column into quantile bins
    # whose edges come from the real data only.
    coded: dict[str, tuple] = {}
    shapes: dict[str, tuple[str, float]] = {}
    for (name, kind), r, s in zip(schema.columns, real.columns, synth.columns):
        if kind is ColumnKind.NUMERIC:
            shapes[name] = (KS_COMPLEMENT, ks_complement(r.values, s.values))
            edges = quantile_bin_edges(r.values)
            coded[name] = (discretize(r.values, edges), discretize(s.values, edges), edges.size + 1)
        else:
            real_keys, synth_keys, size = _coded(r.categories, s.categories)
            coded[name] = (real_keys[r.codes], synth_keys[s.codes], size)
            shapes[name] = (TV_COMPLEMENT, _tv(*coded[name]))
    shapes_average = float(np.mean([score for _, score in shapes.values()]))

    trends: list[tuple[str, str, str, float]] = []
    cols = schema.columns
    for i, (name_a, kind_a) in enumerate(cols):
        for name_b, kind_b in cols[i + 1:]:
            if kind_a is ColumnKind.NUMERIC and kind_b is ColumnKind.NUMERIC:
                score = correlation_similarity(
                    real.decoded(name_a), real.decoded(name_b),
                    synth.decoded(name_a), synth.decoded(name_b),
                )
                trends.append((name_a, name_b, CORRELATION_SIMILARITY, score))
            else:
                score = _pair_tv(coded[name_a], coded[name_b])
                trends.append((name_a, name_b, CONTINGENCY_SIMILARITY, score))

    if trends:
        trends_average = float(np.mean([t[3] for t in trends]))
    else:
        trends_average = shapes_average
    overall = (shapes_average + trends_average) / 2.0
    return QualityReport(
        overall_score=overall,
        shapes=shapes,
        pair_trends=tuple(trends),
        shapes_average=shapes_average,
        trends_average=trends_average,
    )

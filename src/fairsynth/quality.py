"""Distributional-fidelity report: per-column shape scores, per-pair trend
scores, and their combined overall value.

Numeric shapes use the Kolmogorov-Smirnov complement, categorical shapes the
total-variation complement. Numeric pairs use correlation similarity; any pair
involving a categorical column is compared as a joint contingency table, with
numeric columns discretized into 4 quantile bins whose edges come from the
real column.

``quality_report`` counts the contingency tables of all pairs at once. Every
column is coded once per side into a span of levels (numeric columns into
their 4 bins, categorical ones over one key table for both sides), and each
side's level co-occurrence counts G = X.T @ X come from one-hot blocks X of at
most ``ONE_HOT_CELLS`` float32 cells. A pair's score is then 1 - 1/2 * the
exact sum of |G_real / n_real - G_synth / n_synth| over its two spans, and a
categorical shape the same sum over its own span. The counts are exact: each
product is 0 or 1 and each block has fewer than 2**24 rows, so every partial
sum is an integer that float32 holds; each frequency is then one division of
the same integers ``_tv`` divides; cells empty on both sides add exactly 0;
and ``math.fsum`` is exact. So every score carries the bits of
``contingency_similarity`` and ``tv_complement`` on the same labels. A column
with more than ``MAX_LEVELS`` levels is scored pair by pair instead, and G is
built in tiles of at most ``TILE_LEVELS`` levels a side, so memory stays
bounded whatever the vocabulary or column count.

What depends on the real table alone, its numeric columns' bin edges and
codes and their pairs' rho, is its ``RealSide``. ``quality_report`` builds it
from a real table, or takes it built once by ``real_side`` to score many
synthetic tables against one real table. Its co-occurrence counts also
depend on the coded layout, which a synthetic category the real table lacks
changes; a ``RealCounts`` keeps them while the layout holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyColumn, LengthMismatch, SchemaMismatch, ValidationFailure
from .schema import ColumnKind, Dataset, TableSchema

KS_COMPLEMENT = "KSComplement"
TV_COMPLEMENT = "TVComplement"
CORRELATION_SIMILARITY = "CorrelationSimilarity"
CONTINGENCY_SIMILARITY = "ContingencySimilarity"

QUANTILE_BINS = 4
# A column with more levels than this is scored pair by pair (``_pair_tv``).
MAX_LEVELS = 64
# Cells of one float32 one-hot block (512 kB).
ONE_HOT_CELLS = 1 << 17
# Levels a side of one tile of the co-occurrence counts (512 kB of float64).
TILE_LEVELS = 256


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
    brute-force enumeration of the same ratios. The sorted sides are merged
    once; at the last point of each run of equal values (-0.0 ties 0.0) the
    running count of each side is its count of points at or below that value.
    """
    r = np.sort(np.asarray(real_col, dtype=np.float64))
    s = np.sort(np.asarray(synth_col, dtype=np.float64))
    if r.size == 0 or s.size == 0:
        raise EmptyColumn("ks_complement requires nonempty columns")
    pooled = np.concatenate((r, s))
    order = np.argsort(pooled, kind="stable")
    merged = pooled[order]
    ends = np.flatnonzero(np.append(merged[1:] != merged[:-1], True))
    real_counts = np.cumsum(order < r.size)[ends]
    synth_counts = ends + 1 - real_counts
    return 1.0 - float(np.max(np.abs(real_counts / r.size - synth_counts / s.size)))


def tv_complement(real_col, synth_col) -> float:
    """1 - TVD between the empirical category frequencies."""
    return _tv(*_coded(real_col, synth_col))


def correlation_similarity(real_a, real_b, synth_a, synth_b) -> float:
    """1 - |rho_real - rho_synth| / 2 with Pearson rho; a zero-variance column
    contributes rho = 0."""
    ra, rb, sa, sb = (np.asarray(v, dtype=np.float64) for v in (real_a, real_b, synth_a, synth_b))
    if ra.size != rb.size or sa.size != sb.size:
        raise LengthMismatch("paired value sequences must have equal lengths")
    rho_r = _centred_pearson(_centred(ra), _centred(rb))
    rho_s = _centred_pearson(_centred(sa), _centred(sb))
    return 1.0 - abs(rho_r - rho_s) / 2.0


def _centred(values: np.ndarray) -> np.ndarray | None:
    """``values`` minus their mean, as ``np.cov`` centres a row; None for a
    constant column, whose rho is 0."""
    if values.size == 0:
        raise EmptyColumn("correlation requires nonempty columns")
    if np.all(values == values[0]):
        return None
    return values - values.mean()


def _centred_pearson(x: np.ndarray | None, y: np.ndarray | None) -> float:
    """Pearson rho of two columns from their ``_centred`` forms, clipped to
    [-1, 1]: the steps ``np.corrcoef`` takes after centring, in its order, so
    the bits agree with it."""
    if x is None or y is None:
        return 0.0
    pair = np.stack((x, y))
    c = np.dot(pair, pair.T)
    c *= np.true_divide(1, x.size - 1)
    stddev = np.sqrt(np.diag(c))
    c /= stddev[:, None]
    c /= stddev[None, :]
    return float(np.clip(c[0, 1], -1.0, 1.0))


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
    real_a, synth_a = (keys.astype(np.int64, copy=False) for keys in (real_a, synth_a))
    return _tv(real_a * size_b + real_b, synth_a * size_b + synth_b, size_a * size_b)


@dataclass
class RealCounts:
    """The level co-occurrence counts of the real side ``real`` in
    ``quality_report``, one array per pair of tiles, for the coded layout
    ``sizes`` (each column's level count). A report against ``real`` fills
    it and the next one reuses it while the layout holds; a synthetic
    category that the real table lacks changes the layout, and the counts
    are built again. A report against another real side refuses it."""

    real: RealSide
    sizes: tuple[int, ...] = ()
    tiles: list[np.ndarray] = field(default_factory=list)


def _joint_tvs(
    columns: list[tuple], numeric: list[bool], real_counts: RealCounts | None = None
) -> np.ndarray:
    """scores[i, j]: ``_pair_tv`` of columns i < j, and ``_tv`` of column i
    as scores[i, i], for columns coded like ``_coded``'s output; nan where
    columns i and j are both ``numeric``. All come from each side's level
    co-occurrence counts; the real side's are read from ``real_counts`` when
    it holds them, and stored in it otherwise.

    Consecutive columns share a tile while their levels fit in
    ``TILE_LEVELS``; the counts of each pair of tiles are built once."""
    nr, ns = columns[0][0].size, columns[0][1].size
    if nr == 0 or ns == 0:
        raise EmptyColumn("total variation requires nonempty columns")
    reuse = real_counts is not None and bool(real_counts.tiles)
    tiles: list[list[int]] = []
    widths: list[int] = []
    starts: list[int] = []  # each column's first slot in its tile
    for i, (_, _, size) in enumerate(columns):
        if not tiles or widths[-1] + size > TILE_LEVELS:
            tiles.append([])
            widths.append(0)
        tiles[-1].append(i)
        starts.append(widths[-1])
        widths[-1] += size

    def slots(side: int) -> list[np.ndarray]:
        """Per tile, each row's level slots on ``side``, one column per tile
        column."""
        blocks = []
        for tile in tiles:
            block = np.empty((columns[0][side].size, len(tile)), np.int16)
            for j, i in enumerate(tile):
                block[:, j] = columns[i][side] + starts[i]
            blocks.append(block)
        return blocks

    real_slots = None if reuse else slots(0)
    synth_slots = slots(1)
    spans = [slice(start, start + size) for start, (_, _, size) in zip(starts, columns)]

    scores = np.full((len(columns), len(columns)), np.nan)
    kept = iter(real_counts.tiles) if reuse else None
    for p, left in enumerate(tiles):
        for q in range(p, len(tiles)):
            if reuse:
                real = next(kept)
            else:
                real = _cooccurrences(real_slots[p], widths[p], real_slots[q], widths[q])
                if real_counts is not None:
                    real_counts.tiles.append(real)
            synth = _cooccurrences(synth_slots[p], widths[p], synth_slots[q], widths[q])
            diff = np.abs(real / nr - synth / ns)
            for k, i in enumerate(left):
                for j in (left[k:] if p == q else tiles[q]):
                    if not (numeric[i] and numeric[j]):
                        cells = diff[spans[i], spans[j]].ravel().tolist()
                        scores[i, j] = 1.0 - 0.5 * math.fsum(cells)
    return scores


def _cooccurrences(
    left: np.ndarray, left_width: int, right: np.ndarray, right_width: int
) -> np.ndarray:
    """counts[i, j]: the rows that hold left level i and right level j, where
    row k of ``left`` (``right``) lists row k's level slots in [0, width)."""
    counts = np.zeros((left_width, right_width))
    step = ONE_HOT_CELLS // max(left_width, right_width)
    for lo in range(0, len(left), step):
        block = _one_hot(left[lo:lo + step], left_width)
        other = block if right is left else _one_hot(right[lo:lo + step], right_width)
        counts += block.T @ other
    return counts


def _one_hot(slots: np.ndarray, width: int) -> np.ndarray:
    """float32 rows with a one at each of the row's slots."""
    block = np.zeros((len(slots), width), dtype=np.float32)
    block.reshape(-1)[slots + np.arange(0, block.size, width)[:, None]] = 1.0
    return block


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


@dataclass(frozen=True)
class RealSide:
    """The real table's side of the quality report, built once by ``real_side``
    and scored against by ``quality_report`` as often as there are synthetic
    tables to score: per numeric column its quantile bin edges and the int16
    bin codes of the real rows, and per pair of numeric columns (in schema
    order) the real Pearson rho."""

    table: Dataset
    edges: dict[str, np.ndarray]
    codes: dict[str, np.ndarray]
    rhos: dict[tuple[str, str], float]


def real_side(real: Dataset) -> RealSide:
    """The side of ``quality_report`` that depends on ``real`` alone."""
    numeric = [
        (name, col.values)
        for (name, kind), col in zip(real.schema.columns, real.columns)
        if kind is ColumnKind.NUMERIC
    ]
    centred = [_centred(values) for _, values in numeric]
    rhos = {
        (numeric[i][0], numeric[j][0]): _centred_pearson(centred[i], centred[j])
        for i in range(len(numeric))
        for j in range(i + 1, len(numeric))
    }
    del centred
    edges = {name: quantile_bin_edges(values) for name, values in numeric}
    codes = {name: discretize(values, edges[name]).astype(np.int16) for name, values in numeric}
    return RealSide(real, edges, codes, rhos)


def quality_report(
    real: Dataset | RealSide,
    synth: Dataset,
    schema: TableSchema,
    real_counts: RealCounts | None = None,
) -> QualityReport:
    """Full fidelity report of ``synth`` against ``real`` under ``schema``;
    ``real`` may be given as its ``real_side``, built once for many reports,
    and then ``RealCounts(real)`` keeps its co-occurrence counts from one
    report to the next.

    overall = (mean of shape scores + mean of pair-trend scores) / 2; a table
    with fewer than 2 columns reuses the shape average as the trend average.
    """
    table = real.table if isinstance(real, RealSide) else real
    if table.schema != schema or synth.schema != schema:
        raise SchemaMismatch("real and synthetic datasets must share the given schema")
    side = real if isinstance(real, RealSide) else real_side(real)
    if real_counts is not None and real_counts.real is not side:
        raise ValidationFailure("real_counts belong to another real side")

    # Numeric pairs are scored first, from each synthetic numeric column
    # centred once; the centred copies are freed before the columns are coded.
    numeric = [name for name, kind in schema.columns if kind is ColumnKind.NUMERIC]
    centred = [_centred(synth.column(n).values) for n in numeric]
    correlations: dict[tuple[str, str], float] = {}
    for i, synth_a in enumerate(centred):
        for j in range(i + 1, len(numeric)):
            rho_r = side.rhos[numeric[i], numeric[j]]
            rho_s = _centred_pearson(synth_a, centred[j])
            correlations[numeric[i], numeric[j]] = 1.0 - abs(rho_r - rho_s) / 2.0
    del centred

    # Each column is coded once: a categorical column's codes through one key
    # table for both category tables, a numeric column into the quantile bins
    # of the real side. The codes of a column of at most MAX_LEVELS levels are
    # held in 16 bits.
    coded: dict[str, tuple] = {}
    ks: dict[str, float] = {}
    for (name, kind), r, s in zip(schema.columns, table.columns, synth.columns):
        if kind is ColumnKind.NUMERIC:
            ks[name] = ks_complement(r.values, s.values)
            edges = side.edges[name]
            synth_codes = discretize(s.values, edges).astype(np.int16)
            coded[name] = (side.codes[name], synth_codes, edges.size + 1)
            continue
        real_keys, synth_keys, size = _coded(r.categories, s.categories)
        dtype = np.int16 if size <= MAX_LEVELS else np.int64
        codes = (real_keys[r.codes], synth_keys[s.codes])
        coded[name] = (*(c.astype(dtype, copy=False) for c in codes), size)
    # Columns of at most MAX_LEVELS levels are scored together, the rest
    # pair by pair.
    narrow = {name: i for i, name in enumerate(n for n, c in coded.items() if c[2] <= MAX_LEVELS)}
    layout = tuple(size for _, _, size in coded.values())
    if real_counts is not None and real_counts.sizes != layout:
        real_counts.sizes, real_counts.tiles = layout, []
    joint = None
    if narrow:
        joint = _joint_tvs([coded[n] for n in narrow], [n in ks for n in narrow], real_counts)

    def tv(a: str, b: str) -> float:
        if a in narrow and b in narrow:
            return float(joint[narrow[a], narrow[b]])
        return _tv(*coded[a]) if a == b else _pair_tv(coded[a], coded[b])

    shapes: dict[str, tuple[str, float]] = {
        name: (KS_COMPLEMENT, ks[name]) if name in ks else (TV_COMPLEMENT, tv(name, name))
        for name in coded
    }
    shapes_average = float(np.mean([score for _, score in shapes.values()]))

    trends: list[tuple[str, str, str, float]] = []
    names = list(coded)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if a in ks and b in ks:
                trends.append((a, b, CORRELATION_SIMILARITY, correlations[a, b]))
            else:
                trends.append((a, b, CONTINGENCY_SIMILARITY, tv(a, b)))

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

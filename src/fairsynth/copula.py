"""Native tabular synthesizers: Gaussian copula and independent marginals.

Numeric marginals are empirical (interpolated ECDF over order statistics with
plotting positions i/(n+1)); categorical marginals are frequency tables whose
categories partition [0,1) into contiguous intervals. Dependence is carried by
a correlation matrix estimated over per-column normal scores and repaired to
positive definiteness before factorization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import (
    EmptyDataset,
    NotFitted,
    TooFewValues,
    ValidationFailure,
)
from .schema import (
    CategoricalColumn,
    Column,
    ColumnKind,
    Dataset,
    NumericColumn,
    TableSchema,
    _read_json,
)

#: Eigenvalue floor used by the PSD repair.
PSD_EPS = 1e-6

#: Score columns with variance below this are treated as constant.
CONSTANT_VARIANCE = 1e-12

NATIVE_BACKENDS = ("gaussian_copula", "independent")


@dataclass(frozen=True)
class NumericMarginal:
    sorted_values: np.ndarray  # ascending, length >= 2

    def __post_init__(self):
        arr = np.ascontiguousarray(self.sorted_values, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "sorted_values", arr)


@dataclass(frozen=True)
class CategoricalMarginal:
    categories: tuple[str, ...]  # descending frequency, ties by text ascending
    frequencies: np.ndarray
    upper_bounds: np.ndarray  # cumulative; last entry exactly 1.0

    def __post_init__(self):
        freqs = np.ascontiguousarray(self.frequencies, dtype=np.float64)
        ub = np.ascontiguousarray(self.upper_bounds, dtype=np.float64)
        freqs.setflags(write=False)
        ub.setflags(write=False)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "upper_bounds", ub)


MarginalModel = NumericMarginal | CategoricalMarginal


@dataclass(frozen=True)
class CopulaModel:
    marginals: dict[str, MarginalModel]
    correlation: np.ndarray
    cholesky: np.ndarray
    column_order: tuple[str, ...]
    fitted_rows: int
    seed: int

    @property
    def schema(self) -> TableSchema:
        cols = tuple(
            (
                name,
                ColumnKind.NUMERIC
                if isinstance(self.marginals[name], NumericMarginal)
                else ColumnKind.CATEGORICAL,
            )
            for name in self.column_order
        )
        return TableSchema(cols)


def fit_marginal(column: Column) -> MarginalModel:
    """Fit one column's marginal model.

    Numeric columns keep a sorted copy of the values; categorical columns get
    the frequencies of the categories that occur, descending (ties by text
    ascending), plus the cumulative interval bounds derived from that order.
    """
    if isinstance(column, NumericColumn):
        if len(column) < 2:
            raise TooFewValues("numeric marginal needs at least 2 values")
        # np.sort, not values[argsort]: an unstable argsort may swap -0.0 and 0.0.
        return NumericMarginal(np.sort(column.values))
    return _fit_categorical(column)[0]


def _fit_categorical(column: CategoricalColumn) -> tuple[CategoricalMarginal, list[int]]:
    """``fit_marginal`` of a categorical column, and the codes of its
    categories in the marginal's order."""
    n = len(column)
    if n == 0:
        raise TooFewValues("categorical marginal needs at least 1 value")
    counts = np.bincount(column.codes, minlength=len(column.categories))
    # A sliced column's table can hold categories that no row uses; skip them.
    present = np.flatnonzero(counts).tolist()
    order = sorted(present, key=lambda k: (-counts[k], column.categories[k]))
    freqs = counts[order] / n
    upper = np.cumsum(freqs)
    upper[-1] = 1.0  # guarantee full coverage of [0, 1)
    marginal = CategoricalMarginal(tuple(column.categories[k] for k in order), freqs, upper)
    return marginal, order


def _correlation(scores: np.ndarray) -> np.ndarray:
    """Pearson correlation of the rows of the C-ordered (columns, rows)
    ``scores``, constant rows pinned to zero correlation, repaired to a usable
    correlation matrix. It is formed in ``scores`` itself (in a copy of its
    active rows when a row is constant) by ``np.corrcoef``'s steps in its
    order, symmetric ``np.dot`` (BLAS syrk) included: its bits without its
    copy. Each row's variance is taken alone, so no temporary of the matrix's
    size is built either."""
    d, n = scores.shape
    active = np.array([row.var() >= CONSTANT_VARIANCE for row in scores], dtype=bool)
    corr = np.eye(d)
    if active.sum() >= 2:
        x = scores if active.all() else scores[active]
        x -= x.mean(axis=1)[:, None]
        c = np.dot(x, x.T)
        c *= np.true_divide(1, n - 1)
        stddev = np.sqrt(np.diag(c))
        c /= stddev[:, None]
        c /= stddev[None, :]
        np.clip(c, -1.0, 1.0, out=c)
        ij = np.flatnonzero(active)
        corr[np.ix_(ij, ij)] = c
    np.fill_diagonal(corr, 1.0)
    return nearest_psd(corr, PSD_EPS)


def nearest_psd(m: np.ndarray, eps: float = PSD_EPS) -> np.ndarray:
    """Repair a symmetric matrix into a positive-definite correlation matrix.

    Eigenvalues below ``eps`` are clipped up to ``eps``; the reconstruction is
    rescaled back to a unit diagonal. Matrices whose eigenvalues already sit
    at or above ``eps`` come back unchanged up to numerical noise.
    """
    m = np.asarray(m, dtype=np.float64)
    if np.max(np.abs(m - m.T)) > 1e-9:
        raise ValidationFailure("matrix is not symmetric within 1e-9")
    sym = (m + m.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    if eigvals.min() >= eps:
        return sym
    clipped = np.maximum(eigvals, eps)
    rebuilt = (eigvecs * clipped) @ eigvecs.T
    scale = np.sqrt(np.diag(rebuilt))
    rebuilt = rebuilt / np.outer(scale, scale)
    rebuilt = (rebuilt + rebuilt.T) / 2.0
    np.fill_diagonal(rebuilt, 1.0)
    return rebuilt


def slice_ranks(table: Dataset) -> tuple[np.ndarray | None, ...]:
    """Per numeric column of ``table``, each row's run (``_runs``); None per
    categorical column. With them ``fit`` ranks a refit on ``table``, or on
    rows drawn from it, without sorting."""
    # int32 halves what a supervise call keeps for its whole run.
    return tuple(
        _runs(col.values).astype(np.int32) if isinstance(col, NumericColumn) else None
        for col in table.columns
    )


def _runs(values: np.ndarray) -> np.ndarray:
    """Each value's run of equal values: the index of the value among the
    distinct values in ascending order; ``!=`` ties -0.0 with 0.0."""
    # np.unique's inverse gives the same ids but holds more at once (1.5 MB
    # more peak RSS on perfbench tall-run); the sorted copy is freed before
    # the ids are scattered back.
    order = np.argsort(values)
    ordered = values[order]
    first = np.empty(len(values), bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    del ordered
    ids = np.cumsum(first)
    ids -= 1
    runs = np.empty(len(values), np.intp)
    runs[order] = ids
    return runs


def fit(
    train: Dataset,
    backend: str = "gaussian_copula",
    seed: int = 0,
    ranks: tuple[np.ndarray | None, ...] | None = None,
    rows: np.ndarray | None = None,
) -> CopulaModel:
    """Fit a ``backend`` synthesizer on ``train``; column kinds come from its
    schema, and ``seed`` draws the categorical scores.

    ``gaussian_copula`` estimates the score correlation; ``independent``
    forces the identity. The fit is closed-form and its correlation is never
    shrunk: ``shrink_correlation`` does that.

    ``ranks`` are the ``slice_ranks`` of a table (the slice) whose rows
    ``train`` holds, and ``rows`` lists them (None: ``train`` is the slice).
    Given them, a gaussian_copula fit ranks its numeric columns without
    sorting, and gives the same floats as without them.
    """
    if train.row_count == 0:
        raise EmptyDataset("cannot fit on an empty dataset")
    if backend not in NATIVE_BACKENDS:
        raise ValidationFailure(
            f"unknown native backend {backend!r}; expected one of {NATIVE_BACKENDS}"
        )
    if seed < 0:
        raise ValidationFailure("seed must be non-negative")
    if ranks is not None and (
        len(ranks) != len(train.columns) or rows is not None and len(rows) != train.row_count
    ):
        raise ValidationFailure("ranks and rows must describe the columns and rows of train")
    names = train.schema.names
    if backend == "independent":
        marginals = [fit_marginal(col) for col in train.columns]
        corr = np.eye(len(names))
    else:
        marginals, scores = _fit_scores(train.columns, np.random.default_rng(seed), ranks, rows)
        corr = _correlation(scores)  # scores is not read again
    return CopulaModel(
        marginals=dict(zip(names, marginals)),
        correlation=corr,
        cholesky=np.linalg.cholesky(corr),
        column_order=names,
        fitted_rows=train.row_count,
        seed=seed,
    )


def shrink_correlation(model: CopulaModel, shrinkage: float) -> CopulaModel:
    """``model`` with its correlation shrunk toward the identity by
    ``shrinkage`` in [0, 1]; ``model`` itself when ``shrinkage`` is 0. An
    identity correlation (``independent``) comes back bit for bit."""
    if not (0.0 <= shrinkage <= 1.0):
        raise ValidationFailure("correlation_shrinkage must lie in [0, 1]")
    if shrinkage == 0.0:
        return model
    corr = (1.0 - shrinkage) * model.correlation + shrinkage * np.eye(len(model.column_order))
    return replace(model, correlation=corr, cholesky=np.linalg.cholesky(corr))


def _fit_scores(
    columns: tuple[Column, ...],
    rng: np.random.Generator,
    ranks: tuple[np.ndarray | None, ...] | None = None,
    rows: np.ndarray | None = None,
) -> tuple[list[MarginalModel], np.ndarray]:
    """Each column's marginal, and the (columns, rows) matrix of the normal
    scores of the rows it was fitted on; ``ranks`` and ``rows`` are
    ``fit``'s.

    A numeric value with (average, 1-based) rank r among the column's n
    values maps through u = r/(n+1): a run of equal values (``_runs``, taken
    from ``ranks`` when given) with t rows after s rows of smaller values
    has the average rank s + (t + 1) / 2, so ``ndtri`` runs once per run.
    A column of n distinct values fitted on its own rows has runs 0..n-1,
    each one row, so run r scores ``ndtri((r + 1) / (n + 1))`` in every such
    column: one grid per fit serves them all. A categorical value draws u
    uniformly inside its category's interval of the marginal, one
    ``rng.random`` draw per row in column order, so score space carries no
    point masses.
    """
    # Every marginal is fitted before any column is scored: the marginals
    # outlive the fit, and allocated between scoring temporaries they fragment
    # the heap (2 MB more peak RSS on perfbench wide-run).
    fitted = [
        (fit_marginal(col), None) if isinstance(col, NumericColumn) else _fit_categorical(col)
        for col in columns
    ]
    n = len(columns[0])
    scores = np.empty((len(columns), n))
    grid = None  # ndtri of r/(n+1), r = 1..n: the tie-free columns' scores
    for j, (row, col, (marginal, category_codes)) in enumerate(zip(scores, columns, fitted)):
        if isinstance(col, NumericColumn):
            if ranks is None:
                runs = _runs(col.values)
            else:
                runs = ranks[j] if rows is None else ranks[j][rows]
            # Every run indexes the table it reads, so "clip" clips nothing;
            # it writes straight into the row, where "raise" fills a copy first.
            if rows is None and runs.max() == n - 1:  # n runs of one row each
                if grid is None:
                    grid = ndtri(np.arange(1, n + 1) / (n + 1))
                np.take(grid, runs, out=row, mode="clip")
                continue
            lengths = np.bincount(runs)  # a run that no row holds gets an unread score
            starts = np.cumsum(lengths) - lengths
            np.take(ndtri((starts + (lengths + 1) / 2.0) / (n + 1)), runs, out=row, mode="clip")
            continue
        upper = marginal.upper_bounds
        lower = np.concatenate(([0.0], upper[:-1]))
        # Codes no row uses keep a zero interval that nothing reads.
        lower_of = np.zeros(len(col.categories))
        width_of = np.zeros(len(col.categories))
        lower_of[category_codes] = lower
        width_of[category_codes] = upper - lower
        rng.random(out=row)
        # np.take, not indexing: indexing by int32 codes converts them to intp
        # through a slower path (about 1.7x the gather time at 54k rows).
        row *= np.take(width_of, col.codes)
        row += np.take(lower_of, col.codes)
        ndtri(row, out=row)
    return [marginal for marginal, _ in fitted], scores


def _inverse_numeric(u: np.ndarray, marginal: NumericMarginal) -> np.ndarray:
    """The marginal's values at the scores ``u``, which it stretches in place:
    ``np.interp`` over the positions r/(n+1), r = 1..n, bit for bit."""
    xs = marginal.sorted_values
    n = len(xs)
    # Positions and u times a power of two >= n+1: exact, and while the steps
    # between values are normal it keeps every interpolated bit, but no slope
    # is then steeper than the step it spans, so none overflows.
    scale = 2.0 ** (n + 1).bit_length()
    u *= scale

    def position(r):
        return (r / (n + 1)) * scale  # np.arange(1, n + 1) / (n + 1) * scale at r

    # The values outlive the call, so they are allocated before its
    # temporaries: allocated among them, perfbench tall-run's peak RSS read
    # 3.7 MB more (88.8-89.3 against 84.9-85.3 MB).
    out = np.empty(len(u))
    # r positions lie at or below each u (0 below the grid, n at its top): the
    # estimate is off by at most one step either way.
    r = (u * ((n + 1) / scale)).astype(np.intp)
    np.minimum(r, n, out=r)
    r -= position(r) > u
    r += position(r + 1) <= u
    np.minimum(r, n, out=r)
    # np.interp's own arithmetic on the interval [position k, position k+1).
    k = np.clip(r, 1, n - 1)
    x0 = position(k)
    k += 1
    dx = position(k)
    dx -= x0
    np.take(xs, k - 1, out=out, mode="clip")  # k - 1 lies in [0, n), so nothing clips
    y0 = np.take(xs, k - 2)
    # A step between values of both signs near the float64 maximum overflows
    # to inf, as in np.interp, which warns about nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        out -= y0
        out /= dx
        np.subtract(u, x0, out=dx)
        out *= dx
        out += y0
    np.copyto(out, y0, where=u == x0)  # an exact hit is the value itself, -0.0 included
    np.copyto(out, xs[0], where=r == 0)  # np.interp clamps to the fitted [min, max]
    np.copyto(out, xs[-1], where=r == n)
    return out


def _inverse_categorical(u: np.ndarray, marginal: CategoricalMarginal) -> np.ndarray:
    idx = np.searchsorted(marginal.upper_bounds, u, side="right")
    return np.minimum(idx, len(marginal.categories) - 1).astype(np.int32)


def sample(model: CopulaModel, n_rows: int, seed: int) -> Dataset:
    """Draw ``n_rows`` synthetic rows; identical inputs give identical output."""
    if n_rows < 0:
        raise ValidationFailure("n_rows must be non-negative")
    rng = np.random.default_rng(seed)
    d = len(model.column_order)
    u = rng.standard_normal((n_rows, d)) @ model.cholesky.T
    ndtr(u, out=u)

    columns: list[Column] = []
    for j, name in enumerate(model.column_order):
        marginal = model.marginals[name]
        if isinstance(marginal, NumericMarginal):
            columns.append(NumericColumn(_inverse_numeric(u[:, j], marginal)))
        else:
            codes = _inverse_categorical(u[:, j], marginal)
            columns.append(CategoricalColumn(codes, marginal.categories))
    return Dataset(model.schema, tuple(columns))


def model_to_json_dict(model: CopulaModel) -> dict:
    marginals = {}
    for name in model.column_order:
        m = model.marginals[name]
        if isinstance(m, NumericMarginal):
            marginals[name] = {
                "kind": "numeric",
                "sorted_values": m.sorted_values.tolist(),
            }
        else:
            marginals[name] = {
                "kind": "categorical",
                "categories": list(m.categories),
                "frequencies": m.frequencies.tolist(),
            }
    return {
        "marginals": marginals,
        "correlation": model.correlation.tolist(),
        "column_order": list(model.column_order),
        "fitted_rows": model.fitted_rows,
        "seed": model.seed,
    }


def model_from_json_dict(doc: dict) -> CopulaModel:
    """Rebuild a fitted model; a malformed document raises ``NotFitted``, as
    does one that breaks a marginal's invariants: finite, non-negative
    frequencies summing to 1 within 1e-9, distinct category texts, and finite
    ascending sorted values."""
    try:
        order = tuple(doc["column_order"])
        raw_marginals = doc["marginals"]
        correlation = np.asarray(doc["correlation"], dtype=np.float64)
        fitted_rows = int(doc["fitted_rows"])
        seed = int(doc["seed"])
        marginals: dict[str, MarginalModel] = {}
        for name in order:
            m = raw_marginals[name]
            if m["kind"] == "numeric":
                values = np.asarray(m["sorted_values"], dtype=np.float64)
                if values.shape[0] < 2:
                    raise NotFitted(f"numeric marginal {name!r} needs at least 2 values")
                if not np.isfinite(values).all() or np.any(np.diff(values) < 0):
                    raise NotFitted(f"numeric marginal {name!r} needs finite ascending values")
                marginals[name] = NumericMarginal(values)
            else:
                categories = tuple(map(str, m["categories"]))
                freqs = np.asarray(m["frequencies"], dtype=np.float64)
                if not categories or freqs.shape != (len(categories),):
                    raise NotFitted(f"categorical marginal {name!r} needs a frequency per category")
                if len(set(categories)) != len(categories):
                    raise NotFitted(f"categorical marginal {name!r} repeats a category")
                if not (np.isfinite(freqs).all() and (freqs >= 0).all()):
                    raise NotFitted(
                        f"categorical marginal {name!r} has a negative or non-finite frequency"
                    )
                if abs(freqs.sum() - 1.0) > 1e-9:
                    raise NotFitted(f"categorical marginal {name!r} frequencies do not sum to 1")
                upper = np.cumsum(freqs)
                upper[-1] = 1.0
                marginals[name] = CategoricalMarginal(categories, freqs, upper)
        # Raises LinAlgError, a ValueError, unless positive definite.
        cholesky = np.linalg.cholesky(correlation)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise NotFitted(f"malformed model document ({type(exc).__name__}: {exc})")
    if correlation.shape != (len(order), len(order)):
        raise NotFitted(f"model correlation is not {len(order)} x {len(order)}")
    return CopulaModel(
        marginals=marginals,
        correlation=correlation,
        cholesky=cholesky,
        column_order=order,
        fitted_rows=fitted_rows,
        seed=seed,
    )


def save_model(model: CopulaModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json_dict(model), fh)
        fh.write("\n")


def load_model(path: str | Path) -> CopulaModel:
    return model_from_json_dict(_read_json(path))

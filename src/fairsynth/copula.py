"""Native tabular synthesizers: Gaussian copula and independent marginals.

Numeric marginals are empirical (interpolated ECDF over order statistics with
plotting positions i/(n+1)); categorical marginals are frequency tables whose
categories partition [0,1) into contiguous intervals. Dependence is carried by
a correlation matrix estimated over per-column normal scores and repaired to
positive definiteness before factorization.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import (
    DomainError,
    EmptyDataset,
    NotFitted,
    TooFewValues,
    UnknownCategory,
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


def std_normal_cdf(z):
    """Standard normal CDF; scalar in, float out (arrays pass through)."""
    out = ndtr(z)
    return float(out) if np.isscalar(z) else out


def std_normal_quantile(u):
    """Inverse standard normal CDF on (0,1); raises DomainError outside."""
    arr = np.asarray(u, dtype=np.float64)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("quantile argument must lie strictly inside (0, 1)")
    out = ndtri(arr)
    return float(out) if np.isscalar(u) else out


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

    def bounds(self, category: str) -> tuple[float, float]:
        """The half-open interval [a, b) owned by ``category``."""
        i = self.categories.index(category)
        low = 0.0 if i == 0 else float(self.upper_bounds[i - 1])
        return low, float(self.upper_bounds[i])


MarginalModel = NumericMarginal | CategoricalMarginal


@dataclass(frozen=True)
class SynthesizerConfig:
    backend: str = "gaussian_copula"
    seed: int = 0
    correlation_shrinkage: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.correlation_shrinkage <= 1.0):
            raise ValidationFailure("correlation_shrinkage must lie in [0, 1]")
        if self.seed < 0:
            raise ValidationFailure("seed must be non-negative")


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

    def ensure_fitted(self) -> None:
        if self.cholesky is None or self.correlation is None:
            raise NotFitted("model has no factorized correlation")


def fit_marginal(values, kind: ColumnKind) -> MarginalModel:
    """Fit one column's marginal model.

    Numeric columns keep a sorted copy of the values; categorical columns get
    frequencies ordered by descending frequency (ties by category text
    ascending) plus the cumulative interval bounds derived from that order.
    """
    if kind is ColumnKind.NUMERIC:
        arr = np.asarray(values, dtype=np.float64)
        if arr.size < 2:
            raise TooFewValues("numeric marginal needs at least 2 values")
        return NumericMarginal(np.sort(arr))
    seq = [str(v) for v in values]
    if not seq:
        raise TooFewValues("categorical marginal needs at least 1 value")
    counts = Counter(seq)
    ordered = sorted(counts, key=lambda c: (-counts[c], c))
    n = len(seq)
    freqs = np.array([counts[c] / n for c in ordered], dtype=np.float64)
    upper = np.cumsum(freqs)
    upper[-1] = 1.0  # guarantee full coverage of [0, 1)
    return CategoricalMarginal(tuple(ordered), freqs, upper)


def to_normal_scores(values, marginal: MarginalModel, rng: np.random.Generator) -> np.ndarray:
    """Forward copula transform of raw values into standard-normal scores.

    Numeric value with (average, 1-based) rank r among the n fitted values
    maps through u = r/(n+1); categorical values draw u uniformly inside the
    category's interval so score space carries no point masses.
    """
    if isinstance(marginal, NumericMarginal):
        arr = np.asarray(values, dtype=np.float64)
        fitted = marginal.sorted_values
        n = len(fitted)
        less = np.searchsorted(fitted, arr, side="left")
        leq = np.searchsorted(fitted, arr, side="right")
        ties = leq - less
        rank = np.where(ties > 0, less + (ties + 1) / 2.0, less + 0.5)
        u = rank / (n + 1)
        return ndtri(u)
    index = {c: i for i, c in enumerate(marginal.categories)}
    seq = [str(v) for v in values]
    try:
        idx = np.array([index[v] for v in seq], dtype=np.int64)
    except KeyError as exc:
        raise UnknownCategory(f"value {exc.args[0]!r} absent from fitted marginal")
    upper = marginal.upper_bounds
    lower = np.concatenate(([0.0], upper[:-1]))
    lo = lower[idx]
    width = upper[idx] - lo
    u = lo + rng.random(len(seq)) * width
    return ndtri(u)


def estimate_correlation(scores: np.ndarray) -> np.ndarray:
    """Pearson correlation of score columns, constant columns pinned to zero
    correlation, repaired to a usable correlation matrix."""
    scores = np.asarray(scores, dtype=np.float64)
    n, d = scores.shape
    variances = scores.var(axis=0)
    active = variances >= CONSTANT_VARIANCE
    corr = np.eye(d)
    if active.sum() >= 2:
        sub = np.corrcoef(scores[:, active].T)
        sub = np.clip(sub, -1.0, 1.0)
        ij = np.where(active)[0]
        corr[np.ix_(ij, ij)] = sub
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


def fit(train: Dataset, config: SynthesizerConfig) -> CopulaModel:
    """Fit a synthesizer on ``train``; column kinds come from its schema.

    ``gaussian_copula`` estimates the score correlation and shrinks it toward
    the identity by ``correlation_shrinkage``; ``independent`` forces the
    identity. The fit is closed-form.
    """
    if train.row_count == 0:
        raise EmptyDataset("cannot fit on an empty dataset")
    if config.backend not in NATIVE_BACKENDS:
        raise ValidationFailure(
            f"unknown native backend {config.backend!r}; expected one of {NATIVE_BACKENDS}"
        )
    marginals = {
        name: fit_marginal(train.decoded(name), kind) for name, kind in train.schema.columns
    }

    names = train.schema.names
    d = len(names)
    if config.backend == "independent":
        corr = np.eye(d)
    else:
        rng = np.random.default_rng(config.seed)
        scores = np.column_stack(
            [to_normal_scores(train.decoded(name), marginals[name], rng) for name in names]
        )
        corr = estimate_correlation(scores)
        lam = config.correlation_shrinkage
        if lam > 0.0:
            corr = (1.0 - lam) * corr + lam * np.eye(d)

    cholesky = np.linalg.cholesky(corr)
    return CopulaModel(
        marginals=marginals,
        correlation=corr,
        cholesky=cholesky,
        column_order=names,
        fitted_rows=train.row_count,
        seed=config.seed,
    )


def _inverse_numeric(u: np.ndarray, marginal: NumericMarginal) -> np.ndarray:
    xs = marginal.sorted_values
    n = len(xs)
    positions = np.arange(1, n + 1, dtype=np.float64) / (n + 1)
    # np.interp clamps outside the grid, enforcing the fitted [min, max] range.
    return np.interp(u, positions, xs)


def _inverse_categorical(u: np.ndarray, marginal: CategoricalMarginal) -> np.ndarray:
    idx = np.searchsorted(marginal.upper_bounds, u, side="right")
    return np.minimum(idx, len(marginal.categories) - 1).astype(np.int32)


def sample(model: CopulaModel, n_rows: int, seed: int) -> Dataset:
    """Draw ``n_rows`` synthetic rows; identical inputs give identical output."""
    model.ensure_fitted()
    if n_rows < 0:
        raise ValidationFailure("n_rows must be non-negative")
    rng = np.random.default_rng(seed)
    d = len(model.column_order)
    normals = rng.standard_normal((n_rows, d))
    z = normals @ model.cholesky.T
    u = ndtr(z)

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
    """Rebuild a fitted model; a malformed document raises ``NotFitted``."""
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
                marginals[name] = NumericMarginal(values)
            else:
                categories = tuple(map(str, m["categories"]))
                freqs = np.asarray(m["frequencies"], dtype=np.float64)
                if not categories or freqs.shape != (len(categories),):
                    raise NotFitted(f"categorical marginal {name!r} needs a frequency per category")
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

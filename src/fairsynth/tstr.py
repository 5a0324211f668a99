"""Train-on-synthetic, test-on-real evaluation.

A logistic-regression classifier is trained exclusively on synthetic rows
(standardized numerics + one-hot categoricals, protected attributes included
as features, label excluded) and applied to held-out real rows; per-group
false positive rates and the max relative FPR summarize group parity.

UNDEFINED quantities (too little support, fewer than 2 comparable groups) are
represented as None; an infinite ratio is float('inf').
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import (
    DimensionMismatch,
    EmptyDataset,
    LengthMismatch,
    NonFiniteLoss,
    SchemaMismatch,
    ValidationFailure,
)
from .schema import ColumnKind, Dataset, Metadata, _unit_scaled

logger = logging.getLogger(__name__)

INFINITE = float("inf")
UNDEFINED = None

#: Safety bounds on the Newton steps and on the halvings of one step.
MAX_NEWTON_STEPS = 50
MAX_STEP_HALVINGS = 40

# Cells (0.5 MB) of the one buffer that holds a scaled column block of the
# Newton Hessian's Gram matrix. A larger buffer raised the peak RSS of a whole
# run (4,096 columns of 127 features: +1.6 MB), and a buffer allocated fresh
# each step is page-faulted in again on every step.
_GRAM_BLOCK_CELLS = 65_536


@dataclass(frozen=True)
class TstrHyperparams:
    l2_strength: float = 1e-3
    tolerance: float = 1e-6
    threshold: float = 0.5
    min_support: int = 5


@dataclass(frozen=True)
class Encoder:
    numeric_stats: dict[str, tuple[float, float]]  # column -> (mean, stddev > 0)
    constant_numeric: frozenset[str]  # encoded as an all-zero feature
    category_maps: dict[str, tuple[str, ...]]  # column -> one-hot vocabulary
    feature_names: tuple[str, ...]
    feature_columns: tuple[str, ...]  # encoded column order (label excluded)
    label_column: str
    positive_label: str
    protected_attributes: tuple[str, ...]


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray
    bias: float
    hyperparams: TstrHyperparams
    loss_history: tuple[float, ...]  # at w = 0, then after each Newton step
    constant: bool  # one-class training guard fired


@dataclass(frozen=True)
class GroupRate:
    fpr: float | None  # None when negatives < min_support
    negatives: int
    false_positives: int


@dataclass(frozen=True)
class AttributeFairness:
    fpr: dict[str, float | None]
    counts: dict[str, tuple[int, int]]  # group -> (negatives, false_positives)
    max_rel_fpr: float | None  # float('inf') allowed; None when < 2 defined


@dataclass(frozen=True)
class FairnessReport:
    by_attribute: dict[str, AttributeFairness]
    max_rel_fpr: float | None
    degenerate: bool
    excluded_groups: tuple[tuple[str, str, str], ...]  # (attribute, group, reason)
    threshold: float = 0.5


def fit_encoder(synth_train: Dataset, metadata: Metadata) -> Encoder:
    """Feature layout from synthetic rows only: per-numeric (mean, std), per-
    categorical sorted vocabulary; the label column never becomes a feature.
    The label and the protected attributes must be categorical."""
    if synth_train.row_count == 0:
        raise EmptyDataset("cannot fit an encoder on an empty dataset")
    schema = synth_train.schema
    for name in (metadata.label_column, *metadata.protected_attributes):
        if name in schema and schema.kind_of(name) is not ColumnKind.CATEGORICAL:
            raise ValidationFailure(f"column {name!r} is not categorical")
    numeric_stats: dict[str, tuple[float, float]] = {}
    constant: set[str] = set()
    category_maps: dict[str, tuple[str, ...]] = {}
    feature_names: list[str] = []
    feature_columns: list[str] = []
    for name, kind in synth_train.schema.columns:
        if name == metadata.label_column:
            continue
        feature_columns.append(name)
        if kind is ColumnKind.NUMERIC:
            # Taken at unit scale, so no unit overflows or underflows them.
            scaled, e = _unit_scaled(synth_train.column(name).values)
            mean, std = math.ldexp(scaled.mean(), e), math.ldexp(scaled.std(), e)
            if std == 0.0:
                constant.add(name)
                numeric_stats[name] = (mean, 1.0)
            else:
                numeric_stats[name] = (mean, std)
            feature_names.append(name)
        else:
            col = synth_train.column(name)
            present = np.flatnonzero(np.bincount(col.codes, minlength=len(col.categories)))
            vocab = tuple(sorted({col.categories[k] for k in present.tolist()}))
            category_maps[name] = vocab
            feature_names.extend(f"{name}={c}" for c in vocab)
    return Encoder(
        numeric_stats=numeric_stats,
        constant_numeric=frozenset(constant),
        category_maps=category_maps,
        feature_names=tuple(feature_names),
        feature_columns=tuple(feature_columns),
        label_column=metadata.label_column,
        positive_label=metadata.positive_label,
        protected_attributes=tuple(metadata.protected_attributes),
    )


def encode(encoder: Encoder, data: Dataset):
    """(X, y, groups): standardized/one-hot features, binary labels, and per
    protected attribute its ``CategoricalColumn`` (group codes of the rows).

    Categories unseen at fit time encode as an all-zero block and are logged.
    Every encoded column must be present with the kind it had at fit time.
    """
    for name in encoder.feature_columns + (encoder.label_column, *encoder.protected_attributes):
        if name not in data.schema:
            raise SchemaMismatch(f"column {name!r} missing from dataset")
        want = ColumnKind.NUMERIC if name in encoder.numeric_stats else ColumnKind.CATEGORICAL
        if data.schema.kind_of(name) is not want:
            raise SchemaMismatch(f"column {name!r} is not {want.value} as at fit time")
    n = data.row_count
    # Feature-major: a numeric feature is one contiguous row, and a one-hot
    # one lands at flat index slot * n + row. X is the transpose view.
    XT = np.zeros((len(encoder.feature_names), n))
    flat = XT.reshape(-1)
    rows = np.arange(n)
    k = 0  # first feature of the column
    for name in encoder.feature_columns:
        if name in encoder.numeric_stats:
            if name not in encoder.constant_numeric:  # a constant stays all zero
                mean, std = encoder.numeric_stats[name]
                # Standardised at the power of two of the stats: exact while
                # the scaled values stay normal, and values of both signs near
                # the float64 maximum do not overflow their difference.
                _, e = math.frexp(max(abs(mean), std))
                values = np.ldexp(data.column(name).values, -e, out=XT[k])
                values -= math.ldexp(mean, -e)
                values /= math.ldexp(std, -e)
            k += 1
        else:
            col = data.column(name)
            vocab = encoder.category_maps[name]
            index = {c: i for i, c in enumerate(vocab)}
            # Vocabulary slot of each code; -1 (unseen) leaves the row all zero.
            slots = np.array([index.get(c, -1) for c in col.categories], dtype=np.int64)
            slot = np.take(slots, col.codes)
            seen = slot >= 0
            slot += k
            slot *= n
            slot += rows
            flat[slot[seen]] = 1.0
            # Rows are counted only to name the unseen categories they use.
            if slots.min(initial=0) < 0:
                present = np.bincount(col.codes, minlength=len(slots)) > 0
                unseen = [col.categories[c] for c in np.flatnonzero(present & (slots < 0)).tolist()]
                if unseen:
                    logger.warning(
                        "column %r: %d categories unseen at fit time, first %r; encoded as zeros",
                        name, len(unseen), min(unseen),
                    )
            k += len(vocab)
    label = data.column(encoder.label_column)
    positive = np.array([c == encoder.positive_label for c in label.categories], dtype=np.int64)
    y = np.take(positive, label.codes)
    groups = {attr: data.column(attr) for attr in encoder.protected_attributes}
    return XT.T, y, groups


def logistic_loss(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, l2: float) -> float:
    """Mean logistic loss plus (l2/2)*||w||^2; the bias is unpenalized."""
    return _loss(X @ w + b, w, y, l2)


def logistic_gradient(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, l2: float):
    """Analytic gradient of logistic_loss with respect to (w, b)."""
    return _gradient(expit(X @ w + b), w, X, y, l2)


def _loss(z: np.ndarray, w: np.ndarray, y: np.ndarray, l2: float) -> float:
    """``logistic_loss`` at the logits ``z = X @ w + b``."""
    # softplus(z) = log(1 + e^z) on numpy's vector exp and log1p loops.
    per_row = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    per_row -= y * z
    return float(per_row.mean() + 0.5 * l2 * float(w @ w))


def _gradient(p: np.ndarray, w: np.ndarray, X: np.ndarray, y: np.ndarray, l2: float):
    """``logistic_gradient`` at the probabilities ``p = expit(X @ w + b)``."""
    resid = p - y
    grad_w = X.T @ resid / len(y) + l2 * w
    grad_b = float(resid.mean())
    return grad_w, grad_b


def train_logreg(
    X: np.ndarray, y: np.ndarray, hyperparams: TstrHyperparams = TstrHyperparams()
) -> LogisticModel:
    """Damped Newton (IRLS) from w = 0, b = 0 to the unique optimum of the
    strictly convex ``logistic_loss``; a step is halved until the Armijo
    condition holds. Stops when the gradient infinity-norm drops below
    tolerance. If only one class is present the constant-prediction model is
    returned with the ``constant`` flag set.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] != y.shape[0]:
        raise LengthMismatch("X and y row counts differ")
    if np.all(y == 1.0) or np.all(y == 0.0):
        bias = 25.0 if y.size and y[0] == 1.0 else -25.0
        return LogisticModel(
            weights=np.zeros(X.shape[1]),
            bias=bias,
            hyperparams=hyperparams,
            loss_history=(),
            constant=True,
        )
    n, d = X.shape
    # Read feature-major: a view of encode's X, one copy of any other.
    XT = np.ascontiguousarray(X.T)
    X = XT.T
    m = max(1, _GRAM_BLOCK_CELLS // max(d, 1))  # columns of one Gram block
    buf = np.empty((d, m))
    l2 = hyperparams.l2_strength
    w, b = np.zeros(d), 0.0
    z = np.zeros(n)  # the logits X @ w + b; each step reuses the accepted point's
    losses = [logistic_loss(w, b, X, y, l2)]
    for step in range(MAX_NEWTON_STEPS):
        if not np.isfinite(losses[-1]):
            raise NonFiniteLoss(f"loss became non-finite at Newton step {step}")
        p = expit(z)
        grad = np.append(*_gradient(p, w, X, y, l2))
        if np.max(np.abs(grad)) < hyperparams.tolerance:
            break
        s = p * ((1.0 - p) / n)
        root = np.sqrt(s)
        # Hessian in blocks, without an augmented [X | 1] copy of X; the Gram
        # matrix X' diag(s) X is summed over column blocks of XT scaled by
        # sqrt(s) into buf, so no n x d scaled copy of X is ever alive. A block
        # times its own transpose is a symmetric product, which is BLAS syrk.
        gram = l2 * np.eye(d)
        for start in range(0, n, m):
            block = buf[:, : min(m, n - start)]
            np.multiply(XT[:, start : start + m], root[start : start + m], out=block)
            gram += block @ block.T
        col = (XT @ s)[:, None]
        hessian = np.block([[gram, col], [col.T, s.sum()]])
        direction = np.linalg.solve(hessian, grad)
        for t in 0.5 ** np.arange(MAX_STEP_HALVINGS):
            w_t, b_t = w - t * direction[:d], b - t * direction[d]
            z_t = X @ w_t + b_t
            loss = _loss(z_t, w_t, y, l2)
            if loss <= losses[-1] - 1e-4 * t * float(grad @ direction):  # Armijo
                break
        else:
            break  # no representable decrease left: optimal to rounding
        w, b, z = w_t, float(b_t), z_t
        losses.append(loss)
    if not np.isfinite(losses[-1]) or not np.all(np.isfinite(w)):
        raise NonFiniteLoss("training produced non-finite parameters")
    return LogisticModel(
        weights=w,
        bias=b,
        hyperparams=hyperparams,
        loss_history=tuple(losses),
        constant=False,
    )


def predict(model: LogisticModel, X: np.ndarray) -> np.ndarray:
    """1 where sigmoid(w.x + b) >= threshold; probability exactly at the
    threshold predicts positive."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.weights.shape[0]:
        raise DimensionMismatch(
            f"expected {model.weights.shape[0]} features, got {X.shape[1] if X.ndim == 2 else X.ndim}"
        )
    p = expit(X @ model.weights + model.bias)
    return (p >= model.hyperparams.threshold).astype(np.int64)


def group_fpr(y_true, y_pred, groups, min_support: int = 5) -> dict[str, GroupRate]:
    """Per group: negatives, false positives, and fpr = fp/negatives; fpr is
    None (UNDEFINED) when negatives < min_support. Counts are integers and the
    rate a single exact division, so a brute-force recount matches bitwise.
    ``groups`` holds one label per row (category codes, say); keys are those labels."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if not isinstance(groups, np.ndarray):
        groups = np.array(list(groups), dtype=object)
    if not (len(y_true) == len(y_pred) == len(groups)):
        raise LengthMismatch("y_true, y_pred and groups must have equal lengths")
    negative = y_true == 0
    false_positive = negative & (y_pred == 1)
    # Integer codes (a CategoricalColumn's, say) are counted by themselves:
    # the keys are the codes that occur, in np.unique's ascending order. Codes
    # too sparse for a bincount no longer than the groups go through np.unique.
    codes = groups.dtype.kind in "iu" and np.can_cast(groups.dtype, np.intp) and groups.size > 0
    size = int(groups.max()) + 1 if codes and groups.min() >= 0 else 0
    if 0 < size <= groups.size:
        present = np.bincount(groups, minlength=size) > 0
        keys, inverse = np.flatnonzero(present), groups
    else:
        keys, inverse = np.unique(groups, return_inverse=True)
        size, present = len(keys), slice(None)
    negatives = np.bincount(inverse[negative], minlength=size)[present].tolist()
    false_pos = np.bincount(inverse[false_positive], minlength=size)[present].tolist()
    out: dict[str, GroupRate] = {}
    for g, neg, fp in zip(keys.tolist(), negatives, false_pos):
        rate = fp / neg if neg >= min_support else None
        out[g] = GroupRate(fpr=rate, negatives=neg, false_positives=fp)
    return out


def max_relative_fpr(fpr_by_attribute: dict[str, dict[str, float | None]]):
    """(overall, per_attribute) max/min FPR ratios over defined groups.

    Per attribute: min = 0 < max gives float('inf'); max = min = 0 gives 1.0
    (no disparity); fewer than 2 defined groups gives None and the attribute
    is excluded from the overall maximum.
    """
    per_attribute: dict[str, float | None] = {}
    for attr, rates in fpr_by_attribute.items():
        defined = [v for v in rates.values() if v is not None]
        if len(defined) < 2:
            per_attribute[attr] = UNDEFINED
            continue
        hi, lo = max(defined), min(defined)
        if hi == 0.0:
            per_attribute[attr] = 1.0
        elif lo == 0.0:
            per_attribute[attr] = INFINITE
        else:
            per_attribute[attr] = hi / lo
    defined_overall = [v for v in per_attribute.values() if v is not None]
    overall = max(defined_overall) if defined_overall else UNDEFINED
    return overall, per_attribute


def fairness_report(
    synth: Dataset,
    real_holdout: Dataset,
    metadata: Metadata,
    hyperparams: TstrHyperparams = TstrHyperparams(),
) -> FairnessReport:
    """End-to-end TSTR fairness evaluation; pure in all of its inputs."""
    if synth.row_count == 0 or real_holdout.row_count == 0:
        raise EmptyDataset("TSTR needs nonempty synthetic and holdout datasets")
    encoder = fit_encoder(synth, metadata)
    X_train, y_train, _ = encode(encoder, synth)
    model = train_logreg(X_train, y_train, hyperparams)
    del X_train, y_train  # free before the holdout's matrix is built
    X_test, y_test, test_groups = encode(encoder, real_holdout)
    y_pred = predict(model, X_test)
    degenerate = bool(np.all(y_pred == y_pred[0]))

    excluded: list[tuple[str, str, str]] = []
    fpr_maps: dict[str, dict[str, float | None]] = {}
    counts: dict[str, dict[str, tuple[int, int]]] = {}
    for attr in metadata.protected_attributes:
        col = test_groups[attr]
        by_code = group_fpr(y_test, y_pred, col.codes, hyperparams.min_support)
        rates = sorted((col.categories[k], r) for k, r in by_code.items())
        fpr_maps[attr] = {g: r.fpr for g, r in rates}
        counts[attr] = {g: (r.negatives, r.false_positives) for g, r in rates}
        for g, r in rates:
            if r.fpr is None:
                excluded.append(
                    (attr, g, f"negatives={r.negatives} below min_support={hyperparams.min_support}")
                )
    overall, per_attribute = max_relative_fpr(fpr_maps)
    by_attribute = {
        attr: AttributeFairness(fpr=fpr, counts=counts[attr], max_rel_fpr=per_attribute[attr])
        for attr, fpr in fpr_maps.items()
    }
    return FairnessReport(
        by_attribute=by_attribute,
        max_rel_fpr=overall,
        degenerate=degenerate,
        excluded_groups=tuple(excluded),
        threshold=hyperparams.threshold,
    )

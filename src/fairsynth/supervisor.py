"""Deterministic generator/evaluator orchestration.

The supervisor splits the real data once into a train slice and a holdout.
One pipeline run is: optionally rebalance the train slice, fit and sample a
synthesizer, score the synthetic rows against the holdout (fidelity + TSTR
fairness), and fold both into the composite score. The supervisor loops
pipeline runs through a fixed refinement policy until the targets are met or
the refinement budget is spent, then returns the best iteration by composite
score (ties go to the earliest).

Separation contract: the synthetic bytes of iteration k depend only on the
real data and that iteration's RunConfig; evaluator output reaches the
generator only through an explicit refinement action.
"""

from __future__ import annotations

import json
import math
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .copula import NATIVE_BACKENDS, SynthesizerConfig, fit, sample
from .errors import (
    AllIterationsFailed,
    FairsynthError,
    ValidationFailure,
)
from .external import ExternalBackend, launch_external_backend
from .quality import QualityReport, quality_report
from .schema import (
    ColumnKind,
    Dataset,
    Metadata,
    SplitSpec,
    split_holdout,
    write_csv,
)
from .scoring import DEFAULT_PARITY_THRESHOLD, CompositeScore, synth_score
from .tstr import FairnessReport, fairness_report


@dataclass(frozen=True)
class RunConfig:
    backend: str = "gaussian_copula"
    train_rows: int = 1000
    sample_rows: int = 500
    epochs: int = 20
    seed: int = 0
    correlation_shrinkage: float = 0.0
    balance_groups: bool = False
    balance_attribute: str | None = None

    def __post_init__(self):
        if self.sample_rows <= 0 or self.epochs <= 0:
            raise ValidationFailure("sample_rows and epochs must be positive")
        if self.train_rows < 2:
            raise ValidationFailure(
                f"train_rows must be at least 2, got {self.train_rows}: "
                "a numeric marginal needs 2 values to fit"
            )
        if not (0.0 <= self.correlation_shrinkage <= 1.0):
            raise ValidationFailure("correlation_shrinkage must lie in [0, 1]")
        if self.seed < 0:
            raise ValidationFailure("seed must be non-negative")


@dataclass(frozen=True)
class Targets:
    min_synth_score: float = 0.7
    parity_threshold: float = DEFAULT_PARITY_THRESHOLD
    max_refinements: int = 3

    def __post_init__(self):
        if not (0.0 < self.min_synth_score <= 1.0):
            raise ValidationFailure("min_synth_score must lie in (0, 1]")
        if self.max_refinements < 0:
            raise ValidationFailure("max_refinements must be >= 0")
        if not (self.parity_threshold >= 1.0):
            raise ValidationFailure("parity_threshold must be >= 1")


# Refinement actions. An action is its name, which run_summary.json records
# as action_taken; apply_action maps it to the next RunConfig.

RESAMPLE = "resample"
INCREASE_EPOCHS = "increase_epochs"
BALANCE_GROUPS = "balance_groups"
SHRINK_CORRELATION = "shrink_correlation"

SHRINK_INCREMENT = 0.25
EPOCH_FACTOR = 2

# Stop reasons.
TARGET_MET = "target_met"
BUDGET = "budget"


def apply_action(config: RunConfig, action: str, attribute: str | None = None) -> RunConfig:
    """The RunConfig after ``action``. ``attribute`` is the protected
    attribute that BALANCE_GROUPS balances (None: the first one)."""
    if action == RESAMPLE:
        return replace(config, seed=config.seed + 1)
    if action == INCREASE_EPOCHS:
        return replace(config, epochs=config.epochs * EPOCH_FACTOR)
    if action == BALANCE_GROUPS:
        return replace(config, balance_groups=True, balance_attribute=attribute)
    if action == SHRINK_CORRELATION:
        shrinkage = min(1.0, config.correlation_shrinkage + SHRINK_INCREMENT)
        return replace(config, correlation_shrinkage=shrinkage)
    raise ValidationFailure(f"unknown refinement action {action!r}")


@dataclass(frozen=True)
class PipelineResult:
    """The record of one evaluation: the synthetic rows and their scores."""

    synthetic: Dataset
    quality: QualityReport
    fairness: FairnessReport
    composite: CompositeScore


@dataclass
class HistoryEntry:
    config: RunConfig
    result: PipelineResult | None = None  # None: the iteration failed
    action_taken: str | None = None
    error: str | None = None


def balance_groups(
    train: Dataset, metadata: Metadata, seed: int, attribute: str | None = None
) -> Dataset:
    """Oversample (group x label) cells with replacement until every cell of
    the chosen categorical attribute matches the largest cell count.

    Defaults to the first protected attribute; deterministic for a fixed seed
    (cells are processed in (group, label) text order). Already-balanced input
    comes back unchanged.
    """
    if attribute is None:
        attrs = metadata.protected_attributes
        attribute = attrs[0] if attrs else None
    if attribute is None or attribute not in train.schema:
        return train
    if train.schema.kind_of(attribute) is not ColumnKind.CATEGORICAL:
        raise ValidationFailure(f"balance attribute {attribute!r} is not categorical")
    group = train.column(attribute)
    label = train.column(metadata.label_column)
    # Cell k holds the rows with group code k // width and label code k % width.
    width = len(label.categories)
    cells = group.codes.astype(np.int64) * width + label.codes
    texts = [(g, y) for g in group.categories for y in label.categories]
    sizes = np.bincount(cells, minlength=len(texts))
    target = sizes.max()
    order = sorted(np.flatnonzero(sizes).tolist(), key=texts.__getitem__)
    rng = np.random.default_rng(seed)
    extra = [
        rng.choice(np.flatnonzero(cells == k), size=target - sizes[k], replace=True)
        for k in order
        if sizes[k] < target
    ]
    if not extra:
        return train
    return train.take(np.concatenate([np.arange(train.row_count), *extra]))


def check_backend(name: str, external_backends: dict[str, ExternalBackend] | None) -> None:
    """Raise ValidationFailure unless ``name`` is native or configured."""
    backends = external_backends or {}
    if name not in NATIVE_BACKENDS and name not in backends:
        raise ValidationFailure(
            f"unknown backend {name!r}; native backends are "
            f"{', '.join(NATIVE_BACKENDS)} and configured external backends are "
            f"{', '.join(sorted(backends)) or '(none)'}"
        )


def split_for(config: RunConfig, real: Dataset, split: SplitSpec) -> tuple[Dataset, Dataset]:
    """The (train, holdout) split of ``real`` for ``config``: config.train_rows
    wins, and the split spec contributes fraction and seed."""
    return split_holdout(real, replace(split, train_rows=config.train_rows))


def launch_synthesis(
    config: RunConfig,
    train: Dataset,
    metadata: Metadata,
    external_backends: dict[str, ExternalBackend] | None,
    stack: ExitStack,
) -> Callable[[], Dataset]:
    """The synthesis step on the train slice. Returns a ``synthesize()`` that
    fits and samples a native backend, or collects an external one, whose
    process is launched now in a temporary directory; closing ``stack`` kills
    the process if it still runs and removes the directory."""
    if config.balance_groups:
        train = balance_groups(train, metadata, seed=config.seed, attribute=config.balance_attribute)
    if config.backend in NATIVE_BACKENDS:
        synth_cfg = SynthesizerConfig(
            backend=config.backend,
            seed=config.seed,
            correlation_shrinkage=config.correlation_shrinkage,
        )
        # fit and sample are this module's names, looked up at the call.
        return lambda: sample(fit(train, synth_cfg), config.sample_rows, config.seed)
    check_backend(config.backend, external_backends)
    tmp = Path(stack.enter_context(tempfile.TemporaryDirectory()))
    write_csv(train, tmp / "train.csv")
    (tmp / "metadata.json").write_text(
        json.dumps(metadata.to_json_dict(), indent=2) + "\n", encoding="utf-8"
    )
    run = launch_external_backend(
        external_backends[config.backend],
        tmp / "train.csv",
        tmp / "metadata.json",
        config.sample_rows,
        config.epochs,
        config.seed,
        tmp / "synthetic.csv",
    )
    stack.callback(run.close)
    schema = train.schema  # the closure keeps the schema, not the train rows
    return lambda: run.collect(metadata, schema)


def evaluate_synthetic(
    synthetic: Dataset,
    holdout: Dataset,
    metadata: Metadata,
    parity_threshold: float = DEFAULT_PARITY_THRESHOLD,
) -> PipelineResult:
    """The evaluation step: fidelity and TSTR fairness against the holdout,
    folded into the composite score."""
    quality = quality_report(holdout, synthetic, holdout.schema)
    fairness = fairness_report(synthetic, holdout, metadata)
    composite = synth_score(
        quality.overall_score,
        fairness.max_rel_fpr,
        parity_threshold,
        degenerate=fairness.degenerate,
    )
    return PipelineResult(synthetic, quality, fairness, composite)


def run_pipeline(
    config: RunConfig,
    train: Dataset,
    holdout: Dataset,
    metadata: Metadata,
    parity_threshold: float = DEFAULT_PARITY_THRESHOLD,
    external_backends: dict[str, ExternalBackend] | None = None,
) -> PipelineResult:
    """One generator + evaluator pass over a split; same inputs give an
    identical result."""
    with ExitStack() as stack:
        synthesize = launch_synthesis(config, train, metadata, external_backends, stack)
        synthetic = synthesize()
    return evaluate_synthetic(synthetic, holdout, metadata, parity_threshold)


def plan_refinement(
    history: list[HistoryEntry],
    score: CompositeScore | None,
    targets: Targets,
    config: RunConfig,
    *,
    has_protected: bool = True,
) -> str:
    """Next move after the last entry of ``history``, whose composite score
    is ``score`` (None: the iteration failed): TARGET_MET, BUDGET or the name
    of the next refinement action.

    Stop on target (score and parity both met) or on exhausted budget. A
    failed iteration resamples. A parity failure walks the fixed action order
    balance-groups, then correlation shrinkage, then resample; balance-groups
    is skipped when the metadata names no protected attribute
    (``has_protected`` false), since it would rerun the same synthesis. A
    pure quality shortfall doubles epochs for external backends (epochs are
    a no-op for closed-form native fits) and otherwise resamples.
    """
    if score is not None and score.synth_score >= targets.min_synth_score and score.parity_ok:
        return TARGET_MET
    if len(history) > targets.max_refinements:
        return BUDGET
    if score is None:
        return RESAMPLE
    if not score.parity_ok:
        tried = {e.action_taken for e in history}
        if has_protected and BALANCE_GROUPS not in tried:
            return BALANCE_GROUPS
        if SHRINK_CORRELATION not in tried:
            return SHRINK_CORRELATION
        return RESAMPLE  # also after a resample: keep reseeding
    if config.backend not in NATIVE_BACKENDS:
        return INCREASE_EPOCHS
    return RESAMPLE


def _most_disparate_attribute(fairness: FairnessReport, metadata: Metadata) -> str | None:
    """Protected attribute with the largest defined FPR ratio (infinite ratios
    first); metadata order breaks ties and is the fallback."""
    best_attr: str | None = None
    best_rank = -math.inf
    for attr in metadata.protected_attributes:
        entry = fairness.by_attribute.get(attr)
        ratio = entry.max_rel_fpr if entry is not None else None
        rank = -1.0 if ratio is None else ratio
        if rank > best_rank:
            best_attr, best_rank = attr, rank
    return best_attr


@dataclass(frozen=True)
class SupervisorResult:
    stop_reason: str  # TARGET_MET or BUDGET
    best_iteration: int
    history: tuple[HistoryEntry, ...]

    # Read-only views of the best iteration's entry.
    best_config = property(lambda self: self.history[self.best_iteration].config)
    best_synthetic = property(lambda self: self.history[self.best_iteration].result.synthetic)
    best_quality = property(lambda self: self.history[self.best_iteration].result.quality)
    best_fairness = property(lambda self: self.history[self.best_iteration].result.fairness)
    best_composite = property(lambda self: self.history[self.best_iteration].result.composite)


def supervise(
    initial: RunConfig,
    real: Dataset,
    metadata: Metadata,
    split: SplitSpec,
    targets: Targets = Targets(),
    external_backends: dict[str, ExternalBackend] | None = None,
    pipeline=run_pipeline,
) -> SupervisorResult:
    """Bounded refinement loop: at most max_refinements + 1 pipeline runs.

    ``real`` is split once, for ``initial``; no refinement action changes
    train_rows, so every iteration sees the same train slice and holdout. A
    failed iteration is recorded in history with its error and refined by
    resampling; if every iteration fails, AllIterationsFailed carries the full
    history. ``pipeline`` is injectable for testing the routing policy in
    isolation.
    """
    train, holdout = split_for(initial, real, split)
    history: list[HistoryEntry] = []
    config = initial
    while True:
        entry = HistoryEntry(config=config)
        history.append(entry)
        try:
            entry.result = pipeline(
                config,
                train,
                holdout,
                metadata,
                parity_threshold=targets.parity_threshold,
                external_backends=external_backends,
            )
        except FairsynthError as exc:
            entry.error = str(exc)
        score = entry.result.composite if entry.result is not None else None
        plan = plan_refinement(
            history, score, targets, config,
            has_protected=bool(metadata.protected_attributes),
        )
        if plan in (TARGET_MET, BUDGET):
            break
        attribute = None
        if plan == BALANCE_GROUPS:
            attribute = _most_disparate_attribute(entry.result.fairness, metadata)
        entry.action_taken = plan
        config = apply_action(config, plan, attribute)

    scored = [i for i, e in enumerate(history) if e.result is not None]
    if not scored:
        raise AllIterationsFailed("every pipeline iteration failed", history=history)
    # The highest composite score; max keeps the earliest of tied iterations.
    best = max(scored, key=lambda i: history[i].result.composite.synth_score)
    return SupervisorResult(stop_reason=plan, best_iteration=best, history=tuple(history))

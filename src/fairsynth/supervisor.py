"""Deterministic generator/evaluator orchestration.

One pipeline run is: split real data, optionally rebalance the train slice,
fit and sample a synthesizer, score the synthetic rows against the holdout
(fidelity + TSTR fairness), and fold both into the composite score. The
supervisor loops pipeline runs through a fixed refinement policy until the
targets are met or the refinement budget is spent, then returns the best
iteration by composite score (ties go to the earliest).

Separation contract: the synthetic bytes of iteration k depend only on the
real data and that iteration's RunConfig; evaluator output reaches the
generator only through an explicit refinement action.
"""

from __future__ import annotations

import json
import math
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .copula import NATIVE_BACKENDS, SynthesizerConfig, fit, sample
from .errors import (
    AllIterationsFailed,
    FairsynthError,
    InsufficientRows,
    ValidationFailure,
)
from .external import ExternalBackend, run_external_backend
from .quality import QualityReport, quality_report
from .schema import Dataset, Metadata, SplitSpec, holdout_size, split_holdout, write_csv
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
        if self.train_rows <= 0 or self.sample_rows <= 0 or self.epochs <= 0:
            raise ValidationFailure("train_rows, sample_rows and epochs must be positive")
        if not (0.0 <= self.correlation_shrinkage <= 1.0):
            raise ValidationFailure("correlation_shrinkage must lie in [0, 1]")


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


# Refinement actions; each maps a RunConfig to the next one.

RESAMPLE = "resample"
INCREASE_EPOCHS = "increase_epochs"
BALANCE_GROUPS = "balance_groups"
SHRINK_CORRELATION = "shrink_correlation"

SHRINK_INCREMENT = 0.25
EPOCH_FACTOR = 2

TARGET_MET = "target_met"
BUDGET = "budget"


@dataclass(frozen=True)
class Resample:
    new_seed: int
    kind: str = RESAMPLE


@dataclass(frozen=True)
class IncreaseEpochs:
    factor: int = EPOCH_FACTOR
    kind: str = INCREASE_EPOCHS


@dataclass(frozen=True)
class BalanceGroups:
    attribute: str | None = None
    kind: str = BALANCE_GROUPS


@dataclass(frozen=True)
class ShrinkCorrelation:
    increment: float = SHRINK_INCREMENT
    kind: str = SHRINK_CORRELATION


RefinementAction = Resample | IncreaseEpochs | BalanceGroups | ShrinkCorrelation


@dataclass(frozen=True)
class Stop:
    reason: str  # TARGET_MET or BUDGET


def apply_action(config: RunConfig, action: RefinementAction) -> RunConfig:
    if isinstance(action, Resample):
        return replace(config, seed=action.new_seed)
    if isinstance(action, IncreaseEpochs):
        return replace(config, epochs=config.epochs * action.factor)
    if isinstance(action, BalanceGroups):
        return replace(config, balance_groups=True, balance_attribute=action.attribute)
    if isinstance(action, ShrinkCorrelation):
        shrinkage = min(1.0, config.correlation_shrinkage + action.increment)
        return replace(config, correlation_shrinkage=shrinkage)
    raise ValidationFailure(f"unknown refinement action {action!r}")


@dataclass
class HistoryEntry:
    config: RunConfig
    composite: CompositeScore | None = None
    quality: QualityReport | None = None
    fairness: FairnessReport | None = None
    synthetic: Dataset | None = None
    action_taken: str | None = None
    error: str | None = None


@dataclass
class SupervisorState:
    history: list[HistoryEntry] = field(default_factory=list)

    @property
    def iteration(self) -> int:
        return len(self.history) - 1

    @property
    def best(self) -> int:
        """Index of the highest composite score so far; ties go earliest."""
        best_i, best_score = -1, -math.inf
        for i, entry in enumerate(self.history):
            if entry.composite is not None and entry.composite.synth_score > best_score:
                best_i, best_score = i, entry.composite.synth_score
        return best_i

    def tried_actions(self) -> set[str]:
        return {e.action_taken for e in self.history if e.action_taken is not None}


@dataclass(frozen=True)
class PipelineResult:
    synthetic: Dataset
    quality: QualityReport
    fairness: FairnessReport
    composite: CompositeScore


def balance_groups(
    train: Dataset, metadata: Metadata, seed: int, attribute: str | None = None
) -> Dataset:
    """Oversample (group x label) cells with replacement until every cell of
    the chosen protected attribute matches the largest cell count.

    Defaults to the first protected attribute; deterministic for a fixed seed
    (cells are processed in sorted order). Already-balanced input comes back
    unchanged.
    """
    if attribute is None:
        attrs = metadata.protected_attributes
        attribute = attrs[0] if attrs else None
    if attribute is None or attribute not in train.schema:
        return train
    groups = train.decoded(attribute).tolist()
    labels = train.decoded(metadata.label_column).tolist()
    cells: dict[tuple[str, str], list[int]] = {}
    for i, key in enumerate(zip(groups, labels)):
        cells.setdefault(key, []).append(i)
    target = max(len(idx) for idx in cells.values())
    rng = np.random.default_rng(seed)
    extra: list[int] = []
    for key in sorted(cells):
        idx = cells[key]
        deficit = target - len(idx)
        if deficit > 0:
            extra.extend(rng.choice(np.array(idx), size=deficit, replace=True).tolist())
    if not extra:
        return train
    indices = np.concatenate([np.arange(train.row_count), np.array(extra, dtype=np.int64)])
    return train.take(indices)


def run_pipeline(
    config: RunConfig,
    real: Dataset,
    metadata: Metadata,
    split: SplitSpec,
    parity_threshold: float = DEFAULT_PARITY_THRESHOLD,
    external_backends: dict[str, ExternalBackend] | None = None,
) -> PipelineResult:
    """One generator + evaluator pass; same inputs give an identical result."""
    # config.train_rows wins; the split spec contributes fraction and seed so
    # the holdout stays fixed across refinement iterations.
    train, holdout = split_holdout(real, replace(split, train_rows=config.train_rows))
    if config.balance_groups:
        train = balance_groups(train, metadata, seed=config.seed, attribute=config.balance_attribute)

    if config.backend in NATIVE_BACKENDS:
        synth_cfg = SynthesizerConfig(
            backend=config.backend,
            seed=config.seed,
            correlation_shrinkage=config.correlation_shrinkage,
        )
        model = fit(train, synth_cfg)
        synthetic = sample(model, config.sample_rows, config.seed)
    else:
        backends = external_backends or {}
        if config.backend not in backends:
            raise ValidationFailure(
                f"unknown backend {config.backend!r}; native backends are "
                f"{', '.join(NATIVE_BACKENDS)} and configured external backends are "
                f"{', '.join(sorted(backends)) or '(none)'}"
            )
        with tempfile.TemporaryDirectory() as tmp:
            train_csv = Path(tmp) / "train.csv"
            metadata_json = Path(tmp) / "metadata.json"
            out_csv = Path(tmp) / "synthetic.csv"
            write_csv(train, train_csv)
            metadata_json.write_text(
                json.dumps(metadata.to_json_dict(), indent=2) + "\n", encoding="utf-8"
            )
            synthetic = run_external_backend(
                backends[config.backend],
                train_csv,
                metadata_json,
                config.sample_rows,
                config.epochs,
                config.seed,
                out_csv,
                train.schema,
            )

    quality = quality_report(holdout, synthetic, holdout.schema)
    fairness = fairness_report(synthetic, holdout, metadata)
    composite = synth_score(
        quality.overall_score,
        fairness.max_rel_fpr,
        parity_threshold,
        degenerate=fairness.degenerate,
    )
    return PipelineResult(synthetic, quality, fairness, composite)


def plan_refinement(
    state: SupervisorState, score: CompositeScore, targets: Targets, config: RunConfig
) -> RefinementAction | Stop:
    """Next move after an evaluation.

    Stop on target (score and parity both met) or on exhausted budget. A
    parity failure walks the fixed action order balance-groups, then
    correlation shrinkage, then resample; a pure quality shortfall doubles
    epochs for external backends (epochs are a no-op for closed-form native
    fits) and otherwise resamples.
    """
    if score.synth_score >= targets.min_synth_score and score.parity_ok:
        return Stop(TARGET_MET)
    if state.iteration >= targets.max_refinements:
        return Stop(BUDGET)
    if not score.parity_ok:
        tried = state.tried_actions()
        if BALANCE_GROUPS not in tried:
            return BalanceGroups()
        if SHRINK_CORRELATION not in tried:
            return ShrinkCorrelation()
        return Resample(config.seed + 1)  # also after a resample: keep reseeding
    if config.backend not in NATIVE_BACKENDS:
        return IncreaseEpochs()
    return Resample(config.seed + 1)


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
    best_config: RunConfig
    best_synthetic: Dataset
    best_quality: QualityReport
    best_fairness: FairnessReport
    best_composite: CompositeScore
    history: tuple[HistoryEntry, ...]


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

    A failed iteration is recorded in history with its error and refined by
    resampling; if every iteration fails, AllIterationsFailed carries the full
    history. ``pipeline`` is injectable for testing the routing policy in
    isolation.
    """
    n = real.row_count
    available = n - holdout_size(n, split.holdout_fraction)
    if initial.train_rows > available:
        raise InsufficientRows(
            f"train_rows={initial.train_rows} exceeds {available} rows available "
            f"after the holdout split"
        )

    state = SupervisorState()
    config = initial
    stop_reason = BUDGET
    for iteration in range(targets.max_refinements + 1):
        entry = HistoryEntry(config=config)
        try:
            result = pipeline(
                config,
                real,
                metadata,
                split,
                parity_threshold=targets.parity_threshold,
                external_backends=external_backends,
            )
        except FairsynthError as exc:
            entry.error = str(exc)
            state.history.append(entry)
            if state.iteration >= targets.max_refinements:
                stop_reason = BUDGET
                break
            action = Resample(config.seed + 1)
            entry.action_taken = action.kind
            config = apply_action(config, action)
            continue
        entry.composite = result.composite
        entry.quality = result.quality
        entry.fairness = result.fairness
        entry.synthetic = result.synthetic
        state.history.append(entry)

        plan = plan_refinement(state, result.composite, targets, config)
        if isinstance(plan, Stop):
            stop_reason = plan.reason
            break
        if isinstance(plan, BalanceGroups) and plan.attribute is None:
            plan = BalanceGroups(attribute=_most_disparate_attribute(result.fairness, metadata))
        entry.action_taken = plan.kind
        config = apply_action(config, plan)

    best = state.best
    if best < 0:
        raise AllIterationsFailed(
            "every pipeline iteration failed", history=list(state.history)
        )
    chosen = state.history[best]
    return SupervisorResult(
        stop_reason=stop_reason,
        best_iteration=best,
        best_config=chosen.config,
        best_synthetic=chosen.synthetic,
        best_quality=chosen.quality,
        best_fairness=chosen.fairness,
        best_composite=chosen.composite,
        history=tuple(state.history),
    )

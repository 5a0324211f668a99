"""Deterministic generator/evaluator orchestration.

The supervisor splits the real data once into a train slice and a holdout.
One pipeline run is: optionally rebalance the train slice, fit and sample a
synthesizer, score the synthetic rows against the holdout (fidelity + TSTR
fairness), and fold both into the composite score. The supervisor loops
pipeline runs through a fixed refinement policy until the targets are met or
the refinement budget is spent, then returns the best iteration by composite
score among evaluations with evidence (ties go to the earliest).

Separation contract: the synthetic bytes of iteration k depend only on the
real data and that iteration's RunConfig; evaluator output reaches the
generator only through an explicit refinement action.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .copula import (
    NATIVE_BACKENDS,
    CopulaModel,
    fit,
    sample,
    shrink_correlation,
    slice_ranks,
)
from .errors import (
    AllIterationsFailed,
    FairsynthError,
    ValidationFailure,
)
from .external import ExternalBackend, launch_external_backend, run_external_backend
from .quality import QualityReport, RealSide, quality_report, real_side
from .schema import (
    ColumnKind,
    Dataset,
    Metadata,
    SplitSpec,
    split_holdout,
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
class Split:
    """One draw of the real data and what every run on it shares: the
    ``train`` slice, the ``holdout`` and its ``side``, the holdout's
    ``real_side``, built with the record, which also keeps the holdout's
    co-occurrence counts from one quality report to the next. The other two
    pieces are built only while ``keep_fit`` is set, that is while another
    run on the split can follow; each gives the floats of the run without it.

    - ``fit``: a gaussian_copula run's unshrunk model, keyed by its config
      with correlation_shrinkage 0. The next run with that key shrinks the
      kept model instead of balancing and fitting again.
    - ``ranks``: the train slice's ``slice_ranks``, its sort order as each
      row's run of equal values per numeric column. A gaussian_copula fit on
      the slice, or on a ``balance_groups`` resample of it, ranks its numeric
      columns by them instead of sorting.
    """

    train: Dataset
    holdout: Dataset
    side: RealSide = field(init=False)
    keep_fit: bool = False
    fit: tuple[RunConfig, CopulaModel] | None = None
    ranks: tuple[np.ndarray | None, ...] | None = None

    def __post_init__(self):
        self.side = real_side(self.holdout)


@dataclass
class HistoryEntry:
    config: RunConfig
    result: PipelineResult | None = None  # None: the iteration failed
    action_taken: str | None = None
    error: str | None = None


def balance_groups(
    train: Dataset, metadata: Metadata, seed: int, attribute: str | None = None
) -> tuple[Dataset, np.ndarray | None]:
    """Oversample (group x label) cells of the chosen categorical attribute
    with replacement until every cell that holds a row matches the largest
    cell count; a cell with no rows stays empty. Returns the balanced table
    and the rows of ``train`` it holds, ``train``'s own rows first, so a refit
    can rank it by the rows (``copula.fit``'s ``rows``).

    Defaults to the first protected attribute; deterministic for a fixed seed
    (cells are processed in (group, label) text order). Already-balanced input
    comes back unchanged, as ``(train, None)``.
    """
    if attribute is None:
        attrs = metadata.protected_attributes
        attribute = attrs[0] if attrs else None
    if attribute is None or attribute not in train.schema:
        return train, None
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
        return train, None
    rows = np.concatenate([np.arange(train.row_count), *extra])
    return train.take(rows), rows


def check_backend(name: str, external_backends: dict[str, ExternalBackend] | None) -> None:
    """Raise ValidationFailure unless ``name`` is native or configured."""
    backends = external_backends or {}
    if name not in NATIVE_BACKENDS and name not in backends:
        raise ValidationFailure(
            f"unknown backend {name!r}; native backends are "
            f"{', '.join(NATIVE_BACKENDS)} and configured external backends are "
            f"{', '.join(sorted(backends)) or '(none)'}"
        )


def split_for(config: RunConfig, real: Dataset, spec: SplitSpec) -> Split:
    """The split of ``real`` for ``config``: config.train_rows wins, and the
    split spec contributes fraction and seed."""
    return Split(*split_holdout(real, replace(spec, train_rows=config.train_rows)))


def _balanced(
    config: RunConfig, train: Dataset, metadata: Metadata
) -> tuple[Dataset, np.ndarray | None]:
    """The table that ``config`` synthesizes from, and the rows of the train
    slice it holds (None: the slice itself)."""
    if not config.balance_groups:
        return train, None
    return balance_groups(train, metadata, seed=config.seed, attribute=config.balance_attribute)


def _native_model(config: RunConfig, split: Split, metadata: Metadata) -> CopulaModel:
    """The fitted model of a native backend under ``config``, reusing and
    keeping a gaussian_copula fit through ``split`` as ``Split`` says."""
    if config.backend != "gaussian_copula":
        return fit(_balanced(config, split.train, metadata)[0], config.backend, config.seed)
    unshrunk = replace(config, correlation_shrinkage=0.0)
    model = split.fit[1] if split.fit is not None and split.fit[0] == unshrunk else None
    split.fit = None  # a model not reused is freed before the next fit
    if model is None:
        if split.ranks is None and split.keep_fit:
            split.ranks = slice_ranks(split.train)
        table, rows = _balanced(config, split.train, metadata)
        model = fit(table, config.backend, config.seed, split.ranks, rows)
    if split.keep_fit:
        split.fit = (unshrunk, model)
    return shrink_correlation(model, config.correlation_shrinkage)


def launch_synthesis(
    config: RunConfig,
    split: Split,
    metadata: Metadata,
    external_backends: dict[str, ExternalBackend] | None,
    stack: ExitStack,
) -> Callable[[], Dataset]:
    """The synthesis step on the split's train slice. Returns a
    ``synthesize()`` that fits and samples a native backend, or waits for and
    loads an external one, whose process is launched now in a temporary
    directory made on ``stack``; closing ``stack`` kills the process if it
    still runs and removes the directory."""
    if config.backend in NATIVE_BACKENDS:
        # fit and sample are this module's names, looked up at the call.
        return lambda: sample(
            _native_model(config, split, metadata), config.sample_rows, config.seed
        )
    check_backend(config.backend, external_backends)
    run = launch_external_backend(
        external_backends[config.backend],
        _balanced(config, split.train, metadata)[0],
        metadata,
        config.sample_rows,
        config.epochs,
        config.seed,
        stack,
    )
    return lambda: run_external_backend(run)


def evaluate_synthetic(
    synthetic: Dataset,
    split: Split,
    metadata: Metadata,
    parity_threshold: float = DEFAULT_PARITY_THRESHOLD,
) -> PipelineResult:
    """The evaluation step: fidelity against the split's holdout side and
    TSTR fairness against its holdout, folded into the composite score."""
    quality = quality_report(split.side, synthetic)
    fairness = fairness_report(synthetic, split.holdout, metadata)
    composite = synth_score(
        quality.overall_score,
        fairness.max_rel_fpr,
        parity_threshold,
        degenerate=fairness.degenerate,
    )
    return PipelineResult(synthetic, quality, fairness, composite)


def run_pipeline(
    config: RunConfig,
    split: Split,
    metadata: Metadata,
    parity_threshold: float = DEFAULT_PARITY_THRESHOLD,
    external_backends: dict[str, ExternalBackend] | None = None,
) -> PipelineResult:
    """One generator + evaluator pass over ``split``; same inputs give an
    identical result, whatever earlier runs on the split kept in it."""
    with ExitStack() as stack:
        synthesize = launch_synthesis(config, split, metadata, external_backends, stack)
        synthetic = synthesize()
    return evaluate_synthetic(synthetic, split, metadata, parity_threshold)


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

    Stop on target (score and parity both met by a non-degenerate
    evaluation) or on exhausted budget. A degenerate TSTR classifier
    predicts one class on the whole holdout, so every defined group FPR is
    equal and parity holds with nothing compared: it never meets the target.
    A failed iteration resamples. A parity failure walks the fixed action order
    balance-groups, then correlation shrinkage, then resample. Balance-groups
    is skipped when the metadata names no protected attribute
    (``has_protected`` false), and correlation shrinkage for every backend
    but gaussian_copula, the only one that reads it: either would rerun the
    same synthesis. A pure quality shortfall, like a degenerate evaluation
    with parity met, doubles epochs for external backends (epochs are a no-op
    for closed-form native fits) and otherwise resamples.
    """
    met = score is not None and not score.degenerate and score.parity_ok
    if met and score.synth_score >= targets.min_synth_score:
        return TARGET_MET
    if len(history) > targets.max_refinements:
        return BUDGET
    if score is None:
        return RESAMPLE
    if not score.parity_ok:
        tried = {e.action_taken for e in history}
        if has_protected and BALANCE_GROUPS not in tried:
            return BALANCE_GROUPS
        if config.backend == "gaussian_copula" and SHRINK_CORRELATION not in tried:
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
    spec: SplitSpec,
    targets: Targets = Targets(),
    external_backends: dict[str, ExternalBackend] | None = None,
    pipeline=run_pipeline,
) -> SupervisorResult:
    """Bounded refinement loop: at most max_refinements + 1 pipeline runs.

    ``real`` is split once, by ``split_for`` for ``initial``; no refinement
    action changes train_rows, so every iteration runs on that one ``Split``:
    the same train slice, holdout and holdout side and, while another
    iteration can follow, the previous fit and the slice's sort order. A
    failed iteration is recorded in history with its error and refined by
    resampling; if every iteration fails, AllIterationsFailed names the last
    error and carries the full history. ``pipeline`` is injectable for
    testing the routing policy in isolation. No action changes the backend,
    so an unknown one raises ValidationFailure before the split is drawn.
    """
    check_backend(initial.backend, external_backends)
    split = split_for(initial, real, spec)
    history: list[HistoryEntry] = []
    config = initial
    while True:
        entry = HistoryEntry(config=config)
        history.append(entry)
        split.keep_fit = len(history) <= targets.max_refinements
        try:
            entry.result = pipeline(
                config,
                split,
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
        # One line: the last error's whitespace, newlines included, collapses.
        last = " ".join(history[-1].error.split())
        raise AllIterationsFailed(
            f"every pipeline iteration failed; last error: {last}", history=history
        )
    # The highest composite score, a degenerate one only when every one is;
    # max keeps the earliest of tied iterations.
    composites = {i: history[i].result.composite for i in scored}
    best = max(scored, key=lambda i: (not composites[i].degenerate, composites[i].synth_score))
    return SupervisorResult(stop_reason=plan, best_iteration=best, history=tuple(history))

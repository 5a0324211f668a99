from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from fairsynth import supervisor, tstr
from fairsynth.demo import DemoSpec, make_demo_dataset
from fairsynth.errors import AllIterationsFailed, InsufficientRows, ValidationFailure
from fairsynth.external import ExternalBackend
from fairsynth.quality import QualityReport
from fairsynth.schema import (
    CategoricalColumn,
    ColumnKind,
    Dataset,
    Metadata,
    NumericColumn,
    SplitSpec,
    TableSchema,
    split_holdout,
)
from fairsynth.scoring import synth_score
from fairsynth.supervisor import (
    BALANCE_GROUPS,
    BUDGET,
    INCREASE_EPOCHS,
    RESAMPLE,
    SHRINK_CORRELATION,
    TARGET_MET,
    HistoryEntry,
    PipelineResult,
    RunConfig,
    Targets,
    apply_action,
    balance_groups,
    plan_refinement,
    run_pipeline,
    split_for,
    supervise,
)
from fairsynth.tstr import AttributeFairness, FairnessReport

SPLIT = SplitSpec(train_rows=400, holdout_fraction=0.3, seed=0)
SMALL = RunConfig(train_rows=400, sample_rows=300, seed=0)


def _stub_quality(score):
    return QualityReport(score, {"v": ("KSComplement", score)}, (), score, score)


def _stub_fairness(ratios, degenerate=False):
    """A FairnessReport with ``ratios``' max_rel_fpr per protected attribute;
    a bare ratio is Race's. The overall ratio is the largest defined one."""
    if not isinstance(ratios, dict):
        ratios = {"Race": ratios}
    by_attribute = {
        attr: AttributeFairness({"A": 0.2, "B": 0.2}, {"A": (10, 2), "B": (10, 2)}, ratio)
        for attr, ratio in ratios.items()
    }
    overall = max((r for r in ratios.values() if r is not None), default=None)
    return FairnessReport(by_attribute, overall, degenerate, ())


def _stub_result(q, ratios, parity_threshold=2.0, synthetic=None, degenerate=False):
    """A PipelineResult scored ``q`` with ``ratios`` as in _stub_fairness."""
    fairness = _stub_fairness(ratios, degenerate)
    composite = synth_score(q, fairness.max_rel_fpr, parity_threshold, degenerate=degenerate)
    return PipelineResult(synthetic, _stub_quality(q), fairness, composite)


def _scripted(outcomes, demo_data):
    """Pipeline stand-in driven by a list of (quality, ratio), (quality,
    ratio, degenerate) or exceptions; the ratio may be a dict of ratios per
    protected attribute."""

    def pipeline(config, split, metadata, parity_threshold=2.0, external_backends=None):
        item = outcomes[len(pipeline.calls)]
        pipeline.calls.append(config)
        pipeline.splits.append(split)
        if isinstance(item, Exception):
            raise item
        q, ratios, degenerate = (*item, False)[:3]
        synthetic = demo_data.take(np.arange(5))
        return _stub_result(q, ratios, parity_threshold, synthetic, degenerate)

    pipeline.calls = []
    pipeline.splits = []
    return pipeline


class TestConfigs:
    def test_run_config_validation(self):
        with pytest.raises(ValidationFailure):
            RunConfig(train_rows=0)
        with pytest.raises(ValidationFailure):
            RunConfig(sample_rows=-5)
        with pytest.raises(ValidationFailure):
            RunConfig(correlation_shrinkage=1.5)

    def test_run_config_rejects_one_train_row(self):
        # One train row used to pass here and fail every fit later.
        with pytest.raises(ValidationFailure, match="train_rows must be at least 2, got 1"):
            RunConfig(train_rows=1)
        assert RunConfig(train_rows=2).train_rows == 2

    def test_run_config_rejects_negative_seed(self):
        # A negative seed used to pass here and fail every pipeline run later.
        with pytest.raises(ValidationFailure, match="seed must be non-negative"):
            RunConfig(seed=-1)

    def test_targets_validation(self):
        with pytest.raises(ValidationFailure):
            Targets(min_synth_score=0.0)
        with pytest.raises(ValidationFailure):
            Targets(max_refinements=-1)
        for threshold in (0.9, float("nan")):
            with pytest.raises(ValidationFailure):
                Targets(parity_threshold=threshold)


class TestApplyAction:
    def test_resample_changes_only_seed(self):
        cfg = apply_action(replace(SMALL, seed=6), RESAMPLE)
        assert cfg.seed == 7
        assert cfg == RunConfig(train_rows=400, sample_rows=300, seed=7)

    def test_increase_epochs_doubles(self):
        cfg = apply_action(SMALL, INCREASE_EPOCHS)
        assert cfg.epochs == SMALL.epochs * 2
        cfg = apply_action(cfg, INCREASE_EPOCHS)
        assert cfg.epochs == SMALL.epochs * 4

    def test_balance_groups_sets_flag_and_attribute(self):
        cfg = apply_action(SMALL, BALANCE_GROUPS, attribute="Race")
        assert cfg.balance_groups and cfg.balance_attribute == "Race"

    def test_shrink_correlation_accumulates_and_caps(self):
        cfg = SMALL
        for expected in (0.25, 0.5, 0.75, 1.0, 1.0):
            cfg = apply_action(cfg, SHRINK_CORRELATION)
            assert cfg.correlation_shrinkage == expected


class TestBalanceGroups:
    def test_upsamples_deficit_cells(self, demo_md):
        # cells: (A,neg)=10 (A,pos)=10 (B,neg)=5 (B,pos)=10 -> B,neg gains 5
        from fairsynth.schema import (
            CategoricalColumn,
            ColumnKind,
            Dataset,
            NumericColumn,
            TableSchema,
        )

        schema = TableSchema(
            (
                ("Race", ColumnKind.CATEGORICAL),
                ("Diagnosis", ColumnKind.CATEGORICAL),
                ("x", ColumnKind.NUMERIC),
            )
        )
        races = ["A"] * 20 + ["B"] * 15
        labels = (
            ["negative"] * 10 + ["positive"] * 10 + ["negative"] * 5 + ["positive"] * 10
        )
        data = Dataset(
            schema,
            (
                CategoricalColumn.from_values(races),
                CategoricalColumn.from_values(labels),
                NumericColumn(np.arange(35, dtype=np.float64)),
            ),
        )
        balanced, _ = balance_groups(data, demo_md, seed=0, attribute="Race")
        assert balanced.row_count == 40
        cells = Counter(zip(balanced.decoded("Race"), balanced.decoded("Diagnosis")))
        assert all(count == 10 for count in cells.values())
        # original rows stay in place; extras are appended
        assert balanced.take(np.arange(35)) == data
        extras = set(zip(balanced.decoded("Race")[35:], balanced.decoded("Diagnosis")[35:]))
        assert extras == {("B", "negative")}

    def test_already_balanced_returned_unchanged(self, demo_data, demo_md):
        train, _ = split_holdout(demo_data, SPLIT)
        balanced, _ = balance_groups(train, demo_md, seed=0, attribute="Race")
        rebalanced, rows = balance_groups(balanced, demo_md, seed=1, attribute="Race")
        assert rebalanced is balanced and rows is None

    def test_absent_attribute_is_identity(self, demo_data, demo_md):
        table, rows = balance_groups(demo_data, demo_md, seed=0, attribute="nope")
        assert table is demo_data and rows is None

    def test_defaults_to_first_protected_attribute(self, demo_data, demo_md):
        explicit, explicit_rows = balance_groups(demo_data, demo_md, seed=0, attribute="Race")
        default, default_rows = balance_groups(demo_data, demo_md, seed=0)
        assert default == explicit and default_rows.tolist() == explicit_rows.tolist()

    def test_deterministic(self, demo_data, demo_md):
        a, rows_a = balance_groups(demo_data, demo_md, seed=3, attribute="Race")
        b, rows_b = balance_groups(demo_data, demo_md, seed=3, attribute="Race")
        assert a == b and rows_a.tolist() == rows_b.tolist()

    def test_empty_cell_stays_empty_and_rows_are_returned(self):
        md = Metadata("y", "pos", ("g",))
        schema = TableSchema((("g", ColumnKind.CATEGORICAL), ("y", ColumnKind.CATEGORICAL)))
        pairs = [("A", "pos")] * 3 + [("B", "pos")] * 2 + [("B", "neg")] * 2
        data = Dataset(schema, tuple(CategoricalColumn.from_values(v) for v in zip(*pairs)))
        balanced, rows = balance_groups(data, md, seed=0, attribute="g")
        assert balanced == data.take(rows)
        assert rows[:data.row_count].tolist() == list(range(data.row_count))
        cells = Counter(zip(balanced.column("g").decoded(), balanced.column("y").decoded()))
        assert cells == {("A", "pos"): 3, ("B", "pos"): 3, ("B", "neg"): 3}
        again, none = balance_groups(balanced, md, seed=0, attribute="g")
        assert again is balanced and none is None


def _reference_balance_indices(train, metadata, seed, attribute):
    """Row indices the string-keyed balance_groups took: the oracle for the
    code-keyed one."""
    groups = train.decoded(attribute).tolist()
    labels = train.decoded(metadata.label_column).tolist()
    cells = {}
    for i, key in enumerate(zip(groups, labels)):
        cells.setdefault(key, []).append(i)
    target = max(len(idx) for idx in cells.values())
    rng = np.random.default_rng(seed)
    extra = []
    for key in sorted(cells):
        idx = cells[key]
        deficit = target - len(idx)
        if deficit > 0:
            extra.extend(rng.choice(np.array(idx), size=deficit, replace=True).tolist())
    return list(range(train.row_count)) + extra


class TestCodedBalanceMatchesStringReference:
    def test_same_indices(self):
        # Group and label tables are out of text order, slices (built with
        # take) lack some table entries, and cells tie at and below the target.
        md = Metadata("y", "pos", ("g",))
        rng = np.random.default_rng(13)
        schema = TableSchema(
            (("g", ColumnKind.CATEGORICAL), ("y", ColumnKind.CATEGORICAL),
             ("row", ColumnKind.NUMERIC))
        )
        n = 80
        data = Dataset(
            schema,
            (
                CategoricalColumn(rng.integers(0, 5, n), ("q", "c", "x", "a", "m")),
                CategoricalColumn(rng.integers(0, 2, n), ("pos", "neg")),
                NumericColumn(np.arange(n, dtype=np.float64)),
            ),
        )
        for seed in range(40):
            rows = rng.choice(n, size=int(rng.integers(2, 40)), replace=False)
            train = data.take(rows)
            got, got_rows = balance_groups(train, md, seed=seed, attribute="g")
            want = _reference_balance_indices(train, md, seed, "g")
            assert got.column("row").values.tolist() == rows[want].tolist()
            if got_rows is not None:
                assert got_rows.tolist() == want

    def test_numeric_attribute_rejected(self):
        md = Metadata("y", "pos", ("g",))
        schema = TableSchema((("v", ColumnKind.NUMERIC), ("y", ColumnKind.CATEGORICAL)))
        data = Dataset(
            schema, (NumericColumn([1.0, 2.0]), CategoricalColumn.from_values(["pos", "neg"]))
        )
        with pytest.raises(ValidationFailure, match="not categorical"):
            balance_groups(data, md, seed=0, attribute="v")


class TestPlanRefinement:
    def _history(self, actions):
        history = [
            HistoryEntry(config=SMALL, result=_stub_result(0.5, 3.0), action_taken=action)
            for action in actions
        ]
        # one evaluated-but-unrouted entry, as supervise sees it
        history.append(HistoryEntry(config=SMALL, result=_stub_result(0.5, 3.0)))
        return history

    def test_stop_on_target(self):
        plan = plan_refinement(self._history([]), synth_score(0.9, 1.2), Targets(), SMALL)
        assert plan == TARGET_MET

    def test_score_alone_is_not_enough(self):
        plan = plan_refinement(self._history([]), synth_score(0.95, 2.5), Targets(), SMALL)
        assert plan not in (TARGET_MET, BUDGET)

    def test_stop_on_budget(self):
        history = self._history(["resample", "resample", "resample"])
        plan = plan_refinement(history, synth_score(0.2, 1.0), Targets(max_refinements=3), SMALL)
        assert plan == BUDGET

    def test_parity_failure_tries_balance_first(self):
        plan = plan_refinement(self._history([]), synth_score(0.9, 3.0), Targets(), SMALL)
        assert plan == BALANCE_GROUPS

    def test_parity_failure_then_shrink(self):
        history = self._history(["balance_groups"])
        plan = plan_refinement(history, synth_score(0.9, 3.0), Targets(), SMALL)
        assert plan == SHRINK_CORRELATION

    def test_parity_failure_then_resample(self):
        history = self._history(["balance_groups", "shrink_correlation"])
        plan = plan_refinement(history, synth_score(0.9, 3.0), Targets(), SMALL)
        assert plan == RESAMPLE

    def test_parity_actions_exhausted_keeps_resampling(self):
        history = self._history(["balance_groups", "shrink_correlation", "resample"])
        plan = plan_refinement(
            history, synth_score(0.9, 3.0), Targets(max_refinements=9), SMALL
        )
        assert plan == RESAMPLE

    def test_quality_shortfall_native_resamples(self):
        plan = plan_refinement(self._history([]), synth_score(0.4, 1.0), Targets(), SMALL)
        assert plan == RESAMPLE

    def test_quality_shortfall_external_increases_epochs(self):
        cfg = RunConfig(backend="ctgan_cmd", train_rows=400, sample_rows=300)
        plan = plan_refinement(self._history([]), synth_score(0.4, 1.0), Targets(), cfg)
        assert plan == INCREASE_EPOCHS

    def test_no_protected_attribute_skips_balance(self):
        plan = plan_refinement(
            self._history([]), synth_score(0.9, None), Targets(), SMALL, has_protected=False
        )
        assert plan == SHRINK_CORRELATION

    @pytest.mark.parametrize("backend", ["independent", "ctgan_cmd"])
    def test_shrink_skipped_where_the_backend_ignores_it(self, backend):
        # Only gaussian_copula reads correlation_shrinkage; elsewhere the
        # step would rerun the previous iteration's synthesis.
        cfg = replace(SMALL, backend=backend)
        history = self._history([BALANCE_GROUPS])
        plan = plan_refinement(history, synth_score(0.9, 3.0), Targets(), cfg)
        assert plan == RESAMPLE
        plan = plan_refinement(
            self._history([]), synth_score(0.9, None), Targets(), cfg, has_protected=False
        )
        assert plan == RESAMPLE

    def test_infinite_ratio_is_a_parity_failure(self):
        plan = plan_refinement(
            self._history([]), synth_score(0.9, float("inf")), Targets(), SMALL
        )
        assert plan == BALANCE_GROUPS


class TestRunPipeline:
    def test_artifacts(self, demo_data, demo_md):
        result = run_pipeline(SMALL, split_for(SMALL, demo_data, SPLIT), demo_md)
        assert result.synthetic.row_count == SMALL.sample_rows
        assert result.synthetic.schema == demo_data.schema
        assert 0.0 <= result.quality.overall_score <= 1.0
        assert result.composite.quality == result.quality.overall_score
        assert result.composite.synth_score <= result.quality.overall_score + 1e-15

    def test_deterministic(self, demo_data, demo_md):
        a = run_pipeline(SMALL, split_for(SMALL, demo_data, SPLIT), demo_md)
        b = run_pipeline(SMALL, split_for(SMALL, demo_data, SPLIT), demo_md)
        assert a.synthetic == b.synthetic
        assert a.quality == b.quality
        assert a.composite == b.composite

    def test_unknown_backend(self, demo_data, demo_md):
        cfg = RunConfig(backend="nope", train_rows=400, sample_rows=300)
        with pytest.raises(ValidationFailure, match="nope"):
            run_pipeline(cfg, split_for(cfg, demo_data, SPLIT), demo_md)

    def test_holdout_fixed_across_train_rows(self, demo_data, demo_md):
        # the evaluator slice must not move when a refinement changes train_rows
        _, holdout_a = split_holdout(demo_data, SplitSpec(400, 0.3, 0))
        _, holdout_b = split_holdout(demo_data, SplitSpec(900, 0.3, 0))
        assert holdout_a == holdout_b


class TestSupervise:
    def test_zero_refinements_runs_once(self, demo_data, demo_md):
        script = _scripted([(0.95, 1.0)], demo_data)
        result = supervise(
            SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=0), pipeline=script
        )
        assert len(script.calls) == 1
        assert result.stop_reason == TARGET_MET
        assert result.best_iteration == 0

    def test_budget_bounds_run_count(self, demo_data, demo_md):
        script = _scripted([(0.1, 1.0)] * 10, demo_data)
        result = supervise(
            SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=3), pipeline=script
        )
        assert len(script.calls) == 4
        assert result.stop_reason == BUDGET

    def test_best_by_composite_score(self, demo_data, demo_md):
        script = _scripted(
            [(0.50, 1.0), (0.75, 1.0), (0.71, 1.0), (0.60, 1.0)], demo_data
        )
        result = supervise(
            SMALL,
            demo_data,
            demo_md,
            SPLIT,
            Targets(min_synth_score=0.9, max_refinements=3),
            pipeline=script,
        )
        assert result.best_iteration == 1
        assert result.best_composite.synth_score == 0.75
        assert result.history[1].config == result.best_config

    def test_ties_go_to_earliest(self, demo_data, demo_md):
        script = _scripted([(0.75, 1.0), (0.75, 1.0)], demo_data)
        result = supervise(
            SMALL,
            demo_data,
            demo_md,
            SPLIT,
            Targets(min_synth_score=0.9, max_refinements=1),
            pipeline=script,
        )
        assert result.best_iteration == 0

    def test_degenerate_evaluation_never_meets_the_target(self, demo_data, demo_md):
        # A one-class TSTR classifier makes every group FPR equal, so parity
        # holds with nothing compared; its 0.95 is no evidence the goal is met.
        script = _scripted([(0.95, 1.0, True), (0.80, 1.0)], demo_data)
        result = supervise(
            SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=3), pipeline=script
        )
        assert result.history[0].action_taken == RESAMPLE
        assert result.stop_reason == TARGET_MET
        assert len(result.history) == 2 and result.best_iteration == 1

    def test_best_is_non_degenerate_when_one_exists(self, demo_data, demo_md):
        script = _scripted([(0.95, 1.0, True), (0.60, 1.0), (0.90, 1.0, True)], demo_data)
        result = supervise(
            SMALL,
            demo_data,
            demo_md,
            SPLIT,
            Targets(min_synth_score=0.9, max_refinements=2),
            pipeline=script,
        )
        assert result.stop_reason == BUDGET
        assert result.best_iteration == 1
        assert not result.best_composite.degenerate

    def test_all_degenerate_best_is_argmax(self, demo_data, demo_md):
        script = _scripted([(0.70, 1.0, True), (0.90, 1.0, True), (0.90, 1.0, True)], demo_data)
        result = supervise(
            SMALL,
            demo_data,
            demo_md,
            SPLIT,
            Targets(min_synth_score=0.9, max_refinements=2),
            pipeline=script,
        )
        assert result.stop_reason == BUDGET and len(result.history) == 3
        assert result.best_iteration == 1  # the highest score, ties to the earliest

    def test_parity_failure_walks_action_order(self, demo_data, demo_md):
        script = _scripted([(0.95, 3.0)] * 4, demo_data)
        result = supervise(
            SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=3), pipeline=script
        )
        actions = [e.action_taken for e in result.history]
        assert actions == ["balance_groups", "shrink_correlation", "resample", None]
        configs = [e.config for e in result.history]
        assert configs[1].balance_groups and configs[1].balance_attribute == "Race"
        assert configs[2].correlation_shrinkage == 0.25
        assert configs[3].seed == SMALL.seed + 1

    def test_no_protected_attribute_spends_no_iteration_on_a_no_op(self, demo_data, demo_md):
        # Undefined parity walks the parity actions; with no attribute to
        # balance, balance_groups would rerun iteration 0's synthesis.
        md = replace(demo_md, protected_attributes=())
        cfg = RunConfig(train_rows=1000, sample_rows=500)
        result = supervise(cfg, demo_data, md, SplitSpec(train_rows=1000))
        actions = [e.action_taken for e in result.history]
        assert actions == ["shrink_correlation", "resample", "resample", None]
        assert result.stop_reason == BUDGET
        for before, after in zip(result.history, result.history[1:]):
            assert before.result.synthetic != after.result.synthetic

    def test_independent_backend_spends_no_iteration_on_a_no_op(self, demo_data, demo_md):
        # independent ignores correlation_shrinkage, so a shrink step would
        # repeat the balanced iteration's synthetic table.
        cfg = RunConfig(backend="independent", train_rows=1000, sample_rows=500, seed=3)
        result = supervise(
            cfg, demo_data, demo_md, SplitSpec(train_rows=1000, seed=3),
            Targets(parity_threshold=1.0, max_refinements=3),
        )
        for before, after in zip(result.history, result.history[1:]):
            assert before.result.synthetic != after.result.synthetic
        actions = [e.action_taken for e in result.history]
        assert actions == ["balance_groups", "resample", "resample", None]

    def test_shrink_step_reuses_the_previous_fit(self, demo_data, demo_md, monkeypatch):
        # A shrink-only step shrinks the model the previous iteration fitted
        # instead of balancing and fitting the same slice again; every
        # iteration still equals its replay from scratch.
        fits = []
        real_fit = supervisor.fit
        monkeypatch.setattr(supervisor, "fit", lambda *a: fits.append(1) or real_fit(*a))
        strict = Targets(parity_threshold=1.0, max_refinements=3)
        result = supervise(SMALL, demo_data, demo_md, SPLIT, strict)
        actions = [e.action_taken for e in result.history]
        assert actions == ["balance_groups", "shrink_correlation", "resample", None]
        assert len(fits) == len(result.history) - actions.count(SHRINK_CORRELATION)
        monkeypatch.undo()
        for entry in result.history:
            replay = run_pipeline(
                entry.config, split_for(entry.config, demo_data, SPLIT), demo_md,
                parity_threshold=strict.parity_threshold,
            )
            assert replay == entry.result

    def test_fit_is_kept_only_while_another_iteration_can_follow(self, demo_data, demo_md):
        kept = []

        def pipeline(config, split, *args, **kwargs):
            result = run_pipeline(config, split, *args, **kwargs)
            kept.append(split.fit)
            return result

        # run is supervise with a budget of 0: it keeps no model.
        supervise(SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=0), pipeline=pipeline)
        assert kept == [None]
        kept.clear()
        strict = Targets(parity_threshold=1.0, max_refinements=2)
        supervise(SMALL, demo_data, demo_md, SPLIT, strict, pipeline=pipeline)
        assert [fit is not None for fit in kept] == [True, True, False]

    @pytest.mark.parametrize("shape", ["demo", "refine"])
    def test_every_iteration_equals_its_state_free_run(self, demo_data, demo_md, shape):
        # The split's kept pieces (previous fit, slice sort order and the
        # holdout side's co-occurrence counts) change no bit: each
        # iteration's record, synthetic table included, equals a run of its
        # config on a fresh record of the same split.
        if shape == "demo":
            data, config, split = demo_data, SMALL, SPLIT
        else:  # refine-supervise's shape at a tenth of its size
            data = make_demo_dataset(DemoSpec(n_rows=4000, seed=1, disparity_strength=0.3))
            config = RunConfig(train_rows=2000, sample_rows=1000, seed=1)
            split = SplitSpec(train_rows=2000, holdout_fraction=0.3, seed=1)
        targets = Targets(parity_threshold=1.0, max_refinements=5)
        result = supervise(config, data, demo_md, split, targets)
        actions = [e.action_taken for e in result.history]
        assert actions[:3] == [BALANCE_GROUPS, SHRINK_CORRELATION, RESAMPLE]
        assert len(result.history) == 6
        for entry in result.history:
            replay = run_pipeline(
                entry.config, split_for(config, data, split), demo_md,
                parity_threshold=targets.parity_threshold,
            )
            assert replay == entry.result

    def test_split_pieces_are_kept_only_while_another_iteration_can_follow(
        self, demo_data, demo_md, monkeypatch
    ):
        # The slice's ranks are built in the first pass, and only while
        # another can follow; per pass, record the ranks each fit is handed,
        # the holdout side's counts list and the group_fpr calls of TSTR.
        built, handed, sides, fpr_calls = [], [], [], []
        slice_ranks, fit, quality_report, group_fpr = (
            supervisor.slice_ranks, supervisor.fit, supervisor.quality_report, tstr.group_fpr
        )
        monkeypatch.setattr(
            supervisor, "slice_ranks", lambda *a: built.append(slice_ranks(*a)) or built[-1]
        )
        monkeypatch.setattr(supervisor, "fit", lambda *a: handed.append(a[3]) or fit(*a))
        monkeypatch.setattr(
            supervisor, "quality_report", lambda *a: sides.append(a[0]) or quality_report(*a)
        )
        monkeypatch.setattr(tstr, "group_fpr", lambda *a: fpr_calls.append(1) or group_fpr(*a))
        passes = []

        def pipeline(config, split, *args, **kwargs):
            result = run_pipeline(config, split, *args, **kwargs)
            passes.append((handed[:], len(fpr_calls), split.side.counts))
            handed.clear()
            fpr_calls.clear()
            return result

        attributes = len(demo_md.protected_attributes)
        # run is supervise with a budget of 0: its fit sorts for itself.
        supervise(SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=0), pipeline=pipeline)
        assert built == [] and len(passes) == 1
        fits, calls, counts = passes[0]
        assert fits == [None] and calls == attributes and counts is sides[0].counts

        passes.clear()
        sides.clear()
        strict = Targets(parity_threshold=1.0, max_refinements=3)
        result = supervise(SMALL, demo_data, demo_md, SPLIT, strict, pipeline=pipeline)
        actions = [e.action_taken for e in result.history]
        assert actions == [BALANCE_GROUPS, SHRINK_CORRELATION, RESAMPLE, None]
        # Every refit, the last pass's included, ranks by the first pass's
        # ranks; the shrink-only pass fits nothing.
        assert len(built) == 1
        assert [[r is built[0] for r in fits] for fits, _, _ in passes] == [[True], [True], [], [True]]
        # One holdout side, whose one counts list every pass reads.
        assert len(sides) == 4 and all(side is sides[0] for side in sides)
        assert sides[0].counts and all(counts is sides[0].counts for _, _, counts in passes)
        assert [calls for _, calls, _ in passes] == [attributes] * 4

    def test_parity_recovery_after_balance(self, demo_data, demo_md):
        script = _scripted([(0.95, 3.0), (0.95, 1.5)], demo_data)
        result = supervise(
            SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=3), pipeline=script
        )
        assert result.stop_reason == TARGET_MET
        assert result.history[0].action_taken == "balance_groups"
        assert result.best_iteration == 1
        assert len(result.history) == 2

    def test_external_quality_shortfall_increases_epochs(self, demo_data, demo_md):
        cfg = RunConfig(backend="ctgan_cmd", train_rows=400, sample_rows=300)
        script = _scripted([(0.5, 1.0), (0.95, 1.0)], demo_data)
        result = supervise(
            cfg,
            demo_data,
            demo_md,
            SPLIT,
            Targets(max_refinements=3),
            external_backends={"ctgan_cmd": ExternalBackend("ctgan_cmd", ("false",))},
            pipeline=script,
        )
        assert result.history[0].action_taken == "increase_epochs"
        assert result.history[1].config.epochs == cfg.epochs * 2
        assert result.stop_reason == TARGET_MET

    def test_unknown_backend_refused_before_any_pipeline_call(self, demo_data, demo_md):
        # No action changes the backend, so a name that is neither native nor
        # configured is a bad request, not four failed iterations.
        script = _scripted([(0.95, 1.0)] * 4, demo_data)
        with pytest.raises(ValidationFailure, match="unknown backend 'nope'"):
            supervise(
                replace(SMALL, backend="nope"),
                demo_data,
                demo_md,
                SPLIT,
                Targets(max_refinements=3),
                pipeline=script,
            )
        assert script.calls == []

    def test_failed_iteration_recorded_then_resampled(self, demo_data, demo_md):
        script = _scripted([ValidationFailure("transient"), (0.95, 1.0)], demo_data)
        result = supervise(
            SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=3), pipeline=script
        )
        assert result.history[0].error == "transient"
        assert result.history[0].action_taken == "resample"
        assert result.history[1].config.seed == SMALL.seed + 1
        assert result.best_iteration == 1

    @pytest.mark.parametrize(
        "ratios, chosen",
        [
            ({"Race": 2.5, "Sex": 4.0}, "Sex"),
            ({"Race": 4.0, "Sex": float("inf")}, "Sex"),
            ({"Sex": None, "Race": None}, "Race"),
        ],
        ids=["larger-ratio", "inf-beats-finite", "all-undefined-metadata-order"],
    )
    def test_balance_attribute_is_the_most_disparate(self, demo_data, demo_md, ratios, chosen):
        assert demo_md.protected_attributes == ("Race", "Sex")
        script = _scripted([(0.95, ratios), (0.95, 1.0)], demo_data)
        result = supervise(
            SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=1), pipeline=script
        )
        assert result.history[0].action_taken == "balance_groups"
        assert script.calls[1].balance_groups
        assert script.calls[1].balance_attribute == chosen

    def test_failed_last_iteration_stops_on_budget(self, demo_data, demo_md):
        script = _scripted([(0.5, 1.0), ValidationFailure("late")], demo_data)
        result = supervise(
            SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=1), pipeline=script
        )
        assert len(script.calls) == 2
        assert result.history[1].error == "late"
        assert result.history[1].action_taken is None
        assert result.stop_reason == BUDGET
        assert result.best_iteration == 0

    def test_failure_then_parity_failures_walk_action_order(self, demo_data, demo_md):
        script = _scripted([ValidationFailure("first")] + [(0.95, 3.0)] * 3, demo_data)
        result = supervise(
            SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=3), pipeline=script
        )
        actions = [e.action_taken for e in result.history]
        assert actions == ["resample", "balance_groups", "shrink_correlation", None]
        assert result.stop_reason == BUDGET

    def test_all_iterations_failed(self, demo_data, demo_md):
        script = _scripted([ValidationFailure("boom")] * 3, demo_data)
        with pytest.raises(AllIterationsFailed) as exc_info:
            supervise(
                SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=2), pipeline=script
            )
        assert str(exc_info.value) == "every pipeline iteration failed; last error: boom"
        history = exc_info.value.history
        assert len(history) == 3
        assert all(e.error == "boom" for e in history)
        assert [e.config.seed for e in history] == [0, 1, 2]

    def test_all_failed_message_is_one_line(self, demo_data, demo_md):
        script = _scripted([ValidationFailure("first"), ValidationFailure("a\r\n  b\n")], demo_data)
        with pytest.raises(AllIterationsFailed) as exc_info:
            supervise(
                SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=1), pipeline=script
            )
        assert str(exc_info.value) == "every pipeline iteration failed; last error: a b"
        assert exc_info.value.history[1].error == "a\r\n  b\n"

    def test_insufficient_rows_rejected_upfront(self, demo_data, demo_md):
        big = RunConfig(train_rows=1900, sample_rows=100)
        script = _scripted([], demo_data)
        with pytest.raises(InsufficientRows) as err:
            supervise(big, demo_data, demo_md, SplitSpec(1900, 0.3, 0), pipeline=script)
        assert str(err.value) == (
            "train_rows=1900 exceeds 1400 rows available after holding out 600 of 2000"
        )
        assert script.calls == []

    def test_split_drawn_once_for_every_iteration(self, demo_data, demo_md):
        # The split spec's train_rows loses to the initial config's.
        script = _scripted([(0.95, 3.0)] * 4, demo_data)
        supervise(
            SMALL, demo_data, demo_md, replace(SPLIT, train_rows=900),
            Targets(max_refinements=3), pipeline=script,
        )
        split = script.splits[0]
        assert all(drawn is split for drawn in script.splits)
        want_train, want_holdout = split_holdout(demo_data, SPLIT)
        assert split.train == want_train and split.holdout == want_holdout
        assert len(script.splits) == 4

    def test_real_run_on_demo_data(self, demo_data, demo_md):
        result = supervise(SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=3))
        assert len(result.history) <= 4
        assert result.stop_reason in (TARGET_MET, BUDGET)
        assert result.best_composite.synth_score == max(
            e.result.composite.synth_score for e in result.history if e.result is not None
        )

    def test_best_names_read_the_best_entry(self, demo_data, demo_md):
        script = _scripted([(0.50, 1.0), (0.75, 1.0), (0.60, 1.0)], demo_data)
        result = supervise(
            SMALL, demo_data, demo_md, SPLIT,
            Targets(min_synth_score=0.9, max_refinements=2), pipeline=script,
        )
        best = result.history[result.best_iteration]
        assert result.best_iteration == 1
        assert result.best_config is best.config
        assert result.best_synthetic is best.result.synthetic
        assert result.best_quality is best.result.quality
        assert result.best_fairness is best.result.fairness
        assert result.best_composite is best.result.composite

    def test_separation_invariant(self, demo_data, demo_md):
        # iteration k's synthetic rows are a function of (real data, config_k)
        # alone: replaying any history config standalone reproduces its bytes
        result = supervise(SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=3))
        for entry in result.history:
            if entry.result is None:
                continue
            replay = run_pipeline(entry.config, split_for(entry.config, demo_data, SPLIT), demo_md)
            assert replay.synthetic == entry.result.synthetic

    def test_deterministic(self, demo_data, demo_md):
        a = supervise(SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=2))
        b = supervise(SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=2))
        assert a.stop_reason == b.stop_reason
        assert a.best_iteration == b.best_iteration
        assert a.best_synthetic == b.best_synthetic
        assert [e.action_taken for e in a.history] == [e.action_taken for e in b.history]

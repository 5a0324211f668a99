from collections import Counter

import numpy as np
import pytest

from fairsynth.errors import AllIterationsFailed, InsufficientRows, ValidationFailure
from fairsynth.quality import QualityReport
from fairsynth.schema import SplitSpec, split_holdout
from fairsynth.scoring import synth_score
from fairsynth.supervisor import (
    BUDGET,
    TARGET_MET,
    BalanceGroups,
    HistoryEntry,
    IncreaseEpochs,
    PipelineResult,
    Resample,
    RunConfig,
    ShrinkCorrelation,
    Stop,
    SupervisorState,
    Targets,
    apply_action,
    balance_groups,
    plan_refinement,
    run_pipeline,
    supervise,
)
from fairsynth.tstr import AttributeFairness, FairnessReport

SPLIT = SplitSpec(train_rows=400, holdout_fraction=0.3, seed=0)
SMALL = RunConfig(train_rows=400, sample_rows=300, seed=0)


def _stub_quality(score):
    return QualityReport(score, {"v": ("KSComplement", score)}, (), score, score)


def _stub_fairness(ratio):
    attr = AttributeFairness(
        {"A": 0.2, "B": 0.2}, {"A": (10, 2), "B": (10, 2)}, ratio
    )
    return FairnessReport({"Race": attr}, ratio, False, ())


def _scripted(outcomes, demo_data):
    """Pipeline stand-in driven by a list of (quality, ratio) or exceptions."""

    def pipeline(config, real, metadata, split, parity_threshold=2.0, external_backends=None):
        item = outcomes[len(pipeline.calls)]
        pipeline.calls.append(config)
        if isinstance(item, Exception):
            raise item
        q, ratio = item
        return PipelineResult(
            demo_data.take(np.arange(5)),
            _stub_quality(q),
            _stub_fairness(ratio),
            synth_score(q, ratio, parity_threshold),
        )

    pipeline.calls = []
    return pipeline


class TestConfigs:
    def test_run_config_validation(self):
        with pytest.raises(ValidationFailure):
            RunConfig(train_rows=0)
        with pytest.raises(ValidationFailure):
            RunConfig(sample_rows=-5)
        with pytest.raises(ValidationFailure):
            RunConfig(correlation_shrinkage=1.5)

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
        cfg = apply_action(SMALL, Resample(new_seed=7))
        assert cfg.seed == 7
        assert cfg == RunConfig(train_rows=400, sample_rows=300, seed=7)

    def test_increase_epochs_doubles(self):
        cfg = apply_action(SMALL, IncreaseEpochs())
        assert cfg.epochs == SMALL.epochs * 2
        cfg = apply_action(cfg, IncreaseEpochs())
        assert cfg.epochs == SMALL.epochs * 4

    def test_balance_groups_sets_flag_and_attribute(self):
        cfg = apply_action(SMALL, BalanceGroups(attribute="Race"))
        assert cfg.balance_groups and cfg.balance_attribute == "Race"

    def test_shrink_correlation_accumulates_and_caps(self):
        cfg = SMALL
        for expected in (0.25, 0.5, 0.75, 1.0, 1.0):
            cfg = apply_action(cfg, ShrinkCorrelation())
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
        balanced = balance_groups(data, demo_md, seed=0, attribute="Race")
        assert balanced.row_count == 40
        cells = Counter(zip(balanced.decoded("Race"), balanced.decoded("Diagnosis")))
        assert all(count == 10 for count in cells.values())
        # original rows stay in place; extras are appended
        assert balanced.take(np.arange(35)) == data
        extras = set(zip(balanced.decoded("Race")[35:], balanced.decoded("Diagnosis")[35:]))
        assert extras == {("B", "negative")}

    def test_already_balanced_returned_unchanged(self, demo_data, demo_md):
        train, _ = split_holdout(demo_data, SPLIT)
        balanced = balance_groups(train, demo_md, seed=0, attribute="Race")
        rebalanced = balance_groups(balanced, demo_md, seed=1, attribute="Race")
        assert rebalanced is balanced

    def test_absent_attribute_is_identity(self, demo_data, demo_md):
        assert balance_groups(demo_data, demo_md, seed=0, attribute="nope") is demo_data

    def test_defaults_to_first_protected_attribute(self, demo_data, demo_md):
        explicit = balance_groups(demo_data, demo_md, seed=0, attribute="Race")
        default = balance_groups(demo_data, demo_md, seed=0)
        assert default == explicit

    def test_deterministic(self, demo_data, demo_md):
        a = balance_groups(demo_data, demo_md, seed=3, attribute="Race")
        b = balance_groups(demo_data, demo_md, seed=3, attribute="Race")
        assert a == b


class TestPlanRefinement:
    def _state(self, actions):
        state = SupervisorState()
        for action in actions:
            state.history.append(
                HistoryEntry(config=SMALL, composite=synth_score(0.5, 3.0), action_taken=action)
            )
        # one evaluated-but-unrouted entry, as supervise sees it
        state.history.append(HistoryEntry(config=SMALL, composite=synth_score(0.5, 3.0)))
        return state

    def test_stop_on_target(self):
        plan = plan_refinement(self._state([]), synth_score(0.9, 1.2), Targets(), SMALL)
        assert plan == Stop(TARGET_MET)

    def test_score_alone_is_not_enough(self):
        plan = plan_refinement(self._state([]), synth_score(0.95, 2.5), Targets(), SMALL)
        assert not isinstance(plan, Stop)

    def test_stop_on_budget(self):
        state = self._state(["resample", "resample", "resample"])
        plan = plan_refinement(state, synth_score(0.2, 1.0), Targets(max_refinements=3), SMALL)
        assert plan == Stop(BUDGET)

    def test_parity_failure_tries_balance_first(self):
        plan = plan_refinement(self._state([]), synth_score(0.9, 3.0), Targets(), SMALL)
        assert isinstance(plan, BalanceGroups)

    def test_parity_failure_then_shrink(self):
        state = self._state(["balance_groups"])
        plan = plan_refinement(state, synth_score(0.9, 3.0), Targets(), SMALL)
        assert isinstance(plan, ShrinkCorrelation)

    def test_parity_failure_then_resample(self):
        state = self._state(["balance_groups", "shrink_correlation"])
        plan = plan_refinement(state, synth_score(0.9, 3.0), Targets(), SMALL)
        assert plan == Resample(SMALL.seed + 1)

    def test_parity_actions_exhausted_keeps_resampling(self):
        state = self._state(["balance_groups", "shrink_correlation", "resample"])
        plan = plan_refinement(
            state, synth_score(0.9, 3.0), Targets(max_refinements=9), SMALL
        )
        assert plan == Resample(SMALL.seed + 1)

    def test_quality_shortfall_native_resamples(self):
        plan = plan_refinement(self._state([]), synth_score(0.4, 1.0), Targets(), SMALL)
        assert plan == Resample(SMALL.seed + 1)

    def test_quality_shortfall_external_increases_epochs(self):
        cfg = RunConfig(backend="ctgan_cmd", train_rows=400, sample_rows=300)
        plan = plan_refinement(self._state([]), synth_score(0.4, 1.0), Targets(), cfg)
        assert isinstance(plan, IncreaseEpochs)

    def test_infinite_ratio_is_a_parity_failure(self):
        plan = plan_refinement(
            self._state([]), synth_score(0.9, float("inf")), Targets(), SMALL
        )
        assert isinstance(plan, BalanceGroups)


class TestRunPipeline:
    def test_artifacts(self, demo_data, demo_md):
        result = run_pipeline(SMALL, demo_data, demo_md, SPLIT)
        assert result.synthetic.row_count == SMALL.sample_rows
        assert result.synthetic.schema == demo_data.schema
        assert 0.0 <= result.quality.overall_score <= 1.0
        assert result.composite.quality == result.quality.overall_score
        assert result.composite.synth_score <= result.quality.overall_score + 1e-15

    def test_deterministic(self, demo_data, demo_md):
        a = run_pipeline(SMALL, demo_data, demo_md, SPLIT)
        b = run_pipeline(SMALL, demo_data, demo_md, SPLIT)
        assert a.synthetic == b.synthetic
        assert a.quality == b.quality
        assert a.composite == b.composite

    def test_unknown_backend(self, demo_data, demo_md):
        cfg = RunConfig(backend="nope", train_rows=400, sample_rows=300)
        with pytest.raises(ValidationFailure, match="nope"):
            run_pipeline(cfg, demo_data, demo_md, SPLIT)

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
            cfg, demo_data, demo_md, SPLIT, Targets(max_refinements=3), pipeline=script
        )
        assert result.history[0].action_taken == "increase_epochs"
        assert result.history[1].config.epochs == cfg.epochs * 2
        assert result.stop_reason == TARGET_MET

    def test_failed_iteration_recorded_then_resampled(self, demo_data, demo_md):
        script = _scripted([ValidationFailure("transient"), (0.95, 1.0)], demo_data)
        result = supervise(
            SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=3), pipeline=script
        )
        assert result.history[0].error == "transient"
        assert result.history[0].action_taken == "resample"
        assert result.history[1].config.seed == SMALL.seed + 1
        assert result.best_iteration == 1

    def test_all_iterations_failed(self, demo_data, demo_md):
        script = _scripted([ValidationFailure("boom")] * 3, demo_data)
        with pytest.raises(AllIterationsFailed) as exc_info:
            supervise(
                SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=2), pipeline=script
            )
        history = exc_info.value.history
        assert len(history) == 3
        assert all(e.error == "boom" for e in history)
        assert [e.config.seed for e in history] == [0, 1, 2]

    def test_insufficient_rows_rejected_upfront(self, demo_data, demo_md):
        big = RunConfig(train_rows=1900, sample_rows=100)
        with pytest.raises(InsufficientRows):
            supervise(big, demo_data, demo_md, SplitSpec(1900, 0.3, 0), pipeline=_scripted([], demo_data))

    def test_real_run_on_demo_data(self, demo_data, demo_md):
        result = supervise(SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=3))
        assert len(result.history) <= 4
        assert result.stop_reason in (TARGET_MET, BUDGET)
        assert result.best_composite.synth_score == max(
            e.composite.synth_score for e in result.history if e.composite is not None
        )

    def test_separation_invariant(self, demo_data, demo_md):
        # iteration k's synthetic rows are a function of (real data, config_k)
        # alone: replaying any history config standalone reproduces its bytes
        result = supervise(SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=3))
        for entry in result.history:
            if entry.synthetic is None:
                continue
            replay = run_pipeline(entry.config, demo_data, demo_md, SPLIT)
            assert replay.synthetic == entry.synthetic

    def test_deterministic(self, demo_data, demo_md):
        a = supervise(SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=2))
        b = supervise(SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=2))
        assert a.stop_reason == b.stop_reason
        assert a.best_iteration == b.best_iteration
        assert a.best_synthetic == b.best_synthetic
        assert [e.action_taken for e in a.history] == [e.action_taken for e in b.history]

import math

import numpy as np
import pytest

from fairsynth.errors import QualityOutOfRange, ValidationFailure
from fairsynth.scoring import (
    DEFAULT_PARITY_THRESHOLD,
    fairness_multiplier,
    synth_score,
)
from fairsynth.tstr import INFINITE, UNDEFINED


class TestFairnessMultiplier:
    def test_within_threshold_is_one(self):
        assert fairness_multiplier(1.57) == 1.0

    def test_exactly_at_threshold_is_one(self):
        assert fairness_multiplier(2.0) == 1.0

    def test_above_threshold_scales_down(self):
        assert fairness_multiplier(2.67) == pytest.approx(2.0 / 2.67)
        assert fairness_multiplier(2.67) == pytest.approx(0.75, abs=0.005)

    def test_infinite_ratio_zeroes_out(self):
        assert fairness_multiplier(INFINITE) == 0.0

    def test_undefined_ratio_passes_through(self, caplog):
        with caplog.at_level("WARNING"):
            assert fairness_multiplier(UNDEFINED) == 1.0
        assert any("undefined" in rec.message.lower() for rec in caplog.records)

    def test_custom_threshold(self):
        assert fairness_multiplier(2.5, parity_threshold=3.0) == 1.0
        assert fairness_multiplier(4.5, parity_threshold=3.0) == pytest.approx(3.0 / 4.5)

    def test_threshold_validation(self):
        for threshold in (0.5, float("nan")):
            with pytest.raises(ValidationFailure):
                fairness_multiplier(1.5, parity_threshold=threshold)

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            r = float(rng.uniform(1.0, 50.0))
            m = fairness_multiplier(r)
            assert 0.0 < m <= 1.0

    def test_monotone_non_increasing_in_ratio(self):
        ratios = np.linspace(1.0, 12.0, 200)
        mults = [fairness_multiplier(float(r)) for r in ratios]
        assert all(a >= b for a, b in zip(mults, mults[1:]))

    def test_continuous_at_threshold(self):
        eps = 1e-9
        below = fairness_multiplier(DEFAULT_PARITY_THRESHOLD - eps)
        above = fairness_multiplier(DEFAULT_PARITY_THRESHOLD + eps)
        assert below == 1.0
        assert abs(above - 1.0) <= 1e-8


class TestSynthScore:
    def test_penalized_case(self):
        score = synth_score(0.91, 2.67)
        assert score.synth_score == pytest.approx(0.68, abs=0.005)
        assert score.fairness_mult == pytest.approx(0.75, abs=0.005)
        assert not score.parity_ok

    def test_parity_case_keeps_quality(self):
        score = synth_score(0.77, 1.57)
        assert score.synth_score == 0.77
        assert score.fairness_mult == 1.0
        assert score.parity_ok

    def test_perfect_parity(self):
        score = synth_score(0.60, 1.00)
        assert score.synth_score == 0.60
        assert score.parity_ok

    def test_infinite_ratio(self):
        score = synth_score(0.95, INFINITE)
        assert score.synth_score == 0.0
        assert score.fairness_mult == 0.0
        assert not score.parity_ok

    def test_undefined_ratio(self):
        score = synth_score(0.8, UNDEFINED)
        assert score.synth_score == 0.8
        assert score.ratio_undefined
        assert not score.parity_ok

    def test_quality_out_of_range(self):
        with pytest.raises(QualityOutOfRange):
            synth_score(1.2, 1.0)
        with pytest.raises(QualityOutOfRange):
            synth_score(-0.1, 1.0)
        with pytest.raises(QualityOutOfRange):
            synth_score(float("nan"), 1.0)

    @pytest.mark.parametrize("ratio", [float("nan"), 0.5, 0.0, -1.0])
    def test_ratio_below_one_or_nan_is_rejected(self, ratio):
        # A max/min FPR ratio is at least 1; max_relative_fpr never gives less.
        with pytest.raises(ValidationFailure, match="max_rel_fpr"):
            synth_score(0.5, ratio)

    def test_boundary_qualities_allowed(self):
        assert synth_score(0.0, 1.0).synth_score == 0.0
        assert synth_score(1.0, 1.0).synth_score == 1.0

    def test_score_never_exceeds_quality(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            q = float(rng.random())
            r = float(rng.uniform(1.0, 20.0))
            s = synth_score(q, r)
            assert s.synth_score <= q + 1e-15
            assert 0.0 <= s.synth_score <= 1.0

    def test_monotone_in_quality_for_fixed_ratio(self):
        for ratio in (1.0, 2.0, 3.5, INFINITE):
            qualities = np.linspace(0.0, 1.0, 50)
            scores = [synth_score(float(q), ratio).synth_score for q in qualities]
            assert all(a <= b for a, b in zip(scores, scores[1:]))

    def test_monotone_in_ratio_for_fixed_quality(self):
        ratios = [1.0, 1.5, 2.0, 2.5, 3.0, 5.0, 10.0, INFINITE]
        scores = [synth_score(0.9, r).synth_score for r in ratios]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_degenerate_flag_carried(self):
        score = synth_score(0.5, 1.0, degenerate=True)
        assert score.degenerate
        assert score.synth_score == 0.5

    def test_parity_ok_semantics(self):
        assert synth_score(0.5, 1.9).parity_ok
        assert synth_score(0.5, 2.0).parity_ok
        assert not synth_score(0.5, 2.0 + 1e-9).parity_ok
        assert not synth_score(0.5, INFINITE).parity_ok
        assert not synth_score(0.5, UNDEFINED).parity_ok

    def test_multiplication_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            q = float(rng.random())
            r = float(rng.uniform(1.0, 10.0))
            s = synth_score(q, r)
            assert math.isclose(s.synth_score, q * s.fairness_mult, rel_tol=0, abs_tol=1e-15)

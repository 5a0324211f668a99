"""Composite supervisor signal: synth_score = quality x fairness multiplier.

The multiplier is 1 inside the parity threshold and parity_threshold/ratio
beyond it; an infinite FPR ratio zeroes the score and an undefined ratio
(nothing to compare) leaves quality untouched but is flagged.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .errors import QualityOutOfRange, ValidationFailure
from .tstr import UNDEFINED

logger = logging.getLogger(__name__)

DEFAULT_PARITY_THRESHOLD = 2.0


@dataclass(frozen=True)
class CompositeScore:
    quality: float
    max_rel_fpr: float | None  # float('inf') for INFINITE, None for UNDEFINED
    fairness_mult: float
    synth_score: float
    parity_threshold: float
    degenerate: bool
    parity_ok: bool
    ratio_undefined: bool


def fairness_multiplier(max_rel_fpr, parity_threshold: float = DEFAULT_PARITY_THRESHOLD) -> float:
    """1.0 at or below the parity threshold, parity_threshold/ratio beyond it;
    infinity gives 0.0 and an undefined ratio gives 1.0 with a warning."""
    if not (parity_threshold >= 1.0):
        raise ValidationFailure("parity_threshold must be >= 1")
    if max_rel_fpr is UNDEFINED:
        logger.warning("max relative FPR undefined (no comparable groups); no fairness penalty applied")
        return 1.0
    if math.isinf(max_rel_fpr):
        return 0.0
    if max_rel_fpr <= parity_threshold:
        return 1.0
    return min(1.0, parity_threshold / max_rel_fpr)


def synth_score(
    quality: float,
    max_rel_fpr,
    parity_threshold: float = DEFAULT_PARITY_THRESHOLD,
    degenerate: bool = False,
) -> CompositeScore:
    """CompositeScore with synth_score = quality * fairness_mult; parity_ok
    holds iff the ratio is defined and at most parity_threshold."""
    if not (0.0 <= quality <= 1.0):
        raise QualityOutOfRange(f"quality {quality!r} outside [0, 1]")
    ratio_undefined = max_rel_fpr is UNDEFINED
    mult = fairness_multiplier(max_rel_fpr, parity_threshold)
    parity_ok = (
        not ratio_undefined
        and not math.isinf(max_rel_fpr)
        and max_rel_fpr <= parity_threshold
    )
    return CompositeScore(
        quality=quality,
        max_rel_fpr=max_rel_fpr,
        fairness_mult=mult,
        synth_score=quality * mult,
        parity_threshold=parity_threshold,
        degenerate=degenerate,
        parity_ok=parity_ok,
        ratio_undefined=ratio_undefined,
    )

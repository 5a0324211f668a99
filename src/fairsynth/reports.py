"""Report emission with byte-level determinism.

All JSON documents are rendered with fixed key order and floats formatted to
exactly 6 decimal places, so identical inputs produce identical bytes. An
infinite FPR ratio serializes as the string "inf" and an undefined one as
"undefined".
"""

from __future__ import annotations

import json
import math
from contextlib import ExitStack
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable

from .copula import NATIVE_BACKENDS
from .errors import FairsynthError, ValidationFailure
from .external import ExternalBackend
from .quality import QualityReport
from .schema import Dataset, Metadata, SplitSpec, write_csv
from .scoring import CompositeScore
from .supervisor import (
    PipelineResult,
    RunConfig,
    SupervisorResult,
    Targets,
    evaluate_synthetic,
    launch_synthesis,
    run_pipeline,
    split_for,
)
from .tstr import FairnessReport

QUALITY_JSON = "sdmetrics_quality_report.json"
FAIRNESS_JSON = "fairness_metrics.json"
SUMMARY_JSON = "run_summary.json"
SYNTHETIC_CSV = "synthetic.csv"
BENCH_JSON = "bench_results.json"
BENCH_TABLE = "bench_table.txt"


def _render(value, indent: int = 0) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationFailure("non-finite float reached the JSON writer")
        return "%.6f" % value
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {_render(str(k))}: {_render(v, indent + 1)}' for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(f"{pad}  {_render(v, indent + 1)}" for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    raise ValidationFailure(f"cannot serialize {type(value).__name__} to report JSON")


def render_json(doc) -> str:
    """Deterministic JSON text (insertion-order keys, %.6f floats)."""
    return _render(doc) + "\n"


def ratio_value(ratio):
    """JSON form of a max-relative-FPR value: number, "inf", or "undefined"."""
    if ratio is None:
        return "undefined"
    if math.isinf(ratio):
        return "inf"
    return float(ratio)


def ratio_from_json(value):
    if value == "undefined":
        return None
    if value == "inf":
        return float("inf")
    return float(value)


def quality_doc(quality: QualityReport) -> dict:
    return {
        "overall_score": quality.overall_score,
        "column_shapes": {
            "score": quality.shapes_average,
            "per_column": {
                name: {"metric": metric, "score": score}
                for name, (metric, score) in quality.shapes.items()
            },
        },
        "column_pair_trends": {
            "score": quality.trends_average,
            "per_pair": [
                {"a": a, "b": b, "metric": metric, "score": score}
                for a, b, metric, score in quality.pair_trends
            ],
        },
    }


def fairness_doc(fairness: FairnessReport, composite: CompositeScore) -> dict:
    return {
        "tstr": {
            "model": "logistic_regression",
            "threshold": fairness.threshold,
            "degenerate": fairness.degenerate,
        },
        "by_attribute": {
            attr: {
                "fpr": {g: ratio_value(v) for g, v in entry.fpr.items()},
                "max_rel_fpr": ratio_value(entry.max_rel_fpr),
            }
            for attr, entry in fairness.by_attribute.items()
        },
        "max_rel_fpr": ratio_value(fairness.max_rel_fpr),
        "fairness_mult": composite.fairness_mult,
        "quality": composite.quality,
        "synth_score": composite.synth_score,
    }


def config_doc(config: RunConfig) -> dict:
    return asdict(config)  # keys in field order


def scores_doc(composite: CompositeScore) -> dict:
    return {
        "quality": composite.quality,
        "max_rel_fpr": ratio_value(composite.max_rel_fpr),
        "fairness_mult": composite.fairness_mult,
        "synth_score": composite.synth_score,
        "parity_ok": composite.parity_ok,
        "degenerate": composite.degenerate,
    }


def history_doc(history) -> list:
    entries = []
    for entry in history:
        doc = {
            "config": config_doc(entry.config),
            "scores": scores_doc(entry.result.composite) if entry.result is not None else None,
            "action_taken": entry.action_taken,
        }
        if entry.error is not None:
            doc["error"] = entry.error
        entries.append(doc)
    return entries


def summary_doc(result: SupervisorResult) -> dict:
    return {
        "stop_reason": result.stop_reason,
        "best_iteration": result.best_iteration,
        "history": history_doc(result.history),
    }


def failed_summary_doc(history) -> dict:
    return {
        "stop_reason": "all_failed",
        "best_iteration": None,
        "history": history_doc(history),
    }


def write_reports(
    quality: QualityReport,
    fairness: FairnessReport,
    composite: CompositeScore,
    synthetic: Dataset | None,
    out_dir: str | Path,
    summary: dict | None = None,
) -> None:
    """Write the quality/fairness JSON reports, plus the synthetic CSV and the
    run summary when given; re-emitting the same inputs is byte-identical."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / QUALITY_JSON).write_text(render_json(quality_doc(quality)), encoding="utf-8")
    (out / FAIRNESS_JSON).write_text(
        render_json(fairness_doc(fairness, composite)), encoding="utf-8"
    )
    if synthetic is not None:
        write_csv(synthetic, out / SYNTHETIC_CSV)
    if summary is not None:
        (out / SUMMARY_JSON).write_text(render_json(summary), encoding="utf-8")


@dataclass(frozen=True)
class BenchRow:
    backend: str
    # The backend's record without its synthetic table (None: the backend failed).
    result: PipelineResult | None = None
    error: str | None = None

    # Read-only views of the record's composite score.
    quality = property(lambda self: self.result.composite.quality)
    max_rel_fpr = property(lambda self: self.result.composite.max_rel_fpr)
    synth_score = property(lambda self: self.result.composite.synth_score)
    degenerate = property(lambda self: self.result.composite.degenerate)


@dataclass(frozen=True)
class BenchResult:
    config: RunConfig
    rows: tuple[BenchRow, ...]


def _bench_row(backend: str, pipeline: Callable[[], PipelineResult]) -> BenchRow:
    """The row of ``pipeline()``, or of the FairsynthError it raises."""
    try:
        # No bench output reads the synthetic table, and a row that kept it
        # raised backends-bench's peak RSS beyond noise.
        return BenchRow(backend, replace(pipeline(), synthetic=None))
    except FairsynthError as exc:
        return BenchRow(backend, error=str(exc))


def batch_evaluate(
    backends: list[str],
    config: RunConfig,
    targets: Targets,
    data: Dataset,
    metadata: Metadata,
    spec: SplitSpec | None = None,
    external_backends: dict[str, ExternalBackend] | None = None,
) -> BenchResult:
    """One full pipeline per backend (no refinement) with a shared split and
    seed; per-backend failures land in their row, the rest still run. The
    split is drawn once, by ``split_for`` before any backend runs, so a
    train_rows the table cannot supply raises InsufficientRows, and every
    backend is scored against that one ``Split`` and its holdout side.

    The first external backend's process is launched before the native
    backends are fitted, and runs while they are evaluated; the other
    externals then run one after another, so at most one external process
    runs at a time and evaluations stay serial. The rows, in list order, are
    those of one ``run_pipeline`` per backend, with one exception: the first
    external, if it has exited by the time it is waited for, is judged by its
    exit code even when the natives took it past its ``timeout_seconds``.
    """
    if not backends:
        raise ValidationFailure("bench needs at least one backend")
    if spec is None:
        spec = SplitSpec(train_rows=config.train_rows, seed=config.seed)
    split = split_for(config, data, spec)
    threshold = targets.parity_threshold
    configs = [replace(config, backend=backend) for backend in backends]
    externals = [i for i, cfg in enumerate(configs) if cfg.backend not in NATIVE_BACKENDS]
    rows: dict[int, BenchRow] = {}
    with ExitStack() as stack:
        synthesize = None
        if externals:
            first = externals.pop(0)
            try:
                synthesize = launch_synthesis(
                    configs[first], split, metadata, external_backends, stack
                )
            except FairsynthError as exc:
                rows[first] = BenchRow(backend=backends[first], error=str(exc))
        for i, cfg in enumerate(configs):
            if cfg.backend in NATIVE_BACKENDS:
                rows[i] = _bench_row(
                    backends[i], lambda: run_pipeline(cfg, split, metadata, threshold)
                )
        if synthesize is not None:
            rows[first] = _bench_row(
                backends[first],
                lambda: evaluate_synthetic(synthesize(), split, metadata, threshold),
            )
    for i in externals:
        rows[i] = _bench_row(
            backends[i],
            lambda: run_pipeline(configs[i], split, metadata, threshold, external_backends),
        )
    return BenchResult(config=config, rows=tuple(rows[i] for i in range(len(backends))))


def bench_doc(result: BenchResult) -> dict:
    rows = []
    for row in result.rows:
        if row.error is not None:
            rows.append({"backend": row.backend, "error": row.error})
        else:
            rows.append(
                {
                    "backend": row.backend,
                    "quality": row.quality,
                    "max_rel_fpr": ratio_value(row.max_rel_fpr),
                    "synth_score": row.synth_score,
                    "degenerate": row.degenerate,
                }
            )
    return {"config": config_doc(result.config), "rows": rows}


def cell(value) -> str:
    """Plain-text form of a table value: %.6f floats, "inf", "undefined", yes/no."""
    if value is None:
        return "undefined"
    if value is True:
        return "yes"
    if value is False:
        return "no"
    if isinstance(value, float):
        return "inf" if math.isinf(value) else "%.6f" % value
    return str(value)


def bench_table(result: BenchResult) -> str:
    """Aligned plain-text table of ``bench_doc``'s rows; failed backends show ERROR."""
    header = ("backend", "quality", "max_rel_fpr", "synth_score", "degenerate")
    rows = bench_doc(result)["rows"]
    body = [tuple(cell(row.get(key, "ERROR")) for key in header) for row in rows]
    widths = [max(len(r[i]) for r in [header, *body]) for i in range(len(header))]
    lines = []
    for r in [header, *body]:
        lines.append("  ".join(text.ljust(widths[i]) for i, text in enumerate(r)).rstrip())
    return "\n".join(lines) + "\n"

"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics; run.py
refuses to print a result whose metric names differ from these lists.
"""

from __future__ import annotations

#: (name, unit, better, bound) for the untraced run (``--trace 0``). ``bound``
#: is the share of the parent's median by which a metric may worsen.
END_TO_END = (
    ("job_s", "s", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("job_ok_frac", "ratio", "higher", 0.01),
    ("quality_score", "score", "higher", 0.02),
)


def _unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("synth_score"):
        return "score"
    return "count"


_PER_LAYER_NAMES = (
    # schema: CSV ingest and write, holdout split
    "schema.load_dataset.s",
    "schema.load_dataset.rows",
    "schema.write_csv.s",
    "schema.write_csv.rows",
    "schema.split_holdout.s",
    "schema.split_holdout.calls",
    "schema.self_s",
    # copula: fit and sample
    "copula.fit.s",
    "copula.fit.calls",
    "copula.fit.rows",
    "copula.sample.s",
    "copula.sample.rows",
    "copula.self_s",
    # quality: fidelity report and its per-column / per-pair metrics
    "quality.quality_report.s",
    "quality.quality_report.calls",
    "quality.contingency_similarity.s",
    "quality.contingency_similarity.calls",
    "quality.correlation_similarity.s",
    "quality.correlation_similarity.calls",
    "quality.ks_complement.s",
    "quality.tv_complement.s",
    "quality.quantile_bin_edges.calls",
    "quality.self_s",
    # tstr: encoder, logistic regression, group FPR
    "tstr.fairness_report.s",
    "tstr.fit_encoder.s",
    "tstr.encode.s",
    "tstr.encode.rows",
    "tstr.train_logreg.s",
    "tstr.train_logreg.calls",
    "tstr.train_logreg.converged_frac",
    "tstr.logistic_gradient.calls",
    "tstr.logistic_loss.calls",
    "tstr.predict.s",
    "tstr.group_fpr.s",
    "tstr.self_s",
    # supervisor: refinement loop and pipeline passes
    "supervisor.supervise.s",
    "supervisor.run_pipeline.s",
    "supervisor.run_pipeline.calls",
    "supervisor.run_pipeline.self_s",
    "supervisor.iterations_failed",
    "supervisor.balance_groups.s",
    "supervisor.self_s",
    # reports: artifact rendering and writing, batch evaluation
    "reports.write_reports.s",
    "reports.render_json.s",
    "reports.artifact_bytes",
    "reports.batch_evaluate.s",
    "reports.self_s",
    # external: subprocess backends
    "external.run_external_backend.s",
    "external.run_external_backend.calls",
    "external.run_external_backend.failed",
    "external.run_external_backend.self_s",
    # cli: argument parsing and glue
    "cli.main.s",
    "cli.main.self_s",
    # the job's composite score: deterministic per seed, not steady across seeds
    "scoring.synth_score",
    # tracing itself
    "bench.self_s",
    "trace.self_sum_s",
    "trace.job_s",
    "trace.untraced_job_s",
    "trace.overhead_s",
)

_HIGHER_IS_BETTER = ("tstr.train_logreg.converged_frac", "scoring.synth_score")

#: (name, unit, better) for the traced run (``--trace 1``). Times, call and
#: row counts and failures are better lower: they are work done or lost.
PER_LAYER = tuple(
    (name, _unit(name), "higher" if name in _HIGHER_IS_BETTER else "lower")
    for name in _PER_LAYER_NAMES
)

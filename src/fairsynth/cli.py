"""Command-line surface.

Subcommands: fit, sample, evaluate, score, run (single pipeline), supervise
(refinement loop), bench (one pipeline per backend), demo (bundled dataset
generator). Exit codes: 0 success, 1 validation/usage error, 2 runtime
failure. The MEMISIS_SEED environment variable overrides --seed when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .copula import NATIVE_BACKENDS, SynthesizerConfig, fit, load_model, sample, save_model
from .demo import DemoSpec, demo_metadata, make_demo_dataset
from .errors import (
    AllIterationsFailed,
    FairsynthError,
    ValidationFailure,
)
from .external import load_backends_file
from .quality import quality_report
from .reports import (
    BENCH_JSON,
    BENCH_TABLE,
    FAIRNESS_JSON,
    QUALITY_JSON,
    SUMMARY_JSON,
    batch_evaluate,
    bench_doc,
    bench_table,
    cell,
    failed_summary_doc,
    fairness_doc,
    quality_doc,
    ratio_from_json,
    render_json,
    summary_doc,
    write_reports,
)
from .schema import (
    Dataset,
    Metadata,
    SplitSpec,
    _read_json,
    load_dataset,
    load_synthetic,
    split_holdout,
    write_csv,
)
from .scoring import synth_score
from .supervisor import RunConfig, Targets, supervise
from .tstr import fairness_report

SEED_ENV_VAR = "MEMISIS_SEED"

DEMO_CSV = "demo.csv"
DEMO_METADATA_JSON = "metadata.json"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the CLI contract wants 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="real dataset CSV")
    p.add_argument("--metadata", required=True, help="metadata JSON")


def _add_pipeline_flags(p: argparse.ArgumentParser, backend: bool = True) -> None:
    if backend:
        p.add_argument("--backend", default="gaussian_copula", help="synthesizer backend name")
    p.add_argument("--train-rows", type=int, default=1000)
    p.add_argument("--sample-rows", type=int, default=500)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--holdout-fraction", type=float, default=0.3)
    p.add_argument("--shrinkage", type=float, default=0.0, help="correlation shrinkage in [0, 1]")
    p.add_argument("--parity-threshold", type=float, default=2.0)
    p.add_argument("--min-score", type=float, default=0.7)
    p.add_argument("--backends-file", default=None, help="JSON list of external backend descriptors")


def _build_parser() -> _Parser:
    parser = _Parser(prog="fairsynth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("demo", help="generate the bundled demo dataset")
    p.add_argument("--rows", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--disparity", type=float, default=0.3)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("fit", help="fit a synthesizer on the train split")
    _add_data_flags(p)
    _add_pipeline_flags(p)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sample", help="sample rows from a fitted model")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--rows", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="synthetic CSV path")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("evaluate", help="score an existing synthetic CSV against the holdout")
    _add_data_flags(p)
    p.add_argument("--synthetic", required=True, help="synthetic CSV path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--holdout-fraction", type=float, default=0.3)
    p.add_argument("--parity-threshold", type=float, default=2.0)
    p.add_argument("--out", required=True, help="output directory for the reports")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("score", help="recompute the composite from existing reports")
    p.add_argument("--quality", required=True, help=f"path to {QUALITY_JSON}")
    p.add_argument("--fairness", required=True, help=f"path to {FAIRNESS_JSON}")
    p.add_argument("--parity-threshold", type=float, default=2.0)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("run", help="single pipeline run, no refinement")
    _add_data_flags(p)
    _add_pipeline_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("supervise", help="bounded refinement loop")
    _add_data_flags(p)
    _add_pipeline_flags(p)
    p.add_argument("--max-refinements", type=int, default=3)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_supervise)

    p = sub.add_parser("bench", help="one pipeline per backend, aligned table out")
    _add_data_flags(p)
    _add_pipeline_flags(p, backend=False)
    p.add_argument(
        "--backends",
        default="gaussian_copula,independent",
        help="comma-separated backend names",
    )
    p.add_argument("--out", default=None, help="optional output directory")
    p.set_defaults(func=cmd_bench)

    return parser


def _load_inputs(args) -> tuple[Dataset, Metadata]:
    metadata = Metadata.from_json_file(args.metadata)
    data = load_dataset(args.data, metadata)
    return data, metadata


def _external_backends(args):
    if getattr(args, "backends_file", None):
        return load_backends_file(args.backends_file)
    return {}


def _check_backend(name: str, external: dict) -> None:
    if name not in NATIVE_BACKENDS and name not in external:
        valid = ", ".join([*NATIVE_BACKENDS, *sorted(external)])
        raise ValidationFailure(f"unknown backend {name!r}; valid backends: {valid}")


def _run_config(args, backend: str) -> RunConfig:
    return RunConfig(
        backend=backend,
        train_rows=args.train_rows,
        sample_rows=args.sample_rows,
        epochs=args.epochs,
        seed=args.seed,
        correlation_shrinkage=args.shrinkage,
    )


def _print_composite(composite) -> None:
    print(
        f"synth_score {cell(composite.synth_score)} (quality {cell(composite.quality)}, "
        f"max_rel_fpr {cell(composite.max_rel_fpr)}, "
        f"fairness_mult {cell(composite.fairness_mult)}, "
        f"parity_ok {cell(composite.parity_ok)}, degenerate {cell(composite.degenerate)})"
    )


def cmd_demo(args) -> int:
    spec = DemoSpec(n_rows=args.rows, seed=args.seed, disparity_strength=args.disparity)
    data = make_demo_dataset(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / DEMO_CSV
    metadata_path = out / DEMO_METADATA_JSON
    write_csv(data, csv_path)
    metadata_path.write_text(
        json.dumps(demo_metadata().to_json_dict(), indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {csv_path} ({data.row_count} rows) and {metadata_path}")
    return 0


def cmd_fit(args) -> int:
    external = _external_backends(args)
    _check_backend(args.backend, external)
    if args.backend not in NATIVE_BACKENDS:
        raise ValidationFailure(
            f"fit persists native models only; backend {args.backend!r} is external"
        )
    # The native fit is closed-form; --epochs is validated like run's.
    if args.epochs < 1:
        raise ValidationFailure("epochs must be >= 1")
    data, metadata = _load_inputs(args)
    split = SplitSpec(args.train_rows, args.holdout_fraction, args.seed)
    train, _ = split_holdout(data, split)
    config = SynthesizerConfig(
        backend=args.backend, seed=args.seed, correlation_shrinkage=args.shrinkage
    )
    model = fit(train, config)
    save_model(model, args.out)
    print(f"fitted {args.backend} on {train.row_count} rows -> {args.out}")
    return 0


def cmd_sample(args) -> int:
    model = load_model(args.model)
    data = sample(model, args.rows, args.seed)
    write_csv(data, args.out)
    print(f"sampled {data.row_count} rows -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    data, metadata = _load_inputs(args)
    synth = load_synthetic(args.synthetic, metadata, data.schema)
    # The holdout does not depend on train_rows; one train row must remain.
    _, holdout = split_holdout(data, SplitSpec(1, args.holdout_fraction, args.seed))
    quality = quality_report(holdout, synth, holdout.schema)
    fairness = fairness_report(synth, holdout, metadata)
    composite = synth_score(
        quality.overall_score,
        fairness.max_rel_fpr,
        args.parity_threshold,
        degenerate=fairness.degenerate,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / QUALITY_JSON).write_text(render_json(quality_doc(quality)), encoding="utf-8")
    (out / FAIRNESS_JSON).write_text(
        render_json(fairness_doc(fairness, composite)), encoding="utf-8"
    )
    _print_composite(composite)
    return 0


def cmd_score(args) -> int:
    q_doc, f_doc = _read_json(args.quality), _read_json(args.fairness)
    try:
        quality = float(q_doc["overall_score"])
        ratio = ratio_from_json(f_doc["max_rel_fpr"])
        degenerate = bool(f_doc["tstr"]["degenerate"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationFailure(f"malformed report JSON: {exc}")
    composite = synth_score(quality, ratio, args.parity_threshold, degenerate=degenerate)
    _print_composite(composite)
    return 0


def _supervised_run(args, max_refinements: int) -> int:
    external = _external_backends(args)
    _check_backend(args.backend, external)
    data, metadata = _load_inputs(args)
    config = _run_config(args, args.backend)
    split = SplitSpec(args.train_rows, args.holdout_fraction, args.seed)
    targets = Targets(
        min_synth_score=args.min_score,
        parity_threshold=args.parity_threshold,
        max_refinements=max_refinements,
    )
    out = Path(args.out)
    try:
        result = supervise(config, data, metadata, split, targets, external)
    except AllIterationsFailed as exc:
        out.mkdir(parents=True, exist_ok=True)
        (out / SUMMARY_JSON).write_text(
            render_json(failed_summary_doc(exc.history)), encoding="utf-8"
        )
        raise
    write_reports(
        result.best_quality,
        result.best_fairness,
        result.best_composite,
        result.best_synthetic,
        out,
        summary=summary_doc(result),
    )
    print(
        f"stop_reason {result.stop_reason}, best_iteration {result.best_iteration}, "
        f"{len(result.history)} pipeline run(s) -> {out}"
    )
    _print_composite(result.best_composite)
    return 0


def cmd_run(args) -> int:
    return _supervised_run(args, max_refinements=0)


def cmd_supervise(args) -> int:
    return _supervised_run(args, max_refinements=args.max_refinements)


def cmd_bench(args) -> int:
    external = _external_backends(args)
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    if not backends:
        raise ValidationFailure("--backends must name at least one backend")
    for b in backends:
        _check_backend(b, external)
    data, metadata = _load_inputs(args)
    config = _run_config(args, backends[0])
    split = SplitSpec(args.train_rows, args.holdout_fraction, args.seed)
    targets = Targets(min_synth_score=args.min_score, parity_threshold=args.parity_threshold)
    result = batch_evaluate(backends, config, targets, data, metadata, split, external)
    table = bench_table(result)
    print(table, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / BENCH_JSON).write_text(render_json(bench_doc(result)), encoding="utf-8")
        (out / BENCH_TABLE).write_text(table, encoding="utf-8")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        if hasattr(args, "seed") and SEED_ENV_VAR in os.environ:
            raw = os.environ[SEED_ENV_VAR]
            try:
                args.seed = int(raw)
            except ValueError:
                raise ValidationFailure(f"{SEED_ENV_VAR}={raw!r} is not an integer")
        if getattr(args, "seed", 0) < 0:
            raise ValidationFailure(f"seed must be non-negative, got {args.seed}")
        return args.func(args)
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FairsynthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

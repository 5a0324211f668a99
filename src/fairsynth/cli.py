"""Command-line surface.

Subcommands: fit, sample, evaluate, score, run (single pipeline), supervise
(refinement loop), bench (one pipeline per backend), demo (bundled dataset
generator). Exit codes: 0 success, 1 validation/usage error, 2 runtime
failure. The MEMISIS_SEED environment variable overrides --seed when set.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .copula import NATIVE_BACKENDS, fit, load_model, sample, save_model, shrink_correlation
from .demo import DemoSpec, demo_metadata, make_demo_dataset
from .errors import (
    AllIterationsFailed,
    FairsynthError,
    ValidationFailure,
)
from .external import load_backends_file
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
    ratio_from_json,
    render_json,
    scores_doc,
    summary_doc,
    write_reports,
)
from .schema import (
    Dataset,
    Metadata,
    SplitSpec,
    _read_json,
    load_dataset,
    split_holdout,
    write_csv,
)
from .scoring import DEFAULT_PARITY_THRESHOLD, synth_score
from .supervisor import RunConfig, Split, Targets, check_backend, evaluate_synthetic, supervise

SEED_ENV_VAR = "MEMISIS_SEED"

DEMO_CSV = "demo.csv"
DEMO_METADATA_JSON = "metadata.json"


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the CLI contract wants 1
    and one ``error:`` line."""

    def error(self, message):
        raise ValidationFailure(f"{self.prog}: {message}")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="real dataset CSV")
    p.add_argument("--metadata", required=True, help="metadata JSON")


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    """The flags fit shares with run, supervise and bench."""
    _add_data_flags(p)
    p.add_argument("--train-rows", type=int, default=RunConfig.train_rows)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--holdout-fraction", type=float, default=SplitSpec.holdout_fraction)
    p.add_argument(
        "--shrinkage",
        type=float,
        default=RunConfig.correlation_shrinkage,
        help="correlation shrinkage in [0, 1]",
    )


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    """The flags run, supervise and bench share."""
    _add_fit_flags(p)
    p.add_argument("--sample-rows", type=int, default=RunConfig.sample_rows)
    p.add_argument("--epochs", type=int, default=RunConfig.epochs)
    p.add_argument("--parity-threshold", type=float, default=Targets.parity_threshold)
    p.add_argument("--backends-file", help="JSON list of external backend descriptors")


def _build_parser() -> _Parser:
    parser = _Parser(prog="fairsynth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("demo", help="generate the bundled demo dataset")
    p.add_argument("--rows", type=int, default=DemoSpec.n_rows)
    p.add_argument("--seed", type=int, default=DemoSpec.seed)
    p.add_argument("--disparity", type=float, default=DemoSpec.disparity_strength)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("fit", help="fit a native synthesizer on the train split")
    _add_fit_flags(p)
    p.add_argument("--backend", choices=NATIVE_BACKENDS, default=RunConfig.backend)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sample", help="sample rows from a fitted model")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--rows", type=int, default=RunConfig.sample_rows)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--out", required=True, help="synthetic CSV path")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("evaluate", help="score an existing synthetic CSV against the holdout")
    _add_data_flags(p)
    p.add_argument("--synthetic", required=True, help="synthetic CSV path")
    p.add_argument("--seed", type=int, default=SplitSpec.seed)
    p.add_argument("--holdout-fraction", type=float, default=SplitSpec.holdout_fraction)
    p.add_argument("--parity-threshold", type=float, default=DEFAULT_PARITY_THRESHOLD)
    p.add_argument("--out", required=True, help="output directory for the reports")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("score", help="recompute the composite from existing reports")
    p.add_argument("--quality", required=True, help=f"path to {QUALITY_JSON}")
    p.add_argument("--fairness", required=True, help=f"path to {FAIRNESS_JSON}")
    p.add_argument("--parity-threshold", type=float, default=DEFAULT_PARITY_THRESHOLD)
    p.set_defaults(func=cmd_score)

    # run is supervise with no refinement budget.
    run_p = sub.add_parser("run", help="single pipeline run, no refinement")
    supervise_p = sub.add_parser("supervise", help="bounded refinement loop")
    for p in (run_p, supervise_p):
        _add_pipeline_flags(p)
        p.add_argument("--backend", default=RunConfig.backend, help="synthesizer backend name")
        p.add_argument("--min-score", type=float, default=Targets.min_synth_score)
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=cmd_supervise)
    run_p.set_defaults(max_refinements=0)
    supervise_p.add_argument("--max-refinements", type=int, default=Targets.max_refinements)

    p = sub.add_parser("bench", help="one pipeline per backend, aligned table out")
    _add_pipeline_flags(p)
    p.add_argument(
        "--backends", default=",".join(NATIVE_BACKENDS), help="comma-separated backend names"
    )
    p.add_argument("--out", help="optional output directory")
    p.set_defaults(func=cmd_bench)

    return parser


def _load_inputs(args) -> tuple[Dataset, Metadata]:
    metadata = Metadata.from_json_file(args.metadata)
    data = load_dataset(args.data, metadata)
    return data, metadata


def _external_backends(args):
    return load_backends_file(args.backends_file) if args.backends_file else {}


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
    """One line of ``scores_doc``'s fields: synth_score, then the rest."""
    doc = scores_doc(composite)
    score = cell(doc.pop("synth_score"))
    print(f"synth_score {score} ({', '.join(f'{k} {cell(v)}' for k, v in doc.items())})")


def cmd_demo(args) -> int:
    spec = DemoSpec(n_rows=args.rows, seed=args.seed, disparity_strength=args.disparity)
    data = make_demo_dataset(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / DEMO_CSV
    metadata_path = out / DEMO_METADATA_JSON
    write_csv(data, csv_path)
    demo_metadata().to_json_file(metadata_path)
    print(f"wrote {csv_path} ({data.row_count} rows) and {metadata_path}")
    return 0


def cmd_fit(args) -> int:
    data, metadata = _load_inputs(args)
    split = SplitSpec(args.train_rows, args.holdout_fraction, args.seed)
    train, _ = split_holdout(data, split)
    save_model(shrink_correlation(fit(train, args.backend, args.seed), args.shrinkage), args.out)
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
    synth = load_dataset(args.synthetic, metadata, pinned=data.schema)
    # The holdout does not depend on train_rows, and evaluate reads no train row.
    split = Split(*split_holdout(data, SplitSpec(1, args.holdout_fraction, args.seed)))
    result = evaluate_synthetic(synth, split, metadata, args.parity_threshold)
    write_reports(
        result.quality, result.fairness, result.composite, synthetic=None, out_dir=args.out
    )
    _print_composite(result.composite)
    return 0


def _finite_number(value) -> bool:
    """A JSON number as the report writer emits one: finite, not a boolean."""
    return type(value) in (int, float) and -sys.float_info.max <= value <= sys.float_info.max


def cmd_score(args) -> int:
    q_doc, f_doc = _read_json(args.quality), _read_json(args.fairness)
    try:
        quality, ratio = q_doc["overall_score"], f_doc["max_rel_fpr"]
        degenerate = f_doc["tstr"]["degenerate"]
        # Only the forms the report writer emits are read; none is coerced.
        if not _finite_number(quality):
            raise ValueError(f"overall_score {quality!r} is not a number")
        if not (ratio in ("inf", "undefined") or _finite_number(ratio) and ratio >= 1):
            raise ValueError(f'max_rel_fpr {ratio!r} is not a number >= 1, "inf" or "undefined"')
        if type(degenerate) is not bool:
            raise ValueError(f"degenerate {degenerate!r} is not a boolean")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationFailure(f"malformed report JSON: {exc}")
    composite = synth_score(
        float(quality), ratio_from_json(ratio), args.parity_threshold, degenerate=degenerate
    )
    _print_composite(composite)
    return 0


def cmd_supervise(args) -> int:
    external = _external_backends(args)
    data, metadata = _load_inputs(args)
    config = _run_config(args, args.backend)
    split = SplitSpec(args.train_rows, args.holdout_fraction, args.seed)
    targets = Targets(
        min_synth_score=args.min_score,
        parity_threshold=args.parity_threshold,
        max_refinements=args.max_refinements,
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


def cmd_bench(args) -> int:
    external = _external_backends(args)
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    if not backends:
        raise ValidationFailure("--backends must name at least one backend")
    for b in backends:
        check_backend(b, external)
    data, metadata = _load_inputs(args)
    config = _run_config(args, backends[0])
    split = SplitSpec(args.train_rows, args.holdout_fraction, args.seed)
    targets = Targets(parity_threshold=args.parity_threshold)
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

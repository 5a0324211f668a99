"""The four benchmark workloads: what each job calls and how its outputs are
checked. This module runs inside the job process, where ``fairsynth`` is
importable from the checkout's ``src``.

Every job goes through fairsynth's public entry points. Functions are looked
up on their module at call time (``cli.main``, ``supervisor.supervise``), so
the tracer's wrappers are seen when a traced run installs them.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import fairsynth
from fairsynth import cli, reports, supervisor
from fairsynth.external import ExternalBackend
from fairsynth.reports import FAIRNESS_JSON, QUALITY_JSON, ratio_from_json
from fairsynth.schema import Metadata, SplitSpec
from fairsynth.supervisor import RunConfig, Targets


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: str  # input table generator in inputs.py: "demo" or "wide"
    rows: int
    preload: bool  # library workloads get the table already loaded
    #: inputs -> (job, emit). ``job(out)`` is the timed call; ``emit(out,
    #: result)`` turns its result into the artifact bytes, untimed.
    make_job: Callable[["Inputs"], tuple[Callable, Callable]]
    #: artifacts -> (synth_score, quality); raises CheckFailed.
    check: Callable[[dict[str, bytes]], tuple[float, float]]


@dataclass(frozen=True)
class Inputs:
    seed: int
    csv: Path
    metadata_json: Path
    data: object | None  # fairsynth Dataset when the workload preloads
    metadata: Metadata


class CheckFailed(Exception):
    """A job's outputs failed the benchmark's output check."""


# -- output checks --------------------------------------------------------


def _parse_json(artifacts: dict[str, bytes]) -> dict[str, dict]:
    docs = {}
    for name, blob in artifacts.items():
        if name.endswith(".json"):
            try:
                docs[name] = json.loads(blob.decode("utf-8"))
            except ValueError as exc:
                raise CheckFailed(f"{name} is not valid JSON: {exc}")
    return docs


def _recomputed_score(quality, max_rel_fpr, degenerate, threshold: float) -> float:
    return fairsynth.synth_score(
        float(quality), ratio_from_json(max_rel_fpr), threshold, degenerate=bool(degenerate)
    ).synth_score


def _same(reported: float, recomputed: float) -> bool:
    # Report floats carry 6 decimals, so a recomputation from rounded inputs
    # may differ from the rounded product in the last place.
    return abs(reported - recomputed) <= 1e-5


def check_reports(threshold: float):
    """Check for the four ``run``/``supervise`` artifacts: every JSON parses and
    the reported synth_score equals the composite recomputed from the report
    files. Returns (synth_score, quality)."""

    def check(artifacts: dict[str, bytes]) -> tuple[float, float]:
        docs = _parse_json(artifacts)
        try:
            quality = float(docs[QUALITY_JSON]["overall_score"])
            fair = docs[FAIRNESS_JSON]
            reported = float(fair["synth_score"])
            recomputed = _recomputed_score(
                quality, fair["max_rel_fpr"], fair["tstr"]["degenerate"], threshold
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckFailed(f"report files lack a field: {exc!r}")
        if not _same(reported, recomputed):
            raise CheckFailed(f"reported synth_score {reported} != recomputed {recomputed}")
        return reported, quality

    return check


def check_bench(threshold: float):
    """Check for ``bench_results.json``: it parses, no backend failed, and
    every row's synth_score equals the recomputed composite. Returns the
    means over backends."""

    def check(artifacts: dict[str, bytes]) -> tuple[float, float]:
        rows = _parse_json(artifacts)[reports.BENCH_JSON]["rows"]
        scores, qualities = [], []
        for row in rows:
            if "error" in row:
                raise CheckFailed(f"backend {row['backend']} failed: {row['error']}")
            recomputed = _recomputed_score(
                row["quality"], row["max_rel_fpr"], row["degenerate"], threshold
            )
            if not _same(float(row["synth_score"]), recomputed):
                raise CheckFailed(f"backend {row['backend']}: synth_score does not recompute")
            scores.append(float(row["synth_score"]))
            qualities.append(float(row["quality"]))
        return statistics.fmean(scores), statistics.fmean(qualities)

    return check


def _read_dir(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


def _exact_composite(composite, threshold: float) -> None:
    """In-memory form of the recomputation check, exact to the last bit, for a
    ``CompositeScore`` or a ``BenchRow`` (they share the field names)."""
    again = fairsynth.synth_score(
        composite.quality, composite.max_rel_fpr, threshold, degenerate=composite.degenerate
    ).synth_score
    if again != composite.synth_score:
        raise CheckFailed(f"synth_score {composite.synth_score} != recomputed {again}")


def digests(artifacts: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(blob).hexdigest() for name, blob in sorted(artifacts.items())}


# -- jobs -----------------------------------------------------------------

TALL_TRAIN, TALL_SAMPLE = 100_000, 50_000
REFINE_TRAIN, REFINE_SAMPLE, REFINE_ROUNDS = 20_000, 10_000, 5
WIDE_TRAIN, WIDE_SAMPLE = 10_000, 5_000
BENCH_TRAIN, BENCH_SAMPLE = 10_000, 5_000
BENCH_BACKENDS = ("gaussian_copula", "independent", "copy_train")
DEFAULT_PARITY = 2.0
STRICT_PARITY = 1.0


def _tall_run(inputs: Inputs):
    argv = [
        "run",
        "--data", str(inputs.csv),
        "--metadata", str(inputs.metadata_json),
        "--train-rows", str(TALL_TRAIN),
        "--sample-rows", str(TALL_SAMPLE),
        "--seed", str(inputs.seed),
    ]

    def job(out: Path) -> None:
        code = cli.main([*argv, "--out", str(out)])
        if code != 0:
            raise CheckFailed(f"fairsynth run exited {code}")

    return job, lambda out, result: _read_dir(out)


def _supervise_job(train: int, sample: int, rounds: int, parity: float):
    def make(inputs: Inputs):
        config = RunConfig(train_rows=train, sample_rows=sample, seed=inputs.seed)
        split = SplitSpec(train_rows=train, holdout_fraction=0.3, seed=inputs.seed)
        targets = Targets(parity_threshold=parity, max_refinements=rounds)

        def job(out: Path):
            return supervisor.supervise(config, inputs.data, inputs.metadata, split, targets)

        def emit(out: Path, result) -> dict[str, bytes]:
            _exact_composite(result.best_composite, parity)
            reports.write_reports(
                result.best_quality,
                result.best_fairness,
                result.best_composite,
                result.best_synthetic,
                out,
                summary=reports.summary_doc(result),
            )
            return _read_dir(out)

        return job, emit

    return make


def _backends_bench(inputs: Inputs):
    copy_train = ExternalBackend(
        name="copy_train",
        command=(
            sys.executable,
            "-c",
            "import shutil, sys; shutil.copy(sys.argv[1], sys.argv[2])",
            "{train_csv}",
            "{out_csv}",
        ),
    )
    config = RunConfig(train_rows=BENCH_TRAIN, sample_rows=BENCH_SAMPLE, seed=inputs.seed)
    split = SplitSpec(train_rows=BENCH_TRAIN, holdout_fraction=0.3, seed=inputs.seed)
    targets = Targets(parity_threshold=DEFAULT_PARITY)

    def job(out: Path):
        return reports.batch_evaluate(
            list(BENCH_BACKENDS),
            config,
            targets,
            inputs.data,
            inputs.metadata,
            split,
            {copy_train.name: copy_train},
        )

    def emit(out: Path, result) -> dict[str, bytes]:
        for row in result.rows:
            if row.error is None:
                _exact_composite(row, DEFAULT_PARITY)
        return {reports.BENCH_JSON: reports.render_json(reports.bench_doc(result)).encode("utf-8")}

    return job, emit


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tall-run",
            why="CLI run on a 200k-row CSV: the only workload where CSV ingest, CSV write "
            "and report write are large, and TSTR trains on its largest synthetic set",
            shape="demo",
            rows=200_000,
            preload=False,
            make_job=_tall_run,
            check=check_reports(DEFAULT_PARITY),
        ),
        Workload(
            name="refine-supervise",
            why="library supervise, 6 fixed iterations on one holdout: supervisor, copula "
            "refits and holdout work redone every iteration, no CSV",
            shape="demo",
            rows=40_000,
            preload=True,
            make_job=_supervise_job(REFINE_TRAIN, REFINE_SAMPLE, REFINE_ROUNDS, STRICT_PARITY),
            check=check_reports(STRICT_PARITY),
        ),
        Workload(
            name="wide-run",
            why="one pipeline pass on a 20k x 50 table: 1,225 column pairs make the "
            "O(d^2) quality pair path dominate",
            shape="wide",
            rows=20_000,
            preload=True,
            make_job=_supervise_job(WIDE_TRAIN, WIDE_SAMPLE, 0, DEFAULT_PARITY),
            check=check_reports(DEFAULT_PARITY),
        ),
        Workload(
            name="backends-bench",
            why="library batch_evaluate over two native backends and one external "
            "subprocess backend: the only workload that measures the external layer",
            shape="demo",
            rows=20_000,
            preload=True,
            make_job=_backends_bench,
            check=check_bench(DEFAULT_PARITY),
        ),
    )
}

"""fairsynth benchmark: one command, one workload, one seed.

    python3 perfbench/run.py --workload tall-run --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; fairsynth is imported from its ``src``. The
harness

1. generates the workload's inputs from ``--seed`` in a child process
   (worker.py prepare);
2. with ``--trace 0``, times fresh interpreters importing ``fairsynth.cli``
   (``setup_s``);
3. runs the workload's jobs in a closed loop with one client for
   ``--seconds`` in another child process (worker.py jobs), checking every
   job's outputs;
4. prints a details object (environment, per-job times, scores, artifact
   sha256, output-check result), then, as the last line, the result:
   ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
   the end-to-end metrics, ``--trace 1`` the per-layer ones.

Every job sees the same pinned environment: ``MEMISIS_SEED`` unset (it would
override ``--seed``), BLAS/OpenMP threads pinned, ``TMPDIR`` inside the
checkout. See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
#: The keys of workloads.WORKLOADS, which only the job processes import
#: (it imports fairsynth).
WORKLOAD_NAMES = ("tall-run", "refine-supervise", "wide-run", "backends-bench")

#: BLAS/OpenMP threads per process: one, so the single-client loop is not
#: timed against the machine's other load through thread contention.
THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SEED_ENV_VAR = "MEMISIS_SEED"

#: Fresh interpreters timed for setup_s (after one untimed warm-up that
#: leaves the bytecode cache filled, as for any installed CLI). Each one
#: samples its own speed during the import and prints the factor that turns
#: its wall time into reference seconds (speed.py).
SETUP_SAMPLES = 7
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from speed import SpeedSampler\n"
    "with SpeedSampler() as sampler:\n"
    "    import fairsynth.cli\n"
    "print(sampler.scale())"
)

#: Whole-run limit; each child gets what is left of it.
RUN_LIMIT_S = 170.0


class HarnessError(Exception):
    pass


def _environment(root: Path, work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop(SEED_ENV_VAR, None)
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(work / "tmp")
    return env


def _child(argv: list[str], env: dict, deadline: float, what: str) -> str:
    left = deadline - time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, timeout=max(left, 1.0), capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{what} did not finish within the run limit")
    if proc.returncode != 0:
        raise HarnessError(f"{what} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def _setup_seconds(env: dict, deadline: float) -> list[tuple[float, float]]:
    """(wall, reference) seconds of each fresh interpreter."""
    argv = [sys.executable, "-c", SETUP_CODE, str(HERE)]
    _child(argv, env, deadline, "setup warm-up")
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        scale = float(_child(argv, env, deadline, "setup probe"))
        wall = time.perf_counter() - start
        samples.append((wall, wall * scale))
    return samples


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _end_to_end(outcome: dict, setup: list[tuple[float, float]]) -> dict[str, float]:
    jobs = [r for r in outcome["records"] if r["phase"] == "untraced"]
    good = [r for r in jobs if r["ok"]]
    return {
        "job_s": _median([r["ref_seconds"] for r in good]),
        "setup_s": _median([ref for _, ref in setup]),
        "peak_rss_mb": outcome["peak_rss_mb"],
        "job_ok_frac": len(good) / len(jobs),
        "quality_score": _median([r["quality"] for r in good]),
    }


def _per_layer(outcome: dict) -> dict[str, float]:
    records = outcome["records"]
    traced = [r for r in records if r["phase"] == "traced" and r["ok"]]
    untraced = [r for r in records if r["phase"] == "untraced" and r["ok"]]
    per_job = [dict(outcome["layers"][str(r["job"])]) for r in traced]
    for record, layer in zip(traced, per_job):
        layer["reports.artifact_bytes"] = record["artifact_bytes"]
        layer["scoring.synth_score"] = record["synth_score"]
        layer["trace.job_s"] = record["seconds"]
    metrics = {
        name: _median([layer.get(name, 0) for layer in per_job]) for name, _, _ in PER_LAYER
    }
    metrics["trace.untraced_job_s"] = _median([r["seconds"] for r in untraced])
    metrics["trace.overhead_s"] = metrics["trace.job_s"] - metrics["trace.untraced_job_s"]
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "fairsynth" / "__init__.py").is_file():
        print(f"error: {src / 'fairsynth'} not found; run from the root of a fairsynth checkout", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / ".perfbench_work" / f"{tag}-{os.getpid()}"
    results = root / ".perfbench_out"
    (work / "tmp").mkdir(parents=True)
    results.mkdir(exist_ok=True)
    env = _environment(root, work)
    try:
        _child(
            [sys.executable, str(WORKER), "prepare", "--workload", args.workload,
             "--seed", str(args.seed), "--dir", str(work / "inputs")],
            env, deadline, "input generation",
        )
        setup = [] if args.trace else _setup_seconds(env, deadline)
        outcome_path = work / "outcome.json"
        _child(
            [sys.executable, str(WORKER), "jobs", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--src", str(src), "--inputs", str(work / "inputs"), "--work", str(work / "jobs"),
             "--result", str(outcome_path), "--spans", str(results / f"{tag}-spans.json")],
            env, deadline, "job process",
        )
        outcome = json.loads(outcome_path.read_text(encoding="utf-8"))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = outcome["records"]
    failed = [r for r in records if not r["ok"]]
    if args.trace:
        values, specs = _per_layer(outcome), [(n, u) for n, u, _ in PER_LAYER]
    else:
        values, specs = _end_to_end(outcome, setup), [(n, u) for n, u, _, _ in END_TO_END]
    if set(values) != {name for name, _ in specs}:
        raise SystemExit(f"internal error: metric names {sorted(values)} do not match metrics.py")

    good = [r for r in records if r["ok"]]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client",
        "jobs": len(records),
        "job_seconds": [round(r["seconds"], 6) for r in records],
        "job_ref_seconds": [round(r["ref_seconds"], 6) for r in records],
        "speed_samples": [r["speed_samples"] for r in records],
        "job_phases": [r["phase"] for r in records],
        "errors": [r["error"] for r in failed],
        "output_check": "pass" if not failed else "fail",
        "synth_score": good[0]["synth_score"] if good else None,
        "quality_score": good[0]["quality"] if good else None,
        "artifact_sha256": good[0]["digests"] if good else None,
        "setup_seconds": [round(wall, 6) for wall, _ in setup],
        "setup_ref_seconds": [round(ref, 6) for _, ref in setup],
        "environment": {
            **outcome["versions"],
            "threads": {var: env[var] for var in THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "pythonhashseed": env["PYTHONHASHSEED"],
            "git_commit": _git_commit(root),
            "src_sha256": _source_digest(src),
        },
    }
    (results / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(details, indent=1))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(records),
                "failed": len(failed),
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

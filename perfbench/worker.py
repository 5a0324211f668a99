"""Child processes of the benchmark harness (run.py starts both).

``prepare``  generates one workload's inputs from its seed and, for the
             library workloads, loads them through ``fairsynth.load_dataset``
             and pickles the table, so the job process starts from a loaded
             table without paying the ingest's memory peak.
``jobs``     runs the workload's jobs in a closed loop with one client: each
             job starts after the previous one has finished and been checked.
             With ``--trace 1`` it first runs untraced jobs for half the time,
             then traced jobs for the other half.

Both write JSON for run.py; neither prints the benchmark's result line.
"""

from __future__ import annotations

import argparse
import functools
import json
import pickle
import platform
import resource
import shutil
import time
from pathlib import Path

import numpy
import scipy

import fairsynth
import inputs
from fairsynth import Metadata, load_dataset
from spans import Tracer, job_metrics
from speed import SpeedSampler
from workloads import WORKLOADS, Inputs, digests

#: Jobs per phase even when one job outlasts the phase: the untraced phase
#: needs two to compare artifacts of repeated jobs, three for a median.
MIN_JOBS = {"untraced": 3, "traced": 2}


def prepare(args) -> None:
    workload = WORKLOADS[args.workload]
    make = inputs.demo_table if workload.shape == "demo" else inputs.wide_table
    out = Path(args.dir)
    inputs.write_inputs(make(args.seed, workload.rows), out)
    if workload.preload:
        data = load_dataset(out / "data.csv", Metadata.from_json_file(out / "metadata.json"))
        with open(out / "data.pkl", "wb") as fh:
            pickle.dump(data, fh, protocol=pickle.HIGHEST_PROTOCOL)


def _call(fn):
    return fn()


def _one_job(workload, job, emit, out: Path, run) -> dict:
    """Run, emit and check one job. Any exception is a failed job, recorded
    with its message; the loop goes on."""
    record: dict = {"ok": False}
    sampler = SpeedSampler()
    start = time.perf_counter()
    try:
        with sampler:
            result = run(lambda: job(out))
        record["seconds"] = time.perf_counter() - start
        artifacts = emit(out, result)
        record["synth_score"], record["quality"] = workload.check(artifacts)
        record["digests"] = digests(artifacts)
        record["artifact_bytes"] = sum(len(blob) for blob in artifacts.values())
        record["ok"] = True
    except Exception as exc:  # a failed job is data, not a crash
        record.setdefault("seconds", time.perf_counter() - start)
        record["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(out, ignore_errors=True)
    record["ref_seconds"] = record["seconds"] * sampler.scale()
    record["speed_samples"] = len(sampler.samples)
    return record


def run_jobs(args) -> None:
    src = Path(args.src).resolve()
    if src not in Path(fairsynth.__file__).resolve().parents:
        raise SystemExit(f"fairsynth imported from {fairsynth.__file__}, not from {src}")

    workload = WORKLOADS[args.workload]
    data_dir = Path(args.inputs)
    data = None
    if workload.preload:
        with open(data_dir / "data.pkl", "rb") as fh:
            data = pickle.load(fh)
    inputs = Inputs(
        seed=args.seed,
        csv=data_dir / "data.csv",
        metadata_json=data_dir / "metadata.json",
        data=data,
        metadata=Metadata.from_json_file(data_dir / "metadata.json"),
    )
    job, emit = workload.make_job(inputs)
    work = Path(args.work)

    phases = [("untraced", args.seconds)]
    if args.trace:
        phases = [("untraced", args.seconds / 2), ("traced", args.seconds / 2)]
    records: list[dict] = []
    tracer = Tracer()
    for phase, budget in phases:
        traced = phase == "traced"
        if traced:
            tracer.install()
        try:
            start, count = time.perf_counter(), 0
            while count < MIN_JOBS[phase] or time.perf_counter() - start < budget:
                job_id = len(records)
                run = functools.partial(tracer.run_job, job_id) if traced else _call
                record = _one_job(workload, job, emit, work / f"job-{job_id}", run)
                record.update(job=job_id, phase=phase)
                records.append(record)
                count += 1
        finally:
            tracer.uninstall()

    # Repeated jobs of one seed must emit byte-identical artifacts.
    reference = next((r["digests"] for r in records if r["ok"]), None)
    for record in records:
        if record["ok"] and record["digests"] != reference:
            record["ok"] = False
            record["error"] = "artifacts differ from the first job of this seed"

    layers = {}
    if args.trace:
        by_job = job_metrics(tracer.spans)
        for record in records:
            if record["phase"] == "traced":
                layers[record["job"]] = by_job.get(record["job"], {})
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump([vars(span) for span in tracer.spans], fh)

    result = {
        "records": records,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "fairsynth": fairsynth.__version__,
        },
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("prepare")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.set_defaults(func=prepare)
    p = sub.add_parser("jobs")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", required=True)
    p.set_defaults(func=run_jobs)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()

"""The benchmark's pinned artifacts, reproduced in-process by one job per
workload, so a change that moves a pinned byte is seen by the test suite and
not only by the benchmark's own checks.

perfbench's modules are loaded from their files under names of their own,
with nothing added to ``sys.path``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fairsynth.schema import Metadata, load_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SHA256_PINS = Path(__file__).resolve().parent / "perfbench_sha256.json"
COUNT_PINS = Path(__file__).resolve().parent / "perfbench_counts.json"
SEED = 1  # the seed the benchmark's pins are taken at


def _load(name: str):
    """perfbench/<name>.py as the module ``perfbench_<name>``, registered
    before it runs, as dataclasses look their module up."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = _load("inputs")
spans = _load("spans")
workloads = _load("workloads")
PINS = json.loads(SHA256_PINS.read_text(encoding="utf-8"))
COUNTS = json.loads(COUNT_PINS.read_text(encoding="utf-8"))


def test_every_workload_has_pins():
    assert sorted(PINS) == sorted(workloads.WORKLOADS)


def _job(name: str, tmp_path: Path):
    """The workload's job and emit on inputs built as the benchmark builds
    them."""
    workload = workloads.WORKLOADS[name]
    make = inputs.demo_table if workload.shape == "demo" else inputs.wide_table
    data_dir = tmp_path / "inputs"
    inputs.write_inputs(make(SEED, workload.rows), data_dir)
    csv, metadata_json = data_dir / "data.csv", data_dir / "metadata.json"
    metadata = Metadata.from_json_file(metadata_json)
    data = load_dataset(csv, metadata) if workload.preload else None
    return workload.make_job(workloads.Inputs(SEED, csv, metadata_json, data, metadata))


@pytest.mark.parametrize("name", sorted(PINS))
def test_one_job_gives_the_pinned_artifacts(name, tmp_path):
    """One job, its emit and its output check, then the artifacts' sha256
    against the pins. Like ``TestArtifactDigests``, this holds on the
    default OpenBLAS kernel of an AVX-512 host: ``synthetic.csv`` carries the
    last bits of the BLAS kernels the copula runs through."""
    job, emit = _job(name, tmp_path)
    out = tmp_path / "out"
    artifacts = emit(out, job(out))
    workloads.WORKLOADS[name].check(artifacts)
    assert workloads.digests(artifacts) == PINS[name]


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_one_traced_job_gives_the_pinned_counts(name, tmp_path):
    """One job under the benchmark's tracer reads every count pinned for
    the workload, and every span pinned as live reads more than 0."""
    job, _ = _job(name, tmp_path)
    want = dict(COUNTS[name])
    live = want.pop("live")
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.run_job(0, lambda: job(tmp_path / "out"))
    finally:
        tracer.uninstall()
    got = spans.job_metrics(tracer.spans)[0]
    assert {key: got.get(key) for key in want} == want
    assert [key for key in live if not got.get(key, 0) > 0] == []

"""Metamorphic invariants of the pipeline on the 2k demo table: changes to
the input that carry no information about the data must leave every report
byte where it was.

- A numeric column multiplied by 2**k (exact in float64): ``run`` and
  ``supervise`` write the same reports, and the synthetic column comes out
  multiplied by the same power, for k from -1000 to 1014.
- Categorical values renamed in an order-preserving way, to strings that a
  CSV writer has to quote: the reports are the same once the names are mapped
  back.
- The interpreter's string hash seed: ``supervise`` and ``bench`` write the
  same bytes under each.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import fairsynth
from fairsynth.cli import main

REPORTS = ("sdmetrics_quality_report.json", "fairness_metrics.json", "run_summary.json")
SCALES = (-1000, -600, -100, -1, 1, 100, 600, 1000, 1014)
NUMERIC = ("symptom_scale", "functioning_score")
# One prefix per renamed column: a common prefix keeps each column's order.
RENAMED = {"Race": ' lead, "q" ', "Sex": "é\n", "setting": ', "q" \nñ '}


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """(directory holding demo.csv and metadata.json, header, rows)."""
    root = tmp_path_factory.mktemp("demo")
    assert main(["demo", "--out", str(root)]) == 0
    with open(root / "demo.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return root, header, rows


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])


def _pipeline(data: Path, metadata: Path, out: Path) -> dict[str, dict[str, bytes]]:
    """Per command, ``run`` and ``supervise``, the bytes of each report and of
    synthetic.csv, with warnings as errors."""
    written = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in ("run", "supervise"):
            target = out / command
            args = [command, "--data", str(data), "--metadata", str(metadata)]
            assert main([*args, "--out", str(target)]) == 0
            written[command] = {
                name: (target / name).read_bytes() for name in (*REPORTS, "synthetic.csv")
            }
    return written


def _column(csv_bytes: bytes, name: str) -> list[str]:
    header, *rows = csv.reader(csv_bytes.decode("utf-8").splitlines())
    j = header.index(name)
    return [row[j] for row in rows]


@pytest.mark.parametrize("column", NUMERIC)
def test_a_power_of_two_unit_changes_no_report(demo, tmp_path, column):
    root, header, rows = demo
    metadata = root / "metadata.json"
    base = _pipeline(root / "demo.csv", metadata, tmp_path / "base")
    j = header.index(column)
    for k in SCALES:
        scaled = [[*row[:j], repr(math.ldexp(float(row[j]), k)), *row[j + 1:]] for row in rows]
        _write_csv(tmp_path / f"{k}.csv", header, scaled)
        got = _pipeline(tmp_path / f"{k}.csv", metadata, tmp_path / str(k))
        for command, artifacts in got.items():
            want = base[command]
            for name in REPORTS:
                assert artifacts[name] == want[name], (k, command, name)
            synth = [_column(artifacts["synthetic.csv"], n) for n in header]
            expect = [_column(want["synthetic.csv"], n) for n in header]
            for name, values, reference in zip(header, synth, expect):
                if name == column:
                    assert [float(v) for v in values] == [
                        math.ldexp(float(v), k) for v in reference
                    ], (k, command)
                else:
                    assert values == reference, (k, command, name)


def test_renamed_categories_change_no_report(demo, tmp_path):
    root, header, rows = demo
    metadata = root / "metadata.json"
    base = _pipeline(root / "demo.csv", metadata, tmp_path / "base")
    back = {}
    renamed = [list(row) for row in rows]
    for column, prefix in RENAMED.items():
        j = header.index(column)
        for row in renamed:
            back[prefix + row[j]] = row[j]
            row[j] = prefix + row[j]
    _write_csv(tmp_path / "renamed.csv", header, renamed)
    got = _pipeline(tmp_path / "renamed.csv", metadata, tmp_path / "renamed")

    def mapped_back(doc):
        if isinstance(doc, dict):
            return {back.get(k, k): mapped_back(v) for k, v in doc.items()}
        if isinstance(doc, list):
            return [mapped_back(v) for v in doc]
        return back.get(doc, doc) if isinstance(doc, str) else doc

    for command, artifacts in got.items():
        # The fairness report names the renamed groups as they were written.
        groups = json.loads(artifacts["fairness_metrics.json"])["by_attribute"]["Race"]["fpr"]
        assert all(group.startswith(RENAMED["Race"]) for group in groups), command
        for name in REPORTS:
            # json.dumps keeps each mapping's order, so the order is checked too.
            want = json.dumps(json.loads(base[command][name]))
            assert json.dumps(mapped_back(json.loads(artifacts[name]))) == want, (command, name)


def test_the_string_hash_seed_changes_no_artifact(demo, tmp_path):
    root, _, _ = demo
    src = str(Path(fairsynth.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    data = ["--data", str(root / "demo.csv"), "--metadata", str(root / "metadata.json")]
    script = (
        "import sys; from fairsynth.cli import main; "
        "out, *data = sys.argv[1:]; "
        "assert main(['supervise', *data, '--out', out + '/s']) == 0; "
        "assert main(['bench', *data, '--out', out + '/b']) == 0"
    )
    seeds = ("0", "1", "2", "12345")
    children = [
        subprocess.Popen(
            [sys.executable, "-W", "error", "-c", script, str(tmp_path / seed), *data],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            stdout=subprocess.DEVNULL,
        )
        for seed in seeds
    ]
    assert [child.wait(timeout=120) for child in children] == [0] * len(seeds)
    written = [
        {
            p.relative_to(tmp_path / seed).as_posix(): p.read_bytes()
            for p in sorted((tmp_path / seed).rglob("*"))
            if p.is_file()
        }
        for seed in seeds
    ]
    assert sorted(written[0]) == sorted(
        ["b/bench_results.json", "b/bench_table.txt", "s/synthetic.csv"]
        + [f"s/{name}" for name in REPORTS]
    )
    assert all(w == written[0] for w in written[1:])

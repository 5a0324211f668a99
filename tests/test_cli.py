import argparse
import ast
import csv
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

import fairsynth
from fairsynth import cli
from fairsynth.cli import SEED_ENV_VAR, _build_parser, main
from fairsynth.copula import NATIVE_BACKENDS, fit, save_model, shrink_correlation
from fairsynth.demo import DemoSpec
from fairsynth.errors import RuntimeFailure
from fairsynth.schema import Metadata, SplitSpec, load_dataset, split_holdout
from fairsynth.scoring import DEFAULT_PARITY_THRESHOLD
from fairsynth.supervisor import RunConfig, Targets, run_pipeline, supervise


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    assert main(["demo", "--rows", "300", "--seed", "0", "--out", str(out)]) == 0
    return out


def _data_flags(demo_dir):
    return [
        "--data", str(demo_dir / "demo.csv"),
        "--metadata", str(demo_dir / "metadata.json"),
    ]


def _fit_flags():
    return ["--train-rows", "150"]


def _small_flags():
    return [*_fit_flags(), "--sample-rows", "100"]


class TestDemoCommand:
    def test_writes_csv_and_metadata(self, demo_dir):
        assert (demo_dir / "demo.csv").exists()
        md = json.loads((demo_dir / "metadata.json").read_text())
        assert md["label"] == {"column": "Diagnosis", "positive": "positive"}
        assert md["protected"] == ["Race", "Sex"]

    def test_row_count(self, demo_dir):
        lines = (demo_dir / "demo.csv").read_bytes().split(b"\r\n")
        assert len([ln for ln in lines if ln]) == 301  # header + 300 rows


class TestFitSample:
    def test_fit_writes_model_json(self, demo_dir, tmp_path):
        # The file is the library's shrunk fit on the same split; shrinking
        # the independent backend's identity correlation leaves its bytes.
        metadata = Metadata.from_json_file(demo_dir / "metadata.json")
        data = load_dataset(demo_dir / "demo.csv", metadata)
        train, _ = split_holdout(data, SplitSpec(150))
        want_path = tmp_path / "want.json"
        for backend in NATIVE_BACKENDS:
            for shrinkage in ("0", "0.3", "1"):
                model_path = tmp_path / f"{backend}-{shrinkage}.json"
                code = main(
                    ["fit", *_data_flags(demo_dir), *_fit_flags(), "--backend", backend,
                     "--shrinkage", shrinkage, "--out", str(model_path)]
                )
                assert code == 0
                doc = json.loads(model_path.read_text())
                assert set(doc) == {
                    "marginals", "correlation", "column_order", "fitted_rows", "seed"
                }
                assert doc["fitted_rows"] == 150
                save_model(shrink_correlation(fit(train, backend, 0), float(shrinkage)), want_path)
                assert model_path.read_bytes() == want_path.read_bytes(), (backend, shrinkage)
                if backend == "independent":
                    unshrunk = tmp_path / f"{backend}-0.json"
                    assert model_path.read_bytes() == unshrunk.read_bytes(), shrinkage

    def test_sample_from_model(self, demo_dir, tmp_path):
        model_path = tmp_path / "model.json"
        main(["fit", *_data_flags(demo_dir), *_fit_flags(), "--out", str(model_path)])
        out_csv = tmp_path / "synth.csv"
        code = main(["sample", "--model", str(model_path), "--rows", "40", "--out", str(out_csv)])
        assert code == 0
        rows = [ln for ln in out_csv.read_bytes().split(b"\r\n") if ln]
        assert len(rows) == 41

    def test_fit_rejects_external_backend(self, demo_dir, tmp_path, capsys):
        code = main(
            ["fit", *_data_flags(demo_dir), "--backend", "independent", "--train-rows",
             "150", "--out", str(tmp_path / "m.json")]
        )
        assert code == 0  # independent is native and persistable
        code = main(
            ["fit", *_data_flags(demo_dir), "--backend", "nope", "--train-rows", "150",
             "--out", str(tmp_path / "m2.json")]
        )
        assert code == 1
        assert "nope" in capsys.readouterr().err


class TestRunCommand:
    def test_writes_all_artifacts(self, demo_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["run", *_data_flags(demo_dir), *_small_flags(), "--out", str(out)])
        assert code == 0
        for name in (
            "sdmetrics_quality_report.json",
            "fairness_metrics.json",
            "run_summary.json",
            "synthetic.csv",
        ):
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert "stop_reason" in stdout and "synth_score" in stdout
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["best_iteration"] == 0
        assert len(summary["history"]) == 1

    def test_byte_identical_across_invocations(self, demo_dir, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["run", *_data_flags(demo_dir), *_small_flags(), "--out", str(out)]) == 0
        for name in (
            "sdmetrics_quality_report.json",
            "fairness_metrics.json",
            "run_summary.json",
            "synthetic.csv",
        ):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_fairness_json_layout(self, demo_dir, tmp_path):
        out = tmp_path / "run"
        main(["run", *_data_flags(demo_dir), *_small_flags(), "--out", str(out)])
        doc = json.loads((out / "fairness_metrics.json").read_text())
        assert list(doc) == [
            "tstr", "by_attribute", "max_rel_fpr", "fairness_mult", "quality", "synth_score",
        ]
        assert set(doc["by_attribute"]) == {"Race", "Sex"}


@pytest.fixture(scope="module")
def evaluated(demo_dir, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("eval")
    model = tmp / "model.json"
    synth = tmp / "synth.csv"
    main(["fit", "--data", str(demo_dir / "demo.csv"), "--metadata",
          str(demo_dir / "metadata.json"), *_fit_flags(), "--out", str(model)])
    main(["sample", "--model", str(model), "--rows", "100", "--out", str(synth)])
    return tmp, synth


class TestEvaluateAndScore:
    def test_evaluate_writes_reports(self, demo_dir, evaluated, capsys):
        tmp, synth = evaluated
        out = tmp / "reports"
        code = main(
            ["evaluate", *_data_flags(demo_dir), "--synthetic", str(synth), "--out", str(out)]
        )
        assert code == 0
        assert (out / "sdmetrics_quality_report.json").exists()
        assert (out / "fairness_metrics.json").exists()
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("synth_score ")

    def test_score_matches_evaluate(self, demo_dir, evaluated, capsys):
        tmp, synth = evaluated
        out = tmp / "reports2"
        main(["evaluate", *_data_flags(demo_dir), "--synthetic", str(synth), "--out", str(out)])
        eval_line = capsys.readouterr().out.strip().splitlines()[-1]
        code = main(
            ["score", "--quality", str(out / "sdmetrics_quality_report.json"),
             "--fairness", str(out / "fairness_metrics.json")]
        )
        assert code == 0
        score_line = capsys.readouterr().out.strip().splitlines()[-1]
        # scoring from the JSON reproduces the composite up to %.6f rounding
        evaluated_score = float(eval_line.split()[1])
        recomputed_score = float(score_line.split()[1])
        assert recomputed_score == pytest.approx(evaluated_score, abs=5e-6)
        assert score_line.split(", ")[-2:] == eval_line.split(", ")[-2:]

    @pytest.mark.parametrize(
        "flags",
        [[], *(["--seed", seed, "--holdout-fraction", "0.2"] for seed in ("3", "7"))],
    )
    def test_evaluate_reproduces_the_reports_of_run(self, flags, tmp_path, capsys):
        # evaluate on the synthetic rows of run, or of supervise's best
        # iteration, with its seed and holdout fraction, scores them against
        # the same holdout, to the same bytes.
        data = ["--data", str(tmp_path / "d" / "demo.csv"),
                "--metadata", str(tmp_path / "d" / "metadata.json")]
        assert main(["demo", "--out", str(tmp_path / "d")]) == 0
        for command in ("run", "supervise"):
            written = tmp_path / command
            assert main([command, *data, *flags, "--out", str(written)]) == 0
            synth = str(written / "synthetic.csv")
            out = tmp_path / f"e-{command}"
            assert main(["evaluate", *data, *flags, "--synthetic", synth, "--out", str(out)]) == 0
            capsys.readouterr()
            for name in ("sdmetrics_quality_report.json", "fairness_metrics.json"):
                assert (out / name).read_bytes() == (written / name).read_bytes()

    def test_score_handles_inf_and_undefined(self, tmp_path, capsys):
        q = tmp_path / "q.json"
        f = tmp_path / "f.json"
        q.write_text('{"overall_score": 0.9}')
        f.write_text('{"max_rel_fpr": "inf", "tstr": {"degenerate": false}}')
        assert main(["score", "--quality", str(q), "--fairness", str(f)]) == 0
        assert "synth_score 0.000000" in capsys.readouterr().out
        f.write_text('{"max_rel_fpr": "undefined", "tstr": {"degenerate": true}}')
        assert main(["score", "--quality", str(q), "--fairness", str(f)]) == 0
        out = capsys.readouterr().out
        assert "synth_score 0.900000" in out and "degenerate yes" in out

    @pytest.mark.parametrize(
        "fairness, line",
        [
            (
                '{"max_rel_fpr": 4.5, "tstr": {"degenerate": false}}',
                "synth_score 0.400000 (quality 0.900000, max_rel_fpr 4.500000, "
                "fairness_mult 0.444444, parity_ok no, degenerate no)",
            ),
            (
                '{"max_rel_fpr": 1.5, "tstr": {"degenerate": false}}',
                "synth_score 0.900000 (quality 0.900000, max_rel_fpr 1.500000, "
                "fairness_mult 1.000000, parity_ok yes, degenerate no)",
            ),
            (
                '{"max_rel_fpr": "inf", "tstr": {"degenerate": false}}',
                "synth_score 0.000000 (quality 0.900000, max_rel_fpr inf, "
                "fairness_mult 0.000000, parity_ok no, degenerate no)",
            ),
            (
                '{"max_rel_fpr": "undefined", "tstr": {"degenerate": true}}',
                "synth_score 0.900000 (quality 0.900000, max_rel_fpr undefined, "
                "fairness_mult 1.000000, parity_ok no, degenerate yes)",
            ),
        ],
        ids=["finite", "finite_parity_ok", "inf", "undefined"],
    )
    def test_score_prints_the_whole_composite_line(self, fairness, line, tmp_path, capsys):
        q = tmp_path / "q.json"
        f = tmp_path / "f.json"
        q.write_text('{"overall_score": 0.9}')
        f.write_text(fairness)
        assert main(["score", "--quality", str(q), "--fairness", str(f)]) == 0
        assert capsys.readouterr().out == line + "\n"

    def test_score_malformed_json_exits_one(self, tmp_path, capsys):
        q = tmp_path / "q.json"
        f = tmp_path / "f.json"
        q.write_text('{"wrong_key": 1}')
        f.write_text('{"max_rel_fpr": 1.0, "tstr": {"degenerate": false}}')
        assert main(["score", "--quality", str(q), "--fairness", str(f)]) == 1
        assert "malformed" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "quality, fairness",
        [
            ("0.5", '{"max_rel_fpr": -1.0, "tstr": {"degenerate": false}}'),
            ("0.5", '{"max_rel_fpr": 0.5, "tstr": {"degenerate": false}}'),
            ("0.5", '{"max_rel_fpr": NaN, "tstr": {"degenerate": false}}'),
            ("0.5", '{"max_rel_fpr": Infinity, "tstr": {"degenerate": false}}'),
            ("0.5", '{"max_rel_fpr": "1e999", "tstr": {"degenerate": false}}'),
            ("0.5", '{"max_rel_fpr": "2.5", "tstr": {"degenerate": false}}'),
            ("0.5", '{"max_rel_fpr": null, "tstr": {"degenerate": false}}'),
            ("0.5", '{"max_rel_fpr": true, "tstr": {"degenerate": false}}'),
            ("0.5", '{"max_rel_fpr": 1.0, "tstr": {"degenerate": "no"}}'),
            ("0.5", '{"max_rel_fpr": 1.0, "tstr": {"degenerate": 0}}'),
            ("true", '{"max_rel_fpr": 1.0, "tstr": {"degenerate": false}}'),
            ('"0.5"', '{"max_rel_fpr": 1.0, "tstr": {"degenerate": false}}'),
            ("NaN", '{"max_rel_fpr": 1.0, "tstr": {"degenerate": false}}'),
            ("1" + "0" * 400, '{"max_rel_fpr": 1.0, "tstr": {"degenerate": false}}'),
        ],
        ids=[
            "ratio_negative", "ratio_below_one", "ratio_nan", "ratio_infinity_literal",
            "ratio_number_text", "ratio_text", "ratio_null", "ratio_bool", "degenerate_text",
            "degenerate_int", "quality_bool", "quality_text", "quality_nan", "quality_past_float64",
        ],
    )
    def test_score_rejects_values_the_writer_never_emits(self, quality, fairness, tmp_path, capsys):
        # overall_score is a finite number, degenerate a boolean, and
        # max_rel_fpr a number >= 1, "inf" or "undefined"; nothing is coerced.
        q = tmp_path / "q.json"
        f = tmp_path / "f.json"
        q.write_text('{"overall_score": %s}' % quality)
        f.write_text(fairness)
        assert main(["score", "--quality", str(q), "--fairness", str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: malformed report JSON: ")
        assert captured.err.count("\n") == 1

    def test_score_reads_an_integral_ratio_and_quality(self, tmp_path, capsys):
        q = tmp_path / "q.json"
        f = tmp_path / "f.json"
        q.write_text('{"overall_score": 1}')
        f.write_text('{"max_rel_fpr": 4, "tstr": {"degenerate": false}}')
        assert main(["score", "--quality", str(q), "--fairness", str(f)]) == 0
        assert "synth_score 0.500000" in capsys.readouterr().out


class TestSuperviseCommand:
    def test_history_bounded(self, demo_dir, tmp_path):
        out = tmp_path / "sup"
        code = main(
            ["supervise", *_data_flags(demo_dir), *_small_flags(),
             "--max-refinements", "2", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert len(summary["history"]) <= 3
        assert summary["stop_reason"] in ("target_met", "budget")

    def test_all_failed_writes_summary_and_exits_two(self, demo_dir, tmp_path, capsys):
        backends = tmp_path / "backends.json"
        backends.write_text(json.dumps([
            {"name": "failing", "command": [sys.executable, "-c", "import sys; sys.exit(7)"]}
        ]))
        out = tmp_path / "sup"
        code = main(
            ["supervise", *_data_flags(demo_dir), *_small_flags(), "--backend", "failing",
             "--backends-file", str(backends), "--max-refinements", "1", "--out", str(out)]
        )
        assert code == 2
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["stop_reason"] == "all_failed"
        assert summary["best_iteration"] is None
        assert len(summary["history"]) == 2
        assert all("error" in entry for entry in summary["history"])
        assert not (out / "synthetic.csv").exists()
        # One line that says why, with no traceback.
        assert capsys.readouterr().err.splitlines() == [
            "error: every pipeline iteration failed; last error: backend exited with code 7:"
        ]

    @pytest.mark.parametrize(
        "script, error",
        [
            (
                "import sys; open(sys.argv[1], 'w').close()",
                "backend 'ext' output: no header row",
            ),
            (
                "pass",
                "backend exited with code 0: backend 'ext' exited 0 but wrote no output CSV",
            ),
            (
                "import sys\n"
                "try:\n    open(sys.argv[2] + '.missing')\n"
                "except OSError as exc:\n    sys.stderr.write(str(exc))\n    sys.exit(1)",
                "backend exited with code 1: [Errno 2] No such file or directory: "
                "'<run dir>/train.csv.missing'",
            ),
        ],
        ids=["empty_csv", "no_csv", "stderr_names_input"],
    )
    def test_failed_external_reruns_are_byte_identical(
        self, script, error, demo_dir, tmp_path, capsys, monkeypatch
    ):
        # A failed external backend's error names the backend, not the
        # temporary directory its output was written in, which is gone by
        # the time the error is reported; its stderr names that directory
        # "<run dir>".
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        backends = tmp_path / "backends.json"
        backends.write_text(json.dumps([
            {"name": "ext", "command": [sys.executable, "-c", script, "{out_csv}", "{train_csv}"]}
        ]))
        external = ["--backends-file", str(backends)]
        stderr = []
        for k in (1, 2):
            code = main(["run", *_data_flags(demo_dir), *_small_flags(), *external,
                         "--backend", "ext", "--out", str(tmp_path / f"run{k}")])
            assert code == 2
            stderr.append(capsys.readouterr().err)
            code = main(["bench", *_data_flags(demo_dir), *_small_flags(), *external,
                         "--backends", "gaussian_copula,ext",
                         "--out", str(tmp_path / f"bench{k}")])
            assert code == 0
            capsys.readouterr()
        assert stderr == [f"error: every pipeline iteration failed; last error: {error}\n"] * 2
        texts = [stderr[0]]
        for name in ("run1/run_summary.json", "bench1/bench_results.json"):
            text = (tmp_path / name).read_text(encoding="utf-8")
            assert (tmp_path / name.replace("1/", "2/")).read_text(encoding="utf-8") == text
            texts.append(text)
        summary, bench = (json.loads(text) for text in texts[1:])
        assert summary["history"][0]["error"] == error
        assert bench["rows"][1]["error"] == error
        assert not any(str(scratch) in text for text in texts)


class TestBenchCommand:
    def test_table_and_files(self, demo_dir, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(
            ["bench", *_data_flags(demo_dir), *_small_flags(), "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        lines = stdout.splitlines()
        assert lines[0].split() == ["backend", "quality", "max_rel_fpr", "synth_score", "degenerate"]
        assert {ln.split()[0] for ln in lines[1:]} == {"gaussian_copula", "independent"}
        assert (out / "bench_results.json").read_text() is not None
        assert (out / "bench_table.txt").read_text() == stdout
        doc = json.loads((out / "bench_results.json").read_text())
        assert doc["config"]["train_rows"] == 150
        assert [r["backend"] for r in doc["rows"]] == ["gaussian_copula", "independent"]

    def test_unknown_backend_listed(self, demo_dir, capsys):
        code = main(["bench", *_data_flags(demo_dir), "--backends", "gaussian_copula,bogus"])
        assert code == 1
        err = capsys.readouterr().err
        assert "bogus" in err and "gaussian_copula" in err and "independent" in err


    @pytest.mark.parametrize("name", NATIVE_BACKENDS)
    def test_external_backend_with_a_native_name_is_refused(self, name, demo_dir, tmp_path, capsys):
        """Its command would never run: the native backend of that name
        would answer in its place."""
        backends = tmp_path / "backends.json"
        backends.write_text(json.dumps([{"name": name, "command": ["false"]}]), encoding="utf-8")
        out = tmp_path / "bench"
        code = main(["bench", *_data_flags(demo_dir), *_small_flags(), "--backends", name,
                     "--backends-file", str(backends), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: external backend {name!r} shares a native backend's name"]
        assert not out.exists()

    @pytest.mark.parametrize("name", ["a,b", " c"])
    def test_external_backend_that_backends_cannot_select_is_refused(
        self, name, demo_dir, tmp_path, capsys
    ):
        backends = tmp_path / "backends.json"
        backends.write_text(json.dumps([{"name": name, "command": ["false"]}]), encoding="utf-8")
        code = main(["bench", *_data_flags(demo_dir), *_small_flags(), "--backends", name,
                     "--backends-file", str(backends)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: external backend {name!r} holds a comma or surrounding whitespace, "
            "so --backends cannot select it"
        ]


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["fit"]) == 1  # missing required flags
        assert capsys.readouterr().err != ""

    def test_unknown_subcommand_is_one(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_unknown_backend_is_one(self, demo_dir, tmp_path, capsys):
        code = main(
            ["run", *_data_flags(demo_dir), "--backend", "ctgan", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "ctgan" in err and "gaussian_copula" in err

    def test_missing_data_file_is_two(self, demo_dir, tmp_path, capsys):
        code = main(
            ["run", "--data", str(tmp_path / "absent.csv"),
             "--metadata", str(demo_dir / "metadata.json"), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_insufficient_rows_is_one(self, demo_dir, tmp_path, capsys):
        code = main(
            ["run", *_data_flags(demo_dir), "--train-rows", "5000", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "train_rows" in capsys.readouterr().err

    def test_bench_insufficient_rows_is_one(self, demo_dir, tmp_path, capsys):
        # 300 rows hold out 90, so 210 train rows are available.
        out = tmp_path / "o"
        code = main(["bench", *_data_flags(demo_dir), "--train-rows", "250", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: train_rows=250 exceeds 210 rows available after holding out 90 of 300"
        ]
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "supervise", "bench"])
    def test_one_train_row_is_one(self, command, demo_dir, tmp_path, capsys):
        # One train row cannot fit a numeric marginal; two can.
        out = tmp_path / "o"
        code = main([command, *_data_flags(demo_dir), "--train-rows", "1", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: train_rows must be at least 2, got 1: a numeric marginal needs 2 values to fit"
        ]
        assert captured.out == ""
        assert not out.exists()
        code = main([command, *_data_flags(demo_dir), "--train-rows", "2", "--out", str(out)])
        assert code == 0

    def test_usage_error_is_one_error_line(self, capsys):
        assert main(["run", "--seed", "abc"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "'abc'" in err[0], err

    def test_fit_dropped_flags_are_one(self, demo_dir, tmp_path, capsys):
        # fit reads none of these: the native fit is closed-form and persists
        # a native model only.
        for flag, value in (
            ("--sample-rows", "100"),
            ("--epochs", "0"),
            ("--parity-threshold", "2"),
            ("--min-score", "0.5"),
            ("--backends-file", "backends.json"),
        ):
            code = main(
                ["fit", *_data_flags(demo_dir), *_fit_flags(), flag, value,
                 "--out", str(tmp_path / "m.json")]
            )
            assert code == 1, flag
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and flag in err[0], err
            assert not (tmp_path / "m.json").exists()

    def test_bench_min_score_is_one(self, demo_dir, tmp_path, capsys):
        code = main(["bench", *_data_flags(demo_dir), "--min-score", "0.5"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "--min-score" in err[0], err


def _subcommands():
    parser = _build_parser()
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


class TestFlags:
    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        flags = {
            name: {opt for a in p._actions if a.dest != "help" for opt in a.option_strings}
            for name, p in _subcommands().items()
        }
        assert flags["fit"] == {
            "--data", "--metadata", "--backend", "--train-rows", "--seed",
            "--holdout-fraction", "--shrinkage", "--out",
        }
        assert flags["bench"] == flags["run"] - {"--backend", "--min-score"} | {"--backends"}
        assert flags["supervise"] == flags["run"] | {"--max-refinements"}
        assert {name: len(f) for name, f in flags.items()} == {
            "demo": 4, "fit": 8, "sample": 4, "evaluate": 7, "score": 3,
            "run": 13, "supervise": 14, "bench": 12,
        }

    def test_defaults_are_the_library_defaults(self):
        data = ["--data", "d.csv", "--metadata", "m.json"]
        run, split, targets = RunConfig(), SplitSpec(1), Targets()
        synthesizer, demo = inspect.signature(fit).parameters, DemoSpec()
        pipeline = {
            "train_rows": run.train_rows,
            "sample_rows": run.sample_rows,
            "epochs": run.epochs,
            "seed": run.seed,
            "holdout_fraction": split.holdout_fraction,
            "shrinkage": run.correlation_shrinkage,
            "parity_threshold": targets.parity_threshold,
            "backends_file": None,
        }
        supervised = {**pipeline, "backend": run.backend, "min_score": targets.min_synth_score}
        cases = {
            "demo": (["--out", "o"], {
                "rows": demo.n_rows, "seed": demo.seed, "disparity": demo.disparity_strength,
            }),
            "fit": ([*data, "--out", "o"], {
                "backend": synthesizer["backend"].default,
                "train_rows": run.train_rows,
                "seed": synthesizer["seed"].default,
                "holdout_fraction": split.holdout_fraction,
                "shrinkage": run.correlation_shrinkage,
            }),
            "sample": (["--model", "m.json", "--out", "o"], {
                "rows": run.sample_rows, "seed": run.seed,
            }),
            "evaluate": ([*data, "--synthetic", "s.csv", "--out", "o"], {
                "seed": split.seed,
                "holdout_fraction": split.holdout_fraction,
                "parity_threshold": DEFAULT_PARITY_THRESHOLD,
            }),
            "score": (["--quality", "q.json", "--fairness", "f.json"], {
                "parity_threshold": DEFAULT_PARITY_THRESHOLD,
            }),
            "run": ([*data, "--out", "o"], {**supervised, "max_refinements": 0}),
            "supervise": ([*data, "--out", "o"], {
                **supervised, "max_refinements": targets.max_refinements,
            }),
            "bench": (data, {**pipeline, "backends": ",".join(NATIVE_BACKENDS), "out": None}),
        }
        assert set(cases) == set(_subcommands())
        for command, (required, expected) in cases.items():
            args = vars(_build_parser().parse_args([command, *required]))
            given = {flag[2:].replace("-", "_") for flag in required[::2]}
            got = {k: v for k, v in args.items() if k not in {"command", "func", *given}}
            assert got == expected, command


class TestMetadataInvariants:
    @pytest.mark.parametrize(
        "label, protected, expect",
        [
            ({"column": "Diagnosis", "positive": "Positive"}, ["Race", "Sex"], "'Positive'"),
            ({"column": "Diagnosis", "positive": "positive"}, ["Race", "symptom_scale"],
             "'symptom_scale'"),
            ({"column": "Diagnosis", "positive": "positive"}, ["Race", "Diagnosis"],
             "'Diagnosis'"),
        ],
        ids=["positive_label_absent", "protected_numeric", "protected_is_label"],
    )
    def test_run_exits_one_with_one_error_line(
        self, label, protected, expect, demo_dir, tmp_path, capsys
    ):
        md = tmp_path / "metadata.json"
        md.write_text(json.dumps({"label": label, "protected": protected}), encoding="utf-8")
        code = main(
            ["run", "--data", str(demo_dir / "demo.csv"), "--metadata", str(md),
             *_small_flags(), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and expect in err[0]
        assert not (tmp_path / "o").exists()

    def test_run_on_header_only_file_exits_one(self, demo_dir, tmp_path, capsys):
        # A column declared numeric is parsed from the first row, so a file
        # with no row to parse still reaches EmptyTable.
        data = tmp_path / "empty.csv"
        header = (demo_dir / "demo.csv").read_text(encoding="utf-8").splitlines()[0]
        data.write_text(header + "\r\n", encoding="utf-8")
        doc = json.loads((demo_dir / "metadata.json").read_text(encoding="utf-8"))
        doc["columns"] = {"symptom_scale": {"kind": "numeric"}}
        md = tmp_path / "metadata.json"
        md.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["run", "--data", str(data), "--metadata", str(md), *_small_flags(),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0] == f"error: {data}: no data rows", err


def _seed_argv(command, demo_dir, evaluated, out):
    tmp, synth = evaluated
    return {
        "run": ["run", *_data_flags(demo_dir), *_small_flags(), "--out", out],
        "fit": ["fit", *_data_flags(demo_dir), *_fit_flags(), "--out", out],
        "demo": ["demo", "--rows", "60", "--out", out],
        "evaluate": ["evaluate", *_data_flags(demo_dir), "--synthetic", str(synth), "--out", out],
        "sample": ["sample", "--model", str(tmp / "model.json"), "--out", out],
    }[command]


class TestNegativeSeed:
    @pytest.mark.parametrize(
        "command, env_seed",
        [
            ("run", None),
            ("demo", None),
            ("evaluate", None),
            ("sample", None),
            ("run", "-3"),
            ("fit", "-3"),
        ],
    )
    def test_exits_one_with_one_error_line(
        self, command, env_seed, demo_dir, evaluated, tmp_path, monkeypatch, capsys
    ):
        argv = _seed_argv(command, demo_dir, evaluated, str(tmp_path / "o"))
        if env_seed is None:
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv(SEED_ENV_VAR, env_seed)
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "seed" in err[0]


_METADATA = {"label": {"column": "Diagnosis", "positive": "positive"}, "protected": ["Race", "Sex"]}


def _not_positive_definite(model):
    n = len(model["column_order"])
    model["correlation"] = [[1.0 if i == j else 2.0 for j in range(n)] for i in range(n)]
    return model


def _with_cell(csv, row, column, cell):
    """The demo CSV (no quoted fields) with one data cell replaced."""
    lines = csv.split(b"\r\n")
    fields = lines[row].split(b",")
    fields[lines[0].split(b",").index(column.encode())] = cell
    lines[row] = b",".join(fields)
    return b"\r\n".join(lines)


def _with_marginal(model, name, **fields):
    model["marginals"][name].update(fields)
    return model


#: case -> (input read by the command, file contents); a callable builds the
#: contents from the demo CSV bytes and the fitted model document.
_HOSTILE = {
    "metadata_empty": ("metadata", ""),
    "metadata_not_json": ("metadata", "{label: Diagnosis"),
    "metadata_kind_bogus": ("metadata", {**_METADATA, "columns": {"setting": {"kind": "bogus"}}}),
    "metadata_columns_not_mapping": ("metadata", {**_METADATA, "columns": ["setting"]}),
    "metadata_columns_empty_list": ("metadata", {**_METADATA, "columns": []}),
    "metadata_columns_null": ("metadata", {**_METADATA, "columns": None}),
    "metadata_columns_false": ("metadata", {**_METADATA, "columns": False}),
    "metadata_declares_absent_column": (
        "metadata", {**_METADATA, "columns": {"symptom_scal": {"kind": "categorical"}}}
    ),
    "metadata_positive_label_not_string": (
        "metadata", {**_METADATA, "label": {"column": "Diagnosis", "positive": ["positive"]}}
    ),
    "metadata_label_column_absent": (
        "metadata", {"label": {"column": "Outcome", "positive": "yes"}, "protected": []}
    ),
    "backends_not_json": ("backends", "[{"),
    "backends_non_objects": ("backends", "[1, 2]"),
    "backends_nested_too_deep": ("backends", "[" * 100_000),
    "backends_timeout_not_a_number": (
        "backends", '[{"name": "x", "command": ["true"], "timeout_seconds": "abc"}]'
    ),
    "backends_timeout_overflow": (
        "backends", '[{"name": "x", "command": ["true"], "timeout_seconds": 1.5e400}]'
    ),
    "backends_timeout_beyond_poll": (
        "backends", '[{"name": "x", "command": ["true"], "timeout_seconds": 1e300}]'
    ),
    "backends_stderr_not_utf8": (
        "backends",
        json.dumps([{"name": "x", "command": [
            sys.executable, "-c", "import sys; sys.stderr.buffer.write(b'caf\\xe9'); sys.exit(3)"
        ]}]),
    ),
    "data_not_utf8": ("data", lambda csv, model: csv.replace(b"inpatient", b"inpat\xffient", 1)),
    "data_ragged_row": ("data", lambda csv, model: csv + b"White,Male,1.0\r\n"),
    "data_stray_na_in_numbers": (
        "data", lambda csv, model: _with_cell(csv, 10, "symptom_scale", b"NA")
    ),
    "data_nul_byte_in_label": (
        "data", lambda csv, model: csv.replace(b",negative", b",nega\x00tive", 1)
    ),
    "score_not_json": ("score", "overall_score: 0.9"),
    "score_json_list": ("score", "[]"),
    "model_not_json": ("model", "{"),
    "model_missing_marginal": (
        "model", lambda csv, model: {**model, "marginals": {}}
    ),
    "model_not_positive_definite": ("model", lambda csv, model: _not_positive_definite(model)),
    "model_correlation_wrong_size": ("model", lambda csv, model: {**model, "correlation": [[1.0]]}),
    "model_numeric_marginal_empty": (
        "model", lambda csv, model: _with_marginal(model, "symptom_scale", sorted_values=[])
    ),
    "model_frequencies_mismatch": (
        "model", lambda csv, model: _with_marginal(model, "Race", frequencies=[1.0])
    ),
    "model_frequency_negative": (
        "model", lambda csv, model: _with_marginal(model, "Race", frequencies=[-1, 1, 0.5, 0.5])
    ),
    "model_frequency_nan": (
        "model", lambda csv, model: _with_marginal(model, "Race", frequencies=[math.nan] * 4)
    ),
    "model_frequencies_sum_below_one": (
        "model", lambda csv, model: _with_marginal(model, "Race", frequencies=[0.2] * 4)
    ),
    "model_category_duplicated": (
        "model", lambda csv, model: _with_marginal(model, "Race", categories=["Asian"] * 4)
    ),
    "model_sorted_values_descending": (
        "model", lambda csv, model: _with_marginal(model, "symptom_scale", sorted_values=[2.0, 1.0])
    ),
    "run_parity_threshold_nan": ("flag", None),
    "score_parity_threshold_nan": ("flag", None),
}


class TestMalformedInputSweep:
    @pytest.mark.parametrize("case", sorted(_HOSTILE))
    def test_exits_with_one_error_line(self, case, demo_dir, evaluated, tmp_path, capsys):
        tmp, _ = evaluated
        reads, contents = _HOSTILE[case]
        if callable(contents):
            model = json.loads((tmp / "model.json").read_text(encoding="utf-8"))
            contents = contents((demo_dir / "demo.csv").read_bytes(), model)
        if isinstance(contents, dict):
            contents = json.dumps(contents)
        bad = tmp_path / "bad"
        if isinstance(contents, bytes):
            bad.write_bytes(contents)
        elif contents is not None:
            bad.write_text(contents, encoding="utf-8")

        out = ["--out", str(tmp_path / "o")]
        data = ["--data", str(bad if reads == "data" else demo_dir / "demo.csv")]
        metadata = ["--metadata", str(bad if reads == "metadata" else demo_dir / "metadata.json")]
        report = tmp_path / "report.json"
        report.write_text('{"overall_score": 0.9, "max_rel_fpr": 1.5, "tstr": {"degenerate": false}}')
        score = ["score", "--quality", str(bad if reads == "score" else report),
                 "--fairness", str(report)]
        argv = {
            "metadata": ["run", *data, *metadata, *_small_flags(), *out],
            "data": ["run", *data, *metadata, *_small_flags(), *out],
            "backends": ["run", *data, *metadata, *_small_flags(), "--backends-file", str(bad),
                         "--backend", "x", *out],
            "score": score,
            "model": ["sample", "--model", str(bad), *out],
            "flag": (score if case.startswith("score") else
                     ["run", *data, *metadata, *_small_flags(), *out])
            + ["--parity-threshold", "nan"],
        }[reads]

        assert main(argv) in (1, 2)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err


def test_declared_column_absent_is_a_bad_request(demo_dir, tmp_path, capsys):
    metadata = tmp_path / "metadata.json"
    metadata.write_text(
        json.dumps({**_METADATA, "columns": {"symptom_scal": {"kind": "categorical"}}}),
        encoding="utf-8",
    )
    argv = ["run", "--data", str(demo_dir / "demo.csv"), "--metadata", str(metadata),
            *_small_flags(), "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "'symptom_scal'" in err[0], err


def test_text_id_column_is_a_bad_request(demo_dir, tmp_path, capsys):
    # Each demo row gets its own record ID: the run stops at ingest, before
    # any fit, instead of synthesizing a copy of the column.
    lines = (demo_dir / "demo.csv").read_text(encoding="utf-8").splitlines()
    with_ids = [lines[0] + ",record_id"] + [f"{row},P{i:07d}" for i, row in enumerate(lines[1:])]
    data = tmp_path / "ids.csv"
    data.write_text("\r\n".join(with_ids) + "\r\n", encoding="utf-8")
    argv = ["run", "--data", str(data), "--metadata", str(demo_dir / "metadata.json"),
            *_small_flags(), "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: column 'record_id' "), err
    assert "300 distinct categories" in err[0] and '"columns"' in err[0], err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("declared", [False, True])
def test_decimal_beyond_float64_is_named(declared, demo_dir, tmp_path, capsys):
    # "1e309" is a plain decimal that float64 cannot hold: neither "non-numeric"
    # nor advice to declare the column's kind, which does not help it.
    data = tmp_path / "demo.csv"
    data.write_bytes(_with_cell((demo_dir / "demo.csv").read_bytes(), 6, "symptom_scale", b"1e309"))
    metadata = json.loads((demo_dir / "metadata.json").read_text(encoding="utf-8"))
    if declared:
        metadata["columns"] = {"symptom_scale": {"kind": "numeric"}}
    (tmp_path / "metadata.json").write_text(json.dumps(metadata), encoding="utf-8")
    argv = ["run", "--data", str(data), "--metadata", str(tmp_path / "metadata.json"),
            *_small_flags(), "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: column 'symptom_scale': cell '1e309' in data row 6 is a number out of "
        "float64's range"
    ]


def _near_float_max(csv):
    """The demo CSV (no quoted fields) with ``symptom_scale`` at
    2^1020 (|v| + 4) and every 50th data row at -1.7e308: values of both
    signs near the float64 maximum, whose differences overflow."""
    lines = csv.split(b"\r\n")
    j = lines[0].split(b",").index(b"symptom_scale")
    for i, line in enumerate(lines[1:], 1):
        if line:
            fields = line.split(b",")
            value = -1.7e308 if i % 50 == 0 else 2.0**1020 * (abs(float(fields[j])) + 4)
            fields[j] = repr(value).encode()
            lines[i] = b",".join(fields)
    return b"\r\n".join(lines)


class TestColumnNearFloatMax:
    """Warnings are errors here: a numpy overflow warning would be a
    traceback, not an exit code."""

    def test_evaluate_scores_it(self, demo_dir, tmp_path, capsys):
        # The encoder standardises at its stats' power of two, so no value -
        # mean overflows.
        synth = tmp_path / "synth.csv"
        synth.write_bytes(_near_float_max((demo_dir / "demo.csv").read_bytes()))
        argv = ["evaluate", *_data_flags(demo_dir), "--synthetic", str(synth),
                "--out", str(tmp_path / "e")]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("synth_score ")

    def test_run_exits_two_with_one_error_line(self, demo_dir, tmp_path, capsys):
        # The sampler's step between the two signs overflows to inf, as
        # np.interp's does, without a warning; the non-finite synthetic
        # column fails every iteration.
        data = tmp_path / "demo.csv"
        data.write_bytes(_near_float_max((demo_dir / "demo.csv").read_bytes()))
        argv = ["run", "--data", str(data), "--metadata", str(demo_dir / "metadata.json"),
                *_small_flags(), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "non-finite" in err[0], err


class TestSeedEnvVar:
    def test_env_overrides_flag(self, demo_dir, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "3")
        model_path = tmp_path / "model.json"
        main(["fit", *_data_flags(demo_dir), *_fit_flags(), "--seed", "0",
              "--out", str(model_path)])
        assert json.loads(model_path.read_text())["seed"] == 3

    def test_invalid_env_value_is_one(self, demo_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        code = main(
            ["run", *_data_flags(demo_dir), *_small_flags(), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert SEED_ENV_VAR in capsys.readouterr().err

    def test_env_ignored_for_commands_without_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        q = tmp_path / "q.json"
        f = tmp_path / "f.json"
        q.write_text('{"overall_score": 0.5}')
        f.write_text('{"max_rel_fpr": 1.0, "tstr": {"degenerate": false}}')
        assert main(["score", "--quality", str(q), "--fairness", str(f)]) == 0


#: sha256 of every file that ``demo`` and then ``run``, ``supervise`` and
#: ``bench --out`` with default flags write. A change that alters one of these
#: outputs on purpose updates its digest and says why; so it does for the
#: perfbench ``--seed 1`` artifacts pinned in ``perfbench_sha256.json``, which
#: CI checks.
ARTIFACT_SHA256 = {
    "d/demo.csv": "8a9eedede6e65cb884971282899bbe6d770e82850cf4df4e0ce238c4261b8592",
    "d/metadata.json": "dd7426918cc32d5a4ba0e2651ba07fd2daea9540119791e12145227af7b98cc7",
    "r/fairness_metrics.json": "002290e2b0568dc774b60c4455b51debf5ea00982e55e5d000db9c5cb36eaec7",
    "r/run_summary.json": "8f4263602f38d161157dbeb11f83a57edc417d4cea90cb1d2b0fce5127b8938b",
    "r/sdmetrics_quality_report.json": "63be3aead4f197aabde688f8f7a096a467d7f175422b5ee2f39ca26f776c6db4",
    "r/synthetic.csv": "5576a91d30b205e94e46e9e731ce008b9cbe50ddee86c49741cb97be376de511",
    "s/fairness_metrics.json": "2edb8ab34edafaa31841396011e64fbd37637dcffe4f39608d6fa5674ee522e6",
    "s/run_summary.json": "a5b1070b4e9406324b5695739dfbd7488a32b8b200e75f868fbd41a0269f11f1",
    "s/sdmetrics_quality_report.json": "0fde7f22f49e9d02231f83e6d651d0ed21fb3d2332cb253e6c8ad1a72d0eb479",
    "s/synthetic.csv": "3b7a432fead1380bf180992b903650847e60f22c1bfa130d10ffdd468eb09c74",
    "b/bench_results.json": "ed6e3f8b0e02ccf89401b4791b83a1c95c125bab2a1674651358050aff2bfe2e",
    "b/bench_table.txt": "4e7b5d91d3cede8ca55e079def64e00a0abd9fd73f1af283fcd8946576793283",
}


class TestArtifactDigests:
    def test_demo_run_supervise_bench_are_byte_identical(self, tmp_path):
        data = ["--data", str(tmp_path / "d" / "demo.csv"),
                "--metadata", str(tmp_path / "d" / "metadata.json")]
        assert main(["demo", "--out", str(tmp_path / "d")]) == 0
        for command, out in (("run", "r"), ("supervise", "s"), ("bench", "b")):
            assert main([command, *data, "--out", str(tmp_path / out)]) == 0
        written = sorted(
            p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()
        )
        assert written == sorted(ARTIFACT_SHA256)
        got = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in written
        }
        assert got == ARTIFACT_SHA256



def test_every_traced_function_resolves():
    """perfbench's tracer looks up each (module, function) pair it lists, and
    a traced run fails on one that is gone."""
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "spans.py").read_text()
    assignment = next(
        node for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    )
    traced = ast.literal_eval(assignment.value)
    assert traced
    for module, function in traced:
        assert callable(getattr(importlib.import_module(f"fairsynth.{module}"), function))


def test_every_name_the_readme_cites_resolves():
    """Each backticked ``module.name`` in README.md, for a module of the
    package, names something that module has."""
    package = Path(fairsynth.__file__).resolve().parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cited = re.findall(r"`(%s)\.(?!py`)(\w+)" % "|".join(modules), readme)
    assert cited
    missing = [
        f"{module}.{name}"
        for module, name in cited
        if not hasattr(importlib.import_module(f"fairsynth.{module}"), name)
    ]
    assert missing == []


def _child_env():
    # The child must import the same fairsynth as this process, installed or not.
    src = str(Path(fairsynth.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestModuleEntryPoint:
    def test_python_dash_m(self, demo_dir, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "fairsynth.cli", "demo", "--rows", "60",
             "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert (tmp_path / "demo.csv").exists()

    def test_import_loads_neither_scipy_linalg_nor_optimize(self):
        # Either one adds megabytes of resident memory and tens of
        # milliseconds to every CLI start; numpy.linalg serves the solver.
        heavy = ("scipy.linalg", "scipy.optimize")
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, fairsynth.cli; print([m for m in {heavy!r} if m in sys.modules])"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


# Cells, metadata fields and flag values the probe below draws from. For a
# 400-row table a 0.3 holdout leaves 280 train rows.
_PROBE_CELLS = ["", " ", "nan", "inf", "-inf", "1e308", "-1e308", "1e999", "5e-324", "NA", "x",
                "-0", "positive", "negative", '"', "a,b", "two\r\nlines", "\x00", "\u0661"]
_PROBE_METADATA = [
    ("label", {"column": "nope", "positive": "positive"}),
    ("label", {"column": "symptom_scale", "positive": "positive"}),
    ("label", {"column": "Race", "positive": "Black"}),
    ("label", {"column": "Diagnosis", "positive": "maybe"}),
    ("label", {"column": "Diagnosis"}),
    ("protected", []),
    ("protected", ["Diagnosis"]),
    ("protected", ["symptom_scale"]),
    ("protected", ["nope"]),
    ("protected", "Race"),
    ("columns", {"symptom_scale": {"kind": "categorical"}}),
    ("columns", {"Race": {"kind": "numeric"}}),
    ("columns", {"Diagnosis": {"kind": "numeric"}}),
    ("columns", {"nope": {"kind": "numeric"}}),
    ("columns", {"Race": {"kind": "text"}}),
    ("columns", []),
]
_PROBE_FLAGS = {
    "--train-rows": ["1", "2", "279", "280", "281", "0"],
    "--sample-rows": ["1", "2", "0"],
    "--holdout-fraction": ["0.0005", "0.001", "0.5", "0.9995", "0", "1", "nan"],
    "--shrinkage": ["0", "1", "-0.5", "nan"],
    "--seed": ["0", str(2**32), str(2**64)],
    "--parity-threshold": ["1", "1e308", "inf", "nan", "0.5"],
    "--epochs": ["0", "1"],
}
_PROBE_KINDS = ["insert", "delete", "byte", "cell", "header", "columns", "rows", "metadata",
                "flag"]


def _mutated(rng, data: bytes, metadata: dict, kind: str) -> tuple[bytes, str, list[str]]:
    """One ``kind`` of mutation of the demo CSV bytes, its metadata or the
    flags: (CSV bytes, metadata text, extra flags)."""
    if kind in ("insert", "delete", "byte"):
        at = rng.randrange(len(data))
        if kind == "insert":
            byte = rng.choice([b'"', b",", b"\r", b"\n", bytes([rng.randrange(256)])])
            new = byte + data[at : at + 1]
        else:
            new = b"" if kind == "delete" else bytes([rng.randrange(256)])
        return data[:at] + new + data[at + 1 :], json.dumps(metadata), []
    if kind == "metadata":
        field, value = rng.choice(_PROBE_METADATA)
        return data, json.dumps({**metadata, field: value}), []
    if kind == "flag":
        flag = rng.choice(sorted(_PROBE_FLAGS))
        return data, json.dumps(metadata), [flag, rng.choice(_PROBE_FLAGS[flag])]
    header, *rows = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    j = rng.randrange(len(header))
    if kind == "cell":
        rows[rng.randrange(len(rows))][j] = rng.choice(_PROBE_CELLS)
    elif kind == "header":
        header[j] = rng.choice(["", header[j - 1], header[j] + " ", header[j].lower()])
    elif kind == "rows":
        rows = (rows * 2)[: rng.choice([0, 1, 2, 3, 10, 100, 2 * len(rows)])]
    else:
        op = rng.choice(["drop", "copy", "constant", "id"])
        table = [header, *rows]
        if op == "drop":
            table = [row[:j] + row[j + 1 :] for row in table]
        else:
            added = {"copy": [f"{header[j]}2", *(row[j] for row in rows)],
                     "constant": ["constant", *("1" for _ in rows)],
                     "id": ["rid", *(f"r{i}" for i in range(len(rows)))]}[op]
            table = [row + [cell] for row, cell in zip(table, added)]
        header, *rows = table
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue().encode("utf-8"), json.dumps(metadata), []


def test_mutation_probe_keeps_the_exit_code_contract(tmp_path, capsys, monkeypatch):
    """Seeded single mutations of a 400-row demo table, its metadata and the
    flags, each run through run, supervise or bench in-process: every call
    exits 0, 1 or 2, a failure prints one error line, every JSON written
    parses, and exit 2 comes only from a runtime failure."""
    rng = random.Random(12)
    demo = tmp_path / "demo"
    assert main(["demo", "--rows", "400", "--seed", "0", "--out", str(demo)]) == 0
    data = (demo / "demo.csv").read_bytes()
    metadata = json.loads((demo / "metadata.json").read_text(encoding="utf-8"))
    raised = []

    def recorded(func):
        def call(*args, **kwargs):
            try:
                return func(*args, **kwargs)
            except Exception as exc:
                raised.append(exc)
                raise

        return call

    monkeypatch.setattr(cli, "cmd_supervise", recorded(cli.cmd_supervise))
    monkeypatch.setattr(cli, "cmd_bench", recorded(cli.cmd_bench))
    monkeypatch.setattr(cli, "supervise", partial(supervise, pipeline=recorded(run_pipeline)))
    codes = Counter()
    for i in range(300):
        command = rng.choice(["run", "supervise", "bench"])
        kind = rng.choice(_PROBE_KINDS)
        csv_bytes, metadata_text, flags = _mutated(rng, data, metadata, kind)
        call = tmp_path / f"c{i}"
        call.mkdir()
        (call / "data.csv").write_bytes(csv_bytes)
        (call / "metadata.json").write_text(metadata_text, encoding="utf-8")
        argv = [command, "--data", str(call / "data.csv"), "--metadata",
                str(call / "metadata.json"), *_small_flags(), *flags, "--out", str(call / "o")]
        if command == "supervise":
            argv += ["--max-refinements", "1"]
        raised.clear()
        code = main(argv)
        codes[code] += 1
        case = (i, kind, argv[0], flags)
        assert code in (0, 1, 2), case
        err = capsys.readouterr().err.splitlines()
        if code:
            assert len(err) == 1 and err[0].startswith("error: "), (case, err)
        for path in call.rglob("*.json"):
            _strict_json(path.read_text(encoding="utf-8"))
        if code == 2:
            assert raised and all(isinstance(e, (RuntimeFailure, OSError)) for e in raised), (
                case, raised)
    assert codes[0] > 50 and codes[1] > 50, codes

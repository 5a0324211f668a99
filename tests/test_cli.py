import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fairsynth
from fairsynth.cli import SEED_ENV_VAR, main


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


def _small_flags():
    return ["--train-rows", "150", "--sample-rows", "100"]


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
        model_path = tmp_path / "model.json"
        code = main(
            ["fit", *_data_flags(demo_dir), *_small_flags(), "--out", str(model_path)]
        )
        assert code == 0
        doc = json.loads(model_path.read_text())
        assert set(doc) == {"marginals", "correlation", "column_order", "fitted_rows", "seed"}
        assert doc["fitted_rows"] == 150

    def test_sample_from_model(self, demo_dir, tmp_path):
        model_path = tmp_path / "model.json"
        main(["fit", *_data_flags(demo_dir), *_small_flags(), "--out", str(model_path)])
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
          str(demo_dir / "metadata.json"), *_small_flags(), "--out", str(model)])
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

    def test_score_malformed_json_exits_one(self, tmp_path, capsys):
        q = tmp_path / "q.json"
        f = tmp_path / "f.json"
        q.write_text('{"wrong_key": 1}')
        f.write_text('{"max_rel_fpr": 1.0, "tstr": {"degenerate": false}}')
        assert main(["score", "--quality", str(q), "--fairness", str(f)]) == 1
        assert "malformed" in capsys.readouterr().err


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

    def test_fit_bad_epochs_is_one(self, demo_dir, tmp_path, capsys):
        code = main(
            ["fit", *_data_flags(demo_dir), *_small_flags(), "--epochs", "0",
             "--out", str(tmp_path / "m.json")]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "epochs" in err[0]
        assert not (tmp_path / "m.json").exists()


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


def _seed_argv(command, demo_dir, evaluated, out):
    tmp, synth = evaluated
    return {
        "run": ["run", *_data_flags(demo_dir), *_small_flags(), "--out", out],
        "fit": ["fit", *_data_flags(demo_dir), *_small_flags(), "--out", out],
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


class TestSeedEnvVar:
    def test_env_overrides_flag(self, demo_dir, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "3")
        model_path = tmp_path / "model.json"
        main(["fit", *_data_flags(demo_dir), *_small_flags(), "--seed", "0",
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

import hashlib
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


_METADATA = {"label": {"column": "Diagnosis", "positive": "positive"}, "protected": ["Race", "Sex"]}


def _not_positive_definite(model):
    n = len(model["column_order"])
    model["correlation"] = [[1.0 if i == j else 2.0 for j in range(n)] for i in range(n)]
    return model


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
    "data_not_utf8": ("data", lambda csv, model: csv.replace(b"inpatient", b"inpat\xffient", 1)),
    "data_ragged_row": ("data", lambda csv, model: csv + b"White,Male,1.0\r\n"),
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


#: sha256 of every file that ``demo`` and then ``run``, ``supervise`` and
#: ``bench --out`` with default flags write. A change that alters one of these
#: outputs on purpose updates its digest and says why.
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

import json
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import replace

import pytest

from fairsynth import external, supervisor
from fairsynth.errors import (
    BackendFailed,
    FairsynthError,
    InsufficientRows,
    SchemaMismatch,
    ValidationFailure,
)
from fairsynth.external import ExternalBackend
from fairsynth.reports import (
    FAIRNESS_JSON,
    QUALITY_JSON,
    SUMMARY_JSON,
    SYNTHETIC_CSV,
    BenchResult,
    BenchRow,
    batch_evaluate,
    bench_doc,
    bench_table,
    config_doc,
    failed_summary_doc,
    fairness_doc,
    quality_doc,
    ratio_from_json,
    ratio_value,
    render_json,
    scores_doc,
    summary_doc,
    write_reports,
)
from fairsynth.schema import SplitSpec
from fairsynth.scoring import synth_score
from fairsynth.supervisor import RunConfig, Targets, run_pipeline, split_for, supervise

SPLIT = SplitSpec(train_rows=400, holdout_fraction=0.3, seed=0)
SMALL = RunConfig(train_rows=400, sample_rows=300, seed=0)


def _external(name: str, script: str, *args: str, timeout_seconds: int = 600) -> ExternalBackend:
    """A Python child that runs ``script`` with argv[1:] = train CSV, output
    CSV, then ``args``."""
    return ExternalBackend(
        name, (sys.executable, "-c", script, "{train_csv}", "{out_csv}", *args), timeout_seconds
    )


COPY = "import shutil, sys; shutil.copy(sys.argv[1], sys.argv[2])"


class TestRenderJson:
    def test_scalars(self):
        assert render_json(None) == "null\n"
        assert render_json(True) == "true\n"
        assert render_json(False) == "false\n"
        assert render_json(3) == "3\n"
        assert render_json(0.5) == "0.500000\n"
        assert render_json("hi") == '"hi"\n'

    def test_float_formatting_is_fixed_width(self):
        assert render_json(1 / 3) == "0.333333\n"
        assert render_json(2.0) == "2.000000\n"

    def test_int_stays_int(self):
        assert render_json({"n": 20}) == '{\n  "n": 20\n}\n'

    def test_string_escaping(self):
        assert render_json('a"b\\c') == '"a\\"b\\\\c"\n'

    def test_control_characters_round_trip(self):
        text = "a\nb\tc\x00d\x1fe\\f\"g é"
        doc = {text: [text, {"error": text}]}
        assert json.loads(render_json(doc)) == doc
        assert "é" in render_json(text)  # non-ASCII is written as is, not \u-escaped

    def test_insertion_order_preserved(self):
        text = render_json({"zeta": 1, "alpha": 2})
        assert text.index("zeta") < text.index("alpha")

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationFailure):
            render_json(float("inf"))
        with pytest.raises(ValidationFailure):
            render_json({"x": float("nan")})

    def test_valid_json(self):
        doc = {"a": [1, 2.5, "s"], "b": {"c": None, "d": [True, {}]}, "e": []}
        assert json.loads(render_json(doc)) == {
            "a": [1, 2.5, "s"],
            "b": {"c": None, "d": [True, {}]},
            "e": [],
        }

    def test_deterministic(self):
        doc = {"x": 0.1234567, "y": [1, {"z": False}]}
        assert render_json(doc) == render_json(doc)

    def test_random_documents_round_trip(self):
        rng = random.Random(4)
        for _ in range(300):
            doc = {_random_text(rng): _random_value(rng, 3) for _ in range(rng.randint(0, 5))}
            text = render_json(doc)
            # parse_float=str keeps each number's text, so the %.6f form is checked exactly.
            assert json.loads(text, parse_float=str) == _floats_as_text(doc)


# Characters that stress the string escaper: every control character, the two
# JSON escapes, and the code points some JSON writers treat specially.
_HOSTILE_CHARS = [chr(c) for c in range(0x20)] + [
    "\x7f", "\\", '"', "/", "\u2028", "\u2029", "\ufeff", "é", "\U0001f600"
]


def _random_text(rng: random.Random) -> str:
    chars = []
    for _ in range(rng.randint(0, 12)):
        if rng.random() < 0.5:
            chars.append(rng.choice(_HOSTILE_CHARS))
        else:
            code = rng.randint(0x20, 0x10FFFF)
            # Surrogates are not characters: no valid UTF-8 text holds one.
            chars.append(chr(code) if not 0xD800 <= code <= 0xDFFF else "?")
    return "".join(chars)


def _random_value(rng: random.Random, depth: int):
    kind = rng.randrange(7 if depth else 5)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.randint(-(10**12), 10**12)
    if kind == 2:
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-9, 15)
    if kind in (3, 4):
        return _random_text(rng)
    if kind == 5:
        return [_random_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    return {_random_text(rng): _random_value(rng, depth - 1) for _ in range(rng.randint(0, 4))}


def _floats_as_text(value):
    if isinstance(value, float):
        return "%.6f" % value
    if isinstance(value, list):
        return [_floats_as_text(v) for v in value]
    if isinstance(value, dict):
        return {k: _floats_as_text(v) for k, v in value.items()}
    return value


class TestRatioSerialization:
    def test_round_trip(self):
        for ratio in (None, float("inf"), 1.0, 2.6789):
            assert ratio_from_json(ratio_value(ratio)) == ratio or (
                ratio is None and ratio_from_json(ratio_value(ratio)) is None
            )

    def test_undefined_string(self):
        assert ratio_value(None) == "undefined"

    def test_inf_string(self):
        assert ratio_value(float("inf")) == "inf"

    def test_finite_stays_number(self):
        assert ratio_value(1.5) == 1.5


@pytest.fixture(scope="module")
def pipeline_result(demo_data, demo_md):
    return run_pipeline(SMALL, split_for(SMALL, demo_data, SPLIT), demo_md)


class TestDocumentLayouts:
    def test_quality_doc_fields(self, pipeline_result):
        doc = quality_doc(pipeline_result.quality)
        assert list(doc) == ["overall_score", "column_shapes", "column_pair_trends"]
        assert list(doc["column_shapes"]) == ["score", "per_column"]
        assert list(doc["column_pair_trends"]) == ["score", "per_pair"]
        for entry in doc["column_shapes"]["per_column"].values():
            assert list(entry) == ["metric", "score"]
        for entry in doc["column_pair_trends"]["per_pair"]:
            assert list(entry) == ["a", "b", "metric", "score"]

    def test_fairness_doc_fields(self, pipeline_result):
        doc = fairness_doc(pipeline_result.fairness, pipeline_result.composite)
        assert list(doc) == [
            "tstr",
            "by_attribute",
            "max_rel_fpr",
            "fairness_mult",
            "quality",
            "synth_score",
        ]
        assert doc["tstr"]["model"] == "logistic_regression"
        assert doc["tstr"]["threshold"] == 0.5
        assert isinstance(doc["tstr"]["degenerate"], bool)
        for attr_doc in doc["by_attribute"].values():
            assert list(attr_doc) == ["fpr", "max_rel_fpr"]

    def test_scores_doc_fields(self, pipeline_result):
        doc = scores_doc(pipeline_result.composite)
        assert list(doc) == [
            "quality",
            "max_rel_fpr",
            "fairness_mult",
            "synth_score",
            "parity_ok",
            "degenerate",
        ]

    def test_config_doc_round_trips_fields(self):
        doc = config_doc(SMALL)
        assert doc["backend"] == "gaussian_copula"
        assert doc["train_rows"] == 400 and doc["sample_rows"] == 300
        assert doc["seed"] == 0 and doc["epochs"] == 20
        assert doc["balance_attribute"] is None

    def test_summary_doc_fields(self, demo_data, demo_md):
        result = supervise(SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=1))
        doc = summary_doc(result)
        assert list(doc) == ["stop_reason", "best_iteration", "history"]
        for entry in doc["history"]:
            assert list(entry)[:3] == ["config", "scores", "action_taken"]

    def test_failed_summary_doc(self):
        doc = failed_summary_doc([])
        assert doc == {"stop_reason": "all_failed", "best_iteration": None, "history": []}


class TestWriteReports:
    def test_files_exist_and_parse(self, demo_data, demo_md, tmp_path):
        result = run_pipeline(SMALL, split_for(SMALL, demo_data, SPLIT), demo_md)
        write_reports(
            result.quality, result.fairness, result.composite, result.synthetic, tmp_path
        )
        for name in (QUALITY_JSON, FAIRNESS_JSON, SYNTHETIC_CSV):
            assert (tmp_path / name).exists(), name
        assert not (tmp_path / SUMMARY_JSON).exists()
        parsed = json.loads((tmp_path / QUALITY_JSON).read_text())
        assert parsed["overall_score"] == pytest.approx(result.quality.overall_score, abs=5e-7)

    def test_reemission_is_byte_identical(self, demo_data, demo_md, tmp_path):
        result = run_pipeline(SMALL, split_for(SMALL, demo_data, SPLIT), demo_md)
        first, second = tmp_path / "one", tmp_path / "two"
        for out in (first, second):
            write_reports(
                result.quality, result.fairness, result.composite, result.synthetic, out
            )
        for name in (QUALITY_JSON, FAIRNESS_JSON, SYNTHETIC_CSV):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_summary_written_when_given(self, demo_data, demo_md, tmp_path):
        sup = supervise(SMALL, demo_data, demo_md, SPLIT, Targets(max_refinements=0))
        write_reports(
            sup.best_quality,
            sup.best_fairness,
            sup.best_composite,
            sup.best_synthetic,
            tmp_path,
            summary=summary_doc(sup),
        )
        parsed = json.loads((tmp_path / SUMMARY_JSON).read_text())
        assert parsed["stop_reason"] in ("target_met", "budget")
        assert parsed["best_iteration"] == 0


class TestBench:
    def test_two_native_backends(self, demo_data, demo_md):
        result = batch_evaluate(
            ["gaussian_copula", "independent"], SMALL, Targets(), demo_data, demo_md
        )
        assert [r.backend for r in result.rows] == ["gaussian_copula", "independent"]
        for row in result.rows:
            assert row.error is None
            assert 0.0 <= row.quality <= 1.0
            assert 0.0 <= row.synth_score <= 1.0

    def test_rows_match_single_runs(self, demo_data, demo_md):
        result = batch_evaluate(["gaussian_copula"], SMALL, Targets(), demo_data, demo_md)
        single = run_pipeline(SMALL, split_for(SMALL, demo_data, SplitSpec(400, seed=0)), demo_md)
        row = result.rows[0]
        # The row keeps the whole record but its synthetic table.
        assert row.result == replace(single, synthetic=None)
        assert row.quality == single.composite.quality
        assert row.synth_score == single.composite.synth_score
        assert row.max_rel_fpr == single.composite.max_rel_fpr
        assert row.degenerate == single.composite.degenerate

    def test_deterministic(self, demo_data, demo_md):
        a = batch_evaluate(["gaussian_copula", "independent"], SMALL, Targets(), demo_data, demo_md)
        b = batch_evaluate(["gaussian_copula", "independent"], SMALL, Targets(), demo_data, demo_md)
        assert bench_doc(a) == bench_doc(b)
        assert bench_table(a) == bench_table(b)

    def test_failing_backend_keeps_others(self, demo_data, demo_md):
        bad = ExternalBackend(
            name="broken", command=(sys.executable, "-c", "import sys; sys.exit(9)")
        )
        result = batch_evaluate(
            ["gaussian_copula", "broken"],
            SMALL,
            Targets(),
            demo_data,
            demo_md,
            external_backends={"broken": bad},
        )
        good, failed = result.rows
        assert good.error is None and good.result is not None
        assert failed.error is not None and failed.result is None
        table = bench_table(result)
        assert "ERROR" in table

    def test_table_lines_of_an_error_row_beside_native_rows(self):
        # A row's cells are its bench_doc fields; a failed backend's are ERROR.
        def row(backend, quality, ratio, degenerate=False):
            composite = synth_score(quality, ratio, degenerate=degenerate)
            return BenchRow(backend, supervisor.PipelineResult(None, None, None, composite))

        result = BenchResult(
            SMALL,
            (
                row("gaussian_copula", 0.9, 4.5),
                BenchRow("broken", error="backend 'broken' exited with status 9"),
                row("independent", 0.8, None, degenerate=True),
                row("copy", 0.7, float("inf")),
            ),
        )
        assert bench_table(result) == (
            "backend          quality   max_rel_fpr  synth_score  degenerate\n"
            "gaussian_copula  0.900000  4.500000     0.400000     no\n"
            "broken           ERROR     ERROR        ERROR        ERROR\n"
            "independent      0.800000  undefined    0.800000     yes\n"
            "copy             0.700000  inf          0.000000     no\n"
        )

    def test_backend_that_removes_its_metadata_file_is_scored(self, demo_data, demo_md):
        """The synthetic rows are loaded under the caller's metadata, not from
        the metadata file handed to the backend, which the backend may remove."""
        script = (
            "import os, shutil, sys; os.remove(sys.argv[3]); shutil.copy(sys.argv[1], sys.argv[2])"
        )
        externals = {"forgetful": _external("forgetful", script, "{metadata_json}")}
        result = batch_evaluate(
            ["gaussian_copula", "forgetful"], SMALL, Targets(), demo_data, demo_md,
            external_backends=externals,
        )
        assert [row.error for row in result.rows] == [None, None]
        single = run_pipeline(
            replace(SMALL, backend="forgetful"),
            split_for(SMALL, demo_data, SplitSpec(400, seed=0)),
            demo_md,
            external_backends=externals,
        )
        assert single.synthetic.row_count == SMALL.train_rows
        assert result.rows[1].synth_score == single.composite.synth_score

    def test_insufficient_rows_raises_before_any_backend_runs(self, demo_data, demo_md):
        never = _external("never", "import sys; sys.exit(9)")
        with pytest.raises(InsufficientRows, match="after holding out 600 of 2000"):
            batch_evaluate(
                ["never", "gaussian_copula"], replace(SMALL, train_rows=1900), Targets(),
                demo_data, demo_md, external_backends={"never": never},
            )

    def test_empty_backend_list_rejected(self, demo_data, demo_md):
        with pytest.raises(ValidationFailure):
            batch_evaluate([], SMALL, Targets(), demo_data, demo_md)

    def test_bench_doc_echoes_config(self, demo_data, demo_md):
        result = batch_evaluate(["independent"], SMALL, Targets(), demo_data, demo_md)
        doc = bench_doc(result)
        assert list(doc) == ["config", "rows"]
        assert doc["config"] == config_doc(SMALL)
        assert doc["rows"][0]["backend"] == "independent"
        assert list(doc["rows"][0]) == [
            "backend",
            "quality",
            "max_rel_fpr",
            "synth_score",
            "degenerate",
        ]

    def test_table_layout(self, demo_data, demo_md):
        result = batch_evaluate(
            ["gaussian_copula", "independent"], SMALL, Targets(), demo_data, demo_md
        )
        lines = bench_table(result).splitlines()
        assert lines[0].split() == ["backend", "quality", "max_rel_fpr", "synth_score", "degenerate"]
        assert len(lines) == 3
        assert lines[1].startswith("gaussian_copula")
        assert lines[2].startswith("independent")


class TestBenchOverlap:
    """batch_evaluate runs an external backend's process while it evaluates
    the native backends, one external at a time."""

    EXTERNALS = {
        "copy": _external("copy", COPY),
        "broken": _external("broken", "import sys; sys.stderr.write('boom'); sys.exit(9)"),
        "renamer": _external(
            "renamer",
            "import sys\n"
            "text = open(sys.argv[1], newline='').read()\n"
            "open(sys.argv[2], 'w', newline='').write(text.replace('Race', 'Rice', 1))\n",
        ),
    }

    @staticmethod
    def _sequential(backends, data, md, externals):
        """The bench document of one run_pipeline per backend, in list order."""
        rows = []
        for backend in backends:
            try:
                result = run_pipeline(
                    replace(SMALL, backend=backend),
                    split_for(SMALL, data, SplitSpec(SMALL.train_rows, seed=SMALL.seed)),
                    md,
                    external_backends=externals,
                )
            except FairsynthError as exc:
                rows.append(BenchRow(backend=backend, error=str(exc)))
                continue
            rows.append(BenchRow(backend, result))
        return render_json(bench_doc(BenchResult(SMALL, tuple(rows))))

    @pytest.mark.parametrize(
        "backends",
        [
            ["copy", "gaussian_copula", "independent"],
            ["gaussian_copula", "copy", "independent"],
            ["gaussian_copula", "independent", "copy"],
            ["broken", "gaussian_copula", "copy", "no_such", "independent", "renamer", "copy"],
        ],
    )
    def test_rows_equal_a_sequential_run(self, backends, demo_data, demo_md):
        result = batch_evaluate(
            backends, SMALL, Targets(), demo_data, demo_md, external_backends=self.EXTERNALS
        )
        want = self._sequential(backends, demo_data, demo_md, self.EXTERNALS)
        assert render_json(bench_doc(result)) == want

    def test_externals_never_run_at_once(self, demo_data, demo_md, tmp_path):
        """Each child claims a marker file for 0.2 s and exits 7 if another
        child holds it."""
        hold = (
            "import os, shutil, sys, time\n"
            "try:\n"
            "    fd = os.open(sys.argv[3], os.O_CREAT | os.O_EXCL | os.O_WRONLY)\n"
            "except FileExistsError:\n"
            "    sys.exit(7)\n"
            "time.sleep(0.2)\n"
            "shutil.copy(sys.argv[1], sys.argv[2])\n"
            "os.close(fd)\n"
            "os.remove(sys.argv[3])\n"
        )
        marker = str(tmp_path / "marker")
        externals = {name: _external(name, hold, marker) for name in ("e1", "e2", "e3")}
        result = batch_evaluate(
            ["e1", "gaussian_copula", "e2", "e3", "independent"],
            SMALL, Targets(), demo_data, demo_md, external_backends=externals,
        )
        assert [row.error for row in result.rows] == [None] * 5

    @pytest.fixture
    def started(self, monkeypatch):
        """Every process started while the test runs."""
        processes = []

        class Recorded(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                processes.append(self)

        monkeypatch.setattr(subprocess, "Popen", Recorded)
        return processes

    @pytest.mark.parametrize("crash", [RuntimeError, KeyboardInterrupt])
    def test_native_crash_kills_and_reaps_the_running_external(
        self, crash, started, demo_data, demo_md, monkeypatch
    ):
        def fit(*args, **kwargs):
            raise crash("native step crashed")

        monkeypatch.setattr(supervisor, "fit", fit)
        sleeper = _external("sleeper", "import time; time.sleep(60)")
        begin = time.monotonic()
        with pytest.raises(crash, match="native step crashed"):
            batch_evaluate(
                ["gaussian_copula", "sleeper"], SMALL, Targets(), demo_data, demo_md,
                external_backends={"sleeper": sleeper},
            )
        assert time.monotonic() - begin < 30
        assert len(started) == 1  # launched before the native backend ran
        assert started[0].returncode is not None  # killed and reaped

    CLEANUP_CASES = {
        "success": (COPY, None),
        "backend_failed": ("import sys; sys.exit(9)", BackendFailed),
        "renamed_column": (
            "import sys\n"
            "text = open(sys.argv[1], newline='').read()\n"
            "open(sys.argv[2], 'w', newline='').write(text.replace('setting', 'sitting', 1))\n",
            SchemaMismatch,
        ),
        "interrupted": (COPY, KeyboardInterrupt),
    }

    @pytest.mark.parametrize("entry", ["run_pipeline", "batch_evaluate"])
    @pytest.mark.parametrize("case", list(CLEANUP_CASES))
    def test_no_directory_or_child_is_left_behind(
        self, entry, case, started, demo_data, demo_md, monkeypatch, tmp_path
    ):
        """Every temporary directory is removed and every child reaped,
        whether the external succeeds, fails, renames a column or the load
        of its output is interrupted."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        script, error = self.CLEANUP_CASES[case]
        externals = {"ext": _external("ext", script)}
        if error is KeyboardInterrupt:
            def interrupted(*args, **kwargs):
                raise KeyboardInterrupt

            monkeypatch.setattr(external, "load_dataset", interrupted)
        if entry == "run_pipeline":
            def call():
                return run_pipeline(
                    replace(SMALL, backend="ext"), split_for(SMALL, demo_data, SPLIT), demo_md,
                    external_backends=externals,
                )
        else:
            # The first external runs beside the native backend, the second after it.
            def call():
                return batch_evaluate(
                    ["ext", "independent", "ext"], SMALL, Targets(), demo_data, demo_md,
                    external_backends=externals,
                ).rows

        if error is None:
            call()
        elif entry == "batch_evaluate" and error is not KeyboardInterrupt:
            assert [row.error is None for row in call()] == [False, True, False]
        else:
            with pytest.raises(error):
                call()
        assert started
        assert [process.returncode is None for process in started] == [False] * len(started)
        assert list(tmp_path.iterdir()) == []

    def test_large_stderr_row_holds_its_last_500_characters(self, demo_data, demo_md):
        script = (
            "import sys\n"
            "sys.stderr.write('a' * 1_100_000 + ''.join(str(i % 10) for i in range(600)))\n"
            "sys.exit(3)\n"
        )
        result = batch_evaluate(
            ["chatty", "independent"], SMALL, Targets(), demo_data, demo_md,
            external_backends={"chatty": _external("chatty", script)},
        )
        tail = "".join(str(i % 10) for i in range(600))[-500:]
        assert result.rows[0].error == str(BackendFailed(3, tail))
        assert result.rows[1].error is None

    def test_exit_before_the_deadline_is_not_a_timeout(self, demo_data, demo_md, monkeypatch):
        """The native backends take longer than the external's timeout; the
        external exited long before it, so its row holds its rows' scores."""
        fit = supervisor.fit

        def slow_fit(*args, **kwargs):
            time.sleep(1.5)
            return fit(*args, **kwargs)

        monkeypatch.setattr(supervisor, "fit", slow_fit)
        quick = _external("quick", COPY, timeout_seconds=1)
        result = batch_evaluate(
            ["gaussian_copula", "quick"], SMALL, Targets(), demo_data, demo_md,
            external_backends={"quick": quick},
        )
        assert [row.error for row in result.rows] == [None, None]

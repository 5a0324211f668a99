import errno
import gc
import json
import os
import sys
import tempfile
import time
from contextlib import ExitStack
from pathlib import Path

import pytest

from fairsynth.copula import NATIVE_BACKENDS
from fairsynth.errors import BackendFailed, SchemaMismatch, Timeout, ValidationFailure
from fairsynth.external import (
    ExternalBackend,
    backend_from_json_dict,
    launch_external_backend,
    load_backends_file,
    run_external_backend,
)
from fairsynth.schema import SplitSpec
from fairsynth.supervisor import RunConfig, run_pipeline, split_for

PY = sys.executable

COPY_CMD = (
    PY,
    "-c",
    "import shutil, sys; shutil.copy(sys.argv[1], sys.argv[2])",
    "{train_csv}",
    "{out_csv}",
)

RENAME_CMD = (
    PY,
    "-c",
    (
        "import sys\n"
        "lines = open(sys.argv[1]).read().splitlines()\n"
        "lines[0] = lines[0].replace('setting', 'sitting')\n"
        "open(sys.argv[2], 'w', newline='').write('\\r\\n'.join(lines) + '\\r\\n')\n"
    ),
    "{train_csv}",
    "{out_csv}",
)


def _synthesize(spec, train, metadata, n_rows=10, epochs=1, seed=0):
    """Launch ``spec`` on ``train`` and wait for its rows; the run's stack is
    closed however it ends."""
    with ExitStack() as stack:
        run = launch_external_backend(spec, train, metadata, n_rows, epochs, seed, stack)
        return run_external_backend(run)


@pytest.fixture(params=["pidfd", "no-pidfd"])
def wait_path(request, monkeypatch):
    """Run a test once through the pidfd wait and once through Popen.wait's
    fallback, as on a system without os.pidfd_open."""
    if request.param == "no-pidfd":
        monkeypatch.delattr(os, "pidfd_open", raising=False)
    return request.param


def test_identity_backend_returns_training_rows(demo_data, demo_md):
    spec = ExternalBackend("identity", COPY_CMD)
    out = _synthesize(spec, demo_data, demo_md, n_rows=0)
    assert out == demo_data


def test_nonzero_exit_is_backend_failed(demo_data, demo_md):
    spec = ExternalBackend("broken", (PY, "-c", "import sys; sys.stderr.write('boom'); sys.exit(3)"))
    with pytest.raises(BackendFailed) as err:
        _synthesize(spec, demo_data, demo_md)
    assert err.value.exit_code == 3
    assert "boom" in err.value.stderr_excerpt


def test_missing_output_is_backend_failed(demo_data, demo_md):
    spec = ExternalBackend("silent", (PY, "-c", "pass"))
    with pytest.raises(BackendFailed):
        _synthesize(spec, demo_data, demo_md)


def test_metadata_file_is_read_before_the_launch(demo_data, demo_md):
    """A backend may remove the input files it was handed: the pipeline
    loads its rows under the metadata it wrote, not from the file again.
    The command fails unless both files are there to delete."""
    script = (
        "import os, sys\n"
        "rows = open(sys.argv[1], 'rb').read()\n"
        "os.remove(sys.argv[1])\n"
        "os.remove(sys.argv[3])\n"
        "open(sys.argv[2], 'wb').write(rows)\n"
    )
    spec = ExternalBackend(
        "forgetful", (PY, "-c", script, "{train_csv}", "{out_csv}", "{metadata_json}")
    )
    config = RunConfig(backend="forgetful", train_rows=1000)
    split = split_for(config, demo_data, SplitSpec(train_rows=1000))
    result = run_pipeline(config, split, demo_md, external_backends={spec.name: spec})
    assert result.synthetic == split.train


def test_renamed_column_is_schema_mismatch(demo_data, demo_md):
    spec = ExternalBackend("renamer", RENAME_CMD)
    with pytest.raises(SchemaMismatch):
        _synthesize(spec, demo_data, demo_md)


def test_timeout(demo_data, demo_md):
    spec = ExternalBackend("sleeper", (PY, "-c", "import time; time.sleep(30)"), timeout_seconds=1)
    with pytest.raises(Timeout):
        _synthesize(spec, demo_data, demo_md)


def test_placeholder_substitution(tmp_path, demo_data, demo_md):
    """Each placeholder is its value, and the metadata and output paths sit
    beside the train CSV in the run directory."""
    echo = tmp_path / "args.json"
    spec = ExternalBackend(
        "echo",
        (
            PY,
            "-c",
            (
                "import json, shutil, sys\n"
                "json.dump(sys.argv[1:], open(sys.argv[6], 'w'))\n"
                "shutil.copy(sys.argv[7], sys.argv[8])\n"
            ),
            "{rows}",
            "{epochs}",
            "{seed}",
            "{metadata_json}",
            "{out_csv}",
            str(echo),
            "{train_csv}",
            "{out_csv}",
        ),
    )
    _synthesize(spec, demo_data, demo_md, n_rows=123, epochs=7, seed=9)
    got = json.loads(echo.read_text(encoding="utf-8"))
    assert got[:3] == ["123", "7", "9"]
    train_csv = Path(got[6])
    assert train_csv.name == "train.csv"
    assert got[3] == str(train_csv.parent / "metadata.json")
    assert got[4] == got[7] == str(train_csv.parent / "synthetic.csv")


def test_placeholders_inside_substituted_paths_are_kept(tmp_path, monkeypatch, demo_data, demo_md):
    """Placeholders are substituted in one pass: a path that holds one, as
    under a temporary directory named ``{seed}{rows}``, reaches the command
    as it is."""
    base = tmp_path / "{seed}{rows}"
    base.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(base))
    echo = tmp_path / "args.json"
    script = (
        "import json, shutil, sys\n"
        "json.dump(sys.argv[2:], open(sys.argv[1], 'w'))\n"
        "shutil.copy(sys.argv[2], sys.argv[3])\n"
    )
    spec = ExternalBackend(
        "echo",
        (PY, "-c", script, str(echo), "{train_csv}", "{out_csv}", "{metadata_json}", "{seed}"),
    )
    _synthesize(spec, demo_data, demo_md, seed=7)
    got = json.loads(echo.read_text(encoding="utf-8"))
    run_dir = Path(got[0]).parent
    assert run_dir.parent == base
    assert got == [
        str(run_dir / "train.csv"),
        str(run_dir / "synthetic.csv"),
        str(run_dir / "metadata.json"),
        "7",
    ]


def test_backend_descriptor_parsing(tmp_path):
    docs = [
        {"name": "a", "command": ["x", "{rows}"], "timeout_seconds": 5},
        {"name": "b", "command": ["y"]},
    ]
    path = tmp_path / "backends.json"
    path.write_text(json.dumps(docs), encoding="utf-8")
    backends = load_backends_file(path)
    assert set(backends) == {"a", "b"}
    assert backends["a"].timeout_seconds == 5
    assert backends["b"].timeout_seconds == 600


def test_backend_descriptor_validation(tmp_path):
    with pytest.raises(ValidationFailure):
        backend_from_json_dict({"command": ["x"]})
    with pytest.raises(ValidationFailure):
        ExternalBackend("x", ())
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "a"}), encoding="utf-8")
    with pytest.raises(ValidationFailure):
        load_backends_file(path)


@pytest.mark.parametrize("timeout, text", [(1.9, "1.9"), (0.5, "0.5"), (True, "True")])
def test_timeout_must_be_a_whole_number_of_seconds(timeout, text):
    doc = {"name": "a", "command": ["x"], "timeout_seconds": timeout}
    with pytest.raises(ValidationFailure, match=f"whole number of seconds, got {text}$"):
        backend_from_json_dict(doc)
    # An integral float is a whole number of seconds.
    assert backend_from_json_dict({**doc, "timeout_seconds": 5.0}).timeout_seconds == 5


def _stderr_exit(data: bytes, code: int) -> tuple[str, ...]:
    """A command that writes ``data`` to stderr and exits with ``code``."""
    return (PY, "-c", f"import sys; sys.stderr.buffer.write({data!r}); sys.exit({code})")


def test_non_utf8_stderr_is_backend_failed(demo_data, demo_md):
    spec = ExternalBackend("latin", _stderr_exit(b"caf\xe9", 3))
    with pytest.raises(BackendFailed) as err:
        _synthesize(spec, demo_data, demo_md)
    assert err.value.exit_code == 3
    assert err.value.stderr_excerpt == "caf�"


def test_stderr_excerpt_translates_newlines_as_text_mode(demo_data, demo_md):
    spec = ExternalBackend("lines", _stderr_exit(b"a\r\nb\rc\n", 2))
    with pytest.raises(BackendFailed) as err:
        _synthesize(spec, demo_data, demo_md)
    assert err.value.stderr_excerpt == "a\nb\nc\n"


def test_stderr_excerpt_is_the_last_500_characters(demo_data, demo_md):
    """More than 1 MB of stderr whose end mixes multi-byte characters, bare
    carriage returns and CRLF pairs: the excerpt is the end of the whole
    stream decoded and newline-translated."""
    tail = "".join(f"é{i}€\r\n𝄞\r" for i in range(200)).encode("utf-8")
    script = (
        "import sys\n"
        "sys.stderr.buffer.write(b'x' * 1_200_000)\n"
        f"sys.stderr.buffer.write({tail!r})\n"
        "sys.exit(3)\n"
    )
    spec = ExternalBackend("chatty", (PY, "-c", script))
    with pytest.raises(BackendFailed) as err:
        _synthesize(spec, demo_data, demo_md)
    whole = (b"x" * 1_200_000 + tail).decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    assert err.value.exit_code == 3
    assert err.value.stderr_excerpt == whole[-500:]


def test_stderr_excerpt_names_the_run_dir_as_a_fixed_name(demo_data, demo_md):
    """The run directory, which the command takes from ``{train_csv}``, is
    replaced before the cut, and the window read reaches back far enough for
    an excerpt of replaced paths."""
    script = (
        "import os, sys\n"
        "run_dir = os.path.dirname(sys.argv[1])\n"
        "sys.stderr.write('x' * 100_000)\n"
        "sys.stderr.write(''.join(f'{run_dir}/{i}\\n' for i in range(100)))\n"
        "sys.exit(3)\n"
    )
    spec = ExternalBackend("paths", (PY, "-c", script, "{train_csv}"))
    with ExitStack() as stack, pytest.raises(BackendFailed) as err:
        run = launch_external_backend(spec, demo_data, demo_md, 10, 1, 0, stack)
        run_external_backend(run)
    run_dir = str(run.run_dir)
    whole = "x" * 100_000 + "".join(f"{run_dir}/{i}\n" for i in range(100))
    assert err.value.stderr_excerpt == whole.replace(run_dir, "<run dir>")[-500:]
    assert run_dir not in err.value.stderr_excerpt


def test_unspawnable_command_is_backend_failed(tmp_path, demo_data, demo_md):
    spec = ExternalBackend("ghost", (str(tmp_path / "no-such-program"),))
    with pytest.raises(BackendFailed) as err:
        _synthesize(spec, demo_data, demo_md)
    assert err.value.exit_code == -1


def test_timeout_kills_and_reaps_the_process(wait_path, demo_data, demo_md):
    spec = ExternalBackend("sleeper", (PY, "-c", "import time; time.sleep(30)"), timeout_seconds=1)
    with ExitStack() as stack:
        run = launch_external_backend(spec, demo_data, demo_md, 10, 1, 0, stack)
        begin = time.monotonic()
        with pytest.raises(Timeout, match="exceeded 1s"):
            run_external_backend(run)
        assert time.monotonic() - begin < 10
        assert run.process.returncode is not None  # killed and reaped
        assert run.stderr.closed


def test_exit_while_waited_for_is_not_a_timeout(wait_path, demo_data, demo_md):
    """The wait returns when the process exits, well before its deadline."""
    script = "import shutil, sys, time; time.sleep(0.3); shutil.copy(sys.argv[1], sys.argv[2])"
    spec = ExternalBackend("slow", (PY, "-c", script, "{train_csv}", "{out_csv}"), timeout_seconds=20)
    with ExitStack() as stack:
        run = launch_external_backend(spec, demo_data, demo_md, 10, 1, 0, stack)
        begin = time.monotonic()
        assert run_external_backend(run) == demo_data
    assert time.monotonic() - begin < 10


def test_exit_before_a_passed_deadline_is_not_a_timeout(wait_path, demo_data, demo_md):
    """A process that exited is judged by its exit code, even when it is
    waited for after its deadline."""
    spec = ExternalBackend("identity", COPY_CMD, timeout_seconds=1)
    with ExitStack() as stack:
        run = launch_external_backend(spec, demo_data, demo_md, 10, 1, 0, stack)
        run.process.wait()
        run.deadline = time.monotonic() - 1
        assert run_external_backend(run) == demo_data


def test_uncreatable_stderr_file_is_backend_failed(monkeypatch, demo_data, demo_md):
    """The stderr file is made in the run directory before the spawn; an
    OSError there is a failed launch, exit code -1, as a failed spawn is."""

    def no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(tempfile, "TemporaryFile", no_space)
    spec = ExternalBackend("identity", COPY_CMD)
    with pytest.raises(BackendFailed) as err:
        _synthesize(spec, demo_data, demo_md)
    assert err.value.exit_code == -1
    assert "could not spawn backend 'identity'" in err.value.stderr_excerpt


def test_failed_launch_closes_the_stderr_file(demo_data, demo_md):
    """Popen rejects a NUL byte in argv with ValueError; the stderr file is
    closed all the same, so no ResourceWarning fires when it is collected."""
    spec = ExternalBackend("nul", (PY, "-c", "pass\0"))
    with pytest.raises(ValueError):
        _synthesize(spec, demo_data, demo_md)
    gc.collect()


#: A command that writes its output, then exits 0, exits 3 or sleeps past a
#: 1 s timeout.
_ENDINGS = {
    "exit 0": ("pass", None),
    "exit 3": ("sys.exit(3)", BackendFailed),
    "timeout": ("time.sleep(30)", Timeout),
}


@pytest.mark.parametrize("ending", sorted(_ENDINGS))
def test_run_directory_goes_with_the_stack(ending, demo_data, demo_md):
    """Closing the run's stack removes the run directory and the three files
    in it, and the process is reaped, however the run ended."""
    tail, error = _ENDINGS[ending]
    script = f"import shutil, sys, time; shutil.copy(sys.argv[1], sys.argv[2]); {tail}"
    timeout = 1 if error is Timeout else 20
    spec = ExternalBackend("ender", (PY, "-c", script, "{train_csv}", "{out_csv}"), timeout)
    with ExitStack() as stack:
        run = launch_external_backend(spec, demo_data, demo_md, 10, 1, 0, stack)
        if error is None:
            assert run_external_backend(run) == demo_data
        else:
            with pytest.raises(error):
                run_external_backend(run)
        assert sorted(os.listdir(run.run_dir)) == ["metadata.json", "synthetic.csv", "train.csv"]
    assert not run.run_dir.exists()
    assert run.process.returncode is not None
    assert run.stderr.closed


def test_closing_the_stack_kills_a_run_never_waited_for(demo_data, demo_md):
    spec = ExternalBackend("sleeper", (PY, "-c", "import time; time.sleep(30)"))
    begin = time.monotonic()
    with ExitStack() as stack:
        run = launch_external_backend(spec, demo_data, demo_md, 10, 1, 0, stack)
    assert run.process.returncode is not None  # killed and reaped
    assert run.stderr.closed
    assert not run.run_dir.exists()
    assert time.monotonic() - begin < 10


@pytest.mark.parametrize("name", NATIVE_BACKENDS)
def test_external_backend_cannot_take_a_native_name(name):
    """A native backend of the same name would shadow the command."""
    with pytest.raises(ValidationFailure, match="shares a native backend's name"):
        ExternalBackend(name, ("false",))
    with pytest.raises(ValidationFailure, match="shares a native backend's name"):
        backend_from_json_dict({"name": name, "command": ["false"]})


@pytest.mark.parametrize("name", ["a,b", ",", " c", "c ", "\tc", " "])
def test_external_backend_name_that_backends_cannot_select_is_refused(name):
    """bench --backends splits on commas and strips each name, so such a
    name could be configured but never selected."""
    with pytest.raises(ValidationFailure, match="comma or surrounding whitespace"):
        ExternalBackend(name, ("false",))
    with pytest.raises(ValidationFailure, match="comma or surrounding whitespace"):
        backend_from_json_dict({"name": name, "command": ["false"]})

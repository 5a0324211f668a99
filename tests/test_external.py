import json
import sys

import pytest

from fairsynth.errors import BackendFailed, SchemaMismatch, Timeout, ValidationFailure
from fairsynth.external import (
    ExternalBackend,
    backend_from_json_dict,
    load_backends_file,
    run_external_backend,
)
from fairsynth.schema import write_csv

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


@pytest.fixture
def backend_inputs(tmp_path, demo_data, demo_md):
    train_csv = tmp_path / "train.csv"
    metadata_json = tmp_path / "metadata.json"
    out_csv = tmp_path / "out.csv"
    write_csv(demo_data, train_csv)
    metadata_json.write_text(json.dumps(demo_md.to_json_dict()), encoding="utf-8")
    return train_csv, metadata_json, out_csv


def test_identity_backend_returns_training_rows(backend_inputs, demo_data):
    train_csv, metadata_json, out_csv = backend_inputs
    spec = ExternalBackend("identity", COPY_CMD)
    out = run_external_backend(
        spec, train_csv, metadata_json, 0, 1, 0, out_csv, demo_data.schema
    )
    assert out == demo_data


def test_nonzero_exit_is_backend_failed(backend_inputs, demo_data):
    train_csv, metadata_json, out_csv = backend_inputs
    spec = ExternalBackend("broken", (PY, "-c", "import sys; sys.stderr.write('boom'); sys.exit(3)"))
    with pytest.raises(BackendFailed) as err:
        run_external_backend(spec, train_csv, metadata_json, 10, 1, 0, out_csv, demo_data.schema)
    assert err.value.exit_code == 3
    assert "boom" in err.value.stderr_excerpt


def test_missing_output_is_backend_failed(backend_inputs, demo_data):
    train_csv, metadata_json, out_csv = backend_inputs
    spec = ExternalBackend("silent", (PY, "-c", "pass"))
    with pytest.raises(BackendFailed):
        run_external_backend(spec, train_csv, metadata_json, 10, 1, 0, out_csv, demo_data.schema)


def test_renamed_column_is_schema_mismatch(backend_inputs, demo_data):
    train_csv, metadata_json, out_csv = backend_inputs
    spec = ExternalBackend("renamer", RENAME_CMD)
    with pytest.raises(SchemaMismatch):
        run_external_backend(spec, train_csv, metadata_json, 10, 1, 0, out_csv, demo_data.schema)


def test_timeout(backend_inputs, demo_data):
    train_csv, metadata_json, out_csv = backend_inputs
    spec = ExternalBackend("sleeper", (PY, "-c", "import time; time.sleep(30)"), timeout_seconds=1)
    with pytest.raises(Timeout):
        run_external_backend(spec, train_csv, metadata_json, 10, 1, 0, out_csv, demo_data.schema)


def test_placeholder_substitution(tmp_path, backend_inputs, demo_data):
    train_csv, metadata_json, out_csv = backend_inputs
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
    run_external_backend(spec, train_csv, metadata_json, 123, 7, 9, out_csv, demo_data.schema)
    got = json.loads(echo.read_text(encoding="utf-8"))
    assert got[:3] == ["123", "7", "9"]
    assert got[3] == str(metadata_json)
    assert got[4] == str(out_csv)


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

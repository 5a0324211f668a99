"""Adapter that reaches third-party synthesizers through a subprocess
contract: a command template with placeholders is spawned, and its output CSV
is loaded back and checked against the training schema.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass
from pathlib import Path

from .errors import BackendFailed, SchemaMismatch, Timeout, ValidationFailure
from .schema import Dataset, Metadata, TableSchema, _read_json, load_synthetic

DEFAULT_TIMEOUT_SECONDS = 600

#: subprocess waits through poll(), whose timeout is a C int of milliseconds
#: (about 24.8 days); a longer timeout raises OverflowError mid-run.
MAX_TIMEOUT_SECONDS = 7 * 24 * 3600


@dataclass(frozen=True)
class ExternalBackend:
    name: str
    command: tuple[str, ...]
    timeout_seconds: int = DEFAULT_TIMEOUT_SECONDS

    def __post_init__(self):
        if not self.name:
            raise ValidationFailure("external backend needs a non-empty name")
        if not self.command:
            raise ValidationFailure(f"external backend {self.name!r} has an empty command")
        if not (0 < self.timeout_seconds <= MAX_TIMEOUT_SECONDS):
            raise ValidationFailure(f"timeout_seconds must lie in (0, {MAX_TIMEOUT_SECONDS}]")


def backend_from_json_dict(doc: dict) -> ExternalBackend:
    try:
        name = doc["name"]
        command = doc["command"]
        timeout = int(doc.get("timeout_seconds", DEFAULT_TIMEOUT_SECONDS))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationFailure(f"malformed external backend descriptor: {exc}")
    if not isinstance(name, str) or not isinstance(command, list):
        raise ValidationFailure("external backend needs a string name and a command list")
    return ExternalBackend(name, tuple(str(tok) for tok in command), timeout)


def load_backends_file(path: str | Path) -> dict[str, ExternalBackend]:
    """JSON list of descriptors -> mapping name -> backend."""
    docs = _read_json(path)
    if not isinstance(docs, list):
        raise ValidationFailure("backends file must contain a JSON list of descriptors")
    backends: dict[str, ExternalBackend] = {}
    for doc in docs:
        backend = backend_from_json_dict(doc)
        if backend.name in backends:
            raise ValidationFailure(f"duplicate external backend name {backend.name!r}")
        backends[backend.name] = backend
    return backends


def _substitute(template: str, mapping: dict[str, str]) -> str:
    out = template
    for key, value in mapping.items():
        out = out.replace(key, value)
    return out


def run_external_backend(
    spec: ExternalBackend,
    train_csv: str | Path,
    metadata_json: str | Path,
    n_rows: int,
    epochs: int,
    seed: int,
    out_csv: str | Path,
    expected_schema: TableSchema,
) -> Dataset:
    """Spawn the backend command and load its output CSV.

    The output is ingested with the training schema's column kinds forced, so
    kind inference cannot drift, then rejected on any column-name or kind
    mismatch. Synthetic labels are allowed to collapse to a single class; the
    degenerate-classifier guard downstream handles that case.
    """
    mapping = {
        "{train_csv}": str(train_csv),
        "{metadata_json}": str(metadata_json),
        "{rows}": str(n_rows),
        "{epochs}": str(epochs),
        "{seed}": str(seed),
        "{out_csv}": str(out_csv),
    }
    argv = [_substitute(tok, mapping) for tok in spec.command]
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=spec.timeout_seconds
        )
    except subprocess.TimeoutExpired:
        raise Timeout(f"backend {spec.name!r} exceeded {spec.timeout_seconds}s")
    except OSError as exc:
        raise BackendFailed(-1, f"could not spawn backend {spec.name!r}: {exc}")
    if proc.returncode != 0:
        raise BackendFailed(proc.returncode, (proc.stderr or "")[-500:])
    if not Path(out_csv).is_file():
        raise BackendFailed(0, f"backend {spec.name!r} exited 0 but wrote no {out_csv}")

    synth = load_synthetic(out_csv, Metadata.from_json_file(metadata_json), expected_schema)
    if synth.schema != expected_schema:
        raise SchemaMismatch(
            f"backend {spec.name!r} returned columns {synth.schema.names}, "
            f"expected {expected_schema.names}"
        )
    return synth

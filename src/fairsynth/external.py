"""Adapter that reaches third-party synthesizers through a subprocess
contract: a command template with placeholders is spawned, and its output CSV
is loaded back and checked against the training schema.
"""

from __future__ import annotations

import os
import re
import select
import subprocess
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

from .copula import NATIVE_BACKENDS
from .errors import BackendFailed, FairsynthError, SchemaMismatch, Timeout, ValidationFailure
from .schema import Dataset, Metadata, TableSchema, _read_json, load_dataset, write_csv

DEFAULT_TIMEOUT_SECONDS = 600

#: A backend is waited for through poll(), whose timeout is a C int of
#: milliseconds (about 24.8 days); a longer timeout raises OverflowError
#: mid-run.
MAX_TIMEOUT_SECONDS = 7 * 24 * 3600

#: A failed backend's error keeps this many characters from the end of its
#: stderr.
STDERR_EXCERPT_CHARS = 500

#: A failed backend's stderr excerpt names its run directory this way, so a
#: rerun in another temporary directory fails with the same text.
RUN_DIR_NAME = "<run dir>"

#: The file in the run directory that ``{out_csv}`` names.
OUT_CSV = "synthetic.csv"


@dataclass(frozen=True)
class ExternalBackend:
    name: str
    command: tuple[str, ...]
    timeout_seconds: int = DEFAULT_TIMEOUT_SECONDS

    def __post_init__(self):
        if not self.name:
            raise ValidationFailure("external backend needs a non-empty name")
        if self.name in NATIVE_BACKENDS:
            raise ValidationFailure(f"external backend {self.name!r} shares a native backend's name")
        # bench --backends splits its list on commas and strips each name.
        if "," in self.name or self.name != self.name.strip():
            raise ValidationFailure(
                f"external backend {self.name!r} holds a comma or surrounding whitespace, "
                "so --backends cannot select it"
            )
        if not self.command:
            raise ValidationFailure(f"external backend {self.name!r} has an empty command")
        if not (0 < self.timeout_seconds <= MAX_TIMEOUT_SECONDS):
            raise ValidationFailure(f"timeout_seconds must lie in (0, {MAX_TIMEOUT_SECONDS}]")


def backend_from_json_dict(doc: dict) -> ExternalBackend:
    try:
        name = doc["name"]
        command = doc["command"]
        timeout = doc.get("timeout_seconds", DEFAULT_TIMEOUT_SECONDS)
    except (KeyError, TypeError) as exc:
        raise ValidationFailure(f"malformed external backend descriptor: {exc}")
    if not isinstance(name, str) or not isinstance(command, list):
        raise ValidationFailure("external backend needs a string name and a command list")
    if type(timeout) not in (int, float) or timeout % 1:  # bool, str, inf and nan too
        raise ValidationFailure(f"timeout_seconds must be a whole number of seconds, got {timeout!r}")
    return ExternalBackend(name, tuple(str(tok) for tok in command), int(timeout))


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
    """``template`` with every placeholder of ``mapping`` replaced in one
    pass, so a value that holds a placeholder (a path under a directory named
    ``{seed}``) is passed as it is."""
    pattern = "|".join(map(re.escape, mapping))
    return re.sub(pattern, lambda match: mapping[match.group()], template)


def _wait(process: subprocess.Popen, timeout: float) -> None:
    """``process.wait(timeout)``, woken by the exit itself through a pidfd
    (Linux 5.3 and later) rather than by ``Popen.wait``'s polling sleeps of up
    to 50 ms."""
    try:
        pidfd = os.pidfd_open(process.pid)
    except (AttributeError, OSError):  # no pidfd on this system
        process.wait(timeout)
        return
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        if not poller.poll(timeout * 1000):
            raise subprocess.TimeoutExpired(process.args, timeout)
    finally:
        os.close(pidfd)
    process.wait()


@dataclass
class ExternalRun:
    """A launched backend process, its stderr file and its deadline, with
    the run directory it was handed its inputs in and the metadata and train
    schema its output is read under.

    ``run_external_backend`` judges the process once it exits; ``close``
    kills and reaps it if it still runs and closes the stderr file."""

    spec: ExternalBackend
    process: subprocess.Popen
    stderr: BinaryIO
    deadline: float  # time.monotonic() at launch plus timeout_seconds
    run_dir: Path  # the temporary directory the run's files are in
    metadata: Metadata
    schema: TableSchema

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self.stderr.close()

    def _stderr_tail(self) -> str:
        """The last STDERR_EXCERPT_CHARS characters of stderr with
        ``run_dir`` written as RUN_DIR_NAME, read from the end of the file
        and decoded as text mode would, with an undecodable byte replaced. A
        UTF-8 character is at most 4 bytes, decoding falls back in step
        within 3 bytes of any cut, and an excerpt character stands for at
        most one run_dir's worth of characters, so the excerpt is that of the
        whole stream."""
        run_dir = str(self.run_dir)
        span = (STDERR_EXCERPT_CHARS + 1) * len(run_dir)
        size = self.stderr.seek(0, os.SEEK_END)
        self.stderr.seek(max(0, size - 4 * span - 3))
        text = self.stderr.read().decode("utf-8", errors="replace").replace(run_dir, RUN_DIR_NAME)
        return text.replace("\r\n", "\n").replace("\r", "\n")[-STDERR_EXCERPT_CHARS:]


def launch_external_backend(
    spec: ExternalBackend,
    train: Dataset,
    metadata: Metadata,
    n_rows: int,
    epochs: int,
    seed: int,
    stack: ExitStack,
) -> ExternalRun:
    """Write ``train`` and ``metadata`` as train.csv and metadata.json into a
    temporary run directory, then start the backend command with its
    placeholders substituted and ``{out_csv}`` the run directory's
    synthetic.csv. Its stdout is discarded and its stderr goes to an unnamed
    file in the run directory, so the process never blocks on a full pipe.
    Closing ``stack`` kills the process if it still runs and removes the
    directory; a failed run's stderr excerpt names it RUN_DIR_NAME."""
    run_dir = Path(stack.enter_context(tempfile.TemporaryDirectory()))
    write_csv(train, run_dir / "train.csv")
    metadata.to_json_file(run_dir / "metadata.json")
    mapping = {
        "{train_csv}": str(run_dir / "train.csv"),
        "{metadata_json}": str(run_dir / "metadata.json"),
        "{rows}": str(n_rows),
        "{epochs}": str(epochs),
        "{seed}": str(seed),
        "{out_csv}": str(run_dir / OUT_CSV),
    }
    argv = [_substitute(tok, mapping) for tok in spec.command]
    deadline = time.monotonic() + spec.timeout_seconds
    try:  # the stack closes the stderr file if the launch fails
        stderr = stack.enter_context(tempfile.TemporaryFile(dir=run_dir))
        process = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=stderr)
    except OSError as exc:
        raise BackendFailed(-1, f"could not spawn backend {spec.name!r}: {exc}")
    run = ExternalRun(spec, process, stderr, deadline, run_dir, metadata, train.schema)
    stack.callback(run.close)
    return run


def run_external_backend(run: ExternalRun) -> Dataset:
    """Wait for a launched backend, then load its output CSV: the one step
    that turns an external run into rows.

    The process gets what is left of its timeout, counted from launch; one
    still running then is killed (Timeout). A process that has exited is
    judged by its exit code, however late it is waited for: a nonzero exit
    or a missing output file is BackendFailed.

    The output is ingested under the metadata the backend was handed, not
    read from its file again, with the train schema's column kinds forced, so
    kind inference cannot drift, then rejected on any column-name or kind
    mismatch. Synthetic labels are allowed to collapse to a single class;
    the degenerate-classifier guard downstream handles that case.
    """
    if run.process.poll() is None:
        try:
            _wait(run.process, max(0.0, run.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            run.close()
            raise Timeout(f"backend {run.spec.name!r} exceeded {run.spec.timeout_seconds}s")
    if run.process.returncode != 0:
        raise BackendFailed(run.process.returncode, run._stderr_tail())
    # The output's path is a temporary one, so the errors name the backend
    # instead and a rerun fails with the same text.
    out_csv = run.run_dir / OUT_CSV
    if not out_csv.is_file():
        raise BackendFailed(0, f"backend {run.spec.name!r} exited 0 but wrote no output CSV")
    try:
        synth = load_dataset(out_csv, run.metadata, pinned=run.schema)
    except FairsynthError as exc:
        exc.args = (str(exc).replace(str(out_csv), f"backend {run.spec.name!r} output"),)
        raise
    if synth.schema != run.schema:
        raise SchemaMismatch(
            f"backend {run.spec.name!r} returned columns {synth.schema.names}, "
            f"expected {run.schema.names}"
        )
    return synth

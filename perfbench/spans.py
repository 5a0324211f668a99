"""Span recorder that times calls into fairsynth's public functions from the
outside, without touching fairsynth's source.

fairsynth imports functions by name into the modules that call them (for
example ``from .quality import quality_report`` in ``supervisor.py``), so
wrapping ``fairsynth.quality.quality_report`` alone would miss most calls.
``Tracer.install`` therefore rebinds *every* module-level name in the
``fairsynth`` package that refers to a traced function, plus any function
default argument that holds one (``supervise(..., pipeline=run_pipeline)``),
and ``Tracer.uninstall`` puts the originals back.

A span records its name, start, end, parent span and job id. Spans stay in
memory and are written out once, after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: (module, function) pairs to trace. The span name is ``<module>.<function>``;
#: the module name is the layer. Only public functions are listed, so the
#: tracer never depends on a private helper.
TRACED = (
    ("schema", "load_dataset"),
    ("schema", "write_csv"),
    ("schema", "split_holdout"),
    ("copula", "fit"),
    ("copula", "sample"),
    ("quality", "quality_report"),
    ("quality", "contingency_similarity"),
    ("quality", "correlation_similarity"),
    ("quality", "ks_complement"),
    ("quality", "tv_complement"),
    ("quality", "quantile_bin_edges"),
    ("tstr", "fairness_report"),
    ("tstr", "fit_encoder"),
    ("tstr", "encode"),
    ("tstr", "train_logreg"),
    ("tstr", "logistic_gradient"),
    ("tstr", "logistic_loss"),
    ("tstr", "predict"),
    ("tstr", "group_fpr"),
    ("supervisor", "supervise"),
    ("supervisor", "run_pipeline"),
    ("supervisor", "balance_groups"),
    ("reports", "write_reports"),
    ("reports", "render_json"),
    ("reports", "batch_evaluate"),
    ("external", "run_external_backend"),
    ("cli", "main"),
)

#: Span layer for the benchmark's own work: the job root and the
#: convergence re-check. It is not a fairsynth layer.
BENCH = "bench"


def _row_count(value) -> int | None:
    return getattr(value, "row_count", None)


#: Spans that report a ``.rows`` count.
ROW_SPANS = frozenset(
    {"schema.load_dataset", "schema.write_csv", "copula.fit", "copula.sample", "tstr.encode"}
)


def _rows_of(span_name: str, bound: inspect.BoundArguments, result) -> int | None:
    """Rows a call handled, read from its arguments or its result."""
    args = bound.arguments
    if span_name == "schema.load_dataset":
        return _row_count(result)
    if span_name == "schema.write_csv":
        return _row_count(args.get("dataset"))
    if span_name == "copula.fit":
        return _row_count(args.get("train"))
    if span_name == "copula.sample":
        return args.get("n_rows")
    return int(result[0].shape[0])  # tstr.encode: (X, y, groups)


@dataclass
class Span:
    name: str
    parent: int | None
    job: int | None
    start: float
    end: float = 0.0
    rows: int | None = None
    failed: bool = False
    converged: bool | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _job: int | None = None
    _patched: list[tuple[object, str, object]] = field(default_factory=list)
    _originals: dict[str, Callable] = field(default_factory=dict)

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, self._job, time.perf_counter()))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def run_job(self, job_id: int, fn: Callable):
        """Run ``fn()`` as job ``job_id`` under a root span; spans are only
        recorded inside this call."""
        self._job = job_id
        root = self._open(f"{BENCH}.job")
        try:
            return fn()
        finally:
            self._close(root)
            self._job = None

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, span_name: str, fn: Callable) -> Callable:
        signature = inspect.signature(fn)
        check_convergence = span_name == "tstr.train_logreg"
        needs_arguments = check_convergence or span_name in ROW_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            index = self._open(span_name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                self.spans[index].failed = True
                raise
            finally:
                span = self._close(index)
                if needs_arguments and not span.failed:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    if span_name in ROW_SPANS:
                        span.rows = _rows_of(span_name, bound, result)
                    if check_convergence:
                        span.converged = self._converged(bound, result)

        return traced

    def _converged(self, bound: inspect.BoundArguments, model) -> bool:
        """Whether the returned weights meet ``hyperparams.tolerance``,
        recomputed through the public ``logistic_gradient``. Timed as a
        benchmark span so it counts as tracing overhead, not as tstr time."""
        index = self._open(f"{BENCH}.converged_check")
        try:
            args = bound.arguments
            hp = args["hyperparams"]
            X = np.asarray(args["X"], dtype=np.float64)
            y = np.asarray(args["y"], dtype=np.float64)
            gradient = self._originals["tstr.logistic_gradient"]
            grad_w, grad_b = gradient(model.weights, model.bias, X, y, hp.l2_strength)
            gnorm = max(float(np.max(np.abs(grad_w))) if grad_w.size else 0.0, abs(grad_b))
            return gnorm < hp.tolerance
        finally:
            self._close(index)

    def install(self) -> None:
        """Rebind every reference to a traced function inside the fairsynth
        package to a timing wrapper."""
        replacements: dict[int, Callable] = {}
        for module_name, func_name in TRACED:
            module = importlib.import_module(f"fairsynth.{module_name}")
            original = getattr(module, func_name)
            span_name = f"{module_name}.{func_name}"
            self._originals[span_name] = original
            replacements[id(original)] = self._wrap(span_name, original)
        for module in _fairsynth_modules():
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
                if inspect.isfunction(value) and value.__defaults__:
                    defaults = value.__defaults__
                    if any(id(d) in replacements for d in defaults):
                        self._patched.append((value, "__defaults__", defaults))
                        value.__defaults__ = tuple(replacements.get(id(d), d) for d in defaults)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _fairsynth_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "fairsynth" or name.startswith("fairsynth."))
    ]


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part covered by its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.seconds
    return [span.seconds - covered for span, covered in zip(spans, child)]


def job_metrics(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per job id: ``<span>.s``/``.calls``/``.self_s``/``.rows``/``.failed``,
    ``<layer>.self_s``, and the derived ratios and sums."""
    by_job: dict[int, dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        m = by_job.setdefault(span.job, {})
        for key, value in (
            (f"{span.name}.s", span.seconds),
            (f"{span.name}.calls", 1),
            (f"{span.name}.self_s", self_s),
            (f"{span.layer}.self_s", self_s),
            (f"{span.name}.rows", span.rows or 0),
            (f"{span.name}.failed", int(span.failed)),
            (f"{span.name}.converged", int(bool(span.converged))),
        ):
            m[key] = m.get(key, 0) + value
    for m in by_job.values():
        fits = m.get("tstr.train_logreg.calls", 0)
        m["tstr.train_logreg.converged_frac"] = (
            m.get("tstr.train_logreg.converged", 0) / fits if fits else 0.0
        )
        m["supervisor.iterations_failed"] = m.get("supervisor.run_pipeline.failed", 0)
        m["trace.self_sum_s"] = sum(
            value
            for key, value in m.items()
            if key.count(".") == 1 and key.endswith(".self_s") and not key.startswith(BENCH)
        )
    return by_job

"""In-memory span tracing for the traced benchmark run.

Spans are recorded around calls into each specband layer by wrappers that
replace a function where its caller looks it up (``specband.cli.fit_pairs``,
``specband.conformal.predict``, ...), so a call made inside a wrapped call
shows up as a child span. A layer's self time is its span's duration minus
the time covered by its children. Nothing under ``src/`` changes: the
wrappers are installed on the imported modules and removed afterwards.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module where the caller looks the name up, attribute, span name). The span
# name's first component is the layer, named after the module under src/.
TARGETS = [
    ("specband.cli", "spectrum_to_pair", "pipeline.spectrum_to_pair"),
    ("specband.cli", "spectrum_to_predictor", "pipeline.spectrum_to_predictor"),
    ("specband.cli", "fit_pairs", "pipeline.fit_pairs"),
    ("specband.cli", "covers_response_range", "pipeline.covers_response_range"),
    ("specband.cli", "resample", "curves.resample"),
    ("specband.pipeline", "to_rest_frame", "curves.to_rest_frame"),
    ("specband.pipeline", "select_span_cv", "smoothing.select_span_cv"),
    ("specband.pipeline", "smooth", "smoothing.smooth"),
    ("specband.pipeline", "kappa_cv_scores", "regression.kappa_cv_scores"),
    ("specband.regression", "kappa_cv_scores", "regression.kappa_cv_scores"),
    ("specband.regression", "distance_matrix", "semimetrics.distance_matrix"),
    ("specband.regression", "distances_to", "semimetrics.distances_to"),
    ("specband.regression", "predict", "regression.predict"),
    ("specband.conformal", "predict", "regression.predict"),
    ("specband.conformal", "select_kappa_cv", "regression.select_kappa_cv"),
    ("specband.conformal", "calibrate", "conformal.calibrate"),
    ("specband.conformal", "band", "conformal.band"),
    ("specband.evaluation", "contains", "conformal.contains"),
    ("specband.evaluation", "relative_error", "evaluation.relative_error"),
    ("specband.evaluation", "plain_error", "evaluation.plain_error"),
    ("specband.evaluation", "summarize", "evaluation.summarize"),
    ("specband.evaluation", "coverage_rate", "evaluation.coverage_rate"),
    ("specband.wild_bootstrap", "predict_many", "regression.predict_many"),
    ("specband.wild_bootstrap", "prediction_weights", "regression.prediction_weights"),
    ("specband.wild_bootstrap", "bootstrap_bands", "wild_bootstrap.bootstrap_bands"),
    ("specband.fpca", "fit_fpca", "fpca.fit_fpca"),
    ("specband.mockgen", "synthetic_model", "mockgen.synthetic_model"),
    ("specband.mockgen", "generate", "mockgen.generate"),
    ("specband.mockgen", "save_model", "mockgen.save_model"),
    ("specband.fileio", "read_spectrum", "fileio.read_spectrum"),
    ("specband.fileio", "read_curve", "fileio.read_curve"),
    ("specband.fileio", "read_manifest", "fileio.read_manifest"),
    ("specband.fileio", "load_regression", "fileio.load_regression"),
    ("specband.fileio", "load_conformal_band", "fileio.load_conformal_band"),
    ("specband.fileio", "write_spectrum", "fileio.write_spectrum"),
    ("specband.fileio", "write_curve", "fileio.write_curve"),
    ("specband.fileio", "write_manifest", "fileio.write_manifest"),
    ("specband.fileio", "save_regression", "fileio.save_regression"),
    ("specband.fileio", "save_conformal_band", "fileio.save_conformal_band"),
    ("specband.fileio", "save_bootstrap_band", "fileio.save_bootstrap_band"),
    ("specband.fileio", "write_error_summary", "fileio.write_error_summary"),
    ("specband.fileio", "write_scree", "fileio.write_scree"),
    # the library flow of regression_2k looks its names up in the package
    ("specband", "select_kappa_cv", "regression.select_kappa_cv"),
    ("specband", "predict", "regression.predict"),
    ("specband", "calibrate", "conformal.calibrate"),
    ("specband", "band", "conformal.band"),
    ("specband", "contains", "conformal.contains"),
    ("specband", "fit_fpca", "fpca.fit_fpca"),
    ("specband", "bootstrap_bands", "wild_bootstrap.bootstrap_bands"),
    ("specband", "synthetic_model", "mockgen.synthetic_model"),
    ("specband", "generate", "mockgen.generate"),
    ("specband", "resample", "curves.resample"),
    ("specband", "relative_error", "evaluation.relative_error"),
    ("specband", "plain_error", "evaluation.plain_error"),
    ("specband", "summarize", "evaluation.summarize"),
    ("specband", "coverage_rate", "evaluation.coverage_rate"),
]

# every fileio writer goes through this function; it is counted, not spanned
WRITE_TARGET = ("specband.fileio", "atomic_write_text")


class Tracer:
    """Spans and call records kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str | None, str | None]] = []
        self.stack: list[int] = []
        self.item: str | None = None
        self.stage: str | None = None
        self.calls: list[tuple[str, int, tuple, dict, object]] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.item, self.stage))
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            name, start, _, parent, item, stage = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, item, stage)

    def install(self) -> None:
        """Wrap every target that exists; list the missing ones in ``absent``."""
        for module_name, attr, span_name in [*TARGETS, (*WRITE_TARGET, None)]:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._counting_writes(original) if span_name is None else self._spanning(original, span_name)
            self._patches.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _spanning(self, original, span_name: str):
        reads_item = span_name == "fileio.read_spectrum"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if reads_item and args:
                self.item = Path(args[0]).stem
            index = len(self.spans)
            with self.span(span_name):
                result = original(*args, **kwargs)
            # arguments are kept by reference and measured after the run, so
            # the bookkeeping adds nothing to the parent span's self time
            self.calls.append((span_name, index, args, kwargs, result))
            return result

        return wrapper

    def _counting_writes(self, original):
        @functools.wraps(original)
        def wrapper(path, text, *args, **kwargs):
            result = original(path, text, *args, **kwargs)
            self.counts["files_written"] += 1
            self.counts["bytes_written"] += len(text.encode())
            return result

        return wrapper

    # ----------------------------------------------------------- aggregation

    def self_times(self, indices=None) -> dict[str, float]:
        """Self seconds per span name, summed over all spans or ``indices``."""
        child = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index in range(len(self.spans)) if indices is None else indices:
            name, start, end = self.spans[index][:3]
            out[name] += end - start - child[index]
        return out

    def wall_times(self) -> dict[str, float]:
        """Inclusive seconds per span name, over spans with no same-name ancestor."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if not self.has_ancestor(parent, name):
                out[name] += end - start
        return out

    def has_ancestor(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def span_counts(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "item": i, "stage": st}
            for n, s, e, p, i, st in self.spans
        ]
        path.write_text(json.dumps({"absent": self.absent, "spans": rows}) + "\n")


def _in_range_wavelengths(spectrum, wl_range) -> np.ndarray:
    wl = np.asarray(spectrum.wavelengths)
    low, high = wl_range
    return wl[(wl >= low) & (wl <= high)]


def smoothing_facts(tracer: Tracer) -> dict[str, float]:
    """Local-fit count and grid sharing, computed from the recorded inputs.

    ``select_span_cv`` fits one local quadratic per in-range sample for each
    candidate span (each sample is scored once, from the other fold);
    ``smooth`` fits one per output point. A call's grid counts as shared
    when the same kind of call in the same stage already saw the same range
    and in-range wavelengths.
    """
    fits = 0
    calls = 0
    shared = 0
    seen: set = set()
    for name, index, args, kwargs, _ in tracer.calls:
        if name not in ("smoothing.select_span_cv", "smoothing.smooth"):
            continue
        spectrum, wl_range = args[0], tuple(args[1])
        lam = _in_range_wavelengths(spectrum, wl_range)
        if name == "smoothing.select_span_cv":
            config = args[2] if len(args) > 2 else kwargs["config"]
            fits += len(config.candidate_spans) * lam.size
        else:
            grid = args[3] if len(args) > 3 else kwargs["output_grid"]
            fits += len(grid)
        key = (name, tracer.spans[index][5], wl_range, hashlib.sha1(lam.tobytes()).hexdigest())
        calls += 1
        shared += key in seen
        seen.add(key)
    return {"local_fits": fits, "calls": calls, "shared": shared}


def regression_facts(tracer: Tracer) -> dict[str, float]:
    """Leave-one-out fits, distance pairs, prediction calls, n2, replicates."""
    loo = 0
    pairs = 0
    predictions = 0
    n2 = 0
    replicates = 0
    for name, index, args, kwargs, result in tracer.calls:
        if name in ("regression.kappa_cv_scores", "regression.select_kappa_cv"):
            # count once per selection: select_kappa_cv may delegate to
            # kappa_cv_scores, in which case only the outer call counts
            parent = tracer.spans[index][3]
            if tracer.has_ancestor(parent, "regression.select_kappa_cv"):
                continue
            candidates = args[3] if len(args) > 3 else kwargs["kappa_candidates"]
            loo += len(args[0]) * len(candidates)
        elif name == "semimetrics.distance_matrix":
            pairs += np.atleast_2d(args[1]).shape[0] * np.atleast_2d(args[2]).shape[0]
        elif name == "semimetrics.distances_to":
            pairs += np.atleast_2d(args[1]).shape[0]
        elif name == "regression.predict":
            predictions += 1
        elif name == "regression.predict_many":
            predictions += np.atleast_2d(args[1]).shape[0]
        elif name == "conformal.calibrate":
            n2 = int(getattr(result, "n2", 0))
        elif name == "wild_bootstrap.bootstrap_bands":
            config = args[4] if len(args) > 4 else kwargs["config"]
            replicates += int(config.replicates)
    return {
        "loo_fits": loo,
        "distance_pairs": pairs,
        "predict_calls": predictions,
        "n2": n2,
        "replicates": replicates,
    }


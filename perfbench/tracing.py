"""Spans around the calls into each trifault layer, recorded from outside.

The package is not edited: a traced pass rebinds the module-level names
the pipelines call through (for example ``trifault.diagnosis.predict_batch``
or ``trifault.cli.train_forest``) to wrappers that record a span, and
restores the originals afterwards. A layer is a trifault module; span
names are ``<layer>.<call>``.

Each span holds its name, start, end, parent span and run id, plus the
counts taken at the same boundary (rows, bytes, trees, windows). Spans
stay in memory and are written out as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import defaultdict
from typing import Callable, NamedTuple

from trifault import cli, diagnosis, forest

LAYERS = ("cli", "dataset", "diagnosis", "forest", "simulate")


def _rows(args, result):
    return {"rows": len(args[1])}


def _classified(args, result):
    return {"rows": args[1].n_samples}


def _written(args, result):
    return {"rows": sum(b.n_rows for b in args[1]), "bytes": os.path.getsize(args[0])}


def _read(args, result):
    return {"rows": sum(b.n_rows for b in result), "bytes": os.path.getsize(args[0])}


def _trees(args, result):
    return {"trees": result.n_trees}


def _saved(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _loaded(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _windows(args, result):
    return {"windows": len(result.per_window_history)}


# (module, name the pipelines call, span name, counts taken at the boundary)
_BINDINGS = (
    (cli, "cmd_gen", "cli.gen", None),
    (cli, "cmd_train", "cli.train", None),
    (cli, "simulate", "simulate.simulate", None),
    (cli, "resample", "diagnosis.resample", None),
    (cli, "write_dataset", "dataset.write", _written),
    (cli, "read_dataset", "dataset.read", _read),
    (cli, "train_forest", "forest.train", _trees),
    (cli, "save_model", "forest.save", _saved),
    (cli, "predict_batch", "forest.predict", _rows),
    (diagnosis, "resample", "diagnosis.resample", None),
    (diagnosis, "classify_stream", "diagnosis.classify", _classified),
    (diagnosis, "predict_batch", "forest.predict", _rows),
    (diagnosis, "debounce", "diagnosis.debounce", None),
    (diagnosis, "estimate_phase_reference", "diagnosis.phase_ref", None),
    (diagnosis, "fuse_window", "diagnosis.fuse", None),
)


class Api(NamedTuple):
    """The entry points the benchmark itself calls."""

    cli_main: Callable
    load_model: Callable
    first_predict: Callable
    run_diagnosis: Callable


PLAIN = Api(cli.main, forest.load_model, forest.predict_batch, diagnosis.run_diagnosis)


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name, fn, counts=None):
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "run": self.run_id,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span.update(counts(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def install(self):
        """Rebind the pipelines' calls for the block and yield traced entry points."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in _BINDINGS]
        try:
            for module, attr, name, counts in _BINDINGS:
                setattr(module, attr, self.wrap(name, getattr(module, attr), counts))
            yield Api(
                self.wrap("cli.main", cli.main),
                self.wrap("forest.load", forest.load_model, _loaded),
                self.wrap("forest.first_predict", forest.predict_batch, _rows),
                self.wrap("diagnosis.run", diagnosis.run_diagnosis, _windows),
            )
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer busy time, counts and self time from one traced pass.

    ``*_s`` values are inclusive span durations summed over the pass.
    A span's self time is its duration minus its direct children's, so
    ``self_s.<layer>`` sums the time spent in that module's own code.
    ``diagnosis.self_s`` is ``run_diagnosis`` alone minus its children:
    the per-sample region loop, windowing and the latch.
    """
    busy = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    child_time = defaultdict(float)
    for span in spans:
        dur = span["end"] - span["start"]
        busy[span["name"]] += dur
        calls[span["name"]] += 1
        for key in ("rows", "bytes", "trees", "windows"):
            counts[span["name"], key] += span.get(key, 0)
        if span["parent"] is not None:
            child_time[span["parent"]] += dur
    self_by_name = defaultdict(float)
    for span in spans:
        self_by_name[span["name"]] += span["end"] - span["start"] - child_time[span["id"]]

    def layer_self(layer):
        return sum(v for name, v in self_by_name.items() if name.split(".")[0] == layer)

    predict_s = busy["forest.predict"]
    predict_rows = counts["forest.predict", "rows"]
    model_files = [s["bytes"] for s in spans if s["name"] in ("forest.save", "forest.load")]
    metrics = {
        "forest.train_s": (busy["forest.train"], "s"),
        "forest.trees": (counts["forest.train", "trees"], "count"),
        "forest.predict_s": (predict_s, "s"),
        "forest.predict_calls": (calls["forest.predict"], "count"),
        "forest.predict_rows": (predict_rows, "count"),
        "forest.predict_rows_per_s": (predict_rows / predict_s if predict_s else 0.0, "1/s"),
        "forest.load_s": (busy["forest.load"], "s"),
        "forest.first_predict_s": (busy["forest.first_predict"], "s"),
        "forest.save_s": (busy["forest.save"], "s"),
        "forest.model_bytes": (model_files[-1] if model_files else 0, "bytes"),
        "dataset.write_s": (busy["dataset.write"], "s"),
        "dataset.read_s": (busy["dataset.read"], "s"),
        "dataset.rows": (counts["dataset.write", "rows"] + counts["dataset.read", "rows"], "count"),
        "dataset.bytes": (counts["dataset.write", "bytes"] + counts["dataset.read", "bytes"], "bytes"),
        "simulate.busy_s": (busy["simulate.simulate"], "s"),
        "simulate.calls": (calls["simulate.simulate"], "count"),
        "diagnosis.resample_s": (busy["diagnosis.resample"], "s"),
        "diagnosis.classify_s": (busy["diagnosis.classify"], "s"),
        "diagnosis.debounce_s": (busy["diagnosis.debounce"], "s"),
        "diagnosis.phase_ref_s": (busy["diagnosis.phase_ref"], "s"),
        "diagnosis.fuse_s": (busy["diagnosis.fuse"], "s"),
        "diagnosis.fuse_calls": (calls["diagnosis.fuse"], "count"),
        "diagnosis.windows": (counts["diagnosis.run", "windows"], "count"),
        "diagnosis.samples": (counts["diagnosis.classify", "rows"], "count"),
        "diagnosis.self_s": (self_by_name["diagnosis.run"], "s"),
        "cli.gen_s": (busy["cli.gen"], "s"),
        "cli.train_s": (busy["cli.train"], "s"),
        "cli.self_s": (layer_self("cli"), "s"),
    }
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = (layer_self(layer), "s")
    metrics["trace.spans"] = (len(spans), "count")
    return metrics

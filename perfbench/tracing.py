"""In-memory span tracer that wraps the package's layer functions from outside.

Modules import functions by name (``from .estimate import build_regressor``),
so a function is wrapped at the module attribute where its caller looks it
up: ``structure.build_regressor`` (the search's builds) and
``estimate.build_regressor`` (the final regression) are wrapped apart.  A
span is [id, parent id, name, start, end, request]; spans stay in memory
until :meth:`Tracer.dump`.  The package source is not touched: everything
installed here is undone by :meth:`Tracer.restore`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name) for every layer whose time is reported.
# The self time of span "x.y" is reported as metric "x.y_s".
IDENTIFY_SPANS = (
    ("persistence", "load_dataset", "persistence.load_dataset"),
    ("preprocess", "prepare_dataset", "preprocess.prepare"),
    ("structure", "estimate_delays", "structure.delay_scan"),
    ("structure", "select_structure", "structure.search"),
    ("estimate", "build_regressor", "estimate.build_regressor"),
    ("estimate", "batch_ls", "estimate.batch_ls"),
    ("estimate", "run_rls", "estimate.rls"),
    ("estimate", "separate_parameters", "estimate.separate"),
    ("validate", "evaluate", "validate.evaluate"),
    ("validate", "simulate_mimo", "validate.simulate"),
    ("validate", "format_validation_report", "validate.format"),
    ("validate", "format_trace", "validate.format"),
    ("persistence", "save_model", "persistence.save_model"),
)
SETUP_SPANS = (
    ("excitation", "generate_excitation", "excitation.generate"),
    ("model", "simulate_mimo", "model.simulate"),
    ("persistence", "save_dataset", "persistence.save_dataset"),
)
ROOT_SPAN = "cli"  # the benchmark's own call of hammid.cli.main

# Dense factorizations whose work is counted as rows * cols^2 (computed, not
# measured): every least-squares solve in the package goes through one.
FACTORIZATIONS = (
    ("numpy.linalg", "lstsq"),
    ("numpy.linalg", "qr"),
    ("numpy.linalg", "svd"),
    ("scipy.linalg", "qr"),
    ("scipy.linalg", "lstsq"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.request: int | None = None
        self.fingerprint: list[dict] = []  # selections seen, for diffing runs
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._in_factorization = False

    # -- spans and counters -------------------------------------------------

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._stack[-1][0] if self._stack else None,
               name, time.perf_counter(), None, self.request]
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def active(self, name: str) -> bool:
        return any(rec[2] == name for rec in self._stack)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end, _ in self.spans:
            out[name] += (end - start) - child[sid]
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)

    # -- installing wrappers -----------------------------------------------

    def patch(self, owner, attr: str, make_wrapper) -> bool:
        """Replace ``owner.attr`` by ``make_wrapper(original)``; False if absent."""
        original = getattr(owner, attr, None)
        if original is None:
            return False
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
        return True

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap_span(self, owner, attr: str, name: str, after=None) -> bool:
        """Record a span around each call; ``after(args, result)`` runs outside it."""
        def make(original):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    result = original(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        return self.patch(owner, attr, make)

    def wrap_count(self, owner, attr: str, calls: str, raised: str | None = None) -> bool:
        def make(original):
            def wrapper(*args, **kwargs):
                self.count(calls)
                try:
                    return original(*args, **kwargs)
                except Exception:
                    if raised is not None:
                        self.count(raised)
                    raise
            return wrapper
        return self.patch(owner, attr, make)

    def wrap_factorization(self, owner, attr: str) -> bool:
        def make(original):
            def wrapper(a, *args, **kwargs):
                if self._in_factorization:
                    return original(a, *args, **kwargs)
                shape = getattr(a, "shape", ())
                if self.active("structure.delay_scan"):
                    layer = "structure.delay"
                elif self.active("structure.search"):
                    layer = "structure.search"
                else:
                    layer = None
                if layer is not None and len(shape) == 2:
                    rows, cols = max(shape), min(shape)
                    self.count(f"{layer}_solves")
                    self.count(f"{layer}_flops", rows * cols * cols)
                self._in_factorization = True
                try:
                    return original(a, *args, **kwargs)
                finally:
                    self._in_factorization = False
            return wrapper
        return self.patch(owner, attr, make)


def install_identify(tracer: Tracer, hammid) -> None:
    """Wrap every identify layer of ``hammid`` for the traced identifies."""
    mods = {name: getattr(hammid, name) for name in
            ("persistence", "preprocess", "structure", "estimate", "validate")}

    def after(name):
        def record(args, result):
            if name == "persistence.load_dataset":
                tracer.count("persistence.bytes_read", os.path.getsize(args[0]))
            elif name == "structure.delay_scan":
                tracer.fingerprint.append({
                    "request": tracer.request, "layer": name,
                    "delays": [int(e.delay) for e in result],
                    "losses": [[float(v) for v in e.losses] for e in result],
                })
            elif name == "structure.search":
                tracer.count("structure.candidates", len(result.candidates))
                tracer.fingerprint.append({
                    "request": tracer.request, "layer": name,
                    "candidates": [[c.stage, c.orders.n, c.orders.channels[0].m,
                                    c.orders.channels[0].p, float(c.loss)]
                                   for c in result.candidates],
                })
            elif name == "estimate.rls":
                tracer.count("estimate.rls_rows", args[0].n_rows)
            elif name == "validate.evaluate":
                tracer.count("validate.predicted_samples", result.predicted.size)
        return record

    for module, attr, name in IDENTIFY_SPANS:
        tracer.wrap_span(mods[module], attr, name, after(name))
    structure = mods["structure"]
    tracer.wrap_count(structure, "build_regressor", "structure.regressor_builds")
    tracer.wrap_count(structure, "augment_columns", "structure.augment_calls",
                      raised="structure.augment_rejected")
    for module, attr in FACTORIZATIONS:
        tracer.wrap_factorization(importlib.import_module(module), attr)


def install_setup(tracer: Tracer, hammid) -> None:
    """Wrap the layers the benchmark's data generation calls."""
    def after(args, result):
        tracer.count("persistence.bytes_written", os.path.getsize(args[0]))

    for module, attr, name in SETUP_SPANS:
        tracer.wrap_span(getattr(hammid, module), attr, name,
                         after if attr == "save_dataset" else None)

"""Spans around calls into effbath's public functions, and per-layer metrics.

A layer is an effbath module; ``accel`` belongs to ``gme``.  ``Tracer``
replaces every traced function in every effbath namespace that binds it
(``from .x import f`` copies the name at import), records one span per
call and restores the originals on ``uninstall``.  Spans stay in memory;
the runner writes them out when it ends.  ``geff`` and ``kernel_laplace``
run inside tight loops, so their calls are counted, not spanned.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import math
import os
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("params", "spectral", "correlation", "gme", "wda", "spectrum", "scenarios", "cli")
_MODULE_LAYER = {**{name: name for name in LAYERS}, "accel": "gme"}
# private helpers traced anyway: the twin section's per-variant work
_EXTRA_NAMES = {"scenarios": ("_population_pair",)}
_COUNTED = frozenset({"geff", "kernel_laplace"})


def _march_steps(args, kwargs, result):
    return kwargs["n_steps"] if "n_steps" in kwargs else args[3]


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[0])


def _fft_points(args, kwargs, result):
    series = kwargs["series"] if "series" in kwargs else args[0]
    pad = kwargs.get("zero_pad_factor", args[2] if len(args) > 2 else 1)
    return series.values.shape[0] * int(pad)


# per-call quantities taken from a traced call's arguments or result
_MEASURES = {"march": _march_steps, "write_csv": _csv_bytes, "fourier_spectrum": _fft_points}


class Span:
    __slots__ = ("id", "name", "layer", "parent", "op", "thread", "start", "end", "extra")

    def __init__(self, id, name, layer, parent, op, thread, start=0.0, end=0.0, extra=None):
        self.id = id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.thread = thread
        self.start = start
        self.end = end
        self.extra = extra

    def as_row(self) -> list:
        return [getattr(self, slot) for slot in self.__slots__]


def traced_functions() -> dict:
    """Map each traced function object to its (layer, name)."""
    found = {}
    for module_name, layer in _MODULE_LAYER.items():
        module = sys.modules.get(f"effbath.{module_name}")
        if module is None:
            continue
        names = [n for n in vars(module) if not n.startswith("_")]
        for name in (*names, *_EXTRA_NAMES.get(module_name, ())):
            obj = getattr(module, name, None)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[obj] = (layer, name)
    return found


def effbath_namespaces() -> list:
    return [m for key, m in list(sys.modules.items()) if key == "effbath" or key.startswith("effbath.")]


class Tracer:
    """Records spans and call counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None  # id of the benchmark op in progress
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main_thread = threading.get_ident()
        self._ticks: dict = {}
        self._replaced: list = []
        self._wrappers: dict = {}

    def _stack(self) -> list:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, fn, layer, name):
        measure = _MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1].id
            else:
                # a worker thread's first span hangs under the main
                # thread's open span, which is waiting on the pool
                parent = self._main_stack[-1].id if self._main_stack else None
            span = Span(next(self._ids), name, layer, parent, self.op, threading.get_ident())
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                self.spans.append(span)
            if measure is not None:
                span.extra = measure(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, layer, name):
        # next() on an itertools.count is one atomic C call, so threads
        # lose no update and the count costs no lock
        ticks = self._ticks.setdefault(f"{layer}.{name}", itertools.count())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(ticks)
            return fn(*args, **kwargs)

        return wrapper

    @property
    def counts(self) -> dict:
        """Calls of each counted function so far, read without advancing the counters."""
        return {key: int(repr(ticks)[len("count("):-1]) for key, ticks in self._ticks.items()}

    def install(self) -> None:
        if not self._wrappers:
            for fn, (layer, name) in traced_functions().items():
                make = self._count_wrapper if name in _COUNTED else self._span_wrapper
                self._wrappers[fn] = make(fn, layer, name)
        for module in effbath_namespaces():
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._replaced.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._replaced):
            setattr(module, attr, original)
        self._replaced.clear()

    def write(self, path) -> None:
        """Spans as gzipped JSON lines, a header line naming the fields first."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(Span.__slots__) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.as_row()) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(span.id, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = (span.end - span.start) - covered
    return result


def twin_efficiency(spans) -> float:
    """Summed twin-variant spans over the wall time of their sections."""
    groups = defaultdict(list)
    for span in spans:
        if span.name == "_population_pair":
            groups[span.parent].append(span)
    busy = wall = 0.0
    for group in groups.values():
        if len(group) < 2:
            continue
        busy += sum(s.end - s.start for s in group)
        wall += max(s.end for s in group) - min(s.start for s in group)
    return busy / wall if wall else 0.0


def scaling_exponent(spans) -> float:
    """Least-squares slope of log(march time) against log(steps)."""
    marches = [s for s in spans if s.name == "march" and s.extra]
    steps = np.log([s.extra for s in marches])
    if not marches or steps.max() - steps.min() < math.log(2.0):
        return 0.0  # a slope over less than a doubling of N is noise
    return float(np.polyfit(steps, np.log([s.end - s.start for s in marches]), 1)[0])


def layer_metrics(spans, counts, passes: int, traced_wall: float) -> dict:
    """Per-layer metrics per pass over the op list, as name -> (value, unit).

    ``self_frac`` is a layer's self time over the traced wall time; where
    the twin threads overlap, the fractions can add up to more than 1.
    """
    own = self_times(spans)
    layer_self = Counter()
    for span in spans:
        layer_self[span.layer] += own[span.id]

    def total(name, key=None):
        chosen = [s for s in spans if s.name == name]
        return sum((s.end - s.start) if key is None else key(s) for s in chosen)

    march_steps = [s.extra for s in spans if s.name == "march"]
    pairs = sum(n * (n - 1) // 2 for n in march_steps)  # sum of n over steps 0..N-1
    march_s = total("march")
    csv_s = total("write_csv")
    csv_bytes = total("write_csv", key=lambda s: s.extra)
    tau_evals = sum(1 for s in spans if s.name == "correlation_quadrature")
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer] / passes, "s")
        out[f"{layer}.self_frac"] = (layer_self[layer] / traced_wall if traced_wall else 0.0, "frac")
    out.update({
        "scenarios.csv_write_s": (csv_s / passes, "s"),
        "scenarios.csv_bytes": (csv_bytes / passes, "B"),
        "scenarios.csv_write_MBps": (csv_bytes / csv_s / 1e6 if csv_s else 0.0, "MB/s"),
        "scenarios.twin_parallel_eff": (twin_efficiency(spans), "ratio"),
        "gme.kernels_s": (total("niba_kernels", key=lambda s: own[s.id]) / passes, "s"),
        "gme.march_s": (march_s / passes, "s"),
        "gme.march_pairs": (pairs / passes, "count"),
        "gme.march_ns_per_pair": (march_s / pairs * 1e9 if pairs else 0.0, "ns"),
        # each pair reads one kernel and one population value (float64)
        "gme.march_bytes_computed": (16 * pairs / passes, "B"),
        "gme.scaling_exp": (scaling_exponent(spans), "slope"),
        "correlation.tau_evals": (tau_evals / passes, "count"),
        "correlation.s_per_tau": (layer_self["correlation"] / tau_evals if tau_evals else 0.0, "s"),
        "correlation.integrand_evals": (counts.get("spectral.geff", 0) / passes, "count"),
        "wda.laplace_evals": (counts.get("wda.kernel_laplace", 0) / passes, "count"),
        "spectrum.fft_s": (total("fourier_spectrum") / passes, "s"),
        "spectrum.fft_points": (total("fourier_spectrum", key=lambda s: s.extra) / passes, "count"),
        "spectrum.peaks_s": (total("peak_extract") / passes, "s"),
    })
    return out

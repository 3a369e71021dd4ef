"""Per-layer timing from outside the program.

:class:`LayerTracer` wraps public functions and methods of the
program's modules for the duration of a traced run and records one
span per call (name, parent span, start, end) in memory.  A layer's
self time is its spans' durations minus the time covered by the spans
nested inside them; whatever no span covers is ``other_s``.  Nothing
in the program is changed: the wrappers are installed on the class or
module attribute and removed again afterwards.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from pathlib import Path

import numpy as np

#: (module, attribute path, span name).  A dotted attribute path names
#: a method; a bare one names a module-level function, which is also
#: replaced wherever another ``repro`` module imported it by name.
TARGETS = (
    ("repro.hdc.model", "HDCClassifier.fit", "hdc.fit"),
    ("repro.tflite.converter", "convert", "tflite.convert"),
    ("repro.edgetpu.compiler", "compile_model", "edgetpu.compile_model"),
    ("repro.edgetpu.device", "EdgeTpuDevice.invoke", "edgetpu.invoke"),
    ("repro.edgetpu.multidevice", "DevicePool.try_invoke",
     "edgetpu.try_invoke"),
    ("repro.edgetpu.multidevice", "DevicePool.invoke_cost",
     "edgetpu.invoke_cost"),
    ("repro.runtime.pipeline", "CompileCache.get_or_compile",
     "runtime.get_or_compile"),
    ("repro.runtime.executor", "WorkerPool.map", "runtime.worker_map"),
    ("repro.serving.batcher", "DynamicBatcher.ready_at",
     "serving.ready_at"),
    ("repro.serving.server", "InferenceServer.service_estimate",
     "serving.service_estimate"),
    ("repro.cluster.engine", "EventEngine.run", "cluster.engine"),
    ("repro.cluster.traffic", "MultiTenantTraffic.chunks",
     "cluster.traffic"),
    ("repro.cluster.router", "Router.route_chunk", "cluster.router"),
    ("repro.cluster.replica", "Replica.resolve_deferred",
     "cluster.resolve"),
    ("repro.cluster.replica", "Replica.add_device", "cluster.scale"),
    ("repro.cluster.replica", "Replica.retire_device", "cluster.scale"),
    ("repro.cluster.replica", "Replica.finalize", "cluster.finalize"),
    ("repro.cluster.report", "ClusterReport.summary", "cluster.summary"),
    ("repro.observability.metrics", "LatencyTracker.record_many",
     "observability.record_many"),
)

#: Span names in report order (``cluster.scale`` covers two methods).
LAYERS = tuple(dict.fromkeys(name for _, _, name in TARGETS))

#: Program modules whose spans roll up into per-module totals.
MODULES = ("hdc", "tflite", "edgetpu", "runtime", "serving", "cluster",
           "observability")


def _invoke_counts(args, kwargs) -> dict:
    """Rows, multiply-accumulates and bytes of one device invoke,
    computed from tensor shapes: activations in and out plus every
    weight byte read once."""
    from repro.tflite.ops import FullyConnectedOp

    device, x = args[0], args[1]
    compiled = kwargs.get("compiled") or (args[2] if len(args) > 2
                                          else None) or device.compiled
    rows = int(np.shape(x)[0])
    macs = 0
    for op in compiled.tpu_ops:
        if isinstance(op, FullyConnectedOp):
            macs += op.weights.size
    moved = (rows * (compiled.tpu_input_bytes + compiled.tpu_output_bytes)
             + compiled.weight_bytes)
    return {"rows": rows, "macs": rows * macs, "mbytes": moved / 1e6}


def _resolve_rows(args, kwargs) -> dict:
    deferred = args[0]._defer
    if deferred is None:
        return {"rows": 0}
    return {"rows": sum(len(block) for _, blocks in
                        deferred._groups.values() for block in blocks)}


#: Work counters per layer, beyond calls and self time.
COUNTS = {
    "edgetpu.invoke": ("rows", "macs", "mbytes"),
    "cluster.resolve": ("rows",),
    "cluster.engine": ("events",),
    "runtime.get_or_compile": ("hits",),
}

#: Counters read before a call; ``after`` hooks return deltas.
BEFORE = {
    "edgetpu.invoke": _invoke_counts,
    "cluster.resolve": _resolve_rows,
}
AFTER = {
    "cluster.engine": lambda obj: {"events": obj.events_processed},
    "runtime.get_or_compile": lambda obj: {"hits": obj.hits},
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class LayerTracer:
    """Records spans around the :data:`TARGETS` while :attr:`active`.

    Install the wrappers before building the objects a traced call
    uses (a generator made at construction time must come from the
    wrapper) and uninstall them afterwards, so untraced calls run the
    program unwrapped.  Wrappers record only while :meth:`trace` runs.
    """

    def __init__(self):
        self.active = False
        self.missing: list[str] = []
        self._patches: list[tuple] = []
        self._stack: list[list] = []
        # Spans, one entry per column: layer index, parent span (-1 at
        # the top), start and end on perf_counter, traced run index.
        self._layer: list[int] = []
        self._parent: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._run: list[int] = []
        self._run_index = -1
        self._calls = {name: 0 for name in LAYERS}
        self._self = {name: 0.0 for name in LAYERS}
        self._counts = {name: dict.fromkeys(COUNTS.get(name, ()), 0)
                        for name in LAYERS}
        self.wall_s = 0.0
        self.runs = 0

    # -- installation --------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for module_name, path, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner, _, attr = path.rpartition(".")
                holder = getattr(module, owner) if owner else module
                original = holder.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if path == "MultiTenantTraffic.chunks":
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap(name, original)
            self._patch(holder, attr, original, wrapper)
            if not owner:
                for other in list(sys.modules.values()):
                    if (other is not module and other is not None
                            and getattr(other, "__name__", "")
                            .startswith("repro")
                            and other.__dict__.get(attr) is original):
                        self._patch(other, attr, original, wrapper)

    def _patch(self, holder, attr, original, wrapper) -> None:
        setattr(holder, attr, wrapper)
        self._patches.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- recording -----------------------------------------------------

    def _enter(self, layer: int) -> list:
        index = len(self._layer)
        self._layer.append(layer)
        self._parent.append(self._stack[-1][1] if self._stack else -1)
        self._start.append(0.0)
        self._end.append(0.0)
        self._run.append(self._run_index)
        frame = [0.0, index]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float,
              end: float) -> None:
        self._stack.pop()
        duration = end - start
        self._start[frame[1]] = start
        self._end[frame[1]] = end
        self._calls[name] += 1
        self._self[name] += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration

    def _add_counts(self, name: str, counts: dict, sign: int = 1) -> None:
        totals = self._counts[name]
        for key, value in counts.items():
            totals[key] = totals.get(key, 0) + sign * value

    def _wrap(self, name: str, fn):
        tracer = self
        layer = LAYERS.index(name)
        before = BEFORE.get(name)
        after = AFTER.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                tracer._add_counts(name, before(args, kwargs))
            if after is not None:
                tracer._add_counts(name, after(args[0]), -1)
            frame = tracer._enter(layer)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._exit(name, frame, start, end)
                if after is not None:
                    tracer._add_counts(name, after(args[0]))

        return functools.update_wrapper(wrapper, fn)

    def _wrap_generator(self, name: str, fn):
        """Time every ``next`` of the generator ``fn`` returns."""
        tracer = self
        layer = LAYERS.index(name)
        clock = time.perf_counter

        def timed(generator):
            while True:
                if not tracer.active:
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    yield item
                    continue
                frame = tracer._enter(layer)
                start = clock()
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    tracer._exit(name, frame, start, clock())
                yield item

        def wrapper(*args, **kwargs):
            return timed(fn(*args, **kwargs))

        return functools.update_wrapper(wrapper, fn)

    def trace(self, call):
        """Run ``call()`` traced; returns its result and wall seconds."""
        self._run_index += 1
        self.active = True
        start = time.perf_counter()
        try:
            result = call()
        finally:
            wall = time.perf_counter() - start
            self.active = False
        self.wall_s += wall
        self.runs += 1
        return result, wall

    # -- results -------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer figures, averaged per traced run.

        Every layer's ``self_s`` plus ``other_s`` sums to ``wall_s``,
        and every ``share`` is that layer's self time over ``wall_s``.
        """
        runs = max(self.runs, 1)
        wall = self.wall_s / runs
        out = {}
        for name in LAYERS:
            self_s = self._self[name] / runs
            out[f"{name}.calls"] = self._calls[name] / runs
            out[f"{name}.self_s"] = self_s
            out[f"{name}.share"] = _ratio(self_s, wall)
            for key, value in self._counts[name].items():
                out[f"{name}.{key}"] = value / runs
        for module in MODULES:
            names = [n for n in LAYERS if n.split(".")[0] == module]
            out[f"{module}.calls"] = sum(out[f"{n}.calls"] for n in names)
            out[f"{module}.self_s"] = sum(out[f"{n}.self_s"]
                                          for n in names)
        out["edgetpu.invoke.gmac_per_s"] = _ratio(
            out["edgetpu.invoke.macs"], out["edgetpu.invoke.self_s"]) / 1e9
        out["cluster.resolve.us_per_row"] = _ratio(
            out["cluster.resolve.self_s"], out["cluster.resolve.rows"]) * 1e6
        out["cluster.engine.us_per_event"] = _ratio(
            out["cluster.engine.self_s"], out["cluster.engine.events"]) * 1e6
        covered = sum(out[f"{name}.self_s"] for name in LAYERS)
        out["other_s"] = wall - covered
        out["other.share"] = _ratio(out["other_s"], wall)
        out["trace.wall_s"] = wall
        return out

    def write_spans(self, path: Path) -> None:
        """Write every recorded span once, as compressed columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            layers=np.array(LAYERS),
            layer=np.array(self._layer, dtype=np.int16),
            parent=np.array(self._parent, dtype=np.int64),
            start=np.array(self._start),
            end=np.array(self._end),
            run=np.array(self._run, dtype=np.int32),
        )

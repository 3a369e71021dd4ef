"""Parallel execution layer: worker pools and the inference dispatcher.

Two independence structures in the paper's design are exploitable for
parallelism, and this module exploits both:

- **Training**: the ``M`` bagging sub-models are trained on independent
  bootstrap subsets (Sec. III-B) — :class:`WorkerPool` runs the
  sub-model training tasks concurrently on a ``concurrent.futures``
  pool, thread- or process-backed.  Determinism is preserved by seed
  *spawning*: each sub-model draws every random quantity from its own
  child generator spawned from one :class:`numpy.random.SeedSequence`
  root, so the trained weights are bit-identical for any worker count
  (``workers=1`` runs the same tasks sequentially in-process).
- **Inference**: a request stream is independent sample-by-sample —
  :class:`MicroBatchDispatcher` splits it into micro-batches,
  round-robins them across a :class:`~repro.edgetpu.multidevice.DevicePool`
  (replicated fused model, or one sub-model shard per device), and
  overlaps the host dequantize/argmax tail of batch ``j`` with the
  device dispatch of batch ``j+1``.

Timing model (consistent with the rest of the repo, where every
reported runtime is a virtual-clock reading): per-task/per-batch costs
are modeled or measured individually, and the parallel wall time is the
*makespan* of list-scheduling those costs onto ``workers`` (or
``num_devices``) lanes.  :func:`simulate_makespan` is that scheduler;
on a machine with fewer physical cores than workers the measured wall
time degrades gracefully while the modeled makespan stays deterministic
and machine-independent.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # imports would cycle back through the model builders
    from repro.edgetpu.multidevice import DevicePool
    from repro.platforms.base import Platform

__all__ = [
    "DispatchResult",
    "ExecutorConfig",
    "MicroBatchDispatcher",
    "ParallelReport",
    "SharedArray",
    "WorkerPool",
    "cpu_op_seconds",
    "host_ops_seconds",
    "resolve_shared",
    "run_host_tail",
    "simulate_makespan",
    "spawn_rngs",
]

_BACKENDS = ("thread", "process")
_PLACEMENTS = ("replicate", "shard")


@dataclass(frozen=True)
class ExecutorConfig:
    """Knobs for the parallel execution layer.

    The defaults reproduce the sequential single-device behavior the
    pipelines had before this layer existed, so existing callers are
    unaffected until they opt in.

    Attributes:
        workers: Concurrent sub-model training tasks.  ``1`` trains
            sequentially in-process (no pool is created).
        backend: ``"thread"`` or ``"process"``.  Threads share memory
            (required when tasks close over shared state such as a
            :class:`~repro.runtime.pipeline.CompileCache`); processes
            sidestep the GIL for pure-Python hot loops.
        micro_batch: Samples per inference micro-batch handed to one
            device; ``None`` lets the caller's batch size stand.
        num_devices: Inference device-pool size.
        placement: ``"replicate"`` (the fused model on every device,
            data parallel) or ``"shard"`` (one sub-model per device,
            model parallel).
    """

    workers: int = 1
    backend: str = "thread"
    micro_batch: int | None = None
    num_devices: int = 1
    placement: str = "replicate"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.backend not in _BACKENDS:
            raise ValueError(
                f"backend must be one of {_BACKENDS}, got {self.backend!r}"
            )
        if self.micro_batch is not None and self.micro_batch < 1:
            raise ValueError(
                f"micro_batch must be >= 1, got {self.micro_batch}"
            )
        if self.num_devices < 1:
            raise ValueError(
                f"num_devices must be >= 1, got {self.num_devices}"
            )
        if self.placement not in _PLACEMENTS:
            raise ValueError(
                f"placement must be one of {_PLACEMENTS}, "
                f"got {self.placement!r}"
            )

    @classmethod
    def coerce(cls, value) -> "ExecutorConfig":
        """Normalize ``None`` / int worker count / config to a config."""
        if value is None:
            return cls()
        if isinstance(value, int):
            return cls(workers=value)
        if isinstance(value, cls):
            return value
        raise TypeError(
            f"expected ExecutorConfig, int or None, got {type(value).__name__}"
        )


def spawn_rngs(seed, n: int) -> list:
    """Spawn ``n`` independent child generators from one seed root.

    This is the determinism contract of the parallel training path:
    child streams depend only on the root seed and the child *index*,
    never on which worker runs the task or in what order — so training
    results are bit-identical for any worker count.

    Args:
        seed: An int, ``None``, a :class:`numpy.random.SeedSequence`, or
            a :class:`numpy.random.Generator`.  Generators spawn through
            their own seed sequence (advancing their spawn counter, so
            successive calls yield fresh, still-deterministic children).
        n: Number of children.

    Returns:
        List of ``n`` :class:`numpy.random.Generator` instances.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if isinstance(seed, np.random.Generator):
        return list(seed.spawn(n))
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(n)]


def simulate_makespan(task_seconds, workers: int) -> float:
    """List-schedule task costs onto ``workers`` lanes; return makespan.

    Tasks are assigned in order, each to the earliest-available lane —
    the same greedy policy a ``concurrent.futures`` pool follows when
    every worker draws the next pending task.  For ``workers=1`` this
    is the serial sum; for equal-cost tasks it is
    ``ceil(len(tasks) / workers)`` rounds.

    Args:
        task_seconds: Per-task cost, in task order.
        workers: Number of parallel lanes.

    Returns:
        Modeled parallel wall seconds (0.0 for no tasks).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    costs = [float(s) for s in task_seconds]
    if any(s < 0 for s in costs):
        raise ValueError("task costs must be >= 0")
    lanes = [0.0] * min(workers, max(1, len(costs)))
    for cost in costs:
        lane = min(range(len(lanes)), key=lanes.__getitem__)
        lanes[lane] += cost
    return max(lanes) if costs else 0.0


@dataclass(frozen=True)
class ParallelReport:
    """Accounting for one :meth:`WorkerPool.map` run.

    Attributes:
        workers: Configured worker count.
        backend: Pool backend actually used.
        task_seconds: Measured wall seconds per task (task order).
        wall_seconds: Measured wall seconds for the whole map call on
            *this* machine (subject to its physical core count).
    """

    workers: int
    backend: str
    task_seconds: tuple
    wall_seconds: float

    @property
    def serial_seconds(self) -> float:
        """Sum of per-task costs — the 1-worker wall time."""
        return sum(self.task_seconds)

    @property
    def makespan_seconds(self) -> float:
        """Modeled parallel wall time (list-scheduled onto the lanes)."""
        return simulate_makespan(self.task_seconds, self.workers)

    @property
    def speedup(self) -> float:
        """Modeled speedup of the pool over serial execution."""
        makespan = self.makespan_seconds
        return self.serial_seconds / makespan if makespan > 0 else 1.0


def _timed_call(fn, task):
    """Run ``fn(task)`` returning ``(result, wall_seconds)`` (picklable)."""
    start = time.perf_counter()
    result = fn(task)
    return result, time.perf_counter() - start


class SharedArray:
    """A read-only numpy array in shared memory, picklable by name.

    Process-backed :class:`WorkerPool` tasks that carry the same large
    array (e.g. the bagging training set, shipped to every sub-model
    task) pay a pickle/unpickle of the full buffer *per task*.  Wrapping
    the array in a :class:`SharedArray` ships only ``(name, shape,
    dtype)``; workers attach to the one shared segment and view it
    zero-copy.

    Lifecycle: the creating process calls :meth:`create`, passes the
    handle into its tasks, and calls :meth:`unlink` once the pool has
    drained — the segment is then reclaimed as soon as the last
    attached process drops its mapping.  Workers only ever attach.
    CPython (until 3.13's ``track=False``) registers attachments and
    creations alike with the ``resource_tracker``; spawned workers
    share the parent's tracker, whose name cache is a set, so the
    worker's duplicate registration is a no-op and the creator's
    :meth:`unlink` settles the single entry.

    Treat the contents as immutable: every attacher sees the same
    memory.
    """

    __slots__ = ("name", "shape", "dtype", "_shm", "_view")

    def __init__(self, name: str, shape: tuple, dtype: str):
        self.name = name
        self.shape = tuple(shape)
        self.dtype = dtype
        self._shm = None
        self._view = None

    @classmethod
    def create(cls, array: np.ndarray) -> "SharedArray":
        """Copy ``array`` into a fresh shared segment; returns the handle.

        Raises:
            OSError: When shared memory is unavailable (callers should
                fall back to plain in-task arrays).
        """
        from multiprocessing import shared_memory
        array = np.ascontiguousarray(array)
        shm = shared_memory.SharedMemory(create=True,
                                         size=max(1, array.nbytes))
        handle = cls(shm.name, array.shape, str(array.dtype))
        handle._shm = shm
        handle._view = np.ndarray(array.shape, dtype=array.dtype,
                                  buffer=shm.buf)
        handle._view[...] = array
        return handle

    def array(self) -> np.ndarray:
        """The shared buffer as an ndarray (attaching on first call)."""
        if self._view is None:
            from multiprocessing import shared_memory
            # Attaching re-registers the name with the (shared, inherited)
            # resource tracker; the cache is a set, so this dedupes and the
            # creator's unlink() settles the one entry.  Explicitly
            # unregistering here would strip the creator's registration.
            shm = shared_memory.SharedMemory(name=self.name)
            self._shm = shm
            self._view = np.ndarray(self.shape, dtype=self.dtype,
                                    buffer=shm.buf)
        return self._view

    def unlink(self) -> None:
        """Destroy the segment (creator side); safe to call twice."""
        if self._shm is not None:
            view, self._view = self._view, None
            del view
            try:
                self._shm.close()
                self._shm.unlink()
            except FileNotFoundError:
                pass
            self._shm = None

    def __reduce__(self):
        # Workers rebuild a detached handle and re-attach lazily.
        return (SharedArray, (self.name, self.shape, self.dtype))

    def __repr__(self) -> str:
        return (f"SharedArray(name={self.name!r}, shape={self.shape}, "
                f"dtype={self.dtype})")


def resolve_shared(value):
    """``SharedArray`` -> attached ndarray; anything else passes through."""
    if isinstance(value, SharedArray):
        return value.array()
    return value


class WorkerPool:
    """Ordered map over tasks on a thread/process pool.

    Results come back in task order regardless of completion order, and
    each task's wall time is measured for the :class:`ParallelReport`
    (the modeled-makespan side of the accounting).

    Args:
        workers: Concurrent tasks; ``1`` executes a plain loop.
        backend: ``"thread"`` or ``"process"``.  The process backend
            requires the mapped function and its tasks to be picklable
            (module-level functions, array/dataclass payloads).
    """

    def __init__(self, workers: int = 1, backend: str = "thread"):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backend not in _BACKENDS:
            raise ValueError(
                f"backend must be one of {_BACKENDS}, got {backend!r}"
            )
        self.workers = workers
        self.backend = backend
        self.last_report: ParallelReport | None = None

    def map(self, fn, tasks) -> list:
        """Apply ``fn`` to every task; return results in task order."""
        tasks = list(tasks)
        start = time.perf_counter()
        if self.workers == 1 or len(tasks) <= 1:
            timed = [_timed_call(fn, task) for task in tasks]
        else:
            call = partial(_timed_call, fn)
            pool_cls = (
                concurrent.futures.ThreadPoolExecutor
                if self.backend == "thread"
                else concurrent.futures.ProcessPoolExecutor
            )
            with pool_cls(max_workers=min(self.workers, len(tasks))) as pool:
                timed = list(pool.map(call, tasks))
        wall = time.perf_counter() - start
        self.last_report = ParallelReport(
            workers=self.workers,
            backend=self.backend if self.workers > 1 else "serial",
            task_seconds=tuple(seconds for _, seconds in timed),
            wall_seconds=wall,
        )
        return [result for result, _ in timed]


def cpu_op_seconds(host: Platform, op, rows: int, width: int) -> float:
    """Host cost of one CPU-fallback op, charged by its actual kind."""
    if op.kind == "ARGMAX":
        return host.argmax_seconds(rows, width)
    if op.kind == "TANH":
        return host.tanh_seconds(rows * width)
    if op.kind == "FULLY_CONNECTED":
        return host.matmul_seconds(rows, width, op.output_dim(width))
    # Dequantize/requantize-style tails: plain elementwise traffic.
    return host.elementwise_seconds(rows * width)


def host_ops_seconds(compiled, host: "Platform", rows: int, *,
                     whole_model: bool = False) -> float:
    """Modeled host seconds of a compiled model's ops on ``rows`` rows.

    The one host-cost formula: each op charged by its actual kind, in
    op order, plus the final argmax for models whose last op emits
    activations.  By default it covers the CPU tail after the device
    (``cpu_ops``, starting at the last device op's width); with
    ``whole_model=True`` it covers every op from the input — the
    serving CPU fallback.  Execution dispatch (fused stages, arena
    plans, native kernels) never enters it.
    """
    if whole_model:
        ops = list(compiled.tpu_ops) + list(compiled.cpu_ops)
        width = compiled.model.input_spec.size
    else:
        ops = compiled.cpu_ops
        width = compiled.plans[-1].output_dim
    seconds = 0.0
    for op in ops:
        seconds += cpu_op_seconds(host, op, rows, width)
        width = op.output_dim(width)
    if not compiled.model.output_is_index:
        seconds += host.argmax_seconds(rows, width)
    return seconds


def run_host_tail(compiled, outputs: np.ndarray,
                  host: "Platform") -> tuple[np.ndarray, float]:
    """Run a compiled model's CPU tail on device outputs.

    Executes the trailing ``cpu_ops`` (for the paper's models, the
    final ARGMAX) on the host and reduces to per-sample class
    predictions, charged by :func:`host_ops_seconds` — the formula the
    serving event loop charges too, so their modeled tails can never
    drift apart.

    Returns:
        ``(predictions, seconds)`` — int64 class indices for the rows
        of ``outputs``, and the modeled host seconds.
    """
    out = outputs
    for op in compiled.cpu_ops:
        out = op.run(out)
    if compiled.model.output_is_index:
        predictions = out[:, 0]
    else:
        predictions = np.argmax(out, axis=-1)
    return predictions, host_ops_seconds(compiled, host, len(outputs))


@dataclass
class DispatchResult:
    """Outcome of one :meth:`MicroBatchDispatcher.dispatch` call.

    Attributes:
        predictions: int64 class indices, in input order.
        scores: Host-aggregated float scores (sharded placement only).
        samples: Number of samples dispatched (0 for an idle queue).
        num_batches: Micro-batches issued.
        makespan_seconds: Modeled wall time with device/host overlap —
            the dispatcher's "inference latency" for the whole stream.
        device_seconds: Per-device busy seconds (no overlap credit).
        device_idle_seconds: Per-device idle seconds over the dispatch
            makespan (``makespan - busy``, clamped at 0), so device
            utilization is computable from the result alone.
        host_seconds: Host busy seconds (dequantize / aggregate / argmax).
        serial_seconds: What the same work would cost with one device
            and no overlap — the speedup baseline.
        accuracy: Mean accuracy when labels were supplied (``None`` for
            an empty stream).
    """

    predictions: np.ndarray
    scores: np.ndarray | None
    samples: int
    num_batches: int
    makespan_seconds: float
    device_seconds: list[float]
    host_seconds: float
    serial_seconds: float
    device_idle_seconds: list[float] = field(default_factory=list)
    accuracy: float | None = None
    breakdown: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Modeled samples per second over the whole stream."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.samples / self.makespan_seconds

    @property
    def speedup(self) -> float:
        """Modeled speedup over serial single-device execution."""
        if self.makespan_seconds <= 0:
            return 1.0
        return self.serial_seconds / self.makespan_seconds

    @property
    def utilization(self) -> float:
        """Fraction of pooled device time spent busy (0 when idle)."""
        busy = sum(self.device_seconds)
        total = busy + sum(self.device_idle_seconds)
        return busy / total if total > 0 else 0.0


class MicroBatchDispatcher:
    """Micro-batched inference across a device pool, with overlap.

    Two placements:

    - ``"replicate"``: every device holds the *same* compiled (fused)
      model; micro-batches round-robin across devices (data parallel).
      The host tail runs that model's CPU-fallback ops (dequantize /
      argmax) per batch.
    - ``"shard"``: device ``i`` holds sub-model ``i``'s score network;
      every micro-batch visits *all* devices (model parallel) and the
      host dequantizes, sums and argmaxes the per-shard scores — the
      explicit form of the fused model's aggregation semantics.

    Timing: per-device virtual timelines plus one host timeline.  The
    host tail of batch ``j`` overlaps the device execution of later
    batches; ``makespan`` is when the last host tail finishes.  This is
    the standard double-buffered dispatch loop on real Coral pools,
    expressed in the repo's virtual-clock terms.

    Args:
        pool: A :class:`DevicePool` with models already loaded
            (:meth:`DevicePool.load_replicated` or
            :meth:`DevicePool.load_models`).
        host: Host platform charged for the dequantize/aggregate/argmax
            tail; defaults to :class:`~repro.platforms.cpu.MobileCpu`.
        micro_batch: Samples per device invocation.
        placement: ``"replicate"`` or ``"shard"`` (must match how the
            pool was loaded).
        profiler: Optional :class:`~repro.runtime.profiler.PhaseProfiler`;
            the dispatch makespan is charged under ``inference``.
    """

    def __init__(self, pool: "DevicePool", host: Platform | None = None,
                 micro_batch: int = 32, placement: str = "replicate",
                 profiler=None):
        if micro_batch < 1:
            raise ValueError(f"micro_batch must be >= 1, got {micro_batch}")
        if placement not in _PLACEMENTS:
            raise ValueError(
                f"placement must be one of {_PLACEMENTS}, got {placement!r}"
            )
        if host is None:
            from repro.platforms.cpu import MobileCpu
            host = MobileCpu()
        self.pool = pool
        self.host = host
        self.micro_batch = micro_batch
        self.placement = placement
        self.profiler = profiler
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def dispatch(self, x: np.ndarray, y: np.ndarray | None = None,
                 tracer=None) -> DispatchResult:
        """Run the request stream ``x`` through the pool.

        Args:
            x: Float samples ``(num_samples, num_features)``.
            y: Optional labels for accuracy reporting.
            tracer: Optional :class:`~repro.observability.trace.Tracer`;
                when enabled, the dispatch records explicitly-timed
                ``device.invoke`` / ``host.tail`` spans on the per-device
                virtual timelines under a ``dispatch`` root, then
                advances the tracer cursor past the makespan.  Timing
                and predictions are identical with or without it.

        Returns:
            A :class:`DispatchResult` with predictions in input order
            and the overlap timing accounting.
        """
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2:
            raise ValueError(f"expected 2-D samples, got shape {x.shape}")
        loaded = [(i, model) for i, model in enumerate(self.pool.models)
                  if model is not None]
        if not loaded:
            raise RuntimeError("no models loaded; load the pool first")
        if len(x) == 0:
            # An idle serving queue is not an error: report zero work.
            result = DispatchResult(
                predictions=np.empty(0, dtype=np.int64),
                scores=None,
                samples=0,
                num_batches=0,
                makespan_seconds=0.0,
                device_seconds=[0.0] * len(loaded),
                host_seconds=0.0,
                serial_seconds=0.0,
                device_idle_seconds=[0.0] * len(loaded),
            )
        else:
            with self._lock:
                if self.placement == "replicate":
                    result = self._dispatch_replicated(x, loaded, tracer)
                else:
                    result = self._dispatch_sharded(x, loaded, tracer)
            if tracer is not None:
                tracer.advance(result.makespan_seconds)

        if y is not None:
            y = np.asarray(y, dtype=np.int64)
            if len(y) != result.samples:
                raise ValueError(
                    f"{result.samples} predictions but {len(y)} labels"
                )
            if result.samples:
                result.accuracy = float(np.mean(result.predictions == y))
        if self.profiler is not None:
            self.profiler.charge("inference", result.makespan_seconds)
        return result

    # ------------------------------------------------------------------

    def _batches(self, n: int):
        return [(start, min(start + self.micro_batch, n))
                for start in range(0, n, self.micro_batch)]

    def _dispatch_replicated(self, x, loaded, tracer=None) -> DispatchResult:
        compiled = loaded[0][1]
        for _, other in loaded[1:]:
            if other is not compiled:
                raise ValueError(
                    "replicated dispatch requires the same compiled model "
                    "on every device; use DevicePool.load_replicated()"
                )
        model = compiled.model
        quantized = model.input_spec.qparams.quantize(x)
        predictions = np.empty(len(x), dtype=np.int64)

        batches = self._batches(len(x))
        base = tracer.cursor_s if tracer is not None else 0.0
        root = None
        if tracer is not None:
            root = tracer.add("dispatch", base, base,
                              placement="replicate", samples=len(x),
                              num_batches=len(batches))
        device_free = {i: 0.0 for i, _ in loaded}
        device_busy = {i: 0.0 for i, _ in loaded}
        host_free = 0.0
        host_busy = 0.0
        breakdown: dict = {}
        for j, (start, stop) in enumerate(batches):
            index, _ = loaded[j % len(loaded)]
            device = self.pool.devices[index]
            invoke = device.invoke(quantized[start:stop])
            device_start = device_free[index]
            device_done = device_start + invoke.elapsed_s
            device_free[index] = device_done
            device_busy[index] += invoke.elapsed_s
            for key, value in invoke.breakdown.items():
                breakdown[key] = breakdown.get(key, 0.0) + value

            predictions[start:stop], host_cost = run_host_tail(
                compiled, invoke.outputs, self.host,
            )
            # The host tail waits for this batch's device *and* for the
            # previous batch's tail — that serialization is the overlap
            # model (host works on batch j while devices run j+1...).
            tail_start = max(host_free, device_done)
            host_free = tail_start + host_cost
            host_busy += host_cost
            if tracer is not None:
                tracer.add("device.invoke", base + device_start,
                           base + device_done, parent_id=root,
                           phase="inference", device=index,
                           batch=stop - start, elapsed_s=invoke.elapsed_s,
                           bytes_in=invoke.bytes_in,
                           bytes_out=invoke.bytes_out)
                tracer.add("host.tail", base + tail_start, base + host_free,
                           parent_id=root, phase="inference",
                           batch=stop - start)
        breakdown["host_tail"] = host_busy
        if tracer is not None:
            tracer.finish(root, base + host_free)

        busy = [float(device_busy[i]) for i, _ in loaded]
        return DispatchResult(
            predictions=predictions,
            scores=None,
            samples=len(x),
            num_batches=len(batches),
            makespan_seconds=host_free,
            device_seconds=busy,
            host_seconds=host_busy,
            serial_seconds=sum(device_busy.values()) + host_busy,
            device_idle_seconds=[max(0.0, host_free - b) for b in busy],
            breakdown=breakdown,
        )

    def _dispatch_sharded(self, x, loaded, tracer=None) -> DispatchResult:
        # Pre-quantize once per shard (each has its own input grid).
        quantized = {i: m.model.input_spec.qparams.quantize(x)
                     for i, m in loaded}
        batches = self._batches(len(x))
        base = tracer.cursor_s if tracer is not None else 0.0
        root = None
        if tracer is not None:
            root = tracer.add("dispatch", base, base,
                              placement="shard", samples=len(x),
                              num_batches=len(batches))
        predictions = np.empty(len(x), dtype=np.int64)
        all_scores = None
        device_free = {i: 0.0 for i, _ in loaded}
        device_busy = {i: 0.0 for i, _ in loaded}
        host_free = 0.0
        host_busy = 0.0
        breakdown: dict = {}
        for start, stop in batches:
            rows = stop - start
            batch_scores = None
            batch_device_done = 0.0
            host_cost = 0.0
            for index, compiled in loaded:
                device = self.pool.devices[index]
                invoke = device.invoke(quantized[index][start:stop])
                device_start = device_free[index]
                device_done = device_start + invoke.elapsed_s
                device_free[index] = device_done
                device_busy[index] += invoke.elapsed_s
                batch_device_done = max(batch_device_done, device_done)
                for key, value in invoke.breakdown.items():
                    breakdown[key] = breakdown.get(key, 0.0) + value
                if tracer is not None:
                    tracer.add("device.invoke", base + device_start,
                               base + device_done, parent_id=root,
                               phase="inference", device=index, batch=rows,
                               elapsed_s=invoke.elapsed_s,
                               bytes_in=invoke.bytes_in,
                               bytes_out=invoke.bytes_out)
                out_qparams = compiled.tpu_ops[-1].output_qparams
                scores = out_qparams.dequantize(invoke.outputs)
                host_cost += self.host.elementwise_seconds(scores.size)
                batch_scores = scores if batch_scores is None \
                    else batch_scores + scores
            # (M - 1) summations plus the final argmax.
            host_cost += self.host.elementwise_seconds(
                (len(loaded) - 1) * batch_scores.size
            )
            host_cost += self.host.argmax_seconds(
                rows, batch_scores.shape[1]
            )
            predictions[start:stop] = np.argmax(batch_scores, axis=-1)
            all_scores = batch_scores if all_scores is None \
                else np.vstack([all_scores, batch_scores])
            tail_start = max(host_free, batch_device_done)
            host_free = tail_start + host_cost
            host_busy += host_cost
            if tracer is not None:
                tracer.add("host.tail", base + tail_start, base + host_free,
                           parent_id=root, phase="inference", batch=rows)
        breakdown["host_tail"] = host_busy
        if tracer is not None:
            tracer.finish(root, base + host_free)

        busy = [float(device_busy[i]) for i, _ in loaded]
        return DispatchResult(
            predictions=predictions,
            scores=all_scores,
            samples=len(x),
            num_batches=len(batches),
            makespan_seconds=host_free,
            device_seconds=busy,
            host_seconds=host_busy,
            serial_seconds=sum(device_busy.values()) + host_busy,
            device_idle_seconds=[max(0.0, host_free - b) for b in busy],
            breakdown=breakdown,
        )

"""The online inference server: event loop, admission, faults, swaps.

:class:`InferenceServer` simulates serving a timestamped request trace
on the repo's virtual-clock convention.  Each component mirrors a piece
of a production serving stack:

- **Admission control** — a bounded request queue; arrivals past the
  bound are dropped and accounted (the graceful-degradation alternative
  to unbounded latency collapse).
- **Batching** — a pluggable policy (:mod:`repro.serving.batcher`)
  decides when the queue closes into a micro-batch; the batch then runs
  on the earliest-free device of a replicated
  :class:`~repro.edgetpu.multidevice.DevicePool` with the host
  dequantize/argmax tail serialized behind it, exactly the timing model
  of :class:`~repro.runtime.executor.MicroBatchDispatcher`.
- **Fault tolerance** — device failures injected via
  :class:`~repro.edgetpu.multidevice.FailurePlan` are detected at
  dispatch (paying the modeled detection cost), retried once on the
  next healthy device, and finally served by the existing CPU-fallback
  op path — the same int8 kernels run on the host, so predictions stay
  bit-identical and in request order, only slower.
- **Hot swap** — a :class:`~repro.serving.swap.ModelSwapper` commits a
  freshly retrained model atomically between batches.
- **Tiered degradation** — given a compression tier ladder
  (:class:`~repro.compression.tiers.TierSet`), overload sheds batches
  to a cheaper co-resident tier instead of dropping them: when the
  queue is deep or the full tier's predicted completion threatens the
  earliest deadline (per the :class:`~repro.config.TierPolicy`), the
  batch runs on a compressed or distilled model already loaded next to
  the primary, trading a few accuracy points for meeting the SLA.

Latency is tracked per request on the virtual clock
(:class:`~repro.runtime.profiler.LatencyTracker` percentiles), so p99
against an SLA is a first-class, machine-independent output.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.config import ServeConfig, TierPolicy
from repro.edgetpu.compiler import CompiledModel
from repro.edgetpu.multidevice import DeviceFailedError, DevicePool
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import Tracer
from repro.platforms.base import Platform
from repro.runtime.cache import LruCache
from repro.runtime.executor import host_ops_seconds
from repro.runtime.plan import ServingPlan
from repro.runtime.profiler import LatencyTracker
from repro.serving.batcher import DynamicBatcher
from repro.serving.swap import ModelSwapper, SwapRecord

__all__ = ["InferenceServer", "ServeReport"]


@dataclass
class ServeReport:
    """Everything one :meth:`InferenceServer.serve` run produced.

    Attributes:
        num_requests: Requests in the trace.
        served: Requests that received a prediction.
        dropped: Requests rejected by admission control (bounded queue).
        deadline_misses: Served requests whose completion passed their
            deadline.
        predictions: int64 class indices in *request order*; ``-1``
            marks a dropped request.
        labels: Ground-truth labels in request order (``None`` when the
            trace carried no labels).
        latencies: Per-request completion-minus-arrival seconds in
            request order (``nan`` for dropped requests).
        latency: Percentile tracker over served requests.
        makespan_s: Virtual time of the last completion.
        num_batches: Batches dispatched.
        batch_sizes: Size of each dispatched batch, in dispatch order.
        device_busy_seconds: Per-device busy seconds.
        device_swap_seconds: Per-device seconds spent blocked reloading
            a hot-swapped model (commit blocks every healthy device for
            the load time; without this field that time would read as
            idle).
        device_idle_seconds: Per-device
            ``makespan - busy - swap_load`` seconds.
        device_energy_j: Per-device modeled joules
            (:meth:`EdgeTpuDevice.energy_joules
            <repro.edgetpu.device.EdgeTpuDevice.energy_joules>`: active
            power x cumulative busy time, model loads included) — the
            term the placement optimizer's cost objective prices.
        host_seconds: Host busy seconds (tails + CPU fallback).
        retried_batches: Batches that succeeded on a retry device after
            a failure was detected.
        fallback_batches: Batches served entirely on the host CPU.
        failed_devices: Pool indices that failed during the run.
        swap_records: Committed hot swaps.
        tier_names: Tier ladder names when the server ran tiered
            (empty otherwise — the payload shape is unchanged for
            untiered runs).
        tier_batches: Batches dispatched per tier, by tier index.
        tier_served: Requests served per tier, by tier index.
        tier_sheds: Batches served on a degraded tier (index > 0).
        tier_build_accuracy: Each tier's build-time accuracy (from
            :attr:`Tier.build_accuracy <repro.compression.tiers.Tier>`;
            entries may be ``None``).
        request_tiers: Per-request tier index in request order (``-1``
            for dropped requests); ``None`` for untiered runs.
        tier_latency: Per-tier latency trackers over served requests.
        trace: The span trace of the run (``None`` unless the server was
            given a tracer / ``ServeConfig(tracing=True)``).
    """

    num_requests: int
    served: int = 0
    dropped: int = 0
    deadline_misses: int = 0
    predictions: np.ndarray = field(default_factory=lambda: np.empty(0))
    labels: np.ndarray | None = None
    latencies: np.ndarray = field(default_factory=lambda: np.empty(0))
    latency: LatencyTracker = field(default_factory=LatencyTracker)
    makespan_s: float = 0.0
    num_batches: int = 0
    batch_sizes: list[int] = field(default_factory=list)
    device_busy_seconds: list[float] = field(default_factory=list)
    device_swap_seconds: list[float] = field(default_factory=list)
    device_idle_seconds: list[float] = field(default_factory=list)
    device_energy_j: list[float] = field(default_factory=list)
    host_seconds: float = 0.0
    retried_batches: int = 0
    fallback_batches: int = 0
    failed_devices: list[int] = field(default_factory=list)
    swap_records: list[SwapRecord] = field(default_factory=list)
    tier_names: list[str] = field(default_factory=list)
    tier_batches: list[int] = field(default_factory=list)
    tier_served: list[int] = field(default_factory=list)
    tier_sheds: int = 0
    tier_build_accuracy: list[float | None] = field(default_factory=list)
    request_tiers: np.ndarray | None = None
    tier_latency: list[LatencyTracker] = field(default_factory=list)
    trace: Tracer | None = None

    @property
    def throughput(self) -> float:
        """Served requests per virtual second."""
        if self.makespan_s <= 0:
            return 0.0
        return self.served / self.makespan_s

    @property
    def drop_rate(self) -> float:
        """Fraction of the trace rejected by admission control."""
        if self.num_requests == 0:
            return 0.0
        return self.dropped / self.num_requests

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of *served* requests that finished past deadline."""
        if self.served == 0:
            return 0.0
        return self.deadline_misses / self.served

    @property
    def utilization(self) -> float:
        """Fraction of pooled device time spent busy.

        Swap-reload time counts toward the denominator (the device was
        occupied, not serving) but never toward busy time.
        """
        busy = sum(self.device_busy_seconds)
        total = (busy + sum(self.device_idle_seconds)
                 + sum(self.device_swap_seconds))
        return busy / total if total > 0 else 0.0

    @property
    def mean_batch_size(self) -> float:
        """Average dispatched batch size."""
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)

    @property
    def accuracy(self) -> float | None:
        """Mean accuracy over served requests (``None`` without labels)."""
        if self.labels is None or self.served == 0:
            return None
        mask = self.predictions >= 0
        return float(np.mean(self.predictions[mask] == self.labels[mask]))

    @property
    def shed_rate(self) -> float:
        """Fraction of dispatched batches served on a degraded tier."""
        if self.num_batches == 0:
            return 0.0
        return self.tier_sheds / self.num_batches

    def tier_accuracy(self) -> list[float | None]:
        """Served accuracy per tier index (``None`` for unused tiers).

        Raises:
            ValueError: If the run was untiered or carried no labels.
        """
        if self.request_tiers is None:
            raise ValueError("run was not tiered")
        if self.labels is None:
            raise ValueError("trace carried no labels")
        accuracies: list[float | None] = []
        for index in range(len(self.tier_names)):
            mask = self.request_tiers == index
            if not mask.any():
                accuracies.append(None)
            else:
                accuracies.append(float(np.mean(
                    self.predictions[mask] == self.labels[mask]
                )))
        return accuracies

    def windowed_accuracy(self, num_windows: int) -> list[float]:
        """Accuracy over ``num_windows`` equal request-index windows.

        Dropped requests are excluded inside each window; an all-dropped
        window reports ``nan``.  This is the curve that shows a static
        server decaying under drift and a swapping server recovering.
        """
        if num_windows < 1:
            raise ValueError(
                f"num_windows must be >= 1, got {num_windows}"
            )
        if self.labels is None:
            raise ValueError("trace carried no labels")
        edges = np.linspace(0, self.num_requests, num_windows + 1,
                            dtype=int)
        accuracies = []
        for start, stop in zip(edges[:-1], edges[1:]):
            preds = self.predictions[start:stop]
            labels = self.labels[start:stop]
            mask = preds >= 0
            if not mask.any():
                accuracies.append(float("nan"))
            else:
                accuracies.append(
                    float(np.mean(preds[mask] == labels[mask]))
                )
        return accuracies

    def summary(self) -> dict:
        """Machine-readable report (the serving benchmark's JSON rows).

        Keys follow the repo-wide result-schema convention (see
        :mod:`repro.api`): modeled durations end in ``_s``, rates in
        ``_rate``, counts are bare nouns, and a ``schema`` key versions
        the layout.
        """
        payload = {
            "schema": "repro.serve/1",
            "num_requests": self.num_requests,
            "served": self.served,
            "dropped": self.dropped,
            "drop_rate": self.drop_rate,
            "deadline_misses": self.deadline_misses,
            "deadline_miss_rate": self.deadline_miss_rate,
            "throughput_rps": self.throughput,
            "makespan_s": self.makespan_s,
            "num_batches": self.num_batches,
            "mean_batch_size": self.mean_batch_size,
            "utilization": self.utilization,
            "host_s": self.host_seconds,
            "retried_batches": self.retried_batches,
            "fallback_batches": self.fallback_batches,
            "energy_j": sum(self.device_energy_j),
            "device_energy_j": list(self.device_energy_j),
            "failed_devices": list(self.failed_devices),
            "swaps_committed": len(self.swap_records),
            "swap_s": sum(r.modelgen_seconds + r.load_seconds
                          for r in self.swap_records),
            "swap_load_s": sum(self.device_swap_seconds),
            "latency": self.latency.summary(),
        }
        if self.labels is not None:
            payload["accuracy"] = self.accuracy
        if self.tier_names:
            tiers: dict = {
                "names": list(self.tier_names),
                "batches": list(self.tier_batches),
                "served": list(self.tier_served),
                "sheds": self.tier_sheds,
                "shed_rate": self.shed_rate,
                "build_accuracy": list(self.tier_build_accuracy),
                "latency": [t.summary() for t in self.tier_latency],
            }
            if self.labels is not None:
                tiers["accuracy"] = self.tier_accuracy()
            payload["tiers"] = tiers
        return payload


class InferenceServer:
    """Event-loop server over a replicated device pool.

    The preferred construction is ``InferenceServer(pool, config)`` with
    a :class:`~repro.config.ServeConfig` (or :func:`repro.api.serve`,
    which builds everything).  The original keyword form
    (``batcher=...``, ``max_queue=...``) still works through a
    deprecation shim.

    Args:
        pool: A :class:`DevicePool` loaded via
            :meth:`~repro.edgetpu.multidevice.DevicePool.load_replicated`.
        batcher: A :class:`~repro.config.ServeConfig` (preferred), or a
            batch-closing policy instance (deprecated); defaults to a
            :class:`~repro.serving.batcher.DynamicBatcher` of 32.
        host: Host platform charged for tails and CPU fallback;
            defaults to :class:`~repro.platforms.cpu.MobileCpu`.
        max_queue: Admission bound — arrivals beyond this queue depth
            are dropped (deprecated; set it on the config).
        swapper: Optional :class:`~repro.serving.swap.ModelSwapper`
            whose scheduled swaps commit at batch boundaries.
        profiler: Optional :class:`~repro.runtime.profiler.PhaseProfiler`;
            the serve makespan is charged under ``inference``.
        config: The :class:`~repro.config.ServeConfig`, when not passed
            positionally.  ``config.tracing=True`` records per-request
            spans onto :attr:`ServeReport.trace`.
        tiers: Optional compression tier ladder
            (:class:`~repro.compression.tiers.TierSet` or a list of
            tiers).  Tier 0's compiled model must be the one the pool
            already serves; degraded tiers are made co-resident on
            every healthy device at construction (a deployment-time
            load, like the primary's).  ``config.tiers`` (a
            :class:`~repro.config.TierPolicy`) controls when batches
            shed; the default policy applies when unset.
        tracer: Explicit :class:`~repro.observability.trace.Tracer` to
            record into (overrides ``config.tracing``).
        metrics: Optional
            :class:`~repro.observability.metrics.MetricsRegistry`;
            the serve loop maintains ``serve.*`` counters, the queue
            depth gauge and latency/batch-size histograms in it.
    """

    def __init__(self, pool: DevicePool, batcher=None,
                 host: Platform | None = None, max_queue: int | None = None,
                 swapper: ModelSwapper | None = None, profiler=None, *,
                 config: ServeConfig | None = None,
                 tiers=None,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None):
        if isinstance(batcher, ServeConfig):
            if config is not None:
                raise TypeError(
                    "pass the ServeConfig positionally or as config=, "
                    "not both"
                )
            config = batcher
            batcher = None
        if config is not None:
            if batcher is not None or max_queue is not None:
                raise TypeError(
                    "config= cannot be combined with the deprecated "
                    "batcher=/max_queue= keywords"
                )
            batcher = config.make_batcher()
            max_queue = config.max_queue
            if tracer is None and config.tracing:
                tracer = Tracer(enabled=True)
        elif batcher is not None or max_queue is not None:
            warnings.warn(
                "keyword construction of InferenceServer is deprecated; "
                "pass a repro.config.ServeConfig (or use repro.api.serve)",
                DeprecationWarning, stacklevel=2,
            )
        if max_queue is None:
            max_queue = 256
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        if host is None:
            from repro.platforms.cpu import MobileCpu
            host = MobileCpu()
        loaded = [m for m in pool.models if m is not None]
        if not loaded:
            raise RuntimeError("no models loaded; load the pool first")
        for other in loaded[1:]:
            # Heterogeneous pools hold per-backend recompilations of the
            # same flat model (see DevicePool._variant_for); that still
            # counts as replicated — every device answers every request.
            if other is not loaded[0] and other.model is not loaded[0].model:
                raise ValueError(
                    "serving requires the replicated placement; use "
                    "DevicePool.load_replicated()"
                )
        if swapper is not None and swapper.pool is not pool:
            raise ValueError("swapper is bound to a different pool")
        self.pool = pool
        self.config = config
        self.batcher = batcher if batcher is not None else DynamicBatcher()
        self.host = host
        self.max_queue = max_queue
        self.swapper = swapper
        self.profiler = profiler
        self.tracer = tracer
        self.metrics = metrics
        self._compiled: CompiledModel = loaded[0]
        # Per-batch-size service estimates are pure in (compiled model,
        # batch); the event loop re-evaluates the batch trigger after
        # every arrival, so memoize instead of re-deriving the latency
        # plan each time.  Bounded LRUs (evicted entries recompute
        # identically); invalidated on hot swap.
        self._estimate_cache: LruCache = LruCache(128)
        # Host-tail seconds per (model identity, rows).  Safe
        # unbounded: keys are the few resident models x batch sizes up
        # to max_batch; keyed by id(), so it is cleared on hot swap
        # (the swapped-out model may be freed and its id reused).
        self._tail_cache: dict[tuple[int, int], float] = {}
        self._tiers = None
        self._tier_policy: TierPolicy | None = None
        self.tier_load_s = 0.0
        # Degraded-tier estimates never invalidate: a hot swap replaces
        # only the primary (tier 0), the ladder stays resident.
        self._degraded_estimates: LruCache = LruCache(256)
        self._active_tier = 0
        if tiers is not None:
            tier_list = list(tiers)
            if not tier_list:
                raise ValueError("tiers must contain at least one tier")
            if (tier_list[0].compiled is not self._compiled
                    and tier_list[0].compiled.model
                    is not self._compiled.model):
                raise ValueError(
                    "tier 0 must be the model the pool already serves; "
                    "load_replicated(tiers[0].compiled) first"
                )
            self._tier_policy = (config.tiers
                                 if config is not None
                                 and config.tiers is not None
                                 else TierPolicy())
            # Deployment-time load: the ladder rides along with the
            # primary before serving starts, so it is not charged to
            # the serve makespan (exactly like the primary's load).
            for tier in tier_list[1:]:
                self.tier_load_s = max(
                    self.tier_load_s, pool.load_resident(tier.compiled)
                )
            self._tiers = tier_list
        elif config is not None and config.tiers is not None:
            raise ValueError(
                "config.tiers sets a shedding policy but no tier "
                "ladder was provided; pass tiers="
            )
        # The executor of every batch: one arena plan per resident
        # model, sized for the batcher's largest batch.
        degraded = ([tier.compiled for tier in self._tiers[1:]]
                    if self._tiers is not None else [])
        self._plan = ServingPlan([self._compiled] + degraded,
                                 self.batcher.max_batch)

    # ------------------------------------------------------------------
    # Cost estimation (drives the deadline-aware batch trigger)
    # ------------------------------------------------------------------

    def _tail_seconds(self, compiled: CompiledModel, rows: int) -> float:
        """Modeled host-tail seconds of one batch (memoized)."""
        key = (id(compiled), rows)
        seconds = self._tail_cache.get(key)
        if seconds is None:
            seconds = host_ops_seconds(compiled, self.host, rows)
            self._tail_cache[key] = seconds
        return seconds

    def service_estimate(self, batch_size: int) -> float:
        """Modeled device invoke + host tail for one batch (memoized)."""
        if batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        estimate = self._estimate_cache.get(batch_size)
        if estimate is None:
            # A heterogeneous pool serves per-backend variants of the
            # primary; the batch trigger must plan for the slowest one
            # (it cannot know which device a batch will land on).  On a
            # homogeneous pool this is the single compiled model and the
            # estimate is unchanged.
            variants = {id(self._compiled): self._compiled}
            for model in self.pool.models:
                if model is not None and model.model is self._compiled.model:
                    variants.setdefault(id(model), model)
            estimate = max(
                compiled.invoke_seconds(batch_size)
                + self._tail_seconds(compiled, batch_size)
                for compiled in variants.values()
            )
            self._estimate_cache.put(batch_size, estimate)
        return estimate

    def _tier_estimate(self, tier_index: int, batch_size: int) -> float:
        """Service estimate on tier ``tier_index`` (memoized)."""
        if tier_index == 0:
            return self.service_estimate(batch_size)
        key = (tier_index, batch_size)
        estimate = self._degraded_estimates.get(key)
        if estimate is None:
            compiled = self._tiers[tier_index].compiled
            estimate = (compiled.invoke_seconds(batch_size)
                        + self._tail_seconds(compiled, batch_size))
            self._degraded_estimates.put(key, estimate)
        return estimate

    def _select_tier(self, deadlines, dispatch_t, device_free,
                     queue_depth) -> int:
        """Pick the serving tier for one closed batch.

        Pure in the modeled state (earliest device availability, queue
        depth, deadlines — here the batch's absolute-deadline column),
        so tier choice is deterministic per trace.  The full tier
        serves unless the policy trips; then the lowest-index degraded
        tier whose predicted completion restores the headroom wins,
        falling back to the cheapest tier.
        """
        if self._tiers is None:
            return 0
        policy = self._tier_policy
        healthy = self.pool.healthy_indices()
        earliest = min(
            (max(dispatch_t, device_free[i]) for i in healthy),
            default=dispatch_t,
        )
        budget = float(np.min(deadlines)) - policy.headroom_s
        rows = len(deadlines)
        if (queue_depth < policy.queue_high
                and earliest + self._tier_estimate(0, rows) <= budget):
            return 0
        for index in range(1, len(self._tiers)):
            if earliest + self._tier_estimate(index, rows) <= budget:
                return index
        return len(self._tiers) - 1

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------

    def serve(self, requests) -> ServeReport:
        """Run the trace to completion; returns the serving report.

        Requests must be in arrival order (as
        :meth:`~repro.serving.arrivals.RequestStream.generate` emits
        them).  The loop runs as a :class:`~repro.cluster.replica.Replica`
        actor on the :class:`~repro.cluster.engine.EventEngine`: each
        arrival is one event, the pending batch dispatch is one
        (rescheduled) event, and the engine's deterministic ``(time,
        seq)`` order reproduces the old alternate-and-take-the-earlier
        loop exactly — arrivals win ties, batching decisions see
        precisely the arrivals a real server would have seen by that
        time.

        Args:
            requests: A list (or tuple) of requests — the exact path,
                byte-identical to the historical loop — or any iterator
                of them, consumed lazily so a 10⁶-request trace is
                never materialized.
        """
        # Local import: the cluster layer builds on serving, so the
        # dependency must point that way at module-import time.
        from repro.cluster.engine import EventEngine
        from repro.cluster.replica import Replica

        engine = EventEngine()
        replica = Replica(self, engine)
        replica.bind(requests)
        engine.run()
        return replica.finalize()

    # ------------------------------------------------------------------

    def _dispatch_batch(self, batch, dispatch_t, device_free,
                        device_busy, device_swap, host_free, report,
                        tracer=None, root=None, queue_depth=0) -> float:
        """Serve one closed batch; returns the updated host-free time.

        Thin adapter over :meth:`_dispatch_columns`: splits the request
        objects into the id/arrival/deadline columns the columnar core
        consumes.  The signature (and behavior) is frozen — the
        pre-engine reference oracle in :mod:`repro.serving._reference`
        calls it directly.
        """
        rows = len(batch)
        ids = np.fromiter((r.request_id for r in batch),
                          dtype=np.int64, count=rows)
        arrivals = np.fromiter((r.arrival_s for r in batch),
                               dtype=np.float64, count=rows)
        deadlines = np.fromiter((r.deadline_s for r in batch),
                                dtype=np.float64, count=rows)
        features = [r.features for r in batch]
        return self._dispatch_columns(
            ids, arrivals, deadlines, features, dispatch_t,
            device_free, device_busy, device_swap, host_free, report,
            tracer, root, queue_depth=queue_depth,
        )

    def _dispatch_columns(self, ids, arrivals, deadlines, features,
                          dispatch_t, device_free, device_busy,
                          device_swap, host_free, report, tracer=None,
                          root=None, queue_depth=0, defer=None) -> float:
        """Serve one closed batch given as columns; returns the updated
        host-free time.

        The columnar core of the dispatch path: ``ids``/``arrivals``/
        ``deadlines`` are aligned int64/float64 arrays, ``features`` a
        row list or 2-D array (ignored when deferring).  The per-request
        report bookkeeping — prediction/latency scatter, latency
        histograms, deadline misses, tier columns — is one vectorized
        slice write per batch instead of a Python loop per request,
        with float arithmetic elementwise-identical to the scalar loop
        it replaced.

        When ``defer`` is a :class:`~repro.cluster.fastpath`
        deferred-prediction sink, the device invoke is charged by
        :meth:`~repro.edgetpu.multidevice.DevicePool.invoke_cost`
        (timing only) and ``(compiled, ids)`` is handed to ``defer`` —
        the fast path computes all predictions in one pass after the
        simulation, byte-identically (modeled times never depend on
        predicted values).
        """
        if self.swapper is not None:
            swapped = self.swapper.poll(dispatch_t)
            if swapped is not None:
                self._compiled = swapped
                self._estimate_cache = LruCache(128)
                self._tail_cache.clear()
                # Tier 0's arena plan follows the new weights; degraded
                # tiers keep theirs.
                self._plan.replace_primary(swapped)
                # The commit's device load blocks every reloaded device.
                load = self.swapper.records[-1].load_seconds
                for i in self.pool.healthy_indices():
                    # Account the non-overlapped part of the reload
                    # window (report-only: a device still finishing a
                    # batch absorbs part of the reload into busy time,
                    # and the event times below are unchanged).
                    device_swap[i] += max(
                        0.0,
                        dispatch_t + load
                        - max(dispatch_t, device_free[i]),
                    )
                    device_free[i] = max(device_free[i],
                                         dispatch_t + load)
                if tracer is not None:
                    tracer.add("model.swap", dispatch_t,
                               dispatch_t + load, parent_id=root,
                               tags=("swap",), load_s=load)

        rows = len(ids)
        tier_index = self._select_tier(deadlines, dispatch_t,
                                       device_free, queue_depth)
        if tier_index == 0:
            # Tier 0 is whatever the pool currently serves as primary
            # (it tracks hot swaps); degraded tiers are fixed resident
            # models.
            compiled = self._compiled
            invoke_model = None
        else:
            compiled = self._tiers[tier_index].compiled
            invoke_model = compiled
        if self._tiers is not None:
            report.tier_batches[tier_index] += 1
            if tier_index != 0:
                report.tier_sheds += 1
            if self.metrics is not None:
                name = self._tiers[tier_index].name
                self.metrics.counter(
                    f"serve.tier_batches.{name}"
                ).inc()
                self.metrics.counter(
                    f"serve.tier_served.{name}"
                ).inc(rows)
                self.metrics.gauge("serve.tier_active").set(tier_index)
                if tier_index != 0:
                    self.metrics.counter("serve.tier_sheds").inc()
            if tracer is not None and tier_index != self._active_tier:
                # Zero-duration marker: the policy changed the serving
                # tier at this batch boundary.
                tracer.add("tier.switch", dispatch_t, dispatch_t,
                           parent_id=root, tags=("tier",),
                           from_tier=self._active_tier,
                           to_tier=tier_index,
                           tier=self._tiers[tier_index].name)
            self._active_tier = tier_index
        # Features quantize into the plan's arena; the device, the host
        # tail and the CPU fallback all run the plan's kernels.  The
        # deferred path stages nothing: modeled cost is a function of
        # the row count alone, and the arithmetic happens after the
        # simulation.
        plan = self._plan.plan_for(compiled)
        quantized = plan.stage(features) if defer is None else None

        batch_span = (tracer.add("serve.batch", dispatch_t, dispatch_t,
                                 parent_id=root, batch=rows,
                                 tier=tier_index)
                      if tracer is not None else None)
        predictions = None
        completion = None
        detect_t = dispatch_t
        attempts = 0
        failed_once = False
        while attempts < 2:
            healthy = self.pool.healthy_indices()
            if not healthy:
                break
            chosen = min(healthy, key=lambda i: (device_free[i], i))
            start = max(detect_t, device_free[chosen])
            try:
                if defer is not None:
                    invoke = self.pool.invoke_cost(chosen, rows,
                                                   at_s=start,
                                                   model=invoke_model)
                else:
                    invoke = self.pool.try_invoke(
                        chosen, quantized, at_s=start, model=invoke_model,
                        executor=plan.executor_for(rows),
                    )
            except DeviceFailedError as err:
                attempts += 1
                failed_once = True
                detect_t = start + err.detect_seconds
                if tracer is not None:
                    tracer.add("device.detect", start, detect_t,
                               parent_id=batch_span, tags=("failure",),
                               device=chosen)
                continue
            device_done = start + invoke.elapsed_s
            device_free[chosen] = device_done
            device_busy[chosen] += invoke.elapsed_s
            if defer is not None:
                defer.add(compiled, ids)
            else:
                predictions = plan.run_tail(invoke.outputs)
            tail_cost = self._tail_seconds(compiled, rows)
            tail_start = max(host_free, device_done)
            host_free = tail_start + tail_cost
            report.host_seconds += tail_cost
            completion = host_free
            if failed_once:
                report.retried_batches += 1
            if tracer is not None:
                # elapsed_s carries the exact device charge: recomputing
                # it as end_s - start_s can differ in the last float bit.
                tracer.add("device.invoke", start, device_done,
                           parent_id=batch_span, phase="inference",
                           device=chosen, batch=rows,
                           elapsed_s=invoke.elapsed_s,
                           bytes_in=invoke.bytes_in,
                           bytes_out=invoke.bytes_out,
                           tags=("retry",) if failed_once else ())
                tracer.add("host.tail", tail_start, host_free,
                           parent_id=batch_span, phase="inference",
                           batch=rows)
            break

        if completion is None:
            # Retry exhausted or no healthy device: the CPU-fallback op
            # path — the same plan's int8 kernels on the host,
            # bit-identical.  Modeled cost stays per-op (the kernels
            # are execution dispatch, not a timing change).
            cost = host_ops_seconds(compiled, self.host, rows,
                                    whole_model=True)
            if defer is not None:
                defer.add(compiled, ids)
            else:
                predictions = plan.run_host(quantized)
            fallback_start = max(host_free, detect_t)
            host_free = fallback_start + cost
            report.host_seconds += cost
            completion = host_free
            report.fallback_batches += 1
            if tracer is not None:
                tracer.add("host.fallback", fallback_start, host_free,
                           parent_id=batch_span, phase="inference",
                           tags=("fallback",), batch=rows)

        report.num_batches += 1
        report.batch_sizes.append(rows)
        if defer is not None and defer.full:
            # Fully deferred bookkeeping: nothing observes per-request
            # report state mid-run (the cluster only grants ``full``
            # with no autoscaler, no metrics and no tiers, and the fast
            # path already excludes tracers), so one (ids, completion)
            # note replaces the whole per-batch epilogue — the scatter,
            # histogram ingest and miss count replay bit-identically at
            # resolve time.
            defer.book(ids, completion)
            return host_free
        if tracer is not None:
            tracer.finish(batch_span, completion)
        if self.metrics is not None:
            self.metrics.histogram("serve.batch_size").record(rows)
        # Columnar bookkeeping: one slice write (and one bulk histogram
        # ingest) per batch.  ``completion - arrivals`` is elementwise
        # IEEE-identical to the scalar per-request subtraction, so
        # every recorded latency carries the exact same bits.
        latencies = completion - arrivals
        if predictions is not None:
            report.predictions[ids] = predictions
        report.latencies[ids] = latencies
        report.latency.record_many(latencies)
        if report.request_tiers is not None:
            report.request_tiers[ids] = tier_index
            report.tier_served[tier_index] += rows
            report.tier_latency[tier_index].record_many(latencies)
        missed = deadlines < completion
        report.deadline_misses += int(np.count_nonzero(missed))
        if tracer is not None:
            id_list = ids.tolist()
            arrival_list = arrivals.tolist()
            missed_list = missed.tolist()
            for k in range(rows):
                span = tracer.add(
                    "request", arrival_list[k], completion,
                    parent_id=root,
                    tags=("deadline_miss",) if missed_list[k] else (),
                    request_id=id_list[k], batch=rows,
                )
                tracer.add("queue.wait", arrival_list[k], dispatch_t,
                           parent_id=span, request_id=id_list[k])
        if self.metrics is not None:
            self.metrics.histogram("serve.latency_s").record_many(
                latencies
            )
        return host_free

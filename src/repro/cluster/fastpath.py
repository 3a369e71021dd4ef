"""The cluster simulation fast path: chunked intake, deferred math.

After PR 8 the 10⁶-request cluster bench was bound by per-request
Python, not by the modeled kernels: every arrival cost a traffic heap
pop, a `Request` allocation, a router pick, a per-field row append and
a cancel-and-reinsert of the batch dispatch.  This module amortizes
all of it into per-chunk numpy work while leaving every modeled time,
report column and prediction byte-identical to the scalar path (the
contract ``tests/cluster/test_equivalence.py`` pins):

- :class:`FastArrivalPump` pulls merged
  :class:`~repro.cluster.traffic.TrafficChunk` columns, routes each
  chunk in one :meth:`~repro.cluster.router.Router.route_chunk` call,
  bulk-appends every replica's rows
  (:meth:`~repro.cluster.replica._Rows.bulk_append`) and then
  *macro-steps* the engine: consecutive arrivals are processed inline
  — advancing the virtual clock directly — for as long as no other
  pending event would fire first, so the common steady state (arrival
  after arrival with the batch dispatch elided) costs no heap traffic
  at all.  The hand-off rules below make the fired-event order
  provably identical to the scalar one-event-per-arrival pump.
- :class:`DeferredPredictions` collects ``(compiled model, row ids)``
  per dispatched batch and computes *all* predictions after the
  simulation in one vectorized pass.  This is sound because modeled
  latency depends only on the charged row count, never on predicted
  values, and the int8 op chain is exactly integer per row (float64 /
  int64 accumulation), so batch composition cannot change any output
  bit.  When nothing observes per-request state mid-run (no
  autoscaler, no metrics registry, no tiers) the sink also defers the
  per-batch latency bookkeeping (:attr:`DeferredPredictions.full`):
  the dispatch path records only ``(ids, completion)`` and the
  latency scatter, histogram ingest and deadline-miss count all
  happen in one pass at resolve time — bit-identical because
  ``completion - arrival`` is elementwise and
  :meth:`~repro.observability.metrics.LatencyTracker.record_many` is
  a pure order-preserving extend.

Macro-stepping equivalence.  The scalar pump schedules exactly one
arrival event ahead; at arrival *k* it (1) schedules arrival *k+1*
(sequence number ``mark``), then (2) submits *k*, whose dispatch
reschedule allocates newer sequence numbers.  The pump therefore
processes arrival *k+1* inline — without scheduling it — exactly when
the earliest pending event either fires strictly after *k+1*'s
(clamped) time, or ties it with a sequence number ``>= mark`` (i.e. it
was inserted during submit *k*, and the arrival's older ``mark`` would
have beaten it anyway).  Otherwise it yields: arrival *k+1* becomes a
real event, and if submit *k*'s own dispatch landed on the same
instant it is cancel-and-reinserted after the arrival, restoring the
exact ``older-events < arrival < dispatch`` tie order the scalar pump
produces.

Eligibility is decided by :class:`~repro.cluster.cluster.Cluster`
(``ClusterConfig.fast``): the ``least_queue`` policy routes on queue
depths each pick mutates, mixed tenant feature widths have no columnar
chunk form, and non-stock batchers have no inline trigger — those runs
fall back to the scalar pump unchanged.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.runtime.plan import ModelPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster
    from repro.cluster.replica import _Rows
    from repro.cluster.traffic import MultiTenantTraffic
    from repro.edgetpu.compiler import CompiledModel
    from repro.serving.server import ServeReport

__all__ = ["DeferredPredictions", "FastArrivalPump"]

# Rows per vectorized prediction slice (and the resolve plan's arena
# size): large enough to amortize the Python stage dispatch, small
# enough to keep the intermediate activations cache-resident.
_RESOLVE_SLICE = 8192


class DeferredPredictions:
    """Per-replica sink for post-simulation prediction batches.

    :meth:`~repro.serving.server.InferenceServer._dispatch_columns`
    hands over ``(compiled, ids)`` for every batch it serves on the
    deferred path; :meth:`resolve` then runs each model's
    :class:`~repro.runtime.plan.ModelPlan` — the executor the server
    runs every batch through, bit-identical to the device simulator —
    over all of its rows, one slice-sized plan per model.

    Args:
        full: Also defer the per-batch latency bookkeeping (scatter,
            histogram ingest, deadline misses).  Only sound when
            nothing reads per-request report state mid-run — the
            cluster enables it exactly when there is no autoscaler, no
            metrics registry and no tier ladder.
    """

    def __init__(self, full: bool = False):
        self.full = full
        # id(compiled) -> (compiled, [id arrays in dispatch order])
        self._groups: dict[int, tuple["CompiledModel", list]] = {}
        # Dispatch-order (ids, completion) pairs, full mode only.
        self._book_ids: list[np.ndarray] = []
        self._book_completions: list[float] = []

    def add(self, compiled: "CompiledModel", ids: np.ndarray) -> None:
        """Record that ``ids`` were served by ``compiled``."""
        group = self._groups.get(id(compiled))
        if group is None:
            self._groups[id(compiled)] = (compiled, [ids])
        else:
            group[1].append(ids)

    def book(self, ids: np.ndarray, completion: float) -> None:
        """Full mode: record one batch's completion for the deferred
        latency bookkeeping (called once per dispatched batch, in
        dispatch order)."""
        self._book_ids.append(ids)
        self._book_completions.append(completion)

    def resolve(self, rows: "_Rows", report: "ServeReport") -> None:
        """Run every deferred computation against the report.

        Predictions scatter into ``report.predictions`` (rows never
        dispatched — drops — keep their ``-1``).  Row order within a
        slice is dispatch order, but every op is per-row exact, so
        grouping is free to differ from the serving batches.  In full
        mode the latency bookkeeping replays in dispatch order too:
        one subtract, one scatter, one histogram extend and one miss
        count, elementwise-identical to the per-batch epilogue.
        """
        features = rows.features
        predictions = report.predictions
        for compiled, blocks in self._groups.values():
            ids = (blocks[0] if len(blocks) == 1
                   else np.concatenate(blocks))
            plan = ModelPlan(compiled, min(len(ids), _RESOLVE_SLICE))
            for start in range(0, len(ids), _RESOLVE_SLICE):
                part = ids[start:start + _RESOLVE_SLICE]
                predictions[part] = plan.predict(features[part])
        self._groups.clear()
        if self._book_ids:
            ids = (self._book_ids[0] if len(self._book_ids) == 1
                   else np.concatenate(self._book_ids))
            sizes = np.fromiter(
                (len(block) for block in self._book_ids),
                dtype=np.int64, count=len(self._book_ids),
            )
            completions = np.repeat(
                np.array(self._book_completions), sizes
            )
            latencies = completions - rows.arrivals[ids]
            report.latencies[ids] = latencies
            report.latency.record_many(latencies)
            report.deadline_misses += int(
                np.count_nonzero(rows.deadlines[ids] < completions)
            )
            self._book_ids.clear()
            self._book_completions.clear()


class FastArrivalPump:
    """Chunked traffic → batched routing → macro-stepped arrivals.

    One chunk at a time: route the whole chunk, bulk-append each
    replica's rows, precompute per-row scalars (arrival time, replica,
    local id, next-arrival-to-the-same-replica lookahead), then drive
    the clock through :meth:`_on_run` — inline while nothing else is
    due, one scheduled event whenever a dispatch or autoscaler tick
    must interleave (see the module docstring for the exact hand-off
    rules).
    """

    def __init__(self, cluster: "Cluster",
                 traffic: "MultiTenantTraffic"):
        self.cluster = cluster
        self.engine = cluster.engine
        self.router = cluster.router
        self.replicas = cluster.replicas
        self._chunks = traffic.chunks()
        self._times: list[float] = []
        self._replica_of: list[int] = []
        self._local: list[int] = []
        self._next_same: list[float] = []
        self._row = 0
        self._size = 0

    def start(self) -> None:
        """Schedule the first arrival (or finish an empty trace)."""
        chunk = next(self._chunks, None)
        if chunk is None:  # pragma: no cover - total_requests >= 1
            self.cluster._traffic_done = True
            for replica in self.replicas:
                replica.end_of_trace()
            return
        self._prepare(chunk)
        engine = self.engine
        time_s = self._times[0]
        engine.at(time_s if time_s > engine.now else engine.now,
                  self._on_run)

    def _prepare(self, chunk) -> None:
        """Route one chunk and land its rows on the replicas."""
        times = chunk.times
        count = len(times)
        indices = self.router.route_chunk(chunk.tenants)
        local = np.empty(count, dtype=np.int64)
        # nan = "no known next arrival to this replica in the chunk":
        # any comparison is false, so elision stays off across chunk
        # boundaries (~1 conservative dispatch per replica per chunk).
        next_same = np.full(count, math.nan)
        for index, replica in enumerate(self.replicas):
            positions = np.nonzero(indices == index)[0]
            routed = len(positions)
            if routed == 0:
                continue
            base = replica._rows.bulk_append(
                times[positions], chunk.deadlines[positions],
                chunk.tenants[positions], chunk.labels[positions],
                chunk.features[positions],
            )
            local[positions] = base + np.arange(routed)
            if routed > 1:
                next_same[positions[:-1]] = times[positions[1:]]
        self._times = times.tolist()
        self._replica_of = indices.tolist()
        self._local = local.tolist()
        self._next_same = next_same.tolist()
        self._row = 0
        self._size = count

    def _on_run(self) -> None:
        """Process arrivals from ``self._row`` on, inline while safe.

        Invariant on entry (and on every loop iteration): the engine
        clock stands at the current arrival's clamped time — either
        because this event was scheduled there, or because the previous
        iteration advanced the clock inline.
        """
        engine = self.engine
        cluster = self.cluster
        replicas = self.replicas
        metrics = cluster.metrics
        peek = engine.peek
        times = self._times
        replica_of = self._replica_of
        local = self._local
        next_same = self._next_same
        size = self._size
        while True:
            row = self._row
            index = replica_of[row]
            local_id = local[row]
            lookahead = next_same[row]
            # --- the scalar pump's _advance: establish the next
            # arrival (pulling a chunk as needed) or end the trace,
            # *before* submitting the current one ---
            nrow = row + 1
            if nrow == size:
                chunk = next(self._chunks, None)
                if chunk is None:
                    cluster._traffic_done = True
                    for replica in replicas:
                        replica.end_of_trace()
                    if metrics is not None:
                        metrics.counter("cluster.routed").inc()
                    replicas[index]._submit_fast(local_id, lookahead)
                    return
                self._prepare(chunk)
                times = self._times
                replica_of = self._replica_of
                local = self._local
                next_same = self._next_same
                size = self._size
                nrow = 0
            t_next = times[nrow]
            # The sequence number the scalar pump's arrival event would
            # carry: anything scheduled from here on (the submit's
            # dispatch reschedule) is newer and loses ties to it.
            mark = engine._seq
            # --- submit the current arrival ---
            if metrics is not None:
                metrics.counter("cluster.routed").inc()
            replica = replicas[index]
            replica._submit_fast(local_id, lookahead)
            # --- macro-step or yield ---
            now = engine.now
            t_eff = t_next if t_next > now else now
            bound = peek()
            if (bound is None or bound[0] > t_eff
                    or (bound[0] == t_eff and bound[1] >= mark)):
                # Nothing fires before the next arrival (ties only
                # against events this submit just scheduled, which the
                # arrival's older mark would beat): take it inline.
                engine.now = t_eff
                self._row = nrow
                continue
            # An event from before this submit is due first: yield.
            self._row = nrow
            engine.at(t_eff, self._on_run)
            dispatch = replica._dispatch_event
            if (dispatch is not None and dispatch.time_s == t_eff
                    and dispatch.seq > mark):
                # Submit's own dispatch tied the arrival instant; its
                # sequence is now older than the just-scheduled arrival
                # event, inverting the scalar order.  Reinsert it after.
                engine.cancel(dispatch)
                replica._dispatch_event = engine.at(
                    t_eff, replica._on_dispatch_fast
                )
            return

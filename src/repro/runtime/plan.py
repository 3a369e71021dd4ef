"""Arena-backed execution plans: the server's one int8 executor.

A :class:`ModelPlan` resolves one compiled model's op chain once and
runs every batch through preallocated buffers:

- **Exact row counts** — a batch of ``n`` rows runs, and is charged, as
  ``n`` rows.  The zero-allocation closures for a row count are bound
  the first time that count is seen and reused after that.
- **Arena-backed stages** — per fused stage, scratch buffers (widened
  input, accumulator, float64 codes, gather indices, int8 output) are
  allocated once, at construction, for ``max_rows`` rows, and sliced
  per row count.  Warm invokes write through ``out=`` numpy kernels (or
  the native AVX-512 VNNI kernels of :mod:`repro.native` when the CPU
  and the op's int32 bound allow) and perform **zero heap
  allocations**.
- **Shared execution** — the same plan runs the device stages (via the
  ``executor=`` hook on :meth:`~repro.edgetpu.device.EdgeTpuDevice.invoke`),
  the host tail, the CPU fallback, every degraded tier and the
  cluster's deferred predictions, so all paths stay bit-identical to
  the reference interpreter by construction (the tests assert it
  against the frozen ``run_reference`` oracles).

The plan changes *measured wall time only*: modeled virtual-clock
charges come from ``invoke_breakdown`` and
:func:`~repro.runtime.executor.host_ops_seconds` at the served row
count, whichever kernels ran.
"""

from __future__ import annotations

import numpy as np

from repro import native
from repro.tflite.ops import ArgmaxOp, FullyConnectedOp, TanhOp

__all__ = ["ModelPlan", "ServingPlan"]


# ----------------------------------------------------------------------
# Stage compilation: op chain -> arena stages -> per-row-count closures
# ----------------------------------------------------------------------


def _build_stages(ops, width: int, max_rows: int) -> list:
    """Resolve an op chain into arena-backed stages.

    Mirrors :func:`repro.tflite.ops.fused_stages` pairing: ``FC+TANH``
    becomes one fused stage; ``FC+ARGMAX`` splits into a bare FC plus
    an argmax (bit-identical — requantization is monotone, so argmax
    over int8 codes equals argmax over the float64 codes the fused
    kernel reduces).

    Raises:
        TypeError: For an op kind with no arena path (none of the
            repo's models have one), at plan build rather than mid-run.
    """
    stages = []
    ops = list(ops)
    index = 0
    while index < len(ops):
        op = ops[index]
        if isinstance(op, FullyConnectedOp):
            nxt = ops[index + 1] if index + 1 < len(ops) else None
            tanh = nxt if isinstance(nxt, TanhOp) else None
            stages.append(_FcStage(op, tanh, max_rows))
            index += 1 if tanh is None else 2
        elif isinstance(op, TanhOp):
            stages.append(_TanhStage(op, width, max_rows))
            index += 1
        elif isinstance(op, ArgmaxOp):
            stages.append(_ArgmaxStage(max_rows))
            index += 1
        else:
            raise TypeError(
                f"op kind {type(op).__name__} has no arena execution path"
            )
        width = op.output_dim(width)
    return stages


class _FcStage:
    """Arena + kernels for one fused ``FC(+TANH)`` stage.

    Dispatches to the native VNNI kernel when the module is available
    and the op has a VNNI packing (per-tensor multiplier, int32-safe
    bound — see :meth:`FullyConnectedOp.packed_vnni
    <repro.tflite.ops.FullyConnectedOp.packed_vnni>`); otherwise to the
    in-place numpy path (``accumulate_into`` / ``requantize_into`` on
    the op).  Both are bit-identical to the op's ``run`` /
    ``run_tanh_fused``.
    """

    def __init__(self, op: FullyConnectedOp, tanh: TanhOp | None,
                 max_rows: int):
        self.op = op
        self.tanh = tanh
        self.n = op.weights.shape[1]
        self._packed = op.packed_vnni() if native.available() else None
        self.native = self._packed is not None
        if self.native:
            packed = self._packed
            # Shifted-activation buffer: the zero padding in columns
            # [k, k4*4) is written once here and never again.
            self._a_u8 = np.zeros((max_rows, packed.k4 * 4),
                                  dtype=np.uint8)
            self._out = np.zeros((max_rows, packed.n_pad), dtype=np.int8)
            self._lut = tanh.lut if tanh is not None else native.IDENTITY_LUT
        else:
            dtype = op.gemm_dtype
            k = op.weights.shape[0]
            self._x_wide = np.zeros((max_rows, k), dtype=dtype)
            self._acc = np.zeros((max_rows, self.n), dtype=dtype)
            self._codes = np.zeros((max_rows, self.n), dtype=np.float64)
            self._out = np.zeros((max_rows, self.n), dtype=np.int8)
            self._idx = (np.zeros((max_rows, self.n), dtype=np.intp)
                         if tanh is not None else None)
            # Pre-tile the broadcast operands: adding a (n,) row to a
            # (rows, n) accumulator makes numpy malloc a transient
            # iteration buffer per call; same-shape operands don't.
            self._off_tile = np.empty((max_rows, self.n), dtype=dtype)
            self._off_tile[:] = op._gemm_operands()[1]
            self._mult_tile = None
            if not isinstance(op._multiplier, float):
                self._mult_tile = np.empty((max_rows, self.n),
                                           dtype=np.float64)
                self._mult_tile[:] = op._multiplier

    def bind(self, rows: int, x_view: np.ndarray):
        """Build this stage's zero-allocation closure for one row count.

        Returns ``(run, out_view)`` where ``run()`` consumes ``x_view``
        in place and ``out_view`` is the stage's int8 output.
        """
        if self.native:
            op, packed, lut = self.op, self._packed, self._lut
            a_u8 = self._a_u8[:rows]
            out = self._out[:rows]
            trimmed = out[:, :self.n]
            mult = op._multiplier
            zp = op.output_qparams.zero_point
            qmin, qmax = op.output_qparams.qmin, op.output_qparams.qmax
            k4 = packed.k4

            def run() -> None:
                native._shift_u8(x_view, k4, out=a_u8)
                native.fc_fused_i8(a_u8, packed, mult, zp, qmin, qmax,
                                   lut, out)

            return run, trimmed

        op = self.op
        x_wide = self._x_wide[:rows]
        acc = self._acc[:rows]
        codes = self._codes[:rows]
        out = self._out[:rows]
        off = self._off_tile[:rows]
        mult = (self._mult_tile[:rows]
                if self._mult_tile is not None else None)
        if self.tanh is not None:
            idx = self._idx[:rows]
            lut = self.tanh.lut

            def run() -> None:
                op.accumulate_into(x_view, acc, x_wide, off)
                op.requantize_into(acc, codes, mult)
                np.add(codes, 128, out=codes)
                np.copyto(idx, codes, casting="unsafe")
                lut.take(idx, out=out, mode="clip")

        else:

            def run() -> None:
                op.accumulate_into(x_view, acc, x_wide, off)
                op.requantize_into(acc, codes, mult)
                np.copyto(out, codes, casting="unsafe")

        return run, out


class _TanhStage:
    """Arena for a standalone int8 tanh (LUT gather in place)."""

    def __init__(self, op: TanhOp, width: int, max_rows: int):
        self.op = op
        self._idx = np.zeros((max_rows, width), dtype=np.intp)
        self._out = np.zeros((max_rows, width), dtype=np.int8)

    def bind(self, rows: int, x_view: np.ndarray):
        idx = self._idx[:rows]
        out = self._out[:rows]
        lut_u8 = self.op._lut_u8

        def run() -> None:
            np.copyto(idx, x_view.view(np.uint8))
            lut_u8.take(idx, out=out, mode="clip")

        return run, out


class _ArgmaxStage:
    """Arena for the final argmax: int8 codes -> int64 class indices."""

    def __init__(self, max_rows: int):
        # np.argmax(out=...) demands an intp destination; on every
        # supported platform intp is int64, which the serving report
        # stores.  The (rows, 1) shape matches ArgmaxOp.run's keepdims.
        self._out = np.zeros((max_rows, 1), dtype=np.intp)

    def bind(self, rows: int, x_view: np.ndarray):
        out = self._out[:rows]
        flat = out.reshape(rows)

        def run() -> None:
            np.argmax(x_view, axis=-1, out=flat)

        return run, out


class _Binding:
    """One row count's views and closures."""

    __slots__ = ("scratch", "q", "device_out", "tail_runs", "predictions",
                 "executor")

    def __init__(self, scratch, q, device_runs, device_out, tail_runs,
                 predictions):
        self.scratch = scratch
        self.q = q
        self.device_out = device_out
        self.tail_runs = tail_runs
        self.predictions = predictions

        def executor(x: np.ndarray) -> np.ndarray:
            # The server hands back the plan's own arena view; any other
            # caller (tests, standalone use) is copied in, still
            # allocation-free.
            if x is not q:
                np.copyto(q, x)
            for run in device_runs:
                run()
            return device_out

        self.executor = executor


class ModelPlan:
    """One compiled model's arena-backed execution plan.

    Built once per model (by the server's :class:`ServingPlan`, per
    resident tier; by the cluster's deferred-prediction resolve; by
    :func:`~repro.compression.tiers.compiled_predict`); after a row
    count's first use the path

    ``stage() -> executor (device) -> run_tail()``

    performs no heap allocations: features land in a preallocated
    float64 scratch, quantize in place, flow through per-stage arenas,
    and predictions come back as a view into a preallocated buffer.

    Args:
        compiled: The :class:`~repro.edgetpu.compiler.CompiledModel`.
        max_rows: Largest batch the arenas hold (the server passes its
            batcher's ``max_batch``).
    """

    def __init__(self, compiled, max_rows: int):
        if max_rows < 1:
            raise ValueError(f"max_rows must be >= 1, got {max_rows}")
        self.compiled = compiled
        self.max_rows = max_rows
        self._qparams = compiled.model.input_spec.qparams
        self.in_dim = compiled.model.input_spec.size

        self._scratch = np.zeros((max_rows, self.in_dim), dtype=np.float64)
        self._q = np.zeros((max_rows, self.in_dim), dtype=np.int8)

        self._device_stages = _build_stages(compiled.tpu_ops, self.in_dim,
                                            max_rows)
        self._tail_stages = _build_stages(
            compiled.cpu_ops, compiled.plans[-1].output_dim, max_rows)
        # Models whose last op emits activations get the final argmax
        # here (mirroring run_host_tail); index-output models end in an
        # ARGMAX op whose (rows, 1) output is reduced by a view.
        if not compiled.model.output_is_index:
            self._tail_stages.append(_ArgmaxStage(max_rows))
        self.native = any(
            isinstance(st, _FcStage) and st.native
            for st in self._device_stages + self._tail_stages
        )
        self._bound: dict[int, _Binding] = {}

    def _binding(self, rows: int) -> _Binding:
        """The views and closures for ``rows`` rows, bound on first use."""
        binding = self._bound.get(rows)
        if binding is None:
            if rows < 1:
                raise ValueError("cannot run an empty batch")
            if rows > self.max_rows:
                raise ValueError(
                    f"batch of {rows} rows exceeds the plan's "
                    f"{self.max_rows}"
                )
            current = q = self._q[:rows]
            device_runs = []
            for stage in self._device_stages:
                run, current = stage.bind(rows, current)
                device_runs.append(run)
            device_out = current
            tail_runs = []
            for stage in self._tail_stages:
                run, current = stage.bind(rows, current)
                tail_runs.append(run)
            binding = _Binding(self._scratch[:rows], q, device_runs,
                               device_out, tail_runs, current[:, 0])
            self._bound[rows] = binding
        return binding

    # ------------------------------------------------------------------
    # Steady-state API (zero-allocation once a row count is bound)
    # ------------------------------------------------------------------

    def stage(self, features) -> np.ndarray:
        """Load a float batch into the arena and quantize it.

        Args:
            features: A ``(n, in_dim)`` array or a sequence of ``n``
                1-D feature rows.

        Returns:
            The int8 input view, ``(n, in_dim)`` — bit-identical to
            ``input_spec.qparams.quantize``.
        """
        binding = self._binding(len(features))
        if isinstance(features, np.ndarray):
            binding.scratch[...] = features
        else:
            for i, row in enumerate(features):
                binding.scratch[i] = row
        self._qparams.quantize_into(binding.scratch, binding.q,
                                    binding.scratch)
        return binding.q

    def executor_for(self, rows: int):
        """The device-executor closure for ``rows`` rows.

        Pass to :meth:`EdgeTpuDevice.invoke(..., executor=...)
        <repro.edgetpu.device.EdgeTpuDevice.invoke>`: it runs the
        arena-backed device stages in place of the interpreted stage
        loop, bit-identically, and returns the device-output view.
        """
        return self._binding(rows).executor

    def run_tail(self, outputs: np.ndarray) -> np.ndarray:
        """Host tail on device outputs; returns the int64 predictions
        as a view into the plan's buffer."""
        binding = self._binding(outputs.shape[0])
        if outputs is not binding.device_out:
            np.copyto(binding.device_out, outputs)
        for run in binding.tail_runs:
            run()
        return binding.predictions

    def run_host(self, q: np.ndarray) -> np.ndarray:
        """Full chain on the host (CPU-fallback path); predictions view."""
        return self.run_tail(self._binding(q.shape[0]).executor(q))

    def predict(self, features) -> np.ndarray:
        """Quantize + device stages + tail on the host.

        Returns a *view* into the plan's prediction buffer — copy it if
        it must survive the next call.
        """
        return self.run_host(self.stage(features))


class ServingPlan:
    """The server's plans across every resident tier.

    One :class:`ModelPlan` per tier, tier 0 first, all sized for the
    server's largest batch.  A hot swap rebuilds only tier 0's plan
    (:meth:`replace_primary`); degraded tiers keep their arenas.

    Args:
        tiers: Compiled models, tier 0 first (a single-model server
            passes a one-element list).
        max_rows: Largest batch (the batcher's ``max_batch``).
    """

    def __init__(self, tiers, max_rows: int):
        tiers = list(tiers)
        if not tiers:
            raise ValueError("need at least one compiled model")
        self.max_rows = max_rows
        self.plans = [ModelPlan(compiled, max_rows) for compiled in tiers]

    def plan_for(self, compiled) -> ModelPlan | None:
        """The tier plan serving ``compiled`` (identity match)."""
        for plan in self.plans:
            if plan.compiled is compiled:
                return plan
        return None

    def replace_primary(self, compiled) -> ModelPlan:
        """Rebuild tier 0's plan for a hot-swapped model."""
        if compiled is not self.plans[0].compiled:
            self.plans[0] = ModelPlan(compiled, self.max_rows)
        return self.plans[0]

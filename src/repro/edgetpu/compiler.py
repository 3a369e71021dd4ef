"""The accelerator compiler: legality checks, op mapping, latency plans.

Mirrors what ``edgetpu_compiler`` does to a ``.tflite`` file,
generalized over the :class:`~repro.edgetpu.backend.AcceleratorArch`
backend protocol:

- verifies ops are on the backend's supported-op list
  (:meth:`AcceleratorArch.supports` — int8 legality for every current
  backend);
- maps the maximal *prefix* of supported ops to the device (the real
  compiler creates a single device subgraph; anything after the first
  unsupported op stays on the CPU — for the paper's models that is only
  the final ARGMAX);
- checks whether the model's parameters fit the backend's on-device
  buffer (models that do not fit stream the excess over the attach link
  per invocation);
- produces per-op cycle plans from the backend's cost model
  (:meth:`AcceleratorArch.plan_op` — the systolic-array model for the
  Edge TPU backends, event routing for the neuromorphic backend).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.edgetpu.arch import EdgeTpuArch
from repro.edgetpu.backend import AcceleratorArch, OpPlan, default_supports
from repro.runtime.cache import LruCache
from repro.tflite.flatmodel import FlatModel
from repro.tflite.ops import Op, fused_stages

__all__ = [
    "CompileError",
    "CompiledModel",
    "OpPlan",
    "compile_model",
    "is_op_supported",
]


class CompileError(Exception):
    """Raised when a model cannot be mapped to the device at all."""


# Per-(compiled, batch) memo caches are bounded: a long-running server
# fed adversarial batch sizes must not grow them without limit.  The
# entries are pure recomputable derivations, so eviction only costs a
# recomputation, never correctness.  The bound covers every batch size
# of a server batching up to 64 rows.
_MEMO_CACHE_SIZE = 64


def is_op_supported(op: Op) -> bool:
    """Whether the Edge TPU executes this op.

    Fully-connected and tanh are on the Edge TPU supported-ops list;
    ARGMAX is not and falls back to the host CPU (matching the real
    compiler's behaviour for the paper's classification models).  This
    is the shared int8 legality check every current backend uses;
    backends with a different surface override
    :meth:`AcceleratorArch.supports`.
    """
    return default_supports(op)


@dataclass
class CompiledModel:
    """A model after accelerator compilation.

    Attributes:
        model: The source flat model (kernels are shared — execution on
            the device is bit-identical to the reference interpreter).
        arch: Target architecture (any registered backend).
        tpu_ops: Ops mapped to the device (a prefix of ``model.ops``).
        cpu_ops: Trailing ops left on the host CPU.
        plans: One :class:`OpPlan` per device op.
    """

    model: FlatModel
    arch: AcceleratorArch
    tpu_ops: list[Op]
    cpu_ops: list[Op]
    plans: list[OpPlan] = field(default_factory=list)

    @property
    def fully_mapped(self) -> bool:
        """True when every op runs on the TPU."""
        return not self.cpu_ops

    @property
    def weight_bytes(self) -> int:
        """Parameter bytes the TPU subgraph needs resident."""
        return sum(plan.weight_bytes for plan in self.plans)

    @property
    def fits_on_chip(self) -> bool:
        """Whether all parameters fit the on-chip buffer."""
        return self.weight_bytes <= self.arch.parameter_buffer_bytes

    @property
    def streamed_bytes_per_invoke(self) -> int:
        """Parameter bytes re-streamed over USB on every invocation."""
        return max(0, self.weight_bytes - self.arch.parameter_buffer_bytes)

    @property
    def tpu_input_bytes(self) -> int:
        """int8 activation bytes sent to the device per sample."""
        return self.plans[0].input_dim if self.plans else 0

    @property
    def tpu_output_bytes(self) -> int:
        """int8 activation bytes returned from the device per sample."""
        return self.plans[-1].output_dim if self.plans else 0

    def compute_cycles(self, batch: int) -> float:
        """MXU + vector-unit cycles for one invocation of ``batch`` rows."""
        return sum(plan.cycles(batch) for plan in self.plans)

    def invoke_breakdown(self, batch: int) -> dict:
        """Per-term modeled seconds of one ``invoke()`` with ``batch`` rows.

        Keys (in accumulation order): ``overhead``, ``input_transfer``,
        ``weight_streaming``, ``compute``, ``output_transfer``.  This is
        the *shared* latency-plan cache — every device in a pool invokes
        through it, so loading the same compiled model onto eight
        devices derives each ``(model, batch)`` plan once, not eight
        times.  Memoized in a small LRU (the plan is immutable; evicted
        entries recompute bit-identically).  Treat the returned dict as
        read-only; callers that expose it must copy.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        cache: LruCache = self.__dict__.get("_breakdown_cache")
        if cache is None:
            cache = LruCache(_MEMO_CACHE_SIZE)
            self.__dict__["_breakdown_cache"] = cache
        breakdown = cache.get(batch)
        if breakdown is None:
            arch = self.arch
            breakdown = {
                "overhead": arch.invoke_overhead_s,
                "input_transfer": arch.transfer_time(
                    batch * self.tpu_input_bytes
                ),
                "weight_streaming": arch.transfer_time(
                    self.streamed_bytes_per_invoke
                ),
                "compute": arch.cycles_to_seconds(
                    self.compute_cycles(batch)
                ),
                "output_transfer": arch.transfer_time(
                    batch * self.tpu_output_bytes
                ),
            }
            cache.put(batch, breakdown)
        return breakdown

    def invoke_seconds(self, batch: int) -> float:
        """Modeled wall time of one ``invoke()`` with ``batch`` rows.

        The sum of :meth:`invoke_breakdown`'s terms (fixed dispatch
        overhead, input transfer, parameter streaming for oversized
        models, compute, output transfer).  Memoized per batch size in
        a bounded LRU — the plan is immutable — so per-batch callers
        (the device simulator, the serving event loop's
        ``service_estimate``) stop re-deriving the latency plan on
        every call.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        cache: LruCache = self.__dict__.get("_invoke_seconds_cache")
        if cache is None:
            cache = LruCache(_MEMO_CACHE_SIZE)
            self.__dict__["_invoke_seconds_cache"] = cache
        seconds = cache.get(batch)
        if seconds is None:
            seconds = sum(self.invoke_breakdown(batch).values())
            cache.put(batch, seconds)
        return seconds

    def stages(self) -> list:
        """Fused execution stages for the *device-mapped* ops.

        One list per compiled model, built on first use and reused by
        every executor that runs this model's TPU subgraph (each pool
        device) — ``fused_stages`` is documented as
        "build once and reuse", and this is the once.  The cache is
        keyed by the op-chain identity, so the unlikely event of the
        ``tpu_ops`` list being replaced rebuilds rather than serving a
        stale chain.
        """
        key = tuple(id(op) for op in self.tpu_ops)
        cached = self.__dict__.get("_stages")
        if cached is None or cached[0] != key:
            cached = (key, fused_stages(self.tpu_ops))
            self.__dict__["_stages"] = cached
        return cached[1]

    def load_seconds(self) -> float:
        """Modeled one-time cost of pushing the model to the device."""
        return (
            self.arch.model_setup_s
            + self.arch.transfer_time(self.model.size_bytes())
        )

    def summary(self) -> str:
        """Compiler report in the style of ``edgetpu_compiler`` logs."""
        lines = [
            f"Edge TPU compilation of {self.model.name!r}:",
            f"  ops mapped to TPU : {len(self.tpu_ops)}",
            f"  ops on CPU        : {len(self.cpu_ops)}"
            + (f" ({', '.join(op.kind for op in self.cpu_ops)})"
               if self.cpu_ops else ""),
            f"  parameter bytes   : {self.weight_bytes}"
            + ("" if self.fits_on_chip else
               f" (exceeds {self.arch.parameter_buffer_bytes} on-chip; "
               f"{self.streamed_bytes_per_invoke} streamed per invoke)"),
        ]
        for plan in self.plans:
            lines.append(
                f"    {plan.name:<16} {plan.kind:<16} "
                f"{plan.input_dim:>6} -> {plan.output_dim:<6} "
                f"fixed={plan.fixed_cycles} per-row={plan.cycles_per_row:.1f}"
            )
        return "\n".join(lines)


def compile_model(model: FlatModel, arch: AcceleratorArch | None = None
                  ) -> CompiledModel:
    """Compile a flat model for an accelerator backend.

    Args:
        model: The quantized model.
        arch: Target architecture (defaults to the standard USB Edge TPU).

    Returns:
        The compiled model with its device/CPU partition and latency
        plans (from ``arch.plan_op``).

    Raises:
        CompileError: If not even the first op can map to the device
            (the accelerator would contribute nothing).
    """
    if arch is None:
        arch = EdgeTpuArch()
    tpu_ops: list[Op] = []
    cpu_ops: list[Op] = []
    plans: list[OpPlan] = []
    width = model.input_spec.size
    mapping_to_tpu = True
    for op in model.ops:
        if mapping_to_tpu and arch.supports(op):
            plans.append(arch.plan_op(op, width))
            tpu_ops.append(op)
        else:
            mapping_to_tpu = False
            cpu_ops.append(op)
        width = op.output_dim(width)
    if not tpu_ops:
        first = model.ops[0]
        raise CompileError(
            f"no ops could be mapped to the Edge TPU (first op "
            f"{first.name!r} of kind {first.kind} is unsupported)"
        )
    return CompiledModel(model=model, arch=arch, tpu_ops=tpu_ops,
                         cpu_ops=cpu_ops, plans=plans)

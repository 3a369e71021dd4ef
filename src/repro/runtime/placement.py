"""Placement: which hardware should a workload run on? (extension)

The paper's Sec. IV-E observation — few-feature datasets gain nothing
from the accelerator — is actionable: given a workload shape, the cost
models can *decide* where each phase should run and at what batch size,
instead of leaving the user to rediscover PAMAP2's lesson.

Two layers:

- :class:`PlacementAdvisor` / :func:`tpu_feature_crossover` — the
  original binary CPU-vs-TPU advisor built on the calibrated
  :class:`~repro.runtime.costs.CostModel` (the Fig. 10 crossover as an
  API).
- :class:`PlacementOptimizer` — the fleet generalization: given a
  heterogeneous :class:`~repro.config.FleetSpec` (big TPU / small TPU /
  Pi CPU / neuromorphic) and a per-tenant SLA mix, choose each tenant's
  backend, batch bucket and device share minimizing the modeled
  cost-rate (provisioning + energy) subject to the deadline.  The
  result (:class:`FleetPlacement`) feeds
  :class:`~repro.cluster.cluster.Cluster` (one replica per decision,
  routed by the ``"placed"`` policy) and ``repro.api.deploy``.

The optimizer is RNG-free and iterates fleets and tenants in canonical
order, so its picks are invariant to seeds and to the listing order of
fleet groups and tenants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import BackendSpec, FleetSpec
from repro.edgetpu.backend import AcceleratorArch
from repro.edgetpu.compiler import CompiledModel, compile_model
from repro.runtime.costs import CostModel, HdcTrainingConfig, Workload

__all__ = [
    "FleetPlacement",
    "ModelPlacement",
    "PlacementAdvisor",
    "PlacementDecision",
    "PlacementOptimizer",
    "tpu_feature_crossover",
]


@dataclass(frozen=True)
class PlacementDecision:
    """Where each phase of a workload should run.

    Attributes:
        workload: The workload name.
        encode_device: ``"tpu"`` or ``"cpu"`` for training-set encoding.
        inference_device: ``"tpu"`` or ``"cpu"`` for deployment.
        encode_speedup: CPU/TPU encoding-time ratio (> 1 favours TPU).
        inference_speedup: CPU/TPU inference-time ratio.
    """

    workload: str
    encode_device: str
    inference_device: str
    encode_speedup: float
    inference_speedup: float

    def summary(self) -> str:
        """One-line human-readable recommendation."""
        return (
            f"{self.workload}: encode on {self.encode_device.upper()} "
            f"({self.encode_speedup:.2f}x), inference on "
            f"{self.inference_device.upper()} ({self.inference_speedup:.2f}x)"
        )


class PlacementAdvisor:
    """Chooses CPU vs Edge TPU per phase from the calibrated cost models.

    Args:
        cost_model: The :class:`CostModel` to consult; a default-
            calibrated one is built when omitted.
        margin: Required advantage before moving work to the TPU — a
            ratio of 1.0 moves work for any win; the default 1.1 keeps
            marginal workloads on the CPU (attaching an accelerator has
            costs the latency model does not see, e.g. enclosure, power
            budget).
    """

    def __init__(self, cost_model: CostModel | None = None,
                 margin: float = 1.1):
        if margin < 1.0:
            raise ValueError(f"margin must be >= 1.0, got {margin}")
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.margin = margin

    def advise(self, workload: Workload,
               config: HdcTrainingConfig | None = None) -> PlacementDecision:
        """Produce per-phase placement for ``workload``."""
        config = config if config is not None else HdcTrainingConfig()
        cm = self.cost_model
        encode_speedup = (
            cm.cpu_encode_seconds(workload.num_train, workload.num_features,
                                  config.dimension)
            / cm.tpu_encode_seconds(workload.num_train, workload.num_features,
                                    config.dimension)
        )
        inference_speedup = (
            cm.cpu_inference(workload, config)
            / cm.tpu_inference(workload, config)
        )
        return PlacementDecision(
            workload=workload.name,
            encode_device="tpu" if encode_speedup >= self.margin else "cpu",
            inference_device=(
                "tpu" if inference_speedup >= self.margin else "cpu"
            ),
            encode_speedup=encode_speedup,
            inference_speedup=inference_speedup,
        )

    def best_inference_batch(self, workload: Workload,
                             config: HdcTrainingConfig | None = None,
                             latency_budget_s: float | None = None,
                             candidates: tuple = (1, 2, 4, 8, 16, 32, 64)
                             ) -> int:
        """Largest candidate batch whose per-*batch* latency fits budget.

        Batching amortizes the dispatch overhead (throughput goes up)
        but delays results (latency goes up); given a per-decision
        latency budget, pick the largest batch that still meets it.
        ``None`` budget returns the throughput-optimal (largest) batch.
        """
        config = config if config is not None else HdcTrainingConfig()
        if not candidates:
            raise ValueError("candidates must not be empty")
        tpu = self.cost_model.tpu
        layers = [
            (workload.num_features, config.dimension),
            (config.dimension, workload.num_classes),
        ]
        best = None
        for batch in sorted(candidates):
            batch_latency = tpu.invoke_seconds(layers, batch,
                                               tanh_after_first=True)
            if latency_budget_s is None or batch_latency <= latency_budget_s:
                best = batch
        if best is None:
            # Nothing fits: the smallest batch is the least-bad option.
            best = min(candidates)
        return best


def tpu_feature_crossover(dimension: int = 10_000,
                          num_samples: int = 10_000,
                          cost_model: CostModel | None = None,
                          low: int = 1, high: int = 2048) -> int:
    """Smallest feature count at which TPU encoding beats the CPU.

    Binary-searches the Fig. 10 curve (which is monotone in the feature
    count).  The paper's measured crossover is around 20 features; the
    answer tells a user whether their sensor payload is "a PAMAP2" or
    "an MNIST".

    Returns:
        The crossover feature count, or ``high`` if the TPU never wins
        below it.
    """
    cm = cost_model if cost_model is not None else CostModel()
    if low < 1 or high <= low:
        raise ValueError(f"need 1 <= low < high, got ({low}, {high})")
    if cm.encoding_speedup(num_samples, low, dimension) >= 1.0:
        return low
    lo, hi = low, high
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if cm.encoding_speedup(num_samples, mid, dimension) >= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------
# Fleet placement
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ModelPlacement:
    """One tenant's placement on the fleet.

    Attributes:
        tenant: Tenant name.
        group: The chosen :class:`~repro.config.BackendSpec` group name.
        backend: Backend family of the chosen group.
        bucket: Batch bucket the tenant's replica dispatches at.
        devices: Devices of the group assigned to this tenant.
        service_s: Modeled device service time of one ``bucket``-row
            invocation.
        latency_s: Modeled per-request latency bound (batch-fill wait
            at the tenant's rate plus one service time).
        cost_rate: Modeled cost-rate of the assignment
            (``device_cost_weight * devices * unit_cost +
            energy_weight * power_w``).
        power_w: Modeled steady-state power of the assigned devices at
            the tenant's offered load.
        deadline_s: The tenant's SLA the choice was made against.
        feasible: Whether ``latency_s <= deadline_s``; ``False`` means
            no (group, bucket) met the SLA and this is the
            latency-minimizing fallback.
        arch: The resolved device architecture.
        compiled: The per-architecture compiled variant the replica
            loads (excluded from equality — it carries ndarrays).
    """

    tenant: str
    group: str
    backend: str
    bucket: int
    devices: int
    service_s: float
    latency_s: float
    cost_rate: float
    power_w: float
    deadline_s: float
    feasible: bool
    arch: AcceleratorArch = field(compare=False)
    compiled: CompiledModel = field(compare=False, repr=False)

    def describe(self) -> dict:
        """Flat JSON-ready decision record (for ``deploy/2``)."""
        return {
            "tenant": self.tenant,
            "group": self.group,
            "backend": self.backend,
            "bucket": self.bucket,
            "devices": self.devices,
            "service_s": self.service_s,
            "latency_s": self.latency_s,
            "cost_rate": self.cost_rate,
            "power_w": self.power_w,
            "deadline_s": self.deadline_s,
            "feasible": self.feasible,
        }


@dataclass(frozen=True)
class FleetPlacement:
    """The optimizer's full answer: one decision per tenant.

    Attributes:
        fleet: The fleet the placement was computed for.
        decisions: Per-tenant :class:`ModelPlacement`, sorted by tenant
            name (canonical order, independent of input listing order).
    """

    fleet: FleetSpec
    decisions: tuple

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "decisions",
            tuple(sorted(self.decisions, key=lambda d: d.tenant)),
        )

    @property
    def total_cost_rate(self) -> float:
        """Sum of per-decision modeled cost-rates."""
        return sum(d.cost_rate for d in self.decisions)

    @property
    def total_devices(self) -> int:
        """Devices committed across all decisions."""
        return sum(d.devices for d in self.decisions)

    @property
    def feasible(self) -> bool:
        """True when every tenant's SLA is met by the model."""
        return all(d.feasible for d in self.decisions)

    def decision_for(self, tenant: str) -> ModelPlacement:
        """The decision for one tenant name."""
        for decision in self.decisions:
            if decision.tenant == tenant:
                return decision
        raise KeyError(f"no placement decision for tenant {tenant!r}")

    def describe(self) -> list:
        """JSON-ready decision records, in canonical order."""
        return [d.describe() for d in self.decisions]

    def summary(self) -> str:
        """Human-readable placement table."""
        lines = [
            f"fleet placement ({len(self.decisions)} tenants, "
            f"{self.total_devices} devices, "
            f"cost-rate {self.total_cost_rate:.3f}):"
        ]
        for d in self.decisions:
            flag = "" if d.feasible else "  [SLA MISS]"
            lines.append(
                f"  {d.tenant:<12} -> {d.group:<14} x{d.devices} "
                f"bucket={d.bucket:<3} p_lat={d.latency_s * 1e3:7.2f}ms "
                f"(SLA {d.deadline_s * 1e3:.1f}ms) "
                f"cost={d.cost_rate:.3f}{flag}"
            )
        return "\n".join(lines)


class PlacementOptimizer:
    """Chooses per-tenant backend, bucket and device share on a fleet.

    For every tenant and every (group, bucket) pair the optimizer
    models one replica dispatching ``bucket``-row batches:

    - ``service_s`` — the variant's ``invoke_seconds(bucket)`` on the
      group's architecture;
    - ``latency_s`` — ``(bucket - 1) / rate + service_s`` (worst-case
      batch-fill wait plus one service);
    - ``devices`` — enough that the offered load uses at most
      ``utilization_target`` of throughput:
      ``ceil(rate / (bucket / service_s * utilization_target))``;
    - ``power_w`` — idle power on every assigned device plus the
      busy-fraction share of (active - idle);
    - ``cost_rate`` — ``device_cost_weight * devices * unit_cost +
      energy_weight * power_w``.

    The cheapest feasible pair wins (ties break by latency, then group
    name, then bucket — fully deterministic); tenants claim capacity
    greedily in (rate desc, name) order.  When no pair meets the SLA
    within remaining capacity, the latency-minimizing pair is assigned
    and the decision is flagged infeasible.

    Args:
        fleet: The heterogeneous fleet.
        buckets: Candidate batch buckets (a power-of-two ladder by
            default).
    """

    def __init__(self, fleet: FleetSpec,
                 buckets: tuple = (1, 2, 4, 8, 16, 32)):
        if not isinstance(fleet, FleetSpec):
            raise TypeError(
                f"fleet must be a FleetSpec, got {type(fleet).__name__}"
            )
        if not buckets or any(b < 1 for b in buckets):
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        self.fleet = fleet
        self.buckets = tuple(sorted(set(int(b) for b in buckets)))

    def _options(self, compiled: CompiledModel, rate_hz: float,
                 deadline_s: float, groups, variants) -> list:
        """Every (group, bucket) assignment for one tenant, canonical
        order."""
        fleet = self.fleet
        options = []
        for spec in groups:
            arch = variants.arch(spec)
            variant = variants.variant(compiled, spec)
            for bucket in self.buckets:
                service_s = variant.invoke_seconds(bucket)
                latency_s = (bucket - 1) / rate_hz + service_s
                throughput = bucket / service_s
                devices = max(1, -(-rate_hz //
                                   (throughput * fleet.utilization_target)))
                devices = int(devices)
                busy = min(float(devices), rate_hz * service_s / bucket)
                power_w = (devices * arch.idle_power_w
                           + busy * (arch.active_power_w
                                     - arch.idle_power_w))
                cost_rate = (fleet.device_cost_weight * devices
                             * spec.unit_cost
                             + fleet.energy_weight * power_w)
                options.append({
                    "spec": spec, "arch": arch, "variant": variant,
                    "bucket": bucket, "devices": devices,
                    "service_s": service_s, "latency_s": latency_s,
                    "cost_rate": cost_rate, "power_w": power_w,
                    "feasible": latency_s <= deadline_s,
                })
        return options

    def place(self, compiled, tenants) -> FleetPlacement:
        """Place every tenant on the fleet.

        Args:
            compiled: The canonical :class:`CompiledModel` every tenant
                serves, or a ``{tenant_name: CompiledModel}`` mapping
                for per-tenant models.
            tenants: :class:`~repro.cluster.traffic.TenantSpec`-like
                objects (need ``name``, ``rate_hz``, ``deadline_s``).

        Raises:
            ValueError: On duplicate/empty tenants or when the fleet
                has no remaining device for some tenant.
        """
        tenants = list(tenants)
        if not tenants:
            raise ValueError("at least one tenant is required")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {sorted(names)}")
        if isinstance(compiled, dict):
            models = dict(compiled)
            missing = [n for n in names if n not in models]
            if missing:
                raise ValueError(
                    f"no model for tenants: {missing}"
                )
        else:
            models = {name: compiled for name in names}

        groups = self.fleet.groups()
        variants = _VariantCache()
        remaining = {spec.name: spec.count for spec in groups}
        decisions = []
        # Heaviest tenants claim capacity first; name breaks rate ties.
        for tenant in sorted(tenants, key=lambda t: (-t.rate_hz, t.name)):
            options = self._options(
                models[tenant.name], tenant.rate_hz, tenant.deadline_s,
                groups, variants,
            )
            fitting = [o for o in options
                       if o["devices"] <= remaining[o["spec"].name]]
            if not fitting:
                raise ValueError(
                    f"fleet capacity exhausted placing tenant "
                    f"{tenant.name!r} (remaining: {remaining})"
                )
            feasible = [o for o in fitting if o["feasible"]]
            pool = feasible if feasible else fitting
            if feasible:
                best = min(pool, key=lambda o: (
                    o["cost_rate"], o["latency_s"], o["spec"].name,
                    o["bucket"],
                ))
            else:
                best = min(pool, key=lambda o: (
                    o["latency_s"], o["cost_rate"], o["spec"].name,
                    o["bucket"],
                ))
            remaining[best["spec"].name] -= best["devices"]
            decisions.append(ModelPlacement(
                tenant=tenant.name,
                group=best["spec"].name,
                backend=best["spec"].backend,
                bucket=best["bucket"],
                devices=best["devices"],
                service_s=best["service_s"],
                latency_s=best["latency_s"],
                cost_rate=best["cost_rate"],
                power_w=best["power_w"],
                deadline_s=tenant.deadline_s,
                feasible=best["feasible"],
                arch=best["arch"],
                compiled=best["variant"],
            ))
        return FleetPlacement(fleet=self.fleet, decisions=tuple(decisions))


class _VariantCache:
    """Per-(model, group) compiled variants for one placement run."""

    def __init__(self) -> None:
        self._archs: dict[BackendSpec, AcceleratorArch] = {}
        self._variants: dict = {}

    def arch(self, spec: BackendSpec) -> AcceleratorArch:
        arch = self._archs.get(spec)
        if arch is None:
            arch = spec.make()
            self._archs[spec] = arch
        return arch

    def variant(self, compiled: CompiledModel,
                spec: BackendSpec) -> CompiledModel:
        arch = self.arch(spec)
        if compiled.arch == arch:
            return compiled
        key = (id(compiled), spec)
        entry = self._variants.get(key)
        if entry is None:
            entry = (compiled, compile_model(compiled.model, arch))
            self._variants[key] = entry
        return entry[1]

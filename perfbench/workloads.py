"""The benchmark's four workloads.

Each workload builds its inputs from one seed (``setup``), runs one
call through the public API (``run``, the timed region), and turns the
result into an :class:`Outcome` and a list of failed checks outside
the timed region.  The program sees only the generated inputs.

Modeled figures (virtual clock) are deterministic per seed; host
figures are measured by :mod:`run`.

``reference_scaled`` says whether a workload's throughput is scaled to
the reference speed (``run.reference_seconds``).  Training and the
cluster workloads spend most of their time in the interpreter and in
numpy, as the reference kernel does, so the host's drift moves them
alike: over ten runs their run medians correlated 0.7-0.8 with the
kernel's.  Serving spends its time in two-thread BLAS and the native
int8 kernel, which the single-core kernel does not track (scaled, its
spread over ten runs grew from 4% to 10%), so its throughput stays
unscaled.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

#: Rows per run compared byte-for-byte against the frozen oracle.  The
#: oracle's exact integer GEMM is slow at full width (~35 ms a row for
#: 617→10,000), so the full-width workloads check fewer rows.
ORACLE_ROWS = 512
ORACLE_ROWS_FULL_WIDTH = 64


@dataclass
class Outcome:
    """What one iteration produced, read outside the timed region.

    Attributes:
        work: Operations attempted (training samples or requests).
        refused: Requests refused by admission control.
        modeled: Virtual-clock figures; identical on every iteration and
            between traced and untraced runs of one seed.
        digest: Hash of the outputs (predictions, latencies), compared
            across iterations.
        failures: Names of checks this iteration failed.
        provenance: Which execution path ran.
    """

    work: int
    refused: int = 0
    modeled: dict = field(default_factory=dict)
    digest: str = ""
    failures: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)


def oracle_predictions(model, quantized: np.ndarray) -> np.ndarray:
    """Class predictions from the frozen seed oracle, op by op.

    Fully-connected ops run ``FullyConnectedOp.run_reference`` (exact
    integer arithmetic), tanh is its lookup table, anything else its
    own ``run``.
    """
    from repro.tflite.ops import FullyConnectedOp, TanhOp

    out = quantized
    for op in model.ops:
        if isinstance(op, FullyConnectedOp):
            out = op.run_reference(out)
        elif isinstance(op, TanhOp):
            out = op.lut[out.astype(np.int32) + 128]
        else:
            out = op.run(out)
    if model.output_is_index:
        return out[:, 0].astype(np.int64)
    return np.argmax(out, axis=-1).astype(np.int64)


def _digest(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16]


def _oracle_check(model, features: np.ndarray, served: np.ndarray,
                  label: str) -> list:
    """Byte-compare served predictions with the oracle's.  Features are
    quantized from float32, as the interpreter and the server do."""
    expected = oracle_predictions(
        model, model.input_spec.qparams.quantize(
            np.asarray(features, dtype=np.float32))
    )
    if expected.tobytes() != np.asarray(served, np.int64).tobytes():
        mismatched = int(np.count_nonzero(expected != served))
        return [f"{label}:oracle({mismatched}/{len(expected)} rows)"]
    return []


def _serving_modeled(requests: int, served: int, dropped: int,
                     misses: int, p99_s: float) -> dict:
    # Drops count as misses against *attempted* requests here; the
    # program's own deadline_miss_rate divides misses by served rows.
    return {
        "modeled_p99_ms": p99_s * 1e3,
        "deadline_miss_rate": (misses + dropped) / requests,
        "requests": requests,
        "served": served,
        "dropped": dropped,
    }


class TrainBagged:
    """The paper's bagged training run on the ISOLET surrogate."""

    name = "train-bagged"
    work_unit = "samples"
    reference_scaled = True
    accuracy_floor = 0.9

    def __init__(self, seed: int):
        import repro
        from repro.data import isolet
        from repro.hdc.bagging import BaggingConfig

        self.repro = repro
        data = isolet(seed=seed).normalized()
        self.train_x, self.train_y = data.train_x, data.train_y
        self.test_x, self.test_y = data.test_x, data.test_y
        self.num_classes = data.num_classes
        self.config = repro.PipelineConfig(bagging=BaggingConfig(),
                                           seed=seed)
        self.prepared = None
        self.inputs = {"train": list(self.train_x.shape),
                       "test": list(self.test_x.shape),
                       "classes": self.num_classes}

    def prepare(self):
        return None

    def run(self, prepared):
        result = self.repro.train(self.train_x, self.train_y,
                                  config=self.config,
                                  num_classes=self.num_classes)
        return result, result.summary()

    def outcome(self, ran, check: bool) -> Outcome:
        from repro.tflite import Interpreter

        result, summary = ran
        model = result.compiled.model
        predictions = Interpreter(model).predict(self.test_x)
        accuracy = float(np.mean(predictions == self.test_y))
        outcome = Outcome(
            work=len(self.train_x),
            modeled={"accuracy": accuracy,
                     "modeled_train_s": summary["total_s"]},
            # The "parallel" block holds measured task wall times.
            digest=_digest(predictions, json.dumps(
                {k: v for k, v in summary.items() if k != "parallel"},
                sort_keys=True).encode()),
            provenance={"submodels": summary["num_submodels"],
                        "workers": self.config.executor.workers},
        )
        if summary["num_submodels"] != self.config.bagging.num_models:
            outcome.failures.append("train:submodels")
        if not accuracy >= self.accuracy_floor:
            outcome.failures.append("train:accuracy_floor")
        if check:
            rows = np.random.default_rng(0).choice(
                len(self.test_x), ORACLE_ROWS_FULL_WIDTH, replace=False)
            outcome.failures += _oracle_check(
                model, self.test_x[rows], predictions[rows], "train")
        return outcome


class ServeFullWidth:
    """Open-loop Poisson traffic on the 617→10,000→26 int8 model."""

    name = "serve-fullwidth"
    work_unit = "requests"
    reference_scaled = False
    features = 617
    dimension = 10_000
    classes = 26
    requests = 4096
    rate_hz = 4000.0
    deadline_s = 0.010

    def __init__(self, seed: int):
        import repro
        from repro.edgetpu import compile_model
        from repro.serving.arrivals import ArrivalProcess, Request

        self.repro = repro
        rng = np.random.default_rng(seed)
        self.compiled = compile_model(self._model(rng))
        self.features_x = rng.uniform(
            -4, 4, (self.requests, self.features)).astype(np.float32)
        times = ArrivalProcess(self.rate_hz, seed=seed).times(self.requests)
        self.trace = [
            Request(request_id=index, arrival_s=float(at),
                    deadline_s=float(at) + self.deadline_s,
                    features=self.features_x[index])
            for index, at in enumerate(times)
        ]
        self.serve_config = repro.ServeConfig(max_batch=64, max_queue=4096)
        self.oracle_rows = rng.choice(self.requests,
                                      ORACLE_ROWS_FULL_WIDTH, replace=False)
        self.prepared = self.prepare()
        self.inputs = {"requests": self.requests,
                       "features": self.features,
                       "rate_hz": self.rate_hz,
                       "deadline_ms": self.deadline_s * 1e3}

    def _model(self, rng):
        from repro.tflite import FlatModel, TensorSpec
        from repro.tflite.ops import ArgmaxOp, FullyConnectedOp, TanhOp
        from repro.tflite.quantization import qparams_asymmetric

        in_qp = qparams_asymmetric(-4.0, 4.0)
        hid_qp = qparams_asymmetric(-55.0, 55.0)
        out_qp = qparams_asymmetric(-30.0, 30.0)
        encode = FullyConnectedOp.from_float(
            rng.standard_normal((self.features, self.dimension))
            .astype(np.float32), in_qp, hid_qp, name="encode",
        )
        tanh = TanhOp(hid_qp, name="tanh")
        classify = FullyConnectedOp.from_float(
            rng.standard_normal((self.dimension, self.classes))
            .astype(np.float32) * 0.02,
            tanh.output_qparams, out_qp, name="classify",
        )
        return FlatModel(
            "hdc-fullwidth", TensorSpec("input", (self.features,), in_qp),
            [encode, tanh, classify, ArgmaxOp(out_qp, name="argmax")],
        )

    def prepare(self):
        # A fresh single-device deployment per iteration, so device
        # counters start from zero every time.
        return self.repro.deploy(self.compiled)

    def run(self, deployment):
        report = self.repro.serve(deployment, self.trace,
                                  config=self.serve_config)
        return deployment, report, report.summary()

    def outcome(self, ran, check: bool) -> Outcome:
        deployment, report, _ = ran
        stats = deployment.pool.devices[0].stats
        # Classic dispatch charges the device exactly the served rows,
        # once per batch; a serving plan pads to buckets, the host
        # fallback skips the device.
        classic = (stats.invocations == report.num_batches
                   and stats.samples == report.served
                   and report.fallback_batches == 0)
        outcome = Outcome(
            work=report.num_requests,
            refused=report.dropped,
            modeled=_serving_modeled(
                report.num_requests, report.served, report.dropped,
                report.deadline_misses, report.latency.p99,
            ) | {"batches": report.num_batches},
            digest=_digest(report.predictions, report.latencies),
            provenance={"dispatch": "classic" if classic else "other"},
        )
        if not classic:
            outcome.failures.append("serve:dispatch_path")
        if report.served + report.dropped != report.num_requests:
            outcome.failures.append("serve:conservation")
        if check:
            rows = self.oracle_rows[report.predictions[self.oracle_rows]
                                    >= 0]
            outcome.failures += _oracle_check(
                self.compiled.model, self.features_x[rows],
                report.predictions[rows], "serve")
        return outcome


class _ClusterWorkload:
    """Shared set-up and checks of the two cluster workloads."""

    work_unit = "requests"
    reference_scaled = True
    num_features = 16
    num_classes = 3
    dimension = 256
    total_requests: int
    num_replicas: int
    tenants: tuple
    autoscaler = None
    full_deferral: bool

    def __init__(self, seed: int):
        import repro
        from repro.cluster import Cluster, ClusterConfig

        self.Cluster = Cluster
        self.compiled = self._train(seed)
        self.config = ClusterConfig(
            tenants=self.tenants, total_requests=self.total_requests,
            num_replicas=self.num_replicas, devices_per_replica=1,
            policy="round_robin",
            serve=repro.ServeConfig(max_batch=8, max_queue=50_000),
            seed=seed, autoscaler=self.autoscaler,
        )
        self.oracle_ids = np.sort(np.random.default_rng(seed).choice(
            self.total_requests, ORACLE_ROWS, replace=False))
        self.prepared = self.prepare()
        self.inputs = {"requests": self.total_requests,
                       "replicas": self.num_replicas,
                       "tenants": [[t.name, t.rate_hz, t.deadline_s]
                                   for t in self.tenants],
                       "model": [self.num_features, self.dimension,
                                 self.num_classes]}

    def _train(self, seed: int):
        from repro.data.streams import DriftingStream, StreamConfig
        from repro.edgetpu import compile_model
        from repro.hdc.encoder import NonlinearEncoder
        from repro.hdc.model import HDCClassifier
        from repro.nn import from_classifier
        from repro.tflite import convert

        stream = DriftingStream(
            StreamConfig(num_features=self.num_features,
                         num_classes=self.num_classes, drift_rate=0.0),
            seed=seed,
        )
        train_x, train_y = stream.next_batch(240)
        rng = np.random.default_rng(seed)
        encoder = NonlinearEncoder(self.num_features, self.dimension,
                                   seed=rng)
        classifier = HDCClassifier(dimension=self.dimension,
                                   encoder=encoder, seed=rng)
        classifier.fit(train_x, train_y, iterations=4,
                       num_classes=self.num_classes)
        return compile_model(
            convert(from_classifier(classifier, include_argmax=True),
                    train_x[:96])
        )

    def prepare(self):
        # A cluster runs once; each iteration gets a fresh one.
        return self.Cluster(self.compiled, self.config)

    def run(self, cluster):
        report = cluster.run()
        return cluster, report, report.summary()

    def outcome(self, ran, check: bool) -> Outcome:
        cluster, report, summary = ran
        # The pump is chosen at construction; the repo's own
        # profile-cluster tool reads the same attribute.
        fast = cluster._pump is not None
        deferred = {replica._defer.full for replica in cluster.replicas
                    if replica._defer is not None}
        outcome = Outcome(
            work=report.num_requests,
            refused=report.dropped,
            modeled=_serving_modeled(
                report.num_requests, report.served, report.dropped,
                report.deadline_misses, report.latency.p99,
            ) | {"scaling_events": len(report.scaling_events)},
            digest=_digest(*(r.predictions for r in report.replica_reports),
                           *(r.latencies for r in report.replica_reports)),
            provenance={"pump": "fast" if fast else "scalar",
                        "full_deferral": sorted(deferred)},
        )
        if not fast or deferred != {self.full_deferral}:
            outcome.failures.append("cluster:fast_path")
        actions = {event.action for event in report.scaling_events}
        if self.autoscaler is not None and not {
                "scale_up", "scale_down"} <= actions:
            outcome.failures.append("cluster:scaling")
        if report.num_requests != self.total_requests:
            outcome.failures.append("cluster:routed_total")
        if check:
            outcome.failures += self._check_tenants(summary)
            outcome.failures += self._check_oracle(report)
        return outcome

    def _check_tenants(self, summary) -> list:
        """Per tenant, served + dropped must equal the requests routed,
        counted independently from a regenerated trace."""
        from repro.cluster import MultiTenantTraffic

        routed = np.zeros(len(self.tenants), dtype=np.int64)
        traffic = MultiTenantTraffic(self.tenants, self.total_requests,
                                     seed=self.config.seed)
        for chunk in traffic.chunks():
            routed += np.bincount(chunk.tenants,
                                  minlength=len(self.tenants))
        failures = []
        for index, row in enumerate(summary["tenants"]):
            if row["served"] + row["dropped"] != routed[index]:
                failures.append(f"cluster:conservation[{row['name']}]")
        return failures

    def _check_oracle(self, report) -> list:
        """Predictions of sampled served rows against the oracle.

        Round-robin routing sends global request ``g`` to replica
        ``g % R`` as its local request ``g // R``.
        """
        from repro.cluster import MultiTenantTraffic

        ids = self.oracle_ids
        features = np.empty((len(ids), self.num_features), np.float32)
        traffic = MultiTenantTraffic(self.tenants, self.total_requests,
                                     seed=self.config.seed)
        for chunk in traffic.chunks():
            lo = np.searchsorted(ids, chunk.base_id)
            hi = np.searchsorted(ids, chunk.base_id + len(chunk))
            features[lo:hi] = chunk.features[ids[lo:hi] - chunk.base_id]
        replicas = len(report.replica_reports)
        served = np.array([
            report.replica_reports[g % replicas].predictions[g // replicas]
            for g in ids.tolist()
        ], dtype=np.int64)
        keep = served >= 0
        return _oracle_check(self.compiled.model, features[keep],
                             served[keep], "cluster")


class ClusterSweep(_ClusterWorkload):
    """The profile-cluster workload, cut to 100k requests so that
    several calls fit in one run: fully deferred."""

    name = "cluster-sweep"
    total_requests = 100_000
    num_replicas = 4
    full_deferral = True

    @property
    def tenants(self):
        from repro.cluster import TenantSpec
        return (
            TenantSpec("interactive", rate_hz=60000.0, deadline_s=0.01),
            TenantSpec("bursty", rate_hz=30000.0, deadline_s=0.05,
                       kind="bursty"),
            TenantSpec("background", rate_hz=15000.0, deadline_s=0.2),
        )


class ClusterSpike(_ClusterWorkload):
    """A 10x flash crowd on an autoscaled two-replica fleet.

    The flash crowd of ``benchmarks/test_cluster.py`` shortened to 100k
    requests (spike at 0.2 s for 0.3 s instead of 0.5 s for 1 s), so
    that several calls fit in one run while the fleet still scales up
    and back down.
    """

    name = "cluster-spike"
    total_requests = 100_000
    num_replicas = 2
    full_deferral = False

    @property
    def tenants(self):
        from repro.cluster import DiurnalCurve, TenantSpec
        return (
            TenantSpec("spiky", rate_hz=25000.0, deadline_s=0.01,
                       curve=DiurnalCurve(spike_at_s=0.2,
                                          spike_duration_s=0.3,
                                          spike_factor=10.0)),
            TenantSpec("steady", rate_hz=10000.0, deadline_s=0.05),
        )

    @property
    def autoscaler(self):
        from repro.cluster import AutoscalerConfig
        return AutoscalerConfig(
            interval_s=0.05, queue_high=1024, queue_low=64,
            miss_high=0.05, miss_low=0.01, up_streak=1, down_streak=4,
            cooldown_s=0.05, provision_s=0.1, max_devices=8,
        )


WORKLOADS = {cls.name: cls for cls in
             (TrainBagged, ServeFullWidth, ClusterSweep, ClusterSpike)}

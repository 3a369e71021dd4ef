"""Modeled results are pinned: the serving executor never moves them.

The server runs every batch at its exact row count, so the device is
charged exactly the rows it served, once per batch.  The ``summary()``
JSON of a small serve run and of a small fast-path cluster run must
hash to digests recorded before the serving executor was unified; any
change to a modeled second, a count or a prediction changes them.

The model is built from seeded random weights, not trained, so the
digests do not depend on the host's BLAS.
"""

import hashlib
import json

import numpy as np

from repro.cluster import Cluster, ClusterConfig, TenantSpec
from repro.config import ServeConfig
from repro.edgetpu import DevicePool, compile_model
from repro.serving import ArrivalProcess, InferenceServer
from repro.serving.arrivals import Request
from repro.tflite import FlatModel, TensorSpec
from repro.tflite.ops import ArgmaxOp, FullyConnectedOp, TanhOp
from repro.tflite.quantization import qparams_asymmetric

SERVE_DIGEST = "ea3789c631a985c4"
CLUSTER_DIGEST = "136a74e2561d4939"


def _model(seed: int = 3):
    rng = np.random.default_rng(seed)
    in_qp = qparams_asymmetric(-4.0, 4.0)
    hid_qp = qparams_asymmetric(-12.0, 12.0)
    out_qp = qparams_asymmetric(-8.0, 8.0)
    encode = FullyConnectedOp.from_float(
        rng.standard_normal((16, 256)).astype(np.float32), in_qp, hid_qp,
        name="encode",
    )
    tanh = TanhOp(hid_qp, name="tanh")
    classify = FullyConnectedOp.from_float(
        rng.standard_normal((256, 3)).astype(np.float32) * 0.1,
        tanh.output_qparams, out_qp, name="classify",
    )
    return compile_model(FlatModel(
        "pin", TensorSpec("input", (16,), in_qp),
        [encode, tanh, classify, ArgmaxOp(out_qp, name="argmax")],
    ))


def _digest(summary: dict) -> str:
    text = json.dumps(summary, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_serve_charges_exact_rows_and_summary_is_pinned():
    compiled = _model()
    rng = np.random.default_rng(5)
    features = rng.uniform(-4, 4, (600, 16)).astype(np.float32)
    times = ArrivalProcess(2000.0, seed=5).times(600)
    trace = [Request(request_id=i, arrival_s=float(t),
                     deadline_s=float(t) + 0.004, features=features[i])
             for i, t in enumerate(times)]
    pool = DevicePool(1)
    pool.load_replicated(compiled)
    report = InferenceServer(pool, config=ServeConfig()).serve(trace)

    stats = pool.devices[0].stats
    assert report.fallback_batches == 0
    assert stats.samples == report.served
    assert stats.invocations == report.num_batches
    assert _digest(report.summary()) == SERVE_DIGEST


def test_fast_cluster_summary_is_pinned():
    # Tight deadlines close batches of every size from 1 to 8, with
    # some misses, so a change in the rows charged per batch shows.
    tenants = (
        TenantSpec("interactive", rate_hz=3000.0, deadline_s=0.002),
        TenantSpec("bursty", rate_hz=1500.0, deadline_s=0.006,
                   kind="bursty"),
    )
    config = ClusterConfig(tenants=tenants, total_requests=6000,
                           num_replicas=2,
                           serve=ServeConfig(max_batch=8, max_queue=5000),
                           seed=3)
    cluster = Cluster(_model(), config)
    report = cluster.run()
    assert cluster._pump is not None
    assert _digest(report.summary()) == CLUSTER_DIGEST

"""Serving through the arena plan: kernels never change results."""

import numpy as np

from repro import native
from repro.compression.tiers import TierSpec, build_tiers, compiled_predict
from repro.config import ServeConfig, TierPolicy
from repro.edgetpu import DevicePool, FailurePlan
from repro.hdc.bagging import BaggingConfig, BaggingHDCTrainer
from repro.serving import InferenceServer, ModelSwapper
from tests.serving.conftest import train_compiled

CONFIG = ServeConfig(max_batch=16, slack_s=0.001)


def _serve(compiled, trace, config, num_devices=2, **kwargs):
    pool = DevicePool(num_devices)
    pool.load_replicated(compiled)
    server = InferenceServer(pool, config=config, **kwargs)
    return server.serve(trace)


def _reference(compiled, trace):
    """Per-request predictions of the frozen oracle chain."""
    x = np.stack([r.features for r in trace])
    out = compiled.model.input_spec.qparams.quantize(
        np.asarray(x, np.float32))
    for op in compiled.model.ops:
        out = op.run_reference(out) if hasattr(op, "run_reference") \
            else op.run(out)
    if compiled.model.output_is_index:
        return out[:, 0].astype(np.int64)
    return np.argmax(out, axis=-1).astype(np.int64)


class TestPlanEquivalence:
    def test_predictions_match_reference(self, serving_setup):
        """Every served prediction is the frozen oracle's, and the
        device is charged exactly the served rows."""
        _, compiled, trace = serving_setup
        pool = DevicePool(2)
        pool.load_replicated(compiled)
        report = InferenceServer(pool, config=CONFIG).serve(trace)
        served = report.predictions >= 0
        assert served.any()
        np.testing.assert_array_equal(
            report.predictions[served], _reference(compiled, trace)[served]
        )
        assert sum(d.stats.samples for d in pool.devices) == report.served
        assert sum(d.stats.invocations for d in pool.devices) \
            == report.num_batches

    def test_traced_equals_untraced(self, serving_setup):
        _, compiled, trace = serving_setup
        traced_cfg = ServeConfig(max_batch=16, slack_s=0.001, tracing=True)
        plain = _serve(compiled, trace, CONFIG)
        traced = _serve(compiled, trace, traced_cfg)
        np.testing.assert_array_equal(traced.predictions, plain.predictions)
        np.testing.assert_array_equal(traced.latencies, plain.latencies)
        assert traced.makespan_s == plain.makespan_s
        assert traced.trace is not None

    def test_numpy_fallback_plan_equals_native(self, serving_setup,
                                               monkeypatch):
        _, compiled, trace = serving_setup
        a = _serve(compiled, trace, CONFIG)
        monkeypatch.setattr(native, "available", lambda: False)
        b = _serve(compiled, trace, CONFIG)
        np.testing.assert_array_equal(a.predictions, b.predictions)
        # Kernel choice changes wall time only; the virtual clock and
        # every modeled number match exactly.
        assert a.summary() == b.summary()


class TestPlanFaultPaths:
    def test_cpu_fallback_through_arenas(self, serving_setup):
        _, compiled, trace = serving_setup
        pool = DevicePool(1)
        pool.load_replicated(compiled)
        pool.schedule_failure(FailurePlan(0, at_s=0.2, mode="device_loss"))
        report = InferenceServer(pool, config=CONFIG).serve(trace)
        assert report.fallback_batches > 0
        served = report.predictions >= 0
        np.testing.assert_array_equal(
            report.predictions[served], _reference(compiled, trace)[served]
        )

    def test_hot_swap_recompiles_primary_plan(self, serving_setup):
        stream, compiled, trace = serving_setup
        x, y = stream.test_set(200)
        replacement = train_compiled(x, y, seed=17)
        pool = DevicePool(2)
        pool.load_replicated(compiled)
        swapper = ModelSwapper(pool)
        swapper.schedule(replacement, at_s=0.1)
        server = InferenceServer(pool, config=CONFIG, swapper=swapper)
        report = server.serve(trace)
        assert swapper.swaps_committed == 1
        # Each request carries the prediction of the model serving it:
        # the old one up to the commit, the replacement after.
        old = _reference(compiled, trace)
        new = _reference(replacement, trace)
        preds = report.predictions
        assert np.all((preds == old) | (preds == new))
        committed = swapper.records[0].committed_s
        after = np.array([r.arrival_s >= committed for r in trace])
        differ = after & (old != new)
        assert differ.any()
        np.testing.assert_array_equal(preds[differ], new[differ])

    def test_tier_shedding_through_arenas(self, serving_setup, monkeypatch):
        stream, _, trace = serving_setup
        x, y = stream.next_batch(300)
        trainer = BaggingHDCTrainer(
            BaggingConfig(num_models=2, dimension=1024, iterations=3),
            seed=7,
        )
        trainer.fit(x, y)
        ladder = build_tiers(
            trainer.fuse(), x[:96],
            specs=(TierSpec("full"),
                   TierSpec("compressed", "dpq", dimension=256)),
        )
        # A tight headroom makes the policy shed some batches to the
        # compressed tier.
        policy = TierPolicy(queue_high=4, headroom_s=0.039)
        config = ServeConfig(max_batch=16, slack_s=0.001, tiers=policy)

        def run():
            pool = DevicePool(1, ladder[0].compiled.arch)
            pool.load_replicated(ladder[0].compiled)
            server = InferenceServer(pool, config=config, tiers=ladder)
            return server.serve(trace)

        # Native vs numpy arenas must agree on everything, a rerun must
        # be deterministic, and every tier's rows are its oracle's.
        planned = run()
        again = run()
        monkeypatch.setattr(native, "available", lambda: False)
        numpy_planned = run()
        np.testing.assert_array_equal(planned.predictions,
                                      numpy_planned.predictions)
        assert planned.summary() == numpy_planned.summary()
        assert planned.summary() == again.summary()
        assert planned.tier_sheds > 0
        features = np.stack([r.features for r in trace])
        for index, tier in enumerate(ladder):
            rows = planned.request_tiers == index
            if rows.any():
                np.testing.assert_array_equal(
                    planned.predictions[rows],
                    compiled_predict(tier.compiled, features[rows]),
                )

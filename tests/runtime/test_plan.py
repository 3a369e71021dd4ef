"""Arena-backed execution plans: exact row counts, zero allocations."""

import tracemalloc

import numpy as np
import pytest

from repro import native
from repro.compression import tiers as tiers_module
from repro.compression.tiers import TierSpec, build_tiers, compiled_predict
from repro.edgetpu import EdgeTpuDevice, compile_model
from repro.hdc.bagging import BaggingConfig, BaggingHDCTrainer
from repro.hdc.model import HDCClassifier
from repro.nn import from_classifier
from repro.runtime.plan import ModelPlan, ServingPlan
from repro.tflite import convert
from repro.tflite.interpreter import Interpreter


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(240, 16)).astype(np.float32)
    y = rng.integers(0, 4, size=240)
    return x, y


@pytest.fixture(scope="module")
def tier_set(data):
    x, y = data
    trainer = BaggingHDCTrainer(
        BaggingConfig(num_models=2, dimension=512, iterations=3), seed=7,
    )
    trainer.fit(x, y)
    specs = (TierSpec("full"),
             TierSpec("compressed", "dpq", dimension=128))
    return build_tiers(trainer.fuse(), x[:96], specs=specs)


@pytest.fixture(scope="module")
def compiled(tier_set):
    return tier_set[0].compiled


def fresh_compiled(x, y, seed=9):
    clf = HDCClassifier(dimension=512, seed=seed)
    clf.fit(x, y, iterations=3)
    return compile_model(
        convert(from_classifier(clf, include_argmax=True), x[:96])
    )


def reference_predictions(compiled, x):
    """The frozen oracle path: reference ops, op by op."""
    out = compiled.model.input_spec.qparams.quantize(np.asarray(x, np.float32))
    for op in compiled.model.ops:
        out = op.run_reference(out) if hasattr(op, "run_reference") \
            else op.run(out)
    if compiled.model.output_is_index:
        return out[:, 0].astype(np.int64)
    return np.argmax(out, axis=-1).astype(np.int64)


@pytest.fixture
def kernels(monkeypatch):
    """``kernels(False)`` hides the native VNNI kernels from plans built
    afterwards, so they take the numpy arena path (the only path on
    CPUs without VNNI)."""
    def choose(allow_native: bool) -> None:
        if not allow_native:
            monkeypatch.setattr(native, "available", lambda: False)
    return choose


class TestModelPlan:
    @pytest.mark.parametrize("allow_native", [True, False])
    def test_bit_identical_to_reference(self, compiled, data, allow_native,
                                        kernels):
        x, _ = data
        kernels(allow_native)
        plan = ModelPlan(compiled, 32)
        for n in (1, 3, 17, 32):
            np.testing.assert_array_equal(
                np.array(plan.predict(x[:n])),
                reference_predictions(compiled, x[:n]),
            )

    def test_native_flag_matches_module(self, compiled, kernels):
        plan = ModelPlan(compiled, 8)
        assert plan.native == native.available()
        kernels(False)
        assert ModelPlan(compiled, 8).native is False

    def test_runs_exact_row_counts(self, compiled, data):
        # A 3-row batch runs as 3 rows: no padding rows, at any count.
        x, _ = data
        plan = ModelPlan(compiled, 8)
        assert plan.stage(x[:3]).shape == (3, plan.in_dim)
        assert plan.predict(x[:3]).shape == (3,)

    def test_executor_through_device_invoke(self, compiled, data):
        x, _ = data
        plan = ModelPlan(compiled, 16)
        device = EdgeTpuDevice(arch=compiled.arch)
        device.load_model(compiled)
        q = plan.stage(x[:16])
        plain = device.invoke(q.copy())
        arena = device.invoke(q, executor=plan.executor_for(16))
        np.testing.assert_array_equal(plain.outputs, arena.outputs)
        assert arena.elapsed_s == plain.elapsed_s

    def test_predict_returns_view(self, compiled, data):
        x, _ = data
        plan = ModelPlan(compiled, 8)
        first = plan.predict(x[:4])
        kept = np.array(first)
        second = plan.predict(x[4:8])
        # Same buffer, new contents: callers must copy to persist.
        assert first.base is second.base
        np.testing.assert_array_equal(
            np.array(second), reference_predictions(compiled, x[4:8])
        )
        assert not np.array_equal(kept, np.array(second))

    def test_oversized_batch_rejected(self, compiled, data):
        x, _ = data
        plan = ModelPlan(compiled, 8)
        with pytest.raises(ValueError, match="exceeds"):
            plan.predict(x[:9])
        with pytest.raises(ValueError, match="max_rows"):
            ModelPlan(compiled, 0)

    def test_matches_interpreter(self, compiled, data):
        x, _ = data
        interp = Interpreter(compiled.model)
        plan = ModelPlan(compiled, 16)
        for n in (1, 5, 16):
            np.testing.assert_array_equal(
                np.array(plan.predict(x[:n])), interp.predict(x[:n])
            )


class TestZeroAllocation:
    """Warm invokes allocate nothing (tracemalloc): each row count is
    bound on first use, then reused."""

    def _steady_state_peak(self, plan, x, repeats=20):
        plan.predict(x)  # warm every lazy path (row count, operands)
        plan.predict(x)
        tracemalloc.start()
        try:
            plan.predict(x)
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(repeats):
                out = plan.predict(x)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out is not None
        return max(peak - baseline, current - baseline)

    @pytest.mark.parametrize("allow_native", [True, False])
    def test_full_width_plan_is_allocation_free(self, compiled, data,
                                                allow_native, kernels):
        x, _ = data
        kernels(allow_native)
        plan = ModelPlan(compiled, 32)
        # Any real regression re-allocates a per-stage array: the f64
        # codes buffer alone is 32 * 512 * 8 = 128 KiB per invoke.
        # Transient Python objects (slice views, closures) stay well
        # under this.
        assert self._steady_state_peak(plan, x[:32]) < 8 * 1024

    def test_compressed_tier_plan_is_allocation_free(self, tier_set, data):
        x, _ = data
        degraded = tier_set[1].compiled
        plan = ModelPlan(degraded, 32)
        assert self._steady_state_peak(plan, x[:32]) < 8 * 1024
        np.testing.assert_array_equal(
            np.array(plan.predict(x[:32])),
            reference_predictions(degraded, x[:32]),
        )

    def test_mixed_bucket_steady_state(self, compiled, data):
        # Alternating row counts stays allocation-free too: once each
        # count has run, its views and closures are reused.
        x, _ = data
        plan = ModelPlan(compiled, 32)
        for n in (32, 7, 1, 16):
            plan.predict(x[:n])
        tracemalloc.start()
        try:
            for n in (32, 7, 1, 16):
                plan.predict(x[:n])
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(10):
                for n in (32, 7, 1, 16):
                    plan.predict(x[:n])
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(peak - baseline, current - baseline) < 8 * 1024


class TestServingPlan:
    def test_plan_for_identity(self, compiled, tier_set):
        degraded = tier_set[1].compiled
        plan = ServingPlan([compiled, degraded], max_rows=8)
        assert plan.plan_for(compiled) is plan.plans[0]
        assert plan.plan_for(degraded) is plan.plans[1]
        assert plan.plan_for(object()) is None

    def test_replace_primary_rebuilds_tier0_only(self, compiled, tier_set,
                                                 data):
        x, _ = data
        degraded = tier_set[1].compiled
        plan = ServingPlan([compiled, degraded], max_rows=8)
        old_degraded_plan = plan.plans[1]
        swapped = fresh_compiled(x, data[1])
        new_plan = plan.replace_primary(swapped)
        assert plan.plans[0] is new_plan
        assert plan.plans[1] is old_degraded_plan
        assert plan.plan_for(compiled) is None
        np.testing.assert_array_equal(
            np.array(new_plan.predict(x[:8])),
            reference_predictions(swapped, x[:8]),
        )

    def test_empty_tiers_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ServingPlan([], max_rows=8)


class TestCompiledPredictPlanRouting:
    """``compiled_predict`` runs through a ModelPlan, sliced when the
    batch outgrows one arena."""

    def test_model_plan_route(self, compiled, data, monkeypatch):
        x, _ = data
        expected = reference_predictions(compiled, x)
        np.testing.assert_array_equal(compiled_predict(compiled, x),
                                      expected)
        monkeypatch.setattr(tiers_module, "_PREDICT_SLICE", 7)
        np.testing.assert_array_equal(compiled_predict(compiled, x),
                                      expected)

    def test_serving_plan_route_and_fallback(self, tier_set, data):
        # Every tier, the degraded ones included, predicts bit-identically
        # to the frozen oracle; an empty batch yields no predictions.
        x, _ = data
        for tier in tier_set:
            np.testing.assert_array_equal(
                compiled_predict(tier.compiled, x),
                reference_predictions(tier.compiled, x),
            )
        assert compiled_predict(tier_set[0].compiled, x[:0]).shape == (0,)

"""The co-design runtime: pipelines, executors and phase-cost models.

Three layers:

- :mod:`repro.runtime.pipeline` — *functional* orchestration of the
  paper's Fig. 1 / Fig. 3 flows on materialized data: encode on the
  simulated Edge TPU, update class hypervectors on the host, fuse and
  deploy the inference model.  Used by the examples and accuracy
  experiments.
- :mod:`repro.runtime.executor` — the *parallel* execution layer:
  seed-spawned worker pools that train bagging sub-models concurrently
  (bit-identical to sequential training), and the micro-batched
  multi-device inference dispatcher.
- :mod:`repro.runtime.costs` — *analytic* phase models over dataset
  shapes (Table I), producing the modeled runtimes behind the paper's
  Fig. 5/6/10 and Table II.  These never materialize data, so they run
  at full paper scale instantly.

Exports resolve lazily (PEP 562) so that leaf modules — notably
:mod:`repro.runtime.executor`, which :mod:`repro.hdc.bagging` imports —
can be loaded without dragging in the whole pipeline stack (and without
creating an import cycle through it).
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "CompileCache": "repro.runtime.pipeline",
    "ContinualLearner": "repro.runtime.continual",
    "ContinualResult": "repro.runtime.continual",
    "CostModel": "repro.runtime.costs",
    "DispatchResult": "repro.runtime.executor",
    "ExecutorConfig": "repro.runtime.executor",
    "HdcTrainingConfig": "repro.runtime.costs",
    "InferencePipeline": "repro.runtime.pipeline",
    "InferenceResult": "repro.runtime.pipeline",
    "LatencyTracker": "repro.runtime.profiler",
    "LruCache": "repro.runtime.cache",
    "MicroBatchDispatcher": "repro.runtime.executor",
    "ModelPlan": "repro.runtime.plan",
    "ParallelReport": "repro.runtime.executor",
    "PhaseBreakdown": "repro.runtime.costs",
    "PhaseProfiler": "repro.runtime.profiler",
    "PipelineResult": "repro.runtime.pipeline",
    "PlacementAdvisor": "repro.runtime.placement",
    "PlacementDecision": "repro.runtime.placement",
    "ServingPlan": "repro.runtime.plan",
    "SharedArray": "repro.runtime.executor",
    "TrainingPipeline": "repro.runtime.pipeline",
    "WorkerPool": "repro.runtime.executor",
    "Workload": "repro.runtime.costs",
    "format_seconds": "repro.runtime.profiler",
    "resolve_shared": "repro.runtime.executor",
    "simulate_makespan": "repro.runtime.executor",
    "spawn_rngs": "repro.runtime.executor",
    "tpu_feature_crossover": "repro.runtime.placement",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

"""Metric definitions, output checks across calls, and printing.

The final line of standard output is the machine-readable result; the
lines before it are for people: the host fingerprint, the workload's
input sizes, which execution path ran, every check, and the metric
tables with units and clocks.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

#: The result line's metrics, with their units, are the ones
#: ``BENCHMARK.json`` lists: ``end_to_end`` for untraced runs,
#: ``per_layer`` for traced ones.
SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: The reference kernel's (``run.reference_seconds``) median time on
#: the host the benchmark was tuned on.  On the workloads that are
#: ``reference_scaled`` the result line's throughput is scaled by the
#: run's median reference time against it.
REFERENCE_S = 0.45

#: The per-workload metric table printed for people: name, unit,
#: clock, and the workloads it applies to (None: all).
TABLE = (
    ("setup_s", "s", "host", None),
    ("samples_per_s", "training samples/s", "host", ("train-bagged",)),
    ("requests_per_s", "simulated requests/s", "host",
     ("serve-fullwidth", "cluster-sweep", "cluster-spike")),
    ("peak_rss_mb", "MiB", "host", None),
    ("failed_share", "fraction of attempted", "host", None),
    ("accuracy", "fraction", "modeled", ("train-bagged",)),
    ("modeled_train_s", "s", "modeled", ("train-bagged",)),
    ("modeled_p99_ms", "ms", "modeled",
     ("serve-fullwidth", "cluster-sweep", "cluster-spike")),
    ("deadline_miss_rate", "fraction of attempted", "modeled",
     ("serve-fullwidth", "cluster-sweep", "cluster-spike")),
)


def result_metrics(kind: str, values: dict) -> dict:
    """The result line's metrics of one kind, named and ordered as
    ``BENCHMARK.json`` lists them; the measured names must match."""
    listed = {entry["name"]: entry["unit"] for entry in SPEC[kind]}
    if set(listed) != set(values):
        raise SystemExit(
            f"perfbench: measured {kind} metrics differ from BENCHMARK.json:"
            f" missing {sorted(set(listed) - set(values))},"
            f" unlisted {sorted(set(values) - set(listed))}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in listed.items()}


def quartiles(values) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4) and count."""
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def cross_check(results) -> None:
    """Every call must reproduce the cold call's modeled results and
    outputs bit for bit; traced ones prove traced ≡ untraced."""
    reference = results[0][3]
    for kind, _, _, outcome in results[1:]:
        if (outcome.modeled != reference.modeled
                or outcome.digest != reference.digest):
            outcome.failures.append("traced_equals_untraced"
                                    if kind == "traced" else
                                    "deterministic")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _spread(values) -> tuple:
    spread = quartiles(values)
    return spread["median"], (
        f"median of {spread['n']} (q1 {spread['q1']:.6g},"
        f" q3 {spread['q3']:.6g})")


def emit(args, workload, host, setups, references, results,
         tracer) -> None:
    """Print everything for one run, the result line last.

    On a workload whose throughput is scaled to the reference speed
    (``references`` given), the result line's ``ops_per_s`` is the warm
    throughput times the run's median reference time over
    ``REFERENCE_S``; elsewhere it is as measured.
    """
    cross_check(results)
    outcomes = [outcome for _, _, _, outcome in results]
    attempted = sum(outcome.work for outcome in outcomes)
    failed = sum(outcome.work if outcome.failures else outcome.refused
                 for outcome in outcomes)
    failures = sorted({name for outcome in outcomes
                       for name in outcome.failures})
    first = outcomes[0]
    untraced = [(took, peak, outcome) for kind, took, peak, outcome
                in results if kind == "untraced"]
    rate, rate_spread = _spread(
        [outcome.work / took for took, _, outcome in untraced])
    peak = max(peak for _, peak, _ in untraced)

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}"
          f" seconds={args.seconds:g}")
    print("host " + json.dumps(host, sort_keys=True))
    print("inputs " + json.dumps(workload.inputs))
    print("provenance " + json.dumps(
        first.provenance | {"native_kernels": host["native_kernels"]},
        sort_keys=True))
    print("modeled " + json.dumps(first.modeled, sort_keys=True))
    print("checks " + ("all passed" if not failures
                       else "FAILED " + ", ".join(failures)))
    print(f"cold call {results[0][1]:.6g} s (not in any host metric)")

    modeled = first.modeled
    values = {
        "failed_share": (failed / attempted, ""),
        f"{workload.work_unit}_per_s": (rate, rate_spread + ", warm"),
    }
    if setups:
        values["setup_s"] = _spread(setups)
    if not args.trace:
        values["peak_rss_mb"] = (peak, "max over warm calls")
    for name in ("accuracy", "modeled_train_s", "modeled_p99_ms",
                 "deadline_miss_rate"):
        if name in modeled:
            values[name] = (modeled[name], "")
    print(f"{'metric':<20} {'value':>14}  {'unit':<22} {'clock':<8} spread")
    for name, unit, clock, applies in TABLE:
        if applies is not None and workload.name not in applies:
            continue
        value, spread = values.get(name, ("-", "not measured in a "
                                          "traced run"))
        print(f"{name:<20} {_fmt(value):>14}  {unit:<22} {clock:<8} "
              f"{spread}")

    if tracer is None:
        slowdown = 1.0
        if references:
            reference, reference_spread = _spread(references)
            slowdown = reference / REFERENCE_S
            print(f"reference kernel {reference:.6g} s"
                  f" ({reference_spread}); host at {1 / slowdown:.4g}x"
                  f" the reference speed ({REFERENCE_S:g} s)")
        metrics = result_metrics("end_to_end", {
            "ops_per_s": rate * slowdown,
            "setup_s": values["setup_s"][0],
            "peak_rss_mb": peak,
        })
        for name, metric in metrics.items():
            print(f"{name:<20} {_fmt(metric['value']):>14}  "
                  f"{metric['unit']}")
    else:
        layers = tracer.layer_metrics()
        # Each round after the cold call is one traced and one untraced
        # call made back to back; their ratio cancels slow host drift.
        rounds = [dict((kind, took) for kind, took, _, _ in pair)
                  for pair in zip(results[1::2], results[2::2])]
        layers["trace.overhead"] = statistics.median(
            pair["traced"] / pair["untraced"] for pair in rounds) - 1.0
        if tracer.missing:
            print("layers not found: " + ", ".join(tracer.missing))
        metrics = result_metrics("per_layer", layers)
        print(f"{'layer metric':<36} {'value':>14}  unit")
        for name, metric in metrics.items():
            print(f"{name:<36} {_fmt(metric['value']):>14}  "
                  f"{metric['unit']}")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))

"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload cluster-sweep --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time (median of
fresh-process set-ups), operations per host second (median over the
warm calls that fit in ``--seconds``, at least five; scaled, except on
``serve-fullwidth``, to the speed at which the host runs a fixed
reference kernel) and the peak resident memory of those calls; the
modeled results are printed beside them.  ``--trace 1`` alternates traced and untraced calls and reports
per-layer call counts and self times, measured by wrapping the
program's public calls from outside (:mod:`tracer`).  Both modes check
the outputs: served predictions against the frozen integer oracle,
request conservation, the expected execution path, and bit-identical
modeled results across calls and between traced and untraced calls.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

#: Seeds used when ``--seed`` is omitted.
DEFAULT_SEEDS = {"train-bagged": 1, "serve-fullwidth": 1,
                 "cluster-sweep": 7, "cluster-spike": 11}

#: Fresh-process set-ups per ``--trace 0`` run, taken two after each
#: timed round so that they sample the whole run; set-up time is their
#: median.
SETUP_SAMPLES = 10
SETUPS_PER_ROUND = 2

#: Timed rounds per run, at least, whatever ``--seconds`` allows.
MIN_ROUNDS = 5

#: Subprocess time limits (seconds): the first build compiles the
#: optional native kernels; a set-up is a few seconds.
BUILD_TIMEOUT = 600
SETUP_TIMEOUT = 120

BUILD_SNIPPET = (
    "import repro.api, repro.cluster, repro.cluster.fastpath, "
    "repro.native as native; native.available()"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    return args


def configure_environment() -> dict:
    """Pin thread pools and keep every artifact inside the checkout.

    Training runs with one worker in-process, so the BLAS pool may use
    every CPU this process is allowed on.  Must run before numpy is
    imported.
    """
    threads = str(len(os.sched_getaffinity(0)))
    settings = {
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
        "REPRO_NATIVE_CACHE": str(OUT / "native"),
        "PYTHONPATH": str(SRC),
    }
    os.environ.update(settings)
    return settings


def run_child(arguments, timeout: float) -> str:
    """Run this interpreter on ``arguments`` from the checkout root and
    return its standard output; raises if it fails."""
    done = subprocess.run(
        [sys.executable, *arguments], cwd=ROOT, capture_output=True,
        text=True, timeout=timeout,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{arguments[:2]} exited {done.returncode}:\n{done.stderr}"
        )
    return done.stdout


def build() -> None:
    """Byte-compile the sources and build the optional native kernels
    before anything is timed."""
    run_child(["-m", "compileall", "-q", str(SRC), str(HERE)],
              BUILD_TIMEOUT)
    run_child(["-c", BUILD_SNIPPET], BUILD_TIMEOUT)


def reference_seconds() -> float:
    """Seconds one pass of a fixed kernel takes on this host now.

    The kernel uses one core the way the training and cluster
    workloads mostly do: an interpreter loop over a dict and numpy
    sorts of 8 MB.  It is the
    benchmark's own code, so a change to the program never changes it,
    while the shared host's speed, which wanders by up to 1.5x over
    minutes, moves it along with those workloads.  Scaling their
    throughput by the run's median reference time (against
    ``report.REFERENCE_S``) takes most of that drift out of it.
    """
    import numpy as np

    # Made afresh and dropped after each pass, so that it never counts
    # in the workload's resident memory.
    vector = np.random.default_rng(0).standard_normal(1 << 20)
    began = time.perf_counter()
    counts = {}
    for index in range(600_000):
        key = index % 977
        counts[key] = counts.get(key, 0) + index
    for _ in range(25):
        np.sort(vector)
    return time.perf_counter() - began


def between_rounds(args, samples: list, references: list | None):
    """A function of ``last`` that appends the set-up seconds of fresh
    processes (imports through the first prepared call, each measured
    inside the child) to ``samples``: :data:`SETUPS_PER_ROUND` a round,
    and after the last round as many as are still missing.  Each round
    also appends one :func:`reference_seconds` to ``references`` if
    ``references`` is not ``None``."""
    def take(last: bool) -> None:
        if references is not None:
            references.append(reference_seconds())
        missing = SETUP_SAMPLES - len(samples)
        for _ in range(missing if last else min(SETUPS_PER_ROUND,
                                                missing)):
            out = run_child([str(Path(__file__)), "--workload",
                             args.workload, "--seed", str(args.seed),
                             "--setup-only"], SETUP_TIMEOUT)
            samples.append(
                json.loads(out.strip().splitlines()[-1])["setup_s"])
    return take


def fingerprint(threads: dict) -> dict:
    """Where these numbers come from; never compare across hosts."""
    import numpy as np

    from repro import native

    cpu, flags = "unknown", set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and cpu == "unknown":
                cpu = value.strip()
            elif key.strip() == "flags" and not flags:
                flags = set(value.split())
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        git_sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest()[:16],
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "vnni": "avx512_vnni" in flags,
        "native_kernels": native.available(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {key: value for key, value in threads.items()
                    if key.endswith("THREADS")},
        "training_workers": 1,
    }


def measure(workload, seconds: float, tracer=None, between=None) -> list:
    """Run one cold call, then rounds of timed calls until ``seconds``
    of measuring is spent, at least :data:`MIN_ROUNDS` of them.

    The cold call pays one-off costs (memo tables, first-touch memory)
    and is kept out of every host metric, so each metric is a median
    of warm calls whatever the host's speed.  A round is one untraced
    call, or with a tracer one traced and one untraced call, which of
    them goes first alternating from round to round so that a drifting
    host speed favours neither.  The output checks run once, on the
    last call, after its memory peak is read.  ``between(last)``, if
    given, runs after every round, outside the measuring clock.

    Returns ``[(kind, host_seconds, peak_rss_mb, outcome), ...]`` with
    ``kind`` one of ``cold``, ``traced`` and ``untraced``; the peak is
    ``None`` for traced calls.
    """
    results = [run_once(workload, "cold", None, workload.prepared,
                        last=False)]
    workload.prepared = None
    kinds = ("untraced",) if tracer is None else ("traced", "untraced")
    start = time.perf_counter()
    rounds = 0
    while True:
        spent = time.perf_counter() - start
        per_round = spent / rounds if rounds else 0.0
        rounds += 1
        # The last round is the one after which another would overrun.
        last = rounds >= MIN_ROUNDS and spent + 2 * per_round > seconds
        for kind in kinds if rounds % 2 else reversed(kinds):
            if kind == "traced":
                # Traced calls need objects built with the wrappers in.
                tracer.install()
                try:
                    results.append(run_once(workload, kind, tracer,
                                            workload.prepare(), last))
                finally:
                    tracer.uninstall()
            else:
                results.append(run_once(workload, kind, None,
                                        workload.prepare(), last))
        if between is not None:
            paused = time.perf_counter()
            between(last)
            start += time.perf_counter() - paused
        if last:
            return results


def reset_peak_rss() -> None:
    """Reset the process's resident-memory high-water mark to its
    current resident size."""
    Path("/proc/self/clear_refs").write_text("5")


def peak_rss_mb() -> float:
    """The process's resident-memory high-water mark in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_once(workload, kind: str, tracer, prepared, last: bool) -> tuple:
    """One timed call; the last one also runs the output checks, after
    its memory peak is read."""
    import gc

    gc.collect()
    peak = None
    if tracer is not None:
        ran, took = tracer.trace(lambda: workload.run(prepared))
    else:
        reset_peak_rss()
        began = time.perf_counter()
        ran = workload.run(prepared)
        took = time.perf_counter() - began
        peak = peak_rss_mb()
    check = last and kind == "untraced"
    return kind, took, peak, workload.outcome(ran, check=check)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    threads = configure_environment()
    sys.path[:0] = [str(SRC), str(HERE)]

    from workloads import WORKLOADS

    if args.setup_only:
        WORKLOADS[args.workload](args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0

    build()
    workload = WORKLOADS[args.workload](args.seed)
    host = fingerprint(threads)
    tracer = None
    if args.trace:
        from tracer import LayerTracer
        tracer = LayerTracer()
    setups, references = [], None
    if tracer is None and workload.reference_scaled:
        references = [reference_seconds()]
    results = measure(workload, args.seconds, tracer,
                      None if tracer else between_rounds(args, setups,
                                                         references))
    if tracer is not None:
        tracer.write_spans(
            OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    from report import emit
    emit(args, workload, host, setups, references, results, tracer)
    return 0


if __name__ == "__main__":
    sys.exit(main())

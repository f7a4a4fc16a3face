"""Closed-loop benchmark of the credit-scoring simulator.

Run from the repository root::

    python3 loopbench/run.py --workload trial-exact --seed 1 --seconds 10 --trace 0

``--workload`` names one workload (see ``workloads.py``) or ``all``, which
runs every workload back to back in this one process.  Each workload is a
closed loop with one client: the next operation starts only after the
previous one has finished and its output has been checked against a
reference computed once per run on the serial layout.

``--trace 0`` times operations for ``--seconds`` with tracing off and
prints the end-to-end metrics.  The host's speed drifts (on the shared
2-vCPU reference host, by up to 1.5x over minutes), so each operation is
followed by a fixed calibration task (``calibrate``), and operation times
are reported over the host's slowdown at that moment; the wall times are
logged beside them.  ``--trace 1`` alternates untraced and
traced operations for ``--seconds`` and prints the per-layer metrics plus
the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path
from typing import Dict, List

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORKDIR = ROOT / ".loopbench-work"

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: The keys of ``workloads.WORKLOADS``, listed here because importing that
#: module imports the program, which may be missing.
WORKLOAD_NAMES = ("trial-exact", "trial-lean-auto", "campaign-half-warm")

#: Best time of ``calibrate``'s task on the reference host (2 vCPUs, in a
#: calm period).  Reported times are scaled to a host of that speed.
CALIBRATION_REFERENCE_S = 0.012

#: Fewest timed operations per measuring phase, whatever ``--seconds`` says.
MIN_OPS = 3

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "user_steps_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "ops_ok_frac": "frac",
}

PER_LAYER = {
    "population.generate.ms": "ms",
    "population.begin_step.ms.p50": "ms",
    "population.begin_step.ms.p95": "ms",
    "population.respond.ms.p50": "ms",
    "population.respond.ms.p95": "ms",
    "ai_system.decide.ms.p50": "ms",
    "ai_system.update.ms.p50": "ms",
    "ai_system.update.ms.p95": "ms",
    "ai_system.update_from_suffstats.ms.p50": "ms",
    "scoring.fit.ms.p50": "ms",
    "scoring.fit.iterations": "count",
    "suffstats.unique_row_ratio": "ratio",
    "filter.update.ms.p50": "ms",
    "filter.observation.ms.p50": "ms",
    "history.record_step.ms.p50": "ms",
    "pool.start.s": "s",
    "pool.wait.ms.p50": "ms",
    "transport.pickled_bytes_per_step": "B",
    "transport.shared_bytes_per_step": "B",
    "supervision.retries": "count",
    "supervision.fallbacks": "count",
    "planner.plan.ms": "ms",
    "cache.load.ms.p50": "ms",
    "cache.hit_rate": "ratio",
    "cache.bytes_per_entry": "B",
    "trace_overhead_frac": "ratio",
}

#: RuntimeWarning texts of the program's degradations, by kind.
RETRY_MARKERS = ("rebuilding the pool",)
FALLBACK_MARKERS = (
    "fell back to the serial path",
    "exhausted its retry budget",
    "using the pickle transport instead",
    "recomputing campaign job",
    "re-running trial",
)


def log(message: str) -> None:
    print(f"loopbench: {message}", flush=True)


def median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


_CALIBRATION_INPUT = np.random.default_rng(0).random(100_000)


def calibrate() -> float:
    """Return how much slower the host runs now than the reference host.

    Times a fixed task that is not part of the program (numpy passes over a
    100k array, an interpreter loop, a pickle round trip) and returns its
    best time of three over ``CALIBRATION_REFERENCE_S``.  A value of 1.2
    means the host runs 20% slower than the reference host did.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        x = _CALIBRATION_INPUT
        for _ in range(6):
            x = np.sort(np.exp(-x) * 0.5 + np.log1p(x))
        total = 0
        for i in range(30_000):
            total += i % 7
        pickle.loads(pickle.dumps({i: str(i) for i in range(5_000)}))
        best = min(best, time.perf_counter() - t0)
    return best / CALIBRATION_REFERENCE_S


class Phase:
    """Counts and timings of one measuring phase.

    ``tracer`` builds the context each operation runs in: a
    :class:`tracer.Tracer` for traced operations, ``None`` for untraced.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.times: List[float] = []  # healthy operations only
        self.scaled: List[float] = []  # the same, over the host's slowdown
        self.all_times: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # raised or gave a wrong output
        self.retries = 0
        self.fallbacks = 0
        self.other_warnings: Dict[str, int] = {}
        self.traces: list = []

    def merge(self, other: "Phase") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.retries += other.retries
        self.fallbacks += other.fallbacks
        for text, count in other.other_warnings.items():
            self.other_warnings[text] = self.other_warnings.get(text, 0) + count


def run_op(workload, phase: Phase) -> None:
    """Run, time and check one operation, recording it in ``phase``."""
    workload.prepare()
    tracer = phase.tracer() if phase.tracer is not None else None
    result, error = None, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tracer if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                result = workload.operate()
            except Exception as exc:  # counted and reported; the run goes on
                error = exc
                traceback.print_exc()
            elapsed = time.perf_counter() - t0
    slowdown = calibrate()
    degraded = 0
    for item in caught:
        text = str(item.message)
        if any(marker in text for marker in RETRY_MARKERS):
            phase.retries += 1
            degraded += 1
        elif any(marker in text for marker in FALLBACK_MARKERS):
            phase.fallbacks += 1
            degraded += 1
        else:
            key = f"{item.category.__name__}: {text.splitlines()[0][:120]}"
            phase.other_warnings[key] = phase.other_warnings.get(key, 0) + 1
    problem = repr(error) if error is not None else workload.check(result)
    phase.attempted += 1
    phase.all_times.append(elapsed)
    if problem is not None:
        phase.failed += 1
        phase.wrong += 1
        log(f"{workload.name}: operation failed: {problem}")
    elif degraded:
        phase.failed += 1
        log(f"{workload.name}: operation degraded ({degraded} warning(s))")
    else:
        phase.times.append(elapsed)
        phase.scaled.append(elapsed / slowdown)
        if tracer is not None:
            tracer.op.elapsed = elapsed
            tracer.op.cache_bytes_per_entry = workload.cache_bytes_per_entry()
            phase.traces.append(tracer.op)


def run_ops(workload, seconds: float, min_ops: int, *phases: Phase) -> None:
    """Run operations back to back for ``seconds``, alternating ``phases``.

    Each phase gets at least ``min_ops`` operations.  Alternating the
    traced and untraced phases exposes both to the same drift in host
    speed, so their ratio measures the tracing overhead alone; the order
    flips every round so that neither phase always runs first.
    """
    started = time.perf_counter()
    order = list(phases)
    while (
        min(phase.attempted for phase in phases) < min_ops
        or time.perf_counter() - started < seconds
    ):
        for phase in order:
            run_op(workload, phase)
        order.reverse()


def peak_rss_mib() -> float:
    """Larger of this process's and its largest waited-for child's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def measure_setup(name: str, seed: int) -> List[float]:
    """Wall time of fresh processes importing repro and planning ``name``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable,
        str(BENCH_DIR / "setup_probe.py"),
        "--workload",
        name,
        "--seed",
        str(seed),
        "--workdir",
        str(WORKDIR),
    ]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(command, cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def ok_frac(phase: Phase) -> float:
    return (phase.attempted - phase.failed) / phase.attempted


def layer_metrics(traces, untraced: Phase, traced: Phase, total: Phase) -> Dict[str, float]:
    """Aggregate the traced operations into the per-layer metrics."""

    def calls(span: str) -> List[float]:
        return [value for trace in traces for value in trace.spans.get(span, ())]

    def per_op(fn) -> float:
        return median([fn(trace) for trace in traces])

    def pool_wait_s(trace) -> float:
        if not trace.executors:
            return 0.0
        return trace.elapsed - trace.covered_s

    unique = sum(trace.unique_rows for trace in traces)
    rows = sum(trace.table_rows for trace in traces)
    steps = sum(trace.metered_steps for trace in traces)
    loads = sum(trace.cache_hits + trace.cache_misses for trace in traces)
    hits = sum(trace.cache_hits for trace in traces)
    ms = 1e3
    return {
        "population.generate.ms": per_op(lambda t: t.total("population.generate")) * ms,
        "population.begin_step.ms.p50": median(calls("population.begin_step")) * ms,
        "population.begin_step.ms.p95": percentile(calls("population.begin_step"), 95) * ms,
        "population.respond.ms.p50": median(calls("population.respond")) * ms,
        "population.respond.ms.p95": percentile(calls("population.respond"), 95) * ms,
        "ai_system.decide.ms.p50": median(calls("ai_system.decide")) * ms,
        "ai_system.update.ms.p50": median(calls("ai_system.update")) * ms,
        "ai_system.update.ms.p95": percentile(calls("ai_system.update"), 95) * ms,
        "ai_system.update_from_suffstats.ms.p50": median(
            calls("ai_system.update_from_suffstats")
        )
        * ms,
        "scoring.fit.ms.p50": median(calls("scoring.fit")) * ms,
        "scoring.fit.iterations": per_op(lambda t: t.fit_iterations),
        "suffstats.unique_row_ratio": unique / rows if rows else 0.0,
        "filter.update.ms.p50": median(calls("filter.update")) * ms,
        "filter.observation.ms.p50": median(calls("filter.observation")) * ms,
        "history.record_step.ms.p50": median(calls("history.record_step")) * ms,
        "pool.start.s": per_op(lambda t: t.total("pool.start")),
        "pool.wait.ms.p50": per_op(pool_wait_s) * ms,
        "transport.pickled_bytes_per_step": (
            sum(t.pickled_bytes for t in traces) / steps if steps else 0.0
        ),
        "transport.shared_bytes_per_step": (
            sum(t.shared_bytes for t in traces) / steps if steps else 0.0
        ),
        "supervision.retries": float(total.retries),
        "supervision.fallbacks": float(total.fallbacks),
        "planner.plan.ms": per_op(lambda t: t.total("planner.plan")) * ms,
        "cache.load.ms.p50": median([v for t in traces for v in t.hit_load_s]) * ms,
        "cache.hit_rate": hits / loads if loads else 0.0,
        "cache.bytes_per_entry": per_op(lambda t: t.cache_bytes_per_entry),
        "trace_overhead_frac": (
            median(traced.times) / median(untraced.times) - 1.0
            if traced.times and untraced.times
            else 0.0
        ),
    }


def trace_mismatches(workload, traces) -> List[str]:
    """Compare the plan and path the traced run took with the untraced plan."""
    problems = []
    expected = workload.plan
    pooled = bool(
        expected.get("parallel")
        or expected.get("shard_parallel")
        or expected.get("job_workers", 1) > 1
    )
    for index, trace in enumerate(traces):
        seen = trace.plans[-1] if trace.plans else None
        wanted = {key: expected.get(key) for key in seen} if seen else None
        if seen != wanted:
            problems.append(f"traced op {index} resolved {seen}, expected {wanted}")
        if pooled != bool(trace.executors):
            problems.append(
                f"traced op {index} started {trace.executors} pool(s); plan is "
                f"{'pooled' if pooled else 'in-process'}"
            )
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload and return its result object."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, WORKDIR)
    log(f"{name}: plan {json.dumps(workload.plan, sort_keys=True)}")
    try:
        workload.compute_reference()
        total = Phase()
        run_op(workload, total)  # warm-up, checked but not timed
        problems: List[str] = []
        if not trace:
            timed = Phase()
            run_ops(workload, seconds, MIN_OPS, timed)
            total.merge(timed)
            rss = peak_rss_mib()
            setup = measure_setup(name, seed)
            # Every operation failed: report their times rather than none.
            times = timed.times or timed.all_times
            scaled = timed.scaled or timed.all_times
            values = {
                "setup_s": median(setup),
                "op_s.p50": median(scaled),
                "user_steps_per_s": workload.user_steps / median(scaled),
                "peak_rss_mib": rss,
                "ops_ok_frac": ok_frac(total),
            }
            log(
                f"{name}: {len(timed.times)} timed ops; wall op_s min/p50/max "
                f"{min(times):.4f}/{median(times):.4f}/{max(times):.4f} s; "
                f"setup_s runs {[round(s, 4) for s in setup]}; "
                f"ops_failed_frac {1.0 - ok_frac(total):.4f}"
            )
            slowdown = median([t / c for t, c in zip(times, scaled)])
            log(f"{name}: wall op_s.p50 {median(times):.4f} s; host slowdown {slowdown:.3f}")
            units = END_TO_END
        else:
            from tracer import Tracer

            untraced, traced = Phase(), Phase(tracer=Tracer)
            run_ops(workload, seconds, MIN_OPS, untraced, traced)
            total.merge(untraced)
            total.merge(traced)
            problems = trace_mismatches(workload, traced.traces)
            for problem in problems:
                log(f"{name}: {problem}")
            total.failed += len(problems)
            values = layer_metrics(traced.traces, untraced, traced, total)
            log(
                f"{name}: {len(untraced.times)} untraced / {len(traced.times)} "
                f"traced ops, op_s.p50 {median(untraced.times):.4f} / "
                f"{median(traced.times):.4f} s"
            )
            units = PER_LAYER
        correct = total.wrong == 0 and not problems
        for text, count in sorted(total.other_warnings.items()):
            log(f"{name}: {count}x {text}")
        for metric, unit in units.items():
            log(f"{name}: {metric} = {values[metric]:.6g} {unit}")
        return {
            "correct": correct,
            "attempted": total.attempted,
            "failed": total.failed,
            "metrics": {
                metric: {"value": values[metric], "unit": unit}
                for metric, unit in units.items()
            },
        }
    finally:
        workload.cleanup()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def environment() -> dict:
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
    }


def stop_children() -> None:
    """Join any worker process still alive and stop the resource tracker."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
    # The first shared-memory segment starts the resource tracker, which
    # would otherwise outlive this process; Python 3.11 has no public stop.
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"loopbench: no program to measure: {SRC / 'repro'} is missing; "
            "run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    WORKDIR.mkdir(exist_ok=True)
    scratch = WORKDIR / "tmp"
    scratch.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)

    env = environment()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_children()
        shutil.rmtree(WORKDIR, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    log(f"environment {json.dumps(env, sort_keys=True)}")
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

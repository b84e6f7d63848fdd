"""Benchmark of specbarron: three seeded closed-loop workloads.

One workload, one process, one client, BLAS and OpenMP pinned to one thread:

    python3 benchmarks/run.py --workload product-analysis --seed 1 --seconds 25 --trace 0

prints a detail line (environment, rationale, tail percentile, the six
end-to-end metrics with ``failed_frac``) and, last, one JSON result line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1``
the library's public functions are wrapped (see ``tracer.py``), the spans
are written to ``benchmarks/out/spans-<workload>.jsonl`` and the metrics
are the per-layer ones.  End-to-end numbers always come from an untraced run.
Their times are scaled to a fixed host speed (``HostSpeed``), because the
speed of a shared host drifts; the detail line also has the wall times.

Every workload and both modes, with the tracing overhead as traced minus
untraced end-to-end numbers:

    python3 benchmarks/run.py --all --seed 1 --seconds 25 --out benchmarks/results/baseline.json

The exit code is 0 only when a result was printed.  The library is imported
from ``src/`` next to this directory; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Set-ups timed per untraced run (this process and the rest in fresh ones).
SETUP_SAMPLES = 5

#: Milliseconds one reference unit of each kind (``HostSpeed``) takes on the
#: host that reported times are scaled to: about what a 2-vCPU x86-64 VM
#: with numpy 2 and OpenBLAS on one thread takes between tasks when its
#: neighbours are idle.
REFERENCE_UNIT_MS = {"small": 2.2, "large": 1.85}

#: Reference work after each task, as a share of the task's wall time; at
#: least ``MIN_UNITS`` units.
REFERENCE_SHARE = 0.05
MIN_UNITS = 1

#: Reference units timed right after a set-up, to scale it.
SETUP_REFERENCE_UNITS = 21

#: (name, unit) of the end-to-end metrics.  ``failed_frac`` is 0 at a correct
#: commit, so BENCHMARK.json leaves it out and the result line carries it as
#: ``attempted``/``failed``; the detail line and ``--all`` print it.
END_TO_END = (
    ("tasks_per_s", "1/s"),
    ("task_ms_p50", "ms"),
    ("task_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "fraction"),
)
RESULT_END_TO_END = tuple(name for name, _ in END_TO_END if name != "failed_frac")

WORKLOAD_NAMES = ("product-analysis", "picard-solve", "verify-suite")


class BenchmarkError(RuntimeError):
    """The run cannot produce a result: no library, a failed child, no successes."""


def pin_threads() -> None:
    """Pin BLAS and OpenMP to one thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_library():
    """Import specbarron from ``src/`` of this checkout, never from elsewhere."""
    if not (SRC / "specbarron" / "__init__.py").is_file():
        raise BenchmarkError(f"no specbarron sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import specbarron

    if Path(specbarron.__file__).resolve().parent != SRC / "specbarron":
        raise BenchmarkError(f"specbarron imported from {specbarron.__file__}, not {SRC}")
    return specbarron


# -- host speed ---------------------------------------------------------------


class HostSpeed:
    """Fixed units of reference work, timed next to the library's work.

    A shared host's speed drifts by a third or more over minutes, and runs
    of the same code then differ by as much.  Kinds of work slow down by
    different amounts: interpreter loops and calls on small arrays most,
    single operations on large arrays least.  So each task is scaled by the
    unit of its own kind (``Workload.large_classes``):

    - ``small``: an interpreter loop, 64 x 64 FFTs and matrix products, an
      einsum over a 1 MB stack of matrices and one over the conjugate of a
      2 MB stack;
    - ``large``: two einsums over the conjugate of a 4 MB stack, the way
      the cached Weyl-stack transform streams its stack.

    Every reported time is scaled by ``REFERENCE_UNIT_MS[kind]`` over the
    mean unit time measured around it (``mean_unit_ms``): the time the work
    would take on the reference host.  The units call no library code, so
    a change to the library moves the scaled times as it moves wall time.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._a = (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))) / 8.0
        self._small = rng.standard_normal((256, 16, 16)) + 0j
        self._large = rng.standard_normal((256, 32, 32)) + 0j

    def unit_ms(self, kind: str) -> float:
        """Wall time of one reference unit of ``kind``, in ms."""
        np = self._np
        start = time.perf_counter()
        x = self._a
        if kind == "large":
            for _ in range(2):
                np.einsum("ij,kij->k", x[:32, :32], self._large.conj())
        else:
            acc = 0
            for i in range(8000):
                acc += i & 7
            for _ in range(6):
                x = np.fft.ifft(np.fft.fft(x, axis=0), axis=1)
                x = (self._a @ x) / 8.0
            np.einsum("ij,kij->k", x[:16, :16], self._small)
            np.einsum("ij,kij->k", x[:32, :32], self._large[:128].conj())
        return (time.perf_counter() - start) * 1e3

    def units_after(self, task_ms: float, kind: str) -> list[float]:
        """Time units for ``REFERENCE_SHARE`` of a task's time, at least ``MIN_UNITS``."""
        n = max(MIN_UNITS, math.ceil(REFERENCE_SHARE * task_ms / REFERENCE_UNIT_MS[kind]))
        return [self.unit_ms(kind) for _ in range(n)]

    def factor(self, kind: str = "small", units: int = SETUP_REFERENCE_UNITS) -> float:
        """Scale factor to the reference host, from ``units`` units timed now."""
        return REFERENCE_UNIT_MS[kind] / mean_unit_ms([self.unit_ms(kind) for _ in range(units)])


def mean_unit_ms(units: list[float]) -> float:
    """Mean unit time, each unit capped at twice the median.

    The host's speed can flip between levels within a long task, so the
    mean of the units around it, not their median, is its average speed.
    The cap keeps a unit that the host stopped for a while from counting as
    a long slow spell.
    """
    cap = 2.0 * statistics.median(units)
    return statistics.fmean(min(u, cap) for u in units)


# -- measurement --------------------------------------------------------------


@dataclass
class Measurement:
    """Timed tasks of one run, in order, with their check outcomes.

    ``task_ms`` is wall time.  ``factor`` is each task's scale factor to
    the reference host: the reference unit time over the mean time of the
    units of its kind timed right before and right after it.  ``scaled_ms``
    is the task's time on the reference host.
    """

    classes: tuple[str, ...]
    task_ms: list[float] = field(default_factory=list)
    factor: list[float] = field(default_factory=list)
    task_class: list[int] = field(default_factory=list)
    task_ok: list[bool] = field(default_factory=list)
    cycle_s: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.task_ok)

    @property
    def scaled_ms(self) -> list[float]:
        return [ms * f for ms, f in zip(self.task_ms, self.factor)]

    @property
    def failed(self) -> int:
        return self.task_ok.count(False)


def measure(
    workload, seconds: float, speed: HostSpeed, tracer=None, min_cycles: int | None = None
) -> Measurement:
    """Run whole cycles until ``seconds`` of task time and ``min_cycles`` are done.

    Only the task call is timed.  Reference units (``HostSpeed``) and the
    output check run after the clock stops.  A task that raises counts as
    failed and the loop goes on.
    """
    cycles_needed = workload.min_cycles if min_cycles is None else min_cycles
    m = Measurement(workload.classes)
    timed = 0.0
    before = {kind: speed.units_after(0.0, kind) for kind in REFERENCE_UNIT_MS}
    while timed < seconds or len(m.cycle_s) < cycles_needed:
        cycle = 0.0
        for k in range(len(workload.classes)):
            index = m.attempted
            if tracer is not None:
                tracer.start_task(index)
            error = None
            start = time.perf_counter()
            try:
                out = workload.run(k)
            except Exception:  # a failing task is counted, not fatal
                elapsed = time.perf_counter() - start
                error = traceback.format_exc(limit=3)
            else:
                elapsed = time.perf_counter() - start
            kind = "large" if workload.classes[k] in workload.large_classes else "small"
            after = speed.units_after(elapsed * 1e3, kind)
            m.factor.append(REFERENCE_UNIT_MS[kind] / mean_unit_ms(before[kind] + after))
            before[kind] = after
            if tracer is not None:
                tracer.start_check()
            if error is None:
                error = workload.check(k, out, index)
            cycle += elapsed
            m.task_ms.append(elapsed * 1e3)
            m.task_class.append(k)
            m.task_ok.append(error is None)
            if error is not None and len(m.errors) < 5:
                m.errors.append(f"task {index} ({workload.classes[k]}): {error}")
        m.cycle_s.append(cycle)
        timed += cycle
    return m


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(m: Measurement, tail_percentile: float, setup_s: float, peak_rss_mb: float):
    """The six end-to-end metrics and the tail statistic's sample counts.

    Task times are those on the reference host (``Measurement.scaled_ms``),
    and ``setup_s`` is expected scaled as well.
    """
    scaled = m.scaled_ms
    ok_ms = [ms for ms, ok in zip(scaled, m.task_ok) if ok]
    if not ok_ms:
        raise BenchmarkError("no task succeeded; nothing to report")
    tail = percentile(ok_ms, tail_percentile)
    # Successful tasks per second of task time, over whole cycles: a mean,
    # steadier from run to run than a median over a few long cycles.
    per_s = len(ok_ms) / (sum(scaled) / 1e3)
    values = {
        "tasks_per_s": per_s,
        "task_ms_p50": statistics.median(ok_ms),
        "task_ms_tail": tail,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": m.failed / m.attempted,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    tail_info = {
        "percentile": tail_percentile,
        "samples": len(ok_ms),
        "beyond": sum(ms > tail for ms in ok_ms),
    }
    return metrics, tail_info


def class_medians(task_ms: list[float], task_class: list[int], classes) -> dict:
    """Median time per class label; a label may name several tasks of a cycle."""
    return {
        label: statistics.median(
            ms for ms, k in zip(task_ms, task_class) if classes[k] == label
        )
        for label in dict.fromkeys(classes)
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_self(*args: str, timeout: float) -> list[str]:
    """Run this script in a fresh process and return its stdout lines."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}"
        )
    return lines


def setup_sample(workload: str, seed: int) -> float:
    """Scaled set-up time of a fresh process, from its first import to ready."""
    lines = _run_self("--workload", workload, "--seed", str(seed), "--setup-only", timeout=170)
    return float(json.loads(lines[-1])["setup_s"])


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# -- entry points -------------------------------------------------------------


def run_setup_only(name: str, seed: int) -> int:
    start = time.perf_counter()
    load_library()
    from workloads import WORKLOADS

    WORKLOADS[name](seed)
    setup_s = time.perf_counter() - start
    print(json.dumps({"setup_s": setup_s * HostSpeed().factor()}))
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    start = time.perf_counter()
    load_library()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    workload = cls(seed)
    setup_s = time.perf_counter() - start
    speed = HostSpeed()
    setup_s *= speed.factor()
    m = measure(workload, seconds, speed, tracer)
    rss = peak_rss_mb()
    setups = [setup_s]
    if not trace:
        setups += [setup_sample(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    e2e, tail = end_to_end(m, cls.tail_percentile, statistics.median(setups), rss)

    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "why": cls.why,
        "stresses": cls.stresses,
        "bypasses": cls.bypasses,
        "classes": list(dict.fromkeys(cls.classes)),
        "cycle_s": m.cycle_s,
        "tail": tail,
        "speed_factor": {
            "median": statistics.median(m.factor),
            "min": min(m.factor),
            "max": max(m.factor),
        },
        "class_ms_p50": class_medians(m.scaled_ms, m.task_class, cls.classes),
        "wall_class_ms_p50": class_medians(m.task_ms, m.task_class, cls.classes),
        "setup_samples_s": setups,
        "end_to_end": e2e,
        "wall": {
            "tasks_per_s": m.attempted / sum(m.cycle_s),
            "task_ms_p50": statistics.median(m.task_ms),
        },
        "errors": m.errors,
        "environment": environment(),
    }
    if tracer is not None:
        tracer.uninstall()
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{name}.jsonl"
        tracer.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = tracer.per_layer_metrics(m.attempted)
    else:
        metrics = {key: e2e[key] for key in RESULT_END_TO_END}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }))
    return 0


def _child(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    lines = _run_self(
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), timeout=900,
    )
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def run_all(seed: int, seconds: float, out: str | None) -> int:
    """Every workload untraced, then traced; print a table, optionally save it."""
    report = {"seed": seed, "seconds": seconds, "workloads": {}}
    all_correct = True
    for name in WORKLOAD_NAMES:
        plain, plain_result = _child(name, seed, seconds, 0)
        traced, traced_result = _child(name, seed, seconds, 1)
        all_correct &= plain_result["correct"] and traced_result["correct"]
        overhead = {
            key: {
                "value": traced["end_to_end"][key]["value"] - metric["value"],
                "unit": metric["unit"],
            }
            for key, metric in plain["end_to_end"].items()
        }
        report["environment"] = plain["environment"]
        report["workloads"][name] = {
            "why": plain["why"],
            "stresses": plain["stresses"],
            "bypasses": plain["bypasses"],
            "attempted": plain_result["attempted"],
            "failed": plain_result["failed"],
            "tail": plain["tail"],
            "class_ms_p50": plain["class_ms_p50"],
            "setup_samples_s": plain["setup_samples_s"],
            "end_to_end": plain["end_to_end"],
            "traced_end_to_end": traced["end_to_end"],
            "tracing_overhead": overhead,
            "per_layer": traced_result["metrics"],
        }
        print(f"== {name}: {plain['why']}")
        print(f"   stresses {plain['stresses']}; bypasses {plain['bypasses']}")
        print(f"   {plain_result['attempted']} tasks, tail = p{plain['tail']['percentile']:g} "
              f"with {plain['tail']['beyond']} of {plain['tail']['samples']} beyond")
        print("   median ms per class: " + ", ".join(
            f"{label} {ms:.2f}" for label, ms in plain["class_ms_p50"].items()))
        for key, metric in plain["end_to_end"].items():
            print(f"   {key:<14} {metric['value']:>12.4f} {metric['unit']:<8} "
                  f"tracing overhead {overhead[key]['value']:+.4f}")
        for key, metric in traced_result["metrics"].items():
            if metric["value"]:
                print(f"   {key:<44} {metric['value']:>12.4f} {metric['unit']}")
    print(json.dumps({"environment": report["environment"]}))
    if out is not None:
        with open(out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if all_correct else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOAD_NAMES)
    mode.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", help="with --all: write the report as JSON here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.all:
            return run_all(args.seed, args.seconds, args.out)
        if args.setup_only:
            return run_setup_only(args.workload, args.seed)
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())

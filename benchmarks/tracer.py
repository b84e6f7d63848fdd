"""Span tracer that wraps specbarron's public functions from outside the package.

A span is one call of a wrapped function: its name, the task it ran in,
the span that called it, and its start and end on the monotonic clock.
Spans are kept in memory and written out when the run ends.  A layer's
self time is its span's duration minus the part of that interval that its
child spans cover.

Each function is replaced at every module of the package that binds it, so
a call made from inside the package (``barron_norm -> qft``) reaches the
wrapper too and becomes a child span.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

#: Traced functions as ``<module>.<qualname>`` relative to the package.
TRACED = (
    "phase_space.difference_table",
    "weyl.WeylSystem.operator",
    "weyl.weyl_stack",
    "qft.qft",
    "qft.qft_fast",
    "qft.qft_naive",
    "qft.iqft",
    "qft.twisted_convolution",
    "spaces.barron_norm",
    "spaces.sobolev_norm",
    "spaces.operator_norm",
    "spaces.schatten_norm",
    "spaces.peetre_check",
    "transformers.apply",
    "solver.solve_fixed_point",
    "solver.solve_direct",
    "solver.equation_matrix",
    "oracles.random_operator",
    "oracles.run_property_suite",
    "cli.main",
)

#: Functions whose inclusive time during set-up is reported (the O(N^4) tables).
SETUP_TRACED = ("weyl.weyl_stack", "phase_space.difference_table")

#: Bookkeeping span around input fingerprinting; a child of the caller, so the
#: caller's self time excludes it.  It is not a layer and is not reported.
FINGERPRINT = "trace.fingerprint"

TRANSFORMS = ("qft.qft", "qft.iqft")

#: Task ids of spans outside the timed tasks: set-up, and the output checks.
SETUP_TASK = -1
CHECK_TASK = -2

PACKAGE = "specbarron"


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int  # -1 for a root span
    task: int  # a timed task's index, or SETUP_TASK / CHECK_TASK
    name: str
    start_ns: int
    end_ns: int


def per_layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    names = []
    for fn in TRACED:
        names.append((f"{fn}.calls_per_task", "count", "lower"))
        names.append((f"{fn}.self_ms_per_task", "ms", "lower"))
    names.append(("solver.iterations_per_solve", "count", "lower"))
    names.append(("solver.transforms_per_iteration", "count", "lower"))
    names.append(("qft.distinct_input_frac", "fraction", "higher"))
    for fn in SETUP_TRACED:
        names.append((f"{fn}.setup_ms", "ms", "lower"))
    return names


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.task = SETUP_TASK
        self._records: list[tuple | None] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # per task: qft input fingerprints seen, and [qft calls, calls on an unseen input]
        self._seen: dict[int, set] = defaultdict(set)
        self.qft_calls_new: dict[int, list[int]] = defaultdict(lambda: [0, 0])
        self.solve_iterations: dict[int, list[int]] = defaultdict(list)

    def start_task(self, index: int) -> None:
        self.task = index

    def start_check(self) -> None:
        self.task = CHECK_TASK

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)]
        for sub in sorted({name.split(".")[0] for name in TRACED}):
            modules.append(importlib.import_module(f"{PACKAGE}.{sub}"))
        for name in TRACED:
            mod_name, *attrs = name.split(".")
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for attr in attrs[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, attrs[-1])
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._rebind(owner, attrs[-1], wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _rebind(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn):
        records = self._records
        stack = self._stack
        clock = time.perf_counter_ns

        if name == "qft.qft":
            def before(args, kwargs):
                self._fingerprint(args[1] if len(args) > 1 else kwargs["t"])
        else:
            before = None
        after = self._count_iterations if name == "solver.solve_fixed_point" else None

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span_id = len(records)
            records.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records[span_id] = (span_id, parent, self.task, name, start, end)
            if after is not None:
                after(result)
            return result

        return functools.wraps(fn)(traced)

    def _fingerprint(self, t) -> None:
        start = time.perf_counter_ns()
        arr = np.ascontiguousarray(t, dtype=complex)
        key = (arr.shape, zlib.crc32(arr.view(np.uint8).reshape(-1)))
        seen = self._seen[self.task]
        counts = self.qft_calls_new[self.task]
        counts[0] += 1
        if key not in seen:
            seen.add(key)
            counts[1] += 1
        end = time.perf_counter_ns()
        parent = self._stack[-1] if self._stack else -1
        self._records.append(
            (len(self._records), parent, self.task, FINGERPRINT, start, end)
        )

    def _count_iterations(self, result) -> None:
        self.solve_iterations[self.task].append(int(result.iterations))

    # -- results ----------------------------------------------------------

    def spans(self) -> list[Span]:
        return [Span(*r) for r in self._records if r is not None]

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans():
                handle.write(json.dumps(span.__dict__, separators=(",", ":")))
                handle.write("\n")

    def per_layer_metrics(self, tasks: int) -> dict[str, dict]:
        return per_layer_metrics(
            self.spans(), tasks, self.qft_calls_new, self.solve_iterations
        )


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Self time of every span: its duration minus the union of its children."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0
        cursor = span.start_ns
        for child in sorted(children[span.span_id], key=lambda c: c.start_ns):
            lo = max(child.start_ns, cursor)
            hi = min(child.end_ns, span.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.span_id] = span.end_ns - span.start_ns - covered
    return out


def per_layer_metrics(
    spans: list[Span],
    tasks: int,
    qft_calls_new: dict[int, list[int]] | None = None,
    solve_iterations: dict[int, list[int]] | None = None,
) -> dict[str, dict]:
    """Aggregate spans of the timed tasks into the per-layer metrics."""
    if tasks < 1:
        raise ValueError("per-layer metrics need at least one task")
    self_ns = self_times_ns(spans)
    by_id = {span.span_id: span for span in spans}
    calls: dict[str, int] = defaultdict(int)
    self_total: dict[str, int] = defaultdict(int)
    setup_total: dict[str, int] = defaultdict(int)
    transforms_in_solves = 0
    for span in spans:
        if span.task == SETUP_TASK and span.name in SETUP_TRACED:
            setup_total[span.name] += span.end_ns - span.start_ns
        if span.task < 0:
            continue
        calls[span.name] += 1
        self_total[span.name] += self_ns[span.span_id]
        if span.name in TRANSFORMS and _inside(span, "solver.solve_fixed_point", by_id):
            transforms_in_solves += 1

    units = {name: unit for name, unit, _ in per_layer_metric_names()}
    metrics: dict[str, dict] = {}

    def put(name: str, value: float) -> None:
        metrics[name] = {"value": value, "unit": units[name]}

    for fn in TRACED:
        put(f"{fn}.calls_per_task", calls[fn] / tasks)
        put(f"{fn}.self_ms_per_task", self_total[fn] / 1e6 / tasks)

    iterations = [
        n for task, values in (solve_iterations or {}).items()
        if task >= 0 for n in values
    ]
    total_iterations = sum(iterations)
    put("solver.iterations_per_solve", total_iterations / len(iterations) if iterations else 0.0)
    put(
        "solver.transforms_per_iteration",
        transforms_in_solves / total_iterations if total_iterations else 0.0,
    )
    qft_total = qft_new = 0
    for task, (total, new) in (qft_calls_new or {}).items():
        if task >= 0:
            qft_total += total
            qft_new += new
    put("qft.distinct_input_frac", qft_new / qft_total if qft_total else 0.0)
    for fn in SETUP_TRACED:
        put(f"{fn}.setup_ms", setup_total[fn] / 1e6)
    return metrics


def _inside(span: Span, ancestor: str, by_id: dict[int, Span]) -> bool:
    parent = span.parent
    while parent >= 0:
        node = by_id[parent]
        if node.name == ancestor:
            return True
        parent = node.parent
    return False


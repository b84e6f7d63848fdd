"""Tests of the benchmark itself: output names, output checks, self time.

Run from the repository root with ``python -m pytest benchmarks/tests``.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

import run
import specbarron as sb
import tracer as tr
from workloads import PicardSolve, ProductAnalysis, VerifySuite

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def _result(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.fixture
def short_picard(monkeypatch):
    monkeypatch.setattr(PicardSolve, "min_cycles", 1)
    monkeypatch.setattr(PicardSolve, "classes", PicardSolve.classes[:3])
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_match_benchmark_json(capsys, short_picard, trace, section):
    spec = json.loads(BENCHMARK_JSON.read_text())
    detail, result = _result(
        capsys, "--workload", "picard-solve", "--seed", "3", "--seconds", "0",
        "--trace", str(trace),
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    # the detail line carries all six end-to-end metrics, failed_frac included
    assert list(detail["end_to_end"]) == [name for name, _ in run.END_TO_END]
    assert detail["end_to_end"]["failed_frac"]["value"] == 0.0


def test_per_layer_names_cover_every_traced_function():
    names = [name for name, _, _ in tr.per_layer_metric_names()]
    assert len(names) == len(set(names))
    for fn in tr.TRACED:
        assert f"{fn}.calls_per_task" in names and f"{fn}.self_ms_per_task" in names


def _assert_all_rejected(workload, k, out, corruptions):
    assert workload.check(k, out, 0) is None
    for corrupt in corruptions:
        assert workload.check(k, corrupt(out), 0) is not None


def test_product_checker_rejects_corrupted_output():
    wl = ProductAnalysis(seed=5)
    out = wl.run(1)
    values = out.transform.values.copy()
    values[7] += 1e-4
    shifted = sb.PhaseFunction(out.transform.group, values)
    _assert_all_rejected(wl, 1, out, [
        lambda o: replace(o, round_trip=o.round_trip + 1e-8),
        lambda o: replace(o, transform=shifted),
        lambda o: replace(o, b0=o.b2 * 1.01),
        lambda o: replace(o, applied=o.applied + 1e-6 * np.eye(len(o.applied))),
    ])


def test_picard_checker_rejects_corrupted_output():
    wl = PicardSolve(seed=5)
    out = wl.run(1)
    _assert_all_rejected(wl, 1, out, [
        lambda o: replace(o, converged=False),
        lambda o: replace(o, solution=o.solution * (1.0 + 1e-7)),
    ])


def test_verify_checker_rejects_corrupted_output():
    wl = VerifySuite(seed=5)
    out = wl.run(0)
    _assert_all_rejected(wl, 0, out, [
        lambda o: (3, o[1]),
        lambda o: (0, o[1].replace('"trials": 1', '"trials": 2')),
    ])


class _CorruptFirstClass(PicardSolve):
    classes = PicardSolve.classes[:3]

    def run(self, k):
        out = super().run(k)
        if k == 0:
            return replace(out, solution=2.0 * out.solution)
        if k == 1:
            raise FloatingPointError("injected")
        return out


def test_measure_counts_failed_checks_and_raising_tasks():
    m = run.measure(_CorruptFirstClass(seed=2), seconds=0, speed=run.HostSpeed(), min_cycles=2)
    assert (m.attempted, m.failed) == (6, 4)
    assert m.task_ok == [False, False, True] * 2
    metrics, _ = run.end_to_end(m, 90.0, setup_s=1.0, peak_rss_mb=1.0)
    assert metrics["failed_frac"]["value"] == pytest.approx(4 / 6)


class _HalfSpeedHost(run.HostSpeed):
    """Reference units that take twice the reference time, then 4/3 of it."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def units_after(self, task_ms, kind):
        if kind == "large":
            return [run.REFERENCE_UNIT_MS[kind]]
        self.calls += 1
        slow = 2.0 if self.calls <= 2 else 4.0 / 3.0
        return [slow * run.REFERENCE_UNIT_MS[kind]] * 3


def test_task_times_are_scaled_by_the_units_around_them():
    m = run.measure(PicardSolve(seed=2), seconds=0, speed=_HalfSpeedHost(), min_cycles=1)
    # the first task has units at twice the reference time on both sides,
    # the second 2 before and 4/3 after it, the rest 4/3 on both sides
    assert m.factor[:3] == pytest.approx([0.5, 0.6, 0.75])
    assert m.scaled_ms[1] == pytest.approx(0.6 * m.task_ms[1])
    metrics, _ = run.end_to_end(m, 90.0, setup_s=1.0, peak_rss_mb=1.0)
    assert metrics["tasks_per_s"]["value"] == pytest.approx(
        m.attempted / (sum(m.scaled_ms) / 1e3)
    )


def test_mean_unit_caps_interrupted_units():
    assert run.mean_unit_ms([1.0, 3.0]) == pytest.approx(2.0)
    # median 1, so the interrupted 10 ms unit counts as 2 ms
    assert run.mean_unit_ms([1.0, 1.0, 1.0, 10.0]) == pytest.approx(1.25)


def _span(span_id, parent, name, start, end, task=0):
    return tr.Span(span_id, parent, task, name, start, end)


def test_self_time_of_synthetic_nested_trace():
    spans = [
        _span(0, -1, "solver.solve_fixed_point", 0, 100),
        _span(1, 0, "transformers.apply", 10, 40),
        _span(2, 1, "qft.qft", 12, 20),
        _span(3, 1, "qft.iqft", 25, 35),
        _span(4, 0, "spaces.barron_norm", 50, 90),
        _span(5, 4, "qft.qft", 55, 70),
        # a child sticking out of its parent only covers the overlap
        _span(6, 4, "qft.qft", 85, 95),
    ]
    assert tr.self_times_ns(spans) == {0: 30, 1: 12, 2: 8, 3: 10, 4: 20, 5: 15, 6: 10}


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, -1, "cli.main", 0, 100),
        _span(1, 0, "qft.qft", 10, 50),
        _span(2, 0, "qft.iqft", 30, 60),
    ]
    assert tr.self_times_ns(spans)[0] == 50


def test_per_layer_metrics_of_synthetic_trace():
    ms = 1_000_000
    spans = [
        _span(0, -1, "weyl.weyl_stack", 0, 5 * ms, task=tr.SETUP_TASK),
        _span(1, -1, "solver.solve_fixed_point", 0, 10 * ms, task=0),
        _span(2, 1, "qft.qft", 1 * ms, 2 * ms, task=0),
        _span(3, 1, "qft.iqft", 3 * ms, 4 * ms, task=0),
        _span(4, 1, "spaces.barron_norm", 5 * ms, 8 * ms, task=0),
        _span(5, 4, "qft.qft", 6 * ms, 7 * ms, task=0),
        _span(6, -1, "qft.qft", 0, 4 * ms, task=1),
        _span(7, -1, "qft.qft", 0, 9 * ms, task=tr.CHECK_TASK),
    ]
    metrics = tr.per_layer_metrics(
        spans, tasks=2, qft_calls_new={0: [2, 2], 1: [1, 1], tr.CHECK_TASK: [1, 1]},
        solve_iterations={0: [2]},
    )
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["qft.qft.calls_per_task"] == 1.5
    assert value["qft.qft.self_ms_per_task"] == pytest.approx(3.0)
    assert value["solver.solve_fixed_point.self_ms_per_task"] == pytest.approx(2.5)
    assert value["spaces.barron_norm.self_ms_per_task"] == pytest.approx(1.0)
    assert value["solver.iterations_per_solve"] == 2
    assert value["solver.transforms_per_iteration"] == 1.5
    assert value["qft.distinct_input_frac"] == 1.0
    assert value["weyl.weyl_stack.setup_ms"] == pytest.approx(5.0)
    assert value["weyl.weyl_stack.calls_per_task"] == 0.0


def test_tracer_records_nested_calls_and_restores_the_package():
    original = sb.qft
    system = sb.WeylSystem(sb.make_group([4]))
    gamma = sb.gamma_euclid(system.group)
    t = np.eye(4)
    tracer = tr.Tracer()
    tracer.install()
    try:
        tracer.task = 0
        sb.barron_norm(system, t, 0.0, gamma)
        sb.barron_norm(system, t, 1.0, gamma)
    finally:
        tracer.uninstall()
    assert sb.qft is original
    spans = [s for s in tracer.spans() if s.name != tr.FINGERPRINT]
    names = {s.span_id: s.name for s in spans}
    assert [(s.name, names.get(s.parent)) for s in spans[:3]] == [
        ("spaces.barron_norm", None),
        ("qft.qft", "spaces.barron_norm"),
        ("qft.qft_fast", "qft.qft"),
    ]
    metrics = tracer.per_layer_metrics(tasks=1)
    assert metrics["qft.distinct_input_frac"]["value"] == 0.5


def test_percentile_matches_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    for p in (0.0, 50.0, 90.0, 100.0):
        assert run.percentile(values, p) == pytest.approx(np.percentile(values, p))


def test_refuses_to_run_without_library_sources(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(run.BenchmarkError):
        run.load_library()

"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import math
import time

import numpy as np

from specbarron import (
    RandomSpec,
    SolveConfig,
    WeightFunction,
    WeylSystem,
    apply,
    barron_norm,
    gamma_euclid,
    iqft,
    make_group,
    operator_norm,
    peetre_check,
    q_isometry_pair,
    q_power,
    qft,
    qft_fast,
    qft_naive,
    random_operator,
    resolvent_apply,
    schatten_norm,
    sobolev_norm,
    solve_direct,
    solve_fixed_point,
    twisted_convolution,
)
from specbarron import cli

from .reference import ref_twisted_convolution


def _draw(factors, seed, target=None):
    return random_operator(
        RandomSpec(seed=seed, factors=tuple(factors), target_b0_norm=target)
    )


def _report(number, label, ok, detail):
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({label}): {detail}"


def test_criterion_1_transform_correctness():
    sizes = {2: [2], 3: [3], 4: [4], 6: [2, 3], 8: [8], 16: [16]}
    start = time.perf_counter()
    worst = 0.0
    for n, factors in sizes.items():
        system = WeylSystem(make_group(factors))
        for k in range(50):
            t = _draw(factors, seed=10_000 * n + k)
            f = qft(system, t)
            worst = max(worst, float(np.max(np.abs(iqft(system, f) - t))))
            plancherel = abs(
                system.group.haar_weight * math.fsum(np.abs(f.values) ** 2)
                - schatten_norm(t, 2.0) ** 2
            )
            worst = max(worst, plancherel / max(1.0, schatten_norm(t, 2.0) ** 2))
            if k < 10:
                s = _draw(factors, seed=20_000 * n + k)
                combo = qft(system, (0.7 - 0.2j) * t + (1.1 + 0.5j) * s).values
                split = (0.7 - 0.2j) * f.values + (1.1 + 0.5j) * qft(system, s).values
                worst = max(worst, float(np.max(np.abs(combo - split))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(1, "transform-correctness", ok, f"max err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_convolution_theorem():
    worst = 0.0
    pairs = 0
    for factors in ([2], [3], [4], [2, 3], [9]):
        system = WeylSystem(make_group(factors))
        n = system.group.dim_h
        for k in range(10):
            s = _draw(factors, seed=30_000 * n + k)
            t = _draw(factors, seed=40_000 * n + k)
            fs, ft = qft(system, s), qft(system, t)
            lhs = qft(system, s @ t).values
            rhs = twisted_convolution(system, fs, ft).values
            # the brute-force kernel sum keeps the check from being a round trip
            kernel = ref_twisted_convolution(factors, fs.values, ft.values)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            worst = max(worst, float(np.max(np.abs(kernel - lhs))))
            pairs += 1
    ok = pairs == 50 and worst <= 1e-10
    _report(2, "convolution-theorem", ok, f"{pairs} pairs, max err {worst:.2e}")


def test_criterion_3_barron_theorem_suite():
    s_grid = (0.0, 0.5, 1.0, 2.0)
    violations = 0
    checks = 0

    def tally(condition):
        nonlocal violations, checks
        checks += 1
        if not condition:
            violations += 1

    for n in (2, 4, 8):
        factors = [n]
        system = WeylSystem(make_group(factors))
        gamma = gamma_euclid(system.group)
        haar = system.group.haar_weight
        w2 = 1.0 + gamma.values**2
        for k in range(100):
            t = _draw(factors, seed=50_000 * n + k)
            other = _draw(factors, seed=60_000 * n + k)
            norms = {s: barron_norm(system, t, s, gamma) for s in s_grid}

            for lo, hi in zip(s_grid, s_grid[1:]):
                tally(norms[lo] <= norms[hi] + 1e-12)

            for alpha_mix in (0.25, 0.5, 0.75):
                s_mid = (1 - alpha_mix) * 2.0
                bound = norms[0.0] ** alpha_mix * norms[2.0] ** (1 - alpha_mix)
                tally(barron_norm(system, t, s_mid, gamma) <= bound * (1 + 1e-10))

            tally(operator_norm(t) <= norms[0.0] + 1e-12)

            for s in s_grid:
                lhs, rhs = q_isometry_pair(system, t, s, gamma)
                tally(abs(lhs - rhs) <= 1e-10 * max(1.0, rhs))
                out = apply(system, q_power(gamma, s), t)
                tally(operator_norm(out) <= barron_norm(system, t, 2 * s, gamma) + 1e-12)

            for s in (0.0, 1.0, 2.0):
                lhs = barron_norm(system, other @ t, s, gamma)
                bound = (
                    2 ** (s / 2)
                    * barron_norm(system, other, s, gamma)
                    * barron_norm(system, t, s, gamma)
                )
                tally(lhs <= bound * (1 + 1e-10))

            for s, t_ord in ((0.0, 2.0), (1.0, 2.0)):
                const = math.fsum(haar * np.power(w2, s - t_ord)) ** 0.5
                tally(
                    norms[s]
                    <= const * sobolev_norm(system, t, t_ord, gamma) * (1 + 1e-10)
                )

            for alpha in (0.5, 1.0, 2.0):
                resolved = resolvent_apply(system, t, alpha, gamma)
                for s in (0.0, 1.0, 2.0):
                    tally(
                        barron_norm(system, resolved, s, gamma)
                        <= norms[s] / alpha * (1 + 1e-10)
                    )
    ok = violations == 0
    _report(3, "barron-theorem-suite", ok, f"{checks} checks, {violations} violations")


def test_criterion_4_peetre_gate():
    start = time.perf_counter()
    constants = {}
    for n in range(2, 17):
        check = peetre_check(gamma_euclid(make_group([n])))
        constants[n] = check.constant
        if not check.satisfied:
            _report(4, "peetre-gate", False, f"euclid weight failed at n={n}")
    group = make_group([4])
    values = np.zeros(group.phase_card)
    values[0] = 1e6
    adversarial = peetre_check(WeightFunction(group, values))
    elapsed = time.perf_counter() - start
    ok = (
        max(constants.values()) <= 2.0
        and not adversarial.satisfied
        and elapsed < 30.0
    )
    _report(
        4,
        "peetre-gate",
        ok,
        f"max euclid constant {max(constants.values()):.4f}, "
        f"adversarial {adversarial.constant:.2e}, {elapsed:.2f}s",
    )


def test_criterion_5_solver():
    tol = 1e-10
    runs = 0
    worst_gap = 0.0
    for n in (2, 3, 4):
        factors = [n]
        system = WeylSystem(make_group(factors))
        gamma = gamma_euclid(system.group)
        for q_target in (0.25, 0.5, 0.9):
            for k in range(20):
                seed = 70_000 * n + int(q_target * 100) * 100 + k
                v = _draw(factors, seed=seed, target=q_target)
                t = _draw(factors, seed=seed + 50, target=1.0)
                result = solve_fixed_point(
                    system, v, t, gamma,
                    SolveConfig(tolerance=tol, record_history=True),
                )
                assert result.converged, f"no convergence at n={n} q={q_target} k={k}"
                q = result.q
                first = result.history[0].step_b0
                budget = math.ceil(math.log(tol * (1 - q) / first) / math.log(q)) + 1
                assert result.iterations <= budget, (
                    f"iterations {result.iterations} > budget {budget}"
                )
                assert result.b2_norm_of_solution <= (1 + 1e-8) / (1 - q)
                assert result.residual_b0 <= 1e-8
                direct = solve_direct(system, v, t, gamma)
                gap = barron_norm(system, result.solution - direct, 0.0, gamma)
                worst_gap = max(worst_gap, gap)
                assert gap <= 1e-8
                runs += 1
    ok = runs == 180
    _report(5, "solver", ok, f"{runs} runs, worst method gap {worst_gap:.2e}")


def test_criterion_6_fast_transform_performance():
    n = 128
    system = WeylSystem(make_group([n]))
    t = _draw([n], seed=90_001)
    fast = qft_fast(system, t)
    naive = qft_naive(system, t)
    deviation = float(np.max(np.abs(fast.values - naive.values)))

    def best(fn, reps):
        times = []
        for _ in range(reps):
            tic = time.perf_counter()
            fn()
            times.append(time.perf_counter() - tic)
        return min(times)

    fast_s = best(lambda: qft_fast(system, t), reps=5)
    naive_s = best(lambda: qft_naive(system, t), reps=2)
    speedup = naive_s / fast_s
    ok = deviation <= 1e-10 and speedup >= 5.0
    _report(
        6,
        "fast-transform-performance",
        ok,
        f"n={n}, deviation {deviation:.2e}, speedup {speedup:.1f}x",
    )


def test_criterion_7_verify_determinism(capsys):
    args = ["--seed", "424242", "verify", "--n", "2", "--trials", "50"]
    code1 = cli.main(args)
    out1 = capsys.readouterr().out
    code2 = cli.main(args)
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1.encode() == out2.encode()
    with capsys.disabled():
        _report(7, "verify-determinism", ok, f"exit {code1}/{code2}, {len(out1)} bytes")

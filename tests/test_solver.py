import math

import numpy as np
import pytest

from specbarron import (
    DimensionMismatchError,
    NonFiniteInputError,
    NotAContractionError,
    SingularSystemError,
    SolveConfig,
    WeylSystem,
    apply,
    barron_norm,
    contraction_factor,
    equation_matrix,
    gamma_euclid,
    make_group,
    q_power,
    resolvent_apply,
    solve_direct,
    solve_fixed_point,
)

from .conftest import gaussian, max_abs
from .reference import ref_equation_matrix


def _setup(factors):
    system = WeylSystem(make_group(factors))
    return system, gamma_euclid(system.group)


def _residual_b0(system, gamma, v, t, s):
    residual = apply(system, q_power(gamma, 1.0), s) + v @ s - t
    return barron_norm(system, residual, 0.0, gamma)


def test_zero_potential_converges_in_one_step(system4):
    gamma = gamma_euclid(system4.group)
    t = gaussian([4], seed=70)
    result = solve_fixed_point(system4, np.zeros((4, 4)), t, gamma)
    assert result.converged
    assert result.iterations == 1
    assert max_abs(result.solution - resolvent_apply(system4, t, 1.0, gamma)) < 1e-12
    assert result.residual_b0 <= 1e-12


def test_zero_target_gives_zero_solution(system4):
    gamma = gamma_euclid(system4.group)
    v = gaussian([4], seed=71, target=0.7)
    result = solve_fixed_point(system4, v, np.zeros((4, 4)), gamma)
    assert result.converged
    assert max_abs(result.solution) < 1e-12


def test_contraction_factor_examples(system4):
    gamma = gamma_euclid(system4.group)
    assert contraction_factor(system4, np.zeros((4, 4)), gamma) == 0.0
    u = system4.operator(system4.group.point((1,), (2,)))
    assert contraction_factor(system4, 0.3 * u, gamma) == pytest.approx(0.3, rel=1e-12)
    assert contraction_factor(system4, -0.6 * np.eye(4), gamma) == pytest.approx(0.6, rel=1e-12)


def test_not_a_contraction_raises(system4):
    gamma = gamma_euclid(system4.group)
    v = gaussian([4], seed=72, target=1.2)
    t = gaussian([4], seed=73)
    with pytest.raises(NotAContractionError):
        solve_fixed_point(system4, v, t, gamma)


def test_seeded_instance_with_q_half(system4):
    gamma = gamma_euclid(system4.group)
    v = gaussian([4], seed=74, target=0.5)
    t = gaussian([4], seed=75, target=1.0)
    tol = 1e-10
    result = solve_fixed_point(
        system4, v, t, gamma, SolveConfig(tolerance=tol, record_history=True)
    )
    assert result.converged
    q = result.q
    assert q == pytest.approx(0.5, rel=1e-12)
    assert result.b2_norm_of_solution <= 2.0 * (1 + 1e-8)
    first_step = result.history[0].step_b0
    budget = math.ceil(math.log(tol * (1 - q) / first_step) / math.log(q)) + 1
    assert result.iterations <= budget
    assert result.residual_b0 <= tol * (1 + q)


def test_contraction_step_inequality(system4):
    gamma = gamma_euclid(system4.group)
    v = gaussian([4], seed=76, target=0.8)
    t = gaussian([4], seed=77)
    q = contraction_factor(system4, v, gamma)
    for k in range(5):
        x = gaussian([4], seed=780 + k)
        y = gaussian([4], seed=785 + k)
        ex = resolvent_apply(system4, t - v @ x, 1.0, gamma)
        ey = resolvent_apply(system4, t - v @ y, 1.0, gamma)
        lhs = barron_norm(system4, ex - ey, 0.0, gamma)
        rhs = q * barron_norm(system4, x - y, 0.0, gamma)
        assert lhs <= rhs * (1 + 1e-10)


def test_uniqueness_across_initial_guesses(system4):
    gamma = gamma_euclid(system4.group)
    v = gaussian([4], seed=79, target=0.5)
    t = gaussian([4], seed=80, target=1.0)
    tol = 1e-12
    a = solve_fixed_point(system4, v, t, gamma, SolveConfig(tolerance=tol))
    b = solve_fixed_point(
        system4, v, t, gamma,
        SolveConfig(tolerance=tol, initial_guess=10.0 * gaussian([4], seed=81)),
    )
    assert a.converged and b.converged
    gap = barron_norm(system4, a.solution - b.solution, 0.0, gamma)
    assert gap <= 2.0 * tol / (1.0 - a.q)


@pytest.mark.parametrize("factors", [[2], [3], [4]])
def test_fixed_point_agrees_with_direct(factors):
    system, gamma = _setup(factors)
    for k in range(20):
        v = gaussian(factors, seed=8200 + k, target=0.5)
        t = gaussian(factors, seed=8300 + k, target=1.0)
        fixed = solve_fixed_point(system, v, t, gamma, SolveConfig(tolerance=1e-10))
        direct = solve_direct(system, v, t, gamma)
        assert fixed.converged
        assert barron_norm(system, fixed.solution - direct, 0.0, gamma) <= 1e-8


def test_direct_matches_resolvent_for_zero_potential(system4):
    gamma = gamma_euclid(system4.group)
    t = gaussian([4], seed=84)
    direct = solve_direct(system4, np.zeros((4, 4)), t, gamma)
    assert max_abs(direct - resolvent_apply(system4, t, 1.0, gamma)) < 1e-10


def test_direct_handles_noncontractive_potential(system4):
    """The unit-ball condition is sufficient for the iteration, not necessary
    for solvability: this potential has B0 norm 1.5 and still solves."""
    gamma = gamma_euclid(system4.group)
    v = 1.5 * system4.operator(system4.group.point((1,), (1,)))
    assert contraction_factor(system4, v, gamma) == pytest.approx(1.5, rel=1e-12)
    t = gaussian([4], seed=85, target=1.0)
    with pytest.raises(NotAContractionError):
        solve_fixed_point(system4, v, t, gamma)
    solution = solve_direct(system4, v, t, gamma)
    assert _residual_b0(system4, gamma, v, t, solution) <= 1e-8


@pytest.mark.parametrize(
    "factors", [(2,), (3,), (2, 3), (2, 2, 2), (4, 4)], ids=lambda f: "x".join(map(str, f))
)
def test_equation_matrix_matches_reference(factors):
    system, gamma = _setup(factors)
    v = gaussian(factors, seed=94)
    expected = ref_equation_matrix(factors, v, 1.0 + gamma.values ** 2)
    assert max_abs(equation_matrix(system, v, gamma) - expected) <= 1e-12


def test_direct_above_dimension_32():
    system, gamma = _setup([33])
    v = gaussian([33], seed=95, target=0.5)
    t = gaussian([33], seed=96, target=1.0)
    direct = solve_direct(system, v, t, gamma)
    assert _residual_b0(system, gamma, v, t, direct) <= 1e-8
    fixed = solve_fixed_point(system, v, t, gamma, SolveConfig(tolerance=1e-10))
    assert fixed.converged
    assert barron_norm(system, fixed.solution - direct, 0.0, gamma) <= 1e-8


def test_direct_reports_singular_systems(system2):
    """V = -I cancels the unit symbol at the origin, so (Q + V.) kills I."""
    gamma = gamma_euclid(system2.group)
    mat = equation_matrix(system2, -np.eye(2), gamma)
    assert np.linalg.matrix_rank(mat) < 4
    with pytest.raises(SingularSystemError) as err:
        solve_direct(system2, -np.eye(2), np.eye(2), gamma)
    assert err.value.condition is None or err.value.condition > 1e8


def test_max_iterations_returns_partial_result(system4):
    gamma = gamma_euclid(system4.group)
    v = gaussian([4], seed=86, target=0.9)
    t = gaussian([4], seed=87, target=1.0)
    result = solve_fixed_point(
        system4, v, t, gamma, SolveConfig(tolerance=1e-12, max_iterations=3)
    )
    assert not result.converged
    assert result.iterations == 3
    assert result.aposteriori_bound > 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolveConfig(max_iterations=0)


def test_residual_is_step_in_b2(system4):
    """The B0 residual of the returned iterate equals the next step's B2 size,
    so it is bounded by tolerance * (1 - q) at the stopping point."""
    gamma = gamma_euclid(system4.group)
    v = gaussian([4], seed=88, target=0.25)
    t = gaussian([4], seed=89, target=1.0)
    tol = 1e-10
    result = solve_fixed_point(system4, v, t, gamma, SolveConfig(tolerance=tol))
    assert result.residual_b0 <= tol * (1 - result.q) * (1 + 1e-6)


@pytest.mark.parametrize("solve", [solve_fixed_point, solve_direct])
def test_non_finite_potential_fails_at_entry(system4, solve):
    """A NaN in V must fail at entry, not make q NaN and iterate to the limit."""
    gamma = gamma_euclid(system4.group)
    v = gaussian([4], seed=90, target=0.5)
    v[1, 2] = np.nan
    with pytest.raises(NonFiniteInputError, match="^v "):
        solve(system4, v, gaussian([4], seed=91), gamma)


def test_initial_guess_shape_is_checked(system4):
    """A length-4 initial guess must not be broadcast to 4 x 4."""
    gamma = gamma_euclid(system4.group)
    v = gaussian([4], seed=92, target=0.5)
    t = gaussian([4], seed=93)
    with pytest.raises(DimensionMismatchError, match="initial_guess"):
        solve_fixed_point(system4, v, t, gamma, SolveConfig(initial_guess=np.ones(4)))


def test_direct_rejects_wrong_target_shape(system4):
    gamma = gamma_euclid(system4.group)
    with pytest.raises(DimensionMismatchError, match="^t: "):
        solve_direct(system4, np.zeros((4, 4)), np.eye(3), gamma)

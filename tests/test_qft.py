import numpy as np
import pytest

from specbarron import (
    DimensionMismatchError,
    GroupMismatchError,
    PhaseFunction,
    WeylSystem,
    iqft,
    make_group,
    operator_norm,
    qft,
    qft_fast,
    qft_naive,
    schatten_norm,
    twisted_convolution,
)

from .conftest import gaussian, max_abs
from .reference import ref_qft


def test_transform_of_identity(system2):
    values = qft_naive(system2, np.eye(2)).values
    np.testing.assert_allclose(values, [2, 0, 0, 0], atol=1e-14)


@pytest.mark.parametrize("factors", [[2], [3], [4]])
def test_transform_of_weyl_operator_is_point_mass(factors):
    system = WeylSystem(make_group(factors))
    g = system.group
    n = g.dim_h
    for eta in g.points():
        values = qft_naive(system, system.operator(eta)).values
        expected = np.zeros(g.phase_card)
        expected[g.index_of(eta)] = n
        assert max_abs(values - expected) < 1e-10


def test_transform_of_rank_one_projection(system2):
    proj = np.zeros((2, 2), dtype=complex)
    proj[0, 0] = 1.0
    values = qft_naive(system2, proj).values
    np.testing.assert_allclose(values, [1, 1, 0, 0], atol=1e-14)


@pytest.mark.parametrize("factors", [[2], [3], [4], [2, 3], [2, 2, 2]])
def test_naive_matches_trace_loop_reference(factors):
    system = WeylSystem(make_group(factors))
    t = gaussian(factors, seed=11)
    assert max_abs(qft_naive(system, t).values - ref_qft(factors, t)) < 1e-12


MULTI_FACTOR = [(2, 3), (4, 4), (3, 2, 2), (2, 3, 5), (4, 8), (8, 8)]


@pytest.mark.parametrize(
    "factors",
    [(2,), (3,), (4,), (8,), (16,)] + MULTI_FACTOR,
    ids=lambda factors: "x".join(map(str, factors)),
)
def test_fast_agrees_with_naive(factors):
    system = WeylSystem(make_group(factors))
    n = system.group.dim_h
    for k in range(50):
        t = gaussian(factors, seed=1000 * n + k)
        dev = max_abs(qft_fast(system, t).values - qft_naive(system, t).values)
        assert dev <= 1e-10


def test_fast_trivial_cases(system2):
    np.testing.assert_allclose(qft_fast(system2, np.eye(2)).values, [2, 0, 0, 0], atol=1e-14)
    assert max_abs(qft_fast(system2, np.zeros((2, 2))).values) == 0.0


def test_dimension_mismatch_rejected(system2):
    with pytest.raises(DimensionMismatchError):
        qft_naive(system2, np.eye(3))
    with pytest.raises(DimensionMismatchError):
        qft_fast(system2, np.eye(3))
    with pytest.raises(DimensionMismatchError):
        PhaseFunction(system2.group, np.zeros(5))


@pytest.mark.parametrize("factors", [[2], [5], [8]] + [list(f) for f in MULTI_FACTOR])
def test_inversion_round_trips(factors):
    system = WeylSystem(make_group(factors))
    for k in range(5):
        t = gaussian(factors, seed=300 + k)
        assert max_abs(iqft(system, qft(system, t)) - t) < 1e-12
        f = PhaseFunction(system.group, gaussian(factors, seed=400 + k).reshape(-1))
        assert max_abs(qft(system, iqft(system, f)).values - f.values) < 1e-10


def test_iqft_of_point_mass_is_identity(system2):
    f = np.zeros(4)
    f[0] = 2.0
    np.testing.assert_allclose(iqft(system2, PhaseFunction(system2.group, f)), np.eye(2), atol=1e-14)


@pytest.mark.parametrize("factors", [[3], [4], [2, 2]])
def test_iqft_of_constant_function_is_l1_bounded(factors):
    system = WeylSystem(make_group(factors))
    n = system.group.dim_h
    f = PhaseFunction(system.group, np.ones(system.group.phase_card))
    op = iqft(system, f)
    expected = system.group.haar_weight * sum(
        system.operator(p) for p in system.group.points()
    )
    assert max_abs(op - expected) < 1e-12
    assert operator_norm(op) <= n + 1e-10  # ||f||_L1 = (1/N) * N^2 * 1


def test_iqft_group_mismatch():
    f = PhaseFunction(make_group([2]), np.zeros(4))
    with pytest.raises(GroupMismatchError):
        iqft(WeylSystem(make_group([3])), f)


def test_linearity(system4):
    s = gaussian([4], seed=21)
    t = gaussian([4], seed=22)
    alpha, beta = 0.3 - 1.1j, 2.5 + 0.4j
    combo = qft(system4, alpha * s + beta * t).values
    split = alpha * qft(system4, s).values + beta * qft(system4, t).values
    assert max_abs(combo - split) < 1e-12


@pytest.mark.parametrize("factors", [[2], [3], [4], [8], [16], [2, 3]])
def test_plancherel(factors):
    system = WeylSystem(make_group(factors))
    t = gaussian(factors, seed=77)
    lhs = system.group.haar_weight * np.sum(np.abs(qft(system, t).values) ** 2)
    rhs = schatten_norm(t, 2) ** 2
    assert abs(lhs - rhs) <= 1e-10 * rhs


def test_convolution_identity_element(system4):
    g = system4.group
    delta = np.zeros(g.phase_card)
    delta[0] = g.dim_h
    f = PhaseFunction(g, delta)
    other = PhaseFunction(g, gaussian([4], seed=31).reshape(-1))
    out = twisted_convolution(system4, f, other)
    assert max_abs(out.values - other.values) < 1e-12
    zero = PhaseFunction(g, np.zeros(g.phase_card))
    assert max_abs(twisted_convolution(system4, zero, zero).values) == 0.0


@pytest.mark.parametrize("factors", [[2], [3], [2, 3], [9]])
def test_convolution_theorem(factors):
    system = WeylSystem(make_group(factors))
    for k in range(5):
        s = gaussian(factors, seed=500 + k)
        t = gaussian(factors, seed=600 + k)
        lhs = qft(system, s @ t).values
        rhs = twisted_convolution(system, qft(system, s), qft(system, t)).values
        assert max_abs(lhs - rhs) <= 1e-10


def test_twist_kernel_argument_order_is_pinned():
    """m(xi - eta, eta) reproduces composition; the swapped kernel does not."""
    system = WeylSystem(make_group([3]))
    g = system.group
    s = gaussian([3], seed=41)
    t = gaussian([3], seed=42)
    fs, ft = qft(system, s).values, qft(system, t).values
    target = qft(system, s @ t).values

    pts = list(g.points())
    chosen = np.zeros(g.phase_card, dtype=complex)
    swapped = np.zeros(g.phase_card, dtype=complex)
    for i, xi in enumerate(pts):
        for j, eta in enumerate(pts):
            diff = g.sub(xi, eta)
            term = fs[g.index_of(diff)] * ft[j]
            chosen[i] += term * system.multiplier(diff, eta)
            swapped[i] += term * system.multiplier(eta, diff)
    chosen *= g.haar_weight
    swapped *= g.haar_weight
    assert max_abs(chosen - target) < 1e-12
    assert max_abs(swapped - target) > 1e-3


def test_convolution_group_mismatch(system2):
    f = PhaseFunction(make_group([3]), np.zeros(9))
    ok = PhaseFunction(system2.group, np.zeros(4))
    with pytest.raises(GroupMismatchError):
        twisted_convolution(system2, f, ok)


def test_phase_function_values_are_frozen(system2):
    f = qft(system2, np.eye(2))
    with pytest.raises(ValueError):
        f.values[0] = 0.0

import math

import numpy as np
import pytest

from specbarron import (
    PhaseFunction,
    WeightFunction,
    WeylSystem,
    barron_norm,
    gamma_euclid,
    iqft,
    make_group,
    operator_norm,
    peetre_check,
    qft,
    schatten_norm,
    sobolev_norm,
)
from specbarron.spaces import SINGULAR_VALUE_CUTOFF

from .conftest import gaussian
from .reference import ref_barron, ref_gamma_euclid

S_GRID = (0.0, 0.5, 1.0, 2.0)


def _setup(factors):
    system = WeylSystem(make_group(factors))
    return system, gamma_euclid(system.group)


def test_gamma_euclid_values():
    g2 = make_group([2])
    w = gamma_euclid(g2)
    assert w.values[g2.index_of(g2.zero())] == 0.0
    assert w.values[g2.index_of(g2.point((0,), (1,)))] == 1.0
    g4 = make_group([4])
    w4 = gamma_euclid(g4)
    assert w4.values[g4.index_of(g4.point((3,), (3,)))] == pytest.approx(math.sqrt(2))


@pytest.mark.parametrize("factors", [[2], [4], [2, 3]])
def test_gamma_euclid_matches_reference(factors):
    w = gamma_euclid(make_group(factors))
    np.testing.assert_allclose(w.values, ref_gamma_euclid(factors), atol=1e-14)


def test_weight_function_validation(system2):
    with pytest.raises(ValueError):
        WeightFunction(system2.group, np.array([1.0, -0.5, 0.0, 0.0]))
    with pytest.raises(ValueError):
        WeightFunction(system2.group, np.array([1.0, np.inf, 0.0, 0.0]))


@pytest.mark.parametrize("s", S_GRID)
def test_barron_of_identity_is_one(system4, s):
    assert barron_norm(system4, np.eye(4), s, gamma_euclid(system4.group)) == pytest.approx(
        1.0, abs=1e-14
    )


def test_barron_of_weyl_operator(system4):
    gamma = gamma_euclid(system4.group)
    for eta in system4.group.points():
        u = system4.operator(eta)
        assert barron_norm(system4, u, 0.0, gamma) == pytest.approx(1.0, abs=1e-12)


def test_barron_of_rank_one_projection(system2):
    gamma = gamma_euclid(system2.group)
    proj = np.zeros((2, 2), dtype=complex)
    proj[0, 0] = 1.0
    assert barron_norm(system2, proj, 0.0, gamma) == pytest.approx(1.0, abs=1e-14)
    expected = (1.0 + math.sqrt(2.0)) / 2.0  # 1.2071067811865476
    assert barron_norm(system2, proj, 1.0, gamma) == pytest.approx(expected, abs=1e-14)
    assert ref_barron([2], proj, 1.0) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("factors", [[2], [3], [2, 3]])
def test_barron_matches_reference_on_random_input(factors):
    system, gamma = _setup(factors)
    t = gaussian(factors, seed=9)
    for s in S_GRID:
        assert barron_norm(system, t, s, gamma) == pytest.approx(
            ref_barron(factors, t, s), rel=1e-12
        )


def test_sobolev_examples(system2):
    gamma = gamma_euclid(system2.group)
    for s in S_GRID:
        assert sobolev_norm(system2, np.eye(2), s, gamma) == pytest.approx(math.sqrt(2))
    assert sobolev_norm(system2, np.zeros((2, 2)), 1.0, gamma) == 0.0


@pytest.mark.parametrize("factors", [[3], [4], [2, 3]])
def test_sobolev_at_zero_is_hilbert_schmidt(factors):
    system, gamma = _setup(factors)
    t = gaussian(factors, seed=13)
    assert sobolev_norm(system, t, 0.0, gamma) == pytest.approx(
        schatten_norm(t, 2.0), rel=1e-12
    )


def test_negative_s_rejected(system2):
    gamma = gamma_euclid(system2.group)
    with pytest.raises(ValueError):
        barron_norm(system2, np.eye(2), -0.1, gamma)
    with pytest.raises(ValueError):
        sobolev_norm(system2, np.eye(2), -1.0, gamma)


def test_schatten_examples():
    u = WeylSystem(make_group([4])).operator(make_group([4]).point((1,), (2,)))
    assert schatten_norm(u, 2.0) == pytest.approx(2.0)
    d = np.diag([3.0, 4.0])
    assert schatten_norm(d, 1.0) == pytest.approx(7.0)
    assert schatten_norm(d, 2.0) == pytest.approx(5.0)
    assert operator_norm(d) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        schatten_norm(d, 0.5)


def test_schatten_monotone_in_p():
    for k in range(10):
        t = gaussian([4], seed=800 + k)
        s1 = schatten_norm(t, 1.0)
        s2 = schatten_norm(t, 2.0)
        assert operator_norm(t) <= s2 + 1e-12
        assert s2 <= s1 + 1e-12


def test_schatten_ignores_negligible_singular_values():
    t = np.diag([1.0, 1e-15])
    assert schatten_norm(t, 1.0) == pytest.approx(1.0)


@pytest.mark.parametrize("factors", [(2, 3), (4, 8), (64,)], ids=lambda f: "x".join(map(str, f)))
def test_norm_sums_equal_fsum_over_numpy_terms(factors):
    """The norms sum their terms as a list; that must give the bits of fsum over the array."""
    system, gamma = _setup(factors)
    group = system.group
    decades = np.logspace(0.0, -10.0, group.phase_card)
    phases = np.exp(2j * np.pi * np.arange(group.phase_card) / 7)
    operators = [
        gaussian(factors, seed=31),
        iqft(system, PhaseFunction(group, decades * phases)),  # coefficients over 10 decades
        np.diag(np.logspace(0.0, -10.0, group.dim_h)),  # singular values over 10 decades
    ]
    g = gamma.values
    for t in operators:
        coeffs = np.abs(qft(system, t).values)
        for s in S_GRID:
            terms = group.haar_weight * np.power(1.0 + g * g, 0.5 * s) * coeffs
            assert barron_norm(system, t, s, gamma) == math.fsum(terms)
            terms = group.haar_weight * np.power(1.0 + g * g, s) * coeffs * coeffs
            assert sobolev_norm(system, t, s, gamma) == math.fsum(terms) ** 0.5
        sv = np.linalg.svd(np.asarray(t, dtype=complex), compute_uv=False)
        kept = sv[sv > SINGULAR_VALUE_CUTOFF * sv[0]]
        for p in (1.0, 2.0, 3.5):
            assert schatten_norm(t, p) == math.fsum(kept ** p) ** (1.0 / p)


def test_norm_axioms(system4):
    gamma = gamma_euclid(system4.group)
    for k in range(10):
        s_op = gaussian([4], seed=900 + k)
        t_op = gaussian([4], seed=950 + k)
        for s in (0.0, 1.0):
            tri = barron_norm(system4, s_op + t_op, s, gamma)
            assert tri <= barron_norm(system4, s_op, s, gamma) + barron_norm(
                system4, t_op, s, gamma
            ) + 1e-10
            assert barron_norm(system4, (2.0 - 1.5j) * s_op, s, gamma) == pytest.approx(
                abs(2.0 - 1.5j) * barron_norm(system4, s_op, s, gamma), rel=1e-12
            )
    assert barron_norm(system4, np.zeros((4, 4)), 1.0, gamma) == 0.0
    # definiteness: a norm below any tolerance forces a negligible operator
    tiny = 1e-14 * gaussian([4], seed=999)
    assert barron_norm(system4, tiny, 0.0, gamma) < 1e-12
    assert operator_norm(tiny) < 1e-12


@pytest.mark.parametrize("factors", [[2], [4], [8]])
def test_monotone_embedding(factors):
    system, gamma = _setup(factors)
    for k in range(10):
        t = gaussian(factors, seed=1100 + k)
        norms = [barron_norm(system, t, s, gamma) for s in S_GRID]
        for lo, hi in zip(norms, norms[1:]):
            assert lo <= hi + 1e-12


@pytest.mark.parametrize("factors", [[2], [4], [8]])
def test_interpolation_inequality(factors):
    system, gamma = _setup(factors)
    r, t_ord = 0.0, 2.0
    for k in range(10):
        t = gaussian(factors, seed=1200 + k)
        for alpha in (0.25, 0.5, 0.75):
            s = alpha * r + (1 - alpha) * t_ord
            lhs = barron_norm(system, t, s, gamma)
            rhs = barron_norm(system, t, r, gamma) ** alpha * barron_norm(
                system, t, t_ord, gamma
            ) ** (1 - alpha)
            assert lhs <= rhs * (1 + 1e-10)


@pytest.mark.parametrize("factors", [[2], [4], [8]])
def test_operator_norm_below_barron(factors):
    system, gamma = _setup(factors)
    for k in range(10):
        t = gaussian(factors, seed=1300 + k)
        assert operator_norm(t) <= barron_norm(system, t, 0.0, gamma) + 1e-12


@pytest.mark.parametrize("factors", [[2], [4], [8]])
def test_submultiplicativity_under_peetre_gate(factors):
    system, gamma = _setup(factors)
    assert peetre_check(gamma).satisfied
    for k in range(10):
        s_op = gaussian(factors, seed=1400 + k)
        t_op = gaussian(factors, seed=1450 + k)
        for s in (0.0, 1.0, 2.0):
            lhs = barron_norm(system, s_op @ t_op, s, gamma)
            rhs = (
                2.0 ** (s / 2.0)
                * barron_norm(system, s_op, s, gamma)
                * barron_norm(system, t_op, s, gamma)
            )
            assert lhs <= rhs * (1 + 1e-10)


@pytest.mark.parametrize("factors", [[2], [4], [8]])
def test_sobolev_embedding_constant(factors):
    system, gamma = _setup(factors)
    haar = system.group.haar_weight
    w2 = 1.0 + gamma.values ** 2
    for k in range(10):
        t = gaussian(factors, seed=1500 + k)
        for s, t_ord in ((0.0, 1.0), (0.0, 2.0), (1.0, 2.0)):
            const = math.fsum(haar * np.power(w2, s - t_ord)) ** 0.5
            lhs = barron_norm(system, t, s, gamma)
            assert lhs <= const * sobolev_norm(system, t, t_ord, gamma) * (1 + 1e-10)


def test_peetre_ratio_at_equal_points_is_small(system4):
    gamma = gamma_euclid(system4.group)
    check = peetre_check(gamma)
    assert check.constant <= 2.0  # the xi = eta ratio is 1/(1 + gamma(0)^2) <= 1


@pytest.mark.parametrize("n", range(2, 9))
def test_peetre_holds_for_euclid_weight(n):
    check = peetre_check(gamma_euclid(make_group([n])))
    assert check.satisfied


def test_peetre_fails_for_adversarial_weight(system2):
    values = np.zeros(4)
    values[0] = 1e6  # huge at the origin, zero elsewhere
    bad = WeightFunction(system2.group, values)
    check = peetre_check(bad)
    assert not check.satisfied
    assert check.constant > 2.0


def test_peetre_constant_is_reproducible():
    gamma = gamma_euclid(make_group([4]))
    first = peetre_check(gamma)
    assert peetre_check(gamma).constant == first.constant


def test_peetre_scan_gate():
    gamma = gamma_euclid(make_group([64]))
    with pytest.raises(ValueError):
        peetre_check(gamma)

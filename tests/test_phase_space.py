import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from specbarron import make_group, symmetric_residue
from specbarron.phase_space import difference_table, point_arrays, ravel_table


@pytest.mark.parametrize(
    "factors, dim, card, weight",
    [([2], 2, 4, 0.5), ([3], 3, 9, 1 / 3), ([2, 3], 6, 36, 1 / 6)],
)
def test_make_group_derived_fields(factors, dim, card, weight):
    g = make_group(factors)
    assert g.dim_h == dim
    assert g.phase_card == card
    assert g.haar_weight == weight


@pytest.mark.parametrize("factors", [[], [1], [0], [2, 1], [-3]])
def test_make_group_rejects_bad_factors(factors):
    with pytest.raises(ValueError):
        make_group(factors)


def test_point_arithmetic_mod4():
    g = make_group([4])
    lam = g.point((1,), (3,))
    mu = g.point((3,), (2,))
    assert g.add(lam, mu) == g.point((0,), (1,))
    assert g.neg(g.point((1,), (0,))) == g.point((3,), (0,))
    assert g.add(lam, g.neg(lam)) == g.zero()


@pytest.mark.parametrize("factors", [[2], [3], [5], [2, 2], [2, 3]])
def test_group_laws_exhaustive(factors):
    g = make_group(factors)
    pts = list(g.points())
    zero = g.zero()
    for lam in pts:
        assert g.add(lam, zero) == lam
        assert g.add(lam, g.neg(lam)) == zero
        for mu in pts:
            assert g.add(lam, mu) == g.add(mu, lam)
    # associativity on a thinner grid to keep the run quick
    for lam in pts[:: max(1, len(pts) // 8)]:
        for mu in pts:
            for nu in pts:
                assert g.add(g.add(lam, mu), nu) == g.add(lam, g.add(mu, nu))


@pytest.mark.parametrize("c, n, expected", [(1, 4, 1), (3, 4, -1), (2, 4, -2), (0, 7, 0)])
def test_symmetric_residue_examples(c, n, expected):
    assert symmetric_residue(c, n) == expected


@pytest.mark.parametrize("n", range(2, 17))
def test_residue_window_and_circular_distance(n):
    lo, hi = -(n // 2), (n + 1) // 2 - 1
    for c in range(n):
        r = symmetric_residue(c, n)
        assert lo <= r <= hi
        assert abs(r) == min(c, n - c)


@pytest.mark.parametrize("n", range(2, 17))
def test_residue_triangle_inequality_exhaustive(n):
    for c in range(n):
        for d in range(n):
            lhs = abs(symmetric_residue((c + d) % n, n))
            assert lhs <= abs(symmetric_residue(c, n)) + abs(symmetric_residue(d, n))


@given(st.integers(), st.integers(min_value=1, max_value=1000))
def test_residue_is_a_residue(c, n):
    assert symmetric_residue(c, n) % n == c % n


def test_residue_rejects_nonpositive_modulus():
    with pytest.raises(ValueError):
        symmetric_residue(1, 0)


@pytest.mark.parametrize("factors", [[2], [4], [2, 3], [3, 2, 2]])
def test_index_point_round_trip(factors):
    g = make_group(factors)
    for i, p in enumerate(g.points()):
        assert g.index_of(p) == i
        assert g.point_at(i) == p
    with pytest.raises(IndexError):
        g.point_at(g.phase_card)


@given(st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=3), st.data())
def test_index_of_inverts_point_at(factors, data):
    g = make_group(factors)
    i = data.draw(st.integers(min_value=0, max_value=g.phase_card - 1))
    assert g.index_of(g.point_at(i)) == i


@pytest.mark.parametrize("factors", [[2], [3], [5], [2, 3]])
def test_dual_mass_normalization(factors):
    g = make_group(factors)
    assert math.fsum(g.haar_weight for _ in g.points()) == float(g.dim_h)


def test_point_arrays_match_enumeration():
    g = make_group([2, 3])
    a, b = point_arrays(g)
    for i, p in enumerate(g.points()):
        assert tuple(a[i]) == p.a
        assert tuple(b[i]) == p.b


@pytest.mark.parametrize("factors", [[3], [2, 2]])
def test_difference_table(factors):
    g = make_group(factors)
    table = difference_table(g)
    pts = list(g.points())
    for i, lam in enumerate(pts):
        for j, mu in enumerate(pts):
            assert table[i, j] == g.index_of(g.sub(lam, mu))


@pytest.mark.parametrize("factors", [[2, 3], [2, 2, 2]])
def test_ravel_table_matches_point_arithmetic(factors):
    g = make_group(factors)
    diff = ravel_table(g.factors * 2, -1)
    total = ravel_table(g.factors * 2, 1)
    pts = list(g.points())
    for i, lam in enumerate(pts):
        for j, mu in enumerate(pts):
            assert diff[i, j] == g.index_of(g.sub(lam, mu))
            assert total[i, j] == g.index_of(g.add(lam, mu))

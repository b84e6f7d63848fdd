import json

import numpy as np
import pytest

from specbarron import (
    PROPERTY_NAMES,
    GroupMismatchError,
    PhaseFunction,
    RandomSpec,
    SplitMix64,
    WeightFunction,
    WeylSystem,
    b0_norm,
    gamma_euclid,
    make_group,
    qft,
    random_operator,
    run_property_suite,
)
from specbarron.oracles import convolution_sum

from .conftest import gaussian, max_abs
from .reference import ref_normals, ref_twisted_convolution


def test_splitmix_known_stream():
    # first outputs for seed 0 of the standard splitmix64 constants
    stream = SplitMix64(0)
    assert stream.next_u64() == 0xE220A8397B1DCDAF
    assert stream.next_u64() == 0x6E789E6AA1B965F4
    assert stream.next_u64() == 0x06C45D188009454F


@pytest.mark.parametrize("count", [1, 2, 7, 2048])
def test_normals_match_scalar_reference(count):
    assert np.array_equal(SplitMix64(99).normals(count), ref_normals(SplitMix64(99), count))


def test_stream_continues_after_normals():
    """normals(7) consumes eight draws; the next integer is the ninth."""
    stream = SplitMix64(5)
    stream.normals(7)
    reference = SplitMix64(5)
    for _ in range(8):
        reference.next_u64()
    assert stream.next_u64() == reference.next_u64()


def test_floats_are_in_unit_interval():
    stream = SplitMix64(123)
    draws = [stream.next_float() for _ in range(1000)]
    assert all(0.0 <= u < 1.0 for u in draws)


def test_same_seed_same_operator():
    spec = RandomSpec(seed=31337, factors=(4,))
    a = random_operator(spec)
    b = random_operator(spec)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = random_operator(RandomSpec(seed=1, factors=(4,)))
    b = random_operator(RandomSpec(seed=2, factors=(4,)))
    assert not np.allclose(a, b)


@pytest.mark.parametrize("target", [0.25, 0.5, 1.0, 3.0])
def test_target_b0_rescaling_is_exact(target):
    system = WeylSystem(make_group([4]))
    t = random_operator(RandomSpec(seed=5, factors=(4,), target_b0_norm=target))
    assert abs(b0_norm(system, t) - target) <= 1e-14 * target


def test_rank_one_has_one_singular_value():
    t = random_operator(RandomSpec(seed=6, factors=(4,), distribution="rank-one"))
    sv = np.linalg.svd(t, compute_uv=False)
    assert sv[0] > 0
    assert np.all(sv[1:] < 1e-12 * sv[0])


def test_hermitian_draw_is_hermitian():
    t = random_operator(RandomSpec(seed=7, factors=(3,), distribution="hermitian"))
    assert np.max(np.abs(t - t.conj().T)) == 0.0


def test_unitary_draw_is_unitary():
    t = random_operator(RandomSpec(seed=8, factors=(5,), distribution="random-unitary"))
    assert np.max(np.abs(t @ t.conj().T - np.eye(5))) < 1e-12


def test_unknown_distribution_rejected():
    with pytest.raises(ValueError):
        RandomSpec(seed=1, factors=(2,), distribution="cauchy")


@pytest.mark.parametrize("factors", [(2,), (3,), (4,), (2, 3), (2, 2, 2)], ids=str)
def test_convolution_sum_matches_reference(factors):
    system = WeylSystem(make_group(factors))
    f = PhaseFunction(system.group, gaussian(factors, seed=73).reshape(-1))
    g = PhaseFunction(system.group, gaussian(factors, seed=74).reshape(-1))
    expected = ref_twisted_convolution(factors, f.values, g.values)
    assert max_abs(convolution_sum(system, f, g).values - expected) <= 1e-12


@pytest.mark.parametrize("factors", [(4, 8), (32,), (33,)], ids=str)
def test_convolution_sum_is_composition(factors):
    """F(S T) = F(S) *_m F(T) at the sizes where the kernel sum has no brute-force check."""
    system = WeylSystem(make_group(factors))
    s = gaussian(factors, seed=75)
    t = gaussian(factors, seed=76)
    out = convolution_sum(system, qft(system, s), qft(system, t)).values
    assert max_abs(out - qft(system, s @ t).values) <= 1e-10


def test_convolution_sum_group_mismatch():
    system = WeylSystem(make_group([2]))
    other = PhaseFunction(make_group([3]), np.zeros(9))
    ok = PhaseFunction(system.group, np.zeros(4))
    with pytest.raises(GroupMismatchError):
        convolution_sum(system, ok, other)


def test_suite_rejects_zero_trials():
    system = WeylSystem(make_group([2]))
    with pytest.raises(ValueError):
        run_property_suite(system, gamma_euclid(system.group), 0, 1)


def test_suite_default_gate_passes():
    system = WeylSystem(make_group([2]))
    report = run_property_suite(system, gamma_euclid(system.group), 50, 20240601)
    assert report.all_pass()
    assert set(report.results) == set(PROPERTY_NAMES)


def test_suite_is_deterministic():
    system = WeylSystem(make_group([2]))
    gamma = gamma_euclid(system.group)
    a = run_property_suite(system, gamma, 5, 17)
    b = run_property_suite(system, gamma, 5, 17)
    assert a.to_json() == b.to_json()


def test_suite_skips_submultiplicativity_behind_peetre_gate():
    system = WeylSystem(make_group([2]))
    values = np.zeros(4)
    values[0] = 1e6
    broken = WeightFunction(system.group, values)
    report = run_property_suite(system, broken, 2, 3)
    entry = report.results["submultiplicativity"]
    assert entry.skipped == "peetre gate"
    assert entry.passed  # skipped, not failed
    assert not report.results["peetre"].passed
    assert not report.all_pass()


def test_report_json_schema():
    system = WeylSystem(make_group([2]))
    report = run_property_suite(system, gamma_euclid(system.group), 2, 9)
    doc = json.loads(report.to_json())
    assert set(doc["properties"]) == set(PROPERTY_NAMES)
    for entry in doc["properties"].values():
        assert {"worst_slack", "tolerance", "pass", "trials"} <= set(entry)

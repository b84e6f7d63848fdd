import json
import math

import numpy as np
import pytest

from specbarron import (
    PROPERTY_NAMES,
    RandomSpec,
    WeylSystem,
    gamma_euclid,
    make_group,
    random_operator,
)
from specbarron import cli


@pytest.fixture
def run(capsys):
    def invoke(args):
        code = cli.main(args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.json"
    cli.write_operator_file(str(path), make_group([2]), np.eye(2))
    return str(path)


def _write_operator(tmp_path, name, factors, matrix):
    path = tmp_path / name
    cli.write_operator_file(str(path), make_group(factors), matrix)
    return str(path)


def test_operator_file_round_trip(tmp_path):
    t = random_operator(RandomSpec(seed=3, factors=(2, 3)))
    path = _write_operator(tmp_path, "op.json", [2, 3], t)
    group, back = cli.read_operator_file(path)
    assert group.factors == (2, 3)
    assert np.array_equal(back, t)


def test_phase_function_file_round_trip(tmp_path):
    from specbarron import qft

    system = WeylSystem(make_group([3]))
    f = qft(system, random_operator(RandomSpec(seed=4, factors=(3,))))
    path = tmp_path / "phase.json"
    cli.write_phase_function_file(str(path), f)
    back = cli.read_phase_function_file(str(path))
    assert back.group == f.group
    assert np.array_equal(back.values, f.values)


def test_qft_command_identity(run, identity_file, tmp_path):
    out_path = str(tmp_path / "phase.json")
    code, _, _ = run(["qft", "--input", identity_file, "--output", out_path])
    assert code == 0
    doc = json.load(open(out_path))
    assert doc["values_re"] == [2.0, 0.0, 0.0, 0.0]
    assert doc["index_order"] == "a-outer-b-inner"


def test_qft_round_trip_through_files(run, tmp_path):
    t = random_operator(RandomSpec(seed=5, factors=(4,)))
    op_path = _write_operator(tmp_path, "op.json", [4], t)
    phase_path = str(tmp_path / "phase.json")
    back_path = str(tmp_path / "back.json")
    assert run(["qft", "--input", op_path, "--output", phase_path])[0] == 0
    assert run(["qft", "--inverse", "--input", phase_path, "--output", back_path])[0] == 0
    _, back = cli.read_operator_file(back_path)
    assert np.max(np.abs(back - t)) <= 1e-10


def test_qft_fast_and_naive_flags_agree(run, tmp_path):
    t = random_operator(RandomSpec(seed=6, factors=(3,)))
    op_path = _write_operator(tmp_path, "op.json", [3], t)
    fast_path = str(tmp_path / "fast.json")
    naive_path = str(tmp_path / "naive.json")
    assert run(["qft", "--input", op_path, "--output", fast_path])[0] == 0
    assert run(["qft", "--input", op_path, "--output", naive_path, "--naive"])[0] == 0
    fast = cli.read_phase_function_file(fast_path)
    naive = cli.read_phase_function_file(naive_path)
    assert np.max(np.abs(fast.values - naive.values)) <= 1e-10


def test_norm_command_identity(run, identity_file):
    code, out, _ = run(["norm", "--input", identity_file, "--norm", "barron", "--s", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 1.0
    assert doc["barron"] == 1.0
    assert doc["op_norm"] == 1.0


def test_norm_command_schatten(run, tmp_path):
    path = _write_operator(tmp_path, "id4.json", [4], np.eye(4))
    code, out, _ = run(["norm", "--input", path, "--norm", "schatten:2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schatten_p"] == 2.0
    assert doc["value"] == 2.0


def test_norm_command_rank_one_barron(run, tmp_path):
    proj = np.zeros((2, 2))
    proj[0, 0] = 1.0
    path = _write_operator(tmp_path, "proj.json", [2], proj)
    code, out, _ = run(["norm", "--input", path, "--norm", "barron", "--s", "1"])
    assert code == 0
    value = json.loads(out)["value"]
    assert abs(value - (1 + math.sqrt(2)) / 2) <= 1e-12


@pytest.mark.parametrize("norm", ["frobenius", "schatten", "schatten:0.5", "--s"])
def test_norm_command_rejects_bad_tags(run, identity_file, norm):
    code, _, err = run(["norm", "--input", identity_file, "--norm", norm])
    assert code == 1
    assert "error" in err


def test_norm_command_rejects_negative_s(run, identity_file):
    code, _, _ = run(["norm", "--input", identity_file, "--norm", "barron", "--s", "-1"])
    assert code == 1


def test_solve_command_zero_potential(run, tmp_path):
    zero_path = _write_operator(tmp_path, "v.json", [2], np.zeros((2, 2)))
    t = random_operator(RandomSpec(seed=7, factors=(2,), target_b0_norm=1.0))
    t_path = _write_operator(tmp_path, "t.json", [2], t)
    out_path = str(tmp_path / "s.json")
    code, out, _ = run(
        ["solve", "--potential", zero_path, "--target", t_path, "--output", out_path]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["iterations"] == 1
    assert doc["q"] == 0.0


def test_solve_command_rejects_large_potential(run, tmp_path):
    v = random_operator(RandomSpec(seed=8, factors=(2,), target_b0_norm=1.2))
    v_path = _write_operator(tmp_path, "v.json", [2], v)
    t_path = _write_operator(tmp_path, "t.json", [2], np.eye(2))
    code, _, err = run(
        ["solve", "--potential", v_path, "--target", t_path,
         "--output", str(tmp_path / "s.json"), "--method", "fixed"]
    )
    assert code == 2
    assert "not in open unit ball" in err


def test_solve_command_both_methods_agree(run, tmp_path):
    v = random_operator(RandomSpec(seed=9, factors=(3,), target_b0_norm=0.5))
    t = random_operator(RandomSpec(seed=10, factors=(3,), target_b0_norm=1.0))
    v_path = _write_operator(tmp_path, "v.json", [3], v)
    t_path = _write_operator(tmp_path, "t.json", [3], t)
    code, out, _ = run(
        ["solve", "--potential", v_path, "--target", t_path,
         "--output", str(tmp_path / "s.json"), "--method", "both"]
    )
    assert code == 0
    assert json.loads(out)["cross_method_b0_discrepancy"] <= 1e-8


def test_solve_command_max_iter_exit(run, tmp_path):
    v = random_operator(RandomSpec(seed=11, factors=(2,), target_b0_norm=0.9))
    t = random_operator(RandomSpec(seed=12, factors=(2,), target_b0_norm=1.0))
    v_path = _write_operator(tmp_path, "v.json", [2], v)
    t_path = _write_operator(tmp_path, "t.json", [2], t)
    code, out, err = run(
        ["solve", "--potential", v_path, "--target", t_path,
         "--output", str(tmp_path / "s.json"), "--max-iter", "2"]
    )
    assert code == 2
    assert json.loads(out)["converged"] is False
    assert "max iterations exceeded" in err


def test_verify_command_passes_and_is_byte_identical(run):
    args = ["--seed", "11", "verify", "--n", "2", "--trials", "5"]
    code1, out1, _ = run(args)
    code2, out2, _ = run(args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert set(doc["properties"]) == set(PROPERTY_NAMES)


def test_verify_command_fails_on_broken_weight(run, tmp_path):
    group = make_group([2])
    weight_path = tmp_path / "weight.json"
    weight_path.write_text(json.dumps({"factors": [2], "values": [1e6, 0, 0, 0]}))
    code, out, _ = run(
        ["verify", "--n", "2", "--trials", "2", "--gamma", str(weight_path)]
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["properties"]["submultiplicativity"]["skipped"] == "peetre gate"
    assert doc["properties"]["peetre"]["pass"] is False


def test_verify_command_multi_factor_size(run):
    code, out, _ = run(["verify", "--n", "2x3", "--trials", "1"])
    assert code == 0
    assert json.loads(out)["factors"] == [2, 3]


def test_verify_above_peetre_scan_limit_skips_peetre(run):
    code, out, _ = run(["verify", "--n", "33", "--trials", "1"])
    assert code == 0
    props = json.loads(out)["properties"]
    assert props["peetre"]["skipped"] == "scan of phase_card^2 pairs; dim 33 exceeds 32"
    assert props["peetre"]["pass"] is True
    assert props["peetre"]["trials"] == 0
    assert props["submultiplicativity"]["skipped"] == "peetre gate"


def test_bench_command_csv(run):
    code, out, _ = run(["bench", "--n-list", "8,16", "--reps", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,naive_ms,fast_ms,speedup"
    assert len(lines) == 3
    for line in lines[1:]:
        n, naive_ms, fast_ms, speedup = line.split(",")
        assert float(naive_ms) > 0 and float(fast_ms) > 0 and float(speedup) > 0


def test_bench_accepts_multi_factor_sizes(run):
    code, out, _ = run(["bench", "--n-list", "2x3,8", "--reps", "1"])
    assert code == 0
    rows = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
    assert rows == ["2x3", "8"]


def test_bench_rejects_bad_sizes(run):
    code, _, err = run(["bench", "--n-list", "2x1", "--reps", "1"])
    assert code == 1
    assert ">= 2" in err


def test_malformed_operator_file_names_field(run, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"factors": [2], "rows": 2, "cols": 2, "re": [1, 0, 0]}')
    code, _, err = run(["qft", "--input", str(bad), "--output", str(tmp_path / "x.json")])
    assert code == 1
    assert "'re'" in err

    bad.write_text('{"factors": [2], "rows": 3, "cols": 2, "re": [], "im": []}')
    code, _, err = run(["qft", "--input", str(bad), "--output", str(tmp_path / "x.json")])
    assert code == 1
    assert "'rows'" in err


def test_usage_errors_exit_one(run):
    assert run(["qft", "--no-such-flag"])[0] == 1
    assert run(["no-such-command"])[0] == 1
    assert run([])[0] == 1


def test_help_exits_zero(run):
    assert run(["--help"])[0] == 0


def test_gamma_file_resolution(tmp_path):
    group = make_group([2])
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps({"factors": [2], "values": [0.0, 1.0, 1.0, 1.5]}))
    weight = cli._resolve_gamma(str(path), group)
    assert list(weight.values) == [0.0, 1.0, 1.0, 1.5]
    euclid = cli._resolve_gamma("euclid", group)
    assert np.array_equal(euclid.values, gamma_euclid(group).values)
    with pytest.raises(cli.CLIError):
        cli._resolve_gamma(str(path), make_group([3]))

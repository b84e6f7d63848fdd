"""Command-line interface: transforms, norms, solves, verification, bench.

Exit codes: 0 success, 1 usage error (bad flags or malformed files),
2 numeric failure (non-convergence, singular system, inadmissible
potential), 3 verification failure.

Operator files are JSON with split real/imaginary parts,

    {"factors": [n1, ...], "rows": N, "cols": N,
     "re": [N*N reals, row-major], "im": [N*N reals, row-major]}

and phase-function files are

    {"factors": [n1, ...], "values_re": [...], "values_im": [...],
     "index_order": "a-outer-b-inner"}

Weight files (for --gamma <path>) are {"factors": [...], "values": [...]}.
All numbers are written with round-trip decimal formatting, so files and
reports are byte-reproducible for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .errors import NotAContractionError, SingularSystemError
from .oracles import RandomSpec, random_operator, run_property_suite
from .phase_space import Group, make_group
from .qft import PhaseFunction, iqft, qft_fast, qft_naive
from .solver import SolveConfig, solve_direct, solve_fixed_point
from .spaces import (
    NormReport,
    WeightFunction,
    barron_norm,
    gamma_euclid,
    operator_norm,
    schatten_norm,
    sobolev_norm,
)
from .transformers import apply, q_power
from .weyl import WeylSystem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3

INDEX_ORDER = "a-outer-b-inner"


class CLIError(Exception):
    def __init__(self, message: str, exit_code: int = EXIT_USAGE):
        super().__init__(message)
        self.exit_code = exit_code


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# -- file formats -----------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CLIError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CLIError(f"{path}: top-level JSON value must be an object")
    return doc


def _field(doc: dict, path: str, name: str):
    if name not in doc:
        raise CLIError(f"{path}: missing field '{name}'")
    return doc[name]


def _float_array(doc: dict, path: str, name: str, size: int) -> np.ndarray:
    raw = _field(doc, path, name)
    try:
        arr = np.asarray(raw, dtype=float).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise CLIError(f"{path}: field '{name}' is not a numeric array") from exc
    if arr.size != size:
        raise CLIError(f"{path}: field '{name}' has {arr.size} entries, expected {size}")
    if not np.all(np.isfinite(arr)):
        raise CLIError(f"{path}: field '{name}' contains non-finite entries")
    return arr


def _group_from(doc: dict, path: str) -> Group:
    factors = _field(doc, path, "factors")
    try:
        return make_group(factors)
    except (TypeError, ValueError) as exc:
        raise CLIError(f"{path}: bad field 'factors': {exc}") from exc


def read_operator_file(path: str) -> tuple[Group, np.ndarray]:
    doc = _load_json(path)
    group = _group_from(doc, path)
    n = group.dim_h
    for name in ("rows", "cols"):
        if _field(doc, path, name) != n:
            raise CLIError(
                f"{path}: field '{name}' is {doc[name]}, expected {n} from 'factors'"
            )
    re = _float_array(doc, path, "re", n * n)
    im = _float_array(doc, path, "im", n * n)
    return group, (re + 1j * im).reshape(n, n)


def write_operator_file(path: str, group: Group, t: np.ndarray) -> None:
    n = group.dim_h
    flat = np.asarray(t, dtype=complex).reshape(-1)
    doc = {
        "factors": list(group.factors),
        "rows": n,
        "cols": n,
        "re": flat.real.tolist(),
        "im": flat.imag.tolist(),
    }
    with open(path, "w") as handle:
        json.dump(doc, handle)
        handle.write("\n")


def read_phase_function_file(path: str) -> PhaseFunction:
    doc = _load_json(path)
    group = _group_from(doc, path)
    order = _field(doc, path, "index_order")
    if order != INDEX_ORDER:
        raise CLIError(f"{path}: field 'index_order' must be '{INDEX_ORDER}', got {order!r}")
    re = _float_array(doc, path, "values_re", group.phase_card)
    im = _float_array(doc, path, "values_im", group.phase_card)
    return PhaseFunction(group, re + 1j * im)


def write_phase_function_file(path: str, f: PhaseFunction) -> None:
    doc = {
        "factors": list(f.group.factors),
        "values_re": f.values.real.tolist(),
        "values_im": f.values.imag.tolist(),
        "index_order": INDEX_ORDER,
    }
    with open(path, "w") as handle:
        json.dump(doc, handle)
        handle.write("\n")


def _resolve_gamma(tag: str, group: Group) -> WeightFunction:
    if tag == "euclid":
        return gamma_euclid(group)
    doc = _load_json(tag)
    wf_group = _group_from(doc, tag)
    if wf_group != group:
        raise CLIError(f"{tag}: weight factors {wf_group.factors} do not match {group.factors}")
    values = _float_array(doc, tag, "values", group.phase_card)
    try:
        return WeightFunction(group, values)
    except ValueError as exc:
        raise CLIError(f"{tag}: bad field 'values': {exc}") from exc


def _sig15(x: float) -> float:
    return float(f"{x:.15g}")


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False))


# -- subcommands ------------------------------------------------------------


def _cmd_qft(args) -> int:
    if args.inverse:
        f = read_phase_function_file(args.input)
        system = WeylSystem(f.group)
        write_operator_file(args.output, f.group, iqft(system, f))
        return EXIT_OK
    group, t = read_operator_file(args.input)
    system = WeylSystem(group)
    transform = qft_naive(system, t) if args.naive else qft_fast(system, t)
    write_phase_function_file(args.output, transform)
    return EXIT_OK


def _cmd_norm(args) -> int:
    group, t = read_operator_file(args.input)
    system = WeylSystem(group)
    gamma = _resolve_gamma(args.gamma, group)
    if args.s < 0:
        raise CLIError(f"--s must be >= 0, got {args.s}")

    kind, _, p_tag = args.norm.partition(":")
    if kind not in ("barron", "sobolev", "schatten", "op") or (
        (kind == "schatten") != bool(p_tag)
    ):
        raise CLIError(f"unknown norm tag {args.norm!r}; use barron|sobolev|schatten:<p>|op")

    schatten_p = schatten = None
    if kind == "schatten":
        try:
            schatten_p = float(p_tag)
        except ValueError:
            raise CLIError(f"bad Schatten order {p_tag!r}") from None
        if schatten_p < 1:
            raise CLIError(f"Schatten order must be >= 1, got {schatten_p}")
        schatten = _sig15(schatten_norm(t, schatten_p))

    report = NormReport(
        source=args.input,
        s=args.s,
        barron=_sig15(barron_norm(system, t, args.s, gamma)),
        sobolev=_sig15(sobolev_norm(system, t, args.s, gamma)),
        op_norm=_sig15(operator_norm(t)),
        schatten_p=schatten_p,
        schatten=schatten,
    )
    doc = {k: v for k, v in vars(report).items() if v is not None}
    selected = {"barron": "barron", "sobolev": "sobolev", "op": "op_norm", "schatten": "schatten"}
    doc["norm"] = args.norm
    doc["value"] = doc[selected[kind]]
    _emit(doc)
    return EXIT_OK


def _solve_result_doc(result, gamma_tag: str) -> dict:
    return {
        "iterations": result.iterations,
        "q": result.q,
        "residual_b0": result.residual_b0,
        "residual_op": result.residual_op,
        "aposteriori_bound": result.aposteriori_bound,
        "apriori_bound_b2": result.apriori_bound_b2,
        "b2_norm_of_solution": result.b2_norm_of_solution,
        "converged": result.converged,
        "gamma": gamma_tag,
    }


def _cmd_solve(args) -> int:
    group_v, v = read_operator_file(args.potential)
    group_t, t = read_operator_file(args.target)
    if group_v != group_t:
        raise CLIError(
            f"potential factors {group_v.factors} do not match target factors {group_t.factors}"
        )
    system = WeylSystem(group_v)
    gamma = _resolve_gamma(args.gamma, group_v)
    config = SolveConfig(tolerance=args.tol, max_iterations=args.max_iter)

    doc: dict = {"method": args.method, "solution_path": args.output}
    solution = None
    if args.method in ("fixed", "both"):
        try:
            result = solve_fixed_point(system, v, t, gamma, config)
        except NotAContractionError as exc:
            raise CLIError(str(exc), EXIT_NUMERIC) from exc
        doc.update(_solve_result_doc(result, args.gamma))
        if not result.converged:
            write_operator_file(args.output, group_v, result.solution)
            _emit(doc)
            print(
                f"max iterations exceeded ({result.iterations}); "
                f"error bound {result.aposteriori_bound:.3e} > tolerance {args.tol:.3e}",
                file=sys.stderr,
            )
            return EXIT_NUMERIC
        solution = result.solution
    if args.method in ("direct", "both"):
        try:
            direct = solve_direct(system, v, t, gamma)
        except SingularSystemError as exc:
            raise CLIError(
                f"direct solve failed: {exc} (condition estimate {exc.condition:.3e})",
                EXIT_NUMERIC,
            ) from exc
        if args.method == "both":
            doc["cross_method_b0_discrepancy"] = barron_norm(
                system, solution - direct, 0.0, gamma
            )
        else:
            solution = direct
            residual = apply(system, q_power(gamma, 1.0), direct) + v @ direct - t
            doc["residual_b0"] = barron_norm(system, residual, 0.0, gamma)
    write_operator_file(args.output, group_v, solution)
    _emit(doc)
    return EXIT_OK


def _parse_group(tag: str) -> Group:
    try:
        factors = tuple(int(part) for part in tag.split("x"))
    except ValueError:
        raise CLIError(f"bad group size {tag!r}; use an integer like 4 or a product like 2x3") from None
    try:
        return make_group(factors)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


def _cmd_verify(args) -> int:
    group = _parse_group(args.n)
    system = WeylSystem(group)
    gamma = _resolve_gamma(args.gamma, group)
    if args.trials < 1:
        raise CLIError(f"--trials must be >= 1, got {args.trials}")
    report = run_property_suite(system, gamma, args.trials, args.seed)
    print(report.to_json())
    return EXIT_OK if report.all_pass() else EXIT_VERIFY


def _cmd_bench(args) -> int:
    tags = [token.strip() for token in args.n_list.split(",")]
    groups = [_parse_group(tag) for tag in tags]
    if args.reps < 1:
        raise CLIError(f"--reps must be >= 1, got {args.reps}")

    lines = ["n,naive_ms,fast_ms,speedup"]
    for tag, group in zip(tags, groups):
        t = random_operator(RandomSpec(seed=args.seed + group.dim_h, factors=group.factors))
        system = WeylSystem(group)
        fast = qft_fast(system, t)
        naive = qft_naive(system, t)
        deviation = float(np.max(np.abs(fast.values - naive.values)))
        if deviation > 1e-10:
            raise CLIError(
                f"fast/naive transforms disagree at n={tag}: max deviation {deviation:.3e}",
                EXIT_NUMERIC,
            )
        naive_ms = _best_ms(lambda: qft_naive(system, t), args.reps)
        fast_ms = _best_ms(lambda: qft_fast(system, t), args.reps)
        lines.append(f"{tag},{naive_ms:.3f},{fast_ms:.3f},{naive_ms / fast_ms:.2f}")
    print("\n".join(lines))
    return EXIT_OK


def _best_ms(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


# -- parser -----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="specbarron", description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="seed for anything randomized")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qft", help="transform an operator file (or invert a phase file)")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--naive", action="store_true", help="use the reference transform")
    p.add_argument("--inverse", action="store_true", help="input is a phase-function file")
    p.set_defaults(func=_cmd_qft)

    p = sub.add_parser("norm", help="print norms of an operator file")
    p.add_argument("--input", required=True)
    p.add_argument("--norm", default="barron", help="barron|sobolev|schatten:<p>|op")
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--gamma", default="euclid", help="'euclid' or a weight-file path")
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("solve", help="solve (I - Laplacian + V) S = T")
    p.add_argument("--potential", required=True, help="operator file for V")
    p.add_argument("--target", required=True, help="operator file for T")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--method", choices=("fixed", "direct", "both"), default="fixed")
    p.add_argument("--gamma", default="euclid")
    p.add_argument("--output", default="solution.json", help="path for the solution operator")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="run the property suite; exit 0 iff all pass")
    p.add_argument("--n", default="2", help="group size: an integer or a product like 2x3")
    p.add_argument("--gamma", default="euclid")
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="time naive vs fast transforms, CSV to stdout")
    p.add_argument("--n-list", default="16,32,64", help="comma-separated group sizes like 16 or 4x8")
    p.add_argument("--reps", type=int, default=3)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse help exits 0, usage errors exit 1
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"specbarron: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:  # bad numeric flags caught by library validation
        print(f"specbarron: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Deterministic random instances and the cross-module property suite.

Randomness comes from a SplitMix64 counter generator so that identical
seeds reproduce identical instances on any platform, independent of any
standard-library RNG.  The update is

    state  <- (state + 0x9E3779B97F4A7C15)          mod 2^64
    z      <- state
    z      <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z      <- (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output <- z XOR (z >> 31)

Doubles in [0, 1) take the top 53 bits, (output >> 11) * 2^-53; normal
variates come from the Box-Muller transform of consecutive doubles, and a
standard complex normal is (x + i y) / sqrt(2).

``run_property_suite`` draws seeded instances and measures the worst slack
of every named analytic property against its tolerance; its report
serializes to canonical JSON and is byte-identical for identical inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from math import fsum

import numpy as np

from .errors import GroupMismatchError, NotAContractionError, SingularSystemError
from .phase_space import Group, character_table, ravel_table
from .qft import PhaseFunction, iqft, qft, twisted_convolution
from .solver import SolveConfig, solve_direct, solve_fixed_point
from .spaces import (
    PEETRE_SCAN_LIMIT,
    WeightFunction,
    barron_norm,
    operator_norm,
    peetre_check,
    schatten_norm,
    sobolev_norm,
)
from .transformers import apply, q_isometry_pair, resolvent, resolvent_apply
from .weyl import WeylSystem

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

DISTRIBUTIONS = (
    "complex-gaussian-entries",
    "random-unitary",
    "rank-one",
    "hermitian",
)

#: Property names, one per analytic invariant the suite measures.
PROPERTY_NAMES = (
    "plancherel",
    "inversion",
    "convolution-theorem",
    "isometry",
    "embeddings",
    "interpolation",
    "peetre",
    "submultiplicativity",
    "sobolev-embedding",
    "resolvent-bound",
    "contraction",
    "solver-oracle-agreement",
)

_MAX_REDRAWS = 8


class SplitMix64:
    """Counter-based 64-bit generator; see the module docstring."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normals(self, count: int) -> np.ndarray:
        """Standard real normals via Box-Muller.

        The integer stream is vectorised (uint64 arithmetic wraps mod 2^64,
        as the scalar update does); the transcendentals stay scalar ``math``
        calls, so the variates are bit-identical to a ``next_float`` loop.
        """
        m = count + count % 2
        if m == 0:
            return np.empty(0)
        steps = np.arange(1, m + 1, dtype=np.uint64)
        state = np.uint64(self._state) + steps * np.uint64(_GOLDEN)
        self._state = int(state[-1])
        z = (state ^ (state >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        uniforms = ((z >> np.uint64(11)).astype(float) * 2.0 ** -53).tolist()
        out = np.empty(count)
        for i in range(0, count, 2):
            radius = math.sqrt(-2.0 * math.log(1.0 - uniforms[i]))
            angle = 2.0 * math.pi * uniforms[i + 1]
            out[i] = radius * math.cos(angle)
            if i + 1 < count:
                out[i + 1] = radius * math.sin(angle)
        return out

    def complex_normals(self, count: int) -> np.ndarray:
        reals = self.normals(2 * count)
        return (reals[0::2] + 1j * reals[1::2]) / math.sqrt(2.0)


@dataclass(frozen=True)
class RandomSpec:
    """Deterministic recipe for one random operator."""

    seed: int
    factors: tuple[int, ...]
    distribution: str = "complex-gaussian-entries"
    target_b0_norm: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(int(n) for n in self.factors))
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"unknown distribution {self.distribution!r}; choose from {DISTRIBUTIONS}"
            )
        if self.target_b0_norm is not None and self.target_b0_norm < 0:
            raise ValueError("target_b0_norm must be >= 0")


def _draw(stream: SplitMix64, n: int, distribution: str) -> np.ndarray:
    if distribution == "complex-gaussian-entries":
        return stream.complex_normals(n * n).reshape(n, n)
    if distribution == "hermitian":
        a = stream.complex_normals(n * n).reshape(n, n)
        return (a + a.conj().T) / 2.0
    if distribution == "rank-one":
        u = stream.complex_normals(n)
        v = stream.complex_normals(n)
        return np.outer(u, v.conj())
    # random-unitary: QR of a complex gaussian, phases fixed so R has a
    # positive diagonal (makes the factorization, hence the draw, unique).
    a = stream.complex_normals(n * n).reshape(n, n)
    q, r = np.linalg.qr(a)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[None, :]


def b0_norm(system: WeylSystem, t: np.ndarray) -> float:
    """||T||_{B^0}; weight-free, so no gamma argument is needed."""
    return system.group.haar_weight * fsum(np.abs(qft(system, t).values).tolist())


def random_operator(spec: RandomSpec) -> np.ndarray:
    """Deterministic pseudo-random matrix, optionally rescaled in B^0."""
    group = Group(spec.factors)
    n = group.dim_h
    system = WeylSystem(group)
    for attempt in range(_MAX_REDRAWS):
        stream = SplitMix64((spec.seed + attempt * _GOLDEN) & _MASK)
        t = _draw(stream, n, spec.distribution)
        if spec.target_b0_norm is None:
            return t
        if spec.target_b0_norm == 0.0:
            return np.zeros((n, n), dtype=complex)
        current = b0_norm(system, t)
        if current == 0.0:
            continue  # degenerate draw, perturb the stream and retry
        for _ in range(4):
            t = t * (spec.target_b0_norm / current)
            current = b0_norm(system, t)
            if abs(current - spec.target_b0_norm) <= 1e-14 * spec.target_b0_norm:
                return t
        return t
    raise ValueError(f"drew the zero operator {_MAX_REDRAWS} times; cannot rescale")


def convolution_sum(system: WeylSystem, f: PhaseFunction, g: PhaseFunction) -> PhaseFunction:
    """Twisted convolution by its kernel sum, the oracle for ``twisted_convolution``.

    (f *_m g)(a, b) = (1/N) sum_(c,d) f(a - c, b - d) g(c, d) chi_(b-d)(c),
    with an explicit character table and no transform.  For each b the sum
    over d is a matrix product, Z_b[a', c] = sum_d f(a', b - d) chi_(b-d)(c)
    g(c, d), batched over b; the sum over c is a gather, a' = a - c.
    O(N^4) time, O(N^3) memory.
    """
    group = system.group
    if f.group != group or g.group != group:
        raise GroupMismatchError(f"phase functions over another group than {group.factors}")
    n = group.dim_h
    chars = character_table(group.factors)  # [b, c] -> chi_b(c)
    diff = ravel_table(group.factors, -1)  # [x, y] -> x - y
    f_ab = f.values.reshape(n, n)
    g_cd = g.values.reshape(n, n)
    z = f_ab[:, diff].transpose(1, 0, 2) @ (chars[diff] * g_cd.T[None])  # [b, a', c]
    out = z[:, diff, np.arange(n)].sum(axis=2)  # [b, a]
    return PhaseFunction(group, group.haar_weight * out.T)


@dataclass(frozen=True)
class PropertyResult:
    worst_slack: float | None
    tolerance: float
    passed: bool
    trials: int
    skipped: str | None = None
    error: str | None = None


@dataclass(frozen=True)
class SuiteReport:
    factors: tuple[int, ...]
    trials: int
    seed: int
    results: dict[str, PropertyResult]

    def all_pass(self) -> bool:
        return all(r.passed for r in self.results.values())

    def to_dict(self) -> dict:
        props = {}
        for name, r in self.results.items():
            entry = {
                "worst_slack": r.worst_slack,
                "tolerance": r.tolerance,
                "pass": r.passed,
                "trials": r.trials,
            }
            if r.skipped is not None:
                entry["skipped"] = r.skipped
            if r.error is not None:
                entry["error"] = r.error
            props[name] = entry
        return {
            "factors": list(self.factors),
            "seed": self.seed,
            "trials": self.trials,
            "properties": props,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, allow_nan=False)


def run_property_suite(
    system: WeylSystem, gamma: WeightFunction, trials: int, seed: int
) -> SuiteReport:
    """Measure every named property on ``trials`` seeded instances."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    group = system.group
    factors = group.factors
    haar = group.haar_weight
    root = SplitMix64(seed)

    s_grid = (0.0, 0.5, 1.0, 2.0)
    worst: dict[str, float] = {name: -math.inf for name in PROPERTY_NAMES}

    # Peetre scan once; it gates the submultiplicativity measurements.  The
    # scan is quadratic in phase_card, so it is skipped above its limit and
    # the gate then stays shut.
    peetre_skipped: str | None = None
    peetre_satisfied = False
    if group.dim_h > PEETRE_SCAN_LIMIT:
        peetre_skipped = (
            f"scan of phase_card^2 pairs; dim {group.dim_h} exceeds {PEETRE_SCAN_LIMIT}"
        )
    else:
        peetre = peetre_check(gamma)
        worst["peetre"] = peetre.constant
        peetre_satisfied = peetre.satisfied

    def spec(**kw) -> RandomSpec:
        return RandomSpec(seed=root.next_u64(), factors=factors, **kw)

    solver_error: str | None = None
    for _ in range(trials):
        t_op = random_operator(spec())
        s_op = random_operator(spec())
        v_op = random_operator(spec(target_b0_norm=0.5))
        rhs_op = random_operator(spec(target_b0_norm=1.0))
        f_fun = PhaseFunction(
            group, SplitMix64(root.next_u64()).complex_normals(group.phase_card)
        )

        coeffs = qft(system, t_op).values
        hs2 = schatten_norm(t_op, 2.0) ** 2
        plancherel = abs(haar * fsum((np.abs(coeffs) ** 2).tolist()) - hs2) / max(hs2, 1e-300)
        worst["plancherel"] = max(worst["plancherel"], plancherel)

        round_trip = np.max(np.abs(iqft(system, qft(system, t_op)) - t_op))
        back = np.max(np.abs(qft(system, iqft(system, f_fun)).values - f_fun.values))
        worst["inversion"] = max(worst["inversion"], float(round_trip), float(back))

        # the kernel sum checks the theorem, and the fast path against the sum
        f_s, f_t = qft(system, s_op), qft(system, t_op)
        kernel = convolution_sum(system, f_s, f_t).values
        product = qft(system, s_op @ t_op).values
        conv = twisted_convolution(system, f_s, f_t).values
        worst["convolution-theorem"] = max(
            worst["convolution-theorem"],
            float(np.max(np.abs(kernel - product))),
            float(np.max(np.abs(conv - kernel))),
        )

        for s in s_grid:
            lhs, rhs = q_isometry_pair(system, t_op, s, gamma)
            worst["isometry"] = max(worst["isometry"], abs(lhs - rhs) / max(1.0, rhs))

        norms = {s: barron_norm(system, t_op, s, gamma) for s in s_grid}
        for s in s_grid:
            for u in s_grid:
                if s < u:
                    worst["embeddings"] = max(worst["embeddings"], norms[s] - norms[u])
        worst["embeddings"] = max(
            worst["embeddings"], operator_norm(t_op) - norms[0.0]
        )

        for alpha_mix in (0.25, 0.5, 0.75):
            s_mid = alpha_mix * 0.0 + (1.0 - alpha_mix) * 2.0
            mid = barron_norm(system, t_op, s_mid, gamma)
            bound = norms[0.0] ** alpha_mix * norms[2.0] ** (1.0 - alpha_mix)
            worst["interpolation"] = max(
                worst["interpolation"], mid / max(bound, 1e-300) - 1.0
            )

        if peetre_satisfied:
            for s in (0.0, 1.0, 2.0):
                st = barron_norm(system, s_op @ t_op, s, gamma)
                bound = (
                    2.0 ** (s / 2.0)
                    * barron_norm(system, s_op, s, gamma)
                    * barron_norm(system, t_op, s, gamma)
                )
                worst["submultiplicativity"] = max(
                    worst["submultiplicativity"], st / max(bound, 1e-300) - 1.0
                )

        w2 = 1.0 + gamma.values ** 2
        for s in (0.0, 1.0):
            t_order = 2.0
            const = fsum((haar * np.power(w2, s - t_order)).tolist()) ** 0.5
            bound = const * sobolev_norm(system, t_op, t_order, gamma)
            worst["sobolev-embedding"] = max(
                worst["sobolev-embedding"],
                barron_norm(system, t_op, s, gamma) / max(bound, 1e-300) - 1.0,
            )

        for alpha in (0.5, 1.0, 2.0):
            resolved = resolvent_apply(system, t_op, alpha, gamma)
            for s in (0.0, 1.0, 2.0):
                ratio = alpha * barron_norm(system, resolved, s, gamma) / max(
                    barron_norm(system, t_op, s, gamma), 1e-300
                )
                worst["resolvent-bound"] = max(worst["resolvent-bound"], ratio - 1.0)

        q_inv = resolvent(gamma, 1.0)
        step_x = apply(system, q_inv, rhs_op - v_op @ t_op)
        step_y = apply(system, q_inv, rhs_op - v_op @ s_op)
        lhs = barron_norm(system, step_x - step_y, 0.0, gamma)
        rhs = 0.5 * barron_norm(system, t_op - s_op, 0.0, gamma)
        worst["contraction"] = max(worst["contraction"], lhs / max(rhs, 1e-300) - 1.0)

        try:
            fixed = solve_fixed_point(
                system, v_op, rhs_op, gamma, SolveConfig(tolerance=1e-10)
            )
            direct = solve_direct(system, v_op, rhs_op, gamma)
            worst["solver-oracle-agreement"] = max(
                worst["solver-oracle-agreement"],
                barron_norm(system, fixed.solution - direct, 0.0, gamma),
            )
        except (NotAContractionError, SingularSystemError) as exc:
            # failures are report entries, never exceptions
            if solver_error is None:
                solver_error = f"{type(exc).__name__}: {exc}"

    tolerances = {
        "plancherel": 1e-10,
        "inversion": 1e-10,
        "convolution-theorem": 1e-10,
        "isometry": 1e-10,
        "embeddings": 1e-12,
        "interpolation": 1e-10,
        "peetre": 2.0,
        "submultiplicativity": 1e-10,
        "sobolev-embedding": 1e-10,
        "resolvent-bound": 1e-10,
        "contraction": 1e-10,
        "solver-oracle-agreement": 1e-8,
    }
    results: dict[str, PropertyResult] = {}
    for name in PROPERTY_NAMES:
        tol = tolerances[name]
        if name == "peetre" and peetre_skipped is not None:
            results[name] = PropertyResult(
                worst_slack=None,
                tolerance=tol,
                passed=True,
                trials=0,
                skipped=peetre_skipped,
            )
            continue
        if name == "submultiplicativity" and not peetre_satisfied:
            results[name] = PropertyResult(
                worst_slack=None,
                tolerance=tol,
                passed=True,
                trials=0,
                skipped="peetre gate",
            )
            continue
        if name == "solver-oracle-agreement" and solver_error is not None:
            results[name] = PropertyResult(
                worst_slack=None,
                tolerance=tol,
                passed=False,
                trials=trials,
                error=solver_error,
            )
            continue
        n_trials = 1 if name == "peetre" else trials
        slack = worst[name]
        results[name] = PropertyResult(
            worst_slack=slack, tolerance=tol, passed=slack <= tol, trials=n_trials
        )
    return SuiteReport(factors=factors, trials=trials, seed=seed, results=results)

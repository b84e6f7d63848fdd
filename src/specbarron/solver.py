"""Fixed-point and direct solvers for (I - Laplacian + V) S = T.

With Q = I - Laplacian (symbol 1 + gamma^2), the equation rewrites as
S = G(S) = Q^{-1}(-V S + T).  When q = ||V||_{B^0} < 1, G is a contraction
with factor q in the B^0 norm, because Q^{-1} contracts B^0 and
||V X||_{B^0} <= ||V||_{B^0} ||X||_{B^0}; its fixed point S_* is the unique
solution, and it obeys the a-priori estimate
||S_*||_{B^2} <= (1 - q)^{-1} ||T||_{B^0}.

``solve_fixed_point`` iterates on the coefficients x = F(S).  One step is

    s = iqft(x),   g = F(G(s)) = q_inv * (F(T) - qft(V s)),   f = g - x

with the symbol q_inv = 1 / (1 + gamma^2) and F(T) computed once, so a
step costs one ``iqft``, one product with V and one ``qft``.  Since
||X||_{B^0} = (1/N) sum |F(X)|, every B^0 norm the loop needs is a sum
over coefficients it already holds.

Iterates are mixed by Anderson acceleration of depth 5 (Walker & Ni,
SIAM J. Numer. Anal. 49(4), 2011): with dF and dG the last (up to) five
differences of consecutive f and g, the next iterate is x = g - dG c,
where c solves the Gram system dF^H dF c = dF^H f, the least-squares fit
of f by dF.  If that solve fails or gives a non-finite c, the history is
dropped and the step is x = g.  Plain Picard iteration is the case of an
empty history, so there is one loop and no second code path.

Stopping rule.  For any x, ||S_* - G(x)|| <= q ||S_* - x||
<= q (||S_* - G(x)|| + ||G(x) - x||), hence

    ||S_* - G(x)|| <= q / (1 - q) * ||G(x) - x||                (B^0 norms)

whatever produced x, an Anderson mix included.  Iteration ends, and G(x)
is returned, once that bound drops below the configured tolerance.  The
sum in the bound is numpy's pairwise sum of nonnegative terms, whose
relative error (about 3e-15 at N = 64) is below the rounding of the
transforms that produce f; exact ``math.fsum`` would add about 0.2 ms to
a step of about 0.5 ms there (x86_64, one BLAS thread).  The reported
norms of the result (residual, B^2 norm, a-priori bound) are summed
exactly, once, after the loop.

``solve_direct`` assembles the N^2 x N^2 matrix of the map
S -> Q S + V S on flattened operators and solves it densely; it is the
independent cross-check for the iteration and also covers potentials
outside the unit ball, where contraction is not available but the linear
system may still be regular.

``equation_matrix`` builds that matrix in closed form.  U_(a,b) is nonzero
only at the entries (c + a, c) (componentwise mod n), where it equals the
character chi_b(c), so Q only couples (c + a, c) with (c' + a, c'), with
the coefficient (1/N) sum_b sym(a, b) chi_b(c - c').  One explicit N x N
character table gives all N^3 such coefficients as one matrix product,
O(N^3), and two N x N index tables scatter them into kron(V, I).  The
characters are plain exponentials: no FFT and nothing of ``qft``, so the
dense solve stays independent of the transform it checks.  The O(N^6) LU
of the O(N^4)-entry matrix dominates a direct solve.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import fsum
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteInputError, NotAContractionError, SingularSystemError
from .phase_space import Group, character_table, ravel_table
from .qft import PhaseFunction, _check_operator, iqft, qft
from .spaces import WeightFunction, barron_norm, operator_norm
from .transformers import apply, q_power
from .weyl import WeylSystem

#: Number of past differences an Anderson step mixes in.
ANDERSON_DEPTH = 5


@dataclass(frozen=True)
class SolveConfig:
    tolerance: float = 1e-10
    max_iterations: int = 10_000
    initial_guess: np.ndarray | None = None
    record_history: bool = False

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


class IterationRecord(NamedTuple):
    iteration: int
    step_b0: float
    error_bound: float


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Outcome of ``solve_fixed_point``.

    ``aposteriori_bound`` is q/(1-q) ||G(x_k) - x_k||_{B^0} at the last
    iterate x_k, where G(S) = Q^{-1}(T - V S).  It bounds the B^0 error
    ||S_* - solution|| of the returned ``solution = G(x_k)`` whether x_k is
    a Picard iterate or an Anderson mix; ``converged`` says it is at most
    the tolerance.
    """

    solution: np.ndarray
    iterations: int
    q: float
    residual_b0: float
    residual_op: float
    aposteriori_bound: float
    apriori_bound_b2: float
    b2_norm_of_solution: float
    converged: bool
    history: tuple[IterationRecord, ...] | None = None


def contraction_factor(system: WeylSystem, v: np.ndarray, gamma: WeightFunction) -> float:
    """q = ||V||_{B^0}, the Lipschitz factor of the iteration map."""
    return barron_norm(system, v, 0.0, gamma)


def solve_fixed_point(
    system: WeylSystem,
    v: np.ndarray,
    t: np.ndarray,
    gamma: WeightFunction,
    config: SolveConfig = SolveConfig(),
) -> SolveResult:
    """Anderson-accelerated iteration of G(S) = Q^{-1}(-V S + T) on F(S).

    Raises NotAContractionError when ||V||_{B^0} >= 1.  If the error bound
    does not reach the tolerance within max_iterations, the partial result
    is returned with ``converged`` unset.
    """
    group = system.group
    v = _check_input(group, "v", v)
    t = _check_input(group, "t", t)
    x = np.zeros(group.phase_card, dtype=complex)
    if config.initial_guess is not None:
        x = qft(system, _check_input(group, "initial_guess", config.initial_guess)).values
    q = contraction_factor(system, v, gamma)
    if q >= 1.0:
        raise NotAContractionError(
            f"potential not in open unit ball: ||V||_B0 = {q:.6g} >= 1"
        )
    haar = group.haar_weight
    symbol = 1.0 + gamma.values ** 2
    q_inv = 1.0 / symbol
    t_hat = qft(system, t).values
    shrink = q / (1.0 - q)

    history: list[IterationRecord] = []
    d_f: deque[np.ndarray] = deque(maxlen=ANDERSON_DEPTH)
    d_g: deque[np.ndarray] = deque(maxlen=ANDERSON_DEPTH)
    f_prev = g_prev = None
    converged = False
    for k in range(1, config.max_iterations + 1):
        s = iqft(system, PhaseFunction(group, x))
        g = q_inv * (t_hat - qft(system, v @ s).values)
        f = g - x
        step = haar * float(np.abs(f).sum())
        bound = shrink * step
        if config.record_history:
            history.append(IterationRecord(k, step, bound))
        if bound <= config.tolerance:
            converged = True
            break
        if f_prev is not None:
            d_f.append(f - f_prev)
            d_g.append(g - g_prev)
        f_prev, g_prev = f, g
        x = g
        if d_f:
            df = np.array(d_f).T
            try:
                c = np.linalg.solve(df.conj().T @ df, df.conj().T @ f)
            except np.linalg.LinAlgError:
                c = None
            if c is None or not np.isfinite(c).all():
                d_f.clear()
                d_g.clear()
            else:
                x = g - np.array(d_g).T @ c

    solution = iqft(system, PhaseFunction(group, g))
    # F((Q + V) S - T) for the returned S, whose coefficients are g
    r_hat = symbol * g + qft(system, v @ solution).values - t_hat
    return SolveResult(
        solution=solution,
        iterations=k,
        q=q,
        residual_b0=haar * fsum(np.abs(r_hat).tolist()),
        residual_op=operator_norm(iqft(system, PhaseFunction(group, r_hat))),
        aposteriori_bound=bound,
        apriori_bound_b2=haar * fsum(np.abs(t_hat).tolist()) / (1.0 - q),
        b2_norm_of_solution=haar * fsum((symbol * np.abs(g)).tolist()),
        converged=converged,
        history=tuple(history) if config.record_history else None,
    )


def equation_matrix(system: WeylSystem, v: np.ndarray, gamma: WeightFunction) -> np.ndarray:
    """Dense N^2 x N^2 matrix of S -> Q S + V S on row-major flattened S.

    Assembled in closed form from the characters; see the module docstring.
    """
    group = system.group
    n = group.dim_h
    characters = character_table(group.factors)  # [b, d] -> chi_b(d)
    symbol = (1.0 + gamma.values ** 2).reshape(n, n)
    blocks = group.haar_weight * symbol @ characters  # [a, c - c']
    rows = ravel_table(group.factors, 1) * n + np.arange(n)  # [a, c] -> (c + a, c)
    diff = ravel_table(group.factors, -1)  # [c, c'] -> c - c'
    mat = np.kron(np.asarray(v, dtype=complex), np.eye(n))
    mat[rows[:, :, None], rows[:, None, :]] += blocks[:, diff]
    return mat


def solve_direct(
    system: WeylSystem, v: np.ndarray, t: np.ndarray, gamma: WeightFunction
) -> np.ndarray:
    """Dense solve of (Q + V.) S = T; independent of the iteration path.

    Raises SingularSystemError (with a condition estimate) when the
    assembled system cannot be solved to a B^0 residual of 1e-8 relative
    to ||T||_{B^0}.
    """
    group = system.group
    n = group.dim_h
    v = _check_input(group, "v", v)
    t = _check_input(group, "t", t)
    mat = equation_matrix(system, v, gamma)
    try:
        flat = np.linalg.solve(mat, t.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"equation matrix is singular: {exc}", condition=float(np.linalg.cond(mat))
        ) from exc
    solution = flat.reshape(n, n)
    residual = apply(system, q_power(gamma, 1.0), solution) + v @ solution - t
    r_b0 = barron_norm(system, residual, 0.0, gamma)
    t_b0 = barron_norm(system, t, 0.0, gamma)
    if r_b0 > 1e-8 * t_b0:
        raise SingularSystemError(
            f"direct solve residual {r_b0:.3e} exceeds 1e-8 * ||T||_B0 = {1e-8 * t_b0:.3e}",
            condition=float(np.linalg.cond(mat)),
        )
    return solution


def _check_input(group: Group, name: str, arr: np.ndarray) -> np.ndarray:
    """Shape and finiteness check of a solver argument, once per solve."""
    arr = _check_operator(group, arr, name)
    if not np.isfinite(arr).all():
        raise NonFiniteInputError(f"{name} has non-finite entries")
    return arr

"""Fixed-point and direct solvers for (I - Laplacian + V) S = T.

With Q = I - Laplacian (symbol 1 + gamma^2), the equation rewrites as
S = Q^{-1}(-V S + T).  When q = ||V||_{B^0} < 1 the right-hand side is a
contraction with factor q in the B^0 norm, because Q^{-1} contracts B^0
and ||V X||_{B^0} <= ||V||_{B^0} ||X||_{B^0}.  Picard iteration from
S_0 = 0 then converges geometrically, and the iterate error is certified
by the a-posteriori bound

    ||S_* - S_k|| <= q / (1 - q) * ||S_k - S_{k-1}||            (B^0 norms)

which is the stopping rule: iteration ends when that bound drops below
the configured tolerance.  The converged solution obeys the a-priori
estimate ||S_*||_{B^2} <= (1 - q)^{-1} ||T||_{B^0}.

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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteInputError, NotAContractionError, SingularSystemError
from .phase_space import Group
from .qft import _check_operator
from .spaces import WeightFunction, barron_norm, operator_norm
from .transformers import apply, q_power, resolvent
from .weyl import WeylSystem


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
    """Picard iteration S_{k+1} = Q^{-1}(-V S_k + T).

    Raises NotAContractionError when ||V||_{B^0} >= 1.  If the error bound
    does not reach the tolerance within max_iterations, the partial result
    is returned with ``converged`` unset.
    """
    group = system.group
    v = _check_input(group, "v", v)
    t = _check_input(group, "t", t)
    current = np.zeros((group.dim_h, group.dim_h), dtype=complex)
    if config.initial_guess is not None:
        current = _check_input(group, "initial_guess", config.initial_guess)
    q = contraction_factor(system, v, gamma)
    if q >= 1.0:
        raise NotAContractionError(
            f"potential not in open unit ball: ||V||_B0 = {q:.6g} >= 1"
        )
    q_inv = resolvent(gamma, 1.0)
    shrink = q / (1.0 - q)

    history: list[IterationRecord] = []
    converged = False
    iterations = 0
    bound = np.inf
    for k in range(1, config.max_iterations + 1):
        nxt = apply(system, q_inv, t - v @ current)
        step = barron_norm(system, nxt - current, 0.0, gamma)
        bound = shrink * step
        iterations = k
        if config.record_history:
            history.append(IterationRecord(k, step, bound))
        current = nxt
        if bound <= config.tolerance:
            converged = True
            break

    residual = apply(system, q_power(gamma, 1.0), current) + v @ current - t
    return SolveResult(
        solution=current,
        iterations=iterations,
        q=q,
        residual_b0=barron_norm(system, residual, 0.0, gamma),
        residual_op=operator_norm(residual),
        aposteriori_bound=bound,
        apriori_bound_b2=barron_norm(system, t, 0.0, gamma) / (1.0 - q),
        b2_norm_of_solution=barron_norm(system, current, 2.0, gamma),
        converged=converged,
        history=tuple(history) if config.record_history else None,
    )


def equation_matrix(system: WeylSystem, v: np.ndarray, gamma: WeightFunction) -> np.ndarray:
    """Dense N^2 x N^2 matrix of S -> Q S + V S on row-major flattened S.

    Assembled in closed form from the characters; see the module docstring.
    """
    group = system.group
    n = group.dim_h
    characters = np.ones((1, 1), dtype=complex)  # [b, d] -> chi_b(d)
    for order in group.factors:
        k = np.arange(order)
        characters = np.kron(
            characters, np.exp(2j * np.pi * (np.outer(k, k) % order) / order)
        )
    symbol = (1.0 + gamma.values ** 2).reshape(n, n)
    blocks = group.haar_weight * symbol @ characters  # [a, c - c']
    rows = _ravel_table(group.factors, 1) * n + np.arange(n)  # [a, c] -> (c + a, c)
    diff = _ravel_table(group.factors, -1)  # [c, c'] -> c - c'
    mat = np.kron(np.asarray(v, dtype=complex), np.eye(n))
    mat[rows[:, :, None], rows[:, None, :]] += blocks[:, diff]
    return mat


def _ravel_table(factors: tuple[int, ...], sign: int) -> np.ndarray:
    """Table [i, j] = ravel((x_i + sign * x_j) mod n) over the N multi-indices."""
    comps = np.indices(factors).reshape(len(factors), -1)
    return np.ravel_multi_index(
        tuple(comps[:, :, None] + sign * comps[:, None, :]), factors, mode="wrap"
    )


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

"""Fourier transforms of operators on a finite phase space.

The transform of an N x N matrix T is the function

    F(T)(xi) = tr(T U_xi*)

on the N^2 phase-space points xi, and with the 1/N weight on the transform
domain the inversion formula reads

    T = (1/N) sum_xi F(T)(xi) U_xi .

Operator composition becomes twisted convolution,

    F(S T) = F(S) *_m F(T),
    (f *_m g)(xi) = (1/N) sum_eta f(xi - eta) g(eta) m(xi - eta, eta),

with m the multiplier of the Weyl system.  The argument order of m in the
kernel is pinned by the composition identity above and by a calibration
test; do not change one without the other.

``qft_fast`` (which ``qft`` calls) covers every group Z_n1 x ... x Z_nk at
O(N^2 log N): it gathers the generalized diagonals
d_a(i) = T[ravel((i+a) mod n), ravel(i)] through one cached index table and
runs an FFT over the k factor axes, F(T)(a, b) = sum_i d_a(i) prod_c
omega_c^{-b_c i_c}.  ``iqft`` is the inverse FFT followed by one scatter.
``qft_naive`` is the FFT-free reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, GroupMismatchError
from .phase_space import Group, difference_table, point_arrays
from .weyl import STACK_LIMIT, WeylSystem, _cyclic_block


@dataclass(frozen=True, eq=False)
class PhaseFunction:
    """Complex function on the N^2 transform-domain points.

    ``values[i]`` is the value at ``group.point_at(i)``; the array is
    frozen after construction.
    """

    group: Group
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=complex).reshape(-1)
        if values.size != self.group.phase_card:
            raise DimensionMismatchError(
                f"expected {self.group.phase_card} values, got {values.size}"
            )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def _check_operator(group: Group, t: np.ndarray, name: str = "t") -> np.ndarray:
    t = np.asarray(t, dtype=complex)
    n = group.dim_h
    if t.shape != (n, n):
        raise DimensionMismatchError(f"{name}: expected a {n}x{n} operator, got shape {t.shape}")
    return t


def _check_same_group(group: Group, f: PhaseFunction):
    if f.group != group:
        raise GroupMismatchError(
            f"phase function over {f.group.factors} used with group {group.factors}"
        )


@lru_cache(maxsize=None)
def _diagonal_index(group: Group) -> np.ndarray:
    """Flat indices D[a, i] = ravel((i + a) mod n) * N + ravel(i) of d_a(i) in T."""
    n = group.dim_h
    comps = np.indices(group.factors).reshape(len(group.factors), n)
    rows = np.zeros((n, n), dtype=np.intp)
    for c, order in zip(comps, group.factors):
        rows = rows * order + (c[:, None] + c[None, :]) % order
    table = rows * n + np.arange(n)
    table.flags.writeable = False
    return table


def qft_naive(system: WeylSystem, t: np.ndarray) -> PhaseFunction:
    """Reference transform: the traces tr(T U_xi*), with no FFT and no index table.

    U_(a,b) is a tensor product of blocks X^{a_c} Z^{b_c}, so the trace is one
    contraction per cyclic factor: T's row and column index of that factor
    against the explicit blocks conj(X^a Z^b), one shift a at a time.  Time
    O(N^2 (n1^2 + ... + nk^2)); no array exceeds max(N^2, n^3) entries.
    """
    group = system.group
    t = _check_operator(group, t)
    k = len(group.factors)
    # Axes: rows of the factors still to contract, their columns, then one
    # (a, b) pair per contracted factor.
    x = t.reshape(group.factors * 2)
    for done, n in enumerate(group.factors):
        x = np.moveaxis(x, k - done, 1)
        rest = x.shape[2:]
        x = x.reshape(n * n, -1)
        # conj(X^a Z^b) = X^a Z^-b, stacked over b
        conj_mods = -np.arange(n)
        out = np.stack([
            _cyclic_block(n, a, conj_mods).reshape(n, n * n) @ x for a in range(n)
        ])
        x = np.moveaxis(out.reshape((n, n) + rest), (0, 1), (-2, -1))
    values = x.transpose(list(range(0, 2 * k, 2)) + list(range(1, 2 * k, 2)))
    return PhaseFunction(group, values)


def qft_fast(system: WeylSystem, t: np.ndarray) -> PhaseFunction:
    """FFT transform: gather the diagonals d_a, FFT each over the factor axes."""
    group = system.group
    t = _check_operator(group, t)
    diags = np.take(t, _diagonal_index(group)).reshape((group.dim_h,) + group.factors)
    for axis in range(1, diags.ndim):
        diags = np.fft.fft(diags, axis=axis)
    return PhaseFunction(group, diags)


def qft(system: WeylSystem, t: np.ndarray) -> PhaseFunction:
    """Default transform; the same as :func:`qft_fast`."""
    return qft_fast(system, t)


def iqft(system: WeylSystem, f: PhaseFunction) -> np.ndarray:
    """Inverse transform (1/N) sum_xi f(xi) U_xi: inverse FFT, then scatter d_a."""
    group = system.group
    _check_same_group(group, f)
    n = group.dim_h
    diags = f.values.reshape((n,) + group.factors)
    for axis in range(1, diags.ndim):
        diags = np.fft.ifft(diags, axis=axis)
    t = np.empty(n * n, dtype=complex)
    t[_diagonal_index(group)] = diags.reshape(n, n)
    return t.reshape(n, n)


@lru_cache(maxsize=8)
def _twist_kernel(system: WeylSystem) -> np.ndarray:
    """Kernel K[i, j] = m(point_i - point_j, point_j) for the convolution."""
    group = system.group
    a, b = point_arrays(group)
    diff = difference_table(group)
    turns = np.zeros(diff.shape)
    for c, n in enumerate(group.factors):
        turns += ((b[diff][:, :, c] * a[None, :, c]) % n) / n
    kernel = np.exp(2j * np.pi * (turns % 1.0))
    kernel.flags.writeable = False
    return kernel


def twisted_convolution(system: WeylSystem, f: PhaseFunction, g: PhaseFunction) -> PhaseFunction:
    """(f *_m g)(xi) = (1/N) sum_eta f(xi - eta) g(eta) m(xi - eta, eta)."""
    group = system.group
    _check_same_group(group, f)
    _check_same_group(group, g)
    if group.dim_h <= STACK_LIMIT:
        diff = difference_table(group)
        kernel = _twist_kernel(system)
        out = group.haar_weight * ((f.values[diff] * kernel) @ g.values)
        return PhaseFunction(group, out)
    # Row-at-a-time fallback: same sums without the quadratic tables.
    a, b = point_arrays(group)
    factors = np.array(group.factors)
    weights = np.ones(len(factors), dtype=np.int64)
    for c in range(len(factors) - 2, -1, -1):
        weights[c] = weights[c + 1] * factors[c + 1]
    out = np.empty(group.phase_card, dtype=complex)
    for i in range(group.phase_card):
        a_diff = (a[i] - a) % factors
        b_diff = (b[i] - b) % factors
        idx = (a_diff @ weights) * group.dim_h + (b_diff @ weights)
        turns = ((b_diff * a) % factors) / factors
        kernel = np.exp(2j * np.pi * (turns.sum(axis=1) % 1.0))
        out[i] = group.haar_weight * np.sum(f.values[idx] * kernel * g.values)
    return PhaseFunction(group, out)

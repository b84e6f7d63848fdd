"""Finite abelian phase spaces.

A finite abelian group is a product of cyclic factors Z_n1 x ... x Z_nk
and acts on the Hilbert space C^N with N = n1 * ... * nk.  The associated
phase space consists of the N^2 pairs lam = (a, b), where the tuple a
labels cyclic shifts and b labels modulations.  The symplectic pairing
identifies the phase space with its own character group, so functions in
the transform domain are indexed by the same N^2 points.

Normalization: the measure on the transform domain is counting measure
scaled by 1/N (``Group.haar_weight``).  With this choice the operator
Fourier inversion formula and the Plancherel identity hold with no extra
constants, and the identity operator has unit Barron norm.

Enumeration order is fixed package-wide: row-major with the a-part outer
and the b-part inner, i.e. ``flat = ravel(a) * N + ravel(b)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np


def symmetric_residue(c: int, n: int) -> int:
    """Representative of c mod n in the window [-floor(n/2), ceil(n/2)-1].

    The absolute value of the result is the circular distance
    min(c mod n, n - c mod n); for even n the ambiguous residue n/2 maps
    to -n/2.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    c = c % n
    return c if c < (n + 1) // 2 else c - n


@dataclass(frozen=True)
class PhasePoint:
    """Phase-space point (a, b): a shifts, b modulates."""

    a: tuple[int, ...]
    b: tuple[int, ...]


@dataclass(frozen=True)
class Group:
    """Finite abelian group specified by its cyclic factor orders."""

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int(n) for n in self.factors)
        if not factors:
            raise ValueError("group needs at least one cyclic factor")
        if any(n < 2 for n in factors):
            raise ValueError(f"cyclic factor orders must be >= 2, got {factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def dim_h(self) -> int:
        """Dimension N of the underlying Hilbert space."""
        return reduce(lambda x, y: x * y, self.factors, 1)

    @property
    def phase_card(self) -> int:
        """Number of phase-space points, N^2."""
        return self.dim_h ** 2

    @property
    def haar_weight(self) -> float:
        """Weight 1/N of each point of the transform domain."""
        return 1.0 / self.dim_h

    # -- point construction and arithmetic ---------------------------------

    def point(self, a, b) -> PhasePoint:
        """Build a point, reducing both component tuples mod the factors."""
        fs = self.factors
        return PhasePoint(
            tuple(int(x) % n for x, n in zip(a, fs, strict=True)),
            tuple(int(x) % n for x, n in zip(b, fs, strict=True)),
        )

    def zero(self) -> PhasePoint:
        k = len(self.factors)
        return PhasePoint((0,) * k, (0,) * k)

    def add(self, lam: PhasePoint, mu: PhasePoint) -> PhasePoint:
        fs = self.factors
        return PhasePoint(
            tuple((x + y) % n for x, y, n in zip(lam.a, mu.a, fs, strict=True)),
            tuple((x + y) % n for x, y, n in zip(lam.b, mu.b, fs, strict=True)),
        )

    def neg(self, lam: PhasePoint) -> PhasePoint:
        fs = self.factors
        return PhasePoint(
            tuple((-x) % n for x, n in zip(lam.a, fs, strict=True)),
            tuple((-x) % n for x, n in zip(lam.b, fs, strict=True)),
        )

    def sub(self, lam: PhasePoint, mu: PhasePoint) -> PhasePoint:
        return self.add(lam, self.neg(mu))

    # -- enumeration --------------------------------------------------------

    def index_of(self, lam: PhasePoint) -> int:
        """Flat index of a point in the package-wide enumeration order."""
        return _ravel(lam.a, self.factors) * self.dim_h + _ravel(lam.b, self.factors)

    def point_at(self, index: int) -> PhasePoint:
        """Inverse of :meth:`index_of`."""
        if not 0 <= index < self.phase_card:
            raise IndexError(f"point index {index} out of range for {self.phase_card} points")
        a_idx, b_idx = divmod(index, self.dim_h)
        return PhasePoint(_unravel(a_idx, self.factors), _unravel(b_idx, self.factors))

    def points(self):
        """Iterate all phase-space points in enumeration order."""
        ranges = [range(n) for n in self.factors]
        for a in itertools.product(*ranges):
            for b in itertools.product(*ranges):
                yield PhasePoint(a, b)


def make_group(factors) -> Group:
    """Validate a list of cyclic orders and build the group."""
    return Group(tuple(factors))


def _ravel(comps, factors) -> int:
    idx = 0
    for c, n in zip(comps, factors, strict=True):
        idx = idx * n + c
    return idx


def _unravel(idx: int, factors) -> tuple[int, ...]:
    comps = []
    for n in reversed(factors):
        comps.append(idx % n)
        idx //= n
    return tuple(reversed(comps))


@lru_cache(maxsize=None)
def point_arrays(group: Group) -> tuple[np.ndarray, np.ndarray]:
    """Component arrays of shape (phase_card, k) for the a and b parts.

    Row i holds the components of ``group.point_at(i)``.
    """
    k = len(group.factors)
    comps = np.indices(group.factors + group.factors).reshape(2 * k, -1).T
    a = np.ascontiguousarray(comps[:, :k])
    b = np.ascontiguousarray(comps[:, k:])
    a.flags.writeable = False
    b.flags.writeable = False
    return a, b


@lru_cache(maxsize=None)
def difference_table(group: Group) -> np.ndarray:
    """Index table D with D[i, j] = index_of(point_i - point_j).

    Quadratic in phase_card; intended for groups with dim_h <= 32.
    """
    table = ravel_table(group.factors * 2, -1)
    table.flags.writeable = False
    return table


def ravel_table(factors: tuple[int, ...], sign: int) -> np.ndarray:
    """Table [i, j] = ravel((x_i + sign * x_j) mod n) over the multi-indices x.

    The multi-indices of ``factors`` are taken in row-major order, the
    order of ``index_of`` when ``factors`` is the group's factors twice.
    """
    comps = np.indices(factors).reshape(len(factors), -1)
    return np.ravel_multi_index(
        tuple(comps[:, :, None] + sign * comps[:, None, :]), factors, mode="wrap"
    )


def character_table(factors: tuple[int, ...]) -> np.ndarray:
    """Table [b, d] = chi_b(d) = prod_c exp(2 pi i b_c d_c / n_c), row-major b, d.

    Explicit exponentials, one Kronecker factor per cyclic factor; no FFT.
    """
    characters = np.ones((1, 1), dtype=complex)
    for order in factors:
        k = np.arange(order)
        characters = np.kron(
            characters, np.exp(2j * np.pi * (np.outer(k, k) % order) / order)
        )
    return characters

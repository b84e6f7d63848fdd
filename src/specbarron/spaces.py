"""Weighted operator norms on the transform domain.

For a weight gamma >= 0 on the phase-space points and s >= 0:

    barron norm    ||T||_{B^s}  = (1/N) sum_xi (1 + gamma(xi)^2)^{s/2} |F(T)(xi)|
    sobolev norm   ||T||_{H^s}  = ( (1/N) sum_xi (1 + gamma(xi)^2)^s |F(T)(xi)|^2 )^{1/2}

At s = 0 the Sobolev norm is the Hilbert-Schmidt norm (Plancherel) and the
Barron norm dominates the operator norm.  Schatten norms are computed from
singular values.

gamma is allowed to vanish (in particular at the origin); every formula
uses 1 + gamma^2, and gamma(0) = 0 gives the clean identities
||I||_{B^s} = 1.

Norm reductions use exact summation (math.fsum) so the package-wide 1e-10
tolerances stay honest at larger dimensions.  The terms are handed to fsum
as a Python list (``terms.tolist()``): the same doubles in the same order,
so the sum is bit-identical, but fsum then reads plain floats instead of
making one numpy scalar per term, which took more than half of a norm's
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

import numpy as np

from .errors import GroupMismatchError
from .phase_space import Group, difference_table, point_arrays
from .qft import qft
from .weyl import WeylSystem

#: Relative cutoff below which singular values count as zero.
SINGULAR_VALUE_CUTOFF = 1e-12

#: Exhaustive pair scans are gated to this Hilbert dimension unless forced.
PEETRE_SCAN_LIMIT = 32


@dataclass(frozen=True, eq=False)
class WeightFunction:
    """Nonnegative weight gamma on the transform-domain points."""

    group: Group
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float).reshape(-1)
        if values.size != self.group.phase_card:
            raise GroupMismatchError(
                f"expected {self.group.phase_card} weight values, got {values.size}"
            )
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("weight values must be finite and >= 0")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class PeetreCheck:
    """Result of the exhaustive Peetre scan."""

    constant: float
    satisfied: bool


@dataclass(frozen=True)
class NormReport:
    """Norm values of one operator at one smoothness order."""

    source: str
    s: float
    barron: float
    sobolev: float
    op_norm: float
    schatten_p: float | None = None
    schatten: float | None = None


def gamma_euclid(group: Group) -> WeightFunction:
    """Default weight: euclidean length of the symmetric residues.

    gamma(a, b) = sqrt(sum_i r(a_i)^2 + r(b_i)^2) with r the symmetric
    residue mod the factor order; gamma vanishes exactly at the origin.
    """
    a, b = point_arrays(group)
    total = np.zeros(group.phase_card)
    for c, n in enumerate(group.factors):
        half = (n + 1) // 2
        for comp in (a[:, c], b[:, c]):
            r = np.where(comp < half, comp, comp - n).astype(float)
            total += r * r
    return WeightFunction(group, np.sqrt(total))


def _weight_for(system: WeylSystem, gamma: WeightFunction) -> np.ndarray:
    if gamma.group != system.group:
        raise GroupMismatchError(
            f"weight over {gamma.group.factors} used with group {system.group.factors}"
        )
    return gamma.values


def barron_norm(system: WeylSystem, t: np.ndarray, s: float, gamma: WeightFunction) -> float:
    """Weighted L1 norm of the transform; finite for every operator here."""
    if s < 0:
        raise ValueError(f"smoothness order s must be >= 0, got {s}")
    g = _weight_for(system, gamma)
    coeffs = np.abs(qft(system, t).values)
    terms = system.group.haar_weight * np.power(1.0 + g * g, 0.5 * s) * coeffs
    return fsum(terms.tolist())


def sobolev_norm(system: WeylSystem, t: np.ndarray, s: float, gamma: WeightFunction) -> float:
    """Weighted L2 norm of the transform."""
    if s < 0:
        raise ValueError(f"smoothness order s must be >= 0, got {s}")
    g = _weight_for(system, gamma)
    coeffs = np.abs(qft(system, t).values)
    terms = system.group.haar_weight * np.power(1.0 + g * g, s) * coeffs * coeffs
    return fsum(terms.tolist()) ** 0.5


def schatten_norm(t: np.ndarray, p: float) -> float:
    """(sum_i sigma_i^p)^{1/p} over the nonnegligible singular values."""
    if p < 1:
        raise ValueError(f"Schatten order p must be >= 1, got {p}")
    sv = np.linalg.svd(np.asarray(t, dtype=complex), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0.0
    kept = sv[sv > SINGULAR_VALUE_CUTOFF * sv[0]]
    return fsum((kept ** p).tolist()) ** (1.0 / p)


def operator_norm(t: np.ndarray) -> float:
    """Largest singular value."""
    sv = np.linalg.svd(np.asarray(t, dtype=complex), compute_uv=False)
    return float(sv[0]) if sv.size else 0.0


def peetre_check(gamma: WeightFunction, force: bool = False) -> PeetreCheck:
    """Scan all ordered point pairs for the Peetre-type constant.

    Returns the smallest C with
    1 + gamma(xi)^2 <= C (1 + gamma(xi - eta)^2)(1 + gamma(eta)^2) and
    whether C <= 2, the constant the submultiplicativity bound relies on.
    The scan is quadratic in phase_card; pass force=True above dimension
    PEETRE_SCAN_LIMIT.
    """
    group = gamma.group
    if group.dim_h > PEETRE_SCAN_LIMIT and not force:
        raise ValueError(
            f"peetre_check scans phase_card^2 pairs; dim {group.dim_h} exceeds "
            f"{PEETRE_SCAN_LIMIT} (pass force=True to run anyway)"
        )
    w = 1.0 + gamma.values ** 2
    diff = difference_table(group)
    ratios = w[:, None] / (w[diff] * w[None, :])
    constant = float(ratios.max())
    return PeetreCheck(constant=constant, satisfied=constant <= 2.0)

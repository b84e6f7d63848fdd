"""Clock-and-shift unitaries over a finite phase space.

Convention ``XaZb``: the unitary attached to the point (a, b) is

    U_(a,b) = tensor_i  X_i^{a_i} Z_i^{b_i}

where, on each cyclic factor of order n, X shifts the standard basis
(X e_j = e_{j+1 mod n}) and Z multiplies e_j by omega^j with
omega = exp(2 pi i / n).  This ordering pins the multiplier of the
projective law U_lam U_mu = m(lam, mu) U_{lam+mu} to

    m(lam, mu) = prod_i omega_i^{b_i c_i}      for lam = (a, b), mu = (c, d)

and the symplectic bicharacter to sigma(lam, mu) = m(lam, mu) / m(mu, lam)
= prod_i omega_i^{b_i c_i - a_i d_i}.  The map lam -> sigma(lam, .) is a
bijection onto the characters of phase space, which is what lets the
transform domain be indexed by phase-space points themselves.

Matrices are assembled by direct permutation/diagonal placement, never by
repeated multiplication of generator matrices, so entries are roots of
unity up to one rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .phase_space import Group, PhasePoint

# Largest Hilbert dimension for which the full (N^2, N, N) stack of Weyl
# unitaries is materialized and cached.
STACK_LIMIT = 32


@dataclass(frozen=True)
class WeylSystem:
    """Projective unitary representation of a finite phase space."""

    group: Group
    convention: str = "XaZb"

    @property
    def omega(self) -> tuple[complex, ...]:
        """Primitive root of unity for each cyclic factor."""
        return tuple(complex(np.exp(2j * np.pi / n)) for n in self.group.factors)

    def operator(self, lam: PhasePoint) -> np.ndarray:
        """The N x N unitary U_lam."""
        u = np.ones((1, 1), dtype=complex)
        for n, a, b in zip(self.group.factors, lam.a, lam.b, strict=True):
            u = np.kron(u, _cyclic_block(n, a, b))
        return u

    def multiplier(self, lam: PhasePoint, mu: PhasePoint) -> complex:
        """m(lam, mu) with U_lam U_mu = m(lam, mu) U_{lam+mu}; |m| = 1."""
        turns = 0.0
        for n, b, c in zip(self.group.factors, lam.b, mu.a, strict=True):
            turns += ((b * c) % n) / n
        return complex(np.exp(2j * np.pi * (turns % 1.0)))

    def symplectic(self, lam: PhasePoint, mu: PhasePoint) -> complex:
        """sigma(lam, mu) = m(lam, mu) / m(mu, lam)."""
        turns = 0.0
        for n, a, b, c, d in zip(
            self.group.factors, lam.a, lam.b, mu.a, mu.b, strict=True
        ):
            turns += ((b * c - a * d) % n) / n
        return complex(np.exp(2j * np.pi * (turns % 1.0)))

    def adjoint_phase(self, lam: PhasePoint) -> complex:
        """Scalar conj(m(lam, -lam)) in U_lam* = conj(m(lam, -lam)) U_{-lam}."""
        return self.multiplier(lam, self.group.neg(lam)).conjugate()


def _cyclic_block(n: int, a: int, b) -> np.ndarray:
    """X^a Z^b on a single cyclic factor of order n; an array b gives a stack."""
    a %= n
    b = np.asarray(b) % n
    col = np.arange(n)
    block = np.zeros(b.shape + (n, n), dtype=complex)
    block[..., (col + a) % n, col] = np.exp(2j * np.pi * ((b[..., None] * col) % n) / n)
    return block


@lru_cache(maxsize=8)
def weyl_stack(system: WeylSystem) -> np.ndarray:
    """All N^2 unitaries as one (N^2, N, N) array, in enumeration order.

    Cached; refuses dimensions above STACK_LIMIT (the stack is O(N^4)).
    """
    group = system.group
    if group.dim_h > STACK_LIMIT:
        raise ValueError(
            f"Weyl stack needs O(N^4) memory; dim {group.dim_h} exceeds {STACK_LIMIT}"
        )
    stack = np.stack([system.operator(p) for p in group.points()])
    stack.flags.writeable = False
    return stack

"""Independent brute-force reference implementations for the tests.

Everything here is deliberately slow and structurally different from the
library: unitaries are built by repeated multiplication of generator
matrices, transforms by explicit trace loops, norms by plain python sums.
Only usable at small dimensions.
"""

import itertools
import math

import numpy as np


def ref_generators(n):
    shift = np.zeros((n, n), dtype=complex)
    for j in range(n):
        shift[(j + 1) % n, j] = 1.0
    clock = np.diag([np.exp(2j * np.pi * j / n) for j in range(n)])
    return shift, clock


def _matrix_power(m, k):
    out = np.eye(m.shape[0], dtype=complex)
    for _ in range(k):
        out = m @ out
    return out


def ref_weyl(factors, a, b):
    """U_(a,b) from generator powers and Kronecker products."""
    u = np.ones((1, 1), dtype=complex)
    for n, ai, bi in zip(factors, a, b):
        shift, clock = ref_generators(n)
        u = np.kron(u, _matrix_power(shift, ai) @ _matrix_power(clock, bi))
    return u


def ref_points(factors):
    ranges = [range(n) for n in factors]
    for a in itertools.product(*ranges):
        for b in itertools.product(*ranges):
            yield a, b


def ref_qft(factors, t):
    """Transform values by explicit traces, in enumeration order."""
    values = []
    for a, b in ref_points(factors):
        u = ref_weyl(factors, a, b)
        values.append(np.trace(np.asarray(t, dtype=complex) @ u.conj().T))
    return np.array(values)


def ref_residue(c, n):
    c = c % n
    return c if c < (n + 1) // 2 else c - n


def ref_gamma_euclid(factors):
    values = []
    for a, b in ref_points(factors):
        sq = sum(ref_residue(x, n) ** 2 for x, n in zip(a, factors))
        sq += sum(ref_residue(x, n) ** 2 for x, n in zip(b, factors))
        values.append(math.sqrt(sq))
    return np.array(values)


def ref_barron(factors, t, s):
    """Barron norm with the euclidean weight, by plain python summation."""
    n_dim = 1
    for n in factors:
        n_dim *= n
    gamma = ref_gamma_euclid(factors)
    coeffs = ref_qft(factors, t)
    return sum(
        (1.0 + g * g) ** (s / 2.0) * abs(c) for g, c in zip(gamma, coeffs)
    ) / n_dim


def ref_normals(stream, count):
    """Box-Muller normals from a SplitMix64 stream, one scalar draw at a time."""
    out = np.empty(count)
    for i in range(0, count, 2):
        u1 = stream.next_float()
        u2 = stream.next_float()
        radius = math.sqrt(-2.0 * math.log(1.0 - u1))
        angle = 2.0 * math.pi * u2
        out[i] = radius * math.cos(angle)
        if i + 1 < count:
            out[i + 1] = radius * math.sin(angle)
    return out


def ref_equation_matrix(factors, v, symbol):
    """(1/N) sum_xi sym(xi) vec(U_xi) vec(U_xi)^H + kron(V, I), row-major vec."""
    n_dim = 1
    for n in factors:
        n_dim *= n
    mat = np.kron(np.asarray(v, dtype=complex), np.eye(n_dim))
    for (a, b), sym in zip(ref_points(factors), symbol):
        u = ref_weyl(factors, a, b).reshape(-1)
        mat += sym * np.outer(u, u.conj()) / n_dim
    return mat

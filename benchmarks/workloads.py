"""The benchmark's three workloads: set-up, one task, and its output check.

Each workload is a closed loop with one client.  A cycle runs one task of
every class in a fixed order, and a run is made of whole cycles, so every
class is measured equally often and per-task averages repeat exactly.
Constructing a workload is its set-up: it builds the groups, systems and
weights, draws the seeded inputs and makes one cold warm-up call per group.

Inputs are drawn from ``numpy.random.default_rng(seed)`` in this file; the
library receives only the generated arrays.  Checks are computed outside
the timed region and, where the library offers a second route to the same
number, they use an identity that does not go through the code path timed.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

import numpy as np

import specbarron as sb
from specbarron import cli

#: Tolerance of the transform identities (round trip, Plancherel, oracle).
IDENTITY_TOL = 1e-10

#: Tolerance of the Picard solves and of their residual certificate.
SOLVE_TOL = 1e-10


def complex_gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    """n x n matrix of standard complex normal entries."""
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


class Workload:
    """Base: subclasses set the class attributes and implement run/check."""

    name: str
    why: str
    stresses: str
    bypasses: str
    #: Labels of the tasks of one cycle, in order.  A label repeats when a
    #: class has several seeded inputs; its tasks are reported together.
    classes: tuple[str, ...]
    #: Whole cycles run even when --seconds has already elapsed, so that the
    #: tail percentile below always has at least ten samples beyond it.
    min_cycles: int
    #: Percentile reported as task_ms_tail; fixed per workload so that runs
    #: of different speed report the same statistic.
    tail_percentile: float
    #: Labels of the classes whose time goes to operations on large arrays;
    #: run.py scales them by the ``large`` reference unit, the others by the
    #: ``small`` one, as their work slows down with the host like each unit's.
    large_classes: tuple[str, ...] = ()

    def run(self, k: int):
        """Run one task of class k and return its output."""
        raise NotImplementedError

    def check(self, k: int, out, task_index: int) -> str | None:
        """None when the output of a class-k task is correct, else the reason."""
        raise NotImplementedError


@dataclass(frozen=True)
class Analysis:
    transform: sb.PhaseFunction
    round_trip: np.ndarray
    b0: float
    b2: float
    h1: float
    applied: np.ndarray


@dataclass(frozen=True)
class _Case:
    system: sb.WeylSystem
    gamma: sb.WeightFunction
    q1: sb.DiagonalTransformer
    t: np.ndarray


class ProductAnalysis(Workload):
    name = "product-analysis"
    why = (
        "multi-factor transform path: (4,4) and (4,8) use the cached Weyl stack, "
        "(8,8) the per-point kron loop; no solver, no twisted convolution"
    )
    stresses = "weyl, qft.qft_naive, qft.iqft, spaces norms, transformers.apply"
    bypasses = "solver, qft.twisted_convolution, qft.qft_fast, oracles, cli"
    groups = ((4, 4), (4, 8), (8, 8))
    classes = ("4x4", "4x8", "8x8")
    # Only 21 to 30 tasks fit a run: the median is the highest percentile
    # with ten samples beyond it, and the (8,8) cost shows in tasks_per_s.
    min_cycles = 7
    tail_percentile = 50.0
    # (4,8) streams its 16 MB Weyl stack; (8,8) builds 64 x 64 Kronecker
    # products and multiplies them point by point.
    large_classes = ("4x8", "8x8")
    #: Every how many tasks the transform is compared with qft_naive.
    oracle_every = 4

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.cases = []
        for factors in self.groups:
            system = sb.WeylSystem(sb.make_group(factors))
            gamma = sb.gamma_euclid(system.group)
            t = complex_gaussian(rng, system.group.dim_h)
            self.cases.append(_Case(system, gamma, sb.q_power(gamma, 1.0), t))
        for case in self.cases:
            sb.qft(case.system, case.t)

    def run(self, k: int) -> Analysis:
        c = self.cases[k]
        f = sb.qft(c.system, c.t)
        return Analysis(
            transform=f,
            round_trip=sb.iqft(c.system, f),
            b0=sb.barron_norm(c.system, c.t, 0.0, c.gamma),
            b2=sb.barron_norm(c.system, c.t, 2.0, c.gamma),
            h1=sb.sobolev_norm(c.system, c.t, 1.0, c.gamma),
            applied=sb.apply(c.system, c.q1, c.t),
        )

    def check(self, k: int, out: Analysis, task_index: int) -> str | None:
        c = self.cases[k]
        n = c.system.group.dim_h
        hs2 = float(np.vdot(c.t, c.t).real)
        scale = max(1.0, float(np.max(np.abs(c.t))))
        err = float(np.max(np.abs(out.round_trip - c.t)))
        if not err <= IDENTITY_TOL * scale:
            return f"round trip off by {err:.3e}"
        plancherel = float(np.sum(np.abs(out.transform.values) ** 2)) / n
        if not abs(plancherel - hs2) <= IDENTITY_TOL * hs2:
            return f"Plancherel: {plancherel!r} against ||T||_HS^2 = {hs2!r}"
        if not 0.0 < out.b0 <= out.b2 * (1.0 + IDENTITY_TOL):
            return f"Barron norms out of order: B0 = {out.b0!r}, B2 = {out.b2!r}"
        if not out.h1 >= np.sqrt(hs2) * (1.0 - IDENTITY_TOL):
            return f"H1 norm {out.h1!r} below the Hilbert-Schmidt norm {np.sqrt(hs2)!r}"
        # Q(1) has symbol 1 at the origin, where F(T)(0) = tr(T).
        trace_err = abs(np.trace(out.applied) - np.trace(c.t))
        if not trace_err <= IDENTITY_TOL * n * scale:
            return f"apply(Q(1)) changed the trace by {trace_err:.3e}"
        if task_index % self.oracle_every == 0:
            naive = sb.qft_naive(c.system, c.t).values
            dev = float(np.max(np.abs(out.transform.values - naive)))
            if not dev <= IDENTITY_TOL * n * scale:
                return f"qft deviates from qft_naive by {dev:.3e}"
        return None


@dataclass(frozen=True)
class _Problem:
    v: np.ndarray
    t: np.ndarray
    q: float


class PicardSolve(Workload):
    name = "picard-solve"
    why = (
        "single-factor FFT path as a repeated inner loop of solve_fixed_point on (64,); "
        "cost set by the iteration count"
    )
    stresses = "solver.solve_fixed_point, transformers.apply, qft.qft_fast, qft.iqft, spaces.barron_norm"
    bypasses = "multi-factor transform, weyl.weyl_stack, qft.twisted_convolution, oracles, cli"
    factors = (64,)
    #: Problems (V, T) drawn per class.  The iteration count of one draw
    #: varies by about 7 % with the seed, mostly through T; a cycle solves
    #: every draw, so a run's cost varies much less.
    draws = 8
    classes = ("random-q0.5", "near-identity-q0.9", "near-identity-q0.99") * draws
    min_cycles = 5
    tail_percentile = 90.0

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.system = sb.WeylSystem(sb.make_group(self.factors))
        self.gamma = sb.gamma_euclid(self.system.group)
        self.q1 = sb.q_power(self.gamma, 1.0)
        self.q_inv = sb.resolvent(self.gamma, 1.0)
        self.config = sb.SolveConfig(tolerance=SOLVE_TOL)
        n = self.system.group.dim_h
        self.problems = []
        for _ in range(self.draws):
            potentials = [self._scaled(complex_gaussian(rng, n), 0.5)]
            for q in (0.9, 0.99):
                p = self._scaled(complex_gaussian(rng, n), 0.05 * q)
                potentials.append(0.95 * q * np.eye(n) + p)
            for v in potentials:
                t = self._scaled(complex_gaussian(rng, n), 1.0)
                self.problems.append(
                    _Problem(v, t, sb.barron_norm(self.system, v, 0.0, self.gamma))
                )
        self.run(0)

    def _scaled(self, m: np.ndarray, b0: float) -> np.ndarray:
        return m * (b0 / sb.barron_norm(self.system, m, 0.0, self.gamma))

    def run(self, k: int) -> sb.SolveResult:
        return sb.solve_fixed_point(
            self.system, self.problems[k].v, self.problems[k].t, self.gamma, self.config
        )

    def check(self, k: int, out: sb.SolveResult, task_index: int) -> str | None:
        if not out.converged:
            return f"not converged after {out.iterations} iterations"
        prob = self.problems[k]
        s = out.solution
        residual = prob.t - sb.apply(self.system, self.q1, s) - prob.v @ s
        cert = sb.barron_norm(
            self.system, sb.apply(self.system, self.q_inv, residual), 0.0, self.gamma
        ) / (1.0 - prob.q)
        if not cert <= SOLVE_TOL:
            return f"residual certificate {cert:.3e} exceeds tolerance {SOLVE_TOL:.0e}"
        return None


class VerifySuite(Workload):
    name = "verify-suite"
    why = (
        "the only traffic through twisted convolution, dense solve_direct, the Peetre scan, "
        "the oracles and the CLI; 32 sets the tail"
    )
    stresses = (
        "cli.main, oracles, qft.twisted_convolution, solver.solve_direct, "
        "solver.equation_matrix, spaces.peetre_check"
    )
    bypasses = "the per-point kron loop of groups above dimension 32"
    groups = ("2x3", "4x4", "32")
    #: CLI seeds per group.  The time of one verify at 32 varies by about
    #: 10 % with the seed; a cycle runs every seed, so a run's cost varies
    #: much less.
    draws = 6
    classes = groups * draws
    min_cycles = 6
    # at 32: twisted convolution over 1024 points and a dense 1024 x 1024 solve
    large_classes = ("32",)
    tail_percentile = 90.0

    def __init__(self, seed: int):
        self.seeds = [seed * self.draws + j for j in range(self.draws)]
        # The cold warm-up run of each group is also the reference report of
        # the first seed.  The other seeds' references are made by the first
        # check of each, which repeats the task: every task must print the
        # same bytes as a run of the same seed.
        self.expected = {k: self.run(k) for k in range(len(self.groups))}

    def run(self, k: int) -> tuple[int, str]:
        seed = self.seeds[k // len(self.groups)]
        argv = ["--seed", str(seed), "verify", "--n", self.classes[k], "--trials", "1"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(self, k: int, out: tuple[int, str], task_index: int) -> str | None:
        code, report = out
        if code != 0:
            return f"verify exited {code}"
        if k not in self.expected:
            self.expected[k] = self.run(k)
        if report != self.expected[k][1]:
            return "report bytes differ from another run of the same seed"
        return None


WORKLOADS = {w.name: w for w in (ProductAnalysis, PicardSolve, VerifySuite)}

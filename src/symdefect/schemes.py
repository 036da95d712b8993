"""Self-adjoint one-step methods and their coefficient tableaus.

All steppers are pure functions of their arguments. Step size zero returns
the state unchanged. Autonomous steppers take (problem, tau, u); the
nonautonomous ones additionally take the step's start time t0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StepFailure
from .linalg import commutator, expm

__all__ = [
    "SplittingScheme",
    "CFMScheme",
    "STRANG",
    "EMB43AKS",
    "CF4",
    "EXPMID_AS_CFM",
    "GAUSS2_NODES",
    "step_implicit_midpoint",
    "step_splitting",
    "step_exp_midpoint",
    "step_cfm",
    "step_magnus4",
    "cfm_stage_generators",
    "magnus4_generator",
]


@dataclass(frozen=True)
class SplittingScheme:
    """Splitting tableau: the step composes flow_A(a_j*tau) then
    flow_B(b_j*tau) for j = 1..J, starting with the A-flow. Self-adjoint
    tableaus are palindromic with b_J = 0."""

    name: str
    a: tuple
    b: tuple
    order: int

    @property
    def stages(self):
        return len(self.a)


@dataclass(frozen=True)
class CFMScheme:
    """Exponential-integrator tableau: quadrature nodes c_k and stage
    weights a[j][k]. The step multiplies exponentials of
    tau * B_j with B_j = sum_k a[j][k] A(t0 + c_k*tau)."""

    name: str
    nodes: tuple
    weights: tuple
    order: int

    @property
    def stages(self):
        return len(self.weights)


_SQRT3 = np.sqrt(3.0)

#: Two-point Gauss nodes on [0, 1], c1 < c2.
GAUSS2_NODES = (0.5 - _SQRT3 / 6.0, 0.5 + _SQRT3 / 6.0)

STRANG = SplittingScheme("strang", (0.5, 0.5), (1.0, 0.0), 2)

# Optimized self-adjoint 4th-order pair member, 5 A-stages.
EMB43AKS = SplittingScheme(
    "emb43aks",
    (
        0.267171359000977615,
        -0.033827909669505667,
        0.533313101337056104,
        -0.033827909669505667,
        0.267171359000977615,
    ),
    (
        -0.361837907604416033,
        0.861837907604416033,
        0.861837907604416033,
        -0.361837907604416033,
        0.0,
    ),
    4,
)

# 4th-order commutator-free scheme on the two Gauss nodes.
CF4 = CFMScheme(
    "cf4",
    GAUSS2_NODES,
    (
        (0.25 + _SQRT3 / 6.0, 0.25 - _SQRT3 / 6.0),
        (0.25 - _SQRT3 / 6.0, 0.25 + _SQRT3 / 6.0),
    ),
    4,
)

#: The exponential midpoint rule written as a one-stage exponential scheme.
EXPMID_AS_CFM = CFMScheme("expmid", (0.5,), ((1.0,),), 2)


def solve_linearized(df, base, tau, rhs):
    """Solve (I - (tau/2) F'(base)) x = rhs.

    F'(base) is probed through the real-linear directional derivative df,
    so the system is assembled and solved in realified form. Intended for
    the small dense problems the implicit midpoint rule is applied to.
    """
    rhs = np.asarray(rhs, dtype=np.complex128)
    n = rhs.shape[0]
    mat = np.empty((2 * n, 2 * n))
    probe = np.zeros(n, dtype=np.complex128)
    for j in range(n):
        for val, col in ((1.0, j), (1j, n + j)):
            probe[j] = val
            w = probe - 0.5 * tau * df(base, probe)
            mat[:n, col] = w.real
            mat[n:, col] = w.imag
            probe[j] = 0.0
    try:
        sol = np.linalg.solve(mat, np.concatenate((rhs.real, rhs.imag)))
    except np.linalg.LinAlgError as exc:
        raise StepFailure(f"linearized midpoint system is singular: {exc}") from exc
    return sol[:n] + 1j * sol[n:]


def step_implicit_midpoint(problem, tau, u, tol=1e-13, max_iter=25):
    """Implicit midpoint rule, second order, self-adjoint: Newton solve of
    w = u + tau F((u + w)/2); returns w.

    Initial guess is the explicit Euler predictor u + tau F(u); the exact
    Jacobian I - (tau/2) F' is applied through problem.df.
    """
    u = np.asarray(u, dtype=np.complex128)
    if tau == 0.0:
        return u.copy()
    scale = max(1.0, float(np.linalg.norm(u)))
    w = u + tau * problem.f(u)
    for _ in range(max_iter):
        mid = 0.5 * (u + w)
        residual = w - u - tau * problem.f(mid)
        if np.linalg.norm(residual) <= tol * scale:
            return w
        w = w - solve_linearized(problem.df, mid, tau, residual)
    raise StepFailure(
        f"implicit midpoint Newton iteration stalled after {max_iter} steps"
    )


def step_splitting(scheme, problem, tau, u):
    """One step of a splitting composition, A-flow first."""
    u = np.asarray(u, dtype=np.complex128)
    if tau == 0.0:
        return u.copy()
    for aj, bj in zip(scheme.a, scheme.b):
        u = problem.flow_A(aj * tau, u)
        u = problem.flow_B(bj * tau, u)
    return u


def step_exp_midpoint(problem, t0, tau, u):
    """Exponential midpoint rule exp(tau A(t0 + tau/2)) u, second order."""
    return step_cfm(EXPMID_AS_CFM, problem, t0, tau, u)


def cfm_stage_generators(scheme, problem, t0, tau):
    """Stage matrices B_j = sum_k a[j][k] A(t0 + c_k*tau) of a CFM tableau."""
    samples = [problem.A(t0 + ck * tau) for ck in scheme.nodes]
    stages = []
    for row in scheme.weights:
        bj = row[0] * samples[0]
        for ajk, sample in zip(row[1:], samples[1:]):
            bj = bj + ajk * sample
        stages.append(bj)
    return stages


def step_cfm(scheme, problem, t0, tau, u):
    """One step of a commutator-free exponential scheme."""
    u = np.asarray(u, dtype=np.complex128)
    if tau == 0.0:
        return u.copy()
    for bj in cfm_stage_generators(scheme, problem, t0, tau):
        u = expm(tau * bj) @ u
    return u


def magnus4_generator(problem, t0, tau):
    """Generator of the 4th-order Magnus step from two Gauss samples:
    (A1 + A2)/2 - (sqrt(3)/12) tau [A1, A2]."""
    c1, c2 = GAUSS2_NODES
    a1 = problem.A(t0 + c1 * tau)
    a2 = problem.A(t0 + c2 * tau)
    return 0.5 * (a1 + a2) - (_SQRT3 / 12.0) * tau * commutator(a1, a2)


def step_magnus4(problem, t0, tau, u):
    """Classical 4th-order Magnus integrator on Gauss nodes."""
    u = np.asarray(u, dtype=np.complex128)
    if tau == 0.0:
        return u.copy()
    return expm(tau * magnus4_generator(problem, t0, tau)) @ u

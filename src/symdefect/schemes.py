"""Self-adjoint one-step methods and their coefficient tableaus.

All steppers are pure functions of their arguments, run ``steps`` steps of tau
and return the state unchanged for tau = 0. Autonomous ones take (problem, tau,
u, steps=1), the others also t0. They and the defect evaluators fail alike, without numpy
warnings: bad arguments with a ValueError (_checked_state, _checked_tau), a non-finite state or
result with a StepFailure (_checked_state, _finite, LinearFamily.stages).
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import StepFailure

__all__ = [
    "SplittingScheme",
    "CFMScheme",
    "STRANG",
    "EMB43AKS",
    "CF4",
    "EXPMID_AS_CFM",
    "MAGNUS4",
    "GAUSS2_NODES",
    "step_implicit_midpoint",
    "step_splitting",
    "step_exp_midpoint",
    "step_cfm",
    "step_magnus4",
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


@dataclass(frozen=True)
class CFMScheme:
    """Exponential-integrator tableau: quadrature nodes c_k, stage weights
    a[j][k] and commutator weights g_j (empty for commutator-free schemes).
    The step multiplies exponentials of tau * B_j with
    B_j = sum_k a[j][k] A_k + g_j tau [A_1, A_2], A_k = A(t0 + c_k*tau)."""

    name: str
    nodes: tuple
    weights: tuple
    order: int
    commutators: tuple = ()


_SQRT3 = math.sqrt(3.0)  # a float: numpy scalars warn where floats overflow silently

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

#: The classical 4th-order Magnus integrator on the two Gauss nodes: one
#: stage (A1 + A2)/2 - (sqrt(3)/12) tau [A1, A2].
MAGNUS4 = CFMScheme("magnus4", GAUSS2_NODES, ((0.5, 0.5),), 4, (-_SQRT3 / 12.0,))


def solve_linearized(df, base, tau, rhs):
    """Solve (I - (tau/2) F'(base)) x = rhs in realified form.

    The matrix comes from one call of the real-linear directional derivative
    df on the (2n, n) stack [I; iI] of unit directions, so df must act
    row-wise on a stack. Intended for the small dense problems the implicit
    midpoint rule is applied to.
    """
    rhs = np.asarray(rhs, dtype=np.complex128)
    n = rhs.shape[0]
    probes = np.concatenate((np.eye(n), 1j * np.eye(n)))
    columns = probes - 0.5 * tau * df(base, probes)  # row k is column k of the system
    mat = np.concatenate((columns.real, columns.imag), axis=1).T
    try:
        sol = np.linalg.solve(mat, np.concatenate((rhs.real, rhs.imag)))
    except np.linalg.LinAlgError as exc:
        raise StepFailure(f"linearized midpoint system is singular: {exc}") from exc
    return sol[:n] + 1j * sol[n:]


def _checked_tau(tau, steps=1, t0=0.0):
    """tau once ``steps`` is a positive integer and the run's end t0 + steps*tau is finite."""
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    if not math.isfinite(t0 + steps * tau):  # NaN too: math.cos(inf) is a bare domain error
        raise ValueError("step size must be finite, and so must the step's start t0 and end; "
                         f"got t0 = {t0!r}, tau = {tau!r}")
    return tau


def _checked_state(tau, u, steps=1, t0=0.0):
    """u as complex128 once _checked_tau passes, and u finite (else a StepFailure)."""
    _checked_tau(tau, steps, t0)
    return _finite("the state to step", np.asarray(u, dtype=np.complex128))


def _finite(what, x):  # x, or a StepFailure where a step's or defect's result overflowed
    if not np.isfinite(x).all():
        raise StepFailure(f"{what} is not finite")
    return x


def _norm(v):
    # the 2-norm without overflow (numpy squares the entries); a non-finite v fails
    peak = float(np.abs(v).max(initial=0.0))
    if not peak < np.inf:  # NaN too
        raise StepFailure("implicit midpoint iterate or residual is not finite")
    return float(np.linalg.norm(v)) if peak < 1e150 else peak * float(np.linalg.norm(v / peak))


_NEWTON_TOL, _NEWTON_MAX_ITER = 1e-13, 25


@np.errstate(over="ignore", invalid="ignore")  # _norm fails a non-finite iterate
def step_implicit_midpoint(problem, tau, u, steps=1):
    """Implicit midpoint rule, second order, self-adjoint: per step a Newton
    solve of w = u + tau F((u + w)/2), whose w starts the next step.

    Initial guess is the explicit Euler predictor u + tau F(u); the exact
    Jacobian I - (tau/2) F' is applied through problem.df. A state or
    Newton residual that is not finite fails the step.
    """
    u = _checked_state(tau, u, steps)
    if tau == 0.0:
        return u.copy()
    for _ in range(steps):
        scale, w = max(1.0, _norm(u)), u + tau * problem.f(u)
        for _ in range(_NEWTON_MAX_ITER):
            mid = 0.5 * (u + w)
            residual = w - u - tau * problem.f(mid)
            if _norm(residual) <= _NEWTON_TOL * scale:
                break
            w = w - solve_linearized(problem.df, mid, tau, residual)
        else:
            raise StepFailure(
                f"implicit midpoint Newton iteration stalled after {_NEWTON_MAX_ITER} steps")
        u = w
    return u


@np.errstate(over="ignore", invalid="ignore")  # the result is checked
def step_splitting(scheme, problem, tau, u, steps=1):
    """``steps`` steps of a splitting composition, A-flow first. An A-flow with no B-flow
    after it (b_J = 0) joins the next step's first, so ``problem.flow_A`` must compose exactly."""
    u = _checked_state(tau, u, steps)
    if tau == 0.0:
        return u.copy()
    pending = 0.0  # the A-flow so far: a_J + a_1 where two steps meet
    for aj, bj in zip(scheme.a * steps, scheme.b * steps):
        pending += aj
        if bj:
            u = problem.flow_B(bj * tau, problem.flow_A(pending * tau, u))
            pending = 0.0
    return _finite("splitting step", problem.flow_A(pending * tau, u) if pending else u)


@np.errstate(over="ignore", invalid="ignore")  # the result is checked
def step_cfm(scheme, problem, t0, tau, u, steps=1):
    """``steps`` steps of an exponential scheme's tableau, the k-th from t0 + k tau."""
    u = _checked_state(tau, u, steps, t0)
    if tau == 0.0:
        return u.copy()
    for k in range(steps):
        for _, plan, _ in problem.stages(scheme, t0 + k * tau, tau):
            u = plan.apply(u)
    return _finite("exponential step", u)


step_exp_midpoint = partial(step_cfm, EXPMID_AS_CFM)  # exp(tau A(t0 + tau/2)) u, second order
step_magnus4 = partial(step_cfm, MAGNUS4)  # classical 4th-order Magnus on the Gauss nodes

"""Self-adjoint one-step methods and their coefficient tableaus.

All steppers are pure functions of their arguments, run ``steps`` steps of tau
and return the state unchanged for tau = 0. Autonomous ones take (problem, tau,
u, steps=1), the others also t0; a tau that is not finite, or a ``steps``
that is not a positive integer, is a ValueError.
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


def _checked_state(tau, u, steps=1):
    """u as complex128 once tau is finite, ``steps`` a positive integer (else a ValueError)
    and u finite (else a StepFailure)."""
    if not math.isfinite(tau):
        raise ValueError(f"step size must be finite, got tau = {tau!r}")
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    u = np.asarray(u, dtype=np.complex128)
    if not np.isfinite(u).all():
        raise StepFailure("the state to step is not finite")
    return u


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
    return problem.flow_A(pending * tau, u) if pending else u


def _stage_coefficients(scheme, problem, t0, tau, derivatives):
    # per stage the coefficients of B_j and Bcheck_j (or None) over the basis, summed on
    # Python floats: they round as numpy's elementwise operations do, at far less cost
    if not math.isfinite(t0 + tau):  # t0, tau or their sum: math.cos(inf) is a bare domain error
        raise ValueError("step size must be finite, and so must the step's start t0 and end; "
                         f"got t0 = {t0!r}, tau = {tau!r}")
    times = [t0 + ck * tau for ck in scheme.nodes]
    coeffs = [problem.coefficients(t).tolist() for t in times]
    shifts = [ck - 0.5 for ck in scheme.nodes]
    g = scheme.commutators or (0.0,) * len(scheme.weights)
    slopes = [problem.dcoefficients(t).tolist() if derivatives and sk else None
              for t, sk in zip(times, shifts)]
    comm = problem.bracket(coeffs[0], coeffs[1]) if any(g) else None  # [A_1, A_2]
    for row, gj in zip(scheme.weights, g):
        head = [sum(ajk * c for ajk, c in zip(row, column)) for column in zip(*coeffs)]
        check, weights = None, [ajk * sk for ajk, sk in zip(row, shifts)]
        if derivatives and (gj or any(weights)):
            terms = [(w, dk) for w, dk in zip(weights, slopes) if w]
            check = [sum((w * dk[i] for w, dk in terms), 0.0) for i in range(len(head))]
            if gj:
                (c1, c2), (s1, s2), (d1, d2) = coeffs, shifts, slopes
                tail = comm
                for s, pair in ((s1, (d1, c2)), (s2, (c1, d2))):
                    if s:
                        tail = [x + (tau * s) * y for x, y in zip(tail, problem.bracket(*pair))]
                check += [gj * x for x in tail]
            check = np.array(check)
        yield np.array(head + [gj * tau * x for x in comm] if gj else head), check


def _stage_plans(scheme, problem, t0, tau, derivatives=False):
    """Per stage ``problem.stage``: (B_j, ExpmPlan of tau B_j, Bcheck_j) on a
    LinearFamily, from coefficients sampled once per node, with
    B_j = sum_k a[j][k] A_k + g_j tau [A_1, A_2] and, with ``derivatives``,
    Bcheck_j = (d/dtau - (1/2) d/dt0) B_j
             = sum_k a[j][k] (c_k - 1/2) A'_k
               + g_j ([A_1, A_2] + tau (c_1 - 1/2) [A'_1, A_2]
                                 + tau (c_2 - 1/2) [A_1, A'_2]),
    or None where it vanishes identically (or without ``derivatives``)."""
    for b, c in _stage_coefficients(scheme, problem, t0, tau, derivatives):
        yield problem.stage(b, tau, c)


def step_cfm(scheme, problem, t0, tau, u, steps=1):
    """``steps`` steps of an exponential scheme's tableau, the k-th from t0 + k tau."""
    u = _checked_state(tau, u, steps)
    if tau == 0.0:
        return u.copy()
    for k in range(steps):
        for _, plan, _ in _stage_plans(scheme, problem, t0 + k * tau, tau):
            u = plan.apply(u)
    return u


step_exp_midpoint = partial(step_cfm, EXPMID_AS_CFM)  # exp(tau A(t0 + tau/2)) u, second order
step_magnus4 = partial(step_cfm, MAGNUS4)  # classical 4th-order Magnus on the Gauss nodes

"""Defect evaluators for the shipped one-step methods.

A defect here is the residual of the numerical flow in the differential
equation. The classical defect inserts the step into the equation directly;
the symmetrized defect averages that residual with its transported
counterpart, which for self-adjoint schemes buys one extra order of
asymptotic accuracy of the derived local error estimator.

There is one evaluator per scheme family: the general splitting
algorithm (Strang included), the exponential stage loop (the exponential
midpoint rule and the 4th-order Magnus step are tableaus of it), and the
implicit midpoint linear solves. The splitting and implicit midpoint
evaluators give either kind, classical or symmetrized; the exponential
one is symmetrized only.

Every evaluator returns a :class:`DefectOutput` whose ``u_next`` is
bit-for-bit the same state the plain stepper produces; computing the defect
never perturbs the propagated solution.
"""

from functools import partial
from typing import NamedTuple

import numpy as np

from .schemes import (
    STRANG,
    _checked_state,
    _finite,
    _stage_plans,
    solve_linearized,
    step_implicit_midpoint,
)

__all__ = [
    "DefectOutput",
    "imr_defect",
    "splitting_defect_semilinear",
    "cfm_defect",
]


class DefectOutput(NamedTuple):
    u_next: np.ndarray
    defect: np.ndarray


def _share(kind):
    """Boundary share s of a defect kind: 1/2 symmetrized, 0 classical."""
    if kind not in ("classical", "symmetrized"):
        raise ValueError(f"kind must be 'classical' or 'symmetrized', got {kind!r}")
    return 0.5 if kind == "symmetrized" else 0.0


@np.errstate(over="ignore", invalid="ignore")  # the defect is checked
def imr_defect(problem, tau, u, kind="symmetrized"):
    """Defect of the implicit midpoint rule via linear solves.

    With w the midpoint solution, m = (u + w)/2, M = I - (tau/2) F'(m) and
    the boundary share s = 1/2 (symmetrized) or 0 (classical),

        d = z - (1 - s) F(w)   where   M z = F(m) - s F(u) - (s/2) tau F'(m) F(u).

    The solves reuse the Newton machinery of the step itself. A defect no
    longer finite (a huge step or state) fails the step.
    """
    share = _share(kind)
    u = np.asarray(u, dtype=np.complex128)
    w = step_implicit_midpoint(problem, tau, u)
    mid = 0.5 * (u + w)
    rhs = problem.f(mid)
    if share:  # the classical kind has no F(u) terms
        f_u = problem.f(u)
        rhs = rhs - share * f_u - (0.5 * share) * tau * problem.df(mid, f_u)
    d = solve_linearized(problem.df, mid, tau, rhs) - (1.0 - share) * problem.f(w)
    return DefectOutput(w, _finite("implicit midpoint defect", d))


@np.errstate(over="ignore", invalid="ignore")  # the defect is checked
def splitting_defect_semilinear(scheme, problem, tau, u, kind="symmetrized"):
    """Defect of a general splitting step on u' = A u + B(u).

    Both kinds are d_tau S - s dS(u).F(u) - (1 - s) F(S(u)), with the
    boundary share s = 1/2 (symmetrized) or 0 (classical); they differ only
    in their boundary terms. The defect is accumulated alongside the
    solution, starting from -s B(u), in one (2, n) stack (d, u) built once.
    Each A-stage moves the stack through ``problem.flow_A``, whose stage
    weight w adds w A exp(tA) u to the moved defect; w is a_j, less s at the
    first stage and 1 - s at the last (so symmetrized Strang's are both 0).
    Each B-stage moves it through one ``problem.dflow_B_and_flow`` call, whose
    weight b_j adds b_j B(u) and which returns the moved stack. The trailing
    -(1 - s) B(u_next) closes the defect; the final no-op B-stage (b_J = 0)
    is skipped. A defect no longer finite (a huge step) fails the step; at tau = 0
    u_next is a copy of u, as in the plain step, and the defect is exactly zero.
    """
    share = _share(kind)
    if scheme.b[-1] != 0.0:
        raise ValueError(f"scheme {scheme.name!r} must end with a pure A-stage (b_J = 0)")
    u = _checked_state(tau, u)
    if tau == 0.0:
        return DefectOutput(u.copy(), np.zeros_like(u))
    last = len(scheme.a) - 1
    du = np.array((-share * problem.b(u), u))
    for j, (aj, bj) in enumerate(zip(scheme.a, scheme.b)):
        weight = aj - share * (j == 0) - (1.0 - share) * (j == last)
        du = problem.flow_A(aj * tau, du, weight)
        if j < last:
            du = problem.dflow_B_and_flow(bj * tau, du[1], du[0], bj)
    d = du[0] - (1.0 - share) * problem.b(du[1])
    return DefectOutput(du[1], _finite("splitting defect", d))


# the acceptance gate in tests/test_acceptance.py imports Strang's defect by this name
strang_defect = partial(splitting_defect_semilinear, STRANG)


@np.errstate(over="ignore", invalid="ignore")  # stage vectors and the defect are checked
def cfm_defect(scheme, problem, t0, tau, u, variant="hermite"):
    """Symmetrized defect of an exponential step prod_j exp(tau B_j) from
    its stage pairs (B_j, Bcheck_j), see :func:`~symdefect.schemes._stage_plans`.

    Both variants accumulate d = -A(t0) u / 2 through the stage exponentials
    and close with -A(t0 + tau) u / 2. The Taylor variant adds Gamma_j u
    after each stage: B_j plus the ad_{B_j}-series of Bcheck_j, truncated at
    tau^order. The Hermite variant brackets each stage with the two-sided
    quadrature matrices C -/+ = (B_j + tau Bcheck_j)/2 -/+ (tau^2/12)
    [B_j, Bcheck_j]; a stage whose Bcheck_j vanishes uses B_j alone.

    The stage exponentials act through one :class:`~symdefect.linalg.ExpmPlan`
    per stage, one apply per vector, commutators with Bcheck_j act on
    vectors, and A(t) u is sum_m c_m(t) G_m u. A stage vector or defect no
    longer finite (a huge step) fails the step.
    """
    if variant not in ("taylor", "hermite"):
        raise ValueError(f"variant must be 'taylor' or 'hermite', got {variant!r}")
    u = _checked_state(tau, u, t0=t0)
    d = -0.5 * (problem.coefficients(t0) @ (problem.generators @ u))  # A(t0) u
    for bj, plan, bcheck in _stage_plans(scheme, problem, t0, tau, derivatives=True):
        if variant == "taylor":
            u = plan.apply(u)
            d = plan.apply(d) + _gamma_action(bj, bcheck, tau, scheme.order, u)
        else:
            d = plan.apply(d + _hermite_action(bj, bcheck, tau, u, -1.0))
            u = plan.apply(u)
            d = d + _hermite_action(bj, bcheck, tau, u, 1.0)
    d = d - 0.5 * (problem.coefficients(t0 + tau) @ (problem.generators @ u))
    return DefectOutput(u, _finite("exponential defect", d))


def _gamma_action(bj, bcheck, tau, order, x):
    """Gamma_j x = B_j x + sum_{m=0}^{order-1} tau^(m+1)/(m+1)!
    ad_{B_j}^m(Bcheck_j) x, from the vectors ad^m(Bcheck_j) B_j^i x:
    Bcheck_j acts once on each of x, B_j x, ..., B_j^(order-1) x, and
    ad^m(C) B^i x = B ad^(m-1)(C) B^i x - ad^(m-1)(C) B^(i+1) x, one by one."""
    if bcheck is None:
        return bj @ x
    powers = [x]
    for _ in range(order - 1):
        powers.append(bj @ powers[-1])
    nested = [bcheck @ v for v in powers]
    gamma, coeff = powers[1] + tau * nested[0], tau
    for m in range(1, order):
        nested = [bj @ v - w for v, w in zip(nested, nested[1:])]
        coeff *= tau / (m + 1)
        gamma = gamma + coeff * nested[0]
    return gamma


def _hermite_action(bj, bcheck, tau, x, sign):
    """C -/+ x = (B_j x + tau Bcheck_j x)/2 -/+ (tau^2/12) [B_j, Bcheck_j] x
    for sign = -1/+1, the bracket applied as B_j (Bcheck_j x) - Bcheck_j (B_j x):
    four matrix-vector products, each on a contiguous vector."""
    bx = bj @ x
    if bcheck is None:
        return 0.5 * bx
    cx = bcheck @ x
    return 0.5 * (bx + tau * cx) + (sign * tau * tau / 12.0) * (bj @ cx - bcheck @ bx)

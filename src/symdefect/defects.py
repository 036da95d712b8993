"""Defect evaluators for the shipped one-step methods.

A defect here is the residual of the numerical flow in the differential
equation. The classical defect inserts the step into the equation directly;
the symmetrized defect averages that residual with its transported
counterpart, which for self-adjoint schemes buys one extra order of
asymptotic accuracy of the derived local error estimator.

There is one symmetrized evaluator per scheme family: the general
splitting algorithm (Strang included), the exponential stage loop (the
exponential midpoint rule and the 4th-order Magnus step are tableaus of
it), and the implicit midpoint linear solves. Only the classical defects
of implicit midpoint and Strang are separate formulas.

Every evaluator returns a :class:`DefectOutput` whose ``u_next`` is
bit-for-bit the same state the plain stepper produces; computing the defect
never perturbs the propagated solution.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .schemes import (
    STRANG,
    _stage_action,
    cfm_stages,
    solve_linearized,
    step_implicit_midpoint,
)

__all__ = [
    "DefectOutput",
    "imr_defect",
    "strang_defect",
    "splitting_defect_semilinear",
    "cfm_defect",
]


class DefectOutput(NamedTuple):
    u_next: np.ndarray
    defect: np.ndarray


def _check_kind(kind):
    if kind not in ("classical", "symmetrized"):
        raise ValueError(f"kind must be 'classical' or 'symmetrized', got {kind!r}")


def imr_defect(problem, tau, u, kind="symmetrized"):
    """Defect of the implicit midpoint rule via linear solves.

    With w the midpoint solution, m = (u + w)/2 and M = I - (tau/2) F'(m):

    * classical:    d = x - F(w)       where M x = F(m),
    * symmetrized:  d = z - F(w)/2     where
                    M z = F(m) - F(u)/2 - (tau/4) F'(m) F(u).

    The solves reuse the Newton machinery of the step itself.
    """
    _check_kind(kind)
    u = np.asarray(u, dtype=np.complex128)
    w = step_implicit_midpoint(problem, tau, u)
    mid = 0.5 * (u + w)
    f_mid = problem.f(mid)
    f_w = problem.f(w)
    if kind == "classical":
        x = solve_linearized(problem.df, mid, tau, f_mid)
        d = x - f_w
    else:
        f_u = problem.f(u)
        rhs = f_mid - 0.5 * f_u - 0.25 * tau * problem.df(mid, f_u)
        z = solve_linearized(problem.df, mid, tau, rhs)
        d = z - 0.5 * f_w
    return DefectOutput(w, d)


def strang_defect(problem, tau, u, kind="symmetrized"):
    """Defect of Strang splitting on a semilinear problem u' = A u + B(u).

    The symmetrized defect is the general splitting algorithm on
    :data:`STRANG`. With v1 = exp(tau A / 2) u, v2 = E_B(tau, v1),
    w = exp(tau A / 2) v2, the classical defect is

        d = exp(tau A/2) (B(v2) + dE_B(tau, v1) . (A v1) / 2)
            - A w / 2 - B(w)
    """
    _check_kind(kind)
    if kind == "symmetrized":
        return splitting_defect_semilinear(STRANG, problem, tau, u)
    u = np.asarray(u, dtype=np.complex128)
    half = 0.5 * tau
    v1 = problem.flow_A(half, u)
    v2 = problem.flow_B(1.0 * tau, v1)
    w = problem.flow_A(half, v2)
    inner = problem.b(v2) + 0.5 * problem.dflow_B(tau, v1, problem.apply_A(v1))
    d = problem.flow_A(half, inner) - 0.5 * problem.apply_A(w) - problem.b(w)
    return DefectOutput(w, d)


def splitting_defect_semilinear(scheme, problem, tau, u):
    """Symmetrized defect of a general splitting step u' = A u + B(u).

    The defect is accumulated alongside the solution: each stage transports
    defect and state through the A-flow as one (2, n) stack, so
    ``problem.flow_A`` must act row-wise on a stack; it then adds the
    stage-weighted A-action of the transported state (with the two boundary
    stages carrying an extra -1/2, which cancels Strang's weights exactly),
    adds the weighted B-term and transports the defect through the
    derivative of the B-subflow. The leading -B(u)/2 and trailing -B(u)/2
    terms close the symmetrization. The final no-op B-stage (b_J = 0) is
    skipped.
    """
    if scheme.b[-1] != 0.0:
        raise ValueError(f"scheme {scheme.name!r} must end with a pure A-stage (b_J = 0)")
    u = np.asarray(u, dtype=np.complex128)
    d = -0.5 * problem.b(u)
    last = scheme.stages - 1
    for j, (aj, bj) in enumerate(zip(scheme.a, scheme.b)):
        weight = aj
        if j == 0:
            weight -= 0.5
        if j == last:
            weight -= 0.5
        # exp(tA)(d + w A u) = exp(tA) d + w A exp(tA) u
        d, u = problem.flow_A(aj * tau, np.stack((d, u)))
        if weight:  # zero at both of Strang's stages
            d = d + weight * problem.apply_A(u)
        if j < last:
            d = d + bj * problem.b(u)
            d = problem.dflow_B(bj * tau, u, d)
            u = problem.flow_B(bj * tau, u)
    d = d - 0.5 * problem.b(u)
    return DefectOutput(u, d)


def cfm_defect(scheme, problem, t0, tau, u, variant="hermite"):
    """Symmetrized defect of an exponential step prod_j exp(tau B_j) from
    its stage pairs (B_j, Bcheck_j), see :func:`~symdefect.schemes.cfm_stages`.

    Both variants accumulate d = -A(t0) u / 2 through the stage exponentials
    and close with -A(t0 + tau) u / 2. The Taylor variant adds Gamma_j u
    after each stage: B_j plus the ad_{B_j}-series of Bcheck_j, truncated at
    tau^order. The Hermite variant brackets each stage with the two-sided
    quadrature matrices C -/+ = (B_j + tau Bcheck_j)/2 -/+ (tau^2/12)
    [B_j, Bcheck_j]; a stage whose Bcheck_j vanishes uses B_j alone.

    Only matrix-vector products are formed: the stage exponentials act
    through :func:`~symdefect.linalg.expm_action`, one call per vector, and
    every commutator with Bcheck_j is applied to the vectors it acts on. A
    vector no longer finite there (a huge step overflowing) fails the step.
    """
    if variant not in ("taylor", "hermite"):
        raise ValueError(f"variant must be 'taylor' or 'hermite', got {variant!r}")
    u = np.asarray(u, dtype=np.complex128)
    d = -0.5 * (problem.A(t0) @ u)
    for bj, bcheck in cfm_stages(scheme, problem, t0, tau, derivatives=True):
        generator = tau * bj
        if variant == "taylor":
            u = _stage_action(generator, u)
            d = _stage_action(generator, d) + _gamma_action(bj, bcheck, tau, scheme.order, u)
        else:
            d = _stage_action(generator, d + _hermite_action(bj, bcheck, tau, u, -1.0))
            u = _stage_action(generator, u)
            d = d + _hermite_action(bj, bcheck, tau, u, 1.0)
    d = d - 0.5 * (problem.A(t0 + tau) @ u)
    return DefectOutput(u, d)


def _gamma_action(bj, bcheck, tau, order, x):
    """Gamma_j x = B_j x + sum_{m=0}^{order-1} tau^(m+1)/(m+1)!
    ad_{B_j}^m(Bcheck_j) x, from the columns ad^m(Bcheck_j) B_j^i x:
    Bcheck_j acts once on the block (x, B_j x, ..., B_j^(order-1) x), and
    ad^m(C) B^i x = B ad^(m-1)(C) B^i x - ad^(m-1)(C) B^(i+1) x."""
    if bcheck is None:
        return bj @ x
    powers = [x]
    for _ in range(order - 1):
        powers.append(bj @ powers[-1])
    nested = bcheck(np.stack(powers, axis=1))
    gamma, coeff = powers[1] + tau * nested[:, 0], tau
    for m in range(1, order):
        nested = bj @ nested[:, :-1] - nested[:, 1:]
        coeff *= tau / (m + 1)
        gamma = gamma + coeff * nested[:, 0]
    return gamma


def _hermite_action(bj, bcheck, tau, x, sign):
    """C -/+ x = (B_j x + tau Bcheck_j x)/2 -/+ (tau^2/12) [B_j, Bcheck_j] x
    for sign = -1/+1, the bracket applied as B_j (Bcheck_j x) - Bcheck_j (B_j x)."""
    bx = bj @ x
    if bcheck is None:
        return 0.5 * bx
    cx, cbx = bcheck(np.stack((x, bx), axis=1)).T
    with np.errstate(over="ignore", invalid="ignore"):  # stage vectors are checked
        return 0.5 * (bx + tau * cx) + (sign * tau * tau / 12.0) * (bj @ cx - cbx)

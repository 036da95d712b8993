"""Defect evaluators for the shipped one-step methods.

A defect here is the residual of the numerical flow in the differential
equation. The classical defect inserts the step into the equation directly;
the symmetrized defect averages that residual with its transported
counterpart, which for self-adjoint schemes buys one extra order of
asymptotic accuracy of the derived local error estimator.

There is one symmetrized evaluator per scheme family: the general
splitting algorithm (Strang included), the commutator-free stage loop
(the exponential midpoint rule is its one-stage tableau) shared with the
4th-order Magnus step, and the implicit midpoint linear solves. Only the
classical defects of implicit midpoint and Strang are separate formulas.

Every evaluator returns a :class:`DefectOutput` whose ``u_next`` is
bit-for-bit the same state the plain stepper produces; computing the defect
never perturbs the propagated solution.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import commutator, expm
from .schemes import (
    GAUSS2_NODES,
    STRANG,
    cfm_stage_generators,
    magnus4_generator,
    solve_linearized,
    step_implicit_midpoint,
)

__all__ = [
    "DefectOutput",
    "imr_defect",
    "strang_defect",
    "splitting_defect_semilinear",
    "cfm_bcheck",
    "cfm_defect",
    "magnus4_bcheck",
    "magnus4_defect",
]

_SQRT3 = np.sqrt(3.0)


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


def cfm_bcheck(scheme, problem, t0, tau, j):
    """Stage derivative matrix sum_k a[j][k] (c_k - 1/2) A'(t0 + c_k*tau).

    The stage index j is 1-based, matching the tableau convention.
    """
    if not 1 <= j <= scheme.stages:
        raise ValueError(f"stage index {j} outside 1..{scheme.stages}")
    return sum(
        (ajk * (ck - 0.5)) * problem.dA(t0 + ck * tau)
        for ajk, ck in zip(scheme.weights[j - 1], scheme.nodes)
    )


def _exponential_defect(problem, t0, tau, u, stages, variant, order):
    """Symmetrized defect of a product of stage exponentials exp(tau B_j).

    ``stages`` yields the pairs (B_j, Bcheck_j). Both variants accumulate
    d = -A(t0) u / 2 through the stage exponentials and close with
    -A(t0 + tau) u / 2. The Taylor variant adds Gamma_j u after each stage:
    B_j plus the ad_{B_j}-series of Bcheck_j, truncated at tau^order. The
    Hermite variant brackets each stage with the two-sided quadrature
    matrices C -/+ = (B_j + tau Bcheck_j)/2 -/+ (tau^2/12) [B_j, Bcheck_j].
    """
    if variant not in ("taylor", "hermite"):
        raise ValueError(f"variant must be 'taylor' or 'hermite', got {variant!r}")
    u = np.asarray(u, dtype=np.complex128)
    d = -0.5 * (problem.A(t0) @ u)
    for bj, bcheck in stages:
        propagator = expm(tau * bj)
        if variant == "taylor":
            gamma, nested, coeff = bj + tau * bcheck, bcheck, tau
            for m in range(1, order):
                nested = commutator(bj, nested)
                coeff *= tau / (m + 1)
                gamma = gamma + coeff * nested
            u = propagator @ u
            d = propagator @ d + gamma @ u
        else:
            base = 0.5 * (bj + tau * bcheck)
            corr = (tau * tau / 12.0) * commutator(bj, bcheck)
            d = propagator @ (d + (base - corr) @ u)
            u = propagator @ u
            d = d + (base + corr) @ u
    d = d - 0.5 * (problem.A(t0 + tau) @ u)
    return DefectOutput(u, d)


def cfm_defect(scheme, problem, t0, tau, u, variant="hermite"):
    """Symmetrized defect of a commutator-free exponential step; the
    exponential midpoint rule is the one-stage tableau ``EXPMID_AS_CFM``."""
    pairs = [
        (bj, cfm_bcheck(scheme, problem, t0, tau, j))
        for j, bj in enumerate(cfm_stage_generators(scheme, problem, t0, tau), 1)
    ]
    return _exponential_defect(problem, t0, tau, u, pairs, variant, scheme.order)


def magnus4_bcheck(problem, t0, tau):
    """Derivative matrix of the 4th-order Magnus generator,
    (d/dtau - (1/2) d/dt0) B, assembled from A and A' at the Gauss nodes."""
    c1, c2 = GAUSS2_NODES
    a1 = problem.A(t0 + c1 * tau)
    a2 = problem.A(t0 + c2 * tau)
    da1 = problem.dA(t0 + c1 * tau)
    da2 = problem.dA(t0 + c2 * tau)
    s = _SQRT3 / 12.0
    return (
        0.5 * ((c1 - 0.5) * da1 + (c2 - 0.5) * da2)
        - s * commutator(a1, a2)
        - s * (c1 - 0.5) * tau * commutator(da1, a2)
        - s * (c2 - 0.5) * tau * commutator(a1, da2)
    )


def magnus4_defect(problem, t0, tau, u, variant="hermite"):
    """Symmetrized defect of the 4th-order Magnus step: the exponential
    stage loop on its single generator and generator derivative."""
    stage = (magnus4_generator(problem, t0, tau), magnus4_bcheck(problem, t0, tau))
    return _exponential_defect(problem, t0, tau, u, (stage,), variant, 4)

"""Defect evaluators for the shipped one-step methods.

A defect here is the residual of the numerical flow in the differential
equation. The classical defect inserts the step into the equation directly;
the symmetrized defect averages that residual with its transported
counterpart, which for self-adjoint schemes buys one extra order of
asymptotic accuracy of the derived local error estimator.

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
    cfm_stage_generators,
    magnus4_generator,
    solve_implicit_midpoint,
    solve_linearized,
)

__all__ = [
    "DefectOutput",
    "imr_defect",
    "strang_defect",
    "splitting_defect_semilinear",
    "splitting_defect_nonlinear",
    "expmid_defect",
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


def _check_variant(variant):
    if variant not in ("taylor", "hermite"):
        raise ValueError(f"variant must be 'taylor' or 'hermite', got {variant!r}")


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
    w = solve_implicit_midpoint(problem, tau, u)
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

    With v1 = exp(tau A / 2) u, v2 = E_B(tau, v1), w = exp(tau A / 2) v2:

    * classical:
        d = exp(tau A/2) (B(v2) + dE_B(tau, v1) . (A v1) / 2)
            - A w / 2 - B(w)
    * symmetrized:
        d = exp(tau A/2) (B(v2) - dE_B(tau, v1) . (exp(tau A/2) B(u)) / 2)
            - B(w) / 2
    """
    _check_kind(kind)
    u = np.asarray(u, dtype=np.complex128)
    half = 0.5 * tau
    v1 = problem.flow_A(half, u)
    v2 = problem.flow_B(1.0 * tau, v1)
    w = problem.flow_A(half, v2)
    b_v2 = problem.b(v2)
    if kind == "classical":
        inner = b_v2 + 0.5 * problem.dflow_B(tau, v1, problem.apply_A(v1))
        d = problem.flow_A(half, inner) - 0.5 * problem.apply_A(w) - problem.b(w)
    else:
        transported = problem.dflow_B(tau, v1, problem.flow_A(half, problem.b(u)))
        d = problem.flow_A(half, b_v2 - 0.5 * transported) - 0.5 * problem.b(w)
    return DefectOutput(w, d)


def _check_final_stage(scheme):
    if scheme.b[-1] != 0.0:
        raise ValueError(
            f"scheme {scheme.name!r} must end with a pure A-stage (b_J = 0)"
        )


def splitting_defect_semilinear(scheme, problem, tau, u):
    """Symmetrized defect of a general splitting step, linear A-part.

    The defect is accumulated alongside the solution: each stage transports
    defect and state through the A-flow as one (2, n) stack, so
    ``problem.flow_A`` must act row-wise on a stack; it then adds the
    stage-weighted A-action of the transported state (with the two boundary
    stages carrying an extra -1/2), adds the weighted B-term and transports
    the defect through the derivative of the B-subflow. The leading -B(u)/2
    and trailing -B(u)/2 terms close the symmetrization. The final no-op
    B-stage (b_J = 0) is skipped.
    """
    _check_final_stage(scheme)
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
        d = d + weight * problem.apply_A(u)
        if j < last:
            d = d + bj * problem.b(u)
            d = problem.dflow_B(bj * tau, u, d)
            u = problem.flow_B(bj * tau, u)
    d = d - 0.5 * problem.b(u)
    return DefectOutput(u, d)


def splitting_defect_nonlinear(scheme, problem, tau, u):
    """Symmetrized defect of a general splitting step, nonlinear A-part.

    Same accumulation as the semilinear variant, with A u replaced by the
    nonlinear action a(u) and the defect transported through the derivative
    of the A-subflow instead of the linear flow itself.
    """
    _check_final_stage(scheme)
    u = np.asarray(u, dtype=np.complex128)
    d = -0.5 * problem.b(u)
    last = scheme.stages - 1
    for j, (aj, bj) in enumerate(zip(scheme.a, scheme.b)):
        weight = aj
        if j == 0:
            weight -= 0.5
        if j == last:
            weight -= 0.5
        d = d + weight * problem.a(u)
        d = problem.dflow_A(aj * tau, u, d)
        u = problem.flow_A(aj * tau, u)
        if j < last:
            d = d + bj * problem.b(u)
            d = problem.dflow_B(bj * tau, u, d)
            u = problem.flow_B(bj * tau, u)
    d = d - 0.5 * problem.b(u)
    return DefectOutput(u, d)


def expmid_defect(problem, t0, tau, u):
    """Exact symmetrized defect of the exponential midpoint rule:

        d = (A(t0 + tau/2) - A(t0 + tau)/2) S u - S (A(t0) u) / 2

    with S = exp(tau A(t0 + tau/2)). No derivative of A is needed.
    """
    u = np.asarray(u, dtype=np.complex128)
    a_mid = problem.A(t0 + 0.5 * tau)
    propagator = expm(tau * a_mid)
    u_next = propagator @ u
    d = (
        a_mid @ u_next
        - 0.5 * (problem.A(t0 + tau) @ u_next)
        - 0.5 * (propagator @ (problem.A(t0) @ u))
    )
    return DefectOutput(u_next, d)


def cfm_bcheck(scheme, problem, t0, tau, j):
    """Stage derivative matrix sum_k a[j][k] (c_k - 1/2) A'(t0 + c_k*tau).

    The stage index j is 1-based, matching the tableau convention.
    """
    if not 1 <= j <= scheme.stages:
        raise ValueError(f"stage index {j} outside 1..{scheme.stages}")
    row = scheme.weights[j - 1]
    out = None
    for ajk, ck in zip(row, scheme.nodes):
        term = (ajk * (ck - 0.5)) * problem.dA(t0 + ck * tau)
        out = term if out is None else out + term
    return out


def _gamma_series(bj, bcheck, tau, order):
    """B_j plus the ad-series of the stage derivative, truncated so the
    highest retained term carries tau^order."""
    gamma = bj + tau * bcheck
    nested = bcheck
    coeff = tau
    for m in range(1, order):
        nested = commutator(bj, nested)
        coeff *= tau / (m + 1)
        gamma = gamma + coeff * nested
    return gamma


def _hermite_pair(bj, bcheck, tau):
    base = 0.5 * (bj + tau * bcheck)
    corr = (tau * tau / 12.0) * commutator(bj, bcheck)
    return base - corr, base + corr


def cfm_defect(scheme, problem, t0, tau, u, variant="hermite"):
    """Symmetrized defect of a commutator-free exponential step.

    Both variants accumulate d = -A(t0) u / 2 through the stage
    exponentials and close with -A(t0 + tau) u / 2. The Taylor variant adds
    the truncated ad-series Gamma_j u after each stage; the Hermite variant
    brackets each stage with the two-sided quadrature matrices
    C -/+ = (B_j + tau Bcheck_j)/2 -/+ (tau^2/12) [B_j, Bcheck_j].
    """
    _check_variant(variant)
    u = np.asarray(u, dtype=np.complex128)
    stages = cfm_stage_generators(scheme, problem, t0, tau)
    d = -0.5 * (problem.A(t0) @ u)
    for j, bj in enumerate(stages, start=1):
        bcheck = cfm_bcheck(scheme, problem, t0, tau, j)
        propagator = expm(tau * bj)
        if variant == "taylor":
            u = propagator @ u
            d = propagator @ d
            d = d + _gamma_series(bj, bcheck, tau, scheme.order) @ u
        else:
            c_minus, c_plus = _hermite_pair(bj, bcheck, tau)
            d = d + c_minus @ u
            u = propagator @ u
            d = propagator @ d
            d = d + c_plus @ u
    d = d - 0.5 * (problem.A(t0 + tau) @ u)
    return DefectOutput(u, d)


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
    """Symmetrized defect of the 4th-order Magnus step.

    Taylor:  d = (Gamma - A(t0+tau)/2) S u - S (A(t0) u) / 2 with Gamma the
    truncated ad-series of the generator derivative. Hermite: the series is
    replaced by the two-sided quadrature pair C-/C+ as for the
    commutator-free schemes.
    """
    _check_variant(variant)
    u = np.asarray(u, dtype=np.complex128)
    b = magnus4_generator(problem, t0, tau)
    bcheck = magnus4_bcheck(problem, t0, tau)
    propagator = expm(tau * b)
    u_next = propagator @ u
    a_end_u = problem.A(t0 + tau) @ u_next
    a0_u = problem.A(t0) @ u
    if variant == "taylor":
        gamma = _gamma_series(b, bcheck, tau, 4)
        d = gamma @ u_next - 0.5 * a_end_u - 0.5 * (propagator @ a0_u)
    else:
        c_minus, c_plus = _hermite_pair(b, bcheck, tau)
        d = c_plus @ u_next - 0.5 * a_end_u + propagator @ (c_minus @ u - 0.5 * a0_u)
    return DefectOutput(u_next, d)

"""Estimator assembly, corrected stepping, reference solves, and adaptivity.

The glue layer: bundles a stepper and its defect evaluator into a
:class:`Method`, turns defects into local error estimates and corrected
states, provides high-accuracy reference solutions, a quadrature oracle for
the integral representations of the local error, and the classic
proportional step-size controller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .defects import (
    cfm_defect,
    imr_defect,
    splitting_defect_semilinear,
    strang_defect,
)
from .errors import ConvergenceFailure, StepFailure
from .schemes import (
    CF4,
    EMB43AKS,
    EXPMID_AS_CFM,
    MAGNUS4,
    STRANG,
    step_cfm,
    step_implicit_midpoint,
    step_splitting,
)

__all__ = [
    "StepOutput",
    "state_norm",
    "estimator_scale",
    "estimate_and_correct",
    "Method",
    "make_method",
    "METHOD_NAMES",
    "FAMILY_NEEDS",
    "method_needs",
    "reference_solve",
    "local_error_integral_oracle",
    "AdaptiveConfig",
    "StepRecord",
    "propose_step",
    "adaptive_integrate",
]


def state_norm(problem, v):
    """Norm used for error measurement: the 2-norm scaled by the problem's
    norm weight (sqrt of the mesh width for collocated PDEs, 1 otherwise)."""
    return getattr(problem, "norm_weight", 1.0) * float(np.linalg.norm(v))


@dataclass(frozen=True)
class StepOutput:
    """One step's result; estimator and corrected state are filled in by
    :func:`estimate_and_correct`."""

    tau: float
    u_next: np.ndarray
    defect: Optional[np.ndarray] = None
    estimator: Optional[np.ndarray] = None
    u_corrected: Optional[np.ndarray] = None


def estimator_scale(tau, order):
    """Factor tau/(p+1) turning a defect into the local error estimate."""
    return tau / (order + 1)


def estimate_and_correct(step, order):
    """Attach the defect-based estimator tau/(p+1) * d and the corrected
    state u_next - estimator to a step that carries its defect."""
    if step.defect is None:
        raise ValueError("step carries no defect")
    estimator = estimator_scale(step.tau, order) * step.defect
    return replace(step, estimator=estimator, u_corrected=step.u_next - estimator)


@dataclass(frozen=True)
class Method:
    """A stepper with a matching defect evaluator and declared order.

    Both callables take (problem, t0, tau, u); autonomous steppers ignore
    t0. ``step_with_defect`` returns a :class:`DefectOutput`.
    """

    name: str
    order: int
    step: Callable
    step_with_defect: Callable


#: Problem method each scheme family needs; a problem without it cannot
#: run the family's schemes.
FAMILY_NEEDS = {"implicit": "f", "splitting": "flow_B", "exponential": "A"}


# A family's builder takes (tableau, defect, variant) and returns the pair
# (step, step_with_defect), both taking (problem, t0, tau, u). The pair looks
# the package functions up when called, so wrappers installed on the module
# attributes see every call.


def _implicit_midpoint(tableau, defect, variant):
    return (
        lambda p, t0, tau, u: step_implicit_midpoint(p, tau, u),
        lambda p, t0, tau, u: imr_defect(p, tau, u, kind=defect),
    )


def _splitting(scheme, defect, variant):
    def step_with_defect(p, t0, tau, u):
        if defect == "classical":  # offered for Strang only
            return strang_defect(p, tau, u, kind="classical")
        return splitting_defect_semilinear(scheme, p, tau, u)

    return lambda p, t0, tau, u: step_splitting(scheme, p, tau, u), step_with_defect


def _cfm(scheme, defect, variant):
    return (
        lambda p, t0, tau, u: step_cfm(scheme, p, t0, tau, u),
        lambda p, t0, tau, u: cfm_defect(scheme, p, t0, tau, u, variant=variant),
    )


# name -> (family, builder, tableau, order, defect kinds)
_BOTH, _SYM = ("classical", "symmetrized"), ("symmetrized",)
_METHODS = {
    "imr": ("implicit", _implicit_midpoint, None, 2, _BOTH),
    "strang": ("splitting", _splitting, STRANG, STRANG.order, _BOTH),
    "emb43aks": ("splitting", _splitting, EMB43AKS, EMB43AKS.order, _SYM),
    "expmid": ("exponential", _cfm, EXPMID_AS_CFM, EXPMID_AS_CFM.order, _SYM),
    "cf4": ("exponential", _cfm, CF4, CF4.order, _SYM),
    "magnus4": ("exponential", _cfm, MAGNUS4, MAGNUS4.order, _SYM),
}
METHOD_NAMES = tuple(_METHODS)


def method_needs(name):
    """Problem method the family of scheme ``name`` needs."""
    if name not in _METHODS:
        raise ValueError(f"unknown method {name!r}; choose from {METHOD_NAMES}")
    return FAMILY_NEEDS[_METHODS[name][0]]


def make_method(name, defect="symmetrized", variant="hermite"):
    """Build a :class:`Method` by scheme name.

    ``defect`` picks classical vs symmetrized where both exist (implicit
    midpoint, Strang); ``variant`` picks the Taylor vs Hermite evaluation
    for the exponential integrators and is checked, but unused, for the
    others. Every scheme of a family runs through the family's one stepper
    and one defect evaluator.
    """
    method_needs(name)  # rejects an unknown name
    _, build, tableau, order, kinds = _METHODS[name]
    if defect not in kinds:
        raise ValueError(f"defect {defect!r} is not available for {name}; use {kinds}")
    if variant not in ("taylor", "hermite"):
        raise ValueError(f"variant must be 'taylor' or 'hermite', got {variant!r}")
    return Method(name, order, *build(tableau, defect, variant))


def _default_reference_method(problem):
    # highest-order corrected scheme the problem's interface supports
    for name in ("magnus4", "emb43aks", "imr"):
        if hasattr(problem, method_needs(name)):
            return make_method(name)
    raise ValueError(f"a problem needs one of {sorted(FAMILY_NEEDS.values())}")


def corrected_run(problem, method, t0, t_end, u0, steps, record=()):
    """Fixed-step integration propagating the corrected state each step.
    Returns the final state and {i: state after i steps} for i in record."""
    tau = (t_end - t0) / steps
    u = np.asarray(u0, dtype=np.complex128)
    kept = {}
    for i in range(steps):
        u_next, d = method.step_with_defect(problem, t0 + i * tau, tau, u)
        u = u_next - estimator_scale(tau, method.order) * d
        if i + 1 in record:
            kept[i + 1] = u
    return u, kept


def _closed_form(problem, t0, u0):
    """The closed-form solution as a function of the end time, or None."""
    if hasattr(problem, "exact_solution"):
        return lambda t_end: problem.exact_solution(t_end - t0, u0)
    if (
        hasattr(problem, "exact_state")
        and getattr(problem, "initial", None) == "soliton"
        and np.array_equal(u0, problem.exact_state(t0))
    ):
        return problem.exact_state


def reference_solve(
    problem, t0, t_end, u0, tol=1e-12, method=None, use_exact=True, max_steps=2**13
):
    """High-accuracy solution of the problem at t_end, or the list of them
    for a sequence of end times.

    When the problem knows a closed-form solution (and, for time-anchored
    ones, u0 is the closed-form state at t0), the closed form is sampled;
    ``use_exact=False`` disables this shortcut. Otherwise each interval is
    integrated with the highest-order available corrected scheme, doubling
    the step count until two consecutive answers differ by less than tol,
    and the finer answer is returned. Ends are solved longest first; a run
    keeps the states it passes where a later end's run would take the same
    steps, and that end reuses them, so each answer is bitwise that of a
    call for its end alone. All runs of one call take at most ``max_steps``
    steps in total, or :class:`ConvergenceFailure` is raised.
    """
    u0 = np.asarray(u0, dtype=np.complex128)
    ends = [t_end] if np.ndim(t_end) == 0 else list(t_end)
    exact = _closed_form(problem, t0, u0) if use_exact and method is None else None
    order = sorted(range(len(ends)), key=lambda k: -abs(ends[k] - t0))
    states, runs, budget = {}, {}, max_steps  # runs: (step, steps) -> state
    for position, k in enumerate(order):
        span = ends[k] - t0
        if span == 0 or exact is not None:
            states[k] = u0.copy() if span == 0 else exact(ends[k])
            continue
        method = method or _default_reference_method(problem)
        later = [ends[j] - t0 for j in order[position + 1 :]]
        steps, previous, diff = 1, None, math.inf
        while not diff < tol:  # a NaN difference keeps doubling
            h = span / steps
            current = runs.get((h, steps))
            if current is None:
                if steps > budget:
                    raise ConvergenceFailure(
                        f"reference solve used up its budget of {max_steps} steps "
                        f"before converging to {tol:g} (last difference {diff:.3e})"
                    )
                budget -= steps
                # key (h, i) is i steps of h from t0, whichever end's run took them
                record = {round(s / h) for s in later if 1 <= s / h <= steps}
                current, kept = corrected_run(problem, method, t0, ends[k], u0, steps, record)
                runs.update(((h, i), state) for i, state in kept.items())
            if previous is not None:
                diff = state_norm(problem, current - previous)
            previous, steps = current, 2 * steps
        states[k] = previous
    return states[0] if np.ndim(t_end) == 0 else [states[k] for k in range(len(ends))]


# -- integral representations of the local error ------------------------------


def _rk4(rhs, y, h, steps):
    """Fixed-step RK4 on a (k, m) stack, row i stepping by h[i, 0]."""
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def local_error_integral_oracle(
    problem, method, tau, u0, kind="symmetrized", quad_nodes=48, ode_steps=512
):
    """Quadrature evaluation of the integral representation of the local
    error in terms of the defect (validation oracle, small problems only).

    classical:    int_0^tau dE(tau - s, S(s, u0)) . D(s, u0) ds
    symmetrized:  int_0^tau dE(h, S(s, E(h, u0))) . D(s, E(h, u0)) ds,
                  h = (tau - s)/2

    on ``quad_nodes`` Gauss-Legendre nodes s. The exact flow E of
    u' = F(u), and its derivative dE applied by integrating the variational
    equation v' = F'(y) v alongside y' = F(y), come from ``ode_steps`` RK4
    steps taken for all nodes at once: row i of a (quad_nodes, 2n) stack
    runs over node i's duration, so ``problem.f`` and ``problem.df`` must
    act row-wise on a (k, n) stack. The method's defect evaluator runs once
    per node and must produce the matching defect kind.
    """
    if kind not in ("classical", "symmetrized"):
        raise ValueError(f"unknown kind {kind!r}")
    for name, value in (("quad_nodes", quad_nodes), ("ode_steps", ode_steps)):
        if not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    u0 = np.asarray(u0, dtype=np.complex128)
    n = u0.shape[0]
    nodes, weights = np.polynomial.legendre.leggauss(quad_nodes)
    # map from [-1, 1] to [0, tau]
    points = 0.5 * tau * (nodes + 1.0)
    scale = 0.5 * tau
    durations = tau - points if kind == "classical" else 0.5 * (tau - points)
    h = durations[:, None] / ode_steps
    starts = np.tile(u0, (quad_nodes, 1))
    if kind == "symmetrized":
        starts = _rk4(problem.f, starts, h, ode_steps)
    pairs = np.array([np.concatenate(method.step_with_defect(problem, 0.0, s, x))
                      for s, x in zip(points, starts)])

    def variational(stack):
        y, w = stack[:, :n], stack[:, n:]
        return np.concatenate((problem.f(y), problem.df(y, w)), axis=1)

    terms = _rk4(variational, pairs, h, ode_steps)[:, n:]
    total = np.zeros_like(u0)
    for w, term in zip(weights, terms):
        total = total + (w * scale) * term
    return total


# -- adaptive step-size control ------------------------------------------------


@dataclass(frozen=True)
class AdaptiveConfig:
    """Settings of the proportional controller. ``tol`` bounds the 2-norm of
    the local error estimate per step."""

    tol: float
    tau_init: float
    tau_min: float = 1e-10
    tau_max: float = 1.0
    safety: float = 0.9
    ratio_min: float = 0.25
    ratio_max: float = 4.0

    def __post_init__(self):
        if not 0.0 < self.ratio_min < 1.0 < self.ratio_max:
            raise ValueError("need 0 < ratio_min < 1 < ratio_max")
        if not self.tau_min <= self.tau_init <= self.tau_max:
            raise ValueError("need tau_min <= tau_init <= tau_max")
        if not self.tol > 0.0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class StepRecord:
    t: float
    tau: float
    est_norm: float
    accepted: bool


def propose_step(tau, err, tol, order, config):
    """Next step size of the classic controller:
    tau * clamp(safety * (tol/err)^(1/(p+1)), ratio_min, ratio_max),
    clamped into [tau_min, tau_max]. A non-finite err shrinks by ratio_min,
    so a step that keeps failing ends in the controller's stall check."""
    if not math.isfinite(err):
        ratio = config.ratio_min
    elif err == 0.0:
        ratio = config.ratio_max
    else:
        ratio = config.safety * (tol / err) ** (1.0 / (order + 1))
        ratio = min(max(ratio, config.ratio_min), config.ratio_max)
    return min(max(tau * ratio, config.tau_min), config.tau_max)


def adaptive_integrate(problem, method, config, t0, t_end, u0):
    """Adaptive integration from t0 to t_end.

    Each trial step is accepted when the estimator norm is at most tol and
    redone with the proposed smaller step otherwise; a trial step that
    raises :class:`StepFailure` counts as rejected with an infinite
    estimate. The final step is clamped to land on t_end exactly. Returns
    the final state and the full trace of trial steps.
    """
    u = np.asarray(u0, dtype=np.complex128)
    records = []
    t = t0
    compensation = 0.0  # Kahan accumulation keeps sum(tau) consistent with t
    tau = min(config.tau_init, t_end - t0)
    span = abs(t_end - t0)
    while t < t_end - 1e-14 * span:
        tau = min(tau, t_end - t)
        try:
            u_next, d = method.step_with_defect(problem, t, tau, u)
        except StepFailure:
            err = math.inf
        else:
            err = state_norm(problem, estimator_scale(tau, method.order) * d)
        accepted = err <= config.tol
        records.append(StepRecord(t, tau, err, accepted))
        tau_next = propose_step(tau, err, config.tol, method.order, config)
        if accepted:
            u = u_next
            increment = tau - compensation
            t_new = t + increment
            compensation = (t_new - t) - increment
            t = t_new
        elif tau_next >= tau or tau_next <= config.tau_min:
            raise StepFailure(
                f"controller stalled at t = {t:.6g}: err = {err:.3e} > tol with "
                f"tau already at {tau:.3e}"
            )
        tau = tau_next
    return u, records

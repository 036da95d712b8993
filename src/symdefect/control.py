"""Estimator assembly, corrected stepping, reference solves, and adaptivity.

The glue layer: bundles a stepper and its defect evaluator into a
:class:`Method`, turns defects into local error estimates and corrected
states, provides high-accuracy reference solutions, a quadrature oracle for
the integral representations of the local error, and the classic
proportional step-size controller.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .defects import _share, cfm_defect, imr_defect, splitting_defect_semilinear
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

# The one work budget (corrected steps of a reference solve, trials of an adaptive run, steps
# of a global-study level; 3.6x the 2,243 trials of the adaptive-two-soliton pass), and the
# tolerance of a reference solve's Richardson estimate
_MAX_STEPS, _REFERENCE_TOL = 2**13, 1e-12
_GAUSS_RULES = {}  # quad_nodes -> the oracle's read-only Gauss-Legendre (nodes, weights) on [-1, 1]

__all__ = [
    "StepOutput",
    "state_norm",
    "estimator_scale",
    "estimate_and_correct",
    "Method",
    "make_method",
    "METHOD_NAMES",
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

    Both callables take (problem, t0, tau, u), autonomous steppers ignoring t0;
    ``step(..., steps=1)`` runs that many steps of tau as one composition, the k-th from
    t0 + k tau. ``step_with_defect`` returns a :class:`DefectOutput`, its defect of kind ``defect``.
    """

    name: str
    order: int
    step: Callable
    step_with_defect: Callable
    defect: str


# A family's builder takes (tableau, defect, variant) and returns the pair
# (step, step_with_defect), both taking (problem, t0, tau, u), step also steps=1.
# The pair looks the package functions up when called, so wrappers installed on
# the module attributes see every call.


def _implicit_midpoint(tableau, defect, variant):
    return (
        lambda p, t0, tau, u, steps=1: step_implicit_midpoint(p, tau, u, steps),
        lambda p, t0, tau, u: imr_defect(p, tau, u, kind=defect),
    )


def _splitting(scheme, defect, variant):
    return (
        lambda p, t0, tau, u, steps=1: step_splitting(scheme, p, tau, u, steps),
        lambda p, t0, tau, u: splitting_defect_semilinear(scheme, p, tau, u, kind=defect),
    )


def _cfm(scheme, defect, variant):
    return (
        lambda p, t0, tau, u, steps=1: step_cfm(scheme, p, t0, tau, u, steps),
        lambda p, t0, tau, u: cfm_defect(scheme, p, t0, tau, u, variant=variant),
    )


# name -> (problem method it needs, builder, tableau, order, defect kinds)
_BOTH, _SYM = ("classical", "symmetrized"), ("symmetrized",)
_METHODS = {
    "imr": ("f", _implicit_midpoint, None, 2, _BOTH),
    "strang": ("flow_B", _splitting, STRANG, STRANG.order, _BOTH),
    "emb43aks": ("flow_B", _splitting, EMB43AKS, EMB43AKS.order, _SYM),
    "expmid": ("coefficients", _cfm, EXPMID_AS_CFM, EXPMID_AS_CFM.order, _SYM),
    "cf4": ("coefficients", _cfm, CF4, CF4.order, _SYM),
    "magnus4": ("coefficients", _cfm, MAGNUS4, MAGNUS4.order, _SYM),
}
METHOD_NAMES = tuple(_METHODS)
_BUILT = {}  # (name, defect, variant if used) -> Method: a study knows the reference's by identity


def method_needs(name):
    """Problem method scheme ``name`` needs; a problem without it cannot run it."""
    if name not in _METHODS:
        raise ValueError(f"unknown method {name!r}; choose from {METHOD_NAMES}")
    return _METHODS[name][0]


def make_method(name, defect="symmetrized", variant="hermite"):
    """Build a :class:`Method` by scheme name.

    ``defect`` picks classical vs symmetrized where both exist (implicit
    midpoint, Strang); ``variant`` picks the Taylor vs Hermite evaluation
    for the exponential integrators and is checked, but unused, for the
    others. Every scheme of a family runs through the family's one stepper
    and one defect evaluator. Equal arguments (an unused variant aside) give one Method.
    """
    method_needs(name)  # rejects an unknown name
    _, build, tableau, order, kinds = _METHODS[name]
    if defect not in kinds:
        raise ValueError(f"defect {defect!r} is not available for {name}; use {kinds}")
    if variant not in ("taylor", "hermite"):
        raise ValueError(f"variant must be 'taylor' or 'hermite', got {variant!r}")
    key = (name, defect, variant if build is _cfm else None)
    return _BUILT.setdefault(key, Method(name, order, *build(tableau, defect, variant), defect))


def _default_reference_method(problem):
    # highest-order corrected scheme the problem's interface supports
    for name in ("magnus4", "emb43aks", "imr"):
        if hasattr(problem, method_needs(name)):
            return make_method(name)
    raise ValueError(f"a problem needs one of {sorted({row[0] for row in _METHODS.values()})}")


def corrected_run(problem, method, t0, t_end, u0, steps, first=0):
    """Fixed-step integration propagating the corrected state each step: ``steps``
    steps of tau = (t_end - t0) / (first + steps), the i-th from t0 + i tau, from
    the state u0 after step ``first``. Returns the final state."""
    tau = (t_end - t0) / (first + steps)
    u = np.asarray(u0, dtype=np.complex128)
    for i in range(first, first + steps):
        u_next, d = method.step_with_defect(problem, t0 + i * tau, tau, u)
        u = u_next - estimator_scale(tau, method.order) * d
    return u


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


@np.errstate(over="ignore", invalid="ignore")  # a run that blows up does not converge
def reference_solve(problem, t0, t_end, u0, use_exact=True, runs=None):
    """High-accuracy solution of the problem at t_end, or the list of them
    for a sequence of end times.

    When the problem knows a closed-form solution (and, for time-anchored
    ones, u0 is the closed-form state at t0), the closed form is sampled;
    ``use_exact=False`` disables this shortcut. Otherwise each interval is
    integrated with the highest-order available corrected scheme, doubling
    the step count until the Richardson correction (current - previous) /
    (2**(p+2) - 1) is at most ``_REFERENCE_TOL * max(1, |current|)``; current
    + correction is returned. The factor assumes the order p + 2 that a
    symmetrized defect, as in every default method, gives. Ends are solved
    shortest first; ``runs`` (one call's store: a caller passes a new dict) maps
    each step size h to (i, state), the furthest corrected state a run of h from
    (t0, u0) has reached, from which a longer end's run of h goes on, so each
    answer is bitwise that of a call for its end alone. All runs of one call take
    at most ``_MAX_STEPS`` steps in total, or :class:`ConvergenceFailure` is
    raised, early once the last three ratios of successive differences agree
    within 25% and the steps left cannot reach ``_REFERENCE_TOL`` at that rate.
    """
    u0 = np.asarray(u0, dtype=np.complex128)
    ends = [t_end] if np.ndim(t_end) == 0 else list(t_end)
    if not np.isfinite([t0, *ends]).all():
        raise ValueError(f"start and end times must be finite, got t0 = {t0!r}, t_end = {t_end!r}")
    exact = _closed_form(problem, t0, u0) if use_exact else None
    states, runs, budget, method = {}, {} if runs is None else runs, _MAX_STEPS, None
    for k in sorted(range(len(ends)), key=lambda k: abs(ends[k] - t0)):
        span = ends[k] - t0
        if span == 0 or exact is not None:
            states[k] = u0.copy() if span == 0 else exact(ends[k])
            continue
        method = method or _default_reference_method(problem)
        factor = 2.0 ** (method.order + 2) - 1.0
        steps, previous, diffs, error = 1, None, [], math.inf
        while not error <= _REFERENCE_TOL:  # a NaN error keeps doubling
            h = span / steps
            done, current = runs.get(h, (0, u0))
            if done < steps:
                levels = int(math.log2(budget / (steps - done) + 1))  # levels it pays, this one first
                tail = diffs[-4:]
                rates = [b / a for a, b in zip(tail, tail[1:])]
                settled = len(rates) == 3 and max(rates) <= 1.25 * min(rates)
                if levels == 0 or settled and error * min(*rates, 1.0) ** levels > _REFERENCE_TOL:
                    raise ConvergenceFailure(
                        f"reference solve used up {_MAX_STEPS - budget} of its budget of "
                        f"{_MAX_STEPS} steps before converging to {_REFERENCE_TOL:g} "
                        f"(last differences: {', '.join(f'{d:.3e}' for d in tail) or 'none'})"
                    )
                budget -= steps - done
                current = corrected_run(problem, method, t0, ends[k], current, steps - done, done)
                runs[h] = (steps, current)
            if previous is not None:
                delta = current - previous
                diffs.append(state_norm(problem, delta))
                error = diffs[-1] / factor / max(1.0, state_norm(problem, current))
            previous, steps = current, 2 * steps
        states[k] = previous + delta / factor
    return states[0] if np.ndim(t_end) == 0 else [states[k] for k in range(len(ends))]


# -- integral representations of the local error ------------------------------


def _rk4(rhs, y, h, steps):
    """Fixed-step RK4 on a (k, m) stack, row i stepping by h[i, 0] (its constants made once)."""
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + half * k1)
        k3 = rhs(y + half * k2)
        k4 = rhs(y + h * k3)
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


@np.errstate(over="ignore", invalid="ignore")  # a flow that blows up is checked at the end
def local_error_integral_oracle(
    problem, method, tau, u0, kind=None, quad_nodes=48, ode_steps=512
):
    """Quadrature evaluation of the integral representation of the local
    error in terms of the defect (validation oracle, small problems only).

    classical:    int_0^tau dE(tau - s, S(s, u0)) . D(s, u0) ds
    symmetrized:  int_0^tau dE(h, S(s, E(h, u0))) . D(s, E(h, u0)) ds,
                  h = (tau - s)/2

    on ``quad_nodes`` Gauss-Legendre nodes s. The exact flow E of u' = F(u), and its
    derivative dE applied by integrating the variational equation v' = F'(y) v alongside
    y' = F(y), come from ``ode_steps`` RK4 steps taken for all nodes at once: row i of a
    (quad_nodes, 2n) stack runs over node i's duration, so ``problem.f`` and ``problem.df``
    must act row-wise on a (k, n) stack. The method's defect evaluator runs once per node;
    ``kind`` defaults to the method's defect kind, and another is a ValueError. A non-finite
    integral raises :class:`ConvergenceFailure`.
    """
    if kind not in (None, method.defect):
        raise ValueError(f"kind {kind!r} is not {method.name}'s defect kind {method.defect!r}")
    share = _share(method.defect)
    for name, value in (("quad_nodes", quad_nodes), ("ode_steps", ode_steps)):
        if not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    u0 = np.asarray(u0, dtype=np.complex128)
    n = u0.shape[0]
    if quad_nodes not in _GAUSS_RULES:  # once per node count; numpy.polynomial loads on first use
        for array in _GAUSS_RULES.setdefault(quad_nodes, np.polynomial.legendre.leggauss(quad_nodes)):
            array.flags.writeable = False
    nodes, weights = _GAUSS_RULES[quad_nodes]
    # map from [-1, 1] to [0, tau]
    points = 0.5 * tau * (nodes + 1.0)
    scale = 0.5 * tau
    durations = (1.0 - share) * (tau - points)
    h = durations[:, None] / ode_steps
    starts = np.tile(u0, (quad_nodes, 1))
    if share:
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
    if not np.isfinite(total).all():
        raise ConvergenceFailure(f"the local error quadrature at tau = {tau!r} is not finite")
    return total


# -- adaptive step-size control ------------------------------------------------


_SAFETY, _RATIO_MIN, _RATIO_MAX = 0.9, 0.25, 4.0


@dataclass(frozen=True)
class AdaptiveConfig:
    """Settings of the proportional controller, whose factors are fixed (see
    :func:`propose_step`). ``tol`` bounds the norm of each step's estimate."""

    tol: float
    tau_init: float
    tau_min: float = 1e-10
    tau_max: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.tau_min <= self.tau_init <= self.tau_max:
            raise ValueError("need 0 < tau_min <= tau_init <= tau_max")
        if not self.tol > 0.0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class StepRecord:
    t: float
    tau: float
    est_norm: float
    accepted: bool


def propose_step(tau, err, order, config):
    """Next step size of the classic controller: tau * clamp(0.9 *
    (tol/err)^(1/(p+1)), 1/4, 4) clamped into [tau_min, tau_max], all three
    from ``config``. A non-finite err shrinks by 1/4, so a step that keeps
    failing ends in the controller's stall check."""
    if not math.isfinite(err):
        ratio = _RATIO_MIN
    elif err == 0.0:
        ratio = _RATIO_MAX
    else:
        ratio = _SAFETY * (config.tol / err) ** (1.0 / (order + 1))
        ratio = min(max(ratio, _RATIO_MIN), _RATIO_MAX)
    return min(max(tau * ratio, config.tau_min), config.tau_max)


def adaptive_integrate(problem, method, config, t0, t_end, u0):
    """Adaptive integration from t0 to t_end.

    Each trial step is accepted when the estimator norm is at most tol and
    redone with the proposed smaller step otherwise; a trial step that
    raises :class:`StepFailure` counts as rejected with an infinite
    estimate, and one whose estimate overflows (each trial runs under one
    ``np.errstate``) as rejected with a non-finite one. The final step is
    clamped to land on t_end exactly. Returns the final state and the full
    trace of trial steps, or raises ConvergenceFailure after ``_MAX_STEPS``.
    """
    if not -math.inf < t0 <= t_end < math.inf:  # NaN too
        raise ValueError(f"need finite t0 <= t_end, got t0 = {t0!r}, t_end = {t_end!r}")
    u = np.array(u0, dtype=np.complex128)
    records = []
    t = t0
    compensation = 0.0  # Kahan accumulation keeps sum(tau) consistent with t
    tau = min(config.tau_init, t_end - t0)
    span = abs(t_end - t0)
    while t < t_end - 1e-14 * span:
        if len(records) == _MAX_STEPS:
            raise ConvergenceFailure(f"trial budget of {_MAX_STEPS} steps used up at t = {t:.6g}")
        tau = min(tau, t_end - t)
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite err rejects
                u_next, d = method.step_with_defect(problem, t, tau, u)
                err = state_norm(problem, estimator_scale(tau, method.order) * d)
        except StepFailure:
            err = math.inf
        accepted = err <= config.tol
        records.append(StepRecord(t, tau, err, accepted))
        tau_next = propose_step(tau, err, method.order, config)
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

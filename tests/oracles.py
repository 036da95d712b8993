"""Shared independent oracles and small fixtures for the test suite.

Everything here is deliberately primitive (quadratic-cost DFT, fixed-step
RK4, closed forms) so the tests check the library against code that shares
none of its implementation paths.
"""

import numpy as np


def naive_dft(v):
    """O(n^2) reference DFT, unnormalized forward convention."""
    v = np.asarray(v, dtype=np.complex128)
    n = v.shape[0]
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n) @ v


def rk4(rhs, y0, duration, steps):
    """Classic fixed-step Runge-Kutta 4 integrator."""
    y = np.asarray(y0, dtype=np.complex128).copy()
    h = duration / steps
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def fit_slope(taus, values):
    """Least-squares slope of log(values) against log(taus)."""
    return float(np.polyfit(np.log(taus), np.log(values), 1)[0])


def pair_orders(taus, values):
    """Observed orders between consecutive ladder levels."""
    return [
        float(np.log(values[i - 1] / values[i]) / np.log(taus[i - 1] / taus[i]))
        for i in range(1, len(values))
    ]


def fd_slope(apply_deriv, func, u, v, epsilons=(1e-3, 1e-4, 1e-5)):
    """Observed convergence order of a directional derivative against
    centered finite differences of func along v."""
    exact = apply_deriv(u, v)
    residuals = [
        np.linalg.norm(exact - (func(u + eps * v) - func(u - eps * v)) / (2.0 * eps))
        for eps in epsilons
    ]
    return fit_slope(epsilons, residuals)


def expm_skew_hermitian(a):
    """exp(a) for skew-Hermitian a, from the eigendecomposition of i*a."""
    lam, q = np.linalg.eigh(1j * np.asarray(a))  # a = -i q diag(lam) q^H
    return (q * np.exp(-1j * lam)) @ q.conj().T


def expmid_step(problem, t0, tau, u):
    """Exponential midpoint rule exp(tau A(t0 + tau/2)) u, skew-Hermitian A."""
    return expm_skew_hermitian(tau * problem.A(t0 + 0.5 * tau)) @ u


def expmid_defect(problem, t0, tau, u):
    """Exact symmetrized defect of the exponential midpoint rule, no A':

        d = (A(t0 + tau/2) - A(t0 + tau)/2) S u - S A(t0) u / 2

    with S = exp(tau A(t0 + tau/2)), A skew-Hermitian."""
    propagator = expm_skew_hermitian(tau * problem.A(t0 + 0.5 * tau))
    u_next = propagator @ u
    a_mid, a_end = problem.A(t0 + 0.5 * tau), problem.A(t0 + tau)
    return (a_mid - 0.5 * a_end) @ u_next - 0.5 * (propagator @ (problem.A(t0) @ u))


def strang_symmetrized_defect(problem, tau, u):
    """Closed-form symmetrized defect of Strang splitting for
    u' = A u + B(u), from the problem's exact subflows: with
    v1 = exp(tau A/2) u, v2 = E_B(tau, v1) and w = exp(tau A/2) v2,

        d = exp(tau A/2) (B(v2) - dE_B(tau, v1) . (exp(tau A/2) B(u)) / 2)
            - B(w) / 2

    Returns (w, d)."""
    half = 0.5 * tau
    v1 = problem.flow_A(half, u)
    v2 = problem.flow_B(tau, v1)
    w = problem.flow_A(half, v2)
    transported = problem.dflow_B(tau, v1, problem.flow_A(half, problem.b(u)))
    return w, problem.flow_A(half, problem.b(v2) - 0.5 * transported) - 0.5 * problem.b(w)


class ScalarQuadratic:
    """u' = -u^2, componentwise; exact flow u0 / (1 + t*u0)."""

    norm_weight = 1.0

    def f(self, u):
        return -u * u

    def df(self, u, v):
        return -2.0 * u * v

    def exact_solution(self, t, u0):
        u0 = np.asarray(u0, dtype=np.complex128)
        return u0 / (1.0 + t * u0)

    def initial_state(self):
        return np.ones(1, dtype=np.complex128)


class ZeroField:
    """u' = 0; makes every consistent scheme exact with zero defect."""

    norm_weight = 1.0

    def f(self, u):
        return np.zeros_like(u)

    def df(self, u, v):
        return np.zeros_like(v)


class LinearScalar:
    """u' = lam * u as an autonomous problem for closed-form midpoint checks."""

    norm_weight = 1.0

    def __init__(self, lam=-1.0):
        self.lam = lam

    def f(self, u):
        return self.lam * u

    def df(self, u, v):
        return self.lam * v


class BFreeSemilinear:
    """Semilinear wrapper with the linear part of a host problem and B = 0."""

    norm_weight = 1.0

    def __init__(self, host):
        self.host = host

    def apply_A(self, u):
        return self.host.apply_A(u)

    def flow_A(self, t, u):
        return self.host.flow_A(t, u)

    def b(self, u):
        return np.zeros_like(u)

    def flow_B(self, t, u):
        return np.asarray(u, dtype=np.complex128).copy()

    def dflow_B(self, t, u, v):
        return np.asarray(v, dtype=np.complex128).copy()


class ConstantLinear:
    """u' = A0 u with constant A0, as a nonautonomous-interface problem."""

    norm_weight = 1.0

    def __init__(self, a0):
        self.a0 = np.asarray(a0, dtype=np.complex128)
        self.dim = self.a0.shape[0]

    def A(self, t):
        return self.a0.copy()

    def dA(self, t):
        return np.zeros_like(self.a0)


def random_skew_hermitian(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (m - m.conj().T)


def random_state(rng, n, scale=1.0):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return scale * v / np.linalg.norm(v)

"""Shared independent oracles and small fixtures for the test suite.

Everything here is deliberately primitive (quadratic-cost DFT, fixed-step
RK4, closed forms) so the tests check the library against code that shares
none of its implementation paths.
"""

from dataclasses import fields

import numpy as np

from symdefect.linalg import commutator, fft, ifft
from symdefect.problems import LinearFamily
from symdefect.schemes import solve_linearized, step_implicit_midpoint


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


def integral_oracle_loop(problem, method, tau, u0, kind, quad_nodes=48, ode_steps=512):
    """Per-node quadrature of the integral representation of the local error
    (classical or symmetrized), one or two RK4 integrations per Gauss node:
    the reference for the batched ``local_error_integral_oracle``."""
    u0 = np.asarray(u0, dtype=np.complex128)
    n = u0.shape[0]

    def variational(pair):
        y, w = pair[:n], pair[n:]
        return np.concatenate((problem.f(y), problem.df(y, w)))

    nodes, weights = np.polynomial.legendre.leggauss(quad_nodes)
    total = np.zeros_like(u0)
    for s, w in zip(0.5 * tau * (nodes + 1.0), weights):
        if kind == "classical":
            duration, start = tau - s, u0
        else:
            duration = 0.5 * (tau - s)
            start = rk4(problem.f, u0, duration, ode_steps)
        y, d = method.step_with_defect(problem, 0.0, s, start)
        term = rk4(variational, np.concatenate((y, d)), duration, ode_steps)[n:]
        total = total + (w * (0.5 * tau)) * term
    return total


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


def expm_action_eager(plan, v):
    """The Taylor series of ``plan.apply(v)`` stopped by the eager test, max|f|
    taken after every term (Al-Mohy and Higham 2011, Sec. 3): a scaling step
    ends once its last two terms meet max|t_(j-1)| + max|t_j| <= 2^-53 max|f|.
    Where ``apply``'s full series gives these bits, the terms after the stop
    move none of them."""
    a, steps, mags = plan.matrix, int(plan.steps), np.empty(v.shape)
    f, term = v.copy(), v
    for _ in range(steps):
        previous = np.abs(term, out=mags).max()
        for j in range(1, plan.degree + 1):
            term = a @ term
            term /= steps * j
            size = np.abs(term, out=mags).max()
            f += term
            if previous + size <= 2.0**-53 * np.abs(f, out=mags).max():
                break
            previous = size
        term = f
    return f


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


def magnus4_generator(problem, t0, tau):
    """Closed-form generator of the classical 4th-order Magnus step on the
    two Gauss nodes: (A1 + A2)/2 - (sqrt(3)/12) tau [A1, A2]."""
    a1 = problem.A(t0 + (0.5 - np.sqrt(3.0) / 6.0) * tau)
    a2 = problem.A(t0 + (0.5 + np.sqrt(3.0) / 6.0) * tau)
    return 0.5 * (a1 + a2) - (np.sqrt(3.0) / 12.0) * tau * (a1 @ a2 - a2 @ a1)


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


def strang_classical_defect(problem, tau, u):
    """Closed-form classical defect of Strang splitting with the A-actions
    as separate calls: with v1 = exp(tau A/2) u, v2 = E_B(tau, v1) and
    w = exp(tau A/2) v2,

        d = exp(tau A/2) (B(v2) + dE_B(tau, v1) . (A v1) / 2)
            - A w / 2 - B(w)

    Returns (w, d)."""
    half = 0.5 * tau
    v1 = problem.flow_A(half, u)
    v2 = problem.flow_B(tau, v1)
    w = problem.flow_A(half, v2)
    inner = problem.b(v2) + 0.5 * problem.dflow_B(tau, v1, problem.apply_A(v1))
    return w, problem.flow_A(half, inner) - 0.5 * problem.apply_A(w) - problem.b(w)


def splitting_defect_loop(scheme, problem, tau, u):
    """Symmetrized splitting defect with every stage as separate calls: the
    A-flow of the (d, u) stack, then the weighted A-action of the moved
    state, then dE_B and E_B. The reference for the fused stages of
    ``splitting_defect_semilinear``; returns (u_next, d)."""
    u = np.asarray(u, dtype=np.complex128)
    d = -0.5 * problem.b(u)
    last = len(scheme.a) - 1
    for j, (aj, bj) in enumerate(zip(scheme.a, scheme.b)):
        weight = aj - 0.5 * (j == 0) - 0.5 * (j == last)
        d, u = problem.flow_A(aj * tau, np.stack((d, u)))
        if weight:
            d = d + weight * problem.apply_A(u)
        if j < last:
            d = problem.dflow_B(bj * tau, u, d + bj * problem.b(u))
            u = problem.flow_B(bj * tau, u)
    return u, d - 0.5 * problem.b(u)


def solve_linearized_loop(df, base, tau, rhs):
    """Solve (I - (tau/2) F'(base)) x = rhs with the realified matrix built
    one ``df`` probe per column, 2n calls on single vectors. The reference
    for the one-call assembly of ``schemes.solve_linearized``."""
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
    sol = np.linalg.solve(mat, np.concatenate((rhs.real, rhs.imag)))
    return sol[:n] + 1j * sol[n:]


def imr_defect_two_branch(problem, tau, u, kind):
    """Implicit midpoint defect with one branch per kind: with w the step,
    m = (u + w)/2 and M = I - (tau/2) F'(m), the classical d = x - F(w) with
    M x = F(m), the symmetrized d = z - F(w)/2 with
    M z = F(m) - F(u)/2 - (tau/4) F'(m) F(u). Returns (w, d)."""
    u = np.asarray(u, dtype=np.complex128)
    w = step_implicit_midpoint(problem, tau, u)
    mid = 0.5 * (u + w)
    if kind == "classical":
        return w, solve_linearized(problem.df, mid, tau, problem.f(mid)) - problem.f(w)
    f_u = problem.f(u)
    rhs = problem.f(mid) - 0.5 * f_u - 0.25 * tau * problem.df(mid, f_u)
    return w, solve_linearized(problem.df, mid, tau, rhs) - 0.5 * problem.f(w)


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

    def flow_A(self, t, u, weight=0.0):
        return self.host.flow_A(t, u, weight)

    def b(self, u):
        return np.zeros_like(u)

    def flow_B(self, t, u):
        return np.asarray(u, dtype=np.complex128).copy()

    def dflow_B(self, t, u, v):
        return np.asarray(v, dtype=np.complex128).copy()

    def dflow_B_and_flow(self, t, u, v, weight=0.0):
        return np.array((self.dflow_B(t, u, v + weight * self.b(u)), self.flow_B(t, u)))


def nls_flow_A_full(nls, t, u, weight=0.0):
    """``CubicNLS.flow_A`` with no memo and the A-phase exp(-i t k^2 / 2)
    taken over the whole spectrum: the reference its memoized phase, built
    from half the spectrum and mirrored, must match bit for bit."""
    spec = fft(u)
    np.multiply(np.exp(-1j * t * nls._half_ksq), spec, out=spec)
    if weight:
        spec[0] += (-1j * weight) * nls._half_ksq * spec[1]
    return ifft(spec)


def nls_dflow_B_and_flow_pair(t, u, v, weight=0.0):
    """The B-stage of ``CubicNLS.dflow_B_and_flow`` as two fresh products,
    returned as the pair (dE_B(t, u) (v + weight * B(u)), E_B(t, u)): the
    reference its stacked, preallocated result must match bit for bit."""
    mod2 = u.real * u.real + u.imag * u.imag
    if weight:
        v = v + weight * (1j * mod2 * u)
    phase = np.exp(1j * t * mod2)
    return phase * (v + 2j * t * u * (u.real * v.real + u.imag * v.imag)), phase * u


class ConstantLinear(LinearFamily):
    """u' = A0 u with constant A0, as a nonautonomous-interface problem: one
    generator A0 with coefficient 1."""

    norm_weight = 1.0

    def __init__(self, a0):
        super().__init__(np.asarray(a0, dtype=np.complex128)[None])
        self.dim = self.generators.shape[1]

    def coefficients(self, t):
        return np.ones(1)

    def dcoefficients(self, t):
        return np.zeros(1)

    def initial_state(self):
        return np.ones(self.dim, dtype=np.complex128)


class RandomFamily(LinearFamily):
    """u' = A(t) u with A(t) = cos(t) G_0 + sin(2t) G_1 + (t^2 - 1/2) G_2 over
    three random skew-Hermitian generators that do not commute."""

    norm_weight = 1.0

    def __init__(self, rng, n):
        super().__init__([random_skew_hermitian(rng, n) for _ in range(3)])
        self.dim = n

    def coefficients(self, t):
        return np.array((np.cos(t), np.sin(2.0 * t), t * t - 0.5))

    def dcoefficients(self, t):
        return np.array((-np.sin(t), 2.0 * np.cos(2.0 * t), 2.0 * t))

    def initial_state(self):
        return np.ones(self.dim, dtype=np.complex128)


class GrowingFamily(LinearFamily):
    """u' = A(t) u with A(t) = diag(5, 1) + t N, N = [[0, 1], [0, 0]] nilpotent:
    not skew, so the state grows like exp(5 t) and a long step overflows."""

    norm_weight = 1.0
    dim = 2

    def __init__(self):
        super().__init__([np.diag([5.0, 1.0]), np.array([[0.0, 1.0], [0.0, 0.0]])])

    def coefficients(self, t):
        return np.array((1.0, t))

    def dcoefficients(self, t):
        return np.array((0.0, 1.0))

    def initial_state(self):
        return np.ones(self.dim, dtype=np.complex128)


class MatrixUnitFamily(RandomFamily):
    """RandomFamily's coefficients over the matrix units E_01, E_12 and E_20, whose
    brackets E_02, -E_21 and E_10 sit on three more entries: each basis matrix has
    one entry of modulus 1 that no other has, so a stage matrix holds its
    coefficient vector there bit for bit (signed zeros aside)."""

    def __init__(self):
        units = np.zeros((3, 3, 3))
        units[0, 0, 1] = units[1, 1, 2] = units[2, 2, 0] = 1.0
        LinearFamily.__init__(self, units)
        self.dim = 3


class ZeroGeneratorFamily(RandomFamily):
    """RandomFamily with G_1 = 0, so the brackets [G_0, G_1] and [G_1, G_2]
    vanish too: basis matrices with no support of their own."""

    def __init__(self, rng, n):
        LinearFamily.__init__(
            self, [random_skew_hermitian(rng, n), np.zeros((n, n)), random_skew_hermitian(rng, n)])
        self.dim = n


def dense_combination(family, coef):
    """sum_b coef_b basis_b as one dense (k,) @ (k, n*n) product over the first
    k = len(coef) basis matrices: the bits ``LinearFamily.combination`` writes
    on the basis's support alone."""
    k = len(coef)
    return (np.asarray(coef) @ family.basis[:k].reshape(k, -1)).reshape(family.basis.shape[1:])


def dense_norm_1(m):
    """The 1-norm as dense column sums of |m|: the bits ``ExpmPlan`` computes
    and ``LinearFamily.stages`` sums over the support."""
    return float(np.abs(m).sum(axis=0).max())


def stage_matrices(scheme, problem, t0, tau, derivatives=False):
    """Copies of the stage matrices the exponential steps run on: B_j, or
    the pairs (B_j, Bcheck_j) with ``derivatives``, as ``LinearFamily.stages``
    writes them into the family's stage slots (not an independent oracle)."""
    stages = [(bj.copy(), None if bcheck is None else bcheck.copy())
              for bj, _, bcheck in problem.stages(scheme, t0, tau, derivatives)]
    return stages if derivatives else [bj for bj, _ in stages]


def stage_coefficients_numpy(scheme, problem, t0, tau, derivatives):
    """Per stage the coefficient vectors (b, c) of B_j and Bcheck_j (c None
    where it vanishes) as numpy sums over the sampled coefficient arrays, the
    brackets of pairs p < q as x[p] y[q] - x[q] y[p] over ``np.triu_indices``:
    the bits ``LinearFamily.stages`` must combine, which it sums on Python floats."""
    p, q = np.triu_indices(len(problem.generators), 1)

    def bracket(x, y):
        return x[p] * y[q] - x[q] * y[p]

    times = [t0 + ck * tau for ck in scheme.nodes]
    coeffs = [problem.coefficients(t) for t in times]
    shifts = [ck - 0.5 for ck in scheme.nodes]
    g = scheme.commutators or (0.0,) * len(scheme.weights)
    slopes = [problem.dcoefficients(t) if derivatives and sk else None
              for t, sk in zip(times, shifts)]
    comm = bracket(coeffs[0], coeffs[1]) if any(g) else None
    stages = []
    for row, gj in zip(scheme.weights, g):
        head = sum(ajk * ck for ajk, ck in zip(row, coeffs))
        check, weights = None, [ajk * sk for ajk, sk in zip(row, shifts)]
        if derivatives and (gj or any(weights)):
            check = sum((w * dk for w, dk in zip(weights, slopes) if w), np.zeros_like(head))
            if gj:
                (c1, c2), (s1, s2), (d1, d2) = coeffs, shifts, slopes
                tail = comm
                if s1:
                    tail = tail + (tau * s1) * bracket(d1, c2)
                if s2:
                    tail = tail + (tau * s2) * bracket(c1, d2)
                check = np.concatenate((check, gj * tail))
        stages.append(((np.concatenate((head, gj * tau * comm)) if gj else head), check))
    return stages


def cfm_stages_dense(scheme, problem, t0, tau):
    """The stage pairs (B_j, Bcheck_j) of an exponential tableau from dense
    samples A_k = A(t0 + c_k tau), A'_k and matrix commutators:

        B_j      = sum_k a_jk A_k + g_j tau [A_1, A_2],
        Bcheck_j = sum_k a_jk (c_k - 1/2) A'_k
                   + g_j ([A_1, A_2] + tau (c_1 - 1/2) [A'_1, A_2]
                                     + tau (c_2 - 1/2) [A_1, A'_2]),

    a zero Bcheck_j where it vanishes identically."""
    times = [t0 + c * tau for c in scheme.nodes]
    a = [problem.A(t) for t in times]
    da = [problem.dA(t) for t in times]
    shifts = [c - 0.5 for c in scheme.nodes]
    stages = []
    for j, row in enumerate(scheme.weights):
        b = sum(w * ak for w, ak in zip(row, a))
        bcheck = sum(w * s * dak for w, s, dak in zip(row, shifts, da))
        if scheme.commutators:
            gj, (s1, s2) = scheme.commutators[j], shifts
            b = b + gj * tau * commutator(a[0], a[1])
            bcheck = bcheck + gj * (
                commutator(a[0], a[1])
                + tau * s1 * commutator(da[0], a[1])
                + tau * s2 * commutator(a[0], da[1])
            )
        stages.append((b, bcheck))
    return stages


def random_skew_hermitian(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (m - m.conj().T)


def random_state(rng, n, scale=1.0):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return scale * v / np.linalg.norm(v)


def parse_csv(text, row_type):
    """Inverse of ``cli.rows_to_csv`` for a known row dataclass."""
    lines = [line for line in text.split("\n") if line]
    names = lines[0].split(",")
    specs = {f.name: f.type for f in fields(row_type)}
    rows = []
    for line in lines[1:]:
        values = {}
        for name, cell in zip(names, line.split(",")):
            if specs[name] in (bool, "bool"):
                values[name] = cell == "1"
            else:
                values[name] = float(cell)
        rows.append(row_type(**values))
    return rows

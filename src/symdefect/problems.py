"""Evolution problems with exact subflows and directional flow derivatives:
the split cubic Schroedinger equation :class:`CubicNLS`, the nonautonomous
linear :class:`RosenZener`, a :class:`LinearFamily`, and the scalar
closed-form fixture :class:`ToySplit`; each class documents its model.

Directional derivatives are real-linear maps in their direction argument:
the cubic nonlinearity depends on |u|^2, which is not holomorphic, so v and
its conjugate may both enter.
"""

import math
import threading
from functools import lru_cache

import numpy as np

from .errors import StepFailure
from .linalg import ExpmPlan, fft, ifft

__all__ = [
    "CubicNLS",
    "LinearFamily",
    "RosenZener",
    "ToySplit",
    "soliton_value",
    "make_problem",
    "PROBLEM_NAMES",
]


@np.errstate(over="ignore")  # cosh(huge) = inf, sech -> 0
def soliton_value(x, t):
    """Closed-form soliton 2 exp(i(3t/2 - x)) sech(2(t + x)) of the cubic NLS."""
    return 2.0 * np.exp(1j * (1.5 * t - x)) / np.cosh(2.0 * (t + x))


def _unit_phase(y):  # exp(i y) for real y, bit for bit np.exp of the complex 0 + i y
    out = np.empty(np.shape(y), dtype=np.complex128)
    np.cos(y, out=out.real)
    np.sin(y, out=out.imag)
    return out


def _mirrored(half):  # modes 0..n/2 on all n modes, read-only: k^2 is bitwise even
    (full := np.concatenate((half, half[-2:0:-1]))).flags.writeable = False
    return full


def _re_dot(u, v):
    # componentwise Re(conj(u) * v); _re_dot(u, u) is |u|^2 without abs()'s square root
    return u.real * v.real + u.imag * v.imag


class CubicNLS:
    """Cubic Schroedinger equation i psi_t = -1/2 psi_xx - |psi|^2 psi.

    Discretized by Fourier collocation on n equidistant points of the
    periodic interval [-16, 16). The semidiscrete system reads
    u' = A u + B(u) with A the spectral realization of (i/2) d_xx and
    B(u) = i |u|^2 u acting pointwise.

    Both subflows are exact:

    * exp(t A) multiplies each Fourier mode by exp(-i k^2 t / 2),
    * the B-subflow conserves the modulus of every component, so it reduces
      to the phase rotation u_m -> exp(i t |u_m|^2) u_m.

    ``flow_A(t, (d, u), weight)`` adds weight * A exp(tA) u to the moved d; two LRU caches of
    8 read-only arrays each, ``_phase(t)`` = exp(-i k^2 t / 2) (cos/sin of modes 0..n/2, mirrored:
    k^2 is bitwise even) and ``_factor(weight)`` = -i weight k^2 / 2, count in ``cache_info()``.
    One |u|^2 serves ``dflow_B_and_flow(t, u, v, weight)``'s (moved v + weight B(u), flowed u).

    `initial` selects the start state: "soliton" samples the exact soliton
    at t = 0 (and enables :meth:`exact_state`), "two-soliton" superposes two
    counter-propagating solitary waves of amplitude 2 (`carriers`, `centers`).
    """

    _PHASE_MEMO = 8  # per memo: a plain emb43aks run's 4 sub-steps (a_1..a_3, 2 a_1) at two taus

    def __init__(self, n=512, initial="soliton", carriers=(1.0, -3.0), centers=(5.0, -5.0)):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n <= 0 or n & (n - 1):
            raise ValueError(f"grid size must be an integer power of two, got {n!r}")
        if not (len(carriers) == len(centers) > 0 and np.isfinite((carriers, centers)).all()):
            raise ValueError("carriers and centers must be non-empty, equally long and finite, "
                             f"got {carriers!r} and {centers!r}")
        if initial not in ("soliton", "two-soliton"):
            raise ValueError(f"unknown initial condition {initial!r}")
        self.n = n
        self.x = -16.0 + 32.0 * np.arange(n) / n
        self._half_ksq = 0.5 * ((2.0 * np.pi / 32.0) * np.fft.fftfreq(n, 1.0 / n)) ** 2
        half = self._half_ksq[: n // 2 + 1]  # LRU memos: t -> exp(-i t k^2 / 2), w -> -i w k^2 / 2
        self._phase = lru_cache(self._PHASE_MEMO)(lambda t: _mirrored(_unit_phase(0.0 - t * half)))
        self._factor = lru_cache(self._PHASE_MEMO)(lambda w: _mirrored((-1j * w) * half))
        self.initial = initial
        self._two_soliton = tuple(zip(carriers, centers))
        # discrete L2 norm weight sqrt(h); error tables are stated in this norm
        self.norm_weight = float(np.sqrt(32.0 / n))

    # -- linear part -------------------------------------------------------

    def apply_A(self, u):
        return ifft(-1j * self._half_ksq * fft(u))

    def flow_A(self, t, u, weight=0.0):  # 0.0 - t k^2/2: the +0 of -1j * t * k^2 where t k^2 is 0
        spec = fft(u)
        np.multiply(self._phase(t), spec, out=spec)  # phase first: not bitwise commutative
        if weight:
            spec[0] += self._factor(weight) * spec[1]
        return ifft(spec)

    # -- nonlinear part ----------------------------------------------------

    def b(self, u):
        return 1j * _re_dot(u, u) * u

    def flow_B(self, t, u):
        return _unit_phase((t + 0.0) * _re_dot(u, u)) * u  # t + 0.0: 1j * t's +0 at t = -0

    def dflow_B(self, t, u, v):
        return self.dflow_B_and_flow(t, u, v)[0]

    def dflow_B_and_flow(self, t, u, v, weight=0.0):
        mod2 = _re_dot(u, u)
        if weight:
            v = v + weight * (1j * mod2 * u)  # v + weight * b(u)
        phase = _unit_phase((t + 0.0) * mod2)  # as in flow_B
        out = np.empty((2, *u.shape), dtype=np.complex128)  # (moved v, flowed u)
        np.multiply(phase, v + 2j * t * u * _re_dot(u, v), out=out[0])  # phase first, as in flow_A
        np.multiply(phase, u, out=out[1])
        return out

    # -- combined autonomous view -------------------------------------------

    def f(self, u):
        return self.apply_A(u) + self.b(u)

    def df(self, u, v):
        return self.apply_A(v) + 1j * (_re_dot(u, u) * v + 2.0 * u * _re_dot(u, v))

    # -- states --------------------------------------------------------------

    def initial_state(self):
        if self.initial == "soliton":
            return self.exact_state(0.0)
        u = np.zeros(self.n, dtype=np.complex128)
        for b, c in self._two_soliton:
            u += 2.0 * np.exp(-1j * b * self.x) / np.cosh(2.0 * (self.x - c))
        return u

    def exact_state(self, t):
        """Exact soliton sampled on the grid (soliton initial data only)."""
        if self.initial != "soliton":
            raise ValueError("closed-form solution known only for soliton data")
        return soliton_value(self.x, t)


class LinearFamily:
    """Linear problem u' = A(t) u with A(t) = sum_m c_m(t) G_m over fixed
    generators. A subclass passes the (m, n, n) stack G_m and supplies
    ``coefficients(t)`` = (c_m(t)) and ``dcoefficients(t)`` = (c_m'(t)).
    ``basis`` stacks the generators and their brackets [G_p, G_q], p < q,
    formed once here, so a stage generator is one combination of them. Its
    support, the entries where any basis matrix is nonzero, is found once
    too: a combination is written on the support only, and :meth:`stages`
    writes into slots that stay zero off it."""

    def __init__(self, generators):
        shapes = {np.shape(g) for g in generators}
        shape = next(iter(shapes)) if len(shapes) == 1 else ()
        if len(shape) != 2 or not shape[0] or shape[0] != shape[1] or not np.isfinite(generators).all():
            raise ValueError("generators must be a non-empty stack of equal n x n finite "
                             f"matrices with n >= 1, got shapes {sorted(shapes)}")
        m, n = len(generators), shape[0]
        p, q = np.triu_indices(m, 1)
        self.basis = np.empty((m + len(p), n, n), dtype=np.complex128)
        gens = self.generators = self.basis[:m]
        gens[...] = generators
        np.matmul(gens[p], gens[q], out=self.basis[m:])  # the brackets, by broadcast
        self.basis[m:] -= gens[q] @ gens[p]
        self._pairs = list(zip(p.tolist(), q.tolist()))
        flat = self.basis.reshape(len(self.basis), -1)
        self._support = np.flatnonzero(flat.any(axis=0))  # row-major flat indices
        self._values = flat.take(self._support, axis=1)  # (len(basis), support size)
        self._columns = self._support % n
        self._slots = threading.local()  # each thread's stage slots, see stages

    def combination(self, coef):
        """sum_b coef_b basis_b over the first len(coef) basis matrices, fresh."""
        out = np.zeros(self.basis.shape[1:], dtype=np.complex128)
        np.put(out, self._support, coef @ self._values[: len(coef)])
        return out

    def stages(self, scheme, t0, tau, derivatives=False):
        """Per stage of the exponential tableau ``scheme``: (B_j, ExpmPlan(tau B_j), Bcheck_j), with
        B_j = sum_k a[j][k] A_k + g_j tau [A_1, A_2] and, with ``derivatives``,
        Bcheck_j = (d/dtau - (1/2) d/dt0) B_j
                 = sum_k a[j][k] (c_k - 1/2) A'_k
                   + g_j ([A_1, A_2] + tau (c_1 - 1/2) [A'_1, A_2]
                                     + tau (c_2 - 1/2) [A_1, A'_2]),
        else None (also where it vanishes identically). Coefficients sampled once per node and
        summed on Python floats (they round as numpy's sums, cheaper) are combined on the
        support into n x n slots kept per thread, zero from its first stage on and overwritten
        by its next. The plan's 1-norm is bit for bit np.abs(tau B_j).sum(axis=0).max(): the
        column sums add their support entries in row order. tau B_j overflowing is a StepFailure."""
        if not hasattr(self._slots, "slots"):
            self._slots.slots = np.zeros((3, *self.basis.shape[1:]), complex)
        bj, scaled, check = self._slots.slots

        def bracket(x, y):  # coefficients of [sum_m x_m G_m, sum_m y_m G_m] over the brackets
            return [x[p] * y[q] - x[q] * y[p] for p, q in self._pairs]

        times = [t0 + ck * tau for ck in scheme.nodes]
        coeffs = [self.coefficients(t).tolist() for t in times]
        shifts = [ck - 0.5 for ck in scheme.nodes]
        g = scheme.commutators or (0.0,) * len(scheme.weights)
        slopes = [self.dcoefficients(t).tolist() if derivatives and sk else None
                  for t, sk in zip(times, shifts)]
        comm = bracket(coeffs[0], coeffs[1]) if any(g) else None  # [A_1, A_2]
        for row, gj in zip(scheme.weights, g):
            with np.errstate(over="ignore", invalid="ignore"):  # overflow fails below, unwarned
                head = [sum(ajk * c for ajk, c in zip(row, column)) for column in zip(*coeffs)]
                b = np.array(head + [gj * tau * x for x in comm] if gj else head)
                np.put(bj, self._support, values := b @ self._values[: len(b)])
                np.put(scaled, self._support, values := np.multiply(values, tau))
                norm = float(np.bincount(self._columns, np.abs(values), minlength=len(bj)).max())
                if not norm < math.inf:  # NaN too
                    raise StepFailure(f"exponential stage is not finite at t0 = {t0!r}, tau = {tau!r}")
                bcheck, weights = None, [ajk * sk for ajk, sk in zip(row, shifts)]
                if derivatives and (gj or any(weights)):
                    terms = [(w, dk) for w, dk in zip(weights, slopes) if w]
                    dcoef = [sum((w * dk[i] for w, dk in terms), 0.0) for i in range(len(head))]
                    if gj:
                        tail, (c1, c2), (s1, s2), (d1, d2) = comm, coeffs, shifts, slopes
                        for s, pair in ((s1, (d1, c2)), (s2, (c1, d2))):
                            if s:
                                tail = [x + (tau * s) * y for x, y in zip(tail, bracket(*pair))]
                        dcoef += [gj * x for x in tail]
                    np.put(bcheck := check, self._support, np.array(dcoef) @ self._values[: len(dcoef)])
            yield bj, ExpmPlan(scaled, norm), bcheck

    def A(self, t):
        return self.combination(self.coefficients(t))

    def dA(self, t):
        return self.combination(self.dcoefficients(t))


class RosenZener(LinearFamily):
    """Rosen-Zener two-level model coupled through a tridiagonal matrix.

    The state solves i psi' = H(t) psi with

        H(t) = f1(t) sigma1 (x) I_k + f2(t) sigma2 (x) R,
        f1(t) = V0 cos(omega t) sech(t / T0),
        f2(t) = V0 sin(omega t) sech(t / T0),

    R = tridiag(1, 0, 1) of size k. Exposed as u' = A(t) u with
    A(t) = -i H(t), the generators -i sigma1 (x) I_k and -i sigma2 (x) R
    with the coefficients (f1, f2) and their analytic derivatives (no
    differencing, the defect formulas consume A' inside high-order
    expressions).
    """

    def __init__(self, k=50, omega=0.5, pulse_duration=1.0, amplitude=1.0):
        field = self.omega, self.pulse_duration, self.amplitude = (
            float(omega), float(pulse_duration), float(amplitude))
        if isinstance(k, (bool, np.bool_)) or not (
                float(k).is_integer() and k >= 1 and np.isfinite(field).all() and self.pulse_duration):
            raise ValueError(
                "RosenZener requires a positive integer k, a finite nonzero pulse_duration and "
                f"finite omega and amplitude, got k={k!r}, omega={omega!r}, "
                f"pulse_duration={pulse_duration!r}, amplitude={amplitude!r}")
        self.k = int(k)
        self.dim = 2 * self.k
        sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
        sigma2 = np.array([[0.0, -1j], [1j, 0.0]], dtype=np.complex128)
        coupling = np.eye(self.k, k=1) + np.eye(self.k, k=-1)  # R
        super().__init__([-1j * np.kron(sigma1, np.eye(self.k)), -1j * np.kron(sigma2, coupling)])

    def _sech(self, x):  # amplitude sech(x); only |x| >= 710 overflows cosh (sech -> 0)
        if abs(x) < 710.0:
            return self.amplitude / np.cosh(x)
        with np.errstate(over="ignore"):
            return self.amplitude / np.cosh(x)

    def coefficients(self, t):
        wt = self.omega * t
        sech = self._sech(t / self.pulse_duration)
        return np.array((sech * math.cos(wt), sech * math.sin(wt)))

    def dcoefficients(self, t):
        wt, x = self.omega * t, t / self.pulse_duration
        sech, slope = self._sech(x), np.tanh(x) / self.pulse_duration
        cos, sin, w = math.cos(wt), math.sin(wt), self.omega
        return np.array((sech * (-w * sin - cos * slope), sech * (w * cos - sin * slope)))

    def initial_state(self):
        return np.ones(self.dim, dtype=np.complex128)


class ToySplit:
    """Scalar u' = lam*u + mu*u^2 with exactly solvable subflows.

    The linear part A u = lam*u has flow exp(lam*t) u (row-wise on a stack
    by broadcasting), the quadratic part B(u) = mu*u^2 the flow
    u / (1 - mu*t*u); together they form the semilinear splitting interface
    (apply_A, flow_A, b, flow_B, dflow_B, dflow_B_and_flow). The exact
    solution of the full equation is available through
    :meth:`exact_solution`. State vectors have length one so the problem
    plugs into the same machinery as the PDE discretizations.
    """

    def __init__(self, lam=-1.0, mu=0.5):
        self.lam = float(lam)
        self.mu = float(mu)

    # -- linear subflow (A part) ---------------------------------------------

    def apply_A(self, u):
        return self.lam * u

    def flow_A(self, t, u, weight=0.0):
        out = np.exp(self.lam * t) * u
        if weight:
            out[0] += weight * self.lam * out[1]
        return out

    # -- quadratic subflow (B part) -------------------------------------------

    def b(self, u):
        return self.mu * u * u

    def _denominator(self, t, u):
        den = 1.0 - self.mu * t * u
        if np.any(np.abs(den) < 1e-12):
            raise StepFailure("quadratic subflow hit its pole")
        return den

    def flow_B(self, t, u):
        return u / self._denominator(t, u)

    def dflow_B(self, t, u, v):
        return self.dflow_B_and_flow(t, u, v)[0]

    def dflow_B_and_flow(self, t, u, v, weight=0.0):
        if weight:
            v = v + weight * self.b(u)
        den = self._denominator(t, u)
        return np.array((v / den**2, u / den))

    # -- combined autonomous view ---------------------------------------------

    def f(self, u):
        return self.lam * u + self.mu * u * u

    def df(self, u, v):
        return (self.lam + 2.0 * self.mu * u) * v

    def initial_state(self):
        return np.ones(1, dtype=np.complex128)

    @np.errstate(over="ignore", invalid="ignore")  # a huge t gives NaN, a failed row
    def exact_solution(self, t, u0):
        """Closed-form solution (Bernoulli substitution v = 1/u)."""
        u0 = np.asarray(u0, dtype=np.complex128)
        ratio = self.mu / self.lam
        v = (1.0 / u0 + ratio) * np.exp(-self.lam * t) - ratio
        return 1.0 / v


PROBLEM_NAMES = ("nls-soliton", "nls-two-soliton", "rosen-zener", "toy-split")


def make_problem(name):
    """Instantiate a benchmark problem by its command-line name."""
    if name == "nls-soliton":
        return CubicNLS(initial="soliton")
    if name == "nls-two-soliton":
        return CubicNLS(initial="two-soliton")
    if name == "rosen-zener":
        return RosenZener()
    if name == "toy-split":
        return ToySplit()
    raise ValueError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}")

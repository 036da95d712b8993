"""Evolution problems with exact subflows and directional flow derivatives.

Three problem families are provided:

* :class:`CubicNLS` - the focusing cubic Schroedinger equation on a periodic
  interval, Fourier-collocated, split into a linear dispersive part and a
  pointwise cubic part with exact subflows.
* :class:`RosenZener` - a time-dependent two-level quantum model tensored
  with a tridiagonal coupling, i.e. a nonautonomous linear system
  u' = A(t) u with analytic A and A'.
* :class:`ToySplit` - a scalar u' = lam*u + mu*u^2 fixture whose subflows,
  flow derivatives and exact solution are all available in closed form.

Directional derivatives are real-linear maps in their direction argument:
the cubic nonlinearity depends on |u|^2, which is not holomorphic, so v and
its conjugate may both enter.
"""

from __future__ import annotations

import numpy as np

from .errors import StepFailure
from .linalg import fft, ifft

__all__ = [
    "CubicNLS",
    "RosenZener",
    "ToySplit",
    "soliton_value",
    "make_problem",
    "PROBLEM_NAMES",
]


def soliton_value(x, t):
    """Closed-form soliton 2 exp(i(3t/2 - x)) sech(2(t + x)) of the cubic NLS."""
    return 2.0 * np.exp(1j * (1.5 * t - x)) / np.cosh(2.0 * (t + x))


def _mod2(u):
    # |u|^2 without the square root of abs()
    return u.real * u.real + u.imag * u.imag


def _re_dot(u, v):
    # componentwise Re(conj(u) * v)
    return u.real * v.real + u.imag * v.imag


class CubicNLS:
    """Cubic Schroedinger equation i psi_t = -1/2 psi_xx - |psi|^2 psi.

    Discretized by Fourier collocation on n equidistant points of the
    periodic interval [x_min, x_max). The semidiscrete system reads
    u' = A u + B(u) with A the spectral realization of (i/2) d_xx and
    B(u) = i |u|^2 u acting pointwise.

    Both subflows are exact:

    * exp(t A) multiplies each Fourier mode by exp(-i k^2 t / 2),
    * the B-subflow conserves the modulus of every component, so it reduces
      to the phase rotation u_m -> exp(i t |u_m|^2) u_m.

    `initial` selects the start state: "soliton" samples the exact soliton
    at t = 0 (and enables :meth:`exact_state`), "two-soliton" superposes two
    counter-propagating solitary waves.
    """

    def __init__(
        self,
        n=512,
        x_min=-16.0,
        x_max=16.0,
        initial="soliton",
        amplitudes=(2.0, 2.0),
        carriers=(1.0, -3.0),
        centers=(5.0, -5.0),
    ):
        if n <= 0 or n & (n - 1):
            raise ValueError(f"grid size must be a power of two, got {n}")
        if initial not in ("soliton", "two-soliton"):
            raise ValueError(f"unknown initial condition {initial!r}")
        self.n = n
        self.x_min = float(x_min)
        self.x_max = float(x_max)
        length = self.x_max - self.x_min
        self.x = self.x_min + length * np.arange(n) / n
        modes = np.concatenate((np.arange(0, n // 2), np.arange(-n // 2, 0)))
        self.wavenumbers = (2.0 * np.pi / length) * modes
        self._half_ksq = 0.5 * self.wavenumbers**2
        self.initial = initial
        self._two_soliton = (amplitudes, carriers, centers)
        # discrete L2 norm weight sqrt(h); error tables are stated in this norm
        self.norm_weight = float(np.sqrt(length / n))

    # -- linear part -------------------------------------------------------

    def apply_A(self, u):
        return ifft(-1j * self._half_ksq * fft(u))

    def flow_A(self, t, u):
        return ifft(np.exp(-1j * t * self._half_ksq) * fft(u))

    # -- nonlinear part ----------------------------------------------------

    def b(self, u):
        return 1j * _mod2(u) * u

    def flow_B(self, t, u):
        return np.exp(1j * t * _mod2(u)) * u

    def dflow_B(self, t, u, v):
        phase = np.exp(1j * t * _mod2(u))
        return phase * (v + 2j * t * u * _re_dot(u, v))

    # -- combined autonomous view -------------------------------------------

    def f(self, u):
        return self.apply_A(u) + self.b(u)

    def df(self, u, v):
        return self.apply_A(v) + 1j * (_mod2(u) * v + 2.0 * u * _re_dot(u, v))

    # -- states --------------------------------------------------------------

    def initial_state(self):
        if self.initial == "soliton":
            return self.exact_state(0.0)
        amps, carriers, centers = self._two_soliton
        u = np.zeros(self.n, dtype=np.complex128)
        for a, b, c in zip(amps, carriers, centers):
            u += a * np.exp(-1j * b * self.x) / np.cosh(a * (self.x - c))
        return u

    def exact_state(self, t):
        """Exact soliton sampled on the grid (soliton initial data only)."""
        if self.initial != "soliton":
            raise ValueError("closed-form solution known only for soliton data")
        return soliton_value(self.x, t)


class RosenZener:
    """Rosen-Zener two-level model coupled through a tridiagonal matrix.

    The state solves i psi' = H(t) psi with

        H(t) = f1(t) sigma1 (x) I_k + f2(t) sigma2 (x) R,
        f1(t) = V0 cos(omega t) sech(t / T0),
        f2(t) = V0 sin(omega t) sech(t / T0),

    R = tridiag(1, 0, 1) of size k. Exposed as u' = A(t) u with
    A(t) = -i H(t); dA is the analytic derivative (no differencing, the
    defect formulas consume A' inside high-order expressions).
    """

    norm_weight = 1.0

    def __init__(self, k=50, omega=0.5, pulse_duration=1.0, amplitude=1.0):
        self.k = int(k)
        self.dim = 2 * self.k
        self.omega = float(omega)
        self.pulse_duration = float(pulse_duration)
        self.amplitude = float(amplitude)
        sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
        sigma2 = np.array([[0.0, -1j], [1j, 0.0]], dtype=np.complex128)
        coupling = np.zeros((self.k, self.k), dtype=np.complex128)
        idx = np.arange(self.k - 1)
        coupling[idx, idx + 1] = 1.0
        coupling[idx + 1, idx] = 1.0
        self._a1 = -1j * np.kron(sigma1, np.eye(self.k, dtype=np.complex128))
        self._a2 = -1j * np.kron(sigma2, coupling)

    @np.errstate(over="ignore")  # here and below: cosh(huge t) = inf, sech -> 0
    def f1(self, t):
        return self.amplitude * np.cos(self.omega * t) / np.cosh(t / self.pulse_duration)

    @np.errstate(over="ignore")
    def f2(self, t):
        return self.amplitude * np.sin(self.omega * t) / np.cosh(t / self.pulse_duration)

    @np.errstate(over="ignore")
    def df1(self, t):
        sech = 1.0 / np.cosh(t / self.pulse_duration)
        tanh = np.tanh(t / self.pulse_duration)
        return self.amplitude * sech * (
            -self.omega * np.sin(self.omega * t)
            - np.cos(self.omega * t) * tanh / self.pulse_duration
        )

    @np.errstate(over="ignore")
    def df2(self, t):
        sech = 1.0 / np.cosh(t / self.pulse_duration)
        tanh = np.tanh(t / self.pulse_duration)
        return self.amplitude * sech * (
            self.omega * np.cos(self.omega * t)
            - np.sin(self.omega * t) * tanh / self.pulse_duration
        )

    def A(self, t):
        return self.f1(t) * self._a1 + self.f2(t) * self._a2

    def dA(self, t):
        return self.df1(t) * self._a1 + self.df2(t) * self._a2

    def initial_state(self):
        return np.ones(self.dim, dtype=np.complex128)


class ToySplit:
    """Scalar u' = lam*u + mu*u^2 with exactly solvable subflows.

    The linear part A u = lam*u has flow exp(lam*t) u (row-wise on a stack
    by broadcasting), the quadratic part B(u) = mu*u^2 the flow
    u / (1 - mu*t*u); together they form the semilinear splitting
    interface (apply_A, flow_A, b, flow_B, dflow_B). The exact solution of
    the full equation is available through :meth:`exact_solution`. State
    vectors have length one so the problem plugs into the same machinery as
    the PDE discretizations.
    """

    norm_weight = 1.0

    def __init__(self, lam=-1.0, mu=0.5):
        self.lam = float(lam)
        self.mu = float(mu)

    # -- linear subflow (A part) ---------------------------------------------

    def apply_A(self, u):
        return self.lam * u

    def flow_A(self, t, u):
        return np.exp(self.lam * t) * u

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
        return v / self._denominator(t, u) ** 2

    # -- combined autonomous view ---------------------------------------------

    def f(self, u):
        return self.lam * u + self.mu * u * u

    def df(self, u, v):
        return (self.lam + 2.0 * self.mu * u) * v

    def initial_state(self):
        return np.ones(1, dtype=np.complex128)

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

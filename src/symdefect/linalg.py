"""Dense complex linear algebra and power-of-two FFTs.

Vectors are 1-d complex128 numpy arrays, matrices 2-d. All functions are
pure. ``ExpmPlan(m).apply(v)`` computes the action of the matrix exponential
on a vector or an (n, k) block without forming it: s scaling steps of d Taylor
terms, all summed, d and s chosen once per matrix for any number of vectors;
``expm`` forms the matrix by scaling and squaring the same series. The FFTs
are np.fft's own kernels, restricted to power-of-two lengths; they also transform
each row of a 2-d stack, so a state and a tangent vector can share one call.
"""

import math

import numpy as np
# np.fft.fft/ifft's own kernels (numpy >= 2.0): their wrapper costs as much as a (2, 512) FFT
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import StepFailure

__all__ = [
    "expm",
    "ExpmPlan",
    "commutator",
    "fft",
    "ifft",
]

def _as_square(m):
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return a


def expm(m):
    """Matrix exponential by scaling and squaring the Taylor series of
    :class:`ExpmPlan`: with q its ``squarings``, the series of m / 2**q, at most
    degree 18, is summed on the identity and squared q times (Al-Mohy and Higham
    2011, Thm. 3.1 with s = 2**q). Raises :class:`~symdefect.errors.StepFailure`
    when the squarings overflow."""
    plan = ExpmPlan(m)  # the 1-norm and the squarings
    q, n = plan.squarings, plan.matrix.shape[0]  # q reaches 1024, where 2.0**q overflows
    f = ExpmPlan(plan.matrix * 0.5**q).apply(np.eye(n, dtype=np.complex128))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for _ in range(q):
            f = f @ f
    if not np.isfinite(f).all():
        raise StepFailure(f"matrix exponential overflowed at 1-norm {plan.norm:.3e}")
    return f


# Truncated Taylor series of exp: degree d and the largest 1-norm theta_d for
# which d terms of the series of exp(A) reach double precision (Al-Mohy and
# Higham, "Computing the action of the matrix exponential", SIAM J. Sci.
# Comput. 33 (2011), Table 3.1).
_TAYLOR_DEGREES = (*range(1, 31), 35, 40, 45, 50, 55)
_TAYLOR_THETA = (
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2,
    8.96e-2, 1.44e-1, 2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1,
    9.31e-1, 1.09, 1.26, 1.44, 1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86,
    3.08, 3.31, 3.54, 4.7, 6.0, 7.2, 8.5, 9.9,
)


class ExpmPlan:
    """How :meth:`apply` computes expm(m) @ v, chosen once per matrix m (Al-Mohy
    and Higham 2011, Sec. 3): the Taylor degree d and scaling steps s minimize d*s
    subject to ||m||_1 / s <= theta_d, and each of the s steps sums all d terms,
    with no stopping test: by their Thm. 3.1 d terms reach double precision, and
    a stop skipped 16 of the 26,702 terms of a Rosen-Zener table pass. A huge norm
    uses expm(m), formed once, where its (18 + q) n + k matrix-vector products (q
    the ``squarings``) are fewer than the series' d*s*k on an (n, k) block, so
    expm's own apply never does. ``norm``, if given, is m's 1-norm with the bits
    np.abs(m).sum(axis=0).max() gives, from a caller that knows where m is zero."""

    def __init__(self, m, norm=None):
        a = self.matrix = _as_square(m)
        if norm is None:
            norm = float(np.abs(a).sum(axis=0).max()) if a.size else 0.0
        self.norm = norm
        if not norm < math.inf:  # NaN too
            raise ValueError("matrix has non-finite entries")
        cost, self.degree, self.steps, self._dense = math.inf, 1, math.inf, None
        for d, theta in zip(_TAYLOR_DEGREES, _TAYLOR_THETA):  # the first d of least d*s
            if d >= cost:  # s >= 1 from here on, so no larger d costs less
                break
            s = norm / theta  # a float: a huge norm gives an inf step count, no warning
            s = s if s == math.inf else float(math.ceil(s))
            if d * s < cost:
                cost, self.degree, self.steps = d * s, d, s
        theta = _TAYLOR_THETA[17]  # theta_18: expm's squarings leave a norm of at most this
        self.squarings = math.ceil(math.log2(norm / theta)) if norm > theta else 0

    def apply(self, v):
        """expm(m) @ v for a vector or an (n, k) block v; a non-finite v (an
        upstream overflow) is a StepFailure, a v of the wrong shape a ValueError."""
        a, n = self.matrix, self.matrix.shape[0]
        v = np.asarray(v, dtype=np.complex128)
        if v.ndim not in (1, 2) or v.shape[0] != n:
            raise ValueError(f"expected a vector or block of {n} rows, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise StepFailure("exponential stage vector is not finite")
        if self.norm == 0.0 or v.size == 0:
            return v.copy()
        if (self.degree * self.steps - 1) * v.size > (18 + self.squarings) * n * n:
            self._dense = expm(a) if self._dense is None else self._dense
            return self._dense @ v
        steps = int(self.steps)
        f, term = v.copy(), v
        for _ in range(steps):
            for j in range(1, self.degree + 1):
                term = a @ term
                term /= steps * j
                f += term
            term = f
        return f


def commutator(a, b):
    """Matrix commutator a @ b - b @ a."""
    a, b = _as_square(a), _as_square(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def _check_fft_input(v):
    a = np.asarray(v, dtype=np.complex128)
    if a.ndim not in (1, 2):
        raise ValueError(f"expected a vector or a stack of rows, got shape {a.shape}")
    n = a.shape[-1]
    if n == 0 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    return a


def fft(v):
    """Unnormalized forward DFT of a power-of-two length vector, or of each
    row of a 2-d stack."""
    return _pocketfft.fft(a := _check_fft_input(v), 1.0, out=np.empty_like(a))


def ifft(v):
    """Inverse DFT carrying the 1/n factor, so ifft(fft(v)) == v; row-wise
    on a 2-d stack."""
    return _pocketfft.ifft(a := _check_fft_input(v), 1.0 / a.shape[-1], out=np.empty_like(a))

"""Dense complex linear algebra and power-of-two FFTs.

Vectors are 1-d complex128 numpy arrays, matrices 2-d. All functions are
pure. The FFTs are numpy's, restricted to power-of-two lengths; they also
transform each row of a 2-d stack, so a state and a tangent vector can
share one call.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "expm",
    "expm_apply",
    "commutator",
    "ad_power",
    "kron",
    "fft",
    "ifft",
]

# Order-13 diagonal Pade approximant of exp: polynomial coefficients and the
# largest 1-norm for which the unscaled approximant stays at double precision.
_PADE13_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_PADE13_THETA = 5.371920351148152


def _as_square(m, name="matrix"):
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def expm(m):
    """Matrix exponential by scaling and squaring.

    Uses the order-13 diagonal Pade approximant with 1-norm based scaling,
    accurate to ~1e-13 relative for moderate norms.
    """
    a = _as_square(m)
    n = a.shape[0]
    norm = np.linalg.norm(a, 1) if n else 0.0
    if not np.isfinite(norm):
        raise ValueError("matrix has non-finite entries")
    squarings = 0
    if norm > _PADE13_THETA:
        squarings = int(np.ceil(np.log2(norm / _PADE13_THETA)))
        a = a / (2.0**squarings)
    ident = np.eye(n, dtype=np.complex128)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    b = _PADE13_B
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6
        + b[5] * a4
        + b[3] * a2
        + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6
        + b[4] * a4
        + b[2] * a2
        + b[0] * ident
    )
    f = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        f = f @ f
    return f


def expm_apply(m, v):
    """Action of the matrix exponential, expm(m) @ v.

    Forms the full exponential; the matrices handled here are small dense
    ones, so this beats a Krylov approach in simplicity and robustness.
    """
    a = _as_square(m)
    vec = np.asarray(v, dtype=np.complex128)
    if vec.shape != (a.shape[0],):
        raise ValueError(
            f"dimension mismatch: matrix is {a.shape}, vector has shape {vec.shape}"
        )
    return expm(a) @ vec


def commutator(a, b):
    """Matrix commutator a @ b - b @ a."""
    a = _as_square(a, "first argument")
    b = _as_square(b, "second argument")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def ad_power(b, x, m):
    """Iterated commutator ad_b^m(x): x for m == 0, [b, ad_b^(m-1)(x)] else."""
    if m < 0:
        raise ValueError("power must be non-negative")
    b = _as_square(b, "first argument")
    out = _as_square(x, "second argument")
    if b.shape != out.shape:
        raise ValueError(f"dimension mismatch: {b.shape} vs {out.shape}")
    for _ in range(m):
        out = b @ out - out @ b
    return out


def kron(a, b):
    """Kronecker product of two matrices."""
    return np.kron(
        np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    )


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
    return np.fft.fft(_check_fft_input(v))


def ifft(v):
    """Inverse DFT carrying the 1/n factor, so ifft(fft(v)) == v; row-wise
    on a 2-d stack."""
    return np.fft.ifft(_check_fft_input(v))

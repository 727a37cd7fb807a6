"""2x2 complex matrix arithmetic and the su(2)/SU(2) structure.

Matrices are numpy arrays whose two trailing axes have length 2; every
function broadcasts over leading axes so a whole lattice of coefficients
can be processed in one call.

The su(2) basis used throughout is lam_a = sigma_a / (2i) with the
standard Pauli matrices, so su(2) elements are parameterized by three
real numbers (a1, a2, a3) <-> sum_a a_a * lam_a.
"""

from __future__ import annotations

import numpy as np

SIGMA = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=np.complex128,
)

# anti-Hermitian traceless basis; [LAMBDA[0], LAMBDA[1]] = LAMBDA[2] etc.
LAMBDA = SIGMA / 2j

IDENTITY2 = np.eye(2, dtype=np.complex128)


def mat_mul(a, b):
    """Matrix product on the trailing 2x2 axes."""
    return np.asarray(a) @ np.asarray(b)


def commutator(a, b):
    """ab - ba."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a @ b - b @ a


def conj_transpose(a):
    """Conjugate transpose of the trailing 2x2 block."""
    return np.conj(np.swapaxes(np.asarray(a), -1, -2))


def trace(a):
    """Trace over the trailing 2x2 block."""
    return np.trace(np.asarray(a), axis1=-2, axis2=-1)


def det2(a):
    a = np.asarray(a)
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def inv2(a):
    """Exact 2x2 inverse (adjugate over determinant)."""
    a = np.asarray(a)
    out = np.empty_like(a)
    out[..., 0, 0] = a[..., 1, 1]
    out[..., 0, 1] = -a[..., 0, 1]
    out[..., 1, 0] = -a[..., 1, 0]
    out[..., 1, 1] = a[..., 0, 0]
    return out / det2(a)[..., None, None]


def embed_su2(v):
    """Map real coefficient vectors (..., 3) to su(2) matrices (..., 2, 2)."""
    v = np.asarray(v, dtype=np.float64)
    return np.einsum("...a,aij->...ij", v, LAMBDA)


def project_su2(m):
    """Coefficients of the anti-Hermitian traceless part of m in the lam basis.

    Inverse of embed_su2 on su(2); general matrices are first projected onto
    (m - m^H)/2 minus its trace part.  tr(lam_a lam_b) = -delta_ab / 2, so the
    coefficients are -2 tr(X lam_a).
    """
    m = np.asarray(m, dtype=np.complex128)
    ah = (m - conj_transpose(m)) / 2.0
    ah = ah - (trace(ah) / 2.0)[..., None, None] * IDENTITY2
    return -2.0 * np.real(np.einsum("...ij,aji->...a", ah, LAMBDA))


def exp_su2(v):
    """Group exponential of embed_su2(v), in closed form.

    With theta = |v|:  exp = cos(theta/2) I + (sin(theta/2)/(theta/2)) X,
    X = embed_su2(v).  The result is unitary with det 1 to machine precision.
    """
    v = np.asarray(v, dtype=np.float64)
    theta = np.linalg.norm(v, axis=-1)
    half = theta / 2.0
    # series for sin(x)/x below the switchover keeps the limit smooth
    small = half < 1e-8
    with np.errstate(invalid="ignore", divide="ignore"):
        sinc = np.where(small, 1.0 - half * half / 6.0, np.sin(half) / np.where(small, 1.0, half))
    out = np.cos(half)[..., None, None] * IDENTITY2 + sinc[..., None, None] * embed_su2(v)
    return out


def su2_algebra_deviation(m):
    """Max |.| distance of m from anti-Hermitian traceless, entrywise."""
    m = np.asarray(m)
    herm = np.abs(m + conj_transpose(m)).max() if m.size else 0.0
    tr = np.abs(trace(m)).max() if m.size else 0.0
    return float(max(herm, tr))


def su2_group_deviation(m):
    """Max |.| distance of m from unitary with unit determinant."""
    m = np.asarray(m)
    if not m.size:
        return 0.0
    unit = np.abs(m @ conj_transpose(m) - IDENTITY2).max()
    det = np.abs(det2(m) - 1.0).max()
    return float(max(unit, det))


def is_su2_algebra(m, tol=1e-10):
    """True iff every trailing 2x2 block is anti-Hermitian traceless within tol."""
    return su2_algebra_deviation(m) <= tol


def is_su2_group(m, tol=1e-10):
    """True iff every trailing 2x2 block is unitary with det 1 within tol."""
    return su2_group_deviation(m) <= tol


def matrix_to_pairs(m):
    """Row-major [re, im] pair encoding: [[re,im],[re,im],[re,im],[re,im]]."""
    m = np.asarray(m, dtype=np.complex128)
    flat = m.reshape(*m.shape[:-2], 4)
    return np.stack([flat.real, flat.imag], axis=-1)


def matrix_from_pairs(p):
    p = np.asarray(p, dtype=np.float64)
    flat = p[..., 0] + 1j * p[..., 1]
    return flat.reshape(*p.shape[:-2], 2, 2)

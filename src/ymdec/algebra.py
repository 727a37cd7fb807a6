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


def conj_transpose(a):
    """Conjugate transpose of the trailing 2x2 block."""
    return np.conj(np.swapaxes(np.asarray(a), -1, -2))


def trace(a):
    """Trace over the trailing 2x2 block."""
    return np.trace(np.asarray(a), axis1=-2, axis2=-1)


def mat_mul(a, b):
    """Product of the trailing 2x2 blocks as two broadcast products: column
    0 of a times row 0 of b, plus column 1 times row 1 added in place, so
    each entry is a_i0 b_0j + a_i1 b_1j.  Broadcasts over leading axes; the
    result has the operands' memory order, so entry-major operands (see
    cochain.Cochain) give an entry-major product.  numpy's batched matmul
    is several times slower on 2x2 operands; this is the one product of
    coefficient matrices in the program."""
    a = np.asarray(a)
    b = np.asarray(b)
    out = a[..., :, :1] * b[..., :1, :]
    out += a[..., :, 1:] * b[..., 1:, :]
    return out


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
    """Map real coefficient vectors (..., 3) to su(2) matrices (..., 2, 2):
    [[-i h3, -h2 - i h1], [h2 - i h1, i h3]] with h = v / 2, written through
    a float64 view, each zero entry +0 (0.0 - h, h + 0.0) as in sum_a v_a lam_a."""
    h = 0.5 * np.asarray(v, dtype=np.float64)
    out = np.empty(h.shape[:-1] + (2, 2), dtype=np.complex128)
    x = out.view(np.float64)  # (..., 2, 4): re, im of each row's two entries
    x[..., 0, 0] = x[..., 1, 2] = 0.0
    np.subtract(0.0, h[..., 2], out=x[..., 0, 1])
    np.subtract(0.0, h[..., 1], out=x[..., 0, 2])
    np.subtract(0.0, h[..., 0], out=x[..., 0, 3])
    np.add(h[..., 1], 0.0, out=x[..., 1, 0])
    x[..., 1, 1] = x[..., 0, 3]
    np.add(h[..., 2], 0.0, out=x[..., 1, 3])
    return out


def project_su2(m):
    """Coefficients of the anti-Hermitian traceless part of m in the lam basis.

    Inverse of embed_su2 on su(2).  tr(lam_a lam_b) = -delta_ab / 2, so the
    coefficients are -2 Re tr(m lam_a): the real part drops the Hermitian
    and trace parts of a general m, as tr lam_a = 0 and
    tr(m^H lam_a) = -conj tr(m lam_a).  Written out they are
    -(Im m01 + Im m10), Re m10 - Re m01 and Im m11 - Im m00, computed as
    the trace sums them: halved entries, a sum from +0 (so a zero
    coefficient is -0), times -2.  Written plane-backed (see gauge): a
    view of a C-contiguous (3, ...), one contiguous plane per component.
    """
    m = np.asarray(m, dtype=np.complex128)
    re, im = m.real, m.imag
    planes = np.empty((3,) + m.shape[:-2])
    np.add(0.5 * im[..., 0, 1], 0.5 * im[..., 1, 0], out=planes[0, ...])
    np.subtract(0.5 * re[..., 0, 1], 0.5 * re[..., 1, 0], out=planes[1, ...])
    np.subtract(0.5 * im[..., 0, 0], 0.5 * im[..., 1, 1], out=planes[2, ...])
    planes += 0.0
    planes *= -2.0
    return np.moveaxis(planes, 0, -1)


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


# Quaternion planes.  e_a = -i sigma_a = 2 lam_a obey e1 e2 = e3 and
# e_a^2 = -1, so s I + sum_a u_a e_a is the real quaternion (s, u), with
# squared Frobenius norm 2 (s^2 + |u|^2); the su(2) coefficient vector v is
# the pure quaternion u = v / 2.  Plane arrays put the component axis first
# and are C-contiguous, so every component is one contiguous array over the
# lattice, as in the plane-backed coefficient vectors that gauge gathers from.


def plane_dot(x, y):
    """Componentwise dot product of vector planes (3, ...) -> (...)."""
    return np.einsum("c...,c...->...", x, y)


def plane_cross(x, y):
    """Cross product of vector planes (3, ...) -> (3, ...), one component
    plane at a time, so no temporary is larger than a plane."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape))
    for c in range(3):
        n, p = (c + 1) % 3, (c + 2) % 3
        np.subtract(x[n] * y[p], x[p] * y[n], out=out[c])
    return out


def quaternion_matrices(s, u):
    """The 2x2 matrices s I + sum_a u_a e_a of scalar planes s (...) and
    vector planes u (3, ...), shape (..., 2, 2): [[s - i u3, -u2 - i u1],
    [u2 - i u1, s + i u3]], written through a float64 view as embed_su2
    writes its entries, each zero entry +0 (s + 0.0, 0.0 - u, u + 0.0)."""
    out = np.empty(s.shape + (2, 2), dtype=np.complex128)
    x = out.view(np.float64)  # (..., 2, 4): re, im of each row's two entries
    np.add(s, 0.0, out=x[..., 0, 0])
    x[..., 1, 2] = x[..., 0, 0]
    np.subtract(0.0, u[2], out=x[..., 0, 1])
    np.subtract(0.0, u[1], out=x[..., 0, 2])
    np.subtract(0.0, u[0], out=x[..., 0, 3])
    np.add(u[1], 0.0, out=x[..., 1, 0])
    x[..., 1, 1] = x[..., 0, 3]
    np.add(u[2], 0.0, out=x[..., 1, 3])
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
    unit = np.abs(mat_mul(m, conj_transpose(m)) - IDENTITY2).max()
    det = np.abs(det2(m) - 1.0).max()
    return float(max(unit, det))

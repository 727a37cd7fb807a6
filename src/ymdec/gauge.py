"""Gauge fields on the double complex: curvature, gauge transformations,
the Bianchi identity, the Yang-Mills residual, and self-duality.

A connection is an su(2)-valued 1-form A, a gauge field an SU(2)-valued
0-form h.  The curvature F = dA + A u A is gl(2, C)-valued: the quadratic
part A^i_k A^j_{tau_i k} - A^j_k A^i_{tau_j k} leaves the algebra, so no
projection is applied to F.

The discretized gauge transform A' = h u d(h^-1) + h u A u h^-1 is only
approximately su(2)-valued (h_k h^-1_{tau_i k} - I has a Hermitian trace
part whenever the two group elements differ); gauge_transform measures the
deviation instead of assuming membership.

The curvature stencil has one implementation, on real quaternion planes
(see algebra): F is the product of su(2) elements, so it lies in
H = span_R{I, lam_a}.  This module owns the plane layout, one stacked
array (3 components, 4 slots, rows, 6 axis pairs), and states the slot
order once, as the tables _SLOT_SHIFT and _SLOT_AXIS.  interior_gather
reads them on cell ids shifted by shift_plus, into the one index table:
the interior rows, the cells the solver kernel's objective keeps;
curvature_components reads them on shifted coefficient vectors, over
every stored cell.  Coefficient vectors (charts, k..., 4, 3) are
plane-backed, views of a C-contiguous (3, charts, k..., 4), as
algebra.project_su2 writes them; pair_operands gathers quaternion planes
from them through the table, and interior_scatter, its adjoint, sums back
into new plane-backed vectors.
curvature_stencil forms x^i y^j(tau_i) - x^j y^i(tau_j) for pure x, y,
and curvature_blocks is F's derivative along a direction as per-row 4x3
blocks, one per operand slot, whose transpose is its adjoint.
curvature_components and the solver kernel build on them; curvature() on
the gl(2, C) Cochain calculus is the oracle they are checked against.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import algebra as alg
from .calculus import coboundary, cup, dual, norm, norm_sq, shift_plus
from .cochain import Cochain, add, scale, sub, validate_connection, zero_pad
from .complex4 import MASKS_BY_DEGREE, SHIFT_PAIRS, Domain, mask_axes

# ordered axis pairs matching the degree-2 direction sets (ascending masks)
DIR_PAIRS = tuple(mask_axes(m) for m in MASKS_BY_DEGREE[2])
# 0-based first and second axis of each pair
PAIR_I = np.array([i - 1 for i, _ in DIR_PAIRS])
PAIR_J = np.array([j - 1 for _, j in DIR_PAIRS])


def curvature(A: Cochain) -> Cochain:
    """F = coboundary(A) + cup(A, A); degree 2, general gl(2, C) coefficients."""
    if A.degree != 1:
        raise ValueError("curvature needs a degree-1 form")
    return add(coboundary(A), cup(A, A))


# The stencil's slots x^i, x^j, x^j(tau_i n), x^i(tau_j n), per pair (i, j):
# the axis each operand is shifted up (0 for none) and the 0-based axis of
# the coefficient it reads, both (4 slots, 6 pairs).
_SLOT_SHIFT = np.stack((0 * PAIR_I, 0 * PAIR_J, PAIR_I + 1, PAIR_J + 1))
_SLOT_AXIS = np.stack((PAIR_I, PAIR_J, PAIR_J, PAIR_I))


def _steps(domain: Domain, vals: np.ndarray) -> np.ndarray:
    """vals and its shift_plus along axes 1..4, stacked: entry s is vals at
    tau_s, s = 0 unshifted, as _SLOT_SHIFT counts."""
    return np.stack([vals] + [shift_plus(domain, vals, axis) for axis in (1, 2, 3, 4)])


@lru_cache(maxsize=None)
def interior_gather(domain: Domain) -> np.ndarray:
    """The plane index table of the curvature stencil on the interior rows,
    the cells 1 <= k_i <= N_i in storage order (every stored cell on the
    sphere), read-only, shape (4 slots, nrows, 6 pairs): flat indices
    4 m + a into the (cell, axis) rows of coefficient vectors
    (charts, k..., 4, 3), m the cell id shifted by _SLOT_SHIFT through
    shift_plus (so by Domain.step_copies, read off resolve) and a the axis
    _SLOT_AXIS.  tau of an interior cell is always stored.  C-contiguous,
    so np.take reads it at unit stride; _scatter_index ravels it once."""
    ids = np.arange(domain.ncells).reshape(domain.ncharts, *domain.extents)
    tau = _steps(domain, ids)[(slice(None),) + domain.interior].reshape(5, -1)
    out = np.ascontiguousarray(np.moveaxis(4 * tau[_SLOT_SHIFT] + _SLOT_AXIS[..., None], 1, 2))
    out.setflags(write=False)
    return out


def pair_operands(table: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The stencil operands of coefficient vectors (..., 3) through the
    plane index table interior_gather: stacked planes (3, 4 slots, rows, 6),
    one np.take along their component planes vecs.reshape(-1, 3).T."""
    return vecs.reshape(-1, 3).T.take(table, axis=1)


@lru_cache(maxsize=None)
def _scatter_index(domain: Domain) -> np.ndarray:
    """Read-only: entry (c, s, n, p) is interior_gather's (s, n, p) + c 4 ncells."""
    out = (interior_gather(domain) + 4 * domain.ncells * np.arange(3)[:, None, None, None]).ravel()
    out.setflags(write=False)
    return out


def interior_scatter(domain: Domain, z: np.ndarray) -> np.ndarray:
    """The adjoint of pair_operands on interior_gather: z (3, 4, nrows, 6)
    summed into plane-backed coefficient vectors by one np.add.at, in index
    order, as np.bincount sums; np.bincount's extra pass over the index
    made it ~1.7x slower at sphere 8^4, where K evicts the index."""
    out = np.zeros((3, 4 * domain.ncells))
    np.add.at(out.reshape(-1), _scatter_index(domain), z.reshape(-1))
    return out.T.reshape(domain.ncharts, *domain.extents, 4, 3)


def curvature_stencil(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x^i y^j(tau_i) - x^j y^i(tau_j) for pure quaternion operands, stacked
    planes (3, 4, rows, 6) with slot s the view x[:, s], as planes
    (4, rows, 6), scalar first:
      scalar  x^j . y^i(tau_j) - x^i . y^j(tau_i)
      vector  x^i x y^j(tau_i) - x^j x y^i(tau_j)
    The quadratic part of the curvature is stencil(a, a); along A + tP it
    contributes stencil(a, p) + stencil(p, a) at order t and stencil(p, p)
    at order t^2.
    """
    out = np.empty((4,) + x.shape[2:])
    # slots (0, 1) of x meet slots (2, 3) of y: both products in one pass each
    dots = alg.plane_dot(x[:, :2], y[:, 2:])
    np.subtract(dots[1], dots[0], out=out[0])
    cross = alg.plane_cross(x[:, :2], y[:, 2:])
    np.subtract(cross[:, 0], cross[:, 1], out=out[1:])
    return out


def curvature_planes(x: np.ndarray) -> np.ndarray:
    """F = dA + A u A as quaternion planes (4, rows, 6), scalar first, for
    stacked operand planes x; the coboundary is
    (x^j(tau_i) - x^j) - (x^i(tau_j) - x^i)."""
    F = curvature_stencil(x, x)
    F[1:] += x[:, 2]
    F[1:] -= x[:, 1]
    F[1:] -= x[:, 3]
    F[1:] += x[:, 0]
    return F


# F1 = dP + stencil(A, P) + stencil(P, A) slot by slot, for P's planes y:
# slot s meets A's operand in slot s + 2 mod 4 as b, and adds
# _DOT[s] b . y to the scalar, _CROSS[s] b x y and _D[s] y to the vector;
# halved, since y is half of P's coefficients.  Slots are indexed
# (half, slot in half), so the partner slot is the other half.  The 1/2
# stays here: pair_operands reads plane-backed vectors in place, and
# halving there would add a pass over the direction to each product.
_DOT, _CROSS, _D = (0.5 * np.array(signs, dtype=float).reshape(2, 2, 1, 1)
                    for signs in ((-1, 1, -1, 1), (-1, 1, 1, -1), (1, -1, 1, -1)))


def curvature_blocks(x: np.ndarray) -> np.ndarray:
    """The derivative of the curvature at A as per-row blocks K, shape
    (4 out, 3 in, 4 slots, rows, 6), for A's stacked operand planes x
    (3, 4, rows, 6): F1 = einsum("ocsnp,csnp->onp", K, v) for the stacked
    coefficients v of a direction P (pair_operands), and its adjoint
    einsum("ocsnp,onp->csnp", K, W).  Row o of the vector part holds b x y
    as b_{o+1} y_{o+2} - b_{o+2} y_{o+1}, indices mod 3."""
    halves = (2, 2) + x.shape[2:]
    b = x.reshape(3, *halves)[:, ::-1]
    K = np.empty((4,) + x.shape)
    k = K.reshape(4, 3, *halves)
    np.multiply(b, _DOT, out=k[0])
    for o in range(3):
        n, p = (o + 1) % 3, (o + 2) % 3
        k[1 + o, o] = _D
        np.multiply(b[n], _CROSS, out=k[1 + o, p])
        np.multiply(b[p], -_CROSS, out=k[1 + o, n])
    return K


def curvature_components(A: Cochain) -> Cochain:
    """Curvature assembled from the component stencil on quaternion planes,

    F^{ij}_k = (A^j_{tau_i k} - A^j_k) - (A^i_{tau_j k} - A^i_k)
               + A^i_k A^j_{tau_i k} - A^j_k A^i_{tau_j k},

    embedded back as F = s I + 2 sum_a u_a lam_a.  Independent of the
    Cochain route of curvature(), with which it must agree to machine
    precision.  The stencil reads only the su(2) part of A, so a degree-1
    form that validate_connection rejects raises ValidationError instead
    of being projected silently.
    """
    validate_connection(A)
    # (4 slots, 6 pairs, charts, k..., 3): the advanced indices lead
    x = _steps(A.domain, 0.5 * alg.project_su2(A.values))[_SLOT_SHIFT, ..., _SLOT_AXIS, :]
    F = curvature_planes(np.ascontiguousarray(np.moveaxis(x, (-1, 1), (0, -1))).reshape(3, 4, -1, 6))
    values = alg.quaternion_matrices(F[0], F[1:])
    return Cochain(A.domain, 2, values.reshape(A.values.shape[:-3] + (6, 2, 2)), A.copy)


def covariant_d(A: Cochain, omega: Cochain) -> Cochain:
    """d omega + A u omega + (-1)^{r+1} omega u A for an r-form omega."""
    if omega.degree > 3:
        raise ValueError("covariant differential needs degree <= 3")
    sign = 1 if omega.degree % 2 else -1
    return add(coboundary(omega), add(cup(A, omega), scale(cup(omega, A), sign)))


def gauge_inverse(h: Cochain) -> Cochain:
    """0-form with pointwise inverted coefficients."""
    if h.degree != 0:
        raise ValueError("gauge inverse needs a degree-0 form")
    return h.like(alg.inv2(h.values))


def gauge_transform(A: Cochain, h: Cochain) -> Cochain:
    """A' = h u d(h^-1) + h u A u h^-1.

    The result is not projected: its deviation from su(2) is left to the
    caller (see algebra.su2_algebra_deviation).
    """
    hinv = gauge_inverse(h)
    return add(cup(h, coboundary(hinv)), cup(h, cup(A, hinv)))


def bianchi_residual(A: Cochain) -> float:
    """Norm of the covariant differential of the curvature.

    d F + A u F - F u A vanishes identically for F = dA + A u A: the
    combinatorial Bianchi identity.
    """
    return norm(covariant_d(A, curvature(A)))


def yang_mills_residual(A: Cochain) -> Cochain:
    """The field-equation 3-form: covariant differential of the dual curvature."""
    return covariant_d(A, dual(curvature(A)))


def yang_mills_residual_norm(A: Cochain) -> float:
    return norm(yang_mills_residual(A))


def connection_scalars(A: Cochain, F: Cochain) -> dict:
    """The standard diagnostics of a connection from its curvature F: the
    action |F|^2, the Yang-Mills residual, the self-dual residual and the
    Bianchi defect, bitwise equal to yang_mills_residual_norm, sd_residual
    and bianchi_residual called on their own.  The block adds the Yang-Mills
    residual on the deep cells (zero_pad's support, 1 <= k_i <= N_i - 1),
    where covariant_d reads F on interior cells only, not at the halo."""
    ym = covariant_d(A, dual(F))
    out = {
        "action": float(norm_sq(F)),
        "ym_residual_norm": float(norm(ym)),
        "sd_residual": float(sd_residual(F)),
        "bianchi_defect": float(norm(covariant_d(A, F))),
    }
    if A.domain.halo:
        out["ym_residual_norm_deep"] = float(norm(zero_pad(ym)))
    return out


# the degree-2 direction sets through axis 1, (12), (13), (14): one per
# complementary pair, so one per componentwise self-duality equation
_FIRST_AXIS = tuple(DIR_PAIRS.index(p) for p, _ in SHIFT_PAIRS)


def dual_compat_defects(h: Cochain):
    """Max coefficient mismatch of h(tau_a tau_b k) vs h(tau_c tau_d k) for
    the three pairs of SHIFT_PAIRS, over interior cells."""
    if h.degree != 0:
        raise ValueError("needs a degree-0 form")
    sl = h.domain.interior
    out = []
    for (a1, a2), (b1, b2) in SHIFT_PAIRS:
        left = shift_plus(h.domain, shift_plus(h.domain, h.values, a1), a2)
        right = shift_plus(h.domain, shift_plus(h.domain, h.values, b1), b2)
        out.append(float(np.abs(left[sl] - right[sl]).max()))
    return tuple(out)


def is_dual_compatible(h: Cochain) -> bool:
    """True iff all three paired-shift identities hold to 1e-12 at every
    interior cell."""
    return max(dual_compat_defects(h)) <= 1e-12


def left_cup_dual_defect(h: Cochain, f: Cochain) -> float:
    """Defect of dual(h u f) = h u dual(f); zero for every h."""
    return norm(sub(dual(cup(h, f)), cup(h, dual(f))))


def right_cup_dual_defect(h: Cochain, f: Cochain) -> float:
    """Defect of dual(f u h) = dual(f) u h for a 2-form f.

    Vanishes iff h satisfies the paired-shift conditions (an iff: a gauge
    violating them produces a positive defect on generic f).
    """
    if f.degree != 2:
        raise ValueError("needs a degree-2 form")
    return norm(sub(dual(cup(f, h)), cup(dual(f), h)))


def self_dual_part(F: Cochain) -> Cochain:
    """(F + dual F) / 2; fixed by the dual map."""
    return scale(_sd_field(F, anti=True), 0.5)


def anti_self_dual_part(F: Cochain) -> Cochain:
    """(F - dual F) / 2; negated by the dual map."""
    return scale(_sd_field(F, anti=False), 0.5)


def _sd_field(F: Cochain, anti: bool) -> Cochain:
    """F - dual F, or F + dual F when anti is set."""
    if F.degree != 2:
        raise ValueError("needs a degree-2 form")
    return (add if anti else sub)(F, dual(F))


def sd_residual(F: Cochain, anti: bool = False) -> float:
    """Norm of F - dual F, zero exactly on self-dual forms; with anti set,
    of F + dual F, zero exactly on anti-self-dual forms."""
    return norm(_sd_field(F, anti))


def sd_component_defects(F: Cochain, anti: bool = False):
    """Norms over interior cells of the (12), (13) and (14) components of
    F -+ dual F: the three componentwise (anti-)self-duality equations,
    read off the signed permutation of the dual map."""
    R = _sd_field(F, anti).values[F.domain.interior]
    return tuple(float(np.sqrt(np.sum(np.abs(R[..., n, :, :]) ** 2))) for n in _FIRST_AXIS)

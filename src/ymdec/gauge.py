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
H = span_R{I, lam_a}.  This module owns the plane layout: _pair_gather
builds its index tables from tau (shift_plus on cell ids) and sigma, its
inverse; pair_operands gathers A's pure quaternion planes per axis pair
through them, curvature_stencil forms x^i y^j(tau_i) - x^j y^i(tau_j) for
pure x, y, curvature_tangent is F's derivative along a direction and
curvature_adjoint its adjoint.  curvature_components and the solver kernel
build on them; curvature() on the gl(2, C) Cochain calculus is the oracle
they are checked against.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import algebra as alg
from .calculus import coboundary, cup, dual, norm, norm_sq, shift_plus
from .cochain import Cochain, add, interior, scale, sub, validate_connection, zero_pad
from .complex4 import FULL_MASK, MASKS_BY_DEGREE, Domain, mask_axes

# ordered axis pairs matching the degree-2 direction sets (ascending masks)
DIR_PAIRS = tuple(mask_axes(m) for m in MASKS_BY_DEGREE[2])
# 0-based first and second axis of each pair
PAIR_I = np.array([i - 1 for i, _ in DIR_PAIRS])
PAIR_J = np.array([j - 1 for _, j in DIR_PAIRS])
_PAIRS = np.arange(len(DIR_PAIRS))
_HALF_TO_AXIS_I, _HALF_TO_AXIS_J = 0.5 * np.eye(4)[PAIR_I], 0.5 * np.eye(4)[PAIR_J]  # (6, 4)


def curvature(A: Cochain) -> Cochain:
    """F = coboundary(A) + cup(A, A); degree 2, general gl(2, C) coefficients."""
    if A.degree != 1:
        raise ValueError("curvature needs a degree-1 form")
    return add(coboundary(A), cup(A, A))


class PairPlanes(NamedTuple):
    """Operands of the curvature stencil for every axis pair i < j:
    x^i, x^j, x^j(tau_i n), x^i(tau_j n), each a C-contiguous plane array
    (3, ncells + 1, 6)."""

    i: np.ndarray
    j: np.ndarray
    j_ti: np.ndarray
    i_tj: np.ndarray


@lru_cache(maxsize=None)
def _pair_gather(domain: Domain):
    """Flat indices into the plane layout, (ncells + 1, 6) each, for cell n
    and pair (i, j): the four stencil operands in PairPlanes order,
    4 m + a - 1 for (m, a) = (n, i), (n, j), (tau_i n, j), (tau_j n, i), into
    vector planes (3, (ncells + 1) 4); then the two scatters 6 sigma_i n + pair
    and 6 sigma_j n + pair into pair planes (3, (ncells + 1) 6).  np.take
    along axis 1 gives C-contiguous planes (3, ncells + 1, 6).  tau shifts
    cell ids, so the gluing keeps its one array definition in shift_plus;
    sigma is its inverse.  Row ncells is a sentinel with a zero plane row:
    a step past the block halo points there, and it points at itself."""
    ncells = domain.ncells
    ids = np.arange(1, ncells + 1).reshape(domain.ncharts, *domain.extents)
    steps = np.stack([shift_plus(domain, ids, axis).ravel() for axis in (1, 2, 3, 4)], axis=1)
    # shift_plus reads id 0 past the halo: id - 1 mod ncells + 1 is the sentinel
    tau = (np.pad(steps, ((0, 1), (0, 0))) - 1) % (ncells + 1)
    sigma = np.full_like(tau, ncells)
    cell, axis = np.nonzero(tau < ncells)
    sigma[tau[cell, axis], axis] = cell
    n = np.arange(ncells + 1)[:, None]
    out = (4 * n + PAIR_I, 4 * n + PAIR_J, 4 * tau[:, PAIR_I] + PAIR_J, 4 * tau[:, PAIR_J] + PAIR_I,
           6 * sigma[:, PAIR_I] + _PAIRS, 6 * sigma[:, PAIR_J] + _PAIRS)
    for t in out:
        t.setflags(write=False)
    return out


def pair_operands(domain: Domain, vecs: np.ndarray) -> PairPlanes:
    """The stencil operands of su(2) coefficient vectors (charts, k..., 4, 3): their
    pure quaternion planes (3, ncells + 1, 4), zero sentinel row last, per pair."""
    v = vecs.reshape(-1, 4, 3)
    a = np.zeros((3, v.shape[0] + 1, 4))
    a[:, :-1] = 0.5 * np.moveaxis(v, -1, 0)
    a = a.reshape(3, -1)
    return PairPlanes(*(np.take(a, idx, axis=1) for idx in _pair_gather(domain)[:4]))


def curvature_stencil(x: PairPlanes, y: PairPlanes) -> np.ndarray:
    """x^i y^j(tau_i) - x^j y^i(tau_j) for pure quaternion operands, as
    planes (4, ncells + 1, 6), scalar first:
      scalar  x^j . y^i(tau_j) - x^i . y^j(tau_i)
      vector  x^i x y^j(tau_i) - x^j x y^i(tau_j)
    The quadratic part of the curvature is stencil(a, a); along A + tP it
    contributes stencil(a, p) + stencil(p, a) at order t and stencil(p, p)
    at order t^2.
    """
    out = np.empty((4,) + x.i.shape[1:])
    np.subtract(alg.plane_dot(x.j, y.i_tj), alg.plane_dot(x.i, y.j_ti), out=out[0])
    alg.plane_cross(x.i, y.j_ti, out=out[1:])
    out[1:] -= alg.plane_cross(x.j, y.i_tj)
    return out


def add_pair_difference(out: np.ndarray, x: PairPlanes) -> None:
    """out += (x^j(tau_i) - x^j) - (x^i(tau_j) - x^i): the coboundary of
    pair planes, added in place to vector planes."""
    out += x.j_ti
    out -= x.j
    out -= x.i_tj
    out += x.i


def curvature_planes(x: PairPlanes) -> np.ndarray:
    """F = dA + A u A as quaternion planes (4, ncells + 1, 6), scalar first."""
    F = curvature_stencil(x, x)
    add_pair_difference(F[1:], x)
    return F


def curvature_tangent(x: PairPlanes, y: PairPlanes) -> np.ndarray:
    """F1 = dP + stencil(A, P) + stencil(P, A): the derivative of the
    curvature at A along P, for their operands x and y, as planes."""
    F1 = curvature_stencil(x, y)
    F1 += curvature_stencil(y, x)
    add_pair_difference(F1[1:], y)
    return F1


def curvature_adjoint(domain: Domain, x: PairPlanes, W: np.ndarray) -> np.ndarray:
    """G with <curvature_tangent(x, pair_operands(domain, P)), W> = <P, G> for
    every P, for planes W = (w0, w) with a zero sentinel row.  Per pair (i, j)
    one sweep collects the vector parts of W + W conj(A^j(tau_i n)) on axis i
    at n, W + conj(A^j) W on axis i at tau_j n (subtracted), W + W conj(A^i(tau_j n))
    on axis j at n (subtracted) and W + conj(A^i) W on axis j at tau_i n, halved
    by the pair-to-axis incidence since the planes of P are P / 2."""
    sigma_i, sigma_j = _pair_gather(domain)[4:]
    w0, w = W[0], W[1:]
    on_i = _weighted(w0, w, x.j_ti, -1)
    on_i -= np.take(_weighted(w0, w, x.j, 1).reshape(3, -1), sigma_j, axis=1)
    on_j = np.take(_weighted(w0, w, x.i, 1).reshape(3, -1), sigma_i, axis=1)
    on_j -= _weighted(w0, w, x.i_tj, -1)
    G = on_i @ _HALF_TO_AXIS_I
    G += on_j @ _HALF_TO_AXIS_J
    return np.ascontiguousarray(G[:, :-1].transpose(1, 2, 0)).reshape(
        domain.ncharts, *domain.extents, 4, 3)


def _weighted(w0: np.ndarray, w: np.ndarray, b: np.ndarray, side: int) -> np.ndarray:
    """Vector part of W + W conj(b) (side -1) or of W + conj(b) W (side 1)
    for pure b: w - w0 b - w x b, or w - w0 b + w x b."""
    out = alg.plane_cross(w, b)
    if side < 0:
        np.negative(out, out=out)
    out -= w0 * b
    out += w
    return out


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
    F = curvature_planes(pair_operands(A.domain, alg.project_su2(A.values)))[:, :-1]
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
    if not A.domain.is_sphere:
        out["ym_residual_norm_deep"] = float(norm(zero_pad(ym)))
    return out


# the degree-2 direction sets through axis 1, (12), (13), (14): one per
# complementary pair, so one per componentwise self-duality equation
_FIRST_AXIS = tuple(n for n, m in enumerate(MASKS_BY_DEGREE[2]) if m & 1)

# axis-pair partners: the three paired double shifts whose agreement makes a
# gauge commute with the dual under right cup multiplication
SHIFT_PAIRS = tuple((mask_axes(m), mask_axes(FULL_MASK ^ m)) for m in MASKS_BY_DEGREE[2] if m & 1)


def dual_compat_defects(h: Cochain):
    """Max coefficient mismatch of h(tau_a k) vs h(tau_b k) for the three
    complementary axis pairs, over interior cells."""
    if h.degree != 0:
        raise ValueError("needs a degree-0 form")
    sl = interior(h.domain)
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
    R = _sd_field(F, anti).values[interior(F.domain)]
    return tuple(float(np.sqrt(np.sum(np.abs(R[..., n, :, :]) ** 2))) for n in _FIRST_AXIS)

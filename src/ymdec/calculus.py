"""Discrete exterior calculus on the double complex.

Component conventions (direction sets written as ascending axis tuples):

  coboundary   (df)^R_k   = sum_{i in R} (-1)^{#(R before i)} (f^{R\\i}_{tau_i k} - f^{R\\i}_k)
  cup          (f u g)^R_k = sum_{P disjoint-union Q = R, |P| = p}
                             cup_sign(P, Q) * f^P_k  g^Q_{k + 1_P}
  star         (*f)^{P^c}_k = perm_sign(P) * f^P_k,   copy flag toggled
  copy_swap    identical components, copy flag toggled
  codifferential on a p-form: -star(coboundary(star(f)))

Coefficients multiply as matrices in operand order.  On the block, reads
one past the stored halo yield zero; identities are therefore asserted on
interior cells (the inner product already restricts to 1 <= k_i <= N_i),
and exactly everywhere for forms vanishing near the boundary.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .algebra import mat_mul
from .cochain import Cochain, conj_transpose_form
from .complex4 import (
    BASE,
    FULL_MASK,
    MASKS_BY_DEGREE,
    PERM_SIGN,
    Domain,
    boundary_arrays,
    cup_sign,
    mask_axes,
)


def shift_plus(domain: Domain, vals: np.ndarray, axis: int) -> np.ndarray:
    """Gather values at tau_axis(k): one step forward along a lattice axis.

    Sphere: the last slot wraps into the other chart (gluing).  Block: the
    slot one past the halo reads zero.
    """
    nd = vals.ndim
    out = np.empty_like(vals)
    dst = [slice(None)] * nd
    src = [slice(None)] * nd
    dst[axis] = slice(0, -1)
    src[axis] = slice(1, None)
    out[tuple(dst)] = vals[tuple(src)]
    last = [slice(None)] * nd
    last[axis] = -1
    if domain.is_sphere:
        first = [slice(None)] * nd
        first[axis] = 0
        first[0] = slice(None, None, -1)
        out[tuple(last)] = vals[tuple(first)]
    else:
        out[tuple(last)] = 0
    return out


@lru_cache(maxsize=None)
def _coboundary_plan(p: int):
    """(out_index, axis, sign, in_index) quadruples for degree p -> p + 1."""
    plan = []
    for r_idx, rmask in enumerate(MASKS_BY_DEGREE[p + 1]):
        axes = mask_axes(rmask)
        for pos, i in enumerate(axes):
            sub = rmask & ~(1 << (i - 1))
            plan.append((r_idx, i, -1 if pos & 1 else 1, MASKS_BY_DEGREE[p].index(sub)))
    return tuple(plan)


def coboundary(f: Cochain) -> Cochain:
    """Forward-difference exterior derivative; preserves the copy flag.

    The top degree has no room to grow: a 4-form maps to the zero 4-form.
    """
    if f.degree == 4:
        return Cochain.zeros(f.domain, 4, f.copy)
    out = Cochain.zeros(f.domain, f.degree + 1, f.copy)
    for r_idx, axis, sign, s_idx in _coboundary_plan(f.degree):
        comp = f.values[..., s_idx, :, :]
        out.values[..., r_idx, :, :] += sign * (
            shift_plus(f.domain, comp, axis) - comp
        )
    return out


@lru_cache(maxsize=None)
def _cup_plan(p: int, q: int):
    """(out_index, p_axes, sign, f_index, g_index) for a (p, q) cup product."""
    plan = []
    for r_idx, rmask in enumerate(MASKS_BY_DEGREE[p + q]):
        for pmask in MASKS_BY_DEGREE[p]:
            if pmask & ~rmask:
                continue
            qmask = rmask & ~pmask
            plan.append(
                (
                    r_idx,
                    mask_axes(pmask),
                    cup_sign(pmask, qmask),
                    MASKS_BY_DEGREE[p].index(pmask),
                    MASKS_BY_DEGREE[q].index(qmask),
                )
            )
    return tuple(plan)


def cup(f: Cochain, g: Cochain) -> Cochain:
    """Degree-adding product; the right factor is read shifted across the
    left factor's direction axes, coefficients multiply as matrices."""
    if f.domain != g.domain:
        raise ValueError("forms live on different domains")
    if f.copy != g.copy:
        raise ValueError("cup product needs both forms on the same copy")
    if f.degree + g.degree > 4:
        raise ValueError(f"degree overflow: {f.degree} + {g.degree} > 4")
    out = Cochain.zeros(f.domain, f.degree + g.degree, f.copy)
    for r_idx, p_axes, sign, f_idx, g_idx in _cup_plan(f.degree, g.degree):
        gcomp = g.values[..., g_idx, :, :]
        for axis in p_axes:
            gcomp = shift_plus(g.domain, gcomp, axis)
        out.values[..., r_idx, :, :] += sign * mat_mul(f.values[..., f_idx, :, :], gcomp)
    return out


@lru_cache(maxsize=None)
def star_plan(p: int):
    """(out_index, sign, in_index) for degree p -> 4 - p: the signed
    permutation of star, and at p = 2 of the dual on the solver's pair planes."""
    plan = []
    for d_idx, pmask in enumerate(MASKS_BY_DEGREE[p]):
        comp = FULL_MASK ^ pmask
        plan.append((MASKS_BY_DEGREE[4 - p].index(comp), PERM_SIGN[pmask], d_idx))
    return tuple(plan)


def star(f: Cochain) -> Cochain:
    """Component transfer to the complementary direction set with the
    interleave-permutation sign; lands on the other copy."""
    out = Cochain.zeros(f.domain, 4 - f.degree, f.copy ^ 1)
    for o_idx, sign, i_idx in star_plan(f.degree):
        out.values[..., o_idx, :, :] = sign * f.values[..., i_idx, :, :]
    return out


def copy_swap(f: Cochain) -> Cochain:
    """Identify the two copies componentwise (an involution)."""
    return Cochain(f.domain, f.degree, f.values.copy(order="K"), f.copy ^ 1)


def dual(f: Cochain) -> Cochain:
    """copy_swap(star(f)): the degree-complementing map staying on one copy."""
    return copy_swap(star(f))


def codifferential(f: Cochain) -> Cochain:
    """Adjoint of the coboundary; lowers the degree by one.

    (-1)^p star^-1 d star with star^-1 = (-1)^{q(4-q)} star at q = 5 - p is
    -star d star in every degree, since p + (5 - p)(p - 1) is always odd.
    """
    if f.degree < 1:
        raise ValueError("codifferential needs degree >= 1")
    out = star(coboundary(star(f)))
    return out.like(-out.values)


def inner_product(f: Cochain, g: Cochain) -> complex:
    """tr sum_k sum_P f^P_k (g^P_k)^H over interior cells, both charts."""
    if f.domain != g.domain or f.degree != g.degree or f.copy != g.copy:
        raise ValueError("inner product needs matching domain, degree and copy")
    sl = f.domain.interior
    return complex(np.sum(f.values[sl] * np.conj(g.values[sl])))


def norm_sq(f: Cochain) -> float:
    """(f, f); guaranteed finite, real and >= 0."""
    v = inner_product(f, f)
    if not np.isfinite(v):
        raise ArithmeticError(f"inner product not finite: {v}")
    scale = float(np.abs(v)) + 1.0
    if not abs(v.imag) <= 1e-10 * scale:
        raise ArithmeticError(f"inner product not real: {v}")
    return v.real


def norm(f: Cochain) -> float:
    return float(np.sqrt(norm_sq(f)))


def pair_boundaries(f: Cochain) -> Cochain:
    """Sum of coefficient * f over boundary_cell(cell), per stored (p+1)-cell.

    Scattered from boundary_arrays, so it never reads the shifts; zero on
    the block cells whose boundary leaves the halo.
    """
    row, col, coeff = boundary_arrays(f.domain, f.degree + 1)
    # the indices count (cell, direction) cell-major, so the sum goes into
    # a C-contiguous buffer: a reshape of entry-major values is a copy
    out = np.zeros(Cochain.shape(f.domain, f.degree + 1), dtype=np.complex128)
    np.add.at(out.reshape(-1, 2, 2), row, coeff[:, None, None] * f.values.reshape(-1, 2, 2)[col])
    return Cochain(f.domain, f.degree + 1, out, f.copy)


def green_boundary_term(phi: Cochain, omega: Cochain) -> complex:
    """Chain pairing term of the discrete Green formula.

    For a (p-1)-form phi and p-form omega this equals
    (d phi, omega) - (phi, codifferential(omega)) exactly.  It is NOT a
    boundary flux: the codifferential reads forward neighbors like the
    coboundary, so the adjointness defect it measures is spread over the
    support and stays O(1) for generic forms even on the closed sphere.
    Assembled from the chain boundaries (pair_boundaries) of phi and of
    star(omega^H), each traced against its star partner over the interior,
    independent of the coboundary and codifferential it checks.
    """
    p = omega.degree
    if phi.degree != p - 1:
        raise ValueError("degrees must be p - 1 and p")
    if phi.domain != omega.domain:
        raise ValueError("forms live on different domains")
    if phi.copy != BASE or omega.copy != BASE:
        raise ValueError("the pairing is assembled over base-copy diagonal chains")
    star_omega_conj = star(conj_transpose_form(omega))
    sl = phi.domain.interior

    def traced(lower, upper, q):
        # sum over the interior of sign * tr(lower^P upper^{P^c}), P of degree q
        return sum(
            sign * np.sum(lower[..., i_idx, :, :] * upper[..., o_idx, :, :].swapaxes(-1, -2))
            for o_idx, sign, i_idx in star_plan(q)
        )

    total = traced(pair_boundaries(phi).values[sl], star_omega_conj.values[sl], p)
    sgn = -1 if (p - 1) % 2 else 1
    total += sgn * traced(phi.values[sl], pair_boundaries(star_omega_conj).values[sl], p - 1)
    return complex(total)

"""Discrete exterior calculus on the double complex.

Component conventions (direction sets written as ascending axis tuples):

  coboundary   (df)^R_k   = sum_{i in R} (-1)^{#(R before i)} (f^{R\\i}_{tau_i k} - f^{R\\i}_k)
  cup          (f u g)^R_k = sum_{P disjoint-union Q = R, |P| = p}
                             cup_sign(P, Q) * f^P_k  g^Q_{k + 1_P}
  star         (*f)^{P^c}_k = perm_sign(P) * f^P_k,   copy flag toggled
  copy_swap    identical components, copy flag toggled
  codifferential on a p-form: (-1)^p * star_inverse(coboundary(star(f)))

Coefficients multiply as matrices in operand order.  On the block, reads
one past the stored halo yield zero; identities are therefore asserted on
interior cells (the inner product already restricts to 1 <= k_i <= N_i),
and exactly everywhere for forms vanishing near the boundary.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cochain import Cochain, conj_transpose_form, interior
from .complex4 import (
    BASE,
    FULL_MASK,
    MASKS_BY_DEGREE,
    PERM_SIGN,
    Chain,
    Domain,
    boundary_cell,
    build_Vp,
    cup_sign,
    degree,
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


def shift_minus(domain: Domain, vals: np.ndarray, axis: int) -> np.ndarray:
    """Gather values at sigma_axis(k); mirror image of shift_plus."""
    nd = vals.ndim
    out = np.empty_like(vals)
    dst = [slice(None)] * nd
    src = [slice(None)] * nd
    dst[axis] = slice(1, None)
    src[axis] = slice(0, -1)
    out[tuple(dst)] = vals[tuple(src)]
    first = [slice(None)] * nd
    first[axis] = 0
    if domain.is_sphere:
        last = [slice(None)] * nd
        last[axis] = -1
        last[0] = slice(None, None, -1)
        out[tuple(first)] = vals[tuple(last)]
    else:
        out[tuple(first)] = 0
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
        out.values[..., r_idx, :, :] += sign * (f.values[..., f_idx, :, :] @ gcomp)
    return out


@lru_cache(maxsize=None)
def _star_plan(p: int):
    """(out_index, sign, in_index) for degree p -> 4 - p."""
    plan = []
    for d_idx, pmask in enumerate(MASKS_BY_DEGREE[p]):
        comp = FULL_MASK ^ pmask
        plan.append((MASKS_BY_DEGREE[4 - p].index(comp), PERM_SIGN[pmask], d_idx))
    return tuple(plan)


def star(f: Cochain) -> Cochain:
    """Component transfer to the complementary direction set with the
    interleave-permutation sign; lands on the other copy."""
    out = Cochain.zeros(f.domain, 4 - f.degree, f.copy ^ 1)
    for o_idx, sign, i_idx in _star_plan(f.degree):
        out.values[..., o_idx, :, :] = sign * f.values[..., i_idx, :, :]
    return out


def star_inverse(f: Cochain) -> Cochain:
    """Inverse of star at the degree of its argument: (-1)^{p(4-p)} star."""
    p = f.degree
    out = star(f)
    if (p * (4 - p)) % 2:
        out.values = -out.values
    return out


def copy_swap(f: Cochain) -> Cochain:
    """Identify the two copies componentwise (an involution)."""
    return Cochain(f.domain, f.degree, f.values.copy(), f.copy ^ 1)


def dual(f: Cochain) -> Cochain:
    """copy_swap(star(f)): the degree-complementing map staying on one copy."""
    return copy_swap(star(f))


def codifferential(f: Cochain) -> Cochain:
    """Adjoint of the coboundary; lowers the degree by one."""
    if f.degree < 1:
        raise ValueError("codifferential needs degree >= 1")
    sign = -1 if f.degree % 2 else 1
    out = star_inverse(coboundary(star(f)))
    out.values *= sign
    return out


def inner_product(f: Cochain, g: Cochain) -> complex:
    """tr sum_k sum_P f^P_k (g^P_k)^H over interior cells, both charts."""
    if f.domain != g.domain or f.degree != g.degree or f.copy != g.copy:
        raise ValueError("inner product needs matching domain, degree and copy")
    sl = interior(f.domain)
    return complex(np.sum(f.values[sl] * np.conj(g.values[sl])))


def norm_sq(f: Cochain) -> float:
    """(f, f); guaranteed real and >= 0."""
    v = inner_product(f, f)
    scale = float(np.abs(v)) + 1.0
    if not abs(v.imag) <= 1e-10 * scale:
        raise ArithmeticError(f"inner product not real: {v}")
    return v.real


def norm(f: Cochain) -> float:
    return float(np.sqrt(norm_sq(f)))


def pair_chain(chain: Chain, f: Cochain):
    """Pairing of a sparse chain against a form: sum of coeff * component."""
    out = np.zeros((2, 2), dtype=np.complex128)
    for cell, coeff in chain:
        if cell.copy != f.copy or degree(cell.mask) != f.degree:
            continue
        out += coeff * f.get(cell.chart, cell.k, cell.mask)
    return out


@lru_cache(maxsize=None)
def _diagonal_chain(domain: Domain, p: int):
    return tuple(build_Vp(domain, p))


def green_boundary_term(phi: Cochain, omega: Cochain) -> complex:
    """Chain pairing term of the discrete Green formula.

    For a (p-1)-form phi and p-form omega this equals
    (d phi, omega) - (phi, codifferential(omega)) exactly.  It is NOT a
    boundary flux: the codifferential reads forward neighbors like the
    coboundary, so the adjointness defect it measures is spread over the
    support and stays O(1) for generic forms even on the closed sphere.
    Assembled directly from chain boundaries of the degree-p and
    degree-(p-1) diagonal chains, independent of the vectorized operators.
    """
    p = omega.degree
    if phi.degree != p - 1:
        raise ValueError("degrees must be p - 1 and p")
    if phi.domain != omega.domain:
        raise ValueError("forms live on different domains")
    if phi.copy != BASE or omega.copy != BASE:
        raise ValueError("the pairing is assembled over base-copy diagonal chains")
    star_omega_conj = star(conj_transpose_form(omega))
    total = 0.0 + 0.0j
    for cell, tcell, sign in _diagonal_chain(phi.domain, p):
        m1 = pair_chain(boundary_cell(phi.domain, cell), phi)
        if not m1.any():
            continue
        m2 = sign * star_omega_conj.get(tcell.chart, tcell.k, tcell.mask)
        total += np.trace(m1 @ m2)
    sgn = -1 if (p - 1) % 2 else 1
    for cell, tcell, sign in _diagonal_chain(phi.domain, p - 1):
        m2 = sign * pair_chain(boundary_cell(phi.domain, tcell), star_omega_conj)
        if not m2.any():
            continue
        m1 = phi.get(cell.chart, cell.k, cell.mask)
        total += sgn * np.trace(m1 @ m2)
    return complex(total)

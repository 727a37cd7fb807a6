"""Tests for coboundary, cup, star, codifferential, inner product, Green formula."""

import json

import numpy as np
import pytest

from oracles import (
    cup_form_oracle,
    gather_by_resolve,
    green_boundary_term_oracle,
    interior_cells,
    pair_boundaries_by_scatter,
    pair_chain,
    parity_sign,
    stored_cells,
)
from ymdec import algebra as alg
from ymdec import calculus as ca
from ymdec import cochain as co
from ymdec import gauge as ga
from ymdec.complex4 import (
    BASE,
    CHART_V,
    FULL_MASK,
    MASKS_BY_DEGREE,
    TILDE,
    Cell,
    Domain,
    OutOfDomain,
    axes_mask,
    boundary_cell,
    cup_sign,
    mask_axes,
)

SPHERE = Domain((2, 2, 2, 2), "sphere")
BLOCK = Domain((3, 3, 3, 3), "block")
# non-cubic boxes: every axis has its own size, so a swapped axis shows
SPHERE_2342 = Domain((2, 3, 4, 2), "sphere")
BLOCK_2342 = Domain((2, 3, 4, 2), "block")
# (domains, ids) of the invariant tests that also run on the non-cubic boxes
ALL_DOMAINS = ([BLOCK, SPHERE, SPHERE_2342, BLOCK_2342], ["block", "sphere", "sphere-2342", "block-2342"])


def rand(domain, p, seed, copy=BASE):
    return co.random_form(domain, p, seed=seed, copy=copy)


def form_defect(f, g):
    return float(np.abs(f.values - g.values).max())


class TestStar:
    def test_one_form_table(self):
        # *e^1 = +e~^{234}, *e^2 = -e~^{134}, *e^3 = +e~^{124}, *e^4 = -e~^{123}
        signs = {1: 1, 2: -1, 3: 1, 4: -1}
        m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        for i, sgn in signs.items():
            f = co.Cochain.zeros(SPHERE, 1)
            f.set(CHART_V, (1, 1, 1, 1), axes_mask([i]), m)
            sf = ca.star(f)
            assert sf.copy == TILDE
            comp = FULL_MASK ^ axes_mask([i])
            np.testing.assert_array_equal(sf.get(CHART_V, (1, 1, 1, 1), comp), sgn * m)
            # everything else zero
            sf.set(CHART_V, (1, 1, 1, 1), comp, np.zeros((2, 2)))
            assert np.abs(sf.values).max() == 0

    def test_three_form_table_from_mirror(self):
        # *e~^{123} = e^4, *e~^{124} = -e^3, *e~^{134} = e^2, *e~^{234} = -e^1
        table = {(1, 2, 3): (4, 1), (1, 2, 4): (3, -1), (1, 3, 4): (2, 1), (2, 3, 4): (1, -1)}
        m = np.array([[0.0, 1j], [2.0, 0.0]])
        for axes, (out_axis, sgn) in table.items():
            f = co.Cochain.zeros(SPHERE, 3, copy=TILDE)
            f.set(CHART_V, (2, 1, 2, 1), axes_mask(axes), m)
            sf = ca.star(f)
            assert sf.copy == BASE
            np.testing.assert_array_equal(
                sf.get(CHART_V, (2, 1, 2, 1), axes_mask([out_axis])), sgn * m
            )

    def test_two_form_expansion_signs(self):
        # *f = f^{12} e~^{34} - f^{13} e~^{24} + f^{14} e~^{23}
        #      + f^{23} e~^{14} - f^{24} e~^{13} + f^{34} e~^{12}
        signs = {(1, 2): 1, (1, 3): -1, (1, 4): 1, (2, 3): 1, (2, 4): -1, (3, 4): 1}
        f = rand(SPHERE, 2, seed=0)
        sf = ca.star(f)
        for axes, sgn in signs.items():
            comp = FULL_MASK ^ axes_mask(axes)
            for chart, k in interior_cells(SPHERE):
                np.testing.assert_array_equal(
                    sf.get(chart, k, comp), sgn * f.get(chart, k, axes_mask(axes))
                )

    @pytest.mark.parametrize("p", range(5))
    def test_plan_is_the_signed_complement(self, p):
        # one (out, sign, in) per direction set P of degree p: out is P's
        # complement and sign the parity of the interleave P + P^c, counted
        # by inversions, independent of complex4's sign tables
        want = tuple(
            (MASKS_BY_DEGREE[4 - p].index(FULL_MASK ^ m), parity_sign(mask_axes(m) + mask_axes(FULL_MASK ^ m)), i)
            for i, m in enumerate(MASKS_BY_DEGREE[p])
        )
        assert ca.star_plan(p) == want

    @pytest.mark.parametrize("domain", ALL_DOMAINS[0], ids=ALL_DOMAINS[1])
    @pytest.mark.parametrize("p", range(5))
    def test_star_squared(self, domain, p):
        f = rand(domain, p, seed=p)
        ss = ca.star(ca.star(f))
        assert ss.copy == f.copy
        want = (-1) ** (p * (4 - p))
        assert form_defect(ss, co.scale(f, want)) == 0.0


class TestCopySwap:
    def test_involution(self):
        f = rand(SPHERE, 2, seed=1)
        g = ca.copy_swap(ca.copy_swap(f))
        assert g.copy == f.copy
        assert form_defect(f, g) == 0.0

    def test_commutes_with_star_and_coboundary(self):
        f = rand(SPHERE, 1, seed=2)
        assert form_defect(ca.copy_swap(ca.star(f)), ca.star(ca.copy_swap(f))) == 0.0
        assert form_defect(
            ca.copy_swap(ca.coboundary(f)), ca.coboundary(ca.copy_swap(f))
        ) == 0.0

    def test_distributes_over_cup(self):
        f, g = rand(SPHERE, 1, seed=3), rand(SPHERE, 1, seed=4)
        lhs = ca.copy_swap(ca.cup(f, g))
        rhs = ca.cup(ca.copy_swap(f), ca.copy_swap(g))
        assert form_defect(lhs, rhs) == 0.0

    def test_dual_is_involution_on_two_forms(self):
        f = rand(SPHERE, 2, seed=5)
        assert form_defect(ca.dual(ca.dual(f)), f) == 0.0
        assert ca.dual(f).copy == f.copy


class TestCoboundary:
    def test_degree0_forward_difference(self):
        h = rand(SPHERE, 0, seed=6)
        dh = ca.coboundary(h)
        for chart, k in interior_cells(SPHERE):
            for i in (1, 2, 3, 4):
                want = h.get(chart, tuple(np.add(k, np.eye(4, dtype=int)[i - 1])), 0) - h.get(chart, k, 0)
                np.testing.assert_allclose(dh.get(chart, k, axes_mask([i])), want)

    def test_pairing_against_chain_boundary(self):
        # (df)^R_k must equal the pairing of f against the boundary chain of
        # the (k, R) cell: the defining duality, evaluated via sparse chains.
        for domain in (SPHERE, BLOCK):
            for p in range(4):
                f = rand(domain, p, seed=20 + p)
                df = ca.coboundary(f)
                for chart, k in interior_cells(domain):
                    for rmask in MASKS_BY_DEGREE[p + 1]:
                        chain = boundary_cell(domain, Cell(chart, k, rmask))
                        want = pair_chain(chain, f)
                        np.testing.assert_allclose(
                            df.get(chart, k, rmask), want, atol=1e-13
                        )

    @pytest.mark.parametrize("domain", [SPHERE_2342, BLOCK_2342], ids=["sphere-2342", "block-2342"])
    def test_pair_boundaries_matches_pair_chain(self, domain):
        # every stored cell, halo included: the pairing of its boundary chain,
        # or zero where that boundary leaves the block
        for p in range(4):
            f = rand(domain, p, seed=30 + p)
            got = ca.pair_boundaries(f)
            assert (got.degree, got.copy) == (p + 1, f.copy)
            for chart, k in stored_cells(domain):
                for rmask in MASKS_BY_DEGREE[p + 1]:
                    try:
                        want = pair_chain(boundary_cell(domain, Cell(chart, k, rmask)), f)
                    except OutOfDomain:
                        want = 0
                    np.testing.assert_allclose(got.get(chart, k, rmask), want, rtol=0, atol=1e-13)

    def test_worked_two_cell_pairing(self):
        f = rand(SPHERE, 1, seed=7)
        df = ca.coboundary(f)
        k = (1, 2, 1, 2)
        cell = Cell(CHART_V, k, axes_mask([2, 4]))
        want = pair_chain(boundary_cell(SPHERE, cell), f)
        np.testing.assert_allclose(df.get(CHART_V, k, axes_mask([2, 4])), want)

    def test_top_degree_maps_to_zero(self):
        f = rand(SPHERE, 4, seed=8)
        assert np.abs(ca.coboundary(f).values).max() == 0.0

    @pytest.mark.parametrize(
        "domain,p",
        [(SPHERE, p) for p in range(4)] + [(SPHERE_2342, p) for p in range(4)],
        ids=[str(p) for p in range(4)] + [f"2342-{p}" for p in range(4)],
    )
    def test_coboundary_squared_sphere(self, domain, p):
        f = rand(domain, p, seed=30 + p)
        dd = ca.coboundary(ca.coboundary(f))
        assert np.abs(dd.values).max() <= 1e-13


class TestCup:
    def test_zero_forms_multiply_pointwise(self):
        h, g = rand(SPHERE, 0, seed=9), rand(SPHERE, 0, seed=10)
        hg = ca.cup(h, g)
        for chart, k in interior_cells(SPHERE):
            np.testing.assert_allclose(
                hg.get(chart, k, 0), h.get(chart, k, 0) @ g.get(chart, k, 0)
            )

    def test_one_form_square_components(self):
        a = rand(SPHERE, 1, seed=11)
        aa = ca.cup(a, a)
        for chart, k in interior_cells(SPHERE):
            for i, j in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]:
                ti = tuple(np.add(k, np.eye(4, dtype=int)[i - 1]))
                tj = tuple(np.add(k, np.eye(4, dtype=int)[j - 1]))
                want = a.get(chart, k, axes_mask([i])) @ a.get(chart, ti, axes_mask([j])) - a.get(
                    chart, k, axes_mask([j])
                ) @ a.get(chart, tj, axes_mask([i]))
                np.testing.assert_allclose(aa.get(chart, k, axes_mask([i, j])), want)

    def test_parallel_edges_contribute_nothing(self):
        a = co.Cochain.zeros(SPHERE, 1)
        b = co.Cochain.zeros(SPHERE, 1)
        rng = np.random.default_rng(12)
        a.values[..., 0, :, :] = rng.normal(size=(2, 2, 2, 2, 2, 2, 2))
        b.values[..., 0, :, :] = rng.normal(size=(2, 2, 2, 2, 2, 2, 2))
        assert np.abs(ca.cup(a, b).values).max() == 0.0

    def test_against_recursion_oracle(self):
        # sparse padded forms on the block vs the 1-D product recursion
        rng = np.random.default_rng(13)
        for p, q in [(0, 0), (0, 2), (1, 1), (1, 2), (2, 2), (1, 3), (0, 4)]:
            fterms, gterms = {}, {}
            f = co.Cochain.zeros(BLOCK, p)
            g = co.Cochain.zeros(BLOCK, q)
            for terms, form, deg in ((fterms, f, p), (gterms, g, q)):
                for _ in range(5):
                    k = tuple(rng.integers(1, 3, size=4))  # stays off the top shell
                    mask = MASKS_BY_DEGREE[deg][rng.integers(len(MASKS_BY_DEGREE[deg]))]
                    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                    terms[(k, frozenset(mask_axes(mask)))] = m
                    form.set(CHART_V, k, mask, m)
            want = cup_form_oracle(fterms, gterms)
            got = ca.cup(f, g)
            for _, k in stored_cells(BLOCK):
                for mask in MASKS_BY_DEGREE[p + q]:
                    expect = want.get((k, frozenset(mask_axes(mask))), np.zeros((2, 2)))
                    np.testing.assert_allclose(
                        got.get(CHART_V, k, mask), expect, atol=1e-13
                    )

    @pytest.mark.parametrize("domain", [SPHERE_2342, BLOCK_2342], ids=["sphere-2342", "block-2342"])
    def test_dense_forms_against_per_cell_reference(self, domain):
        # g is read at k + 1_P through Cochain.get, so the sphere gluing is
        # Domain.resolve's, not shift_plus's; past the block halo g reads zero
        for p in range(5):
            for q in range(5 - p):
                f, g = rand(domain, p, seed=30 + p), rand(domain, q, seed=40 + q)
                fg = ca.cup(f, g)
                got, want = [], []
                for chart, k in stored_cells(domain):
                    for rmask in MASKS_BY_DEGREE[p + q]:
                        total = np.zeros((2, 2), dtype=complex)
                        for pmask in MASKS_BY_DEGREE[p]:
                            if pmask & ~rmask:
                                continue
                            qmask = rmask & ~pmask
                            k_plus = tuple(n + (pmask >> i & 1) for i, n in enumerate(k))
                            try:
                                right = g.get(chart, k_plus, qmask)
                            except OutOfDomain:
                                continue
                            total += cup_sign(pmask, qmask) * (f.get(chart, k, pmask) @ right)
                        got.append(fg.get(chart, k, rmask))
                        want.append(total)
                np.testing.assert_allclose(np.array(got), np.array(want), rtol=0, atol=1e-13)

    def test_degree_overflow_raises(self):
        with pytest.raises(ValueError):
            ca.cup(rand(SPHERE, 2, seed=1), rand(SPHERE, 3, seed=2))

    def test_copy_mismatch_raises(self):
        with pytest.raises(ValueError):
            ca.cup(rand(SPHERE, 1, seed=1), rand(SPHERE, 1, seed=2, copy=TILDE))

    def test_associativity_observed(self):
        for degs, seed in [((1, 1, 1), 14), ((0, 1, 2), 15), ((1, 0, 2), 16)]:
            f, g, h = (rand(SPHERE, p, seed=seed + i) for i, p in enumerate(degs))
            lhs = ca.cup(ca.cup(f, g), h)
            rhs = ca.cup(f, ca.cup(g, h))
            assert form_defect(lhs, rhs) <= 1e-12


class TestLeibniz:
    PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (1, 2), (2, 1), (0, 3), (3, 0)]

    @pytest.mark.parametrize(
        "domain,p,q",
        [(SPHERE, p, q) for p, q in PAIRS] + [(SPHERE_2342, p, q) for p, q in PAIRS],
        ids=[f"{p}-{q}" for p, q in PAIRS] + [f"2342-{p}-{q}" for p, q in PAIRS],
    )
    def test_sphere_exact(self, domain, p, q):
        f, g = rand(domain, p, seed=40 + p), rand(domain, q, seed=50 + q)
        lhs = ca.coboundary(ca.cup(f, g))
        rhs = co.add(
            ca.cup(ca.coboundary(f), g),
            co.scale(ca.cup(f, ca.coboundary(g)), (-1) ** p),
        )
        assert form_defect(lhs, rhs) <= 1e-12

    @pytest.mark.parametrize("p,q", PAIRS)
    def test_block_padded_exact(self, p, q):
        f = co.zero_pad(rand(BLOCK, p, seed=60 + p))
        g = co.zero_pad(rand(BLOCK, q, seed=70 + q))
        lhs = ca.coboundary(ca.cup(f, g))
        rhs = co.add(
            ca.cup(ca.coboundary(f), g),
            co.scale(ca.cup(f, ca.coboundary(g)), (-1) ** p),
        )
        assert form_defect(lhs, rhs) <= 1e-12

    def test_block_unpadded_full_array(self):
        # the shift convention zero-extends fields past the halo, and the
        # identity is multilinear in the field values, so it holds on the
        # whole stored range even without padding
        f, g = rand(BLOCK, 1, seed=80), rand(BLOCK, 1, seed=81)
        lhs = ca.coboundary(ca.cup(f, g))
        rhs = co.add(
            ca.cup(ca.coboundary(f), g), co.scale(ca.cup(f, ca.coboundary(g)), -1)
        )
        assert np.abs(lhs.values - rhs.values).max() <= 1e-13


def _abelian_charge(f, g):
    """sum over the interior cells of tr(df u dg), both charts."""
    v = ca.cup(ca.coboundary(f), ca.coboundary(g)).values[f.domain.interior]
    return complex(np.trace(v, axis1=-2, axis2=-1).sum())


def _charge_pairs(domain, seed):
    """Two random 1-forms, and a random connection at amplitude 1 with itself."""
    a = co.random_connection(domain, 1.0, seed=seed)
    return ((rand(domain, 1, seed=seed), rand(domain, 1, seed=seed + 10)), (a, a))


class TestAbelianCharge:
    """The abelian part of the charge, sum tr(df u dg) over the 4-cells, is
    exact on the closed sphere: d(f u dg) = df u dg, and a coboundary sums
    to zero over a complex without boundary.  On the block the sum is the
    boundary term."""

    @pytest.mark.parametrize(
        "sizes", [(2, 2, 2, 2), (3, 3, 3, 3), (2, 3, 4, 2), (4, 4, 4, 2)], ids=["2", "3", "2342", "4442"]
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_vanishes_on_the_sphere(self, sizes, seed):
        # measured 2e-16 to 6.1e-14
        for f, g in _charge_pairs(Domain(sizes, "sphere"), seed):
            assert abs(_abelian_charge(f, g)) <= 1e-12

    @pytest.mark.parametrize("sizes", [(2, 2, 2, 2), (2, 3, 4, 2)], ids=["2", "2342"])
    @pytest.mark.parametrize("seed", range(5))
    def test_is_a_boundary_term_on_the_block(self, sizes, seed):
        # measured 2.1 to 96
        for f, g in _charge_pairs(Domain(sizes, "block"), seed):
            assert abs(_abelian_charge(f, g)) > 1


class TestCodifferential:
    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            ca.codifferential(rand(SPHERE, 0, seed=1))

    @pytest.mark.parametrize("p", range(1, 5))
    def test_adjoint_defect_equals_boundary_pairing(self, p):
        # delta is NOT the plain adjoint of d, even on the closed sphere: the
        # star is pointwise and d reads forward on both copies, so * d * reads
        # forward where the adjoint needs backward.  The defect is exactly the
        # Green pairing term, which is therefore not boundary-supported.
        phi = rand(SPHERE, p - 1, seed=90 + p)
        omega = rand(SPHERE, p, seed=95 + p)
        lhs = ca.inner_product(ca.coboundary(phi), omega)
        rhs = ca.inner_product(phi, ca.codifferential(omega))
        bt = ca.green_boundary_term(phi, omega)
        assert abs(lhs - rhs - bt) <= 1e-10 * (1 + abs(lhs))
        assert abs(bt) > 1e-3  # generic forms: the defect is O(1), not zero

    def test_laplacian_matches_matrix_oracle(self):
        # assemble coboundary/star matrices from chain boundaries and the
        # sign table, then compare delta d + d delta on a random 1-form
        domain = SPHERE
        cells = interior_cells(domain)
        cell_pos = {ck: n for n, ck in enumerate(cells)}

        def flat(p):
            masks = MASKS_BY_DEGREE[p]
            return {(ck, m): len(masks) * cell_pos[ck] + i
                    for ck in cells for i, m in enumerate(masks)}

        def d_matrix(p):
            rows, cols = flat(p + 1), flat(p)
            mat = np.zeros((len(rows), len(cols)))
            for (chart, k) in cells:
                for rmask in MASKS_BY_DEGREE[p + 1]:
                    r = rows[((chart, k), rmask)]
                    for cell, coeff in boundary_cell(domain, Cell(chart, k, rmask)).items():
                        mat[r, cols[((cell.chart, cell.k), cell.mask)]] += coeff
            return mat

        def s_matrix(p):
            rows, cols = flat(4 - p), flat(p)
            mat = np.zeros((len(rows), len(cols)))
            from ymdec.complex4 import PERM_SIGN

            for ck in cells:
                for m in MASKS_BY_DEGREE[p]:
                    mat[rows[(ck, FULL_MASK ^ m)], cols[(ck, m)]] = PERM_SIGN[m]
            return mat

        def delta_matrix(p):
            sign = (-1) ** p
            r = 5 - p
            s_inv = (-1) ** (r * (4 - r)) * s_matrix(r)
            return sign * s_inv @ d_matrix(4 - p) @ s_matrix(p)

        lap = d_matrix(0) @ delta_matrix(1) + delta_matrix(2) @ d_matrix(1)

        f = rand(domain, 1, seed=99)
        got = co.add(
            ca.coboundary(ca.codifferential(f)), ca.codifferential(ca.coboundary(f))
        )
        vec = f.values.reshape(-1, 4)  # matrix entries carried independently
        want = (lap @ vec).reshape(f.values.shape)
        np.testing.assert_allclose(got.values, want, atol=1e-12)


class TestInnerProduct:
    def test_identity_zero_form_on_block(self):
        d = Domain((2, 2, 2, 2), "block")
        f = co.Cochain.zeros(d, 0)
        f.values[...] = np.eye(2)
        assert ca.inner_product(f, f) == pytest.approx(32.0)

    def test_zero_form(self):
        assert ca.inner_product(co.Cochain.zeros(SPHERE, 2), co.Cochain.zeros(SPHERE, 2)) == 0

    def test_norm_sq_nonnegative_real(self):
        f = rand(SPHERE, 3, seed=17)
        assert ca.norm_sq(f) >= 0

    def test_copy_mismatch_raises(self):
        with pytest.raises(ValueError):
            ca.inner_product(rand(SPHERE, 1, seed=1), rand(SPHERE, 1, seed=1, copy=TILDE))


class TestGreenFormula:
    @pytest.mark.parametrize("domain", ALL_DOMAINS[0], ids=ALL_DOMAINS[1])
    @pytest.mark.parametrize("p", range(1, 5))
    def test_identity(self, domain, p):
        phi = rand(domain, p - 1, seed=100 + p)
        omega = rand(domain, p, seed=110 + p)
        lhs = ca.inner_product(ca.coboundary(phi), omega)
        rhs = ca.inner_product(phi, ca.codifferential(omega))
        bt = ca.green_boundary_term(phi, omega)
        assert abs(lhs - rhs - bt) <= 1e-10 * (1 + abs(lhs) + abs(bt))

    @pytest.mark.parametrize(
        "domain",
        [SPHERE, Domain((2, 2, 2, 2), "block"), SPHERE_2342, BLOCK_2342],
        ids=["sphere", "block-2", "sphere-2342", "block-2342"],
    )
    @pytest.mark.parametrize("p", range(1, 5))
    def test_matches_chain_oracle(self, domain, p):
        phi = rand(domain, p - 1, seed=120 + p)
        omega = rand(domain, p, seed=130 + p)
        want = green_boundary_term_oracle(phi, omega)
        assert abs(ca.green_boundary_term(phi, omega) - want) <= 1e-12 * abs(want)

    def test_zero_forms_give_zero_term(self):
        phi = co.Cochain.zeros(BLOCK, 1)
        omega = co.Cochain.zeros(BLOCK, 2)
        assert ca.green_boundary_term(phi, omega) == 0

    def test_interior_support_block_identity_exact(self):
        # even for forms supported on a single deep-interior cell the pairing
        # term is nonzero (it measures the forward/backward shift mismatch of
        # delta, not a boundary flux); the identity itself is exact
        phi = co.Cochain.zeros(BLOCK, 1)
        omega = co.Cochain.zeros(BLOCK, 2)
        rng = np.random.default_rng(21)
        for mask in MASKS_BY_DEGREE[1]:
            phi.set(CHART_V, (2, 2, 2, 2), mask, rng.normal(size=(2, 2)))
        for mask in MASKS_BY_DEGREE[2]:
            omega.set(CHART_V, (2, 2, 2, 2), mask, rng.normal(size=(2, 2)))
        lhs = ca.inner_product(ca.coboundary(phi), omega)
        rhs = ca.inner_product(phi, ca.codifferential(omega))
        bt = ca.green_boundary_term(phi, omega)
        assert abs(lhs - rhs - bt) <= 1e-13
        assert abs(bt) > 1e-3


def _written_out_product(a, b):
    # the product as four written-out entries, in a's memory order
    out = np.empty_like(a, shape=np.broadcast_shapes(a.shape, b.shape))
    for i in range(2):
        for j in range(2):
            out[..., i, j] = a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j]
    return out


def _cup_by_signed_terms(f, g):
    # sign * product of each split R = P u Q, added in the order of R, then P
    out = co.Cochain.zeros(f.domain, f.degree + g.degree, f.copy).values
    for r_idx, rmask in enumerate(MASKS_BY_DEGREE[f.degree + g.degree]):
        for f_idx, pmask in enumerate(MASKS_BY_DEGREE[f.degree]):
            if pmask & ~rmask:
                continue
            qmask = rmask & ~pmask
            gcomp = g.values[..., MASKS_BY_DEGREE[g.degree].index(qmask), :, :]
            for axis in mask_axes(pmask):
                gcomp = ca.shift_plus(g.domain, gcomp, axis)
            out[..., r_idx, :, :] += cup_sign(pmask, qmask) * _written_out_product(f.values[..., f_idx, :, :], gcomp)
    return out


def _coboundary_by_signed_terms(f):
    out = co.Cochain.zeros(f.domain, f.degree + 1, f.copy).values
    for r_idx, rmask in enumerate(MASKS_BY_DEGREE[f.degree + 1]):
        for axis in mask_axes(rmask):
            comp = f.values[..., MASKS_BY_DEGREE[f.degree].index(rmask & ~axes_mask([axis])), :, :]
            sign = cup_sign(axes_mask([axis]), rmask & ~axes_mask([axis]))
            out[..., r_idx, :, :] += sign * (ca.shift_plus(f.domain, comp, axis) - comp)
    return out


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


class TestSignedTermsInPlace:
    # The operators add or subtract each term straight into its output plane
    # (star multiplies by its sign into its slot); sign * term summed in the
    # same order is the reference, bit for bit.  cup_form_oracle stays the
    # independent, tolerance-based check of the formulas.
    @pytest.mark.parametrize("domain", [SPHERE_2342, BLOCK_2342, BLOCK], ids=["sphere-2342", "block-2342", "block"])
    def test_operators_equal_the_signed_sums_bit_for_bit(self, domain):
        forms = [rand(domain, p, seed=60 + p) for p in range(5)]
        for f in forms:
            for g in forms[: 5 - f.degree]:
                assert np.array_equal(_bits(ca.cup(f, g).values), _bits(_cup_by_signed_terms(f, g)))
            if f.degree < 4:
                assert np.array_equal(_bits(ca.coboundary(f).values), _bits(_coboundary_by_signed_terms(f)))
            want = co.Cochain.zeros(domain, 4 - f.degree, TILDE).values
            for o_idx, sign, i_idx in ca.star_plan(f.degree):
                want[..., o_idx, :, :] = sign * f.values[..., i_idx, :, :]
            assert np.array_equal(_bits(ca.star(f).values), _bits(want))
        a = co.random_connection(domain, 0.5, seed=7)
        for omega in forms[:4]:
            sign = 1 if omega.degree % 2 else -1
            want = _coboundary_by_signed_terms(omega) + (
                _cup_by_signed_terms(a, omega) + sign * _cup_by_signed_terms(omega, a)
            )
            assert np.array_equal(_bits(ga.covariant_d(a, omega).values), _bits(want))


def _entry_major(f):
    return np.moveaxis(f.values, (-3, -2, -1), (0, 1, 2)).flags.c_contiguous


class TestPairBoundariesBitForBit:
    @pytest.mark.parametrize(
        "domain",
        [SPHERE_2342, BLOCK_2342, Domain((4, 4, 4, 4), "sphere"), Domain((4, 4, 4, 4), "block")],
        ids=["sphere-2342", "block-2342", "sphere-4444", "block-4444"],
    )
    def test_row_sums_match_the_scatter_add(self, domain):
        # each row's terms summed in order give the bits of np.add.at into
        # zeros: random forms, forms zero near the block boundary and forms
        # of zeros of either sign, so no zero sum takes the other sign
        rng = np.random.default_rng(31)
        for p in range(4):
            for copy in (BASE, TILDE):
                f = rand(domain, p, seed=32 + p, copy=copy)
                zeros = np.where(rng.random(f.values.shape + (2,)) < 0.5, 0.0, -0.0).view(np.complex128)
                for g in (f, co.zero_pad(f), f.like(zeros[..., 0])):
                    got, want = ca.pair_boundaries(g), pair_boundaries_by_scatter(g)
                    assert (got.degree, got.copy) == (want.degree, want.copy)
                    assert np.array_equal(_bits(got.values), _bits(want.values))


class TestEntryMajorLayout:
    @pytest.mark.parametrize("domain", [SPHERE_2342, BLOCK_2342], ids=["sphere-2342", "block-2342"])
    def test_every_result_is_entry_major(self, domain):
        # each (direction set, entry) of a form is one contiguous plane over the cells
        a = co.random_connection(domain, 0.5, seed=3)
        f = rand(domain, 2, seed=4)
        g = rand(domain, 1, seed=5)
        forms = {
            "zeros": co.Cochain.zeros(domain, 3),
            "random_form": f,
            "random_connection": a,
            "deserialize": co.deserialize(co.serialize(f)),
            "add": co.add(f, f),
            "sub": co.sub(f, f),
            "scale": co.scale(f, 2.0),
            "coboundary": ca.coboundary(f),
            "cup": ca.cup(g, f),
            "star": ca.star(f),
            "copy_swap": ca.copy_swap(f),
            "dual": ca.dual(f),
            "zero_pad": co.zero_pad(f),
            "curvature": ga.curvature(a),
            "pair_boundaries": ca.pair_boundaries(g),
            "covariant_d": ga.covariant_d(a, f),
            "gauge_transform": ga.gauge_transform(a, co.random_gauge(domain, seed=6)),
            "yang_mills_residual": ga.yang_mills_residual(a),
        }
        assert [name for name, h in forms.items() if not _entry_major(h)] == []
        # the 2x2 product keeps its operands' memory order: of two direction
        # planes, each entry of the product is one contiguous plane
        product = alg.mat_mul(f.values[..., 0, :, :], f.values[..., 5, :, :])
        assert np.moveaxis(product, (-2, -1), (0, 1)).flags.c_contiguous
        # a cell-major input is copied into the layout
        copied = f.like(np.ascontiguousarray(f.values))
        assert _entry_major(copied) and np.array_equal(copied.values, f.values)
        # the file order stays cell-major: the bytes of a cell-major reference
        doc = {
            "version": co.FILE_VERSION,
            "topology": domain.topology,
            "sizes": list(domain.sizes),
            "degree": 2,
            "copy": "base",
            "data": np.array(f.values, order="C").view(np.float64).reshape(-1, 4, 2).tolist(),
        }
        assert co.serialize(f) == json.dumps(doc).encode()

    @pytest.mark.parametrize("domain", [SPHERE_2342, BLOCK_2342], ids=["sphere-2342", "block-2342"])
    def test_draws_are_entry_major(self, domain, monkeypatch):
        # random_form draws into the layout, so the constructor keeps the
        # buffer it is handed; random_connection's C-order matrices are copied in
        handed = []
        init = co.Cochain.__init__

        def spy(self, domain, degree, values, copy=BASE):
            handed.append(values)
            init(self, domain, degree, values, copy)

        monkeypatch.setattr(co.Cochain, "__init__", spy)
        for p in range(5):
            for copy in (BASE, TILDE):
                f = rand(domain, p, seed=7 + p, copy=copy)
                assert _entry_major(f) and np.shares_memory(f.values, handed[-1])
        a = co.random_connection(domain, 0.5, seed=3)
        assert _entry_major(a) and not np.shares_memory(a.values, handed[-1])


class TestGatherTable:
    @pytest.mark.parametrize("topology", ["sphere", "block"])
    @pytest.mark.parametrize("sizes", [(2, 2, 2, 2), (2, 3, 4, 2), (3, 2, 4, 2)], ids=["2222", "2342", "3242"])
    def test_reproduces_the_shifts(self, topology, sizes):
        # the scalar gluing of Domain.resolve is the oracle of the array
        # gluing read off it once, Domain.step_copies: of shift_plus, which
        # applies them, and of the plane tables built from shift_plus
        domain = Domain(sizes, topology)
        shape = (domain.ncharts, *domain.extents)
        ncells = int(np.prod(shape))
        tau = np.stack([gather_by_resolve(domain, axis, +1) for axis in (1, 2, 3, 4)])
        sigma = np.stack([gather_by_resolve(domain, axis, -1) for axis in (1, 2, 3, 4)])
        # a contiguous operand, and the strided entry-major plane that
        # coboundary and cup pass
        for vals in (np.random.default_rng(5).normal(size=shape + (3,)),
                     co.random_form(domain, 2, seed=5).values[..., 3, :, :]):
            rows = vals.reshape(ncells, -1)
            flat = np.concatenate([rows, np.zeros_like(rows[:1])])
            for axis in (1, 2, 3, 4):
                # a read past the block halo gives zero: the oracle's index
                # ncells reads the zero row appended to the cells
                assert np.array_equal(ca.shift_plus(domain, vals, axis), flat[tau[axis - 1]][:-1].reshape(vals.shape))
        # the interior rows, from the oracle's walks over the cells; tau of an
        # interior cell is always stored
        position = {cell: n for n, cell in enumerate(stored_cells(domain))}
        rows = np.array([position[cell] for cell in interior_cells(domain)])
        assert (tau[:, rows] < ncells).all()
        # operands 4 tau + axis per pair (i, j)
        n = rows[:, None]
        i, j = ga.PAIR_I, ga.PAIR_J
        want = (4 * n + i, 4 * n + j, 4 * tau[i][:, rows].T + j, 4 * tau[j][:, rows].T + i)
        assert np.array_equal(ga.interior_gather(domain), np.stack(want))
        # sphere shifts are permutations of the stored cells, inverse to each other
        if domain.is_sphere:
            for axis in range(4):
                assert np.array_equal(sigma[axis][tau[axis][:-1]], np.arange(ncells))

    def test_cached_and_read_only(self):
        table = ga.interior_gather(SPHERE)
        assert ga.interior_gather(Domain((2, 2, 2, 2), "sphere")) is table
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0

"""Tests for curvature, gauge transformations, Bianchi, and self-duality."""

import numpy as np
import pytest

from oracles import abelian_connection, gather_by_resolve, interior_cells, scatter_by_component
from ymdec import algebra as alg
from ymdec import calculus as ca
from ymdec import cochain as co
from ymdec import gauge as ga
from ymdec import solver as so
from ymdec.cochain import ValidationError
from ymdec.complex4 import Domain, axes_mask

SPHERE = Domain((2, 2, 2, 2), "sphere")
BLOCK = Domain((3, 3, 3, 3), "block")
SPHERE_2342 = Domain((2, 3, 4, 2), "sphere")
BLOCK_2342 = Domain((2, 3, 4, 2), "block")
# both topologies, cubic and non-cubic; the cubic ids are the original ones
ALL_DOMAINS = pytest.mark.parametrize(
    "domain", [BLOCK, SPHERE, BLOCK_2342, SPHERE_2342], ids=["block", "sphere", "block-2342", "sphere-2342"]
)


def constant_connection(domain, vectors):
    """Connection with the same coefficient on every cell of each axis."""
    a = co.Cochain.zeros(domain, 1)
    for i, v in enumerate(vectors):
        a.values[..., i, :, :] = alg.embed_su2(np.asarray(v))
    return a


class TestCurvature:
    def test_zero_connection(self):
        assert np.abs(ga.curvature(co.Cochain.zeros(SPHERE, 1)).values).max() == 0

    def test_constant_connection_gives_commutators(self):
        vs = [(0.3, 0.0, 0.1), (0.0, -0.2, 0.4), (0.5, 0.5, 0.0), (-0.1, 0.2, 0.3)]
        a = constant_connection(SPHERE, vs)
        f = ga.curvature(a)
        mats = [alg.embed_su2(np.asarray(v)) for v in vs]
        for d, (i, j) in enumerate(ga.DIR_PAIRS):
            want = mats[i - 1] @ mats[j - 1] - mats[j - 1] @ mats[i - 1]
            np.testing.assert_allclose(
                f.values[..., d, :, :], np.broadcast_to(want, f.values[..., d, :, :].shape), atol=1e-15
            )

    def test_commuting_constant_connection_is_flat(self):
        vs = [(0, 0, 0.1), (0, 0, 0.7), (0, 0, -0.3), (0, 0, 2.0)]
        f = ga.curvature(constant_connection(SPHERE, vs))
        assert np.abs(f.values).max() <= 1e-16

    @ALL_DOMAINS
    def test_assembled_matches_component_stencil(self, domain):
        for seed in range(5):
            a = co.random_connection(domain, 0.8, seed=seed)
            f1 = ga.curvature(a)
            f2 = ga.curvature_components(a)
            assert np.abs(f1.values - f2.values).max() <= 1e-13

    def test_degree_check(self):
        with pytest.raises(ValueError):
            ga.curvature(co.Cochain.zeros(SPHERE, 2))

    @ALL_DOMAINS
    def test_component_stencil_rejects_non_su2_forms(self, domain):
        # the quaternion stencil reads only the su(2) part; it must not project
        with pytest.raises(ValidationError):
            ga.curvature_components(co.random_form(domain, 1, seed=40))
        a = co.random_connection(domain, 0.5, seed=41)
        a.values[..., 0, 0] += 1e-6  # a Hermitian trace part
        with pytest.raises(ValidationError):
            ga.curvature_components(a)
        with pytest.raises(ValueError):
            ga.curvature_components(co.Cochain.zeros(domain, 2))


def _interior_rows(domain):
    """Storage indices of the interior cells, 1 <= k_i <= N_i."""
    rows = np.zeros((domain.ncharts, *domain.extents), dtype=bool)
    rows[domain.interior] = True
    return np.flatnonzero(rows)


def _planes(domain, vecs):
    """The stacked operand planes (3, 4, nrows, 6) of coefficient vectors."""
    return 0.5 * ga.pair_operands(ga.interior_gather(domain), vecs)


class TestPlaneLayout:
    @pytest.mark.parametrize(
        "domain", [SPHERE, SPHERE_2342, BLOCK_2342, Domain((4, 4, 4, 4), "block")],
        ids=["sphere", "sphere-2342", "block-2342", "block-4444"],
    )
    def test_operands_are_contiguous_plain_gathers(self, domain):
        # reference: per pair (i, j), plain fancy indexing through the tau of Domain.resolve
        vecs = np.random.default_rng(45).uniform(-0.5, 0.5, size=(domain.ncharts, *domain.extents, 4, 3))
        a = np.zeros((3, domain.ncells + 1, 4))
        a[:, :-1] = np.moveaxis(vecs.reshape(-1, 4, 3), -1, 0)
        tau = [gather_by_resolve(domain, axis, +1) for axis in (1, 2, 3, 4)]
        want = [np.stack(planes, axis=-1) for planes in zip(*(
            (a[:, :, i - 1], a[:, :, j - 1], a[:, tau[i - 1], j - 1], a[:, tau[j - 1], i - 1])
            for i, j in ga.DIR_PAIRS))]
        # the interior rows, stacked by slot, of plane-backed vectors halved as
        # the kernel reads them (the planes are half the coefficients)
        rows = _interior_rows(domain)
        backed = np.moveaxis(np.ascontiguousarray(np.moveaxis(vecs, -1, 0)), 0, -1)
        got = ga.pair_operands(ga.interior_gather(domain), 0.5 * backed)
        assert got.shape == (3, 4, rows.size, 6) and got.flags.c_contiguous
        assert np.array_equal(got, 0.5 * np.stack([ref[:, rows] for ref in want], axis=1))
        # and of cell-major vectors
        got = ga.pair_operands(ga.interior_gather(domain), vecs)
        assert got.shape == (3, 4, rows.size, 6) and got.flags.c_contiguous
        assert np.array_equal(got, np.stack([ref[:, rows] for ref in want], axis=1))
        assert ga.interior_gather(domain).max() < 4 * domain.ncells

    @pytest.mark.parametrize(
        "domain", [SPHERE, BLOCK, SPHERE_2342, BLOCK_2342, Domain((4, 4, 4, 4), "block")],
        ids=["sphere", "block", "sphere-2342", "block-2342", "block-4444"],
    )
    def test_kernel_table_is_the_shift_route(self, domain):
        # the solver kernel's route, the gather through interior_gather, gives
        # curvature_components' values, read off shift_plus, bit for bit
        a = co.random_connection(domain, 0.8, seed=49)
        F = ga.curvature_planes(ga.pair_operands(ga.interior_gather(domain), alg.project_su2(a.values) / 2))
        want = ga.curvature_components(a).values[domain.interior]
        assert np.array_equal(alg.quaternion_matrices(F[0], F[1:]).reshape(want.shape), want)

    @pytest.mark.parametrize("domain", [SPHERE, BLOCK_2342], ids=["sphere", "block-2342"])
    def test_scatter_is_the_adjoint_of_the_gather(self, domain):
        rng = np.random.default_rng(46)
        v = rng.uniform(-1.0, 1.0, size=(domain.ncharts, *domain.extents, 4, 3))
        z = rng.uniform(-1.0, 1.0, size=(3, 4, _interior_rows(domain).size, 6))
        got = ga.interior_scatter(domain, z)
        assert got.shape == v.shape
        table = ga.interior_gather(domain)
        assert float(np.vdot(v, got)) == pytest.approx(float(np.vdot(ga.pair_operands(table, v), z)), rel=1e-13)
        assert ga.interior_gather(Domain(domain.sizes, domain.topology)) is table
        # so np.take reads it at unit stride and ravel is no copy
        assert table.flags.c_contiguous
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0


def _is_plane_backed(vecs):
    """True when vecs (..., 3) is a view of a C-contiguous buffer (3, ...)."""
    planes = vecs.reshape(-1, 3).T
    return planes.flags.c_contiguous and np.shares_memory(vecs, planes)


class TestPlaneBackedVectors:
    @pytest.mark.parametrize(
        "domain", [SPHERE, BLOCK, SPHERE_2342, BLOCK_2342, Domain((4, 4, 4, 4), "block")],
        ids=["sphere", "block", "sphere-2342", "block-2342", "block-4444"],
    )
    def test_one_scatter_is_the_per_component_bincount(self, domain):
        z = np.random.default_rng(48).uniform(-1.0, 1.0, size=(3, 4, _interior_rows(domain).size, 6))
        got = ga.interior_scatter(domain, z)
        want = scatter_by_component(domain, ga.interior_gather(domain), z)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert _is_plane_backed(got)
        index = ga._scatter_index(domain)
        assert ga._scatter_index(Domain(domain.sizes, domain.topology)) is index
        with pytest.raises(ValueError):
            index[0] = 0


class TestCurvatureTangentAndAdjoint:
    """The per-row blocks K of the curvature's derivative on the interior rows."""

    @ALL_DOMAINS
    def test_tangent_is_the_central_difference(self, domain):
        # F is quadratic along A + hP, so the central difference is F1 up to rounding
        rng = np.random.default_rng(43)
        a, p = rng.uniform(-0.5, 0.5, size=(2, domain.ncharts, *domain.extents, 4, 3))
        K = ga.curvature_blocks(_planes(domain, a))
        f1 = np.einsum("ocsnp,csnp->onp", K, ga.pair_operands(ga.interior_gather(domain), p))
        for h in (1.0, 0.125):
            fp, fm = (ga.curvature_planes(_planes(domain, a + s * h * p)) for s in (1, -1))
            scale = max(np.abs(fp).max(), np.abs(fm).max()) / h
            assert np.abs(f1 - (fp - fm) / (2 * h)).max() <= 1e-14 * scale

    @ALL_DOMAINS
    def test_adjoint_identity(self, domain):
        # <F1(P), W> = <P, scatter(K^T W)> for every W on the interior rows
        rng = np.random.default_rng(44)
        a, p = rng.uniform(-0.5, 0.5, size=(2, domain.ncharts, *domain.extents, 4, 3))
        K = ga.curvature_blocks(_planes(domain, a))
        W = rng.uniform(-1.0, 1.0, size=(4, _interior_rows(domain).size, 6))
        want = float(np.vdot(np.einsum("ocsnp,csnp->onp", K, ga.pair_operands(ga.interior_gather(domain), p)), W))
        got = float(np.vdot(p, ga.interior_scatter(domain, np.einsum("ocsnp,onp->csnp", K, W))))
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("domain", [SPHERE, BLOCK_2342], ids=["sphere", "block-2342"])
    def test_blocks_are_the_stencil_linearisation(self, domain):
        # column K[:, k, s] is stencil(x, e) + stencil(e, x) + d(e) for the unit
        # coefficient in component k of slot s, whose plane operand e is 1/2
        a = np.random.default_rng(47).uniform(-0.5, 0.5, size=(domain.ncharts, *domain.extents, 4, 3))
        x = _planes(domain, a)
        K = ga.curvature_blocks(x)
        assert K.shape == (4, 3, 4, *x.shape[2:])
        for k in range(3):
            for s in range(4):
                e = np.zeros_like(x)
                e[k, s] = 0.5
                col = ga.curvature_stencil(x, e)
                col += ga.curvature_stencil(e, x)
                col[1:] += e[:, 2] - e[:, 1] - e[:, 3] + e[:, 0]
                assert np.array_equal(K[:, k, s], col)


class TestConnectionScalars:
    @ALL_DOMAINS
    def test_bitwise_equal_to_the_separate_functions(self, domain):
        a = co.random_connection(domain, 0.7, seed=12)
        got = ga.connection_scalars(a, ga.curvature(a))
        want = {
            "action": so.action(a),
            "ym_residual_norm": ga.yang_mills_residual_norm(a),
            "sd_residual": ga.sd_residual(ga.curvature(a)),
            "bianchi_defect": ga.bianchi_residual(a),
        }
        if not domain.is_sphere:
            # the deep cells: zero_pad's support
            want["ym_residual_norm_deep"] = ca.norm(co.zero_pad(ga.yang_mills_residual(a)))
        assert list(got) == list(want)
        assert got == want


class TestCovariantDifferential:
    def test_zero_connection_reduces_to_coboundary(self):
        om = co.random_form(SPHERE, 2, seed=1)
        got = ga.covariant_d(co.Cochain.zeros(SPHERE, 1), om)
        assert np.abs(got.values - ca.coboundary(om).values).max() == 0

    def test_sign_on_even_degrees(self):
        a = co.random_connection(SPHERE, 0.5, seed=2)
        om = co.random_form(SPHERE, 2, seed=3)
        want = co.add(
            ca.coboundary(om),
            co.sub(ca.cup(a, om), ca.cup(om, a)),
        )
        assert np.abs(ga.covariant_d(a, om).values - want.values).max() == 0

    def test_sign_on_zero_forms(self):
        a = co.random_connection(SPHERE, 0.5, seed=4)
        om = co.random_form(SPHERE, 0, seed=5)
        want = co.add(
            ca.coboundary(om),
            co.sub(ca.cup(a, om), ca.cup(om, a)),
        )
        assert np.abs(ga.covariant_d(a, om).values - want.values).max() == 0


class TestBianchi:
    def test_zero_and_constant(self):
        assert ga.bianchi_residual(co.Cochain.zeros(SPHERE, 1)) == 0
        vs = [(0.3, 0, 0.1), (0, -0.2, 0.4), (0.5, 0.5, 0), (-0.1, 0.2, 0.3)]
        assert ga.bianchi_residual(constant_connection(SPHERE, vs)) <= 1e-12

    @ALL_DOMAINS
    def test_random_connections(self, domain):
        for seed in range(10):
            a = co.random_connection(domain, 1.0, seed=100 + seed)
            scale = 1 + ca.norm(a) ** 3
            assert ga.bianchi_residual(a) <= 1e-12 * scale


class TestGaugeTransform:
    def test_identity_gauge_fixes_connection(self):
        a = co.random_connection(SPHERE, 0.5, seed=6)
        h = co.Cochain.zeros(SPHERE, 0)
        h.values[...] = np.eye(2)
        got = ga.gauge_transform(a, h)
        assert np.abs(got.values - a.values).max() <= 1e-15

    def test_component_formula(self):
        a = co.random_connection(SPHERE, 0.5, seed=7)
        h = co.random_gauge(SPHERE, seed=8)
        hinv = ga.gauge_inverse(h)
        got = ga.gauge_transform(a, h)
        for chart, k in interior_cells(SPHERE):
            for i in (1, 2, 3, 4):
                tk = tuple(np.add(k, np.eye(4, dtype=int)[i - 1]))
                hk = h.get(chart, k, 0)
                want = hk @ (hinv.get(chart, tk, 0) - hinv.get(chart, k, 0)) + hk @ a.get(
                    chart, k, axes_mask([i])
                ) @ hinv.get(chart, tk, 0)
                np.testing.assert_allclose(got.get(chart, k, axes_mask([i])), want, atol=1e-13)

    def test_pure_gauge_from_zero(self):
        h = co.random_gauge(SPHERE, seed=9)
        hinv = ga.gauge_inverse(h)
        got = ga.gauge_transform(co.Cochain.zeros(SPHERE, 1), h)
        want = ca.cup(h, ca.coboundary(hinv))
        assert np.abs(got.values - want.values).max() <= 1e-15

    def test_curvature_covariance(self):
        a = co.random_connection(SPHERE, 0.5, seed=10)
        h = co.random_gauge(SPHERE, seed=11)
        hinv = ga.gauge_inverse(h)
        f = ga.curvature(a)
        fprime = ga.curvature(ga.gauge_transform(a, h))
        want = ca.cup(h, ca.cup(f, hinv))
        defect = ca.norm(co.sub(fprime, want))
        assert defect <= 1e-10 * (1 + ca.norm(f))
        # componentwise: h_k F^{ij}_k h^-1_{tau_i tau_j k}
        for chart, k in interior_cells(SPHERE):
            for d, (i, j) in enumerate(ga.DIR_PAIRS):
                tk = tuple(np.add(k, np.eye(4, dtype=int)[i - 1] + np.eye(4, dtype=int)[j - 1]))
                comp = h.get(chart, k, 0) @ f.get(chart, k, axes_mask([i, j])) @ hinv.get(chart, tk, 0)
                np.testing.assert_allclose(
                    fprime.get(chart, k, axes_mask([i, j])), comp, atol=1e-12
                )

    def test_composition_law(self):
        a = co.random_connection(SPHERE, 0.4, seed=12)
        g = co.random_gauge(SPHERE, seed=13)
        h = co.random_gauge(SPHERE, seed=14)
        lhs = ga.gauge_transform(ga.gauge_transform(a, g), h)
        rhs = ga.gauge_transform(a, ca.cup(h, g))
        assert ca.norm(co.sub(lhs, rhs)) <= 1e-12

    def test_su2_deviation_is_generic(self):
        a = co.random_connection(SPHERE, 0.4, seed=15)
        h = co.random_gauge(SPHERE, seed=16)
        out = ga.gauge_transform(a, h)
        dev = alg.su2_algebra_deviation(out.values)
        assert dev > 1e-3  # the lattice transform genuinely leaves su(2)

    def test_constant_gauge_keeps_su2(self):
        a = co.random_connection(SPHERE, 0.4, seed=17)
        h = co.Cochain.zeros(SPHERE, 0)
        h.values[...] = alg.exp_su2(np.array([0.3, -0.5, 0.9]))
        out = ga.gauge_transform(a, h)
        assert alg.su2_algebra_deviation(out.values) <= 1e-12


class TestDualCompatibleGauges:
    def test_dual_compatible_gauge_is_compatible(self):
        for domain in (BLOCK, SPHERE):
            h = co.dual_compatible_gauge(domain, amplitude=1.0, seed=18)
            assert ga.is_dual_compatible(h)

    def test_random_gauge_is_not(self):
        h = co.random_gauge(SPHERE, seed=19)
        assert not ga.is_dual_compatible(h)
        assert max(ga.dual_compat_defects(h)) > 1e-2

    def test_left_cup_dual_identity_unconditional(self):
        h = co.random_gauge(SPHERE, seed=20)  # need not be compatible
        for p in range(5):
            f = co.random_form(SPHERE, p, seed=30 + p)
            assert ga.left_cup_dual_defect(h, f) <= 1e-14

    def test_right_cup_dual_iff(self):
        f = co.random_form(SPHERE, 2, seed=21)
        good = co.dual_compatible_gauge(SPHERE, amplitude=1.0, seed=22)
        bad = co.random_gauge(SPHERE, seed=23)
        assert ga.right_cup_dual_defect(good, f) <= 1e-12
        assert ga.right_cup_dual_defect(bad, f) > 1e-3

    def test_compatible_gauges_form_group(self):
        h1 = co.dual_compatible_gauge(SPHERE, amplitude=0.8, seed=24)
        h2 = co.dual_compatible_gauge(SPHERE, amplitude=1.2, seed=25)
        prod = ca.cup(h1, h2)
        assert ga.is_dual_compatible(prod)
        assert alg.su2_group_deviation(prod.values) <= 1e-12
        assert ga.is_dual_compatible(ga.gauge_inverse(h1))


ABELIAN = pytest.mark.parametrize("sizes, action", [((2, 2, 2, 2), 1.44), ((2, 3, 4, 2), 4.32)],
                                  ids=["block-2222", "block-2342"])
SIGNS = pytest.mark.parametrize("s", [1, -1], ids=["sd", "anti"])


class TestAbelianSolution:
    # oracles.abelian_connection at B = 0.3: a non-flat solution with action
    # B^2 prod N_i, self-dual for s = +1 and anti-self-dual for s = -1

    @ABELIAN
    @SIGNS
    def test_pinned_scalars(self, sizes, action, s):
        a = abelian_connection(Domain(sizes, "block"), 0.3, s)
        f = ga.curvature(a)
        scalars = ga.connection_scalars(a, f)
        assert scalars["action"] == pytest.approx(action, rel=1e-14)
        assert ga.sd_residual(f, anti=s < 0) <= 1e-15
        assert ga.sd_residual(f, anti=s > 0) > 1
        assert scalars["bianchi_defect"] == 0
        assert scalars["ym_residual_norm_deep"] <= 1e-15

    @ABELIAN
    @SIGNS
    def test_a_dual_compatible_gauge_keeps_it_a_solution(self, sizes, action, s):
        domain = Domain(sizes, "block")
        a = abelian_connection(domain, 0.3, s)
        a2 = ga.gauge_transform(a, co.dual_compatible_gauge(domain, amplitude=1.0, seed=60))
        f2 = ga.curvature(a2)
        assert ca.norm_sq(f2) == pytest.approx(action, rel=1e-12)
        assert ga.sd_residual(f2, anti=s < 0) <= 1e-13
        # the rotated connection leaves su(2), so no form file can carry it
        with pytest.raises(ValidationError):
            co.validate_connection(a2)
        f3 = ga.curvature(ga.gauge_transform(a, co.random_gauge(domain, seed=61)))
        assert ca.norm_sq(f3) == pytest.approx(action, rel=1e-12)
        assert ga.sd_residual(f3, anti=s < 0) > 0.1


class TestYangMillsResidual:
    def test_zero_connection(self):
        assert ga.yang_mills_residual_norm(co.Cochain.zeros(SPHERE, 1)) == 0

    def test_residual_is_base_three_form(self):
        a = co.random_connection(SPHERE, 0.3, seed=26)
        r = ga.yang_mills_residual(a)
        assert r.degree == 3 and r.copy == a.copy

    def test_gauge_invariance_under_compatible_gauge(self):
        a = co.random_connection(SPHERE, 0.5, seed=27)
        h = co.dual_compatible_gauge(SPHERE, amplitude=1.0, seed=28)
        n0 = ga.yang_mills_residual_norm(a)
        n1 = ga.yang_mills_residual_norm(ga.gauge_transform(a, h))
        assert abs(n0 - n1) <= 1e-9 * (1 + n0)
        # the residual itself transforms by conjugation under the cup product
        want = ca.cup(h, ca.cup(ga.yang_mills_residual(a), ga.gauge_inverse(h)))
        got = ga.yang_mills_residual(ga.gauge_transform(a, h))
        assert ca.norm(co.sub(got, want)) <= 1e-10 * (1 + n0)

    def test_block_invariance_carries_boundary_defect(self):
        # on the block the paired-shift conditions cannot hold for the
        # zero-extension past the halo, so the invariance picks up a
        # boundary contribution; it is exact only on the closed sphere
        a = co.random_connection(BLOCK, 0.5, seed=27)
        h = co.dual_compatible_gauge(BLOCK, amplitude=1.0, seed=28)
        n0 = ga.yang_mills_residual_norm(a)
        n1 = ga.yang_mills_residual_norm(ga.gauge_transform(a, h))
        assert abs(n0 - n1) > 1e-6 * (1 + n0)

    def test_violating_gauge_breaks_invariance(self):
        a = co.random_connection(SPHERE, 0.5, seed=29)
        h = co.random_gauge(SPHERE, seed=30)
        n0 = ga.yang_mills_residual_norm(a)
        n1 = ga.yang_mills_residual_norm(ga.gauge_transform(a, h))
        assert abs(n0 - n1) > 1e-3 * (1 + n0)


class TestSelfDuality:
    def test_split_reassembles(self):
        f = ga.curvature(co.random_connection(SPHERE, 0.7, seed=31))
        fp, fm = ga.self_dual_part(f), ga.anti_self_dual_part(f)
        assert np.abs(co.add(fp, fm).values - f.values).max() <= 1e-15

    def test_projectors_land_on_eigenspaces(self):
        f = ga.curvature(co.random_connection(SPHERE, 0.7, seed=32))
        fp, fm = ga.self_dual_part(f), ga.anti_self_dual_part(f)
        assert np.abs(ca.dual(fp).values - fp.values).max() <= 1e-12
        assert np.abs(ca.dual(fm).values + fm.values).max() <= 1e-12

    def test_parts_are_orthogonal(self):
        f = ga.curvature(co.random_connection(SPHERE, 0.7, seed=33))
        fp, fm = ga.self_dual_part(f), ga.anti_self_dual_part(f)
        assert abs(ca.inner_product(fp, fm)) <= 1e-12 * (1 + ca.norm_sq(f))

    def test_energy_splits(self):
        for seed in range(5):
            f = ga.curvature(co.random_connection(SPHERE, 0.7, seed=40 + seed))
            total = ca.norm_sq(f)
            split = ca.norm_sq(ga.self_dual_part(f)) + ca.norm_sq(ga.anti_self_dual_part(f))
            assert abs(total - split) <= 1e-10 * (1 + total)

    def test_sd_residual_and_component_defects(self):
        # a form obeying the three component equations is dual-fixed
        f = co.Cochain.zeros(SPHERE, 2)
        m = np.array([[0.2, 1j], [0.4, -0.2]])
        idx = {pair: n for n, pair in enumerate(ga.DIR_PAIRS)}
        f.values[..., idx[(1, 2)], :, :] = m
        f.values[..., idx[(3, 4)], :, :] = m
        assert ga.sd_residual(f) <= 1e-15
        assert max(ga.sd_component_defects(f)) <= 1e-15
        # breaking one pair shows up in exactly that defect channel
        f.values[..., idx[(1, 3)], :, :] = m
        defects = ga.sd_component_defects(f)
        assert defects[1] > 0.1 and defects[0] <= 1e-15 and defects[2] <= 1e-15

    @pytest.mark.parametrize(
        "domain",
        [SPHERE, Domain((2, 3, 4, 2), "sphere"), Domain((2, 3, 4, 2), "block"), Domain((3, 3, 3, 3), "block")],
        ids=["sphere-2", "sphere-2342", "block-2342", "block-3"],
    )
    @pytest.mark.parametrize("anti", [False, True], ids=["sd", "anti"])
    def test_component_equations_written_out(self, domain, anti):
        # F^12 = F^34, F^13 = -F^24, F^14 = F^23; right-hand sides negated for anti
        equations = (((1, 2), (3, 4), 1), ((1, 3), (2, 4), -1), ((1, 4), (2, 3), 1))
        idx = {pair: n for n, pair in enumerate(ga.DIR_PAIRS)}
        f = ga.curvature(co.random_connection(domain, 1.0, seed=50))
        v = f.values
        r = np.empty_like(v)
        for a, b, sign in equations:
            sign = -sign if anti else sign
            r[..., idx[a], :, :] = v[..., idx[a], :, :] - sign * v[..., idx[b], :, :]
            r[..., idx[b], :, :] = v[..., idx[b], :, :] - sign * v[..., idx[a], :, :]
        want = tuple(
            float(np.sqrt(np.sum(np.abs(r[domain.interior][..., idx[a], :, :]) ** 2)))
            for a, _, _ in equations
        )
        assert ga.sd_component_defects(f, anti=anti) == want
        assert ga.sd_residual(f, anti=anti) == ca.norm(f.like(r))
        assert ga.SHIFT_PAIRS == tuple((a, b) for a, b, _ in equations)

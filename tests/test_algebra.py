"""Tests for the 2x2 matrix layer and the su(2) structure."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oracles import embed_su2_by_einsum, project_su2_by_trace, quaternion_matrices_by_broadcast
from ymdec import algebra as alg
from ymdec import cochain as co
from ymdec.complex4 import Domain


def su2_vectors(max_norm=10.0):
    coord = st.floats(-max_norm / 2, max_norm / 2, allow_nan=False)
    return st.tuples(coord, coord, coord).map(np.array)


class TestBasis:
    def test_lambda_is_pauli_over_2i(self):
        np.testing.assert_allclose(alg.LAMBDA, alg.SIGMA / 2j)

    def test_commutator_cycles(self):
        # [lam_a, lam_b] = eps_abc lam_c, the su(2) structure constants
        for a, b, c in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            got = alg.LAMBDA[a] @ alg.LAMBDA[b] - alg.LAMBDA[b] @ alg.LAMBDA[a]
            np.testing.assert_allclose(got, alg.LAMBDA[c], atol=1e-15)

    def test_conj_transpose_negates_basis(self):
        for lam in alg.LAMBDA:
            np.testing.assert_allclose(alg.conj_transpose(lam), -lam, atol=1e-15)

    def test_sigma1_is_not_algebra(self):
        assert not alg.su2_algebra_deviation(alg.SIGMA[0]) <= 1e-10
        assert alg.su2_algebra_deviation(alg.LAMBDA[0]) <= 1e-10
        assert alg.su2_group_deviation(alg.IDENTITY2) <= 1e-10


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _relative_defect(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestMatMul:
    # np.matmul is the independent reference; the two may round differently
    def test_batch_matches_matmul(self):
        rng = np.random.default_rng(21)
        a, b = _complex(rng, (1000, 2, 2)), _complex(rng, (1000, 2, 2))
        assert _relative_defect(alg.mat_mul(a, b), a @ b) <= 1e-15

    def test_broadcasts_leading_axes(self):
        rng = np.random.default_rng(22)
        for sa, sb in [((3, 1, 2, 2), (1, 4, 2, 2)), ((2, 2), (5, 2, 2)), ((6, 2, 2), (2, 2))]:
            a, b = _complex(rng, sa), _complex(rng, sb)
            got = alg.mat_mul(a, b)
            assert got.shape == np.broadcast_shapes(sa, sb)
            assert _relative_defect(got, a @ b) <= 1e-15

    def test_strided_direction_views(self):
        # cup multiplies views of one direction set out of a form's values
        domain = Domain((2, 3, 4, 2), "sphere")
        f, g = co.random_form(domain, 2, seed=23), co.random_form(domain, 1, seed=24)
        a, b = f.values[..., 4, :, :], g.values[..., 1, :, :]
        assert not a.flags.c_contiguous and not b.flags.c_contiguous
        assert _relative_defect(alg.mat_mul(a, b), a @ b) <= 1e-15


class TestEmbedProject:
    def test_embed_zero(self):
        np.testing.assert_array_equal(alg.embed_su2(np.zeros(3)), np.zeros((2, 2)))

    def test_project_identity_is_zero(self):
        np.testing.assert_array_equal(alg.project_su2(alg.IDENTITY2), np.zeros(3))

    def test_roundtrip_123(self):
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(alg.project_su2(alg.embed_su2(v)), v, atol=1e-14)

    @given(su2_vectors())
    @settings(max_examples=50, deadline=None)
    def test_embed_lands_in_algebra(self, v):
        m = alg.embed_su2(v)
        assert np.abs(m + alg.conj_transpose(m)).max() <= 1e-12 * (1 + np.abs(v).max())
        assert abs(alg.trace(m)) <= 1e-12 * (1 + np.abs(v).max())

    @given(su2_vectors(), su2_vectors())
    @settings(max_examples=50, deadline=None)
    def test_commutator_closure(self, v, w):
        x, y = alg.embed_su2(v), alg.embed_su2(w)
        c = x @ y - y @ x
        assert alg.su2_algebra_deviation(c) <= 1e-10 * (1 + np.abs(v).max() * np.abs(w).max())

    def test_batched_shapes(self):
        v = np.random.default_rng(0).uniform(-1, 1, size=(5, 7, 3))
        m = alg.embed_su2(v)
        assert m.shape == (5, 7, 2, 2)
        np.testing.assert_allclose(alg.project_su2(m), v, atol=1e-14)

    def test_project_writes_planes_bitwise_equal_to_the_trace_formula(self):
        # entry-major Cochain values and C-order gl(2, C) arrays, with zero
        # entries of either sign, give the reference's bits, signbits included,
        # in plane-backed vectors: a view of a C-contiguous (3, ...) buffer
        domain = Domain((2, 3, 4, 2), "block")
        rng = np.random.default_rng(25)
        m = rng.uniform(-1, 1, size=(6, 5, 2, 2)) + 1j * rng.uniform(-1, 1, size=(6, 5, 2, 2))
        m.real[rng.random(m.shape) < 0.3] = 0.0
        m.imag[rng.random(m.shape) < 0.3] = -0.0
        for values in (
            co.random_connection(domain, 0.5, seed=26).values,
            co.random_form(domain, 2, seed=27).values,
            co.Cochain.zeros(domain, 1).values,
            m,
            -m,
            alg.IDENTITY2,
        ):
            got, want = alg.project_su2(values), project_su2_by_trace(values)
            assert got.shape == want.shape and np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            planes = np.moveaxis(got, -1, 0)
            assert planes.flags.c_contiguous and np.shares_memory(got, planes)

    def test_embed_writes_the_einsum_bits(self):
        # the written-out entries against sum_a v_a lam_a by einsum, bit for
        # bit: a zero entry is +0 for +0 and -0 components alike, and halving
        # a subnormal or a huge component rounds as the einsum's product does
        rng = np.random.default_rng(28)
        batched = rng.uniform(-1, 1, size=(4, 5, 3))
        signed_zeros = np.array(list(itertools.product((0.0, -0.0, 1.0, -1.0), repeat=3)))
        extremes = np.array(list(itertools.product((1e300, -1e300, 5e-324, -5e-324, 3e-308, -0.0), repeat=3)))
        for v in (
            batched,
            batched[2, 3],
            np.moveaxis(np.moveaxis(batched, -1, 0).copy(), 0, -1),  # strided components
            signed_zeros,
            signed_zeros[9],
            extremes,
            extremes[100],
        ):
            got, want = alg.embed_su2(v), embed_su2_by_einsum(v)
            assert got.shape == want.shape and got.flags.c_contiguous
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(np.signbit(got.view(np.float64)), np.signbit(want.view(np.float64)))

    def test_embed_of_an_infinite_component_has_no_nan(self):
        # the one entry the einsum cannot match: it multiplies inf by the
        # zero entries of every lam_a, so its matrix is NaN where the
        # written-out map keeps the exact zeros
        got, want = alg.embed_su2([np.inf, 0.0, 0.0]), embed_su2_by_einsum([np.inf, 0.0, 0.0])
        assert not np.isnan(got).any() and np.isnan(want).any()
        assert np.array_equal(got, [[0.0, complex(0.0, -np.inf)], [complex(0.0, -np.inf), 0.0]])


class TestQuaternionMatrices:
    def test_writes_the_broadcast_bits(self):
        # the written-out entries against s * I + embed_su2(2 u), bit for bit:
        # a zero entry is +0 for +0 and -0 scalars and components alike, and
        # subnormal and huge planes up to max / 2 (where 2 u still is finite)
        rng = np.random.default_rng(40)
        batched = rng.uniform(-1, 1, size=(4, 5, 6))
        signed_zeros = np.array(list(itertools.product((0.0, -0.0, 1.0, -1.0), repeat=4))).T.copy()
        half_max = np.finfo(np.float64).max / 2
        values = (1e300, -1e300, half_max, -half_max, 5e-324, -5e-324, 3e-308, -0.0)
        extremes = np.array(list(itertools.product(values, repeat=4))).T.copy()
        for q in (
            batched,
            batched[:, 3, 1],
            np.moveaxis(np.moveaxis(batched, 0, -1).copy(), -1, 0),  # strided planes
            signed_zeros,
            extremes,
        ):
            got, want = alg.quaternion_matrices(q[0], q[1:]), quaternion_matrices_by_broadcast(q[0], q[1:])
            assert got.shape == want.shape and got.flags.c_contiguous
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(np.signbit(got.view(np.float64)), np.signbit(want.view(np.float64)))

    def test_entries_the_broadcast_cannot_match(self):
        # an infinite s: the broadcast product writes s * 0 (NaN) into every
        # entry but the real diagonal, where the written-out map keeps u's
        # entries; a component past max / 2: 2 u overflows to inf
        s, u = np.array([np.inf]), np.array([[1.0], [0.0], [-2.0]])
        with np.errstate(invalid="ignore"):
            want = quaternion_matrices_by_broadcast(s, u)
        got = alg.quaternion_matrices(s, u)
        assert not np.isnan(got).any() and np.isnan(want).any()
        assert np.array_equal(got[0], [[complex(np.inf, 2.0), -1j], [-1j, complex(np.inf, -2.0)]])
        s, u = np.zeros(1), np.array([[np.finfo(np.float64).max], [0.0], [0.0]])
        with np.errstate(over="ignore"):
            want = quaternion_matrices_by_broadcast(s, u)
        got = alg.quaternion_matrices(s, u)
        assert got[0, 0, 1] == complex(0.0, -u[0, 0]) and want[0, 0, 1] == complex(0.0, -np.inf)


class TestExp:
    def test_exp_zero_is_identity(self):
        np.testing.assert_array_equal(alg.exp_su2(np.zeros(3)), alg.IDENTITY2)

    def test_exp_pi_about_third_axis(self):
        got = alg.exp_su2(np.array([0.0, 0.0, np.pi]))
        np.testing.assert_allclose(got, np.diag([-1j, 1j]), atol=1e-15)

    def test_exp_matches_matrix_exponential(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            v = rng.uniform(-5, 5, size=3)
            np.testing.assert_allclose(
                alg.exp_su2(v), expm(alg.embed_su2(v)), atol=1e-12
            )

    def test_exp_is_group_valued(self):
        rng = np.random.default_rng(7)
        v = rng.uniform(-1, 1, size=(1000, 3))
        v *= (rng.uniform(0, 10, size=1000) / np.linalg.norm(v, axis=1))[:, None]
        u = alg.exp_su2(v)
        assert alg.su2_group_deviation(u) <= 1e-10

    def test_group_deviation_of_exp_is_at_rounding(self):
        rng = np.random.default_rng(25)
        u = alg.exp_su2(rng.uniform(-3.0, 3.0, size=(2000, 3)))
        assert alg.su2_group_deviation(u) <= 1e-14

    def test_group_deviation_flags_a_perturbed_element(self):
        rng = np.random.default_rng(26)
        u = alg.exp_su2(rng.uniform(-3.0, 3.0, size=(50, 3)))
        u[17, 0, 1] += 1e-6
        assert alg.su2_group_deviation(u) >= 5e-7
        # a phase keeps u unitary and moves only its determinant
        phased = alg.exp_su2(rng.uniform(-3.0, 3.0, size=(50, 3)))
        phased[3] *= np.exp(1e-6j)
        assert alg.su2_group_deviation(phased) >= 1e-6

    def test_exp_tiny_angle_branch(self):
        v = np.array([1e-12, 0.0, 0.0])
        u = alg.exp_su2(v)
        assert alg.su2_group_deviation(u) <= 1e-14
        np.testing.assert_allclose(u, alg.IDENTITY2 + alg.embed_su2(v), atol=1e-20)


class TestMisc:
    @given(su2_vectors(2.0), su2_vectors(2.0))
    @settings(max_examples=50, deadline=None)
    def test_trace_cyclic(self, v, w):
        a, b = alg.embed_su2(v), alg.embed_su2(w)
        assert abs(alg.trace(a @ b) - alg.trace(b @ a)) <= 1e-12

    def test_inv2(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
        np.testing.assert_allclose(alg.inv2(m) @ m, np.broadcast_to(alg.IDENTITY2, m.shape), atol=1e-12)

"""Tests for form storage, constructors, and the file format."""

from pathlib import Path

import numpy as np
import pytest

from ymdec import algebra as alg
from ymdec import cochain as co
from ymdec.complex4 import CHART_V, CHART_VHAT, Domain, axes_mask, shift_many

DATA = Path(__file__).parent / "data"

BLOCK = Domain((2, 2, 2, 2), "block")
SPHERE = Domain((2, 2, 2, 2), "sphere")


class TestAccess:
    def test_get_set_roundtrip(self):
        f = co.Cochain.zeros(SPHERE, 1)
        m = np.array([[1, 2j], [3, 4]], dtype=complex)
        f.set(CHART_V, (2, 1, 2, 1), axes_mask([3]), m)
        np.testing.assert_array_equal(f.get(CHART_V, (2, 1, 2, 1), axes_mask([3])), m)

    def test_sphere_get_resolves_into_other_chart(self):
        f = co.Cochain.zeros(SPHERE, 1)
        m = np.array([[5.0, 0], [0, 5.0]], dtype=complex)
        f.set(CHART_VHAT, (2, 1, 1, 1), axes_mask([1]), m)
        np.testing.assert_array_equal(f.get(CHART_V, (0, 1, 1, 1), axes_mask([1])), m)

    def test_block_halo_is_stored_data(self):
        f = co.Cochain.zeros(BLOCK, 0)
        m = np.eye(2, dtype=complex) * 7
        f.set(CHART_V, (0, 3, 2, 1), 0, m)
        np.testing.assert_array_equal(f.get(CHART_V, (0, 3, 2, 1), 0), m)


class TestElementwise:
    def test_add_zero_and_scale(self):
        f = co.random_form(SPHERE, 2, seed=1)
        z = co.Cochain.zeros(SPHERE, 2)
        np.testing.assert_array_equal(co.add(f, z).values, f.values)
        np.testing.assert_array_equal(co.scale(co.scale(f, -1), -1).values, f.values)

    def test_conj_transpose_negates_su2_form(self):
        a = co.random_connection(SPHERE, 0.5, seed=2)
        np.testing.assert_allclose(
            co.conj_transpose_form(a).values, -a.values, atol=1e-15
        )

    def test_map_coeffs(self):
        f = co.random_form(SPHERE, 1, seed=30)
        doubled = co.map_coeffs(f, lambda v: 2.0 * v)
        np.testing.assert_array_equal(doubled.values, co.scale(f, 2.0).values)

    def test_degree_mismatch_raises(self):
        with pytest.raises(ValueError):
            co.add(co.Cochain.zeros(SPHERE, 1), co.Cochain.zeros(SPHERE, 2))


class TestConstructors:
    def test_zero_amplitude_connection(self):
        a = co.random_connection(BLOCK, 0.0, seed=3)
        assert np.abs(a.values).max() == 0.0

    def test_seed_determinism(self):
        a = co.random_connection(SPHERE, 0.3, seed=11)
        b = co.random_connection(SPHERE, 0.3, seed=11)
        np.testing.assert_array_equal(a.values, b.values)
        assert np.abs(a.values - co.random_connection(SPHERE, 0.3, seed=12).values).max() > 0

    def test_random_connection_is_su2(self):
        a = co.random_connection(BLOCK, 1.0, seed=4)
        assert alg.is_su2_algebra(a.values)
        co.validate_connection(a)

    def test_random_gauge_is_group(self):
        h = co.random_gauge(SPHERE, seed=5)
        assert alg.is_su2_group(h.values)
        co.validate_gauge(h)

    def test_block_halo_clamped_copy(self):
        a = co.random_connection(BLOCK, 1.0, seed=6)
        np.testing.assert_array_equal(
            a.get(CHART_V, (0, 1, 1, 1), axes_mask([1])),
            a.get(CHART_V, (1, 1, 1, 1), axes_mask([1])),
        )
        np.testing.assert_array_equal(
            a.get(CHART_V, (3, 3, 3, 3), axes_mask([2])),
            a.get(CHART_V, (2, 2, 2, 2), axes_mask([2])),
        )

    def test_validation_rejects_bad_coefficients(self):
        a = co.random_connection(SPHERE, 0.5, seed=7)
        a.values[0, 0, 0, 0, 0] = np.eye(2)  # Hermitian with trace
        with pytest.raises(co.ValidationError):
            co.validate_connection(a)
        h = co.random_gauge(SPHERE, seed=8)
        h.values[0, 0, 0, 0, 0] *= 2.0
        with pytest.raises(co.ValidationError):
            co.validate_gauge(h)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_validation_rejects_non_finite_coefficients(self, bad):
        a = co.random_connection(SPHERE, 0.5, seed=7)
        a.values[0, 0, 0, 0, 0, 1, 0, 1] = bad
        with pytest.raises(co.ValidationError):
            co.validate_connection(a)
        h = co.random_gauge(SPHERE, seed=8)
        h.values[0, 0, 0, 0, 0, 0, 1, 1] = bad
        with pytest.raises(co.ValidationError):
            co.validate_gauge(h)

    @pytest.mark.parametrize("domain", [BLOCK, SPHERE], ids=["block", "sphere"])
    def test_sum_profile_gauge_paired_shifts(self, domain):
        h = co.sum_profile_gauge(domain, amplitude=1.0, seed=9)
        co.validate_gauge(h)
        pairs = [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]
        for chart, k in domain.interior_cells():
            for left, right in pairs:
                a = h.get(chart, shift_many(k, axes_mask(left)), 0)
                b = h.get(chart, shift_many(k, axes_mask(right)), 0)
                np.testing.assert_array_equal(a, b)

    def test_sum_profile_gauge_rejects_uneven_sphere(self):
        with pytest.raises(ValueError):
            co.sum_profile_gauge(Domain((2, 3, 2, 2), "sphere"))

    def test_zero_pad_support(self):
        f = co.random_form(Domain((3, 3, 3, 3), "block"), 1, seed=10)
        g = co.zero_pad(f, 1)
        assert np.abs(g.values[:, 3:]).max() == 0
        assert np.abs(g.values[:, 0]).max() == 0
        np.testing.assert_array_equal(g.values[:, 1:3, 1:3, 1:3, 1:3], f.values[:, 1:3, 1:3, 1:3, 1:3])


def _golden_form():
    """Deterministic form whose coefficients encode their own address."""
    f = co.Cochain.zeros(BLOCK, 0)
    for _, k in BLOCK.stored_cells():
        k1, k2, k3, k4 = k
        f.set(
            CHART_V,
            k,
            0,
            np.array([[k1 + 1j * k2, k3 + 1j * k4], [sum(k), 1.0]], dtype=complex),
        )
    return f


class TestSerialization:
    @pytest.mark.parametrize(
        "domain,degree,copy",
        [(SPHERE, 3, 0), (SPHERE, 0, 1), (BLOCK, 2, 0), (BLOCK, 4, 1)],
        ids=["sphere-3-base", "sphere-0-tilde", "block-2-base", "block-4-tilde"],
    )
    def test_roundtrip_bit_exact(self, domain, degree, copy):
        f = co.random_form(domain, degree, seed=13, copy=copy)
        g = co.deserialize(co.serialize(f))
        assert g.domain == f.domain and g.degree == f.degree and g.copy == f.copy
        np.testing.assert_array_equal(g.values, f.values)

    def test_golden_file_frozen(self):
        payload = co.serialize(_golden_form())
        golden = (DATA / "golden_form.json").read_bytes()
        assert payload == golden

    def test_golden_component_order(self):
        # data array must follow chart-major, k-lex, ascending-mask order
        import json

        doc = json.loads((DATA / "golden_form.json").read_bytes())
        f = _golden_form()
        flat = doc["data"]
        pos = 0
        for _, k in BLOCK.stored_cells():
            m = alg.matrix_from_pairs(np.array(flat[pos]))
            np.testing.assert_array_equal(m, f.get(CHART_V, k, 0))
            pos += 1
        assert pos == len(flat)

    def test_truncated_payload(self):
        payload = co.serialize(_golden_form())
        with pytest.raises(co.MalformedFormError):
            co.deserialize(payload[: len(payload) // 2])

    def test_version_mismatch(self):
        import json

        doc = json.loads(co.serialize(_golden_form()))
        doc["version"] = 99
        with pytest.raises(co.FormVersionError):
            co.deserialize(json.dumps(doc).encode())

    def test_shape_mismatch(self):
        import json

        doc = json.loads(co.serialize(_golden_form()))
        doc["data"] = doc["data"][:-1]
        with pytest.raises(co.FormShapeError):
            co.deserialize(json.dumps(doc).encode())

    def test_missing_field(self):
        import json

        doc = json.loads(co.serialize(_golden_form()))
        del doc["topology"]
        with pytest.raises(co.MalformedFormError):
            co.deserialize(json.dumps(doc).encode())

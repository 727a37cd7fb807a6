"""Tests for form storage, constructors, and the file format."""

import gc
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import interior_cells, serialize_by_json, stored_cells
from ymdec import algebra as alg
from ymdec import cli
from ymdec import cochain as co
from ymdec.complex4 import CHART_V, CHART_VHAT, Domain, axes_mask, shift

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
        assert alg.su2_algebra_deviation(a.values) <= 1e-10
        co.validate_connection(a)

    def test_random_gauge_is_group(self):
        h = co.random_gauge(SPHERE, seed=5)
        assert alg.su2_group_deviation(h.values) <= 1e-10
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

    @pytest.mark.parametrize(
        "domain",
        [BLOCK, SPHERE] + [Domain(s, "sphere") for s in [(4, 4, 4, 2), (3, 5, 7, 3), (2, 3, 4, 2)]],
        ids=["block", "sphere", "sphere-4442", "sphere-3573", "sphere-2342"],
    )
    def test_sum_profile_gauge_paired_shifts(self, domain):
        h = co.sum_profile_gauge(domain, amplitude=1.0, seed=9)
        co.validate_gauge(h)
        pairs = [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]
        for chart, k in interior_cells(domain):
            for left, right in pairs:
                a = h.get(chart, shift(shift(k, left[0]), left[1]), 0)
                b = h.get(chart, shift(shift(k, right[0]), right[1]), 0)
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "domain",
        [SPHERE, Domain((3, 3, 3, 3), "sphere"), Domain((4, 4, 4, 4), "sphere"), BLOCK,
         Domain((2, 3, 4, 2), "block")],
        ids=["sphere-2222", "sphere-3333", "sphere-4444", "block-2222", "block-2342"],
    )
    def test_sum_profile_gauge_matches_the_cell_formula(self, domain):
        want = _sum_profile_by_cell(domain, amplitude=0.8, seed=3)
        assert np.array_equal(co.sum_profile_gauge(domain, amplitude=0.8, seed=3).values, want)

    def test_zero_pad_support(self):
        f = co.random_form(Domain((3, 3, 3, 3), "block"), 1, seed=10)
        g = co.zero_pad(f)
        assert np.abs(g.values[:, 3:]).max() == 0
        assert np.abs(g.values[:, 0]).max() == 0
        np.testing.assert_array_equal(g.values[:, 1:3, 1:3, 1:3, 1:3], f.values[:, 1:3, 1:3, 1:3, 1:3])


def _sum_profile_by_cell(domain, amplitude, seed):
    """The sum-profile coefficients set cell by cell from k1+k2+k3+k4, with
    the table drawn as sum_profile_gauge draws it."""
    rng = np.random.default_rng(seed)
    vals = np.zeros(co.Cochain.shape(domain, 0), dtype=np.complex128)
    if domain.is_sphere:
        n = domain.sizes[0]
        table = alg.exp_su2(rng.uniform(-amplitude, amplitude, size=(2 * n, 3)))
        for chart, k in interior_cells(domain):
            vals[domain.storage_index(chart, k) + (0,)] = table[(sum(k) + chart * n) % (2 * n)]
    else:
        table = alg.exp_su2(rng.uniform(-amplitude, amplitude, size=(sum(n + 1 for n in domain.sizes) + 1, 3)))
        for _, k in stored_cells(domain):
            vals[domain.storage_index(0, k) + (0,)] = table[sum(k)]
    return vals


def _golden_form():
    """Deterministic form whose coefficients encode their own address."""
    f = co.Cochain.zeros(BLOCK, 0)
    for _, k in stored_cells(BLOCK):
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
        for _, k in stored_cells(BLOCK):
            pairs = np.array(flat[pos])
            np.testing.assert_array_equal((pairs[:, 0] + 1j * pairs[:, 1]).reshape(2, 2), f.get(CHART_V, k, 0))
            pos += 1
        assert pos == len(flat)

    def test_data_is_row_major_re_im_pairs(self):
        # each matrix is its entries row-major as [re, im]; signed zeros survive the round trip
        m = np.array([[1 + 2j, 3 - 4j], [-5j, complex(6.5, -0.0)]])
        f = co.Cochain.zeros(BLOCK, 0)
        f.set(CHART_V, (1, 2, 1, 1), 0, m)
        doc = json.loads(co.serialize(f))
        pos = stored_cells(BLOCK).index((CHART_V, (1, 2, 1, 1)))
        assert doc["data"][pos] == [[1.0, 2.0], [3.0, -4.0], [0.0, -5.0], [6.5, -0.0]]
        assert str(doc["data"][pos][3][1]) == "-0.0"
        g = co.deserialize(co.serialize(f))
        assert np.signbit(g.get(CHART_V, (1, 2, 1, 1), 0)[1, 1].imag)
        np.testing.assert_array_equal(g.values, f.values)
        # values held as a strided view (cell-major, each matrix column-major)
        # serialize the same
        strided = co.Cochain.zeros(BLOCK, 0)
        strided.values = f.values.swapaxes(-1, -2).copy().swapaxes(-1, -2)
        assert strided.values.strides != co.Cochain.zeros(BLOCK, 0).values.strides
        assert co.serialize(strided) == co.serialize(f)

    @pytest.mark.parametrize("copy", [0, 1], ids=["base", "tilde"])
    @pytest.mark.parametrize("degree", range(5))
    @pytest.mark.parametrize(
        "domain",
        [SPHERE, BLOCK, Domain((2, 3, 4, 2), "sphere"), Domain((2, 3, 4, 2), "block"), Domain((3, 2, 4, 2), "sphere")],
        ids=["sphere-2222", "block-2222", "sphere-2342", "block-2342", "sphere-3242"],
    )
    def test_bytes_are_the_json_writers(self, domain, degree, copy):
        f = co.random_form(domain, degree, seed=17 + degree, copy=copy)
        assert co.serialize(f) == serialize_by_json(f)
        # values held as a strided view, and as a reversed one
        wide = np.zeros(f.values.shape[:-1] + (4,), dtype=np.complex128)
        wide[..., ::2] = f.values
        strided = co.Cochain.zeros(domain, degree, copy)
        strided.values = wide[..., ::2]
        assert co.serialize(strided) == serialize_by_json(f)
        strided.values = f.values[::-1, ..., ::-1, :]
        assert co.serialize(strided) == serialize_by_json(strided)

    def test_extreme_floats_are_the_json_writers(self):
        special = [0.0, 5e-324, 1.7976931348623157e308, np.inf, np.nan, 0.1, 1e16, 1e-7]
        flat = np.array([np.copysign(s, sign) for s in special for sign in (1.0, -1.0)])
        assert np.signbit(flat[1::2]).all()  # -0.0 and -NaN carry their sign bit
        for domain in (SPHERE, BLOCK):
            shape = co.Cochain.shape(domain, 1)
            # each value once, then random draws: every value beside every other as re/im
            data = np.random.default_rng(5).choice(flat, np.prod(shape) * 2)
            data[: flat.size] = flat
            f = co.Cochain(domain, 1, data.view(np.complex128).reshape(shape))
            payload = co.serialize(f)
            assert payload == serialize_by_json(f)
            assert b"-NaN" not in payload and b"-0.0" in payload and b"-Infinity" in payload

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=8 * 32))
    def test_any_floats_are_the_json_writers(self, xs):
        # arbitrary float64 re/im pairs, NaN and infinities included
        shape = co.Cochain.shape(SPHERE, 0)
        flat = np.zeros(np.prod(shape) * 2)
        flat[: len(xs)] = xs
        f = co.Cochain(SPHERE, 0, flat.view(np.complex128).reshape(shape))
        assert co.serialize(f) == serialize_by_json(f)

    def test_integer_beyond_the_float_range_is_malformed(self):
        doc = json.loads(co.serialize(_golden_form()))
        doc["data"][0][0][0] = 10**400
        with pytest.raises(co.MalformedFormError, match="bad data payload"):
            co.deserialize(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "entry", ["0", "0.0", None, True, False], ids=["string", "float-string", "null", "true", "false"]
    )
    def test_data_entries_must_be_json_numbers(self, entry):
        # a float64 conversion would read a string as its number, null as NaN
        # and true as 1.0; numpy folds a bool among numbers into a float array
        doc = json.loads(co.serialize(_golden_form()))
        doc["data"][0][0][0] = entry
        for encoding in ("utf-8", "utf-16"):
            with pytest.raises(co.MalformedFormError, match="bad data payload"):
                co.deserialize(json.dumps(doc).encode(encoding))
        with pytest.raises(co.MalformedFormError, match="bad data payload"):
            co.deserialize(json.dumps(doc))
        # the same entry beside an integer past int64, where numpy infers an object array
        doc["data"][1][0][0] = 2**70
        with pytest.raises(co.MalformedFormError, match="bad data payload"):
            co.deserialize(json.dumps(doc).encode())

    def test_integer_entries_parse_as_their_nearest_float(self):
        doc = json.loads(co.serialize(_golden_form()))
        big = (2**53 + 1, 2**64 - 1, 2**70 + 12345, -(2**63))
        for pos, v in enumerate(big):
            doc["data"][pos][0][0] = v
        g = co.deserialize(json.dumps(doc).encode())
        want = np.asarray(doc["data"], dtype=np.float64)
        assert np.ascontiguousarray(g.values).view(np.float64).reshape(want.shape).tobytes() == want.tobytes()
        # every entry an integer: numpy infers int64
        doc["data"] = [[[1, 0]] * 4 for _ in doc["data"]]
        assert (co.deserialize(json.dumps(doc).encode()).values == 1).all()

    @pytest.mark.parametrize("where", ["document", "data"])
    def test_deeply_nested_json_is_malformed(self, where):
        deep = "[" * 200_000 + "]" * 200_000
        payload = deep if where == "document" else co.serialize(_golden_form()).decode().replace(
            '"data": [', f'"data": [{deep}, ', 1)
        with pytest.raises(co.MalformedFormError, match="not valid JSON"):
            co.deserialize(payload.encode())

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_the_parse_pauses_the_gc_and_keeps_the_callers_state(self, enabled, monkeypatch):
        want = _golden_form().values
        good = co.serialize(_golden_form())
        payloads = {
            "good": good,
            "malformed": good[: len(good) // 2],
            "bool": good.replace(b"[[", b"[[true, ", 1),
            "deep": b"[" * 200_000 + b"]" * 200_000,
        }
        parsing = []
        loads = json.loads
        monkeypatch.setattr(co.json, "loads", lambda text: parsing.append(gc.isenabled()) or loads(text))
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            for name, payload in payloads.items():
                if name == "good":
                    assert np.array_equal(co.deserialize(payload).values, want)
                else:
                    with pytest.raises(co.MalformedFormError):
                        co.deserialize(payload)
                assert gc.isenabled() is enabled, name
        finally:
            (gc.enable if was else gc.disable)()
        assert parsing == [False] * len(payloads)

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_the_write_pauses_the_gc_and_keeps_the_callers_state(self, enabled, monkeypatch):
        want = (DATA / "golden_form.json").read_bytes()
        writing = []
        dumps = json.dumps

        def recording(obj, fail=False):
            writing.append(gc.isenabled())
            if fail:
                raise RuntimeError("planted")
            return dumps(obj)

        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            monkeypatch.setattr(co.json, "dumps", recording)
            assert co.serialize(_golden_form()) == want
            assert gc.isenabled() is enabled
            monkeypatch.setattr(co.json, "dumps", lambda obj: recording(obj, fail=True))
            with pytest.raises(RuntimeError, match="planted"):
                co.serialize(_golden_form())
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert writing and not any(writing)

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

    @pytest.mark.parametrize("n", [10**6, 10**18])
    def test_over_large_sizes_are_rejected_before_the_payload(self, n):
        # the expected payload count once wrapped in int64 (e.g. -2416630432054378496)
        doc = json.loads(co.serialize(_golden_form()))
        doc["sizes"] = [n] * 4
        with pytest.raises(co.FormShapeError, match="too large"):
            co.deserialize(json.dumps(doc).encode())

    def test_missing_field(self):
        import json

        doc = json.loads(co.serialize(_golden_form()))
        del doc["topology"]
        with pytest.raises(co.MalformedFormError):
            co.deserialize(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "field,value,error",
        [
            ("sizes", [2.5, 2, 2, 2], co.FormShapeError),
            ("sizes", ["2", 2, 2, 2], co.FormShapeError),
            ("degree", 1.9, co.FormShapeError),
            ("degree", "1", co.FormShapeError),
            ("degree", True, co.FormShapeError),
            ("version", True, co.FormVersionError),
            ("version", 1.0, co.FormVersionError),
        ],
        ids=["sizes-float", "sizes-string", "degree-float", "degree-string", "degree-bool",
             "version-bool", "version-float"],
    )
    def test_header_values_are_json_integers(self, tmp_path, field, value, error):
        # each spoiled value would coerce to the header of this very form
        doc = json.loads(co.serialize(co.random_connection(SPHERE, 0.2, seed=3)))
        doc[field] = value
        payload = json.dumps(doc).encode()
        with pytest.raises(error):
            co.deserialize(payload)
        form = tmp_path / "a.form.json"
        form.write_bytes(payload)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"connection": f"file:{form}"}))
        assert cli.main(["action", "--config", str(config)]) == 2

"""Tests for form storage, constructors, and the file format."""

import codecs
import contextlib
import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import interior_cells, random_form_by_sum, serialize_by_json, stored_cells
from ymdec import algebra as alg
from ymdec import cli
from ymdec import cochain as co
from ymdec.complex4 import BASE, CHART_V, CHART_VHAT, TILDE, Domain, axes_mask, shift

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

    @pytest.mark.parametrize("copy", [2, -1, 3])
    def test_copy_flag_outside_base_and_tilde_raises(self, copy):
        # as a degree outside 0..4 does; such a form once named no copy
        # in repr or serialize and went to copy ^ 1 under star
        with pytest.raises(ValueError, match="copy must be BASE or TILDE"):
            co.Cochain(SPHERE, 0, np.zeros(co.Cochain.shape(SPHERE, 0)), copy)
        with pytest.raises(ValueError, match="copy must be BASE or TILDE"):
            co.Cochain.zeros(SPHERE, 2, copy)

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

    @pytest.mark.parametrize(
        "domain",
        [BLOCK, SPHERE] + [Domain(s, t) for s in [(2, 3, 4, 2), (4, 4, 4, 4)] for t in ("block", "sphere")],
        ids=["block", "sphere", "block-2342", "sphere-2342", "block-4444", "sphere-4444"],
    )
    def test_halo_fill_is_an_edge_pad(self, domain):
        # the slab copies give the halo what an edge pad of the interior gives
        rng = np.random.default_rng(9)
        for trailing, dtype in [((4, 3), float), ((6, 2, 2), complex)]:
            draws = rng.uniform(-1.0, 1.0, size=(domain.ncharts, *domain.extents, *trailing)).astype(dtype)
            pad = [(0, 0)] + [(domain.halo,) * 2] * 4 + [(0, 0)] * len(trailing)
            want = np.pad(draws[domain.interior], pad, mode="edge")
            co._fill_halo_clamped(domain, draws)
            assert draws.tobytes() == want.tobytes()

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
    def test_dual_compatible_gauge_paired_shifts(self, domain):
        h = co.dual_compatible_gauge(domain, amplitude=1.0, seed=9)
        co.validate_gauge(h)
        pairs = [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]
        for chart, k in interior_cells(domain):
            for left, right in pairs:
                a = h.get(chart, shift(shift(k, left[0]), left[1]), 0)
                b = h.get(chart, shift(shift(k, right[0]), right[1]), 0)
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("amplitude", [0.1, 0.5, 1.0, 3.7, 1e-300, 1e300])
    def test_connection_draw_is_the_box_draw(self, amplitude):
        # the draw before the 2 * uniform(-a / 2, a / 2) form, whose interval
        # width overflowed from a ~ 9e307
        domain = Domain((4, 4, 4, 4), "sphere")
        vecs = np.random.default_rng(7).uniform(-amplitude, amplitude, size=(domain.ncharts, *domain.extents, 4, 3))
        want = co.Cochain(domain, 1, alg.embed_su2(vecs)).values
        assert co.random_connection(domain, amplitude, seed=7).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("degree", range(5))
    def test_sphere_form_draw_is_the_box_draw(self, degree):
        # no halo: the edge pad is empty and keeps the draws bit for bit
        domain = Domain((2, 3, 4, 2), "sphere")
        rng = np.random.default_rng(8)
        shape = co.Cochain.shape(domain, degree)
        want = rng.uniform(-1.0, 1.0, size=shape) + 1j * rng.uniform(-1.0, 1.0, size=shape)
        assert co.random_form(domain, degree, seed=8).values.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize(
        "domain",
        [Domain(s, t) for s in [(2, 3, 4, 2), (4, 4, 4, 4)] for t in ("sphere", "block")],
        ids=["sphere-2342", "block-2342", "sphere-4444", "block-4444"],
    )
    def test_form_draw_is_the_sum_of_draws(self, domain):
        # the two parts drawn straight into the layout keep every bit of
        # uniform + 1j * uniform, edge-padded and copied in by the constructor
        for degree in range(5):
            for copy in (BASE, TILDE):
                got = co.random_form(domain, degree, seed=40 + degree, copy=copy)
                want = random_form_by_sum(domain, degree, seed=40 + degree, copy=copy)
                assert got.copy == want.copy == copy
                assert np.ascontiguousarray(got.values).view(np.uint64).tobytes() == \
                    np.ascontiguousarray(want.values).view(np.uint64).tobytes()

    def test_zero_pad_support(self):
        f = co.random_form(Domain((3, 3, 3, 3), "block"), 1, seed=10)
        g = co.zero_pad(f)
        assert np.abs(g.values[:, 3:]).max() == 0
        assert np.abs(g.values[:, 0]).max() == 0
        np.testing.assert_array_equal(g.values[:, 1:3, 1:3, 1:3, 1:3], f.values[:, 1:3, 1:3, 1:3, 1:3])


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


def _with_rows(doc, *rows):
    """The golden form's document, its rows from the fourth on replaced by rows."""
    doc["data"][3:3 + len(rows)] = rows
    return json.dumps(doc).encode()


def _with_entry(good, text):
    """The golden form's payload with its first data entry written as text."""
    return good.replace(b'"data": [[[0.0', b'"data": [[[' + text.encode(), 1)


# payloads off or at the edge of serialize's layout: the payload from the
# golden form's bytes and document, the error it raises or None, and whether
# the row path reads it
_KEY = b', "data": ['
# 1 + 2**-53, exactly halfway between 1.0 and the next double
_HALFWAY = "1.00000000000000011102230246251565404236316680908203125"
_BAD = co.MalformedFormError
_OFF_LAYOUT = {
    "indent": (lambda good, doc: json.dumps(doc, indent=1).encode(), None, False),
    "compact-rows": (lambda good, doc: good.replace(b"]], [[", b"]],[["), None, True),
    "trailing-newline": (lambda good, doc: good + b"\n", None, True),
    "trailing-whitespace": (lambda good, doc: good + b" \t\r\n ", None, True),
    "data-first": (lambda good, doc: json.dumps({"data": doc.pop("data"), **doc}).encode(), None, False),
    "data-not-last": (lambda good, doc: json.dumps({**doc, "note": 1}).encode(), None, False),
    "data-duplicated": (lambda good, doc: good.replace(_KEY, _KEY + b"[[1.0, 2.0]]], " + _KEY[2:]), None, False),
    "data-in-the-header": (lambda good, doc: b'{"data": 5, ' + good[1:], None, False),
    "u-and-f-in-the-header": (lambda good, doc: b'{"note": "full", ' + good[1:], None, True),
    "empty-header": (lambda good, doc: b"{" + good[good.index(_KEY) :], _BAD, False),
    "key-escaped-in-a-string": (lambda good, doc: json.dumps({"note": _KEY.decode(), **doc}).encode(), None, True),
    "key-across-a-string-end": (lambda good, doc: good.replace(b'"base"' + _KEY, b'"base' + _KEY), _BAD, False),
    "utf-16": (lambda good, doc: good.decode().encode("utf-16"), None, False),
    "utf-8-bom": (lambda good, doc: codecs.BOM_UTF8 + good, None, True),
    "infinity": (lambda good, doc: _with_rows(doc, [[np.inf, 0.0]] * 4), None, False),
    "nan": (lambda good, doc: _with_rows(doc, [[np.nan, 0.0]] * 4), None, False),
    "integers": (lambda good, doc: json.dumps({**doc, "data": [[[1, 0]] * 4] * len(doc["data"])}).encode(),
                 None, True),
    "integers-in-one-row": (lambda good, doc: _with_rows(doc, [[1, 0]] * 4), None, True),
    "ragged-row": (lambda good, doc: _with_rows(doc, [[1.0, 0.0]] * 3), _BAD, False),
    # the rows' bracket skeleton with its commas broken: a number moved between two
    # pairs of one row, or across a row boundary (rows of 9 and 7 numbers), keeps
    # the numbers in their order, so a bracket-only guard would read them shifted
    "moved-between-pairs": (lambda good, doc: _with_rows(doc, [[1.0, 2.0, 3.0], [4.0], [5.0, 6.0], [7.0, 8.0]]),
                            _BAD, False),
    "moved-across-rows": (lambda good, doc: _with_rows(doc, [[1.0, 2.0]] * 3 + [[3.0, 4.0, 5.0]],
                                                       [[6.0, 7.0]] * 3 + [[8.0]]), _BAD, False),
    "empty-slot": (lambda good, doc: _with_entry(good, ""), _BAD, False),
    "doubled-comma": (lambda good, doc: _with_entry(good, "0.0,"), _BAD, False),
    # a number beside a bracket, outside every slot, keeps the skeleton once the
    # number bytes go, and would fuse with its neighbour once the brackets go;
    # a bracket moved over a number keeps the skeleton and the numbers alike
    "number-after-a-row": (lambda good, doc: good.replace(b"]], [[", b"]]e5, [[", 1), _BAD, False),
    "number-after-a-pair": (lambda good, doc: good.replace(b"], [", b"]9, [", 1), _BAD, False),
    "number-before-a-row": (lambda good, doc: good.replace(b"]], [[", b"]], 3[[", 1), _BAD, False),
    "number-before-a-pair": (lambda good, doc: good.replace(b"], [", b"], 3[", 1), _BAD, False),
    "bracket-moved-over-a-number": (lambda good, doc: good.replace(_KEY + b"[[0.0, 0.0]", _KEY + b"[[0.0, ]0.0", 1),
                                    _BAD, False),
    # entries the writer never emits: orjson rejects a number past the float
    # range, and its run goes to the whole-document parse
    "entry-upper-exponent": (lambda good, doc: _with_entry(good, "1E5"), None, True),
    "entry-signed-exponent": (lambda good, doc: _with_entry(good, "1e+5"), None, True),
    "entry-negative-zero-integer": (lambda good, doc: _with_entry(good, "-0"), None, True),
    "entry-20-digits": (lambda good, doc: _with_entry(good, "0.30000000000000004441"), None, True),
    "entry-40-digits": (lambda good, doc: _with_entry(good, "3.141592653589793238462643383279502884197"), None, True),
    "entry-halfway-to-even": (lambda good, doc: _with_entry(good, _HALFWAY), None, True),
    "entry-above-halfway": (lambda good, doc: _with_entry(good, _HALFWAY[:-1] + "6"), None, True),
    "entry-halfway-past-2**53": (lambda good, doc: _with_entry(good, "9007199254740993.0"), None, True),
    "entry-min-normal-edge": (lambda good, doc: _with_entry(good, "2.2250738585072011e-308"), None, True),
    "entry-above-half-min-subnormal": (lambda good, doc: _with_entry(good, "2.4703282292062328e-324"), None, True),
    "entry-rounds-to-infinity": (lambda good, doc: _with_entry(good, "1.7976931348623159e308"), None, False),
    "entry-2**63": (lambda good, doc: _with_entry(good, str(2**63)), None, True),
    "entry-2**64-1": (lambda good, doc: _with_entry(good, str(2**64 - 1)), None, True),
    "entry-2**64": (lambda good, doc: _with_entry(good, str(2**64)), None, True),
    "entry-2**70": (lambda good, doc: _with_entry(good, str(2**70)), None, True),
    "entry--2**63-1": (lambda good, doc: _with_entry(good, str(-(2**63) - 1)), None, True),
    "entry--2**70": (lambda good, doc: _with_entry(good, str(-(2**70))), None, True),
    "entry-10**400": (lambda good, doc: _with_entry(good, str(10**400)), _BAD, False),
}

# reads a payload from stdin as TestSerialization's fixture does (the
# whole-document parse, then the default run length and one row per run)
# and prints each outcome
_READ_IN_A_CHILD = """
import json, sys
from unittest import mock
from ymdec import cochain as co
payload, outcomes = sys.stdin.buffer.read(), []
for name, value in (("_read_rows", lambda payload: None), ("_CHUNK", co._CHUNK), ("_CHUNK", 1)):
    with mock.patch.object(co, name, value):
        try:
            co.deserialize(payload)
            outcomes.append(None)
        except ValueError as e:
            outcomes.append([type(e).__name__, str(e)])
print(json.dumps(outcomes))
"""


class TestSerialization:
    @pytest.fixture(autouse=True)
    def _row_path_agrees_with_the_document_parse(self, monkeypatch):
        """Every payload this class reads is read at the default _CHUNK and
        at one row per run, each outcome the whole-document parse's: the
        same values bit for bit, or the same error and message.  Every form
        it writes is written the same both ways."""
        deserialize, serialize = co.deserialize, co.serialize

        def outcome(payload, patch):
            with patch:
                try:
                    g = deserialize(payload)
                except ValueError as e:
                    return type(e), str(e)
            return g.domain, g.degree, g.copy, g.values.tobytes()

        def read(payload):
            want = outcome(payload, mock.patch.object(co, "_read_rows", lambda payload: None))
            assert outcome(payload, contextlib.nullcontext()) == want
            assert outcome(payload, mock.patch.object(co, "_CHUNK", 1)) == want
            return deserialize(payload)

        def write(f):
            payload = serialize(f)
            with mock.patch.object(co, "_CHUNK", 1):
                assert serialize(f) == payload
            return payload

        monkeypatch.setattr(co, "deserialize", read)
        monkeypatch.setattr(co, "serialize", write)

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

    def test_orjson_writes_json_tokens_in_its_range(self):
        # the writer hands the magnitudes in [1e-4, 1e16) to orjson: there it
        # must write float.__repr__'s token for every double
        rng = np.random.default_rng(40)
        lo, hi = 1e-4, 1e16
        # random mantissas at every binary exponent of the range
        exponents = np.repeat(np.arange(-14, 54), 1600)
        bits = (exponents + 1023).astype(np.uint64) << np.uint64(52)
        bits |= rng.integers(0, 1 << 52, exponents.size, dtype=np.uint64)
        xs = [bits.view(np.float64)]
        # integers, powers of two and their neighbours 1 ulp away
        xs.append(rng.integers(1, 10**16, 20000).astype(np.float64))
        xs.append(np.arange(1, 1 << 16).astype(np.float64))
        twos = np.ldexp(1.0, np.arange(-14, 54))
        xs += [twos, np.nextafter(twos, 0.0), np.nextafter(twos, np.inf)]
        # the 2 000 doubles from 1e-4 up and the 2 000 below 1e16
        up, down = [lo], [np.nextafter(hi, 0.0)]
        for _ in range(1999):
            up.append(np.nextafter(up[-1], np.inf))
            down.append(np.nextafter(down[-1], 0.0))
        xs += [np.array(up), np.array(down)]
        x = np.concatenate(xs)
        x = x[(x >= lo) & (x < hi)]
        assert x.size >= 100_000 and x.min() == lo and x.max() == np.nextafter(hi, 0.0)
        ours = co.orjson.dumps(x, option=co.orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
        assert ours == json.dumps(x.tolist())[1:-1].encode().split(b", ")

    @pytest.mark.parametrize("amplitude", [3e-4, 3e16])
    @pytest.mark.parametrize("domain", [SPHERE, Domain((3, 3, 3, 3), "block")], ids=["sphere-2", "block-3"])
    def test_bytes_at_the_formatters_range_ends_are_the_json_writers(self, domain, amplitude):
        # entries straddle 1e-4 or 1e16, and 1e16 itself and the doubles just
        # below 1e-4 sit in the data, with both signs
        f = co.random_connection(domain, amplitude, seed=3)
        below = [1e-4]
        for _ in range(100):
            below.append(np.nextafter(below[-1], 0.0))
        ends = np.array([1e16, np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf)] + below)
        flat = np.ascontiguousarray(f.values).view(np.float64).reshape(-1)
        flat[1::4][: 2 * ends.size] = np.concatenate((ends, -ends))
        f = co.Cochain(domain, 1, flat.view(np.complex128).reshape(f.values.shape))
        magnitudes = np.abs(flat[flat != 0])
        assert magnitudes.min() < 1e-4 <= magnitudes.max() and 1e16 in magnitudes
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

    @pytest.mark.parametrize("where", ["document", "data", "data-objects"])
    def test_deeply_nested_json_is_malformed(self, where):
        # read in a child process: orjson 3.8 overflows the C stack on such
        # nesting, which would end this process instead of failing the test
        deep = "[" * 200_000 + "]" * 200_000
        if where == "data-objects":
            deep = '{"a": ' * 200_000 + "0" + "}" * 200_000
        payload = deep if where == "document" else co.serialize(_golden_form()).decode().replace(
            '"data": [', f'"data": [{deep}, ', 1)
        env = dict(os.environ, PYTHONPATH=str(Path(co.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", _READ_IN_A_CHILD], input=payload.encode(),
                              capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, (proc.returncode, proc.stderr.decode())
        outcomes = json.loads(proc.stdout)
        assert outcomes[0][0] == "MalformedFormError" and outcomes[0][1].startswith("not valid JSON")
        assert outcomes == [outcomes[0]] * 3

    def test_random_bit_patterns_take_the_row_path_bit_for_bit(self):
        # > 10^5 doubles drawn as uniform 64-bit patterns, the non-finite ones
        # made finite by clearing the exponent's top bit
        domain = Domain((5, 5, 5, 5), "block")
        shape = co.Cochain.shape(domain, 2)
        bits = np.random.default_rng(29).integers(0, 1 << 64, size=np.prod(shape) * 2, dtype=np.uint64)
        bits[(bits >> np.uint64(52)) & np.uint64(0x7FF) == 0x7FF] ^= np.uint64(1 << 62)
        assert bits.size >= 10**5
        f = co.Cochain(domain, 2, bits.view(np.complex128).reshape(shape))
        payload = co.serialize(f)
        doc = co._read_rows(payload)
        assert doc is not None and doc["data"].tobytes() == bits.tobytes()
        assert np.ascontiguousarray(co.deserialize(payload).values).tobytes() == bits.tobytes()

    @pytest.mark.parametrize("chunk", [1, 1 << 12, co._CHUNK], ids=["row", "4K", "default"])
    def test_the_row_path_reads_serialized_forms(self, chunk, monkeypatch):
        f = co.random_form(Domain((3, 2, 4, 2), "sphere"), 2, seed=5)
        payload = co.serialize(f)
        monkeypatch.setattr(co, "_CHUNK", chunk)
        doc = co._read_rows(payload)
        assert doc is not None and doc["data"].tobytes() == np.ascontiguousarray(f.values).tobytes()

    @pytest.mark.parametrize("variant", list(_OFF_LAYOUT))
    def test_payloads_off_the_layout_read_as_the_whole_document(self, variant):
        # the class fixture compares each read with the whole-document parse
        make, error, rows = _OFF_LAYOUT[variant]
        good = co.serialize(_golden_form())
        payload = make(good, json.loads(good))
        assert (co._read_rows(payload) is not None) is rows
        if error is None:
            want = np.asarray(json.loads(payload)["data"], dtype=np.float64)
            got = co.deserialize(payload).values
            assert np.ascontiguousarray(got).view(np.float64).reshape(want.shape).tobytes() == want.tobytes()
        else:
            with pytest.raises(error):
                co.deserialize(payload)

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
        # the parser, the payload being read, whether the text is all of it and
        # the GC state at each json.loads and orjson.loads call
        parsing = []
        for parser in (co.json, co.orjson):
            monkeypatch.setattr(parser, "loads", lambda text, parser=parser, loads=parser.loads: parsing.append(
                (parser.__name__, name, text == payloads[name], gc.isenabled())) or loads(text))
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
        # each payload reaches the whole-document parse (good through the class
        # fixture), always with the GC off
        assert {name for _, name, whole, _ in parsing if whole} == set(payloads)
        assert not any(on for _, _, whole, on in parsing if whole)
        # orjson reads the runs of rows alone: a run holding true is json's
        assert {name for parser, name, _, _ in parsing if parser == "orjson"} == {"good"}

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


def test_the_codec_holds_a_bounded_multiple_of_the_values(monkeypatch):
    # a read holds the rows twice (its runs, then their concatenation) and a
    # write the text twice (its runs, then their join) beside a copy of the
    # values: ~2x and ~6x values.nbytes.  The whole-document parse and a
    # one-run write hold every entry as a Python object at once: ~13x.
    f = co.random_connection(Domain((8, 8, 8, 8), "block"), 0.5, seed=3)
    payload = co.serialize(f)
    bound = 8 * f.values.nbytes

    def peak(call, *args):
        tracemalloc.start()
        try:
            call(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(co.serialize, f) < bound
    assert peak(co.deserialize, payload) < bound
    monkeypatch.setattr(co, "_CHUNK", 1 << 62)
    assert peak(co.serialize, f) > bound
    monkeypatch.setattr(co, "_read_rows", lambda payload: None)
    assert peak(co.deserialize, payload) > bound

"""Matrix-valued discrete forms: dense storage, constructors, serialization.

A degree-p form stores one 2x2 complex matrix per (chart, multi-index,
direction set of degree p).  The file order is normative and cell-major:
chart-major, then k lexicographic, then direction sets by ascending
bitmask, then matrix entries row-major; Cochain.values indexes in that
order.  Memory is entry-major (see Cochain), so each (direction set,
entry) is one contiguous plane over the cells.  The stored range is
Domain's, k_i from 1 - halo to N_i + halo over every chart, and each
read and write resolves its address through Domain.resolve.

Randomized constructors use numpy's default_rng (PCG64), so a seed pins
the field exactly.
"""

from __future__ import annotations

import gc
import json
import numbers
import sys

import numpy as np
import orjson

from . import algebra as alg
from .complex4 import (
    BASE,
    MASKS_BY_DEGREE,
    TILDE,
    Domain,
    gauge_classes,
)

FILE_VERSION = 1
CELL_ORDERING = f"chart-major,k-lexicographic,mask-ascending,row-major/v{FILE_VERSION}"

COPY_NAMES = {BASE: "base", TILDE: "tilde"}
COPY_FLAGS = {v: k for k, v in COPY_NAMES.items()}

# largest su(2) / SU(2) deviation a validated connection or gauge may carry
MEMBERSHIP_TOL = 1e-10


class MalformedFormError(ValueError):
    """Payload is not a well-formed form file."""


class FormVersionError(ValueError):
    """Form file version is not supported."""


class FormShapeError(ValueError):
    """Form file metadata is inconsistent with its payload or the expected domain."""


class ValidationError(ValueError):
    """Coefficients fail the required algebra/group membership."""

    def __init__(self, message, deviation):
        super().__init__(f"{message} (max deviation {deviation:.3e})")


class Cochain:
    """A degree-p discrete form on one copy of the double complex.

    values has the logical shape (charts, k..., dirs, 2, 2) and is a view
    of a C-contiguous entry-major buffer (dirs, 2, 2, charts, k...), so
    values[..., d, i, j] is one contiguous plane over the cells and every
    operator runs on unit-stride data.  numpy keeps that memory order
    through elementwise results, empty_like, zeros_like and
    copy(order="K"); the constructor copies any other input into it.  A
    reshape or ravel of values is a copy, so writes into one are lost.
    """

    __slots__ = ("domain", "degree", "copy", "values")

    # the (dirs, 2, 2) axes are last in values and first in memory: the
    # transposes from values (charts, k1..k4, dirs, 2, 2) to memory and back
    _TO_PLANES = (5, 6, 7, 0, 1, 2, 3, 4)
    _TO_VALUES = (3, 4, 5, 6, 7, 0, 1, 2)

    def __init__(self, domain: Domain, degree: int, values, copy: int = BASE):
        if not 0 <= degree <= 4:
            raise ValueError("degree must be 0..4")
        if copy not in (BASE, TILDE):
            raise ValueError(f"copy must be BASE or TILDE, got {copy!r}")
        self.domain = domain
        self.degree = degree
        self.copy = copy
        expected = self.shape(domain, degree)
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape}, expected {expected}")
        planes = np.ascontiguousarray(values.transpose(self._TO_PLANES))
        self.values = planes.transpose(self._TO_VALUES)

    @staticmethod
    def shape(domain: Domain, degree: int) -> tuple:
        return (domain.ncharts, *domain.extents, len(MASKS_BY_DEGREE[degree]), 2, 2)

    @classmethod
    def zeros(cls, domain: Domain, degree: int, copy: int = BASE) -> "Cochain":
        shape = cls.shape(domain, degree)
        planes = np.zeros(shape[-3:] + shape[:-3], dtype=np.complex128)
        return cls(domain, degree, planes.transpose(cls._TO_VALUES), copy)

    def dir_index(self, mask: int) -> int:
        return MASKS_BY_DEGREE[self.degree].index(mask)

    def get(self, chart, k, mask):
        """Component at an address; resolves sphere gluing, reads block halo."""
        chart, k = self.domain.resolve(chart, k)
        idx = self.domain.storage_index(chart, k)
        return self.values[idx + (self.dir_index(mask),)]

    def set(self, chart, k, mask, matrix):
        chart, k = self.domain.resolve(chart, k)
        idx = self.domain.storage_index(chart, k)
        self.values[idx + (self.dir_index(mask),)] = matrix

    def like(self, values) -> "Cochain":
        return Cochain(self.domain, self.degree, values, self.copy)

    def __repr__(self):
        return (
            f"Cochain(degree={self.degree}, copy={COPY_NAMES[self.copy]}, "
            f"domain={self.domain.topology}{self.domain.sizes})"
        )


def _check_compatible(f: Cochain, g: Cochain):
    if f.domain != g.domain:
        raise ValueError("forms live on different domains")
    if f.degree != g.degree:
        raise ValueError(f"degree mismatch: {f.degree} vs {g.degree}")
    if f.copy != g.copy:
        raise ValueError("forms live on different copies of the complex")


def add(f: Cochain, g: Cochain) -> Cochain:
    _check_compatible(f, g)
    return f.like(f.values + g.values)


def sub(f: Cochain, g: Cochain) -> Cochain:
    _check_compatible(f, g)
    return f.like(f.values - g.values)


def scale(f: Cochain, s) -> Cochain:
    return f.like(f.values * s)


def conj_transpose_form(f: Cochain) -> Cochain:
    """Conjugate-transpose every coefficient."""
    return f.like(alg.conj_transpose(f.values))


def _fill_halo_clamped(domain: Domain, values):
    """Overwrite the halo of fresh draws (charts, k..., ...) in place with
    its nearest interior value, as an edge pad of the interior would: axis
    by axis, each halo slab from the slab inside it."""
    for axis in range(1, 5):
        lead = (slice(None),) * axis
        for t in reversed(range(domain.halo)):
            values[lead + (t,)] = values[lead + (t + 1,)]
            values[lead + (-1 - t,)] = values[lead + (-2 - t,)]


def zero_pad(f: Cochain) -> Cochain:
    """Zero every coefficient within one cell of the block boundary.

    Keeps the storage indices halo .. N_i - 1: the cells 1 <= k_i <= N_i - 1
    on the block, which makes all composite stencil identities exact on
    the stored range, and every cell on the sphere.
    """
    out = np.zeros_like(f.values)
    sl = (slice(None),) + tuple(slice(f.domain.halo, n) for n in f.domain.sizes)
    out[sl] = f.values[sl]
    return f.like(out)


def random_form(domain: Domain, degree: int, seed, copy=BASE) -> Cochain:
    """Random gl(2, C)-valued form; real and imaginary parts uniform in [-1, 1],
    drawn in the file order straight into the entry-major buffer the constructor keeps."""
    rng = np.random.default_rng(seed)
    shape = Cochain.shape(domain, degree)
    vals = np.empty(shape[-3:] + shape[:-3], dtype=np.complex128).transpose(Cochain._TO_VALUES)
    vals.real = rng.uniform(-1.0, 1.0, size=shape)
    vals.imag = rng.uniform(-1.0, 1.0, size=shape)
    _fill_halo_clamped(domain, vals)
    return Cochain(domain, degree, vals, copy)


def random_connection(domain: Domain, amplitude: float, seed) -> Cochain:
    """su(2)-valued degree-1 form with coefficient vectors uniform in a box."""
    if amplitude < 0:
        raise ValueError("amplitude must be >= 0")
    # -0.0 passes the check, and uniform(0.0, -0.0) rejects its interval
    amplitude = abs(amplitude)
    rng = np.random.default_rng(seed)
    shape = (domain.ncharts, *domain.extents, 4, 3)
    # uniform(-a, a) bit for bit at every normal a, but with a finite width up to a = max
    vecs = 2 * rng.uniform(-amplitude / 2, amplitude / 2, size=shape)
    _fill_halo_clamped(domain, vecs)
    return Cochain(domain, 1, alg.embed_su2(vecs), BASE)


def random_gauge(domain: Domain, seed) -> Cochain:
    """SU(2)-valued degree-0 form from exponentials of algebra vectors
    uniform in [-pi, pi]^3."""
    rng = np.random.default_rng(seed)
    shape = (domain.ncharts, *domain.extents, 1, 3)
    vecs = rng.uniform(-np.pi, np.pi, size=shape)
    _fill_halo_clamped(domain, vecs)
    return Cochain(domain, 0, alg.exp_su2(vecs), BASE)


def dual_compatible_gauge(domain: Domain, amplitude, seed) -> Cochain:
    """SU(2) gauge drawn as one row per class of complex4.gauge_classes, so it
    meets the three paired-shift conditions of complex4.SHIFT_PAIRS."""
    classes, count = gauge_classes(domain)
    rng = np.random.default_rng(seed)
    table = alg.exp_su2(rng.uniform(-amplitude, amplitude, size=(count, 3)))
    return Cochain(domain, 0, table[classes].reshape(Cochain.shape(domain, 0)), BASE)


def _require_finite(f: Cochain):
    # NaN compares false against every tolerance, so the deviation tests
    # below would let it through
    if not np.isfinite(f.values).all():
        raise ValidationError("coefficients are not finite", float("inf"))


def validate_connection(f: Cochain) -> Cochain:
    """Check a degree-1 form is finite and su(2)-valued; returns it unchanged."""
    if f.degree != 1:
        raise ValidationError("connection must have degree 1", 0.0)
    _require_finite(f)
    dev = alg.su2_algebra_deviation(f.values)
    if dev > MEMBERSHIP_TOL * max(1.0, np.abs(f.values).max()):
        raise ValidationError("coefficients are not su(2)", dev)
    return f


def validate_gauge(f: Cochain) -> Cochain:
    """Check a degree-0 form is finite and SU(2)-valued; returns it unchanged."""
    if f.degree != 0:
        raise ValidationError("gauge field must have degree 0", 0.0)
    _require_finite(f)
    dev = alg.su2_group_deviation(f.values)
    if dev > MEMBERSHIP_TOL:
        raise ValidationError("coefficients are not SU(2)", dev)
    return f


# one matrix of the data array: its four entries row-major as [re, im]
_ROW = b"[[%s, %s], [%s, %s], [%s, %s], [%s, %s]]"
# the data rows follow _DATA_KEY in serialize's layout; the codec reads and writes
# ~_CHUNK bytes of them at a time, so its transient objects are bounded
_DATA_KEY = b', "data": ['
_CHUNK = 1 << 18
_AS_ZERO = bytes.maketrans(b"0123456789.eE+-", b"0" * 15)
_SKELETON = _ROW.replace(b"%s", b"").replace(b" ", b"") + b","


def serialize(f: Cochain) -> bytes:
    """JSON encoding over the normative component order, read from a
    cell-major copy of the values; each matrix is its four entries
    row-major as [re, im] pairs, which is complex128's memory layout.

    The bytes are json.dumps' bytes of the document with "data" last.  The
    rows are written a run at a time; in each run, each distinct magnitude
    is formatted once and signed where its sign bit is set; json writes NaN
    unsigned.  In [1e-4, 1e16) float.__repr__, and so json, writes the
    shortest round-trip digits positionally, as orjson does, so orjson
    formats those; json formats the rest (0, magnitudes below 1e-4, 1e16
    and up, Infinity and NaN), where the two differ (8e-05 against
    0.00008, 1e+16 against 1e16, NaN against null).
    """
    header = json.dumps({
        "version": FILE_VERSION,
        "topology": f.domain.topology,
        "sizes": list(f.domain.sizes),
        "degree": f.degree,
        "copy": COPY_NAMES[f.copy],
    })
    flat = np.ascontiguousarray(f.values).view(np.float64).ravel()
    step = 8 * (_CHUNK // 150 + 1)  # a row of full-precision doubles is ~150 bytes
    data = b", ".join(_format_rows(flat[s:s + step]) for s in range(0, flat.size, step))
    return b"".join((header[:-1].encode(), _DATA_KEY, data, b"]}"))


def _format_rows(flat) -> bytes:
    """The data text of whole rows, given as their flat float64 entries."""
    magnitudes, inverse = np.unique(np.abs(flat), return_inverse=True)
    # sorted, NaN last: the magnitudes below 1e-4, those in range, the rest;
    # split() drops the empty text of an empty group
    lo, hi = np.searchsorted(magnitudes, (1e-4, 1e16))
    text = b" ".join((
        json.dumps(magnitudes[:lo].tolist())[1:-1].encode(),
        orjson.dumps(magnitudes[lo:hi], option=orjson.OPT_SERIALIZE_NUMPY)[1:-1],
        json.dumps(magnitudes[hi:].tolist())[1:-1].encode(),
    )).replace(b",", b" ").split()
    tokens = np.array(text + [b"-" + t for t in text], dtype=object)
    signed = np.signbit(flat) & ~np.isnan(flat)
    entries = tokens[inverse + len(text) * signed].tolist()
    return b", ".join([_ROW] * (flat.size // 8)) % tuple(entries)


def is_json_int(v) -> bool:
    """True for a JSON integer: an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _may_hold_bool(payload) -> bool:
    """False only when JSON text, str or bytes, has no true or false literal.

    Both literals hold a u or an f, and in UTF-8, -16 and -32 alike an
    ASCII letter is one byte of the text.  No header key or value of a form
    file and no number holds either letter, so a clean file costs two
    memchr scans; other text with one of them takes the exact check.
    """
    letters = ("u", "f") if isinstance(payload, str) else (b"u", b"f")
    return any(c in payload for c in letters)


def is_finite_real(v) -> bool:
    """True for a real number, not a bool, in the finite float range."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _read_rows(payload):
    """The document of a payload in serialize's layout (a header object,
    _DATA_KEY, rows split by "]], [[", then "]]]}" and JSON whitespace), its
    data read a run at a time as a float64 (rows, 4, 2) array; else None.
    When the header parses as a non-empty object and each run as rows, JSON's
    grammar makes the payload that object with "data" the rows.

    A run is rows when, less its whitespace and with number bytes read as 0s
    (_AS_ZERO), it holds no "]0" or "0[", where a number would fuse with its
    neighbour, and less its 0s is one _SKELETON per row bar the last comma.
    orjson parses it less its brackets as one flat list (no literal, string or
    nesting, on which orjson 3.8 overflows the C stack); it rejects an empty
    slot, two numbers in one and a number past the float range, and reads
    every other one to json's float."""
    if not isinstance(payload, bytes):
        return None
    i, stop = payload.find(_DATA_KEY), len(payload.rstrip(b" \t\n\r")) - 2
    if i < 0 or not payload.endswith(b"]]]}", 0, stop + 2):
        return None
    start, runs = i + len(_DATA_KEY), []
    try:
        doc = json.loads(payload[:i] + b"}")
        # an empty header leaves "{, " (no JSON); a "data" key in it is a duplicate
        if not isinstance(doc, dict) or not doc or "data" in doc:
            return None
        while start < stop:
            cut = payload.find(b"]], [[", start + _CHUNK, stop)
            cut = stop if cut < 0 else cut + 2
            run = payload[start:cut]
            marks = run.translate(_AS_ZERO, b" \t\n\r")
            skeleton, m = marks.translate(None, b"0") + b",", np.frombuffer(marks, np.uint8)
            # numpy finds "]0" and "0[" ~15x faster than bytes.find does among runs of 0s
            fused = (m[:-1] == ord("]")) & (m[1:] == ord("0")) | (m[:-1] == ord("0")) & (m[1:] == ord("["))
            if fused.any() or skeleton != _SKELETON * (len(skeleton) // len(_SKELETON)):
                return None
            runs.append(np.array(orjson.loads(b"[" + run.translate(None, b"[]") + b"]"), dtype=np.float64))
            start = cut + 2
        doc["data"] = np.concatenate(runs).reshape(-1, 4, 2)
    except (ValueError, RecursionError):
        return None
    return doc


def deserialize(payload: bytes) -> Cochain:
    """The form in a form file's bytes or text: read by _read_rows in
    serialize's layout, else by the reference, json.loads of the whole document
    with the cyclic GC paused.  Raises MalformedFormError for text that is not
    a form file's JSON, FormVersionError for a version other than FILE_VERSION
    and FormShapeError for a header or data count that fits no form."""
    doc = _read_rows(payload)
    if doc is None:
        enabled = gc.isenabled()
        gc.disable()  # json.loads makes five lists per row, which the cyclic GC would walk
        try:
            doc = json.loads(payload)
        except (ValueError, RecursionError) as e:  # RecursionError: nested too deep
            raise MalformedFormError(f"not valid JSON: {e}") from e
        finally:
            if enabled:
                gc.enable()
    if not isinstance(doc, dict):
        raise MalformedFormError("top-level value must be an object")
    for key in ("version", "topology", "sizes", "degree", "copy", "data"):
        if key not in doc:
            raise MalformedFormError(f"missing field {key!r}")
    if not is_json_int(doc["version"]) or doc["version"] != FILE_VERSION:
        raise FormVersionError(f"unsupported version {doc['version']!r}")
    if not isinstance(doc["copy"], str) or doc["copy"] not in COPY_FLAGS:
        raise MalformedFormError(f"unknown copy flag {doc['copy']!r}")
    degree = doc["degree"]
    if not is_json_int(degree) or not 0 <= degree <= 4:
        raise FormShapeError(f"degree must be an integer 0..4, got {degree!r}")
    try:
        domain = Domain(doc["sizes"], doc["topology"])
    except (ValueError, TypeError) as e:
        raise FormShapeError(str(e)) from e
    shape = Cochain.shape(domain, degree)
    try:
        pairs = np.asarray(doc["data"])
        # numpy folds a bool among numbers into a numeric array, so the entries
        # of the whole-document parse are read one by one when the text may
        # hold one; the row path's guard admits no literal
        if isinstance(doc["data"], list) and pairs.dtype.kind in "iuf" and _may_hold_bool(payload):
            pairs = np.asarray(doc["data"], dtype=object)
        # JSON numbers only: a float64 conversion reads "0" as 0.0, null as
        # NaN and true as 1.0
        if pairs.dtype.kind not in "iuf" and not (pairs.dtype == object and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in pairs.flat
        )):
            raise TypeError("entries must be JSON numbers")
        pairs = pairs.astype(np.float64, copy=False)
    except (ValueError, TypeError, OverflowError) as e:  # OverflowError: an int past the float range
        raise MalformedFormError(f"bad data payload: {e}") from e
    # Domain bounds the storage, so this count fits an array index
    expected = (domain.ncells * len(MASKS_BY_DEGREE[degree]), 4, 2)
    if pairs.shape != expected:
        raise FormShapeError(f"payload has shape {pairs.shape}, expected {expected}")
    return Cochain(domain, degree, pairs.view(np.complex128).reshape(shape), COPY_FLAGS[doc["copy"]])

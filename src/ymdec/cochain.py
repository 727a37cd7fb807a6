"""Matrix-valued discrete forms: dense storage, constructors, serialization.

A degree-p form stores one 2x2 complex matrix per (chart, multi-index,
direction set of degree p).  Storage layout (normative for files):
chart-major, then k lexicographic, then direction sets by ascending
bitmask, then matrix entries row-major.  On the block the stored range
includes the width-1 halo (indices 0 .. N_i + 1); on the sphere it is
1 .. N_i over both charts and every read resolves through the gluing.

Randomized constructors use numpy's default_rng (PCG64), so a seed pins
the field exactly.
"""

from __future__ import annotations

import json

import numpy as np

from . import algebra as alg
from .complex4 import (
    BASE,
    MASKS_BY_DEGREE,
    TILDE,
    Domain,
)

FILE_VERSION = 1

COPY_NAMES = {BASE: "base", TILDE: "tilde"}
COPY_FLAGS = {v: k for k, v in COPY_NAMES.items()}


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
        self.deviation = deviation


class Cochain:
    """A degree-p discrete form on one copy of the double complex."""

    __slots__ = ("domain", "degree", "copy", "values")

    def __init__(self, domain: Domain, degree: int, values, copy: int = BASE):
        if not 0 <= degree <= 4:
            raise ValueError("degree must be 0..4")
        self.domain = domain
        self.degree = degree
        self.copy = copy
        expected = self.shape(domain, degree)
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape}, expected {expected}")
        self.values = values

    @staticmethod
    def shape(domain: Domain, degree: int) -> tuple:
        return (domain.ncharts, *domain.extents, len(MASKS_BY_DEGREE[degree]), 2, 2)

    @classmethod
    def zeros(cls, domain: Domain, degree: int, copy: int = BASE) -> "Cochain":
        return cls(domain, degree, np.zeros(cls.shape(domain, degree)), copy)

    @property
    def masks(self) -> tuple:
        return MASKS_BY_DEGREE[self.degree]

    def dir_index(self, mask: int) -> int:
        return self.masks.index(mask)

    def get(self, chart, k, mask):
        """Component at an address; resolves sphere gluing, reads block halo."""
        chart, k = self.domain.resolve(chart, k)
        idx = self.domain.storage_index(chart, k)
        return self.values[idx + (self.dir_index(mask),)]

    def set(self, chart, k, mask, matrix):
        chart, k = self.domain.resolve(chart, k)
        idx = self.domain.storage_index(chart, k)
        self.values[idx + (self.dir_index(mask),)] = matrix

    def copy_form(self) -> "Cochain":
        return Cochain(self.domain, self.degree, self.values.copy(), self.copy)

    def like(self, values, degree=None, copy=None) -> "Cochain":
        return Cochain(
            self.domain,
            self.degree if degree is None else degree,
            values,
            self.copy if copy is None else copy,
        )

    def __repr__(self):
        return (
            f"Cochain(degree={self.degree}, copy={COPY_NAMES[self.copy]}, "
            f"domain={self.domain.topology}{self.domain.sizes})"
        )


def _check_compatible(f: Cochain, g: Cochain, same_degree=True):
    if f.domain != g.domain:
        raise ValueError("forms live on different domains")
    if same_degree and f.degree != g.degree:
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


def map_coeffs(f: Cochain, fn) -> Cochain:
    """Apply fn to the stacked coefficient array (broadcast over cells)."""
    return f.like(np.asarray(fn(f.values), dtype=np.complex128))


def conj_transpose_form(f: Cochain) -> Cochain:
    """Conjugate-transpose every coefficient."""
    return f.like(alg.conj_transpose(f.values))


def interior(domain: Domain):
    """Slices selecting cells with 1 <= k_i <= N_i in a stored array."""
    if domain.is_sphere:
        return (slice(None),) * 5
    return (slice(None),) + tuple(slice(1, n + 1) for n in domain.sizes)


def _fill_halo_clamped(domain: Domain, values):
    """Copy the nearest interior value into the block halo (edge padding)."""
    if domain.is_sphere:
        return values
    inner = values[interior(domain)]
    pad = [(0, 0)] + [(1, 1)] * 4 + [(0, 0)] * (values.ndim - 5)
    return np.pad(inner, pad, mode="edge")


def zero_pad(f: Cochain, width: int = 1) -> Cochain:
    """Zero every coefficient within `width` cells of the block boundary.

    Keeps cells with 1 <= k_i <= N_i - width only, which makes all composite
    stencil identities exact on the stored range.  No-op on the sphere.
    """
    if f.domain.is_sphere:
        return f.copy_form()
    out = np.zeros_like(f.values)
    sl = (slice(None),) + tuple(slice(1, n + 1 - width) for n in f.domain.sizes)
    out[sl] = f.values[sl]
    return f.like(out)


def random_form(domain: Domain, degree: int, seed, amplitude=1.0, copy=BASE) -> Cochain:
    """Random gl(2, C)-valued form; entries uniform complex in a box."""
    rng = np.random.default_rng(seed)
    shape = Cochain.shape(domain, degree)
    vals = rng.uniform(-amplitude, amplitude, size=shape) + 1j * rng.uniform(
        -amplitude, amplitude, size=shape
    )
    vals = _fill_halo_clamped(domain, vals)
    return Cochain(domain, degree, vals, copy)


def random_connection(domain: Domain, amplitude: float, seed) -> Cochain:
    """su(2)-valued degree-1 form with coefficient vectors uniform in a box."""
    if amplitude < 0:
        raise ValueError("amplitude must be >= 0")
    rng = np.random.default_rng(seed)
    shape = (domain.ncharts, *domain.extents, 4, 3)
    vecs = rng.uniform(-amplitude, amplitude, size=shape)
    vecs = _fill_halo_clamped(domain, vecs)
    return Cochain(domain, 1, alg.embed_su2(vecs), BASE)


def random_gauge(domain: Domain, seed, amplitude=np.pi) -> Cochain:
    """SU(2)-valued degree-0 form from exponentials of random algebra vectors."""
    rng = np.random.default_rng(seed)
    shape = (domain.ncharts, *domain.extents, 1, 3)
    vecs = rng.uniform(-amplitude, amplitude, size=shape)
    vecs = _fill_halo_clamped(domain, vecs)
    return Cochain(domain, 0, alg.exp_su2(vecs), BASE)


def sum_profile_gauge(domain: Domain, amplitude=1.0, seed=0) -> Cochain:
    """SU(2) gauge whose coefficient depends only on k1+k2+k3+k4.

    Such gauges satisfy the three paired-double-shift conditions
    h(tau_12 k) = h(tau_34 k), h(tau_13 k) = h(tau_24 k), h(tau_14 k) =
    h(tau_23 k) at every cell.  On the sphere the gluing additionally
    forces the profile to be 2N-periodic with an N-offset between charts,
    which requires all sizes equal.
    """
    rng = np.random.default_rng(seed)
    vals = np.zeros(Cochain.shape(domain, 0), dtype=np.complex128)
    if domain.is_sphere:
        n = domain.sizes[0]
        if any(s != n for s in domain.sizes):
            raise ValueError("sum-profile gauge on the sphere needs equal sizes")
        table = alg.exp_su2(rng.uniform(-amplitude, amplitude, size=(2 * n, 3)))
        for chart, k in domain.interior_cells():
            s = (sum(k) + chart * n) % (2 * n)
            vals[domain.storage_index(chart, k) + (0,)] = table[s]
    else:
        smax = sum(n + 1 for n in domain.sizes)
        table = alg.exp_su2(rng.uniform(-amplitude, amplitude, size=(smax + 1, 3)))
        for _, k in domain.stored_cells():
            vals[domain.storage_index(0, k) + (0,)] = table[sum(k)]
    return Cochain(domain, 0, vals, BASE)


def _require_finite(f: Cochain):
    # NaN compares false against every tolerance, so the deviation tests
    # below would let it through
    if not np.isfinite(f.values).all():
        raise ValidationError("coefficients are not finite", float("inf"))


def validate_connection(f: Cochain, tol=1e-10) -> Cochain:
    """Check a degree-1 form is finite and su(2)-valued; returns it unchanged."""
    if f.degree != 1:
        raise ValidationError("connection must have degree 1", 0.0)
    _require_finite(f)
    dev = alg.su2_algebra_deviation(f.values)
    if dev > tol * max(1.0, np.abs(f.values).max()):
        raise ValidationError("coefficients are not su(2)", dev)
    return f


def validate_gauge(f: Cochain, tol=1e-10) -> Cochain:
    """Check a degree-0 form is finite and SU(2)-valued; returns it unchanged."""
    if f.degree != 0:
        raise ValidationError("gauge field must have degree 0", 0.0)
    _require_finite(f)
    dev = alg.su2_group_deviation(f.values)
    if dev > tol:
        raise ValidationError("coefficients are not SU(2)", dev)
    return f


def serialize(f: Cochain) -> bytes:
    """JSON encoding over the normative component order."""
    flat = f.values.reshape(-1, 2, 2)
    data = alg.matrix_to_pairs(flat).tolist()
    doc = {
        "version": FILE_VERSION,
        "topology": f.domain.topology,
        "sizes": list(f.domain.sizes),
        "degree": f.degree,
        "copy": COPY_NAMES[f.copy],
        "data": data,
    }
    return json.dumps(doc).encode()


def deserialize(payload: bytes) -> Cochain:
    try:
        doc = json.loads(payload)
    except (ValueError, UnicodeDecodeError) as e:
        raise MalformedFormError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise MalformedFormError("top-level value must be an object")
    for key in ("version", "topology", "sizes", "degree", "copy", "data"):
        if key not in doc:
            raise MalformedFormError(f"missing field {key!r}")
    if doc["version"] != FILE_VERSION:
        raise FormVersionError(f"unsupported version {doc['version']!r}")
    if doc["copy"] not in COPY_FLAGS:
        raise MalformedFormError(f"unknown copy flag {doc['copy']!r}")
    try:
        domain = Domain(tuple(doc["sizes"]), doc["topology"])
        degree = int(doc["degree"])
        shape = Cochain.shape(domain, degree)
    except (ValueError, TypeError) as e:
        raise FormShapeError(str(e)) from e
    try:
        pairs = np.asarray(doc["data"], dtype=np.float64)
    except (ValueError, TypeError) as e:
        raise MalformedFormError(f"bad data payload: {e}") from e
    if pairs.shape != (int(np.prod(shape[:-2])), 4, 2):
        raise FormShapeError(
            f"payload has shape {pairs.shape}, expected {(int(np.prod(shape[:-2])), 4, 2)}"
        )
    values = alg.matrix_from_pairs(pairs).reshape(shape)
    return Cochain(domain, degree, values, COPY_FLAGS[doc["copy"]])

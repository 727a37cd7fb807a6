"""Combinatorial geometry of the 4-dimensional double complex.

Cells of the product complex are addressed by a chart (one block, or the
two glued blocks of the combinatorial 4-sphere), a multi-index
k = (k1, k2, k3, k4), and a direction set P in {1,2,3,4} marking which
tensor factors are 1-dimensional.  Direction sets are stored as bitmasks
(axis i <-> bit i-1).  Each cell additionally carries a copy flag (base
complex vs its mirror copy), which the star operator toggles.

The boundary of a cell is a plain {cell: coefficient} dict; the boundary
operator is read once per stored cell into cached integer arrays.  All
topology arithmetic is exact (no floats).
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

AXES = (1, 2, 3, 4)
FULL_MASK = 0b1111

BASE = 0
TILDE = 1

CHART_V = 0
CHART_VHAT = 1


class OutOfDomain(Exception):
    """Address cannot be resolved to a stored cell."""


def degree(mask: int) -> int:
    return bin(mask).count("1")


def mask_axes(mask: int) -> tuple:
    """Axes of a direction-set bitmask, ascending."""
    return tuple(i for i in AXES if mask & (1 << (i - 1)))


def axes_mask(axes) -> int:
    m = 0
    for i in axes:
        m |= 1 << (i - 1)
    return m


# direction sets of each degree, ascending bitmask (normative ordering)
MASKS_BY_DEGREE = tuple(
    tuple(m for m in range(16) if degree(m) == p) for p in range(5)
)


def cup_sign(pmask: int, qmask: int) -> int:
    """Sign (-1)^m, m = #{(i, j): i in P, j in Q, j < i}.

    Closed form of the recursive product sign: a -1 for every pair where a
    1-dimensional factor of the left operand sits to the right of one of
    the right operand.
    """
    m = 0
    for i in mask_axes(pmask):
        m += degree(qmask & ((1 << (i - 1)) - 1))
    return -1 if m & 1 else 1


def perm_sign(pmask: int) -> int:
    """Parity of the permutation (P ascending, complement ascending) of (1,2,3,4)."""
    return cup_sign(pmask, FULL_MASK ^ pmask)


PERM_SIGN = tuple(perm_sign(m) for m in range(16))


class Cell(NamedTuple):
    chart: int
    k: tuple
    mask: int
    copy: int = BASE


def shift(k: tuple, axis: int) -> tuple:
    """Move the multi-index one step up an axis (tau)."""
    out = list(k)
    out[axis - 1] += 1
    return tuple(out)


@dataclass(frozen=True)
class Domain:
    """Lattice sizes plus topology ("block" or "sphere").

    Block: a single chart V; storage carries a width-1 halo, indices
    0 .. N_i + 1 per axis.  Sphere: two charts V, Vhat glued along their
    boundaries; storage covers 1 .. N_i and every out-by-one address
    resolves into the other chart.  Construction is the one check of a
    valid lattice (four integer sizes >= 2, never coerced, a known
    topology, the storage limit); it raises TypeError or ValueError.
    """

    sizes: tuple
    topology: str = "block"

    def __post_init__(self):
        given = self.sizes
        try:
            object.__setattr__(self, "sizes", tuple(operator.index(n) for n in given))
        except TypeError as e:
            raise TypeError(f"sizes must be four integers >= 2, got {given!r}") from e
        if len(self.sizes) != 4 or any(n < 2 for n in self.sizes):
            raise ValueError(f"sizes must be four integers >= 2, got {given!r}")
        if self.topology not in ("block", "sphere"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.ncells * 6 * 4 * 16 > sys.maxsize:  # 2-form: 6 x 2x2 complex128 per cell
            raise ValueError(f"sizes {given!r} are too large: a 2-form exceeds the largest array")

    @property
    def is_sphere(self) -> bool:
        return self.topology == "sphere"

    @property
    def ncharts(self) -> int:
        return 2 if self.is_sphere else 1

    @property
    def extents(self) -> tuple:
        """Stored index count per axis."""
        if self.is_sphere:
            return self.sizes
        return tuple(n + 2 for n in self.sizes)

    @property
    def ncells(self) -> int:
        """Stored cells over all charts."""
        return self.ncharts * math.prod(self.extents)

    def resolve(self, chart: int, k: tuple):
        """Resolve an address to its stored representative.

        Sphere gluing, per axis: k_i = 0 lands at N_i in the other chart,
        k_i = N_i + 1 lands at 1 in the other chart; toggles compose by
        parity across axes.  Block: identity on the halo-extended range.
        Raises OutOfDomain outside 0 .. N_i + 1 on either topology.
        """
        if self.is_sphere:
            kk = list(k)
            for i, n in enumerate(self.sizes):
                if kk[i] == 0:
                    kk[i] = n
                    chart ^= 1
                elif kk[i] == n + 1:
                    kk[i] = 1
                    chart ^= 1
                elif not 1 <= kk[i] <= n:
                    raise OutOfDomain(f"index {tuple(k)} outside sphere range")
            return chart, tuple(kk)
        if chart != CHART_V:
            raise OutOfDomain("block topology has a single chart")
        for ki, n in zip(k, self.sizes):
            if not 0 <= ki <= n + 1:
                raise OutOfDomain(f"index {tuple(k)} outside block halo")
        return chart, tuple(k)

    def storage_index(self, chart: int, k: tuple) -> tuple:
        """Array index of a resolved address."""
        if self.is_sphere:
            return (chart,) + tuple(ki - 1 for ki in k)
        return (chart,) + tuple(k)

    def interior_cells(self):
        """(chart, k) pairs with 1 <= k_i <= N_i, chart-major, k lexicographic."""
        return [
            (chart, k)
            for chart in range(self.ncharts)
            for k in itertools.product(*(range(1, n + 1) for n in self.sizes))
        ]

    def stored_cells(self):
        """(chart, k) pairs over the whole stored range (halo included on block)."""
        if self.is_sphere:
            return self.interior_cells()
        return [
            (CHART_V, k)
            for k in itertools.product(*(range(n + 2) for n in self.sizes))
        ]


def boundary_cell(domain: Domain, cell: Cell) -> dict:
    """Boundary of a basis cell as {cell: coefficient}.

    For a cell with direction axes i1 < i2 < ... the i-th axis contributes
    (-1)^(number of direction axes before i) * (cell at tau_i k minus cell
    at k), each with the axis dropped from the direction set.  No two terms
    share a cell, so none cancel.  Output cells are address-resolved, k
    once and each tau_i k once; 0-cells have empty boundary.
    """
    out = {}
    lo_chart, lo_k = domain.resolve(cell.chart, cell.k)
    for pos, i in enumerate(mask_axes(cell.mask)):
        sign = -1 if pos & 1 else 1
        sub = cell.mask & ~(1 << (i - 1))
        up_chart, up_k = domain.resolve(cell.chart, shift(cell.k, i))
        out[Cell(up_chart, up_k, sub, cell.copy)] = sign
        out[Cell(lo_chart, lo_k, sub, cell.copy)] = -sign
    return out


@lru_cache(maxsize=None)
def boundary_arrays(domain: Domain, p: int):
    """(row, col, coeff): the boundary of the degree-p cells as integer COO.

    Rows index flat (stored cell, degree-p direction set), columns flat
    (stored cell, degree-(p-1) direction set), stored cells in storage
    order, so rows ascend.  Built by one boundary_cell call per stored cell
    and direction set, so the vectorized shifts these arrays check never
    enter them.  On the block a cell whose boundary leaves the halo raises
    OutOfDomain and gets no row.  Cached per domain and degree; read-only.
    """
    if not 1 <= p <= 4:
        raise ValueError("degree out of range")
    masks = MASKS_BY_DEGREE[p]
    sub_index = {m: i for i, m in enumerate(MASKS_BY_DEGREE[p - 1])}
    cells = domain.stored_cells()
    position = {ck: n for n, ck in enumerate(cells)}
    rows, cols, coeffs = [], [], []
    for n, (chart, k) in enumerate(cells):
        for d, mask in enumerate(masks):
            try:
                terms = boundary_cell(domain, Cell(chart, k, mask)).items()
            except OutOfDomain:
                continue
            for cell, coeff in terms:
                rows.append(n * len(masks) + d)
                cols.append(position[cell.chart, cell.k] * len(sub_index) + sub_index[cell.mask])
                coeffs.append(coeff)
    out = (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
           np.array(coeffs, dtype=np.int64))
    for a in out:
        a.setflags(write=False)
    return out


def star_cell(cell: Cell):
    """Chain-level star: (sign, mirrored cell with complementary directions)."""
    return PERM_SIGN[cell.mask], Cell(
        cell.chart, cell.k, FULL_MASK ^ cell.mask, cell.copy ^ 1
    )

"""Combinatorial geometry of the 4-dimensional double complex.

Cells of the product complex are addressed by a chart (one block, or the
two glued blocks of the combinatorial 4-sphere), a multi-index
k = (k1, k2, k3, k4), and a direction set P in {1,2,3,4} marking which
tensor factors are 1-dimensional.  Direction sets are stored as bitmasks
(axis i <-> bit i-1).  Each cell additionally carries a copy flag (base
complex vs its mirror copy), which the star operator toggles.

The boundary of a cell is a plain {cell: coefficient} dict; its terms are
read once per direction set and laid over the stored cells, through the
Domain.resolve neighbours, into cached integer arrays.  All topology
arithmetic is exact (no floats).
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

    Block: a single chart V.  Sphere: two charts V, Vhat glued along their
    boundaries, so every out-by-one address resolves into the other chart.
    Both store one rule: per axis, stored k runs from 1 - halo to
    N_i + halo and sits at array index k - 1 + halo, where the halo width
    is 1 on the block and 0 on the sphere.  Construction is the one check
    of a valid lattice (four integer sizes >= 2, never coerced, a known
    topology, the storage limit); it raises TypeError or ValueError.

    Construction also sets the storage facts once, as plain attributes
    outside the dataclass fields (so equality and hashing read sizes and
    topology only): is_sphere, ncharts, halo, extents (stored index count
    per axis, N_i + 2 halo), ncells (stored cells over all charts),
    interior (the slices of a stored array (charts, k..., ...) that select
    the cells 1 <= k_i <= N_i) and step_copies (per axis, the (destination,
    source) indices of shift_plus's step: the bulk slab copy, then each
    chart's last slot, read off resolve one past it, None (zero) where it
    raises).  A Domain states these facts and enumerates no cells; the
    neighbour table behind boundary_arrays walks the stored cells.
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
        sphere = self.topology == "sphere"
        halo = 0 if sphere else 1
        object.__setattr__(self, "is_sphere", sphere)
        object.__setattr__(self, "ncharts", 2 if sphere else 1)
        object.__setattr__(self, "halo", halo)
        object.__setattr__(self, "extents", tuple(n + 2 * halo for n in self.sizes))
        object.__setattr__(self, "ncells", self.ncharts * math.prod(self.extents))
        object.__setattr__(self, "interior",
                           (slice(None),) + tuple(slice(halo, n + halo) for n in self.sizes))
        if self.ncells * 6 * 4 * 16 > sys.maxsize:  # 2-form: 6 x 2x2 complex128 per cell
            raise ValueError(f"sizes {given!r} are too large: a 2-form exceeds the largest array")
        steps = []
        for axis in AXES:
            lead = (slice(None),) * axis
            copies = [(lead + (slice(0, -1),), lead + (slice(1, None),))]
            for chart in range(self.ncharts):  # its last slot: resolve one past it
                past = tuple(n + halo + 1 if i == axis else 1 for i, n in zip(AXES, self.sizes))
                try:
                    at = self.storage_index(*self.resolve(chart, past))
                    src = (at[0],) + lead[1:] + (at[axis],)
                except OutOfDomain:  # past the block halo: zero
                    src = None
                copies.append(((chart,) + lead[1:] + (-1,), src))
            steps.append(tuple(copies))
        object.__setattr__(self, "step_copies", tuple(steps))

    def resolve(self, chart: int, k: tuple):
        """Resolve an address to its stored representative.

        Sphere gluing, per axis: k_i = 0 lands at N_i in the other chart,
        k_i = N_i + 1 lands at 1 in the other chart; toggles compose by
        parity across axes.  Block: identity on the stored range.  Raises
        OutOfDomain for a chart outside 0 .. ncharts - 1, a k without four
        indices, or an index outside 1 - halo .. N_i + halo.
        """
        if not (0 <= chart < self.ncharts and len(k) == 4):
            raise OutOfDomain(f"no stored cell at chart {chart}, k {tuple(k)}")
        sphere, low, halo = self.is_sphere, 1 - self.halo, self.halo
        out = k  # copied on the first seam crossing only
        for i, n in enumerate(self.sizes):
            ki = k[i]
            if low <= ki <= n + halo:
                continue
            if not (sphere and (ki == 0 or ki == n + 1)):
                raise OutOfDomain(f"index {tuple(k)} outside the stored range")
            if out is k:
                out = list(k)
            out[i] = n if ki == 0 else 1  # the seam: into the other chart
            chart ^= 1
        return chart, tuple(out)

    def storage_index(self, chart: int, k: tuple) -> tuple:
        """Array index of a resolved address."""
        return (chart,) + tuple(ki - 1 + self.halo for ki in k)


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
def _neighbours(domain: Domain):
    """(ncells, 4) storage positions of Domain.resolve(chart, tau_i k) per
    stored cell and axis i, -1 where resolve raises OutOfDomain.  This is
    the package's one walk over the stored cells: per chart, k runs over
    1 - halo .. N_i + halo in lexicographic order, which is storage order.
    Cached per domain; read-only."""
    ranges = [range(1 - domain.halo, n + 1 + domain.halo) for n in domain.sizes]
    cells = [(chart, k) for chart in range(domain.ncharts) for k in itertools.product(*ranges)]
    position = {ck: n for n, ck in enumerate(cells)}
    out = np.full((len(cells), 4), -1, dtype=np.intp)
    for n, (chart, k) in enumerate(cells):
        for i in AXES:
            try:
                out[n, i - 1] = position[domain.resolve(chart, shift(k, i))]
            except OutOfDomain:
                pass
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def sum_classes(domain: Domain):
    """(classes, count): per stored cell, in storage order, the class of
    k1+k2+k3+k4 modulo the period that the gluing allows, and that period.

    A numpy frontier walks forward from storage cell 0 through the neighbour
    table, labelling each cell with its step count from that cell's sum,
    4 (1 - halo).  count is the gcd of label + 1 minus the neighbour's label
    over every stored step; on the block, where that is 0, it is one past
    the largest label.  Cached per domain; read-only.
    """
    table = _neighbours(domain)
    label = np.full(domain.ncells, -1, dtype=np.intp)
    frontier, step = np.zeros(1, dtype=np.intp), 4 * (1 - domain.halo)
    while frontier.size:
        label[frontier] = step
        ahead = np.zeros(domain.ncells + 1, dtype=bool)
        ahead[table[frontier]] = True  # -1, no neighbour, marks the spare last slot
        frontier, step = np.flatnonzero(ahead[:-1] & (label < 0)), step + 1
    cell, axis = np.nonzero(table >= 0)
    count = int(np.gcd.reduce(label[cell] + 1 - label[table[cell, axis]])) or int(label.max()) + 1
    classes = label % count
    classes.setflags(write=False)
    return classes, count


@lru_cache(maxsize=None)
def boundary_arrays(domain: Domain, p: int):
    """(row, col, coeff): the boundary of the degree-p cells as integer COO.

    Rows index flat (stored cell, degree-p direction set), columns flat
    (stored cell, degree-(p-1) direction set), stored cells in storage
    order, so rows ascend; within a row the terms keep boundary_cell's
    order.  The terms of each direction set (which sit at tau_i k and
    which at k, their sub-masks and coefficients) are read from one
    boundary_cell call at the interior cell (1,1,1,1), and laid over every
    stored cell through the table of Domain.resolve neighbours, so the
    vectorized shifts these arrays check never enter them.  On the block
    a cell whose boundary leaves the halo gets no row, as boundary_cell
    raises OutOfDomain for it.  Cached per domain and degree; read-only.
    """
    if not 1 <= p <= 4:
        raise ValueError("degree out of range")
    masks = MASKS_BY_DEGREE[p]
    sub_index = {m: i for i, m in enumerate(MASKS_BY_DEGREE[p - 1])}
    ref = (1, 1, 1, 1)
    # column 0 is the cell itself (k), column i its neighbour at tau_i k
    table = np.column_stack([np.arange(domain.ncells, dtype=np.intp), _neighbours(domain)])
    column = {domain.resolve(CHART_V, k): j for j, k in enumerate([ref] + [shift(ref, i) for i in AXES])}
    which = np.empty((len(masks), 2 * p), dtype=np.intp)
    sub, coeff = np.empty_like(which), np.empty(which.shape, dtype=np.int64)
    for d, mask in enumerate(masks):
        for t, (cell, c) in enumerate(boundary_cell(domain, Cell(CHART_V, ref, mask)).items()):
            which[d, t] = column[cell.chart, cell.k]
            sub[d, t], coeff[d, t] = sub_index[cell.mask], c
    pos = table[:, which]                                  # (ncells, masks, terms)
    keep = (pos >= 0).all(axis=2)                          # no term left the domain
    rows = np.arange(domain.ncells * len(masks), dtype=np.intp).reshape(keep.shape)
    out = (np.repeat(rows[keep], 2 * p), (pos * len(sub_index) + sub)[keep].ravel(),
           np.broadcast_to(coeff, pos.shape)[keep].ravel())
    for a in out:
        a.setflags(write=False)
    return out


def star_cell(cell: Cell):
    """Chain-level star: (sign, mirrored cell with complementary directions)."""
    return PERM_SIGN[cell.mask], Cell(
        cell.chart, cell.k, FULL_MASK ^ cell.mask, cell.copy ^ 1
    )

"""Combinatorial geometry of the 4-dimensional double complex.

Cells of the product complex are addressed by a chart (one block, or the
two glued blocks of the combinatorial 4-sphere), a multi-index
k = (k1, k2, k3, k4), and a direction set P in {1,2,3,4} marking which
tensor factors are 1-dimensional.  Direction sets are stored as bitmasks
(axis i <-> bit i-1).  Each cell additionally carries a copy flag (base
complex vs its mirror copy), which the star operator toggles.

Chains are sparse integer/real combinations of cells; the boundary
operator and the diagonal chains used by the inner product live here.
All topology arithmetic is exact (no floats).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

AXES = (1, 2, 3, 4)
FULL_MASK = 0b1111

BASE = 0
TILDE = 1

CHART_V = 0
CHART_VHAT = 1

CHART_NAMES = {CHART_V: "V", CHART_VHAT: "Vhat"}


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


def shift(k: tuple, axis: int, direction: int = 1) -> tuple:
    """Move the multi-index one step along an axis (tau for +1, sigma for -1)."""
    out = list(k)
    out[axis - 1] += direction
    return tuple(out)


def shift_many(k: tuple, mask: int, direction: int = 1) -> tuple:
    out = list(k)
    for i in mask_axes(mask):
        out[i - 1] += direction
    return tuple(out)


@dataclass(frozen=True)
class Domain:
    """Lattice sizes plus topology ("block" or "sphere").

    Block: a single chart V; storage carries a width-1 halo, indices
    0 .. N_i + 1 per axis.  Sphere: two charts V, Vhat glued along their
    boundaries; storage covers 1 .. N_i and every out-by-one address
    resolves into the other chart.
    """

    sizes: tuple
    topology: str = "block"

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) != 4 or any(n < 2 for n in sizes):
            raise ValueError(f"sizes must be four integers >= 2, got {sizes}")
        if self.topology not in ("block", "sphere"):
            raise ValueError(f"unknown topology {self.topology!r}")

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

    def resolve_cell(self, cell: Cell) -> Cell:
        chart, k = self.resolve(cell.chart, cell.k)
        return Cell(chart, k, cell.mask, cell.copy)

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


class Chain:
    """Sparse real-weighted combination of cells; zero coefficients are dropped."""

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for cell, coeff in dict(terms).items():
                self.add(cell, coeff)

    def add(self, cell: Cell, coeff):
        if coeff == 0:
            return
        new = self.terms.get(cell, 0) + coeff
        if new == 0:
            self.terms.pop(cell, None)
        else:
            self.terms[cell] = new

    def __iter__(self):
        return iter(self.terms.items())

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return isinstance(other, Chain) and self.terms == other.terms

    def __repr__(self):
        return f"Chain({self.terms!r})"


def boundary_cell(domain: Domain, cell: Cell) -> Chain:
    """Boundary of a basis cell.

    For a cell with direction axes i1 < i2 < ... the i-th axis contributes
    (-1)^(number of direction axes before i) * (cell at tau_i k minus cell
    at k), each with the axis dropped from the direction set.  Output cells
    are address-resolved; 0-cells have empty boundary.
    """
    out = Chain()
    axes = mask_axes(cell.mask)
    for pos, i in enumerate(axes):
        sign = -1 if pos & 1 else 1
        sub = cell.mask & ~(1 << (i - 1))
        up_chart, up_k = domain.resolve(cell.chart, shift(cell.k, i, +1))
        out.add(Cell(up_chart, up_k, sub, cell.copy), sign)
        lo_chart, lo_k = domain.resolve(cell.chart, cell.k)
        out.add(Cell(lo_chart, lo_k, sub, cell.copy), -sign)
    return out


def boundary(domain: Domain, chain: Chain) -> Chain:
    out = Chain()
    for cell, coeff in chain:
        for bcell, bcoeff in boundary_cell(domain, cell):
            out.add(bcell, coeff * bcoeff)
    return out


def star_cell(cell: Cell):
    """Chain-level star: (sign, mirrored cell with complementary directions)."""
    return PERM_SIGN[cell.mask], Cell(
        cell.chart, cell.k, FULL_MASK ^ cell.mask, cell.copy ^ 1
    )


def build_Vp(domain: Domain, p: int):
    """Diagonal chain of degree p: triples (cell, mirrored complement, sign).

    One entry per interior (chart, k) and per direction set of degree p;
    the pairing of these triples against a form and a starred form realizes
    the inner product and the discrete Green formula.
    """
    if not 0 <= p <= 4:
        raise ValueError("degree out of range")
    out = []
    for chart, k in domain.interior_cells():
        for mask in MASKS_BY_DEGREE[p]:
            cell = Cell(chart, k, mask, BASE)
            out.append((cell, Cell(chart, k, FULL_MASK ^ mask, TILDE), PERM_SIGN[mask]))
    return out

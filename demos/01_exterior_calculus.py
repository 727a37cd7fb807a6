#!/usr/bin/env python3
"""Walk through the discrete exterior calculus on the double complex.

Builds matrix-valued forms on the combinatorial 4-block and the glued
4-sphere, then exercises the operators: boundary/coboundary duality,
the cup product and the Leibniz rule, the star tables, the inner
product, and the Green identity (including the quirk that the pairing
term is not a boundary flux in this formalism).
"""

import numpy as np

import ymdec
from ymdec import calculus as ca
from ymdec import cochain as co
from ymdec.complex4 import (
    CHART_V,
    Cell,
    Domain,
    axes_mask,
    boundary_cell,
    mask_axes,
)

sphere = Domain((2, 2, 2, 2), "sphere")
block = Domain((3, 3, 3, 3), "block")

print("=" * 72)
print("1. Cells, boundary, and the coboundary as its dual")
print("=" * 72)

cell = Cell(CHART_V, (1, 1, 1, 1), axes_mask([2, 4]))
print("boundary of the (2,4)-direction square at k = (1,1,1,1):")
for bcell, coeff in boundary_cell(block, cell).items():
    print(f"  {coeff:+d} * cell(k={bcell.k}, axes={mask_axes(bcell.mask)})")

f = co.random_form(sphere, 1, seed=1)
df = ca.coboundary(f)
pairing = sum(coeff * f.get(c.chart, c.k, c.mask) for c, coeff in boundary_cell(sphere, cell).items())
print("\n(df) component at that square equals the chain pairing <boundary, f>:")
print("  max difference:", np.abs(df.get(CHART_V, (1, 1, 1, 1), cell.mask) - pairing).max())

dd = ca.coboundary(ca.coboundary(f))
print("d(d f) max coefficient:", np.abs(dd.values).max())

print()
print("=" * 72)
print("2. Star tables and the double star")
print("=" * 72)

for i in (1, 2, 3, 4):
    g = co.Cochain.zeros(sphere, 1)
    g.set(CHART_V, (1, 1, 1, 1), axes_mask([i]), np.eye(2))
    sg = ca.star(g)
    comp = [m for m in range(16) if bin(m).count("1") == 3 and not (m & axes_mask([i]))]
    # the complement component carries the transfer sign
    target = 0b1111 ^ axes_mask([i])
    sign = sg.get(CHART_V, (1, 1, 1, 1), target)[0, 0].real
    print(f"  star e^{i}  ->  {sign:+.0f} * mirror e^{mask_axes(target)}")

for p in range(5):
    g = co.random_form(sphere, p, seed=10 + p)
    ss = ca.star(ca.star(g))
    want = (-1) ** (p * (4 - p))
    print(
        f"  star(star) on degree {p}: sign {want:+d}, defect"
        f" {np.abs(ss.values - want * g.values).max():.2e}"
    )

print()
print("=" * 72)
print("3. Cup product and the Leibniz rule")
print("=" * 72)

h0 = co.random_form(sphere, 0, seed=20)
g0 = co.random_form(sphere, 0, seed=21)
prod = ca.cup(h0, g0)
k = (1, 2, 1, 2)
print(
    "  0-forms multiply pointwise:",
    np.abs(prod.get(CHART_V, k, 0) - h0.get(CHART_V, k, 0) @ g0.get(CHART_V, k, 0)).max(),
)

for p, q in ((0, 1), (1, 1), (1, 2)):
    a = co.random_form(sphere, p, seed=30 + p)
    b = co.random_form(sphere, q, seed=40 + q)
    lhs = ca.coboundary(ca.cup(a, b))
    rhs = ymdec.add(ca.cup(ca.coboundary(a), b), ymdec.scale(ca.cup(a, ca.coboundary(b)), (-1) ** p))
    print(f"  Leibniz defect for degrees ({p},{q}): {np.abs(lhs.values - rhs.values).max():.2e}")

print()
print("=" * 72)
print("4. Inner product and the Green identity")
print("=" * 72)

ident = co.Cochain.zeros(Domain((2, 2, 2, 2), "block"), 0)
ident.values[...] = np.eye(2)
print("  (1, 1) over the 2^4 block (tr I = 2 per cell):", ca.inner_product(ident, ident).real)

for domain, name in ((block, "block"), (sphere, "sphere")):
    phi = co.random_form(domain, 1, seed=50)
    omega = co.random_form(domain, 2, seed=51)
    lhs = ca.inner_product(ca.coboundary(phi), omega)
    rhs = ca.inner_product(phi, ca.codifferential(omega))
    bt = ca.green_boundary_term(phi, omega)
    print(f"  {name}: |(d phi, omega) - (phi, delta omega)| = {abs(lhs - rhs):.6f}")
    print(f"         |pairing term|                        = {abs(bt):.6f}")
    print(f"         identity residual                     = {abs(lhs - rhs - bt):.2e}")

print(
    "\n  note: the pairing term equals the adjointness defect exactly; it is\n"
    "  not a boundary flux (the codifferential reads forward neighbors like\n"
    "  the coboundary), so it stays O(1) even on the closed sphere."
)

#!/usr/bin/env python3
"""Gauge fields on the combinatorial 4-sphere.

Shows the curvature of an su(2) connection (its coefficients leave the
algebra), the exact Bianchi identity, how curvature transforms under a
gauge field, the special gauges that commute with the dual map, and the
gauge invariance of the Yang-Mills residual.
"""

import numpy as np

from ymdec import algebra as alg
from ymdec import calculus as ca
from ymdec import cochain as co
from ymdec import gauge as ga
from ymdec.complex4 import Domain

sphere = Domain((2, 2, 2, 2), "sphere")

print("=" * 72)
print("1. Curvature F = dA + A u A")
print("=" * 72)

a = co.random_connection(sphere, 0.4, seed=1)
f = ga.curvature(a)
print("  su(2) deviation of the connection:", alg.su2_algebra_deviation(a.values))
print("  su(2) deviation of the curvature: ", alg.su2_algebra_deviation(f.values))
print("  (the quadratic part pushes F into general 2x2 matrices)")
print(
    "  assembled F vs component stencil:",
    np.abs(f.values - ga.curvature_components(a).values).max(),
)
print("  Bianchi residual |d_A F|:", ga.bianchi_residual(a))

print()
print("=" * 72)
print("2. Gauge transformations")
print("=" * 72)

h = co.random_gauge(sphere, seed=2)
a2 = ga.gauge_transform(a, h)
f2 = ga.curvature(a2)
want = ca.cup(h, ca.cup(f, ga.gauge_inverse(h)))
print("  covariance |F' - h u F u h^-1|:", ca.norm(co.sub(f2, want)))
print(
    "  su(2) deviation of the transformed connection:",
    f"{alg.su2_algebra_deviation(a2.values):.3f}",
)
print("  (the lattice transform leaves the algebra; the deviation is reported,")
print("   not assumed away -- a constant gauge keeps it at machine precision)")

hc = co.Cochain.zeros(sphere, 0)
hc.values[...] = alg.exp_su2(np.array([0.2, -0.7, 0.4]))
ac = ga.gauge_transform(a, hc)
print("  constant-gauge deviation:", f"{alg.su2_algebra_deviation(ac.values):.2e}")

print()
print("=" * 72)
print("3. Gauges compatible with the dual map")
print("=" * 72)

good = co.dual_compatible_gauge(sphere, amplitude=1.0, seed=3)
bad = co.random_gauge(sphere, seed=4)
f2form = co.random_form(sphere, 2, seed=5)
print("  paired-shift defects of a dual-compatible gauge:", ga.dual_compat_defects(good))
print("  left cup-dual identity (any gauge):   ", ga.left_cup_dual_defect(bad, f2form))
print("  right cup-dual, compatible gauge:     ", ga.right_cup_dual_defect(good, f2form))
print("  right cup-dual, violating gauge:      ", ga.right_cup_dual_defect(bad, f2form))
print("  (an iff: only compatible gauges commute with the dual on the right)")

print()
print("=" * 72)
print("4. Yang-Mills residual and its gauge invariance")
print("=" * 72)

n0 = ga.yang_mills_residual_norm(a)
n_good = ga.yang_mills_residual_norm(ga.gauge_transform(a, good))
n_bad = ga.yang_mills_residual_norm(ga.gauge_transform(a, bad))
print(f"  |residual(A)|                    = {n0:.12f}")
print(f"  |residual(A')|, compatible gauge = {n_good:.12f}")
print(f"  |residual(A')|, violating gauge  = {n_bad:.12f}")

print()
print("=" * 72)
print("5. Self-dual / anti-self-dual split")
print("=" * 72)

fp, fm = ga.self_dual_part(f), ga.anti_self_dual_part(f)
print("  dual(F+) = F+ :", np.abs(ca.dual(fp).values - fp.values).max())
print("  dual(F-) = -F-:", np.abs(ca.dual(fm).values + fm.values).max())
print("  (F+, F-)      :", abs(ca.inner_product(fp, fm)))
total, split = ca.norm_sq(f), ca.norm_sq(fp) + ca.norm_sq(fm)
print(f"  |F|^2 = {total:.9f} vs |F+|^2 + |F-|^2 = {split:.9f}")
print("  component defects of the self-dual equations:", ga.sd_component_defects(f))

#!/usr/bin/env python3
"""Minimize the Yang-Mills action and the self-dual residual.

Starts from a small random su(2) connection on the 2^4 glued sphere,
checks the analytic gradient against finite differences, relaxes the
action to a flat connection, then drives the self-dual residual down and
prints the three componentwise defects of the difference self-dual
equations.
"""

import numpy as np

from ymdec import cochain as co
from ymdec import gauge as ga
from ymdec import solver as so
from ymdec.complex4 import Domain

sphere = Domain((2, 2, 2, 2), "sphere")

print("=" * 72)
print("1. The action and its gradient")
print("=" * 72)

a0 = co.random_connection(sphere, 0.1, seed=7)
print(f"  initial action: {so.action(a0):.6f}")

grad = so.action_gradient(a0)
kern = so._Kernel(sphere, "action")
vecs = so.connection_vectors(a0)
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(20):
    idx = tuple(rng.integers(0, s) for s in vecs.shape)
    h = 1e-4
    vp, vm = vecs.copy(), vecs.copy()
    vp[idx] += h
    vm[idx] -= h
    fd = (kern.objective(vp) - kern.objective(vm)) / (2 * h)
    worst = max(worst, abs(grad[idx] - fd) / max(abs(fd), 1e-12))
print(f"  gradient vs central differences, sampled rel error: {worst:.2e}")

print()
print("=" * 72)
print("2. Relaxing the action")
print("=" * 72)

rep = so.minimize(a0, so.SolverConfig(max_iters=5000, grad_tol=1e-6))
print(f"  stopped: {rep.reason} after {rep.n_iters} iterations")
for k in (0, 1, 10, 100, 1000, rep.n_iters):
    if k < len(rep.iterations):
        obj, gmax, step = rep.iterations[k]
        print(f"    iter {k:>5}: objective {obj:.3e}  grad max {gmax:.3e}  step {step:.3g}")
print("  final diagnostics:")
for key, val in rep.diagnostics.items():
    print(f"    {key:<24} {val:.3e}" if isinstance(val, float) else f"    {key:<24} {val}")

print()
print("=" * 72)
print("3. Driving the self-dual residual")
print("=" * 72)

a1 = co.random_connection(sphere, 0.05, seed=8)
sd = so.solve_self_dual(a1, so.SolverConfig(max_iters=3000, grad_tol=1e-7))
print(f"  stopped: {sd.reason} after {sd.n_iters} iterations")
print(f"  residual objective |F - dual F|^2: {sd.iterations[-1][0]:.3e}")
print("  defects of the three component equations (12=34, 13=-24, 14=23):")
for name, d in zip(("F12 - F34", "F13 + F24", "F14 - F23"), sd.diagnostics["sd_component_defects"]):
    print(f"    |{name}| = {d:.3e}")
print(f"  action at the final point: {sd.diagnostics['action']:.3e}")

anti = so.solve_self_dual(a1, so.SolverConfig(max_iters=1500, grad_tol=1e-7), anti=True)
f_anti = ga.curvature(anti.final)
print("\n  anti variant: flipping the sign targets the mirrored equations")
print(f"    anti-defects: {[f'{d:.2e}' for d in anti.diagnostics['sd_component_defects']]}")
print(f"    sd-defects of the same curvature: "
      f"{[f'{d:.2e}' for d in ga.sd_component_defects(f_anti)]}")

payload = co.serialize(sd.final)
print(f"\n  final connection serializes to {len(payload)} bytes "
      f"(round-trip exact: {np.array_equal(co.deserialize(payload).values, sd.final.values)})")

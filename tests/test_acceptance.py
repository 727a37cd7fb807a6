"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Desk scale: block 3x3x3x3 and sphere (2,2,2,2).  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.

Criterion 3 includes the magnitude of the Green pairing term on the
sphere.  That clause fails by construction of the formalism: the
codifferential (+-) star d star is built from the same forward difference
as the coboundary on both copies, so it is not the plain adjoint, and the
pairing term measures that mismatch rather than a boundary flux.  The
assertion is kept as stated and left red deliberately.
"""

import json

import numpy as np

from oracles import boundary, stored_cells
from ymdec import algebra as alg
from ymdec import calculus as ca
from ymdec import cli
from ymdec import cochain as co
from ymdec import gauge as ga
from ymdec import solver as so
from ymdec.complex4 import (
    OutOfDomain,
    CHART_V,
    FULL_MASK,
    MASKS_BY_DEGREE,
    PERM_SIGN,
    Cell,
    Domain,
    axes_mask,
    boundary_cell,
)

SPHERE = Domain((2, 2, 2, 2), "sphere")
BLOCK = Domain((3, 3, 3, 3), "block")
DOMAINS = (BLOCK, SPHERE)


def report(num, title, value, tol, passed):
    flag = "PASS" if passed else "FAIL"
    print(f"criterion {num:>3}: {flag}  {title}  (defect {value:.3e}, tol {tol:.1e})")


def test_criterion_1_star_tables_and_involution():
    # every basis transfer against the sign table, on both copies
    table_defect = 0.0
    probe = np.array([[1.0, -2.0j], [0.5, 3.0]])
    for domain in DOMAINS:
        for p in range(5):
            for mask in MASKS_BY_DEGREE[p]:
                for copy in (0, 1):
                    f = co.Cochain.zeros(domain, p, copy)
                    f.set(CHART_V, (1,) * 4, mask, probe)
                    sf = ca.star(f)
                    got = sf.get(CHART_V, (1,) * 4, FULL_MASK ^ mask)
                    table_defect = max(
                        table_defect, np.abs(got - PERM_SIGN[mask] * probe).max()
                    )
                    sf.set(CHART_V, (1,) * 4, FULL_MASK ^ mask, np.zeros((2, 2)))
                    table_defect = max(table_defect, np.abs(sf.values).max())
    # the printed one-form and two-form sign patterns, explicitly
    signs_1 = {1: 1, 2: -1, 3: 1, 4: -1}
    for i, want in signs_1.items():
        assert PERM_SIGN[axes_mask([i])] == want
    signs_2 = {(1, 2): 1, (1, 3): -1, (1, 4): 1, (2, 3): 1, (2, 4): -1, (3, 4): 1}
    for axes, want in signs_2.items():
        assert PERM_SIGN[axes_mask(axes)] == want

    invol_defect = 0.0
    for domain in DOMAINS:
        for p in range(5):
            for case in range(100):
                f = co.random_form(domain, p, seed=1000 + 100 * p + case)
                ss = ca.star(ca.star(f))
                want = (-1) ** (p * (4 - p))
                invol_defect = max(
                    invol_defect, np.abs(ss.values - want * f.values).max()
                )
    worst = max(table_defect, invol_defect)
    report(1, "star tables and double star", worst, 1e-12, worst <= 1e-12)
    assert worst <= 1e-12


def test_criterion_2_boundary_example_and_nilpotency():
    k = (1, 1, 1, 1)
    got = boundary_cell(BLOCK, Cell(CHART_V, k, axes_mask([2, 4])))
    want = {
        Cell(CHART_V, (1, 2, 1, 1), axes_mask([4])): 1,
        Cell(CHART_V, k, axes_mask([4])): -1,
        Cell(CHART_V, (1, 1, 1, 2), axes_mask([2])): -1,
        Cell(CHART_V, k, axes_mask([2])): 1,
    }
    symbolic_ok = got == want
    worst = 0
    for domain in DOMAINS:
        for chart, kk in stored_cells(domain):
            for mask in range(16):
                try:
                    dd = boundary(domain, boundary_cell(domain, Cell(chart, kk, mask)))
                except OutOfDomain:
                    continue  # top-halo shifts leave the block
                if len(dd):
                    worst = max(worst, max(abs(c) for c in dd.values()))
    passed = symbolic_ok and worst == 0
    report(2, "boundary worked example and dd = 0", float(worst), 0.0, passed)
    assert symbolic_ok
    assert worst == 0


def test_criterion_3_leibniz_and_green_identity():
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (1, 2), (2, 1), (0, 3), (3, 0)]
    leibniz = 0.0
    for domain in DOMAINS:
        for p, q in pairs:
            for case in range(50):
                f = co.random_form(domain, p, seed=2000 + 100 * p + case)
                g = co.random_form(domain, q, seed=3000 + 100 * q + case)
                lhs = ca.coboundary(ca.cup(f, g))
                rhs = co.add(
                    ca.cup(ca.coboundary(f), g),
                    co.scale(ca.cup(f, ca.coboundary(g)), (-1) ** p),
                )
                leibniz = max(
                    leibniz,
                    np.abs(lhs.values - rhs.values).max()
                    / (1 + np.abs(lhs.values).max()),
                )
    green = 0.0
    for domain in DOMAINS:
        for p in range(1, 5):
            for case in range(50):
                phi = co.random_form(domain, p - 1, seed=4000 + 100 * p + case)
                omega = co.random_form(domain, p, seed=5000 + 100 * p + case)
                lhs = ca.inner_product(ca.coboundary(phi), omega)
                rhs = ca.inner_product(phi, ca.codifferential(omega))
                bt = ca.green_boundary_term(phi, omega)
                green = max(green, abs(lhs - rhs - bt) / (1 + abs(lhs) + abs(bt)))
    worst = max(leibniz, green)
    report(3, "Leibniz rule and Green identity", worst, 1e-10, worst <= 1e-10)
    assert leibniz <= 1e-10
    assert green <= 1e-10


def test_criterion_3_sphere_boundary_term_magnitude():
    # the final clause of criterion 3, kept as stated; see the module
    # docstring for why this is red in this formalism
    worst = 0.0
    for p in range(1, 5):
        phi = co.random_form(SPHERE, p - 1, seed=6000 + p)
        omega = co.random_form(SPHERE, p, seed=6100 + p)
        worst = max(worst, abs(ca.green_boundary_term(phi, omega)))
    report(3, "sphere boundary term magnitude", worst, 1e-10, worst <= 1e-10)
    assert worst <= 1e-10, (
        f"pairing term magnitude {worst:.3e}: the codifferential built as "
        "(+-) star-d-star uses the same forward difference on both copies, "
        "so it is not the plain adjoint of the coboundary and the pairing "
        "term is O(1) for generic forms even on the closed sphere"
    )


def test_criterion_4_curvature_component_match():
    worst = 0.0
    for case in range(100):
        domain = DOMAINS[case % 2]
        a = co.random_connection(domain, 0.8, seed=7000 + case)
        diff = ga.curvature(a).values - ga.curvature_components(a).values
        worst = max(worst, np.abs(diff).max())
    report(4, "curvature vs component stencil", worst, 1e-13, worst <= 1e-13)
    assert worst <= 1e-13


def test_criterion_5_bianchi_identity():
    worst = 0.0
    for case in range(100):
        domain = DOMAINS[case % 2]
        a = co.random_connection(domain, 1.0, seed=8000 + case)
        worst = max(worst, ga.bianchi_residual(a) / (1 + ca.norm(a) ** 3))
    report(5, "Bianchi identity", worst, 1e-12, worst <= 1e-12)
    assert worst <= 1e-12


def test_criterion_6_gauge_covariance_and_invariance():
    covariance = 0.0
    invariance = 0.0
    for case in range(50):
        a = co.random_connection(SPHERE, 0.5, seed=9000 + case)
        h = co.random_gauge(SPHERE, seed=9100 + case)
        f = ga.curvature(a)
        fprime = ga.curvature(ga.gauge_transform(a, h))
        want = ca.cup(h, ca.cup(f, ga.gauge_inverse(h)))
        covariance = max(
            covariance, ca.norm(co.sub(fprime, want)) / (1 + ca.norm(f))
        )
        hs = co.dual_compatible_gauge(SPHERE, amplitude=1.0, seed=9200 + case)
        n0 = ga.yang_mills_residual_norm(a)
        n1 = ga.yang_mills_residual_norm(ga.gauge_transform(a, hs))
        invariance = max(invariance, abs(n0 - n1) / (1 + n0))
    # recorded counterexample: a violating gauge breaks the cup-dual swap
    bad = co.random_gauge(SPHERE, seed=9999)
    f2 = co.random_form(SPHERE, 2, seed=9998)
    counterexample = ga.right_cup_dual_defect(bad, f2)
    worst = max(covariance, invariance)
    passed = worst <= 1e-9 and counterexample > 1e-6
    report(6, "gauge covariance and residual invariance", worst, 1e-9, passed)
    print(f"      counterexample: violating gauge cup-dual defect {counterexample:.3e}")
    assert covariance <= 1e-9
    assert invariance <= 1e-9
    assert counterexample > 1e-6


def test_criterion_7_self_duality():
    worst = 0.0
    for case in range(100):
        domain = DOMAINS[case % 2]
        a = co.random_connection(domain, 0.7, seed=10000 + case)
        f = ga.curvature(a)
        fp, fm = ga.self_dual_part(f), ga.anti_self_dual_part(f)
        total = ca.norm_sq(f)
        scale = 1 + total
        worst = max(
            worst,
            np.abs(ca.dual(fp).values - fp.values).max() / scale,
            np.abs(ca.dual(fm).values + fm.values).max() / scale,
            abs(ca.inner_product(fp, fm)) / scale,
            abs(total - ca.norm_sq(fp) - ca.norm_sq(fm)) / scale,
        )
    report(7, "self-dual split", worst, 1e-10, worst <= 1e-10)
    assert worst <= 1e-10


def test_criterion_8_gradient_against_finite_differences():
    # central differences through the component-stencil objective; its
    # agreement with the assembled action is criterion 4
    kern = so._Kernel(SPHERE, "action")
    h = 1e-4
    worst = 0.0
    for case in range(10):
        a = co.random_connection(SPHERE, 0.3, seed=11000 + case)
        vecs = so.connection_vectors(a)
        grad = so.action_gradient(a)
        fd = np.zeros(grad.shape)
        flat = vecs.ravel()
        for i in range(flat.size):
            vp, vm = flat.copy(), flat.copy()
            vp[i] += h
            vm[i] -= h
            fd.ravel()[i] = (
                kern.objective(vp.reshape(vecs.shape))
                - kern.objective(vm.reshape(vecs.shape))
            ) / (2 * h)
        worst = max(worst, np.abs(grad - fd).max() / np.abs(fd).max())
    report(8, "action gradient vs central differences", worst, 1e-6, worst <= 1e-6)
    assert worst <= 1e-6


def test_criterion_9_minimizer_converges():
    a0 = co.random_connection(SPHERE, 0.1, seed=7)
    rep = so.minimize(a0, so.SolverConfig(max_iters=5000, grad_tol=1e-6))
    objs = [row[0] for row in rep.iterations]
    monotone = all(b < a for a, b in zip(objs, objs[1:]))
    gmax = rep.iterations[-1][1]
    su2_ok = alg.su2_algebra_deviation(rep.final.values) <= 1e-12
    passed = monotone and rep.converged and rep.n_iters <= 5000 and gmax <= 1e-6 and su2_ok
    report(9, f"minimizer ({rep.n_iters} iterations)", gmax, 1e-6, passed)
    assert monotone
    assert rep.converged and rep.n_iters <= 5000
    assert gmax <= 1e-6
    assert su2_ok


def test_criterion_10_verify_reports_are_byte_identical(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--output", str(out)]) == 0
    first = out.read_bytes()
    assert cli.main(["verify", "--output", str(out)]) == 0
    identical = out.read_bytes() == first
    report(10, "verify determinism", 0.0 if identical else 1.0, 0.0, identical)
    assert identical
    assert all(c["pass"] for c in json.loads(first)["checks"])

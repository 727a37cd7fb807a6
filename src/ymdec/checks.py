"""Named invariant checks behind the verify command.

Each check returns {name, defect, tol, pass}; everything is deterministic
in (domain, seed, amplitude).  Checks cover the calculus identities (star
tables and involution, boundary/coboundary duality, Leibniz, the Green
identity), the gauge identities (curvature assembly, Bianchi, covariance,
the cup-dual lemmas with a recorded counterexample, self-duality,
energy split), and a finite-difference probe of the action gradient.

The magnitude of the Green pairing term on the sphere and the su(2)
deviation of a gauge transform are reported as informational scalars:
neither vanishes in this formalism (the codifferential is not the plain
adjoint of the coboundary, and the lattice gauge transform leaves the
algebra), so they are measured rather than gated.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from . import algebra as alg
from . import calculus as ca
from . import cochain as co
from . import gauge as ga
from . import solver as so
from .complex4 import (
    CHART_V,
    MASKS_BY_DEGREE,
    Cell,
    Domain,
    axes_mask,
    boundary_arrays,
    boundary_cell,
    star_cell,
)

log = logging.getLogger(__name__)


class _TimedChecks(list):
    """The check list of a verify run.  Appending an entry logs the wall time
    since the previous one, which is the time that check took."""

    def __init__(self):
        super().__init__()
        self._last = time.perf_counter()

    def append(self, entry):
        now = time.perf_counter()
        log.info("check %s %.3f s", entry["name"], now - self._last)
        self._last = now
        super().append(entry)


def _check(name, defect, tol):
    return {"name": name, "defect": float(defect), "tol": float(tol), "pass": bool(defect <= tol)}


def _counterexample(name, defect, floor):
    # an iff direction: the check passes when the defect is clearly positive
    return {"name": name, "defect": float(defect), "tol": float(floor), "pass": bool(defect > floor)}


def _rel(diff, scale):
    return diff / (1.0 + scale)


def _star_table_defect(domain, seed):
    """star against star_cell on every component of random forms, both copies."""
    worst = 0.0
    for p in range(5):
        for copy in (co.BASE, co.TILDE):
            f = co.random_form(domain, p, seed=seed + p, copy=copy)
            sf = ca.star(f)
            for mask in MASKS_BY_DEGREE[p]:
                sign, mirrored = star_cell(Cell(CHART_V, (1,) * 4, mask, copy))
                got = sf.values[..., sf.dir_index(mirrored.mask), :, :]
                want = sign * f.values[..., f.dir_index(mask), :, :]
                worst = max(worst, np.abs(got - want).max(), float(sf.copy != mirrored.copy))
    return worst


def _boundary_example_defect(domain):
    k = (1,) * 4
    got = boundary_cell(domain, Cell(CHART_V, k, axes_mask([2, 4])))
    want = {
        Cell(*domain.resolve(CHART_V, (1, 2, 1, 1)), axes_mask([4])): 1,
        Cell(*domain.resolve(CHART_V, k), axes_mask([4])): -1,
        Cell(*domain.resolve(CHART_V, (1, 1, 1, 2)), axes_mask([2])): -1,
        Cell(*domain.resolve(CHART_V, k), axes_mask([2])): 1,
    }
    return 0.0 if got == want else 1.0


def _boundary_squared_defect(domain):
    """Largest |coefficient| of the boundary of the boundary of an interior
    cell: the integer product of boundary_arrays, joined on the middle cell."""
    inside = np.zeros((domain.ncharts, *domain.extents), dtype=bool)
    inside[domain.interior] = True
    inside = inside.ravel()
    worst = 0
    for p in range(2, 5):
        row, mid, coeff = boundary_arrays(domain, p)
        keep = inside[row // len(MASKS_BY_DEGREE[p])]
        row, mid, coeff = row[keep], mid[keep], coeff[keep]
        mrow, col, mcoeff = boundary_arrays(domain, p - 1)
        # every term of mid's boundary, for each term (row, mid); mrow ascends
        start = np.searchsorted(mrow, mid, side="left")
        count = np.searchsorted(mrow, mid, side="right") - start
        term = np.repeat(np.arange(len(row)), count)
        first = np.repeat(np.cumsum(count) - count, count)
        j = start[term] + np.arange(len(term)) - first
        key = row[term] * len(MASKS_BY_DEGREE[p - 2]) * domain.ncells + col[j]
        keys, group = np.unique(key, return_inverse=True)
        sums = np.zeros(len(keys), dtype=np.int64)
        np.add.at(sums, group, coeff[term] * mcoeff[j])
        worst = max(worst, int(np.abs(sums).max(initial=0)))
    return worst


def _chain_duality_defect(domain, seed):
    """coboundary against the chain pairing of every interior cell's boundary."""
    sl = domain.interior
    worst = 0.0
    for p in range(4):
        f = co.random_form(domain, p, seed=seed + p)
        want = ca.pair_boundaries(f)
        worst = max(worst, np.abs(ca.coboundary(f).values[sl] - want.values[sl]).max())
    return worst


def run_verify_checks(domain: Domain, seed: int, amplitude: float, gauge_form: co.Cochain):
    """Run the invariant suite; returns (checks, scalars).

    gauge_form, the configured gauge, is exercised against the cup-dual
    lemma: a compatible gauge gates the identity, a violating one is
    recorded as an expected failure with its counterexample norm.
    """
    rng_base = int(seed)
    checks = _TimedChecks()
    scalars = {}

    checks.append(_check("star_basis_tables", _star_table_defect(domain, rng_base + 10), 1e-12))

    worst = 0.0
    for p in range(5):
        f = co.random_form(domain, p, seed=rng_base + 10 + p)
        ss = ca.star(ca.star(f))
        want = (-1) ** (p * (4 - p))
        worst = max(worst, _rel(np.abs(ss.values - want * f.values).max(), np.abs(f.values).max()))
    checks.append(_check("star_involution", worst, 1e-12))

    checks.append(_check("boundary_of_boundary", _boundary_squared_defect(domain), 0.0))
    checks.append(_check("boundary_worked_example", _boundary_example_defect(domain), 0.0))

    worst = 0.0
    for p in range(4):
        f = co.random_form(domain, p, seed=rng_base + 20 + p)
        worst = max(worst, np.abs(ca.coboundary(ca.coboundary(f)).values).max())
    checks.append(_check("coboundary_squared", worst, 1e-12))

    checks.append(
        _check("coboundary_chain_duality", _chain_duality_defect(domain, rng_base + 30), 1e-12)
    )

    worst = 0.0
    for p, q in ((0, 1), (1, 1), (1, 2), (0, 3), (2, 1)):
        f = co.random_form(domain, p, seed=rng_base + 40 + p)
        g = co.random_form(domain, q, seed=rng_base + 50 + q)
        lhs = ca.coboundary(ca.cup(f, g))
        rhs = co.add(
            ca.cup(ca.coboundary(f), g), co.scale(ca.cup(f, ca.coboundary(g)), (-1) ** p)
        )
        worst = max(worst, _rel(np.abs(lhs.values - rhs.values).max(), np.abs(lhs.values).max()))
    checks.append(_check("leibniz_rule", worst, 1e-10))

    worst = 0.0
    sphere_bt = 0.0
    for p in range(1, 5):
        phi = co.random_form(domain, p - 1, seed=rng_base + 60 + p)
        omega = co.random_form(domain, p, seed=rng_base + 70 + p)
        lhs = ca.inner_product(ca.coboundary(phi), omega)
        rhs = ca.inner_product(phi, ca.codifferential(omega))
        bt = ca.green_boundary_term(phi, omega)
        worst = max(worst, _rel(abs(lhs - rhs - bt), abs(lhs) + abs(bt)))
        sphere_bt = max(sphere_bt, abs(bt))
    checks.append(_check("green_identity", worst, 1e-10))
    key = "green_boundary_magnitude" if domain.halo else "green_boundary_magnitude_sphere"
    scalars[key] = float(sphere_bt)

    f = co.random_form(domain, 2, seed=rng_base + 80)
    g = co.random_form(domain, 1, seed=rng_base + 81)
    worst = max(
        np.abs(ca.copy_swap(ca.copy_swap(f)).values - f.values).max(),
        np.abs(ca.copy_swap(ca.star(f)).values - ca.star(ca.copy_swap(f)).values).max(),
        np.abs(ca.copy_swap(ca.coboundary(g)).values - ca.coboundary(ca.copy_swap(g)).values).max(),
        np.abs(
            ca.copy_swap(ca.cup(g, f)).values
            - ca.cup(ca.copy_swap(g), ca.copy_swap(f)).values
        ).max(),
    )
    checks.append(_check("copy_swap_commutations", worst, 1e-12))

    h1 = co.random_form(domain, 1, seed=rng_base + 82)
    h2 = co.random_form(domain, 1, seed=rng_base + 83)
    h3 = co.random_form(domain, 2, seed=rng_base + 84)
    lhs = ca.cup(ca.cup(h1, h2), h3)
    rhs = ca.cup(h1, ca.cup(h2, h3))
    checks.append(
        _check(
            "cup_associativity",
            _rel(np.abs(lhs.values - rhs.values).max(), np.abs(lhs.values).max()),
            1e-12,
        )
    )

    a = co.random_connection(domain, amplitude, seed=rng_base + 90)
    f_assembled = ga.curvature(a)
    f_direct = ga.curvature_components(a)
    f_scale = np.abs(f_assembled.values).max()
    checks.append(
        _check(
            "curvature_component_match",
            _rel(np.abs(f_assembled.values - f_direct.values).max(), f_scale),
            1e-13,
        )
    )

    worst = 0.0
    for i in range(5):
        ai = co.random_connection(domain, 1.0, seed=rng_base + 100 + i)
        worst = max(worst, ga.bianchi_residual(ai) / (1 + ca.norm(ai) ** 3))
    checks.append(_check("bianchi_identity", worst, 1e-12))

    h = co.random_gauge(domain, seed=rng_base + 110)
    hinv = ga.gauge_inverse(h)
    a2 = ga.gauge_transform(a, h)
    scalars["gauge_transform_su2_deviation"] = float(
        alg.su2_algebra_deviation(a2.values[domain.interior])
    )
    fprime = ga.curvature(a2)
    want = ca.cup(h, ca.cup(f_assembled, hinv))
    checks.append(
        _check(
            "gauge_covariance",
            _rel(ca.norm(co.sub(fprime, want)), ca.norm(f_assembled)),
            1e-10,
        )
    )

    g2 = co.random_gauge(domain, seed=rng_base + 111)
    lhs = ga.gauge_transform(ga.gauge_transform(a, g2), h)
    rhs = ga.gauge_transform(a, ca.cup(h, g2))
    checks.append(
        _check(
            "gauge_transform_composition",
            _rel(ca.norm(co.sub(lhs, rhs)), ca.norm(rhs)),
            1e-10,
        )
    )

    hs1 = co.sum_profile_gauge(domain, amplitude=1.0, seed=rng_base + 112)
    hs2 = co.sum_profile_gauge(domain, amplitude=0.7, seed=rng_base + 113)
    hs12 = ca.cup(hs1, hs2)
    closure = max(
        max(ga.dual_compat_defects(hs12)),
        max(ga.dual_compat_defects(ga.gauge_inverse(hs1))),
        alg.su2_group_deviation(hs12.values),
    )
    checks.append(_check("gauge_group_closure", closure, 1e-12))

    f2 = co.random_form(domain, 2, seed=rng_base + 120)
    checks.append(_check("left_cup_dual_identity", ga.left_cup_dual_defect(h, f2), 1e-12))
    checks.append(_check("right_cup_dual_compatible", ga.right_cup_dual_defect(hs1, f2), 1e-12))
    checks.append(
        _counterexample(
            "right_cup_dual_violation_detected", ga.right_cup_dual_defect(h, f2), 1e-6
        )
    )

    n0 = ga.yang_mills_residual_norm(a)
    n1 = ga.yang_mills_residual_norm(ga.gauge_transform(a, hs1))
    if domain.halo:
        # exact only on the closed sphere; the block keeps a boundary defect
        scalars["ym_gauge_invariance_boundary_defect"] = float(_rel(abs(n0 - n1), n0))
    else:
        checks.append(_check("ym_residual_gauge_invariance", _rel(abs(n0 - n1), n0), 1e-9))

    defect = ga.right_cup_dual_defect(gauge_form, f2)
    if ga.is_dual_compatible(gauge_form):
        checks.append(_check("configured_gauge_right_cup_dual", defect, 1e-12))
        if not domain.halo:
            m1 = ga.yang_mills_residual_norm(ga.gauge_transform(a, gauge_form))
            checks.append(_check("configured_gauge_ym_invariance", _rel(abs(n0 - m1), n0), 1e-9))
    else:
        entry = _counterexample("configured_gauge_right_cup_dual_expected_fail", defect, 1e-6)
        entry["expected_fail"] = True
        checks.append(entry)

    fp = ga.self_dual_part(f_assembled)
    fm = ga.anti_self_dual_part(f_assembled)
    proj = max(
        np.abs(ca.dual(fp).values - fp.values).max(),
        np.abs(ca.dual(fm).values + fm.values).max(),
        np.abs(co.add(fp, fm).values - f_assembled.values).max(),
    )
    checks.append(_check("sd_projectors", _rel(proj, f_scale), 1e-12))
    total = ca.norm_sq(f_assembled)
    checks.append(
        _check(
            "sd_orthogonality",
            _rel(abs(ca.inner_product(fp, fm)), total),
            1e-10,
        )
    )
    checks.append(
        _check(
            "energy_split",
            _rel(abs(total - ca.norm_sq(fp) - ca.norm_sq(fm)), total),
            1e-10,
        )
    )

    grad = so.action_gradient(a)
    vecs = so.connection_vectors(a)
    rng = np.random.default_rng(rng_base + 130)
    worst = 0.0
    h_fd = 1e-4 * max(1.0, np.abs(vecs).max())
    for _ in range(8):
        idx = tuple(rng.integers(0, s) for s in vecs.shape)
        vp, vm = vecs.copy(), vecs.copy()
        vp[idx] += h_fd
        vm[idx] -= h_fd
        fd = (
            so.action(so.vectors_to_connection(domain, vp))
            - so.action(so.vectors_to_connection(domain, vm))
        ) / (2 * h_fd)
        worst = max(worst, abs(grad[idx] - fd) / max(np.abs(grad).max(), 1e-12))
    checks.append(_check("action_gradient_fd", worst, 1e-6))

    return list(checks), scalars


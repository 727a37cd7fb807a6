"""Tests for the action, its gradient, and the descent loops."""

import numpy as np
import pytest

from oracles import interior_cells, line_minimum_by_roots
from ymdec import algebra as alg
from ymdec import calculus as ca
from ymdec import cochain as co
from ymdec import gauge as ga
from ymdec import solver as so
from ymdec.complex4 import MASKS_BY_DEGREE, Domain

SPHERE = Domain((2, 2, 2, 2), "sphere")
BLOCK = Domain((2, 2, 2, 2), "block")
NON_CUBIC = [Domain((2, 3, 4, 2), "sphere"), Domain((2, 3, 4, 2), "block")]
NON_CUBIC_IDS = ["sphere-2342", "block-2342"]


class TestAction:
    def test_zero_connection(self):
        assert so.action(co.Cochain.zeros(SPHERE, 1)) == 0.0

    def test_constant_commuting_connection(self):
        a = co.Cochain.zeros(SPHERE, 1)
        for i, s in enumerate((0.1, 0.7, -0.3, 2.0)):
            a.values[..., i, :, :] = alg.embed_su2(np.array([0.0, 0.0, s]))
        assert so.action(a) <= 1e-30

    def test_matches_bruteforce_component_sum(self):
        a = co.random_connection(SPHERE, 0.6, seed=3)
        f = ga.curvature(a)
        total = 0.0
        for chart, k in interior_cells(SPHERE):
            for mask in MASKS_BY_DEGREE[2]:
                m = f.get(chart, k, mask)
                total += float(np.trace(m @ m.conj().T).real)
        assert so.action(a) == pytest.approx(total, rel=1e-12)

    def test_kernel_objective_matches_action(self):
        a = co.random_connection(BLOCK, 0.6, seed=4)
        kern = so._Kernel(BLOCK, "action")
        assert kern.objective(so.connection_vectors(a)) == pytest.approx(
            so.action(a), rel=1e-12
        )


class TestGradient:
    def test_zero_at_zero(self):
        g = so.action_gradient(co.Cochain.zeros(SPHERE, 1))
        assert np.abs(g).max() == 0.0

    def test_defining_property_on_elementary_directions(self):
        # grad . E = 2 Re (dE + A u E + E u A, F) for unit coefficient bumps
        a = co.random_connection(SPHERE, 0.4, seed=5)
        f = ga.curvature(a)
        grad = so.action_gradient(a)
        rng = np.random.default_rng(6)
        for _ in range(10):
            idx = tuple(rng.integers(0, s) for s in grad.shape)
            e_vec = np.zeros(grad.shape)
            e_vec[idx] = 1.0
            e_form = so.vectors_to_connection(SPHERE, e_vec)
            lin = co.add(ca.coboundary(e_form), co.add(ca.cup(a, e_form), ca.cup(e_form, a)))
            want = 2.0 * ca.inner_product(lin, f).real
            assert grad[idx] == pytest.approx(want, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("domain", [BLOCK, SPHERE], ids=["block", "sphere"])
    def test_matches_central_differences(self, domain):
        a = co.random_connection(domain, 0.3, seed=7)
        vecs = so.connection_vectors(a)
        grad = so.action_gradient(a)
        h = 1e-4
        fd = np.zeros(grad.shape)
        flat = vecs.ravel()
        for i in range(flat.size):
            vp, vm = flat.copy(), flat.copy()
            vp[i] += h
            vm[i] -= h
            fd.ravel()[i] = (
                so.action(so.vectors_to_connection(domain, vp.reshape(vecs.shape)))
                - so.action(so.vectors_to_connection(domain, vm.reshape(vecs.shape)))
            ) / (2 * h)
        rel = np.abs(grad - fd).max() / np.abs(fd).max()
        assert rel <= 1e-6

    def test_max_norm_invariant_under_constant_gauge(self):
        a = co.random_connection(SPHERE, 0.4, seed=8)
        h = co.Cochain.zeros(SPHERE, 0)
        h.values[...] = alg.exp_su2(np.array([0.4, -0.2, 1.1]))
        a2 = ga.gauge_transform(a, h)
        assert alg.su2_algebra_deviation(a2.values) <= 1e-10
        n1 = so.grad_max_norm(so.action_gradient(a))
        n2 = so.grad_max_norm(so.action_gradient(a2))
        assert abs(n1 - n2) <= 1e-9 * (1 + n1)


class TestConfig:
    def test_validation(self):
        # the Armijo constant is fixed and the command picks the objective
        with pytest.raises(TypeError):
            so.SolverConfig(armijo_c=1e-4)
        with pytest.raises(TypeError):
            so.SolverConfig(objective="action")


class TestMinimize:
    def test_zero_start_converges_immediately(self):
        rep = so.minimize(co.Cochain.zeros(SPHERE, 1), so.SolverConfig())
        assert rep.converged and rep.n_iters == 0
        assert rep.diagnostics["action"] == 0.0

    def test_reaches_gradient_tolerance(self, domain=SPHERE):
        a0 = co.random_connection(domain, 0.1, seed=7)
        rep = so.minimize(a0, so.SolverConfig(max_iters=5000, grad_tol=1e-6))
        assert rep.converged and rep.n_iters <= 5000
        objs = [r[0] for r in rep.iterations]
        assert all(b < a for a, b in zip(objs, objs[1:]))
        assert rep.iterations[-1][1] <= 1e-6
        assert alg.su2_algebra_deviation(rep.final.values) <= 1e-12

    # the same on non-cubic sizes; a parametrized copy, so the 2^4 test keeps its id
    @pytest.mark.parametrize("domain", NON_CUBIC, ids=NON_CUBIC_IDS)
    def test_reaches_gradient_tolerance_non_cubic(self, domain):
        self.test_reaches_gradient_tolerance(domain)

    def test_first_step_satisfies_armijo(self, domain=SPHERE):
        a0 = co.random_connection(domain, 0.1, seed=9)
        cfg = so.SolverConfig(max_iters=1)
        kern = so._Kernel(domain, "action")
        vecs = so.connection_vectors(a0)
        g0 = kern.gradient(vecs)
        rep = so.minimize(a0, cfg)
        obj0, _, _ = rep.iterations[0]
        obj1, _, step1 = rep.iterations[1]
        assert obj1 <= obj0 - so.ARMIJO_C * step1 * float((g0**2).sum()) + 1e-15

    @pytest.mark.parametrize("domain", NON_CUBIC, ids=NON_CUBIC_IDS)
    def test_first_step_satisfies_armijo_non_cubic(self, domain):
        self.test_first_step_satisfies_armijo(domain)

    def test_trace_satisfies_weak_armijo(self, domain=SPHERE):
        a0 = co.random_connection(domain, 0.1, seed=10)
        cfg = so.SolverConfig(max_iters=200, grad_tol=0.0)
        rep = so.minimize(a0, cfg)
        rows = rep.iterations
        for (o0, g0, _), (o1, _, s1) in zip(rows, rows[1:]):
            # gmax^2 lower-bounds the squared Euclidean norm in the full test
            assert o1 <= o0 - so.ARMIJO_C * s1 * g0**2 + 1e-15

    @pytest.mark.parametrize("domain", NON_CUBIC, ids=NON_CUBIC_IDS)
    def test_trace_satisfies_weak_armijo_non_cubic(self, domain):
        self.test_trace_satisfies_weak_armijo(domain)

    def test_iterates_stay_su2(self, domain=SPHERE):
        a0 = co.random_connection(domain, 0.1, seed=11)
        rep = so.minimize(a0, so.SolverConfig(max_iters=3, grad_tol=0.0))
        assert alg.su2_algebra_deviation(rep.final.values) <= 1e-12

    @pytest.mark.parametrize("domain", NON_CUBIC, ids=NON_CUBIC_IDS)
    def test_iterates_stay_su2_non_cubic(self, domain):
        self.test_iterates_stay_su2(domain)

    def test_gradient_fd_at_start_and_final_iterate(self):
        a0 = co.random_connection(SPHERE, 0.1, seed=15)
        final = so.minimize(a0, so.SolverConfig(max_iters=60, grad_tol=0.0)).final
        kern = so._Kernel(SPHERE, "action")
        rng = np.random.default_rng(16)
        h = 1e-4
        for a in (a0, final):
            vecs = so.connection_vectors(a)
            grad = so.action_gradient(a)
            for _ in range(6):
                idx = tuple(rng.integers(0, s) for s in vecs.shape)
                vp, vm = vecs.copy(), vecs.copy()
                vp[idx] += h
                vm[idx] -= h
                fd = (kern.objective(vp) - kern.objective(vm)) / (2 * h)
                assert abs(grad[idx] - fd) <= 1e-6 * max(np.abs(grad).max(), 1e-6)

    def test_energy_split_along_trajectory(self):
        a0 = co.random_connection(SPHERE, 0.1, seed=12)
        for a in (a0, so.minimize(a0, so.SolverConfig(max_iters=50, grad_tol=0.0)).final):
            f = ga.curvature(a)
            total = ca.norm_sq(f)
            split = ca.norm_sq(ga.self_dual_part(f)) + ca.norm_sq(ga.anti_self_dual_part(f))
            assert abs(total - split) <= 1e-10 * (1 + total)

    def test_abort_on_nonfinite_objective(self):
        a0 = so.vectors_to_connection(
            SPHERE, np.full((2, 2, 2, 2, 2, 4, 3), 1e200)
        )
        with pytest.raises(so.SolverAbort):
            so.minimize(a0, so.SolverConfig())

    def test_objective_choice_respected(self):
        # each run starts from the objective it was asked for
        a0 = co.random_connection(SPHERE, 0.1, seed=13)
        cfg = so.SolverConfig(max_iters=5)
        action, sd = so.action(a0), ga.sd_residual(ga.curvature(a0)) ** 2
        assert abs(action - sd) > 1e-3 * action
        assert so.minimize(a0, cfg).iterations[0][0] == pytest.approx(action, rel=1e-12)
        assert so.solve_self_dual(a0, cfg).iterations[0][0] == pytest.approx(sd, rel=1e-12)


class TestSelfDual:
    def test_zero_start(self):
        rep = so.solve_self_dual(co.Cochain.zeros(SPHERE, 1), so.SolverConfig())
        assert rep.converged and rep.n_iters == 0
        assert rep.diagnostics["sd_component_defects"] == [0.0, 0.0, 0.0]

    def test_self_dual_by_construction_converges_immediately(self):
        # constant commuting coefficients give zero curvature, which is
        # trivially dual-fixed: the residual and its gradient vanish at once
        a = co.Cochain.zeros(SPHERE, 1)
        for i, s in enumerate((0.2, -0.4, 0.9, 0.3)):
            a.values[..., i, :, :] = alg.embed_su2(np.array([0.0, 0.0, s]))
        rep = so.solve_self_dual(a, so.SolverConfig())
        assert rep.converged and rep.n_iters == 0
        assert rep.iterations[0][0] <= 1e-28

    def test_residual_driven_to_component_equations(self, domain=SPHERE):
        a0 = co.random_connection(domain, 0.05, seed=8)
        cfg = so.SolverConfig(max_iters=3000, grad_tol=1e-6)
        rep = so.solve_self_dual(a0, cfg)
        objs = [r[0] for r in rep.iterations]
        assert all(b < a for a, b in zip(objs, objs[1:]))
        # component defects settle at the sqrt(grad_tol) scale
        assert max(rep.diagnostics["sd_component_defects"]) <= 1e-3

    @pytest.mark.parametrize("domain", NON_CUBIC, ids=NON_CUBIC_IDS)
    def test_residual_driven_to_component_equations_non_cubic(self, domain):
        self.test_residual_driven_to_component_equations(domain)

    @pytest.mark.parametrize("anti", [False, True], ids=["sd", "anti"])
    def test_deep_yang_mills_residual_follows_the_solved_residual(self, anti):
        # d_A(dual F) = d_A(dual F -+ F) by Bianchi, and on the deep cells the
        # stencil reads F on interior cells only; the full block norm also
        # holds the boundary layer, which reads F at the unconstrained halo
        block = Domain((3, 3, 3, 3), "block")
        for a0 in (co.random_connection(block, 0.5, seed=7), co.random_connection(SPHERE, 0.1, seed=7)):
            d = so.solve_self_dual(a0, so.SolverConfig(), anti=anti).diagnostics
            solved = d["asd_residual" if anti else "sd_residual"]
            if a0.domain.is_sphere:
                assert "ym_residual_norm_deep" not in d
                assert d["ym_residual_norm"] <= 4 * solved
            else:
                assert d["ym_residual_norm_deep"] <= 4 * solved
                assert d["ym_residual_norm"] > 1

    def test_anti_variant_flips_the_sign(self):
        a0 = co.random_connection(SPHERE, 0.05, seed=14)
        cfg = so.SolverConfig(max_iters=1500, grad_tol=1e-6)
        rep = so.solve_self_dual(a0, cfg, anti=True)
        f = ga.curvature(rep.final)
        anti_defects = ga.sd_component_defects(f, anti=True)
        sd_defects = ga.sd_component_defects(f)
        assert max(anti_defects) <= 1e-2
        assert max(rep.diagnostics["sd_component_defects"]) <= 1e-2
        assert min(sd_defects) > max(anti_defects)


def _rotated(vecs, seed):
    """The coefficient vectors in another global SU(2) frame: a rotation of
    su(2), the adjoint action of a constant gauge."""
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return vecs @ q.T


class TestLineSearch:
    @pytest.mark.parametrize("domain", [SPHERE, BLOCK], ids=["sphere", "block"])
    @pytest.mark.parametrize(
        "objective,anti",
        [("action", False), ("sd_residual", False), ("sd_residual", True)],
        ids=["action", "sd", "anti-sd"],
    )
    def test_quartic_matches_objective_along_the_line(self, domain, objective, anti):
        kern = so._Kernel(domain, objective, anti=anti)
        vecs = so.connection_vectors(co.random_connection(domain, 0.6, seed=21))
        p = np.random.default_rng(22).uniform(-0.5, 0.5, size=vecs.shape)
        c = kern.line_coefficients(kern.evaluate(vecs), p)
        for t in (-1.3, -0.2, 0.4, 1.0, 2.5):
            want = kern.objective(vecs + t * p)
            assert np.polyval(c[::-1], t) == pytest.approx(want, rel=1e-12)

    def test_line_minimum_of_exact_quartics(self):
        # (t - 1)^2 (t^2 + 1): stationary only at t = 1
        assert so._line_minimum(np.array([1.0, -2.0, 2.0, -2.0, 1.0])) == pytest.approx(1.0)
        # S' = 4 (t - 1)(t - 2)(t - 3): minima at 1 and 3 with S(1) > S(3)
        c = np.array([0.0, -24.0, 22.0, -8.0, 1.0])
        assert so._line_minimum(c) == pytest.approx(3.0)
        # no descent from t = 0, or a line that is not finite
        assert so._line_minimum(np.array([1.0, 2.0, 1.0, 0.0, 1.0])) is None
        assert so._line_minimum(np.array([1.0, -2.0, np.inf, 0.0, 1.0])) is None

    @pytest.mark.parametrize("c4", [0.0, 1e-300, 1e-40])
    def test_degenerate_quartic_term(self, c4):
        # c4 ~ 0 leaves the quadratic (t - 1)^2 minimized at t = 1
        t = so._line_minimum(np.array([1.0, -2.0, 1.0, 0.0, c4]))
        assert t == pytest.approx(1.0, rel=1e-12)

    def test_direction_with_vanishing_quartic_term(self):
        # constant commuting axis coefficients: P u P = 0 on every interior cell
        kern = so._Kernel(SPHERE, "action")
        vecs = so.connection_vectors(co.random_connection(SPHERE, 0.3, seed=23))
        p = np.zeros_like(vecs)
        p[..., 2] = (0.3, -0.7, 0.2, 0.5)
        at = kern.evaluate(vecs)
        if np.vdot(at.grad, p) > 0:
            p = -p
        c = kern.line_coefficients(at, p)
        assert c[4] <= 1e-30 * c[2]
        t = so._line_minimum(c)
        best = kern.objective(vecs + t * p)
        for f in (0.99, 1.01):
            assert best <= kern.objective(vecs + f * t * p)

    def test_non_descent_direction_is_rejected(self):
        kern = so._Kernel(SPHERE, "action")
        at = kern.evaluate(so.connection_vectors(co.random_connection(SPHERE, 0.3, seed=24)))
        counts = {"line_coefficient_evals": 0, "objective_gradient_evals": 0}
        assert so._line_step(kern, at, at.grad, counts) is None
        assert counts == {"line_coefficient_evals": 0, "objective_gradient_evals": 0}

    def test_failed_step_stops_the_run(self, monkeypatch):
        # with grad_tol 0 the run descends to rounding level, where a line search fails
        steps, searched = [], []
        gauss_newton_step, line_step = so._gauss_newton_step, so._line_step

        def record_step(kern, at, counts):
            steps.append(gauss_newton_step(kern, at, counts))
            return steps[-1]

        def record_search(kern, at, p, counts):
            searched.append(p)
            return line_step(kern, at, p, counts)

        monkeypatch.setattr(so, "_gauss_newton_step", record_step)
        monkeypatch.setattr(so, "_line_step", record_search)
        a0 = co.random_connection(SPHERE, 0.1, seed=25)
        rep = so.minimize(a0, so.SolverConfig(max_iters=400, grad_tol=0.0))
        assert rep.reason == "line search stalled" and not rep.converged
        assert rep.diagnostics["line_coefficient_evals"] == rep.n_iters + 1
        assert len(searched) == len(steps) == rep.n_iters + 1
        assert all(p is q for p, q in zip(searched, steps))

    def test_counters_match_the_trace(self):
        a0 = co.random_connection(SPHERE, 0.1, seed=25)
        rep = so.minimize(a0, so.SolverConfig(max_iters=40, grad_tol=0.0))
        d = rep.diagnostics
        assert all(type(d[k]) is int for k in ("objective_gradient_evals", "line_coefficient_evals"))
        assert d["line_coefficient_evals"] == rep.n_iters
        assert d["objective_gradient_evals"] >= rep.n_iters + 1
        again = so.minimize(a0, so.SolverConfig(max_iters=40, grad_tol=0.0))
        assert again.diagnostics == d and again.iterations == rep.iterations

    def test_relaxes_amplitude_one_under_default_cap(self):
        a0 = co.random_connection(SPHERE, 1.0, seed=7)
        rep = so.minimize(a0, so.SolverConfig())
        assert rep.converged and rep.n_iters < 5000

    def test_iteration_count_independent_of_global_frame(self):
        vecs = so.connection_vectors(co.random_connection(SPHERE, 0.1, seed=7))
        counts = []
        for seed in (1, 2, 3):
            a0 = so.vectors_to_connection(SPHERE, _rotated(vecs, seed))
            rep = so.minimize(a0, so.SolverConfig())
            assert rep.converged
            counts.append(rep.n_iters)
        assert max(counts) - min(counts) <= 0.01 * min(counts)


class TestClosedFormCubic:
    """_line_minimum against the np.roots version in tests/oracles.py."""

    @staticmethod
    def _agree(c):
        got, want = so._line_minimum(c), line_minimum_by_roots(c)
        assert (got is None) == (want is None), (c, got, want)
        if want is not None:
            assert got == pytest.approx(want, rel=1e-10), c

    def test_random_quartics(self):
        rng = np.random.default_rng(48)
        found = 0
        for _ in range(1000):
            c = rng.normal(size=5) * 10.0 ** rng.uniform(-3, 3, size=5)
            c[1] = -abs(c[1])
            self._agree(c)
            found += so._line_minimum(c) is not None
        assert found > 600

    @pytest.mark.parametrize("c", [
        [1.0, -2.0, 1.0, 0.0, 0.0],        # quadratic
        [1.0, -2.0, 0.0, 0.0, 1e-30],      # a small quartic term alone: one far stationary point
        [1.0, -2.0, -1.0, 0.5, 0.0],       # cubic quartic-free line
        [1.0, -2.0, 1.0, 1e-16, 1e-15],    # quartic and cubic terms at rounding level
        [1.0, -2.0, 1.0, -1e-9, 1e-12],    # small but kept: a far cubic root
        [1.0, -2.0, -1.0, 0.0, 1e-30],     # quadratic with no minimum after the drop
        [1.0, -2.0, 0.0, 0.0, 1.0],        # t^4 - 2 t: one real root
        [1.0, -1e-12, 1.0, 0.0, 1.0],      # a slope at rounding level of the rest
        [1.0, 2.0, 1.0, 0.0, 1.0],         # no descent
        [1.0, 0.0, 1.0, 0.0, 1.0],         # no slope
        [1.0, -2.0, 0.0, 0.0, 0.0],        # nothing past the slope
        [1.0, -2.0, np.nan, 0.0, 1.0],     # not finite
    ])
    def test_degenerate_quartics(self, c):
        self._agree(np.array(c))


class TestSolverApiBoundary:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: so.SolverConfig(grad_tol=float("nan")),
            lambda: so.SolverConfig(grad_tol=float("inf")),
            lambda: so.SolverConfig(grad_tol=-1e-6),
            lambda: so.SolverConfig(max_iters=-5),
            lambda: so.SolverConfig(max_iters=2.5),
            lambda: so.SolverConfig(max_iters=True),
            lambda: so._Kernel(SPHERE, "energy"),
        ],
        ids=["grad_tol-nan", "grad_tol-inf", "grad_tol-negative", "max_iters-negative",
             "max_iters-float", "max_iters-bool", "kernel-objective"],
    )
    def test_rejected_with_value_error(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize(
        "run",
        [
            lambda a: so.minimize(a, so.SolverConfig(max_iters=3)),
            lambda a: so.solve_self_dual(a, so.SolverConfig(max_iters=3)),
            so.action_gradient,
        ],
        ids=["minimize", "solve_self_dual", "action_gradient"],
    )
    def test_non_su2_connection_is_rejected_not_projected(self, run):
        with pytest.raises(co.ValidationError, match="not su\\(2\\)"):
            run(co.random_form(SPHERE, 1, seed=1))


def _oracle_objective(domain, objective, anti, vecs):
    """The objective on the Cochain calculus: |F|^2 or |F -+ dual F|^2."""
    a = so.vectors_to_connection(domain, vecs)
    if objective == "action":
        return so.action(a)
    f = ga.curvature(a)
    if not anti:
        return ga.sd_residual(f) ** 2
    return ca.norm_sq(co.add(f, ca.dual(f)))


LARGER = [*NON_CUBIC, Domain((4, 4, 4, 4), "block")]


class TestKernelAgainstCochainOracle:
    """The quaternion-plane kernel beyond the cubic 2^4 domains."""

    @pytest.mark.parametrize(
        "domain", [SPHERE, NON_CUBIC[1], Domain((4, 4, 4, 4), "block")], ids=["sphere", "block-2342", "block-4444"]
    )
    @pytest.mark.parametrize(
        "objective,anti",
        [("action", False), ("sd_residual", False), ("sd_residual", True)],
        ids=["action", "sd", "anti-sd"],
    )
    def test_residual_is_L_F_on_the_interior_rows(self, domain, objective, anti):
        # the kernel's rows are exactly the interior cells, and its residual
        # there is mask L F of the Cochain curvature
        kern = so._Kernel(domain, objective, anti=anti)
        a = co.random_connection(domain, 0.5, seed=33)
        r = kern.evaluate(so.connection_vectors(a)).field
        f = ga.curvature(a)
        if objective == "sd_residual":
            f = (co.add if anti else co.sub)(f, ca.dual(f))
        want = f.values[domain.interior].reshape(-1, 6, 2, 2)
        nrows = domain.ncharts * int(np.prod(domain.sizes))
        assert r.shape == (4, nrows, 6) == (4, want.shape[0], 6)
        got = alg.quaternion_matrices(r[0], r[1:])
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("domain", LARGER, ids=["sphere-2342", "block-2342", "block-4444"])
    @pytest.mark.parametrize(
        "objective,anti",
        [("action", False), ("sd_residual", False), ("sd_residual", True)],
        ids=["action", "sd", "anti-sd"],
    )
    def test_objective_gradient_and_quartic(self, domain, objective, anti):
        kern = so._Kernel(domain, objective, anti=anti)
        vecs = so.connection_vectors(co.random_connection(domain, 0.5, seed=31))
        at = kern.evaluate(vecs)
        want = _oracle_objective(domain, objective, anti, vecs)
        assert at.obj == pytest.approx(want, rel=1e-12)
        assert kern.objective(vecs) == pytest.approx(want, rel=1e-12)
        assert _is_plane_backed(at.grad) and at.grad.shape == vecs.shape

        rng = np.random.default_rng(32)
        h = 1e-4
        scale = np.abs(at.grad).max()
        for _ in range(6):
            idx = tuple(rng.integers(0, s) for s in vecs.shape)
            vp, vm = vecs.copy(), vecs.copy()
            vp[idx] += h
            vm[idx] -= h
            fd = (
                _oracle_objective(domain, objective, anti, vp)
                - _oracle_objective(domain, objective, anti, vm)
            ) / (2 * h)
            assert abs(at.grad[idx] - fd) <= 1e-6 * scale

        p = rng.uniform(-0.3, 0.3, size=vecs.shape)
        c = kern.line_coefficients(at, p)
        for t in (-1.1, -0.3, 0.5, 1.0, 1.7):
            want = _oracle_objective(domain, objective, anti, vecs + t * p)
            assert np.polyval(c[::-1], t) == pytest.approx(want, rel=1e-12)


OBJECTIVES = pytest.mark.parametrize(
    "objective,anti",
    [("action", False), ("sd_residual", False), ("sd_residual", True)],
    ids=["action", "sd", "anti-sd"],
)
JACOBIAN_DOMAINS = pytest.mark.parametrize(
    "domain", [SPHERE, BLOCK, *LARGER], ids=["sphere", "block", "sphere-2342", "block-2342", "block-4444"]
)


def _jacobian_setup(domain, objective, anti):
    """A kernel, a point on it and two tangent directions."""
    kern = so._Kernel(domain, objective, anti=anti)
    vecs = so.connection_vectors(co.random_connection(domain, 0.5, seed=41))
    rng = np.random.default_rng(42)
    v, u = rng.uniform(-0.5, 0.5, size=(2, *vecs.shape))
    return kern, kern.evaluate(vecs), v, u


class TestJacobianProducts:
    """jvp and vjp of the residual map r = L F on its range."""

    @JACOBIAN_DOMAINS
    @OBJECTIVES
    def test_adjoint_identity(self, domain, objective, anti):
        # <J v, w> = <v, J^T w> for w = r and for w = J u
        kern, at, v, u = _jacobian_setup(domain, objective, anti)
        jv = kern.jvp(at, v)
        for w in (at.field, kern.jvp(at, u)):
            want = float(np.vdot(jv, w))
            assert float(np.vdot(v, kern.vjp(at, w))) == pytest.approx(want, rel=1e-13)

    @JACOBIAN_DOMAINS
    @OBJECTIVES
    def test_range_identity(self, domain, objective, anti):
        # L^T w = c w bitwise on the range, c = 1 (action) or 2 (I -+ dual)
        kern, at, _, u = _jacobian_setup(domain, objective, anti)
        L = np.eye(6)
        if objective == "sd_residual":
            L[np.arange(6), kern.dual_perm] += kern.dual_sign
        c = 2.0 if objective == "sd_residual" else 1.0
        for w in (at.field, kern.jvp(at, u)):
            assert np.array_equal(w @ L, c * w)
        # the gradient of 2 |r|^2 is 4 J^T r
        assert np.array_equal(at.grad, 4.0 * kern.vjp(at, at.field))

    @JACOBIAN_DOMAINS
    @pytest.mark.parametrize("anti", [False, True], ids=["sd", "anti-sd"])
    def test_self_dual_field_is_contiguous(self, domain, anti):
        kern, at, _, _ = _jacobian_setup(domain, "sd_residual", anti)
        F = ga.curvature_planes(kern._planes(at.vecs))
        want = F + kern.dual_sign * F[..., kern.dual_perm]
        got = kern._field(F)
        assert got.flags.c_contiguous and np.array_equal(got, want)


def _dense_jacobian(kern, vecs, columns):
    """J of the residual map at vecs on the given flat unknowns, one jvp per
    column; rows are the residual's (4, nrows, 6) entries."""
    at = kern.evaluate(vecs)
    basis = np.zeros((len(columns), vecs.size))
    basis[np.arange(len(columns)), columns] = 1.0
    return np.stack([kern.jvp(at, e.reshape(vecs.shape)).ravel() for e in basis], axis=1)


class TestBlockProblem:
    """Which problem a block solve solves: every stored edge is an unknown,
    the halo included, and the self-dual residual on the interior rows
    constrains fewer of them than it reads (block 2^4)."""

    def test_the_residual_reads_the_gathered_edges_with_full_row_rank(self):
        kern = so._Kernel(BLOCK, "sd_residual")
        vecs = so.connection_vectors(co.random_connection(BLOCK, 0.5, seed=7))
        J = _dense_jacobian(kern, vecs, np.arange(vecs.size))
        read = np.flatnonzero(np.abs(J).max(axis=0))
        # the unknowns are the (cell, axis) rows of the vectors times 3 components
        rows = np.unique(ga.interior_gather(BLOCK))
        assert (vecs.size, rows.size) == (3072, 160)
        assert np.array_equal(read, (3 * rows[:, None] + np.arange(3)).ravel())
        # 192 independent equations: (I - dual) pairs the six planes into three
        assert np.linalg.matrix_rank(J[:, read]) == 192 == 3 * 4 * 16

    def test_at_zero_the_gauge_directions_and_the_scalar_part_drop_out(self):
        kern = so._Kernel(BLOCK, "sd_residual")
        shape = (BLOCK.ncharts, *BLOCK.extents, 4, 3)
        cells = np.arange(BLOCK.ncells).reshape(BLOCK.ncharts, *BLOCK.extents)[BLOCK.interior].ravel()
        edges = (12 * cells[:, None] + np.arange(12)).ravel()
        J = _dense_jacobian(kern, np.zeros(shape), edges)
        assert J.shape == (384, 192)
        # rank 9 N^4 of the 12 N^4 interior edges
        assert np.linalg.matrix_rank(J) == 144 == 9 * 2**4
        # the scalar part of F - dual F is out of the range
        assert not J.reshape(4, -1, 192)[0].any()
        # J d phi = 0 exactly for each phi on one interior cell and component
        at = kern.evaluate(np.zeros(shape))
        for cell in cells:
            for c in range(3):
                vec = np.zeros((BLOCK.ncells, 3))
                vec[cell, c] = 1.0
                phi = co.Cochain(BLOCK, 0, alg.embed_su2(vec.reshape(shape[:-2] + (1, 3))))
                dphi = alg.project_su2(ca.coboundary(phi).values)
                assert dphi.any() and not kern.jvp(at, dphi).any()


def _is_plane_backed(vecs):
    """True when vecs (..., 3) is a view of a C-contiguous buffer (3, ...)."""
    planes = vecs.reshape(-1, 3).T
    return planes.flags.c_contiguous and np.shares_memory(vecs, planes)


def _plane_backed_copy(vecs):
    """A copy of vecs (..., 3) as a view of a new C-contiguous buffer (3, ...)."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(vecs, -1, 0)), 0, -1)


class TestPlaneBackedVectors:
    """The descent's coefficient vectors are plane-backed; the kernel gives
    the same bits for every layout of its inputs."""

    @pytest.mark.parametrize("domain", [SPHERE, NON_CUBIC[1]], ids=["sphere", "block-2342"])
    @OBJECTIVES
    def test_products_are_bitwise_equal_on_either_layout(self, domain, objective, anti):
        kern = so._Kernel(domain, objective, anti=anti)
        vecs = so.connection_vectors(co.random_connection(domain, 0.5, seed=52))
        p = np.random.default_rng(53).uniform(-0.5, 0.5, size=vecs.shape)
        (cv, cp), (pv, pp) = ((f(vecs), f(p)) for f in (np.ascontiguousarray, _plane_backed_copy))
        assert cv.flags.c_contiguous and _is_plane_backed(pv) and _is_plane_backed(pp)
        c, b = kern.evaluate(cv), kern.evaluate(pv)
        assert c.obj == b.obj and kern.objective(cv) == kern.objective(pv) == c.obj
        for name in ("grad", "field", "blocks"):
            assert np.array_equal(getattr(c, name), getattr(b, name))
        # the gradient is plane-backed whatever the iterate's layout
        assert _is_plane_backed(c.grad) and _is_plane_backed(b.grad)
        jv = kern.jvp(c, cp)
        assert np.array_equal(jv, kern.jvp(b, pp)) and np.array_equal(jv, kern.jvp(b, cp))
        for w in (c.field, jv):
            got = kern.vjp(b, w)
            assert _is_plane_backed(got) and np.array_equal(got, kern.vjp(c, w))
        assert np.array_equal(kern.line_coefficients(c, cp), kern.line_coefficients(b, pp))

    @pytest.mark.parametrize("solve", [so.minimize, so.solve_self_dual], ids=["relax", "selfdual"])
    def test_descent_vectors_share_memory_with_their_planes(self, solve, monkeypatch):
        seen = []
        gauss_newton_step, line_step = so._gauss_newton_step, so._line_step

        def record_step(kern, at, counts):
            seen.extend((at.vecs, at.grad))
            seen.append(gauss_newton_step(kern, at, counts))
            return seen[-1]

        def record_search(kern, at, p, counts):
            step = line_step(kern, at, p, counts)
            assert at.blocks is None  # released before the trial point was evaluated
            if step is not None:
                seen.extend((step[1].vecs, step[1].grad))
            return step

        monkeypatch.setattr(so, "_gauss_newton_step", record_step)
        monkeypatch.setattr(so, "_line_step", record_search)
        rep = solve(co.random_connection(SPHERE, 0.3, seed=54), so.SolverConfig(max_iters=5, grad_tol=0.0))
        assert rep.n_iters == 5 and len(seen) == 25
        assert all(_is_plane_backed(v) for v in seen)

    @pytest.mark.parametrize("domain", [SPHERE, *LARGER[1:]], ids=["sphere", "block-2342", "block-4444"])
    def test_public_vectors_are_plane_backed(self, domain):
        a = co.random_connection(domain, 0.5, seed=55)
        vecs = so.connection_vectors(a)
        assert _is_plane_backed(vecs) and vecs.shape == (domain.ncharts, *domain.extents, 4, 3)
        want = so.action_gradient(a)
        assert _is_plane_backed(want)
        for objective in so.OBJECTIVES:
            kern = so._Kernel(domain, objective)
            for layout in (vecs, np.ascontiguousarray(vecs)):
                got = kern.gradient(layout)
                assert _is_plane_backed(got) and got.shape == vecs.shape
                if objective == "action":
                    assert np.array_equal(got, want)


def _trajectory_points(domain, objective, anti):
    """A kernel and its points at the seed-7 amplitude-1.0 start and after 5
    and 20 outer steps: away from the start the inner solve takes several
    CGLS iterations."""
    kern = so._Kernel(domain, objective, anti=anti)
    a0 = co.random_connection(domain, 1.0, seed=7)
    points = []
    for steps in (0, 5, 20):
        cfg = so.SolverConfig(max_iters=steps, grad_tol=0.0)
        rep = so.minimize(a0, cfg) if objective == "action" else so.solve_self_dual(a0, cfg, anti)
        points.append(kern.evaluate(so.connection_vectors(rep.final)))
    return kern, points


class TestGaussNewton:
    """The truncated CGLS step of each outer iteration and the work it reports."""

    @pytest.mark.parametrize("domain", [SPHERE, *LARGER], ids=["sphere", "sphere-2342", "block-2342", "block-4444"])
    @OBJECTIVES
    def test_inner_step_meets_its_stop_rule(self, domain, objective, anti):
        kern, points = _trajectory_points(domain, objective, anti)
        for at in points:
            counts = {"jacobian_products": 0}
            p = so._gauss_newton_step(kern, at, counts)
            assert float(np.vdot(at.grad, p)) < 0
            r = at.field
            res = kern.jvp(at, p) + r
            assert np.linalg.norm(kern.vjp(at, res)) <= so.ETA * np.linalg.norm(kern.vjp(at, r))
            assert np.linalg.norm(res) < np.linalg.norm(r)
            assert counts["jacobian_products"] > 0

    @OBJECTIVES
    def test_inner_step_is_the_dense_cgls_iterate(self, objective, anti):
        # textbook CGLS (Bjorck 1996, sec. 7.4) on the dense Jacobian, built
        # column by column from jvp, with the transpose of that matrix
        kern, points = _trajectory_points(SPHERE, objective, anti)
        for at in points:
            shape = at.grad.shape
            J = np.stack([
                kern.jvp(at, e.reshape(shape)).ravel()
                for e in np.eye(at.grad.size)
            ], axis=1)
            x, b = np.zeros(J.shape[1]), -at.field.ravel()
            s = J.T @ b
            d, gamma = s, s @ s
            stop = so.ETA * np.sqrt(gamma)
            while True:
                q = J @ d
                alpha = gamma / (q @ q)
                x, b = x + alpha * d, b - alpha * q
                s, gamma_old = J.T @ b, gamma
                gamma = s @ s
                if np.sqrt(gamma) <= stop:
                    break
                d = s + gamma / gamma_old * d
            p = so._gauss_newton_step(kern, at, {"jacobian_products": 0})
            assert np.abs(p.ravel() - x).max() <= 1e-9 * np.abs(x).max()

    @pytest.mark.parametrize("solve", [so.minimize, so.solve_self_dual], ids=["relax", "selfdual"])
    def test_jacobian_products_count_every_inner_call(self, solve, monkeypatch):
        calls = []
        for name in ("jvp", "vjp"):
            method = getattr(so._Kernel, name)

            def counted(self, at, w, method=method):
                calls.append(1)
                return method(self, at, w)

            monkeypatch.setattr(so._Kernel, name, counted)
        a0 = co.random_connection(SPHERE, 0.3, seed=26)
        rep = solve(a0, so.SolverConfig(max_iters=30, grad_tol=0.0))
        d = rep.diagnostics
        assert type(d["jacobian_products"]) is int and d["jacobian_products"] > 0
        # line_coefficients makes one jvp and evaluate one vjp
        assert len(calls) - d["line_coefficient_evals"] - d["objective_gradient_evals"] == d["jacobian_products"]
        assert solve(a0, so.SolverConfig(max_iters=30, grad_tol=0.0)).diagnostics == d
        calls.clear()
        rep = solve(co.Cochain.zeros(SPHERE, 1), so.SolverConfig())
        assert rep.n_iters == 0 and rep.diagnostics["jacobian_products"] == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "solve,amplitude,most",
        [(so.minimize, 0.1, 60), (so.minimize, 1.0, 100), (so.solve_self_dual, 0.1, 60)],
        ids=["relax-0.1", "relax-1.0", "selfdual-0.1"],
    )
    def test_outer_step_count_on_the_default_instance(self, solve, amplitude, most):
        # the default instance of relax and selfdual at the default settings;
        # the step counts repeat exactly
        rep = solve(co.random_connection(SPHERE, amplitude, seed=7), so.SolverConfig())
        assert rep.converged and rep.n_iters <= most

    @pytest.mark.parametrize(
        "domain,amplitude,solve,want",
        [
            (SPHERE, 0.1, so.minimize, (34, 200)),
            (SPHERE, 0.1, so.solve_self_dual, (34, 444)),
            (SPHERE, 0.1, lambda a0, cfg: so.solve_self_dual(a0, cfg, anti=True), (37, 518)),
            (Domain((3, 3, 3, 3), "block"), 0.5, so.minimize, (37, 2140)),
        ],
        ids=["relax", "selfdual", "anti-selfdual", "block-3333-relax"],
    )
    def test_trajectory_is_pinned(self, domain, amplitude, solve, want):
        # outer steps and Jacobian products of the default runs: a change of
        # the kernel that moves the trajectory, even at rounding level, shows here
        rep = solve(co.random_connection(domain, amplitude, seed=7), so.SolverConfig())
        assert rep.converged
        assert (rep.n_iters, rep.diagnostics["jacobian_products"]) == want

    @pytest.mark.parametrize("domain", [SPHERE, *NON_CUBIC], ids=["sphere", *NON_CUBIC_IDS])
    @pytest.mark.parametrize("solve", [so.minimize, so.solve_self_dual], ids=["relax", "selfdual"])
    def test_steps_satisfy_armijo_along_their_direction(self, domain, solve, monkeypatch):
        steps = []
        line_step = so._line_step

        def recorded(kern, at, p, counts):
            step = line_step(kern, at, p, counts)
            if step is not None:
                steps.append((at.obj, float(np.vdot(at.grad, p)), *step))
            return step

        monkeypatch.setattr(so, "_line_step", recorded)
        rep = solve(co.random_connection(domain, 0.3, seed=27), so.SolverConfig(max_iters=20, grad_tol=0.0))
        assert len(steps) == rep.n_iters > 0
        for obj0, slope, t, new in steps:
            assert slope < 0
            assert new.obj <= obj0 + so.ARMIJO_C * t * slope

"""Tests for the action, its gradient, and the descent loops."""

import numpy as np
import pytest

from ymdec import algebra as alg
from ymdec import calculus as ca
from ymdec import cochain as co
from ymdec import gauge as ga
from ymdec import solver as so
from ymdec.complex4 import MASKS_BY_DEGREE, Domain

SPHERE = Domain((2, 2, 2, 2), "sphere")
BLOCK = Domain((2, 2, 2, 2), "block")


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
        for chart, k in SPHERE.interior_cells():
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
        fd = np.zeros_like(grad)
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
        a2 = ga.gauge_transform(a, h, su2_tol=1e-10)
        n1 = so.grad_max_norm(so.action_gradient(a))
        n2 = so.grad_max_norm(so.action_gradient(a2))
        assert abs(n1 - n2) <= 1e-9 * (1 + n1)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            so.SolverConfig(armijo_c=1.5)
        with pytest.raises(ValueError):
            so.SolverConfig(backtrack_factor=0.0)
        with pytest.raises(ValueError):
            so.SolverConfig(objective="energy")
        with pytest.raises(ValueError):
            so.SolverConfig(initial_step=-1.0)


class TestMinimize:
    def test_zero_start_converges_immediately(self):
        rep = so.minimize(co.Cochain.zeros(SPHERE, 1), so.SolverConfig())
        assert rep.converged and rep.n_iters == 0
        assert rep.diagnostics["action"] == 0.0

    def test_reaches_gradient_tolerance(self):
        a0 = co.random_connection(SPHERE, 0.1, seed=7)
        rep = so.minimize(a0, so.SolverConfig(max_iters=5000, grad_tol=1e-6))
        assert rep.converged and rep.n_iters <= 5000
        objs = [r[0] for r in rep.iterations]
        assert all(b < a for a, b in zip(objs, objs[1:]))
        assert rep.iterations[-1][1] <= 1e-6
        assert alg.is_su2_algebra(rep.final.values, tol=1e-12)

    def test_first_step_satisfies_armijo(self):
        a0 = co.random_connection(SPHERE, 0.1, seed=9)
        cfg = so.SolverConfig(max_iters=1)
        kern = so._Kernel(SPHERE, "action")
        vecs = so.connection_vectors(a0)
        g0 = kern.gradient(vecs)
        rep = so.minimize(a0, cfg)
        obj0, _, _ = rep.iterations[0]
        obj1, _, step1 = rep.iterations[1]
        assert obj1 <= obj0 - cfg.armijo_c * step1 * float((g0**2).sum()) + 1e-15

    def test_trace_satisfies_weak_armijo(self):
        a0 = co.random_connection(SPHERE, 0.1, seed=10)
        cfg = so.SolverConfig(max_iters=200, grad_tol=0.0)
        rep = so.minimize(a0, cfg)
        rows = rep.iterations
        for (o0, g0, _), (o1, _, s1) in zip(rows, rows[1:]):
            # gmax^2 lower-bounds the squared Euclidean norm in the full test
            assert o1 <= o0 - cfg.armijo_c * s1 * g0**2 + 1e-15

    def test_iterates_stay_su2(self):
        a0 = co.random_connection(SPHERE, 0.1, seed=11)
        rep = so.minimize(a0, so.SolverConfig(max_iters=3, grad_tol=0.0))
        assert alg.is_su2_algebra(rep.final.values, tol=1e-12)

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
        a0 = co.random_connection(SPHERE, 0.1, seed=13)
        rep = so.minimize(a0, so.SolverConfig(max_iters=100, objective="sd_residual"))
        assert rep.objective_name == "sd_residual"
        f0 = ga.curvature(a0)
        assert rep.diagnostics["sd_residual"] < ga.sd_residual(f0)


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

    def test_residual_driven_to_component_equations(self):
        a0 = co.random_connection(SPHERE, 0.05, seed=8)
        cfg = so.SolverConfig(max_iters=3000, grad_tol=1e-6)
        rep = so.solve_self_dual(a0, cfg)
        objs = [r[0] for r in rep.iterations]
        assert all(b < a for a, b in zip(objs, objs[1:]))
        # component defects settle at the sqrt(grad_tol) scale
        assert max(rep.diagnostics["sd_component_defects"]) <= 1e-3

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

    def test_non_descent_direction_restarts(self, monkeypatch):
        kern = so._Kernel(SPHERE, "action")
        at = kern.evaluate(so.connection_vectors(co.random_connection(SPHERE, 0.3, seed=24)))
        counts = {"line_coefficient_evals": 0, "objective_gradient_evals": 0}
        assert so._line_step(kern, at, at.grad, 1e-4, counts) is None
        assert counts == {"line_coefficient_evals": 0, "objective_gradient_evals": 0}

        calls = []
        line_step = so._line_step

        def reverse_first_conjugate_direction(kern, at, p, armijo_c, counts):
            calls.append((p, at.grad))
            return line_step(kern, at, -p if len(calls) == 2 else p, armijo_c, counts)

        monkeypatch.setattr(so, "_line_step", reverse_first_conjugate_direction)
        a0 = co.random_connection(SPHERE, 0.1, seed=24)
        rep = so.minimize(a0, so.SolverConfig(max_iters=5000, grad_tol=1e-6))
        assert rep.diagnostics["restarts"] == 1
        p, grad = calls[2]
        assert np.array_equal(p, -grad)
        assert rep.converged

    def test_counters_match_the_trace(self):
        a0 = co.random_connection(SPHERE, 0.1, seed=25)
        rep = so.minimize(a0, so.SolverConfig(max_iters=40, grad_tol=0.0))
        d = rep.diagnostics
        assert all(type(d[k]) is int for k in ("objective_gradient_evals", "line_coefficient_evals", "restarts"))
        assert d["line_coefficient_evals"] == rep.n_iters + d["restarts"]
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

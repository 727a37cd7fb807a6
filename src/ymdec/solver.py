"""Minimization of the Yang-Mills action and of the self-dual residual
over su(2)-valued connections, stored as real coefficient arrays in the
su(2) basis, shape (charts, k-extents, 4 axes, 3), so every update stays
exactly in the algebra.

Damped Gauss-Newton (Nocedal & Wright, Numerical Optimization, ch. 10 and
sec. 7.1) on the objective 2 |r|^2: each outer step solves min |J p + r| by
CGLS from p = 0 (Bjorck, Numerical Methods for Least Squares Problems,
1996), truncated at |J^T (J p + r)| <= ETA |J^T r|.  Along A + tP the
curvature is exactly F0 + t F1 + t^2 F2, so the objective is a quartic in
t, and the exact line search to a root of a cubic damps the step.  An
Armijo test with the fixed constant ARMIJO_C guards it against rounding;
a CGLS step descends, so one that fails stops the run ("line search stalled").

The kernel is the residual map r = mask L F on real quaternion planes
(Creutz, Phys. Rev. D 21, 2308, 1980: SU(2) as a0 + i a.sigma); L is I for
the action and I -+ dual, a signed permutation of the six pair planes, for
the self-dual residual.  The layout, F, its tangent F1 and F1's adjoint are
gauge's; the kernel's jvp is mask L F1 and its vjp, on the range of r,
c F1^T, so the gradient is 4 vjp(r) and the line's quartic reads jvp.  The
gl(2, C) Cochain calculus (gauge.curvature, action) stays the oracle the
kernel is tested against.
"""

from __future__ import annotations

import logging
import numbers
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg
from . import gauge
from .calculus import norm_sq, star_plan
from .cochain import Cochain, interior, is_finite_real, validate_connection
from .complex4 import Domain
from .timing import phase

log = logging.getLogger(__name__)

OBJECTIVES = ("action", "sd_residual")
ARMIJO_C = 1e-4  # Armijo constant: the line search is exact, so it only guards rounding
ETA = 0.5  # forcing term of the inner least-squares solve


class SolverAbort(RuntimeError):
    """Objective became non-finite or the configuration is unusable."""


@dataclass
class SolverConfig:
    # the solver block's one schema (plus "anti"); the command picks the objective
    max_iters: int = 5000
    grad_tol: float = 1e-6

    def __post_init__(self):
        n, tol = self.max_iters, self.grad_tol
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
            raise ValueError(f"max_iters must be a non-negative integer, got {n!r}")
        if not (is_finite_real(tol) and tol >= 0):
            raise ValueError(f"grad_tol must be a finite number >= 0, got {tol!r}")


@dataclass
class SolverReport:
    objective_name: str
    iterations: list = field(default_factory=list)  # (objective, grad max-norm, step)
    converged: bool = False
    reason: str = ""
    final: Cochain | None = None
    diagnostics: dict = field(default_factory=dict)  # final scalars, evaluation counts

    @property
    def n_iters(self) -> int:
        return max(len(self.iterations) - 1, 0)


def connection_vectors(A: Cochain) -> np.ndarray:
    """su(2) coefficient array of a connection, shape (..., 4, 3); a form that
    validate_connection rejects raises ValidationError instead of being projected."""
    return alg.project_su2(validate_connection(A).values)


def vectors_to_connection(domain: Domain, vecs: np.ndarray) -> Cochain:
    return Cochain(domain, 1, alg.embed_su2(vecs))


def action(A: Cochain) -> float:
    """S = |F|^2 over interior cells, via the assembled curvature."""
    return norm_sq(gauge.curvature(A))


# an iterate, its objective and gradient, its masked field (F or F -+ dual F)
# and the gathered stencil operands of its planes
_Point = namedtuple("_Point", "vecs obj grad field planes")


class _Kernel:
    """The residual map r = mask L F of one objective on one domain, its
    Jacobian products and the objective 2 |r|^2, on quaternion planes (see
    gauge).  With a field R = s I + sum_a u_a e_a the objective is
    2 sum mask (s^2 + |u|^2).
    """

    def __init__(self, domain: Domain, objective: str, anti: bool = False):
        if objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
        self.domain = domain
        self.objective_name = objective
        self.anti = anti
        mask = np.zeros((domain.ncharts, *domain.extents))
        mask[interior(domain)] = 1.0
        self.mask = np.append(mask.ravel(), 0.0)[:, None]   # (cells + sentinel, pair)
        # the dual map on pair planes: a signed permutation
        plan = sorted(star_plan(2))
        self.dual_perm = np.array([i for _, _, i in plan])
        self.dual_sign = (1.0 if anti else -1.0) * np.array([sign for _, sign, _ in plan])

    def _field(self, F: np.ndarray) -> np.ndarray:
        """The masked field whose squared norm is the objective; overwrites F."""
        if self.objective_name == "sd_residual":
            R = np.take(F, self.dual_perm, axis=-1)
            R *= self.dual_sign
            R += F
            F = R
        F *= self.mask
        return F

    def objective(self, vecs: np.ndarray) -> float:
        # overflow on wild iterates is legitimate; the descent checks finiteness
        with np.errstate(over="ignore", invalid="ignore"):
            r = self._field(gauge.curvature_planes(gauge.pair_operands(self.domain, vecs)))
            return 2.0 * float(np.vdot(r, r))

    def gradient(self, vecs: np.ndarray) -> np.ndarray:
        return self.evaluate(vecs).grad

    def evaluate(self, vecs: np.ndarray) -> _Point:
        """Objective and gradient from one curvature evaluation: the
        gradient of 2 |r|^2 is 4 vjp(r)."""
        x = gauge.pair_operands(self.domain, vecs)
        with np.errstate(over="ignore", invalid="ignore"):
            r = self._field(gauge.curvature_planes(x))
            at = _Point(vecs, 2.0 * float(np.vdot(r, r)), None, r, x)
            grad = self.vjp(at, r)
            grad *= 4.0
            return at._replace(grad=grad)

    def jvp(self, at: _Point, p: gauge.PairPlanes) -> np.ndarray:
        """J P = mask L F1 at the point, for the operands p = gauge.pair_operands of P."""
        return self._field(gauge.curvature_tangent(at.planes, p))

    def vjp(self, at: _Point, w: np.ndarray) -> np.ndarray:
        """J^T w for w in the range of the residual map (r and every J P), where
        L^T mask w = c w exactly: c = 1 for the action, and 2 for the (anti-)
        self-dual residual, whose L is symmetric with L^2 = 2 L.  No transpose pass."""
        g = gauge.curvature_adjoint(self.domain, at.planes, w)
        g *= 2.0 if self.objective_name == "sd_residual" else 1.0
        return g

    def line_coefficients(self, at: _Point, p: np.ndarray) -> np.ndarray:
        """c with objective(at.vecs + t p) = c[0] + c[1] t + ... + c[4] t^4:
        F(A + tP) = F0 + t F1 + t^2 F2 on the curvature stencil, with
        F2 = stencil(P, P); the residual map is linear.  Only P is gathered:
        the operands of A are kept in the point.
        """
        y = gauge.pair_operands(self.domain, p)
        with np.errstate(over="ignore", invalid="ignore"):
            r0, r1, r2 = at.field, self.jvp(at, y), self._field(gauge.curvature_stencil(y, y))
            g00, g01, g02, g11, g12, g22 = (
                float(np.vdot(u, v))
                for u, v in ((r0, r0), (r0, r1), (r0, r2), (r1, r1), (r1, r2), (r2, r2))
            )
            return 2.0 * np.array([g00, 2 * g01, g11 + 2 * g02, 2 * g12, g22])


def _line_minimum(c: np.ndarray) -> float | None:
    """The t > 0 of least value among the stationary points of the quartic
    sum_n c[n] t^n, or None if there is none or c is not finite.  In units
    of tau every coefficient of the derivative is at most |c[1]|; leading
    ones at rounding level there (c[4] ~ 0: P u P negligible) are dropped."""
    d = np.array([c[1], 2 * c[2], 3 * c[3], 4 * c[4]])
    if not (np.isfinite(c).all() and d[0] < 0 and d[1:].any()):
        return None
    tau = 1.0 / max((abs(d[n]) / -d[0]) ** (1.0 / n) for n in (1, 2, 3))
    ds = d * tau ** np.arange(4) / -d[0]
    roots = np.roots(np.trim_zeros(np.where(abs(ds) > 1e-13, ds, 0.0), "b")[::-1])
    s = roots.real[(roots.imag == 0) & (roots.real > 0)]
    values = np.polyval((c * tau ** np.arange(5))[::-1], s)
    return float(tau * s[np.argmin(values)]) if s.size else None


def action_gradient(A: Cochain) -> np.ndarray:
    """Gradient of the action in the su(2) coefficient basis, shape (..., 4, 3).

    Defining property: for every elementary coefficient direction E,
    grad . E = 2 Re (dE + A u E + E u A, F).
    """
    kern = _Kernel(A.domain, "action")
    return kern.gradient(connection_vectors(A))


def grad_max_norm(grad: np.ndarray) -> float:
    """Max over (chart, cell, axis) of the Euclidean norm of the 3-vector.

    Invariant under constant gauge transforms, which rotate the basis
    coefficients by the adjoint action.
    """
    return float(np.sqrt((grad**2).sum(axis=-1)).max()) if grad.size else 0.0


def _line_step(kern: _Kernel, at: _Point, p: np.ndarray, counts: dict):
    """(t, point) at the exact line minimum along p, or None if p is not a
    descent direction, the line has no minimum or the step fails Armijo."""
    slope = float(np.vdot(at.grad, p))
    if not slope < 0:
        return None
    counts["line_coefficient_evals"] += 1
    t = _line_minimum(kern.line_coefficients(at, p))
    if t is None:
        return None
    counts["objective_gradient_evals"] += 1
    new = kern.evaluate(at.vecs + t * p)
    if not np.isfinite(new.obj):
        raise SolverAbort(f"objective not finite at step {t}: {new.obj}")
    if new.obj > at.obj + ARMIJO_C * t * slope:
        return None
    return t, new


def _gauss_newton_step(kern: _Kernel, at: _Point, counts: dict) -> np.ndarray:
    """p with |J^T (J p + r)| <= ETA |J^T r| by CGLS on min |J p + r| from
    p = 0, or the last iterate when |J d|^2 is not positive and finite.
    Every residual b = -r - J p is in the range of r, where vjp is exact."""
    p = np.zeros_like(at.grad)
    b = -at.field
    s = at.grad / -4.0  # J^T b at p = 0
    d, gamma = s, float(np.vdot(s, s))
    stop = ETA**2 * gamma
    for _ in range(p.size):
        counts["jacobian_products"] += 1
        q = kern.jvp(at, gauge.pair_operands(kern.domain, d))
        qq = float(np.vdot(q, q))
        if not (np.isfinite(qq) and qq > 0):
            break
        alpha = gamma / qq
        p += alpha * d
        b -= alpha * q
        counts["jacobian_products"] += 1
        s = kern.vjp(at, b)
        gamma, gamma_old = float(np.vdot(s, s)), gamma
        if gamma <= stop:
            break
        d = s + (gamma / gamma_old) * d
    return p


def _descend(vecs: np.ndarray, cfg: SolverConfig, kern: _Kernel) -> SolverReport:
    report = SolverReport(objective_name=kern.objective_name)
    counts = dict(objective_gradient_evals=1, line_coefficient_evals=0, jacobian_products=0)
    with phase(log, "solve"):
        at = kern.evaluate(vecs)
        if not np.isfinite(at.obj):
            raise SolverAbort(f"objective not finite at start: {at.obj}")
        gmax = grad_max_norm(at.grad)
        report.iterations.append((at.obj, gmax, 0.0))
        for _ in range(cfg.max_iters):
            if gmax <= cfg.grad_tol:
                break
            step = _line_step(kern, at, _gauss_newton_step(kern, at, counts), counts)
            if step is None:
                report.reason = "line search stalled"
                break
            t, at = step
            gmax = grad_max_norm(at.grad)
            report.iterations.append((at.obj, gmax, t))
        if not report.reason:
            if gmax <= cfg.grad_tol:
                report.converged = True
                report.reason = "gradient below tolerance"
            else:
                report.reason = "iteration limit reached"
    with phase(log, "diagnostics"):
        report.final = vectors_to_connection(kern.domain, at.vecs)
        F = gauge.curvature(report.final)
        report.diagnostics = {**gauge.connection_scalars(report.final, F), **counts}
        if kern.objective_name == "sd_residual":
            if kern.anti:
                report.diagnostics["asd_residual"] = gauge.sd_residual(F, anti=True)
            report.diagnostics["sd_component_defects"] = list(gauge.sd_component_defects(F, kern.anti))
    return report


def minimize(A0: Cochain, cfg: SolverConfig) -> SolverReport:
    """Gauss-Newton with an exact line search on the action |F|^2.

    Iterates are coefficient vectors, hence exactly su(2)-valued; stops at
    cfg.grad_tol on the gradient max-norm, at the cap of cfg.max_iters outer
    steps, or when the line search along the Gauss-Newton step fails.
    """
    return _descend(connection_vectors(A0), cfg, _Kernel(A0.domain, "action"))


def solve_self_dual(A0: Cochain, cfg: SolverConfig, anti: bool = False) -> SolverReport:
    """Minimize |F -+ dual F|^2; reports the three componentwise defects.

    anti=True flips the sign, targeting the anti-self-dual equations, and
    adds asd_residual = |F + dual F| to the diagnostics.
    """
    return _descend(connection_vectors(A0), cfg, _Kernel(A0.domain, "sd_residual", anti))

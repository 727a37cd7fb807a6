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

The kernel is the residual map r = L F on the interior rows, the cells the
objective keeps, on real quaternion planes (Creutz, Phys. Rev. D 21, 2308,
1980: SU(2) as a0 + i a.sigma); L is I for the action and I -+ dual, a
signed permutation of the six pair planes, for the self-dual residual.
The layout, F and its derivative are gauge's: the kernel holds the
interior rows' gather table, gauge.pair_operands stacks a point's
operands through it, and a point holds the per-row blocks K of F's
derivative, so jvp is L K applied to the gathered operands of P and vjp,
on the range of r, c K^T scattered back; the gradient is 4 vjp(r) and the
line's quartic reads jvp.  Coefficient vectors are plane-backed (see
gauge) from connection_vectors on, and every gradient and vjp is too, so
a product gathers and scatters them in place.  Every reduction
is an einsum, never BLAS, so a run does not depend on the BLAS thread
count.  The gl(2, C) Cochain calculus (gauge.curvature, action) stays the
oracle the kernel is tested against.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field, make_dataclass

import numpy as np

from . import algebra as alg
from . import gauge
from .calculus import norm_sq, star_plan
from .cochain import Cochain, is_finite_real, validate_connection
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
    iterations: list = field(default_factory=list)  # (objective, grad max-norm, step)
    converged: bool = False
    reason: str = ""
    final: Cochain | None = None
    diagnostics: dict = field(default_factory=dict)  # final scalars, evaluation counts

    @property
    def n_iters(self) -> int:
        return max(len(self.iterations) - 1, 0)


def connection_vectors(A: Cochain) -> np.ndarray:
    """su(2) coefficient array of a connection, shape (..., 4, 3), plane-backed
    (see gauge); a form that validate_connection rejects raises
    ValidationError instead of being projected."""
    return alg.project_su2(validate_connection(A).values)


def vectors_to_connection(domain: Domain, vecs: np.ndarray) -> Cochain:
    return Cochain(domain, 1, alg.embed_su2(vecs))


def action(A: Cochain) -> float:
    """S = |F|^2 over interior cells, via the assembled curvature."""
    return norm_sq(gauge.curvature(A))


# an iterate, its objective and gradient, its field on the interior rows
# (L F) and the blocks of F's derivative there, dropped once its line is known
_Point = make_dataclass("_Point", ["vecs", "obj", "grad", "field", "blocks"])


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """sum(u v) over every entry, by einsum: no BLAS call, so the summation
    order, and with it every report, does not depend on the thread count."""
    return float(np.einsum("i,i->", u.ravel(), v.ravel()))


class _Kernel:
    """The residual map r = L F of one objective on one domain's interior
    rows, its Jacobian products and the objective 2 |r|^2, on quaternion
    planes (see gauge).  With a field R = s I + sum_a u_a e_a the objective
    is 2 sum (s^2 + |u|^2).
    """

    def __init__(self, domain: Domain, objective: str, anti: bool = False):
        if objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
        self.domain = domain
        self.objective_name = objective
        self.anti = anti
        self.table = gauge.interior_gather(domain)
        # the dual map on pair planes: a signed permutation
        plan = sorted(star_plan(2))
        self.dual_perm = np.array([i for _, _, i in plan])
        self.dual_sign = (1.0 if anti else -1.0) * np.array([sign for _, sign, _ in plan])

    def _field(self, F: np.ndarray) -> np.ndarray:
        """The field whose squared norm is the objective; may overwrite F."""
        if self.objective_name == "sd_residual":
            R = np.take(F, self.dual_perm, axis=-1)
            R *= self.dual_sign
            R += F
            F = R
        return F

    def _planes(self, vecs: np.ndarray) -> np.ndarray:
        """The stacked operand planes (3, 4, nrows, 6) of coefficient vectors."""
        return gauge.pair_operands(self.table, 0.5 * vecs)

    def objective(self, vecs: np.ndarray) -> float:
        # overflow on wild iterates is legitimate; the descent checks finiteness
        with np.errstate(over="ignore", invalid="ignore"):
            r = self._field(gauge.curvature_planes(self._planes(vecs)))
            return 2.0 * _dot(r, r)

    def gradient(self, vecs: np.ndarray) -> np.ndarray:
        return self.evaluate(vecs).grad

    def evaluate(self, vecs: np.ndarray) -> _Point:
        """Objective, gradient and the blocks K from one gather: the
        gradient of 2 |r|^2 is 4 vjp(r)."""
        x = self._planes(vecs)
        with np.errstate(over="ignore", invalid="ignore"):
            r = self._field(gauge.curvature_planes(x))
            at = _Point(vecs, 2.0 * _dot(r, r), None, r, gauge.curvature_blocks(x))
            at.grad = self.vjp(at, r)
            at.grad *= 4.0
            return at

    def jvp(self, at: _Point, p: np.ndarray) -> np.ndarray:
        """J P = L F1 at the point, for coefficient vectors P: one gather, one contraction."""
        return self._field(np.einsum("ocsnp,csnp->onp", at.blocks, gauge.pair_operands(self.table, p)))

    def vjp(self, at: _Point, w: np.ndarray) -> np.ndarray:
        """J^T w for w in the range of the residual map (r and every J P), where
        L^T w = c w exactly: c = 1 for the action, and 2 for the (anti-)
        self-dual residual, whose L is symmetric with L^2 = 2 L.  No transpose pass."""
        g = gauge.interior_scatter(self.domain, np.einsum("ocsnp,onp->csnp", at.blocks, w))
        if self.objective_name == "sd_residual":
            g *= 2.0
        return g

    def line_coefficients(self, at: _Point, p: np.ndarray) -> np.ndarray:
        """c with objective(at.vecs + t p) = c[0] + c[1] t + ... + c[4] t^4:
        F(A + tP) = F0 + t F1 + t^2 F2 on the curvature stencil, with
        F2 = stencil(P, P); the residual map is linear.  Only P is gathered:
        the point holds F0 and the blocks of F1.
        """
        y = self._planes(p)
        with np.errstate(over="ignore", invalid="ignore"):
            r0, r1, r2 = at.field, self.jvp(at, p), self._field(gauge.curvature_stencil(y, y))
            g00, g01, g02, g11, g12, g22 = (
                _dot(u, v) for u, v in ((r0, r0), (r0, r1), (r0, r2), (r1, r1), (r1, r2), (r2, r2))
            )
            return 2.0 * np.array([g00, 2 * g01, g11 + 2 * g02, 2 * g12, g22])


def _line_minimum(c: np.ndarray) -> float | None:
    """The t > 0 of least value among the stationary points of the quartic
    sum_n c[n] t^n, or None if there is none or c is not finite.  In units
    of tau the derivative is e[0] + e[1] s + e[2] s^2 + e[3] s^3 with
    e[0] = -1 and max |e[n]| = 1; leading coefficients at rounding level
    there (c[4] ~ 0: P u P negligible) are dropped, leaving a cubic, a
    quadratic or a linear equation.  The values compared are those of the
    quartic less c[0], which in these units is a positive multiple of
    sum_n e[n] s^(n+1) / (n+1)."""
    c = [float(v) for v in c]
    d = [c[1], 2 * c[2], 3 * c[3], 4 * c[4]]
    if not (all(map(math.isfinite, c)) and d[0] < 0 and any(d[1:])):
        return None
    scale = [(abs(d[n]) / -d[0]) ** (1.0 / n) for n in (1, 2, 3)]
    m = max(scale)  # 1 / tau
    if not 0.0 < m < math.inf:
        return None
    e = [-1.0] + [math.copysign((r / m) ** n, dn) for n, (r, dn) in enumerate(zip(scale, d[1:]), 1)]
    kept = [v if abs(v) > 1e-13 else 0.0 for v in e]
    while kept[-1] == 0.0:
        kept.pop()
    best = None
    for s in _real_roots(kept):
        value = (((e[3] / 4 * s + e[2] / 3) * s + e[1] / 2) * s + e[0]) * s
        if s > 0 and (best is None or value < best[0]):
            best = (value, s)
    return best[1] / m if best else None


def _real_roots(e: list) -> list:
    """The real roots of e[0] + e[1] s + ... of degree 1 to 3, with e[0] = -1
    and every |e[n]| <= 1, in closed form and polished by one Newton step.
    The cubic is solved for w = 1 / s: w^3 - e[1] w^2 - e[2] w - e[3] has
    coefficients bounded by 1, so a small e[3] costs the other roots no
    accuracy.  Its root of largest modulus (Cardano, or Viete's three),
    polished, is divided out, and the stable quadratic formula gives the
    other two (Press et al., Numerical Recipes, 3rd ed., sec. 5.6): roots
    that nearly meet are not read off a cosine."""
    if len(e) == 2:
        roots = [1.0 / e[1]]
    elif len(e) == 3:
        roots = _quadratic_roots(e[1] / e[2], -1.0 / e[2])
    else:
        # w^3 + b w^2 + c w + g, with w = z - b / 3 and z^3 + p z + q = 0
        b, c, g = -e[1], -e[2], -e[3]
        p = c - b * b / 3.0
        q = 2.0 * b**3 / 27.0 - b * c / 3.0 + g
        h = q * q / 4.0 + p**3 / 27.0
        if h > 0:  # one real root (Cardano)
            u = -math.copysign((abs(q) / 2.0 + math.sqrt(h)) ** (1.0 / 3.0), q)
            z = [u - p / (3.0 * u)]
        elif p < 0:  # three real roots (Viete)
            m = 2.0 * math.sqrt(-p / 3.0)
            phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m)))) / 3.0
            z = [m * math.cos(phi - 2.0 * math.pi * k / 3.0) for k in range(3)]
        else:  # p = q = 0: a triple root
            z = [0.0]
        w = max((zk - b / 3.0 for zk in z), key=abs)
        df = (3.0 * w + 2.0 * b) * w + c
        if df != 0.0:
            w -= (((w + b) * w + c) * w + g) / df
        roots = [1.0 / w] + [1.0 / v for v in _quadratic_roots(b + w, -g / w) if v != 0.0]
    out = []
    for s in roots:
        f, df = e[-1], 0.0
        for coef in e[-2::-1]:
            df = df * s + f
            f = f * s + coef
        out.append(s - f / df if df != 0.0 else s)
    return out


def _quadratic_roots(b: float, c: float) -> list:
    """The real roots of s^2 + b s + c, without cancellation."""
    disc = b * b - 4.0 * c
    if disc < 0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [q, c / q] if q != 0.0 else [0.0, 0.0]


def action_gradient(A: Cochain) -> np.ndarray:
    """Gradient of the action in the su(2) coefficient basis, shape (..., 4, 3),
    plane-backed (see gauge).

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
    slope = _dot(at.grad, p)
    if not slope < 0:
        return None
    counts["line_coefficient_evals"] += 1
    t = _line_minimum(kern.line_coefficients(at, p))
    if t is None:
        return None
    at.blocks = None  # nothing reads them again: at most one point's K is alive
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
    Every residual b = -r - J p is in the range of r, where vjp is exact.
    CGLS runs on the component planes v.reshape(-1, 3).T: 2-D and
    C-contiguous, they take numpy's fast path, where a permuted
    (charts, k..., 4, 3) view costs 1.5-2.5 us more per operation at 2^4."""
    s = at.grad.reshape(-1, 3).T / -4.0  # J^T b at p = 0
    p = np.zeros_like(s)
    b = -at.field
    d, gamma = s, _dot(s, s)
    stop = ETA**2 * gamma
    for _ in range(p.size):
        counts["jacobian_products"] += 1
        q = kern.jvp(at, d.T)
        qq = _dot(q, q)
        if not (math.isfinite(qq) and qq > 0):
            break
        alpha = gamma / qq
        p += alpha * d
        b -= alpha * q
        counts["jacobian_products"] += 1
        s = kern.vjp(at, b).reshape(-1, 3).T
        gamma, gamma_old = _dot(s, s), gamma
        if gamma <= stop:
            break
        d = s + (gamma / gamma_old) * d
    return p.T.reshape(at.grad.shape)


def _descend(vecs: np.ndarray, cfg: SolverConfig, kern: _Kernel) -> SolverReport:
    report = SolverReport()
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
        at.blocks = None  # the diagnostics never read K
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

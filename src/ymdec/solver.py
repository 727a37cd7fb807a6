"""Minimization of the Yang-Mills action and of the self-dual residual
over su(2)-valued connections, stored as real coefficient arrays in the
su(2) basis, shape (charts, k-extents, 4 axes, 3), so every update stays
exactly in the algebra.

Polak-Ribiere+ nonlinear conjugate gradients with an exact line search
(Nocedal & Wright, Numerical Optimization, sec. 5.2): along A + tP the
curvature is exactly F0 + t F1 + t^2 F2, so |F|^2 and |F -+ dual F|^2 are
quartics in t, minimized at a root of a cubic.  An Armijo test guards each
step; on failure, or when the conjugate direction is not a descent
direction, the step restarts along the steepest descent.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg
from . import gauge
from .calculus import dual, norm_sq, shift_minus, shift_plus
from .cochain import Cochain, interior
from .complex4 import Domain

OBJECTIVES = ("action", "sd_residual")

_PAIR_INDEX = {pair: n for n, pair in enumerate(gauge.DIR_PAIRS)}


class SolverAbort(RuntimeError):
    """Objective became non-finite or the configuration is unusable."""


@dataclass
class SolverConfig:
    # backtrack_factor, initial_step, seed: validated, unused, kept for old configs
    max_iters: int = 5000
    grad_tol: float = 1e-6
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    initial_step: float = 1.0
    objective: str = "action"
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.armijo_c < 1:
            raise ValueError("armijo_c must be in (0, 1)")
        if not 0 < self.backtrack_factor < 1:
            raise ValueError("backtrack_factor must be in (0, 1)")
        if self.initial_step <= 0:
            raise ValueError("initial_step must be positive")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")


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

    def to_dict(self) -> dict:
        return {
            "objective": self.objective_name,
            "converged": self.converged,
            "reason": self.reason,
            "iterations": self.n_iters,
            "trace": [[float(o), float(g), float(s)] for o, g, s in self.iterations],
            "diagnostics": {k: v for k, v in self.diagnostics.items()},
        }


def connection_vectors(A: Cochain) -> np.ndarray:
    """su(2) coefficient array of a connection, shape (..., 4, 3)."""
    if A.degree != 1:
        raise ValueError("needs a degree-1 form")
    return alg.project_su2(A.values)


def vectors_to_connection(domain: Domain, vecs: np.ndarray) -> Cochain:
    return Cochain(domain, 1, alg.embed_su2(vecs))


def action(A: Cochain) -> float:
    """S = |F|^2 over interior cells, via the assembled curvature."""
    return norm_sq(gauge.curvature(A))


# an iterate, its objective and gradient, and its field: F or F -+ dual F
_Point = namedtuple("_Point", "vecs obj grad field")


class _Kernel:
    """Array-level objective/gradient evaluations for one domain."""

    def __init__(self, domain: Domain, objective: str, anti: bool = False):
        self.domain = domain
        self.objective_name = objective
        self.anti = anti
        mask = np.zeros((domain.ncharts, *domain.extents), dtype=np.float64)
        mask[interior(domain)[:5]] = 1.0
        self.mask_dirs = mask[..., None, None, None]   # broadcasts over (dir, 2, 2)
        self.mask_cells = mask[..., None, None]        # broadcasts over (2, 2)

    def _field(self, F: np.ndarray) -> np.ndarray:
        """The 2-form whose masked squared norm is the objective."""
        if self.objective_name == "sd_residual":
            d = dual(Cochain(self.domain, 2, F)).values
            F = F + d if self.anti else F - d
        return F

    def objective(self, vecs: np.ndarray) -> float:
        # overflow on wild iterates is legitimate; the descent checks finiteness
        A = vectors_to_connection(self.domain, vecs)
        with np.errstate(over="ignore", invalid="ignore"):
            R = self._field(gauge.curvature_components(A).values)
            return float(np.sum(np.abs(self.mask_dirs * R) ** 2))

    def gradient(self, vecs: np.ndarray) -> np.ndarray:
        return self.evaluate(vecs).grad

    def evaluate(self, vecs: np.ndarray) -> _Point:
        """Objective and gradient from one curvature evaluation; the gradient
        is one adjoint sweep: for a weight 2-form W the pairing
        2 Re (dF(delta), W) collects, per axis i, the matrix
          M_i(n) = sum_{j != i} [W^{ij H}_n + A^j_{tau_i n} W^{ij H}_n]
                               - [W^{ij H} + W^{ij H} A^j](sigma_j n)
        restricted to interior cells; the gradient components are
        2 Re tr(lam_a M_i).  W = F for the action, W = 2 (F -+ dual F) for
        the (anti-)self-dual residual.
        """
        A = vectors_to_connection(self.domain, vecs)
        with np.errstate(over="ignore", invalid="ignore"):
            R = self._field(gauge.curvature_components(A).values)
            W = 2.0 * R if self.objective_name == "sd_residual" else R
            Wd = alg.conj_transpose(W)
            M = np.zeros(A.values.shape, dtype=np.complex128)
            for i in (1, 2, 3, 4):
                acc = None
                for j in (1, 2, 3, 4):
                    if j == i:
                        continue
                    d = _PAIR_INDEX[(min(i, j), max(i, j))]
                    wij = Wd[..., d, :, :] if i < j else -Wd[..., d, :, :]
                    aj = A.values[..., j - 1, :, :]
                    t1 = self.mask_cells * (wij + shift_plus(self.domain, aj, i) @ wij)
                    t2 = self.mask_cells * (wij + wij @ aj)
                    term = t1 - shift_minus(self.domain, t2, j)
                    acc = term if acc is None else acc + term
                M[..., i - 1, :, :] = acc
            grad = 2.0 * np.real(np.einsum("ars,...sr->...a", alg.LAMBDA, M))
            return _Point(vecs, float(np.sum(np.abs(self.mask_dirs * R) ** 2)), grad, R)

    def line_coefficients(self, at: _Point, p: np.ndarray) -> np.ndarray:
        """c with objective(at.vecs + t p) = c[0] + c[1] t + ... + c[4] t^4:
        F(A + tP) = F0 + t F1 + t^2 F2 on the curvature stencil, with
          F1^{ij} = dP^{ij} + A^i P^j_{tau_i} + P^i A^j_{tau_i}
                            - A^j P^i_{tau_j} - P^j A^i_{tau_j},
          F2^{ij} = P^i P^j_{tau_i} - P^j P^i_{tau_j}; the residual map is linear.
        """
        mats, dirs = alg.embed_su2(at.vecs), alg.embed_su2(p)
        F1, F2 = np.empty_like(at.field), np.empty_like(at.field)
        with np.errstate(over="ignore", invalid="ignore"):
            for d, (i, j) in enumerate(gauge.DIR_PAIRS):
                ai, aj = mats[..., i - 1, :, :], mats[..., j - 1, :, :]
                pi, pj = dirs[..., i - 1, :, :], dirs[..., j - 1, :, :]
                aj_i, pj_i = (shift_plus(self.domain, x, i) for x in (aj, pj))
                ai_j, pi_j = (shift_plus(self.domain, x, j) for x in (ai, pi))
                F1[..., d, :, :] = ((pj_i - pj) - (pi_j - pi) + ai @ pj_i + pi @ aj_i
                                    - aj @ pi_j - pj @ ai_j)
                F2[..., d, :, :] = pi @ pj_i - pj @ pi_j
            r = [self.mask_dirs * R for R in (at.field, self._field(F1), self._field(F2))]
            g = np.array([[np.vdot(x, y).real for y in r] for x in r])
            return np.array([g[0, 0], 2 * g[0, 1], g[1, 1] + 2 * g[0, 2], 2 * g[1, 2], g[2, 2]])


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


def _line_step(kern: _Kernel, at: _Point, p: np.ndarray, armijo_c: float, counts: dict):
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
    if new.obj > at.obj + armijo_c * t * slope:
        return None
    return t, new


def _descend(domain: Domain, vecs: np.ndarray, cfg: SolverConfig, kern: _Kernel) -> SolverReport:
    report = SolverReport(objective_name=kern.objective_name)
    counts = {"objective_gradient_evals": 1, "line_coefficient_evals": 0, "restarts": 0}
    at = kern.evaluate(vecs)
    if not np.isfinite(at.obj):
        raise SolverAbort(f"objective not finite at start: {at.obj}")
    gmax = grad_max_norm(at.grad)
    report.iterations.append((at.obj, gmax, 0.0))
    p, steepest = -at.grad, True
    for _ in range(cfg.max_iters):
        if gmax <= cfg.grad_tol:
            break
        step = _line_step(kern, at, p, cfg.armijo_c, counts)
        if step is None and not steepest:
            counts["restarts"] += 1
            p = -at.grad
            step = _line_step(kern, at, p, cfg.armijo_c, counts)
        if step is None:
            report.reason = "line search stalled"
            break
        t, new = step
        beta = max(0.0, float(np.vdot(new.grad, new.grad - at.grad) / np.vdot(at.grad, at.grad)))
        p, steepest, at = beta * p - new.grad, beta == 0.0, new
        gmax = grad_max_norm(at.grad)
        report.iterations.append((at.obj, gmax, t))
    if not report.reason:
        if gmax <= cfg.grad_tol:
            report.converged = True
            report.reason = "gradient below tolerance"
        else:
            report.reason = "iteration limit reached"
    report.final = final = vectors_to_connection(domain, at.vecs)
    F = gauge.curvature(final)
    report.diagnostics = {
        "action": norm_sq(F),
        "ym_residual_norm": gauge.yang_mills_residual_norm(final),
        "sd_residual": gauge.sd_residual(F),
        "bianchi_defect": gauge.bianchi_residual(final),
        **counts,
    }
    return report


def minimize(A0: Cochain, cfg: SolverConfig) -> SolverReport:
    """Nonlinear CG with an exact line search on the configured objective.

    Iterates are coefficient vectors, hence exactly su(2)-valued; stops at
    cfg.grad_tol on the gradient max-norm, at the iteration cap, or when a
    steepest descent step fails the Armijo test.
    """
    kern = _Kernel(A0.domain, cfg.objective)
    return _descend(A0.domain, connection_vectors(A0), cfg, kern)


def solve_self_dual(A0: Cochain, cfg: SolverConfig, anti: bool = False) -> SolverReport:
    """Minimize |F -+ dual F|^2; reports the three componentwise defects.

    anti=True flips the sign, targeting the anti-self-dual equations.
    """
    kern = _Kernel(A0.domain, "sd_residual", anti=anti)
    report = _descend(A0.domain, connection_vectors(A0), cfg, kern)
    defects = gauge.sd_component_defects(gauge.curvature(report.final), anti=anti)
    report.diagnostics["sd_component_defects"] = [float(x) for x in defects]
    return report

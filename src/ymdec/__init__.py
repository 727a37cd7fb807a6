"""Discrete exterior calculus and SU(2) Yang-Mills theory on a
4-dimensional double complex: a combinatorial block or glued 4-sphere,
matrix-valued forms, the cup/star/coboundary calculus, gauge fields with
curvature and self-duality, and a Gauss-Newton action minimizer.
"""

__version__ = "0.1.0"

from .algebra import (
    LAMBDA,
    SIGMA,
    conj_transpose,
    embed_su2,
    exp_su2,
    project_su2,
    trace,
)
from .calculus import (
    coboundary,
    codifferential,
    copy_swap,
    cup,
    dual,
    green_boundary_term,
    inner_product,
    norm,
    norm_sq,
    star,
)
from .cochain import (
    Cochain,
    add,
    conj_transpose_form,
    deserialize,
    dual_compatible_gauge,
    random_connection,
    random_form,
    random_gauge,
    scale,
    serialize,
    sub,
    validate_connection,
    validate_gauge,
    zero_pad,
)
from .complex4 import Cell, Domain, OutOfDomain, boundary_cell
from .gauge import (
    anti_self_dual_part,
    bianchi_residual,
    curvature,
    dual_compat_defects,
    gauge_inverse,
    gauge_transform,
    is_dual_compatible,
    sd_component_defects,
    sd_residual,
    self_dual_part,
    yang_mills_residual,
    yang_mills_residual_norm,
)
from .solver import (
    SolverConfig,
    SolverReport,
    action,
    action_gradient,
    minimize,
    solve_self_dual,
)

"""Best-of-N layer probes at the sizes the ROADMAP names.

They feed per-layer metrics only.  The kernel's operation count and bytes
moved are computed from a per-cell model of its numpy steps, not counted
by hardware: every numpy temporary is taken to be read from and written
to memory in full, with no cache reuse.
"""

from __future__ import annotations

from time import perf_counter

DOMAINS = {
    "sphere-2": ((2, 2, 2, 2), "sphere"),
    "sphere-4": ((4, 4, 4, 4), "sphere"),
    "sphere-8": ((8, 8, 8, 8), "sphere"),
    "block-4": ((4, 4, 4, 4), "block"),
    "block-8": ((8, 8, 8, 8), "block"),
}

# per stored cell, one objective plus one gradient evaluation of
# solver._Kernel on the action: (flops, bytes) for each numpy step.
# A 2x2 complex product is 56 flops (8 complex multiplies, 4 adds), a 2x2
# complex add 8; one matrix plane is 64 bytes per cell, a 3-vector 24.
KERNEL_MODEL = (
    # objective
    ("embed_su2", 192, 96 + 256),
    ("curvature: 6 x (2 shifts, 2 products, 4 adds, store)", 6 * 144, 6 * 1536),
    ("mask, |.|^2, sum", 48 + 96 + 24 + 24, 776 + 576 + 384 + 192),
    # gradient
    ("embed_su2", 192, 96 + 256),
    ("curvature", 6 * 144, 6 * 1536),
    ("conj_transpose", 24, 768),
    ("adjoint sweep: 12 x (2 shifts, 2 products, 5 adds, 2 masks)", 12 * 164, 12 * 1744),
    ("store M, lambda traces, real part", 384 + 24, 512 + 448 + 400),
)


def _best_of(fn, n):
    best = float("inf")
    for _ in range(n):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def run_probes(seed):
    """{metric name: value}, and a list of probes that could not run."""
    import numpy as np
    from ymdec import algebra, calculus, cochain, solver
    from ymdec.complex4 import Domain

    out, errors = {}, []
    rng = np.random.default_rng(seed)
    for label, (sizes, topology) in DOMAINS.items():
        domain = Domain(sizes, topology)
        repeats = 3 if sizes[0] >= 8 else 7
        try:
            kern = solver._Kernel(domain, "action")
            vecs = solver.connection_vectors(cochain.random_connection(domain, 0.5, seed))
            kern.objective(vecs)
            kern.gradient(vecs)
            out[f"probe.kernel.{label}.objective_ms"] = 1e3 * _best_of(lambda: kern.objective(vecs), repeats)
            out[f"probe.kernel.{label}.gradient_ms"] = 1e3 * _best_of(lambda: kern.gradient(vecs), repeats)
        except (AttributeError, TypeError) as e:
            errors.append(f"kernel {label}: {e!r}")
            out[f"probe.kernel.{label}.objective_ms"] = 0.0
            out[f"probe.kernel.{label}.gradient_ms"] = 0.0

        if label in ("sphere-8", "block-8"):
            plane = rng.standard_normal((domain.ncharts, *domain.extents, 2, 2)) + 0j
            cells = plane.size // 4
            try:
                per_axis = [
                    _best_of(lambda a=a: calculus.shift_plus(domain, plane, a), 9) for a in (1, 2, 3, 4)
                ]
                out[f"probe.calculus.shift_ns_per_cell.{label}"] = 1e9 * sum(per_axis) / 4 / cells
            except (AttributeError, TypeError) as e:
                errors.append(f"shift {label}: {e!r}")
                out[f"probe.calculus.shift_ns_per_cell.{label}"] = 0.0

    sphere8 = Domain(*DOMAINS["sphere-8"])
    cells = sphere8.ncharts * int(np.prod(sphere8.extents))
    out["probe.kernel.sphere-8.flops_computed"] = float(cells * sum(f for _, f, _ in KERNEL_MODEL))
    out["probe.kernel.sphere-8.bytes_computed"] = float(cells * sum(b for _, _, b in KERNEL_MODEL))

    # one batched 2x2 complex product over the 6 curvature planes of sphere 8^4
    n = cells * 6
    a = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    b = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    mul = getattr(algebra, "mat_mul", np.matmul)
    out["probe.algebra.matmul_ns"] = 1e9 * _best_of(lambda: mul(a, b), 9) / n
    return out, errors

"""Workload inputs and output checks.

Every input is generated here from the workload seed and handed to the
program as a file: connections and gauges in the documented form-file
format, configs as JSON.  One round of a workload is its list of Op;
rounds repeat the same ops on the same files.

The two solver workloads start every operation from one fixed instance,
ymdec's random_connection at the CLI's default seed 7, whatever the
workload seed.  The descent's iteration count responds chaotically to
rounding-level changes of its start: the same instance rotated into five
seed-drawn global SU(2) frames, an exact symmetry of the action, took
5764 to 8199 iterations per relax-sphere-2 round, and fresh random
instances move solve-block-4 from 241 to 468.  A seed-dependent start
would make round_norm_s a draw from that spread rather than a measure of
the program.  verify-4 and action-8 cost the same on any input, so they
draw fresh inputs from the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

# su(2) basis lam_a = sigma_a / 2i
LAMBDA = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=np.complex128
) / 2j

INSTANCE_SEED = 7        # ymdec's default config seed
RELAX_AMP1_MAX_ITERS = 20000
COUNTEREXAMPLE_CHECKS = ("right_cup_dual_violation_detected",)


@dataclass
class Op:
    name: str
    command: str
    config: dict
    report: str                   # path of the JSON report, relative to the checkout
    final: str | None = None      # final connection of a solve
    start: str | None = None      # input connection file
    expect_counterexample: bool = False
    argv: list = field(default_factory=list)


def _extents(sizes, topology):
    return tuple(sizes) if topology == "sphere" else tuple(n + 2 for n in sizes)


def _form_doc(sizes, topology, degree, mats):
    flat = mats.reshape(-1, 4)
    data = np.stack([flat.real, flat.imag], axis=-1).tolist()
    return {
        "version": 1, "topology": topology, "sizes": list(sizes),
        "degree": degree, "copy": "base", "data": data,
    }


def _write_form(path, sizes, topology, degree, mats):
    Path(path).write_text(json.dumps(_form_doc(sizes, topology, degree, mats)))


def _connection(vecs):
    return np.einsum("...a,aij->...ij", vecs, LAMBDA)


def _exp_su2(vecs):
    theta = np.linalg.norm(vecs, axis=-1)[..., None, None]
    half = theta / 2
    sinc = np.where(half > 0, np.sin(half) / np.where(half > 0, half, 1), 1.0)
    return np.cos(half) * np.eye(2) + sinc * _connection(vecs)


def _instance_vectors(sizes, topology, amplitude):
    """The coefficient vectors of ymdec's random_connection at INSTANCE_SEED."""
    ncharts = 2 if topology == "sphere" else 1
    rng = np.random.default_rng(INSTANCE_SEED)
    vecs = rng.uniform(-amplitude, amplitude, size=(ncharts, *_extents(sizes, topology), 4, 3))
    if topology == "block":
        inner = vecs[(slice(None),) + (slice(1, -1),) * 4]
        vecs = np.pad(inner, [(0, 0)] + [(1, 1)] * 4 + [(0, 0)] * 2, mode="edge")
    return vecs


def _sum_profile_gauge(rng, sizes, topology):
    """SU(2) 0-form depending only on k1+..+k4 (and the chart on the sphere)."""
    ncharts = 2 if topology == "sphere" else 1
    ext = _extents(sizes, topology)
    out = np.zeros((ncharts, *ext, 1, 2, 2), dtype=np.complex128)
    if topology == "sphere":
        n = sizes[0]
        table = _exp_su2(rng.uniform(-1, 1, size=(2 * n, 3)))
        for chart in range(2):
            for idx in np.ndindex(*ext):
                out[(chart, *idx, 0)] = table[(sum(idx) + 4 + chart * n) % (2 * n)]
    else:
        table = _exp_su2(rng.uniform(-1, 1, size=(sum(ext), 3)))
        for idx in np.ndindex(*ext):
            out[(0, *idx, 0)] = table[sum(idx)]
    return out


def _solve_op(work, name, command, sizes, topology, amplitude, seed, solver):
    start = f"{work}/{name}.start.form.json"
    final = f"{work}/{name}.final.form.json"
    _write_form(start, sizes, topology, 1, _connection(_instance_vectors(sizes, topology, amplitude)))
    config = {
        "topology": topology, "sizes": list(sizes), "seed": seed, "amplitude": amplitude,
        "connection": f"file:{start}", "solver": solver, "output": final,
    }
    return Op(name, command, config, report=final + ".report.json", final=final, start=start)


def relax_sphere_2(rng, seed, work):
    s2 = (2, 2, 2, 2)
    return [
        _solve_op(work, "relax-a0.1", "relax", s2, "sphere", 0.1, seed, {}),
        _solve_op(work, "relax-a1.0", "relax", s2, "sphere", 1.0, seed,
                  {"max_iters": RELAX_AMP1_MAX_ITERS}),
    ]


def solve_block_4(rng, seed, work):
    b4 = (4, 4, 4, 4)
    return [
        _solve_op(work, "selfdual-a0.05", "selfdual", b4, "block", 0.05, seed, {"grad_tol": 1e-4}),
        _solve_op(work, "relax-a0.1", "relax", b4, "block", 0.1, seed, {"grad_tol": 1e-4}),
    ]


def verify_4(rng, seed, work):
    ops = []
    for name, sizes, topology, gauge in (
        ("verify-sphere-4", (4, 4, 4, 4), "sphere", "sum_profile"),
        ("verify-block-4", (4, 4, 4, 4), "block", "random"),
        ("verify-block-2342", (2, 3, 4, 2), "block", "sum_profile"),
    ):
        path = f"{work}/{name}.gauge.form.json"
        if gauge == "random":
            ext = _extents(sizes, topology)
            h = _exp_su2(rng.uniform(-np.pi, np.pi, size=(1, *ext, 1, 3)))
        else:
            h = _sum_profile_gauge(rng, sizes, topology)
        _write_form(path, sizes, topology, 0, h)
        config = {
            "topology": topology, "sizes": list(sizes), "seed": int(rng.integers(0, 2**31)),
            "gauge": f"file:{path}", "output": f"{work}/{name}.report.json",
        }
        ops.append(Op(name, "verify", config, report=config["output"],
                      expect_counterexample=gauge == "random"))
    return ops


def action_8(rng, seed, work):
    ops = []
    for topology in ("sphere", "block"):
        for amplitude in (0.1, 1.0):
            name = f"action-{topology}-a{amplitude}"
            sizes = (8, 8, 8, 8)
            ncharts = 2 if topology == "sphere" else 1
            vecs = rng.uniform(-amplitude, amplitude,
                               size=(ncharts, *_extents(sizes, topology), 4, 3))
            start = f"{work}/{name}.form.json"
            _write_form(start, sizes, topology, 1, _connection(vecs))
            config = {
                "topology": topology, "sizes": list(sizes), "seed": seed,
                "amplitude": amplitude, "connection": f"file:{start}",
                "output": f"{work}/{name}.report.json",
            }
            ops.append(Op(name, "action", config, report=config["output"], start=start))
    return ops


WORKLOADS = {
    "relax-sphere-2": relax_sphere_2,
    "solve-block-4": solve_block_4,
    "verify-4": verify_4,
    "action-8": action_8,
}


def build(workload, seed, work):
    """Write the workload's inputs under work/ and return its ops."""
    rng = np.random.default_rng([seed, 0x796D])
    ops = WORKLOADS[workload](rng, seed, work)
    for op in ops:
        path = f"{work}/{op.name}.config.json"
        Path(path).write_text(json.dumps(op.config))
        op.argv = [op.command, "--config", path]
    return ops


# ---------------------------------------------------------------- checks


def _program_gradient(ymdec, path, objective):
    A = ymdec.cochain.deserialize(Path(path).read_bytes())
    if objective == "action":
        return ymdec.solver.action_gradient(A)
    kern = ymdec.solver._Kernel(A.domain, "sd_residual")
    return kern.gradient(ymdec.solver.connection_vectors(A))


def _gradient_check(ymdec, form, path, kind, rng, label):
    """Program gradient against the oracle's central differences at the
    largest component and three sampled coordinates; returns (failures,
    largest sampled |derivative|)."""
    grad = _program_gradient(ymdec, path, kind)
    table = oracle.readers(form)
    coords = [np.unravel_index(int(np.argmax(np.abs(grad))), grad.shape)]
    coords += [tuple(int(rng.integers(0, s)) for s in grad.shape) for _ in range(3)]
    scale = 1.0 + float(np.abs(grad).max())
    fails, biggest = [], 0.0
    for idx in coords:
        chart, *s, axis, comp = (int(x) for x in idx)
        k = tuple(x + 1 for x in s) if form.sphere else tuple(s)
        fd = oracle.fd_derivative(form, kind, chart, k, axis + 1, comp, table)
        biggest = max(biggest, abs(fd))
        if abs(fd - grad[idx]) > 1e-8 * scale:
            fails.append(f"{label}: gradient {grad[idx]!r} vs central difference {fd!r} at {idx}")
    return fails, biggest


def check_op(op, ymdec, rng):
    """Failure messages for one op's outputs (empty when correct)."""
    report = json.loads(Path(op.report).read_bytes())
    scalars = report["scalars"]
    fails = []
    if op.command == "verify":
        for c in report["checks"]:
            counter = c.get("expected_fail") or c["name"] in COUNTEREXAMPLE_CHECKS
            holds = c["defect"] > c["tol"] if counter else c["defect"] <= c["tol"]
            if not (c["pass"] and holds):
                fails.append(f"{op.name}: check {c['name']} defect {c['defect']} tol {c['tol']}")
        expected = [c for c in report["checks"] if c.get("expected_fail")]
        if op.expect_counterexample and not (expected and all(c["defect"] > c["tol"] for c in expected)):
            fails.append(f"{op.name}: no expected-fail counterexample above its floor")
        return fails

    start = oracle.Form.read(op.start)
    if op.command == "action":
        want = oracle.objective(start, "action")
        if oracle.rel_diff(scalars["action"], want) > 1e-10:
            fails.append(f"{op.name}: action {scalars['action']!r} vs oracle {want!r}")
        bound = 1e-12 * (1 + oracle.norm(start) ** 3)
        if not scalars["bianchi_defect"] <= bound:
            fails.append(f"{op.name}: bianchi_defect {scalars['bianchi_defect']} > {bound}")
        return fails

    kind = "sd_residual" if op.command == "selfdual" else "action"
    grad_tol = op.config["solver"].get("grad_tol", 1e-6)
    final = oracle.Form.read(op.final)
    trace = report["trace"]
    objs = [t[0] for t in trace]
    if not (scalars["converged"] and trace[-1][1] <= grad_tol):
        fails.append(f"{op.name}: not converged ({scalars['reason']}, gmax {trace[-1][1]})")
    if scalars["iterations"] != len(trace) - 1:
        fails.append(f"{op.name}: {scalars['iterations']} iterations but {len(trace)} trace rows")
    if any(b > a for a, b in zip(objs, objs[1:])):
        fails.append(f"{op.name}: objective trace increases")
    dev, big = oracle.su2_deviation(final)
    if dev > 1e-12 * max(1.0, big):
        fails.append(f"{op.name}: final connection leaves su(2) by {dev}")
    want_final = oracle.objective(final, kind)
    reported = scalars["action"] if kind == "action" else scalars["sd_residual"] ** 2
    for label, got, want in (
        ("start objective", objs[0], oracle.objective(start, kind)),
        ("final objective", objs[-1], want_final),
        (f"reported {kind}", reported, want_final),
    ):
        if oracle.rel_diff(got, want) > 1e-10:
            fails.append(f"{op.name}: {label} {got!r} vs oracle {want!r}")
    for label, form, path in (("start", start, op.start), ("final", final, op.final)):
        more, biggest = _gradient_check(ymdec, form, path, kind, rng, f"{op.name} {label}")
        fails += more
        if label == "final" and biggest > grad_tol + 1e-8:
            fails.append(f"{op.name}: oracle derivative {biggest} above grad_tol at the final connection")
    return fails

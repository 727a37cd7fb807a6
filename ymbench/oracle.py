"""Independent oracles for the benchmark's output checks.

Everything here works on the raw stored arrays of form files, read with
the json module, and reimplements the documented conventions itself: the
storage order (chart-major, k lexicographic, direction sets by ascending
bitmask, entries row-major), the sphere gluing (k_i = N_i + 1 lands at 1
in the other chart) and the block halo (stored indices 0 .. N_i + 1).
Matrices are 4-tuples of Python complex numbers and the curvature is
assembled one cell at a time, so no code is shared with the vectorised
operators in ymdec.calculus, ymdec.gauge or ymdec.solver.

Run as a script to self-test the oracle against the program:

    python3 ymbench/oracle.py
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

# degree-2 direction sets as axis pairs, ascending bitmask
PAIRS = tuple(
    tuple(i + 1 for i in range(4) if m >> i & 1)
    for m in range(16)
    if bin(m).count("1") == 2
)

# su(2) basis lam_a = sigma_a / 2i as row-major 4-tuples
LAMBDA = (
    (0j, -0.5j, -0.5j, 0j),
    (0j, -0.5 + 0j, 0.5 + 0j, 0j),
    (-0.5j, 0j, 0j, 0.5j),
)


def _mul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def _sq(x):
    return sum(e.real * e.real + e.imag * e.imag for e in x)


class Form:
    """A form file's raw payload with the documented address arithmetic."""

    def __init__(self, doc):
        self.topology = doc["topology"]
        self.sizes = tuple(doc["sizes"])
        self.degree = doc["degree"]
        self.sphere = self.topology == "sphere"
        self.ncharts = 2 if self.sphere else 1
        self.extents = self.sizes if self.sphere else tuple(n + 2 for n in self.sizes)
        self.ndirs = sum(1 for m in range(16) if bin(m).count("1") == self.degree)
        self.data = [
            tuple(complex(re, im) for re, im in entry) for entry in doc["data"]
        ]
        expected = self.ncharts * self.ndirs
        for e in self.extents:
            expected *= e
        if len(self.data) != expected:
            raise ValueError(f"form has {len(self.data)} entries, expected {expected}")

    @classmethod
    def read(cls, path):
        return cls(json.loads(Path(path).read_bytes()))

    def slot(self, chart, k, d):
        """Flat index of component d at the resolved address (chart, k)."""
        off = 1 if self.sphere else 0
        idx = chart
        for ki, e in zip(k, self.extents):
            idx = idx * e + ki - off
        return idx * self.ndirs + d

    def step(self, chart, k, axis):
        """(chart, k) one step forward along axis (1-based), glued or into the halo."""
        k = list(k)
        if self.sphere and k[axis - 1] == self.sizes[axis - 1]:
            k[axis - 1] = 1
            chart ^= 1
        else:
            k[axis - 1] += 1
        return chart, tuple(k)

    def interior(self):
        ranges = [range(1, n + 1) for n in self.sizes]
        return [(c, k) for c in range(self.ncharts) for k in itertools.product(*ranges)]


def curvature_cell(form: Form, chart, k, data=None):
    """The six curvature components at one interior cell.

    F^{ij}_k = (A^j_{tau_i k} - A^j_k) - (A^i_{tau_j k} - A^i_k)
               + A^i_k A^j_{tau_i k} - A^j_k A^i_{tau_j k}
    """
    data = form.data if data is None else data
    a = [data[form.slot(chart, k, d)] for d in range(4)]
    up = [form.step(chart, k, ax) for ax in (1, 2, 3, 4)]
    out = []
    for i, j in PAIRS:
        ai, aj = a[i - 1], a[j - 1]
        aj_i = data[form.slot(*up[i - 1], j - 1)]
        ai_j = data[form.slot(*up[j - 1], i - 1)]
        p = _mul(ai, aj_i)
        q = _mul(aj, ai_j)
        out.append(tuple(
            (aj_i[e] - aj[e]) - (ai_j[e] - ai[e]) + p[e] - q[e] for e in range(4)
        ))
    return out


def _cell_objective(F, kind):
    if kind == "action":
        return sum(_sq(f) for f in F)
    # |F - dual F|^2 from the componentwise self-duality equations
    # F^12 = F^34, F^13 = -F^24, F^14 = F^23; each difference appears twice
    f12, f13, f23, f14, f24, f34 = F
    return 2.0 * (
        _sq(tuple(x - y for x, y in zip(f12, f34)))
        + _sq(tuple(x + y for x, y in zip(f13, f24)))
        + _sq(tuple(x - y for x, y in zip(f14, f23)))
    )


def objective(form: Form, kind="action", cells=None, data=None):
    """Sum over interior cells (or the given ones) of |F|^2 or |F - dual F|^2."""
    cells = form.interior() if cells is None else cells
    return sum(_cell_objective(curvature_cell(form, c, k, data), kind) for c, k in cells)


def norm(form: Form):
    """Norm of a form over interior cells."""
    return sum(
        _sq(form.data[form.slot(c, k, d)]) for c, k in form.interior() for d in range(form.ndirs)
    ) ** 0.5


def su2_deviation(form: Form):
    """Max entrywise distance from anti-Hermitian traceless, and max |entry|."""
    dev = big = 0.0
    for a, b, c, d in form.data:
        dev = max(dev, abs(2 * a.real), abs(2 * d.real), abs(b + c.conjugate()), abs(a + d))
        big = max(big, abs(a), abs(b), abs(c), abs(d))
    return dev, big


def readers(form: Form):
    """For each stored address, the interior cells whose curvature reads it."""
    out = {}
    for c, k in form.interior():
        out.setdefault((c, k), []).append((c, k))
        for ax in (1, 2, 3, 4):
            out.setdefault(form.step(c, k, ax), []).append((c, k))
    return out


def fd_derivative(form: Form, kind, chart, k, axis, comp, table=None, h=1e-3):
    """d objective / d(coefficient comp of A^axis at (chart, k)).

    The objective is a quartic polynomial along any coordinate, so the
    five-point central difference is exact up to rounding; only the cells
    that read the coordinate are summed.
    """
    table = readers(form) if table is None else table
    cells = sorted(set(table.get((chart, k), ())))
    if not cells:
        return 0.0
    slot = form.slot(chart, k, axis - 1)
    base = form.data[slot]
    lam = LAMBDA[comp]
    data = list(form.data)
    vals = {}
    for t in (-2, -1, 1, 2):
        data[slot] = tuple(b + t * h * e for b, e in zip(base, lam))
        vals[t] = objective(form, kind, cells, data)
    return (vals[-2] - 8 * vals[-1] + 8 * vals[1] - vals[2]) / (12 * h)


def rel_diff(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def selftest(ymdec, seed=1):
    """Agreement with the program on a small sphere and block, and a rejection.

    Returns a list of (name, ok, detail).
    """
    import numpy as np

    solver, gauge = ymdec.solver, ymdec.gauge
    out = []
    for topology, sizes in (("sphere", (2, 2, 2, 2)), ("block", (2, 3, 2, 2))):
        domain = ymdec.Domain(sizes, topology)
        A = ymdec.random_connection(domain, 0.7, seed)
        form = Form(json.loads(ymdec.serialize(A)))
        want = solver.action(A)
        got = objective(form, "action")
        out.append((f"oracle_action_{topology}", rel_diff(got, want) <= 1e-12, f"{got!r} vs {want!r}"))
        want_sd = gauge.sd_residual(gauge.curvature(A)) ** 2
        got_sd = objective(form, "sd_residual")
        out.append((f"oracle_sd_{topology}", rel_diff(got_sd, want_sd) <= 1e-12, f"{got_sd!r} vs {want_sd!r}"))
        grad = solver.action_gradient(A)
        idx = np.unravel_index(int(np.argmax(np.abs(grad))), grad.shape)
        chart, *s, axis, comp = (int(x) for x in idx)
        k = tuple(x + 1 for x in s) if form.sphere else tuple(s)
        fd = fd_derivative(form, "action", chart, k, axis + 1, comp)
        out.append((f"oracle_gradient_{topology}", abs(fd - grad[idx]) <= 1e-8 * (1 + abs(grad[idx])), f"{fd!r} vs {grad[idx]!r}"))
        # one coefficient moved by 1e-6 must break the 1e-10 agreement
        bad = list(form.data)
        slot = form.slot(0, (1, 1, 1, 1), 0)
        bad[slot] = tuple(e + 1e-6 * l for e, l in zip(bad[slot], LAMBDA[0]))
        got_bad = objective(form, "action", data=bad)
        out.append((f"oracle_rejects_perturbed_{topology}", rel_diff(got_bad, want) > 1e-10, f"{got_bad!r} vs {want!r}"))
    return out


if __name__ == "__main__":
    import sys

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import ymdec

    results = selftest(ymdec)
    for name, ok, detail in results:
        print(f"{name:<36} {'ok' if ok else 'FAIL'}  {detail}")
    sys.exit(0 if all(ok for _, ok, _ in results) else 1)

"""Spans around the public functions of each ymdec module, from outside.

install() replaces every target function with a wrapper in every ymdec
module namespace that binds it (solver and gauge import the shifts,
coboundary and cup by name; cli imports run_verify_checks by name), and
methods on their class.  Each call records one span: name, start, end and
the span that was open when it began.  Spans stay in memory until save().
A target the program no longer has is listed in `missing` and its
metrics read zero.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (metric prefix, module, attribute); several attributes may share a prefix
TARGETS = (
    ("algebra.embed_su2", "algebra", "embed_su2"),
    ("algebra.project_su2", "algebra", "project_su2"),
    ("algebra.conj_transpose", "algebra", "conj_transpose"),
    ("algebra.inv2", "algebra", "inv2"),
    ("complex4.resolve", "complex4", "Domain.resolve"),
    ("complex4.boundary_cell", "complex4", "boundary_cell"),
    ("complex4.build_Vp", "complex4", "build_Vp"),
    ("cochain.get", "cochain", "Cochain.get"),
    ("cochain.constructors", "cochain", "random_form"),
    ("cochain.constructors", "cochain", "random_connection"),
    ("cochain.constructors", "cochain", "random_gauge"),
    ("cochain.constructors", "cochain", "sum_profile_gauge"),
    ("cochain.serialize", "cochain", "serialize"),
    ("cochain.deserialize", "cochain", "deserialize"),
    ("calculus.shift", "calculus", "shift_plus"),
    ("calculus.shift", "calculus", "shift_minus"),
    ("calculus.coboundary", "calculus", "coboundary"),
    ("calculus.cup", "calculus", "cup"),
    ("calculus.star", "calculus", "star"),
    ("calculus.inner_product", "calculus", "inner_product"),
    ("calculus.pair_chain", "calculus", "pair_chain"),
    ("calculus.green_boundary_term", "calculus", "green_boundary_term"),
    ("gauge.curvature", "gauge", "curvature"),
    ("gauge.covariant_d", "gauge", "covariant_d"),
    ("gauge.gauge_transform", "gauge", "gauge_transform"),
    ("gauge.yang_mills_residual", "gauge", "yang_mills_residual"),
    ("solver.objective", "solver", "_Kernel.objective"),
    ("solver.gradient", "solver", "_Kernel.gradient"),
    ("solver.descend", "solver", "_descend"),
    ("checks.star_tables", "checks", "_star_table_defect"),
    ("checks.boundary_squared", "checks", "_boundary_squared_defect"),
    ("checks.chain_duality", "checks", "_chain_duality_defect"),
    ("checks.run_verify_checks", "checks", "run_verify_checks"),
    ("cli.load_config", "cli", "load_config"),
    ("cli.render_report", "cli", "render_report"),
)

# spans whose return value is bytes: their sizes are summed under this name
BYTES = {"cochain.serialize": "cochain.serialize", "cli.render_report": "cli.report"}

ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.names = [ROOT] + sorted({t[0] for t in TARGETS})
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.nbytes = {v: 0 for v in BYTES.values()}
        self.missing = []
        self._undo = []

    def _wrap(self, fn, name):
        nid = self.ids[name]
        span_name, parent, start, end, stack = (
            self.span_name, self.parent, self.start, self.end, self.stack,
        )
        nbytes, bytes_key = self.nbytes, BYTES.get(name)

        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if bytes_key is not None:
                nbytes[bytes_key] += len(out)
            return out

        return wrapper

    def install(self):
        for name, mod, attr in TARGETS:
            module = sys.modules.get(f"ymdec.{mod}")
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            orig = getattr(owner, leaf, None)
            if orig is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            wrapper = self._wrap(orig, name)
            if owner_name:
                self._undo.append((owner, leaf, orig))
                setattr(owner, leaf, wrapper)
                continue
            for mname, m in list(sys.modules.items()):
                if mname != "ymdec" and not mname.startswith("ymdec."):
                    continue
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def root(self, fn, *args):
        """Call fn(*args) inside a root span."""
        return self._wrap(fn, ROOT)(*args)

    def aggregate(self):
        """{name: {"calls", "ms" (self time), "incl_ms"}} plus byte totals."""
        import numpy as np

        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for i, n in enumerate(self.names):
            sel = names == i
            out[n] = {
                "calls": int(sel.sum()),
                "ms": float(self_time[sel].sum() * 1e3),
                "incl_ms": float(dur[sel].sum() * 1e3),
            }
        return {"spans": out, "bytes": dict(self.nbytes), "missing": list(self.missing)}

    def save(self, path):
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

"""Batch front end: verify | action | relax | selfdual.

Runs are configured by a JSON file (--config), every field optional:

    {
      "topology": "sphere" | "block",
      "sizes": [N1, N2, N3, N4],
      "seed": 7,
      "amplitude": 0.1,
      "connection": "zero" | "random" | "file:<path>",
      "gauge": "identity" | "random" | "sum_profile" | "file:<path>",
      "solver": {"max_iters": ..., "grad_tol": ..., "anti": false},
      "output": null | "<path>"
    }

The solver block is solver.SolverConfig, whose fields and checks are its
only schema, plus "anti" for selfdual.  Any other key is a config error.
The command picks the equation: relax minimizes the action, selfdual the
self-dual residual |F - dual F|^2, or |F + dual F|^2 with "anti" set;
relax with "anti" set is a config error.

--seed and --output override the config fields.  Reports are JSON with
sorted keys, byte-identical for identical config and seed.  For verify
and action the output path receives the report; for relax and selfdual
it receives the final connection (form file format) and the report lands
next to it with ".report.json" appended.  A fixed-format summary table is
always printed to stdout; without an output path the JSON report follows
it.

Exit codes: 0 pass, 1 check failure, 2 config error, 3 solver abort or
non-finite arithmetic (an overflowing action or check).  With -v the wall
time of each phase (load, solve, diagnostics, write; each check of verify)
is logged to stderr; it never enters the report.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path

from . import __version__
from . import cochain as co
from . import solver as so
from .checks import run_verify_checks
from .complex4 import Domain
from .gauge import connection_scalars
from .timing import phase

log = logging.getLogger(__name__)

CELL_ORDERING = "chart-major,k-lexicographic,mask-ascending,row-major/v1"

DEFAULT_CONFIG = {
    "topology": "sphere",
    "sizes": [2, 2, 2, 2],
    "seed": 7,
    "amplitude": 0.1,
    "connection": "random",
    "gauge": "sum_profile",
    "solver": {**dataclasses.asdict(so.SolverConfig()), "anti": False},
    "output": None,
}


class ConfigError(Exception):
    pass


def load_config(path=None, seed=None, output=None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from e
        except ValueError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(user) - set(DEFAULT_CONFIG)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        solver = user.pop("solver", {})
        cfg.update(user)
        if not isinstance(solver, dict):
            raise ConfigError("solver block must be an object")
        unknown = set(solver) - set(DEFAULT_CONFIG["solver"])
        if unknown:
            raise ConfigError(f"unknown solver fields: {sorted(unknown)}")
        cfg["solver"].update(solver)
    if seed is not None:
        cfg["seed"] = seed
    if output is not None:
        cfg["output"] = output
    _validate(cfg)
    return cfg


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _validate(cfg):
    if cfg["topology"] not in ("sphere", "block"):
        raise ConfigError(f"topology must be sphere or block, got {cfg['topology']!r}")
    sizes = cfg["sizes"]
    if (
        not isinstance(sizes, (list, tuple))
        or len(sizes) != 4
        or any(not co.is_json_int(n) or n < 2 for n in sizes)
    ):
        raise ConfigError("sizes must be four integers >= 2")
    if not co.is_json_int(cfg["seed"]) or cfg["seed"] < 0:
        raise ConfigError("seed must be a non-negative integer")
    if not _is_number(cfg["amplitude"]) or cfg["amplitude"] < 0:
        raise ConfigError("amplitude must be a finite number >= 0")
    for field, allowed in (("connection", ("zero", "random")), ("gauge", ("identity", "random", "sum_profile"))):
        v = cfg[field]
        if not isinstance(v, str) or not (v in allowed or v.startswith("file:")):
            raise ConfigError(f"{field} must be one of {allowed} or file:<path>")
    if cfg["output"] is not None and not isinstance(cfg["output"], str):
        raise ConfigError("output must be null or a path")
    if not isinstance(cfg["solver"]["anti"], bool):
        raise ConfigError("solver anti must be true or false")
    _solver_config(cfg)


def _solver_config(cfg) -> so.SolverConfig:
    block = {k: v for k, v in cfg["solver"].items() if k != "anti"}
    try:
        return so.SolverConfig(**block)
    except ValueError as e:
        raise ConfigError(f"bad solver config: {e}") from e


def make_domain(cfg) -> Domain:
    return Domain(tuple(cfg["sizes"]), cfg["topology"])


def _load_form(path, domain, degree, what):
    try:
        form = co.deserialize(Path(path).read_bytes())
    except OSError as e:
        raise ConfigError(f"cannot read {what} file: {e}") from e
    except ValueError as e:
        raise ConfigError(f"bad {what} file: {e}") from e
    if form.domain != domain:
        raise ConfigError(
            f"{what} file domain {form.domain.topology}{form.domain.sizes} "
            f"does not match configured {domain.topology}{domain.sizes}"
        )
    if form.degree != degree:
        raise ConfigError(f"{what} file has degree {form.degree}, expected {degree}")
    return form


def build_connection(cfg, domain) -> co.Cochain:
    src = cfg["connection"]
    if src == "zero":
        return co.Cochain.zeros(domain, 1)
    if src == "random":
        return co.random_connection(domain, cfg["amplitude"], cfg["seed"])
    form = _load_form(src[len("file:"):], domain, 1, "connection")
    try:
        return co.validate_connection(form)
    except co.ValidationError as e:
        raise ConfigError(f"connection file: {e}") from e


def build_gauge(cfg, domain) -> co.Cochain:
    src = cfg["gauge"]
    if src == "identity":
        h = co.Cochain.zeros(domain, 0)
        h.values[..., 0, 0] = 1.0
        h.values[..., 1, 1] = 1.0
        return h
    if src == "random":
        return co.random_gauge(domain, cfg["seed"] + 1)
    if src == "sum_profile":
        try:
            return co.sum_profile_gauge(domain, amplitude=1.0, seed=cfg["seed"] + 1)
        except ValueError as e:
            raise ConfigError(str(e)) from e
    form = _load_form(src[len("file:"):], domain, 0, "gauge")
    try:
        return co.validate_gauge(form)
    except co.ValidationError as e:
        raise ConfigError(f"gauge file: {e}") from e


def _report_skeleton(command, cfg) -> dict:
    return {
        "tool": "ymdec",
        "version": __version__,
        "cell_ordering": CELL_ORDERING,
        "command": command,
        "config": cfg,
        "checks": [],
        "scalars": {},
        "trace": [],
    }


def cmd_verify(cfg):
    domain = make_domain(cfg)
    report = _report_skeleton("verify", cfg)
    with phase(log, "load"):
        gauge_form = build_gauge(cfg, domain)
    checks, scalars = run_verify_checks(
        domain, cfg["seed"], cfg["amplitude"], gauge_form=gauge_form
    )
    report["checks"] = checks
    report["scalars"] = scalars
    code = 0 if all(c["pass"] for c in checks) else 1
    return code, report


def cmd_action(cfg):
    domain = make_domain(cfg)
    report = _report_skeleton("action", cfg)
    with phase(log, "load"):
        A = build_connection(cfg, domain)
    with phase(log, "diagnostics"):
        report["scalars"] = connection_scalars(A)
    return 0, report


def _solver_command(cfg, name):
    if name == "relax" and cfg["solver"]["anti"]:
        raise ConfigError("relax minimizes the action; anti applies to selfdual only")
    domain = make_domain(cfg)
    report = _report_skeleton(name, cfg)
    with phase(log, "load"):
        a0 = build_connection(cfg, domain)
    solver_cfg = _solver_config(cfg)
    if name == "relax":
        result = so.minimize(a0, solver_cfg)
    else:
        result = so.solve_self_dual(a0, solver_cfg, anti=cfg["solver"]["anti"])
    report["trace"] = [[float(o), float(g), float(s)] for o, g, s in result.iterations]
    report["scalars"] = {
        **result.diagnostics,
        "iterations": result.n_iters,
        "converged": result.converged,
        "reason": result.reason,
    }
    return 0, report, result.final


def _print_table(report, stream=None):
    stream = stream if stream is not None else sys.stdout
    print(f"ymdec {report['command']}  (tool {report['version']})", file=stream)
    if report["checks"]:
        print(f"{'check':<40} {'defect':>12} {'tol':>10} {'status':>8}", file=stream)
        for c in report["checks"]:
            status = "pass" if c["pass"] else "FAIL"
            print(
                f"{c['name']:<40} {c['defect']:>12.3e} {c['tol']:>10.1e} {status:>8}",
                file=stream,
            )
    if report["scalars"]:
        for k in report["scalars"]:
            v = report["scalars"][k]
            v = f"{v:.6e}" if isinstance(v, float) else v
            print(f"{k:<40} {v}", file=stream)
    if report["trace"]:
        o, g, _ = report["trace"][-1]
        print(f"{'final objective':<40} {o:.6e}", file=stream)
        print(f"{'final gradient max-norm':<40} {g:.6e}", file=stream)


def render_report(report) -> bytes:
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


def _emit(report, cfg, final_form=None):
    with phase(log, "write"):
        payload = render_report(report)
        out = cfg["output"]
        _print_table(report)
        if out is None:
            sys.stdout.write(payload.decode())
            return
        if final_form is not None:
            Path(out).write_bytes(co.serialize(final_form))
            Path(out + ".report.json").write_bytes(payload)
        else:
            Path(out).write_bytes(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ymdec",
        description="discrete Yang-Mills calculus on the 4-dimensional double complex",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("verify", "run the invariant suite"),
        ("action", "evaluate the action and residuals of a connection"),
        ("relax", "minimize the action by nonlinear conjugate gradients"),
        ("selfdual", "minimize the self-dual residual"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="path to a RunConfig JSON file")
        p.add_argument("--output", help="output path (overrides config)")
        p.add_argument("--seed", type=int, help="seed (overrides config)")
        p.add_argument(
            "-v", "--verbose", action="store_true", help="log the wall time of each phase to stderr"
        )
    args = parser.parse_args(argv)

    root = logging.getLogger("ymdec")
    handler = None
    if args.verbose:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
        root.addHandler(handler)
        root.setLevel(logging.INFO)
    try:
        return _run(args)
    finally:
        if handler is not None:
            root.removeHandler(handler)
            root.setLevel(logging.NOTSET)


def _run(args) -> int:
    try:
        cfg = load_config(args.config, seed=args.seed, output=args.output)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    try:
        if args.command == "verify":
            code, report = cmd_verify(cfg)
            _emit(report, cfg)
        elif args.command == "action":
            code, report = cmd_action(cfg)
            _emit(report, cfg)
        else:
            code, report, final = _solver_command(
                cfg, "relax" if args.command == "relax" else "selfdual"
            )
            _emit(report, cfg, final_form=final)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except so.SolverAbort as e:
        print(f"solver abort: {e}", file=sys.stderr)
        return 3
    except ArithmeticError as e:
        # a valid but enormous connection overflows the action or a check
        print(f"numerical abort: {e}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())

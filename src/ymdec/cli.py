"""Batch front end: verify | action | relax | selfdual.

Runs are configured by a JSON file (--config), every field optional:

    {
      "topology": "sphere" | "block",
      "sizes": [N1, N2, N3, N4],
      "seed": 7,
      "amplitude": 0.1,
      "connection": "zero" | "random" | "file:<path>",
      "gauge": "identity" | "random" | "sum_profile" | "file:<path>",
      "solver": {"max_iters": ..., "grad_tol": ..., "armijo_c": ...,
                 "backtrack_factor": ..., "initial_step": ...,
                 "objective": "action" | "sd_residual", "seed": ...,
                 "anti": false},
      "output": null | "<path>"
    }

--seed and --output override the config fields.  Reports are JSON with
sorted keys, byte-identical for identical config and seed.  For verify
and action the output path receives the report; for relax and selfdual
it receives the final connection (form file format) and the report lands
next to it with ".report.json" appended.  A fixed-format summary table is
always printed to stdout; without an output path the JSON report follows
it.

Exit codes: 0 pass, 1 check failure, 2 config error, 3 solver abort.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from pathlib import Path

from . import __version__
from . import cochain as co
from . import solver as so
from .checks import connection_scalars, run_verify_checks
from .complex4 import Domain

CELL_ORDERING = "chart-major,k-lexicographic,mask-ascending,row-major/v1"

DEFAULT_CONFIG = {
    "topology": "sphere",
    "sizes": [2, 2, 2, 2],
    "seed": 7,
    "amplitude": 0.1,
    "connection": "random",
    "gauge": "sum_profile",
    "solver": {
        "max_iters": 5000,
        "grad_tol": 1e-6,
        "armijo_c": 1e-4,
        "backtrack_factor": 0.5,
        "initial_step": 1.0,
        "objective": "action",
        "seed": None,
        "anti": False,
    },
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
    if cfg["solver"]["seed"] is None:
        cfg["solver"]["seed"] = cfg["seed"]
    _validate(cfg)
    return cfg


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _validate(cfg):
    if cfg["topology"] not in ("sphere", "block"):
        raise ConfigError(f"topology must be sphere or block, got {cfg['topology']!r}")
    sizes = cfg["sizes"]
    if (
        not isinstance(sizes, (list, tuple))
        or len(sizes) != 4
        or any(not _is_int(n) or n < 2 for n in sizes)
    ):
        raise ConfigError("sizes must be four integers >= 2")
    if not _is_int(cfg["seed"]) or cfg["seed"] < 0:
        raise ConfigError("seed must be a non-negative integer")
    if not _is_number(cfg["amplitude"]) or cfg["amplitude"] < 0:
        raise ConfigError("amplitude must be a finite number >= 0")
    for field, allowed in (("connection", ("zero", "random")), ("gauge", ("identity", "random", "sum_profile"))):
        v = cfg[field]
        if not isinstance(v, str) or not (v in allowed or v.startswith("file:")):
            raise ConfigError(f"{field} must be one of {allowed} or file:<path>")
    if cfg["output"] is not None and not isinstance(cfg["output"], str):
        raise ConfigError("output must be null or a path")
    s = cfg["solver"]
    for key in ("max_iters", "seed"):
        if not _is_int(s[key]) or s[key] < 0:
            raise ConfigError(f"solver {key} must be a non-negative integer")
    for key in ("grad_tol", "armijo_c", "backtrack_factor", "initial_step"):
        if not _is_number(s[key]) or s[key] < 0:
            raise ConfigError(f"solver {key} must be a finite number >= 0")
    if not isinstance(s["objective"], str):
        raise ConfigError("solver objective must be a string")
    if not isinstance(s["anti"], bool):
        raise ConfigError("solver anti must be true or false")
    try:
        _solver_config(cfg)
    except ValueError as e:
        raise ConfigError(f"bad solver config: {e}") from e


def _solver_config(cfg) -> so.SolverConfig:
    s = cfg["solver"]
    return so.SolverConfig(
        max_iters=int(s["max_iters"]),
        grad_tol=float(s["grad_tol"]),
        armijo_c=float(s["armijo_c"]),
        backtrack_factor=float(s["backtrack_factor"]),
        initial_step=float(s["initial_step"]),
        objective=s["objective"],
        seed=int(s["seed"]),
    )


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
    checks, scalars = run_verify_checks(
        domain, cfg["seed"], cfg["amplitude"], gauge_form=build_gauge(cfg, domain)
    )
    report["checks"] = checks
    report["scalars"] = scalars
    code = 0 if all(c["pass"] for c in checks) else 1
    return code, report


def cmd_action(cfg):
    domain = make_domain(cfg)
    report = _report_skeleton("action", cfg)
    report["scalars"] = connection_scalars(build_connection(cfg, domain))
    return 0, report


def _solver_command(cfg, name):
    domain = make_domain(cfg)
    report = _report_skeleton(name, cfg)
    a0 = build_connection(cfg, domain)
    solver_cfg = _solver_config(cfg)
    if name == "relax":
        result = so.minimize(a0, solver_cfg)
    else:
        result = so.solve_self_dual(a0, solver_cfg, anti=bool(cfg["solver"]["anti"]))
    d = result.to_dict()
    report["trace"] = d["trace"]
    report["scalars"] = d["diagnostics"]
    report["scalars"]["iterations"] = d["iterations"]
    report["scalars"]["converged"] = d["converged"]
    report["scalars"]["reason"] = d["reason"]
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
    args = parser.parse_args(argv)

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
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Batch front end: verify | action | relax | selfdual.

Runs are configured by a JSON file (--config), every field optional.
Every command reads "topology" ("sphere" | "block"), "sizes" ([N1, N2,
N3, N4]), "seed", "amplitude" and "output" (null | "<path>"); COMMANDS
names the fields each one reads beyond them:

    verify     "gauge": "identity" | "random" | "dual_compatible" | "file:<path>"
    action     "connection": "zero" | "random" | "file:<path>"
    relax      "connection", "solver": {"max_iters": ..., "grad_tol": ...}
    selfdual   "connection", "solver": {"max_iters", "grad_tol", "anti"}

Any other field or solver key is a config error, and the report's
"config" echoes the command's fields only.  The solver block is
solver.SolverConfig, whose fields and checks are its only schema, plus
"anti" for selfdual.  The command picks the equation: relax minimizes
the action, selfdual the self-dual residual |F - dual F|^2, or
|F + dual F|^2 with "anti" set.

--seed and --output override the config fields.  Reports are JSON with
sorted keys, byte-identical for identical config and seed: no run enters
BLAS, whose threaded sums round by the thread count (README,
Determinism).  For verify
and action the output path receives the report; for relax and selfdual
it receives the final connection (form file format) and the report lands
next to it with ".report.json" appended.  A fixed-format summary table is
always printed to stdout; without an output path the JSON report follows
it.

Exit codes: 0 pass, 1 check failure, 2 config error (also sizes that
complex4.Domain rejects, too large ones included, a form file on the
tilde copy, and an output path that cannot be written: before the run
when it is empty, a directory or in a missing directory, and so is the
report path of relax and selfdual; other write failures after it,
stdout's too, such as a closed pipe), 3 solver abort, non-finite
arithmetic or out of memory.  With -v the wall time of each phase (load,
solve, diagnostics, write; each check of verify) is logged to stderr; it
never enters the report.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import cochain as co
from . import gauge
from . import solver as so
from .checks import run_verify_checks
from .complex4 import Domain
from .timing import phase

log = logging.getLogger(__name__)

DEFAULT_CONFIG = {
    "topology": "sphere",
    "sizes": [2, 2, 2, 2],
    "seed": 7,
    "amplitude": 0.1,
    "connection": "random",
    "gauge": "dual_compatible",
    "solver": {**dataclasses.asdict(so.SolverConfig()), "anti": False},
    "output": None,
}

# fields every command reads; COMMANDS names the rest
COMMON_FIELDS = ("topology", "sizes", "seed", "amplitude", "output")
SOLVER_FIELDS = tuple(f.name for f in dataclasses.fields(so.SolverConfig))


class ConfigError(Exception):
    pass


class Job(NamedTuple):
    """A run as load_config checked it; the command and _emit read it, nothing rebuilds it."""
    config: dict  # the command's fields, echoed as the report's "config"
    domain: Domain
    solver: so.SolverConfig | None  # None for verify and action
    outputs: tuple  # files written, in order: the report, or the final form then its report


def load_config(command, path=None, seed=None, output=None) -> Job:
    """The command's fields, defaults filled in from DEFAULT_CONFIG, checked and built."""
    spec = COMMANDS[command]
    cfg = {k: copy.deepcopy(DEFAULT_CONFIG[k]) for k in COMMON_FIELDS + spec.fields}
    if spec.solver:
        cfg["solver"] = {k: DEFAULT_CONFIG["solver"][k] for k in spec.solver}
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from e
        except (ValueError, RecursionError) as e:  # RecursionError: nested too deep
            raise ConfigError(f"config is not valid JSON: {e}") from e
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(user) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown config fields for {command}: {sorted(unknown)}")
        if "solver" in user:
            solver = user.pop("solver")
            if not isinstance(solver, dict):
                raise ConfigError("solver block must be an object")
            unknown = set(solver) - set(spec.solver)
            if unknown:
                raise ConfigError(
                    f"unknown config fields for {command}: unknown solver fields {sorted(unknown)}"
                )
            cfg["solver"].update(solver)
        cfg.update(user)
    if seed is not None:
        cfg["seed"] = seed
    if output is not None:
        cfg["output"] = output
    try:
        domain = Domain(cfg["sizes"], cfg["topology"])
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e
    if not co.is_json_int(cfg["seed"]) or cfg["seed"] < 0:
        raise ConfigError("seed must be a non-negative integer")
    if not co.is_finite_real(cfg["amplitude"]) or cfg["amplitude"] < 0:
        raise ConfigError("amplitude must be a finite number >= 0")
    for field in SOURCES.keys() & cfg.keys():
        v, named = cfg[field], SOURCES[field].named
        if not (isinstance(v, str) and (v in named or v.startswith("file:"))):
            raise ConfigError(f"{field} must be one of {tuple(named)} or file:<path>")
    out = cfg["output"]
    if out is not None and not isinstance(out, str):
        raise ConfigError("output must be null or a path")
    # a solve writes its final form, and its report next to it
    outputs = () if out is None else (out, out + ".report.json") if spec.solver else (out,)
    for target in outputs:
        if not target or os.path.isdir(target) or not os.path.isdir(os.path.dirname(target) or "."):
            raise ConfigError(f"cannot write output: {target!r} is not a file path in an existing directory")
    if not isinstance(cfg.get("solver", {}).get("anti", False), bool):
        raise ConfigError("solver anti must be true or false")
    try:
        solver = so.SolverConfig(**{k: cfg["solver"][k] for k in SOLVER_FIELDS}) if spec.solver else None
    except ValueError as e:
        raise ConfigError(f"bad solver config: {e}") from e
    return Job(cfg, domain, solver, outputs)


def _load_form(path, domain, degree, what, validate):
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
    if form.copy != co.BASE:
        raise ConfigError(f"{what} file is on the {co.COPY_NAMES[form.copy]} copy, expected base")
    try:
        return validate(form)
    except co.ValidationError as e:
        raise ConfigError(f"{what} file: {e}") from e


def _identity_gauge(domain, cfg):
    h = co.Cochain.zeros(domain, 0)
    h.values[..., [0, 1], [0, 1]] = 1.0
    return h


class Source(NamedTuple):
    degree: int
    validate: Callable  # checks a form read from a file:<path> source
    named: dict  # source name -> (domain, cfg) -> form


# the one statement of each input's sources; any other value must be file:<path>
SOURCES = {
    "connection": Source(1, co.validate_connection, {
        "zero": lambda domain, cfg: co.Cochain.zeros(domain, 1),
        "random": lambda domain, cfg: co.random_connection(domain, cfg["amplitude"], cfg["seed"]),
    }),
    "gauge": Source(0, co.validate_gauge, {
        "identity": _identity_gauge,
        "random": lambda domain, cfg: co.random_gauge(domain, cfg["seed"] + 1),
        "dual_compatible": lambda domain, cfg: co.dual_compatible_gauge(domain, amplitude=1.0, seed=cfg["seed"] + 1),
    }),
}


def build_input(job, field) -> co.Cochain:
    """The connection or gauge form the config's `field` names."""
    src, source = job.config[field], SOURCES[field]
    with phase(log, "load"):
        if src.startswith("file:"):
            return _load_form(src[len("file:"):], job.domain, source.degree, field, source.validate)
        return source.named[src](job.domain, job.config)


def cmd_verify(job, report):
    gauge_form = build_input(job, "gauge")
    checks, scalars = run_verify_checks(job.domain, job.config["seed"], job.config["amplitude"], gauge_form)
    report["checks"] = checks
    report["scalars"] = scalars
    return (0 if all(c["pass"] for c in checks) else 1), None


def cmd_action(job, report):
    A = build_input(job, "connection")
    with phase(log, "diagnostics"):
        report["scalars"] = gauge.connection_scalars(A, gauge.curvature(A))
    return 0, None


def cmd_relax(job, report):
    return _solver_report(report, so.minimize(build_input(job, "connection"), job.solver))


def cmd_selfdual(job, report):
    result = so.solve_self_dual(
        build_input(job, "connection"), job.solver, anti=job.config["solver"]["anti"]
    )
    return _solver_report(report, result)


def _solver_report(report, result):
    report["trace"] = [[float(o), float(g), float(s)] for o, g, s in result.iterations]
    report["scalars"] = {
        **result.diagnostics,
        "iterations": result.n_iters,
        "converged": result.converged,
        "reason": result.reason,
    }
    return 0, result.final


class Command(NamedTuple):
    help: str
    run: Callable  # (job, report) -> (exit code, final connection or None); fills report
    fields: tuple  # config fields read beyond COMMON_FIELDS
    solver: tuple = ()  # solver block keys read; () means no solver block


# the one statement of which command reads which config field
COMMANDS = {
    "verify": Command("run the invariant suite", cmd_verify, ("gauge",)),
    "action": Command("evaluate the action and residuals of a connection", cmd_action, ("connection",)),
    "relax": Command("minimize the action by damped Gauss-Newton", cmd_relax, ("connection",), SOLVER_FIELDS),
    "selfdual": Command(
        "minimize the self-dual residual", cmd_selfdual, ("connection",), SOLVER_FIELDS + ("anti",)
    ),
}


def _print_table(report):
    print(f"ymdec {report['command']}  (tool {report['version']})")
    if report["checks"]:
        print(f"{'check':<40} {'defect':>12} {'tol':>10} {'status':>8}")
    for c in report["checks"]:
        status = "pass" if c["pass"] else "FAIL"
        print(f"{c['name']:<40} {c['defect']:>12.3e} {c['tol']:>10.1e} {status:>8}")
    for k, v in report["scalars"].items():
        print(f"{k:<40} {f'{v:.6e}' if isinstance(v, float) else v}")
    if report["trace"]:
        o, g, _ = report["trace"][-1]
        print(f"{'final objective':<40} {o:.6e}")
        print(f"{'final gradient max-norm':<40} {g:.6e}")


def render_report(report) -> bytes:
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


def _emit(report, job, final_form):
    with phase(log, "write"):
        payload = render_report(report)
        try:
            _print_table(report)
            if not job.outputs:
                sys.stdout.write(payload.decode())
            sys.stdout.flush()
        except OSError as e:  # e.g. a pipe whose reader has exited
            with open(os.devnull, "w") as devnull:  # for the interpreter's flush at exit
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            raise ConfigError(f"cannot write output: {e}") from e
        if job.outputs:
            payloads = (payload,) if final_form is None else (co.serialize(final_form), payload)
            for target, data in zip(job.outputs, payloads, strict=True):
                try:
                    Path(target).write_bytes(data)
                except (OSError, ValueError) as e:  # ValueError: a path with a NUL byte
                    raise ConfigError(f"cannot write output: {e}") from e


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ymdec",
        description="discrete Yang-Mills calculus on the 4-dimensional double complex",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
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
        job = load_config(args.command, args.config, seed=args.seed, output=args.output)
        report = {
            "tool": "ymdec",
            "version": __version__,
            "cell_ordering": co.CELL_ORDERING,
            "command": args.command,
            "config": job.config,
            "checks": [],
            "scalars": {},
            "trace": [],
        }
        with np.errstate(all="ignore"):  # a non-finite result aborts below in one line
            code, final = COMMANDS[args.command].run(job, report)
        _emit(report, job, final)
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
    except MemoryError as e:
        print(f"out of memory: {e}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())

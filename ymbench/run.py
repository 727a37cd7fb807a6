"""ymdec benchmark: one workload, one seed, one run.

    python3 ymbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
The run generates its inputs from the seed, then runs whole rounds of the
workload's operations through ymdec.cli.main, each round in a fresh
worker process with BLAS pinned to one thread, until S seconds have passed.  After the
timed rounds it checks every output against the oracles in oracle.py.
Times are normalised to a reference host speed by the gauge in worker.py,
because the shared host's own speed swings by up to 2x.
The last line of stdout is one JSON object with "correct", "attempted",
"failed" and "metrics": with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer metrics of traced rounds and layer probes.  A
fuller record, with the machine it ran on, goes to
ymbench/results/<workload>/seed<N>-trace<T>.json.
"""

import os

# pinned before numpy loads here or in any worker: BLAS and OpenMP use one thread
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
    )
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 11
# verify-4 compares the reports of two rounds, so its runs make at least two;
# a round of a solver workload takes 8-20 s and a run may make just one
MIN_ROUNDS = {"verify-4": 2}
WORKER_TIMEOUT_S = 150


def machine_info():
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def run_worker(job, work, tag):
    job_path = work / f"{tag}.job.json"
    out_path = work / f"{tag}.out.json"
    job = dict(job, src=str(ROOT / "src"), out=str(out_path))
    job_path.write_text(json.dumps(job))
    try:
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            cwd=ROOT, timeout=WORKER_TIMEOUT_S, stdout=subprocess.DEVNULL, check=False,
        )
    except subprocess.TimeoutExpired:
        return None
    if not out_path.is_file():
        return None
    return json.loads(out_path.read_text())


def file_bytes(path):
    p = ROOT / path
    return p.read_bytes() if p.is_file() else None


def median(xs):
    return statistics.median(xs) if xs else 0.0


def layer_metrics(traced, iterations, probes, overhead_s):
    """Per-layer metrics, each the per-round mean over the traced rounds."""
    n = len(traced)
    spans, nbytes = {}, {}
    for r in traced:
        for name, agg in r["trace"]["spans"].items():
            s = spans.setdefault(name, {"calls": 0, "ms": 0.0, "incl_ms": 0.0})
            for key in s:
                s[key] += agg[key] / n
        for name, b in r["trace"]["bytes"].items():
            nbytes[name] = nbytes.get(name, 0) + b / n

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def ms(name):
        return spans.get(name, {}).get("ms", 0.0)

    def per(x, n):
        return x / n if n else 0.0

    solves = calls("solver.descend")
    m = {
        "solver.iterations": (iterations, "count"),
        "solver.objective.calls": (calls("solver.objective"), "count"),
        "solver.gradient.calls": (calls("solver.gradient"), "count"),
        "solver.trials_per_iter": (per(calls("solver.objective") - solves, iterations), "count/iter"),
    }
    for name in ("solver.objective", "solver.gradient"):
        m[f"{name}.ms"] = (ms(name), "ms")
        m[f"{name}.ms_per_call"] = (per(ms(name), calls(name)), "ms")
    m["solver.descend.ms"] = (ms("solver.descend"), "ms")
    m["solver.iter_ms"] = (per(spans.get("solver.descend", {}).get("incl_ms", 0.0), iterations), "ms")
    for name in ("calculus.shift", "calculus.cup", "calculus.pair_chain", "complex4.resolve",
                 "complex4.boundary_cell", "cochain.get", "gauge.curvature"):
        m[f"{name}.calls"] = (calls(name), "count")
    for name in (
        "calculus.shift", "calculus.coboundary", "calculus.cup", "calculus.star",
        "calculus.inner_product", "calculus.pair_chain", "calculus.green_boundary_term",
        "complex4.resolve", "complex4.boundary_cell", "complex4.build_Vp",
        "cochain.get", "cochain.constructors", "cochain.serialize", "cochain.deserialize",
        "algebra.embed_su2", "algebra.project_su2", "algebra.conj_transpose", "algebra.inv2",
        "gauge.curvature", "gauge.covariant_d", "gauge.gauge_transform",
        "gauge.yang_mills_residual", "checks.star_tables", "checks.boundary_squared",
        "checks.chain_duality", "checks.run_verify_checks", "cli.load_config",
        "cli.render_report",
    ):
        m[f"{name}.ms"] = (ms(name), "ms")
    m["cochain.serialize.bytes"] = (nbytes.get("cochain.serialize", 0), "B")
    m["cli.report.bytes"] = (nbytes.get("cli.report", 0), "B")
    for name, value in probes.items():
        unit = "ms" if name.endswith("_ms") else "ns" if "_ns" in name else (
            "flop" if "flops" in name else "B")
        m[name] = (value, unit)
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ymdec" / "__init__.py").is_file():
        print(f"ymbench: no program source at {ROOT / 'src' / 'ymdec'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)             # op paths and configs are relative to the checkout
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import oracle
    import workloads
    import ymdec
    import ymdec.cli  # noqa: F401

    if args.workload not in workloads.WORKLOADS:
        print(f"ymbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    failures = [f"oracle self-test {name}: {detail}"
                for name, ok, detail in oracle.selftest(ymdec)
                if not ok]

    work_rel = Path("ymbench") / "work" / f"{args.workload}-{os.getpid()}"
    work = ROOT / work_rel
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ops = workloads.build(args.workload, args.seed, str(work_rel))
        argvs = [op.argv for op in ops]

        rounds = []            # (traced, worker result)
        digests = {}           # op output path -> bytes of the first round
        attempted = failed = 0
        op_errors = []         # failed operations; `failures` holds failed checks
        t_start = time.perf_counter()
        min_rounds = MIN_ROUNDS.get(args.workload, 1)
        while time.perf_counter() - t_start < args.seconds or len(rounds) < min_rounds:
            for traced in ((False, True) if args.trace else (False,)):
                res = run_worker({"kind": "round", "ops": argvs, "trace": traced,
                                  "spans": str(work / "spans.npz") if traced else None},
                                 work, f"round{len(rounds)}")
                attempted += len(ops)
                if res is None:
                    failed += len(ops)
                    op_errors.append(f"round {len(rounds)}: worker died or timed out")
                    rounds.append((traced, None))
                    continue
                for op, rec in zip(ops, res["ops"]):
                    if rec["rc"] != 0:
                        failed += 1
                        op_errors.append(f"{op.name}: exit {rec['rc']}: {rec['stderr'].strip()[-300:]}")
                        continue
                    for path in (op.report, op.final):
                        if path is None:
                            continue
                        got = file_bytes(path)
                        if digests.setdefault(path, got) != got:
                            failures.append(f"{op.name}: {path} differs between rounds")
                rounds.append((traced, res))
        measured_s = time.perf_counter() - t_start

        plain = [r for t, r in rounds if r is not None and not t]
        traced = [r for t, r in rounds if r is not None and t]
        setups = [r["setup_s"] for r in plain]
        if not args.trace:
            while len(setups) < SETUP_SAMPLES:
                res = run_worker({"kind": "setup"}, work, f"setup{len(setups)}")
                if res is None:
                    failures.append("setup worker died")
                    break
                setups.append(res["setup_s"])
        probes, probe_errors = {}, []
        if args.trace:
            res = run_worker({"kind": "probe", "seed": args.seed}, work, "probe")
            if res is None:
                failures.append("probe worker died")
            else:
                probes, probe_errors = res["probes"], res["probe_errors"]
        if plain and not plain[0]["module"].startswith(str(ROOT / "src")):
            failures.append(f"imported ymdec from {plain[0]['module']}, not this checkout")

        # output checks, outside the timed rounds; the last round's files are on disk
        check_rng = np.random.default_rng([args.seed, 0xC4EC])
        iterations = 0
        last = next((r for _, r in reversed(rounds) if r is not None), None)
        ok_ops = [op for op, rec in zip(ops, last["ops"]) if rec["rc"] == 0] if last else []
        for op in ok_ops:
            try:
                failures += workloads.check_op(op, ymdec, check_rng)
            except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
                failures.append(f"{op.name}: outputs unreadable: {e!r}")
                continue
            if op.final is not None:
                iterations += json.loads((ROOT / op.report).read_bytes())["scalars"]["iterations"]

        norms = [r["norm_s"] for r in plain]
        if args.trace:
            overhead = median([r["norm_s"] for r in traced]) - median(norms)
            metrics = layer_metrics(traced, iterations, probes, overhead)
        else:
            metrics = {
                "round_norm_s": (median(norms), "s"),
                "setup_s": (median(setups), "s"),
                "peak_rss_mb": (median([r["peak_rss_mb"] for r in plain]), "MB"),
            }
        correct = not failures
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "measured_s": measured_s,
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "rounds": [{"traced": t, "norm_s": r and r["norm_s"], "wall_s": r and r["wall_s"],
                        "import_s": r and r["import_s"], "setup_s": r and r["setup_s"],
                        "burst_ms": r and median([b for _, b in r["bursts"]]) * 1e3,
                        "peak_rss_mb": r and r["peak_rss_mb"],
                        "op_s": r and [o["s"] for o in r["ops"]]} for t, r in rounds],
            "ops": [op.name for op in ops], "iterations_per_round": iterations,
            "setup_samples_s": setups, "failures": failures[:50], "op_errors": op_errors[:50],
            "trace_missing": traced[0]["trace"]["missing"] if traced else [],
            "probe_errors": probe_errors,
            "machine": machine_info(),
        }
        results = HERE / "results" / args.workload
        results.mkdir(parents=True, exist_ok=True)
        (results / f"seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
        if args.trace and (work / "spans.npz").is_file():
            shutil.copyfile(work / "spans.npz", results / f"seed{args.seed}-spans.npz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for f in op_errors[:10] + failures[:20]:
        print(f"FAIL {f}", file=sys.stderr)
    for w in probe_errors + [f"not traced: {m}" for m in record["trace_missing"]]:
        print(f"WARN {w}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {attempted} ops, "
          f"{failed} failed, {len(failures)} check failures")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    walls = [r["wall_s"] for t, r in rounds if r is not None and not t]
    print(f"  {'(raw wall per round, not normalised)':<44} {median(walls):>14.6g} s")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

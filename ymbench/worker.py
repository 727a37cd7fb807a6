"""One benchmark process: imports ymdec fresh and runs one job.

    python3 ymbench/worker.py JOB.json

Job kinds: "round" runs the ops through ymdec.cli.main one after another
(with spans when "trace" is set), "setup" only imports, "probe" runs the
layer probes.  The result goes to the job's "out" path as JSON.  Each
round runs in its own process so that every round pays the program's
lazy set-up (plan caches, diagonal chains) as a command-line user does.

The host is shared and its speed swings by up to 2x over seconds, so the
worker also gauges it.  During a round a second thread runs a fixed burst
of Python and numpy work every GAUGE_PERIOD_S and records the burst's own
thread CPU time.  Each operation's main-thread CPU time is then scaled by
NOMINAL_BURST_S over the mean burst time around it: its time on a host
where one burst takes NOMINAL_BURST_S.  Set-up is scaled the same way
by bursts run straight after the import.
"""

import contextlib
import io
import json
import resource
import sys
import threading
import time
import traceback
from pathlib import Path


GAUGE_PERIOD_S = 0.25
# one burst's thread CPU time on the reference host (Intel Xeon, 2 vCPUs) in
# its fast phase; only a scale, so that normalised times read in seconds
NOMINAL_BURST_S = 0.008
SETUP_BURSTS = 15


def _planes(np):
    rng = np.random.default_rng(0)
    return rng.standard_normal((256, 2, 2)) + 1j * rng.standard_normal((256, 2, 2))


def _burst(np, planes):
    t = time.thread_time()
    counts = {}
    for i in range(6000):
        key = (i & 7, (i >> 3) & 7)
        counts[key] = counts.get(key, 0) + 1
    a = planes
    for _ in range(80):
        a = (a @ planes) * 0.5 + np.roll(planes, 1, axis=0)
    return time.thread_time() - t


class HostGauge(threading.Thread):
    """Bursts of fixed work every GAUGE_PERIOD_S: (end time, thread CPU s)."""

    def __init__(self, np):
        super().__init__(daemon=True)
        self.np = np
        self.planes = _planes(np)
        self.samples = []
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(GAUGE_PERIOD_S):
            self.samples.append((time.perf_counter(), _burst(self.np, self.planes)))

    def stop(self):
        self.done.set()
        self.join()
        if not self.samples:   # a round shorter than one period
            self.samples.append((time.perf_counter(), _burst(self.np, self.planes)))

    def scale(self, t0, t1):
        """NOMINAL_BURST_S over the mean burst in [t0, t1], widened by a period each side."""
        near = [s for t, s in self.samples if t0 - GAUGE_PERIOD_S <= t <= t1 + GAUGE_PERIOD_S]
        if not near:           # fall back to the nearest burst
            near = [min(self.samples, key=lambda ts: abs(ts[0] - (t0 + t1) / 2))[1]]
        return NOMINAL_BURST_S / (sum(near) / len(near))


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    t0 = time.perf_counter()
    import ymdec
    import ymdec.cli
    import_s = time.perf_counter() - t0
    import numpy as np

    planes = _planes(np)
    bursts = sorted(_burst(np, planes) for _ in range(SETUP_BURSTS))
    result = {"import_s": import_s, "module": ymdec.__file__,
              "setup_s": import_s * NOMINAL_BURST_S / bursts[len(bursts) // 2]}

    if job["kind"] == "round":
        tracer = None
        if job["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        ops = []
        first = last = None
        gauge = HostGauge(np)
        gauge.start()
        for argv in job["ops"]:
            out, err = io.StringIO(), io.StringIO()
            call = ymdec.cli.main if tracer is None else (lambda a: tracer.root(ymdec.cli.main, a))
            c_call = time.thread_time()
            t_call = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = call(argv)
            except Exception:  # an uncaught program error is a failed op, not a crash
                rc = None
                err.write(traceback.format_exc())
            t_ret = time.perf_counter()
            c_ret = time.thread_time()
            first = t_call if first is None else first
            last = t_ret
            ops.append({"argv": argv, "rc": rc, "s": t_ret - t_call, "cpu_s": c_ret - c_call,
                        "t": [t_call, t_ret], "stderr": err.getvalue()[-2000:]})
        gauge.stop()
        for op in ops:
            op["norm_s"] = op["cpu_s"] * gauge.scale(*op["t"])
        result["ops"] = ops
        result["wall_s"] = last - first
        result["norm_s"] = sum(op["norm_s"] for op in ops)
        result["bursts"] = gauge.samples
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.aggregate()
            if job.get("spans"):
                tracer.save(job["spans"])
    elif job["kind"] == "probe":
        from probes import run_probes

        result["probes"], result["probe_errors"] = run_probes(job["seed"])

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(job["out"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])

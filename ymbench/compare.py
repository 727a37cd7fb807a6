"""Compare two sets of benchmark results, one row per workload.

    python3 ymbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (searched
recursively; only --trace 0 runs carry end-to-end metrics).  For every
end-to-end metric of BENCHMARK.json a workload's row shows
"base median [q1, q3] -> new median [q1, q3]" over the runs of each
side, how much worse the new median is, and a verdict:

  ok          the new median is not worse than the base by more than the bound
  WORSE       it is worse by more than the bound
  unresolved  one side's quartile spread, as a share of its median, is wider
              than the bound, so the bound cannot be judged; reported as
              "better" instead when every new run beats every base run

Exits 1 when any metric is WORSE, or when the shares of failed operations
differ; otherwise 0.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{workload: [result record, ...]} for the trace-0 runs under directory."""
    out = {}
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            rec = json.loads(path.read_text())
        except ValueError:
            continue
        if isinstance(rec, dict) and rec.get("trace") == 0 and "workload" in rec:
            out.setdefault(rec["workload"], []).append(rec)
    return out


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(base, new, bound, lower_is_better):
    bmed, _, _, bspread = summary(base)
    nmed, _, _, nspread = summary(new)
    worse = (nmed - bmed) / bmed if lower_is_better else (bmed - nmed) / bmed
    if bspread > bound or nspread > bound:
        beats = max(new) < min(base) if lower_is_better else min(new) > max(base)
        return worse, "better" if beats else "unresolved"
    return worse, "WORSE" if worse > bound else "ok"


def fail_share(records):
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records), attempted


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(argv[0]), load(argv[1])
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        b, n = base.get(workload, []), new.get(workload, [])
        if not b or not n:
            print(f"{workload}: no results on {'both sides' if not b and not n else 'one side'}")
            continue
        (bf, ba), (nf, na) = fail_share(b), fail_share(n)
        cells = [f"{workload} ({len(b)} vs {len(n)} runs, failed {bf}/{ba} vs {nf}/{na})"]
        if bf * na != nf * ba:
            status = 1
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in n if name in r["metrics"]]
            if not bv or not nv:
                cells.append(f"{name} missing")
                continue
            worse, word = verdict(bv, nv, m["bound"], m["better"] == "lower")
            status |= word == "WORSE"
            bmed, bq1, bq3, _ = summary(bv)
            nmed, nq1, nq3, _ = summary(nv)
            cells.append(
                f"{name} {bmed:.4g} [{bq1:.4g}, {bq3:.4g}] -> {nmed:.4g} [{nq1:.4g}, {nq3:.4g}] "
                f"{m['unit']} {100 * worse:+.1f}% (bound {100 * m['bound']:.0f}%) {word}"
            )
        print(" | ".join(cells))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 [--workloads billiard zoo cli]
        [--seconds 32] [--baseline perfbench/BASELINE.json]

Runs `run.py` once per (seed, workload), interleaving workloads so slow
drift of the machine spreads over all of them, and prints for every
end-to-end metric the median, quartiles, sample count and the quartile
spread (q3 - q1) / median -- the figure BENCHMARK.json's bounds are set
against.  With --baseline it also makes one traced run per workload and
writes medians, quartiles and per-layer figures to that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(ln[4:] for ln in lines if ln.startswith("env ")))
    return json.loads(lines[-1]), env


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    ap.add_argument("--workloads", nargs="+",
                    default=["billiard", "zoo", "cli"])
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--baseline", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {} for w in args.workloads}
    checks = {w: [0, 0] for w in args.workloads}
    env = None
    for seed in args.seeds:
        for w in args.workloads:
            res, env = run_once(w, seed, seconds, 0)
            checks[w][0] += res["attempted"]
            checks[w][1] += res["failed"]
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"seed {seed} {w}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in res["metrics"].items())
                + f", failed {res['failed']}/{res['attempted']}", flush=True)

    report = {}
    for w in args.workloads:
        report[w] = {"end_to_end": {}, "attempted": checks[w][0],
                     "failed": checks[w][1]}
        print(f"\n{w}: fail_ratio {checks[w][1] / checks[w][0]:.3g} "
              f"({checks[w][1]} of {checks[w][0]})")
        for name, vals in values[w].items():
            s = summary(vals)
            report[w]["end_to_end"][name] = s
            flag = "" if name == "setup_s" or \
                s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:12s} median {s['median']:.5g}  q1 {s['q1']:.5g}"
                  f"  q3 {s['q3']:.5g}  n {s['n']}  spread "
                  f"{s['spread']:.4f} (bound {bounds[name]}){flag}")

    if args.baseline:
        whys = {wl["name"]: wl["why"] for wl in spec["workloads"]}
        for w in args.workloads:
            res, _ = run_once(w, args.seeds[0], seconds, 1)
            report[w]["why"] = whys[w]
            report[w]["per_layer"] = res["metrics"]
            report[w]["traced_seed"] = args.seeds[0]
        for key in ("workload", "seed", "size", "seconds", "trace"):
            env.pop(key)
        out = {"env": env, "seeds": args.seeds, "run_seconds": seconds,
               "workloads": report}
        args.baseline.write_text(json.dumps(out, indent=1) + "\n")
        print(f"wrote {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

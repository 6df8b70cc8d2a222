"""openrates benchmark: one workload per fresh process.

    python3 perfbench/run.py --workload {billiard,zoo,cli} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  The run

1. times `SETUP_PROBES` fresh child processes from spawn until their
   inputs are ready (interpreter start, imports, input generation);
2. builds the workload's inputs from the seed and replays them in a closed
   loop: one warm-up pass at tiny size (lazy imports, first calls), then
   timed full passes until the next one would end after `--seconds`;
3. checks every pass against independent references, and each rerun
   against the first pass for bit-identical outputs.

With `--trace 0` every pass runs the plain code and the end-to-end metrics
are reported.  With `--trace 1` passes alternate plain and traced, and the
per-layer metrics come from the traced ones.  The last line of standard
output is the JSON result; the full record (environment, per-pass samples,
spans) goes to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SETUP_PROBES = 3
# One BLAS thread: on a shared 2-core machine a second BLAS thread waits on
# whatever else runs, which spreads pass times (8-hole escape_multi measured
# 7.1 s with 2 threads, 6.8 s with 1).  Set before numpy is imported;
# values already in the environment win, and both are recorded.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
PROBE_TIMEOUT = 60.0
MODULES = ("systems", "escape", "ulam", "tower", "pressure", "dynballs",
           "billiard", "cli")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("billiard", "zoo", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def require_source():
    """Put ./src first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "openrates" / "__init__.py").is_file():
        sys.exit(f"error: {src}/openrates not found; run from the root of an "
                 "openrates checkout")
    sys.path.insert(0, str(src))


def load_workload(args, workdir, tracer=None):
    import openrates
    import workloads

    if Path(openrates.__file__).resolve().parent != \
            (ROOT / "src" / "openrates").resolve():
        sys.exit(f"error: openrates imported from {openrates.__file__}")
    return workloads.WORKLOADS[args.workload](
        args.seed, size=args.size, tracer=tracer, workdir=workdir)


def make_workdir(args):
    path = ROOT / ".perfbench_work" / \
        f"{args.workload}-{args.seed}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def probe_main(args):
    workdir = make_workdir(args)
    try:
        load_workload(args, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args):
    """Seconds from spawning a fresh interpreter to its inputs being ready,
    once per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline().strip()
            t1 = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != "ready" or proc.returncode != 0:
            sys.exit(f"error: setup probe failed (exit {proc.returncode})")
        samples.append(t1 - t0)
    return samples


def environment(args):
    import mpmath
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else ref
        commit = ref
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "mpmath": mpmath.__version__, "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "commit": commit,
    }


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def fingerprint_equal(a, b):
    return json.dumps(a, default=repr) == json.dumps(b, default=repr)


def one_pass(wl, tracer, traced):
    """Run one pass; returns its record and fingerprint (None if it
    raised)."""
    import workloads

    checks = workloads.Checks()
    gc.collect()        # every pass starts from the same heap state
    if traced:
        tracer.reset()
        tracer.install([sys.modules[f"openrates.{m}"] for m in MODULES])
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with tracer.span("bench.pass"):
            fp = wl.run_pass(checks)
    except Exception:
        fp = None
        traceback.print_exc()
        checks.check("pass completes", False, traceback.format_exc(-1))
    finally:
        t1 = time.perf_counter()
        c1 = time.process_time()
        if traced:
            tracer.uninstall()
    rec = {"wall_s": t1 - t0, "cpu_s": c1 - c0, "traced": traced,
           "warmup": False, "checks": checks}
    if traced:
        rec["spans"] = tracer.spans
        rec["counters"] = dict(tracer.counters)
    if hasattr(wl, "output_bytes"):
        rec["output_bytes"] = wl.output_bytes
    return rec, fp


def run_passes(args, wl, warm, tracer):
    """A warm-up pass at tiny size (lazy imports, first calls), then a
    closed loop of full passes until the next one would end after
    `--seconds`.  With tracing, full passes alternate plain and traced."""
    rec, _ = one_pass(warm, tracer, False)
    rec["warmup"] = True
    records = [rec]
    first_fp = None
    t_start = time.perf_counter()
    while True:
        n_full = len(records) - 1
        rec, fp = one_pass(wl, tracer, bool(args.trace) and n_full % 2 == 1)
        if fp is not None:
            if first_fp is None:
                first_fp = fp
            else:
                rec["checks"].check("rerun bit-identical",
                                    fingerprint_equal(fp, first_fp),
                                    f"{fp} != {first_fp}")
        records.append(rec)
        timed = [r["wall_s"] for r in records[1:]]
        elapsed = time.perf_counter() - t_start
        need = 2 if args.trace else 1     # one pass, or one plain + traced
        if len(timed) >= need and \
                elapsed + statistics.median(timed) > args.seconds:
            return records


def end_to_end(records, setup_samples):
    plain = [r["wall_s"] for r in records
             if not r["warmup"] and not r["traced"]]
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "run_s": (statistics.median(plain), "s", plain),
        "setup_s": (statistics.median(setup_samples), "s", setup_samples),
        "peak_rss_mb": (max(rss_self, rss_children) / 1024.0, "MB", None),
    }


# per-layer time shares: metric name -> span names whose self time it sums
FUNCTION_SHARES = {
    "systems.evolve_survivors_pct": ["systems.evolve_survivors"],
    "systems.parry_chain_pct": ["systems.parry_chain"],
    "systems.sample_survivor_points_pct": ["systems.sample_survivor_points"],
    "escape.mc_pct": ["escape.escape_rate_mc"],
    "escape.grid_pct": ["escape.escape_rate_grid"],
    "escape.words_pct": ["escape.escape_rate_words"],
    "ulam.build_pct": ["ulam.build_ulam"],
    "ulam.eigen_pct": ["ulam.leading_eigenpair"],
    "ulam.survivor_measure_pct": ["ulam.survivor_measure"],
    "pressure.brin_katok_pct": ["pressure.entropy_brin_katok"],
    "pressure.lyapunov_pct": ["pressure.lyapunov_sum"],
    "pressure.class_membership_pct": ["pressure.class_membership"],
    "pressure.variational_report_pct": ["pressure.variational_report",
                                        "pressure.pressure_report"],
    "dynballs.ball_slope_pct": ["dynballs.ball_slope",
                                "dynballs.ball_measure"],
    "dynballs.triangle_check_pct": ["dynballs.triangle_check"],
    "dynballs.separated_set_pct": ["dynballs.separated_set_size"],
    "billiard.build_table_pct": ["billiard.build_table"],
    "billiard.theta_chi2_pct": ["billiard.theta_chi2"],
    "billiard.escape_multi_pct": ["billiard.billiard_escape_multi"],
    "billiard.reversibility_pct": ["billiard.reversibility_error"],
}


def per_layer(records):
    """Per-layer metrics from the traced passes, plus the run-level
    diagnostics.  Time shares are of the traced passes' summed wall time;
    a layer the workload never enters reports 0."""
    import spans as tr
    import workloads

    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"] and not r["warmup"]]
    wall = sum(r["wall_s"] for r in traced)
    self_s = {}
    cmd_s = {}
    for r in traced:
        for name, v in tr.self_times(r["spans"]).items():
            self_s[name] = self_s.get(name, 0.0) + v
        for name, v in tr.command_self_times(r["spans"]).items():
            cmd_s[name] = cmd_s.get(name, 0.0) + v
    counters = {}
    for r in traced:
        for k, v in r["counters"].items():
            counters[k] = counters.get(k, 0) + v
    npass = len(traced)

    def pct(seconds):
        return 100.0 * seconds / wall

    layer_s = {m: 0.0 for m in MODULES + ("bench",)}
    for name, v in self_s.items():
        layer_s[name.split(".", 1)[0]] += v
    out = {}
    for m, v in layer_s.items():
        out[f"{m}.self_pct"] = (pct(v), "%")
    for metric, names in FUNCTION_SHARES.items():
        out[metric] = (pct(sum(self_s.get(n, 0.0) for n in names)), "%")
    for c in workloads.CliWorkload.COMMANDS:
        out[f"cli.{c}_pct"] = (pct(cmd_s.get(c, 0.0)), "%")

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    steps = counters.get("systems.point_steps", 0)
    out["systems.point_steps"] = (steps // npass, "count")
    out["systems.point_steps_per_s"] = (
        rate(steps, self_s.get("systems.evolve_survivors", 0.0)), "1/s")
    out["ulam.nnz"] = (counters.get("ulam.nnz", 0) // npass, "count")
    out["ulam.eigen_iterations"] = (
        counters.get("ulam.eigen_iterations", 0) // npass, "count")
    out["billiard.collision_steps_per_s"] = (
        rate(counters.get("billiard.collision_steps", 0),
             self_s.get("billiard.theta_chi2", 0.0)), "1/s")
    out["billiard.trajectory_steps_per_s"] = (
        rate(counters.get("billiard.trajectory_steps", 0),
             self_s.get("billiard.billiard_escape_multi", 0.0)), "1/s")
    out["billiard.flagged"] = (
        counters.get("billiard.flagged", 0) // npass, "count")
    trajectories = counters.get("billiard.trajectories", 0)
    out["billiard.valid_ratio"] = (
        (trajectories - counters.get("billiard.flagged", 0)) / trajectories
        if trajectories else 0.0, "ratio")
    out["cli.output_bytes"] = (
        int(statistics.median([r.get("output_bytes", 0) for r in traced])),
        "B")
    out["traced_run_s"] = (statistics.median(r["wall_s"] for r in traced),
                           "s")
    out["trace_overhead_s"] = (
        out["traced_run_s"][0] - statistics.median(r["wall_s"] for r in plain),
        "s")
    out["cpu_s"] = (statistics.median(r["cpu_s"] for r in plain), "s")
    seconds = {f"{m}.self_s": v / npass for m, v in layer_s.items()}
    seconds.update({f"{k}_s": v / npass for k, v in sorted(self_s.items())})
    return out, seconds


def write_record(args, record):
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                      f"{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, default=repr)
    return path


def main(argv=None):
    args = parse_args(argv)
    require_source()
    if args.setup_probe:
        probe_main(args)
        return 0
    setup_samples = measure_setup(args)

    import spans as tr
    import workloads

    tracer = tr.Tracer()
    workdir = make_workdir(args)
    try:
        wl = load_workload(args, workdir, tracer)
        warm = workloads.WORKLOADS[args.workload](
            args.seed, size="tiny", tracer=tracer, workdir=workdir / "warmup")
        env = environment(args)
        records = run_passes(args, wl, warm, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    failures = [f for r in records for f in r["checks"].failures]
    attempted = sum(r["checks"].attempted for r in records)
    failed = len(failures)
    metrics = end_to_end(records, setup_samples)
    seconds = {}
    if args.trace:
        layer, seconds = per_layer(records)
        result_metrics = {k: {"value": v, "unit": u}
                          for k, (v, u) in layer.items()}
    else:
        result_metrics = {k: {"value": v, "unit": u}
                          for k, (v, u, _) in metrics.items()}
    fail_ratio = failed / attempted

    print("env " + json.dumps(env, sort_keys=True))
    for f in failures:
        print(f"FAILED {f}")
    print(f"fail_ratio {fail_ratio:.6g} ratio ({failed} of {attempted} "
          "checked operations failed)")
    for name, (value, unit, samples) in metrics.items():
        line = f"{name} {value:.6g} {unit}"
        if samples:
            q1, _, q3 = quartiles(samples)
            line += f" (median of {len(samples)}; q1 {q1:.6g}, q3 {q3:.6g})"
        print(line)
    print(f"warmup_pass_s {records[0]['wall_s']:.6g} s; "
          f"passes {len(records)}")
    if args.trace:
        for name, v in sorted(seconds.items()):
            print(f"self {name} {v:.6g} s")
        for name, (v, u) in layer.items():
            print(f"layer {name} {v:.6g} {u}")

    record = {"env": env, "failures": failures, "attempted": attempted,
              "metrics": result_metrics,
              "end_to_end": {k: {"value": v, "unit": u, "samples": s}
                             for k, (v, u, s) in metrics.items()},
              "self_seconds_per_pass": seconds,
              "passes": [{k: v for k, v in r.items()
                          if k not in ("spans", "checks")} for r in records],
              "spans": [r["spans"] for r in records if r["traced"]]}
    path = write_record(args, record)
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

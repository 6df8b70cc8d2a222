"""Self-test of the benchmark at tiny sizes (about a minute on 2 cores).

    python3 perfbench/selftest.py

Checks that
- every workload prints, traced and untraced, a last line with exactly the
  keys correct/attempted/failed/metrics, naming every metric of
  BENCHMARK.json with its unit, and passes all its checks;
- a perturbed reference value drives fail_ratio above 0;
- two seeds give different billiard survivor counts, each passing all
  checks;
- without the package sources next to it, the benchmark exits non-zero.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "5", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_output(spec):
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed",
                                "metrics"}, res.keys()
            assert res["correct"] and res["failed"] == 0, proc.stdout
            assert res["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, m in res["metrics"].items():
                assert set(m) == {"value", "unit"}, m
                assert isinstance(m["value"], (int, float)) and \
                    math.isfinite(m["value"]), (name, m)
            for name in spec["end_to_end"] if not trace else []:
                assert res["metrics"][name["name"]]["value"] > 0, name
            print(f"ok  {workload} trace={trace}: {res['attempted']} checks,"
                  f" {len(res['metrics'])} metrics")


def check_perturbed_reference(workdir):
    import workloads as W

    refs = dict(W.REFERENCES)
    refs["golden_rho"] += 1e-3
    checks = W.Checks()
    W.CliWorkload(5, size="tiny", refs=refs, workdir=workdir).run_pass(checks)
    ratio = len(checks.failures) / checks.attempted
    assert ratio > 0, "perturbed reference passed"
    print(f"ok  perturbed golden rho: fail_ratio {ratio:.3g} "
          f"({len(checks.failures)} of {checks.attempted})")


def check_billiard_seeds():
    import workloads as W

    curves = []
    for seed in (5, 6):
        checks = W.Checks()
        wl = W.BilliardWorkload(seed, size="tiny")
        wl.run_pass(checks)
        assert not checks.failures, checks.failures
        curves.append(wl.survivor_counts)
    assert curves[0] != curves[1], "two seeds gave identical counts"
    print("ok  billiard seeds 5 and 6: different survivor counts, all checks "
          "pass")


def check_bare_directory(workdir):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, "billiard", 0)
    assert proc.returncode != 0, "ran without the package sources"
    assert not proc.stdout.strip(), proc.stdout
    print(f"ok  bare directory: exit {proc.returncode}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    workdir = ROOT / ".perfbench_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        check_output(spec)
        check_perturbed_reference(workdir)
        check_billiard_seeds()
        check_bare_directory(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

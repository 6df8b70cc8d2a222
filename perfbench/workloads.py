"""The benchmark's three workloads and their correctness checks.

Each workload is built once from the workload seed (its set-up) and then
replayed pass after pass in a closed loop: the next call into the package
starts when the previous one has returned.  A pass records one checked
operation per reference comparison in a `Checks` object; a failed check is
counted and the pass goes on.  Every reference below is independent of the
code under test: closed forms, the paper's 1e7-sample billiard values, or a
transfer matrix the benchmark builds itself (`sft_rate`).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

from openrates import billiard as B
from openrates import cli as C
from openrates import dynballs as D
from openrates import escape as E
from openrates import pressure as P
from openrates import systems as S

import spans

PHI = (1 + math.sqrt(5)) / 2
LAMBDA_CAT = math.log((3 + math.sqrt(5)) / 2)

# Reference values; a self-test perturbs a copy of this table.
REFERENCES = {
    "golden_rho": math.log(PHI / 2),
    "golden_r": PHI / 2,
    "triadic_rho": math.log(2 / 3),
    "5adic_level1_rho": math.log(4 / 5),
    "tower_root": (1 + math.sqrt(5)) / 4,
    "golden_bk_entropy": 0.4812,
    "cat_lambda": LAMBDA_CAT,
    "baker_lambda": math.log(2),
    # criterion-6 escape rates at 1e7 samples, n_max=30, seed 2024
    "billiard_arc_rho": (-0.0093, -0.0182, -0.0353, -0.0676),
    "billiard_disk_rho": (-0.0161, -0.0307, -0.0429, -0.0523),
}

ARC_HALFWIDTHS = (0.04, 0.08, 0.16, 0.32)
DISK_RADII = (0.01, 0.02, 0.03, 0.04)
# The reported binomial stderr treats the steps of one trajectory as
# independent; over 48 seeded draws at 1e5 samples the estimates spread
# about 2.3 times wider.  12 stderr is therefore about 5 true sigma, and
# 5e-5 covers the 4-decimal rounding of the reference values.
BILLIARD_SIGMAS = 12.0
BILLIARD_ROUNDING = 5e-5
MC_SIGMAS = 12.0

SIZES = {
    "full": {
        "billiard": dict(validation_rays=300_000, chi2_samples=300_000,
                         samples=100_000, n_max=30),
        "zoo": dict(mc_samples=60_000, cloud=30_000, balls_1d=10,
                    balls_2d=10, triples=100_000, separated=120,
                    bk_samples=20_000, classes=True),
        "cli": dict(mc_samples=300_000, ulam_resolution=256,
                    billiard_rays=100_000, billiard_samples=40_000,
                    ball_centers=4),
    },
    "tiny": {
        "billiard": dict(validation_rays=20_000, chi2_samples=20_000,
                         samples=20_000, n_max=12),
        "zoo": dict(mc_samples=20_000, cloud=30_000, balls_1d=2,
                    balls_2d=2, triples=5_000, separated=20,
                    bk_samples=3_000, classes=False),
        # golden MC keeps 0.77 (phi/2)^40 = 1.6e-4 of its samples alive to
        # n_max=40, and a step nobody survives cannot be fitted: 2e4 samples
        # leave about 3 (none in one run of 25), 2e5 about 32
        "cli": dict(mc_samples=200_000, ulam_resolution=32,
                    billiard_rays=20_000, billiard_samples=20_000,
                    ball_centers=1),
    },
}


class Checks:
    """Counts checked operations; a failure is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok

    def close(self, name, value, ref, tol):
        err = abs(value - ref)
        return self.check(name, bool(math.isfinite(value) and err <= tol),
                          f"value {value!r}, reference {ref!r}, "
                          f"|diff| {err:.3g} > tol {tol:.3g}")


def sft_rate(m, level, words):
    """log(lambda / m) for the m-adic map with the cylinder hole `words`:
    lambda is the spectral radius of the (level-1)-block transfer matrix of
    the subshift that avoids the words."""
    forbidden = {tuple(w) for w in words}
    if level == 1:
        return math.log((m - len(forbidden)) / m)
    states = list(itertools.product(range(m), repeat=level - 1))
    index = {s: i for i, s in enumerate(states)}
    A = np.zeros((len(states), len(states)))
    for s in states:
        for c in range(m):
            if s + (c,) not in forbidden:
                A[index[s], index[s[1:] + (c,)]] = 1.0
    return math.log(max(abs(np.linalg.eigvals(A))) / m)


def _seeds(seed, n):
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(n)]


def _monotone_strict(rhos):
    return all(b < a for a, b in zip(rhos, rhos[1:]))


# ---------------------------------------------------------------------------
# billiard: the criterion-6 pipeline at reduced size

class BilliardWorkload:
    """Table construction, stationarity, reversibility and the shared-
    trajectory escape sweep over 4 nested arc and 4 nested disk holes."""

    def __init__(self, seed, size="full", refs=None, tracer=None,
                 workdir=None):
        self.sz = SIZES[size]["billiard"]
        self.refs = refs or REFERENCES
        self.table_seed, self.chi2_seed, self.escape_seed = _seeds(seed, 3)
        self.states = [B.CollisionState(sid, phi, th) for sid, phi, th in
                       [(0, 0.3, 0.2), (1, 2.1, -0.7), (0, 4.0, 1.1),
                        (1, 5.5, 0.9)]]

    def run_pass(self, checks):
        sz = self.sz
        table = B.build_table(validation_rays=sz["validation_rays"],
                              seed=self.table_seed)
        checks.check("finite horizon", table.tau_max < 1.5,
                     f"tau_max {table.tau_max}")
        pval, chi2, _, _ = B.theta_chi2(table, sz["chi2_samples"],
                                        seed=self.chi2_seed)
        # p is uniform under the cos(theta) law; 1e-6 keeps false alarms
        # negligible over every pass of every run
        checks.check("theta ~ cos law", pval > 1e-6, f"chi2 p-value {pval}")
        for st in self.states:
            err = B.reversibility_error(table, st, n=10)
            checks.check("reversibility", err < 1e-9, f"{st}: error {err}")
        arcs = B.nested_arc_holes(table, 0, 1.0, ARC_HALFWIDTHS)
        disks = B.nested_disk_holes(table, (0.5, 0.0), DISK_RADII)
        ests = B.billiard_escape_multi(table, list(arcs) + list(disks),
                                       samples=sz["samples"],
                                       n_max=sz["n_max"],
                                       seed=self.escape_seed)
        arc_rhos = [e.rho for e in ests[:4]]
        disk_rhos = [e.rho for e in ests[4:]]
        checks.check("arc sweep strictly monotone",
                     _monotone_strict(arc_rhos), f"{arc_rhos}")
        checks.check("disk sweep strictly monotone",
                     _monotone_strict(disk_rhos), f"{disk_rhos}")
        refs = list(self.refs["billiard_arc_rho"]) + \
            list(self.refs["billiard_disk_rho"])
        for i, (est, ref) in enumerate(zip(ests, refs)):
            checks.close(f"billiard hole {i} rho", est.rho, ref,
                         BILLIARD_SIGMAS * est.stderr + BILLIARD_ROUNDING)
        denom = sz["samples"] - ests[0].meta["flagged"]
        self.survivor_counts = [[round(m * denom) for _, m in e.per_n_mass]
                                for e in ests]
        return (table.tau_max, pval, tuple(arc_rhos + disk_rhos))


# ---------------------------------------------------------------------------
# zoo: criteria 4 and 5 at reduced size

def _point_mass(name, orbit, lam):
    return P.InvariantMeasureRep(kind="empirical", name=name,
                                 samples=np.asarray(orbit, dtype=float),
                                 entropy_exact=0.0, lyapunov_exact=lam)


def _survivor_cloud(sys_obj, base_points, n_fwd, n_cond):
    """Points that survived n_fwd steps and whose orbits survive n_cond
    more: a sample of the survivor-set invariant measure."""
    cur = base_points[~sys_obj.hole.in_hole_many(base_points)]
    for _ in range(n_fwd):
        cur = sys_obj.map.step_many(cur)
        cur = cur[~sys_obj.hole.in_hole_many(cur)]
    fut = cur
    keep = np.ones(len(cur), dtype=bool)
    for _ in range(n_cond):
        fut = sys_obj.map.step_many(fut)
        keep &= ~sys_obj.hole.in_hole_many(fut)
    return cur[keep]


class ZooWorkload:
    """Exact 1D Markov zoo and 2D cat/baker through the variational report,
    then the dynamical-ball estimators."""

    def __init__(self, seed, size="full", refs=None, tracer=None,
                 workdir=None):
        self.sz = SIZES[size]["zoo"]
        self.refs = refs or REFERENCES
        self.tracer = tracer or spans.Tracer()
        (self.mc_seed, self.cloud_seed, self.bk_seed, self.ball_seed,
         self.tri_seed, self.sep_seed, self.golden_seed) = _seeds(seed, 7)
        golden = S.OpenSystem(S.doubling_map(),
                              S.cylinder_union_hole(2, 2, [(1, 1)]))
        self.zoo_1d = [
            ("golden", golden, 2, math.log(2), self.refs["golden_rho"])]
        for label, m, words, ref in [
                ("triadic", 3, [(1,)], self.refs["triadic_rho"]),
                ("5-adic", 5, [(2,)], self.refs["5adic_level1_rho"])]:
            self.zoo_1d.append((label, S.OpenSystem(
                S.adic_map(m), S.cylinder_union_hole(m, 1, words)), 1,
                math.log(m), ref))
        hole = S.ball_hole_2d((0.25, 0.75), 0.1)
        self.zoo_2d = [
            ("cat", S.OpenSystem(S.cat_map(), hole), self.refs["cat_lambda"],
             [np.array([[0.0, 0.0]]),
              np.array([[0.5, 0.5], [0.5, 0.0], [0.0, 0.5]])]),
            ("baker", S.OpenSystem(S.baker_map(), hole),
             self.refs["baker_lambda"],
             [np.array([[0.0, 0.0]]),
              np.array([[1 / 3, 2 / 3], [2 / 3, 1 / 3]])]),
        ]
        self.golden = golden
        self.closed_1d = S.OpenSystem(S.doubling_map(), S.empty_hole(1))
        self.closed_cat = S.OpenSystem(S.cat_map(), S.empty_hole(2))

    def _variational_1d(self, checks, fp):
        for label, sys_obj, k, lam, ref in self.zoo_1d:
            t = S.survival_time(sys_obj, 0.0, 200)
            checks.check(f"{label} fixed point 0 survives",
                         t == float("inf"), f"escapes at {t}")
            est = E.escape_rate_words(sys_obj, k)
            checks.close(f"{label} words rho", est.rho, ref, 1e-12)
            states, Pm, pi = S.parry_chain(sys_obj, k)
            if k == 1:
                # every survivor symbol may follow every other
                w = np.arange(Pm.shape[0], 0, -1, dtype=float)
                w /= w.sum()
                other = P.InvariantMeasureRep(
                    kind="markov_chain", name="biased_iid",
                    transition=np.tile(w, (len(w), 1)), stationary=w,
                    lyapunov_exact=lam)
            else:
                A = (Pm > 0).astype(float)
                other = P.InvariantMeasureRep(
                    kind="markov_chain", name="equal_weights",
                    transition=A / A.sum(axis=1, keepdims=True),
                    lyapunov_exact=lam)
            cands = [
                P.InvariantMeasureRep(
                    kind="markov_chain", name="nu_hat", transition=Pm,
                    stationary=pi, lyapunov_exact=lam, is_nu_hat=True),
                _point_mass("fixed_point_0", [0.0], lam),
                other,
            ]
            reports, verdict = P.variational_report(
                sys_obj, cands, est, check_classes=False,
                rng=np.random.default_rng(self.mc_seed))
            checks.check(f"{label} inequality", verdict["inequality"] ==
                         "PASS", f"{verdict}")
            checks.check(f"{label} equality",
                         verdict["equality"]["status"] == "PASS",
                         f"{verdict['equality']}")
            fp.append(reports[0].pressure)

    def _variational_2d(self, checks, fp):
        sz = self.sz
        for i, (label, sys_obj, lam, orbits) in enumerate(self.zoo_2d):
            for orbit in orbits:
                for x in orbit:
                    # non-dyadic periodic orbits drift off after ~52
                    # doublings in floats; check below that horizon
                    t = S.survival_time(sys_obj, x, 40)
                    checks.check(f"{label} periodic point survives",
                                 t == float("inf"), f"{x} escapes at {t}")
            est = E.escape_rate_mc(sys_obj, E.lebesgue_sampler(2), 25,
                                   sz["mc_samples"], seed=self.mc_seed + i)
            rng = np.random.default_rng(self.cloud_seed + i)
            with self.tracer.span("systems.survivor_cloud"):
                cloud = _survivor_cloud(sys_obj, rng.random((sz["cloud"], 2)),
                                        10, 10)
            nu_hat = P.InvariantMeasureRep(kind="empirical",
                                           name="nu_hat_sampled",
                                           samples=cloud)
            reports, verdict = P.variational_report(
                sys_obj, [nu_hat], est, check_classes=sz["classes"],
                rng=np.random.default_rng(self.bk_seed + i),
                bk_kwargs=dict(eps_list=(0.15, 0.1), n_max=8, centers=40))
            checks.check(f"{label} nu_hat inequality",
                         verdict["inequality"] == "PASS", f"{verdict}")
            # QR products over n=50 steps carry an O(1/n) start-up
            # transient (cat: 3.2e-3); 0.01 still separates the exponents
            checks.close(f"{label} QR Lyapunov sum", reports[0].lyapunov_sum,
                         lam, 0.01)
            _, verdict_pm = P.variational_report(
                sys_obj, [_point_mass("fixed_point", orbits[0], lam),
                          _point_mass("periodic_orbit", orbits[1], lam)],
                est, check_classes=False)
            checks.check(f"{label} periodic inequality",
                         verdict_pm["inequality"] == "PASS", f"{verdict_pm}")
            fp.extend([est.rho, reports[0].entropy, reports[0].pressure])

    def _balls(self, checks, fp):
        sz = self.sz
        rng = np.random.default_rng(self.ball_seed)
        lam1 = math.log(2)
        for c in rng.uniform(0.01, 0.99, sz["balls_1d"]):
            slope, _ = D.ball_slope(self.closed_1d, float(c), 0.1, [4, 6, 8],
                                    samples=4_000, rng=rng)
            checks.check("1D ball slope <= lambda + 0.1", slope <= lam1 + 0.1,
                         f"center {c}: slope {slope}")
            fp.append(slope)
        for c in rng.random((sz["balls_2d"], 2)):
            slope, _ = D.ball_slope(self.closed_cat, c, 0.1, [3, 5, 7],
                                    samples=20_000, rng=rng)
            checks.check("2D ball slope <= lambda + 0.1",
                         slope <= self.refs["cat_lambda"] + 0.1,
                         f"center {c}: slope {slope}")
            fp.append(slope)

        samples = S.sample_survivor_points(
            self.golden, 2, sz["bk_samples"],
            np.random.default_rng(self.golden_seed))
        h, _, _ = P.entropy_brin_katok(
            self.golden, samples, eps_list=(0.1, 0.05), n_max=10, centers=60,
            rng=np.random.default_rng(self.golden_seed + 1))
        checks.close("golden Brin-Katok entropy", h,
                     self.refs["golden_bk_entropy"], 0.05)

        def sd(x):
            return min(x, 1 - x, abs(x - 0.5))

        tri = D.triangle_check(sd, sz["triples"], 0.05,
                               rng=np.random.default_rng(self.tri_seed))
        checks.check("triangle violations", tri["violations"] == 0, f"{tri}")
        checks.check("triangle proof violations",
                     tri["proof_violations"] == 0, f"{tri}")
        cands = np.random.default_rng(self.sep_seed).random(sz["separated"])
        kept = D.separated_set_size(self.closed_1d, cands, 6, 0.1)
        fp.extend([h, tri["triples"], kept])

    def run_pass(self, checks):
        fp = []
        self._variational_1d(checks, fp)
        self._variational_2d(checks, fp)
        self._balls(checks, fp)
        return tuple(fp)


# ---------------------------------------------------------------------------
# cli: the or-verify command line, in process, on generated configs

GOLDEN_README = {
    "system": {
        "map": {"name": "adic", "params": {"m": 2}},
        "hole": {"kind": "cylinder_union", "base": 2, "level": 2,
                 "words": [[1, 1]]},
    },
    "escape": {"methods": ["grid", "words", "mc"], "n_max": 40,
               "resolution": 64, "level": 2, "samples": 1000000},
    "ulam": {"resolution": 64},
}
FIVE_ADIC_WORDS = [[1, 3, 2], [4, 0, 1]]
SWEEP_WORDS = [[[1, 1, 1]], [[1, 1, 1], [1, 1, 0]],
               [[1, 1, 1], [1, 1, 0], [0, 1, 1]]]
GOLDEN_TOWER = {"branches": [
    {"id": "A", "R": 1, "J": 2.0, "mass": 0.5},
    {"id": "B", "R": 2, "J": 4.0, "mass": 0.25},
    {"id": "C", "R": 2, "J": 4.0, "mass": 0.25, "holed": True}],
    "C0": 1.0, "theta0": 0.5}
CAT_HOLE = {"kind": "region_2d", "shape": "ball", "center": [0.25, 0.75],
            "radius": 0.1}


def _tree_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*")
               if f.is_file())


class CliWorkload:
    """verify (golden and 5-adic), ulam (cat), escape (nested sweep),
    tower, pressure, balls, billiard and compare, through `cli.main`."""

    COMMANDS = ("verify", "ulam", "escape", "tower", "pressure", "balls",
                "billiard", "compare")

    def __init__(self, seed, size="full", refs=None, tracer=None,
                 workdir=None):
        sz = SIZES[size]["cli"]
        self.refs = refs or REFERENCES
        self.tracer = tracer or spans.Tracer()
        self.workdir = Path(workdir)
        self.output_bytes = 0
        # OR_SEED would override every config seed below
        os.environ.pop("OR_SEED", None)
        seeds = _seeds(seed, 5)
        golden = json.loads(json.dumps(GOLDEN_README))
        golden["seed"] = seeds[0]
        golden["escape"]["samples"] = sz["mc_samples"]
        five = {
            "seed": seeds[1],
            "system": {"map": {"name": "adic", "params": {"m": 5}},
                       "hole": {"kind": "cylinder_union", "base": 5,
                                "level": 3, "words": FIVE_ADIC_WORDS}},
            "escape": {"methods": ["grid", "words", "mc"], "n_max": 40,
                       "resolution": 125, "level": 3,
                       "samples": sz["mc_samples"]},
            "ulam": {"resolution": 125},
        }
        rng = np.random.default_rng(seeds[2])
        configs = {
            "verify_golden": golden,
            "verify_5adic": five,
            "ulam": {"seed": seeds[3], "system": {"map": {"name": "cat"},
                                                  "hole": CAT_HOLE},
                     "ulam": {"resolution": sz["ulam_resolution"]}},
            "escape": {"seed": seeds[3], "system": {
                "map": {"name": "doubling"},
                "hole": [{"kind": "cylinder_union", "base": 2, "level": 3,
                          "words": w} for w in SWEEP_WORDS]},
                "escape": {"methods": ["grid"], "n_max": 40,
                           "resolution": 64}},
            "tower": {"tower": GOLDEN_TOWER},
            "pressure": {"seed": seeds[3], "system": {
                "map": {"name": "adic", "params": {"m": 3}},
                "hole": {"kind": "cylinder_union", "base": 3, "level": 1,
                         "words": [[1]]}},
                "escape": {"methods": ["words"], "level": 1}},
            "balls": {"seed": seeds[4], "system": {
                "map": {"name": "cat"}, "hole": {"kind": "empty",
                                                 "dimension": 2}},
                "balls": {"eps": 0.1, "n_values": [3, 5, 7],
                          "samples": 20000,
                          "centers": rng.random((sz["ball_centers"], 2))
                          .tolist()}},
            "billiard": {"seed": seeds[4], "billiard": {
                "validation_rays": sz["billiard_rays"],
                "samples": sz["billiard_samples"], "n_max": 40,
                "holes": [{"kind": "arc", "scatterer": 0, "arc_center": 1.0,
                           "arc_halfwidth": ARC_HALFWIDTHS[2]}]}},
        }
        self.config_paths = {}
        cfg_dir = self.workdir / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        for name, cfg in configs.items():
            path = cfg_dir / f"{name}.json"
            path.write_text(json.dumps(cfg, indent=1))
            self.config_paths[name] = path
        self.npass = 0

    def _main(self, command, argv):
        out = io.StringIO()
        with self.tracer.span(f"cli.command.{command}"), \
                contextlib.redirect_stdout(out):
            code = C.main([command] + argv)
        return code, out.getvalue()

    def _run(self, checks, command, cfg_name, out):
        code, _ = self._main(command, ["--config",
                                       str(self.config_paths[cfg_name]),
                                       "--out-dir", str(out)])
        checks.check(f"{cfg_name} exit code", code == 0, f"exit {code}")
        path = out / "summary.json"
        return json.loads(path.read_text()) if path.exists() else {}

    def run_pass(self, checks):
        refs = self.refs
        base = self.workdir / f"pass-{self.npass}"
        self.npass += 1
        fp = []

        golden = self._run(checks, "verify", "verify_golden",
                           base / "verify_golden")
        five = self._run(checks, "verify", "verify_5adic",
                         base / "verify_5adic")
        five_ref = sft_rate(5, 3, FIVE_ADIC_WORDS)
        for label, s, ref in (("golden", golden, refs["golden_rho"]),
                              ("5-adic", five, five_ref)):
            esc = s.get("escape", {})
            checks.close(f"{label} words rho",
                         esc.get("words", {}).get("rho", math.nan), ref,
                         1e-12)
            checks.close(f"{label} grid rho",
                         esc.get("grid", {}).get("rho", math.nan), ref, 1e-6)
            mc = esc.get("mc", {})
            checks.close(f"{label} mc rho", mc.get("rho", math.nan), ref,
                         MC_SIGMAS * mc.get("stderr", 0.0))
            checks.check(f"{label} |log r - rho|",
                         s.get("log_eigenvalue_vs_rho", math.inf) < 1e-9,
                         f"{s.get('log_eigenvalue_vs_rho')}")
            verdict = s.get("verdict") or {}
            checks.check(f"{label} verdict",
                         verdict.get("inequality") == "PASS" and
                         (verdict.get("equality") or {}).get("status")
                         == "PASS", f"{verdict}")
            fp.append(mc.get("rho"))
        checks.close("golden r", golden.get("ulam", {}).get(
            "spectral", {}).get("eigenvalue", math.nan), refs["golden_r"],
            1e-12)

        ulam = self._run(checks, "ulam", "ulam", base / "ulam")
        spec = ulam.get("ulam", {}).get("spectral", {})
        fp.append(spec.get("eigenvalue"))

        sweep = self._run(checks, "escape", "escape", base / "escape")
        rows = sweep.get("sweep", [])
        rhos = [row["rho"] for row in rows]
        checks.check("sweep rows", len(rows) == len(SWEEP_WORDS), f"{rows}")
        for words, rho in zip(SWEEP_WORDS, rhos):
            checks.close(f"sweep {words} grid rho", rho,
                         sft_rate(2, 3, words), 1e-6)
        checks.check("sweep strictly monotone", _monotone_strict(rhos),
                     f"{rhos}")

        tower = self._run(checks, "tower", "tower", base / "tower")
        tw = tower.get("tower", {})
        checks.close("tower root", tw.get("eigenvalue", math.nan),
                     refs["tower_root"], 1e-12)
        checks.close("tower Gurevich pressure",
                     tw.get("gurevich_max_abs", math.nan), 0.0, 1e-9)
        checks.close("tower Abramov gap",
                     tw.get("abramov", {}).get("gap", math.nan), 0.0, 1e-12)

        press = self._run(checks, "pressure", "pressure", base / "pressure")
        checks.close("triadic words rho", press.get("escape", {}).get(
            "words", {}).get("rho", math.nan), refs["triadic_rho"], 1e-12)
        checks.close("triadic pressure", press.get("pressure", {}).get(
            "value", math.nan), refs["triadic_rho"], 1e-10)

        balls = self._run(checks, "balls", "balls", base / "balls")
        for row in balls.get("balls", {}).get("results", []):
            checks.check("cat ball slope <= lambda + 0.1",
                         row["slope"] <= refs["cat_lambda"] + 0.1,
                         f"{row['center']}: slope {row['slope']}")
            fp.append(row["slope"])

        bil = self._run(checks, "billiard", "billiard", base / "billiard")
        for est in bil.get("billiard", {}).get("holes", [{}]):
            checks.close("cli billiard arc rho", est.get("rho", math.nan),
                         refs["billiard_arc_rho"][2],
                         BILLIARD_SIGMAS * est.get("stderr", 0.0)
                         + BILLIARD_ROUNDING)
            fp.append(est.get("rho"))

        code, text = self._main("compare", [str(base / "verify_golden"),
                                            str(base / "verify_5adic")])
        checks.check("compare exit code", code == 0, f"exit {code}")
        lines = text.strip().splitlines()
        header = lines[0].split(",") if lines else []
        ok = len(lines) == 4 and "rho_words" in header
        if ok:
            col = header.index("rho_words")
            got = [float(line.split(",")[col]) for line in lines[1:3]]
            want = [s["escape"]["words"]["rho"] for s in (golden, five)]
            ok = got == want
        checks.check("compare table", ok, text)

        self.output_bytes = _tree_bytes(base)
        shutil.rmtree(base, ignore_errors=True)
        return tuple(fp)


WORKLOADS = {
    "billiard": BilliardWorkload,
    "zoo": ZooWorkload,
    "cli": CliWorkload,
}

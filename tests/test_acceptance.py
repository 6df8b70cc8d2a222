"""End-to-end acceptance suite.

Each test exercises one numbered criterion at its stated tolerance and
runtime budget and records a one-line PASS/FAIL verdict (printed in the
terminal summary).  Tolerances are never loosened here; every reference
value is either closed-form or derived from an independent exact route.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_criterion
from openrates import dynballs as db
from openrates import escape as E
from openrates import pressure as P
from openrates import tower as T
from openrates import ulam as U
from openrates.systems import (OpenSystem, adic_map, ball_hole_2d, baker_map,
                               cat_map, cylinder_union_hole, doubling_map,
                               empty_hole, parry_chain,
                               sample_survivor_points, survival_time)

PHI = (1 + math.sqrt(5)) / 2
R_GOLDEN = PHI / 2                      # leading eigenvalue, golden benchmark
RHO_GOLDEN = math.log(PHI / 2)
LAMBDA_CAT = math.log((3 + math.sqrt(5)) / 2)


def _golden():
    return OpenSystem(doubling_map(), cylinder_union_hole(2, 2, [(1, 1)]))


def _triadic():
    return OpenSystem(adic_map(3), cylinder_union_hole(3, 1, [(1,)]))


# ---------------------------------------------------------------------------
# criterion 1: golden-mean benchmark

def test_criterion_1_golden_mean_benchmark():
    t0 = time.perf_counter()
    sys_obj = _golden()

    r_ulam = U.leading_eigenpair(U.build_ulam(sys_obj, 16)).eigenvalue
    r_tower = T.tower_eigenvalue(T.golden_mean_tower())
    assert abs(r_ulam - R_GOLDEN) < 1e-9
    assert abs(r_tower - R_GOLDEN) < 1e-9
    assert abs(r_ulam - r_tower) < 1e-9

    grid = E.escape_rate_grid(sys_obj, 40, resolution=16)
    words = E.escape_rate_words(sys_obj, 2)
    assert abs(grid.rho - RHO_GOLDEN) < 1e-6
    assert abs(words.rho - RHO_GOLDEN) < 1e-6
    mc = E.escape_rate_mc(sys_obj, E.lebesgue_sampler(1), 30, 1_000_000,
                          seed=101)
    assert abs(mc.rho - RHO_GOLDEN) < 0.01

    states, Pm, pi = parry_chain(sys_obj, 2)
    nu_hat = P.InvariantMeasureRep(kind="markov_chain", name="nu_hat",
                                   transition=Pm, stationary=pi,
                                   lyapunov_exact=math.log(2), is_nu_hat=True)
    reports, verdict = P.variational_report(sys_obj, [nu_hat], words,
                                            check_classes=False)
    p_nu = reports[0].pressure
    assert abs(p_nu - RHO_GOLDEN) < 1e-6
    assert verdict["equality"]["status"] == "PASS"
    assert verdict["equality"]["gap"] < 1e-4

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    record_criterion(
        1, "golden-mean benchmark", True,
        f"r_err={abs(r_ulam - R_GOLDEN):.1e}, "
        f"rho_err={abs(words.rho - RHO_GOLDEN):.1e}, "
        f"mc_err={abs(mc.rho - RHO_GOLDEN):.1e}, "
        f"gap={verdict['equality']['gap']:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: triadic middle-third hole

def test_criterion_2_triadic_exact():
    t0 = time.perf_counter()
    sys_obj = _triadic()

    grid = E.escape_rate_grid(sys_obj, 30, resolution=27)
    rho_exact = math.log(2.0 / 3.0)
    assert abs(grid.rho - rho_exact) < 1e-13

    r = U.leading_eigenpair(U.build_ulam(sys_obj, 27)).eigenvalue
    assert abs(r - 2.0 / 3.0) < 1e-12

    states, Pm, pi = parry_chain(sys_obj, 1)
    nu_hat = P.InvariantMeasureRep(kind="markov_chain", name="nu_hat",
                                   transition=Pm, stationary=pi,
                                   lyapunov_exact=math.log(3), is_nu_hat=True)
    rp = P.pressure_report(sys_obj, nu_hat, grid, check_classes=False)
    assert abs(rp.pressure - (math.log(2) - math.log(3))) < 1e-12
    assert rp.gap < 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    record_criterion(
        2, "triadic middle-third hole", True,
        f"rho_err={abs(grid.rho - rho_exact):.1e}, gap={rp.gap:.1e}, "
        f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: tower suite

def test_criterion_3_tower_suite():
    t0 = time.perf_counter()
    gm = T.golden_mean_tower()

    r = T.tower_eigenvalue(gm)
    assert abs(r - (1 + math.sqrt(5)) / 4) < 1e-14

    pi, _ = T.gibbs_chain(gm, r)
    assert abs(pi[0] - 0.618033988749895) < 1e-6
    assert abs(pi[1] - 0.381966011250105) < 1e-6

    seq = T.gurevich_pressure(gm, r, n_max=20)
    gur = max(abs(p) for _, p in seq)
    assert gur < 1e-10

    rec = T.abramov_check(gm, r)
    assert abs(rec["h_tower"] - math.log(PHI)) < 1e-9
    assert abs(rec["lambda_tower"] - math.log(2)) < 1e-9
    assert abs((rec["h_tower"] - rec["lambda_tower"]) - math.log(r)) < 1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    record_criterion(
        3, "tower suite", True,
        f"root_err={abs(r - (1 + math.sqrt(5)) / 4):.1e}, "
        f"gurevich={gur:.1e}, abramov_gap={rec['gap']:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: variational inequality over the model zoo

def _biased_iid_chain(weights):
    w = np.asarray(weights, dtype=float)
    Pm = np.tile(w, (len(w), 1))
    return Pm, w


def _point_mass_rep(name, orbit, lam):
    return P.InvariantMeasureRep(kind="empirical", name=name,
                                 samples=np.asarray(orbit, dtype=float),
                                 entropy_exact=0.0, lyapunov_exact=lam)


def _survivor_cloud(sys_obj, target, n_fwd, n_cond, rng):
    """Approximate survivor-measure sample: evolve a uniform cloud forward
    and keep the positions whose orbits also survive n_cond further steps."""
    cur = rng.random((target * 3, sys_obj.dimension)).squeeze()
    cur = cur[~sys_obj.hole.in_hole_many(cur)]
    for _ in range(n_fwd):
        cur = sys_obj.map.step_many(cur)
        cur = cur[~sys_obj.hole.in_hole_many(cur)]
    base = cur
    fut = cur
    keep = np.ones(len(cur), dtype=bool)
    for _ in range(n_cond):
        fut = sys_obj.map.step_many(fut)
        keep &= ~sys_obj.hole.in_hole_many(fut)
    return base[keep]


def test_criterion_4_variational_inequality_zoo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    summary = []

    # --- 1D Markov systems: exact escape rates and exact candidates
    golden = _golden()
    s, Pm, pi = parry_chain(golden, 2)
    A = (Pm > 0).astype(float)
    eq = A / A.sum(axis=1, keepdims=True)
    cases_1d = [
        ("golden", golden, E.escape_rate_words(golden, 2), math.log(2), [
            P.InvariantMeasureRep(kind="markov_chain", name="nu_hat",
                                  transition=Pm, stationary=pi,
                                  lyapunov_exact=math.log(2), is_nu_hat=True),
            _point_mass_rep("fixed_point_0", [0.0], math.log(2)),
            P.InvariantMeasureRep(kind="markov_chain", name="equal_weights",
                                  transition=eq,
                                  lyapunov_exact=math.log(2)),
        ]),
    ]
    for label, m, hole_words, lam in [
            ("triadic", 3, [(1,)], math.log(3)),
            ("5-adic", 5, [(2,)], math.log(5))]:
        sys_obj = OpenSystem(adic_map(m), cylinder_union_hole(m, 1,
                                                              hole_words))
        est = E.escape_rate_words(sys_obj, 1)
        s, Pm, pi = parry_chain(sys_obj, 1)
        k = Pm.shape[0]
        bias = np.arange(k, 0, -1, dtype=float)
        Pb, pb = _biased_iid_chain(bias / bias.sum())
        cases_1d.append((label, sys_obj, est, lam, [
            P.InvariantMeasureRep(kind="markov_chain", name="nu_hat",
                                  transition=Pm, stationary=pi,
                                  lyapunov_exact=lam, is_nu_hat=True),
            _point_mass_rep("fixed_point_0", [0.0], lam),
            P.InvariantMeasureRep(kind="markov_chain", name="biased_iid",
                                  transition=Pb, stationary=pb,
                                  lyapunov_exact=lam),
        ]))

    violations = 0
    for label, sys_obj, est, lam, candidates in cases_1d:
        # periodic candidates must genuinely live on the survivor set
        assert survival_time(sys_obj, 0.0, 200) == float("inf")
        reports, verdict = P.variational_report(sys_obj, candidates, est,
                                                check_classes=False, rng=rng)
        violations += len(verdict["violations"])
        summary.append(f"{label}:{verdict['inequality']}")
        assert verdict["inequality"] == "PASS"

    # --- 2D hyperbolic systems: Monte Carlo escape, sampled nu_hat
    cases_2d = [
        ("cat", OpenSystem(cat_map(), ball_hole_2d((0.25, 0.75), 0.1)),
         LAMBDA_CAT,
         [np.array([[0.0, 0.0]]),
          np.array([[0.5, 0.5], [0.5, 0.0], [0.0, 0.5]])]),
        ("baker", OpenSystem(baker_map(), ball_hole_2d((0.25, 0.75), 0.1)),
         math.log(2),
         [np.array([[0.0, 0.0]]),
          np.array([[1 / 3, 2 / 3], [2 / 3, 1 / 3]])]),
    ]
    for label, sys_obj, lam, orbits in cases_2d:
        for orbit in orbits:
            for x in orbit:
                # float orbits of non-dyadic periodic points drift off the
                # true orbit after ~52 doublings; check below that horizon
                assert survival_time(sys_obj, x, 40) == float("inf"), \
                    f"{label} periodic candidate enters the hole"
        est = E.escape_rate_mc(sys_obj, E.lebesgue_sampler(2), 25, 200_000,
                               seed=13)
        cloud = _survivor_cloud(sys_obj, 200_000, 10, 10, rng)
        candidates = [
            P.InvariantMeasureRep(kind="empirical", name="nu_hat_sampled",
                                  samples=cloud, lyapunov_exact=lam),
            _point_mass_rep("fixed_point", orbits[0], lam),
            _point_mass_rep("periodic_orbit", orbits[1], lam),
        ]
        reports, verdict = P.variational_report(
            sys_obj, candidates, est, check_classes=False, rng=rng,
            bk_kwargs=dict(eps_list=(0.15, 0.1), n_max=8, centers=40))
        violations += len(verdict["violations"])
        summary.append(f"{label}:{verdict['inequality']}")
        assert verdict["inequality"] == "PASS"

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    record_criterion(
        4, "variational inequality over the zoo", violations == 0,
        f"{'; '.join(summary)}; violations={violations}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: dynamical-ball estimator suite

def test_criterion_5_ball_estimators():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)

    # ball-measure slopes never exceed lambda+ + 0.1 (100 centers per map)
    closed_1d = OpenSystem(doubling_map(), empty_hole(1))
    worst_1d = -math.inf
    for c in rng.uniform(0.01, 0.99, 100):
        slope, _ = db.ball_slope(closed_1d, float(c), 0.1, [4, 6, 8],
                                 samples=4_000)
        worst_1d = max(worst_1d, slope)
    assert worst_1d <= math.log(2) + 0.1

    closed_cat = OpenSystem(cat_map(), empty_hole(2))
    worst_2d = -math.inf
    for c in rng.random((100, 2)):
        slope, _ = db.ball_slope(closed_cat, c, 0.1, [3, 5, 7],
                                 samples=20_000, rng=rng)
        worst_2d = max(worst_2d, slope)
    assert worst_2d <= LAMBDA_CAT + 0.1

    # Brin-Katok entropy of the golden-mean survivor measure
    golden = _golden()
    samples = sample_survivor_points(golden, 2, 30_000, rng)
    h, se, _ = P.entropy_brin_katok(golden, samples, eps_list=(0.1, 0.05),
                                    n_max=10, centers=60, rng=rng)
    assert abs(h - 0.4812) < 0.05

    # triangle inequality of the dynamical quasi-metric: 1e6 triples
    def sd(x):
        return min(x, 1 - x, abs(x - 0.5))

    tri = db.triangle_check(sd, 1_000_000, 0.05)
    assert tri["violations"] == 0
    assert tri["proof_violations"] == 0

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    record_criterion(
        5, "ball-measure / local-entropy estimators", True,
        f"max_slope_1d={worst_1d:.4f}<= {math.log(2) + 0.1:.4f}, "
        f"max_slope_2d={worst_2d:.4f}<={LAMBDA_CAT + 0.1:.4f}, "
        f"h_BK={h:.4f} (target 0.4812+-0.05), triangle_violations=0, "
        f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: billiard property suite

@pytest.mark.slow
def test_criterion_6_billiard_properties():
    from openrates import billiard as B

    t0 = time.perf_counter()
    table = B.build_table(validation_rays=1_000_000)
    assert table.tau_max < 1.5

    pval, chi2, _, _ = B.theta_chi2(table, 1_000_000, seed=6)
    assert pval > 0.01

    rev = max(B.reversibility_error(table, B.CollisionState(sid, phi, th),
                                    n=10)
              for sid, phi, th in [(0, 0.3, 0.2), (1, 2.1, -0.7),
                                   (0, 4.0, 1.1), (1, 5.5, 0.9)])
    assert rev < 1e-9

    arcs = B.nested_arc_holes(table, 0, 1.0, [0.04, 0.08, 0.16, 0.32])
    disks = B.nested_disk_holes(table, (0.5, 0.0), [0.01, 0.02, 0.03, 0.04])
    ests = B.billiard_escape_multi(table, list(arcs) + list(disks),
                                   samples=10_000_000, n_max=30, seed=2024)
    arc_rhos = [e.rho for e in ests[:4]]
    disk_rhos = [e.rho for e in ests[4:]]

    # hole monotonicity, pathwise exact on shared trajectories
    assert all(r < 0 for r in arc_rhos + disk_rhos)
    assert arc_rhos[0] > arc_rhos[1] > arc_rhos[2] > arc_rhos[3]
    assert disk_rhos[0] > disk_rhos[1] > disk_rhos[2] > disk_rhos[3]
    # rho -> 0 along the shrinking sweeps
    assert arc_rhos[0] > arc_rhos[3] / 4
    assert disk_rhos[0] > disk_rhos[3] / 2
    residuals = [e.meta["fit_residual"] for e in ests]
    assert all(math.isfinite(r) for r in residuals)

    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    record_criterion(
        6, "billiard property suite", True,
        f"tau_max={table.tau_max:.4f}, chi2_p={pval:.3f}, "
        f"reversibility={rev:.1e}, arc_rhos={[round(r, 4) for r in arc_rhos]},"
        f" disk_rhos={[round(r, 4) for r in disk_rhos]}, "
        f"max_fit_residual={max(residuals):.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7: determinism

def test_criterion_7_determinism():
    from openrates import billiard as B

    t0 = time.perf_counter()
    golden = _golden()
    notes = []

    # deterministic routes: rerun and require exact float equality
    w1 = E.escape_rate_words(golden, 2)
    w2 = E.escape_rate_words(golden, 2)
    assert w1.rho == w2.rho and w1.per_n_mass == w2.per_n_mass
    u1 = U.leading_eigenpair(U.build_ulam(golden, 16)).eigenvalue
    u2 = U.leading_eigenpair(U.build_ulam(golden, 16)).eigenvalue
    assert u1 == u2
    assert T.tower_eigenvalue(T.golden_mean_tower()) == \
        T.tower_eigenvalue(T.golden_mean_tower())
    notes.append("exact routes: bit-identical")

    # Monte Carlo escape: fixed seed
    kw = dict(n_max=20, samples=50_000, seed=9)
    a = E.escape_rate_mc(golden, E.lebesgue_sampler(1), **kw)
    b = E.escape_rate_mc(golden, E.lebesgue_sampler(1), **kw)
    assert a.rho == b.rho
    assert a.per_n_mass == b.per_n_mass
    notes.append("mc escape: identical across reruns")

    # billiard kernel: identical shard reduction on rerun
    t1 = B.build_table(validation_rays=50_000)
    t2 = B.build_table(validation_rays=50_000)
    assert t1.tau_max == t2.tau_max
    hole = B.BilliardHole("arc", scatterer=0, arc_center=1.0,
                          arc_halfwidth=0.15)
    e1 = B.billiard_escape_multi(t1, [hole], 60_000, 10, seed=7)[0]
    e2 = B.billiard_escape_multi(t1, [hole], 60_000, 10, seed=7)[0]
    assert e1.rho == e2.rho and e1.per_n_mass == e2.per_n_mass
    notes.append("billiard: identical across reruns")

    elapsed = time.perf_counter() - t0
    record_criterion(7, "determinism under fixed seeds", True,
                     "; ".join(notes) + f", {elapsed:.1f}s")

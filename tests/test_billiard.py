import math

import numpy as np
import pytest

from openrates import billiard as B


def test_overlapping_scatterers_rejected():
    with pytest.raises(B.TableGeometryError):
        B.build_table((((0.0, 0.0), 0.45), ((0.5, 0.5), 0.35)),
                      validation_rays=0)


def test_sparse_table_has_infinite_horizon():
    with pytest.raises(B.InfiniteHorizonError):
        B.build_table((((0.5, 0.5), 0.1),), validation_rays=20_000)


def test_tau_max_below_bound(small_table):
    assert 0 < small_table.tau_max < 1.5


def test_diameter_period_two_orbit(small_table):
    # bounce along the diagonal between the two scatterers
    s0 = B.CollisionState(0, math.pi / 4, 0.0)
    s1, rec = B.collision_map(small_table, s0)
    assert s1.scatterer == 1
    gap = math.sqrt(0.5) - 0.45 - 0.15
    assert rec.length == pytest.approx(gap, abs=1e-12)
    assert abs(s1.theta) < 1e-12
    s2, _ = B.collision_map(small_table, s1)
    assert s2.scatterer == 0
    assert s2.phi % (2 * math.pi) == pytest.approx(math.pi / 4, abs=1e-12)


def test_reversibility_certificate(small_table):
    for sid, phi, theta in [(0, 0.3, 0.2), (1, 2.1, -0.7), (0, 4.0, 1.1)]:
        err = B.reversibility_error(small_table,
                                    B.CollisionState(sid, phi, theta), n=10)
        assert err < 1e-9


def test_theta_distribution_stationary(small_table):
    p, chi2, obs, exp = B.theta_chi2(small_table, 200_000, seed=3)
    assert p > 0.01
    assert obs.sum() == pytest.approx(exp.sum())


def test_hole_validation_errors(small_table):
    with pytest.raises(ValueError, match="missing scatterer"):
        B.BilliardHole("arc", scatterer=7, arc_halfwidth=0.1).validate(
            small_table)
    with pytest.raises(ValueError, match="halfwidth"):
        B.BilliardHole("arc", scatterer=0, arc_halfwidth=4.0).validate(
            small_table)
    with pytest.raises(ValueError, match="scatterer"):
        B.BilliardHole("disk", center=(0.5, 0.0), radius=0.2).validate(
            small_table)
    with pytest.raises(ValueError, match="unknown hole kind"):
        B.BilliardHole("wedge").validate(small_table)


def test_arc_measure_fraction(small_table):
    h = B.BilliardHole("arc", scatterer=0, arc_center=1.0,
                       arc_halfwidth=0.06)
    frac = h.arc_measure_fraction(small_table)
    assert frac == pytest.approx(0.12 * 0.45 / (2 * math.pi * 0.6), abs=1e-15)


def test_segment_distance_matches_bruteforce(rng):
    start = rng.uniform(-0.4, 1.4, (50, 2))
    ang = rng.uniform(0, 2 * math.pi, 50)
    direction = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    length = rng.uniform(0.05, 1.3, 50)
    center = np.array([0.25, 0.75])
    got = B._segment_center_distance(start, direction, length, center)
    copies = B._disk_copy_centers(center)
    for i in range(50):
        best = math.inf
        for c in copies:
            ts = np.linspace(0.0, length[i], 4001)
            pts = start[i] + ts[:, None] * direction[i]
            best = min(best, float(np.min(np.linalg.norm(pts - c, axis=1))))
        assert got[i] == pytest.approx(best, abs=1e-3)


def test_empty_hole_never_escapes(small_table):
    est = B.billiard_escape(small_table, B.BilliardHole("empty"),
                            samples=5_000, n_max=8, seed=2)
    assert est.rho == pytest.approx(0.0, abs=1e-12)
    assert est.per_n_mass[-1][1] > 0.99


def test_nested_arc_holes_monotone(small_table):
    holes = B.nested_arc_holes(small_table, 0, 1.0, [0.05, 0.1, 0.2])
    ests = B.billiard_escape_multi(small_table, holes, samples=60_000,
                                   n_max=12, seed=4)
    rhos = [e.rho for e in ests]
    assert all(r < 0 for r in rhos)
    # shared trajectories make the ordering pathwise exact
    assert rhos[0] > rhos[1] > rhos[2]


def test_nested_disk_holes_monotone(small_table):
    holes = B.nested_disk_holes(small_table, (0.5, 0.0), [0.02, 0.04])
    ests = B.billiard_escape_multi(small_table, holes, samples=60_000,
                                   n_max=12, seed=4)
    assert ests[0].rho > ests[1].rho
    assert all(e.rho < 0 for e in ests)


def test_escape_deterministic(small_table):
    hole = B.BilliardHole("arc", scatterer=0, arc_center=0.5,
                          arc_halfwidth=0.1)
    a = B.billiard_escape(small_table, hole, 30_000, 10, seed=7)
    b = B.billiard_escape(small_table, hole, 30_000, 10, seed=7)
    assert a.rho == b.rho
    assert a.per_n_mass == b.per_n_mass


def test_insufficient_survivors(small_table):
    hole = B.BilliardHole("arc", scatterer=0, arc_center=0.5,
                          arc_halfwidth=2.5)
    with pytest.raises(B.InsufficientSurvivorsError):
        B.billiard_escape(small_table, hole, 2_000, 20, seed=1)


def test_arc_rho_tracks_hole_mass(small_table):
    # small holes: rho close to log(1 - stationary fraction)
    hole = B.BilliardHole("arc", scatterer=0, arc_center=1.0,
                          arc_halfwidth=0.25)
    est = B.billiard_escape(small_table, hole, 120_000, 12, seed=11)
    crude = math.log(1 - hole.arc_measure_fraction(small_table))
    assert est.rho == pytest.approx(crude, abs=0.02)

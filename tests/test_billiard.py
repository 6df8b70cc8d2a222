import math

import numpy as np
import pytest

from openrates import billiard as B
from openrates.escape import sharded_mc_estimates


def test_overlapping_scatterers_rejected():
    with pytest.raises(B.TableGeometryError):
        B.build_table((((0.0, 0.0), 0.45), ((0.5, 0.5), 0.35)),
                      validation_rays=0)


def test_sparse_table_has_infinite_horizon():
    with pytest.raises(B.InfiniteHorizonError):
        B.build_table((((0.5, 0.5), 0.1),), validation_rays=20_000)


def test_table_needs_a_validation_ray():
    # with no flight, tau_max read 0.0, below every flight
    with pytest.raises(ValueError, match="validation_rays"):
        B.build_table(validation_rays=0)


def test_tau_max_below_bound(small_table):
    assert 0 < small_table.tau_max < 1.5


def test_diameter_period_two_orbit(small_table):
    # bounce along the diagonal between the two scatterers
    sid1, phi1, theta1, t, _, _, grazing, _ = B._step_arrays(
        small_table, np.array([0]), np.array([math.pi / 4]), np.array([0.0]))
    assert sid1[0] == 1 and not grazing[0]
    gap = math.sqrt(0.5) - 0.45 - 0.15
    assert t[0] == pytest.approx(gap, abs=1e-12)
    assert abs(theta1[0]) < 1e-12
    sid2, phi2, _, _, _, _, _, _ = B._step_arrays(small_table, sid1, phi1,
                                                  theta1)
    assert sid2[0] == 0
    assert phi2[0] % (2 * math.pi) == pytest.approx(math.pi / 4, abs=1e-12)


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
    copies = B._disk_copy_centers(np.array([0.25, 0.75]))
    got = B._segment_center_distance(start, direction, length, copies)
    for i in range(50):
        best = math.inf
        for c in copies:
            ts = np.linspace(0.0, length[i], 4001)
            pts = start[i] + ts[:, None] * direction[i]
            best = min(best, float(np.min(np.linalg.norm(pts - c, axis=1))))
        assert got[i] == pytest.approx(best, abs=1e-3)


def test_empty_hole_never_escapes(small_table):
    est = B.billiard_escape_multi(small_table, [B.BilliardHole("empty")],
                                  samples=5_000, n_max=8, seed=2)[0]
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
    a = B.billiard_escape_multi(small_table, [hole], 30_000, 10, seed=7)[0]
    b = B.billiard_escape_multi(small_table, [hole], 30_000, 10, seed=7)[0]
    assert a.rho == b.rho
    assert a.per_n_mass == b.per_n_mass


def test_insufficient_survivors(small_table):
    hole = B.BilliardHole("arc", scatterer=0, arc_center=0.5,
                          arc_halfwidth=2.5)
    with pytest.raises(B.InsufficientSurvivorsError):
        B.billiard_escape_multi(small_table, [hole], 2_000, 20, seed=1)


def test_arc_rho_tracks_hole_mass(small_table):
    # small holes: rho close to log(1 - stationary fraction)
    hole = B.BilliardHole("arc", scatterer=0, arc_center=1.0,
                          arc_halfwidth=0.25)
    est = B.billiard_escape_multi(small_table, [hole], 120_000, 12,
                                  seed=11)[0]
    crude = math.log(1 - hole.arc_measure_fraction(small_table))
    assert est.rho == pytest.approx(crude, abs=0.02)


def _edge_states(table):
    """States whose flight angle lies within 1e-6 of every sector edge and
    of every edge of a copy's cone, with and without the margin, over a
    spread of reflection angles up to grazing."""
    sid, ang = [], []
    for s, (c, r) in enumerate(zip(table.centers, table.radii)):
        edges = list(np.arange(B._SECTORS) * 2 * math.pi / B._SECTORS)
        rel = table.copy_centers - c
        d = np.hypot(rel[:, 0], rel[:, 1])
        far = d > 0
        beta = np.arctan2(rel[far, 1], rel[far, 0])
        half = np.arcsin((r + table.copy_radii[far]) / d[far])
        for h in (half, half + B._CONE_MARGIN):
            edges += list(beta - h) + list(beta + h)
        for e in edges:
            for delta in (-1e-6, 0.0, 1e-6):
                sid.append(s)
                ang.append(e + delta)
    # near +-pi/2 the flight runs along a common tangent of the source and
    # the copy at a cone edge
    graze = math.pi / 2 - np.array([1e-5, 1e-3])
    theta = np.concatenate([-graze, np.linspace(-1.5, 1.5, 13), graze])
    sid = np.repeat(sid, len(theta))
    phi = np.repeat(ang, len(theta)) - np.tile(theta, len(ang))
    return sid, phi, np.tile(theta, len(ang))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sector_search_matches_all_copies(small_table, dtype):
    table = small_table
    stationary = B.sample_srb(table, 100_000, np.random.default_rng(5))
    edge = _edge_states(table)
    assert len(edge[0]) > 10_000
    for sid, phi, theta in (stationary, edge):
        phi, theta = phi.astype(dtype), theta.astype(dtype)
        p, v = B._states_to_rays(table, sid, phi, theta)
        t_all, hit_all = B._next_collision(
            table, p, v, np.arange(len(table.copy_centers)))
        # the step function groups the rays by (scatterer, sector) itself
        sid2, _, _, t, _, _, _, (order, bounds) = B._step_arrays(
            table, sid, phi, theta)
        assert np.array_equal(t, t_all)
        assert np.array_equal(sid2, table.copy_sid[hit_all])
        for key, copies in enumerate(table.sector_copies):
            rows = order[bounds[key]:bounds[key + 1]]
            assert np.all(sid[rows] == key // B._SECTORS)
            t_key, hit = B._next_collision(table, p[rows], v[rows], copies)
            assert np.array_equal(t_key, t_all[rows])
            assert np.array_equal(hit, hit_all[rows])
    # of the 50 copies in the window, 33 are reachable from the large
    # scatterer and 21 from the small one; a sector keeps 10 and 6
    assert [len(c) for c in table.sector_copies] == [10] * 8 + [6] * 8
    for s in range(2):
        own = np.flatnonzero((table.copy_sid == s)
                             & np.all(table.copy_centers
                                      == table.centers[s], axis=1))
        for copies in table.sector_copies[s * B._SECTORS:
                                          (s + 1) * B._SECTORS]:
            assert np.all(np.diff(copies) > 0) and own[0] not in copies


def _collision_step_mp_all_copies(table, sid, phi, theta):
    """``_collision_step_mp`` with the search over every copy."""
    from mpmath import mp

    r0 = mp.mpf(float(table.radii[sid]))
    cx, cy = (mp.mpf(float(c)) for c in table.centers[sid])
    px, py = cx + r0 * mp.cos(phi), cy + r0 * mp.sin(phi)
    vx, vy = mp.cos(phi + theta), mp.sin(phi + theta)
    best = None
    for k in range(len(table.copy_centers)):
        cc, rr = table.copy_centers[k], table.copy_radii[k]
        qx, qy = px - mp.mpf(float(cc[0])), py - mp.mpf(float(cc[1]))
        b = qx * vx + qy * vy
        disc = b * b - (qx * qx + qy * qy - mp.mpf(float(rr)) ** 2)
        if disc <= 0:
            continue
        t = -b - mp.sqrt(disc)
        if t > mp.mpf("1e-30") and (best is None or t < best[0]):
            best = (t, int(table.copy_sid[k]), cc, float(rr))
    t, hid, cc, rr = best
    nx = (px + t * vx - mp.mpf(float(cc[0]))) / mp.mpf(rr)
    ny = (py + t * vy - mp.mpf(float(cc[1]))) / mp.mpf(rr)
    vn = vx * nx + vy * ny
    wx, wy = vx - 2 * vn * nx, vy - 2 * vn * ny
    return hid, mp.atan2(ny, nx), mp.atan2(nx * wy - ny * wx,
                                           wx * nx + wy * ny)


def test_mp_sector_step_matches_all_copies(small_table):
    from mpmath import mp

    sid, phi, theta = B.sample_srb(small_table, 100,
                                   np.random.default_rng(9))
    states = [(0, 0.3, 0.2), (1, 2.1, -0.7), (0, 4.0, 1.1), (1, 5.5, 0.9)]
    states += list(zip(sid.tolist(), phi.tolist(), theta.tolist()))
    with mp.workdps(50):
        for s, ph, th in states:
            ph, th = mp.mpf(ph), mp.mpf(th)
            assert B._collision_step_mp(small_table, s, ph, th) == \
                _collision_step_mp_all_copies(small_table, s, ph, th)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_culled_disk_copies_keep_verdicts(small_table, dtype):
    radii = [0.01, 0.02, 0.03, 0.04]
    (family,) = B._hole_families(
        small_table, B.nested_disk_holes(small_table, (0.5, 0.0), radii))
    _, per_sector, _ = family
    # 12 and 8 copies per source scatterer, fewer per direction sector
    assert [len(c) for c in per_sector] == [4, 3, 3, 4, 4, 3, 3, 4,
                                            1, 2, 2, 1, 1, 2, 2, 1]
    everywhere = B._disk_copy_centers(np.array([0.5, 0.0]))
    assert len(everywhere) == 23
    sid, phi, theta = B.sample_srb(small_table, 100_000,
                                   np.random.default_rng(6))
    _, _, _, t, start, direction, _, (order, bounds) = B._step_arrays(
        small_table, sid, phi.astype(dtype), theta.astype(dtype))
    d_all = B._segment_center_distance(start, direction, t, everywhere)
    near_total = [0, 0]
    for key, copies in enumerate(per_sector):
        rows = order[bounds[key]:bounds[key + 1]]
        if len(copies) == 0:
            d = np.full(len(rows), np.inf, dtype=d_all.dtype)
        else:
            d = B._segment_center_distance(start[rows], direction[rows],
                                           t[rows], copies)
        for r in radii:
            assert np.array_equal(d < r, d_all[rows] < r)
        # the nearest copy is kept wherever a hole could be hit
        near = d_all[rows] < max(radii)
        near_total[key // B._SECTORS] += np.count_nonzero(near)
        assert np.array_equal(d[near], d_all[rows][near])
    assert min(near_total) > 100


def test_escape_independent_of_worker_count(small_table, monkeypatch):
    holes = B.nested_arc_holes(small_table, 0, 1.0, [0.1, 0.2]) + \
        B.nested_disk_holes(small_table, (0.5, 0.0), [0.02, 0.04])
    pooled = B.billiard_escape_multi(small_table, holes, 20_000, 10, seed=8)
    # one CPU in the affinity mask runs the shards in this process
    monkeypatch.setattr(B.os, "sched_getaffinity", lambda pid: {0})
    serial = B.billiard_escape_multi(small_table, holes, 20_000, 10, seed=8)
    for a, b in zip(pooled, serial):
        assert a.rho == b.rho and a.stderr == b.stderr
        assert a.per_n_mass == b.per_n_mass
        assert a.meta == b.meta


def _per_shard_sweep(table, holes, samples, n_max, seed):
    """``billiard_escape_multi`` as one task per shard, each shard simulated
    in its own pieces of at most _CHUNK trajectories."""
    families = B._hole_families(table, holes)

    def run_shards(seeds, sizes):
        for seed_seq, size in zip(seeds, sizes):
            rng = np.random.default_rng(seed_seq)
            for done in range(0, size, B._CHUNK):
                states = B.sample_srb(table, min(size - done, B._CHUNK),
                                      rng)
                yield B._simulate_chunk(table, families, len(holes), n_max,
                                        *states)

    ests = sharded_mc_estimates(run_shards, samples, seed, n_max,
                                "billiard_mc")
    for hole, est in zip(holes, ests):
        est.meta["hole_kind"] = hole.kind
        est.meta["fit_residual"] = B._exp_fit_residual(est.per_n_mass,
                                                       est.window)
    return ests


@pytest.mark.parametrize("samples, chunk", [
    (1234, None), (20_000, None), (70_000, None),
    # every shard draws three pieces, and batches cut through pieces
    (70_000, 1000)])
def test_batched_sweep_matches_per_shard_loop(small_table, monkeypatch,
                                              samples, chunk):
    if chunk is not None:
        monkeypatch.setattr(B, "_CHUNK", chunk)
    holes = B.nested_arc_holes(small_table, 0, 1.0, [0.1, 0.2]) + \
        B.nested_disk_holes(small_table, (0.5, 0.0), [0.02, 0.04])
    expected = _per_shard_sweep(small_table, holes, samples, 10, seed=8)
    # 1, 2 and 3 workers: 3 splits the 32 shards into runs of 10, 11, 11
    for cpus in (1, 2, 3):
        monkeypatch.setattr(B.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        got = B.billiard_escape_multi(small_table, holes, samples, 10,
                                      seed=8)
        for a, b in zip(got, expected):
            assert a.rho == b.rho and a.stderr == b.stderr
            assert a.per_n_mass == b.per_n_mass
            assert a.meta == b.meta

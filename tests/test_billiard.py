import dataclasses
import math
import os

import numpy as np
import pytest

from conftest import assert_no_children
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
    sid1, phi1, theta1, t, grazing, _ = B._step_arrays(
        small_table, np.array([0]), np.array([math.pi / 4]), np.array([0.0]))
    assert sid1[0] == 1 and not grazing[0]
    gap = math.sqrt(0.5) - 0.45 - 0.15
    assert t[0] == pytest.approx(gap, abs=1e-12)
    assert abs(theta1[0]) < 1e-12
    sid2, phi2, _, _, _, _ = B._step_arrays(small_table, sid1, phi1, theta1)
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


def _scaled_theta_steps(monkeypatch, scale):
    """Make every collision step return its theta times ``scale``: the
    histogram then drifts from the cos law, and p falls with the scale."""
    step = B._step_arrays

    def scaled(table, sid, phi, theta):
        out = list(step(table, sid, phi, theta))
        out[2] = out[2] * scale
        return tuple(out)
    monkeypatch.setattr(B, "_step_arrays", scaled)


@pytest.mark.parametrize("scale", [1.0, 0.98, 0.96, 0.94, 0.91])
def test_theta_chi2_p_value(small_table, monkeypatch, scale):
    # the statistic is scipy's bit for bit; p is Q(23/2, chi2/2), here
    # against a 60-digit value and scipy's chdtrc (whose own error stays
    # below 6e-14 relative down to p ~ 1e-100); the scales reach p < 1e-100
    from mpmath import mp
    from scipy import stats

    _scaled_theta_steps(monkeypatch, scale)
    for seed in (1, 2, 3):
        p, chi2, obs, exp = B.theta_chi2(small_table, 20_000, seed=seed)
        ref = stats.chisquare(obs, exp)
        assert chi2 == ref.statistic
        assert p == pytest.approx(ref.pvalue, rel=6e-14, abs=0)
        with mp.workdps(60):
            assert p == float(mp.gammainc(mp.mpf(23) / 2, mp.mpf(chi2) / 2,
                                          mp.inf, regularized=True))
        assert 0.0 < p <= 1.0
        assert p < 1e-100 or scale > 0.91


def test_theta_chi2_rejects_unbinned_angle(small_table, monkeypatch):
    # a NaN theta falls in no bin; the counts would not sum to the kept
    # angles and the test would compare unlike totals
    step = B._step_arrays

    def one_nan(table, sid, phi, theta):
        out = list(step(table, sid, phi, theta))
        out[2][0] = np.nan
        out[4][0] = False
        return tuple(out)
    monkeypatch.setattr(B, "_step_arrays", one_nan)
    with pytest.raises(ValueError, match="^1 of 1000 kept post-collision "
                       "angles fell outside the theta bins$"):
        B.theta_chi2(small_table, 1000, seed=1)


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


@pytest.mark.parametrize("radius", [0.0, -0.1])
def test_disk_hole_needs_positive_radius(small_table, radius):
    # a disk of radius 0 or below catches no trajectory: rho would read 0
    with pytest.raises(ValueError, match="disk hole radius must be positive"):
        B.BilliardHole("disk", center=(0.5, 0.0), radius=radius).validate(
            small_table)
    with pytest.raises(ValueError, match="disk hole radius must be positive"):
        B.nested_disk_holes(small_table, (0.5, 0.0), [radius, 0.02])


def test_arc_measure_fraction(small_table):
    h = B.BilliardHole("arc", scatterer=0, arc_center=1.0,
                       arc_halfwidth=0.06)
    frac = h.arc_measure_fraction(small_table)
    assert frac == pytest.approx(0.12 * 0.45 / (2 * math.pi * 0.6), abs=1e-15)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_wrap_matches_remainder(rng, dtype):
    # the arc distance's wrapped angle phi - centre + pi, for collision
    # angles in [-pi, 2pi) and centres inside and outside [0, 2pi), plus
    # the edges of the exact range, signed zeros and non-finite values
    two_pi = dtype(2 * math.pi)
    phi = rng.uniform(-math.pi, 2 * math.pi, 20_000).astype(dtype)
    edges = np.array([0.0, -0.0, math.pi, two_pi, -two_pi, 2 * two_pi,
                      -2 * two_pi, 3 * two_pi, -1e-9, -1e-30, 1e-30, 1e30,
                      -1e30, np.inf, -np.inf, np.nan], dtype=dtype)
    edges = np.concatenate([edges, np.nextafter(edges, dtype(np.inf)),
                            np.nextafter(edges, dtype(-np.inf))])
    for centre in (-20.0, -7.0, -1.0, 0.0, 1.3, 6.2, 7.0, 13.0, 100.0):
        x = np.concatenate([phi - centre + math.pi, edges])
        with np.errstate(invalid="ignore"):
            want = np.remainder(x, two_pi)
            got = B._wrap_2pi(x)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert B._wrap_2pi(np.array([], dtype=dtype)).size == 0


def _all_copies(center, span=2):
    """Every periodic copy of ``center`` at offsets -span..span."""
    return np.array([(center[0] + i, center[1] + j)
                     for i in range(-span, span + 1)
                     for j in range(-span, span + 1)])


def test_segment_distance_matches_bruteforce(rng):
    start = rng.uniform(-0.4, 1.4, (50, 2))
    ang = rng.uniform(0, 2 * math.pi, 50)
    direction = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    length = rng.uniform(0.05, 1.3, 50)
    copies = _all_copies((0.25, 0.75))
    got = B._segment_center_distance(start, direction, length,
                                     *_dots(start, direction), copies)
    for i in range(50):
        best = math.inf
        for c in copies:
            ts = np.linspace(0.0, length[i], 4001)
            pts = start[i] + ts[:, None] * direction[i]
            best = min(best, float(np.min(np.linalg.norm(pts - c, axis=1))))
        assert got[i] == pytest.approx(best, abs=1e-3)


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
            table, p, v, *_dots(p, v), np.arange(len(table.copy_centers)))
        # the step function groups the rays by (scatterer, sector) itself
        sid2, _, _, t, _, flights = B._step_arrays(table, sid, phi, theta)
        order, bounds = flights.order, flights.bounds
        assert np.array_equal(t, t_all)
        assert np.array_equal(sid2, table.copy_sid[hit_all])
        for key, copies in enumerate(table.sector_copies):
            rows = order[bounds[key]:bounds[key + 1]]
            assert np.all(sid[rows] == key // B._SECTORS)
            t_key, hit = B._next_collision(table, p[rows], v[rows],
                                           *_dots(p[rows], v[rows]), copies)
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
    everywhere = _all_copies((0.5, 0.0))
    sid, phi, theta = B.sample_srb(small_table, 100_000,
                                   np.random.default_rng(6))
    f = B._step_arrays(small_table, sid, phi.astype(dtype),
                       theta.astype(dtype))[-1]
    d_all = B._segment_center_distance(f.start, f.direction, f.length, f.pv,
                                       f.pp, everywhere)
    near_total = [0, 0]
    for key, copies in enumerate(per_sector):
        # the flights are sorted into runs of one key each
        rows = slice(f.bounds[key], f.bounds[key + 1])
        if len(copies) == 0:
            d = np.full_like(d_all[rows], np.inf)
        else:
            d = B._segment_center_distance(
                f.start[rows], f.direction[rows], f.length[rows], f.pv[rows],
                f.pp[rows], copies)
        for r in radii:
            assert np.array_equal(d < r, d_all[rows] < r)
        # the nearest copy is kept wherever a hole could be hit
        near = d_all[rows] < max(radii)
        near_total[key // B._SECTORS] += np.count_nonzero(near)
        assert np.array_equal(d[near], d_all[rows][near])
    assert min(near_total) > 100


def _reach_reference(table, points, radii):
    """For each key s * _SECTORS + j, the ``points`` (disks of ``radii``)
    that a flight leaving scatterer s in direction sector j can reach, one
    point at a time: the gap between the two boundaries is below
    TAU_BOUND, the point is not the source itself, and its cone of
    directions meets the sector."""
    width = 2 * math.pi / B._SECTORS
    lists = []
    for c, r in zip(table.centers, table.radii):
        for j in range(B._SECTORS):
            keep = []
            for x, pr in zip(points, radii):
                d = math.hypot(x[0] - c[0], x[1] - c[1])
                if d == 0 or d - r - pr >= B.TAU_BOUND:
                    continue
                half = math.asin(min((r + pr) / d, 1.0)) + B._CONE_MARGIN
                beta = math.atan2(x[1] - c[1], x[0] - c[0])
                off = abs((beta - (j + 0.5) * width + math.pi)
                          % (2 * math.pi) - math.pi)
                if off <= half + width / 2:
                    keep.append(x)
            lists.append(np.array(keep).reshape(-1, 2))
    return lists


@pytest.mark.parametrize("scatterers", [
    B.DEFAULT_SCATTERERS, (((0.0, 0.0), 0.4), ((0.5, 0.5), 0.3)),
    (((0.0, 0.0), 0.35), ((0.5, 0.5), 0.3), ((0.0, 0.5), 0.1))])
def test_reach_lists_match_every_copy(scatterers):
    # the reference sees the copies at offsets -3..3: none beyond the
    # -2..2 window is in reach, so that window is enough
    table = B.build_table(scatterers, validation_rays=20_000)
    window = _all_copies((0.0, 0.0), 3)[:, None] + table.centers
    ref = _reach_reference(table, window.reshape(-1, 2),
                           np.tile(table.radii, 49))
    got = [table.copy_centers[copies] for copies in table.sector_copies]
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)
    rng = np.random.default_rng(8)
    disks = [((0.5, 0.0), 0.04)]
    while len(disks) < 20:
        hole = B.BilliardHole("disk", center=tuple(rng.random(2)),
                              radius=rng.uniform(0.005, 0.1))
        try:
            hole.validate(table)
        except ValueError:
            continue
        disks.append((hole.center, hole.radius))
    for center, radius in disks:
        (family,) = B._hole_families(
            table, B.nested_disk_holes(table, center, [radius]))
        ref = _reach_reference(table, _all_copies(center, 3),
                               np.full(49, radius))
        assert len(family[1]) == len(ref)
        for a, b in zip(family[1], ref):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("shift", ["table and disks", "disks"])
def test_shifted_input_gives_the_same_estimates(small_table, shift):
    # a scatterer's centre and a disk's centre are reduced into the unit
    # cell, so copies two cells away describe the same table and holes
    def holes(table, dx):
        return B.nested_arc_holes(table, 0, 1.0, [0.16]) + \
            B.nested_disk_holes(table, (0.5 + dx, dx), [0.02, 0.04])

    moved = small_table
    if shift == "table and disks":
        moved = B.build_table([((x + 2, y + 2), r) for (x, y), r
                               in B.DEFAULT_SCATTERERS],
                              validation_rays=50_000)
        assert np.array_equal(moved.copy_centers, small_table.copy_centers)
        assert moved.tau_max == small_table.tau_max
    want = B.billiard_escape_multi(small_table, holes(small_table, 0.0),
                                   samples=20_000, n_max=30, seed=5)
    got = B.billiard_escape_multi(moved, holes(moved, 2.0), samples=20_000,
                                  n_max=30, seed=5)
    for a, b in zip(got, want):
        assert (a.rho, a.stderr, a.per_n_mass, a.meta) == \
            (b.rho, b.stderr, b.per_n_mass, b.meta)


def _dots(p, v):
    """The rays' p.v and p.p that the kernels take."""
    return np.einsum("nd,nd->n", p, v), np.einsum("nd,nd->n", p, p)


def _next_collision_reference(table, p, v, copies):
    """The collision search in (rays, copies) layout: an argmin over the
    copy axis of the roots, with the missed ones masked to inf."""
    dt = p.dtype
    C = table.copy_centers[copies].astype(dt, copy=False)
    cr = table.copy_radii[copies].astype(dt, copy=False)
    pv, pp = _dots(p, v)
    b = v @ C.T
    np.subtract(pv[:, None], b, out=b)
    c = p @ (2.0 * C).T
    np.subtract(pp[:, None], c, out=c)
    c += np.einsum("kd,kd->k", C, C)[None, :]
    c -= (cr ** 2)[None, :]
    disc = b * b
    disc -= c
    with np.errstate(invalid="ignore"):
        t = np.sqrt(disc, out=c)
    t += b
    np.negative(t, out=t)
    keep = disc > 0
    keep &= t > B.CLEARANCE
    np.copyto(t, np.inf, where=~keep)
    hit = np.argmin(t, axis=1)
    return t[np.arange(len(p)), hit], copies[hit]


def _segment_distance_reference(start, direction, length, copies):
    """The segment distance in (rays, copies) layout, reduced over the
    copy axis."""
    copies = copies.astype(start.dtype)
    pv, pp = _dots(start, direction)
    proj = direction @ copies.T
    proj -= pv[:, None]
    d2 = start @ (2.0 * copies).T
    np.subtract(pp[:, None], d2, out=d2)
    d2 += np.einsum("kd,kd->k", copies, copies)[None, :]
    proj_c = np.maximum(proj, 0.0)
    np.minimum(proj_c, length[:, None], out=proj_c)
    proj *= 2.0
    proj *= proj_c
    d2 -= proj
    d2 += np.square(proj_c, out=proj_c)
    return np.sqrt(np.maximum(np.min(d2, axis=1), 0.0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_kernels_match_rays_by_copies_reference(small_table, dtype):
    table = small_table
    everything = np.arange(len(table.copy_centers))
    assert len(everything) == 50
    stationary = B.sample_srb(table, 100_000, np.random.default_rng(7))
    for sid, phi, theta in (stationary, _edge_states(table)):
        phi, theta = phi.astype(dtype), theta.astype(dtype)
        p, v = B._states_to_rays(table, sid, phi, theta)
        # the full list holds the ray's own copy, whose root t ~ 0 is missed
        for copies in (everything, everything[::-1],
                       table.sector_copies[3]):
            t, hit = B._next_collision(table, p, v, *_dots(p, v), copies)
            t_ref, hit_ref = _next_collision_reference(table, p, v, copies)
            assert np.array_equal(t, t_ref) and np.array_equal(hit, hit_ref)
        # flights of every kind and length against the disk copies; a list
        # of one copy rounds as gemv in the reference, so take two or more
        f = B._step_arrays(table, sid, phi, theta)[-1]
        for copies in (_all_copies((0.5, 0.0)),
                       _all_copies((0.25, 0.75))[:2]):
            d = B._segment_center_distance(f.start, f.direction, f.length,
                                           f.pv, f.pp, copies)
            d_ref = _segment_distance_reference(f.start, f.direction,
                                                f.length, copies)
            assert np.array_equal(d, d_ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_collision_ties_and_misses(small_table, dtype):
    # copy 50 is a second copy 7: every ray meets both at the same t
    table = dataclasses.replace(
        small_table,
        copy_centers=np.concatenate([small_table.copy_centers,
                                     small_table.copy_centers[[7]]]),
        copy_radii=np.append(small_table.copy_radii,
                             small_table.copy_radii[7]))
    sid, phi, theta = B.sample_srb(table, 20_000, np.random.default_rng(8))
    p, v = B._states_to_rays(table, sid, phi.astype(dtype),
                             theta.astype(dtype))
    for copies in ([7, 50], [50, 7], [3, 50, 12, 7], [3, 7, 12, 50]):
        copies = np.array(copies)
        t, hit = B._next_collision(table, p, v, *_dots(p, v), copies)
        t_ref, hit_ref = _next_collision_reference(table, p, v, copies)
        assert np.array_equal(t, t_ref) and np.array_equal(hit, hit_ref)
        # the first of the twins in copy order wins every tie
        first = copies[np.isin(copies, (7, 50))][0]
        tied = np.isin(hit, (7, 50))
        assert np.count_nonzero(tied) > 100 and np.all(hit[tied] == first)
    # rays from beyond the window pointing away from every copy
    far = np.full((5, 2), 3.0, dtype=dtype)
    away = np.tile(np.array([1.0, 0.0], dtype=dtype), (5, 1))
    for copies in (np.array([12, 3, 40]), np.arange(50)[::-1],
                   np.array([9])):
        for n in (1, 2, 5):
            t, hit = B._next_collision(table, far[:n], away[:n],
                                       *_dots(far[:n], away[:n]), copies)
            assert np.all(t == np.inf) and np.all(hit == copies[0])
            assert t.dtype == dtype


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_step_independent_of_block_size(small_table, monkeypatch, dtype):
    sid, phi, theta = B.sample_srb(small_table, 3_000,
                                   np.random.default_rng(10))
    phi, theta = phi.astype(dtype), theta.astype(dtype)
    holes = B.nested_disk_holes(small_table, (0.5, 0.0), [0.02, 0.04])
    families = B._hole_families(small_table, holes)
    # some sectors of the small scatterer hold a single disk copy
    assert min(len(c) for c in families[0][1]) == 1
    results = []
    for block in (4096, 1000, 7, 2, 1):
        monkeypatch.setattr(B, "_BLOCK", block)
        step = B._step_arrays(small_table, sid, phi, theta)
        closest = np.full((1, len(sid)), np.inf, dtype=dtype)
        B._approach(families, closest, np.arange(len(sid)), step[0],
                    step[1], step[-1])
        results.append([*step[:-1], *step[-1], closest[0]])
    for got in results[1:]:
        for a, b in zip(got, results[0]):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_escape_independent_of_worker_count(small_table, monkeypatch):
    holes = B.nested_arc_holes(small_table, 0, 1.0, [0.1, 0.2]) + \
        B.nested_disk_holes(small_table, (0.5, 0.0), [0.02, 0.04])
    pooled = B.billiard_escape_multi(small_table, holes, 20_000, 10, seed=8)
    # one CPU in the affinity mask runs the shards in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
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
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        got = B.billiard_escape_multi(small_table, holes, samples, 10,
                                      seed=8)
        assert_no_children()
        for a, b in zip(got, expected):
            assert a.rho == b.rho and a.stderr == b.stderr
            assert a.per_n_mass == b.per_n_mass
            assert a.meta == b.meta


def test_flagged_trajectory_counts_at_no_step(small_table, monkeypatch):
    # a guard of 0.1 flags about 5% of the trajectories
    monkeypatch.setattr(B, "TANGENT_GUARD", 0.1)
    holes = [B.BilliardHole("arc", scatterer=0, arc_center=1.0,
                            arc_halfwidth=0.16),
             B.BilliardHole("disk", center=(0.5, 0.0), radius=0.04)]
    families = B._hole_families(small_table, holes)
    states = B.sample_srb(small_table, 300, np.random.default_rng(3))
    counts, flagged = B._simulate_chunk(small_table, families, 2, 12,
                                        *states)
    assert flagged > 0
    # reference: each trajectory on its own, the flagged ones left out
    expected = np.zeros_like(counts)
    for j in range(300):
        c, fl = B._simulate_chunk(small_table, families, 2, 12,
                                  *(a[j:j + 1] for a in states))
        if not fl:
            expected += c
    assert np.array_equal(counts, expected)
    # no start is in a disk hole: the disk's mass at n = 0 is 1
    ests = B.billiard_escape_multi(small_table, holes, 20_000, 12, seed=3)
    assert ests[0].meta["flagged"] > 0
    assert ests[1].per_n_mass[0] == (0, 1.0)


def _serial_flight_pass(table, rays, seed):
    """``build_table``'s longest validation flight and ``theta_chi2``'s
    histogram as one loop in this process over pieces of at most _CHUNK
    states from one generator."""
    rng = np.random.default_rng(seed)
    edges = np.linspace(-math.pi / 2, math.pi / 2, 25)
    worst, observed = 0.0, np.zeros(len(edges) - 1, dtype=np.int64)
    for done in range(0, rays, B._CHUNK):
        states = B.sample_srb(table, min(rays - done, B._CHUNK), rng)
        _, _, theta2, t, grazing, _ = B._step_arrays(table, *states)
        worst = max(worst, float(np.max(t)))
        observed += np.histogram(theta2[~grazing], bins=edges)[0]
    return worst, observed


@pytest.mark.parametrize("rays, chunk", [
    (50_000, None), (1, None),
    # more pieces than workers, a last piece of one state; fewer pieces
    # than workers
    (7_001, 1000), (2_500, 1000)])
def test_flight_passes_independent_of_worker_count(small_table, monkeypatch,
                                                   rays, chunk):
    if chunk is not None:
        monkeypatch.setattr(B, "_CHUNK", chunk)
    worst, observed = _serial_flight_pass(small_table, rays, seed=4)
    chi2_runs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        table = B.build_table(validation_rays=rays, seed=4)
        assert table.tau_max == worst
        assert_no_children()
        p, chi2, obs, exp = B.theta_chi2(table, rays, seed=4)
        assert np.array_equal(obs, observed)
        assert_no_children()
        chi2_runs.append((p, chi2, obs.tolist(), exp.tolist()))
    assert chi2_runs[1:] == chi2_runs[:1] * 2


def test_parent_steps_no_ray(small_table, monkeypatch):
    # with two CPUs every flight pass steps its rays on forked workers
    parent, step = os.getpid(), B._step_arrays

    def worker_only(*args):
        assert os.getpid() != parent, "the calling process stepped a ray"
        return step(*args)
    monkeypatch.setattr(B, "_step_arrays", worker_only)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    B.build_table(validation_rays=50_000, seed=1)
    B.theta_chi2(small_table, 50_000, seed=1)
    B.billiard_escape_multi(small_table,
                            B.nested_arc_holes(small_table, 0, 1.0, [0.1]),
                            5_000, 10, seed=1)


def _horizon_lost(table, sid, phi, theta):
    raise B.InfiniteHorizonError("free flight of length >= 1.5 found")


@pytest.mark.parametrize("run", [
    lambda t: B.build_table(validation_rays=5_000, seed=1),
    lambda t: B.theta_chi2(t, 5_000, seed=1),
    lambda t: B.billiard_escape_multi(
        t, B.nested_arc_holes(t, 0, 1.0, [0.1]), 5_000, 10, seed=1)])
def test_worker_error_reaches_caller(small_table, monkeypatch, run):
    # two CPUs: every run of pieces or shards steps on a worker, which
    # inherits the patched step
    monkeypatch.setattr(B, "_CHUNK", 1000)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(B, "_step_arrays", _horizon_lost)
    with pytest.raises(B.InfiniteHorizonError, match="free flight"):
        run(small_table)
    assert_no_children()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lone_copy_rounds_as_in_a_list(small_table, dtype):
    # numpy sends a product with a single copy to gemv; the kernels round
    # it as the same copy's row in a list of two
    sid, phi, theta = B.sample_srb(small_table, 20_000,
                                   np.random.default_rng(12))
    p, v = B._states_to_rays(small_table, sid, phi.astype(dtype),
                             theta.astype(dtype))
    pv, pp = _dots(p, v)
    for k in range(len(small_table.copy_centers)):
        t, hit = B._next_collision(small_table, p, v, pv, pp, np.array([k]))
        t2, hit2 = B._next_collision(small_table, p, v, pv, pp,
                                     np.array([k, k]))
        assert np.array_equal(t, t2) and np.array_equal(hit, hit2)
    f = B._step_arrays(small_table, sid, phi.astype(dtype),
                       theta.astype(dtype))[-1]
    flights = (f.start, f.direction, f.length, f.pv, f.pp)
    for centre in _all_copies((0.5, 0.0)):
        d = B._segment_center_distance(*flights, centre[None, :])
        d2 = B._segment_center_distance(*flights, np.stack([centre, centre]))
        assert np.array_equal(d, d2)

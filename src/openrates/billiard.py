"""Finite-horizon periodic Lorentz-gas collision map with escape holes.

Point particles move at unit speed on the 2-torus between circular
scatterers and reflect specularly.  Collision coordinates are
(scatterer id, boundary angle phi, reflection angle theta), theta measured
from the outward normal to the outgoing velocity, so the stationary
billiard-map measure has density proportional to cos(theta).

Holes come in two kinds: an open boundary arc of one scatterer
("arc"), triggered when a collision lands inside it, and an open disk in
the free space ("disk"), triggered when a flight segment crosses it.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .escape import (MC_SHARDS, InsufficientSurvivorsError,
                     sharded_mc_estimates)
from .systems import _is_number, _is_numbers, _lookup, _reject_unknown

TANGENT_GUARD = 1e-9        # |cos theta| below this flags a grazing collision
TAU_BOUND = 1.5             # every free flight of a valid table is shorter
# least gap between two scatterers, or a disk hole and a scatterer; hence
# also the shortest free flight
CLEARANCE = 1e-3
_COPY_RANGE = 2             # search copies at offsets -2..2 (< TAU_BOUND)
_CHUNK = 1 << 15
# rays per collision or segment search, so that its (rays, copies)
# temporaries stay in cache; each ray's result does not depend on it
_BLOCK = 1 << 12


class TableGeometryError(ValueError):
    pass


class InfiniteHorizonError(RuntimeError):
    pass


DEFAULT_SCATTERERS = (((0.0, 0.0), 0.45), ((0.5, 0.5), 0.15))


@dataclass(frozen=True)
class BilliardTable:
    centers: np.ndarray          # (k, 2) in the unit cell
    radii: np.ndarray            # (k,)
    tau_max: float               # validated bound on the free flight
    # periodic copies of every scatterer, precomputed for collision search
    copy_centers: np.ndarray = field(repr=False)
    copy_sid: np.ndarray = field(repr=False)
    copy_radii: np.ndarray = field(repr=False)
    # for each scatterer s, the indices of the copies a flight leaving s
    # can reach: boundary gap below TAU_BOUND
    source_copies: tuple = field(repr=False)

    @property
    def n_scatterers(self) -> int:
        return len(self.radii)


def _check_disjoint(centers, radii):
    k = len(radii)
    offs = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
    for a in range(k):
        for b in range(k):
            for off in offs:
                if a == b and off == (0, 0):
                    continue
                d = np.linalg.norm(centers[a] - (centers[b] + np.array(off)))
                gap = d - radii[a] - radii[b]
                if gap < CLEARANCE:
                    raise TableGeometryError(
                        f"scatterers {a} and {b} (offset {off}) have "
                        f"clearance {gap:.4g} < {CLEARANCE}")


def build_table(scatterers=DEFAULT_SCATTERERS, validation_rays: int = 1_000_000,
                seed: int = 20240901) -> BilliardTable:
    """Construct and validate a table.

    Disjointness is checked exactly; the finite-horizon bound is validated
    by free flights of `validation_rays` stationary samples (construction
    aborts if any flight reaches TAU_BOUND).
    """
    centers = np.array([c for c, _ in scatterers], dtype=float)
    radii = np.array([r for _, r in scatterers], dtype=float)
    if np.any(radii <= 0):
        raise TableGeometryError("radii must be positive")
    _check_disjoint(centers, radii)

    span = range(-_COPY_RANGE, _COPY_RANGE + 1)
    offs = np.array([(i, j) for i in span for j in span], dtype=float)
    copy_centers = (centers[None, :, :] + offs[:, None, :]).reshape(-1, 2)
    copy_sid = np.tile(np.arange(len(radii)), len(offs))
    copy_radii = np.tile(radii, len(offs))
    # a flight is at least as long as the gap between the two boundaries
    gap = (np.linalg.norm(copy_centers[None, :, :] - centers[:, None, :],
                          axis=2) - radii[:, None] - copy_radii[None, :])
    table = BilliardTable(centers=centers, radii=radii, tau_max=float("nan"),
                          copy_centers=copy_centers, copy_sid=copy_sid,
                          copy_radii=copy_radii,
                          source_copies=tuple(np.flatnonzero(g < TAU_BOUND)
                                              for g in gap))

    rng = np.random.default_rng(seed)
    worst = 0.0
    for done in range(0, validation_rays, _CHUNK):
        sid, phi, theta = sample_srb(
            table, min(validation_rays - done, _CHUNK), rng)
        t = _step_arrays(table, sid, phi, theta)[3]
        worst = max(worst, float(np.max(t)))
    return dataclasses.replace(table, tau_max=worst)


# ---------------------------------------------------------------------------
# states and the collision map

@dataclass(frozen=True)
class CollisionState:
    scatterer: int
    phi: float          # boundary angle of the collision point
    theta: float        # outgoing angle from the outward normal, (-pi/2, pi/2)


def sample_srb(table: BilliardTable, size: int, rng):
    """Stationary samples: scatterer by circumference, phi uniform,
    theta with density proportional to cos(theta)."""
    w = table.radii / table.radii.sum()
    sid = rng.choice(table.n_scatterers, size=size, p=w)
    phi = rng.uniform(0.0, 2 * math.pi, size)
    theta = np.arcsin(rng.uniform(-1.0, 1.0, size))
    return sid, phi, theta


def _states_to_rays(table, sid, phi, theta):
    dt = np.asarray(phi).dtype
    r = table.radii.astype(dt, copy=False)[sid]
    c = table.centers.astype(dt, copy=False)[sid]
    normal = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    p = c + r[:, None] * normal
    ang = phi + theta
    v = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    return p, v


def _next_collision(table, p, v, copies):
    """First ray-circle intersection over the periodic copies ``copies``.

    Returns (t, index into table.copy_centers of the hit copy); t = +inf
    when no copy is hit.  Inner products against the copy list are matrix
    products, keeping the hot loop in BLAS."""
    dt = p.dtype
    C = table.copy_centers[copies].astype(dt, copy=False)    # (K, 2)
    cr = table.copy_radii[copies].astype(dt, copy=False)
    pv = np.einsum("nd,nd->n", p, v)
    pp = np.einsum("nd,nd->n", p, p)
    # the (n, K) arrays are updated in place; 2.0 * C scales each product
    # exactly, and -(b + sqrt) rounds as -b - sqrt does
    b = v @ C.T
    np.subtract(pv[:, None], b, out=b)           # (p - c) . v
    c = p @ (2.0 * C).T
    np.subtract(pp[:, None], c, out=c)
    c += np.einsum("kd,kd->k", C, C)[None, :]
    c -= (cr ** 2)[None, :]                      # |p - c|^2 - r^2
    disc = b * b
    disc -= c
    with np.errstate(invalid="ignore"):
        t = np.sqrt(disc, out=c)
    t += b
    np.negative(t, out=t)
    # true flights are never shorter than the scatterer clearance, so the
    # self-intersection guard can sit far above either dtype's roundoff
    keep = disc > 0
    keep &= t > CLEARANCE
    np.copyto(t, np.inf, where=~keep)
    hit = np.argmin(t, axis=1)
    return t[np.arange(len(p)), hit], copies[hit]


def _blocks(mask):
    """The indices where ``mask`` holds, in pieces of at most _BLOCK."""
    rows = np.flatnonzero(mask)
    return [rows[i:i + _BLOCK] for i in range(0, len(rows), _BLOCK)]


def _step_arrays(table, sid, phi, theta):
    """One collision step on parallel state arrays.

    Each ray is tested against the copies reachable from its own scatterer
    only.  Returns (sid', phi', theta', flight length, flight start, flight
    dir, grazing mask)."""
    p, v = _states_to_rays(table, sid, phi, theta)
    t = np.empty(len(p), dtype=p.dtype)
    hit = np.empty(len(p), dtype=np.intp)
    for s, copies in enumerate(table.source_copies):
        for rows in _blocks(sid == s):
            t[rows], hit[rows] = _next_collision(table, p[rows], v[rows],
                                                 copies)
    if not np.all(t < TAU_BOUND):
        raise InfiniteHorizonError(
            f"free flight of length >= {TAU_BOUND} found; the table does "
            "not have a verified finite horizon")
    q = p + t[:, None] * v
    dt = p.dtype
    c_hit = table.copy_centers.astype(dt, copy=False)[hit]
    sid2 = table.copy_sid[hit]
    rel = q - c_hit
    phi2 = np.arctan2(rel[:, 1], rel[:, 0])
    normal = rel / table.copy_radii.astype(dt, copy=False)[hit][:, None]
    vn = np.einsum("nd,nd->n", v, normal)
    v2 = v - 2.0 * vn[:, None] * normal
    cos_t = np.einsum("nd,nd->n", v2, normal)
    sin_t = normal[:, 0] * v2[:, 1] - normal[:, 1] * v2[:, 0]
    theta2 = np.arctan2(sin_t, cos_t)
    guard = max(TANGENT_GUARD, 64.0 * float(np.finfo(dt).eps))
    grazing = np.abs(cos_t) < guard
    return sid2, phi2, theta2, t, p, v, grazing


# ---------------------------------------------------------------------------
# holes

@dataclass(frozen=True)
class BilliardHole:
    kind: str                     # arc | disk
    scatterer: int = 0            # arc only
    arc_center: float = 0.0       # arc only: midpoint angle
    arc_halfwidth: float = 0.0    # arc only
    center: Tuple[float, float] = (0.0, 0.0)   # disk only
    radius: float = 0.0                         # disk only

    def validate(self, table: BilliardTable):
        if self.kind == "empty":
            return
        if self.kind == "arc":
            if not 0 <= self.scatterer < table.n_scatterers:
                raise ValueError("arc hole references a missing scatterer")
            if not 0 < self.arc_halfwidth < math.pi:
                raise ValueError("arc halfwidth out of range")
        elif self.kind == "disk":
            c = np.array(self.center)
            d = np.linalg.norm(table.copy_centers - c[None, :], axis=1)
            gap = float(np.min(d - table.copy_radii)) - self.radius
            if gap < CLEARANCE:
                raise ValueError(
                    f"disk hole closure within {gap:.4g} of a scatterer")
        else:
            raise ValueError(f"unknown hole kind {self.kind!r}")

    def arc_measure_fraction(self, table: BilliardTable) -> float:
        """Stationary mass of an arc hole (fraction of total boundary)."""
        if self.kind != "arc":
            raise ValueError("only meaningful for arc holes")
        arc_len = 2 * self.arc_halfwidth * table.radii[self.scatterer]
        return float(arc_len / (2 * math.pi * table.radii.sum()))


def _disk_copy_centers(center: np.ndarray) -> np.ndarray:
    """Periodic copies of a disk center reachable by a flight segment.

    Flights start on scatterer boundaries (within [-0.5, 1.5]^2 for any
    admissible table) and are shorter than TAU_BOUND."""
    span = range(-_COPY_RANGE, _COPY_RANGE + 1)
    copies = np.array([center + (i, j) for i in span for j in span])
    lo = np.clip(copies, -0.5, 1.5)
    reach = np.linalg.norm(copies - lo, axis=1) < TAU_BOUND + 0.1
    return copies[reach]


def _segment_center_distance(start, direction, length, copies):
    """Min distance from each flight segment to the points ``copies``,
    vectorized over segments and copies via matrix products."""
    copies = copies.astype(start.dtype)           # (K, 2)
    pv = np.einsum("nd,nd->n", start, direction)
    pp = np.einsum("nd,nd->n", start, start)
    # in place, rounding as rel2 - 2 proj_c proj + proj_c^2 does
    proj = direction @ copies.T
    proj -= pv[:, None]                            # (c - p) . v
    d2 = start @ (2.0 * copies).T
    np.subtract(pp[:, None], d2, out=d2)
    d2 += np.einsum("kd,kd->k", copies, copies)[None, :]   # |c - p|^2
    proj_c = np.maximum(proj, 0.0)
    np.minimum(proj_c, length[:, None], out=proj_c)
    proj *= 2.0
    proj *= proj_c
    d2 -= proj
    d2 += np.square(proj_c, out=proj_c)
    return np.sqrt(np.maximum(np.min(d2, axis=1), 0.0))


def _hole_families(table: BilliardTable, holes: Sequence[BilliardHole]):
    """Group the holes that share one closest-approach distance.

    Arcs on one scatterer around one centre share the angular distance of
    the collisions on that scatterer to the centre; disks around one centre
    share the distance of the flight segments to it.  A trajectory is in
    hole i once its family's closest approach so far drops below the hole's
    threshold (arc halfwidth, disk radius).  Returns a list of
    (kind, where, [(hole index, threshold), ...]): ``where`` is
    (scatterer, centre) for an arc family and, for a disk family, the
    periodic copies of the centre that a flight from each scatterer can
    come within the largest radius of; an empty hole is never entered.
    """
    groups = {}
    for i, h in enumerate(holes):
        if h.kind == "arc":
            key, threshold = ("arc", h.scatterer, h.arc_center), \
                h.arc_halfwidth
        elif h.kind == "disk":
            key, threshold = ("disk", tuple(h.center)), h.radius
        else:
            key, threshold = ("empty",), 0.0
        groups.setdefault(key, []).append((i, threshold))
    families = []
    for key, members in groups.items():
        where = key[1:]
        if key[0] == "disk":
            copies = _disk_copy_centers(np.array(key[1]))
            # a flight stays within TAU_BOUND of the boundary it leaves
            reach = TAU_BOUND + max(r for _, r in members)
            dist = np.abs(np.linalg.norm(copies[:, None, :]
                                         - table.centers[None, :, :], axis=2)
                          - table.radii[None, :])
            where = tuple(copies[d < reach] for d in dist.T)
        families.append((key[0], where, members))
    return families


def _approach(families, closest, idx, src, sid, phi, flight):
    """Lower each family's closest approach (``closest``, one row per
    family) by one collision step of the trajectories ``idx``: ``src`` is
    the scatterer each one left, (``sid``, ``phi``) the collision it ends at
    and ``flight`` the (start, direction, length) of its segment, or None
    for the initial collision."""
    for row, (kind, where, _) in zip(closest, families):
        if kind == "arc":
            scatterer, centre = where
            on = np.flatnonzero(sid == scatterer)
            dphi = np.abs((phi[on] - centre + math.pi) % (2 * math.pi)
                          - math.pi)
            row[idx[on]] = np.minimum(row[idx[on]], dphi)
        elif kind == "disk" and flight is not None:
            start, direction, length = flight
            for s, copies in enumerate(where):
                for on in _blocks(src == s):
                    dist = _segment_center_distance(
                        start[on], direction[on], length[on], copies)
                    row[idx[on]] = np.minimum(row[idx[on]], dist)


def nested_arc_holes(table: BilliardTable, scatterer: int, center: float,
                     halfwidths: Sequence[float]):
    holes = [BilliardHole("arc", scatterer=scatterer, arc_center=center,
                          arc_halfwidth=h) for h in halfwidths]
    for h in holes:
        h.validate(table)
    return holes


def nested_disk_holes(table: BilliardTable, center, radii: Sequence[float]):
    holes = [BilliardHole("disk", center=tuple(center), radius=r)
             for r in radii]
    for h in holes:
        h.validate(table)
    return holes


# each hole kind's config keys, with the conversion of each value
_HOLE_FIELDS = {
    "arc": {"scatterer": int, "arc_center": float, "arc_halfwidth": float},
    "disk": {"center": tuple, "radius": float},
}


def hole_from_config(cfg: dict) -> BilliardHole:
    """A hole from one entry of the ``holes`` list of a billiard config."""
    _reject_unknown(cfg, {"kind"}.union(*_HOLE_FIELDS.values()),
                    "each billiard hole")
    kind = cfg.get("kind")
    fields = _lookup(_HOLE_FIELDS, kind, "billiard hole kind")
    _reject_unknown(cfg, {"kind", *fields}, f"billiard {kind} hole")
    for key, convert in fields.items():
        if not (_is_numbers(cfg[key], 2) if convert is tuple
                else _is_number(cfg[key], integer=convert is int)):
            what = {tuple: "two numbers", int: "an integer",
                    float: "a number"}[convert]
            raise ValueError(f"{key} of a billiard {kind} hole must be "
                             f"{what}")
    return BilliardHole(kind, **{key: convert(cfg[key])
                                 for key, convert in fields.items()})


# ---------------------------------------------------------------------------
# escape statistics

def billiard_escape_multi(table: BilliardTable, holes: Sequence[BilliardHole],
                          samples: int, n_max: int, seed: int):
    """Escape estimates for several holes evaluated on shared trajectories.

    All holes see the same closed-system collision sequences, so for nested
    holes the monotonicity rho(small) >= rho(large) holds pathwise, not just
    statistically.  The shards run on forked worker processes, one per CPU
    the process may run on, and are reduced in shard order, so the result
    does not depend on the worker count.
    """
    for h in holes:
        h.validate(table)

    def run_shards(seeds, sizes):
        n = len(sizes)
        args = ([table] * n, [holes] * n, [n_max] * n, seeds, sizes)
        workers = min(len(os.sched_getaffinity(0)), MC_SHARDS)
        if workers == 1:
            return map(_simulate_shard, *args)
        import concurrent.futures
        import multiprocessing

        fork = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(
                workers, mp_context=fork) as pool:
            return list(pool.map(_simulate_shard, *args))

    estimates = sharded_mc_estimates(run_shards, samples, seed, n_max,
                                     "billiard_mc")
    for hole, est in zip(holes, estimates):
        est.meta["hole_kind"] = hole.kind
        est.meta["fit_residual"] = _exp_fit_residual(est.per_n_mass,
                                                     est.window)
    return estimates


def _simulate_shard(table, holes, n_max, seed_seq, size):
    """Survival counts (holes, n_max+1) and flagged count of one shard of
    ``size`` trajectories drawn from ``seed_seq``."""
    families = _hole_families(table, holes)
    rng = np.random.default_rng(seed_seq)
    counts = np.zeros((len(holes), n_max + 1), dtype=np.int64)
    flagged = 0
    for done in range(0, size, _CHUNK):
        c, fl = _simulate_chunk(table, families, len(holes),
                                min(size - done, _CHUNK), n_max, rng)
        counts += c
        flagged += fl
    return counts, flagged


def _simulate_chunk(table, families, n_holes, size, n_max, rng):
    """Simulate one chunk of trajectories against all holes at once.

    The bulk simulation runs in float32: collision geometry is accurate to
    ~1e-6, far below the Monte Carlo error, and single precision halves the
    memory traffic of the dominant ray-circle sweep."""
    sid, phi, theta = sample_srb(table, size, rng)
    phi, theta = phi.astype(np.float32), theta.astype(np.float32)
    valid = np.ones(size, dtype=bool)
    closest = np.full((len(families), size), np.inf, dtype=phi.dtype)
    counts = np.zeros((n_holes, n_max + 1), dtype=np.int64)
    idx = np.arange(size)

    def tally(n):
        for f, (_, _, members) in enumerate(families):
            for i, threshold in members:
                counts[i, n] = np.count_nonzero((closest[f] >= threshold)
                                                & valid)

    # a start inside an arc hole counts as in it at n = 0
    _approach(families, closest, idx, None, sid, phi, None)
    tally(0)
    for n in range(1, n_max + 1):
        # keep only trajectories outside some hole
        need = np.zeros(len(idx), dtype=bool)
        for f, (_, _, members) in enumerate(families):
            need |= closest[f, idx] >= min(t for _, t in members)
        idx = idx[need & valid[idx]]
        if len(idx) == 0:
            break
        src = sid[idx]
        sid2, phi2, theta2, t, p0, v0, grazing = _step_arrays(
            table, src, phi[idx], theta[idx])
        sid[idx], phi[idx], theta[idx] = sid2, phi2, theta2
        valid[idx[grazing]] = False
        _approach(families, closest, idx, src, sid2, phi2, (p0, v0, t))
        tally(n)
    flagged = int(np.count_nonzero(~valid))
    return counts, flagged


def _exp_fit_residual(per_n, window):
    """Max residual of log-mass around the linear fit inside the window."""
    n_lo, n_hi = window
    ns = np.array([n for n, _ in per_n])
    ms = np.array([m for _, m in per_n])
    sel = (ns >= n_lo) & (ns <= n_hi) & (ms > 0)
    x = ns[sel].astype(float)
    y = np.log(ms[sel])
    a, b = np.polyfit(x, y, 1)
    return float(np.max(np.abs(y - (a * x + b))))


# ---------------------------------------------------------------------------
# stationarity diagnostics

def theta_chi2(table: BilliardTable, samples: int, seed: int):
    """Chi-square p-value of the 24-bin post-collision theta histogram
    against the stationary cos(theta) law."""
    from scipy import stats

    rng = np.random.default_rng(seed)
    edges = np.linspace(-math.pi / 2, math.pi / 2, 25)
    observed = np.zeros(len(edges) - 1, dtype=np.int64)
    total = 0
    remaining = samples
    while remaining > 0:
        size = min(remaining, _CHUNK)
        remaining -= size
        sid, phi, theta = sample_srb(table, size, rng)
        _, _, theta2, _, _, _, grazing = _step_arrays(table, sid, phi, theta)
        keep = theta2[~grazing]
        observed += np.histogram(keep, bins=edges)[0]
        total += len(keep)
    # bin mass of the cos density: (sin b - sin a) / 2
    expected = (np.sin(edges[1:]) - np.sin(edges[:-1])) / 2.0 * total
    chi2, p = stats.chisquare(observed, expected)
    return float(p), float(chi2), observed, expected


def _collision_step_mp(table: BilliardTable, sid: int, phi, theta):
    """Scalar collision step in arbitrary precision (mpmath)."""
    from mpmath import mp

    r0 = mp.mpf(float(table.radii[sid]))
    cx, cy = (mp.mpf(float(c)) for c in table.centers[sid])
    px = cx + r0 * mp.cos(phi)
    py = cy + r0 * mp.sin(phi)
    ang = phi + theta
    vx, vy = mp.cos(ang), mp.sin(ang)
    best = None
    for k in table.source_copies[sid]:
        cc, rr, hid = (table.copy_centers[k], table.copy_radii[k],
                       table.copy_sid[k])
        qx = px - mp.mpf(float(cc[0]))
        qy = py - mp.mpf(float(cc[1]))
        b = qx * vx + qy * vy
        c2 = qx * qx + qy * qy - mp.mpf(float(rr)) ** 2
        disc = b * b - c2
        if disc <= 0:
            continue
        t = -b - mp.sqrt(disc)
        if t > mp.mpf("1e-30") and (best is None or t < best[0]):
            best = (t, int(hid), cc, float(rr))
    if best is None:
        raise InfiniteHorizonError("no collision found")
    t, hid, cc, rr = best
    nx = (px + t * vx - mp.mpf(float(cc[0]))) / mp.mpf(rr)
    ny = (py + t * vy - mp.mpf(float(cc[1]))) / mp.mpf(rr)
    phi2 = mp.atan2(ny, nx)
    vn = vx * nx + vy * ny
    wx = vx - 2 * vn * nx
    wy = vy - 2 * vn * ny
    cos_t = wx * nx + wy * ny
    sin_t = nx * wy - ny * wx
    if abs(cos_t) < TANGENT_GUARD:
        raise ValueError("grazing collision; pick another state")
    return hid, phi2, mp.atan2(sin_t, cos_t)


def reversibility_error(table: BilliardTable, s: CollisionState,
                        n: int = 10) -> float:
    """Max coordinate error of I T^n I T^n applied to s (should be ~0).

    Run in arbitrary precision: the symmetry itself is exact, and n
    collisions amplify working-precision roundoff by the product of the
    expansion factors, which in doubles exceeds the 1e-9 scale being
    certified.
    """
    from mpmath import mp

    with mp.workdps(50):
        sid, phi, theta = s.scatterer, mp.mpf(s.phi), mp.mpf(s.theta)
        for _ in range(n):
            sid, phi, theta = _collision_step_mp(table, sid, phi, theta)
        theta = -theta    # involution I
        for _ in range(n):
            sid, phi, theta = _collision_step_mp(table, sid, phi, theta)
        theta = -theta
        dphi = abs((phi - s.phi + mp.pi) % (2 * mp.pi) - mp.pi)
        return max(float(dphi), float(abs(theta - s.theta)),
                   0.0 if sid == s.scatterer else 1.0)

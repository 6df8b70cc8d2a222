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

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .escape import (EscapeEstimate, InsufficientSurvivorsError,
                     sharded_mc_estimates)

TANGENT_GUARD = 1e-9        # |cos theta| below this flags a grazing collision
_COPY_RANGE = 2             # search copies at offsets -2..2 (flights < 1.5)
_CHUNK = 1 << 15


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
    copy_centers: np.ndarray = field(repr=False, default=None)
    copy_sid: np.ndarray = field(repr=False, default=None)
    copy_radii: np.ndarray = field(repr=False, default=None)

    @property
    def n_scatterers(self) -> int:
        return len(self.radii)


def _check_disjoint(centers, radii, clearance=1e-3):
    k = len(radii)
    offs = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
    for a in range(k):
        for b in range(k):
            for off in offs:
                if a == b and off == (0, 0):
                    continue
                d = np.linalg.norm(centers[a] - (centers[b] + np.array(off)))
                gap = d - radii[a] - radii[b]
                if gap < clearance:
                    raise TableGeometryError(
                        f"scatterers {a} and {b} (offset {off}) have "
                        f"clearance {gap:.4g} < {clearance}")


def build_table(scatterers=DEFAULT_SCATTERERS, validation_rays: int = 1_000_000,
                seed: int = 20240901, tau_bound: float = 1.5) -> BilliardTable:
    """Construct and validate a table.

    Disjointness is checked exactly; the finite-horizon bound is validated
    by free flights of `validation_rays` stationary samples (construction
    aborts if any flight reaches `tau_bound`).
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
    # drop copies no flight can reach; starts lie on scatterer boundaries,
    # which extend past the unit cell by up to the largest radius
    box_lo = np.min(centers - radii[:, None], axis=0)
    box_hi = np.max(centers + radii[:, None], axis=0)
    lo = np.clip(copy_centers, box_lo, box_hi)
    reach = (np.linalg.norm(copy_centers - lo, axis=1) - copy_radii
             < tau_bound + 0.05)
    copy_centers = copy_centers[reach]
    copy_sid = copy_sid[reach]
    copy_radii = copy_radii[reach]
    table = BilliardTable(centers=centers, radii=radii, tau_max=float("nan"),
                          copy_centers=copy_centers, copy_sid=copy_sid,
                          copy_radii=copy_radii)

    rng = np.random.default_rng(seed)
    worst = 0.0
    remaining = validation_rays
    while remaining > 0:
        size = min(remaining, _CHUNK)
        remaining -= size
        sid, phi, theta = sample_srb(table, size, rng)
        p, v = _states_to_rays(table, sid, phi, theta)
        t, _, _ = _next_collision(table, p, v)
        if np.any(~np.isfinite(t)) or float(np.max(t)) >= tau_bound:
            raise InfiniteHorizonError(
                f"free flight of length >= {tau_bound} found; the table does "
                "not have a verified finite horizon")
        worst = max(worst, float(np.max(t)))
    return BilliardTable(centers=centers, radii=radii, tau_max=worst,
                         copy_centers=copy_centers, copy_sid=copy_sid,
                         copy_radii=copy_radii)


# ---------------------------------------------------------------------------
# states and the collision map

@dataclass(frozen=True)
class CollisionState:
    scatterer: int
    phi: float          # boundary angle of the collision point
    theta: float        # outgoing angle from the outward normal, (-pi/2, pi/2)


@dataclass(frozen=True)
class FlightRecord:
    start: np.ndarray
    direction: np.ndarray
    length: float


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


def _next_collision(table, p, v):
    """First ray-circle intersection over periodic copies.

    Returns (t, hit_copy_index, q); t = +inf when nothing is hit within the
    copy window (infinite-horizon symptom).  Inner products against the copy
    list are matrix products, keeping the hot loop in BLAS."""
    dt = np.asarray(p).dtype
    C = table.copy_centers.astype(dt, copy=False)          # (K, 2)
    cr = table.copy_radii.astype(dt, copy=False)
    pv = np.einsum("nd,nd->n", p, v)
    pp = np.einsum("nd,nd->n", p, p)
    b = pv[:, None] - v @ C.T                    # (n, K): (p - c) . v
    c = (pp[:, None] - 2.0 * (p @ C.T)
         + np.einsum("kd,kd->k", C, C)[None, :]
         - cr[None, :] ** 2)                     # |p - c|^2 - r^2
    disc = b * b - c
    with np.errstate(invalid="ignore"):
        t = -b - np.sqrt(disc)
    # true flights are never shorter than the scatterer clearance, so the
    # self-intersection guard can sit far above either dtype's roundoff
    t = np.where((disc > 0) & (t > 1e-3), t, np.inf)
    hit = np.argmin(t, axis=1)
    rows = np.arange(len(p))
    tmin = t[rows, hit]
    q = p + tmin[:, None] * v
    return tmin, hit, q


def _step_arrays(table, sid, phi, theta):
    """One collision step on parallel state arrays.

    Returns (sid', phi', theta', flight length, flight start, flight dir,
    grazing mask)."""
    p, v = _states_to_rays(table, sid, phi, theta)
    t, hit, q = _next_collision(table, p, v)
    if np.any(~np.isfinite(t)):
        raise InfiniteHorizonError("free flight left the collision-search "
                                   "window; table is invalid")
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


def collision_map(table: BilliardTable,
                  s: CollisionState) -> Tuple[CollisionState, FlightRecord]:
    sid = np.array([s.scatterer])
    phi = np.array([s.phi])
    theta = np.array([s.theta])
    sid2, phi2, theta2, t, p, v, grazing = _step_arrays(table, sid, phi, theta)
    if grazing[0]:
        raise ValueError("grazing collision (|theta| ~ pi/2); orbit must be "
                         "discarded from statistics")
    rec = FlightRecord(start=p[0] % 1.0, direction=v[0], length=float(t[0]))
    return CollisionState(int(sid2[0]), float(phi2[0]), float(theta2[0])), rec


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

    def validate(self, table: BilliardTable, clearance: float = 1e-3):
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
            if gap < clearance:
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

    def hit_collision(self, sid, phi):
        """Mask of collision states inside an arc hole (open arc)."""
        if self.kind != "arc":
            return np.zeros(len(sid), dtype=bool)
        dphi = np.abs((phi - self.arc_center + math.pi) % (2 * math.pi)
                      - math.pi)
        return (sid == self.scatterer) & (dphi < self.arc_halfwidth)


def _disk_copy_centers(center: np.ndarray) -> np.ndarray:
    """Periodic copies of a disk center reachable by a flight segment.

    Flights start on scatterer boundaries (within [-0.5, 1.5]^2 for any
    admissible table) and are shorter than 1.5."""
    span = range(-_COPY_RANGE, _COPY_RANGE + 1)
    copies = np.array([center + (i, j) for i in span for j in span])
    lo = np.clip(copies, -0.5, 1.5)
    reach = np.linalg.norm(copies - lo, axis=1) < 1.5 + 0.1
    return copies[reach]


def _segment_center_distance(start, direction, length, center):
    """Min distance from each flight segment to any periodic copy of a
    point, vectorized over segments and copies via matrix products."""
    copies = _disk_copy_centers(center).astype(start.dtype)   # (K, 2)
    pv = np.einsum("nd,nd->n", start, direction)
    pp = np.einsum("nd,nd->n", start, start)
    proj = direction @ copies.T - pv[:, None]      # (c - p) . v
    rel2 = (pp[:, None] - 2.0 * (start @ copies.T)
            + np.einsum("kd,kd->k", copies, copies)[None, :])
    proj_c = np.clip(proj, 0.0, length[:, None])
    d2 = rel2 - 2.0 * proj_c * proj + proj_c ** 2
    return np.sqrt(np.maximum(np.min(d2, axis=1), 0.0))


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


# ---------------------------------------------------------------------------
# escape statistics

def billiard_escape_multi(table: BilliardTable, holes: Sequence[BilliardHole],
                          samples: int, n_max: int, seed: int,
                          window: Optional[Tuple[int, int]] = None):
    """Escape estimates for several holes evaluated on shared trajectories.

    All holes see the same closed-system collision sequences, so for nested
    holes the monotonicity rho(small) >= rho(large) holds pathwise, not just
    statistically.
    """
    for h in holes:
        h.validate(table)

    def simulate(rng, size):
        counts = np.zeros((len(holes), n_max + 1), dtype=np.int64)
        flagged = 0
        for done in range(0, size, _CHUNK):
            c, fl = _simulate_chunk(table, holes, min(size - done, _CHUNK),
                                    n_max, rng)
            counts += c
            flagged += fl
        return counts, flagged

    estimates = sharded_mc_estimates(simulate, samples, seed, n_max, window,
                                     "billiard_mc")
    for hole, est in zip(holes, estimates):
        est.meta["hole_kind"] = hole.kind
        est.meta["fit_residual"] = _exp_fit_residual(est.per_n_mass,
                                                     est.window)
    return estimates


def billiard_escape(table: BilliardTable, hole: BilliardHole, samples: int,
                    n_max: int, seed: int,
                    window: Optional[Tuple[int, int]] = None) -> EscapeEstimate:
    return billiard_escape_multi(table, [hole], samples, n_max, seed,
                                 window=window)[0]


def _simulate_chunk(table, holes, size, n_max, rng, dtype=np.float32):
    """Simulate one chunk of trajectories against all holes at once.

    The bulk simulation runs in float32: collision geometry is accurate to
    ~1e-6, far below the Monte Carlo error, and single precision halves the
    memory traffic of the dominant ray-circle sweep."""
    nh = len(holes)
    sid, phi, theta = sample_srb(table, size, rng)
    phi = phi.astype(dtype)
    theta = theta.astype(dtype)
    valid = np.ones(size, dtype=bool)
    alive = np.ones((nh, size), dtype=bool)
    counts = np.zeros((nh, n_max + 1), dtype=np.int64)
    for hi, h in enumerate(holes):
        alive[hi] &= ~h.hit_collision(sid, phi)      # initial point in H
        counts[hi, 0] = np.count_nonzero(alive[hi] & valid)

    # keep only indices some hole still needs
    idx = np.arange(size)
    for n in range(1, n_max + 1):
        need = valid[idx] & alive[:, idx].any(axis=0)
        idx = idx[need]
        if len(idx) == 0:
            break
        sid2, phi2, theta2, t, p0, v0, grazing = _step_arrays(
            table, sid[idx], phi[idx], theta[idx])
        sid[idx], phi[idx], theta[idx] = sid2, phi2, theta2
        if np.any(grazing):
            valid[idx[grazing]] = False
        # disk holes sharing a center reuse one segment-distance pass
        seg_dist = {}
        for hi, h in enumerate(holes):
            if h.kind == "arc":
                dead = h.hit_collision(sid2, phi2)
                alive[hi, idx[dead]] = False
            elif h.kind == "disk":
                key = tuple(h.center)
                if key not in seg_dist:
                    seg_dist[key] = _segment_center_distance(
                        p0, v0, t, np.array(h.center))
                dead = seg_dist[key] < h.radius
                alive[hi, idx[dead]] = False
            counts[hi, n] = np.count_nonzero(alive[hi] & valid)
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

def theta_chi2(table: BilliardTable, samples: int, seed: int,
               bins: int = 24):
    """Chi-square p-value of the post-collision theta histogram against the
    stationary cos(theta) law."""
    from scipy import stats

    rng = np.random.default_rng(seed)
    edges = np.linspace(-math.pi / 2, math.pi / 2, bins + 1)
    observed = np.zeros(bins, dtype=np.int64)
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
    for cc, rr, hid in zip(table.copy_centers, table.copy_radii,
                           table.copy_sid):
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

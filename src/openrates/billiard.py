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
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .escape import InsufficientSurvivorsError, sharded_mc_estimates
from .systems import (_CHUNK, _REQUIRED, EstimatorError, _batches, _fork_map,
                      _integer, _mod1, _number, _point, _read_kind)

TANGENT_GUARD = 1e-9        # |cos theta| below this flags a grazing collision
TAU_BOUND = 1.5             # every free flight of a valid table is shorter
# least gap between two scatterers, or a disk hole and a scatterer; hence
# also the shortest free flight
CLEARANCE = 1e-3
_COPY_RANGE = 2             # search copies at offsets -2..2 (< TAU_BOUND)
# the offsets of the periodic copies of scatterers and disk holes alike;
# every centre is reduced into the unit cell, so this one window holds every
# copy a flight can reach and the nearest copy of every scatterer
_OFFSETS = np.array(list(itertools.product(
    range(-_COPY_RANGE, _COPY_RANGE + 1), repeat=2)), dtype=float)
# rays per collision or segment search, so that its (copies, rays)
# temporaries stay in cache; each ray's result does not depend on it
_BLOCK = 1 << 12
# each collision or segment search runs over the copies a flight in one of
# _SECTORS sectors of its direction phi + theta can reach: those whose cone
# of directions, widened by _CONE_MARGIN (far above float32 roundoff),
# meets the sector
_SECTORS = 8
_CONE_MARGIN = 1e-3


class TableGeometryError(ValueError):
    pass


class InfiniteHorizonError(EstimatorError):
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
    # for each key s * _SECTORS + j, the indices, in copy order, of the
    # copies a flight leaving scatterer s in direction sector j can hit
    sector_copies: tuple = field(repr=False)

    @property
    def n_scatterers(self) -> int:
        return len(self.radii)


def build_table(scatterers=DEFAULT_SCATTERERS, validation_rays: int = 1_000_000,
                seed: int = 20240901) -> BilliardTable:
    """Construct and validate a table.

    The centres are reduced into the unit cell.  Disjointness is checked
    exactly; the finite-horizon bound is validated by free flights of
    `validation_rays` stationary samples, run on ``_fork_map``'s workers
    (construction aborts if any flight reaches TAU_BOUND).
    """
    centers = _mod1(np.array([c for c, _ in scatterers], dtype=float))
    radii = np.array([r for _, r in scatterers], dtype=float)
    if np.any(radii <= 0):
        raise TableGeometryError("radii must be positive")
    k = len(radii)
    copy_centers = (centers[None, :, :] + _OFFSETS[:, None, :]).reshape(-1, 2)
    copy_radii = np.tile(radii, len(_OFFSETS))
    table = BilliardTable(
        centers=centers, radii=radii, tau_max=float("nan"),
        copy_centers=copy_centers, copy_radii=copy_radii,
        copy_sid=np.tile(np.arange(k), len(_OFFSETS)),
        sector_copies=tuple(_reach(centers, radii, copy_centers, copy_radii)))
    # each scatterer against every copy but its own, the one at offset 0
    gap = _gaps(table, centers[:, None], radii[:, None])
    gap[np.arange(k), len(_OFFSETS) // 2 * k + np.arange(k)] = np.inf
    a, b = np.unravel_index(np.argmin(gap), gap.shape)
    if gap[a, b] < CLEARANCE:
        off = tuple(_OFFSETS[b // k].astype(int).tolist())
        raise TableGeometryError(
            f"scatterers {a} and {b % k} (offset {off}) have clearance "
            f"{gap[a, b]:.4g} < {CLEARANCE}")
    # tau_max is the longest validation flight: with no ray it would read
    # 0.0, shorter than any flight
    if validation_rays < 1:
        raise ValueError(f"validation_rays must be at least 1, got "
                         f"{validation_rays}")

    pieces = range(-(-validation_rays // _CHUNK))
    worst = max(_fork_map(_longest_flight, pieces, table, seed,
                          validation_rays))
    return dataclasses.replace(table, tau_max=worst)


def _gaps(table, center, radius):
    """The gap from the disk of ``radius`` around ``center``, a point of the
    unit cell, to each scatterer copy of ``table`` (along the last axis)."""
    return (np.linalg.norm(table.copy_centers - center, axis=-1) - radius
            - table.copy_radii)


def _reach(centers, radii, points, point_radii):
    """For each key s * _SECTORS + j, the indices, in order, of the disks
    (``points``, ``point_radii``) that a flight leaving scatterer s
    (``centers``, ``radii``) in direction sector j can reach: a flight is
    shorter than TAU_BOUND and at least as long as the gap between the two
    boundaries, and it leaves its own copy (distance 0) outward."""
    lists = []
    for c, r in zip(centers, radii):
        dist = np.linalg.norm(points - c, axis=1)
        reach = np.flatnonzero((dist - r - point_radii < TAU_BOUND)
                               & (dist > 0))
        cones = _cone_sectors(c, points[reach], r + point_radii[reach])
        lists += [reach[m] for m in cones]
    return lists


def _flights(table, seed, rays, pieces):
    """One collision step (``_step_arrays``' output) of each piece in the
    range ``pieces`` of ``_pieces``' draw of ``rays`` stationary states from
    ``seed``.  The pieces before the range are drawn and dropped, so a
    piece's states do not depend on the range it is stepped in."""
    return (_step_arrays(table, *states) for states in itertools.islice(
        _pieces(table, [(seed, rays)]), pieces.start, pieces.stop))


def _longest_flight(table, seed, rays, pieces):
    """The longest free flight of ``_flights``."""
    return max(float(np.max(step[3]))
               for step in _flights(table, seed, rays, pieces))


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
    # np.take: fancy indexing copies (n, 2) rows one element at a time
    c = np.take(table.centers.astype(dt, copy=False), sid, axis=0)
    normal = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    p = c + r[:, None] * normal
    ang = phi + theta
    v = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    return p, v


def _rowdot(a, b):
    """Row-wise dot products of two (n, 2) arrays: both products rounded,
    then their sum, as einsum rounds them."""
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]


def _copy_products(C, x):
    """``C @ x.T``, a (copies, rays) array.  numpy hands a product with a
    single row on either side to gemv, which rounds otherwise than gemm;
    a lone row is paired with a copy of itself, so that every ray and copy
    rounds as in a product of many."""
    k, n = len(C), len(x)
    if k == 1:
        C = np.concatenate([C, C])
    if n == 1:
        x = np.concatenate([x, x])
    return (C @ x.T)[:k, :n]


def _next_collision(table, p, v, pv, pp, copies):
    """First ray-circle intersection over the periodic copies ``copies``;
    ``pv`` and ``pp`` are the rays' p.v and p.p.

    Returns (t, index into table.copy_centers of the hit copy); t = +inf
    and the first copy when no copy is hit.  Inner products against the
    copy list are matrix products, keeping the hot loop in BLAS, and every
    elementwise pass runs along the rays of one copy."""
    dt = p.dtype
    C = table.copy_centers[copies].astype(dt, copy=False)    # (K, 2)
    cr = table.copy_radii[copies].astype(dt, copy=False)
    # the (K, n) arrays are updated in place; 2.0 * C scales each product
    # exactly, and nb = C.v - pv and nb - sqrt round as the negations of
    # b = pv - C.v and b + sqrt do
    nb = _copy_products(C, v)
    nb -= pv                                     # -(p - c) . v
    c = _copy_products(2.0 * C, p)
    np.subtract(pp, c, out=c)
    c += np.einsum("kd,kd->k", C, C)[:, None]
    c -= (cr ** 2)[:, None]                      # |p - c|^2 - r^2
    disc = nb * nb
    disc -= c
    with np.errstate(invalid="ignore"):
        t = np.sqrt(disc, out=c)
    np.subtract(nb, t, out=t)
    # true flights are never shorter than the scatterer clearance, so the
    # self-intersection guard can sit far above either dtype's roundoff
    miss = disc > 0
    miss &= t > CLEARANCE
    np.logical_not(miss, out=miss)
    # a missed root becomes inf: fmax passes over the NaN of 0 * inf
    with np.errstate(invalid="ignore"):
        np.fmax(t, np.multiply(miss, np.inf, dtype=dt, out=disc), out=t)
    # a running minimum over the copies; a strictly nearer root moves the
    # hit, so ties go to the first copy, as argmin's do
    best = t[0].copy()
    nearer = np.empty_like(miss[1:])
    for k in range(1, len(t)):
        np.less(t[k], best, out=nearer[k - 1])
        np.fmin(best, t[k], out=best)
    # the nearest copy is the last one that was strictly nearer
    ks = np.arange(1, len(t), dtype=np.min_scalar_type(len(t)))
    hit = np.max(np.multiply(nearer, ks[:, None]), axis=0, initial=0)
    return best, copies[hit]


def _cone_sectors(origin, points, reach):
    """(sector, point) mask: True where the sector meets the cone of
    directions within asin(reach / d) + _CONE_MARGIN of the direction from
    ``origin`` to the point, d > 0 apart.  A forward flight from a point
    at distance r of ``origin`` that passes within reach - r of the point
    has its direction in that cone."""
    rel = points - origin
    d = np.hypot(rel[:, 0], rel[:, 1])
    half = np.arcsin(np.minimum(reach / d, 1.0)) + _CONE_MARGIN
    width = 2 * math.pi / _SECTORS
    mid = (np.arange(_SECTORS) + 0.5) * width
    beta = np.arctan2(rel[:, 1], rel[:, 0])
    off = np.abs((beta[None, :] - mid[:, None] + math.pi) % (2 * math.pi)
                 - math.pi)
    return off <= half[None, :] + width / 2


def _sector_runs(sid, ang, n_keys):
    """The rays sorted by key sid * _SECTORS + direction sector of the
    flight angle ``ang``: returns the stable sorting permutation and the
    start of each key's run, with the end of the last appended."""
    sector = np.floor(ang * (_SECTORS / (2 * math.pi))).astype(np.intp)
    # a stable argsort of 16-bit keys is a radix sort
    key = (sid * _SECTORS + sector % _SECTORS).astype(np.int16)
    order = np.argsort(key, kind="stable")
    bounds = np.zeros(n_keys + 1, dtype=np.intp)
    np.cumsum(np.bincount(key, minlength=n_keys), out=bounds[1:])
    return order, bounds


def _run_blocks(bounds, lists):
    """(rows, list) for each piece of at most _BLOCK sorted rays of each
    key's run whose list is not empty."""
    for key, items in enumerate(lists):
        if len(items):
            for lo in range(bounds[key], bounds[key + 1], _BLOCK):
                yield slice(lo, min(lo + _BLOCK, bounds[key + 1])), items


class _Flights(NamedTuple):
    """The flights of one collision step in sector-run order: ``order``
    sorts the rays into the runs of each key, which start at ``bounds``
    (the end of the last appended).  ``start``, ``direction`` and
    ``length`` are sorted by it, ``pv`` and ``pp`` are start . direction and
    start . start."""
    order: np.ndarray
    bounds: np.ndarray
    start: np.ndarray
    direction: np.ndarray
    length: np.ndarray
    pv: np.ndarray
    pp: np.ndarray


def _step_arrays(table, sid, phi, theta):
    """One collision step on parallel state arrays.

    Each ray is tested against the copies of its (scatterer, direction
    sector) only.  Returns (sid', phi', theta', flight length, grazing
    mask, the step's _Flights)."""
    p, v = _states_to_rays(table, sid, phi, theta)
    order, bounds = _sector_runs(sid, phi + theta, len(table.sector_copies))
    # np.take: fancy indexing copies (n, 2) rows one element at a time
    ps, vs = np.take(p, order, axis=0), np.take(v, order, axis=0)
    pv, pp = _rowdot(ps, vs), _rowdot(ps, ps)
    # a ray with no copy to search keeps t = inf and fails the horizon check
    ts = np.full(len(p), np.inf, dtype=p.dtype)
    hits = np.zeros(len(p), dtype=np.intp)
    for rows, copies in _run_blocks(bounds, table.sector_copies):
        ts[rows], hits[rows] = _next_collision(
            table, ps[rows], vs[rows], pv[rows], pp[rows], copies)
    t = np.empty_like(ts)
    hit = np.empty_like(hits)
    t[order], hit[order] = ts, hits
    if not np.all(t < TAU_BOUND):
        raise InfiniteHorizonError(
            f"free flight of length >= {TAU_BOUND} found; the table does "
            "not have a verified finite horizon")
    q = p + t[:, None] * v
    dt = p.dtype
    c_hit = np.take(table.copy_centers.astype(dt, copy=False), hit, axis=0)
    sid2 = table.copy_sid[hit]
    rel = q - c_hit
    phi2 = np.arctan2(rel[:, 1], rel[:, 0])
    normal = rel / table.copy_radii.astype(dt, copy=False)[hit][:, None]
    vn = _rowdot(v, normal)
    v2 = v - 2.0 * vn[:, None] * normal
    cos_t = _rowdot(v2, normal)
    sin_t = normal[:, 0] * v2[:, 1] - normal[:, 1] * v2[:, 0]
    theta2 = np.arctan2(sin_t, cos_t)
    guard = max(TANGENT_GUARD, 64.0 * float(np.finfo(dt).eps))
    grazing = np.abs(cos_t) < guard
    return sid2, phi2, theta2, t, grazing, _Flights(order, bounds, ps, vs,
                                                    ts, pv, pp)


# ---------------------------------------------------------------------------
# holes

@dataclass(frozen=True)
class BilliardHole:
    kind: str                     # arc | disk
    scatterer: int = 0            # arc only
    arc_center: float = 0.0       # arc only: midpoint angle
    arc_halfwidth: float = 0.0    # arc only
    center: Tuple[float, float] = (0.0, 0.0)   # disk only, in the unit cell
    radius: float = 0.0                         # disk only

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(
            _mod1(np.array(self.center, dtype=float)).tolist()))

    def validate(self, table: BilliardTable):
        if self.kind == "arc":
            if not 0 <= self.scatterer < table.n_scatterers:
                raise ValueError("arc hole references a missing scatterer")
            if not 0 < self.arc_halfwidth < math.pi:
                raise ValueError("arc halfwidth out of range")
        elif self.kind == "disk":
            if not self.radius > 0:
                raise ValueError("disk hole radius must be positive")
            gap = float(np.min(_gaps(table, np.array(self.center),
                                     self.radius)))
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


def _segment_center_distance(start, direction, length, pv, pp, copies):
    """Min distance from each flight segment to the points ``copies``;
    ``pv`` and ``pp`` are start . direction and start . start.  Vectorized
    over segments and copies via matrix products, every elementwise pass
    along the segments of one copy."""
    copies = copies.astype(start.dtype)           # (K, 2)
    # the (K, n) arrays are updated in place, rounding as
    # rel2 - 2 proj_c proj + proj_c^2 does
    proj = _copy_products(copies, direction)
    proj -= pv                                     # (c - p) . v
    d2 = _copy_products(2.0 * copies, start)
    np.subtract(pp, d2, out=d2)
    d2 += np.einsum("kd,kd->k", copies, copies)[:, None]   # |c - p|^2
    proj_c = np.maximum(proj, 0.0)
    np.minimum(proj_c, length, out=proj_c)
    proj *= 2.0
    proj *= proj_c
    d2 -= proj
    d2 += np.square(proj_c, out=proj_c)
    return np.sqrt(np.maximum(np.minimum.reduce(d2, axis=0), 0.0))


def _hole_families(table: BilliardTable, holes: Sequence[BilliardHole]):
    """Group the holes that share one closest-approach distance.

    Arcs on one scatterer around one centre share the angular distance of
    the collisions on that scatterer to the centre; disks around one centre
    share the distance of the flight segments to it.  A trajectory is in
    hole i once its family's closest approach so far drops below the hole's
    threshold (arc halfwidth, disk radius).  Returns a list of
    (kind, where, [(hole index, threshold), ...]): ``where`` is
    (scatterer, centre) for an arc family and, for a disk family, the
    periodic copies of the centre that a flight leaving each scatterer in
    each direction sector (key s * _SECTORS + j) can come within the
    largest radius of.
    """
    groups = {}
    for i, h in enumerate(holes):
        if h.kind == "arc":
            key, threshold = ("arc", h.scatterer, h.arc_center), \
                h.arc_halfwidth
        else:
            key, threshold = ("disk", tuple(h.center)), h.radius
        groups.setdefault(key, []).append((i, threshold))
    families = []
    for key, members in groups.items():
        where = key[1:]
        if key[0] == "disk":
            copies = np.array(key[1]) + _OFFSETS
            radius = np.full(len(copies), max(r for _, r in members))
            where = [copies[m] for m in _reach(table.centers, table.radii,
                                                copies, radius)]
        families.append((key[0], where, members))
    return families


def _wrap_2pi(x):
    """``x % (2 * math.pi)`` for a float array ``x``, bit for bit, at a
    fraction of np.remainder's cost.  One conditional step of 2π (in x's
    dtype) is exact on [-2π, 4π): there np.remainder's fmod leaves x, or
    x - 2π, which is exact, and adds 2π to a negative rest with the same
    rounding as x + 2π; a zero comes out +0.0 on both routes.  The entries
    the step leaves outside [0, 2π) (inputs beyond that range, a negative
    x that rounds up to 2π, NaN) are redone with np.remainder."""
    two_pi = x.dtype.type(2 * math.pi)
    y = x + ((x < 0).astype(x.dtype) - (x >= two_pi)) * two_pi
    if y.size and not (y.min() >= 0 and y.max() < two_pi):
        redo = ~((y >= 0) & (y < two_pi))
        y[redo] = np.remainder(x[redo], two_pi)
    return y


def _approach(families, closest, idx, sid, phi, flights):
    """Lower each family's closest approach (``closest``, one row per
    family) by one collision step of the trajectories ``idx``: (``sid``,
    ``phi``) is the collision each one ends at and ``flights`` the
    _Flights of its segment from ``_step_arrays``, or None for the initial
    collision."""
    for row, (kind, where, _) in zip(closest, families):
        if kind == "arc":
            scatterer, centre = where
            on = np.flatnonzero(sid == scatterer)
            dphi = np.abs(_wrap_2pi(phi[on] - centre + math.pi) - math.pi)
            row[idx[on]] = np.minimum(row[idx[on]], dphi)
        elif kind == "disk" and flights is not None:
            f = flights
            dist = np.full(len(f.order), np.inf, dtype=row.dtype)
            for rows, copies in _run_blocks(f.bounds, where):
                dist[rows] = _segment_center_distance(
                    f.start[rows], f.direction[rows], f.length[rows],
                    f.pv[rows], f.pp[rows], copies)
            on = idx[f.order]
            row[on] = np.minimum(row[on], dist)


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


# each hole kind: its constructor and field table
_HOLE_KINDS = {
    "arc": (lambda **fields: BilliardHole("arc", **fields), {
        "scatterer": (_integer, _REQUIRED),
        "arc_center": (_number, _REQUIRED),
        "arc_halfwidth": (_number, _REQUIRED)}),
    "disk": (lambda center, radius: BilliardHole(
        "disk", center=tuple(center), radius=radius), {
        "center": (_point, _REQUIRED), "radius": (_number, _REQUIRED)}),
}


def hole_from_config(cfg: dict) -> BilliardHole:
    """A hole from one entry of the ``holes`` list of a billiard config."""
    return _read_kind(cfg, _HOLE_KINDS, "billiard hole", "billiard {} hole")


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
        return _fork_map(_simulate_shards, list(zip(seeds, sizes)), table,
                         holes, n_max)

    estimates = sharded_mc_estimates(run_shards, samples, seed, n_max,
                                     "billiard_mc")
    for hole, est in zip(holes, estimates):
        est.meta["hole_kind"] = hole.kind
        est.meta["fit_residual"] = _exp_fit_residual(est.per_n_mass,
                                                     est.window)
    return estimates


def _simulate_shards(table, holes, n_max, shards):
    """Survival counts (holes, n_max+1) and flagged count, summed over the
    ``shards``, each (seed sequence, trajectory count).

    Each shard draws its states in pieces of at most _CHUNK; the pieces are
    simulated in batches of _CHUNK trajectories that run across shard
    boundaries.  A trajectory's path does not depend on its batch, and the
    counts are integers, so their sum does not depend on the grouping."""
    families = _hole_families(table, holes)
    counts = np.zeros((len(holes), n_max + 1), dtype=np.int64)
    flagged = 0
    for states in _batches(_pieces(table, shards), _CHUNK):
        c, fl = _simulate_chunk(table, families, len(holes), n_max, *states)
        counts += c
        flagged += fl
    return counts, flagged


def _pieces(table, shards):
    """Each shard's stationary states, drawn from its own seed in pieces
    of at most _CHUNK."""
    for seed_seq, size in shards:
        rng = np.random.default_rng(seed_seq)
        for done in range(0, size, _CHUNK):
            yield sample_srb(table, min(size - done, _CHUNK), rng)


def _simulate_chunk(table, families, n_holes, n_max, sid, phi, theta):
    """Survival counts (holes, n_max+1) and flagged count of one batch.  A
    flagged trajectory counts at no step: the flagged ones run again from
    their initial states, retracing their paths, and their counts are
    taken off."""
    counts, valid = _tally_chunk(table, families, n_holes, n_max,
                                 sid.copy(), phi, theta)
    flagged = np.flatnonzero(~valid)
    if len(flagged):
        counts -= _tally_chunk(table, families, n_holes, n_max, sid[flagged],
                               phi[flagged], theta[flagged])[0]
    return counts, len(flagged)


def _tally_chunk(table, families, n_holes, n_max, sid, phi, theta):
    """Simulate one batch of trajectories against all holes at once:
    (survival counts while unflagged, unflagged mask); ``sid`` is updated.

    The bulk simulation runs in float32: collision geometry is accurate to
    ~1e-6, far below the Monte Carlo error, and single precision halves the
    memory traffic of the dominant ray-circle sweep."""
    size = len(sid)
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
    _approach(families, closest, idx, sid, phi, None)
    tally(0)
    for n in range(1, n_max + 1):
        # keep only trajectories outside some hole
        need = np.zeros(len(idx), dtype=bool)
        for f, (_, _, members) in enumerate(families):
            need |= closest[f, idx] >= min(t for _, t in members)
        idx = idx[need & valid[idx]]
        if len(idx) == 0:
            break
        sid2, phi2, theta2, _, grazing, flights = _step_arrays(
            table, sid[idx], phi[idx], theta[idx])
        sid[idx], phi[idx], theta[idx] = sid2, phi2, theta2
        valid[idx[grazing]] = False
        _approach(families, closest, idx, sid2, phi2, flights)
        tally(n)
    return counts, valid


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
    """Pearson chi-square test of the 24-bin post-collision theta histogram
    against the stationary cos(theta) law: (p, chi2, observed, expected).

    The collision steps run on ``_fork_map``'s workers.  p is the
    regularized upper incomplete gamma Q((bins - 1) / 2, chi2 / 2),
    evaluated in mpmath at 30 digits, so this test loads no scipy."""
    from mpmath import mp

    edges = np.linspace(-math.pi / 2, math.pi / 2, 25)
    runs = _fork_map(_theta_counts, range(-(-samples // _CHUNK)), table, seed,
                     samples, edges)
    observed = sum(counts for counts, _ in runs)
    total = sum(kept for _, kept in runs)
    if observed.sum() != total:
        raise ValueError(f"{total - observed.sum()} of {total} kept "
                         "post-collision angles fell outside the theta bins")
    # bin mass of the cos density: (sin b - sin a) / 2
    expected = (np.sin(edges[1:]) - np.sin(edges[:-1])) / 2.0 * total
    chi2 = float(np.sum((observed.astype(float) - expected) ** 2 / expected))
    with mp.workdps(30):
        p = float(mp.gammainc((len(observed) - 1) / 2, chi2 / 2, mp.inf,
                              regularized=True))
    return p, chi2, observed, expected


def _theta_counts(table, seed, samples, edges, pieces):
    """The histogram over ``edges`` of the post-collision angles of
    ``_flights``, grazing collisions left out, and the number left in."""
    observed = np.zeros(len(edges) - 1, dtype=np.int64)
    total = 0
    for _, _, theta2, _, grazing, _ in _flights(table, seed, samples,
                                                pieces):
        keep = theta2[~grazing]
        observed += np.histogram(keep, bins=edges)[0]
        total += len(keep)
    return observed, total


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
    sector = int(mp.floor(ang * _SECTORS / (2 * mp.pi))) % _SECTORS
    for k in table.sector_copies[sid * _SECTORS + sector]:
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

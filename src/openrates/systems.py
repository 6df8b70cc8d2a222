"""Dynamical systems with holes: maps, hole specifications, survival dynamics.

Phase spaces are the circle [0,1) and the 2-torus [0,1)^2.  All maps reduce
coordinates mod 1 after every step so orbits cannot drift out of the
fundamental domain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

# Orbits passing within this distance of the singularity set are aborted and
# flagged; flagged points are excluded from measure estimates.
SINGULARITY_GUARD = 1e-12

INF = float("inf")


class DomainError(ValueError):
    """Point outside the domain of the map (on or inside the guard band of S)."""


class HoleKindError(ValueError):
    """Hole structure incompatible with the requested operation."""


class TiedClassesError(HoleKindError):
    """Two strongly connected classes share the spectral radius, so the
    dominant Perron vector is not unique."""


# ---------------------------------------------------------------------------
# torus geometry helpers

def _mod1(x):
    """x mod 1 as ``x - floor(x)``, written into ``x`` when it is a float
    array: pass a fresh array (or a scalar, which is copied).

    For every finite x this is the one rounding of the same real number that
    ``x % 1.0`` gives (numpy's fmod, plus 1 where the signs differ), so the
    two agree bit for bit, +0.0 at integers and at -0.0 included, and both
    give NaN at +-inf and NaN; the subtraction costs a fraction of either
    remainder routine.  Private because it is an element-wise kernel of its
    callers: perfbench's tracer wraps public functions, and a span per call
    would cost more than the call."""
    x = np.asarray(x, dtype=float)
    x -= np.floor(x)
    return x


def torus_dist_1d(a, b):
    d = _mod1(np.abs(np.asarray(a) - np.asarray(b)))
    return np.minimum(d, 1.0 - d)


def torus_dist_2d(a, b):
    """Euclidean torus distance over the last axis (length 2), computed in
    place and summed as the two component columns, which is bit for bit
    ``sqrt(sum(d * d, axis=-1))`` without a reduction over that short
    axis."""
    d = np.subtract(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    np.abs(d, out=d)
    _mod1(d)
    np.minimum(d, 1.0 - d, out=d)
    d *= d
    return np.sqrt(d[..., 0] + d[..., 1])


def torus_dist(a, b, dimension):
    return torus_dist_1d(a, b) if dimension == 1 else torus_dist_2d(a, b)


# ---------------------------------------------------------------------------
# map models

def _no_singularities(xs):
    return np.full(len(xs), INF)


def _lebesgue(xs):
    return np.ones(len(xs))


def _constant_derivative(M):
    return lambda xs: np.tile(M, (len(xs), 1, 1))


@dataclass(frozen=True)
class MapModel:
    """An evaluable dynamical system on [0,1) or [0,1)^2.

    Every callable takes an array of N points, shape (N,) on the circle and
    (N, 2) on the torus, and returns one value per point: ``step_many`` the
    images, ``derivative`` the Jacobians as an (N, d, d) array,
    ``singularity_distance`` the distances d(x, S) (inf where S is empty)
    and ``reference_density`` the density of the initial mass distribution
    with respect to Lebesgue (1 for Lebesgue).  The map is defined exactly
    where ``singularity_distance`` is positive.  ``branch_count`` is the
    number of full linear branches of a Markov interval map, else None.
    """

    dimension: int
    step_many: Callable
    derivative: Callable
    singularity_distance: Callable
    reference_density: Callable
    label: str
    branch_count: Optional[int] = None


def adic_map(m: int) -> MapModel:
    """x -> m*x mod 1. Full-branch Markov with constant derivative m."""
    mf = float(m)

    return MapModel(
        dimension=1,
        step_many=lambda xs: _mod1(mf * np.asarray(xs)),
        derivative=_constant_derivative(np.array([[mf]])),
        singularity_distance=_no_singularities,
        reference_density=_lebesgue,
        label=f"{m}-adic",
        branch_count=m,
    )


def doubling_map() -> MapModel:
    return adic_map(2)


def logistic_like(a: float = 3.9) -> MapModel:
    """Non-Markov interval map a*x*(1-x); diagnostics only."""

    def f_many(xs):
        return np.minimum(a * np.asarray(xs) * (1.0 - np.asarray(xs)),
                          np.nextafter(1.0, 0.0))

    def derivative(xs):
        return (a * (1.0 - 2.0 * np.asarray(xs))).reshape(-1, 1, 1)

    return MapModel(
        dimension=1,
        step_many=f_many,
        derivative=derivative,
        singularity_distance=_no_singularities,
        reference_density=_lebesgue,
        label=f"logistic-{a}",
    )


CAT_MATRIX = np.array([[2.0, 1.0], [1.0, 1.0]])


def cat_map() -> MapModel:
    A = CAT_MATRIX

    return MapModel(
        dimension=2,
        step_many=lambda ps: _mod1(np.asarray(ps, dtype=float) @ A.T),
        derivative=_constant_derivative(A),
        singularity_distance=_no_singularities,
        reference_density=_lebesgue,
        label="cat",
    )


def baker_map() -> MapModel:
    def f_many(ps):
        ps = np.asarray(ps, dtype=float)
        x2 = 2.0 * ps[:, 0]
        b = np.floor(x2)
        return np.column_stack([x2 - b, (ps[:, 1] + b) / 2.0])

    return MapModel(
        dimension=2,
        step_many=f_many,
        derivative=_constant_derivative(np.array([[2.0, 0.0], [0.0, 0.5]])),
        singularity_distance=_no_singularities,
        reference_density=_lebesgue,
        label="baker",
    )


MAP_ZOO = {
    "doubling": doubling_map,
    "adic": adic_map,
    "triadic": lambda: adic_map(3),
    "logistic": logistic_like,
    "cat": cat_map,
    "baker": baker_map,
}


# ---------------------------------------------------------------------------
# holes

def _word_interval(word: Sequence[int], base: int):
    """Half-open cylinder interval of a symbolic word in base ``base``."""
    a = 0.0
    scale = 1.0
    for d in word:
        scale /= base
        a += d * scale
    return a, a + scale


def _merge_intervals(intervals):
    ivs = sorted(intervals)
    merged = []
    for a, b in ivs:
        if merged and a <= merged[-1][1] + 1e-15:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


@dataclass(frozen=True)
class HoleSpec:
    """Open subset of phase space with structural metadata.

    Both callables take an array of N points, shape (N,) on the circle and
    (N, 2) on the torus: ``in_hole_many`` returns N booleans and
    ``boundary_distance`` the N distances to the hole boundary (inf for the
    empty hole).  Boundary convention: points exactly on the boundary count
    as *not* in the hole, so estimators are stable under floating-point
    ties.  ``meta`` holds the ``intervals`` of an interval hole, and the
    ``base``, ``level`` and ``words`` of a cylinder hole.
    """

    kind: str
    in_hole_many: Callable
    boundary_distance: Callable
    meta: dict = field(default_factory=dict)


def _interval_hole(intervals, kind, **meta):
    merged = _merge_intervals(intervals)
    lo = np.array([a for a, _ in merged])
    hi = np.array([b for _, b in merged])

    # one whole-array pass per merged interval and per endpoint: reducing
    # an (N, k) array over its short axis k costs an order of magnitude more
    def in_hole_many(xs):
        xs = np.asarray(xs)
        inside = np.zeros(xs.shape, dtype=bool)
        for a, b in zip(lo, hi):
            inside |= (a < xs) & (xs < b)
        return inside

    endpoints = _mod1(np.unique(np.concatenate([lo, hi])))

    def boundary_distance(xs):
        xs = np.asarray(xs, dtype=float)
        dist = np.full(xs.shape, INF)
        for e in endpoints:
            np.minimum(dist, torus_dist_1d(xs, e), out=dist)
        return dist

    return HoleSpec(kind=kind, in_hole_many=in_hole_many,
                    boundary_distance=boundary_distance,
                    meta={"intervals": merged, **meta})


def cylinder_union_hole(base: int, level: int, words) -> HoleSpec:
    """Hole equal to a union of level-``level`` cylinders in base ``base``."""
    words = [tuple(int(c) for c in w) for w in words]
    for w in words:
        if len(w) != level or any(not 0 <= c < base for c in w):
            raise ValueError(f"bad cylinder word {w} for base {base} level {level}")
    intervals = [_word_interval(w, base) for w in words]
    return _interval_hole(intervals, "cylinder_union", base=base, level=level,
                          words=words)


def interval_union_hole(intervals) -> HoleSpec:
    return _interval_hole([(float(a), float(b)) for a, b in intervals],
                          "interval_union")


def ball_hole_2d(center, radius) -> HoleSpec:
    """Open torus ball; the workhorse region hole for 2D maps."""
    c = np.asarray(center, dtype=float)
    r = float(radius)

    def in_hole_many(ps):
        return torus_dist_2d(np.asarray(ps), c[None, :]) < r

    def boundary_distance(ps):
        return np.abs(torus_dist_2d(np.asarray(ps), c[None, :]) - r)

    return HoleSpec(kind="region_2d", in_hole_many=in_hole_many,
                    boundary_distance=boundary_distance)


def empty_hole(dimension: int = 1) -> HoleSpec:
    return HoleSpec(kind="interval_union" if dimension == 1 else "region_2d",
                    in_hole_many=lambda ps: np.zeros(len(ps), dtype=bool),
                    boundary_distance=lambda ps: np.full(len(ps), INF))


# ---------------------------------------------------------------------------
# open systems

@dataclass(frozen=True)
class OpenSystem:
    map: MapModel
    hole: HoleSpec

    @property
    def dimension(self):
        return self.map.dimension


@dataclass
class TrajectoryRecord:
    points: list
    escape_step: Optional[int]
    singularity_hit: Optional[int]


def iterate(sys: OpenSystem, x, n: int) -> TrajectoryRecord:
    """Orbit of x up to n steps, truncated at first entry into the hole or at
    first arrival within the guard band of the singularity set."""
    if n < 0:
        raise ValueError("n must be >= 0")
    cur = np.asarray(x, dtype=float)[None]      # a one-point array
    if sys.map.singularity_distance(cur)[0] <= 0.0:
        raise DomainError(f"{x!r} lies on the singularity set")
    pts = [x]
    if sys.hole.in_hole_many(cur)[0]:
        return TrajectoryRecord(pts, 0, None)
    for i in range(1, n + 1):
        if sys.map.singularity_distance(cur)[0] <= SINGULARITY_GUARD:
            return TrajectoryRecord(pts, None, i - 1)
        cur = sys.map.step_many(cur)
        pts.append(cur[0])
        if sys.hole.in_hole_many(cur)[0]:
            return TrajectoryRecord(pts, i, None)
    return TrajectoryRecord(pts, None, None)


def orbit_tableau(m: MapModel, xs, n: int):
    """f^i x for i = 0..n and every point x of an array: shape
    (n + 1,) + xs.shape."""
    cur = np.asarray(xs, dtype=float)
    out = np.empty((n + 1,) + cur.shape)
    out[0] = cur
    for i in range(1, n + 1):
        cur = m.step_many(cur)
        out[i] = cur
    return out


def survival_time(sys: OpenSystem, x, horizon: int):
    """min{i >= 0 : f^i x in H}, or +inf if no escape within the horizon."""
    rec = iterate(sys, x, horizon)
    if rec.singularity_hit is not None:
        raise DomainError(
            f"orbit of {x!r} hit the singularity guard band at step "
            f"{rec.singularity_hit}")
    return rec.escape_step if rec.escape_step is not None else INF


def _hole_words_at_level(hole: HoleSpec, k: int):
    """Forbidden level-k words: all extensions of the hole's cylinder words."""
    base = hole.meta["base"]
    level = hole.meta["level"]
    if level > k:
        raise HoleKindError(f"hole level {level} exceeds requested level {k}")
    forbidden = set()
    for w in hole.meta["words"]:
        for ext in itertools.product(range(base), repeat=k - level):
            forbidden.add(tuple(w) + ext)
    return forbidden


def word_counts(sys: OpenSystem, k: int, n_max: int):
    """Numbers of surviving n-words for n = k..n_max, in one dynamic program
    over the (k-1)-gram graph.

    Counts are Python ints, so they stay exact beyond 2**53."""
    A, states = survivor_transition_matrix(sys, k)
    if k == 1:
        return [len(states) ** n for n in range(k, n_max + 1)]
    predecessors = [np.flatnonzero(A[:, j]).tolist()
                    for j in range(len(states))]
    v = [1] * len(states)       # one (k-1)-word per gram
    counts = []
    for _ in range(k, n_max + 1):
        v = [sum(map(v.__getitem__, pred)) for pred in predecessors]
        counts.append(sum(v))
    return counts


def survivor_transition_matrix(sys: OpenSystem, k: int):
    """Transition matrix of the survivor subshift on (k-1)-grams.

    Every gram is a state, also one that no bi-infinite survivor word
    passes through; ``perron`` restricts to the dominant class.  For k = 1
    the states are the allowed symbols with full transitions.
    Returns (matrix, state list).
    """
    m = sys.map.branch_count
    if m is None:
        raise HoleKindError("map is not Markov with a symbolic branch structure")
    if sys.hole.kind != "cylinder_union":
        raise HoleKindError("hole is not a cylinder union")
    if sys.hole.meta["base"] != m:
        raise HoleKindError("hole cylinder base does not match map branch count")
    forbidden = _hole_words_at_level(sys.hole, k)
    if k == 1:
        states = [(c,) for c in range(m) if (c,) not in forbidden]
        A = np.ones((len(states), len(states)))
        return A, states
    states = list(itertools.product(range(m), repeat=k - 1))
    index = {g: i for i, g in enumerate(states)}
    A = np.zeros((len(states), len(states)))
    for g in states:
        for c in range(m):
            w = g + (c,)
            if w not in forbidden:
                A[index[g], index[w[1:]]] = 1.0
    return A, states


def _leading(M):
    # eigenvalue of largest real part: a periodic class has others of the
    # same modulus
    evals, evecs = np.linalg.eig(M)
    i = int(np.argmax(np.real(evals)))
    vec = np.real(evecs[:, i])
    return float(np.real(evals[i])), vec if vec.sum() > 0 else -vec


def _cyclic_classes(A):
    """(Perron root, right Perron vector, indices, submatrix) of each
    strongly connected class (set of mutually reachable states) of the
    nonnegative matrix ``A`` that carries a cycle, largest root first.
    Raises HoleKindError when there is none (an empty subshift)."""
    A = np.asarray(A, dtype=float)
    # classes from the transitive closure; importing scipy.sparse.csgraph
    # would pull scipy.linalg into every process (measured 11 MB of peak
    # RSS and 0.1 s of import on a 2-core x86 VM)
    reach = A > 0
    while True:
        closure = reach | (reach.astype(float) @ reach.astype(float) > 0)
        if np.array_equal(closure, reach):
            break
        reach = closure
    classes = []
    for cls in np.unique(reach & reach.T | np.eye(len(A), dtype=bool),
                         axis=0):
        idx = np.flatnonzero(cls)
        sub = A[np.ix_(idx, idx)]
        if sub.any():
            classes.append((*_leading(sub), idx, sub))
    if not classes:
        raise HoleKindError(
            "survivor subshift is empty: no strongly connected class "
            "carries a cycle")
    classes.sort(key=lambda c: -c[0])
    return classes


def spectral_radius(A) -> float:
    """Spectral radius of a nonnegative matrix: the largest Perron root
    over its cyclic classes, whether or not another class ties with it."""
    return _cyclic_classes(A)[0][0]


def perron(A):
    """Perron root and vectors of the unique dominant strongly connected
    class of a nonnegative matrix.

    Returns (root, right, left): the right and left Perron vectors of the
    dominant class, strictly positive on it and zero elsewhere, in the state
    order of ``A``.  Raises HoleKindError when no class carries a cycle (an
    empty subshift) or when two classes tie within a relative 1e-12.
    """
    classes = _cyclic_classes(A)
    lam, u, idx, sub = classes[0]
    if len(classes) > 1 and classes[1][0] >= lam * (1.0 - 1e-12):
        raise TiedClassesError(
            f"two strongly connected classes tie at spectral radius {lam!r}: "
            "no unique Perron vector, hence no Parry chain with finite "
            "entries")
    _, v = _leading(sub.T)
    if not (np.all(u > 0) and np.all(v > 0)):
        raise HoleKindError("Perron vector of the dominant class is not "
                            "strictly positive")
    right, left = np.zeros((2, len(A)))
    right[idx] = u
    left[idx] = v
    return lam, right, left


def doob_chain(A):
    """Doob transform P_ij = A_ij u_j / (lam u_i) of a nonnegative matrix on
    its dominant class, with stationary law pi ~ left * right Perron vector.
    Returns (class indices into ``A``, transition matrix, stationary)."""
    lam, u, v = perron(A)
    idx = np.flatnonzero(u)
    A, u, v = A[np.ix_(idx, idx)], u[idx], v[idx]
    P = A * u[None, :] / (lam * u[:, None])
    P = P / P.sum(axis=1, keepdims=True)
    pi = v * u
    pi = pi / pi.sum()
    return idx, P, pi


def parry_chain(sys: OpenSystem, k: int):
    """Maximal-entropy Markov chain of the survivor subshift.

    For constant-slope Markov maps with cylinder holes this chain generates
    the survivor-set invariant measure (the symbolic form of the left-right
    eigenvector product).  It lives on the dominant strongly connected
    class.  Returns (states, transition matrix, stationary).
    """
    A, states = survivor_transition_matrix(sys, k)
    idx, P, pi = doob_chain(A)
    return [states[i] for i in idx], P, pi


def sample_survivor_points(sys: OpenSystem, k: int, size: int,
                           rng: np.random.Generator):
    """Draw points of the survivor set distributed by the Parry chain.

    Streams of 60 symbols of the survivor subshift are decoded to base-m
    reals, so the samples lie on the survivor set to machine precision.
    """
    m = sys.map.branch_count
    states, P, pi = parry_chain(sys, k)
    nstate = len(states)
    cum_pi = np.cumsum(pi)
    cum_P = np.cumsum(P, axis=1)
    state = np.searchsorted(cum_pi, rng.random(size))
    xs = np.zeros(size)
    scale = 1.0
    # emit the first symbol of each (k-1)-gram state, then walk the chain
    first_symbol = np.array([s[0] for s in states])
    for _ in range(60):
        scale /= m
        xs += first_symbol[state] * scale
        u = rng.random(size)
        state = (cum_P[state] < u[:, None]).sum(axis=1)
        state = np.minimum(state, nstate - 1)
    return xs


# ---------------------------------------------------------------------------
# vectorized survival evolution (shared by Monte Carlo estimators)

def evolve_survivors(sys: OpenSystem, pts, n_max: int):
    """Vectorized open-dynamics evolution of a point cloud.

    Returns (survival_counts[0..n_max], flagged_count, final_alive_points).
    survival_counts[n] = number of points in M^n among the unflagged ones.
    """
    pts = np.asarray(pts, dtype=float)
    alive = ~sys.hole.in_hole_many(pts)
    flagged = 0
    counts = np.empty(n_max + 1, dtype=np.int64)
    counts[0] = int(np.count_nonzero(alive))
    cur = pts[alive]
    for n in range(1, n_max + 1):
        if len(cur) == 0:
            counts[n:] = 0
            break
        ok = sys.map.singularity_distance(cur) > SINGULARITY_GUARD
        if not ok.all():
            flagged += int(np.count_nonzero(~ok))
            cur = cur[ok]
        cur = sys.map.step_many(cur)
        inh = sys.hole.in_hole_many(cur)
        cur = cur[~inh]
        counts[n] = len(cur)
    return counts, flagged, cur


# ---------------------------------------------------------------------------
# JSON construction

_MAP_SCHEMAS = {
    "doubling": set(),
    "adic": {"m"},
    "triadic": set(),
    "logistic": {"a"},
    "cat": set(),
    "baker": set(),
}

_HOLE_SCHEMAS = {
    "cylinder_union": {"base", "level", "words"},
    "interval_union": {"intervals"},
    "region_2d": {"shape", "center", "radius"},
    "empty": {"dimension"},
}


def _reject_unknown(d: dict, allowed, where: str):
    """Check that ``d`` is a JSON object holding only ``allowed`` keys."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in {where}")


def _is_number(x, integer: bool = False) -> bool:
    """True for a JSON number that is not a boolean (integral: ``integer``)."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and (not integer or float(x).is_integer()))


def _is_numbers(x, length=None, integer: bool = False) -> bool:
    """True for a JSON array of numbers, of ``length`` of them if given."""
    return (isinstance(x, list) and length in (None, len(x))
            and all(_is_number(v, integer) for v in x))


def _lookup(table: dict, key, what: str):
    """``table[key]`` for a string ``key``, else a ValueError naming
    ``what``."""
    if not isinstance(key, str) or key not in table:
        raise ValueError(f"unknown {what} {key!r}")
    return table[key]


def map_from_config(cfg: dict) -> MapModel:
    _reject_unknown(cfg, {"name", "params"}, "map config")
    name = cfg["name"]
    params = cfg.get("params", {})
    _reject_unknown(params, _lookup(_MAP_SCHEMAS, name, "map"),
                    f"map params for {name}")
    if not _is_numbers(list(params.values())):
        raise ValueError(f"map params for {name} must be numbers")
    if name == "adic":
        return adic_map(int(params["m"]))
    if name == "logistic":
        return logistic_like(float(params.get("a", 3.9)))
    return MAP_ZOO[name]()


def hole_from_config(cfg: dict) -> HoleSpec:
    _reject_unknown(cfg, {"kind"}.union(*_HOLE_SCHEMAS.values()),
                    "hole config")
    kind = cfg.get("kind")
    _reject_unknown(cfg, {"kind", *_lookup(_HOLE_SCHEMAS, kind, "hole kind")},
                    f"hole config for {kind}")
    if kind == "cylinder_union":
        if not _is_numbers([cfg["base"], cfg["level"]], integer=True):
            raise ValueError("hole base and level must be integers")
        if not (isinstance(cfg["words"], list) and all(
                _is_numbers(w, integer=True) for w in cfg["words"])):
            raise ValueError("hole words must be an array of integer arrays")
        return cylinder_union_hole(int(cfg["base"]), int(cfg["level"]),
                                   cfg["words"])
    if kind == "interval_union":
        if not (isinstance(cfg["intervals"], list) and all(
                _is_numbers(iv, 2) for iv in cfg["intervals"])):
            raise ValueError(
                "hole intervals must be an array of [a, b] number pairs")
        return interval_union_hole(cfg["intervals"])
    if kind == "region_2d":
        if cfg.get("shape", "ball") != "ball":
            raise ValueError("only ball-shaped region_2d holes are supported")
        if not (_is_numbers(cfg["center"], 2) and _is_number(cfg["radius"])):
            raise ValueError(
                "hole center must be two numbers and hole radius a number")
        if not cfg["radius"] > 0:
            raise ValueError("hole radius must be positive")
        return ball_hole_2d(cfg["center"], cfg["radius"])
    if cfg.get("dimension", 1) not in (1, 2):
        raise ValueError("hole dimension must be 1 or 2")
    return empty_hole(int(cfg.get("dimension", 1)))


def system_from_config(cfg: dict) -> OpenSystem:
    _reject_unknown(cfg, {"map", "hole"}, "system config")
    return OpenSystem(map=map_from_config(cfg["map"]),
                      hole=hole_from_config(cfg["hole"]))

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


# ---------------------------------------------------------------------------
# torus geometry helpers

def torus_dist_1d(a, b):
    d = np.abs(np.asarray(a) - np.asarray(b)) % 1.0
    return np.minimum(d, 1.0 - d)


def torus_dist_2d(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = np.abs(a - b) % 1.0
    d = np.minimum(d, 1.0 - d)
    return np.sqrt(np.sum(d * d, axis=-1))


def torus_dist(a, b, dimension):
    return torus_dist_1d(a, b) if dimension == 1 else torus_dist_2d(a, b)


# ---------------------------------------------------------------------------
# map models

@dataclass(frozen=True)
class MapModel:
    """An evaluable dynamical system on [0,1) or [0,1)^2.

    ``evaluate`` is partial: it is defined exactly where
    ``singularity_distance`` is positive.  ``reference_density`` is the density
    of the initial mass distribution with respect to Lebesgue (1 for Lebesgue).
    """

    dimension: int
    evaluate: Callable
    derivative: Callable
    singularity_distance: Callable
    reference_density: Callable
    label: str
    evaluate_many: Callable
    meta: dict = field(default_factory=dict)

    def step_many(self, pts):
        return self.evaluate_many(pts)


def adic_map(m: int) -> MapModel:
    """x -> m*x mod 1. Full-branch Markov with constant derivative m."""
    mf = float(m)

    return MapModel(
        dimension=1,
        evaluate=lambda x: (mf * x) % 1.0,
        derivative=lambda x: np.array([[mf]]),
        singularity_distance=lambda x: INF,
        reference_density=lambda x: 1.0,
        label=f"{m}-adic",
        evaluate_many=lambda xs: (mf * np.asarray(xs)) % 1.0,
        meta={"branch_count": m, "piecewise_linear": True, "markov": True},
    )


def doubling_map() -> MapModel:
    return adic_map(2)


def logistic_like(a: float = 3.9) -> MapModel:
    """Non-Markov interval map a*x*(1-x); diagnostics only."""

    def f(x):
        return min(a * x * (1.0 - x), np.nextafter(1.0, 0.0))

    def f_many(xs):
        return np.minimum(a * np.asarray(xs) * (1.0 - np.asarray(xs)),
                          np.nextafter(1.0, 0.0))

    return MapModel(
        dimension=1,
        evaluate=f,
        derivative=lambda x: np.array([[a * (1.0 - 2.0 * x)]]),
        singularity_distance=lambda x: INF,
        reference_density=lambda x: 1.0,
        label=f"logistic-{a}",
        evaluate_many=f_many,
        meta={"piecewise_linear": False, "markov": False},
    )


CAT_MATRIX = np.array([[2.0, 1.0], [1.0, 1.0]])


def cat_map() -> MapModel:
    A = CAT_MATRIX

    return MapModel(
        dimension=2,
        evaluate=lambda p: (A @ np.asarray(p, dtype=float)) % 1.0,
        derivative=lambda p: A.copy(),
        singularity_distance=lambda p: INF,
        reference_density=lambda p: 1.0,
        label="cat",
        evaluate_many=lambda ps: (np.asarray(ps, dtype=float) @ A.T) % 1.0,
        meta={"piecewise_linear": True, "markov": False, "matrix": A},
    )


def baker_map() -> MapModel:
    def f(p):
        x, y = p
        b = np.floor(2.0 * x)
        return np.array([(2.0 * x) % 1.0, (y + b) / 2.0])

    def f_many(ps):
        ps = np.asarray(ps, dtype=float)
        b = np.floor(2.0 * ps[:, 0])
        return np.column_stack([(2.0 * ps[:, 0]) % 1.0, (ps[:, 1] + b) / 2.0])

    def deriv(p):
        return np.array([[2.0, 0.0], [0.0, 0.5]])

    return MapModel(
        dimension=2,
        evaluate=f,
        derivative=deriv,
        singularity_distance=lambda p: INF,
        reference_density=lambda p: 1.0,
        label="baker",
        evaluate_many=f_many,
        meta={"piecewise_linear": True, "markov": False},
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

    Boundary convention: points exactly on the boundary count as *not* in the
    hole, so estimators are stable under floating-point ties.
    ``boundary_distance_many`` maps an array of points to the array of their
    ``boundary_distance`` values, bit for bit.
    """

    kind: str
    contains: Callable
    boundary_distance: Callable
    boundary_distance_many: Callable
    contains_many: Callable
    meta: dict = field(default_factory=dict)

    def in_hole_many(self, pts):
        return self.contains_many(pts)


def _interval_hole(intervals, kind, extra_meta=None):
    merged = _merge_intervals(intervals)
    lo = np.array([a for a, _ in merged])
    hi = np.array([b for _, b in merged])

    def contains(x):
        return bool(np.any((lo < x) & (x < hi)))

    def contains_many(xs):
        xs = np.asarray(xs)
        return np.any((lo[None, :] < xs[:, None]) & (xs[:, None] < hi[None, :]),
                      axis=1)

    endpoints = np.unique(np.concatenate([lo, hi])) % 1.0

    def boundary_distance(x):
        return float(np.min(torus_dist_1d(x, endpoints)))

    def boundary_distance_many(xs):
        xs = np.asarray(xs, dtype=float)
        return np.min(torus_dist_1d(xs[:, None], endpoints[None, :]), axis=1)

    meta = {"intervals": merged}
    if extra_meta:
        meta.update(extra_meta)
    return HoleSpec(kind=kind, contains=contains,
                    boundary_distance=boundary_distance, meta=meta,
                    contains_many=contains_many,
                    boundary_distance_many=boundary_distance_many)


def cylinder_union_hole(base: int, level: int, words) -> HoleSpec:
    """Hole equal to a union of level-``level`` cylinders in base ``base``."""
    words = [tuple(int(c) for c in w) for w in words]
    for w in words:
        if len(w) != level or any(not 0 <= c < base for c in w):
            raise ValueError(f"bad cylinder word {w} for base {base} level {level}")
    intervals = [_word_interval(w, base) for w in words]
    return _interval_hole(intervals, "cylinder_union",
                          {"base": base, "level": level, "words": words})


def interval_union_hole(intervals) -> HoleSpec:
    return _interval_hole([(float(a), float(b)) for a, b in intervals],
                          "interval_union")


def region_2d_hole(predicate, boundary_distance, boundary_distance_many,
                   predicate_many, meta=None) -> HoleSpec:
    return HoleSpec(kind="region_2d", contains=predicate,
                    boundary_distance=boundary_distance,
                    meta=meta or {}, contains_many=predicate_many,
                    boundary_distance_many=boundary_distance_many)


def ball_hole_2d(center, radius) -> HoleSpec:
    """Open torus ball; the workhorse region hole for 2D maps."""
    c = np.asarray(center, dtype=float)
    r = float(radius)

    def contains(p):
        return bool(torus_dist_2d(p, c) < r)

    def contains_many(ps):
        return torus_dist_2d(np.asarray(ps), c[None, :]) < r

    def boundary_distance(p):
        return abs(float(torus_dist_2d(p, c)) - r)

    def boundary_distance_many(ps):
        return np.abs(torus_dist_2d(np.asarray(ps), c[None, :]) - r)

    return region_2d_hole(contains, boundary_distance, boundary_distance_many,
                          contains_many,
                          meta={"shape": "ball", "center": tuple(c), "radius": r})


def empty_hole(dimension: int = 1) -> HoleSpec:
    contains_many = (lambda ps: np.zeros(len(ps), dtype=bool))
    return HoleSpec(kind="interval_union" if dimension == 1 else "region_2d",
                    contains=lambda p: False,
                    boundary_distance=lambda p: INF,
                    meta={"empty": True, "intervals": []},
                    contains_many=contains_many,
                    boundary_distance_many=lambda ps: np.full(len(ps), INF))


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
    if sys.map.singularity_distance(x) <= 0.0:
        raise DomainError(f"{x!r} lies on the singularity set")
    pts = [x]
    if sys.hole.contains(x):
        return TrajectoryRecord(pts, 0, None)
    cur = x
    for i in range(1, n + 1):
        if sys.map.singularity_distance(cur) <= SINGULARITY_GUARD:
            return TrajectoryRecord(pts, None, i - 1)
        cur = sys.map.evaluate(cur)
        pts.append(cur)
        if sys.hole.contains(cur):
            return TrajectoryRecord(pts, i, None)
    return TrajectoryRecord(pts, None, None)


def survival_time(sys: OpenSystem, x, horizon: int):
    """min{i >= 0 : f^i x in H}, or +inf if no escape within the horizon."""
    rec = iterate(sys, x, horizon)
    if rec.singularity_hit is not None:
        raise DomainError(
            f"orbit of {x!r} hit the singularity guard band at step "
            f"{rec.singularity_hit}")
    return rec.escape_step if rec.escape_step is not None else INF

def survivor_indicator(sys: OpenSystem, x, n: int) -> bool:
    """True iff f^i x avoids the hole for 0 <= i <= n (x in M^n)."""
    return survival_time(sys, x, n) > n


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


def _check_markov_words_pre(sys: OpenSystem, k: int):
    m = sys.map.meta.get("branch_count")
    if m is None or not sys.map.meta.get("markov"):
        raise HoleKindError("map is not Markov with a symbolic branch structure")
    if sys.hole.kind != "cylinder_union":
        raise HoleKindError("hole is not a cylinder union")
    if sys.hole.meta["base"] != m:
        raise HoleKindError("hole cylinder base does not match map branch count")
    return m


def markov_words(sys: OpenSystem, k: int, n: int, count_only: bool = False):
    """Surviving symbolic n-words for a Markov map with a cylinder-union hole.

    A word survives iff none of its length-k factors is a hole word.  With
    ``count_only`` the count is an exact integer from ``word_counts``.
    """
    m = _check_markov_words_pre(sys, k)
    if n < k:
        raise ValueError(f"need word length n >= hole level k (got {n} < {k})")
    if count_only:
        return word_counts(sys, k, n)[-1]
    forbidden = _hole_words_at_level(sys.hole, k)

    words = []

    def extend(prefix):
        if len(prefix) >= k and prefix[-k:] in forbidden:
            return
        if len(prefix) == n:
            words.append(prefix)
            return
        for c in range(m):
            extend(prefix + (c,))

    extend(())
    return words


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
    m = _check_markov_words_pre(sys, k)
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


def perron(A):
    """Perron root and vectors of the unique dominant strongly connected
    class of a nonnegative matrix.

    The spectral radius is the largest Perron root over the strongly
    connected classes (sets of mutually reachable states) that carry a
    cycle.  Returns (root, right, left): the right and left Perron vectors
    of the dominant class, strictly positive on it and zero elsewhere, in
    the state order of ``A``.  Raises HoleKindError when no class carries a
    cycle (an empty subshift) or when two classes tie within a relative
    1e-12.
    """
    A = np.asarray(A, dtype=float)

    def leading(M):
        # eigenvalue of largest real part: a periodic class has others of
        # the same modulus
        evals, evecs = np.linalg.eig(M)
        i = int(np.argmax(np.real(evals)))
        vec = np.real(evecs[:, i])
        return float(np.real(evals[i])), vec if vec.sum() > 0 else -vec

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
            classes.append((*leading(sub), idx, sub))
    if not classes:
        raise HoleKindError(
            "survivor subshift is empty: no strongly connected class "
            "carries a cycle")
    classes.sort(key=lambda c: -c[0])
    lam, u, idx, sub = classes[0]
    if len(classes) > 1 and classes[1][0] >= lam * (1.0 - 1e-12):
        raise HoleKindError(
            f"two strongly connected classes tie at spectral radius {lam!r}: "
            "no unique Perron vector, hence no Parry chain with finite "
            "entries")
    _, v = leading(sub.T)
    if not (np.all(u > 0) and np.all(v > 0)):
        raise HoleKindError("Perron vector of the dominant class is not "
                            "strictly positive")
    right, left = np.zeros((2, len(A)))
    right[idx] = u
    left[idx] = v
    return lam, right, left


def parry_chain(sys: OpenSystem, k: int):
    """Maximal-entropy Markov chain of the survivor subshift.

    For constant-slope Markov maps with cylinder holes this chain generates
    the survivor-set invariant measure (the symbolic form of the left-right
    eigenvector product).  It lives on the dominant strongly connected
    class.  Returns (states, transition matrix, stationary).
    """
    A, states = survivor_transition_matrix(sys, k)
    lam, u, v = perron(A)
    idx = np.flatnonzero(u)
    A, u, v = A[np.ix_(idx, idx)], u[idx], v[idx]
    P = A * u[None, :] / (lam * u[:, None])
    P = P / P.sum(axis=1, keepdims=True)
    pi = v * u
    pi = pi / pi.sum()
    return [states[i] for i in idx], P, pi


def sample_survivor_points(sys: OpenSystem, k: int, size: int,
                           rng: np.random.Generator, digits: int = 60):
    """Draw points of the survivor set distributed by the Parry chain.

    Symbol streams of the survivor subshift are decoded to base-m reals, so
    the samples lie on the survivor set to machine precision.
    """
    m = sys.map.meta["branch_count"]
    states, P, pi = parry_chain(sys, k)
    nstate = len(states)
    cum_pi = np.cumsum(pi)
    cum_P = np.cumsum(P, axis=1)
    state = np.searchsorted(cum_pi, rng.random(size))
    xs = np.zeros(size)
    scale = 1.0
    # emit the first symbol of each (k-1)-gram state, then walk the chain
    first_symbol = np.array([s[0] for s in states])
    for _ in range(digits):
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
    npts = len(pts)
    alive = ~sys.hole.in_hole_many(pts)
    flagged = 0
    counts = np.empty(n_max + 1, dtype=np.int64)
    counts[0] = int(np.count_nonzero(alive))
    cur = pts[alive]
    for n in range(1, n_max + 1):
        if len(cur) == 0:
            counts[n:] = 0
            break
        sd = np.array([sys.map.singularity_distance(p) for p in cur]) \
            if np.isfinite(sys.map.singularity_distance(cur[0])) else None
        if sd is not None:
            ok = sd > SINGULARITY_GUARD
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
    unknown = set(d) - set(allowed)
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in {where}")


def map_from_config(cfg: dict) -> MapModel:
    _reject_unknown(cfg, {"name", "params"}, "map config")
    name = cfg["name"]
    params = cfg.get("params", {})
    if name not in _MAP_SCHEMAS:
        raise ValueError(f"unknown map {name!r}")
    _reject_unknown(params, _MAP_SCHEMAS[name], f"map params for {name}")
    if name == "adic":
        return adic_map(int(params["m"]))
    if name == "logistic":
        return logistic_like(float(params.get("a", 3.9)))
    return MAP_ZOO[name]()


def hole_from_config(cfg: dict) -> HoleSpec:
    kind = cfg.get("kind")
    if kind not in _HOLE_SCHEMAS:
        raise ValueError(f"unknown hole kind {kind!r}")
    body = {k: v for k, v in cfg.items() if k != "kind"}
    _reject_unknown(body, _HOLE_SCHEMAS[kind], f"hole config for {kind}")
    if kind == "cylinder_union":
        return cylinder_union_hole(int(body["base"]), int(body["level"]),
                                   body["words"])
    if kind == "interval_union":
        return interval_union_hole(body["intervals"])
    if kind == "region_2d":
        if body.get("shape", "ball") != "ball":
            raise ValueError("only ball-shaped region_2d holes are supported")
        return ball_hole_2d(body["center"], body["radius"])
    return empty_hole(int(body.get("dimension", 1)))


def system_from_config(cfg: dict) -> OpenSystem:
    _reject_unknown(cfg, {"map", "hole"}, "system config")
    return OpenSystem(map=map_from_config(cfg["map"]),
                      hole=hole_from_config(cfg["hole"]))

"""Dynamical systems with holes: maps, hole specifications, survival dynamics.

Phase spaces are the circle [0,1) and the 2-torus [0,1)^2.  All maps reduce
coordinates mod 1 after every step so orbits cannot drift out of the
fundamental domain.
"""

from __future__ import annotations

import math
import os
import pickle
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


class EstimatorError(RuntimeError):
    """An estimator that cannot give a trustworthy number for its input:
    the base of the failures ``or-verify`` reports as one error line."""


class ConvergenceError(EstimatorError):
    pass


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
    """Euclidean torus distance over the last axis (length 2), one pass per
    coordinate, which is bit for bit ``sqrt(sum(d * d, axis=-1))`` without
    numpy's length-2 inner loops over that short axis."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    sq = []
    for i in (0, 1):
        # a 0-d difference (one point) comes back as a scalar
        d = np.asarray(np.subtract(a[..., i], b[..., i]))
        np.abs(d, out=d)
        _mod1(d)
        np.minimum(d, 1.0 - d, out=d)
        sq.append(np.square(d, out=d))
    return np.sqrt(sq[0] + sq[1])


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
    branch_count: Optional[int] = None


def adic_map(m: int) -> MapModel:
    """x -> m*x mod 1. Full-branch Markov with constant derivative m."""
    if not m >= 2:
        raise ValueError(f"adic map needs m >= 2, got {m!r}")
    mf = float(m)

    return MapModel(
        dimension=1,
        step_many=lambda xs: _mod1(mf * np.asarray(xs)),
        derivative=_constant_derivative(np.array([[mf]])),
        singularity_distance=_no_singularities,
        reference_density=_lebesgue,
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
    )


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
    """Union of the open intervals (a, b), each with 0 <= a <= b <= 1."""
    intervals = [(float(a), float(b)) for a, b in intervals]
    for a, b in intervals:
        if not 0.0 <= a <= b <= 1.0:
            raise ValueError(f"hole interval {[a, b]} must satisfy "
                             "0 <= a <= b <= 1")
    return _interval_hole(intervals, "interval_union")


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
    """min{i >= 0 : f^i x in H}, or +inf if no escape within the horizon.

    The orbit runs as a one-point cloud of ``evolve_survivors``; a start on
    S, or an orbit that reaches the guard band of S first, raises
    DomainError."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    pt = np.asarray(x, dtype=float)[None]
    if sys.map.singularity_distance(pt)[0] <= 0.0:
        raise DomainError(f"{x!r} lies on the singularity set")
    counts, flagged, _ = evolve_survivors(sys, pt, horizon)
    if flagged:     # it counts at no step: find its first guard-band point
        orbit = orbit_tableau(sys.map, pt, horizon - 1)[:, 0]
        band = sys.map.singularity_distance(orbit) <= SINGULARITY_GUARD
        raise DomainError(
            f"orbit of {x!r} hit the singularity guard band at step "
            f"{int(np.argmax(band))}")
    # counts is 1 up to the step the point leaves, 0 from there on
    steps = int(np.count_nonzero(counts))
    return steps if steps <= horizon else INF


def nonhole_cells(sys: OpenSystem, n: int):
    """Indices of the cells of the uniform n-grid on [0,1) whose centre lies
    outside the hole."""
    centers = (np.arange(n) + 0.5) / n
    return np.flatnonzero(~sys.hole.in_hole_many(centers))


def survivor_graph(sys: OpenSystem, k: int):
    """The survivor subshift as a graph on the (k-1)-grams, each numbered
    by its base-m digits.

    The non-hole cells of the m^k grid are the surviving k-words, those that
    extend no hole word, and the word w is the edge from gram w // m to gram
    w % m^(k-1).  Every gram is a node, also one that no bi-infinite
    survivor word passes through.  At k = 1 the one (empty) gram carries a
    loop per allowed symbol.  Returns (node count, sources, targets).
    """
    m = sys.map.branch_count
    if m is None:
        raise HoleKindError("map is not Markov with a symbolic branch structure")
    if sys.hole.kind != "cylinder_union":
        raise HoleKindError("hole is not a cylinder union")
    if sys.hole.meta["base"] != m:
        raise HoleKindError("hole cylinder base does not match map branch count")
    level = sys.hole.meta["level"]
    if level > k:
        raise HoleKindError(f"hole level {level} exceeds requested level {k}")
    words = nonhole_cells(sys, m ** k)
    return m ** (k - 1), words // m, words % m ** (k - 1)


def word_counts(sys: OpenSystem, k: int, n_max: int):
    """Numbers of surviving n-words for n = k..n_max, in one dynamic program
    over the (level-1)-gram graph of the hole level.

    An n-word survives when none of its level-windows is a hole word, which
    does not depend on k, so a k above the level only drops the shortest
    counts.  Counts are Python ints, so they stay exact beyond 2**53."""
    g = min(k, sys.hole.meta.get("level", k))   # survivor_graph checks k
    n, src, dst = survivor_graph(sys, g)
    predecessors = [[] for _ in range(n)]
    for s, d in zip(src.tolist(), dst.tolist()):
        predecessors[d].append(s)
    v = [1] * n                 # one (g-1)-word per gram
    counts = []
    for _ in range(g, n_max + 1):
        v = [sum(map(v.__getitem__, pred)) for pred in predecessors]
        counts.append(sum(v))
    return counts[k - g:]


# Classes come from an iterative Tarjan in Python, not scipy.sparse.csgraph:
# on a 2-core x86 VM, importing scipy.sparse lifts a process that has
# imported openrates.cli from 34.1 MB to 49.4 MB of peak RSS, and csgraph to
# 60.8 MB, while the words route, the Parry chain and the tower load no scipy.
def _find_classes(n: int, src, dst):
    """(sorted node indices, period) of each strongly connected class (set
    of mutually reachable nodes) of the graph on nodes 0..n-1 with edges
    src -> dst that carries a cycle.  Raises HoleKindError when there is
    none (an empty subshift).

    The period is the gcd of depth(u) + 1 - depth(v) over the class's edges
    u -> v, for depths along any spanning tree of the class: here the
    depth-first tree, of which each class is a subtree."""
    order = np.argsort(src, kind="stable")
    succ = dst[order].tolist()
    ptr = np.searchsorted(src[order], np.arange(n + 1)).tolist()
    index, low, depth, comp = [-1] * n, [0] * n, [0] * n, [-1] * n
    stack, seen = [], 0
    for root in range(n):
        path = [[root, ptr[root]]] if index[root] < 0 else []
        while path:                     # depth-first path: node, next edge
            v, e = path[-1]
            if index[v] < 0:
                index[v] = low[v] = seen
                seen += 1
                depth[v] = len(path) - 1
                stack.append(v)
            if e < ptr[v + 1]:
                path[-1][1] = e + 1
                w = succ[e]
                if index[w] < 0:
                    path.append([w, ptr[w]])
                elif comp[w] < 0:       # w is still on the stack
                    low[v] = min(low[v], index[w])
                continue
            path.pop()
            if path:
                u = path[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:      # v roots a class: label it by v
                while comp[v] < 0:
                    comp[stack.pop()] = v
    comp, depth = np.array(comp), np.array(depth)
    inner = comp[src] == comp[dst]
    cls = comp[src][inner]
    gaps = np.abs(depth[src] + 1 - depth[dst])[inner]
    classes = [(np.flatnonzero(comp == c), math.gcd(*gaps[cls == c].tolist()))
               for c in np.unique(cls)]
    if not classes:
        raise HoleKindError(
            "survivor subshift is empty: no strongly connected class "
            "carries a cycle")
    return classes


def _power_iterate(apply_op, v0, max_iters, tol):
    """Power iteration from ``v0`` with 1-norm normalization; returns the
    eigenvalue, the iterate, the iteration count and each iteration's L1
    residual |w - v|_1.  Stops once residual * eigenvalue < tol, or, below
    1e-13, once the eigenvalue repeats: the roundoff floor."""
    v = v0 / np.sum(np.abs(v0))
    residuals = []
    last = None
    for it in range(1, max_iters + 1):
        w = apply_op(v)
        lam = float(np.sum(np.abs(w)))
        if not math.isfinite(lam):
            raise ConvergenceError(
                f"power iterate became non-finite at iteration {it} "
                f"(1-norm {lam})")
        if lam == 0.0:
            raise ConvergenceError("operator annihilated the iterate")
        w = w / lam
        res = float(np.sum(np.abs(w - v)))
        residuals.append(res)
        v = w
        if res * lam < tol or res * lam < 1e-13 and lam == last:
            return lam, v, it, residuals
        last = lam
    raise ConvergenceError(
        f"no convergence after {max_iters} iterations (gap failure or "
        "eigenvalue near-degeneracy)")


def graph_radius(n: int, src, dst) -> float:
    """Spectral radius of the adjacency matrix of the graph on nodes
    0..n-1 with edges src -> dst (repeated edges add up): the largest root
    over its cyclic classes, whether or not another class ties with it.

    Each root is a power iteration restricted to its class, run to the
    roundoff floor; a class of period p iterates the p-th power, whose
    root is the p-th power of the class's."""
    roots = []
    for idx, p in _find_classes(n, src, dst):
        inner = np.isin(src, idx) & np.isin(dst, idx)
        s, d = (np.searchsorted(idx, x[inner]) for x in (src, dst))

        def step(v):
            for _ in range(p):
                v = np.bincount(d, weights=v[s], minlength=len(idx))
            return v

        lam = _power_iterate(step, np.ones(len(idx)), 200_000, 1e-15)[0]
        roots.append(lam ** (1.0 / p))
    return max(roots)


def _leading(M):
    # eigenvalue of largest real part: a periodic class has others of the
    # same modulus
    evals, evecs = np.linalg.eig(M)
    i = int(np.argmax(np.real(evals)))
    vec = np.real(evecs[:, i])
    return float(np.real(evals[i])), vec if vec.sum() > 0 else -vec


def _cyclic_classes(A):
    """(Perron root, right Perron vector, indices, submatrix) of each
    strongly connected class of the nonnegative matrix ``A`` that carries
    a cycle, largest root first.  Raises HoleKindError when there is none
    (an empty subshift)."""
    A = np.asarray(A, dtype=float)
    classes = []
    for idx, _ in _find_classes(len(A), *np.nonzero(A)):
        sub = A[np.ix_(idx, idx)]
        classes.append((*_leading(sub), idx, sub))
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
    n, src, dst = survivor_graph(sys, k)
    if k == 1:
        # the states are the symbols: in the k = 2 graph the allowed ones
        # form the dominant class, every one followed by every one
        n, src, dst = survivor_graph(sys, 2)
    A = np.zeros((n, n))
    A[src, dst] = 1.0
    idx, P, pi = doob_chain(A)
    grams = np.unravel_index(idx, (sys.map.branch_count,) * max(k - 1, 1))
    return list(zip(*(g.tolist() for g in grams))), P, pi


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
        # the next state counts the cumulative probabilities below u
        nxt = np.zeros(size, dtype=np.intp)
        for col in cum_P.T:
            nxt += col[state] < u
        state = np.minimum(nxt, nstate - 1)
    return xs


# ---------------------------------------------------------------------------
# vectorized survival evolution (shared by Monte Carlo estimators)

# points or trajectories per Monte Carlo batch, so that a batch's arrays
# stay in cache; each one's path does not depend on its batch
_CHUNK = 1 << 15


def _batches(pieces, size):
    """The pieces, each a sequence of arrays of equal length, regrouped
    along their first axis into batches of ``size`` (the last one shorter).
    A piece longer than a batch is split; what a batch leaves of the pieces
    it joined is held over to the next."""
    held, n = [], 0
    for piece in pieces:
        held.append(piece)
        n += len(piece[0])
        if n >= size:
            joined = [np.concatenate(a) for a in zip(*held)]
            start = 0
            while n - start >= size:
                yield [a[start:start + size] for a in joined]
                start += size
            held, n = [[a[start:] for a in joined]], n - start
    if n:
        yield [np.concatenate(a) for a in zip(*held)]


def evolve_survivors(sys: OpenSystem, pts, n_max: int):
    """Vectorized open-dynamics evolution of a point cloud.

    Returns (survival_counts[0..n_max], flagged_count, final_alive_points).
    survival_counts[n] = number of points in M^n among the unflagged ones:
    an orbit flagged at the guard band of S counts at no step.
    """
    pts = np.asarray(pts, dtype=float)
    alive = ~sys.hole.in_hole_many(pts)
    flagged = 0
    counts = np.empty(n_max + 1, dtype=np.int64)
    counts[0] = int(np.count_nonzero(alive))
    cur = np.compress(alive, pts, axis=0)
    for n in range(1, n_max + 1):
        if len(cur) == 0:
            counts[n:] = 0
            break
        ok = sys.map.singularity_distance(cur) > SINGULARITY_GUARD
        if not ok.all():
            dropped = int(np.count_nonzero(~ok))
            flagged += dropped
            counts[:n] -= dropped
            cur = np.compress(ok, cur, axis=0)
        cur = sys.map.step_many(cur)
        cur = np.compress(~sys.hole.in_hole_many(cur), cur, axis=0)
        counts[n] = len(cur)
    return counts, flagged, cur


# ---------------------------------------------------------------------------
# forked workers

def _fork_map(fn, items, *args):
    """``[fn(*args, run) for run in runs]``, where the runs split the
    sequence ``items`` into one contiguous slice per CPU the process may
    run on (at most one per item).  Each run goes to a worker process
    forked for it, so the caller does none of the work, or runs inline when
    there is one CPU.  A worker inherits ``fn`` and ``args`` with the rest
    of the caller's memory, so closures and objects that do not pickle
    pass; only its result comes back pickled, through a pipe.  Every worker
    is reaped before this returns or raises: then the first failed run's
    exception is raised, or ChildProcessError for a worker that ended
    without a result."""
    workers = max(1, min(len(os.sched_getaffinity(0)), len(items)))
    cuts = [len(items) * w // workers for w in range(workers + 1)]
    runs = [items[a:b] for a, b in zip(cuts, cuts[1:])]
    if workers == 1:
        return [fn(*args, runs[0])]
    children = []                       # (pid, read end of its pipe)
    replies = None
    try:
        for run in runs:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _fork_worker(write, fn, args, run)
            os.close(write)
            children.append((pid, open(read, "rb")))
        # a worker blocks on a full pipe until its turn here
        replies = [fh.read() for _, fh in children]
    finally:
        for pid, fh in children:
            fh.close()
            if replies is None:
                os.kill(pid, 9)         # SIGKILL: the caller is unwinding
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid, _ in children]
    results = []
    for (pid, _), code, reply in zip(children, codes, replies):
        if code:
            raise ChildProcessError(
                f"worker process {pid} ended without a result ("
                + (f"signal {-code})" if code < 0 else f"exit status {code})"))
        ok, value = pickle.loads(reply)
        if not ok:
            raise value
        results.append(value)
    return results


def _fork_worker(write, fn, args, run):
    """A forked worker of ``_fork_map``: pickles (True, fn(*args, run)), or
    (False, the exception it raised), into the file descriptor ``write``,
    then leaves through ``os._exit``, with exit status 0 only once the
    reply is written.  So the worker never returns into the caller's stack
    and runs none of its exit handlers or buffer flushes."""
    status = 1
    try:
        try:
            reply = (True, fn(*args, run))
        except Exception as exc:
            reply = (False, exc)
        try:
            data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            data = pickle.dumps((False, TypeError(
                f"a worker's result does not pickle: {exc}")))
        with open(write, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


# ---------------------------------------------------------------------------
# JSON construction: every config object is read against a field table
# {key: (reader, default)}.  ``reader(value, name)`` returns the value
# checked and converted, else raises ``<name> must be <what>``; an absent
# key takes its default, read the same way, unless that is _REQUIRED.

_REQUIRED = object()

# JSON type of each Python type that json.loads returns
_KINDS = {type(None): "null", bool: "boolean", int: "number", float: "number",
          str: "string", list: "array", dict: "object"}


def _read_config(cfg, fields: dict, where: str) -> dict:
    """The JSON object ``cfg``, named ``where`` in errors, read against the
    field table ``fields``: one converted value per key of the table."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = set(cfg) - set(fields)
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in {where}")
    out = {}
    for key, (read, default) in fields.items():
        if key not in cfg and default is _REQUIRED:
            raise ValueError(f"missing key '{key}' in {where}")
        out[key] = read(cfg.get(key, default), f"{key} in {where}")
    return out


def _read_kind(cfg, kinds: dict, where: str, kind_where: str):
    """``make(**fields read)`` for the entry (make, fields) of ``kinds``
    that the ``kind`` of ``cfg`` names, the object then named
    ``kind_where.format(kind)``."""
    any_key = {key: (_any, None) for _, fields in kinds.values()
               for key in fields}
    kind = _read_config(cfg, {"kind": (_one_of(kinds), _REQUIRED),
                              **any_key}, where)["kind"]
    make, fields = kinds[kind]
    return make(**_read_config({k: v for k, v in cfg.items() if k != "kind"},
                               fields, kind_where.format(kind)))


def _object(fields: dict, where: str):
    """Reader of a JSON object against the field table ``fields``."""
    return lambda value, name: _read_config(value, fields, where)


def _any(value, name):
    return value


def _checked(ok, what: str):
    """Reader of the values for which ``ok`` holds, as they are."""
    def read(value, name):
        if not ok(value):
            raise ValueError(f"{name} must be {what}")
        return value
    return read


def _json(kind: str):
    """Reader of a value of the JSON type ``kind``, as is."""
    def read(value, name):
        found = _KINDS.get(type(value), type(value).__name__)
        if found != kind:
            raise ValueError(f"{name} must be a JSON {kind}, not {found}")
        return value
    return read


def _number(value, name) -> float:
    return float(_checked(math.isfinite, "finite")(
        _json("number")(value, name), name))


def _integer(value, name) -> int:
    return int(_checked(lambda v: float(v).is_integer(), "an integer")(
        _json("number")(value, name), name))


def _positive(read):
    return lambda value, name: _checked(lambda v: v > 0, "positive")(
        read(value, name), name)


def _null_or(read):
    return lambda value, name: None if value is None else read(value, name)


def _one_of(choices):
    """Reader of a string or number among ``choices``, as is."""
    return _checked(lambda v: type(v) in (str, int, float) and v in choices,
                    f"one of {sorted(choices)}")


def _is_numbers(x, length=None, integer: bool = False) -> bool:
    """True for a JSON array of finite numbers, none a boolean, all
    integral if ``integer``, and ``length`` of them if given."""
    return (isinstance(x, list) and length in (None, len(x))
            and all(type(v) in (int, float) and math.isfinite(v)
                    and (not integer or float(v).is_integer()) for v in x))


_point = _checked(lambda v: _is_numbers(v, 2), "two finite numbers")

# each map: its constructor and the field table of its ``params``
_MAPS = {"doubling": (doubling_map, {}),
         "adic": (adic_map, {"m": (_integer, _REQUIRED)}),
         "triadic": (lambda: adic_map(3), {}),
         "logistic": (logistic_like, {"a": (_number, 3.9)}),
         "cat": (cat_map, {}), "baker": (baker_map, {})}

# each hole kind: its constructor and field table
_HOLES = {
    "cylinder_union": (cylinder_union_hole, {
        "base": (_integer, _REQUIRED), "level": (_integer, _REQUIRED),
        "words": (_checked(lambda v: isinstance(v, list) and all(
            _is_numbers(w, integer=True) for w in v),
            "an array of integer arrays"), _REQUIRED)}),
    "interval_union": (interval_union_hole, {
        "intervals": (_checked(lambda v: isinstance(v, list) and all(
            _is_numbers(iv, 2) for iv in v),
            "an array of [a, b] number pairs"), _REQUIRED)}),
    "region_2d": (lambda shape, center, radius: ball_hole_2d(center, radius),
                  {"shape": (_one_of({"ball"}), "ball"),
                   "center": (_point, _REQUIRED),
                   "radius": (_positive(_number), _REQUIRED)}),
    "empty": (empty_hole, {"dimension": (_one_of({1, 2}), 1)}),
}

_MAP = {"name": (_one_of(_MAPS), _REQUIRED), "params": (_any, {})}


def map_from_config(cfg: dict) -> MapModel:
    read = _read_config(cfg, _MAP, "map config")
    make, fields = _MAPS[read["name"]]
    return make(**_read_config(read["params"], fields,
                               f"map params for {read['name']}"))


def hole_from_config(cfg: dict) -> HoleSpec:
    return _read_kind(cfg, _HOLES, "hole config", "hole config for {}")


_SYSTEM = {"map": (lambda v, name: map_from_config(v), _REQUIRED),
           "hole": (lambda v, name: hole_from_config(v), _REQUIRED)}


def system_from_config(cfg: dict) -> OpenSystem:
    return OpenSystem(**_read_config(cfg, _SYSTEM, "system config"))

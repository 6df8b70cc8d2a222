"""Dynamical balls: cutoff radii, membership, measures and the triangle bound.

The cutoff is g_eps(x) = min(eps, d(x, S)) / 3.  A point y belongs to the
dynamical ball B(x, n, g_eps) iff d(f^i x, f^i y) < g_eps(f^i x) for all
0 <= i <= n and y survives to time n.  Ball masses are estimated by
importance sampling inside a linearization envelope around the orbit tube;
uniform phase-space sampling would waste exponentially many points.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .systems import (EstimatorError, OpenSystem, _mod1, orbit_tableau,
                      torus_dist)


def g_cutoff(sys: OpenSystem, xs, eps: float):
    """g_eps(x) = min(eps, d(x, S)) / 3 at an array of points."""
    return np.minimum(eps, sys.map.singularity_distance(xs)) / 3.0


# ---------------------------------------------------------------------------
# ball mass

class ZeroCountError(EstimatorError):
    pass


def _envelope(sys: OpenSystem, orbit, g_vals):
    """Sampling envelope containing the ball, from the linearized cocycle.

    1D: interval radius min_i g_i / |J_i|.  2D: rectangle in the right
    singular directions of the final cocycle with per-axis half-widths
    min_i g_i / sigma_k(J_i) evaluated on those axes.
    Exact for the piecewise-linear zoo (linearization is exact at ball
    scales); returns (directions, halfwidths, volume)."""
    dim = sys.map.dimension
    Js = [np.eye(dim)]          # D f^i along the orbit, i = 0..n
    for D in sys.map.derivative(orbit[:-1]):
        Js.append(D @ Js[-1])
    if dim == 1:
        r = min(g / abs(float(J[0, 0])) for g, J in zip(g_vals, Js))
        return np.eye(1), np.array([r]), 2.0 * r
    # axes from the final cocycle
    _, _, Vt = np.linalg.svd(Js[-1])
    axes = Vt.T  # columns are sampling directions
    widths = np.full(2, np.inf)
    for g, J in zip(g_vals, Js):
        stretch = np.linalg.norm(J @ axes, axis=0)
        widths = np.minimum(widths, g / stretch)
    vol = 4.0 * widths[0] * widths[1]
    return axes, widths, vol


def ball_measure(sys: OpenSystem, center, n: int, eps: float, samples: int,
                 rng: np.random.Generator):
    """Monte Carlo Lebesgue mass of B(center, n, g_eps), with stderr.

    Samples uniformly in the linearization envelope (an unbiased superset of
    the ball) and multiplies the hit fraction by the envelope volume; fewer
    than 30 hits raise ZeroCountError.
    """
    dim = sys.map.dimension
    orbit = orbit_tableau(sys.map, [center], n)[:, 0]
    g_vals = g_cutoff(sys, orbit, eps)
    axes, widths, vol = _envelope(sys, orbit, g_vals)

    u = rng.uniform(-1.0, 1.0, size=(samples, dim)) * widths[None, :]
    if dim == 1:
        ys = _mod1(np.asarray(center) + u[:, 0])
    else:
        ys = _mod1(np.asarray(center)[None, :] + u @ axes.T)

    hits = _count_members(sys, orbit, g_vals, ys)
    if hits < 30:
        raise ZeroCountError(
            f"only {hits} hits in the envelope; increase samples or eps")
    frac = hits / samples
    mass = vol * frac
    stderr = vol * math.sqrt(frac * (1.0 - frac) / samples)
    return mass, stderr


def _count_members(sys: OpenSystem, orbit, g_vals, ys):
    """Number of the points ``ys`` within ``g_vals[i]`` of ``orbit[i]`` at
    every step i that survive to the last step."""
    dim = sys.map.dimension
    alive = np.ones(len(ys), dtype=bool)
    cur = ys
    for i, (p, g) in enumerate(zip(orbit, g_vals)):
        d = torus_dist(cur, p, dim)
        alive &= d < g
        alive &= ~sys.hole.in_hole_many(cur)
        if not alive.any() or i == len(orbit) - 1:
            break
        cur = sys.map.step_many(cur)
    return int(np.count_nonzero(alive))


def ball_slope(sys: OpenSystem, center, eps: float, n_values,
               samples: int = 40000,
               rng: Optional[np.random.Generator] = None):
    """Decay slope -(1/n) log mass over a sweep of horizons.

    Returns (slope, [(n, mass), ...]); the volume estimate bounds the slope
    by the positive Lyapunov exponent sum."""
    # a line through fewer than two horizons has no slope
    if not (all(n >= 0 and float(n).is_integer() for n in n_values)
            and len(set(n_values)) >= 2):
        raise ValueError("n_values must hold at least two distinct "
                         f"non-negative integers, got {list(n_values)}")
    if rng is None:
        rng = np.random.default_rng(2)
    rows = []
    for n in n_values:
        mass, _ = ball_measure(sys, center, n, eps, samples, rng)
        rows.append((n, mass))
    ns = np.array([n for n, _ in rows], dtype=float)
    ys = np.array([-math.log(m) for _, m in rows])
    slope, _ = np.polyfit(ns, ys, 1)
    return float(slope), rows


# ---------------------------------------------------------------------------
# triangle estimate

def triangle_check(singularity_distance, n_triples: int, eps: float,
                   rng: Optional[np.random.Generator] = None,
                   adversarial: bool = False):
    """Sample triples with d(x,z) <= g(x), d(z,y) <= g(y); count violations of
    d(x,y) <= 3 g(x) and of the intermediate bound d(y,S) <= 2 d(x,S).

    Works on the interval with an arbitrary synthetic singularity-distance
    function; both counts must be zero.
    """
    if rng is None:
        rng = np.random.default_rng(3)

    def dist_s(pts):
        # the callable is scalar: one call per point, each point once, on
        # Python floats, whose arithmetic is cheaper than np.float64's
        return np.fromiter(map(singularity_distance, pts.tolist()), float,
                           len(pts))

    violations = 0
    proof_violations = 0
    produced = 0
    while produced < n_triples:
        batch = min(n_triples - produced, 100_000)
        if adversarial:
            # concentrate x near the singularity set
            x = (rng.random(batch) ** 3) * eps * 3.0
            x = np.clip(x, 1e-9, 1 - 1e-9)
        else:
            x = rng.random(batch)
        ds_x = dist_s(x)
        gx = np.minimum(eps, ds_x) / 3.0
        z = x + rng.uniform(-1.0, 1.0, batch) * gx
        # propose y near z, accept if within g(y) of z; g(y) <= eps / 3, so
        # a proposal farther from z fails whatever d(y, S) is
        prop = z + rng.uniform(-1.0, 1.0, batch) * 2.0 * gx
        near = np.abs(prop - z) <= eps / 3.0
        x, z, y, gx, ds_x = x[near], z[near], prop[near], gx[near], ds_x[near]
        ds_y = dist_s(y)
        ok = np.abs(y - z) <= np.minimum(eps, ds_y) / 3.0
        x, y, gx, ds_x, ds_y = x[ok], y[ok], gx[ok], ds_x[ok], ds_y[ok]
        produced += len(x)
        violations += int(np.count_nonzero(np.abs(x - y) > 3.0 * gx + 1e-15))
        proof_violations += int(np.count_nonzero(ds_y > 2.0 * ds_x + 1e-15))
    return {"triples": produced, "violations": violations,
            "proof_violations": proof_violations}


# ---------------------------------------------------------------------------
# separated sets

def separated_set_size(sys: OpenSystem, candidates, n: int, eps: float) -> int:
    """Greedy maximal set of centers with pairwise disjoint (n, g_eps)-balls.

    Two balls are disjoint if at some step the orbits are farther apart than
    the sum of the cutoff radii.
    """
    dim = sys.map.dimension
    orbits = orbit_tableau(sys.map, candidates, n)     # (n + 1, N[, 2])
    gs = g_cutoff(sys, orbits.reshape((-1,) + orbits.shape[2:]),
                  eps).reshape(orbits.shape[:2])
    kept = []
    for j in range(len(candidates)):
        # disjoint from every kept ball: at some step the orbits are
        # farther apart than the sum of the radii
        d = torus_dist(orbits[:, kept], orbits[:, j:j + 1], dim)
        if np.all(np.any(d > gs[:, kept] + gs[:, j:j + 1], axis=0)):
            kept.append(j)
    return len(kept)

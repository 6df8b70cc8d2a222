"""Exact computations on explicitly specified Young towers with Markov holes.

A tower is a finite (or finitely truncated) list of base branches, each with a
return time R, a Jacobian J (the induced-map Jacobian, constant on the
branch: the Gibbs measures here carry no distortion), a base mass, and a
flag marking whether the branch falls into the hole before returning.  The
induced system is the full shift over the unholed branches unless a
transition matrix is supplied.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .systems import _is_number, _is_numbers, _reject_unknown, perron


class NoRootError(RuntimeError):
    """All mass escapes: the eigenvalue equation has no root in (0, 1)."""


class DivergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class TowerBranch:
    id: str
    R: int
    J: float
    mass: float
    holed: bool = False


@dataclass
class TowerSpec:
    branches: list
    C0: float = 1.0
    theta0: float = 0.5
    transition: Optional[np.ndarray] = None  # over unholed branches

    def __post_init__(self):
        if not self.branches:
            raise ValueError("tower needs at least one branch")
        total = sum(b.mass for b in self.branches)
        if total > 1.0 + 1e-12:
            raise ValueError(f"base masses sum to {total} > 1")
        for b in self.branches:
            if b.R < 1 or b.J < 1.0 - 1e-12 or b.mass <= 0:
                raise ValueError(f"invalid branch {b}")

    @property
    def unholed(self):
        return [b for b in self.branches if not b.holed]


def tower_from_config(cfg: dict) -> TowerSpec:
    """A tower from a config's ``tower`` object, each value checked."""
    _reject_unknown(cfg, {"branches", "C0", "theta0", "transition"},
                    "tower config")
    if not isinstance(cfg["branches"], list):
        raise ValueError("tower branches must be a JSON array")
    branches = []
    for i, b in enumerate(cfg["branches"]):
        _reject_unknown(b, {"id", "R", "J", "mass", "holed"}, f"branch {i}")
        if not (_is_number(b["R"], integer=True) and b["R"] >= 1):
            raise ValueError(f"R of branch {i} must be an integer >= 1")
        if not _is_numbers([b["J"], b["mass"]]):
            raise ValueError(f"J and mass of branch {i} must be numbers")
        if not isinstance(b.get("holed", False), bool):
            raise ValueError(f"holed of branch {i} must be true or false")
        branches.append(TowerBranch(
            id=str(b.get("id", i)), R=int(b["R"]), J=float(b["J"]),
            mass=float(b["mass"]), holed=b.get("holed", False)))
    for key in ("C0", "theta0"):
        if key in cfg and not _is_number(cfg[key]):
            raise ValueError(f"tower {key} must be a number")
    trans = cfg.get("transition")
    if trans is not None:
        k = sum(not b.holed for b in branches)
        if not (isinstance(trans, list) and len(trans) == k
                and all(_is_numbers(row, k) for row in trans)):
            raise ValueError(
                f"tower transition must be a {k}x{k} array of numbers, one "
                "row and one column per unholed branch")
        trans = np.asarray(trans, dtype=float)
        if not (np.all(np.isfinite(trans)) and np.all(trans >= 0)):
            raise ValueError(
                "tower transition entries must be finite and nonnegative")
    return TowerSpec(branches=branches, C0=float(cfg.get("C0", 1.0)),
                     theta0=float(cfg.get("theta0", 0.5)), transition=trans)


# ---------------------------------------------------------------------------
# leading eigenvalue

def _weights(T: TowerSpec, r: float):
    return np.array([r ** (-b.R) / b.J for b in T.unholed])


def _spectral_radius_at(T: TowerSpec, r: float) -> float:
    w = _weights(T, r)
    if T.transition is None:
        return float(np.sum(w))
    return perron(T.transition * w[None, :])[0]


def tower_eigenvalue(T: TowerSpec) -> float:
    """Root of sum_i r^{-R_i} / J_i = 1 over unholed branches (full-shift
    induced case), or of Perron root = 1 with a transition matrix.

    The function is strictly decreasing in r, so bisection applies, down to
    a relative bracket of 1e-14.
    """
    if not T.unholed:
        raise NoRootError("no unholed branch: survivor set is empty")
    lo, hi = 1e-12, 1.0
    g_hi = _spectral_radius_at(T, hi) - 1.0
    if g_hi > 1e-12:
        # closed (or nearly closed) system: eigenvalue is 1
        return 1.0
    if abs(g_hi) <= 1e-15:
        return 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _spectral_radius_at(T, mid) - 1.0 > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * hi:
            break
    r = 0.5 * (lo + hi)
    if r <= 0.0:
        raise NoRootError("eigenvalue equation has no positive root")
    return r


# ---------------------------------------------------------------------------
# Gibbs measure on the base

@dataclass
class TowerMeasure:
    cylinder_weights: dict      # word (tuple of branch ids) -> weight
    branch_ids: list


def gibbs_measure(T: TowerSpec, r: float, depth: int) -> TowerMeasure:
    """Cylinder weights weight(i1..in) = prod_k r^{-R_k} / J_k.

    For locally constant Jacobians this is exact (Gibbs constant 1); the
    weights of depth-1 cylinders sum to 1 by the eigenvalue equation.
    """
    ids = [b.id for b in T.unholed]
    w = _weights(T, r)
    weights = {}
    if T.transition is None:
        for n in range(1, depth + 1):
            for word in itertools.product(range(len(ids)), repeat=n):
                weights[tuple(ids[i] for i in word)] = float(
                    np.prod([w[i] for i in word]))
    else:
        W = T.transition * w[None, :]
        _, u, l = perron(W)
        pi = l * u
        pi = pi / np.sum(pi)
        # row-stochastic at the eigenvalue on the dominant class; pi
        # vanishes off it, so rows there are never used
        p = W * u[None, :] / np.where(u > 0, u, 1.0)[:, None]
        p = p / np.where(u > 0, p.sum(axis=1), 1.0)[:, None]
        for n in range(1, depth + 1):
            for word in itertools.product(range(len(ids)), repeat=n):
                steps = list(zip(word, word[1:]))
                if not all(T.transition[a, b] for a, b in steps):
                    continue
                wt = math.prod([pi[word[0]]] + [p[a, b] for a, b in steps])
                if wt > 0:
                    weights[tuple(ids[i] for i in word)] = float(wt)
    return TowerMeasure(cylinder_weights=weights, branch_ids=ids)


# ---------------------------------------------------------------------------
# Gurevich pressure

def gurevich_pressure(T: TowerSpec, r: float, n_max: int = 20,
                      potential: Optional[Sequence[float]] = None):
    """Pressure of the induced potential from weighted periodic-orbit sums
    through the first unholed branch.

    Z_n sums exp(S_n phi) over period-n words returning to the reference
    branch; the per-n estimate is the successive ratio log(Z_{n+1}/Z_n),
    which is exact at every n when the weights sum to 1.  Computed in log
    space to guard overflow.
    """
    unholed = T.unholed
    k = len(unholed)
    if potential is None:
        phi = np.array([-(b.R * math.log(r) + math.log(b.J)) for b in unholed])
    else:
        phi = np.asarray(potential, dtype=float)
    A = T.transition if T.transition is not None else np.ones((k, k))

    # log-space matrix powers: W[i, j] = A[i, j] * e^{phi_j}
    with np.errstate(divide="ignore"):
        logW = np.where(A > 0, np.log(A) + phi[None, :], -np.inf)

    def log_mat_mul(X, Y):
        # log-sum-exp matrix product
        Z = np.full((X.shape[0], Y.shape[1]), -np.inf)
        for i in range(X.shape[0]):
            col = X[i][:, None] + Y
            mx = np.max(col, axis=0)
            good = np.isfinite(mx)
            Z[i, good] = mx[good] + np.log(
                np.sum(np.exp(col[:, good] - mx[good][None, :]), axis=0))
        return Z

    logZ = []
    cur = logW.copy()
    for n in range(1, n_max + 2):
        logZ.append(cur[0, 0])
        cur = log_mat_mul(cur, logW)
    seq = [(n, float(logZ[n] - logZ[n - 1])) for n in range(1, n_max + 1)]
    return seq


# ---------------------------------------------------------------------------
# Abramov consistency

def abramov_check(T: TowerSpec, nu0: TowerMeasure, r: float) -> dict:
    """Entropy/exponent/pressure chain for the induced Gibbs measure.

    h_tower = h_induced / int(R), lambda_tower = int(log J) / int(R),
    pressure = h_tower - lambda_tower; must equal log r within 1e-9.
    """
    lookup = {b.id: b for b in T.unholed}
    p1 = {bid: nu0.cylinder_weights.get((bid,), 0.0) for bid in nu0.branch_ids}
    total = sum(p1.values())
    if abs(total - 1.0) > 1e-8:
        raise DivergenceError(f"depth-1 weights sum to {total}, not 1")

    if T.transition is None:
        h_induced = -sum(p * math.log(p) for p in p1.values() if p > 0)
    else:
        # Markov chain entropy from depth-2/depth-1 weights
        h_induced = 0.0
        for (a, b), w2 in ((k, v) for k, v in nu0.cylinder_weights.items()
                           if len(k) == 2):
            if w2 > 0 and p1[a] > 0:
                h_induced -= w2 * math.log(w2 / p1[a])

    return_integral = sum(p1[bid] * lookup[bid].R for bid in p1)
    log_jac_integral = sum(p1[bid] * math.log(lookup[bid].J) for bid in p1)
    if return_integral <= 0 or not math.isfinite(return_integral):
        raise DivergenceError("return-time integral failed to converge")

    h_tower = h_induced / return_integral
    lam_tower = log_jac_integral / return_integral
    pressure = h_tower - lam_tower
    rec = {
        "h_induced": h_induced,
        "return_integral": return_integral,
        "h_tower": h_tower,
        "lambda_tower": lam_tower,
        "pressure": pressure,
        "log_r": math.log(r),
        "gap": abs(pressure - math.log(r)),
    }
    if rec["gap"] > 1e-9:
        raise AssertionError(
            f"Abramov chain inconsistent: pressure {pressure} vs log r "
            f"{math.log(r)} (gap {rec['gap']:.3e})")
    return rec


# ---------------------------------------------------------------------------
# hypothesis validation

def validate_hypotheses(T: TowerSpec, r: Optional[float] = None,
                        star_constants: Optional[tuple] = None,
                        map_attachment: Optional[dict] = None) -> dict:
    """Report-only checks of the exponential tail, condition (*) and, when a
    map is attached, the approach-rate bound on sampled base orbits.

    ``star_constants`` is (C_bar, theta_bar); theta_bar must lie strictly
    between theta0 / r and 1.  ``map_attachment`` is a dict with keys
    system (OpenSystem), base_points, horizon, delta, xi1.
    """
    report = {"checks": {}, "passed": True}

    # (i) exponential tail
    tail_ok, witness = True, None
    for n in range(max(b.R for b in T.branches) + 1):
        tail = sum(b.mass for b in T.branches if b.R > n)
        if tail > T.C0 * T.theta0 ** n + 1e-15:
            tail_ok, witness = False, n
            break
    report["checks"]["tail"] = {"pass": tail_ok, "witness_n": witness,
                                "C0": T.C0, "theta0": T.theta0}

    # (ii) condition (*): log J on {R = n} bounded by C_bar * theta_bar^{-n}
    if star_constants is not None:
        C_bar, theta_bar = star_constants
        if r is None:
            r = tower_eigenvalue(T)
        admissible = (T.theta0 / r) < theta_bar < 1.0
        star_ok, star_witness = admissible, None
        if admissible:
            for b in T.branches:
                if math.log(b.J) > C_bar * theta_bar ** (-b.R) + 1e-12:
                    star_ok, star_witness = False, b.id
                    break
        report["checks"]["condition_star"] = {
            "pass": star_ok, "admissible_theta_bar": admissible,
            "witness_branch": star_witness,
            "theta_bar_range": (T.theta0 / r, 1.0)}
    # (iii) approach-rate bound (H.2) on sampled base orbits
    if map_attachment is not None:
        sysm = map_attachment["system"]
        pts = np.asarray(map_attachment["base_points"], dtype=float)
        horizon = map_attachment.get("horizon", 30)
        delta = map_attachment["delta"]
        xi1 = map_attachment["xi1"]
        # first step at which each orbit comes closer than delta xi1^-n to
        # S or to the hole boundary (-1: never)
        first = np.full(len(pts), -1)
        live, cur = np.arange(len(pts)), pts
        for n in range(horizon + 1):
            near = np.minimum(sysm.map.singularity_distance(cur),
                              sysm.hole.boundary_distance(cur)) \
                < delta * xi1 ** (-n)
            first[live[near]] = n
            live, cur = live[~near], cur[~near]
            if n == horizon or len(live) == 0:
                break
            cur = sysm.map.step_many(cur)
        failed = np.flatnonzero(first >= 0)
        ok = len(failed) == 0
        worst = None if ok else (float(np.atleast_1d(pts[failed[0]])[0]),
                                 int(first[failed[0]]))
        report["checks"]["approach_rate"] = {"pass": ok, "witness": worst,
                                             "delta": delta, "xi1": xi1}

    report["passed"] = all(c["pass"] for c in report["checks"].values())
    return report


def pressure_of_induced_measure(T: TowerSpec, probs: Sequence[float]) -> float:
    """Tower pressure h - lambda of the invariant measure induced by a
    Bernoulli measure on the unholed branches."""
    unholed = T.unholed
    p = np.asarray(probs, dtype=float)
    if len(p) != len(unholed) or abs(np.sum(p) - 1.0) > 1e-12:
        raise ValueError("probs must be a distribution over unholed branches")
    with np.errstate(divide="ignore", invalid="ignore"):
        h = float(-np.sum(np.where(p > 0, p * np.log(p), 0.0)))
    rbar = float(np.sum(p * np.array([b.R for b in unholed])))
    lam = float(np.sum(p * np.array([math.log(b.J) for b in unholed])))
    return (h - lam) / rbar


# ---------------------------------------------------------------------------
# canned towers

def golden_mean_tower() -> TowerSpec:
    """Tower of the doubling map with the [11]-cylinder hole."""
    return TowerSpec(branches=[
        TowerBranch("A", R=1, J=2.0, mass=0.5, holed=False),
        TowerBranch("B", R=2, J=4.0, mass=0.25, holed=False),
        TowerBranch("C", R=2, J=4.0, mass=0.25, holed=True),
    ], C0=1.0, theta0=0.5)

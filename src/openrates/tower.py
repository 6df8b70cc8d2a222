"""Exact computations on explicitly specified Young towers with Markov holes.

A tower is a finite (or finitely truncated) list of base branches, each with a
return time R, a Jacobian J (the induced-map Jacobian, constant on the
branch: the Gibbs measures here carry no distortion), a base mass, and a
flag marking whether the branch falls into the hole before returning.  The
induced system is the full shift over the unholed branches unless a 0/1
transition matrix is supplied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .pressure import entropy_markov
from .systems import (_REQUIRED, TiedClassesError, _any, _integer,
                      _is_numbers, _json, _number, _positive, _read_config,
                      doob_chain, spectral_radius)


class NoRootError(RuntimeError):
    """The eigenvalue equation has no root in (0, 1]: all mass escapes, or
    the weights at r = 1 already exceed those of a closed system."""


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


_TOWER = {"branches": (_json("array"), _REQUIRED), "C0": (_number, 1.0),
          "theta0": (_number, 0.5), "transition": (_any, None)}
# a branch without an id takes its index
_BRANCH = {"id": (_any, None), "R": (_positive(_integer), _REQUIRED),
           "J": (_number, _REQUIRED), "mass": (_number, _REQUIRED),
           "holed": (_json("boolean"), False)}


def tower_from_config(cfg: dict) -> TowerSpec:
    """A tower from a config's ``tower`` object, each value checked."""
    tower = _read_config(cfg, _TOWER, "tower config")
    branches = []
    for i, b in enumerate(tower["branches"]):
        b = _read_config(b, _BRANCH, f"branch {i}")
        branches.append(TowerBranch(**{**b, "id": str(
            i if b["id"] is None else b["id"])}))
    ids = [b.id for b in branches]
    if len(set(ids)) < len(ids):
        raise ValueError(f"tower branch ids must be unique, got {ids}")
    trans = tower["transition"]
    if trans is not None:
        k = sum(not b.holed for b in branches)
        if not (isinstance(trans, list) and len(trans) == k
                and all(_is_numbers(row, k) for row in trans)):
            raise ValueError(
                f"tower transition must be a {k}x{k} array of numbers, one "
                "row and one column per unholed branch")
        trans = np.asarray(trans, dtype=float)
        if not np.all((trans == 0) | (trans == 1)):
            raise ValueError("tower transition entries must be 0 or 1")
    return TowerSpec(branches=branches, C0=tower["C0"],
                     theta0=tower["theta0"], transition=trans)


# ---------------------------------------------------------------------------
# leading eigenvalue

def _weights(T: TowerSpec, r: float):
    return np.array([r ** (-b.R) / b.J for b in T.unholed])


def _spectral_radius_at(T: TowerSpec, r: float) -> float:
    w = _weights(T, r)
    if T.transition is None:
        return float(np.sum(w))
    # only the root: the bisection needs no unique dominant class
    return spectral_radius(T.transition * w[None, :])


def tower_eigenvalue(T: TowerSpec) -> float:
    """Root of sum_i r^{-R_i} / J_i = 1 over unholed branches (full-shift
    induced case), or of Perron root = 1 with a transition matrix.

    The function is strictly decreasing in r, so bisection applies, down to
    a relative bracket of 1e-14.
    """
    if not T.unholed:
        raise NoRootError("no unholed branch: survivor set is empty")
    lo, hi = 1e-12, 1.0
    rho_hi = _spectral_radius_at(T, hi)
    g_hi = rho_hi - 1.0
    if g_hi > 1e-12:
        raise NoRootError(
            f"the weights at r = 1 have Perron root {rho_hi!r} > 1: the "
            "eigenvalue equation has no root in (0, 1]")
    if abs(g_hi) <= 1e-15:
        # closed system: eigenvalue is 1
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

def gibbs_chain(T: TowerSpec, r: float):
    """The induced Gibbs measure at r as a Markov chain (pi, P) over the
    unholed branches: Bernoulli(w), w_i = r^{-R_i} / J_i, for the full
    shift, else the Doob chain of transition * w, zero off its dominant
    class.  Exact for locally constant Jacobians (Gibbs constant 1).
    """
    w = _weights(T, r)
    k = len(w)
    if T.transition is None:
        return w, np.tile(w, (k, 1))
    try:
        idx, Q, q = doob_chain(T.transition * w[None, :])
    except TiedClassesError:
        raise TiedClassesError(
            f"the tower's Gibbs measure at r = {r!r} is not unique: two "
            "classes of the transition tie at Perron root 1") from None
    pi, P = np.zeros(k), np.zeros((k, k))
    pi[idx] = q
    P[np.ix_(idx, idx)] = Q
    return pi, P


# ---------------------------------------------------------------------------
# Gurevich pressure

def gurevich_pressure(T: TowerSpec, r: float, n_max: int = 20):
    """Pressure of the induced potential phi = -(R log r + log J) from
    weighted periodic-orbit sums through the first unholed branch.

    Z_n sums exp(S_n phi) over period-n words returning to the reference
    branch; the estimate at n is log(Z_m / Z_n) / (m - n), m the next
    period with Z_m > 0 (m = n + 1 unless the transition is periodic),
    which is exact at every n when the weights sum to 1.  Computed in log
    space to guard overflow.  Empty when fewer than two Z_n are positive.
    """
    unholed = T.unholed
    k = len(unholed)
    phi = np.array([-(b.R * math.log(r) + math.log(b.J)) for b in unholed])
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

    logZ = []   # (n, log Z_n) for Z_n > 0
    cur = logW.copy()
    for n in range(1, n_max + 2):
        if np.isfinite(cur[0, 0]):
            logZ.append((n, cur[0, 0]))
        cur = log_mat_mul(cur, logW)
    return [(n, float((b - a) / (m - n)))
            for (n, a), (m, b) in zip(logZ, logZ[1:])]


# ---------------------------------------------------------------------------
# Abramov consistency

def induced_pressure(T: TowerSpec, pi, P) -> dict:
    """Tower entropy, exponent and pressure of the invariant measure induced
    by the Markov chain (pi, P) over the unholed branches (Abramov).

    h_tower = h_induced / int(R), lambda_tower = int(log J) / int(R),
    pressure = h_tower - lambda_tower.  P need only be stochastic on the
    states where pi > 0.
    """
    on = pi > 0
    h_induced = entropy_markov(P[np.ix_(on, on)], pi[on])
    return_integral = float(np.sum(pi * [b.R for b in T.unholed]))
    log_jac_integral = float(np.sum(pi * [math.log(b.J) for b in T.unholed]))
    h_tower = h_induced / return_integral
    lam_tower = log_jac_integral / return_integral
    return {
        "h_induced": h_induced,
        "return_integral": return_integral,
        "h_tower": h_tower,
        "lambda_tower": lam_tower,
        "pressure": h_tower - lam_tower,
    }


def abramov_check(T: TowerSpec, r: float) -> dict:
    """Abramov chain of the induced Gibbs measure at r: its pressure must
    equal log r within 1e-9, else DivergenceError."""
    rec = induced_pressure(T, *gibbs_chain(T, r))
    rec["log_r"] = math.log(r)
    rec["gap"] = abs(rec["pressure"] - rec["log_r"])
    if rec["gap"] > 1e-9:
        raise DivergenceError(
            f"Abramov chain inconsistent: pressure {rec['pressure']} vs "
            f"log r {rec['log_r']} (gap {rec['gap']:.3e})")
    return rec


# ---------------------------------------------------------------------------
# hypothesis validation

def validate_hypotheses(T: TowerSpec,
                        map_attachment: Optional[dict] = None) -> dict:
    """Report-only checks of the exponential tail and, when a map is
    attached, the approach-rate bound on sampled base orbits.

    ``map_attachment`` is a dict with keys system (OpenSystem), base_points,
    horizon, delta, xi1.
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

    # (ii) approach-rate bound (H.2) on sampled base orbits
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


# ---------------------------------------------------------------------------
# canned towers

def golden_mean_tower() -> TowerSpec:
    """Tower of the doubling map with the [11]-cylinder hole."""
    return TowerSpec(branches=[
        TowerBranch("A", R=1, J=2.0, mass=0.5, holed=False),
        TowerBranch("B", R=2, J=4.0, mass=0.25, holed=False),
        TowerBranch("C", R=2, J=4.0, mass=0.25, holed=True),
    ], C0=1.0, theta0=0.5)

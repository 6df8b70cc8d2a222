"""Entropy, Lyapunov exponents, pressure and variational checks.

Pressure of an invariant measure is metric entropy minus the sum of positive
Lyapunov exponents.  The variational verdict checks that the escape-rate
liminf dominates the pressure of every admissible candidate measure, and that
equality holds for the survivor measure when an exact route exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .escape import EscapeEstimate
from .systems import OpenSystem, perron, torus_dist
from .ulam import GridMeasure


@dataclass
class InvariantMeasureRep:
    """A candidate invariant measure: exact Markov chain, empirical orbit
    sample, or a grid measure from the Ulam module."""

    kind: str                       # markov_chain | empirical | grid
    name: str = ""
    transition: Optional[np.ndarray] = None
    stationary: Optional[np.ndarray] = None
    samples: Optional[np.ndarray] = None
    grid: Optional[GridMeasure] = None
    supported_in_survivor: bool = True
    # optional exact values, used instead of sample estimates when present
    entropy_exact: Optional[float] = None
    lyapunov_exact: Optional[float] = None
    is_nu_hat: bool = False

    def __post_init__(self):
        if self.kind == "markov_chain":
            P = self.transition
            if P is None:
                raise ValueError("markov_chain rep needs a transition matrix")
            if self.stationary is None:
                self.stationary = stationary_vector(P)
            err = np.max(np.abs(self.stationary @ P - self.stationary))
            if not err <= 1e-12:   # a NaN residual fails too
                raise ValueError(f"stationary vector residual {err:.2e}")

    def draw(self, rng, size, sys: Optional[OpenSystem] = None):
        if self.kind == "empirical":
            idx = rng.integers(0, len(self.samples), size)
            return self.samples[idx]
        if self.kind == "grid":
            return self.grid.sample(rng, size)
        raise ValueError("markov_chain rep has no generic point sampler")


@dataclass
class PressureReport:
    name: str
    entropy: float
    lyapunov_sum: float
    pressure: float
    rho: float
    gap: float
    entropy_stderr: float = 0.0
    class_flags: dict = field(default_factory=dict)

    def __post_init__(self):
        # explicit raises: these invariants must survive python -O
        if not self.entropy >= -1e-12:
            raise AssertionError("entropy must be nonnegative")
        # Ruelle inequality, with slack for sampled entropies
        slack = 3 * self.entropy_stderr + 1e-9
        if not self.entropy <= self.lyapunov_sum + slack:
            raise AssertionError(
                f"Ruelle inequality violated: h={self.entropy} > "
                f"lambda+={self.lyapunov_sum}")


def stationary_vector(P: np.ndarray) -> np.ndarray:
    """Stationary law of the chain's unique closed class (left Perron
    vector); several closed classes raise HoleKindError."""
    _, _, v = perron(P)
    return v / v.sum()


# ---------------------------------------------------------------------------
# entropy

def entropy_markov(P: np.ndarray, pi: Optional[np.ndarray] = None) -> float:
    """h = -sum_i pi_i sum_j P_ij log P_ij for a stochastic chain."""
    P = np.asarray(P, dtype=float)
    rows = P.sum(axis=1)
    if np.any(np.abs(rows - 1.0) > 1e-10):
        raise ValueError("transition matrix is not stochastic")
    if pi is None:
        pi = stationary_vector(P)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(P > 0, P * np.log(P), 0.0)
    return float(-np.sum(pi * plogp.sum(axis=1)))


def entropy_markov_sparse(Q, pi) -> float:
    """Markov-chain entropy for a sparse row-stochastic matrix.

    Used for the cell-level closed survivor chain (Doob transform of the Ulam
    operator); this is a discretization-limited surrogate for the measure
    entropy and should be paired with a generous stderr.
    """
    Q = Q.tocsr()
    h = 0.0
    for i in range(Q.shape[0]):
        if pi[i] <= 0:
            continue
        row = Q.data[Q.indptr[i]:Q.indptr[i + 1]]
        row = row[row > 0]
        h -= pi[i] * float(np.sum(row * np.log(row)))
    return h


def _g_hat(sys: OpenSystem, pts, eps):
    """Cutoff min(eps, d(., S)) evaluated on an array of points."""
    sd0 = sys.map.singularity_distance
    probe = pts[0] if np.ndim(pts) else pts
    if not np.isfinite(sd0(probe)):
        return np.full(np.shape(pts)[0] if np.ndim(pts) else (), eps)
    d = np.array([sd0(p) for p in np.atleast_1d(pts)])
    return np.minimum(eps, d)


def entropy_brin_katok(sys: OpenSystem, samples: np.ndarray,
                       eps_list: Sequence[float], n_max: int,
                       centers: int = 100, min_count: int = 30,
                       rng: Optional[np.random.Generator] = None):
    """Local entropy from dynamical-ball masses of the empirical measure.

    For each center x the mass of the ball B(x, n, g_hat_eps) is estimated by
    leave-one-out counting over the sample; the entropy estimate is the slope
    of -log(mass) versus n over the range where counts stay >= min_count.
    Returns (h, stderr, per_eps list).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    samples = np.asarray(samples, dtype=float)
    nsamp = len(samples)
    if nsamp < 1000:
        raise ValueError("need at least 1000 samples")
    dim = sys.map.dimension

    # orbit tableau of all samples
    orbits = np.empty((n_max + 1,) + samples.shape)
    cur = samples
    orbits[0] = cur
    for i in range(1, n_max + 1):
        cur = sys.map.step_many(cur)
        orbits[i] = cur

    center_idx = rng.choice(nsamp, size=min(centers, nsamp), replace=False)
    per_eps = []
    for eps in eps_list:
        slopes = []
        for ci in center_idx:
            # indices still inside the ball; leave-one-out drops the center
            close = np.delete(np.arange(nsamp), ci)
            counts = []
            for i in range(n_max + 1):
                g = min(eps, float(np.atleast_1d(
                    _g_hat(sys, orbits[i, ci], eps))[0]))
                d = torus_dist(orbits[i, close], orbits[i, ci], dim)
                close = close[d < g]
                counts.append(len(close))
                if counts[-1] < min_count:
                    break
            ns = np.arange(len(counts))
            ok = np.array(counts) >= min_count
            if np.count_nonzero(ok) < 3:
                continue
            y = -np.log(np.array(counts, dtype=float)[ok] / nsamp)
            slope, _ = np.polyfit(ns[ok].astype(float), y, 1)
            slopes.append(slope)
        if len(slopes) < max(5, len(center_idx) // 4):
            raise ValueError(
                f"insufficient ball counts at eps={eps}: only {len(slopes)} "
                "usable centers")
        per_eps.append((eps, float(np.mean(slopes)),
                        float(np.std(slopes) / math.sqrt(len(slopes)))))
    h = per_eps[-1][1]
    stderr = per_eps[-1][2]
    return h, stderr, per_eps


# ---------------------------------------------------------------------------
# Lyapunov exponents

def lyapunov_sum(sys: OpenSystem, rep: InvariantMeasureRep, n: int = 50,
                 orbit_samples: int = 200,
                 rng: Optional[np.random.Generator] = None):
    """Sum of positive Lyapunov exponents under the candidate measure.

    1D: Birkhoff average of log|f'|.  2D: top exponents via QR-orthogonalized
    products of derivative matrices along sampled orbits, positive part
    summed.  Returns (lambda_plus, stderr)."""
    if rep.lyapunov_exact is not None:
        return rep.lyapunov_exact, 0.0
    if rng is None:
        rng = np.random.default_rng(7)
    pts = rep.draw(rng, orbit_samples, sys)
    dim = sys.map.dimension
    # all orbits advance together, one stacked QR per step; evaluate and
    # derivative stay per point so every orbit is computed as on its own
    cur = list(np.atleast_1d(pts))
    live = np.arange(len(cur))
    acc = np.zeros((len(cur), dim))
    Q = np.broadcast_to(np.eye(dim), (len(cur), dim, dim))
    for _ in range(n):
        # singularity-proximity: drop the orbit
        near = [sys.map.singularity_distance(cur[j]) <= 1e-9 for j in live]
        if any(near):
            keep = ~np.array(near)
            live, Q = live[keep], Q[keep]
        if len(live) == 0:
            break
        D = np.array([sys.map.derivative(cur[j]) for j in live])
        Q, R = np.linalg.qr(D @ Q)
        acc[live] += np.log(np.abs(np.diagonal(R, axis1=1, axis2=2)))
        for j in live:
            cur[j] = sys.map.evaluate(cur[j])
    vals = []
    for j in live:
        exps = acc[j] / n
        vals.append(float(np.sum(exps[exps > 0])))
    if not vals:
        raise RuntimeError("all orbits hit the singularity guard band")
    vals = np.array(vals)
    return float(vals.mean()), float(vals.std() / math.sqrt(len(vals)))


# ---------------------------------------------------------------------------
# measure-class membership

def _power_law_fit(eps, mass):
    """Fit mass ~ C eps^alpha over points with positive mass."""
    eps = np.asarray(eps, dtype=float)
    mass = np.asarray(mass, dtype=float)
    pos = mass > 0
    if np.count_nonzero(pos) < 3:
        return None
    a, b = np.polyfit(np.log(eps[pos]), np.log(mass[pos]), 1)
    return {"alpha": float(a), "C": float(math.exp(b)),
            "points": int(np.count_nonzero(pos))}


def class_membership(sys: OpenSystem, rep: InvariantMeasureRep,
                     targets=("G_H", "G_S", "G_phi"),
                     sample_size: int = 20000, horizon: int = 25,
                     gamma: Optional[float] = None,
                     rng: Optional[np.random.Generator] = None) -> dict:
    """Diagnostics for membership in the hole/singularity/density classes.

    G_S and the sufficient condition for G_H are power-law fits of the
    measure of eps-neighborhoods of S and of the hole boundary; the G_H route
    additionally checks that the fraction of points whose orbit keeps
    exponentially shrinking balls out of the hole tends to 1 as eps -> 0.
    Fits that do not stabilize are flagged inconclusive, never passed.
    """
    if rng is None:
        rng = np.random.default_rng(11)
    if rep.kind == "markov_chain":
        raise ValueError("class_membership needs a point-sampleable rep")
    pts = rep.draw(rng, sample_size, sys)
    dim = sys.map.dimension
    flags = {}
    eps_grid = np.logspace(-3, -2, 8)

    if "G_S" in targets:
        probe = pts[0]
        if not np.isfinite(sys.map.singularity_distance(probe)):
            flags["G_S"] = {"status": "pass", "reason": "S empty"}
        else:
            d = np.array([sys.map.singularity_distance(p) for p in pts])
            mass = np.array([(d < e).mean() for e in eps_grid])
            fit = _power_law_fit(eps_grid, mass)
            if np.all(mass == 0):
                flags["G_S"] = {"status": "pass",
                                "reason": "support away from S"}
            elif fit is None or fit["alpha"] <= 0.05:
                flags["G_S"] = {"status": "inconclusive", "fit": fit}
            else:
                flags["G_S"] = {"status": "pass", "fit": fit}

    if "G_H" in targets:
        bd = sys.hole.boundary_distance_many(pts)
        mass = np.array([(bd < e).mean() for e in eps_grid])
        fit = _power_law_fit(eps_grid, mass)
        if np.all(mass == 0):
            sub = {"status": "pass", "reason": "support away from hole boundary"}
        elif fit is None:
            sub = {"status": "inconclusive", "fit": None}
        elif fit["alpha"] <= 0.05:
            sub = {"status": "fail", "fit": fit}
        else:
            sub = {"status": "pass", "fit": fit}
        # E_{eps,gamma} diagnostic on a subsample of orbits
        if gamma is None:
            gamma = 0.05 * max(lyapunov_sum(sys, rep, n=20,
                                            orbit_samples=50, rng=rng)[0],
                               1e-3)
        nsub = min(2000, len(pts))
        # one orbit pass serves every eps
        cur = pts[:nsub]
        dist_h, in_h = [], []
        for _ in range(horizon + 1):
            dist_h.append(sys.hole.boundary_distance_many(cur))
            in_h.append(sys.hole.in_hole_many(cur))
            cur = sys.map.step_many(cur)
        outside = ~np.array(in_h)
        dist_h = np.array(dist_h)
        fracs = []
        for eps in (1e-2, 3e-3, 1e-3):
            radii = np.array([eps * math.exp(-gamma * i)
                              for i in range(horizon + 1)])
            good = np.all(outside & (dist_h >= radii[:, None]), axis=0)
            fracs.append((eps, float(good.mean())))
        sub["E_eps_gamma"] = fracs
        # Lemma-4.1-style diagnostic: fraction must grow toward 1 as eps
        # shrinks; at finite eps we only require a clear increasing trend.
        increasing = all(b >= a - 0.02 for (_, a), (_, b)
                         in zip(fracs, fracs[1:]))
        if sub["status"] == "pass" and not (increasing or fracs[-1][1] > 0.95):
            sub["status"] = "inconclusive"
        flags["G_H"] = sub

    if "G_phi" in targets:
        gm = GridMeasure.lebesgue(dim, 16)
        idx = gm.cell_index(pts)
        occupied = np.bincount(idx, minlength=gm.ncells) / len(pts)
        best = int(np.argmax(occupied))
        # ess-inf of the reference density over the best-occupied cell
        probes = gm.sample(rng, 256)
        pidx = gm.cell_index(probes)
        cell_probes = probes[pidx == best]
        if len(cell_probes) == 0:
            cell_probes = probes[:16]
        dens = np.array([sys.map.reference_density(p) for p in cell_probes])
        c_nu = float(np.min(dens))
        flags["G_phi"] = {"status": "pass" if c_nu > 0 else "fail",
                          "c_nu": c_nu, "cell": best,
                          "cell_mass": float(occupied[best])}
    return flags


# ---------------------------------------------------------------------------
# variational report

def pressure_report(sys: OpenSystem, rep: InvariantMeasureRep,
                    escape: EscapeEstimate,
                    rng: Optional[np.random.Generator] = None,
                    bk_kwargs: Optional[dict] = None,
                    check_classes: bool = True) -> PressureReport:
    if rng is None:
        rng = np.random.default_rng(23)
    if rep.entropy_exact is not None:
        h, h_err = rep.entropy_exact, 0.0
    elif rep.kind == "markov_chain":
        h, h_err = entropy_markov(rep.transition, rep.stationary), 0.0
    else:
        kw = dict(eps_list=(0.1, 0.05), n_max=14, centers=60)
        kw.update(bk_kwargs or {})
        samples = (rep.samples if rep.kind == "empirical"
                   else rep.grid.sample(rng, 200_000))
        h, h_err, _ = entropy_brin_katok(sys, samples, rng=rng, **kw)
    lam, lam_err = lyapunov_sum(sys, rep, rng=rng)
    flags = {}
    if check_classes and rep.kind != "markov_chain":
        flags = class_membership(sys, rep, rng=rng)
    P = h - lam
    return PressureReport(
        name=rep.name or rep.kind, entropy=h, lyapunov_sum=lam,
        pressure=P, rho=escape.rho, gap=abs(P - escape.rho),
        entropy_stderr=h_err, class_flags=flags)


def variational_report(sys: OpenSystem,
                       candidates: Sequence[InvariantMeasureRep],
                       escape: EscapeEstimate,
                       equality_tol: float = 1e-4,
                       rng: Optional[np.random.Generator] = None,
                       **kwargs):
    """Pressure reports for all candidates plus the theorem verdict.

    (i) rho_lower >= max pressure - 3 sigma over class-passing candidates;
    (ii) |P_nu_hat - rho| < tol when a nu_hat candidate is present.
    """
    if rng is None:
        rng = np.random.default_rng(42)
    reports = []
    verdict = {"inequality": "PASS", "equality": None, "violations": []}
    for rep in candidates:
        rp = pressure_report(sys, rep, escape, rng=rng, **kwargs)
        reports.append(rp)
        sigma = math.hypot(rp.entropy_stderr, escape.stderr)
        # rho_lower is a finite-horizon liminf proxy; its subdominant
        # oscillation is bounded by the per-step slope spread in the window
        spread = escape.rho_upper - escape.rho_lower
        class_ok = all(v.get("status") != "fail"
                       for v in rp.class_flags.values()) \
            and rep.supported_in_survivor
        if class_ok and escape.rho_lower < rp.pressure - 3 * sigma - spread \
                - 1e-9:
            verdict["inequality"] = "violated"
            verdict["violations"].append({
                "candidate": rp.name, "pressure": rp.pressure,
                "rho_lower": escape.rho_lower, "sigma": sigma})
        if rep.is_nu_hat:
            tol = max(equality_tol, 3 * sigma)
            verdict["equality"] = {
                "gap": rp.gap, "tol": tol,
                "status": "PASS" if rp.gap < tol else "violated"}
    return reports, verdict

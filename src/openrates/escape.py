"""Escape-rate estimation by three independent routes.

rho is the slope of log m(M^n) versus n; the escape rate is -rho.  The
liminf/limsup diagnostics (rho_lower/rho_upper) are running min/max of the
per-step slope over the fit window, so non-convergence shows up instead of
being averaged away.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .systems import (OpenSystem, evolve_survivors, perron,
                      survivor_transition_matrix, word_counts)
from . import ulam as ulam_mod
from .ulam import GridMeasure, UlamOperator

MC_SHARDS = 32  # fixed shard count, so a result depends on the seed only


class DegenerateFitError(RuntimeError):
    pass


class InsufficientSurvivorsError(RuntimeError):
    pass


@dataclass
class EscapeEstimate:
    rho: float
    stderr: float
    method: str
    window: Tuple[int, int]
    per_n_mass: list            # [(n, m(M^n)), ...]
    rho_lower: float
    rho_upper: float
    meta: dict = field(default_factory=dict)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "mass", "log_mass", "cumulative_slope"])
            for n, mass in self.per_n_mass:
                logm = np.log(mass) if mass > 0 else float("-inf")
                slope = logm / n if n > 0 else float("nan")
                w.writerow([n, repr(mass), repr(float(logm)), repr(float(slope))])


def default_window(n_max: int) -> Tuple[int, int]:
    """Skip transient prefactors: fit over [n_max/4, n_max]."""
    return (max(1, n_max // 4), n_max)


def _fit_window(per_n_mass, window, method, stderr=0.0, meta=None):
    n_lo, n_hi = window
    ns = np.array([n for n, _ in per_n_mass])
    ms = np.array([m for _, m in per_n_mass])
    sel = (ns >= n_lo) & (ns <= n_hi)
    if np.count_nonzero(sel) < 2:
        raise DegenerateFitError("window contains fewer than two points")
    if np.any(ms[sel] < 1e-300):
        raise DegenerateFitError("survivor mass underflow inside the window")
    x = ns[sel].astype(float)
    y = np.log(ms[sel])
    slope, _ = np.polyfit(x, y, 1)
    diffs = np.diff(y) / np.diff(x)
    return EscapeEstimate(
        rho=float(slope), stderr=float(stderr), method=method,
        window=(int(n_lo), int(n_hi)),
        per_n_mass=[(int(n), float(m)) for n, m in per_n_mass],
        rho_lower=float(np.min(diffs)), rho_upper=float(np.max(diffs)),
        meta=meta or {})


def escape_rate_grid(sys: OpenSystem, n_max: int,
                     window: Optional[Tuple[int, int]] = None,
                     resolution: Optional[int] = None,
                     m: Optional[GridMeasure] = None,
                     operator: Optional[UlamOperator] = None) -> EscapeEstimate:
    """m(M^n) by pushing survivor mass through the Ulam cell transition."""
    if operator is None:
        if resolution is None:
            resolution = 512 if sys.map.dimension == 1 else 128
        operator = ulam_mod.build_ulam(sys, resolution)
    if m is None:
        m = GridMeasure.lebesgue(operator.dimension, operator.resolution)
    if window is None:
        window = default_window(n_max)
    # ||v P^{k}|| is the mass of M^{k-1}; record per_n_mass[n] = m(M^n)
    masses, _ = ulam_mod.evolve_mass(operator, m.masses, n_max + 1)
    per_n = [(n, masses[n]) for n in range(n_max + 1)]
    return _fit_window(per_n, window, "grid",
                       meta={"resolution": operator.resolution,
                             "assembly": operator.assembly})


def lebesgue_sampler(dimension: int) -> Callable:
    if dimension == 1:
        return lambda rng, size: rng.random(size)
    return lambda rng, size: rng.random((size, 2))


def escape_rate_mc(sys: OpenSystem, sampler: Callable, n_max: int,
                   samples: int, seed: int,
                   window: Optional[Tuple[int, int]] = None) -> EscapeEstimate:
    """Monte Carlo survival curve under i.i.d. draws from the sampler."""
    def simulate(rng, size):
        counts, flagged, _ = evolve_survivors(sys, sampler(rng, size), n_max)
        return counts, flagged

    return sharded_mc_estimates(simulate, samples, seed, n_max, window,
                                "monte_carlo")[0]


def sharded_mc_estimates(simulate: Callable, samples: int, seed: int,
                         n_max: int, window: Optional[Tuple[int, int]],
                         method: str):
    """Survival-curve fits from ``samples`` trajectories in MC_SHARDS seeded
    shards, reduced in shard order, so the result depends on the seed only.

    ``simulate(rng, size)`` returns (survival counts, flagged count); the
    counts have shape (n_max+1,) or, for several holes on shared
    trajectories, (holes, n_max+1).  Returns one estimate per hole, with the
    binomial error propagated through the least-squares slope.
    """
    if window is None:
        window = default_window(n_max)
    ss = np.random.SeedSequence(seed)
    shard_sizes = [samples // MC_SHARDS] * MC_SHARDS
    shard_sizes[-1] += samples - sum(shard_sizes)
    counts = 0
    flagged = 0
    for sseed, size in zip(ss.spawn(MC_SHARDS), shard_sizes):
        c, fl = simulate(np.random.default_rng(sseed), size)
        counts = counts + c
        flagged += fl

    denom = samples - flagged
    n_lo, n_hi = window
    ns = np.arange(n_lo, n_hi + 1)
    xc = ns - ns.mean()
    coef = xc / np.sum(xc ** 2)
    estimates = []
    for i, row in enumerate(np.atleast_2d(counts)):
        if row[n_lo] < 100:
            where = f"hole {i}: " if np.ndim(counts) == 2 else ""
            raise InsufficientSurvivorsError(
                f"{where}only {row[n_lo]} survivors at window start n={n_lo}")
        masses = row / denom
        per_n = [(n, masses[n]) for n in range(n_max + 1)]
        p = masses[n_lo:n_hi + 1]
        var_log = (1.0 - p) / np.maximum(p * denom, 1.0)
        stderr = float(np.sqrt(np.sum(coef ** 2 * var_log)))
        estimates.append(_fit_window(
            per_n, window, method, stderr=stderr,
            meta={"samples": samples, "seed": seed, "flagged": flagged,
                  "shards": MC_SHARDS}))
    return estimates


def escape_rate_words(sys: OpenSystem, k: int,
                      window: Optional[Tuple[int, int]] = None,
                      n_max: int = 40) -> EscapeEstimate:
    """Exact rate log(lambda_A / m) for Markov cylinder holes.

    lambda_A is the Perron root of the survivor transition structure; the
    per_n_mass diagnostics come from word counts N_n / m^n.
    """
    m = sys.map.meta.get("branch_count")
    if window is None:
        window = default_window(n_max)
    lam, _, _ = perron(survivor_transition_matrix(sys, k)[0])
    rho = float(np.log(lam) - np.log(m))

    per_n = [(n, cnt / float(m) ** n)
             for n, cnt in enumerate(word_counts(sys, k, n_max), start=k)]
    est = _fit_window(per_n, (max(window[0], k), window[1]), "word_count",
                      meta={"lambda_A": lam, "branch_count": m, "level": k})
    est.rho = rho  # eigenvalue route is exact; fit kept for diagnostics
    est.stderr = 0.0
    return est


def monotone_rho(estimates: Sequence[EscapeEstimate]) -> bool:
    """True iff rho is non-increasing along a nested-hole sweep."""
    rhos = [e.rho for e in estimates]
    return all(b <= a + 1e-12 for a, b in zip(rhos, rhos[1:]))

"""Ulam discretization of the open-system transfer operator.

Piecewise-constant densities on a uniform grid; the matrix P has
P[i, j] = m(B_i ∩ f^{-1}B_j ∩ (M \\ H)) / m(B_i), so rows of cells inside the
hole are zero and row sums are <= 1.  The dominant eigenpair is computed by
power iteration (1-norm normalized) with deflation for the subdominant
modulus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .systems import OpenSystem


class ConvergenceError(RuntimeError):
    pass


class ResolutionMismatch(UserWarning):
    pass


@dataclass
class GridMeasure:
    """Piecewise-constant measure on a uniform grid over [0,1)^dim.

    ``masses`` is flat (C order for 2D: index = ix * n + iy) and holds cell
    masses, not densities.
    """

    dimension: int
    resolution: int
    masses: np.ndarray

    @classmethod
    def lebesgue(cls, dimension: int, resolution: int):
        ncells = resolution ** dimension
        return cls(dimension, resolution,
                   np.full(ncells, 1.0 / ncells))

    @property
    def ncells(self):
        return self.resolution ** self.dimension

    def density(self):
        return self.masses * self.ncells

    def total(self):
        return float(np.sum(self.masses))

    def normalized(self):
        t = self.total()
        return GridMeasure(self.dimension, self.resolution, self.masses / t)

    def l1_distance(self, other: "GridMeasure") -> float:
        if (other.dimension, other.resolution) != (self.dimension, self.resolution):
            raise ValueError("grid mismatch")
        return float(np.sum(np.abs(self.masses - other.masses)))

    def cell_centers(self):
        n = self.resolution
        c = (np.arange(n) + 0.5) / n
        if self.dimension == 1:
            return c
        gx, gy = np.meshgrid(c, c, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])

    def sample(self, rng: np.random.Generator, size: int):
        """Draw points: cell by mass, uniform within the cell."""
        p = self.masses / self.total()
        idx = rng.choice(self.ncells, size=size, p=p)
        n = self.resolution
        if self.dimension == 1:
            return (idx + rng.random(size)) / n
        ix, iy = np.divmod(idx, n)
        return np.column_stack([(ix + rng.random(size)) / n,
                                (iy + rng.random(size)) / n])

    def cell_index(self, pts):
        n = self.resolution
        if self.dimension == 1:
            return np.minimum((np.asarray(pts) * n).astype(np.int64), n - 1)
        pts = np.asarray(pts)
        ix = np.minimum((pts[..., 0] * n).astype(np.int64), n - 1)
        iy = np.minimum((pts[..., 1] * n).astype(np.int64), n - 1)
        return ix * n + iy


@dataclass
class UlamOperator:
    dimension: int
    resolution: int
    matrix: sp.csr_matrix          # row-substochastic
    hole_cells: np.ndarray         # indices of cells inside the hole
    assembly: str                  # "exact" or "quadrature"
    meta: dict = field(default_factory=dict)

    @property
    def ncells(self):
        return self.matrix.shape[0]

    def nonhole_mask(self):
        mask = np.ones(self.ncells, dtype=bool)
        mask[self.hole_cells] = False
        return mask

    def export_coo(self, path):
        """Sparse export: one 'i j value' line per nonzero."""
        coo = self.matrix.tocoo()
        with open(path, "w") as fh:
            fh.write(f"# {self.ncells} {self.ncells} {coo.nnz}\n")
            for i, j, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{i} {j} {v!r}\n")


@dataclass
class SpectralData:
    eigenvalue: float
    right: np.ndarray              # quasi-stationary mass vector, sum 1
    left: np.ndarray               # dual (survival) functional, max 1
    residual: float
    gap_estimate: float
    iterations: int

    def to_json_dict(self):
        return {
            "eigenvalue": self.eigenvalue,
            "residual": self.residual,
            "gap_estimate": self.gap_estimate,
            "right": self.right.tolist(),
            "left": self.left.tolist(),
        }


# ---------------------------------------------------------------------------
# assembly

def _assemble_exact_1d(sys: OpenSystem, n: int):
    """Exact geometry for piecewise-linear full-branch m-adic maps."""
    m = sys.map.meta["branch_count"]
    if n % m != 0 and n != 1:
        raise ValueError(
            f"resolution {n} incompatible with branch count {m} for exact "
            "assembly; use a multiple of the branch count")
    centers = (np.arange(n) + 0.5) / n
    in_hole = sys.hole.in_hole_many(centers)
    # warn if cells straddle the hole boundary
    edges = np.arange(1, n) / n
    mism = []
    for a, b in sys.hole.meta.get("intervals", []):
        for e in (a % 1.0, b % 1.0):
            if not np.any(np.isclose(edges, e, atol=1e-12)) and e not in (0.0,):
                mism.append(e)
    if mism:
        import warnings
        warnings.warn(
            f"hole boundary points {mism} are not grid edges at resolution {n}",
            ResolutionMismatch)
    rows, cols, vals = [], [], []
    for i in range(n):
        if in_hole[i]:
            continue
        j0 = (m * i) % n
        for t in range(m):
            rows.append(i)
            cols.append((j0 + t) % n)
            vals.append(1.0 / m)
    P = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return P, np.nonzero(in_hole)[0]


def _assemble_quadrature(sys: OpenSystem, n: int, subsamples: int = 8):
    """Per-cell midpoint quadrature with subsamples^dim points per cell."""
    dim = sys.map.dimension
    s = subsamples
    if dim == 1:
        ncells = n
        offs = (np.arange(s) + 0.5) / (s * n)
        pts = (np.arange(n)[:, None] / n + offs[None, :]).ravel()
        src = np.repeat(np.arange(n), s)
        per_cell = s
    else:
        ncells = n * n
        o = (np.arange(s) + 0.5) / (s * n)
        ox, oy = np.meshgrid(o, o, indexing="ij")
        base = GridMeasure.lebesgue(2, n).cell_centers() - 0.5 / n
        pts = (base[:, None, :] +
               np.column_stack([ox.ravel(), oy.ravel()])[None, :, :])
        pts = pts.reshape(-1, 2)
        src = np.repeat(np.arange(ncells), s * s)
        per_cell = s * s

    outside = ~sys.hole.in_hole_many(pts)
    imgs = sys.map.step_many(pts[outside])
    src_ok = src[outside]
    tgt = GridMeasure(dim, n, np.zeros(ncells)).cell_index(imgs)
    w = 1.0 / per_cell
    P = sp.coo_matrix((np.full(len(src_ok), w), (src_ok, tgt)),
                      shape=(ncells, ncells)).tocsr()
    P.sum_duplicates()
    # hole cells: every subsample inside the hole
    inside_count = np.bincount(src[~outside], minlength=ncells)
    hole_cells = np.nonzero(inside_count == per_cell)[0]
    return P, hole_cells


def build_ulam(sys: OpenSystem, resolution: int,
               subsamples: int = 8) -> UlamOperator:
    exact = (sys.map.dimension == 1
             and sys.map.meta.get("piecewise_linear")
             and sys.map.meta.get("branch_count") is not None)
    if exact:
        P, hole_cells = _assemble_exact_1d(sys, resolution)
        method = "exact"
    else:
        P, hole_cells = _assemble_quadrature(sys, resolution, subsamples)
        method = "quadrature"
    rowsums = np.asarray(P.sum(axis=1)).ravel()
    if np.any(rowsums > 1.0 + 1e-12):
        raise AssertionError("Ulam matrix is not row-substochastic")
    return UlamOperator(sys.map.dimension, resolution, P, hole_cells, method,
                        meta={"subsamples": subsamples,
                              "map": sys.map.label,
                              "hole": sys.hole.kind})


# ---------------------------------------------------------------------------
# dominant eigenpair

def _power_iterate(apply_op, v0, tol, max_iters):
    v = v0 / np.sum(np.abs(v0))
    lam = 0.0
    for it in range(1, max_iters + 1):
        w = apply_op(v)
        lam = float(np.sum(np.abs(w)))
        if lam == 0.0:
            raise ConvergenceError("operator annihilated the iterate")
        w = w / lam
        res = float(np.sum(np.abs(w - v)))
        v = w
        if res * lam < tol:
            return lam, v, it
    raise ConvergenceError(
        f"no convergence after {max_iters} iterations (gap failure or "
        "eigenvalue near-degeneracy)")


def leading_eigenpair(U: UlamOperator, tol: float = 1e-13,
                      max_iters: int = 200_000) -> SpectralData:
    P = U.matrix
    if P.nnz == 0:
        raise ValueError("matrix is zero: all mass escapes immediately")
    ncells = U.ncells
    mask = U.nonhole_mask()

    v0 = mask.astype(float)
    PT = P.T.tocsr()
    lam, v, it1 = _power_iterate(lambda x: PT @ x, v0, tol, max_iters)
    u0 = mask.astype(float)
    lam2, u, it2 = _power_iterate(lambda x: P @ x, u0, tol, max_iters)

    right = v / np.sum(v)
    left = u / np.max(u)
    residual = float(np.sum(np.abs(PT @ right - lam * right)))

    gap = _subdominant_ratio(P, PT, lam, right, left)
    return SpectralData(eigenvalue=lam, right=right, left=left,
                        residual=residual, gap_estimate=gap,
                        iterations=it1 + it2)


def _subdominant_ratio(P, PT, lam, right, left, iters: int = 400):
    """|lambda_2| / r from power iteration with the dominant pair deflated."""
    rng = np.random.default_rng(12345)
    w = rng.standard_normal(len(right))
    denom = float(left @ right)
    if denom == 0.0:
        return float("nan")
    w = w - right * (left @ w) / denom
    prev = np.sum(np.abs(w))
    ratio = 0.0
    for _ in range(iters):
        w = PT @ w
        w = w - right * (left @ w) / denom
        cur = np.sum(np.abs(w))
        if cur == 0.0 or not np.isfinite(cur):
            return 0.0
        ratio = cur / prev
        w = w / cur
        prev = 1.0
    return float(ratio / lam)


# ---------------------------------------------------------------------------
# derived objects and checks

def evolve_mass(U: UlamOperator, v: np.ndarray, n: int):
    """Open evolution of a mass row-vector; returns the list of per-step
    survivor masses [||v P||, ||v P^2||, ...] and the final vector.

    Hole rows of P are zero, so ||v P^k|| is the mass of M^{k-1} when v is the
    initial (unrestricted) distribution.
    """
    PT = U.matrix.T.tocsr()
    masses = []
    cur = v.copy()
    for _ in range(n):
        cur = PT @ cur
        masses.append(float(np.sum(cur)))
    return np.array(masses), cur


def conditionally_invariant_check(sys: OpenSystem, U: UlamOperator,
                                  S: SpectralData, n: int):
    """Max deviation checks for the quasi-stationary density.

    Returns (one_step_distance, distance_of_m^(n)_to_h), both in L^1 on
    masses."""
    PT = U.matrix.T.tocsr()
    h = S.right
    pushed = PT @ h
    t = np.sum(pushed)
    d1 = float(np.sum(np.abs(pushed / t - h))) if t > 0 else float("inf")

    v = np.full(U.ncells, 1.0 / U.ncells)
    for _ in range(n):
        v = PT @ v
        tv = np.sum(v)
        if tv == 0.0:
            return d1, float("inf")
        v = v / tv
    d2 = float(np.sum(np.abs(v - h)))
    return d1, d2


def survivor_measure(U: UlamOperator, S: SpectralData, tol: float = 1e-8,
                     n_cap: int = 200):
    """Invariant measure on the survivor set, computed two ways.

    (i) cellwise product left * right, normalized;
    (ii) the limit r^{-n} mu*(B ∩ M^n) evaluated per cell until stabilized.
    Returns (GridMeasure, info) where info records the route discrepancy.
    """
    lam = S.eigenvalue
    prod = S.right * S.left
    tot = np.sum(prod)
    if tot <= 0:
        raise ValueError("degenerate left/right product")
    nu_i = prod / tot

    P = U.matrix
    surv = U.nonhole_mask().astype(float)
    prev = None
    n_used = 0
    for n in range(1, n_cap + 1):
        surv = (P @ surv) / lam
        est = S.right * surv
        t = np.sum(est)
        if t <= 0:
            raise ValueError("limit-route mass vanished")
        est = est / t
        if prev is not None and np.sum(np.abs(est - prev)) < tol:
            n_used = n
            break
        prev = est
    else:
        n_used = n_cap
    disc = float(np.sum(np.abs(nu_i - est)))
    if disc > 1e-4:
        raise ValueError(
            f"survivor-measure routes disagree in L1 by {disc:.3e}")
    gm = GridMeasure(U.dimension, U.resolution, nu_i)
    return gm, {"route_discrepancy": disc, "n_used": n_used}


def doob_transform(U: UlamOperator, S: SpectralData) -> sp.csr_matrix:
    """Stochastic matrix of the closed survivor dynamics on the grid.

    Q[i, j] = P[i, j] * u_j / (r * u_i) on cells where the survival function
    u is positive; the survivor measure is Q-stationary."""
    u = S.left
    lam = S.eigenvalue
    pos = u > 1e-14 * np.max(u)
    d_inv = np.zeros_like(u)
    d_inv[pos] = 1.0 / (lam * u[pos])
    Q = sp.diags(d_inv) @ U.matrix @ sp.diags(u)
    return Q.tocsr()

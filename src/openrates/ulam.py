"""Ulam discretization of the open-system transfer operator.

Piecewise-constant densities on a uniform grid; the matrix P has
P[i, j] = m(B_i ∩ f^{-1}B_j ∩ (M \\ H)) / m(B_i), so rows of cells inside the
hole are zero and row sums are <= 1.  The dominant eigenpair is computed by
power iteration (1-norm normalized) with deflation for the subdominant
modulus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .systems import OpenSystem, _mod1


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

    def total(self):
        return float(np.sum(self.masses))

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

    @property
    def ncells(self):
        return self.matrix.shape[0]

    def nonhole_mask(self):
        mask = np.ones(self.ncells, dtype=bool)
        mask[self.hole_cells] = False
        return mask

    def export_coo(self, path):
        """Sparse export: one 'i j value' line per nonzero, the value as the
        shortest repr that reads back to the same float.  Entries go out
        in slices of 65536 so the Python objects they are formatted from
        never hold the whole matrix; each slice is one ``%`` call, with the
        repr taken once per distinct value (bit pattern), since quadrature
        entries are count / 8^dim and so take few values."""
        coo = self.matrix.tocoo()
        with open(path, "w") as fh:
            fh.write(f"# {self.ncells} {self.ncells} {coo.nnz}\n")
            for k in range(0, coo.nnz, 65536):
                part = slice(k, k + 65536)
                bits, inv = np.unique(coo.data[part].view(np.int64),
                                      return_inverse=True)
                reprs = np.array([repr(v) for v in
                                  bits.view(np.float64).tolist()],
                                 dtype=object)
                cells = np.empty((len(inv), 3), dtype=object)
                cells[:, 0] = coo.row[part].tolist()
                cells[:, 1] = coo.col[part].tolist()
                cells[:, 2] = reprs[inv]
                fh.write("%d %d %s\n" * len(inv)
                         % tuple(cells.ravel().tolist()))


@dataclass
class SpectralData:
    eigenvalue: float
    right: np.ndarray              # quasi-stationary mass vector, sum 1
    left: np.ndarray               # dual (survival) functional, max 1
    residual: float
    gap_estimate: float
    iterations: int

    def to_json_dict(self):
        """The scalars only: ``or-verify`` writes ``right`` and ``left`` to
        ``qsd.csv`` and ``survival_function.csv``."""
        return {
            "eigenvalue": self.eigenvalue,
            "residual": self.residual,
            "gap_estimate": self.gap_estimate,
        }


# ---------------------------------------------------------------------------
# assembly

def _assemble_exact_1d(sys: OpenSystem, n: int):
    """Exact geometry for piecewise-linear full-branch m-adic maps."""
    m = sys.map.branch_count
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
        for e in _mod1([a, b]).tolist():
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


def _assemble_quadrature(sys: OpenSystem, n: int):
    """Per-cell midpoint quadrature with 8^dim points per cell.

    Streams over blocks of 4096 source cells: each block's points are
    tested against the hole, stepped and binned at once, and each row keeps
    only its distinct targets with their hit counts, so memory is
    O(nnz + block) rather than O(n^dim * 8^dim).  A row's entry is
    count / 8^dim, which equals the sum of count copies of 1 / 8^dim exactly
    (a power of two)."""
    dim = sys.map.dimension
    s = 8
    ncells = n ** dim
    per_cell = s ** dim
    o = (np.arange(s) + 0.5) / (s * n)
    if dim == 1:
        offs = o
    else:
        ox, oy = np.meshgrid(o, o, indexing="ij")
        offs = np.column_stack([ox.ravel(), oy.ravel()])
        base = GridMeasure.lebesgue(2, n).cell_centers() - 0.5 / n
    grid = GridMeasure(dim, n, np.zeros(0))
    row_nnz, cols, counts = [], [], []
    # hole cells: every subsample inside the hole
    hole = np.empty(ncells, dtype=bool)
    for c0 in range(0, ncells, 4096):
        c1 = min(c0 + 4096, ncells)
        if dim == 1:
            pts = (np.arange(c0, c1)[:, None] / n + offs).ravel()
        else:
            pts = (base[c0:c1, None, :] + offs).reshape(-1, 2)
        inside = sys.hole.in_hole_many(pts)
        tgt = grid.cell_index(sys.map.step_many(pts))
        tgt[inside] = ncells                      # sentinel, sorts last
        tgt = np.sort(tgt.reshape(c1 - c0, per_cell), axis=1)
        hole[c0:c1] = inside.reshape(c1 - c0, per_cell).all(axis=1)
        # run starts of each sorted row; every row opens a run
        start = np.ones(tgt.shape, dtype=bool)
        start[:, 1:] = tgt[:, 1:] != tgt[:, :-1]
        pos = np.flatnonzero(start)
        run = np.diff(pos, append=tgt.size)
        first = tgt.ravel()[pos]
        keep = first < ncells
        row_nnz.append(np.bincount(pos[keep] // per_cell,
                                   minlength=c1 - c0))
        cols.append(first[keep])
        counts.append(run[keep])
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(row_nnz))])
    data = np.concatenate(counts) * (1.0 / per_cell)
    # scipy stores int32 indices whenever they fit
    P = sp.csr_matrix((data, np.concatenate(cols), indptr),
                      shape=(ncells, ncells))
    return P, np.flatnonzero(hole)


def build_ulam(sys: OpenSystem, resolution: int) -> UlamOperator:
    if sys.map.branch_count is not None:
        P, hole_cells = _assemble_exact_1d(sys, resolution)
        method = "exact"
    else:
        P, hole_cells = _assemble_quadrature(sys, resolution)
        method = "quadrature"
    rowsums = np.asarray(P.sum(axis=1)).ravel()
    if np.any(rowsums > 1.0 + 1e-12):
        raise AssertionError("Ulam matrix is not row-substochastic")
    return UlamOperator(sys.map.dimension, resolution, P, hole_cells, method)


# ---------------------------------------------------------------------------
# dominant eigenpair

def _power_iterate(apply_op, v0, max_iters):
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
        if res * lam < 1e-13:
            return lam, v, it
    raise ConvergenceError(
        f"no convergence after {max_iters} iterations (gap failure or "
        "eigenvalue near-degeneracy)")


def leading_eigenpair(U: UlamOperator,
                      max_iters: int = 200_000) -> SpectralData:
    P = U.matrix
    if P.nnz == 0:
        raise ValueError("matrix is zero: all mass escapes immediately")
    mask = U.nonhole_mask()

    v0 = mask.astype(float)
    PT = P.T.tocsr()
    lam, v, it1 = _power_iterate(lambda x: PT @ x, v0, max_iters)
    u0 = mask.astype(float)
    lam2, u, it2 = _power_iterate(lambda x: P @ x, u0, max_iters)

    right = v / np.sum(v)
    left = u / np.max(u)
    residual = float(np.sum(np.abs(PT @ right - lam * right)))

    gap = _subdominant_ratio(PT, lam, right, left)
    return SpectralData(eigenvalue=lam, right=right, left=left,
                        residual=residual, gap_estimate=gap,
                        iterations=it1 + it2)


def _subdominant_ratio(PT, lam, right, left):
    """|lambda_2| / r from 400 power iterations with the dominant pair
    deflated.

    An iterate that vanishes gives 0 (no subdominant spectrum); one that
    turns non-finite raises ConvergenceError.

    The projections sum with numpy's pairwise np.sum, not a BLAS dot,
    whose summation order (and so the last bits of the ratio) follows
    the BLAS thread count."""
    rng = np.random.default_rng(12345)
    w = rng.standard_normal(len(right))
    denom = float(np.sum(left * right))
    if denom == 0.0:
        return float("nan")
    buf = np.empty_like(w)

    def deflate(w):
        # w -= right * sum(left * w) / denom through ``buf``; returns |w|_1
        np.multiply(left, w, out=buf)
        np.multiply(right, np.sum(buf), out=buf)
        np.divide(buf, denom, out=buf)
        np.subtract(w, buf, out=w)
        return np.sum(np.abs(w, out=buf))

    prev = deflate(w)
    ratio = 0.0
    for _ in range(400):
        w = PT @ w
        cur = deflate(w)
        if cur == 0.0:
            return 0.0
        if not np.isfinite(cur):
            raise ConvergenceError("deflated iterate became non-finite: no "
                                   "spectral gap estimate")
        ratio = cur / prev
        np.divide(w, cur, out=w)
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


def survivor_measure(U: UlamOperator, S: SpectralData):
    """Invariant measure on the survivor set, computed two ways.

    (i) cellwise product left * right, normalized;
    (ii) the limit r^{-n} mu*(B ∩ M^n) evaluated per cell until successive
    iterates differ by less than 1e-8 in L1, for at most 200 steps.
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
    for n_used in range(1, 201):
        surv = (P @ surv) / lam
        est = S.right * surv
        t = np.sum(est)
        if t <= 0:
            raise ValueError("limit-route mass vanished")
        est = est / t
        if prev is not None and np.sum(np.abs(est - prev)) < 1e-8:
            break
        prev = est
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

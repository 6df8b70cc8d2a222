"""Ulam discretization of the open-system transfer operator.

Piecewise-constant densities on a uniform grid; the matrix P has
P[i, j] = m(B_i ∩ f^{-1}B_j ∩ (M \\ H)) / m(B_i), so row sums are <= 1 and
the hole cells are the empty rows of the sparse matrix.  The dominant
eigenpair is computed by power iteration (1-norm normalized); the decay of
its residuals gives the subdominant modulus.  The survivor measure is the
normalized cellwise product of the right and left eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .systems import (ConvergenceError, OpenSystem, _fork_map, _mod1,
                      _power_iterate, nonhole_cells)

if TYPE_CHECKING:
    # scipy.sparse is imported where a matrix is built, so a process that
    # builds none never loads it (on numpy 2.4 / scipy 1.17 it pulls in
    # numpy.f2py, numpy.testing and numpy.ma: ~0.2 s and ~11 MB)
    import scipy.sparse as sp


class ResolutionMismatch(UserWarning):
    pass


def _cell_index(pts, n: int):
    """Flat index of the cell of the uniform n-grid holding each point:
    ``pts`` of shape (N,) on [0,1) or (N, 2) on [0,1)^2, 2D cells in C
    order (index = ix * n + iy)."""
    pts = np.asarray(pts)
    if pts.ndim == 1:
        return np.minimum((pts * n).astype(np.int64), n - 1)
    ix, iy = (_cell_index(pts[:, k], n) for k in (0, 1))
    return ix * n + iy


@dataclass
class UlamOperator:
    matrix: sp.csr_matrix          # row-substochastic; hole cells: empty rows
    assembly: str                  # "exact" or "quadrature"

    def nonhole_mask(self):
        return np.diff(self.matrix.indptr) > 0

    def export_coo(self, path):
        """Sparse export: one 'i j value' line per nonzero, the value as the
        shortest repr that reads back to the same float.  Entries go out
        in slices of 65536 so the Python objects they are formatted from
        never hold the whole matrix; each slice is one ``%`` call, with the
        repr taken once per distinct value (bit pattern), since quadrature
        entries are count / 8^dim and so take few values."""
        coo = self.matrix.tocoo()
        with open(path, "w") as fh:
            fh.write(f"# {coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
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
    residual: float                # |right P - lambda right|_1 / |right|_1
    left_residual: float           # |P left - lambda left|_1 / |left|_1
    gap_estimate: float
    iterations: int

    def to_json_dict(self):
        """The scalars only: ``or-verify`` writes ``right`` and ``left`` to
        ``qsd.csv`` and ``survival_function.csv``."""
        return {
            "eigenvalue": self.eigenvalue,
            "residual": self.residual,
            "left_residual": self.left_residual,
            "gap_estimate": self.gap_estimate,
        }


# ---------------------------------------------------------------------------
# assembly

def _assemble_exact_1d(sys: OpenSystem, n: int):
    """Exact geometry for piecewise-linear full-branch m-adic maps."""
    import scipy.sparse as sp

    m = sys.map.branch_count
    if n % m != 0 and n != 1:
        raise ValueError(
            f"resolution {n} incompatible with branch count {m} for exact "
            "assembly; use a multiple of the branch count")
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
    # non-hole cell i spreads 1/m onto each of the m cells from (m * i) mod n
    keep = nonhole_cells(sys, n)
    rows = np.repeat(keep, m)
    cols = ((m * keep[:, None] + np.arange(m)) % n).ravel()
    return sp.csr_matrix((np.full(rows.size, 1.0 / m), (rows, cols)),
                         shape=(n, n))


def _assemble_quadrature(sys: OpenSystem, n: int):
    """Per-cell midpoint quadrature with 8^dim points per cell.

    Streams over blocks of 1024 source cells (``_quadrature_rows``), one
    contiguous run of blocks per ``_fork_map`` worker, so the block
    temporaries live in the workers, and memory is O(nnz + block) per
    process rather than O(n^dim * 8^dim).  In 2D a block is 65,536 points,
    whose temporaries add ~13 MB to a worker; larger blocks only add memory
    (4096 cells: ~25 MB, same build time).  The runs are concatenated in
    order, so the arrays do not depend on the worker count.  A row's entry
    is count / 8^dim, which equals the sum of count copies of 1 / 8^dim
    exactly (a power of two).  A row is empty when all its cell's points
    are in the hole."""
    import scipy.sparse as sp

    ncells = n ** sys.map.dimension
    runs = _fork_map(_quadrature_rows, range(0, ncells, 1024), sys, n)
    row_nnz, cols, counts = (np.concatenate(a) for a in zip(*runs))
    indptr = np.concatenate([[0], np.cumsum(row_nnz)])
    data = counts * (1.0 / 8 ** sys.map.dimension)
    # scipy stores int32 indices whenever they fit
    return sp.csr_matrix((data, cols, indptr), shape=(ncells, ncells))


def _quadrature_rows(sys: OpenSystem, n: int, starts):
    """(entries per row, target cells, hit counts) of the source cells in
    the blocks of 1024 cells that begin at ``starts``, in row order: each
    block's points are tested against the hole, stepped and binned at once,
    and each row keeps only its distinct targets with their hit counts."""
    dim = sys.map.dimension
    s = 8
    ncells = n ** dim
    per_cell = s ** dim
    o = (np.arange(s) + 0.5) / (s * n)
    if dim == 2:
        c = (np.arange(n) + 0.5) / n - 0.5 / n      # cell corners
        # the x and y offsets of a cell's points, in C order; the grid is
        # built one coordinate at a time
        ox, oy = np.repeat(o, s), np.tile(o, s)
    row_nnz, cols, counts = [], [], []
    for c0 in starts:
        c1 = min(c0 + 1024, ncells)
        if dim == 1:
            pts = (np.arange(c0, c1)[:, None] / n + o).ravel()
        else:
            cells = np.arange(c0, c1)
            pts = np.empty(((c1 - c0) * per_cell, 2))
            pts[:, 0] = (c[cells // n, None] + ox).ravel()
            pts[:, 1] = (c[cells % n, None] + oy).ravel()
        inside = sys.hole.in_hole_many(pts)
        tgt = _cell_index(sys.map.step_many(pts), n)
        tgt[inside] = ncells                      # sentinel, sorts last
        tgt = np.sort(tgt.reshape(c1 - c0, per_cell), axis=1)
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
    return tuple(np.concatenate(a) for a in (row_nnz, cols, counts))


def build_ulam(sys: OpenSystem, resolution: int) -> UlamOperator:
    if isinstance(resolution, bool) or \
            not isinstance(resolution, (int, np.integer)) or resolution < 1:
        raise ValueError(f"Ulam resolution must be a positive integer, got "
                         f"{resolution!r}")
    if sys.map.branch_count is not None:
        P = _assemble_exact_1d(sys, resolution)
        method = "exact"
    else:
        P = _assemble_quadrature(sys, resolution)
        method = "quadrature"
    rowsums = np.asarray(P.sum(axis=1)).ravel()
    if np.any(rowsums > 1.0 + 1e-12):
        raise AssertionError("Ulam matrix is not row-substochastic")
    return UlamOperator(P, method)


# ---------------------------------------------------------------------------
# dominant eigenpair

def _decay_ratio(residuals):
    """|lambda_2| / lambda_1 as exp of the least-squares slope of
    log(residual) against iteration count, over the residuals in
    [1e-11, 1e-2]: past the first transients and above the roundoff floor
    of the 1e-13 stop.  Fewer than 3 such residuals means the iterate
    converged at once, with no subdominant spectrum to see: 0.0.

    The sums are numpy's pairwise np.sum, not a BLAS dot, so the last bits
    do not follow the BLAS thread count."""
    r = np.asarray(residuals)
    k = np.flatnonzero((r >= 1e-11) & (r <= 1e-2))
    if len(k) < 3:
        return 0.0
    y = np.log(r[k])
    dk = k - np.sum(k) / len(k)
    return float(np.exp(np.sum(dk * y) / np.sum(dk * dk)))


def leading_eigenpair(U: UlamOperator,
                      max_iters: int = 200_000) -> SpectralData:
    """Right and left Perron vectors by power iteration; ConvergenceError
    unless both relative eigen-equation residuals are below 1e-8."""
    P = U.matrix
    if P.nnz == 0:
        raise ValueError("matrix is zero: all mass escapes immediately")
    v0 = U.nonhole_mask().astype(float)
    PT = P.T.tocsr()
    lam, v, it1, residuals = _power_iterate(lambda x: PT @ x, v0, max_iters,
                                           1e-13)
    _, u, it2, _ = _power_iterate(lambda x: P @ x, v0, max_iters, 1e-13)

    right = v / np.sum(v)
    left = u / np.max(u)
    residual = float(np.sum(np.abs(PT @ right - lam * right)))
    left_residual = float(np.sum(np.abs(P @ left - lam * left)) / np.sum(left))
    if not (residual < 1e-8 and left_residual < 1e-8):
        raise ConvergenceError(
            f"eigenpair residuals {residual:.3e} (right) and "
            f"{left_residual:.3e} (left) are not both below 1e-8")

    return SpectralData(eigenvalue=lam, right=right, left=left,
                        residual=residual, left_residual=left_residual,
                        gap_estimate=_decay_ratio(residuals),
                        iterations=it1 + it2)


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


def survivor_measure(S: SpectralData):
    """Cell masses of the invariant measure on the survivor set: the
    cellwise product right * left, normalized."""
    prod = S.right * S.left
    tot = np.sum(prod)
    if tot <= 0:
        raise ValueError("degenerate left/right product")
    return prod / tot

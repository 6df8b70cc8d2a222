import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from openrates import ulam as U
from openrates.systems import (OpenSystem, adic_map, baker_map, ball_hole_2d,
                               cylinder_union_hole, doubling_map,
                               interval_union_hole, logistic_like, cat_map,
                               empty_hole)

PHI = (1 + math.sqrt(5)) / 2


def test_exact_assembly_golden(golden_system):
    op = U.build_ulam(golden_system, 16)
    assert op.assembly == "exact"
    P = op.matrix.toarray()
    rows = P.sum(axis=1)
    assert np.all(rows <= 1 + 1e-14)
    # the empty rows are the cells whose centre is in the hole
    centres = (np.arange(16) + 0.5) / 16
    assert np.array_equal(~op.nonhole_mask(),
                          golden_system.hole.in_hole_many(centres))
    # non-hole rows have entries exactly 1/2
    nz = P[P > 0]
    assert np.all(nz == 0.5)


def _exact_1d_cell_loop(sys_obj, n):
    """Exact assembly as one COO triple per branch of each non-hole cell in
    a Python loop; the reference the vectorised assembly must reproduce bit
    for bit."""
    m = sys_obj.map.branch_count
    in_hole = sys_obj.hole.in_hole_many((np.arange(n) + 0.5) / n)
    rows, cols, vals = [], [], []
    for i in range(n):
        if in_hole[i]:
            continue
        j0 = (m * i) % n
        for t in range(m):
            rows.append(i)
            cols.append((j0 + t) % n)
            vals.append(1.0 / m)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n)), in_hole


_GOLDEN = OpenSystem(doubling_map(), cylinder_union_hole(2, 2, [(1, 1)]))


@pytest.mark.parametrize("sys_obj, n, mismatch", [
    # the hole edge 3/4 is no grid edge at one and two cells
    *[(_GOLDEN, n, n < 4) for n in (1, 2, 4, 64, 2 ** 16)],
    (OpenSystem(adic_map(3), cylinder_union_hole(3, 1, [(1,)])), 729, False),
    (OpenSystem(adic_map(5), cylinder_union_hole(
        5, 3, [(1, 3, 2), (4, 0, 1)])), 125, False),
    (OpenSystem(doubling_map(), interval_union_hole([(0.1, 0.3)])), 64,
     True),
], ids=["golden1", "golden2", "golden4", "golden64", "golden65536",
        "triadic729", "5adic125", "interval64"])
def test_exact_assembly_matches_cell_loop(sys_obj, n, mismatch):
    if mismatch:
        with pytest.warns(U.ResolutionMismatch):
            P = U._assemble_exact_1d(sys_obj, n)
    else:
        P = U._assemble_exact_1d(sys_obj, n)
    ref, in_hole = _exact_1d_cell_loop(sys_obj, n)
    assert P.shape == ref.shape
    assert np.array_equal(P.indptr, ref.indptr)
    assert np.array_equal(P.indices, ref.indices)
    assert P.data.tobytes() == ref.data.tobytes()
    # the empty rows are the cells whose centre is in the hole
    assert np.array_equal(np.diff(P.indptr) == 0, in_hole)


def test_leading_eigenpair_golden(golden_system):
    op = U.build_ulam(golden_system, 16)
    spec = U.leading_eigenpair(op)
    assert spec.eigenvalue == pytest.approx(PHI / 2, abs=1e-13)
    assert spec.residual < 1e-12
    assert spec.right.sum() == pytest.approx(1.0)
    assert spec.left.max() == pytest.approx(1.0)
    assert 0 < spec.gap_estimate < 1


def test_resolution_refinement_agrees(golden_system):
    a = U.leading_eigenpair(U.build_ulam(golden_system, 16)).eigenvalue
    b = U.leading_eigenpair(U.build_ulam(golden_system, 64)).eigenvalue
    assert abs(a - b) < 1e-12


def test_triadic_eigenvalue(triadic_system):
    op = U.build_ulam(triadic_system, 27)
    spec = U.leading_eigenpair(op)
    assert spec.eigenvalue == pytest.approx(2 / 3, abs=1e-12)
    # lambda_2 = 0: the iterate converges at once, leaving no residuals
    # to fit
    assert spec.gap_estimate == 0.0


def test_quadrature_assembly_substochastic():
    sys_obj = OpenSystem(logistic_like(3.9),
                         interval_union_hole([(0.45, 0.55)]))
    op = U.build_ulam(sys_obj, 100)
    assert op.assembly == "quadrature"
    rows = np.asarray(op.matrix.sum(axis=1)).ravel()
    assert np.all(rows <= 1 + 1e-12)
    spec = U.leading_eigenpair(op)
    assert 0 < spec.eigenvalue < 1


def test_resolution_mismatch_warning(golden_system):
    with pytest.warns(U.ResolutionMismatch):
        U.build_ulam(golden_system, 10)   # 3/4 is not a grid point of 10


def test_evolve_mass_matches_powers(golden_system):
    op = U.build_ulam(golden_system, 16)
    v = np.full(16, 1 / 16)
    masses, final = U.evolve_mass(op, v, 5)
    P = op.matrix.toarray()
    w = v.copy()
    for n in range(1, 6):
        w = w @ P
        assert masses[n - 1] == pytest.approx(w.sum(), rel=1e-14)
    assert np.allclose(final, w)


@pytest.mark.parametrize("matrix", [
    # rows of 1e308 overflow the 1-norm of the first iterate
    [[0.0, 0.0, 0.0], [0.0, 1e308, 1e308], [0.0, 1e308, 1e308]],
    [[0.5, np.nan, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]],
], ids=["overflow", "nan"])
def test_leading_eigenpair_rejects_non_finite_iterate(matrix):
    # raised at the first iteration, not after max_iters of NaN iterates
    op = U.UlamOperator(sp.csr_matrix(matrix), "exact")
    with np.errstate(over="ignore"), \
            pytest.raises(U.ConvergenceError, match="non-finite"):
        U.leading_eigenpair(op)


# |lambda_2| / lambda_1 of the dense matrix against the residual-decay
# estimate.  Each tolerance sits above the largest error measured in its
# class over twelve operators (up to 512^2 and 2^18 cells, against ARPACK
# there): under 1.4% on the 1D doubling and interval holes, 6.5% on the
# 5-adic map (lambda_2 and lambda_4 are near-equal complex pairs) and 3.6%
# in 2D.  Errors on these cases: golden +0.0006%, doubling +0.20%, 5-adic
# +6.5%, cat -3.6%, baker +0.25%.
@pytest.mark.parametrize("sys_obj, n, rel", [
    (_GOLDEN, 64, 0.02),
    (OpenSystem(doubling_map(), cylinder_union_hole(2, 6, [(0,) * 6])),
     1024, 0.02),
    (OpenSystem(adic_map(5), cylinder_union_hole(
        5, 3, [(1, 3, 2), (4, 0, 1)])), 125, 0.08),
    (OpenSystem(cat_map(), ball_hole_2d((0.25, 0.75), 0.1)), 32, 0.05),
    (OpenSystem(baker_map(), ball_hole_2d((0.25, 0.75), 0.1)), 32, 0.05),
], ids=["golden64", "doubling1024", "5adic125", "cat32", "baker32"])
def test_gap_estimate_matches_dense_spectrum(sys_obj, n, rel):
    op = U.build_ulam(sys_obj, n)
    moduli = np.sort(np.abs(np.linalg.eigvals(op.matrix.toarray())))
    spec = U.leading_eigenpair(op)
    assert spec.gap_estimate == pytest.approx(moduli[-2] / moduli[-1],
                                              rel=rel)


def test_survivor_measure_golden(golden_system):
    op = U.build_ulam(golden_system, 4)
    spec = U.leading_eigenpair(op)
    nu, info = U.survivor_measure(op, spec)
    # exact quarter-cell masses of the survivor measure
    assert nu[3] == pytest.approx(0.0, abs=1e-12)
    assert nu[0] == pytest.approx(0.4472135955, abs=1e-9)
    assert nu[1] == pytest.approx(0.2763932023, abs=1e-9)
    assert nu[2] == pytest.approx(0.2763932023, abs=1e-9)
    assert info["route_discrepancy"] < 1e-4


@pytest.mark.parametrize("resolution", [0, -4, 2.5, 16.0, True, "8"])
@pytest.mark.parametrize("sys_obj", [
    OpenSystem(cat_map(), ball_hole_2d((0.25, 0.75), 0.1)),
    OpenSystem(doubling_map(), cylinder_union_hole(2, 2, [(1, 1)]))],
    ids=["cat", "doubling"])
def test_build_ulam_rejects_bad_resolution(sys_obj, resolution):
    with pytest.raises(ValueError, match="positive integer"):
        U.build_ulam(sys_obj, resolution)


def test_build_ulam_takes_numpy_integer(golden_system):
    op = U.build_ulam(golden_system, np.int64(16))
    assert op.matrix.shape == (16, 16)


def test_cell_index_range(rng):
    # the last float below 1 stays in the last cell
    top = np.nextafter(1.0, 0.0)
    xs = np.concatenate([rng.random(500), [0.0, top]])
    idx = U._cell_index(xs, 8)
    assert idx.min() == 0 and idx.max() == 7
    assert np.array_equal(idx, np.floor(xs * 8))
    pts = np.concatenate([rng.random((500, 2)), [[0.0, top], [top, 0.0]]])
    idx = U._cell_index(pts, 8)
    assert idx.min() >= 0 and idx.max() < 64
    # C order: index = ix * n + iy
    assert idx[-2:].tolist() == [7, 56]
    assert np.array_equal(idx, np.floor(pts[:, 0] * 8) * 8
                          + np.floor(pts[:, 1] * 8))


def test_2d_ulam_cat_map_closed():
    sys_obj = OpenSystem(cat_map(), empty_hole(2))
    op = U.build_ulam(sys_obj, 16)
    spec = U.leading_eigenpair(op)
    # measure preserving, no hole: eigenvalue 1, uniform density
    assert spec.eigenvalue == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(spec.right, 1.0 / 256, atol=1e-8)


# ---------------------------------------------------------------------------
# streamed quadrature assembly

def _one_shot_quadrature(sys_obj, n):
    """Quadrature assembly as one COO build over every subsample point; the
    reference the streamed assembly must reproduce bit for bit."""
    dim = sys_obj.map.dimension
    s = 8
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
        # cell corners as centre minus half a cell, as the assembly has them
        c = (np.arange(n) + 0.5) / n - 0.5 / n
        cx, cy = np.meshgrid(c, c, indexing="ij")
        base = np.column_stack([cx.ravel(), cy.ravel()])
        pts = (base[:, None, :] +
               np.column_stack([ox.ravel(), oy.ravel()])[None, :, :])
        pts = pts.reshape(-1, 2)
        src = np.repeat(np.arange(ncells), s * s)
        per_cell = s * s
    outside = ~sys_obj.hole.in_hole_many(pts)
    imgs = sys_obj.map.step_many(pts[outside])
    src_ok = src[outside]
    tgt = U._cell_index(imgs, n)
    w = 1.0 / per_cell
    P = sp.coo_matrix((np.full(len(src_ok), w), (src_ok, tgt)),
                      shape=(ncells, ncells)).tocsr()
    P.sum_duplicates()
    inside_count = np.bincount(src[~outside], minlength=ncells)
    return P, np.nonzero(inside_count == per_cell)[0]


LOGISTIC_HOLED = OpenSystem(logistic_like(3.9),
                            interval_union_hole([(0.45, 0.55)]))


@pytest.mark.parametrize("sys_obj, n, has_hole_cells", [
    (OpenSystem(cat_map(), ball_hole_2d((0.25, 0.75), 0.1)), 64, True),
    # the ball wraps round both seams of the torus
    (OpenSystem(baker_map(), ball_hole_2d((0.02, 0.97), 0.1)), 32, True),
    # covers whole cells of the 32 x 32 grid
    (OpenSystem(cat_map(), ball_hole_2d((0.5, 0.5), 0.3)), 32, True),
    (OpenSystem(cat_map(), empty_hole(2)), 32, False),
    (LOGISTIC_HOLED, 1000, True),
    # ten blocks of 1024 cells, the last one short
    (LOGISTIC_HOLED, 10_000, True),
], ids=["cat64", "baker32-seam", "cat32-whole-cells", "cat32-empty",
        "logistic1000", "logistic10000"])
def test_streamed_quadrature_matches_one_shot(sys_obj, n, has_hole_cells):
    P = U._assemble_quadrature(sys_obj, n)
    hole_cells = np.flatnonzero(np.diff(P.indptr) == 0)
    ref, ref_hole = _one_shot_quadrature(sys_obj, n)
    assert P.shape == ref.shape
    assert np.array_equal(P.indptr, ref.indptr)
    assert np.array_equal(P.indices, ref.indices)
    assert P.data.tobytes() == ref.data.tobytes()
    assert np.array_equal(hole_cells, ref_hole)
    assert (len(hole_cells) > 0) == has_hole_cells
    assert P.indptr.dtype == P.indices.dtype == np.int32
    assert P.has_canonical_format


def test_export_coo_round_trips(tmp_path):
    op = U.build_ulam(OpenSystem(cat_map(), ball_hole_2d((0.25, 0.75), 0.1)),
                      32)
    path = tmp_path / "operator_coo.csv"
    op.export_coo(path)
    header, *lines = path.read_text().splitlines()
    assert header == f"# {op.matrix.shape[0]} {op.matrix.shape[1]} " \
        f"{op.matrix.nnz}"
    rows, cols, vals = [], [], []
    for line in lines:
        i, j, v = line.split(" ")
        rows.append(int(i))
        cols.append(int(j))
        vals.append(float(v))
    rebuilt = sp.csr_matrix((vals, (rows, cols)), shape=op.matrix.shape)
    assert len(lines) == rebuilt.nnz == op.matrix.nnz
    assert np.array_equal(rebuilt.indptr, op.matrix.indptr)
    assert np.array_equal(rebuilt.indices, op.matrix.indices)
    assert rebuilt.data.tobytes() == op.matrix.data.tobytes()


def _export_coo_ref(op, path):
    # the per-entry generator writer the one-format-call slices replaced
    coo = op.matrix.tocoo()
    with open(path, "w") as fh:
        fh.write(f"# {coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        fh.writelines(f"{i} {j} {v!r}\n" for i, j, v in
                      zip(coo.row.tolist(), coo.col.tolist(),
                          coo.data.tolist()))


_CAT = OpenSystem(cat_map(), ball_hole_2d((0.25, 0.75), 0.1))


@pytest.mark.parametrize("make", [
    lambda: U.build_ulam(_CAT, 32),
    # about 1e5 nonzeros: crosses the 65536-entry slice boundary
    lambda: U.build_ulam(_CAT, 160),
    lambda: U.build_ulam(OpenSystem(adic_map(3), cylinder_union_hole(
        3, 2, [(1, 1), (2, 0)])), 81),
    lambda: U.UlamOperator(sp.csr_matrix((4, 4)), "exact"),
], ids=["cat32", "cat160", "triadic81", "zero_nnz"])
def test_export_coo_bytes_match_generator_writer(tmp_path, make):
    op = make()
    op.export_coo(tmp_path / "slices.csv")
    _export_coo_ref(op, tmp_path / "generator.csv")
    assert (tmp_path / "slices.csv").read_bytes() == \
        (tmp_path / "generator.csv").read_bytes()


def test_quadrature_assembly_peak_memory():
    # the one-shot build peaked near 390 MB here: 4.2M subsample points,
    # their images and a COO triple each.  The peak is VmHWM, not
    # ru_maxrss: Linux carries a process's high-water mark across fork and
    # exec into ru_maxrss, so a child of a pytest run that has grown past
    # the bound would report the run's peak, not its own.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(U.__file__).resolve().parents[1]) + \
        os.pathsep + env.get("PYTHONPATH", "")
    code = ("from openrates.systems import OpenSystem, ball_hole_2d, cat_map\n"
            "from openrates.ulam import build_ulam\n"
            "build_ulam(OpenSystem(cat_map(), ball_hole_2d((0.25, 0.75), "
            "0.1)), 256)\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')"
            " if line.startswith('VmHWM:')))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    peak_mb = int(out.stdout) / 1024      # VmHWM is in kB
    assert peak_mb < 160, f"peak RSS {peak_mb:.0f} MB"

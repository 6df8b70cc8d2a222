import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from openrates import ulam as U
from openrates.systems import (OpenSystem, adic_map, cylinder_union_hole,
                               doubling_map, interval_union_hole,
                               logistic_like, cat_map, empty_hole)

PHI = (1 + math.sqrt(5)) / 2


def test_exact_assembly_golden(golden_system):
    op = U.build_ulam(golden_system, 16)
    assert op.assembly == "exact"
    P = op.matrix.toarray()
    rows = P.sum(axis=1)
    assert np.all(rows <= 1 + 1e-14)
    # hole rows are zero
    for i in op.hole_cells:
        assert not P[i].any()
    # non-hole rows have entries exactly 1/2
    nz = P[P > 0]
    assert np.all(nz == 0.5)


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
    v = U.GridMeasure.lebesgue(1, 16).masses
    masses, final = U.evolve_mass(op, v, 5)
    P = op.matrix.toarray()
    w = v.copy()
    for n in range(1, 6):
        w = w @ P
        assert masses[n - 1] == pytest.approx(w.sum(), rel=1e-14)
    assert np.allclose(final, w)


def test_subdominant_ratio_rejects_non_finite_iterate():
    # rows of 1e308 overflow the 1-norm of the deflated iterate
    right = left = np.array([1.0, 0.0, 0.0])
    PT = sp.csr_matrix([[0.0, 0.0, 0.0], [0.0, 1e308, 1e308],
                        [0.0, 1e308, 1e308]])
    with np.errstate(over="ignore"), pytest.raises(U.ConvergenceError):
        U._subdominant_ratio(PT, 1.0, right, left)
    # an iterate that vanishes exactly leaves no subdominant spectrum
    assert U._subdominant_ratio(sp.csr_matrix((3, 3)), 1.0, right,
                                left) == 0.0


def test_survivor_measure_golden(golden_system):
    op = U.build_ulam(golden_system, 4)
    spec = U.leading_eigenpair(op)
    nu, info = U.survivor_measure(op, spec)
    # exact quarter-cell masses of the survivor measure
    assert nu.masses[3] == pytest.approx(0.0, abs=1e-12)
    assert nu.masses[0] == pytest.approx(0.4472135955, abs=1e-9)
    assert nu.masses[1] == pytest.approx(0.2763932023, abs=1e-9)
    assert nu.masses[2] == pytest.approx(0.2763932023, abs=1e-9)
    assert info["route_discrepancy"] < 1e-4


def test_doob_transform_stochastic(golden_system):
    op = U.build_ulam(golden_system, 16)
    spec = U.leading_eigenpair(op)
    Q = U.doob_transform(op, spec)
    nu, _ = U.survivor_measure(op, spec)
    rows = np.asarray(Q.sum(axis=1)).ravel()
    support = spec.left > 1e-12
    assert np.allclose(rows[support], 1.0)
    # survivor measure is stationary for the Doob chain
    assert np.allclose(nu.masses @ Q, nu.masses, atol=1e-12)


def test_grid_measure_sample_and_index(rng):
    gm = U.GridMeasure.lebesgue(2, 8)
    pts = gm.sample(rng, 500)
    idx = gm.cell_index(pts)
    assert idx.min() >= 0 and idx.max() < 64


def test_2d_ulam_cat_map_closed():
    sys_obj = OpenSystem(cat_map(), empty_hole(2))
    op = U.build_ulam(sys_obj, 16)
    spec = U.leading_eigenpair(op)
    # measure preserving, no hole: eigenvalue 1, uniform density
    assert spec.eigenvalue == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(spec.right, 1.0 / 256, atol=1e-8)

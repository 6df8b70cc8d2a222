"""Fixed-seed outputs of the whole-array kernels, pinned bit for bit.

The literals were recorded with the per-point implementations these kernels
replaced (one boundary distance, QR factorisation or singularity distance
per Python call).  The rewrites do the same floating-point operations on
every point, so every value must compare equal, with no tolerance.
"""

import hashlib

import numpy as np
import pytest

from openrates import billiard as B
from openrates import dynballs as D
from openrates import pressure as P
from openrates import ulam as U
from openrates.systems import (OpenSystem, adic_map, baker_map, ball_hole_2d,
                               cat_map, cylinder_union_hole, doubling_map,
                               empty_hole, evolve_survivors,
                               sample_survivor_points)

GOLDEN = OpenSystem(doubling_map(), cylinder_union_hole(2, 2, [(1, 1)]))
FIVE = OpenSystem(adic_map(5), cylinder_union_hole(5, 2, [(1, 3), (4, 0)]))
HOLE = ball_hole_2d((0.25, 0.75), 0.1)
CAT = OpenSystem(cat_map(), HOLE)
BAKER = OpenSystem(baker_map(), HOLE)


def _cloud(sys_obj, seed):
    """Points alive after 5 steps, from 30000 uniform starts."""
    start = np.random.default_rng(seed).random((30_000, 2))
    return evolve_survivors(sys_obj, start, 5)[2]


def _rep(sys_obj, seed):
    return P.InvariantMeasureRep(kind="empirical",
                                 samples=_cloud(sys_obj, seed))


def test_brin_katok_golden_pinned():
    samples = sample_survivor_points(GOLDEN, 2, 5000,
                                     np.random.default_rng(1))
    out = P.entropy_brin_katok(GOLDEN, samples, eps_list=(0.1, 0.05),
                               n_max=10, centers=20,
                               rng=np.random.default_rng(2))
    assert out == (0.4999599171262255, 0.011019834071240369,
                   [(0.1, 0.49287281484726775, 0.009153563651813497),
                    (0.05, 0.4999599171262255, 0.011019834071240369)])


def test_brin_katok_cat_pinned():
    out = P.entropy_brin_katok(CAT, _cloud(CAT, 3), eps_list=(0.15, 0.1),
                               n_max=8, centers=20,
                               rng=np.random.default_rng(4))
    assert out == (0.8909022081393679, 0.014717689221409789,
                   [(0.15, 0.9145626037402519, 0.010327140174710911),
                    (0.1, 0.8909022081393679, 0.014717689221409789)])


# the three pins below were recorded with the `% 1.0` map steps, torus
# distances and ball sampler that systems._mod1 replaced

def test_brin_katok_baker_pinned():
    out = P.entropy_brin_katok(BAKER, _cloud(BAKER, 35),
                               eps_list=(0.15, 0.1), n_max=8, centers=20,
                               rng=np.random.default_rng(36))
    assert out == (0.6696096666763127, 0.010508883922477664,
                   [(0.15, 0.6768062540041773, 0.00956014672235852),
                    (0.1, 0.6696096666763127, 0.010508883922477664)])


@pytest.mark.parametrize("sys_obj, shape, counts, digest", [
    (FIVE, (30_000,),
     [27643, 25186, 22964, 20991, 19132, 17502, 15987, 14571, 13283, 12101,
      11069, 10067, 9202],
     "82f3bcf2895b518c0bb1f2e3572f43055bab1134c3283b72427db609f31873ca"),
    (CAT, (30_000, 2),
     [29027, 28062, 27105, 26265, 25454, 24666, 23873, 23132, 22380, 21672,
      20952, 20263, 19631],
     "e232093894165ed695221708fd653678a3b483123d4f26304cad75ff607270f6"),
    (BAKER, (30_000, 2),
     [29027, 28111, 27361, 26619, 25914, 25172, 24522, 23863, 23213, 22614,
      21989, 21336, 20699],
     "750d34691d434b66dd00560812adb055751cc8301bca3c96f2333a20f26c6a7f"),
], ids=["5-adic", "cat", "baker"])
def test_evolve_survivors_pinned(sys_obj, shape, counts, digest):
    start = np.random.default_rng(31).random(shape)
    out, flagged, final = evolve_survivors(sys_obj, start, 12)
    assert out.tolist() == counts
    assert flagged == 0
    assert hashlib.sha256(final.tobytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "sys_obj, center, n_values, samples, seed, expected", [
    (OpenSystem(doubling_map(), empty_hole(1)), 0.3137, [4, 6, 8], 10_000, 33,
     (0.6931471805599458, [(4, 0.004166666666666667),
                           (6, 0.0010416666666666667),
                           (8, 0.00026041666666666666)])),
    (CAT, np.array([0.61, 0.37]), [3, 5, 7], 20_000, 34,
     (0.9620608870523792, [(3, 0.0002473212634237334),
                           (5, 3.613427655486916e-05),
                           (7, 5.2721835095210094e-06)])),
], ids=["doubling", "cat"])
def test_ball_slope_pinned(sys_obj, center, n_values, samples, seed,
                           expected):
    out = D.ball_slope(sys_obj, center, 0.1, n_values, samples=samples,
                       rng=np.random.default_rng(seed))
    assert out == expected


@pytest.mark.parametrize("sys_obj, seeds, expected", [
    (CAT, (5, 6), {
        'G_S': {'status': 'pass', 'reason': 'S empty'},
        'G_H': {'status': 'pass',
                'fit': {'alpha': 1.098947166714806, 'C': 1.1251759273745108,
                        'points': 8},
                'E_eps_gamma': [(0.01, 0.3865), (0.003, 0.4145),
                                (0.001, 0.424)]},
        'G_phi': {'status': 'pass', 'c_nu': 1.0, 'cell': 177,
                  'cell_mass': 0.006}}),
    (BAKER, (7, 8), {
        'G_S': {'status': 'pass', 'reason': 'S empty'},
        'G_H': {'status': 'pass',
                'fit': {'alpha': 1.3064382368861844, 'C': 2.4651091899057245,
                        'points': 8},
                'E_eps_gamma': [(0.01, 0.456), (0.003, 0.4845),
                                (0.001, 0.4925)]},
        'G_phi': {'status': 'pass', 'c_nu': 1.0, 'cell': 237,
                  'cell_mass': 0.0063}}),
], ids=["cat", "baker"])
def test_class_membership_pinned(sys_obj, seeds, expected):
    flags = P.class_membership(sys_obj, _rep(sys_obj, seeds[0]),
                               rng=np.random.default_rng(seeds[1]))
    assert flags == expected


@pytest.mark.parametrize("sys_obj, seeds, expected", [
    (CAT, (9, 10), (0.959188578807632, 1.570092458683775e-17)),
    (BAKER, (11, 12), (0.6931471805599446, 0.0)),
], ids=["cat", "baker"])
def test_lyapunov_sum_pinned(sys_obj, seeds, expected):
    out = P.lyapunov_sum(sys_obj, _rep(sys_obj, seeds[0]),
                         rng=np.random.default_rng(seeds[1]))
    assert out == expected


def _sd(x):
    return min(x, 1 - x, abs(x - 0.5))


def _wild(x):
    # not 1-Lipschitz, so the intermediate bound fails on many triples
    return 0.1 * ((37.0 * x) % 1.0)


@pytest.mark.parametrize("sd, seed, adversarial, proof_violations", [
    (_sd, 13, False, 0),
    (_sd, 14, True, 0),
    (_wild, 15, False, 7198),
    (_wild, 16, True, 9920),
])
def test_triangle_check_pinned(sd, seed, adversarial, proof_violations):
    out = D.triangle_check(sd, 20000, 0.05, rng=np.random.default_rng(seed),
                           adversarial=adversarial)
    assert out == {"triples": 20000, "violations": 0,
                   "proof_violations": proof_violations}


def test_billiard_escape_pinned():
    # recorded with the search over every scatterer copy, one hit test per
    # hole and the shards run one after another; the per-source copy lists,
    # the per-family closest approach and the process pool keep every bit
    table = B.build_table(validation_rays=20_000)
    assert table.tau_max == 1.375126564222594
    _, _, observed, _ = B.theta_chi2(table, 20_000, seed=5)
    assert observed.tolist() == [
        88, 234, 437, 611, 773, 905, 1008, 1089, 1188, 1210, 1212, 1283,
        1292, 1291, 1251, 1179, 1058, 974, 820, 725, 580, 441, 256, 95]
    holes = B.nested_arc_holes(table, 0, 1.0, (0.04, 0.08, 0.16, 0.32)) + \
        B.nested_disk_holes(table, (0.5, 0.0), (0.01, 0.02, 0.03, 0.04))
    ests = B.billiard_escape_multi(table, holes, samples=20_000, n_max=12,
                                   seed=3)
    flagged = ests[0].meta["flagged"]
    assert flagged == 0
    counts = [[round(m * (20_000 - flagged)) for _, m in e.per_n_mass]
              for e in ests]
    assert counts == [
        [19817, 19632, 19441, 19264, 19094, 18937, 18760, 18586, 18423,
         18253, 18093, 17923, 17780],
        [19637, 19265, 18905, 18569, 18261, 17953, 17643, 17331, 17008,
         16679, 16370, 16056, 15806],
        [19245, 18511, 17848, 17231, 16636, 16075, 15539, 15015, 14512,
         13980, 13485, 13009, 12586],
        [18498, 16971, 15809, 14784, 13825, 12955, 12139, 11365, 10640,
         9944, 9336, 8707, 8160],
        [20000, 19656, 19342, 19042, 18728, 18438, 18173, 17904, 17640,
         17352, 17066, 16783, 16511],
        [20000, 19303, 18754, 18207, 17605, 17069, 16559, 16111, 15667,
         15181, 14705, 14261, 13833],
        [20000, 18966, 18191, 17397, 16617, 15902, 15226, 14635, 14050,
         13435, 12869, 12327, 11827],
        [20000, 18641, 17709, 16770, 15895, 15084, 14319, 13622, 12952,
         12289, 11671, 11099, 10545]]


def test_cat_ulam_operator_pinned():
    # matrix recorded with the one-shot COO quadrature build the streamed
    # assembly replaced; the gap estimate (the decay rate of the power
    # iteration's residuals) is the same for any BLAS thread count
    op = U.build_ulam(CAT, 256)
    mat = op.matrix
    assert mat.nnz == 254126
    assert np.count_nonzero(np.diff(mat.indptr) == 0) == 1976
    digest = hashlib.sha256()
    for a in (mat.indptr, mat.indices, mat.data):
        digest.update(a.tobytes())
    assert digest.hexdigest() == \
        "a31dd708206729a9ace3cc8f14580fa2332f2b9dee16089d6f56fac14788fa80"
    spec = U.leading_eigenpair(op)
    assert repr(spec.eigenvalue) == "0.9679285996222043"
    assert repr(spec.gap_estimate) == "0.5076519063860581"

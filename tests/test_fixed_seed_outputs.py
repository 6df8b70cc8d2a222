"""Fixed-seed outputs of the whole-array kernels, pinned bit for bit.

The literals were recorded with the per-point implementations these kernels
replaced (one boundary distance, QR factorisation or singularity distance
per Python call).  The rewrites do the same floating-point operations on
every point, so every value must compare equal, with no tolerance.
"""

import numpy as np
import pytest

from openrates import dynballs as D
from openrates import pressure as P
from openrates.systems import (OpenSystem, baker_map, ball_hole_2d, cat_map,
                               cylinder_union_hole, doubling_map,
                               evolve_survivors, sample_survivor_points)

GOLDEN = OpenSystem(doubling_map(), cylinder_union_hole(2, 2, [(1, 1)]))
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

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openrates import tower as T

PHI = (1 + math.sqrt(5)) / 2


@pytest.fixture
def gm():
    return T.golden_mean_tower()


def test_eigenvalue_golden(gm):
    r = T.tower_eigenvalue(gm)
    assert r == pytest.approx((1 + math.sqrt(5)) / 4, abs=1e-14)


def test_eigenvalue_closed_system():
    spec = T.TowerSpec(branches=[
        T.TowerBranch("A", R=1, J=2.0, mass=0.5, holed=False),
        T.TowerBranch("B", R=2, J=4.0, mass=0.25, holed=False),
        T.TowerBranch("C", R=2, J=4.0, mass=0.25, holed=False),
    ], C0=1.0, theta0=0.5)
    assert T.tower_eigenvalue(spec) == pytest.approx(1.0)


def test_no_unholed_branch_raises():
    spec = T.TowerSpec(branches=[
        T.TowerBranch("A", R=1, J=2.0, mass=1.0, holed=True)],
        C0=1.0, theta0=0.5)
    with pytest.raises(T.NoRootError):
        T.tower_eigenvalue(spec)


def test_gibbs_weights_golden(gm):
    r = T.tower_eigenvalue(gm)
    nu0 = T.gibbs_measure(gm, r, depth=2)
    wA = nu0.cylinder_weights[("A",)]
    wB = nu0.cylinder_weights[("B",)]
    assert wA == pytest.approx(0.618033988749895, abs=1e-12)
    assert wB == pytest.approx(0.381966011250105, abs=1e-12)
    assert nu0.cylinder_weights[("A", "B")] == pytest.approx(wA * wB,
                                                             abs=1e-12)
    assert T.gibbs_bounds_ok(gm, r, nu0.cylinder_weights, 2)


def test_depth1_weights_sum_to_one(gm):
    r = T.tower_eigenvalue(gm)
    nu0 = T.gibbs_measure(gm, r, depth=1)
    total = sum(nu0.cylinder_weights.values())
    assert total == pytest.approx(1.0, abs=1e-14)


def test_gibbs_measure_periodic_transition():
    # a 3-cycle has three leading eigenvalues of equal modulus; the Perron
    # root is the real one
    spec = T.TowerSpec(branches=[
        T.TowerBranch("A", R=1, J=2.0, mass=0.25),
        T.TowerBranch("B", R=2, J=3.0, mass=0.25),
        T.TowerBranch("C", R=3, J=2.0, mass=0.25),
    ], transition=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                            [1.0, 0.0, 0.0]]))
    r = T.tower_eigenvalue(spec)
    nu0 = T.gibbs_measure(spec, r, depth=2)
    for bid in "ABC":
        assert nu0.cylinder_weights[(bid,)] == pytest.approx(1 / 3,
                                                             abs=1e-12)
    T.abramov_check(spec, nu0, r)


def test_gurevich_pressure_zero(gm):
    r = T.tower_eigenvalue(gm)
    seq = T.gurevich_pressure(gm, r, n_max=20)
    assert max(abs(p) for _, p in seq) < 1e-10


def test_gurevich_shifted_potential(gm):
    # adding a constant c to the potential shifts the pressure by c
    r = T.tower_eigenvalue(gm)
    phi = np.array([-(b.R * math.log(r) + math.log(b.J))
                    for b in gm.unholed]) + 0.3
    seq = T.gurevich_pressure(gm, r, n_max=10, potential=phi)
    assert seq[-1][1] == pytest.approx(0.3, abs=1e-9)


def test_abramov_chain(gm):
    r = T.tower_eigenvalue(gm)
    nu0 = T.gibbs_measure(gm, r, depth=2)
    rec = T.abramov_check(gm, nu0, r)
    wA, wB = 1 / ((1 + math.sqrt(5)) / 2), 1 / ((1 + math.sqrt(5)) / 2) ** 2
    assert rec["h_induced"] == pytest.approx(
        -(wA * math.log(wA) + wB * math.log(wB)), abs=1e-12)
    assert rec["h_tower"] == pytest.approx(math.log(PHI), abs=1e-12)
    assert rec["lambda_tower"] == pytest.approx(math.log(2), abs=1e-12)
    assert rec["gap"] < 1e-12


def test_validate_hypotheses(gm):
    r = T.tower_eigenvalue(gm)
    rep = T.validate_hypotheses(gm, r, star_constants=(2.0, 0.9))
    assert rep["passed"]
    assert rep["checks"]["tail"]["pass"]
    assert rep["checks"]["condition_star"]["pass"]


def test_validate_hypotheses_bad_theta_bar(gm):
    r = T.tower_eigenvalue(gm)
    # theta_bar below theta0 / r is inadmissible
    rep = T.validate_hypotheses(gm, r, star_constants=(2.0, 0.5))
    assert not rep["checks"]["condition_star"]["pass"]


def test_pressure_of_induced_measure_maximized_at_gibbs(gm):
    r = T.tower_eigenvalue(gm)
    p_star = T.pressure_of_induced_measure(
        gm, [0.618033988749895, 0.381966011250105])
    assert p_star == pytest.approx(math.log(r), abs=1e-12)
    # any other Bernoulli distribution gives strictly smaller pressure
    for q in (0.3, 0.5, 0.8):
        assert T.pressure_of_induced_measure(gm, [q, 1 - q]) < p_star + 1e-15


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 0.95))
def test_induced_pressure_never_exceeds_log_r(q):
    gm = T.golden_mean_tower()
    r = T.tower_eigenvalue(gm)
    assert T.pressure_of_induced_measure(gm, [q, 1 - q]) \
        <= math.log(r) + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(1.5, 8.0), st.floats(1.5, 8.0),
       st.integers(1, 4), st.integers(1, 4))
def test_eigenvalue_root_property(j1, j2, r1, r2):
    spec = T.TowerSpec(branches=[
        T.TowerBranch("A", R=r1, J=j1, mass=0.5, holed=False),
        T.TowerBranch("B", R=r2, J=j2, mass=0.25, holed=False),
        T.TowerBranch("C", R=2, J=4.0, mass=0.25, holed=True),
    ], C0=1.0, theta0=0.5)
    r = T.tower_eigenvalue(spec)
    assert 0 < r <= 1
    if r < 1:
        # the eigenvalue equation holds at the root
        total = r ** (-r1) / j1 + r ** (-r2) / j2
        assert total == pytest.approx(1.0, abs=1e-10)


def test_holing_extra_branch_decreases_eigenvalue():
    def mk(holed_b):
        return T.TowerSpec(branches=[
            T.TowerBranch("A", R=1, J=2.0, mass=0.5, holed=False),
            T.TowerBranch("B", R=2, J=4.0, mass=0.25, holed=holed_b),
            T.TowerBranch("C", R=2, J=4.0, mass=0.25, holed=True),
        ], C0=1.0, theta0=0.5)
    assert T.tower_eigenvalue(mk(True)) < T.tower_eigenvalue(mk(False))


def test_tower_from_config_rejects_unknown():
    with pytest.raises(ValueError, match="unknown"):
        T.tower_from_config({"branches": [], "bogus": 1})
    with pytest.raises(ValueError, match="unknown"):
        T.tower_from_config({"branches": [{"R": 1, "J": 2.0, "mass": 1.0,
                                           "zap": 0}]})


def test_load_tower_roundtrip(tmp_path):
    import json
    cfg = {"branches": [
        {"id": "A", "R": 1, "J": 2.0, "mass": 0.5},
        {"id": "B", "R": 2, "J": 4.0, "mass": 0.25},
        {"id": "C", "R": 2, "J": 4.0, "mass": 0.25, "holed": True}],
        "C0": 1.0, "theta0": 0.5}
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(cfg))
    spec = T.load_tower(path)
    assert T.tower_eigenvalue(spec) == pytest.approx((1 + math.sqrt(5)) / 4,
                                                     abs=1e-14)

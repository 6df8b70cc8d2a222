import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openrates import escape as E
from openrates import systems as S


# ---------------------------------------------------------------------------
# map zoo

def test_doubling_map_values():
    f = S.doubling_map()
    assert f.evaluate(0.3) == pytest.approx(0.6)
    assert f.evaluate(0.7) == pytest.approx(0.4)
    assert f.derivative(0.3)[0, 0] == 2.0


def test_adic_map_meta_and_derivative():
    f = S.adic_map(5)
    assert f.meta["branch_count"] == 5
    assert f.derivative(0.123)[0, 0] == 5.0
    assert f.evaluate(0.25) == pytest.approx(0.25)


def test_cat_map_matrix_action():
    f = S.cat_map()
    p = np.array([0.2, 0.3])
    q = f.evaluate(p)
    assert np.allclose(q, np.array([2 * 0.2 + 0.3, 0.2 + 0.3]) % 1.0)
    assert np.allclose(f.derivative(p), [[2, 1], [1, 1]])


def test_baker_map_two_branches():
    f = S.baker_map()
    a = f.evaluate(np.array([0.2, 0.6]))
    b = f.evaluate(np.array([0.7, 0.6]))
    assert a[0] == pytest.approx(0.4)
    assert b[0] == pytest.approx(0.4)
    assert not np.allclose(a[1], b[1])


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_evaluate_many_matches_scalar(x):
    for name in ("doubling", "adic", "logistic"):
        f = S.MAP_ZOO[name]() if name != "adic" else S.adic_map(3)
        many = f.evaluate_many(np.array([x]))
        assert float(many[0]) == pytest.approx(float(f.evaluate(x)), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True))
def test_torus_dist_1d_symmetric_and_bounded(a, b):
    d = float(S.torus_dist_1d(a, b))
    assert d == pytest.approx(float(S.torus_dist_1d(b, a)))
    assert 0 <= d <= 0.5 + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True),
       st.floats(0, 1, exclude_max=True))
def test_torus_dist_triangle(a, b, c):
    dab = float(S.torus_dist_1d(a, b))
    dbc = float(S.torus_dist_1d(b, c))
    dac = float(S.torus_dist_1d(a, c))
    assert dac <= dab + dbc + 1e-12


# ---------------------------------------------------------------------------
# holes

def test_cylinder_hole_membership():
    h = S.cylinder_union_hole(2, 2, [(1, 1)])   # [3/4, 1)
    assert h.contains(0.8)
    assert not h.contains(0.74999)
    assert not h.contains(0.5)
    # open set: boundary points excluded
    assert not h.contains(0.75) or h.boundary_distance(0.75) == 0.0


def test_hole_boundary_distance():
    h = S.interval_union_hole([(0.2, 0.4)])
    assert h.boundary_distance(0.3) == pytest.approx(0.1)
    assert h.boundary_distance(0.1) == pytest.approx(0.1)
    assert h.boundary_distance(0.55) == pytest.approx(0.15)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 0.99))
def test_hole_contains_many_matches_scalar(x):
    h = S.cylinder_union_hole(2, 2, [(1, 1), (0, 1)])
    assert bool(h.in_hole_many(np.array([x]))[0]) == h.contains(x)


_BOUNDARY_HOLES_1D = [
    S.cylinder_union_hole(2, 2, [(1, 1), (0, 1)]),
    S.cylinder_union_hole(3, 2, [(0, 0), (2, 2), (1, 0)]),   # ends at 0 and 1
    S.interval_union_hole([(0.0, 0.1), (0.95, 1.0), (0.3, 0.35)]),
    S.interval_union_hole([(0.2, 0.4), (0.4, 0.5)]),
    S.empty_hole(1),
]
_BOUNDARY_HOLES_2D = [
    S.ball_hole_2d((0.0, 0.0), 0.1),      # straddles both seams
    S.ball_hole_2d((0.98, 0.5), 0.07),
    S.ball_hole_2d((0.25, 0.75), 0.1),
    S.empty_hole(2),
]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=8))
def test_boundary_distance_many_matches_scalar_1d(xs):
    xs = np.array(xs)
    for h in _BOUNDARY_HOLES_1D:
        many = h.boundary_distance_many(xs)
        assert many.shape == xs.shape
        assert all(a == h.boundary_distance(x) for a, x in zip(many, xs))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                          st.floats(0, 1, exclude_max=True)),
                min_size=1, max_size=8))
def test_boundary_distance_many_matches_scalar_2d(ps):
    ps = np.array(ps)
    for h in _BOUNDARY_HOLES_2D:
        many = h.boundary_distance_many(ps)
        assert many.shape == (len(ps),)
        assert all(a == h.boundary_distance(p) for a, p in zip(many, ps))


def test_boundary_distance_many_at_endpoints():
    h = _BOUNDARY_HOLES_1D[1]
    ends = np.array([0.0, 1 / 9, 2 / 9, 1 / 3, 8 / 9, np.nextafter(1.0, 0.0)])
    assert list(h.boundary_distance_many(ends)) == \
        [h.boundary_distance(x) for x in ends]
    seam = _BOUNDARY_HOLES_2D[0]
    ps = np.array([[0.0, 0.1], [0.9, 0.0], [0.999, 0.001], [0.05, 0.95]])
    assert list(seam.boundary_distance_many(ps)) == \
        [seam.boundary_distance(p) for p in ps]


def test_ball_hole_2d():
    h = S.ball_hole_2d((0.5, 0.5), 0.1)
    assert h.contains(np.array([0.55, 0.5]))
    assert not h.contains(np.array([0.9, 0.9]))
    # wraps around the torus
    h2 = S.ball_hole_2d((0.0, 0.0), 0.1)
    assert h2.contains(np.array([0.95, 0.02]))


# ---------------------------------------------------------------------------
# iteration and survival

def test_iterate_and_survival(golden_system):
    rec = S.iterate(golden_system, 2 / 3, 10)
    assert rec.escape_step is None and len(rec.points) == 11
    assert S.survivor_indicator(golden_system, 2 / 3, 50)
    # 0.8 lies inside the hole
    assert S.survival_time(golden_system, 0.8, 10) == 0


def test_survival_time_finite(golden_system):
    # binary 0.0110... maps into [3/4,1) after one step
    t = S.survival_time(golden_system, 0.381966, 50)
    assert t is not None and 0 < t < 50


# ---------------------------------------------------------------------------
# symbolic machinery

def test_markov_words_golden(golden_system):
    words = S.markov_words(golden_system, 2, 3)
    got = {tuple(w) for w in words}
    assert got == {(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1)}


@pytest.mark.parametrize("n", range(4, 12))
def test_word_counts_fibonacci(golden_system, n):
    a = S.markov_words(golden_system, 2, n, count_only=True)
    b = S.markov_words(golden_system, 2, n - 1, count_only=True)
    c = S.markov_words(golden_system, 2, n - 2, count_only=True)
    assert a == b + c


def test_word_count_matches_recurrence():
    # words avoiding "33" over 7 symbols: a_n = 6 a_{n-1} + 6 a_{n-2};
    # a float64 count is off at n = 40
    sys_obj = S.OpenSystem(S.adic_map(7), S.cylinder_union_hole(7, 2, [(3, 3)]))
    a = [1, 7]
    for _ in range(2, 61):
        a.append(6 * a[-1] + 6 * a[-2])
    assert a[40] == 3110823497873238621173755853930496
    for n in (2, 3, 20, 40, 60):
        assert S.markov_words(sys_obj, 2, n, count_only=True) == a[n]


@pytest.mark.parametrize("words", [[(1, 1)], [(1, 1, 0), (1, 1, 1)],
                                   [(0, 1, 1)]])
def test_word_count_matches_enumeration(words):
    # hole {110, 111} leaves the gram 11 without successors; words ending
    # in it still count
    k = len(words[0])
    sys_obj = S.OpenSystem(S.doubling_map(),
                           S.cylinder_union_hole(2, k, words))
    for n in range(k, 10):
        assert S.markov_words(sys_obj, k, n, count_only=True) == \
            len(S.markov_words(sys_obj, k, n))


@pytest.mark.filterwarnings("error")
def test_parry_chain_rejects_vanishing_perron_vector():
    # hole {01, 10}: the survivor subshift is two fixed points that never
    # connect, and the Perron vector is zero on one of them
    sys_obj = S.OpenSystem(S.doubling_map(),
                           S.cylinder_union_hole(2, 2, [(0, 1), (1, 0)]))
    with pytest.raises(S.HoleKindError, match="finite"):
        S.parry_chain(sys_obj, 2)


def test_parry_chain_keeps_only_dominant_class():
    # hole {011}: the fixed point 1^inf is a class of its own, below the
    # dominant class {00, 01, 10}
    sys_obj = S.OpenSystem(S.doubling_map(),
                           S.cylinder_union_hole(2, 3, [(0, 1, 1)]))
    states, P, pi = S.parry_chain(sys_obj, 3)
    assert states == [(0, 0), (0, 1), (1, 0)]
    assert np.all(pi > 0)
    assert np.allclose(pi @ P, pi)


def test_empty_survivor_subshift_raises():
    sys_obj = S.OpenSystem(S.doubling_map(), S.cylinder_union_hole(
        2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)]))
    with pytest.raises(S.HoleKindError, match="empty"):
        S.parry_chain(sys_obj, 2)
    with pytest.raises(S.HoleKindError, match="empty"):
        E.escape_rate_words(sys_obj, 2)


def test_survivor_transition_matrix(golden_system):
    A, states = S.survivor_transition_matrix(golden_system, 2)
    lam = max(abs(np.linalg.eigvals(A)))
    assert lam == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)


def test_parry_chain_stationary(golden_system):
    states, P, pi = S.parry_chain(golden_system, 2)
    assert np.allclose(P.sum(axis=1), 1.0)
    assert np.allclose(pi @ P, pi)
    assert pi[states.index((0,))] == pytest.approx(
        (5 + math.sqrt(5)) / 10, abs=1e-12)


def test_sample_survivor_points_survive(golden_system, rng):
    pts = S.sample_survivor_points(golden_system, 2, 300, rng)
    assert all(S.survivor_indicator(golden_system, x, 25) for x in pts)


def test_evolve_survivors_counts(golden_system, rng):
    pts = rng.random(20000)
    counts, flagged, _ = S.evolve_survivors(golden_system, pts, 8)
    assert counts[0] <= 20000
    # survivor fraction decays roughly like (phi/2)^n
    ratio = counts[8] / counts[7]
    assert ratio == pytest.approx((1 + math.sqrt(5)) / 4, abs=0.02)


# ---------------------------------------------------------------------------
# configs

def test_system_from_config_roundtrip():
    cfg = {"map": {"name": "adic", "params": {"m": 2}},
           "hole": {"kind": "cylinder_union", "base": 2, "level": 2,
                    "words": [[1, 1]]}}
    sys_obj = S.system_from_config(cfg)
    assert sys_obj.map.meta["branch_count"] == 2
    assert sys_obj.hole.contains(0.9)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        S.map_from_config({"name": "adic", "params": {"m": 2}, "zap": 1})
    with pytest.raises(ValueError, match="unknown"):
        S.hole_from_config({"kind": "interval_union",
                            "intervals": [[0.1, 0.2]], "extra": True})
    with pytest.raises(ValueError):
        S.hole_from_config({"kind": "nonsense"})

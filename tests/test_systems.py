import itertools
import math
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_no_children
from openrates import escape as E
from openrates import systems as S
from test_singular import CLOSED as SINGULAR


# ---------------------------------------------------------------------------
# map zoo

def test_doubling_map_values():
    f = S.doubling_map()
    assert f.step_many(np.array([0.3, 0.7])) == pytest.approx([0.6, 0.4])
    assert f.derivative(np.array([0.3]))[0, 0, 0] == 2.0


def test_adic_map_meta_and_derivative():
    f = S.adic_map(5)
    assert f.branch_count == 5
    assert f.derivative(np.array([0.123]))[0, 0, 0] == 5.0
    assert f.step_many(np.array([0.25]))[0] == pytest.approx(0.25)


@pytest.mark.parametrize("m", [1, 0, -2])
def test_adic_map_rejects_fewer_than_two_branches(m):
    with pytest.raises(ValueError, match=f"adic map needs m >= 2, got {m}"):
        S.adic_map(m)


def test_adic_config_rejects_non_integer_m():
    with pytest.raises(ValueError, match="m in map params for adic must be an integer"):
        S.map_from_config({"name": "adic", "params": {"m": 2.5}})


def test_cat_map_matrix_action():
    f = S.cat_map()
    p = np.array([[0.2, 0.3]])
    q = f.step_many(p)
    assert np.allclose(q, np.array([[2 * 0.2 + 0.3, 0.2 + 0.3]]) % 1.0)
    assert np.allclose(f.derivative(p), [[[2, 1], [1, 1]]])


def test_baker_map_two_branches():
    f = S.baker_map()
    a, b = f.step_many(np.array([[0.2, 0.6], [0.7, 0.6]]))
    assert a[0] == pytest.approx(0.4)
    assert b[0] == pytest.approx(0.4)
    assert not np.allclose(a[1], b[1])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1,
                max_size=8))
def test_step_many_is_pointwise(xs):
    # a point's image does not depend on the other points of the array;
    # iterate relies on this when it wraps one point as an array
    for name, (f, _) in S._MAPS.items():
        f = f() if name != "adic" else S.adic_map(3)
        pts = np.array(xs) if f.dimension == 1 \
            else np.column_stack([xs, xs[::-1]])
        many = f.step_many(pts)
        assert many.shape == pts.shape
        for i in range(len(pts)):
            assert np.array_equal(many[i], f.step_many(pts[i:i + 1])[0])
        assert f.derivative(pts).shape == (len(pts),) + (f.dimension,) * 2
        assert f.singularity_distance(pts).shape == (len(pts),)
        assert f.reference_density(pts).shape == (len(pts),)


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


def _torus_dist_1d_ref(a, b):
    # the broadcast formula the in-place kernels replaced
    d = np.abs(np.asarray(a) - np.asarray(b)) % 1.0
    return np.minimum(d, 1.0 - d)


def _torus_dist_2d_ref(a, b):
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % 1.0
    d = np.minimum(d, 1.0 - d)
    return np.sqrt(np.sum(d * d, axis=-1))


def _bit_equal(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and \
        x.tobytes() == y.tobytes()


_SEAM = [0.0, 2.0 ** -53, 0.5, np.nextafter(0.5, 0.0),
         np.nextafter(1.0, 0.0)]


def test_torus_dist_bit_equal_to_broadcast_formula():
    rng = np.random.default_rng(7)
    seam = np.array(list(itertools.product(_SEAM, repeat=2)))
    # off-domain points too: differences above 1 take the mod-1 branch
    pts = np.concatenate([rng.random((500, 2)), rng.uniform(-3, 3, (200, 2)),
                          seam])
    for c in [rng.random(2), *seam]:
        # (N, 2) against (2,) and against (1, 2)
        assert _bit_equal(S.torus_dist_2d(pts, c), _torus_dist_2d_ref(pts, c))
        assert _bit_equal(S.torus_dist_2d(pts, c[None, :]),
                          _torus_dist_2d_ref(pts, c[None, :]))
        assert _bit_equal(S.torus_dist_2d(pts[0], c),
                          _torus_dist_2d_ref(pts[0], c))
        assert _bit_equal(S.torus_dist_1d(pts[:, 0], c[0]),
                          _torus_dist_1d_ref(pts[:, 0], c[0]))
    # (n + 1, k, 2) against (n + 1, 1, 2), as in separated_set_size
    orbits = np.concatenate([rng.random((6, 40, 2)),
                             np.broadcast_to(seam, (6,) + seam.shape)],
                            axis=1)
    for kept in ([], [0], list(range(0, orbits.shape[1], 3))):
        a, b = orbits[:, kept], orbits[:, 5:6]
        assert _bit_equal(S.torus_dist_2d(a, b), _torus_dist_2d_ref(a, b))


def _mod1_grid():
    """Edge values of a mod-1 reduction, both signs, then 1e5 uniform draws
    on [-3, 3) and their images under x -> m x for m = 2, 3, 5."""
    edges = [0.0, np.nextafter(0.0, 1.0), 2.0 ** -1030, 1e-300,
             np.nextafter(1.0, 0.0), np.nextafter(0.5, 0.0),
             np.nextafter(0.5, 1.0), 2.0 ** 53, 1e300, np.inf,
             *(2.0 ** 52 + d for d in (-1.0, -0.5, 0.0, 0.5, 1.0)),
             *range(1, 8)]
    u = np.random.default_rng(17).uniform(-3.0, 3.0, 100_000)
    return np.concatenate([edges, np.negative(edges), [np.nan],
                           u, 2.0 * u, 3.0 * u, 5.0 * u])


def _same_bits(x, y):
    """Equal int64 bit patterns wherever x is a number, NaN at the same
    places (the bits of a NaN are left free)."""
    x, y = np.asarray(x), np.asarray(y)
    nan = np.isnan(x)
    return x.shape == y.shape and x.dtype == y.dtype == np.float64 and \
        np.array_equal(nan, np.isnan(y)) and \
        np.array_equal(x[~nan].view(np.int64), y[~nan].view(np.int64))


def test_mod1_bit_equal_to_remainder():
    x = _mod1_grid()
    fresh = x.copy()
    with np.errstate(invalid="ignore"):      # +-inf reduce to NaN
        ref = x % 1.0
        out = S._mod1(fresh)
    assert out is fresh                      # a fresh float array is reused
    assert _same_bits(out, ref)
    # 0-d input, as torus_dist_1d passes for two scalars
    for v in (2.75, -0.25, -0.0, -3.0, np.float64(np.nextafter(1.0, 0.0))):
        out = S._mod1(v)
        assert out.shape == ()
        assert _same_bits(out.reshape(1), np.array([v % 1.0]))


def test_step_many_bit_equal_to_remainder_formula():
    # the formulas the maps used before reducing with x - floor(x)
    x = _mod1_grid()
    pts = np.column_stack([x, np.roll(x, 7)])
    unit = pts[np.all((0.0 <= pts) & (pts < 1.0), axis=1)]
    with np.errstate(invalid="ignore"):
        for m in (2, 3, 5):
            assert _same_bits(S.adic_map(m).step_many(x), (m * x) % 1.0)
        assert _same_bits(S.cat_map().step_many(pts),
                          (pts @ S.CAT_MATRIX.T) % 1.0)
    # the baker map is defined on the unit square only
    assert len(unit) > 1000
    assert _same_bits(S.baker_map().step_many(unit), np.column_stack([
        (2.0 * unit[:, 0]) % 1.0,
        (unit[:, 1] + np.floor(2.0 * unit[:, 0])) / 2.0]))


# ---------------------------------------------------------------------------
# holes

def test_cylinder_hole_membership():
    h = S.cylinder_union_hole(2, 2, [(1, 1)])   # [3/4, 1)
    assert list(h.in_hole_many(np.array([0.8, 0.74999, 0.5]))) == \
        [True, False, False]
    # open set: boundary points excluded
    assert not h.in_hole_many(np.array([0.75]))[0]
    assert h.boundary_distance(np.array([0.75]))[0] == 0.0


# an empty, an overhanging and a wrapped-round interval were dropped or
# clipped without a word; a degenerate a = b stays allowed
@pytest.mark.parametrize("interval", [(0.6, 0.4), (0.9, 1.1), (-0.1, 0.1),
                                      (math.nan, 0.5), (0.2, math.nan)])
def test_interval_hole_rejects_interval_outside_unit(interval):
    with pytest.raises(ValueError, match=r"hole interval \[.*\] must "
                       r"satisfy 0 <= a <= b <= 1"):
        S.interval_union_hole([(0.1, 0.2), interval])
    assert S.interval_union_hole([(0.3, 0.3)]).meta["intervals"] == \
        [(0.3, 0.3)]


def test_hole_boundary_distance():
    h = S.interval_union_hole([(0.2, 0.4)])
    assert h.boundary_distance(np.array([0.3, 0.1, 0.55])) == \
        pytest.approx([0.1, 0.1, 0.15])


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 0.99))
def test_in_hole_many_matches_cylinders(x):
    h = S.cylinder_union_hole(2, 2, [(1, 1), (0, 1)])  # (1/4, 1/2) u (3/4, 1)
    inside = 0.25 < x < 0.5 or 0.75 < x < 1.0
    assert bool(h.in_hole_many(np.array([x]))[0]) == inside


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1,
                max_size=5),
       st.lists(st.floats(0, 1, exclude_max=True), max_size=20))
def test_interval_hole_matches_broadcast_reference(pairs, xs):
    h = S.interval_union_hole([(min(a, b), max(a, b)) for a, b in pairs])
    merged = h.meta["intervals"]
    lo = np.array([a for a, _ in merged])
    hi = np.array([b for _, b in merged])
    pts = np.array(xs + [e % 1.0 for iv in merged for e in iv]
                   + [0.0, np.nextafter(1.0, 0.0)])
    # the (N, k) arrays reduced over k that the per-interval and
    # per-endpoint passes replaced
    inside = np.any((lo[None, :] < pts[:, None])
                    & (pts[:, None] < hi[None, :]), axis=1)
    assert _bit_equal(h.in_hole_many(pts), inside)
    ends = np.unique(np.concatenate([lo, hi])) % 1.0
    dist = np.min(_torus_dist_1d_ref(pts[:, None], ends[None, :]), axis=1)
    assert _bit_equal(h.boundary_distance(pts), dist)


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
def test_boundary_distance_is_pointwise_1d(xs):
    xs = np.array(xs)
    for h in _BOUNDARY_HOLES_1D:
        many = h.boundary_distance(xs)
        assert many.shape == xs.shape
        assert all(a == h.boundary_distance(xs[i:i + 1])[0]
                   for i, a in enumerate(many))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                          st.floats(0, 1, exclude_max=True)),
                min_size=1, max_size=8))
def test_boundary_distance_is_pointwise_2d(ps):
    ps = np.array(ps)
    for h in _BOUNDARY_HOLES_2D:
        many = h.boundary_distance(ps)
        assert many.shape == (len(ps),)
        assert all(a == h.boundary_distance(ps[i:i + 1])[0]
                   for i, a in enumerate(many))


def test_boundary_distance_at_endpoints_and_seams():
    # hole (0, 1/9) u (1/3, 4/9) u (8/9, 1): the end 1 is the point 0
    h = _BOUNDARY_HOLES_1D[1]
    ends = np.array([0.0, 1 / 9, 2 / 9, 1 / 3, 8 / 9, np.nextafter(1.0, 0.0)])
    assert list(h.boundary_distance(ends)) == pytest.approx(
        [0.0, 0.0, 1 / 9, 0.0, 0.0, 0.0], abs=1e-15)
    assert h.boundary_distance(ends[-1:])[0] == 2.0 ** -53
    # ball of radius 0.1 around the corner (0, 0)
    seam = _BOUNDARY_HOLES_2D[0]
    ps = np.array([[0.0, 0.1], [0.9, 0.0], [0.999, 0.001], [0.05, 0.95]])
    assert list(seam.boundary_distance(ps)) == pytest.approx(
        [0.0, 0.0, 0.1 - 0.001 * math.sqrt(2), 0.1 - 0.05 * math.sqrt(2)],
        abs=1e-15)


def test_ball_hole_2d():
    h = S.ball_hole_2d((0.5, 0.5), 0.1)
    assert list(h.in_hole_many(np.array([[0.55, 0.5], [0.9, 0.9]]))) == \
        [True, False]
    # wraps around the torus
    h2 = S.ball_hole_2d((0.0, 0.0), 0.1)
    assert h2.in_hole_many(np.array([[0.95, 0.02]]))[0]


# ---------------------------------------------------------------------------
# iteration and survival

def test_survival_time_survivor_and_hole(golden_system):
    # 2/3 = 0.1010... never meets the [11] cylinder
    assert S.survival_time(golden_system, 2 / 3, 10) == math.inf
    assert S.survival_time(golden_system, 2 / 3, 50) > 50
    with pytest.raises(ValueError, match="horizon"):
        S.survival_time(golden_system, 2 / 3, -1)
    # 0.8 lies inside the hole
    assert S.survival_time(golden_system, 0.8, 10) == 0


def test_survival_time_finite(golden_system):
    # binary 0.0110... maps into [3/4,1) after one step
    t = S.survival_time(golden_system, 0.381966, 50)
    assert t is not None and 0 < t < 50


# ---------------------------------------------------------------------------
# symbolic machinery

def _surviving_words(words, m, n):
    """Brute-force reference: the n-words over m symbols with no factor in
    ``words`` (hole words of one length)."""
    k = len(words[0])
    hole = {tuple(w) for w in words}
    return [w for w in itertools.product(range(m), repeat=n)
            if not any(w[i:i + k] in hole for i in range(n - k + 1))]


def test_markov_words_golden(golden_system):
    got = set(_surviving_words([(1, 1)], 2, 3))
    assert got == {(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1)}
    assert S.word_counts(golden_system, 2, 3)[-1] == 5


@pytest.mark.parametrize("n", range(4, 12))
def test_word_counts_fibonacci(golden_system, n):
    *_, c, b, a = S.word_counts(golden_system, 2, n)
    assert a == b + c


def test_word_count_matches_recurrence():
    # words avoiding "33" over 7 symbols: a_n = 6 a_{n-1} + 6 a_{n-2};
    # a float64 count is off at n = 40
    sys_obj = S.OpenSystem(S.adic_map(7), S.cylinder_union_hole(7, 2, [(3, 3)]))
    a = [1, 7]
    for _ in range(2, 61):
        a.append(6 * a[-1] + 6 * a[-2])
    assert a[40] == 3110823497873238621173755853930496
    counts = S.word_counts(sys_obj, 2, 60)
    for n in (2, 3, 20, 40, 60):
        assert counts[n - 2] == a[n]


@pytest.mark.parametrize("m, words", [
    (2, [(1, 1)]), (2, [(1, 1, 0), (1, 1, 1)]), (2, [(0, 1, 1)]),
    (3, [(1,)]), (3, [(0, 2), (2, 2)])])
@pytest.mark.parametrize("above", [0, 1])
def test_word_count_matches_enumeration(m, words, above):
    # hole {110, 111} leaves the gram 11 without successors; words ending
    # in it still count.  Above the hole level the counts are those at the
    # level with the shortest dropped
    level = len(words[0])
    k = level + above
    sys_obj = S.OpenSystem(S.adic_map(m),
                           S.cylinder_union_hole(m, level, words))
    counts = S.word_counts(sys_obj, k, 9)
    for n in range(k, 10):
        assert counts[n - k] == len(_surviving_words(words, m, n))


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


def _gram_matrix(m, level, words, k):
    """Reference (k-1)-gram adjacency of the survivor subshift, built word
    by word: gram g steps to (g + c)[1:] unless g + c extends a hole
    word."""
    forbidden = {tuple(w) + ext for w in words
                 for ext in itertools.product(range(m), repeat=k - level)}
    states = list(itertools.product(range(m), repeat=k - 1))
    index = {g: i for i, g in enumerate(states)}
    A = np.zeros((len(states), len(states)))
    for g in states:
        for c in range(m):
            if g + (c,) not in forbidden:
                A[index[g], index[(g + (c,))[1:]]] = 1.0
    return A


def _survivor_graph_cases():
    rng = np.random.default_rng(22)
    for m, level in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1),
                     (5, 2)):
        allowed = list(itertools.product(range(m), repeat=level))
        for size in sorted({1, len(allowed) // 2}):
            pick = rng.choice(len(allowed), size, replace=False)
            for k in range(level, level + 3):
                yield m, level, [allowed[i] for i in sorted(pick)], k


@pytest.mark.parametrize("m, level, words, k", list(_survivor_graph_cases()))
def test_survivor_graph_matches_word_loop(m, level, words, k):
    sys_obj = S.OpenSystem(S.adic_map(m),
                           S.cylinder_union_hole(m, level, words))
    n, src, dst = S.survivor_graph(sys_obj, k)
    if k == 1:
        # one empty gram, with a loop per allowed symbol
        assert (n, src.tolist(), dst.tolist()) == (1, [0] * (m - len(words)),
                                                   [0] * (m - len(words)))
        return
    A = np.zeros((n, n))
    A[src, dst] = 1.0
    assert len(src) == np.count_nonzero(A)
    assert np.array_equal(A, _gram_matrix(m, level, words, k))


def test_survivor_graph_golden_root(golden_system):
    n, src, dst = S.survivor_graph(golden_system, 2)
    A = np.zeros((n, n))
    A[src, dst] = 1.0
    phi = (1 + math.sqrt(5)) / 2
    assert max(abs(np.linalg.eigvals(A))) == pytest.approx(phi, abs=1e-12)
    assert S.graph_radius(n, src, dst) == pytest.approx(phi, abs=1e-15)


def _classes(n, src, dst):
    return sorted((idx.tolist(), p) for idx, p in
                  S._find_classes(n, src, dst))


def test_find_classes_and_periods():
    # 0 <-> 1 (period 2), 1 -> 2, 2 -> 2 (period 1), 3 -> 0 with 3 on no
    # cycle, and the 3-cycle 4 -> 5 -> 6 -> 4 with the chord 4 -> 6
    # (cycle lengths 3 and 2: period 1)
    src = np.array([0, 1, 1, 2, 3, 4, 5, 6, 4])
    dst = np.array([1, 0, 2, 2, 0, 5, 6, 4, 6])
    assert _classes(7, src, dst) == [([0, 1], 2), ([2], 1), ([4, 5, 6], 1)]
    # i -> i + 2 mod 6: two 3-cycles
    ring = np.arange(6)
    assert _classes(6, ring, (ring + 2) % 6) == [([0, 2, 4], 3),
                                                 ([1, 3, 5], 3)]
    with pytest.raises(S.HoleKindError, match="empty"):
        S._find_classes(3, np.array([0, 1]), np.array([1, 2]))


def test_parry_chain_stationary(golden_system):
    states, P, pi = S.parry_chain(golden_system, 2)
    assert np.allclose(P.sum(axis=1), 1.0)
    assert np.allclose(pi @ P, pi)
    assert pi[states.index((0,))] == pytest.approx(
        (5 + math.sqrt(5)) / 10, abs=1e-12)


def test_sample_survivor_points_survive(golden_system, rng):
    pts = S.sample_survivor_points(golden_system, 2, 300, rng)
    assert all(S.survival_time(golden_system, x, 25) > 25 for x in pts)


def test_evolve_survivors_counts(golden_system, rng):
    pts = rng.random(20000)
    counts, flagged, _ = S.evolve_survivors(golden_system, pts, 8)
    assert counts[0] <= 20000
    # survivor fraction decays roughly like (phi/2)^n
    ratio = counts[8] / counts[7]
    assert ratio == pytest.approx((1 + math.sqrt(5)) / 4, abs=0.02)


def _evolve_by_boolean_rows(sys_obj, pts, n_max):
    """``evolve_survivors`` with every row selection by boolean indexing."""
    pts = np.asarray(pts, dtype=float)
    alive = ~sys_obj.hole.in_hole_many(pts)
    flagged = 0
    counts = np.zeros(n_max + 1, dtype=np.int64)
    counts[0] = np.count_nonzero(alive)
    cur = pts[alive]
    for n in range(1, n_max + 1):
        if len(cur) == 0:
            break
        ok = sys_obj.map.singularity_distance(cur) > S.SINGULARITY_GUARD
        flagged += int(np.count_nonzero(~ok))
        # a flagged orbit counts at no step
        counts[:n] -= int(np.count_nonzero(~ok))
        cur = sys_obj.map.step_many(cur[ok])
        cur = cur[~sys_obj.hole.in_hole_many(cur)]
        counts[n] = len(cur)
    return counts, flagged, cur


@pytest.mark.parametrize("sys_obj, shape, n_max", [
    (S.OpenSystem(S.doubling_map(), S.cylinder_union_hole(2, 2, [(1, 1)])),
     (50_000,), 20),
    (S.OpenSystem(S.cat_map(), S.ball_hole_2d((0.25, 0.75), 0.1)),
     (50_000, 2), 20),
    (S.OpenSystem(S.baker_map(), S.ball_hole_2d((0.25, 0.75), 0.1)),
     (50_000, 2), 20),
    # orbits through S = {1/2} are flagged and dropped
    (SINGULAR, (200_000,), 45)])
def test_evolve_survivors_matches_boolean_rows(sys_obj, shape, n_max):
    pts = np.random.default_rng(3).random(shape)
    counts, flagged, alive = S.evolve_survivors(sys_obj, pts, n_max)
    ref_counts, ref_flagged, ref_alive = _evolve_by_boolean_rows(
        sys_obj, pts, n_max)
    assert np.array_equal(counts, ref_counts)
    assert flagged == ref_flagged
    assert alive.shape == ref_alive.shape
    assert np.array_equal(alive, ref_alive)
    if sys_obj is SINGULAR:
        assert flagged > 0


def _sample_by_gathered_rows(sys_obj, k, size, rng):
    """``sample_survivor_points`` stepping its chain by gathering each
    point's cumulative transition row and counting the entries below u."""
    m = sys_obj.map.branch_count
    states, P, pi = S.parry_chain(sys_obj, k)
    cum_P = np.cumsum(P, axis=1)
    state = np.searchsorted(np.cumsum(pi), rng.random(size))
    xs = np.zeros(size)
    scale = 1.0
    first_symbol = np.array([s[0] for s in states])
    for _ in range(60):
        scale /= m
        xs += first_symbol[state] * scale
        u = rng.random(size)
        state = (cum_P[state] < u[:, None]).sum(axis=1)
        state = np.minimum(state, len(states) - 1)
    return xs


@pytest.mark.parametrize("sys_obj, k", [
    (S.OpenSystem(S.doubling_map(), S.cylinder_union_hole(2, 2, [(1, 1)])),
     2),
    # a chain on the 2-grams of a 5-adic level-3 hole
    (S.OpenSystem(S.adic_map(5), S.cylinder_union_hole(
        5, 3, [(1, 3, 2), (4, 0, 1)])), 3)])
def test_sample_survivor_points_matches_gathered_rows(sys_obj, k):
    got = S.sample_survivor_points(sys_obj, k, 20_000,
                                   np.random.default_rng(8))
    ref = _sample_by_gathered_rows(sys_obj, k, 20_000,
                                   np.random.default_rng(8))
    assert np.array_equal(got, ref)


# ---------------------------------------------------------------------------
# forked workers

def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_fork_map_returns_runs_in_order(monkeypatch):
    _cpus(monkeypatch, 3)
    parent = os.getpid()
    # 10 items on 3 CPUs: runs of 3, 3 and 4; each result (8 MB) is larger
    # than a pipe holds, so a worker waits for its turn to be read
    got = S._fork_map(lambda run: (os.getpid(), list(run),
                                   np.arange(10**6) + run[0]), range(10))
    assert [items for _, items, _ in got] == [[0, 1, 2], [3, 4, 5],
                                              [6, 7, 8, 9]]
    assert all(np.array_equal(a, np.arange(10**6) + i)
               for (_, _, a), i in zip(got, (0, 3, 6)))
    pids = {pid for pid, _, _ in got}
    assert len(pids) == 3 and parent not in pids
    assert_no_children()
    # never more workers than items
    assert S._fork_map(lambda run: list(run), [5, 6]) == [[5], [6]]
    assert_no_children()


def test_fork_map_workers_inherit_unpicklable_arguments(monkeypatch,
                                                        golden_system):
    # a lambda and an OpenSystem (whose maps are closures) do not pickle;
    # the workers inherit them through the fork
    _cpus(monkeypatch, 2)
    pts = np.array([0.1, 0.3, 0.6, 0.9])
    got = S._fork_map(lambda f, sys_obj, run: f(sys_obj, pts[run]),
                      range(4), lambda sys_obj, x: sys_obj.map.step_many(x),
                      golden_system)
    assert np.array_equal(np.concatenate(got),
                          golden_system.map.step_many(pts))
    assert_no_children()


def test_fork_map_one_cpu_runs_inline(monkeypatch):
    _cpus(monkeypatch, 1)
    assert S._fork_map(lambda run: (os.getpid(), list(run)), range(5)) == \
        [(os.getpid(), [0, 1, 2, 3, 4])]
    assert_no_children()


def test_fork_map_worker_error_reaches_caller(monkeypatch):
    _cpus(monkeypatch, 3)

    def fail_from_second_run(run):
        if run[0] > 0:
            raise ValueError(f"run starting at {run[0]} failed")
        return list(run)
    # the first failed run's error, raised after every worker has exited
    with pytest.raises(ValueError, match="^run starting at 2 failed$"):
        S._fork_map(fail_from_second_run, range(6))
    assert_no_children()


def test_fork_map_killed_worker_raises(monkeypatch):
    _cpus(monkeypatch, 2)

    def die(run):
        if run[0] == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return list(run)
    with pytest.raises(ChildProcessError,
                       match=r"ended without a result \(signal 9\)"):
        S._fork_map(die, range(2))
    assert_no_children()


def test_fork_map_unpicklable_result_raises(monkeypatch):
    _cpus(monkeypatch, 2)
    with pytest.raises(TypeError, match="result does not pickle"):
        S._fork_map(lambda run: lambda: run, range(2))
    assert_no_children()


# ---------------------------------------------------------------------------
# configs

def test_system_from_config_roundtrip():
    cfg = {"map": {"name": "adic", "params": {"m": 2}},
           "hole": {"kind": "cylinder_union", "base": 2, "level": 2,
                    "words": [[1, 1]]}}
    sys_obj = S.system_from_config(cfg)
    assert sys_obj.map.branch_count == 2
    assert sys_obj.hole.in_hole_many(np.array([0.9]))[0]


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        S.map_from_config({"name": "adic", "params": {"m": 2}, "zap": 1})
    with pytest.raises(ValueError, match="unknown"):
        S.hole_from_config({"kind": "interval_union",
                            "intervals": [[0.1, 0.2]], "extra": True})
    with pytest.raises(ValueError):
        S.hole_from_config({"kind": "nonsense"})

import math

import numpy as np
import pytest

from openrates import dynballs as D
from openrates.systems import (OpenSystem, cat_map, cylinder_union_hole,
                               doubling_map, empty_hole, orbit_tableau,
                               sample_survivor_points)

LAMBDA_CAT = math.log((3 + math.sqrt(5)) / 2)


@pytest.fixture
def closed_doubling():
    return OpenSystem(doubling_map(), empty_hole(1))


@pytest.fixture
def closed_cat():
    return OpenSystem(cat_map(), empty_hole(2))


def test_cutoff_definition(closed_doubling):
    # no singularities: cutoff is eps / 3 everywhere
    assert D.g_cutoff(closed_doubling, np.array([0.3, 0.7]), 0.09) == \
        pytest.approx([0.03, 0.03])


def test_ball_measure_1d_exact(closed_doubling):
    mass, se = D.ball_measure(closed_doubling, 0.3137, 8, 0.1, 20_000,
                              np.random.default_rng(1))
    exact = 2 * min((0.1 / 3) / 2 ** i for i in range(9))
    assert mass == pytest.approx(exact, rel=1e-12)


def _is_member(sys_obj, center, n, eps, y):
    orbit = orbit_tableau(sys_obj.map, [center], n)[:, 0]
    return D._count_members(sys_obj, orbit, D.g_cutoff(sys_obj, orbit, eps),
                            np.array([y])) == 1


def test_ball_member_matches_measure_support(closed_doubling):
    r = 0.1 / 3 / 2 ** 6
    assert _is_member(closed_doubling, 0.3137, 6, 0.1, 0.3137 + 0.9 * r)
    assert not _is_member(closed_doubling, 0.3137, 6, 0.1, 0.3137 + 1.1 * r)


def test_ball_member_requires_survival(golden_system):
    # 2/3 survives forever, and so does a point this close to it for n steps
    assert _is_member(golden_system, 2 / 3, 6, 0.1, 2 / 3 + 1e-9)


def test_slope_doubling(closed_doubling):
    slope, rows = D.ball_slope(closed_doubling, 0.3137, 0.1, [4, 6, 8, 10],
                               samples=20_000)
    assert slope == pytest.approx(math.log(2), abs=1e-9)
    masses = [m for _, m in rows]
    assert all(a > b for a, b in zip(masses, masses[1:]))


def test_slope_cat(closed_cat):
    slope, _ = D.ball_slope(closed_cat, np.array([0.3137, 0.271]), 0.1,
                            [3, 5, 7], samples=40_000)
    assert slope == pytest.approx(LAMBDA_CAT, abs=0.05)


@pytest.mark.parametrize("n_values", [[], [-1, 3], [3], [5, 5, 5]])
def test_slope_needs_two_distinct_horizons(closed_doubling, n_values):
    # [] and [-1, 3] ended in a TypeError and an IndexError; [3] and
    # [5, 5, 5] fitted a line through one abscissa
    with pytest.raises(ValueError, match="at least two distinct"):
        D.ball_slope(closed_doubling, 0.3137, 0.1, n_values, samples=2_000)


def test_open_system_ball_decay(golden_system):
    slope, rows = D.ball_slope(golden_system, 2 / 3, 0.1, [4, 6, 8],
                               samples=60_000)
    # ball around a survivor point: decay at least the expansion rate
    assert slope >= math.log(2) - 0.05


def test_zero_count_error(golden_system):
    # center escapes quickly, so the ball intersected with M^n is empty
    with pytest.raises(D.ZeroCountError):
        D.ball_measure(golden_system, 0.381966, 8, 0.1, 5_000,
                       np.random.default_rng(1))


def test_triangle_check_zero_violations():
    def sd(x):
        return min(x, 1 - x, abs(x - 0.5))

    out = D.triangle_check(sd, 100_000, 0.05)
    assert out["violations"] == 0
    assert out["proof_violations"] == 0
    out_adv = D.triangle_check(sd, 50_000, 0.05, adversarial=True)
    assert out_adv["violations"] == 0
    assert out_adv["proof_violations"] == 0


def _triangle_check_ref(singularity_distance, n_triples, eps, rng,
                        adversarial):
    """``triangle_check`` as it was before it skipped hopeless proposals:
    d(y, S) at every proposal."""
    def dist_s(pts):
        return np.array([singularity_distance(v) for v in pts])

    violations = proof_violations = produced = 0
    while produced < n_triples:
        batch = min(n_triples - produced, 100_000)
        if adversarial:
            x = np.clip((rng.random(batch) ** 3) * eps * 3.0, 1e-9, 1 - 1e-9)
        else:
            x = rng.random(batch)
        ds_x = dist_s(x)
        gx = np.minimum(eps, ds_x) / 3.0
        z = x + rng.uniform(-1.0, 1.0, batch) * gx
        prop = z + rng.uniform(-1.0, 1.0, batch) * 2.0 * gx
        ds_y = dist_s(prop)
        gy = np.minimum(eps, ds_y) / 3.0
        ok = np.abs(prop - z) <= gy
        x, y, gx = x[ok], prop[ok], gx[ok]
        ds_x, ds_y = ds_x[ok], ds_y[ok]
        produced += len(x)
        violations += int(np.count_nonzero(np.abs(x - y) > 3.0 * gx + 1e-15))
        proof_violations += int(np.count_nonzero(ds_y > 2.0 * ds_x + 1e-15))
    return {"triples": produced, "violations": violations,
            "proof_violations": proof_violations}


@pytest.mark.parametrize("adversarial", [False, True])
@pytest.mark.parametrize("eps", [0.05, 0.3])
@pytest.mark.parametrize("steep", [False, True])
def test_triangle_check_matches_reference_loop(adversarial, eps, steep):
    # a proposal farther than eps / 3 from z skips d(y, S): the same draws
    # (the generators end in one state) and counts, with fewer calls.  A
    # distance 10 times steeper than a true one breaks both bounds, so the
    # counts depend on which triples are accepted
    calls = [0]

    def sd(x):
        calls[0] += 1
        if steep:
            return abs(math.sin(40.0 * x)) / 4.0
        return min(x, 1 - x, abs(x - 0.5))

    for seed in range(4):
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = D.triangle_check(sd, 20_000, eps, rng, adversarial)
        fast, calls[0] = calls[0], 0
        ref = _triangle_check_ref(sd, 20_000, eps, rng_ref, adversarial)
        assert got == ref
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        assert fast < calls[0]
        assert (ref["proof_violations"] > 0) == steep
        calls[0] = 0


def test_separated_set(golden_system, rng):
    cand = list(sample_survivor_points(golden_system, 2, 30, rng))
    size = D.separated_set_size(golden_system, cand, 6, 0.1)
    assert 1 <= size <= 30
    # shrinking n can only make separation harder to achieve
    size_small_n = D.separated_set_size(golden_system, cand, 2, 0.1)
    assert size_small_n <= size


def test_orbit_helpers_pinned(golden_system, closed_cat):
    # literals recorded with the per-point orbit, cutoff and cocycle loops
    # these helpers replaced; the arithmetic is unchanged, so they compare
    # equal with no tolerance
    cand = sample_survivor_points(golden_system, 2, 200,
                                  np.random.default_rng(1))
    assert D.separated_set_size(golden_system, cand, 6, 0.1) == 81
    cand_2d = np.random.default_rng(2).random((150, 2))
    assert D.separated_set_size(closed_cat, cand_2d, 4, 0.1) == 145
    out = D.ball_slope(closed_cat, np.array([0.3137, 0.271]), 0.1, [3, 5, 7],
                       samples=20_000, rng=np.random.default_rng(3))
    assert out == (0.9620483685876409, [(3, 0.0002473088794037332),
                                        (5, 3.613427655486916e-05),
                                        (7, 5.2721835095210094e-06)])

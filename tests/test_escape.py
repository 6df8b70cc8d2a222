import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openrates import escape as E
from openrates import systems as S
from openrates import ulam as U
from openrates.systems import (HoleKindError, OpenSystem, adic_map,
                               ball_hole_2d, baker_map, cat_map,
                               cylinder_union_hole, doubling_map,
                               interval_union_hole, word_counts)
from test_singular import CLOSED as SINGULAR


def test_triadic_grid_exact(triadic_system):
    est = E.escape_rate_grid(triadic_system, 30, resolution=27)
    assert est.rho == pytest.approx(math.log(2 / 3), abs=1e-13)
    assert est.rho_lower <= est.rho <= est.rho_upper


def test_golden_grid_vs_words(golden_system):
    grid = E.escape_rate_grid(golden_system, 40, resolution=16)
    words = E.escape_rate_words(golden_system, 2)
    exact = math.log((1 + math.sqrt(5)) / 4)
    assert words.rho == pytest.approx(exact, abs=1e-14)
    assert grid.rho == pytest.approx(exact, abs=1e-6)


def _doubling(*words):
    return OpenSystem(doubling_map(),
                      cylinder_union_hole(2, len(words[0]), words))


def test_words_rate_on_tied_classes():
    # hole [01]: the survivors are 1^a 0^b, so N_n = n + 1; the fixed
    # points 0 and 1 are two classes that tie at root 1
    sys_obj = _doubling((0, 1))
    assert E.escape_rate_words(sys_obj, 2).rho == pytest.approx(
        -math.log(2), abs=1e-15)
    assert word_counts(sys_obj, 2, 30) == [n + 1 for n in range(2, 31)]


def test_words_rate_on_periodic_class():
    # hole {00, 11}: the survivors alternate, one class of period 2
    assert E.escape_rate_words(_doubling((0, 0), (1, 1)), 2).rho == \
        pytest.approx(-math.log(2), abs=1e-15)


@pytest.mark.parametrize("k", [12, 14])
def test_small_hole_words_rate_matches_exact_ulam(k):
    # holes around the fixed point 0, the period-2 orbit and an aperiodic
    # point; as they shrink, rho / mu(H) -> -1/2, -3/4 and -1
    for word in ((0,) * k, (0, 1) * (k // 2), (0,) * (k - 1) + (1,)):
        sys_obj = _doubling(word)
        rho = E.escape_rate_words(sys_obj, k).rho
        spec = U.leading_eigenpair(U.build_ulam(sys_obj, 2 ** k))
        assert abs(rho - math.log(spec.eigenvalue)) < 1e-12


def test_words_per_n_mass_fibonacci(golden_system):
    est = E.escape_rate_words(golden_system, 2, n_max=12)
    masses = dict(est.per_n_mass)
    # N_n / 2^n with N following the Fibonacci recurrence
    for n in range(4, 12):
        assert masses[n + 1] * 2 == pytest.approx(
            masses[n] + masses[n - 1] / 2, rel=1e-12)


def test_mc_matches_exact(golden_system):
    est = E.escape_rate_mc(golden_system,
                           E.lebesgue_sampler(1), 30, 200_000, seed=5)
    exact = math.log((1 + math.sqrt(5)) / 4)
    assert est.rho == pytest.approx(exact, abs=3 * est.stderr + 0.01)
    assert est.rho_lower <= est.rho <= est.rho_upper
    assert est.meta["shards"] == E.MC_SHARDS


def test_mc_deterministic(golden_system):
    kw = dict(n_max=20, samples=50_000, seed=9)
    a = E.escape_rate_mc(golden_system, E.lebesgue_sampler(1), **kw)
    b = E.escape_rate_mc(golden_system, E.lebesgue_sampler(1), **kw)
    assert a.rho == b.rho
    assert a.per_n_mass == b.per_n_mass


def _per_shard_mc(sys_obj, sampler, n_max, samples, seed):
    """``escape_rate_mc`` as one evolve per shard, on the shard's whole
    draw."""
    def run_shards(seeds, sizes):
        for seed_seq, size in zip(seeds, sizes):
            rng = np.random.default_rng(seed_seq)
            counts, flagged, _ = S.evolve_survivors(
                sys_obj, sampler(rng, size), n_max)
            yield counts, flagged

    return E.sharded_mc_estimates(run_shards, samples, seed, n_max,
                                  "monte_carlo")[0]


def _outcome(run, *args):
    """Every field of the estimate, or the message of too few survivors."""
    try:
        return dataclasses.asdict(run(*args))
    except E.InsufficientSurvivorsError as exc:
        return str(exc)


_BALL = ball_hole_2d((0.25, 0.75), 0.1)
_MC_SYSTEMS = {
    "golden": (OpenSystem(doubling_map(),
                          cylinder_union_hole(2, 2, [(1, 1)])), 1, 40),
    "5-adic": (OpenSystem(adic_map(5), cylinder_union_hole(5, 1, [(2,)])),
               1, 40),
    "cat": (OpenSystem(cat_map(), _BALL), 2, 25),
    "baker": (OpenSystem(baker_map(), _BALL), 2, 25),
    # the doubling map with S = {1/2} behind a small hole: orbits through S
    # are flagged in several batches, and the hole keeps the survivor
    # fraction below 1 while the flagged ones still count
    "singular": (OpenSystem(SINGULAR.map,
                            cylinder_union_hole(2, 6, [(1,) * 6])), 1, 40)}


@pytest.mark.parametrize("name, samples", [
    # fewer points than a batch; shards that straddle batches; in 1D,
    # shards larger than a batch
    *[(name, samples) for name in _MC_SYSTEMS for samples in (40, 70_001)],
    ("golden", 1_100_000), ("5-adic", 1_100_000), ("singular", 1_100_000),
    # no batch at all
    ("golden", 0)])
def test_mc_batches_match_per_shard_loop(monkeypatch, name, samples):
    sys_obj, dim, n_max = _MC_SYSTEMS[name]
    args = (sys_obj, E.lebesgue_sampler(dim), n_max, samples, 17)
    expected = _outcome(_per_shard_mc, *args)
    evolve = S.evolve_survivors

    def bounded(sys_obj, pts, n_max):
        assert len(pts) <= S._CHUNK
        return evolve(sys_obj, pts, n_max)

    monkeypatch.setattr(E, "evolve_survivors", bounded)
    got = _outcome(E.escape_rate_mc, *args)
    assert got == expected
    if samples < 100:
        assert got.startswith("only ")
    elif name == "singular":
        assert got["meta"]["flagged"] > 0


def test_monotone_rho_nested_holes():
    f = doubling_map()
    word_sets = [[(1, 1)], [(1, 1), (1, 0)], [(1, 1), (1, 0), (0, 1)]]
    ests = []
    for words in word_sets:
        sys_obj = OpenSystem(f, cylinder_union_hole(2, 2, words))
        ests.append(E.escape_rate_grid(sys_obj, 30, resolution=16))
    assert E.monotone_rho(ests)
    assert not E.monotone_rho(list(reversed(ests)))


def test_write_csv_roundtrip(tmp_path, golden_system):
    est = E.escape_rate_grid(golden_system, 20, resolution=16)
    path = tmp_path / "survival.csv"
    est.write_csv(path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "n,mass,log_mass,cumulative_slope"
    assert len(rows) == len(est.per_n_mass) + 1
    n, mass, logm, slope = rows[2].split(",")
    assert float(mass) == est.per_n_mass[1][1]
    assert float(logm) == pytest.approx(math.log(float(mass)))


def test_insufficient_survivors():
    sys_obj = OpenSystem(doubling_map(),
                         interval_union_hole([(0.05, 0.95)]))
    with pytest.raises(E.InsufficientSurvivorsError):
        E.escape_rate_mc(sys_obj, E.lebesgue_sampler(1), 20, 2_000, seed=1)


def test_degenerate_fit_underflow():
    sys_obj = OpenSystem(doubling_map(),
                         interval_union_hole([(0.05, 0.95)]))
    with pytest.raises(E.DegenerateFitError):
        E.escape_rate_grid(sys_obj, 1500, resolution=20)


def test_default_window():
    assert E.default_window(40) == (10, 40)
    assert E.default_window(3) == (1, 3)


@st.composite
def nested_cylinder_holes(draw):
    """(m, level, words, more words): two nested cylinder holes of the
    m-adic map at one level, m in {2, 3}, level <= 3."""
    m = draw(st.sampled_from([2, 3]))
    level = draw(st.integers(1, 3))
    words = st.sampled_from(list(itertools.product(range(m), repeat=level)))
    small = draw(st.lists(words, min_size=1, unique=True))
    extra = draw(st.lists(words, unique=True))
    return m, level, small, sorted(set(small) | set(extra))


def _adic_system(m, level, words):
    return OpenSystem(adic_map(m), cylinder_union_hole(m, level, words))


@settings(max_examples=80, deadline=None)
@given(nested_cylinder_holes())
def test_nested_cylinder_holes_monotone_rho(case):
    m, level, small, big = case
    try:
        rhos = [E.escape_rate_words(_adic_system(m, level, w), level).rho
                for w in (small, big)]
    except HoleKindError as err:    # empty survivor subshift: no rate
        assert "empty" in str(err)
        return
    assert rhos[1] <= rhos[0] + 1e-12


@settings(max_examples=80, deadline=None)
@given(nested_cylinder_holes())
def test_exact_ulam_matches_words_rate(case):
    # each case gives the rate or raises: HoleKindError for an empty or
    # tied survivor subshift, ConvergenceError for a periodic survivor class
    m, level, words, _ = case
    sys_obj = _adic_system(m, level, words)
    try:
        rho = E.escape_rate_words(sys_obj, level).rho
        spec = U.leading_eigenpair(U.build_ulam(sys_obj, m ** level),
                                   max_iters=5000)
    except (HoleKindError, U.ConvergenceError):
        return
    assert abs(math.log(spec.eigenvalue) - rho) < 1e-9

import math

import numpy as np
import pytest

from openrates import escape as E
from openrates import ulam as U
from openrates.systems import (OpenSystem, cylinder_union_hole, doubling_map,
                               interval_union_hole)


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


def test_grid_uses_prebuilt_operator(golden_system):
    op = U.build_ulam(golden_system, 32)
    est = E.escape_rate_grid(golden_system, 25, operator=op)
    assert est.meta["resolution"] == 32
    exact = math.log((1 + math.sqrt(5)) / 4)
    assert est.rho == pytest.approx(exact, abs=1e-6)

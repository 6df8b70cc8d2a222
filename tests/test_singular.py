"""A map with a real singularity set.

Every map of the zoo has S empty, so the guard, flag and drop paths never
run on it.  The doubling map below declares S = {1/2}; its orbits through
1/4 and 3/4 land on S after one step.
"""

import dataclasses
import math

import numpy as np
import pytest

from openrates import pressure as P
from openrates import systems as S
from openrates import tower as T


def _singular_doubling():
    """x -> 2x mod 1 with the singularity set S = {1/2}."""
    return dataclasses.replace(
        S.doubling_map(),
        singularity_distance=lambda x: np.abs(np.asarray(x, dtype=float)
                                              - 0.5))


CLOSED = S.OpenSystem(_singular_doubling(), S.empty_hole(1))


def test_survival_time_refuses_points_on_s():
    with pytest.raises(S.DomainError, match="lies on the singularity set"):
        S.survival_time(CLOSED, 0.5, 5)
    # 1/4 maps onto S, so its orbit stops at the guard band
    with pytest.raises(S.DomainError, match="guard band at step 1"):
        S.survival_time(CLOSED, 0.25, 5)


def test_evolve_survivors_flags_orbits_through_s():
    counts, flagged, alive = S.evolve_survivors(
        CLOSED, np.array([0.1, 0.25, 0.75]), 3)
    assert flagged == 2
    assert list(counts) == [3, 3, 1, 1]
    assert list(alive) == [0.8]


def test_g_s_is_a_power_law_fit():
    # uniform samples: the eps-neighbourhood of S has mass 2 eps
    rep = P.InvariantMeasureRep(
        kind="empirical", samples=np.random.default_rng(5).random(200_000))
    flags = P.class_membership(CLOSED, rep, targets=("G_S",),
                               sample_size=200_000,
                               rng=np.random.default_rng(6))
    g_s = flags["G_S"]
    assert g_s["status"] == "pass"
    assert "reason" not in g_s
    assert g_s["fit"]["alpha"] == pytest.approx(1.0, abs=0.1)


def test_lyapunov_sum_drops_orbits_that_land_on_s():
    on_s = P.InvariantMeasureRep(kind="empirical",
                                 samples=np.array([0.25, 0.75]))
    with pytest.raises(RuntimeError, match="singularity"):
        P.lyapunov_sum(CLOSED, on_s, n=20)
    mixed = P.InvariantMeasureRep(kind="empirical",
                                  samples=np.array([0.25, 1 / 3]))
    lam, err = P.lyapunov_sum(CLOSED, mixed, n=20)
    assert lam == pytest.approx(math.log(2), abs=1e-12)
    assert err == pytest.approx(0.0, abs=1e-12)


def _approach_rate(base_points):
    return T.validate_hypotheses(T.golden_mean_tower(), map_attachment={
        "system": CLOSED, "base_points": np.array(base_points),
        "horizon": 20, "delta": 0.1, "xi1": 2.0})


def test_approach_rate_reports_pass_and_witness():
    # the orbit of 1/3 keeps distance 1/6 from S
    far = _approach_rate([1 / 3, 2 / 3])
    assert far["checks"]["approach_rate"]["pass"]
    assert far["checks"]["approach_rate"]["witness"] is None
    assert far["passed"]
    near = _approach_rate([1 / 3, 0.25, 0.75])
    check = near["checks"]["approach_rate"]
    assert not check["pass"] and not near["passed"]
    # first failing point in order, at its first failing step
    assert check["witness"] == (0.25, 1)

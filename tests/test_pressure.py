import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from openrates import escape as E
from openrates import pressure as P
from openrates import ulam as U
from openrates.systems import (HoleKindError, MapModel, OpenSystem, cat_map,
                               doubling_map, empty_hole, parry_chain,
                               sample_survivor_points)

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


def _nu_hat_rep(golden_system):
    states, Pm, pi = parry_chain(golden_system, 2)
    return P.InvariantMeasureRep(kind="markov_chain", name="nu_hat",
                                 transition=Pm, stationary=pi,
                                 lyapunov_exact=math.log(2), is_nu_hat=True)


def test_entropy_markov_golden(golden_system):
    states, Pm, pi = parry_chain(golden_system, 2)
    assert P.entropy_markov(Pm, pi) == pytest.approx(LOG_PHI, abs=1e-12)


def test_entropy_markov_rejects_substochastic():
    with pytest.raises(ValueError):
        P.entropy_markov(np.array([[0.5, 0.3], [0.5, 0.5]]))


def test_stationary_vector():
    Pm = np.array([[0.9, 0.1], [0.4, 0.6]])
    pi = P.stationary_vector(Pm)
    assert np.allclose(pi @ Pm, pi)
    assert pi.sum() == pytest.approx(1.0)


def test_stationary_vector_rejects_two_closed_classes():
    Pm = np.array([[0.5, 0.25, 0.25], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(HoleKindError, match="tie"):
        P.stationary_vector(Pm)


def test_invariant_rep_validates_stationary():
    Pm = np.array([[0.5, 0.5], [1.0, 0.0]])
    with pytest.raises(ValueError, match="residual"):
        P.InvariantMeasureRep(kind="markov_chain", transition=Pm,
                              stationary=np.array([0.9, 0.1]))


def test_lyapunov_1d_exact(golden_system, rng):
    samples = sample_survivor_points(golden_system, 2, 500, rng)
    rep = P.InvariantMeasureRep(kind="empirical", samples=samples)
    lam, se = P.lyapunov_sum(golden_system, rep, n=10, orbit_samples=50,
                             rng=rng)
    assert lam == pytest.approx(math.log(2), abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_lyapunov_2d_cat(rng):
    sys_obj = OpenSystem(cat_map(), empty_hole(2))
    rep = P.InvariantMeasureRep(kind="empirical", samples=rng.random((500, 2)))
    lam, se = P.lyapunov_sum(sys_obj, rep, n=400, orbit_samples=20, rng=rng)
    lam_exact = math.log((3 + math.sqrt(5)) / 2)
    # QR alignment transient decays like 1/n
    assert lam == pytest.approx(lam_exact, abs=5e-3)


def test_ruelle_violation_raises():
    with pytest.raises(AssertionError, match="Ruelle"):
        P.PressureReport(name="x", entropy=1.0, lyapunov_sum=0.5,
                         pressure=0.5, rho=0.0, gap=0.5)


def test_negative_entropy_raises():
    with pytest.raises(AssertionError):
        P.PressureReport(name="x", entropy=-0.1, lyapunov_sum=0.5,
                         pressure=-0.6, rho=0.0, gap=0.6)


def test_invariants_survive_optimized_mode():
    # python -O strips assert statements; the report must still refuse
    src = str(Path(P.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = ("assert False, 'not running under -O'\n"
            "from openrates.pressure import PressureReport\n"
            "for h in (1.0, -0.1):\n"
            "    try:\n"
            "        PressureReport(name='x', entropy=h, lyapunov_sum=0.5,\n"
            "                       pressure=h - 0.5, rho=0.0, gap=0.5)\n"
            "    except AssertionError as e:\n"
            "        print('raised:', e)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("raised: Ruelle inequality violated")
    assert lines[1] == "raised: entropy must be nonnegative"


def test_invariant_rep_rejects_nan_residual():
    Pm = np.array([[1.0, 0.0], [np.nan, np.nan]])
    with pytest.raises(ValueError, match="residual"):
        P.InvariantMeasureRep(kind="markov_chain", transition=Pm,
                              stationary=np.array([1.0, 0.0]))


def test_brin_katok_closed_doubling(rng):
    sys_obj = OpenSystem(doubling_map(), empty_hole(1))
    h, se, per = P.entropy_brin_katok(sys_obj, rng.random(30_000),
                                      eps_list=(0.1, 0.05), n_max=10,
                                      centers=40, rng=rng)
    assert h == pytest.approx(math.log(2), abs=0.03)
    assert se < 0.02
    assert len(per) == 2


def test_brin_katok_golden_survivor(golden_system, rng):
    samples = sample_survivor_points(golden_system, 2, 30_000, rng)
    h, se, _ = P.entropy_brin_katok(golden_system, samples,
                                    eps_list=(0.1, 0.05), n_max=10,
                                    centers=40, rng=rng)
    assert h == pytest.approx(LOG_PHI, abs=0.04)


def _squeeze_towards_s():
    """(x, y) -> (x, 1/2 + (y - 1/2) / 2) with S = {y = 1/2}: x stays put and
    the distance of y to S halves at every step."""
    def step(ps):
        ps = np.asarray(ps, dtype=float)
        return np.column_stack([ps[:, 0], 0.5 + (ps[:, 1] - 0.5) / 2.0])

    return MapModel(
        dimension=2, step_many=step,
        derivative=lambda ps: np.tile(np.diag([1.0, 0.5]), (len(ps), 1, 1)),
        singularity_distance=lambda ps: np.abs(np.asarray(ps)[:, 1] - 0.5),
        reference_density=lambda ps: np.ones(len(ps)))


def test_brin_katok_eps_in_any_order(golden_system):
    # the balls of all eps are counted in one pass inside the largest one;
    # each eps must still give what it gives alone, in the caller's order
    samples = sample_survivor_points(golden_system, 2, 5000,
                                     np.random.default_rng(1))

    def run(eps_list):
        return P.entropy_brin_katok(golden_system, samples, eps_list,
                                    n_max=10, centers=20,
                                    rng=np.random.default_rng(2))[2]

    alone = {eps: run((eps,))[0] for eps in (0.02, 0.05, 0.1)}
    for order in ((0.05, 0.1, 0.02), (0.1, 0.02, 0.05), (0.05, 0.05)):
        assert run(order) == [alone[eps] for eps in order]


def test_brin_katok_cutoff_is_distance_of_center_to_s():
    # all samples lie on the grid x = k / N of the line y = 1/2 + 0.02, so
    # d(f^i c, S) = 0.02 / 2^i at every center c, and the ball of step i
    # keeps the 2 floor(N min(eps, 0.02 / 2^i)) grid points nearest c.
    # A cutoff taken at a coordinate instead of the point gives other counts.
    N = 2 ** 17
    samples = np.column_stack([np.arange(N) / N, np.full(N, 0.52)])
    _, _, per_eps = P.entropy_brin_katok(
        OpenSystem(_squeeze_towards_s(), empty_hole(2)), samples,
        eps_list=(0.1, 0.015), n_max=7, centers=10,
        rng=np.random.default_rng(0))
    steps = np.arange(8)
    for eps, slope, _ in per_eps:
        counts = 2 * np.floor(N * np.minimum(eps, 0.02 / 2.0 ** steps))
        expected = np.polyfit(steps.astype(float), -np.log(counts / N), 1)[0]
        assert slope == pytest.approx(expected, rel=1e-12)
    # eps = 0.1 never binds: the count halves at every step
    assert per_eps[0][1] == pytest.approx(math.log(2), abs=0.01)


def test_class_membership_golden(golden_system, rng):
    samples = sample_survivor_points(golden_system, 2, 20_000, rng)
    rep = P.InvariantMeasureRep(kind="empirical", samples=samples)
    flags = P.class_membership(golden_system, rep, rng=rng)
    assert flags["G_S"]["status"] == "pass"
    assert flags["G_H"]["status"] == "pass"
    assert flags["G_phi"]["status"] == "pass"
    fracs = flags["G_H"]["E_eps_gamma"]
    assert fracs[-1][1] > fracs[0][1]   # fraction grows as eps shrinks


def test_pressure_report_markov(golden_system):
    est = E.escape_rate_words(golden_system, 2)
    rep = _nu_hat_rep(golden_system)
    rp = P.pressure_report(golden_system, rep, est)
    assert rp.pressure == pytest.approx(LOG_PHI - math.log(2), abs=1e-12)
    assert rp.gap < 1e-12


def test_variational_report_golden(golden_system):
    est = E.escape_rate_words(golden_system, 2)
    reports, verdict = P.variational_report(
        golden_system, [_nu_hat_rep(golden_system)], est,
        check_classes=False)
    assert verdict["inequality"] == "PASS"
    assert verdict["equality"]["status"] == "PASS"
    assert verdict["equality"]["gap"] < 1e-12


def test_variational_report_flags_fake_violation(golden_system):
    est = E.escape_rate_words(golden_system, 2)
    # fabricated full-entropy candidate: pressure 0 exceeds rho < 0
    fake = P.InvariantMeasureRep(kind="markov_chain", name="fake",
                                 transition=np.array([[0.5, 0.5],
                                                      [0.5, 0.5]]),
                                 entropy_exact=math.log(2),
                                 lyapunov_exact=math.log(2))
    reports, verdict = P.variational_report(golden_system, [fake], est,
                                            check_classes=False)
    assert verdict["inequality"] == "violated"
    assert verdict["violations"][0]["candidate"] == "fake"

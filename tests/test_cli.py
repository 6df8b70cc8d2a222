import json
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_no_children
from openrates import billiard as B
from openrates import systems as S
from openrates import tower as tower_mod
from openrates import ulam as U
from openrates.cli import (_CONFIG, _SECTIONS, _write_cell_masses,
                           config_hash, main)
from openrates.systems import system_from_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

GOLDEN = {
    "seed": 11,
    "system": {
        "map": {"name": "adic", "params": {"m": 2}},
        "hole": {"kind": "cylinder_union", "base": 2, "level": 2,
                 "words": [[1, 1]]},
    },
    "escape": {"methods": ["grid", "words"], "n_max": 40,
               "resolution": 16, "level": 2},
    "ulam": {"resolution": 16},
}


TOWER = {"branches": [
    {"id": "A", "R": 1, "J": 2.0, "mass": 0.5},
    {"id": "B", "R": 2, "J": 4.0, "mass": 0.25},
    {"id": "C", "R": 2, "J": 4.0, "mass": 0.25, "holed": True}],
    "C0": 1.0, "theta0": 0.5}


def _tower(**branch_a):
    """The golden tower with the keys of branch A replaced."""
    tower = json.loads(json.dumps(TOWER))
    tower["branches"][0].update(branch_a)
    return tower


# the cat map with the r = 0.1 ball hole
_CAT_BALL = {"map": {"name": "cat"},
             "hole": {"kind": "region_2d", "shape": "ball",
                      "center": [0.25, 0.75], "radius": 0.1}}


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_verify_end_to_end(tmp_path, capsys):
    cfg = _write(tmp_path, GOLDEN)
    out = tmp_path / "run"
    assert main(["verify", "--config", str(cfg), "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    exact = math.log((1 + math.sqrt(5)) / 4)
    assert summary["escape"]["words"]["rho"] == pytest.approx(exact,
                                                              abs=1e-12)
    assert summary["escape"]["grid"]["rho"] == pytest.approx(exact, abs=1e-6)
    assert summary["ulam"]["spectral"]["eigenvalue"] == pytest.approx(
        math.exp(exact), abs=1e-12)
    assert summary["verdict"]["inequality"] == "PASS"
    assert summary["log_eigenvalue_vs_rho"] < 1e-9
    assert summary["config_hash"] == config_hash(GOLDEN)
    assert (out / "survival_grid.csv").exists()
    assert (out / "survival_words.csv").exists()
    assert (out / "qsd.csv").exists()
    assert (out / "survival_function.csv").exists()


def test_rerun_is_byte_identical(tmp_path):
    cfg = _write(tmp_path, GOLDEN)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["verify", "--config", str(cfg), "--out-dir", str(a)])
    main(["verify", "--config", str(cfg), "--out-dir", str(b)])
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    assert (a / "survival_grid.csv").read_bytes() == \
        (b / "survival_grid.csv").read_bytes()


def test_seed_precedence(tmp_path):
    cfg = _write(tmp_path, GOLDEN)
    unseeded = _write(tmp_path, {k: v for k, v in GOLDEN.items()
                                 if k != "seed"}, "unseeded.json")

    def run(path, extra, out):
        main(["escape", "--config", str(path), "--out-dir", str(out)] + extra)
        return json.loads((out / "summary.json").read_text())["seed"]

    assert run(cfg, [], tmp_path / "r1") == 11
    assert run(cfg, ["--seed", "42"], tmp_path / "r2") == 42
    assert run(unseeded, [], tmp_path / "r3") == 0


def test_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": 1,\n  "system": }')
    assert main(["escape", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_missing_config(tmp_path, capsys):
    assert main(["escape", "--config", str(tmp_path / "nope.json")]) == 1
    assert "not found" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys):
    cfg = json.loads(json.dumps(GOLDEN))
    cfg["system"]["map"]["bogus"] = 1
    path = _write(tmp_path, cfg)
    assert main(["escape", "--config", str(path),
                 "--out-dir", str(tmp_path / "r")]) == 1
    assert "unknown" in capsys.readouterr().err


@pytest.mark.parametrize("command, edit, message", [
    ("escape", lambda c: c["escape"].update(sample=10),     # for "samples"
     "error: unknown keys ['sample'] in escape config"),
    ("verify", lambda c: c.update(ulma={"resolution": 8}),
     "error: unknown keys ['ulma'] in config"),
    ("tower", lambda c: c.update(tower_options={"dpeth": 2}),
     "error: unknown keys ['dpeth'] in tower_options config"),
    ("balls", lambda c: c.update(balls={"center": [0.3]}),
     "error: unknown keys ['center'] in balls config"),
    ("billiard", lambda c: c.update(billiard={"holes": [
        {"kind": "disk", "center": [0.5, 0.5], "radius": 0.1,
         "scatterer": 0}]}),
     "error: unknown keys ['scatterer'] in billiard disk hole"),
    ("escape", lambda c: c.update(escape=40),
     "error: escape config must be a JSON object"),
    ("billiard", lambda c: c.update(billiard={"holes": [5]}),
     "error: billiard hole must be a JSON object"),
    ("escape", lambda c: c.update(system=5),
     "error: system config must be a JSON object"),
    # a hole sweep parses map and holes on its own
    ("escape", lambda c: c["system"].update(hole=[c["system"]["hole"]],
                                            holes=2),
     "error: unknown keys ['holes'] in system config"),
    # a value of the wrong JSON type names its section or key
    ("tower", lambda c: c.update(tower=5),
     "error: tower config must be a JSON object"),
    ("tower", lambda c: c.update(tower={"branches": 5}),
     "error: branches in tower config must be a JSON array, not number"),
    ("tower", lambda c: c.update(tower={"branches": [5]}),
     "error: branch 0 must be a JSON object"),
    ("escape", lambda c: c["system"].update(hole=5),
     "error: hole config must be a JSON object"),
    ("escape", lambda c: c["system"].update(map=5),
     "error: map config must be a JSON object"),
    ("escape", lambda c: c["system"]["map"].update(params=5),
     "error: map params for adic must be a JSON object"),
    ("billiard", lambda c: c.update(billiard={"holes": 5}),
     "error: holes in billiard config must be a JSON array, not number"),
    ("balls", lambda c: c.update(balls={"centers": 5}),
     "error: centers in balls config must be a JSON array, not number"),
    ("escape", lambda c: c["escape"].update(n_max=None),
     "error: n_max in escape config must be a JSON number, not null"),
    ("escape", lambda c: c["escape"].update(methods="grid"),
     "error: methods in escape config must be a JSON array, not string"),
    ("escape", lambda c: c.update(seed=[1]),
     "error: seed in config must be a JSON number, not array"),
    ("escape", lambda c: c["escape"].update(methods=[]),
     "error: escape methods is empty"),
    # a name or kind that is not a string cannot be looked up
    ("escape", lambda c: c["system"]["map"].update(name=["a"]),
     "error: name in map config must be one of ['adic', 'baker', 'cat', "
     "'doubling', 'logistic', 'triadic']"),
    ("escape", lambda c: c["system"]["hole"].update(kind=["a"]),
     "error: kind in hole config must be one of ['cylinder_union', "
     "'empty', 'interval_union', 'region_2d']"),
    ("billiard", lambda c: c.update(billiard={"holes": [{"kind": ["a"]}]}),
     "error: kind in billiard hole must be one of ['arc', 'disk']"),
    # the tower reader checks each value
    ("tower", lambda c: c.update(tower={**TOWER, "transition": [[1]]}),
     "error: tower transition must be a 2x2 array of numbers, one row and "
     "one column per unholed branch"),
    ("tower", lambda c: c.update(tower={**TOWER, "transition": [[1, 1], 5]}),
     "error: tower transition must be a 2x2 array"),
    ("tower", lambda c: c.update(tower={**TOWER,
                                        "transition": [[1, -1], [1, 1]]}),
     "error: tower transition entries must be 0 or 1"),
    # a zero forbids a step; any other entry would weigh it
    ("tower", lambda c: c.update(tower={**TOWER, "transition": [[0.5, 0.5],
                                                                [0.5, 0.5]]}),
     "error: tower transition entries must be 0 or 1"),
    ("tower", lambda c: c.update(tower=_tower(id="B")),
     "error: tower branch ids must be unique, got ['B', 'B', 'C']"),
    # 2 / 1.9 > 1 at r = 1: no eigenvalue in (0, 1]
    ("tower", lambda c: c.update(tower={"branches": [
        {"id": "A", "R": 1, "J": 1.9, "mass": 0.5},
        {"id": "B", "R": 1, "J": 1.9, "mass": 0.5}],
        "transition": [[1, 1], [1, 1]]}),
     "error: the weights at r = 1 have Perron root 1.05"),
    ("tower", lambda c: c.update(tower={**TOWER,
                                        "transition": [[1, 1], [1, "1"]]}),
     "error: tower transition must be a 2x2 array"),
    ("tower", lambda c: c.update(tower=_tower(R=[1])),
     "error: R in branch 0 must be a JSON number, not array"),
    ("tower", lambda c: c.update(tower=_tower(R=1.5)),
     "error: R in branch 0 must be an integer"),
    ("tower", lambda c: c.update(tower=_tower(R=0)),
     "error: R in branch 0 must be positive"),
    ("tower", lambda c: c.update(tower=_tower(J=[2.0])),
     "error: J in branch 0 must be a JSON number, not array"),
    ("tower", lambda c: c.update(tower=_tower(mass="0.5")),
     "error: mass in branch 0 must be a JSON number, not string"),
    ("tower", lambda c: c.update(tower=_tower(holed="no")),
     "error: holed in branch 0 must be a JSON boolean, not string"),
    ("tower", lambda c: c.update(tower={**TOWER, "theta0": [0.5]}),
     "error: theta0 in tower config must be a JSON number, not array"),
    # C1 and alpha were read and never used: locally constant J only
    ("tower", lambda c: c.update(tower={**TOWER, "C1": 123.0}),
     "error: unknown keys ['C1'] in tower config"),
    ("tower", lambda c: c.update(tower={**TOWER, "alpha": -7}),
     "error: unknown keys ['alpha'] in tower config"),
    # and so do the hole readers
    ("escape", lambda c: c["system"]["hole"].update(words=5),
     "error: words in hole config for cylinder_union must be an array of "
     "integer arrays"),
    ("escape", lambda c: c["system"]["hole"].update(words=[[1, 0.5]]),
     "error: words in hole config for cylinder_union must be an array of "
     "integer arrays"),
    ("escape", lambda c: c["system"]["hole"].update(level="2"),
     "error: level in hole config for cylinder_union must be a JSON number, "
     "not string"),
    ("escape", lambda c: c["system"].update(hole={
        "kind": "interval_union", "intervals": 5}),
     "error: intervals in hole config for interval_union must be an array "
     "of [a, b] number pairs"),
    ("escape", lambda c: c["system"].update(hole={
        "kind": "interval_union", "intervals": [[0.1, 0.2, 0.3]]}),
     "error: intervals in hole config for interval_union must be an array "
     "of [a, b] number pairs"),
    ("escape", lambda c: c["system"].update(hole={
        "kind": "region_2d", "center": 5, "radius": 0.1}),
     "error: center in hole config for region_2d must be two numbers"),
    ("escape", lambda c: c["system"].update(hole={
        "kind": "empty", "dimension": [1]}),
     "error: dimension in hole config for empty must be one of [1, 2]"),
    ("escape", lambda c: c["system"]["map"].update(params={"m": [2]}),
     "error: m in map params for adic must be a JSON number, not array"),
    ("billiard", lambda c: c.update(billiard={"holes": [
        {"kind": "disk", "center": 5, "radius": 0.1}]}),
     "error: center in billiard disk hole must be two numbers"),
    ("billiard", lambda c: c.update(billiard={"holes": [
        {"kind": "arc", "scatterer": 0.5, "arc_center": 1.0,
         "arc_halfwidth": 0.2}]}),
     "error: scatterer in billiard arc hole must be an integer"),
    ("billiard", lambda c: c.update(billiard={"holes": [
        {"kind": "disk", "center": [0.5, 0.0], "radius": "0.1"}]}),
     "error: radius in billiard disk hole must be a JSON number, not string"),
    ("billiard", lambda c: c.update(billiard={"scatterers": [5]}),
     "error: scatterers in billiard config must be an array of [[x, y], r]"),
    ("billiard", lambda c: c.update(billiard={"scatterers": [[0.0, 0.45]]}),
     "error: scatterers in billiard config must be an array of [[x, y], r]"),
    # and the balls section its arrays
    ("balls", lambda c: c.update(balls={"n_values": ["a"]}),
     "error: n_values in balls config must be an array of integers"),
    ("balls", lambda c: c.update(balls={"centers": [[0.3, 0.4]]}),
     "error: each centre in balls config must be a point of the map: one "
     "number in 1D, two in 2D"),
    # a count or a size must be an integer, not any number
    ("escape", lambda c: c["escape"].update(level=2.5),
     "error: level in escape config must be an integer"),
    ("escape", lambda c: c["escape"].update(n_max=40.5),
     "error: n_max in escape config must be an integer"),
    ("escape", lambda c: c["escape"].update(samples=1e5 + 0.5),
     "error: samples in escape config must be an integer"),
    ("ulam", lambda c: c["ulam"].update(resolution=16.5),
     "error: resolution in ulam config must be an integer"),
    ("billiard", lambda c: c.update(billiard={"validation_rays": 1e3 + 0.5}),
     "error: validation_rays in billiard config must be an integer"),
    ("billiard", lambda c: c.update(billiard={"samples": 2e3 + 0.5}),
     "error: samples in billiard config must be an integer"),
    ("billiard", lambda c: c.update(billiard={"n_max": 10.5}),
     "error: n_max in billiard config must be an integer"),
    ("tower", lambda c: c.update(tower=TOWER,
                                 tower_options={"n_max": 20.5}),
     "error: n_max in tower_options config must be an integer"),
    ("balls", lambda c: c.update(balls={"samples": 400.5}),
     "error: samples in balls config must be an integer"),
    ("escape", lambda c: c.update(seed=11.5),
     "error: seed in config must be an integer"),
    # only the depth-1 and depth-2 weights are read, so depth is not a key
    ("tower", lambda c: c.update(tower=TOWER, tower_options={"depth": 3}),
     "error: unknown keys ['depth'] in tower_options config"),
    # a grid size, a ball radius and a hole radius must be positive
    ("ulam", lambda c: c["ulam"].update(resolution=0),
     "error: resolution in ulam config must be positive"),
    ("ulam", lambda c: c["ulam"].update(resolution=-4),
     "error: resolution in ulam config must be positive"),
    ("balls", lambda c: c.update(balls={"eps": -0.1}),
     "error: eps in balls config must be positive"),
    ("ulam", lambda c: c["system"].update(map={"name": "cat"}, hole={
        "kind": "region_2d", "center": [0.5, 0.5], "radius": -0.1}),
     "error: radius in hole config for region_2d must be positive"),
    # escape.resolution is null or a positive integer
    ("escape", lambda c: c.update(escape={"methods": ["grid"],
                                          "resolution": 0}),
     "error: resolution in escape config must be positive"),
    ("escape", lambda c: c.update(system=_CAT_BALL, escape={
        "methods": ["grid"], "resolution": 2.5}),
     "error: resolution in escape config must be an integer"),
    ("escape", lambda c: c.update(system=_CAT_BALL, escape={
        "methods": ["grid"], "resolution": -4}),
     "error: resolution in escape config must be positive"),
    # a slope needs two distinct horizons, none of them negative
    ("balls", lambda c: c.update(balls={"n_values": []}),
     "error: n_values must hold at least two distinct non-negative "
     "integers, got []"),
    ("balls", lambda c: c.update(balls={"n_values": [-1, 3]}),
     "error: n_values must hold at least two distinct non-negative "
     "integers, got [-1, 3]"),
    ("balls", lambda c: c.update(balls={"n_values": [3]}),
     "error: n_values must hold at least two distinct non-negative "
     "integers, got [3]"),
    ("balls", lambda c: c.update(balls={"n_values": [5, 5, 5]}),
     "error: n_values must hold at least two distinct non-negative "
     "integers, got [5, 5, 5]"),
    # tau_max is the longest validation flight, so it needs one
    ("billiard", lambda c: c.update(billiard={"validation_rays": 0}),
     "error: validation_rays must be at least 1, got 0"),
    # a valid config whose ball envelope cannot hold 30 hits
    ("balls", lambda c: c.update(balls={"samples": 10}),
     "error: only 5 hits in the envelope; increase samples or eps"),
    # a Monte Carlo fit window needs two horizons: n_max 0 indexed past the
    # survival curve and n_max 1 divided by zero before its error
    ("escape", lambda c: c.update(escape={"methods": ["mc"], "n_max": 0,
                                          "samples": 2000}),
     "error: window contains fewer than two points"),
    ("escape", lambda c: c.update(escape={"methods": ["mc"], "n_max": 1,
                                          "samples": 2000}),
     "error: window contains fewer than two points"),
    ("billiard", lambda c: c.update(billiard={
        "validation_rays": 1000, "samples": 2000, "n_max": 0, "holes": [
            {"kind": "arc", "scatterer": 0, "arc_center": 1.0,
             "arc_halfwidth": 0.2}]}),
     "error: window contains fewer than two points"),
    # and a sample count must be positive
    ("escape", lambda c: c.update(escape={"methods": ["mc"],
                                          "samples": -5}),
     "error: samples in escape config must be positive"),
    ("balls", lambda c: c.update(balls={"samples": 0}),
     "error: samples in balls config must be positive"),
    ("billiard", lambda c: c.update(billiard={"samples": -1}),
     "error: samples in billiard config must be positive"),
    # a Gurevich sum up to n_max 0 or below holds no orbit to check
    ("tower", lambda c: c.update(tower=TOWER, tower_options={"n_max": 0}),
     "error: n_max in tower_options config must be positive"),
    ("tower", lambda c: c.update(tower=TOWER, tower_options={"n_max": -1}),
     "error: n_max in tower_options config must be positive"),
    # an interval hole lies in [0, 1] with a <= b
    ("escape", lambda c: c["system"].update(hole={
        "kind": "interval_union", "intervals": [[0.6, 0.4]]}),
     "error: hole interval [0.6, 0.4] must satisfy 0 <= a <= b <= 1"),
    ("escape", lambda c: c["system"].update(hole={
        "kind": "interval_union", "intervals": [[0.9, 1.1]]}),
     "error: hole interval [0.9, 1.1] must satisfy 0 <= a <= b <= 1"),
    ("escape", lambda c: c["system"].update(hole={
        "kind": "interval_union", "intervals": [[-0.1, 0.1]]}),
     "error: hole interval [-0.1, 0.1] must satisfy 0 <= a <= b <= 1"),
    # the adic map needs an integer m >= 2
    ("escape", lambda c: c["system"]["map"].update(params={"m": 0}),
     "error: adic map needs m >= 2, got 0"),
    ("escape", lambda c: c["system"]["map"].update(params={"m": -2}),
     "error: adic map needs m >= 2, got -2"),
    ("escape", lambda c: c["system"]["map"].update(params={"m": 2.5}),
     "error: m in map params for adic must be an integer"),
    # a missing required key is named with the object that lacks it
    ("escape", lambda c: c["system"]["map"].update(params={}),
     "error: missing key 'm' in map params for adic"),
    ("escape", lambda c: c["system"].update(hole={
        "kind": "cylinder_union", "level": 2, "words": [[1, 1]]}),
     "error: missing key 'base' in hole config for cylinder_union"),
    ("escape", lambda c: c["system"]["hole"].pop("kind"),
     "error: missing key 'kind' in hole config"),
    ("tower", lambda c: c.update(tower={"branches": [{"J": 2.0,
                                                      "mass": 0.5}]}),
     "error: missing key 'R' in branch 0"),
    ("billiard", lambda c: c.update(billiard={"holes": [
        {"kind": "arc", "scatterer": 0, "arc_center": 1.0}]}),
     "error: missing key 'arc_halfwidth' in billiard arc hole"),
    ("escape", lambda c: c["system"].pop("map"),
     "error: missing key 'map' in system config"),
    ("escape", lambda c: c.pop("system"),
     "error: missing key 'system' in config"),
    ("tower", lambda c: None,
     "error: missing key 'tower' in config"),
    # a disk hole of radius 0 or below holds no trajectory
    ("billiard", lambda c: c.update(billiard={
        "validation_rays": 1000, "holes": [
            {"kind": "disk", "center": [0.5, 0.0], "radius": -0.1}]}),
     "error: disk hole radius must be positive"),
    # a hole sweep needs a hole, as the escape section needs a method
    ("escape", lambda c: c["system"].update(hole=[]),
     "error: escape hole sweep is empty"),
])
def test_unknown_section_key_exits_1(tmp_path, capsys, command, edit,
                                     message):
    cfg = json.loads(json.dumps(GOLDEN))
    edit(cfg)
    path = _write(tmp_path, cfg)
    out = tmp_path / "r"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(path), "--out-dir",
                     str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not (out / "summary.json").exists()
    # the error line is all a bad config prints
    assert not caught, [str(w.message) for w in caught]


def test_estimator_error_exits_1(tmp_path, capsys):
    # a hole covering 90% of the circle leaves no survivors at n = 10
    cfg = {"seed": 1,
           "system": {"map": {"name": "doubling"},
                      "hole": {"kind": "interval_union",
                               "intervals": [[0.05, 0.95]]}},
           "escape": {"methods": ["mc"], "samples": 2000}}
    path = _write(tmp_path, cfg)
    assert main(["escape", "--config", str(path),
                 "--out-dir", str(tmp_path / "r")]) == 1
    assert "error: only 0 survivors" in capsys.readouterr().err


def test_hole_sweep_monotone(tmp_path):
    cfg = json.loads(json.dumps(GOLDEN))
    cfg["system"]["hole"] = [
        {"kind": "cylinder_union", "base": 2, "level": 2, "words": [[1, 1]]},
        {"kind": "cylinder_union", "base": 2, "level": 2,
         "words": [[1, 1], [1, 0]]},
    ]
    cfg["escape"]["methods"] = ["grid"]
    path = _write(tmp_path, cfg)
    out = tmp_path / "sweep"
    assert main(["escape", "--config", str(path), "--out-dir",
                 str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["monotone"] is True
    rhos = [row["rho"] for row in summary["sweep"]]
    assert rhos[0] > rhos[1]
    assert (out / "hole_0" / "survival_grid.csv").exists()


def test_hole_sweep_reports_words_estimate(tmp_path):
    # each sweep row takes the best estimate: words before grid
    cfg = json.loads(json.dumps(GOLDEN))
    cfg["system"]["hole"] = [cfg["system"]["hole"]]
    path = _write(tmp_path, cfg)
    out = tmp_path / "sweep"
    assert main(["escape", "--config", str(path), "--out-dir",
                 str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["sweep"][0]["rho"] == pytest.approx(
        math.log((1 + math.sqrt(5)) / 4), abs=1e-14)


def test_tower_subcommand(tmp_path):
    cfg = {"tower": {"branches": [
        {"id": "A", "R": 1, "J": 2.0, "mass": 0.5},
        {"id": "B", "R": 2, "J": 4.0, "mass": 0.25},
        {"id": "C", "R": 2, "J": 4.0, "mass": 0.25, "holed": True}],
        "C0": 1.0, "theta0": 0.5}}
    path = _write(tmp_path, cfg)
    out = tmp_path / "tower"
    assert main(["tower", "--config", str(path), "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tower"]["eigenvalue"] == pytest.approx(
        (1 + math.sqrt(5)) / 4, abs=1e-12)
    assert summary["tower"]["gurevich_max_abs"] < 1e-9
    assert summary["tower"]["abramov"]["gap"] < 1e-12


def test_tower_reports_inequality(tmp_path, monkeypatch):
    # P(nu) <= log r at the uniform Bernoulli measure on branches A and B:
    # (log 2 - 1.5 log 2) / 1.5 = -0.23105 against log r = -0.21194
    golden = {"tower": {"branches": [
        {"id": "A", "R": 1, "J": 2.0, "mass": 0.5},
        {"id": "B", "R": 2, "J": 4.0, "mass": 0.25},
        {"id": "C", "R": 2, "J": 4.0, "mass": 0.25, "holed": True}]}}
    out = tmp_path / "tower"
    assert main(["tower", "--config", str(_write(tmp_path, golden)),
                 "--out-dir", str(out)]) == 0
    ineq = json.loads((out / "summary.json").read_text())["tower"][
        "inequality"]
    assert ineq["status"] == "PASS"
    assert ineq["candidate_pressure"] == pytest.approx(-math.log(2) / 3,
                                                       abs=1e-14)
    assert ineq["log_r"] == pytest.approx(math.log((1 + math.sqrt(5)) / 4),
                                          abs=1e-14)
    # a Bernoulli measure is not supported on the words of a transition
    cyclic = json.loads(json.dumps(golden))
    cyclic["tower"]["transition"] = [[0, 1], [1, 0]]
    assert main(["tower", "--config", str(_write(tmp_path, cyclic, "c.json")),
                 "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tower"]["inequality"] is None
    # Z_n through branch A vanishes at odd n; the estimates skip those n
    assert summary["tower"]["gurevich_max_abs"] < 1e-9
    # a candidate above log r is a violated verdict
    induced_pressure = tower_mod.induced_pressure

    def raised(T, pi, P):
        rec = induced_pressure(T, pi, P)
        if pi[0] == pi[1]:   # the uniform candidate, not the Gibbs chain
            rec["pressure"] = 0.0
        return rec

    monkeypatch.setattr("openrates.tower.induced_pressure", raised)
    assert main(["tower", "--config", str(_write(tmp_path, golden)),
                 "--out-dir", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tower"]["inequality"]["status"] == "FAIL"


def test_non_finite_summary_exits_1(tmp_path, capsys, monkeypatch):
    # summary.json is strict JSON: no NaN or Infinity is written
    monkeypatch.setattr("openrates.tower.gurevich_pressure",
                        lambda T, r, n_max: [(1, math.nan)])
    out = tmp_path / "tower"
    assert main(["tower", "--config", str(_write(tmp_path, {"tower": TOWER})),
                 "--out-dir", str(out)]) == 1
    assert "error: Out of range float values are not JSON compliant" in \
        capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("transition, j_a, j_b, weights", [
    ([[1, 1], [0, 1]], 2.0, 3.0, {"A": 1.0, "B": 0.0}),
    ([[1, 1], [0, 1]], 3.0, 2.0, {"A": 0.0, "B": 1.0}),
    ([[0, 1], [0, 1]], 3.0, 2.0, {"A": 0.0, "B": 1.0}),
])
def test_tower_reducible_transition_weights(tmp_path, transition, j_a, j_b,
                                            weights):
    # A feeds B and each looping branch is a class of its own: the Gibbs
    # chain lives on the class of the larger weight
    cfg = {"tower": {"branches": [
        {"id": "A", "R": 1, "J": j_a, "mass": 0.25},
        {"id": "B", "R": 1, "J": j_b, "mass": 0.25}],
        "transition": transition}}
    out = tmp_path / "tower"
    assert main(["tower", "--config", str(_write(tmp_path, cfg)),
                 "--out-dir", str(out)]) == 0
    tw = json.loads((out / "summary.json").read_text())["tower"]
    assert tw["depth1_weights"] == weights
    assert tw["eigenvalue"] == pytest.approx(0.5, abs=1e-14)
    assert tw["abramov"]["gap"] < 1e-12
    # with no loop at A, no orbit sum through A is positive: no estimate
    assert (tw["gurevich_max_abs"] is None) == (transition[0][0] == 0)


def test_tower_tied_classes_names_gibbs_measure(tmp_path, capsys):
    # the root r = 1/2 exists, but both classes carry the Gibbs measure
    cfg = {"tower": {**TOWER, "transition": [[1, 1], [0, 1]]}}
    out = tmp_path / "tower"
    assert main(["tower", "--config", str(_write(tmp_path, cfg)),
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the tower's Gibbs measure at r = 0.5")
    assert "is not unique" in err and "Parry" not in err


def test_pressure_subcommand_verdict(tmp_path):
    cfg = json.loads(json.dumps(GOLDEN))
    cfg["escape"]["methods"] = ["words"]
    path = _write(tmp_path, cfg)
    out = tmp_path / "press"
    assert main(["pressure", "--config", str(path), "--out-dir",
                 str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pressure"]["gap"] < 1e-10
    assert summary["verdict"]["equality"]["status"] == "PASS"


def _tied_hole_config():
    """GOLDEN with the hole [01], words only: the fixed points 0 and 1 are
    two classes tied at root 1."""
    cfg = json.loads(json.dumps(GOLDEN))
    cfg["system"]["hole"]["words"] = [[0, 1]]
    cfg["escape"]["methods"] = ["words"]
    return cfg


def test_escape_words_on_tied_classes(tmp_path):
    path = _write(tmp_path, _tied_hole_config())
    out = tmp_path / "esc"
    assert main(["escape", "--config", str(path), "--out-dir",
                 str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["escape"]["words"]["rho"] == pytest.approx(
        -math.log(2), abs=1e-15)


def test_pressure_on_tied_classes_exits_1(tmp_path, capsys):
    # the rate exists, but the Parry chain nu_hat is not unique
    path = _write(tmp_path, _tied_hole_config())
    assert main(["pressure", "--config", str(path), "--out-dir",
                 str(tmp_path / "press")]) == 1
    assert "tie at spectral radius" in capsys.readouterr().err


def test_balls_subcommand(tmp_path):
    cfg = {
        "seed": 3,
        "system": {"map": {"name": "adic", "params": {"m": 2}},
                   "hole": {"kind": "empty", "dimension": 1}},
        "balls": {"eps": 0.1, "n_values": [4, 6, 8],
                  "centers": [0.3137], "samples": 10000},
    }
    path = _write(tmp_path, cfg)
    out = tmp_path / "balls"
    assert main(["balls", "--config", str(path), "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    slope = summary["balls"]["results"][0]["slope"]
    assert slope == pytest.approx(math.log(2), abs=1e-6)


def test_billiard_subcommand(tmp_path):
    cfg = {
        "seed": 5,
        "billiard": {
            "validation_rays": 20000, "samples": 40000, "n_max": 10,
            "holes": [{"kind": "arc", "scatterer": 0, "arc_center": 1.0,
                       "arc_halfwidth": 0.2}],
        },
    }
    path = _write(tmp_path, cfg)
    out = tmp_path / "bil"
    assert main(["billiard", "--config", str(path), "--out-dir",
                 str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["billiard"]["tau_max"] < 1.5
    assert summary["billiard"]["holes"][0]["rho"] < 0
    assert (out / "survival_billiard_0.csv").exists()


def test_billiard_infinite_horizon_exits_1(tmp_path, capsys, monkeypatch):
    # the validation flights run on two forked workers, whose
    # InfiniteHorizonError becomes the error line
    monkeypatch.setattr(B, "_CHUNK", 1000)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = {"seed": 5, "billiard": {
        "scatterers": [[[0.5, 0.5], 0.1]], "validation_rays": 20000,
        "holes": [{"kind": "arc", "scatterer": 0, "arc_center": 1.0,
                   "arc_halfwidth": 0.2}]}}
    out = tmp_path / "bil"
    assert main(["billiard", "--config", str(_write(tmp_path, cfg)),
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: free flight of length >= 1.5 found; the table does not "
        "have a verified finite horizon\n")
    assert not (out / "summary.json").exists()
    assert_no_children()


def test_compare_runs(tmp_path, capsys):
    cfg16 = _write(tmp_path, GOLDEN, "c16.json")
    cfg64 = json.loads(json.dumps(GOLDEN))
    cfg64["ulam"]["resolution"] = 64
    cfg64["escape"]["resolution"] = 64
    p64 = _write(tmp_path, cfg64, "c64.json")
    a, b = tmp_path / "a", tmp_path / "b"
    main(["verify", "--config", str(cfg16), "--out-dir", str(a)])
    main(["verify", "--config", str(p64), "--out-dir", str(b)])
    assert main(["compare", str(a), str(b)]) == 0
    outp = capsys.readouterr().out.strip().split("\n")
    assert outp[0].startswith("path,")
    worst = float(outp[-1].split(",")[1])
    assert worst < 1e-6


def test_escape_grid_takes_integral_float_resolution(tmp_path):
    # the config reader accepts 16.0 as an integer; the grid route runs at
    # 16 cells, as for 16
    runs = []
    for res in (16, 16.0):
        cfg = json.loads(json.dumps(GOLDEN))
        cfg["escape"].update(methods=["grid"], resolution=res)
        out = tmp_path / f"grid{res}"
        assert main(["escape", "--config",
                     str(_write(tmp_path, cfg, f"g{res}.json")),
                     "--out-dir", str(out)]) == 0
        runs.append(json.loads((out / "summary.json").read_text())["escape"])
    assert runs[0] == runs[1]


def test_balls_takes_integral_float_n_values(tmp_path):
    # the config reader turns 3.0 into 3: the run is the one for [3, 5]
    runs = []
    for n_values in ([3, 5], [3.0, 5.0]):
        cfg = {"seed": 3, "system": {"map": {"name": "doubling"},
                                     "hole": {"kind": "empty"}},
               "balls": {"n_values": n_values, "samples": 10000}}
        out = tmp_path / f"balls{n_values[0]}"
        assert main(["balls", "--config",
                     str(_write(tmp_path, cfg, f"b{n_values[0]}.json")),
                     "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        # the config is embedded as written, so it and its hash differ
        del summary["config"], summary["config_hash"]
        runs.append(summary)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "must hold a JSON object"),
    ('{"escape":\n  }', "malformed JSON in {path}: line 2, column 3"),
])
def test_compare_bad_bundle_names_its_path(tmp_path, capsys, text, message):
    out = tmp_path / "run"
    assert main(["verify", "--config", str(_write(tmp_path, GOLDEN)),
                 "--out-dir", str(out)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["compare", str(out), str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert message.format(path=bad) in err


@pytest.mark.parametrize("good, bad, message", [
    ({"escape": {"mc": {"rho": -0.5}}}, {"escape": 5},
     "escape in {path} must be a JSON object, not number"),
    ({"ulam": {"spectral": {"eigenvalue": 0.5}}}, {"ulam": {}},
     "missing key 'ulam.spectral' in {path}"),
    ({"escape": {"mc": {"rho": -0.5}}}, {"escape": {"mc": {"rho": "x"}}},
     "escape.mc.rho in {path} must be a JSON number, not string"),
], ids=["escape-not-object", "ulam-without-spectral", "rho-not-number"])
def test_compare_bad_bundle_layout_names_path_and_key(tmp_path, capsys, good,
                                                      bad, message):
    paths = [_write(tmp_path, good, "good.json"),
             _write(tmp_path, bad, "bad.json")]
    assert main(["compare", *map(str, paths)]) == 1
    assert capsys.readouterr().err == \
        "error: " + message.format(path=paths[1]) + "\n"


def test_compare_schema_mismatch(tmp_path, capsys):
    cfg = _write(tmp_path, GOLDEN)
    cfg2 = json.loads(json.dumps(GOLDEN))
    cfg2["escape"]["methods"] = ["grid"]
    p2 = _write(tmp_path, cfg2, "c2.json")
    a, b = tmp_path / "a", tmp_path / "b"
    main(["escape", "--config", str(cfg), "--out-dir", str(a)])
    main(["escape", "--config", str(p2), "--out-dir", str(b)])
    assert main(["compare", str(a), str(b)]) == 1
    assert "schema mismatch" in capsys.readouterr().err


def test_readme_example_config_verifies(tmp_path):
    example = re.search(r"```json\n(.*?)```", README, re.S).group(1)
    path = tmp_path / "readme.json"
    path.write_text(example)
    assert main(["verify", "--config", str(path), "--out-dir",
                 str(tmp_path / "r")]) == 0


# the field table of every config object, with its README label
_OBJECTS = {
    "config": ("top level", _CONFIG),
    **{name: (f"`{name}`", fields) for name, fields in _SECTIONS.items()},
    "system": ("`system`", S._SYSTEM),
    "map": ("`map`", S._MAP),
    **{f"map-{name}": (f"`params` of map `{name}`", fields)
       for name, (_, fields) in S._MAPS.items()},
    **{f"hole-{kind}": (f"`hole` of kind `{kind}`", fields)
       for kind, (_, fields) in S._HOLES.items()},
    **{f"billiard-{kind}": (f"billiard hole of kind `{kind}`", fields)
       for kind, (_, fields) in B._HOLE_KINDS.items()},
    "tower": ("`tower`", tower_mod._TOWER),
    "branch": ("each of `tower.branches`", tower_mod._BRANCH),
}


@pytest.mark.parametrize("section", _OBJECTS)
def test_readme_lists_section_defaults(section):
    label, fields = _OBJECTS[section]
    required = ", ".join(f"`{key}`" for key, (_, default) in fields.items()
                         if default is S._REQUIRED)
    defaults = {key: default for key, (_, default) in fields.items()
                if default is not S._REQUIRED}
    assert f"| {label} | {required or 'none'} | `{json.dumps(defaults)}` |" \
        in README


@pytest.mark.parametrize("rows", [1, 10, 11, 131073])
def test_cell_mass_csv_matches_savetxt(tmp_path, rows):
    # 131073 rows: two full 65536-row slices and one row more, with indices
    # of one to six digits
    special = [0.0, 1.0, 0.1, 5e-324, 1e-300, 0.3333333333333333, 2.5e17,
               -0.0, -7.25, np.inf, np.nan]
    masses = np.concatenate([special, np.random.default_rng(3).random(
        max(rows - len(special), 0))])[:rows]
    _write_cell_masses(tmp_path / "plain.csv", "mass", masses)
    np.savetxt(tmp_path / "savetxt.csv",
               np.column_stack([np.arange(len(masses)), masses]),
               fmt="%.18e", delimiter=",", header="cell,mass", comments="")
    assert (tmp_path / "plain.csv").read_bytes() == \
        (tmp_path / "savetxt.csv").read_bytes()


def test_ulam_writes_each_vector_once(tmp_path):
    system = {"map": {"name": "cat"},
              "hole": {"kind": "region_2d", "shape": "ball",
                       "center": [0.25, 0.75], "radius": 0.1}}
    cfg = _write(tmp_path, {"seed": 1, "system": system,
                            "ulam": {"resolution": 64}})
    out = tmp_path / "run"
    assert main(["ulam", "--config", str(cfg), "--out-dir", str(out)]) == 0
    summary = (out / "summary.json").read_bytes()
    spectral = json.loads(summary)["ulam"]["spectral"]
    assert "right" not in spectral and "left" not in spectral
    assert len(summary) < 10_000
    spec = U.leading_eigenpair(U.build_ulam(system_from_config(system), 64))
    for name, column, vec in (("qsd", "mass", spec.right),
                              ("survival_function", "survival", spec.left)):
        path = out / f"{name}.csv"
        assert path.read_text().startswith(f"cell,{column}\n")
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 0], np.arange(64 * 64))
        assert table[:, 1].tobytes() == vec.tobytes()


CAT64 = {"seed": 1, "system": {"map": {"name": "cat"},
                               "hole": {"kind": "region_2d", "shape": "ball",
                                        "center": [0.25, 0.75],
                                        "radius": 0.1}},
         "ulam": {"resolution": 64}}


@pytest.mark.parametrize("command, cfg", [("ulam", CAT64),
                                          ("verify", GOLDEN)])
def test_ulam_outputs_independent_of_worker_count(tmp_path, monkeypatch,
                                                  command, cfg):
    # the quadrature blocks and the writer jobs run on 1 or 2 workers
    path = _write(tmp_path, cfg)
    trees = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        out = tmp_path / f"cpus{cpus}"
        assert main([command, "--config", str(path), "--out-dir",
                     str(out)]) == 0
        assert_no_children()
        trees.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert "qsd.csv" in trees[0]
    assert ("operator_coo.csv" in trees[0]) == (command == "ulam")
    assert trees[1] == trees[0]


def test_ulam_writer_error_exits_1(tmp_path, capsys, monkeypatch):
    # the worker writing qsd.csv fails on a directory of that name; its
    # OSError becomes the error line once both workers have exited
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    out = tmp_path / "run"
    (out / "qsd.csv").mkdir(parents=True)
    assert main(["ulam", "--config", str(_write(tmp_path, CAT64)),
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 21] Is a directory: ")
    assert err.endswith("qsd.csv'\n") and len(err.splitlines()) == 1
    assert not (out / "summary.json").exists()
    assert_no_children()

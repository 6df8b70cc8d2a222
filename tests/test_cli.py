import json
import math

import pytest

from openrates.cli import config_hash, main

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


def test_rerun_is_byte_identical(tmp_path):
    cfg = _write(tmp_path, GOLDEN)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["verify", "--config", str(cfg), "--out-dir", str(a)])
    main(["verify", "--config", str(cfg), "--out-dir", str(b)])
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    assert (a / "survival_grid.csv").read_bytes() == \
        (b / "survival_grid.csv").read_bytes()


def test_seed_precedence(tmp_path, monkeypatch):
    cfg = _write(tmp_path, GOLDEN)

    def run(extra, out):
        main(["escape", "--config", str(cfg), "--out-dir", str(out)] + extra)
        return json.loads((out / "summary.json").read_text())["seed"]

    assert run([], tmp_path / "r1") == 11
    assert run(["--seed", "42"], tmp_path / "r2") == 42
    monkeypatch.setenv("OR_SEED", "99")
    assert run(["--seed", "42"], tmp_path / "r3") == 99


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

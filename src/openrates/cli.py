"""Experiment runner: parse a JSON config, execute a pipeline, persist
results.

Every run writes ``summary.json`` embedding the fully resolved config and its
SHA-256 hash, so reruns can be compared and any output traced back to its
inputs.  Exit codes: 0 success, 1 error, 2 theorem-check verdict violated.
No timestamps or environment data go into outputs; rerunning a config
byte-identically reproduces them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys as _sys
from pathlib import Path

import numpy as np

from . import escape as escape_mod
from . import pressure as pressure_mod
from . import tower as tower_mod
from . import ulam as ulam_mod
from .billiard import InfiniteHorizonError
from .systems import _reject_unknown, parry_chain, system_from_config


class ConfigError(ValueError):
    pass


def _load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
        return json.loads(text)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed config {path}: line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}")


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(_canonical(cfg).encode()).hexdigest()


# keys each config section may hold; "tower" is checked where it is parsed
_SECTION_KEYS = {
    "system": {"map", "hole"},
    "escape": {"methods", "n_max", "resolution", "level", "samples"},
    "ulam": {"resolution"},
    "tower_options": {"depth", "n_max"},
    "balls": {"eps", "n_values", "samples", "centers"},
    "billiard": {"scatterers", "validation_rays", "holes", "samples",
                 "n_max"},
}
_BILLIARD_HOLE_KEYS = {
    "arc": {"kind", "scatterer", "arc_center", "arc_halfwidth"},
    "disk": {"kind", "center", "radius"},
}


def _check_keys(cfg: dict):
    """Reject misspelt keys, which would otherwise fall back silently to
    their defaults."""
    _reject_unknown(cfg, {"seed", "tower", *_SECTION_KEYS}, "config")
    for section, allowed in _SECTION_KEYS.items():
        body = cfg.get(section, {})
        if not isinstance(body, dict):
            raise ConfigError(f"{section} config must be a JSON object")
        _reject_unknown(body, allowed, f"{section} config")
    for hc in cfg.get("billiard", {}).get("holes", []):
        if not isinstance(hc, dict):
            raise ConfigError("each billiard hole must be a JSON object")
        if hc.get("kind") in _BILLIARD_HOLE_KEYS:
            _reject_unknown(hc, _BILLIARD_HOLE_KEYS[hc["kind"]],
                            f"billiard {hc['kind']} hole")


def _resolve_seed(cfg: dict, args) -> int:
    env = os.environ.get("OR_SEED")
    if env is not None:
        return int(env)
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    return int(cfg.get("seed", 0))


def _json_ready(x):
    if isinstance(x, dict):
        return {str(k): _json_ready(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_ready(v) for v in x]
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    return x


def _write_summary(out_dir: Path, cfg: dict, payload: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {"config": cfg, "config_hash": config_hash(cfg)}
    summary.update(_json_ready(payload))
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return summary


def _escape_estimates(sys_obj, cfg: dict, seed: int, out_dir: Path):
    ecfg = cfg.get("escape", {})
    out_dir.mkdir(parents=True, exist_ok=True)
    n_max = int(ecfg.get("n_max", 40))
    methods = ecfg.get("methods", ["grid"])
    results = {}
    for method in methods:
        if method == "grid":
            est = escape_mod.escape_rate_grid(
                sys_obj, n_max, resolution=ecfg.get("resolution"))
        elif method == "words":
            est = escape_mod.escape_rate_words(
                sys_obj, int(ecfg.get("level", 2)), n_max=n_max)
        elif method == "mc":
            est = escape_mod.escape_rate_mc(
                sys_obj, escape_mod.lebesgue_sampler(sys_obj.dimension),
                n_max, int(ecfg.get("samples", 100_000)), seed)
        else:
            raise ConfigError(f"unknown escape method {method!r}")
        est.write_csv(out_dir / f"survival_{method}.csv")
        results[method] = est
    return results


def _estimate_dict(est):
    return {"rho": est.rho, "stderr": est.stderr, "window": list(est.window),
            "rho_lower": est.rho_lower, "rho_upper": est.rho_upper,
            "method": est.method, "meta": est.meta}


# ---------------------------------------------------------------------------
# subcommands

def cmd_escape(cfg, args, out_dir, seed):
    hole_cfg = cfg["system"].get("hole")
    if isinstance(hole_cfg, list):
        # hole sweep: one estimate per hole, shared map
        from .escape import monotone_rho
        from .systems import OpenSystem, hole_from_config, map_from_config

        map_obj = map_from_config(cfg["system"]["map"])
        rows = []
        estimates = []
        for i, hc in enumerate(hole_cfg):
            sys_obj = OpenSystem(map=map_obj, hole=hole_from_config(hc))
            results = _escape_estimates(sys_obj, cfg, seed,
                                        out_dir / f"hole_{i}")
            est = results.get("grid") or next(iter(results.values()))
            estimates.append(est)
            rows.append({"hole": hc, "rho": est.rho, "stderr": est.stderr})
        return {"sweep": rows, "monotone": monotone_rho(estimates)}, 0
    sys_obj = system_from_config(cfg["system"])
    results = _escape_estimates(sys_obj, cfg, seed, out_dir)
    return {"escape": {m: _estimate_dict(e) for m, e in results.items()}}, 0


def cmd_ulam(cfg, args, out_dir, seed):
    sys_obj = system_from_config(cfg["system"])
    res = int(cfg.get("ulam", {}).get("resolution", 512))
    op = ulam_mod.build_ulam(sys_obj, res)
    spec = ulam_mod.leading_eigenpair(op)
    op.export_coo(out_dir / "operator_coo.csv")
    np.savetxt(out_dir / "qsd.csv",
               np.column_stack([np.arange(op.ncells), spec.right]),
               delimiter=",", header="cell,mass", comments="")
    nu_hat, info = ulam_mod.survivor_measure(op, spec)
    np.savetxt(out_dir / "survivor_measure.csv",
               np.column_stack([np.arange(op.ncells), nu_hat.masses]),
               delimiter=",", header="cell,mass", comments="")
    return {"ulam": {"spectral": spec.to_json_dict(),
                     "survivor_routes": info,
                     "resolution": res}}, 0


def cmd_tower(cfg, args, out_dir, seed):
    T = tower_mod.tower_from_config(cfg["tower"])
    r = tower_mod.tower_eigenvalue(T)
    nu0 = tower_mod.gibbs_measure(T, r, depth=int(
        cfg.get("tower_options", {}).get("depth", 3)))
    seq = tower_mod.gurevich_pressure(T, r, n_max=int(
        cfg.get("tower_options", {}).get("n_max", 20)))
    abram = tower_mod.abramov_check(T, nu0, r)
    hyp = tower_mod.validate_hypotheses(T, r)
    payload = {"tower": {
        "eigenvalue": r, "log_eigenvalue": math.log(r),
        "gurevich_max_abs": max(abs(p) for _, p in seq),
        "abramov": abram, "hypotheses": hyp,
        "depth1_weights": {bid: nu0.cylinder_weights.get((bid,), 0.0)
                           for bid in nu0.branch_ids}}}
    return payload, 0


def _best_estimate(results):
    return results.get("words") or results.get("grid") \
        or next(iter(results.values()))


def _nu_hat_verdict(sys_obj, cfg, best):
    """Pressure of the Parry chain (nu_hat) and the variational verdict
    against ``best``; exit code 2 when either check fails."""
    level = int(cfg.get("escape", {}).get("level", 2))
    states, P, pi = parry_chain(sys_obj, level)
    rep = pressure_mod.InvariantMeasureRep(
        kind="markov_chain", name="nu_hat", transition=P, stationary=pi,
        lyapunov_exact=math.log(sys_obj.map.meta["branch_count"]),
        is_nu_hat=True)
    reports, verdict = pressure_mod.variational_report(
        sys_obj, [rep], best, check_classes=False)
    rp = reports[0]
    code = 0 if verdict["inequality"] == "PASS" and (
        verdict["equality"] is None
        or verdict["equality"]["status"] == "PASS") else 2
    return {"pressure": {"entropy": rp.entropy,
                         "lyapunov_sum": rp.lyapunov_sum,
                         "value": rp.pressure, "gap": rp.gap},
            "verdict": verdict}, code


def cmd_pressure(cfg, args, out_dir, seed):
    sys_obj = system_from_config(cfg["system"])
    results = _escape_estimates(sys_obj, cfg, seed, out_dir)
    payload, code = _nu_hat_verdict(sys_obj, cfg, _best_estimate(results))
    payload["escape"] = {m: _estimate_dict(e) for m, e in results.items()}
    return payload, code


def cmd_balls(cfg, args, out_dir, seed):
    from . import dynballs as db

    sys_obj = system_from_config(cfg["system"])
    bcfg = cfg.get("balls", {})
    eps = float(bcfg.get("eps", 0.1))
    n_values = bcfg.get("n_values", [4, 6, 8])
    rng = np.random.default_rng(seed)
    rows = []
    for center in bcfg.get("centers", [0.3137]):
        c = np.asarray(center, dtype=float) if sys_obj.dimension == 2 \
            else float(center)
        slope, masses = db.ball_slope(sys_obj, c, eps, n_values,
                                      samples=int(bcfg.get("samples", 40000)),
                                      rng=rng)
        rows.append({"center": center, "slope": slope, "masses": masses})
    return {"balls": {"eps": eps, "results": rows}}, 0


def cmd_billiard(cfg, args, out_dir, seed):
    from . import billiard as bl

    bcfg = cfg.get("billiard", {})
    scatterers = bcfg.get("scatterers")
    table = bl.build_table(
        scatterers=(tuple((tuple(c), r) for c, r in scatterers)
                    if scatterers else bl.DEFAULT_SCATTERERS),
        validation_rays=int(bcfg.get("validation_rays", 1_000_000)))
    holes = []
    for hc in bcfg.get("holes", []):
        if hc["kind"] == "arc":
            holes.append(bl.BilliardHole(
                "arc", scatterer=int(hc["scatterer"]),
                arc_center=float(hc["arc_center"]),
                arc_halfwidth=float(hc["arc_halfwidth"])))
        elif hc["kind"] == "disk":
            holes.append(bl.BilliardHole(
                "disk", center=tuple(hc["center"]),
                radius=float(hc["radius"])))
        else:
            raise ConfigError(f"unknown billiard hole kind {hc['kind']!r}")
    ests = bl.billiard_escape_multi(
        table, holes, int(bcfg.get("samples", 1_000_000)),
        int(bcfg.get("n_max", 40)), seed)
    for i, est in enumerate(ests):
        est.write_csv(out_dir / f"survival_billiard_{i}.csv")
    return {"billiard": {"tau_max": table.tau_max,
                         "holes": [_estimate_dict(e) for e in ests]}}, 0


def cmd_verify(cfg, args, out_dir, seed):
    """Full pipeline: escape + spectral + pressure + verdict."""
    sys_obj = system_from_config(cfg["system"])
    results = _escape_estimates(sys_obj, cfg, seed, out_dir)
    res = int(cfg.get("ulam", {}).get("resolution", 512))
    op = ulam_mod.build_ulam(sys_obj, res)
    spec = ulam_mod.leading_eigenpair(op)
    nu_hat, route_info = ulam_mod.survivor_measure(op, spec)

    payload = {"escape": {m: _estimate_dict(e) for m, e in results.items()},
               "ulam": {"spectral": spec.to_json_dict(),
                        "survivor_routes": route_info, "resolution": res}}
    code = 0
    best = _best_estimate(results)
    if sys_obj.map.meta.get("markov") and sys_obj.dimension == 1:
        verdict_payload, code = _nu_hat_verdict(sys_obj, cfg, best)
        payload.update(verdict_payload)
    # cross-route consistency
    rhos = [e.rho for e in results.values()]
    payload["rho_spread"] = max(rhos) - min(rhos) if len(rhos) > 1 else 0.0
    payload["log_eigenvalue_vs_rho"] = abs(
        math.log(spec.eigenvalue) - best.rho)
    return payload, code


def cmd_compare(args):
    paths = args.runs
    if len(paths) < 2:
        raise ConfigError("compare needs at least two result bundles")
    rows = []
    for p in paths:
        with open(Path(p) / "summary.json" if Path(p).is_dir() else p) as fh:
            s = json.load(fh)
        row = {"path": str(p)}
        esc = s.get("escape", {})
        for m, e in esc.items():
            row[f"rho_{m}"] = e["rho"]
        if "ulam" in s:
            row["eigenvalue"] = s["ulam"]["spectral"]["eigenvalue"]
        if "pressure" in s:
            row["pressure"] = s["pressure"]["value"]
        rows.append(row)
    keys = sorted(set().union(*[set(r) for r in rows]) - {"path"})
    missing = [k for k in keys if any(k not in r for r in rows)]
    if missing:
        raise ConfigError(
            f"schema mismatch across runs; columns {missing} absent in some "
            "bundles")
    header = ["path"] + keys
    print(",".join(header))
    for r in rows:
        print(",".join(str(r[k]) for k in header))
    discrepancies = {k: max(r[k] for r in rows) - min(r[k] for r in rows)
                     for k in keys}
    worst = max(discrepancies.values()) if discrepancies else 0.0
    print(f"max_discrepancy,{worst}")
    return 0


_COMMANDS = {
    "escape": cmd_escape,
    "ulam": cmd_ulam,
    "tower": cmd_tower,
    "pressure": cmd_pressure,
    "balls": cmd_balls,
    "billiard": cmd_billiard,
    "verify": cmd_verify,
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="or-verify",
        description="escape rates, spectra and pressure for open dynamical "
                    "systems")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out-dir", default="results")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed (OR_SEED wins over "
                            "both)")
    pc = sub.add_parser("compare")
    pc.add_argument("runs", nargs="+",
                    help="summary.json files or run directories")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "compare":
            return cmd_compare(args)
        cfg = _load_config(args.config)
        if not isinstance(cfg, dict):
            raise ConfigError("top-level config must be a JSON object")
        _check_keys(cfg)
        seed = _resolve_seed(cfg, args)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload, code = _COMMANDS[args.command](cfg, args, out_dir, seed)
        payload["seed"] = seed
        payload["exit_code"] = code
        _write_summary(out_dir, cfg, payload)
        return code
    except (ConfigError, ValueError, KeyError, OSError,
            escape_mod.InsufficientSurvivorsError,
            escape_mod.DegenerateFitError, ulam_mod.ConvergenceError,
            tower_mod.NoRootError, tower_mod.DivergenceError,
            InfiniteHorizonError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

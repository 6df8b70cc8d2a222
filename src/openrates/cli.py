"""Experiment runner: parse a JSON config, execute a pipeline, persist
results.

Every run writes ``summary.json`` embedding the config as written and its
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
import sys as _sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import billiard as billiard_mod
from . import dynballs as dynballs_mod
from . import escape as escape_mod
from . import pressure as pressure_mod
from . import tower as tower_mod
from . import ulam as ulam_mod
from .systems import (_is_number, _is_numbers, _reject_unknown, parry_chain,
                      system_from_config)


class ConfigError(ValueError):
    pass


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed config {path}: line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}")


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# default null of a key whose value, when set, has JSON type ``kind``
_NullOr = namedtuple("_NullOr", "kind")

# every key each config section may hold, with the value it takes when absent
_DEFAULTS = {
    "escape": {"methods": ["grid"], "n_max": 40,
               "resolution": _NullOr("number"), "level": 2,
               "samples": 100_000},
    "ulam": {"resolution": 512},
    "tower_options": {"n_max": 20},
    "balls": {"eps": 0.1, "n_values": [4, 6, 8], "samples": 40_000,
              "centers": [0.3137]},
    "billiard": {"scatterers": _NullOr("array"),
                 "validation_rays": 1_000_000, "holes": [],
                 "samples": 1_000_000, "n_max": 40},
}
# JSON type of each Python type that json.loads returns
_KINDS = {type(None): "null", bool: "boolean", int: "number", float: "number",
          str: "string", list: "array", dict: "object"}


def _check_kind(value, kinds, name: str):
    if _KINDS[type(value)] not in kinds:
        raise ConfigError(f"{name} must be a JSON {' or '.join(kinds)}, "
                          f"not {_KINDS[type(value)]}")


def _check_integer(value, name: str):
    if not _is_number(value, integer=True):
        raise ConfigError(f"{name} must be an integer")


def _section(body, defaults: dict, where: str) -> dict:
    """``body`` checked against ``defaults`` and filled in from them: each
    value has the JSON type of its default, or is null if that is a
    ``_NullOr``, and is an integer where the default is one."""
    _reject_unknown(body, defaults, where)
    out = {}
    for key, default in defaults.items():
        null_or = isinstance(default, _NullOr)
        out[key] = body.get(key, None if null_or else default)
        _check_kind(out[key], ("null", default.kind) if null_or
                    else (_KINDS[type(default)],), f"{key} in {where}")
        if type(default) is int:
            _check_integer(out[key], f"{key} in {where}")
    return out


def _resolve(cfg) -> dict:
    """The config with its seed and every ``_DEFAULTS`` section checked and
    filled in."""
    _reject_unknown(cfg, {"seed", "system", "tower", *_DEFAULTS}, "config")
    resolved = {"seed": 0, **cfg}
    _check_kind(resolved["seed"], ("number",), "seed")
    _check_integer(resolved["seed"], "seed")
    resolved.update({name: _section(cfg.get(name, {}), defaults,
                                    f"{name} config")
                     for name, defaults in _DEFAULTS.items()})
    for name, key in (("ulam", "resolution"), ("balls", "eps")):
        if not resolved[name][key] > 0:
            raise ConfigError(f"{key} in {name} config must be positive")
    return resolved


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
    # a NaN or infinity is no JSON number: ValueError before the file opens
    text = json.dumps(summary, sort_keys=True, indent=2, allow_nan=False)
    with open(out_dir / "summary.json", "w") as fh:
        fh.write(text + "\n")
    return summary


def _escape_estimates(sys_obj, ecfg: dict, seed: int, out_dir: Path):
    if not ecfg["methods"]:
        raise ConfigError("escape methods is empty")
    out_dir.mkdir(parents=True, exist_ok=True)
    n_max = int(ecfg["n_max"])
    results = {}
    for method in ecfg["methods"]:
        if method == "grid":
            est = escape_mod.escape_rate_grid(
                sys_obj, n_max, resolution=ecfg["resolution"])
        elif method == "words":
            est = escape_mod.escape_rate_words(
                sys_obj, int(ecfg["level"]), n_max=n_max)
        elif method == "mc":
            est = escape_mod.escape_rate_mc(
                sys_obj, escape_mod.lebesgue_sampler(sys_obj.dimension),
                n_max, int(ecfg["samples"]), seed)
        else:
            raise ConfigError(f"unknown escape method {method!r}")
        est.write_csv(out_dir / f"survival_{method}.csv")
        results[method] = est
    return results


def _estimate_dict(est):
    return {"rho": est.rho, "stderr": est.stderr, "window": list(est.window),
            "rho_lower": est.rho_lower, "rho_upper": est.rho_upper,
            "method": est.method, "meta": est.meta}


def _best_estimate(results):
    return results.get("words") or results.get("grid") \
        or next(iter(results.values()))


def _ulam_run(sys_obj, res: int, out_dir: Path):
    """Ulam operator, its leading eigenpair and survivor measure, plus the
    ``"ulam"`` summary payload; writes the eigenvectors to ``qsd.csv``
    (right) and ``survival_function.csv`` (left)."""
    op = ulam_mod.build_ulam(sys_obj, res)
    spec = ulam_mod.leading_eigenpair(op)
    nu_hat, info = ulam_mod.survivor_measure(op, spec)
    _write_cell_masses(out_dir / "qsd.csv", "mass", spec.right)
    _write_cell_masses(out_dir / "survival_function.csv", "survival",
                       spec.left)
    return op, spec, nu_hat, {"spectral": spec.to_json_dict(),
                              "survivor_routes": info, "resolution": res}


def _nu_hat_verdict(sys_obj, level: int, best):
    """Pressure of the Parry chain (nu_hat) and the variational verdict
    against ``best``; exit code 2 when either check fails."""
    states, P, pi = parry_chain(sys_obj, level)
    rep = pressure_mod.InvariantMeasureRep(
        kind="markov_chain", name="nu_hat", transition=P, stationary=pi,
        lyapunov_exact=math.log(sys_obj.map.branch_count),
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


# ---------------------------------------------------------------------------
# subcommands: each takes the resolved config

def cmd_escape(cfg, out_dir, seed):
    system = cfg["system"]
    if isinstance(system, dict) and isinstance(system.get("hole"), list):
        # hole sweep: one estimate per hole, same map
        ests = [_best_estimate(_escape_estimates(
            system_from_config({**system, "hole": hc}), cfg["escape"], seed,
            out_dir / f"hole_{i}")) for i, hc in enumerate(system["hole"])]
        return {"sweep": [{"hole": hc, "rho": e.rho, "stderr": e.stderr}
                          for hc, e in zip(system["hole"], ests)],
                "monotone": escape_mod.monotone_rho(ests)}, 0
    sys_obj = system_from_config(system)
    results = _escape_estimates(sys_obj, cfg["escape"], seed, out_dir)
    return {"escape": {m: _estimate_dict(e) for m, e in results.items()}}, 0


def cmd_ulam(cfg, out_dir, seed):
    sys_obj = system_from_config(cfg["system"])
    op, _, nu_hat, ulam = _ulam_run(sys_obj, int(cfg["ulam"]["resolution"]),
                                    out_dir)
    op.export_coo(out_dir / "operator_coo.csv")
    _write_cell_masses(out_dir / "survivor_measure.csv", "mass",
                       nu_hat.masses)
    return {"ulam": ulam}, 0


def _write_cell_masses(path, column, values):
    """``cell,<column>`` CSV in the bytes np.savetxt writes for the float
    column pair (cell index, value); each slice of 65536 rows is formatted
    by one ``%`` call."""
    with open(path, "w") as fh:
        fh.write(f"cell,{column}\n")
        for k in range(0, len(values), 65536):
            part = values[k:k + 65536]
            rows = np.column_stack([np.arange(k, k + len(part), dtype=float),
                                    part])
            fh.write("%.18e,%.18e\n" * len(part)
                     % tuple(rows.ravel().tolist()))


def cmd_tower(cfg, out_dir, seed):
    T = tower_mod.tower_from_config(cfg["tower"])
    opts = cfg["tower_options"]
    r = tower_mod.tower_eigenvalue(T)
    pi, _ = tower_mod.gibbs_chain(T, r)
    seq = tower_mod.gurevich_pressure(T, r, n_max=int(opts["n_max"]))
    abram = tower_mod.abramov_check(T, r)
    hyp = tower_mod.validate_hypotheses(T, r)
    # P(nu) <= log r at the uniform Bernoulli measure on the unholed
    # branches; a transition matrix may forbid some of its words
    inequality = None
    if T.transition is None:
        k = len(T.unholed)
        u = np.full((k, k), 1.0 / k)
        cand = tower_mod.induced_pressure(T, u[0], u)["pressure"]
        inequality = {"candidate_pressure": cand, "log_r": math.log(r),
                      "status": "PASS" if cand <= math.log(r) + 1e-12
                      else "FAIL"}
    payload = {"tower": {
        "eigenvalue": r, "log_eigenvalue": math.log(r),
        # null when fewer than two orbit sums through branch 0 are positive
        "gurevich_max_abs": max((abs(p) for _, p in seq), default=None),
        "abramov": abram, "hypotheses": hyp, "inequality": inequality,
        "depth1_weights": {b.id: p for b, p in zip(T.unholed, pi)}}}
    return payload, 2 if inequality and inequality["status"] == "FAIL" else 0


def cmd_pressure(cfg, out_dir, seed):
    sys_obj = system_from_config(cfg["system"])
    results = _escape_estimates(sys_obj, cfg["escape"], seed, out_dir)
    payload, code = _nu_hat_verdict(sys_obj, int(cfg["escape"]["level"]),
                                    _best_estimate(results))
    payload["escape"] = {m: _estimate_dict(e) for m, e in results.items()}
    return payload, code


def cmd_balls(cfg, out_dir, seed):
    sys_obj = system_from_config(cfg["system"])
    bcfg = cfg["balls"]
    eps = float(bcfg["eps"])
    rng = np.random.default_rng(seed)
    rows = []
    if not _is_numbers(bcfg["n_values"], integer=True):
        raise ConfigError("n_values in balls config must be an array of "
                          "integers")
    for center in bcfg["centers"]:
        if not (_is_numbers(center, 2) if sys_obj.dimension == 2
                else _is_number(center)):
            raise ConfigError("each centre in balls config must be a point "
                              "of the map: one number in 1D, two in 2D")
        c = np.asarray(center, dtype=float) if sys_obj.dimension == 2 \
            else float(center)
        slope, masses = dynballs_mod.ball_slope(
            sys_obj, c, eps, bcfg["n_values"], samples=int(bcfg["samples"]),
            rng=rng)
        rows.append({"center": center, "slope": slope, "masses": masses})
    return {"balls": {"eps": eps, "results": rows}}, 0


def cmd_billiard(cfg, out_dir, seed):
    bcfg = cfg["billiard"]
    holes = [billiard_mod.hole_from_config(hc) for hc in bcfg["holes"]]
    scatterers = bcfg["scatterers"]
    for s in scatterers or ():
        if not (isinstance(s, list) and len(s) == 2 and _is_numbers(s[0], 2)
                and _is_number(s[1])):
            raise ConfigError("each billiard scatterer must be [[x, y], r]")
    table = billiard_mod.build_table(
        scatterers=(tuple((tuple(c), r) for c, r in scatterers)
                    if scatterers else billiard_mod.DEFAULT_SCATTERERS),
        validation_rays=int(bcfg["validation_rays"]))
    ests = billiard_mod.billiard_escape_multi(
        table, holes, int(bcfg["samples"]), int(bcfg["n_max"]), seed)
    for i, est in enumerate(ests):
        est.write_csv(out_dir / f"survival_billiard_{i}.csv")
    return {"billiard": {"tau_max": table.tau_max,
                         "holes": [_estimate_dict(e) for e in ests]}}, 0


def cmd_verify(cfg, out_dir, seed):
    """Full pipeline: escape + spectral + pressure + verdict."""
    sys_obj = system_from_config(cfg["system"])
    results = _escape_estimates(sys_obj, cfg["escape"], seed, out_dir)
    _, spec, _, ulam = _ulam_run(sys_obj, int(cfg["ulam"]["resolution"]),
                                 out_dir)
    payload = {"escape": {m: _estimate_dict(e) for m, e in results.items()},
               "ulam": ulam}
    code = 0
    best = _best_estimate(results)
    if sys_obj.map.branch_count is not None:
        verdict_payload, code = _nu_hat_verdict(
            sys_obj, int(cfg["escape"]["level"]), best)
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
                       help="override the config seed")
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
        run = _resolve(cfg)
        seed = args.seed if args.seed is not None else int(run["seed"])
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload, code = _COMMANDS[args.command](run, out_dir, seed)
        payload["seed"] = seed
        payload["exit_code"] = code
        _write_summary(out_dir, cfg, payload)
        return code
    except (ConfigError, ValueError, KeyError, OSError,
            escape_mod.InsufficientSurvivorsError,
            escape_mod.DegenerateFitError, ulam_mod.ConvergenceError,
            dynballs_mod.ZeroCountError,
            tower_mod.NoRootError, tower_mod.DivergenceError,
            billiard_mod.InfiniteHorizonError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

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
from pathlib import Path

import numpy as np

from . import billiard as billiard_mod
from . import dynballs as dynballs_mod
from . import escape as escape_mod
from . import pressure as pressure_mod
from . import tower as tower_mod
from . import ulam as ulam_mod
from .systems import (_REQUIRED, _any, _checked, _fork_map, _integer,
                      _is_numbers, _json, _null_or, _number, _object,
                      _positive, _read_config, parry_chain,
                      system_from_config)


def _load_config(path) -> dict:
    """The JSON object the file ``path`` holds."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ValueError(f"{path} must hold a JSON object")
    return data


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


_positive_integer = _positive(_integer)


def _integers(value, name) -> list:
    return [int(n) for n in _checked(lambda v: _is_numbers(v, integer=True),
                                     "an array of integers")(value, name)]


_scatterers = _checked(lambda v: isinstance(v, list) and all(
    isinstance(s, list) and len(s) == 2 and _is_numbers(s[0], 2)
    and _is_numbers(s[1:]) for s in v), "an array of [[x, y], r]")

# the field table of each config section
_SECTIONS = {
    "escape": {"methods": (_json("array"), ["grid"]), "n_max": (_integer, 40),
               "resolution": (_null_or(_positive_integer), None),
               "level": (_integer, 2),
               "samples": (_positive_integer, 100_000)},
    "ulam": {"resolution": (_positive_integer, 512)},
    "tower_options": {"n_max": (_positive_integer, 20)},
    "balls": {"eps": (_positive(_number), 0.1),
              "n_values": (_integers, [4, 6, 8]),
              "samples": (_positive_integer, 40_000),
              "centers": (_json("array"), [0.3137])},
    "billiard": {"scatterers": (_null_or(_scatterers), None),
                 "validation_rays": (_integer, 1_000_000),
                 "holes": (_json("array"), []),
                 "samples": (_positive_integer, 1_000_000),
                 "n_max": (_integer, 40)},
}
# the top level of a config; a subcommand requires the objects it reads,
# which are read after the sections
_CONFIG = {"seed": (_integer, 0),
           **{name: (_object(fields, f"{name} config"), {})
              for name, fields in _SECTIONS.items()},
           "system": (_any, None), "tower": (_any, None)}
# the top-level objects a subcommand reads, where they are not ``system``
_READS = {"tower": ("tower",), "billiard": ()}


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
        raise ValueError("escape methods is empty")
    out_dir.mkdir(parents=True, exist_ok=True)
    n_max = ecfg["n_max"]
    results = {}
    for method in ecfg["methods"]:
        if method == "grid":
            est = escape_mod.escape_rate_grid(
                sys_obj, n_max, resolution=ecfg["resolution"])
        elif method == "words":
            est = escape_mod.escape_rate_words(
                sys_obj, ecfg["level"], n_max=n_max)
        elif method == "mc":
            est = escape_mod.escape_rate_mc(
                sys_obj, escape_mod.lebesgue_sampler(sys_obj.dimension),
                n_max, ecfg["samples"], seed)
        else:
            raise ValueError(f"unknown escape method {method!r}")
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
    """Ulam operator, its leading eigenpair and survivor measure, the
    ``"ulam"`` summary payload, and the writer jobs of the eigenvectors:
    ``qsd.csv`` (right) and ``survival_function.csv`` (left)."""
    op = ulam_mod.build_ulam(sys_obj, res)
    spec = ulam_mod.leading_eigenpair(op)
    nu_hat, info = ulam_mod.survivor_measure(op, spec)
    jobs = [(_write_cell_masses, out_dir / "qsd.csv", "mass", spec.right),
            (_write_cell_masses, out_dir / "survival_function.csv",
             "survival", spec.left)]
    return op, spec, nu_hat, {"spectral": spec.to_json_dict(),
                              "survivor_routes": info, "resolution": res}, jobs


def _write_files(jobs):
    """Run the writer jobs, each (writer, *args).  The commands map it over
    the jobs with ``_fork_map``, so each worker writes one contiguous run
    of the files, and a writer's error is raised in the command once every
    worker has exited."""
    for write, *args in jobs:
        write(*args)


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
        if not system["hole"]:
            raise ValueError("escape hole sweep is empty")
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
    op, _, nu_hat, ulam, jobs = _ulam_run(
        sys_obj, cfg["ulam"]["resolution"], out_dir)
    # two workers write (export, qsd) and the other two cell files: the
    # sparse export is the largest job, a cell file two thirds of it
    _fork_map(_write_files, [
        (op.export_coo, out_dir / "operator_coo.csv"), *jobs,
        (_write_cell_masses, out_dir / "survivor_measure.csv", "mass",
         nu_hat)])
    return {"ulam": ulam}, 0


def _write_cell_masses(path, column, values):
    """``cell,<column>`` CSV in the bytes np.savetxt(fmt="%.18e",
    delimiter=",") writes for the column pair (cell index, value).  An
    index of d digits is written from its digits: the leading one, a point,
    the other d - 1 padded with zeros to 18, and the exponent d - 1.  Each
    run of at most 65536 rows with one leading digit and digit count is
    formatted by one ``%`` call."""
    with open(path, "w") as fh:
        fh.write(f"cell,{column}\n")
        lo = 0
        while lo < len(values):
            d = len(str(lo))
            scale = 10 ** (d - 1)
            lead = lo // scale
            hi = min(len(values), lo + 65536, (lead + 1) * scale)
            part = values[lo:hi].tolist()
            if d == 1:
                row, args = f"{lead}.{'0' * 18}e+00,%.18e\n", part
            else:
                row = (f"{lead}.%0{d - 1}d{'0' * (19 - d)}e+{d - 1:02d},"
                       "%.18e\n")
                args = [None] * (2 * len(part))
                args[0::2] = range(lo - lead * scale, hi - lead * scale)
                args[1::2] = part
            fh.write(row * (hi - lo) % tuple(args))
            lo = hi


def cmd_tower(cfg, out_dir, seed):
    T = tower_mod.tower_from_config(cfg["tower"])
    opts = cfg["tower_options"]
    r = tower_mod.tower_eigenvalue(T)
    pi, _ = tower_mod.gibbs_chain(T, r)
    seq = tower_mod.gurevich_pressure(T, r, n_max=opts["n_max"])
    abram = tower_mod.abramov_check(T, r)
    hyp = tower_mod.validate_hypotheses(T)
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
    payload, code = _nu_hat_verdict(sys_obj, cfg["escape"]["level"],
                                    _best_estimate(results))
    payload["escape"] = {m: _estimate_dict(e) for m, e in results.items()}
    return payload, code


def cmd_balls(cfg, out_dir, seed):
    sys_obj = system_from_config(cfg["system"])
    bcfg = cfg["balls"]
    rng = np.random.default_rng(seed)
    rows = []
    for center in bcfg["centers"]:
        if not _is_numbers(center if sys_obj.dimension == 2 else [center],
                           sys_obj.dimension):
            raise ValueError("each centre in balls config must be a point "
                             "of the map: one number in 1D, two in 2D")
        c = np.asarray(center, dtype=float) if sys_obj.dimension == 2 \
            else float(center)
        slope, masses = dynballs_mod.ball_slope(
            sys_obj, c, bcfg["eps"], bcfg["n_values"],
            samples=bcfg["samples"], rng=rng)
        rows.append({"center": center, "slope": slope, "masses": masses})
    return {"balls": {"eps": bcfg["eps"], "results": rows}}, 0


def cmd_billiard(cfg, out_dir, seed):
    bcfg = cfg["billiard"]
    holes = [billiard_mod.hole_from_config(hc) for hc in bcfg["holes"]]
    table = billiard_mod.build_table(
        scatterers=bcfg["scatterers"] or billiard_mod.DEFAULT_SCATTERERS,
        validation_rays=bcfg["validation_rays"])
    ests = billiard_mod.billiard_escape_multi(
        table, holes, bcfg["samples"], bcfg["n_max"], seed)
    for i, est in enumerate(ests):
        est.write_csv(out_dir / f"survival_billiard_{i}.csv")
    return {"billiard": {"tau_max": table.tau_max,
                         "holes": [_estimate_dict(e) for e in ests]}}, 0


def cmd_verify(cfg, out_dir, seed):
    """Full pipeline: escape + spectral + pressure + verdict."""
    sys_obj = system_from_config(cfg["system"])
    results = _escape_estimates(sys_obj, cfg["escape"], seed, out_dir)
    _, spec, _, ulam, jobs = _ulam_run(sys_obj, cfg["ulam"]["resolution"],
                                       out_dir)
    _fork_map(_write_files, jobs)
    payload = {"escape": {m: _estimate_dict(e) for m, e in results.items()},
               "ulam": ulam}
    code = 0
    best = _best_estimate(results)
    if sys_obj.map.branch_count is not None:
        verdict_payload, code = _nu_hat_verdict(
            sys_obj, cfg["escape"]["level"], best)
        payload.update(verdict_payload)
    # cross-route consistency
    rhos = [e.rho for e in results.values()]
    payload["rho_spread"] = max(rhos) - min(rhos) if len(rhos) > 1 else 0.0
    payload["log_eigenvalue_vs_rho"] = abs(
        math.log(spec.eigenvalue) - best.rho)
    return payload, code


def _bundle_value(summary: dict, keys, read, path):
    """``read`` of summary[keys[0]][keys[1]]... in the bundle ``path``;
    errors name the path and the dotted key."""
    value = summary
    for i, key in enumerate(keys):
        if not isinstance(value, dict):
            raise ValueError(f"{'.'.join(keys[:i])} in {path} must be a JSON "
                             "object")
        if key not in value:
            raise ValueError(f"missing key '{'.'.join(keys[:i + 1])}' in "
                             f"{path}")
        value = value[key]
    return read(value, f"{'.'.join(keys)} in {path}")


def cmd_compare(args):
    paths = args.runs
    if len(paths) < 2:
        raise ValueError("compare needs at least two result bundles")
    rows = []
    for p in paths:
        path = Path(p) / "summary.json" if Path(p).is_dir() else p
        s = _load_config(path)
        row = {"path": str(p)}
        if "escape" in s:
            for m in _bundle_value(s, ("escape",), _json("object"), path):
                row[f"rho_{m}"] = _bundle_value(s, ("escape", m, "rho"),
                                                _number, path)
        if "ulam" in s:
            row["eigenvalue"] = _bundle_value(
                s, ("ulam", "spectral", "eigenvalue"), _number, path)
        if "pressure" in s:
            row["pressure"] = _bundle_value(s, ("pressure", "value"),
                                            _number, path)
        rows.append(row)
    keys = sorted(set().union(*[set(r) for r in rows]) - {"path"})
    missing = [k for k in keys if any(k not in r for r in rows)]
    if missing:
        raise ValueError(
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
        required = {key: (_any, _REQUIRED)
                    for key in _READS.get(args.command, ("system",))}
        run = _read_config(cfg, {**_CONFIG, **required}, "config")
        seed = args.seed if args.seed is not None else run["seed"]
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload, code = _COMMANDS[args.command](run, out_dir, seed)
        payload["seed"] = seed
        payload["exit_code"] = code
        _write_summary(out_dir, cfg, payload)
        return code
    except (ValueError, KeyError, OSError,
            escape_mod.InsufficientSurvivorsError,
            escape_mod.DegenerateFitError, ulam_mod.ConvergenceError,
            dynballs_mod.ZeroCountError,
            tower_mod.NoRootError, tower_mod.DivergenceError,
            billiard_mod.InfiniteHorizonError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

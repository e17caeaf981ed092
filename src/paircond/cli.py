"""Experiment orchestration: JSON run configs in, CSV scan rows and JSON fit
reports out.

Usage: paircond <experiment> --config cfg.json [--out DIR] [--seed N]
[--threads N]. Exit codes: 0 success, 2 config validation error, 3 solver
failure. Setting PAIRCOND_TEST_MODE=1 forces single-threaded deterministic
reductions regardless of --threads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from . import bcs, gp, pairing, twobody
from .geometry import (
    GeometryError,
    box_mask,
    disk,
    interval,
    lshape,
    mask_from_json,
    slit_square,
)
from .grid import Grid, GridError, ScalarField
from .reporting import FitError, ScanReport, fit_power_law
from .spectral import SpectralError, hardy_quotient, onset_threshold


class ConfigError(ValueError):
    """Invalid run configuration."""


SOLVER_ERRORS = (
    SpectralError,
    GeometryError,
    GridError,
    pairing.PairingError,
    gp.GPError,
    bcs.BCSError,
    twobody.TwoBodyError,
    FitError,
)

EXPERIMENTS = (
    "dc",
    "relative",
    "gp-min",
    "continuity",
    "twobody-scan",
    "bcs-trial",
    "semiclassics",
    "hardy",
    "density",
)


# ---------------------------------------------------------------------------
# config validation


def _check_keys(section: dict, allowed: set, where: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return section[key]


def build_domain(spec: dict):
    if not isinstance(spec, dict):
        raise ConfigError("domain must be an object")
    if "mask_file" in spec:
        _check_keys(spec, {"mask_file"}, "domain")
        try:
            with open(spec["mask_file"], encoding="utf-8") as fh:
                return mask_from_json(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read mask file: {exc}") from exc
    builtin = _require(spec, "builtin", "domain")
    params = {k: v for k, v in spec.items() if k != "builtin"}
    try:
        if builtin == "interval":
            _check_keys(params, {"a", "b", "n", "margin"}, "domain")
            a, b = float(params.get("a", 0.0)), float(params.get("b", 1.0))
            n = int(params.get("n", 801))
            margin = params.get("margin")
            grid = Grid.box(a - (margin or 0.0), b + (margin or 0.0), n)
            return interval(a, b, grid=grid)
        if builtin == "box":
            _check_keys(params, {"lower", "upper", "n", "margin"}, "domain")
            lower = params.get("lower", [0.0, 0.0])
            upper = params.get("upper", [1.0, 1.0])
            return box_mask(lower, upper, n=params.get("n", 201),
                            margin=params.get("margin", 0.0))
        if builtin == "disk":
            _check_keys(params, {"center", "radius", "n", "margin"}, "domain")
            return disk(params.get("center", [0.0, 0.0]),
                        float(params.get("radius", 1.0)),
                        n=int(params.get("n", 201)),
                        margin=params.get("margin"))
        if builtin == "lshape":
            _check_keys(params, {"n"}, "domain")
            return lshape(n=int(params.get("n", 201)))
        if builtin == "slit_square":
            _check_keys(params, {"n"}, "domain")
            return slit_square(n=int(params.get("n", 241)))
    except (GridError, GeometryError) as exc:
        raise ConfigError(f"cannot build domain: {exc}") from exc
    raise ConfigError(f"unknown builtin domain {builtin!r}")


def build_w(spec, mask) -> ScalarField | None:
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ConfigError("w must be an object or null")
    kind = _require(spec, "kind", "w")
    params = {k: v for k, v in spec.items() if k != "kind"}
    mesh = mask.grid.meshgrid()
    if kind == "zero":
        _check_keys(params, set(), "w")
        return None
    if kind == "constant":
        _check_keys(params, {"value"}, "w")
        vals = np.full(mask.grid.shape, float(_require(params, "value", "w")))
    elif kind == "bump":
        _check_keys(params, {"height", "center", "width"}, "w")
        height = float(params.get("height", 1.0))
        center = np.atleast_1d(np.asarray(params.get("center", 0.5), dtype=float))
        width = float(params.get("width", 0.2))
        r2 = sum((mesh[a] - center[min(a, center.size - 1)]) ** 2
                 for a in range(mask.grid.dim))
        vals = height * np.exp(-r2 / width**2)
    else:
        raise ConfigError(f"unknown w kind {kind!r}")
    return ScalarField(mask.grid, np.where(mask.inside, vals, 0.0))


def validate_potential(spec) -> dict:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("potential must be an object with a 'kind'")
    try:
        pairing.potential_from_descriptor(spec)
    except pairing.PairingError as exc:
        raise ConfigError(str(exc)) from exc
    return spec


# ---------------------------------------------------------------------------
# experiment drivers


def _map_ordered(fn, items, threads: int):
    if threads <= 1 or os.environ.get("PAIRCOND_TEST_MODE") == "1":
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _exp_dc(cfg, seed, threads):
    mask = build_domain(_require(cfg, "domain", "config"))
    w = build_w(cfg.get("w"), mask)
    _check_keys(cfg, {"domain", "w", "tol"}, "config")
    res = onset_threshold(mask, w, tol=float(cfg.get("tol", 1e-10)))
    return {
        "dc": res.eigenvalue,
        "residual": res.residual,
        "iterations": res.iterations,
    }


def _exp_relative(cfg, seed, threads):
    _check_keys(cfg, {"potential", "L", "n", "tol"}, "config")
    pot = validate_potential(_require(cfg, "potential", "config"))
    gs = pairing.solve_relative(
        pot,
        L=float(cfg.get("L", 20.0)),
        n=int(cfg.get("n", 4001)),
        tol=float(cfg.get("tol", 1e-10)),
    )
    return {
        "E_b": gs.E_b,
        "rho_star": gs.rho_star,
        "g_bcs": gs.g_bcs,
        "g_0": gs.g_0,
        "residual": gs.residual,
    }


def _resolve_d(cfg, mask, w) -> tuple:
    """D may be absolute ('D') or an offset above the domain threshold
    ('D_offset')."""
    if "D" in cfg and "D_offset" in cfg:
        raise ConfigError("give either D or D_offset, not both")
    mode = onset_threshold(mask, w, tol=1e-11)
    if "D" in cfg:
        return float(cfg["D"]), mode
    return mode.eigenvalue + float(cfg.get("D_offset", 1.0)), mode


def _exp_gp_min(cfg, seed, threads):
    _check_keys(cfg, {"domain", "w", "D", "D_offset", "g", "tol"}, "config")
    mask = build_domain(_require(cfg, "domain", "config"))
    w = build_w(cfg.get("w"), mask)
    d_val, mode = _resolve_d(cfg, mask, w)
    prob = gp.GPProblem(mask, w, d_val, float(cfg.get("g", 1.0)))
    sol = gp.minimize_gp(prob, tol=float(cfg.get("tol", 1e-9)), seed=seed,
                         mode=mode)
    theta, ub = gp.one_mode_upper_bound(prob, mode=mode)
    norm_sq = float(np.sum(sol.psi.values**2) * mask.grid.node_weight)
    return {
        "energy": sol.energy,
        "el_residual": sol.el_residual,
        "iterations": sol.iterations,
        "psi_norm_sq": norm_sq,
        "one_mode_energy": ub,
        "one_mode_theta": theta,
        "D": d_val,
        "threshold": mode.eigenvalue,
    }


def _exp_continuity(cfg, seed, threads):
    _check_keys(cfg, {"domain", "w", "D", "D_offset", "g", "ells", "tol"},
                "config")
    mask = build_domain(_require(cfg, "domain", "config"))
    w = build_w(cfg.get("w"), mask)
    d_val, _ = _resolve_d(cfg, mask, w)
    prob = gp.GPProblem(mask, w, d_val, float(cfg.get("g", 1.0)))
    ells = [float(e) for e in _require(cfg, "ells", "config")]
    report = gp.continuity_scan(prob, ells, tol=float(cfg.get("tol", 1e-9)))
    return report


def _exp_twobody(cfg, seed, threads):
    _check_keys(cfg, {"potential", "a", "b", "w", "h_list", "micro_step",
                      "q", "tol", "richardson"}, "config")
    pot = validate_potential(_require(cfg, "potential", "config"))
    scan_cfg = twobody.TwoBodyScanConfig(
        a=float(cfg.get("a", 0.0)),
        b=float(cfg.get("b", 1.0)),
        potential=pot,
        micro_step=float(cfg.get("micro_step", 0.125)),
        q=float(cfg.get("q", 1.5)),
        tol=float(cfg.get("tol", 1e-9)),
        richardson=bool(cfg.get("richardson", True)),
    )
    h_list = [float(h) for h in _require(cfg, "h_list", "config")]
    report = twobody.asymptotic_scan(scan_cfg, h_list)
    return report


def _bcs_setup(cfg):
    mask = build_domain(_require(cfg, "domain", "config"))
    if mask.grid.dim != 1:
        raise ConfigError("pair-state experiments need a 1D domain")
    w = build_w(cfg.get("w"), mask)
    pot = validate_potential(_require(cfg, "potential", "config"))
    gs = pairing.solve_relative(pot)
    return mask, w, pot, gs


def _exp_bcs_trial(cfg, seed, threads):
    _check_keys(cfg, {"domain", "w", "potential", "D", "D_offset", "q",
                      "amplitude", "h_list"}, "config")
    mask, w, pot, gs = _bcs_setup(cfg)
    q = float(cfg.get("q", 1.5))
    h_list = sorted((float(h) for h in _require(cfg, "h_list", "config")),
                    reverse=True)
    amp = float(cfg.get("amplitude", 0.3))

    from .geometry import erode

    cfg0 = bcs.BCSConfig(mask, pot, w, h=h_list[0], D=0.0, q=q, relative=gs)
    inner = erode(mask, cfg0.ell)
    mode = onset_threshold(inner, w, tol=1e-10)
    if "D" in cfg:
        d_val = float(cfg["D"])
    else:
        d_val = mode.eigenvalue + float(cfg.get("D_offset", 1.0))
    psi = ScalarField(mask.grid, amp * mode.eigenvector.values)
    prob = gp.GPProblem(mask, w, d_val, gs.g_bcs)
    e_gp = gp.gp_energy(prob, psi)

    def point(h):
        c = bcs.BCSConfig(mask, pot, w, h=h, D=d_val, q=q, relative=gs)
        state = bcs.build_trial_state(c, psi)
        e_bcs = bcs.bcs_energy(c, state)
        lo, hi = state.admissibility
        return (h, e_bcs / h**3, e_gp, abs(e_bcs / h**3 - e_gp), lo, hi)

    rows = _map_ordered(point, h_list, threads)
    report = ScanReport(
        columns=["h", "bcs_energy_h3", "gp_energy", "difference",
                 "adm_min", "adm_max"],
        rows=rows,
        metadata={"D": d_val, "g_bcs": gs.g_bcs, "q": q, "amplitude": amp},
    )
    report.fits["difference"] = fit_power_law([r[0] for r in rows],
                                              [r[3] for r in rows])
    return report


def _exp_semiclassics(cfg, seed, threads):
    _check_keys(cfg, {"domain", "w", "potential", "D", "q", "amplitude",
                      "h_list"}, "config")
    mask, w, pot, gs = _bcs_setup(cfg)
    if w is None:
        raise ConfigError("semiclassics needs a nonzero w (field term)")
    q = float(cfg.get("q", 1.0))
    d_val = float(cfg.get("D", 1.0))
    amp = float(cfg.get("amplitude", 0.5))
    h_list = sorted((float(h) for h in _require(cfg, "h_list", "config")),
                    reverse=True)

    from .geometry import erode

    cfg0 = bcs.BCSConfig(mask, pot, w, h=h_list[0], D=d_val, q=q, relative=gs)
    inner = erode(mask, cfg0.ell)
    mode = onset_threshold(inner, tol=1e-10)
    psi = ScalarField(mask.grid, amp * mode.eigenvector.values)

    def point(h):
        c = bcs.BCSConfig(mask, pot, w, h=h, D=d_val, q=q, relative=gs)
        rep = bcs.semiclassics_check(c, psi)
        return (h, rep.identity_residual, rep.field_residual,
                rep.quartic_energy_residual, rep.quartic_residual)

    rows = _map_ordered(point, h_list, threads)
    report = ScanReport(
        columns=["h", "identity_residual", "field_residual",
                 "quartic_energy_residual", "quartic_residual"],
        rows=rows,
        metadata={"D": d_val, "q": q, "amplitude": amp},
    )
    hs = [r[0] for r in rows]
    for name, col in (("field", 2), ("quartic_energy", 3), ("quartic", 4)):
        report.fits[name] = fit_power_law(hs, [r[col] for r in rows])
    return report


def _exp_hardy(cfg, seed, threads):
    _check_keys(cfg, {"domain", "lambda_offset", "n_list", "tol"}, "config")
    spec = _require(cfg, "domain", "config")
    lam = float(cfg.get("lambda_offset", 0.0))
    n_list = [int(n) for n in cfg.get("n_list", [101, 201, 401])]
    rows = []
    for n in n_list:
        localized = dict(spec)
        localized["n"] = n
        mask = build_domain(localized)
        mu = hardy_quotient(mask, lambda_offset=lam,
                            tol=float(cfg.get("tol", 1e-8)))
        rows.append((n, mu, 2.0 / np.sqrt(mu)))
    report = ScanReport(
        columns=["n", "mu_hat", "hardy_constant"],
        rows=rows,
        metadata={"lambda_offset": lam, "mu_max": max(r[1] for r in rows)},
    )
    return report


def _exp_density(cfg, seed, threads):
    _check_keys(cfg, {"domain", "w", "potential", "D", "D_offset", "q",
                      "h_list"}, "config")
    mask, w, pot, gs = _bcs_setup(cfg)
    q = float(cfg.get("q", 1.5))
    h_list = sorted((float(h) for h in _require(cfg, "h_list", "config")),
                    reverse=True)

    from .geometry import erode

    cfg0 = bcs.BCSConfig(mask, pot, w, h=h_list[0], D=0.0, q=q, relative=gs)
    inner = erode(mask, cfg0.ell)
    mode_inner = onset_threshold(inner, tol=1e-10)
    if "D" in cfg:
        d_val = float(cfg["D"])
    else:
        d_val = mode_inner.eigenvalue + float(cfg.get("D_offset", 1.0))
    sol = gp.minimize_gp(gp.GPProblem(inner, None, d_val, gs.g_bcs),
                         mode=mode_inner)
    psi_star = ScalarField(mask.grid, sol.psi.values)
    dv = mask.grid.node_weight
    ind = np.where(mask.inside, 1.0, 0.0)
    mode_full = onset_threshold(mask, tol=1e-10).eigenvector.values
    psi_sq = float(np.sum(psi_star.values**2) * dv)

    def point(h):
        c = bcs.BCSConfig(mask, pot, w, h=h, D=d_val, q=q, relative=gs)
        state = bcs.build_trial_state(c, psi_star)
        rho = bcs.one_body_density(state).values
        err1 = abs(np.sum(rho * ind) * dv / h
                   - np.sum(psi_star.values**2 * ind) * dv)
        err2 = abs(np.sum(rho * mode_full) * dv / h
                   - np.sum(psi_star.values**2 * mode_full) * dv)
        n_part = float(np.sum(rho) * dv)
        return (h, err1, err2, n_part, h * psi_sq)

    rows = _map_ordered(point, h_list, threads)
    report = ScanReport(
        columns=["h", "weak_error_indicator", "weak_error_mode",
                 "particle_number", "particle_number_gp"],
        rows=rows,
        metadata={"D": d_val, "gp_energy": sol.energy, "q": q},
    )
    ordered = sorted(rows)
    report.metadata["monotone"] = bool(
        np.all(np.diff([r[1] for r in ordered]) > 0)
        and np.all(np.diff([r[2] for r in ordered]) > 0)
    )
    return report


DRIVERS = {
    "dc": _exp_dc,
    "relative": _exp_relative,
    "gp-min": _exp_gp_min,
    "continuity": _exp_continuity,
    "twobody-scan": _exp_twobody,
    "bcs-trial": _exp_bcs_trial,
    "semiclassics": _exp_semiclassics,
    "hardy": _exp_hardy,
    "density": _exp_density,
}


# ---------------------------------------------------------------------------
# entry point


def run(experiment: str, config: dict, out_dir: str, seed: int = 0,
        threads: int = 1) -> int:
    """Run one experiment; returns the process exit code."""
    if experiment not in DRIVERS:
        print(f"unknown experiment {experiment!r}; choose from "
              f"{', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    if not isinstance(config, dict):
        print("config root must be a JSON object", file=sys.stderr)
        return 2
    t0 = time.time()
    try:
        result = DRIVERS[experiment](config, seed, threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3

    # scan experiments return their report, the others a plain summary
    report = result if isinstance(result, ScanReport) else None
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "experiment": experiment,
        "config": config,
        "seed": seed,
        "version": __version__,
        "wall_time_s": time.time() - t0,
        "summary": result if report is None else report.metadata,
        "fits": {} if report is None else report.fit_summary(),
    }
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=float)
        fh.write("\n")
    if report is not None:
        with open(os.path.join(out_dir, "rows.csv"), "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
    print(f"{experiment}: ok ({time.time() - t0:.1f}s) -> {out_dir}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="paircond",
        description="desk-scale experiments on pair condensation with "
                    "Dirichlet walls",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default="paircond-out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    return run(args.experiment, config, args.out, args.seed, args.threads)


if __name__ == "__main__":
    sys.exit(main())

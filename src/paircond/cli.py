"""Experiment orchestration: JSON run configs in, CSV scan rows and JSON fit
reports out.

Usage: paircond <experiment> --config cfg.json [--out DIR].
Exit codes: 0 success, 2 config validation error, 3 solver failure. A fixed
config reproduces byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import bcs, geometry, gp, pairing, twobody
from .geometry import (
    BUILTIN_DOMAINS,
    GeometryError,
    dilate,
    erode,
    mask_from_json,
)
from .grid import MAX_GRID_NODES, GridError, ScalarField
from .reporting import FitError, ScanReport, fit_power_law
from .spectral import SpectralError, hardy_quotient, onset_threshold


class ConfigError(ValueError):
    """Invalid run configuration."""


# every solver tolerance is relative; above this one, a start that is far
# from converged can pass the stopping test before the first step
MAX_TOL = 1e-3


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


def _coerce(value, like, where: str):
    """``value`` as finite numbers of the type of ``like`` (int or float): a
    number when ``like`` is a number, a nonempty list when ``like`` is a list
    (a single number then counts as a list of one). Booleans and strings are
    not numbers, and an int takes only integral values."""
    if any(isinstance(v, (bool, str))
           for v in (value if isinstance(value, list) else [value])):
        raise ConfigError(f"{where} must be numeric, got {value!r}")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} must be numeric, got {value!r}") from exc
    if arr.ndim > np.ndim(like) or arr.size == 0:
        shape = "a nonempty list" if isinstance(like, list) else "a number"
        raise ConfigError(f"{where} must be {shape}, got {value!r}")
    kind = int if np.asarray(like).dtype.kind == "i" else float
    limit = np.iinfo(np.int64).max if kind is int else np.inf
    if not np.all(np.abs(arr) < limit):  # false for NaN too
        raise ConfigError(f"{where} must be finite and in range, got {value!r}")
    if kind is int and not np.all(arr == np.round(arr)):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if isinstance(like, list):
        return [kind(v) for v in np.atleast_1d(arr)]
    return kind(arr)


def _number(section: dict, key: str, default, where: str = "config",
            positive: bool = False):
    """Optional numeric key, coerced to the type and shape of its default;
    with ``positive``, a scalar that must be positive. A ``tol`` key must
    also be at most ``MAX_TOL``."""
    value = _coerce(section.get(key, default), default, f"{key} in {where}")
    if positive and not value > 0:
        raise ConfigError(f"{key} in {where} must be positive, got {value!r}")
    if key == "tol" and value > MAX_TOL:
        raise ConfigError(f"tol in {where} must be at most {MAX_TOL:g}, got "
                          f"{value!r}: a looser tolerance lets a solver stop "
                          f"before it has converged")
    return value


def build_domain(spec: dict):
    if not isinstance(spec, dict):
        raise ConfigError("domain must be an object")
    if "mask_file" in spec:
        _check_keys(spec, {"mask_file"}, "domain")
        path = spec["mask_file"]
        if not isinstance(path, str):  # open() would take an int as an fd
            raise ConfigError(f"mask_file must be a path, got {path!r}")
        try:
            with open(path, encoding="utf-8") as fh:
                return mask_from_json(fh.read())
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or mask
            raise ConfigError(f"cannot read mask file: {exc}") from exc
    builtin = _require(spec, "builtin", "domain")
    if not isinstance(builtin, str) or builtin not in BUILTIN_DOMAINS:
        raise ConfigError(f"unknown builtin domain {builtin!r}")
    make, defaults = BUILTIN_DOMAINS[builtin]
    params = {k: v for k, v in spec.items() if k != "builtin"}
    _check_keys(params, set(defaults), "domain")
    kwargs = {}
    for key, default in defaults.items():
        value = params.get(key, default)
        # None stands for "not given" only where the default is None
        kwargs[key] = (None if value is None and default is None
                       else _coerce(value, default, f"{key} in domain"))
    try:
        # looked up on the module, so that a wrapper rebound there sees it
        return getattr(geometry, make.__name__)(**kwargs)
    except (GridError, GeometryError) as exc:
        raise ConfigError(f"cannot build domain: {exc}") from exc


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
        value = _coerce(_require(params, "value", "w"), 0.0, "value in w")
        vals = np.full(mask.grid.shape, value)
    elif kind == "bump":
        _check_keys(params, {"height", "center", "width"}, "w")
        height = _number(params, "height", 1.0, "w")
        center = np.asarray(_number(params, "center", [0.5], "w"))
        width = _number(params, "width", 0.2, "w", positive=True)
        r2 = sum((mesh[a] - center[min(a, center.size - 1)]) ** 2
                 for a in range(mask.grid.dim))
        # a float64 square: inf for a huge width, where a float raises, and
        # 0 for a width whose square underflows; then r2 / 0 is taken as
        # +inf off the centre and 0 on it, leaving a one-node bump. An
        # overflow, in the square or the quotient, is the inf it should be.
        with np.errstate(over="ignore"):
            w2 = np.float64(width) ** 2
            scaled = np.divide(r2, w2, out=np.where(r2 > 0, np.inf, 0.0),
                               where=w2 > 0)
        vals = height * np.exp(-scaled)
    else:
        raise ConfigError(f"unknown w kind {kind!r}")
    return mask.field(vals)


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


def _exp_dc(cfg):
    mask = build_domain(_require(cfg, "domain", "config"))
    w = build_w(cfg.get("w"), mask)
    _check_keys(cfg, {"domain", "w", "tol"}, "config")
    res = onset_threshold(mask, w, tol=_number(cfg, "tol", 1e-10, positive=True))
    return {
        "dc": res.eigenvalue,
        "residual": res.residual,
        "iterations": res.iterations,
    }


def _exp_relative(cfg):
    _check_keys(cfg, {"potential", "L", "n", "tol"}, "config")
    pot = validate_potential(_require(cfg, "potential", "config"))
    L, n = _number(cfg, "L", 20.0), _number(cfg, "n", 4001)
    tol = _number(cfg, "tol", 1e-10, positive=True)
    try:
        gs = pairing.solve_relative(pot, L=L, n=n, tol=tol)
    except GridError as exc:  # the box grid refused L or n
        raise ConfigError(f"cannot build the relative box: {exc}") from exc
    return {
        "E_b": gs.E_b,
        "rho_star": gs.rho_star,
        "g_bcs": gs.g_bcs,
        "g_0": gs.g_0,
        "residual": gs.residual,
    }


def _resolve_d(cfg):
    """D as a function of the onset threshold: absolute ('D') or an offset
    above it ('D_offset', default 1)."""
    if "D" in cfg and "D_offset" in cfg:
        raise ConfigError("give either D or D_offset, not both")
    if "D" in cfg:
        d_val = _number(cfg, "D", 0.0)
        return lambda threshold: d_val
    offset = _number(cfg, "D_offset", 1.0)
    return lambda threshold: threshold + offset


def _gp_setup(cfg, ells=()):
    """Domain, W, the onset mode and the GP problem of the condensate
    experiments; the domain eroded and dilated by each nonzero ell in
    ``ells`` is built once before the onset solve, to refuse an ell that
    empties the domain or leaves its box."""
    mask = build_domain(_require(cfg, "domain", "config"))
    w = build_w(cfg.get("w"), mask)
    g = _number(cfg, "g", 1.0, positive=True)
    d_of = _resolve_d(cfg)
    try:
        for ell in ells:
            if ell != 0.0:  # continuity_scan reuses the base minimizer there
                erode(mask, ell)
                dilate(mask, ell)
    except GeometryError as exc:
        raise ConfigError(str(exc)) from exc
    mode = onset_threshold(mask, w, tol=1e-11)
    return gp.GPProblem(mask, w, d_of(mode.eigenvalue), g), mode


def _exp_gp_min(cfg):
    _check_keys(cfg, {"domain", "w", "D", "D_offset", "g", "tol"}, "config")
    tol = _number(cfg, "tol", 1e-9, positive=True)
    prob, mode = _gp_setup(cfg)
    sol = gp.minimize_gp(prob, tol=tol, mode=mode)
    theta, ub = gp.one_mode_upper_bound(prob, mode=mode)
    norm_sq = float(np.sum(sol.psi.values**2) * prob.mask.grid.node_weight)
    return {
        "energy": sol.energy,
        "el_residual": sol.el_residual,
        "iterations": sol.iterations,
        "psi_norm_sq": norm_sq,
        "one_mode_energy": ub,
        "one_mode_theta": theta,
        "D": prob.D,
        "threshold": mode.eigenvalue,
    }


def _exp_continuity(cfg):
    _check_keys(cfg, {"domain", "w", "D", "D_offset", "g", "ells", "tol"},
                "config")
    ells = _coerce(_require(cfg, "ells", "config"), [0.0], "ells")
    tol = _number(cfg, "tol", 1e-9, positive=True)
    prob, mode = _gp_setup(cfg, ells)
    return gp.continuity_scan(prob, ells, tol=tol, mode=mode)


def _exp_twobody(cfg):
    _check_keys(cfg, {"potential", "a", "b", "h_list", "micro_step", "q",
                      "tol"}, "config")
    pot = validate_potential(_require(cfg, "potential", "config"))
    scan_cfg = twobody.TwoBodyScanConfig(
        a=_number(cfg, "a", 0.0),
        b=_number(cfg, "b", 1.0),
        potential=pot,
        micro_step=_number(cfg, "micro_step", 0.125, positive=True),
        q=_number(cfg, "q", 1.5, positive=True),
        tol=_number(cfg, "tol", 1e-9, positive=True),
    )
    if scan_cfg.b <= scan_cfg.a:
        raise ConfigError(f"b must exceed a, got a={scan_cfg.a}, "
                          f"b={scan_cfg.b}")
    h_list = _coerce(_require(cfg, "h_list", "config"), [0.0], "h_list")
    if min(h_list) <= 0.0:
        raise ConfigError(f"h_list values must be positive, got {h_list}")
    if len(set(h_list)) < 3:  # the fits of asymptotic_scan need three
        raise ConfigError(f"h_list needs at least 3 distinct values, got "
                          f"{h_list}")
    # each h's product grid, micro lattice and trial support, before any solve
    try:
        for h in h_list:
            prob = twobody.problem_at(scan_cfg, h)
            pairing.micro_lattice_k_max(prob.micro_step)
            twobody.trial_support(prob, scan_cfg.q)
    except (twobody.TwoBodyError, GridError, GeometryError,
            pairing.PairingError) as exc:
        raise ConfigError(str(exc)) from exc
    return twobody.asymptotic_scan(scan_cfg, h_list)


def _pair_setup(cfg, q_default: float, d_of, mode_with_w: bool,
                needs_w: bool = False) -> tuple:
    """What the pair-state experiments share, from the shared keys: one
    ``BCSConfig`` per h (largest first), the domain eroded by the largest
    ell(h) (ell = q h ln(1/h) peaks at h = 1/e, not at the largest h), and
    the onset mode there, which includes W only when ``mode_with_w``. D is
    ``d_of`` its threshold. With ``needs_w``, a W that is absent or zero
    everywhere is refused before any solve."""
    mask = build_domain(_require(cfg, "domain", "config"))
    if mask.grid.dim != 1:
        raise ConfigError("pair-state experiments need a 1D domain")
    w = build_w(cfg.get("w"), mask)
    pot = validate_potential(_require(cfg, "potential", "config"))
    q = _number(cfg, "q", q_default, positive=True)
    h_list = sorted(_coerce(_require(cfg, "h_list", "config"), [0.0], "h_list"),
                    reverse=True)
    # the kernel budget, each h's micro lattice and the eroded domain,
    # before any solve
    try:
        configs = [bcs.BCSConfig(mask, pot, w, h=h, D=0.0, q=q) for h in h_list]
        # the widest pair kernel, aa = a a dx, holds n (4b + 1) band entries,
        # where a reaches b = 1.5 ell / dx nodes at the largest ell
        n = mask.grid.n[0]
        ell = max(c.ell for c in configs)
        b = min(math.floor(1.5 * ell / mask.grid.spacing[0]), n - 1)
        if n * (4 * b + 1) > MAX_GRID_NODES:
            raise ConfigError(f"pair kernels of {n}x{4 * b + 1} band entries "
                              f"exceed the {MAX_GRID_NODES}-entry budget")
        for c in configs:
            pairing.micro_lattice_k_max(c.micro_step, c.micro_halfwidth)
        inner = erode(mask, ell)
    except (bcs.BCSError, pairing.PairingError, GeometryError) as exc:
        raise ConfigError(str(exc)) from exc
    if needs_w and (w is None or not np.any(w.values)):
        raise ConfigError("w must be nonzero somewhere on the domain (field "
                          "term)")
    mode = onset_threshold(inner, w if mode_with_w else None, tol=1e-10)
    for c in configs:
        c.D = d_of(mode.eigenvalue)
    return configs, inner, mode


def _exp_bcs_trial(cfg):
    _check_keys(cfg, {"domain", "w", "potential", "D", "D_offset", "q",
                      "amplitude", "h_list"}, "config")
    d_of = _resolve_d(cfg)
    amp = _number(cfg, "amplitude", 0.3)
    configs, _, mode = _pair_setup(cfg, 1.5, d_of, mode_with_w=True)
    first = configs[0]
    psi = ScalarField(first.mask.grid, amp * mode.eigenvector.values)

    def point(c):
        state = bcs.build_trial_state(c, psi)
        lo, hi = state.admissibility
        return c.h, bcs.bcs_energy(c, state) / c.h**3, lo, hi

    # every trial state is admitted before the GP energy is read, so an
    # amplitude out of range is refused before psi^4 can overflow
    points = [point(c) for c in configs]
    g_bcs = pairing.solve_relative(first.potential).g_bcs
    e_gp = gp.gp_energy(gp.GPProblem(first.mask, first.W, first.D, g_bcs), psi)
    rows = [(h, e, e_gp, abs(e - e_gp), lo, hi) for h, e, lo, hi in points]
    report = ScanReport(
        columns=["h", "bcs_energy_h3", "gp_energy", "difference",
                 "adm_min", "adm_max"],
        rows=rows,
        metadata={"D": first.D, "g_bcs": g_bcs, "q": first.q, "amplitude": amp},
    )
    report.fits["difference"] = fit_power_law([r[0] for r in rows],
                                              [r[3] for r in rows])
    return report


def _exp_semiclassics(cfg):
    _check_keys(cfg, {"domain", "w", "potential", "D", "q", "amplitude",
                      "h_list"}, "config")
    d_val = _number(cfg, "D", 1.0)
    amp = _number(cfg, "amplitude", 0.5)
    configs, _, mode = _pair_setup(cfg, 1.0, lambda _: d_val,
                                   mode_with_w=False, needs_w=True)
    psi = ScalarField(configs[0].mask.grid, amp * mode.eigenvector.values)

    def point(c):
        rep = bcs.semiclassics_check(c, psi)
        return (c.h, rep.identity_residual, rep.field_residual,
                rep.quartic_energy_residual, rep.quartic_residual)

    rows = [point(c) for c in configs]
    report = ScanReport(
        columns=["h", "identity_residual", "field_residual",
                 "quartic_energy_residual", "quartic_residual"],
        rows=rows,
        metadata={"D": d_val, "q": configs[0].q, "amplitude": amp},
    )
    hs = [r[0] for r in rows]
    for name, col in (("field", 2), ("quartic_energy", 3), ("quartic", 4)):
        report.fits[name] = fit_power_law(hs, [r[col] for r in rows])
    return report


def _exp_hardy(cfg):
    _check_keys(cfg, {"domain", "lambda_offset", "n_list", "tol"}, "config")
    spec = _require(cfg, "domain", "config")
    if not isinstance(spec, dict):
        raise ConfigError("domain must be an object")
    if "mask_file" in spec:
        raise ConfigError("hardy rebuilds a builtin domain at each n of "
                          "n_list; a mask_file has one grid")
    if "n" in spec:
        raise ConfigError("hardy takes n from n_list; remove n from the "
                          "domain")
    lam = _number(cfg, "lambda_offset", 0.0)
    tol = _number(cfg, "tol", 1e-8, positive=True)
    rows = []
    for n in _number(cfg, "n_list", [101, 201, 401]):
        mask = build_domain({**spec, "n": n})
        mu = hardy_quotient(mask, lambda_offset=lam, tol=tol)
        rows.append((n, mu, 2.0 / np.sqrt(mu)))
    return ScanReport(
        columns=["n", "mu_hat", "hardy_constant"],
        rows=rows,
        metadata={"lambda_offset": lam, "mu_max": max(r[1] for r in rows)},
    )


def _exp_density(cfg):
    _check_keys(cfg, {"domain", "w", "potential", "D", "D_offset", "q",
                      "h_list"}, "config")
    configs, inner, mode = _pair_setup(cfg, 1.5, _resolve_d(cfg),
                                       mode_with_w=False)
    first = configs[0]
    mask = first.mask
    g_bcs = pairing.solve_relative(first.potential).g_bcs
    sol = gp.minimize_gp(gp.GPProblem(inner, None, first.D, g_bcs), mode=mode)
    psi_star = ScalarField(mask.grid, sol.psi.values)
    dv = mask.grid.node_weight
    ind = np.where(mask.inside, 1.0, 0.0)
    mode_full = onset_threshold(mask, tol=1e-10).eigenvector.values
    psi_sq = float(np.sum(psi_star.values**2) * dv)

    def point(c):
        h = c.h
        state = bcs.build_trial_state(c, psi_star)
        rho = bcs.one_body_density(state).values
        err1 = abs(np.sum(rho * ind) * dv / h
                   - np.sum(psi_star.values**2 * ind) * dv)
        err2 = abs(np.sum(rho * mode_full) * dv / h
                   - np.sum(psi_star.values**2 * mode_full) * dv)
        n_part = float(np.sum(rho) * dv)
        return (h, err1, err2, n_part, h * psi_sq)

    rows = [point(c) for c in configs]
    report = ScanReport(
        columns=["h", "weak_error_indicator", "weak_error_mode",
                 "particle_number", "particle_number_gp"],
        rows=rows,
        metadata={"D": first.D, "gp_energy": sol.energy, "q": first.q},
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
EXPERIMENTS = tuple(DRIVERS)


# ---------------------------------------------------------------------------
# entry point


def _non_finite(summary: dict) -> list:
    """Keys of the NaN or infinite numbers in ``summary``."""
    return [key for key, value in summary.items()
            if isinstance(value, float) and not np.isfinite(value)]


def run(experiment: str, config: dict, out_dir: str) -> int:
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
        result = DRIVERS[experiment](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3

    # scan experiments return their report, the others a plain summary
    report = result if isinstance(result, ScanReport) else None
    bad = _non_finite(result if report is None else report.metadata)
    if report is not None:
        bad += [f"row {k}" for k, row in enumerate(report.sorted_rows())
                if not np.all(np.isfinite(row))]
        bad += [f"fit {name!r}" for name, fit in report.fits.items()
                if _non_finite(fit.to_dict())]
    if bad:
        print(f"solver error: non-finite numbers in {', '.join(bad)}",
              file=sys.stderr)
        return 3
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "experiment": experiment,
        "config": config,
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
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    return run(args.experiment, config, args.out)


if __name__ == "__main__":
    sys.exit(main())

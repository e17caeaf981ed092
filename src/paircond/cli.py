"""Experiment orchestration: JSON run configs in, CSV scan rows and JSON fit
reports out.

Usage: paircond <experiment> --config cfg.json [--out DIR] [--seed N].
Exit codes: 0 success, 2 config validation error, 3 solver failure. A fixed
config and seed reproduce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import bcs, geometry, gp, pairing, twobody
from .geometry import (
    BUILTIN_DOMAINS,
    DomainMask,
    GeometryError,
    erode,
    mask_from_json,
)
from .grid import GridError, ScalarField
from .reporting import FitError, ScanReport, fit_power_law
from .spectral import (
    EigenResult,
    SpectralError,
    hardy_quotient,
    onset_threshold,
)


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
    (a single number then counts as a list of one)."""
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
    if isinstance(like, list):
        return [kind(v) for v in np.atleast_1d(arr)]
    return kind(arr)


def _number(section: dict, key: str, default, where: str = "config"):
    """Optional numeric key, coerced to the type and shape of its default."""
    return _coerce(section.get(key, default), default, f"{key} in {where}")


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
        kwargs[key] = None if value is None else _coerce(value, default,
                                                         f"{key} in domain")
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
        width = _number(params, "width", 0.2, "w")
        r2 = sum((mesh[a] - center[min(a, center.size - 1)]) ** 2
                 for a in range(mask.grid.dim))
        vals = height * np.exp(-r2 / width**2)
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


def _exp_dc(cfg, seed):
    mask = build_domain(_require(cfg, "domain", "config"))
    w = build_w(cfg.get("w"), mask)
    _check_keys(cfg, {"domain", "w", "tol"}, "config")
    res = onset_threshold(mask, w, tol=_number(cfg, "tol", 1e-10))
    return {
        "dc": res.eigenvalue,
        "residual": res.residual,
        "iterations": res.iterations,
    }


def _exp_relative(cfg, seed):
    _check_keys(cfg, {"potential", "L", "n", "tol"}, "config")
    pot = validate_potential(_require(cfg, "potential", "config"))
    gs = pairing.solve_relative(
        pot,
        L=_number(cfg, "L", 20.0),
        n=_number(cfg, "n", 4001),
        tol=_number(cfg, "tol", 1e-10),
    )
    return {
        "E_b": gs.E_b,
        "rho_star": gs.rho_star,
        "g_bcs": gs.g_bcs,
        "g_0": gs.g_0,
        "residual": gs.residual,
    }


def _resolve_d(cfg, threshold: float) -> float:
    """D may be absolute ('D') or an offset above the threshold ('D_offset',
    default 1)."""
    if "D" in cfg and "D_offset" in cfg:
        raise ConfigError("give either D or D_offset, not both")
    if "D" in cfg:
        return _number(cfg, "D", 0.0)
    return threshold + _number(cfg, "D_offset", 1.0)


def _gp_setup(cfg):
    """Domain, W, the onset mode and the GP problem of the condensate
    experiments."""
    mask = build_domain(_require(cfg, "domain", "config"))
    w = build_w(cfg.get("w"), mask)
    mode = onset_threshold(mask, w, tol=1e-11)
    d_val = _resolve_d(cfg, mode.eigenvalue)
    return gp.GPProblem(mask, w, d_val, _number(cfg, "g", 1.0)), mode


def _exp_gp_min(cfg, seed):
    _check_keys(cfg, {"domain", "w", "D", "D_offset", "g", "tol"}, "config")
    prob, mode = _gp_setup(cfg)
    sol = gp.minimize_gp(prob, tol=_number(cfg, "tol", 1e-9), seed=seed,
                         mode=mode)
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


def _exp_continuity(cfg, seed):
    _check_keys(cfg, {"domain", "w", "D", "D_offset", "g", "ells", "tol"},
                "config")
    prob, _ = _gp_setup(cfg)
    ells = _coerce(_require(cfg, "ells", "config"), [0.0], "ells")
    return gp.continuity_scan(prob, ells, tol=_number(cfg, "tol", 1e-9))


def _exp_twobody(cfg, seed):
    _check_keys(cfg, {"potential", "a", "b", "h_list", "micro_step", "q",
                      "tol", "richardson"}, "config")
    pot = validate_potential(_require(cfg, "potential", "config"))
    scan_cfg = twobody.TwoBodyScanConfig(
        a=_number(cfg, "a", 0.0),
        b=_number(cfg, "b", 1.0),
        potential=pot,
        micro_step=_number(cfg, "micro_step", 0.125),
        q=_number(cfg, "q", 1.5),
        tol=_number(cfg, "tol", 1e-9),
        richardson=bool(cfg.get("richardson", True)),
    )
    h_list = _coerce(_require(cfg, "h_list", "config"), [0.0], "h_list")
    return twobody.asymptotic_scan(scan_cfg, h_list)


@dataclass
class _PairSetup:
    """What the pair-state experiments share: the 1D domain, W, the potential,
    its relative ground state, q, the h list (largest first), and the onset
    mode on the domain eroded by ell(h) at the largest h."""

    mask: DomainMask
    w: ScalarField | None
    potential: dict
    relative: pairing.RelativeGroundState
    q: float
    h_list: list
    inner: DomainMask
    mode: EigenResult

    def bcs_config(self, h: float, d_val: float) -> bcs.BCSConfig:
        return bcs.BCSConfig(self.mask, self.potential, self.w, h=h, D=d_val,
                             q=self.q, relative=self.relative)


def _pair_setup(cfg, q_default: float, mode_with_w: bool) -> _PairSetup:
    """Read the shared pair-state keys; the onset mode includes W only when
    ``mode_with_w``."""
    mask = build_domain(_require(cfg, "domain", "config"))
    if mask.grid.dim != 1:
        raise ConfigError("pair-state experiments need a 1D domain")
    w = build_w(cfg.get("w"), mask)
    pot = validate_potential(_require(cfg, "potential", "config"))
    q = _number(cfg, "q", q_default)
    h_list = sorted(_coerce(_require(cfg, "h_list", "config"), [0.0], "h_list"),
                    reverse=True)
    gs = pairing.solve_relative(pot)
    ell = bcs.BCSConfig(mask, pot, w, h=h_list[0], D=0.0, q=q, relative=gs).ell
    inner = erode(mask, ell)
    mode = onset_threshold(inner, w if mode_with_w else None, tol=1e-10)
    return _PairSetup(mask, w, pot, gs, q, h_list, inner, mode)


def _exp_bcs_trial(cfg, seed):
    _check_keys(cfg, {"domain", "w", "potential", "D", "D_offset", "q",
                      "amplitude", "h_list"}, "config")
    setup = _pair_setup(cfg, 1.5, mode_with_w=True)
    d_val = _resolve_d(cfg, setup.mode.eigenvalue)
    amp = _number(cfg, "amplitude", 0.3)
    psi = ScalarField(setup.mask.grid, amp * setup.mode.eigenvector.values)
    g_bcs = setup.relative.g_bcs
    e_gp = gp.gp_energy(gp.GPProblem(setup.mask, setup.w, d_val, g_bcs), psi)

    def point(h):
        c = setup.bcs_config(h, d_val)
        state = bcs.build_trial_state(c, psi)
        e_bcs = bcs.bcs_energy(c, state)
        lo, hi = state.admissibility
        return (h, e_bcs / h**3, e_gp, abs(e_bcs / h**3 - e_gp), lo, hi)

    rows = [point(h) for h in setup.h_list]
    report = ScanReport(
        columns=["h", "bcs_energy_h3", "gp_energy", "difference",
                 "adm_min", "adm_max"],
        rows=rows,
        metadata={"D": d_val, "g_bcs": g_bcs, "q": setup.q, "amplitude": amp},
    )
    report.fits["difference"] = fit_power_law([r[0] for r in rows],
                                              [r[3] for r in rows])
    return report


def _exp_semiclassics(cfg, seed):
    _check_keys(cfg, {"domain", "w", "potential", "D", "q", "amplitude",
                      "h_list"}, "config")
    setup = _pair_setup(cfg, 1.0, mode_with_w=False)
    if setup.w is None:
        raise ConfigError("semiclassics needs a nonzero w (field term)")
    d_val = _number(cfg, "D", 1.0)
    amp = _number(cfg, "amplitude", 0.5)
    psi = ScalarField(setup.mask.grid, amp * setup.mode.eigenvector.values)

    def point(h):
        rep = bcs.semiclassics_check(setup.bcs_config(h, d_val), psi)
        return (h, rep.identity_residual, rep.field_residual,
                rep.quartic_energy_residual, rep.quartic_residual)

    rows = [point(h) for h in setup.h_list]
    report = ScanReport(
        columns=["h", "identity_residual", "field_residual",
                 "quartic_energy_residual", "quartic_residual"],
        rows=rows,
        metadata={"D": d_val, "q": setup.q, "amplitude": amp},
    )
    hs = [r[0] for r in rows]
    for name, col in (("field", 2), ("quartic_energy", 3), ("quartic", 4)):
        report.fits[name] = fit_power_law(hs, [r[col] for r in rows])
    return report


def _exp_hardy(cfg, seed):
    _check_keys(cfg, {"domain", "lambda_offset", "n_list", "tol"}, "config")
    spec = _require(cfg, "domain", "config")
    if not isinstance(spec, dict):
        raise ConfigError("domain must be an object")
    lam = _number(cfg, "lambda_offset", 0.0)
    tol = _number(cfg, "tol", 1e-8)
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


def _exp_density(cfg, seed):
    _check_keys(cfg, {"domain", "w", "potential", "D", "D_offset", "q",
                      "h_list"}, "config")
    setup = _pair_setup(cfg, 1.5, mode_with_w=False)
    mask = setup.mask
    d_val = _resolve_d(cfg, setup.mode.eigenvalue)
    sol = gp.minimize_gp(
        gp.GPProblem(setup.inner, None, d_val, setup.relative.g_bcs),
        mode=setup.mode)
    psi_star = ScalarField(mask.grid, sol.psi.values)
    dv = mask.grid.node_weight
    ind = np.where(mask.inside, 1.0, 0.0)
    mode_full = onset_threshold(mask, tol=1e-10).eigenvector.values
    psi_sq = float(np.sum(psi_star.values**2) * dv)

    def point(h):
        state = bcs.build_trial_state(setup.bcs_config(h, d_val), psi_star)
        rho = bcs.one_body_density(state).values
        err1 = abs(np.sum(rho * ind) * dv / h
                   - np.sum(psi_star.values**2 * ind) * dv)
        err2 = abs(np.sum(rho * mode_full) * dv / h
                   - np.sum(psi_star.values**2 * mode_full) * dv)
        n_part = float(np.sum(rho) * dv)
        return (h, err1, err2, n_part, h * psi_sq)

    rows = [point(h) for h in setup.h_list]
    report = ScanReport(
        columns=["h", "weak_error_indicator", "weak_error_mode",
                 "particle_number", "particle_number_gp"],
        rows=rows,
        metadata={"D": d_val, "gp_energy": sol.energy, "q": setup.q},
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


def run(experiment: str, config: dict, out_dir: str, seed: int = 0) -> int:
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
        result = DRIVERS[experiment](config, seed)
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
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    return run(args.experiment, config, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())

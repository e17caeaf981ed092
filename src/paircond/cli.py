"""Experiment orchestration: JSON run configs in, CSV scan rows and JSON fit
reports out.

Usage: paircond <experiment> --config cfg.json [--out DIR].
Exit codes: 0 success, 2 config validation error, 3 solver failure. The code
follows the error's type alone: an input check raises ``ConfigError`` where
it runs, in this module or in a library, and a failure found by solving
raises its module's error. A fixed config reproduces byte-identical CSV
output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import bcs, geometry, gp, pairing, twobody
from .geometry import BUILTIN_DOMAINS, dilate, erode, mask_from_json
from .grid import (
    REQUIRED,
    UNSET,
    ConfigError,
    Key,
    ScalarField,
    positive,
    read_kind,
    read_section,
)
from .reporting import FitError, ScanReport, fit_power_law
from .spectral import SpectralError, hardy_quotient, onset_threshold


# every solver tolerance is relative; above this one, a start that is far
# from converged can pass the stopping test before the first step
MAX_TOL = 1e-3


SOLVER_ERRORS = (
    SpectralError,
    pairing.PairingError,
    gp.GPError,
    bcs.BCSError,
    twobody.TwoBodyError,
    FitError,
)


# ---------------------------------------------------------------------------
# config schema


def _tolerance(tol, name: str):
    """Range rule of a solver tolerance: positive and at most ``MAX_TOL``."""
    positive(tol, name)
    if tol > MAX_TOL:
        raise ConfigError(f"{name} must be at most {MAX_TOL:g}, got {tol!r}: "
                          f"a looser tolerance lets a solver stop before it "
                          f"has converged")


def _fit_h(h_list, name: str):
    """Range rule of an h_list that a power law is fitted over: positive,
    with the three distinct values that a fit needs."""
    positive(h_list, name)
    if len(set(h_list)) < 3:
        raise ConfigError(f"{name} needs at least 3 distinct values, got "
                          f"{h_list}")


def _potential(spec: dict, name: str):
    """Range rule of a potential: a descriptor that pairing reads."""
    pairing.potential_from_descriptor(spec)


def _nonzero(value, name: str):
    """Range rule of a trial amplitude: a zero state makes every row 0,
    which leaves nothing to fit."""
    if value == 0:
        raise ConfigError(f"{name} must be nonzero, got {value!r}")


OBJECT, OBJECT_OR_NULL, UNSET_FLOAT = Key({}), Key({}, None), Key(0.0, UNSET)
POTENTIAL = Key({}, REQUIRED, _potential)
DOMAIN_W = {"domain": OBJECT, "w": OBJECT_OR_NULL}
D_KEYS = {"D": UNSET_FLOAT, "D_offset": UNSET_FLOAT}

# experiment -> (function, config table): the table, as grid.read_section
# reads it, maps each key to its default, or to a Key where the default
# alone does not give its kind or range; the function takes what it reads
SCHEMA = {}


def _experiment(name: str, table: dict):
    """Register the decorated function as experiment ``name``, on
    ``table``."""
    def register(fn):
        SCHEMA[name] = (fn, table)
        return fn
    return register


def build_domain(spec: dict):
    if "mask_file" in spec:
        path = read_section(spec, {"mask_file": Key("")},
                            "domain")["mask_file"]
        try:
            with open(path, encoding="utf-8") as fh:
                return mask_from_json(fh.read())
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or mask
            raise ConfigError(f"cannot read mask file: {exc}") from exc
    make, kwargs = read_kind(spec, BUILTIN_DOMAINS, "domain", tag="builtin")
    # looked up on the module, so that a wrapper rebound there sees it
    return getattr(geometry, make.__name__)(**kwargs)


def _constant(grid, value):
    return np.full(grid.shape, value)


def _bump(grid, height, center, width):
    if len(center) not in (1, grid.dim):
        raise ConfigError(f"w.center needs one entry, or one per axis of "
                          f"the domain ({grid.dim}), got {center}")
    mesh = grid.meshgrid()
    r2 = sum((mesh[a] - center[min(a, len(center) - 1)]) ** 2
             for a in range(grid.dim))
    # a float64 square: inf for a huge width, where a float raises, and
    # 0 for a width whose square underflows; then r2 / 0 is taken as
    # +inf off the centre and 0 on it, leaving a one-node bump. An
    # overflow, in the square or the quotient, is the inf it should be.
    with np.errstate(over="ignore"):
        w2 = np.float64(width) ** 2
        scaled = np.divide(r2, w2, out=np.where(r2 > 0, np.inf, 0.0),
                           where=w2 > 0)
    return height * np.exp(-scaled)


# w kind -> (values on a grid, parameter table); zero is no field
W_KINDS = {
    "zero": (None, {}),
    "constant": (_constant, {"value": Key(0.0)}),
    "bump": (_bump, {"height": 1.0, "center": [0.5],
                     "width": Key(0.0, 0.2, positive)}),
}


def build_w(spec, mask) -> ScalarField | None:
    if spec is None:
        return None
    make, params = read_kind(spec, W_KINDS, "w")
    return None if make is None else mask.field(make(mask.grid, **params))


# ---------------------------------------------------------------------------
# experiments, each on the values that its SCHEMA table reads


@_experiment("dc", {**DOMAIN_W, "tol": Key(0.0, 1e-10, _tolerance)})
def _exp_dc(args):
    mask = build_domain(args["domain"])
    res = onset_threshold(mask, build_w(args["w"], mask), tol=args["tol"])
    return {
        "dc": res.eigenvalue,
        "residual": res.residual,
        "iterations": res.iterations,
    }


@_experiment("relative", {"potential": POTENTIAL, "L": 20.0, "n": 4001,
                         "tol": Key(0.0, 1e-10, _tolerance)})
def _exp_relative(args):
    gs = pairing.solve_relative(args["potential"], L=args["L"], n=args["n"],
                                tol=args["tol"])
    return {
        "E_b": gs.E_b,
        "rho_star": gs.rho_star,
        "g_bcs": gs.g_bcs,
        "g_0": gs.g_0,
        "residual": gs.residual,
    }


def _resolve_d(args):
    """D as a function of the onset threshold: absolute ('D') or an offset
    above it ('D_offset', 1 when neither is given)."""
    if "D" in args and "D_offset" in args:
        raise ConfigError("give either D or D_offset, not both")
    if "D" in args:
        return lambda threshold: args["D"]
    return lambda threshold: threshold + args.get("D_offset", 1.0)


def _gp_setup(args, ells=()):
    """Domain, W, the onset mode and the GP problem of the condensate
    experiments; the domain eroded and dilated by each nonzero ell in
    ``ells`` is built once before the onset solve, to refuse an ell that
    empties the domain or leaves its box."""
    mask = build_domain(args["domain"])
    w = build_w(args["w"], mask)
    d_of = _resolve_d(args)
    for ell in ells:
        if ell != 0.0:  # continuity_scan reuses the base minimizer there
            erode(mask, ell)
            dilate(mask, ell)
    mode = onset_threshold(mask, w, tol=1e-11)
    return gp.GPProblem(mask, w, d_of(mode.eigenvalue), args["g"]), mode


@_experiment("gp-min", {**DOMAIN_W, **D_KEYS, "g": Key(0.0, 1.0, positive),
                       "tol": Key(0.0, 1e-9, _tolerance)})
def _exp_gp_min(args):
    prob, mode = _gp_setup(args)
    sol = gp.minimize_gp(prob, tol=args["tol"], mode=mode)
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


@_experiment("continuity", {**DOMAIN_W, **D_KEYS,
                           "g": Key(0.0, 1.0, positive), "ells": Key([0.0]),
                           "tol": Key(0.0, 1e-9, _tolerance)})
def _exp_continuity(args):
    prob, mode = _gp_setup(args, args["ells"])
    return gp.continuity_scan(prob, args["ells"], tol=args["tol"], mode=mode)


@_experiment("twobody-scan", {"potential": POTENTIAL, "a": 0.0, "b": 1.0,
                             "h_list": Key([0.0], REQUIRED, _fit_h),
                             "micro_step": Key(0.0, 0.125, positive),
                             "q": Key(0.0, 1.5, positive),
                             "tol": Key(0.0, 1e-9, _tolerance)})
def _exp_twobody(args):
    scan_cfg = twobody.TwoBodyScanConfig(
        a=args["a"], b=args["b"], potential=args["potential"],
        micro_step=args["micro_step"], q=args["q"], tol=args["tol"])
    if scan_cfg.b <= scan_cfg.a:
        raise ConfigError(f"b must exceed a, got a={scan_cfg.a}, "
                          f"b={scan_cfg.b}")
    return twobody.asymptotic_scan(scan_cfg, args["h_list"])


def _pair_setup(args, d_of, mode_with_w: bool,
                needs_w: bool = False) -> tuple:
    """What the pair-state experiments share: one ``BCSConfig`` per h
    (largest first), the domain eroded by the largest ell(h) (ell = q h
    ln(1/h) peaks at h = 1/e, not at the largest h), and the onset mode
    there, which includes W only when ``mode_with_w``. D is ``d_of`` its
    threshold. With ``needs_w``, a W that is absent or zero everywhere is
    refused before any solve."""
    mask = build_domain(args["domain"])
    w = build_w(args["w"], mask)
    h_list = sorted(args["h_list"], reverse=True)
    # each BCSConfig refuses its own input, and the eroded domain is built,
    # before any solve
    configs = [bcs.BCSConfig(mask, args["potential"], w, h=h, D=0.0,
                             q=args["q"]) for h in h_list]
    inner = erode(mask, max(c.ell for c in configs))
    if needs_w and (w is None or not np.any(w.values)):
        raise ConfigError("w must be nonzero somewhere on the domain (field "
                          "term)")
    mode = onset_threshold(inner, w if mode_with_w else None, tol=1e-10)
    for c in configs:
        c.D = d_of(mode.eigenvalue)
    return configs, inner, mode


@_experiment("bcs-trial", {**DOMAIN_W, "potential": POTENTIAL, **D_KEYS,
                          "q": Key(0.0, 1.5, positive),
                          "amplitude": Key(0.0, 0.3, _nonzero),
                          "h_list": Key([0.0], REQUIRED, _fit_h)})
def _exp_bcs_trial(args):
    d_of, amp = _resolve_d(args), args["amplitude"]
    configs, _, mode = _pair_setup(args, d_of, mode_with_w=True)
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


@_experiment("semiclassics", {**DOMAIN_W, "potential": POTENTIAL, "D": 1.0,
                             "q": Key(0.0, 1.0, positive),
                             "amplitude": Key(0.0, 0.5, _nonzero),
                             "h_list": Key([0.0], REQUIRED, _fit_h)})
def _exp_semiclassics(args):
    d_val, amp = args["D"], args["amplitude"]
    configs, _, mode = _pair_setup(args, lambda _: d_val, mode_with_w=False,
                                   needs_w=True)
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


@_experiment("hardy", {"domain": OBJECT, "lambda_offset": 0.0,
                      "n_list": [101, 201, 401],
                      "tol": Key(0.0, 1e-8, _tolerance)})
def _exp_hardy(args):
    spec = args["domain"]
    if "mask_file" in spec:
        raise ConfigError("hardy rebuilds a builtin domain at each n of "
                          "n_list; a mask_file has one grid")
    if "n" in spec:
        raise ConfigError("hardy takes n from n_list; remove n from the "
                          "domain")
    lam = args["lambda_offset"]
    rows = []
    for n in args["n_list"]:
        mask = build_domain({**spec, "n": n})
        mu = hardy_quotient(mask, lambda_offset=lam, tol=args["tol"])
        rows.append((n, mu, 2.0 / np.sqrt(mu)))
    return ScanReport(
        columns=["n", "mu_hat", "hardy_constant"],
        rows=rows,
        metadata={"lambda_offset": lam, "mu_max": max(r[1] for r in rows)},
    )


@_experiment("density", {**DOMAIN_W, "potential": POTENTIAL, **D_KEYS,
                        "q": Key(0.0, 1.5, positive), "h_list": Key([0.0])})
def _exp_density(args):
    configs, inner, mode = _pair_setup(args, _resolve_d(args),
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


# ---------------------------------------------------------------------------
# entry point


def _non_finite(summary: dict) -> list:
    """Keys of the NaN or infinite numbers in ``summary``."""
    return [key for key, value in summary.items()
            if isinstance(value, float) and not np.isfinite(value)]


def run(experiment: str, config: dict, out_dir: str) -> int:
    """Run one experiment; returns the process exit code."""
    if experiment not in SCHEMA:
        print(f"unknown experiment {experiment!r}; choose from "
              f"{', '.join(SCHEMA)}", file=sys.stderr)
        return 2
    t0 = time.time()
    try:
        experiment_fn, table = SCHEMA[experiment]
        result = experiment_fn(read_section(config, table))
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
    parser.add_argument("experiment", choices=SCHEMA)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default="paircond-out", help="output directory")
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, not UTF-8
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    return run(args.experiment, config, args.out)


if __name__ == "__main__":
    sys.exit(main())

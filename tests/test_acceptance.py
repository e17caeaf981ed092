"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line with the measured numbers (run with -s to see them inline).
Tolerances are pinned here, not calibrated at run time.
"""

import time

import numpy as np
from scipy.integrate import quad

from conftest import POSCHL_TELLER, inner_product
from order_parameter import (
    COMFrame,
    PairKernel,
    com_norm_split,
    extract_order_parameter,
    pair_kernel_matrix,
    pair_wave,
)
from paircond import bcs
from paircond import geometry as geo
from paircond import gp
from paircond import pairing as pr
from paircond import twobody as tb
from paircond.grid import Grid, ScalarField
from paircond.reporting import fit_power_law
from paircond.spectral import hardy_quotient, onset_threshold


def report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} [{status}] {name}: {detail} "
          f"({elapsed:.1f}s / {budget:.0f}s budget)")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"


def test_01_dirichlet_constant():
    t0 = time.monotonic()
    r1 = onset_threshold(geo.interval(0.0, 1.0, grid=Grid.box(0.0, 1.0, 2001)))
    err1 = abs(r1.eigenvalue - np.pi**2 / 4)
    msq = geo.box_mask([0, 0], [1, 1], grid=Grid.box([0, 0], [1, 1], [401, 401]))
    r2 = onset_threshold(msq)
    err2 = abs(r2.eigenvalue - np.pi**2 / 2)
    dt = time.monotonic() - t0
    report(1, "Dirichlet constant", err1 < 1e-3 and err2 < 5e-3,
           f"interval err {err1:.2e} (tol 1e-3), square err {err2:.2e} (tol 5e-3)",
           dt, 10.0)


def test_02_bound_state():
    t0 = time.monotonic()
    gs = pr.solve_relative(POSCHL_TELLER, L=20.0, n=4001)
    gs.rho_star = pr.fit_decay_rate(gs)
    x = gs.grid.axis(0)
    sup_err = float(np.max(np.abs(gs.alpha_star.values
                                  - 1.0 / np.cosh(x) / np.sqrt(2.0))))
    dt = time.monotonic() - t0
    ok = (abs(gs.E_b - 1.0) < 1e-4 and sup_err < 1e-4
          and abs(gs.rho_star - 1.0) < 0.02)
    report(2, "bound state",
           ok,
           f"E_b err {abs(gs.E_b - 1):.2e} (tol 1e-4), sup err {sup_err:.2e} "
           f"(tol 1e-4), rho {gs.rho_star:.4f} (tol 2%)",
           dt, 5.0)


def test_03_couplings(pt_state):
    t0 = time.monotonic()

    def ahat(p):
        return np.pi / np.sqrt(2.0) / np.cosh(np.pi * p / 2.0)

    g_bcs_oracle = quad(lambda p: (p * p + 1.0) * ahat(p) ** 4,
                        -40, 40, limit=400)[0] / (2 * np.pi)
    g_0_oracle = quad(lambda p: ahat(p) ** 4, -40, 40, limit=400)[0] / (2 * np.pi)
    g_bcs, g_0 = pr.compute_couplings(pt_state)
    rel_bcs = abs(g_bcs - g_bcs_oracle) / g_bcs_oracle
    rel_0 = abs(g_0 - g_0_oracle) / g_0_oracle
    dt = time.monotonic() - t0
    report(3, "couplings", rel_bcs < 1e-5 and rel_0 < 1e-5,
           f"g_bcs rel {rel_bcs:.2e}, g_0 rel {rel_0:.2e} (tol 1e-5)",
           dt, 5.0)


def test_04_twobody_asymptotics():
    t0 = time.monotonic()
    cfg = tb.TwoBodyScanConfig(micro_step=0.125, q=1.5)
    rep = tb.asymptotic_scan(cfg, [0.1, 0.07, 0.05, 0.035, 0.025])
    md = rep.metadata
    dt = time.monotonic() - t0
    # the sandwich is enforced inside asymptotic_scan at every h
    ok = md["threshold_rel_error"] < 0.03
    detail = (f"threshold {md['threshold_estimate']:.4f} vs {md['threshold']:.4f} "
              f"rel {md['threshold_rel_error']:.4f} (tol 3%), "
              f"nu_hat {md['nu_hat']:.2f}, sandwich held at all h")
    report(4, "two-body asymptotics", ok, detail, dt, 600.0)


def test_05_gp_continuity():
    t0 = time.monotonic()
    # convex disk
    mdisk = geo.disk([0, 0], 1.5, grid=Grid.box([-1.85, -1.85], [1.85, 1.85],
                                                [297, 297]))
    d_c = onset_threshold(mdisk, tol=1e-11).eigenvalue
    prob = gp.GPProblem(mdisk, None, d_c + 1.0, 1.0)
    dx = mdisk.grid.spacing[0]
    ells = [4 * dx, 5 * dx, 6 * dx, 7 * dx, 8 * dx]  # spans [4 dx, 0.1]
    disk_rep = gp.continuity_scan(prob, ells)
    exp_int = disk_rep.fits["interior"].exponent
    exp_ext = disk_rep.fits["exterior"].exponent

    # slit square: interior converges, exterior has a positive floor
    mslit = geo.slit_square(n=241)
    d_slit = onset_threshold(mslit, tol=1e-10).eigenvalue
    prob_s = gp.GPProblem(mslit, None, d_slit + 1.0, 1.0)
    dxs = mslit.grid.spacing[0]
    slit_rep = gp.continuity_scan(prob_s, [4 * dxs, 5 * dxs, 6 * dxs, 8 * dxs])
    rows = slit_rep.sorted_rows()
    diffs_int = [r[3] for r in rows]
    diffs_ext = [r[4] for r in rows]
    interior_converges = (all(np.diff(diffs_int) > 0)
                          and slit_rep.fits["interior"].exponent > 0.3)
    exterior_floor = min(diffs_ext) > max(1.0, 2 * max(diffs_int))
    dt = time.monotonic() - t0
    ok = exp_int >= 0.9 and exp_ext >= 0.9 and interior_converges and exterior_floor
    report(5, "GP continuity", ok,
           f"disk exponents int {exp_int:.2f} ext {exp_ext:.2f} (tol >= 0.9); "
           f"slit interior exponent {slit_rep.fits['interior'].exponent:.2f} "
           f"(converges), exterior floor {min(diffs_ext):.2f} > 1",
           dt, 300.0)


def test_06_bcs_gp_upper_bound(bcs_domain, pt_state):
    t0 = time.monotonic()
    h_list = [0.1, 0.07, 0.05, 0.035]
    q = 1.5
    cfg0 = bcs.BCSConfig(bcs_domain, POSCHL_TELLER, None, h=h_list[0], D=0.0,
                         q=q)
    inner = geo.erode(bcs_domain, cfg0.ell)
    mode = onset_threshold(inner, tol=1e-10)
    psi = ScalarField(bcs_domain.grid, 0.30 * mode.eigenvector.values)
    d_val = 2.0
    e_gp = gp.gp_energy(gp.GPProblem(bcs_domain, None, d_val, pt_state.g_bcs),
                        psi)
    diffs = []
    adm_ok = True
    for h in h_list:
        cfg = bcs.BCSConfig(bcs_domain, POSCHL_TELLER, None, h=h, D=d_val, q=q)
        state = bcs.build_trial_state(cfg, psi)
        lo, hi = state.admissibility
        adm_ok &= lo >= -1e-9 and hi <= 1 + 1e-9
        diffs.append(abs(bcs.bcs_energy(cfg, state) / h**3 - e_gp))
    fit = fit_power_law(h_list, diffs)
    dt = time.monotonic() - t0
    ok = fit.exponent >= 0.8 and adm_ok and not fit.refused
    report(6, "BCS-GP upper bound", ok,
           f"|h^-3 E_bcs - E_gp| exponent {fit.exponent:.2f} (tol >= 0.8), "
           f"admissibility in [-1e-9, 1+1e-9]: {adm_ok}",
           dt, 600.0)


def test_07_decomposition_identities(bcs_domain, pt_state):
    t0 = time.monotonic()
    # round trip and norm identity on the wide interval
    cfg = bcs.BCSConfig(bcs_domain, POSCHL_TELLER, None, h=0.05, D=0.0, q=2.0)
    inner = geo.erode(bcs_domain, cfg.ell)
    mode = onset_threshold(inner, tol=1e-10)
    psi = ScalarField(bcs_domain.grid, 0.5 * mode.eigenvector.values)
    frame = COMFrame.build(cfg)
    psi_half = frame.interpolate_to_centers(psi)
    wave = pair_wave(pt_state)
    amat = pair_kernel_matrix(
        cfg, psi_half, lambda v: wave(v * frame.dx / cfg.h), frame).dense()
    alpha = PairKernel(bcs_domain.grid, bcs_domain.grid, amat)
    extracted, xi = extract_order_parameter(cfg, alpha)
    round_trip = float(np.max(np.abs(extracted.values - psi_half)))
    split = com_norm_split(cfg, alpha, extracted, xi)
    identity = abs(split["identity_gap"]) / split["alpha_sq"]

    # nonconvex decay: two intervals, generic symmetric kernel
    grid = Grid.box(-0.1, 1.1, 481)
    x = grid.axis(0)
    inside = ((x > 0.0) & (x < 0.4)) | ((x > 0.6) & (x < 1.0))
    mask2 = geo.DomainMask(grid, inside)
    f = np.where(inside, np.sin(np.pi * np.clip(x, 0, 1)) + 0.5, 0.0)
    kern = np.outer(f, f) * (inside[:, None] & inside[None, :])
    rho = pt_state.rho_star

    def gap_ratios(h):
        c2 = bcs.BCSConfig(mask2, POSCHL_TELLER, None, h=h, D=0.0, q=1.0)
        psi_x, _ = extract_order_parameter(
            c2, PairKernel(grid, grid, kern))
        fr = COMFrame.build(c2)
        pts = mask2.interior_points()[:, 0]
        out = []
        for u, X in enumerate(fr.centers()):
            i, j, v = fr.pair_indices(u)
            if i.size == 0:
                continue
            dist = np.min(np.abs(pts - X))
            if dist < 4 * fr.dx:
                continue  # himself inside the domain or too close
            fiber_norm = np.sqrt(np.sum(kern[i, j] ** 2) * 2 * fr.dx)
            if fiber_norm == 0:
                continue
            out.append(abs(psi_x.values[u])
                       / (np.exp(-2 * rho * dist / h) * fiber_norm))
        return out

    c_fit = max(gap_ratios(0.05))
    worst = max(gap_ratios(0.04))
    decay_ok = worst <= 1.5 * c_fit  # one constant covers both scales
    dt = time.monotonic() - t0
    ok = round_trip < 1e-8 and identity < 1e-8 and decay_ok
    report(7, "decomposition identities", ok,
           f"round trip {round_trip:.1e} (tol 1e-8), norm identity "
           f"{identity:.1e} (tol 1e-8), decay constant {c_fit:.2f} covers "
           f"h=0.04 node-wise: {decay_ok}",
           dt, 120.0)


def test_08_semiclassics(bcs_domain):
    t0 = time.monotonic()
    x = bcs_domain.grid.axis(0)
    w = ScalarField(bcs_domain.grid,
                    np.where(bcs_domain.inside,
                             10.0 * np.exp(-((x - 2.0) / 0.5) ** 2), 0.0))
    q = 1.0
    cfg0 = bcs.BCSConfig(bcs_domain, POSCHL_TELLER, w, h=0.1, D=1.0, q=q)
    inner = geo.erode(bcs_domain, cfg0.ell)
    mode = onset_threshold(inner, tol=1e-10)
    psi = ScalarField(bcs_domain.grid, 0.5 * mode.eigenvector.values)
    h_list = [0.1, 0.07, 0.05, 0.035, 0.025, 0.02]
    ids, fields, q_es, qs = [], [], [], []
    for h in h_list:
        rep = bcs.semiclassics_check(
            bcs.BCSConfig(bcs_domain, POSCHL_TELLER, w, h=h, D=1.0, q=q), psi)
        ids.append(rep.identity_residual)
        fields.append(rep.field_residual)
        q_es.append(rep.quartic_energy_residual)
        qs.append(rep.quartic_residual)
    fit_field = fit_power_law(h_list, fields)
    fit_qe = fit_power_law(h_list, q_es)
    fit_q = fit_power_law(h_list, qs)
    dt = time.monotonic() - t0
    ok = (max(ids) < 1e-4 and fit_field.exponent >= 0.8
          and fit_qe.exponent >= 0.8 and fit_q.exponent >= 0.8)
    report(8, "semiclassics", ok,
           f"identity max {max(ids):.1e} (tol 1e-4); exponents field "
           f"{fit_field.exponent:.2f}, quartic-energy {fit_qe.exponent:.2f}, "
           f"quartic {fit_q.exponent:.2f} (tol >= 0.8)",
           dt, 600.0)


def test_09_hardy_convex():
    t0 = time.monotonic()
    mus_i = []
    for n in (201, 401, 801):
        m = geo.interval(0.0, 1.0, grid=Grid.box(-0.25, 1.25, n))
        mus_i.append(hardy_quotient(m, 0.0))
    mus_s = []
    for n in (71, 141):
        m = geo.box_mask([0, 0], [1, 1],
                         grid=Grid.box([-0.2, -0.2], [1.2, 1.2], [n, n]))
        mus_s.append(hardy_quotient(m, 0.0))
    dt = time.monotonic() - t0
    below = all(mu <= 4.0 + 1e-9 for mu in mus_i + mus_s)
    increasing = all(np.diff(mus_i) > 0) and mus_s[0] < mus_s[1]
    report(9, "Hardy (convex)", below and increasing,
           f"interval {['%.3f' % m for m in mus_i]}, square "
           f"{['%.3f' % m for m in mus_s]}; all <= 4 and increasing",
           dt, 120.0)


def test_10_gp_solver_properties(unit_interval):
    t0 = time.monotonic()
    d_c = np.pi**2 / 4
    prob = gp.GPProblem(unit_interval, None, d_c + 1.0, 1.0)

    # gradient vs central differences at eps = 1e-4 on random fields
    rng = np.random.default_rng(12)
    x = unit_interval.grid.axis(0)
    worst_fd = 0.0
    for _ in range(10):
        psi = unit_interval.field(
            np.abs(rng.standard_normal(unit_interval.count))
            * np.sin(np.pi * x)[unit_interval.inside])
        v = unit_interval.field(rng.standard_normal(unit_interval.count))
        ip = inner_product(gp.gp_gradient(prob, psi), v)
        eps = 1e-4
        plus = ScalarField(psi.grid, psi.values + eps * v.values)
        minus = ScalarField(psi.grid, psi.values - eps * v.values)
        fd = (gp.gp_energy(prob, plus) - gp.gp_energy(prob, minus)) / (2 * eps)
        worst_fd = max(worst_fd, abs(fd - 2 * ip) / abs(2 * ip))

    # restart independence of |psi|^2
    sol_a = gp.minimize_gp(prob, tol=1e-10)
    sol_b = gp.minimize_gp(prob, tol=1e-10, initial=unit_interval.field(
        np.abs(rng.standard_normal(unit_interval.count))))
    dens_gap = float(np.sqrt(np.sum(
        (sol_a.psi.values**2 - sol_b.psi.values**2) ** 2)
        * unit_interval.grid.node_weight))

    # below threshold
    sol_zero = gp.minimize_gp(gp.GPProblem(unit_interval, None, d_c - 0.5, 1.0))
    zero_ok = sol_zero.energy == 0.0 and np.all(sol_zero.psi.values == 0.0)

    # variational ordering
    _, ub = gp.one_mode_upper_bound(prob)
    ordering_ok = sol_a.energy <= ub + 1e-12

    # quadratic onset exponent
    gaps = [0.1, 0.2, 0.4, 0.7, 1.0]
    energies = [-gp.minimize_gp(
        gp.GPProblem(unit_interval, None, d_c + gap, 1.0)).energy
        for gap in gaps]
    fit = fit_power_law(gaps, energies)
    dt = time.monotonic() - t0
    ok = (worst_fd <= 1e-6 and dens_gap <= 1e-6 and zero_ok and ordering_ok
          and abs(fit.exponent - 2.0) <= 0.02)
    report(10, "GP solver properties", ok,
           f"fd rel {worst_fd:.1e} (tol 1e-6), restart gap {dens_gap:.1e} "
           f"(tol 1e-6), zero below threshold: {zero_ok}, one-mode bound: "
           f"{ordering_ok}, onset exponent {fit.exponent:.3f} (2.00 +/- 0.02)",
           dt, 300.0)


def test_11_one_body_density(bcs_domain, pt_state):
    t0 = time.monotonic()
    q = 1.5
    h_list = [0.1, 0.07, 0.05]
    cfg0 = bcs.BCSConfig(bcs_domain, POSCHL_TELLER, None, h=h_list[0], D=0.0,
                         q=q)
    inner = geo.erode(bcs_domain, cfg0.ell)
    mode = onset_threshold(inner, tol=1e-10)
    d_val = mode.eigenvalue + 1.0
    sol = gp.minimize_gp(gp.GPProblem(inner, None, d_val, pt_state.g_bcs),
                         mode=mode)
    psi_star = ScalarField(bcs_domain.grid, sol.psi.values)
    dv = bcs_domain.grid.node_weight
    ind = np.where(bcs_domain.inside, 1.0, 0.0)
    mode_full = onset_threshold(bcs_domain, tol=1e-10).eigenvector.values
    psi_sq = float(np.sum(psi_star.values**2) * dv)

    errs1, errs2, n_rel = [], [], None
    for h in h_list:
        cfg = bcs.BCSConfig(bcs_domain, POSCHL_TELLER, None, h=h, D=d_val, q=q)
        state = bcs.build_trial_state(cfg, psi_star)
        rho = bcs.one_body_density(state).values
        errs1.append(abs(np.sum(rho * ind) * dv / h
                         - np.sum(psi_star.values**2 * ind) * dv))
        errs2.append(abs(np.sum(rho * mode_full) * dv / h
                         - np.sum(psi_star.values**2 * mode_full) * dv))
        if h == 0.05:
            n_part = float(np.sum(rho) * dv)
            n_rel = abs(n_part - h * psi_sq) / (h * psi_sq)
    monotone = all(np.diff(errs1) < 0) and all(np.diff(errs2) < 0)
    dt = time.monotonic() - t0
    ok = monotone and n_rel is not None and n_rel < 0.2
    report(11, "one-body density", ok,
           f"weak errors vs 1: {['%.1e' % e for e in errs1]}, vs mode: "
           f"{['%.1e' % e for e in errs2]} (monotone: {monotone}); particle "
           f"number rel {n_rel:.3f} (tol 20%)",
           dt, 300.0)

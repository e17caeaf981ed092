"""Condensate energy functional on masked domains and its minimization.

The functional is (1/4)|grad psi|^2 + (W - D)|psi|^2 + g|psi|^4 integrated
over the box, with psi zero outside the mask. Gradients are forward
differences of the zero-extended field, which makes the quadratic part agree
exactly (summation by parts) with the masked second-difference Laplacian.

The minimizer is found by preconditioned descent restricted to nonnegative
real fields: minimizers are unique up to a global phase, and taking the
modulus never increases the discrete energy, so the nonnegative
representative is picked from the start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .geometry import DomainMask, dilate, erode
from .grid import ScalarField
from .reporting import ScanReport, fit_power_law
from .spectral import EigenResult, assemble_dirichlet, onset_threshold


class GPError(RuntimeError):
    """Minimizer failure or functional misuse."""


@dataclass
class GPProblem:
    """Masked-domain energy functional data; W is zero outside the mask."""

    mask: DomainMask
    W: ScalarField | None
    D: float
    g: float

    def __post_init__(self):
        if self.g <= 0:
            raise GPError("quartic coupling must be positive")
        if self.W is not None:
            if self.W.grid != self.mask.grid:
                raise GPError("W lives on a different grid")
            self.W.check_finite()

    def w_interior(self) -> np.ndarray:
        if self.W is None:
            return np.zeros(self.mask.count)
        return np.asarray(self.W.values)[self.mask.inside]

    def with_mask(self, mask: DomainMask) -> "GPProblem":
        """Same coefficients on another mask of the same grid (W stays put,
        zero-extended by convention)."""
        if mask.grid != self.mask.grid:
            raise GPError("replacement mask lives on a different grid")
        w = None
        if self.W is not None:
            w = ScalarField(mask.grid, np.where(self.mask.inside, self.W.values, 0.0))
        return GPProblem(mask, w, self.D, self.g)


@dataclass
class GPSolution:
    psi: ScalarField
    energy: float
    el_residual: float
    iterations: int


def _check_dirichlet(prob: GPProblem, psi: ScalarField):
    if psi.grid != prob.mask.grid:
        raise GPError("field lives on a different grid")
    outside = np.asarray(psi.values)[~prob.mask.inside]
    if outside.size and np.max(np.abs(outside)) != 0.0:
        raise GPError("field is not Dirichlet on the mask (nonzero outside)")


def gradient_energy(psi: ScalarField) -> float:
    """Sum over forward differences of the zero-extended field; equals
    <psi, -Lap psi> for the masked stencil."""
    grid = psi.grid
    vals = np.asarray(psi.values, dtype=float)
    total = 0.0
    for a in range(grid.dim):
        d = np.diff(vals, axis=a) / grid.spacing[a]
        total += float(np.sum(d * d))
    return total * grid.node_weight


def gp_energy(prob: GPProblem, psi: ScalarField) -> float:
    """(1/4) int |grad psi|^2 + int (W - D)|psi|^2 + g int |psi|^4."""
    _check_dirichlet(prob, psi)
    vals = np.asarray(psi.values)[prob.mask.inside]
    w = prob.w_interior()
    dv = prob.mask.grid.node_weight
    quad = float(np.sum((w - prob.D) * vals**2) * dv)
    quart = float(prob.g * np.sum(vals**4) * dv)
    return 0.25 * gradient_energy(psi) + quad + quart


def _el_interior(prob: GPProblem, lap, vals: np.ndarray) -> np.ndarray:
    """-(1/4) Lap psi + (W - D) psi + 2 g psi^3 on the interior nodes."""
    return (
        -0.25 * (lap @ vals)
        + (prob.w_interior() - prob.D) * vals
        + 2.0 * prob.g * vals**3
    )


def gp_gradient(prob: GPProblem, psi: ScalarField) -> ScalarField:
    """Euler-Lagrange field of the functional, restricted to the mask.

    Note the normalization: the Gateaux derivative of the energy along v is
    2 * <gp_gradient(psi), v> (the conventional factor for quadratic-plus-
    quartic functionals of a real field).
    """
    _check_dirichlet(prob, psi)
    lap = assemble_dirichlet(prob.mask, 1.0).matrix
    vals = np.asarray(psi.values, dtype=float)[prob.mask.inside]
    return prob.mask.field(_el_interior(prob, lap, vals))


def _el_residual_norm(prob: GPProblem, lap, vals: np.ndarray) -> float:
    r = _el_interior(prob, lap, vals)
    return float(np.linalg.norm(r)) * np.sqrt(prob.mask.grid.node_weight)


def minimize_gp(
    prob: GPProblem,
    tol: float = 1e-9,
    max_iter: int = 2000,
    seed: int | None = 0,
    initial: ScalarField | None = None,
    mode: EigenResult | None = None,
) -> GPSolution:
    """Descend to the nonnegative minimizer.

    Preconditioned gradient descent: direction -(K + s)^{-1} grad E with K
    the quarter-Laplacian plus the positive part of (W - D), an Armijo
    backtracking line search, and a projection onto nonnegative fields
    (which never increases the energy). Converged when the Euler-Lagrange
    residual is below tol * (1 + |psi|_H1).

    Initialization follows the one-mode bound: theta * (ground mode) when D
    exceeds the threshold, else a small random field to probe for descent
    directions.
    """
    mask = prob.mask
    lap = assemble_dirichlet(mask, 1.0).matrix  # plain Laplacian, interior
    w = prob.w_interior()
    dv = mask.grid.node_weight

    if mode is None:
        mode = onset_threshold(mask, prob.W, tol=1e-11)
    d_c = mode.eigenvalue

    rng = np.random.default_rng(seed)
    if initial is not None:
        _check_dirichlet(prob, initial)
        vals = np.abs(np.asarray(initial.values, dtype=float)[mask.inside])
    else:
        mode_vals = np.asarray(mode.eigenvector.values)[mask.inside]
        if prob.D > d_c:
            quart = float(np.sum(mode_vals**4) * dv)
            theta = np.sqrt((prob.D - d_c) / (2.0 * prob.g * quart))
            vals = theta * np.abs(mode_vals)
        else:
            vals = 1e-4 * np.abs(rng.standard_normal(mask.count))

    # preconditioner: quarter-Laplacian + positive curvature floor
    shift = max(1.0, prob.D - float(np.min(w)) if w.size else prob.D, 1e-2)
    stiff = -0.25 * lap
    precond = splu((stiff + sparse.diags(np.maximum(w - prob.D, 0.0))
                    + shift * sparse.identity(mask.count, format="csr")).tocsc())

    def energy_of(v):
        quad = float(np.sum((w - prob.D) * v**2) * dv)
        quart = float(prob.g * np.sum(v**4) * dv)
        kin = 0.25 * float(v @ (-lap @ v)) * dv
        return kin + quad + quart

    def norms_of(v):
        el = _el_interior(prob, lap, v)
        res = float(np.linalg.norm(el)) * np.sqrt(dv)
        h1 = float(np.sqrt(float(v @ (-lap @ v)) * dv + np.sum(v**2) * dv))
        return el, res, h1

    e = energy_of(vals)
    step = 1.0
    it = 0
    stalled = False
    # phase 1: monotone preconditioned descent with Armijo backtracking;
    # the Newton phase below owns the endgame, so this only needs to reach
    # the basin of the minimizer
    phase1_cap = min(max_iter, 120)
    for it in range(1, phase1_cap + 1):
        el, res, h1 = norms_of(vals)
        if res <= tol * (1.0 + h1) or stalled:
            break
        grad = 2.0 * el  # Gateaux derivative
        direction = -precond.solve(grad)
        slope = float(grad @ direction) * dv
        if slope >= 0:
            direction = -grad
            slope = float(grad @ direction) * dv
        alpha = min(step * 1.5, 1.5)
        accepted = False
        for _ in range(60):
            trial = np.maximum(vals + alpha * direction, 0.0)
            e_trial = energy_of(trial)
            if e_trial <= e + 1e-4 * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            # improvements are below the fp resolution of the energy;
            # hand over to the Newton refinement
            stalled = True
            continue
        if e_trial > e + 1e-14 * max(abs(e), 1.0):
            raise GPError("descent step increased the energy")
        vals, e, step = trial, e_trial, alpha

    # phase 2: damped Newton on the Euler-Lagrange system, immune to the
    # energy-comparison floor that stalls the line search
    el, res, h1 = norms_of(vals)
    for _ in range(max(30, max_iter - phase1_cap)):
        if res <= tol * (1.0 + h1):
            break
        hess = (stiff + sparse.diags(w - prob.D + 6.0 * prob.g * vals**2)).tocsc()
        try:
            delta = splu(hess).solve(-el)
        except RuntimeError:
            break
        improved = False
        damp = 1.0
        for _ in range(12):
            trial = np.maximum(vals + damp * delta, 0.0)
            el_t, res_t, h1_t = norms_of(trial)
            if res_t < res:
                vals, el, res, h1 = trial, el_t, res_t, h1_t
                improved = True
                break
            damp *= 0.5
        if not improved:
            break
        it += 1
    e = energy_of(vals)
    if res > tol * (1.0 + h1):
        raise GPError(
            f"minimizer did not converge (residual {res:.3e}, "
            f"target {tol * (1.0 + h1):.3e}); the target may sit below "
            "the floating-point floor of this grid"
        )

    # zero is always admissible; below threshold the minimizer is zero
    if e >= -1e-14 * (1.0 + abs(prob.D)):
        vals = np.zeros_like(vals)
        e = 0.0
    psi = mask.field(vals)
    res = _el_residual_norm(prob, lap, vals)
    return GPSolution(psi, e, res, it)


def one_mode_upper_bound(prob: GPProblem, mode: EigenResult | None = None) -> tuple:
    """Optimal amplitude and energy of the single-mode trial field.

    With psi_1 the normalized ground mode of the quarter-Laplacian plus W
    and D_c its eigenvalue: theta^2 = (D - D_c) / (2 g |psi_1|_4^4) and
    energy = -(D - D_c)^2 / (4 g |psi_1|_4^4); (0, 0) when D <= D_c.
    """
    if mode is None:
        mode = onset_threshold(prob.mask, prob.W, tol=1e-11)
    d_c = mode.eigenvalue
    if prob.D <= d_c:
        return 0.0, 0.0
    vals = np.asarray(mode.eigenvector.values)[prob.mask.inside]
    quart = float(np.sum(vals**4)) * prob.mask.grid.node_weight
    theta = float(np.sqrt((prob.D - d_c) / (2.0 * prob.g * quart)))
    energy = -((prob.D - d_c) ** 2) / (4.0 * prob.g * quart)
    return theta, float(energy)


def continuity_scan(
    prob: GPProblem,
    ells,
    tol: float = 1e-9,
    fit_window: tuple | None = None,
) -> ScanReport:
    """Energy differences under interior and exterior domain approximations.

    For each ell the functional is minimized on the eroded and on the
    dilated mask; the report rows are (ell, energy_interior, energy_exterior,
    diff_interior, diff_exterior) and the fitted power laws of both
    difference columns are attached (a refused fit is kept, flagged).
    The orderings E(dilated) <= E(domain) <= E(eroded) are enforced.
    """
    base = minimize_gp(prob, tol=tol)
    rows = []
    slack = max(1e-10, 100 * tol)
    for ell in sorted(float(e) for e in ells):
        if ell == 0.0:
            e_int = e_ext = base.energy
        else:
            e_int = minimize_gp(prob.with_mask(erode(prob.mask, ell)), tol=tol).energy
            e_ext = minimize_gp(prob.with_mask(dilate(prob.mask, ell)), tol=tol).energy
        if e_ext > base.energy + slack or base.energy > e_int + slack:
            raise GPError(
                f"domain-monotonicity ordering violated at ell={ell}: "
                f"{e_ext} <= {base.energy} <= {e_int} expected"
            )
        rows.append((ell, e_int, e_ext, abs(e_int - base.energy),
                     abs(e_ext - base.energy)))

    report = ScanReport(
        columns=["ell", "energy_interior", "energy_exterior",
                 "diff_interior", "diff_exterior"],
        rows=rows,
        metadata={"base_energy": base.energy, "D": prob.D, "g": prob.g},
    )
    window = [r for r in rows if r[0] > 0]
    if fit_window is not None:
        window = [r for r in window if fit_window[0] <= r[0] <= fit_window[1]]
    if len(window) >= 3:
        ell_v = [r[0] for r in window]
        for name, col in (("interior", 3), ("exterior", 4)):
            vals = [r[col] for r in window]
            if all(v > 0 for v in vals):
                report.fits[name] = fit_power_law(ell_v, vals)
    return report

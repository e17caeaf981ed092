"""Linear pair operator on the product domain: ground energy, the decoupled
reference value, the diamond trial state, and the small-h asymptotic scan.

The operator is (h^2/2)(-Lap_x + W(x) - Lap_y + W(y)) + V((x-y)/h) on the
product of a one-dimensional Dirichlet domain with itself; as a grid object
it is an ordinary 2D stencil problem with potential (h^2/2)(W(x) + W(y)) +
V((x-y)/h) and Laplacian coefficient -h^2/2. Pure-relative functions feel
the three-point stencil at micro step spacing/h, so scans refine the grid
proportionally to h (fixed micro step) and quote slopes against the
lattice-matched binding energy; that cancels the relative-direction
discretization error, which would otherwise swamp the h^2 level being
measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import DomainMask, erode, interval
from .grid import Grid, ScalarField
from .pairing import (
    MatchedRelativeState,
    matched_relative_state,
    potential_from_descriptor,
    smoothstep_cutoff,
    solve_relative,
)
from .reporting import ScanReport, fit_power_law
from .spectral import (
    EigenResult,
    StencilOperator,
    assemble_dirichlet,
    onset_threshold,
    smallest_eigenpair,
)

MAX_PRODUCT_UNKNOWNS = 400_000


class TwoBodyError(RuntimeError):
    """Product-problem construction or solver failure."""


@dataclass
class TwoBodyProblem:
    """Pair operator data on a d=1 domain; the product stencil is cached."""

    mask: DomainMask
    potential: dict
    W: ScalarField | None
    h: float
    _op: StencilOperator | None = field(default=None, repr=False)
    _pmask: DomainMask | None = field(default=None, repr=False)
    _matched: MatchedRelativeState | None = field(default=None, repr=False)
    _threshold: float | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.mask.grid.dim != 1:
            raise TwoBodyError("product eigensolves are supported in d=1 only")
        if self.mask.count**2 > MAX_PRODUCT_UNKNOWNS:
            raise TwoBodyError(
                f"product grid at h={self.h} has {self.mask.count**2} "
                f"unknowns, over the {MAX_PRODUCT_UNKNOWNS} budget"
            )
        if self.W is not None and self.W.grid != self.mask.grid:
            raise TwoBodyError("W lives on a different grid")

    @property
    def micro_step(self) -> float:
        return self.mask.grid.spacing[0] / self.h

    def matched_state(self) -> MatchedRelativeState:
        if self._matched is None:
            self._matched = matched_relative_state(self.potential, self.micro_step)
        return self._matched

    def product_mask(self) -> DomainMask:
        if self._pmask is None:
            g = self.mask.grid
            pgrid = Grid.box([g.lower[0]] * 2, [g.upper[0]] * 2, [g.n[0]] * 2)
            inside = self.mask.inside[:, None] & self.mask.inside[None, :]
            self._pmask = DomainMask(pgrid, inside)
        return self._pmask

    def operator(self) -> StencilOperator:
        """2D Dirichlet stencil of the pair operator."""
        if self._op is None:
            pmask = self.product_mask()
            x = self.mask.grid.axis(0)
            vfun = potential_from_descriptor(self.potential)
            pot = vfun((x[:, None] - x[None, :]) / self.h)
            if self.W is not None:
                w = np.asarray(self.W.values)
                pot = pot + 0.5 * self.h**2 * (w[:, None] + w[None, :])
            self._op = assemble_dirichlet(pmask, -0.5 * self.h**2,
                                          pmask.field(pot))
        return self._op

    def com_threshold(self) -> float:
        """Ground eigenvalue of the quarter-Laplacian plus W on the domain."""
        if self._threshold is None:
            self._threshold = onset_threshold(self.mask, self.W, tol=1e-11).eigenvalue
        return self._threshold


def ground_energy(prob: TwoBodyProblem, tol: float = 1e-9) -> EigenResult:
    """Smallest eigenpair of the pair operator. The eigenvector (a 2D field
    over the product grid) must be exchange symmetric."""
    res = smallest_eigenpair(prob.operator(), tol=tol)
    vec = np.asarray(res.eigenvector.values)
    sym = float(np.linalg.norm(vec - vec.T) / max(np.linalg.norm(vec), 1e-300))
    if sym > 1e-8:
        raise TwoBodyError(f"ground state not exchange symmetric ({sym:.2e})")
    return res


def decoupled_lower_bound(prob: TwoBodyProblem, matched: bool = False,
                          binding_energy: float | None = None) -> float:
    """-E_b + h^2 D_c: the exact ground energy once the Dirichlet condition
    in the relative variable is dropped.

    With ``matched=True`` the binding energy of the micro-lattice relative
    problem is used instead of the continuum one (the right reference for
    the discretized operator); an explicit ``binding_energy`` overrides.
    """
    if binding_energy is not None:
        e_b = binding_energy
    elif matched:
        e_b = prob.matched_state().E_b
    else:
        e_b = solve_relative(prob.potential, couplings=False).E_b
    return -e_b + prob.h**2 * prob.com_threshold()


def twobody_trial_upper_bound(prob: TwoBodyProblem, q: float = 1.5) -> float:
    """Rayleigh quotient of the diamond trial state
    psi_ell((x+y)/2) chi((x-y)/ell) alpha((x-y)/h) with ell = q h ln(1/h).

    Any trial vector bounds the ground energy from above, so interpolating
    the center mode to midpoints costs nothing in rigor. The trial vanishes
    on the product-domain boundary by construction.
    """
    h = prob.h
    ell = q * h * math.log(1.0 / h)
    dx = prob.mask.grid.spacing[0]
    if ell < 4 * dx:
        raise TwoBodyError(f"ell(h)={ell:.4g} under-resolved (4 dx = {4 * dx:.4g})")
    inner = erode(prob.mask, ell)
    mode = onset_threshold(inner, tol=1e-11)
    full = np.asarray(mode.eigenvector.values)

    matched = prob.matched_state()
    n = prob.mask.grid.n[0]
    vals_half = np.empty(2 * n - 1)
    vals_half[0::2] = full
    vals_half[1::2] = 0.5 * (full[:-1] + full[1:])
    idx = np.arange(n)
    psi_mid = vals_half[idx[:, None] + idx[None, :]]
    v_idx = idx[:, None] - idx[None, :]
    trial = psi_mid * smoothstep_cutoff(v_idx * dx / ell) \
        * matched.evaluate_lattice(v_idx)
    pmask = prob.product_mask()
    trial[~pmask.inside] = 0.0

    tvec = trial[pmask.inside]
    nrm = float(tvec @ tvec)
    if nrm <= 0:
        raise TwoBodyError("trial state vanished; ell too large for the domain")
    return float(tvec @ (prob.operator().matrix @ tvec)) / nrm


def richardson_disc_error(prob: TwoBodyProblem, e_fine: float,
                          tol: float = 1e-9) -> float:
    """Discretization-error estimate: solve again on a ~sqrt(2)-coarser
    domain grid (same h) and extrapolate the second-order difference."""
    grid = prob.mask.grid
    n_coarse = max((int(grid.n[0] / math.sqrt(2.0)) | 1), 9)
    coarse_mask = _rebuild_interval_mask(prob.mask, n_coarse)
    w = _resample_w(prob.W, coarse_mask)
    coarse = TwoBodyProblem(coarse_mask, prob.potential, w, prob.h)
    e_coarse = ground_energy(coarse, tol=tol).eigenvalue
    ratio = (grid.n[0] - 1) / (n_coarse - 1)
    return abs(e_fine - e_coarse) / (ratio**2 - 1.0)


def _rebuild_interval_mask(mask: DomainMask, n: int) -> DomainMask:
    grid = mask.grid
    pts = mask.interior_points()[:, 0]
    a = pts.min() - 0.5 * grid.spacing[0]
    b = pts.max() + 0.5 * grid.spacing[0]
    newgrid = Grid.box(grid.lower[0], grid.upper[0], n)
    return interval(a, b, grid=newgrid)


def _resample_w(W: ScalarField | None, mask: DomainMask) -> ScalarField | None:
    if W is None:
        return None
    x_old = W.grid.axis(0)
    x_new = mask.grid.axis(0)
    vals = np.interp(x_new, x_old, np.asarray(W.values))
    return mask.field(vals)


@dataclass
class TwoBodyScanConfig:
    """Scan template: domain endpoints, potential, W profile (callable or
    None), micro step and trial-support exponent."""

    a: float = 0.0
    b: float = 1.0
    potential: dict = field(default_factory=lambda: {"kind": "poschl_teller",
                                                     "depth": 2.0})
    w_profile: object = None
    micro_step: float = 0.125
    q: float = 1.5
    tol: float = 1e-9
    richardson: bool = True


def problem_at(cfg: TwoBodyScanConfig, h: float) -> TwoBodyProblem:
    """Build the product problem at this h with the template's micro step."""
    width = cfg.b - cfg.a
    dx_target = cfg.micro_step * h
    n = max(int(round(width / dx_target)) + 1, 17)
    grid = Grid.box(cfg.a, cfg.b, n)
    mask = interval(cfg.a, cfg.b, grid=grid)
    w = None
    if cfg.w_profile is not None:
        x = grid.axis(0)
        w = ScalarField(grid, np.where(mask.inside, cfg.w_profile(x), 0.0))
    return TwoBodyProblem(mask, cfg.potential, w, h)


def asymptotic_scan(cfg: TwoBodyScanConfig, h_list) -> ScanReport:
    """Ground energies across h with the sandwich check and asymptotic fits.

    Rows: (h, ground, lower, upper, slope_partial) with slope_partial =
    (E0 + E_b_matched)/h^2, which tends to the domain threshold. The
    sandwich lower - eps <= E0 <= upper is enforced at every h, with eps the
    Richardson discretization estimate. The residual exponent nu_hat is
    fitted from the three smallest h only.
    """
    h_list = sorted(set(float(h) for h in h_list), reverse=True)
    if len(h_list) < 3:
        raise TwoBodyError("need at least 3 scale ratios")
    e_b_continuum = solve_relative(cfg.potential, couplings=False).E_b
    rows = []
    residuals = []
    d_c = None
    for h in h_list:
        prob = problem_at(cfg, h)
        matched_eb = prob.matched_state().E_b
        res = ground_energy(prob, tol=cfg.tol)
        e0 = res.eigenvalue
        lower = decoupled_lower_bound(prob, binding_energy=e_b_continuum)
        upper = twobody_trial_upper_bound(prob, q=cfg.q)
        d_c = prob.com_threshold()
        if cfg.richardson:
            eps = richardson_disc_error(prob, e0, tol=cfg.tol)
        else:
            eps = 10.0 * abs(matched_eb - e_b_continuum)
        if not (lower - eps <= e0 <= upper + cfg.tol * max(1.0, abs(upper))):
            raise TwoBodyError(
                f"sandwich violated at h={h}: {lower} - {eps} <= {e0} <= {upper}"
            )
        slope_partial = (e0 + matched_eb) / h**2
        residuals.append(e0 + matched_eb - h**2 * d_c)
        rows.append((h, e0, lower, upper, slope_partial))

    report = ScanReport(
        columns=["h", "ground_energy", "lower_bound", "upper_bound",
                 "slope_partial"],
        rows=rows,
        metadata={"threshold": d_c, "micro_step": cfg.micro_step, "q": cfg.q,
                  "binding_energy": e_b_continuum},
    )
    slopes = np.array([r[4] for r in rows])
    report.metadata["slope_mean"] = float(np.mean(slopes))
    # the quadratic coefficient carries a genuine O(h^nu) correction that is
    # not small over desk-scale h; its h -> 0 limit is estimated by the
    # intercept of the linear model slope_partial = a + b h
    lin = fit_power_law(np.array(h_list), slopes, model="linear")
    report.fits["threshold"] = lin
    report.metadata["threshold_estimate"] = lin.prefactor
    report.metadata["threshold_rel_error"] = float(
        abs(lin.prefactor - d_c) / abs(d_c)
    )
    # residual exponent from the three smallest h (preasymptotic guard)
    small = sorted(zip(h_list, residuals))[:3]
    hs = [s[0] for s in small]
    rs = [s[1] for s in small]
    if all(r > 0 for r in rs):
        fit = fit_power_law(hs, rs)
        report.fits["residual"] = fit
        report.metadata["nu_hat"] = fit.exponent - 2.0
    else:
        report.metadata["nu_hat"] = None
    return report

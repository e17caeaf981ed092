"""Linear pair operator on the product domain: ground energy, the decoupled
reference value, the diamond trial state, and the small-h asymptotic scan.

The operator is (h^2/2)(-Lap_x - Lap_y) + V((x-y)/h) on the product of a
one-dimensional Dirichlet domain with itself; as a grid object it is an
ordinary 2D stencil problem with potential V((x-y)/h) and Laplacian
coefficient -h^2/2. Pure-relative functions feel the three-point stencil at
micro step spacing/h, so scans refine the grid proportionally to h (fixed
micro step) and quote slopes against the lattice-matched binding energy;
that cancels the relative-direction discretization error, which would
otherwise swamp the h^2 level being measured.

The operator A is assembled and solved only on the fundamental domain of
its symmetry group G (``spectral.Orbits``). The potential is even in x - y,
so A commutes with the exchange P of x and y; when the mask is symmetric
about the domain's midpoint, exactly, A also commutes with the reflection
R(x, y) = (a+b-y, a+b-x), and the fundamental domain is about a quarter of
the product grid; a scan's interval always is.
``spectral.mirror_orbits`` finds G from ``PAIR_SYMMETRIES``.

A scan makes one ground solve per h, and it starts close to its answer.
The shift sits ``SHIFT_MARGIN`` E_b below the decoupled estimate
-E_b + h^2 D_c, and the eigensolve starts from the diamond trial vector
that gives the upper bound. The completed factor (``spectral.splu``) still
certifies the shift, and the residual target is the same as without a
start. The discretization error that widens the lower side of the sandwich
is read off the ground vector itself (``leading_disc_error``), with no
second solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bcs import center_values, pair_kernel
from .geometry import DomainMask, erode, interval
from .grid import ConfigError, Grid
from .pairing import (
    RelativeGroundState,
    lattice_neg_laplacian,
    lattice_pair_field,
    matched_relative_state,
    micro_lattice_k_max,
    potential_from_descriptor,
    solve_relative,
)
from .reporting import ScanReport, fit_power_law
from .spectral import (
    EigenResult,
    Orbits,
    StencilOperator,
    mirror_orbits,
    onset_threshold,
)

# counts all n^2 nodes of the product grid, not the fundamental domain that
# is solved: the trial kernel and the unfolded ground field are dense n x n
MAX_PRODUCT_UNKNOWNS = 400_000
# fewest nodes on a scan's domain axis at any h; a scan that asks for fewer
# is refused before any solve
MIN_AXIS_NODES = 17
# the ground solve's shift sits this fraction of E_b below its estimate of
# lambda_1, -E_b + h^2 D_c; on [0, 1] with Poschl-Teller wells of depth 1.9
# to 2.1 and micro step 0.125, the estimate lies below lambda_1 by
# (2.2-2.7)e-3 E_b at h = 0.07 and (2.5-3.1)e-4 E_b at h = 0.035
SHIFT_MARGIN = 0.01
# the generators of the pair operator's symmetry group, as (flipped axes,
# transpose) of ``spectral.mirror_orbits``: the exchange P(x, y) = (y, x),
# and the reflection R, both axes flipped and then transposed
PAIR_SYMMETRIES = (((), True), ((0, 1), True))


class TwoBodyError(RuntimeError):
    """Product-problem failure found by solving."""


@dataclass
class TwoBodyProblem:
    """Pair operator data on a d=1 domain; the product stencil, the matched
    relative state and the centre-of-mass threshold are computed when first
    asked for, then cached. A problem refuses its own input with
    ``ConfigError`` before any array exists: a domain that is not 1D, a
    product grid over ``MAX_PRODUCT_UNKNOWNS`` and a micro lattice that
    ``micro_lattice_k_max`` refuses."""

    mask: DomainMask
    potential: dict
    h: float

    def __post_init__(self):
        if self.mask.grid.dim != 1:
            raise ConfigError("product eigensolves are supported in d=1 only")
        if self.mask.count**2 > MAX_PRODUCT_UNKNOWNS:
            raise ConfigError(
                f"product grid at h={self.h} has {self.mask.count**2} "
                f"nodes, over the {MAX_PRODUCT_UNKNOWNS} budget"
            )
        micro_lattice_k_max(self.micro_step)

    @property
    def micro_step(self) -> float:
        return self.mask.grid.spacing[0] / self.h

    @cached_property
    def matched_state(self) -> RelativeGroundState:
        return matched_relative_state(self.potential, self.micro_step)

    def product_mask(self) -> DomainMask:
        g = self.mask.grid
        pgrid = Grid.box([g.lower[0]] * 2, [g.upper[0]] * 2, [g.n[0]] * 2)
        return DomainMask(pgrid, self.mask.inside[:, None] & self.mask.inside[None, :])

    def operator(self) -> StencilOperator:
        """The pair operator on the G-invariant fields, B = S^T A S, as a
        stencil on the fundamental domain of G (``orbits``)."""
        return self._reduced

    @cached_property
    def _potential(self) -> np.ndarray:
        # V on the lattice separations |i - j| dx / h, so exactly invariant
        # under P and R
        n = self.mask.grid.n[0]
        i, j = np.indices((n, n))
        k = np.arange(n)
        vfun = potential_from_descriptor(self.potential)
        return vfun(k * self.mask.grid.spacing[0] / self.h)[np.abs(i - j)]

    @cached_property
    def orbits(self) -> Orbits:
        """The orbits of G, the symmetries of ``PAIR_SYMMETRIES`` that map the
        product mask and the potential on it onto themselves exactly."""
        pmask = self.product_mask()
        return mirror_orbits(pmask, pmask.field(self._potential),
                             PAIR_SYMMETRIES)

    @cached_property
    def _reduced(self) -> StencilOperator:
        return self.orbits.stencil(-0.5 * self.h**2,
                                   self.orbits.reduced.field(self._potential))

    @cached_property
    def com_threshold(self) -> float:
        """Ground eigenvalue of the quarter-Laplacian on the domain."""
        return onset_threshold(self.mask, tol=1e-11).eigenvalue


def ground_energy(prob: TwoBodyProblem, tol: float = 1e-9,
                  sigma: float | None = None,
                  start: np.ndarray | None = None) -> EigenResult:
    """Smallest eigenpair of the pair operator A, solved on the fundamental
    domain of its symmetry group (``spectral.Orbits.ground_state``); the
    eigenvector is the G-invariant field on the product grid.

    ``sigma`` is a shift estimate a little below lambda_1. With none the
    solve shifts to the Gershgorin floor of A's rows; a refused one falls
    back to the reduced operator's own Gershgorin shift, at the cost of one
    more factorization. ``asymptotic_scan`` passes the problem's own
    decoupled value -E_b + h^2 D_c with the lattice-matched E_b, lowered by
    ``SHIFT_MARGIN`` E_b. ``start`` is a vector on the reduced mask, in the
    order of its ``field``, that the eigensolve starts from (see
    ``spectral.smallest_eigenpair``); it saves LU solves and certifies
    nothing.
    """
    return prob.orbits.ground_state(prob.operator(), tol, sigma, start)


def decoupled_lower_bound(prob: TwoBodyProblem, binding_energy: float) -> float:
    """-E_b + h^2 D_c: the exact ground energy once the Dirichlet condition
    in the relative variable is dropped, for the binding energy E_b of the
    continuum relative problem (or of the micro-lattice one, the reference
    for the discretized operator)."""
    return -binding_energy + prob.h**2 * prob.com_threshold


def trial_support(prob: TwoBodyProblem, q: float) -> tuple:
    """ell = q h ln(1/h), checked against the grid, and the domain eroded by
    ell, where the trial state's centre-of-mass mode lives."""
    ell = q * prob.h * math.log(1.0 / prob.h)
    dx = prob.mask.grid.spacing[0]
    if ell < 4 * dx:
        raise ConfigError(f"ell(h)={ell:.4g} under-resolved "
                          f"(4 dx = {4 * dx:.4g})")
    return ell, erode(prob.mask, ell)


def twobody_trial_upper_bound(prob: TwoBodyProblem,
                              q: float = 1.5) -> tuple[float, np.ndarray]:
    """Rayleigh quotient of the diamond trial state
    psi_ell((x+y)/2) chi((x-y)/ell) alpha((x-y)/h) with ell = q h ln(1/h),
    and the trial vector u = S^T t on the reduced mask it is taken of.

    Any trial vector bounds the ground energy from above, so interpolating
    the center mode to midpoints costs nothing in rigor. The trial vanishes
    on the product-domain boundary by construction. u lies close to the
    ground vector, so ``asymptotic_scan`` starts its ground solve from it.
    """
    h = prob.h
    ell, inner = trial_support(prob, q)
    mode = onset_threshold(inner, tol=1e-11)
    wave = lattice_pair_field(prob.matched_state, ell / h, 1.0)
    trial = pair_kernel(center_values(mode.eigenvector.values), wave,
                        prob.mask.inside).dense()
    reduced = prob.operator()
    # u = S^T t: its Rayleigh quotient against B bounds lambda_min(B) = E0
    # from above, as that of any nonzero vector does
    u = prob.orbits.fold(trial)
    nrm = float(u @ u)
    if nrm <= 0:
        raise TwoBodyError("trial state vanished; ell too large for the domain")
    return float(u @ (reduced.matrix @ u)) / nrm, u


def _shift_estimate(prob: TwoBodyProblem) -> float:
    """The ground solve's shift: the decoupled value -E_b + h^2 D_c with the
    lattice-matched E_b, lowered by ``SHIFT_MARGIN`` E_b."""
    e_b = prob.matched_state.E_b
    return decoupled_lower_bound(prob, binding_energy=e_b) - SHIFT_MARGIN * e_b


def leading_disc_error(prob: TwoBodyProblem, ground: EigenResult) -> float:
    """Discretization-error estimate of ``ground``, the ground eigenpair of
    ``prob``, read off its own vector.

    The three-point second difference is d^2/dx^2 + (dx^2/12) d^4/dx^4 +
    O(dx^4), so the eigenvalue error of -(h^2/2) Lap on the grid is, to
    leading order, (h^2/2)(dx^2/12)(||d_x^2 u||^2 + ||d_y^2 u||^2) for the
    unit eigenfunction u: the term that Richardson extrapolation cancels.
    It is taken of the G-invariant product field F that ``ground_energy``
    returns, with the second differences summed over the product domain's
    nodes. The exact d^2 u vanishes on a Dirichlet wall, where u and Lap u
    do; the difference on a wall node, -F_1/dx^2, would add a spurious O(dx)
    term.
    """
    sym = np.asarray(ground.eigenvector.values)
    dx = prob.mask.grid.spacing[0]
    inside = prob.product_mask().inside
    curvature = sum(np.sum(lattice_neg_laplacian(sym, dx, axis)[inside]**2)
                    for axis in (0, 1))
    return float(0.5 * prob.h**2 * dx**2 / 12.0 * curvature / np.sum(sym**2))


@dataclass
class TwoBodyScanConfig:
    """Scan template: domain endpoints, potential, micro step and
    trial-support exponent."""

    a: float = 0.0
    b: float = 1.0
    potential: dict = field(default_factory=lambda: {"kind": "poschl_teller",
                                                     "depth": 2.0})
    micro_step: float = 0.125
    q: float = 1.5
    tol: float = 1e-9


def problem_at(cfg: TwoBodyScanConfig, h: float) -> TwoBodyProblem:
    """Build the product problem at this h with the template's micro step;
    refused when that step leaves fewer than ``MIN_AXIS_NODES`` nodes on
    [a, b]."""
    width = cfg.b - cfg.a
    dx_target = cfg.micro_step * h
    steps = width / dx_target if dx_target > 0 else math.inf
    if not math.isfinite(steps):
        raise ConfigError(f"micro step {cfg.micro_step} at h={h} is too "
                          "small to lay a grid")
    n = int(round(steps)) + 1
    if n < MIN_AXIS_NODES:
        raise ConfigError(
            f"micro step {cfg.micro_step} at h={h} leaves {n} of the "
            f"{MIN_AXIS_NODES} nodes the product grid needs on "
            f"[{cfg.a}, {cfg.b}]"
        )
    mask = interval(cfg.a, cfg.b, grid=Grid.box(cfg.a, cfg.b, n))
    return TwoBodyProblem(mask, cfg.potential, h)


def asymptotic_scan(cfg: TwoBodyScanConfig, h_list) -> ScanReport:
    """Ground energies across h with the sandwich check and asymptotic fits.

    Rows: (h, ground, lower, upper, slope_partial) with slope_partial =
    (E0 + E_b_matched)/h^2, which tends to the domain threshold. The
    sandwich lower - eps <= E0 <= upper is enforced at every h, with each
    side given the slack tol max(1, |bound|) that the eigensolve's rounding
    needs. eps is the discretization estimate ``leading_disc_error`` of the
    ground vector, or the excess binding of the lattice, E_b_matched - E_b,
    when that is larger: the leading term presumes a smooth V, and a V with
    a cusp or kinks (a table) binds deeper on the lattice by more. eps
    widens the check only and moves no output. A scan whose E0, resolved to
    max(tol, machine epsilon) max(1, |E0|), cannot resolve h^2 D_c is
    refused: its slopes would be rounding alone. Each h
    costs one ground solve. The residual exponent nu_hat is fitted from the
    three smallest h only. Every h's problem and trial support is built
    before the first solve, so a config that one of them refuses raises
    ``ConfigError`` before any solve.
    """
    h_list = sorted(set(float(h) for h in h_list), reverse=True)
    if len(h_list) < 3:
        raise ConfigError("need at least 3 scale ratios")
    for h in h_list:
        trial_support(problem_at(cfg, h), cfg.q)
    e_b_continuum = solve_relative(cfg.potential).E_b
    rows = []
    residuals = []
    d_c = None
    for h in h_list:
        prob = problem_at(cfg, h)
        matched_eb = prob.matched_state.E_b
        d_c = prob.com_threshold
        upper, trial = twobody_trial_upper_bound(prob, q=cfg.q)
        res = ground_energy(prob, tol=cfg.tol, sigma=_shift_estimate(prob),
                            start=trial)
        e0 = res.eigenvalue
        lower = decoupled_lower_bound(prob, binding_energy=e_b_continuum)
        eps = max(leading_disc_error(prob, res), matched_eb - e_b_continuum)
        if not (lower - eps - cfg.tol * max(1.0, abs(lower)) <= e0
                <= upper + cfg.tol * max(1.0, abs(upper))):
            raise TwoBodyError(
                f"sandwich violated at h={h}: {lower} - {eps} <= {e0} <= {upper}"
            )
        resolution = max(cfg.tol, np.finfo(float).eps) * max(1.0, abs(e0))
        if resolution >= h**2 * abs(d_c):
            raise TwoBodyError(
                f"E0 = {e0:.6g} at h={h} is resolved only to "
                f"{resolution:.3g}, no finer than the h^2 D_c = "
                f"{h**2 * d_c:.3g} that the scan measures")
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

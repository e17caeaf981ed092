"""Condensate energy functional on masked domains and its minimization.

The functional is (1/4)|grad psi|^2 + (W - D)|psi|^2 + g|psi|^4 integrated
over the box, with psi zero outside the mask. Gradients are forward
differences of the zero-extended field, which makes the quadratic part agree
exactly (summation by parts) with the masked second-difference Laplacian.

The minimizer is found by a globalized Newton iteration restricted to
nonnegative real fields: minimizers are unique up to a global phase, and
taking the modulus never increases the discrete energy, so the nonnegative
representative is picked from the start. That start is the optimal
single-mode field, or a given field such as the minimizer on a nearby mask.
Each connected component of the mask is minimized on its own.

The first Newton step factors the Hessian if it is positive definite,
and else a positive-definite fallback that keeps only the nonnegative part
of its diagonal curvature; either factor is ``spectral.splu``, whose
completion certifies it. Steps are inexact after the first: the loop keeps
its last factor and solves each later step by conjugate gradients
preconditioned with it, to a relative residual min(0.1, sqrt(residual))
(Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982). Near the
minimizer the Hessian changes little between steps, so a few CG iterations
replace a factorization. The Hessian is factored anew only when CG fails.

A two-dimensional component whose inside and W are exactly invariant under
flips along grid axes is minimized on the fundamental domain of that flip
group (``spectral.mirror_orbits``), with about half or a quarter of the
unknowns. The functional is invariant under the flips and its nonnegative
minimizer is unique, so that minimizer is invariant: it is fixed by its
values on the fundamental domain. One-dimensional masks are not folded:
their Hessian is tridiagonal, and halving it saves too little to pay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .geometry import DomainMask, dilate, erode, label_components
from .grid import ScalarField
from .reporting import ScanReport, fit_power_law
from .spectral import (
    EigenResult,
    SpectralError,
    assemble_dirichlet,
    mirror_orbits,
    onset_threshold,
    splu,
)


# CG iterations of an inexact Newton step before the Hessian is factored anew
CG_MAX_ITER = 8
# Newton steps of ``minimize_gp`` before it reports no convergence
MAX_NEWTON_STEPS = 2000
# Newton steps in a row without a new smallest residual after which
# ``minimize_gp`` reports a stall: converging gp-min runs at D_offset 1e2-5e7
# went at most 11 such steps, runs stuck above their target over 1900
STALL_STEPS = 50


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


def _el_interior(prob: GPProblem, lap: np.ndarray, w: np.ndarray,
                 vals: np.ndarray) -> np.ndarray:
    """-(1/4) Lap psi + (W - D) psi + 2 g psi^3 on the interior nodes, from
    lap = -(1/4) Lap psi there."""
    return lap + (w - prob.D) * vals + 2.0 * prob.g * vals**3


def gp_gradient(prob: GPProblem, psi: ScalarField) -> ScalarField:
    """Euler-Lagrange field of the functional, restricted to the mask.

    Note the normalization: the Gateaux derivative of the energy along v is
    2 * <gp_gradient(psi), v> (the conventional factor for quadratic-plus-
    quartic functionals of a real field).
    """
    _check_dirichlet(prob, psi)
    vals = np.asarray(psi.values, dtype=float)[prob.mask.inside]
    stiff = assemble_dirichlet(prob.mask, -0.25).matrix
    return prob.mask.field(_el_interior(prob, stiff @ vals, prob.w_interior(), vals))


# far above threshold psi^4 overflows: such a start is refused, a step halved
@np.errstate(over="ignore", invalid="ignore")
def minimize_gp(
    prob: GPProblem,
    tol: float = 1e-9,
    initial: ScalarField | None = None,
    mode: EigenResult | None = None,
) -> GPSolution:
    """Globalized Newton iteration to the nonnegative minimizer.

    Each step solves with the Hessian H = K + diag(W - D + 6 g psi^2), K the
    quarter-Laplacian. The first step factors H if it is positive definite,
    and else K + diag(max(W - D + 6 g psi^2, 0)), which always is, and
    solves with that factor, which gives a descent direction either way:
    ``spectral.splu`` certifies a factor by completing it, and refuses an
    indefinite H at no more than the cost of one factorization. The last
    factor built, of either kind, is kept: each later step solves with H by
    CG preconditioned with it, at most ``CG_MAX_ITER`` iterations, to the
    relative residual min(0.1, sqrt(residual)). The Hessian is factored
    again, by the rule of the first step and after the old factor is
    dropped, when CG meets nonpositive curvature, misses its target within
    the cap, or returns no descent direction.
    The step, projected onto nonnegative fields, is halved until the energy
    meets Armijo or the Euler-Lagrange residual falls (below the energy's
    floating-point noise only the residual shows progress). Converged when
    the residual is below tol * (1 + |psi|_H1); ``iterations`` counts Newton
    steps. A run whose residual sets no new minimum in ``STALL_STEPS``
    steps in a row is stuck at its rounding floor and raises ``GPError``.

    The start is ``|initial|`` when given and nonzero, else theta * |psi_1|
    from the onset eigenpair ``mode`` (solved when absent). When D <= D_c
    the minimizer is zero: E(psi) >= (D_c - D)|psi|^2 + g|psi|^4 >= 0.

    The stencil couples 4-neighbours only, so the functional is a sum over
    the 4-connected components of the mask. A mask with several components
    is minimized one component at a time, each with this rule and its own
    onset mode (``mode`` is not used then): a single start would leave psi
    at zero on every component it misses. The energies add, psi is the sum
    of the parts, the residual is their root sum of squares and
    ``iterations`` their total. Each part is solved to tol / sqrt(count),
    which keeps the residual of the whole within its target.

    A two-dimensional component whose inside and W map onto themselves
    exactly (``np.array_equal``) under flips along grid axes is solved on
    the fundamental domain of the flip group (``spectral.mirror_orbits``).
    The iterate is the node values v there, and each node stands for its
    orbit of m in {1, 2, 4} nodes: the energy, the residual and |psi|_H1
    are the m-weighted sums, which equal those of the unfolded field on the
    whole component; the Hessian is M^(1/2) (B + diag(W - D + 6 g v^2))
    M^(1/2), with B the folded quarter-Laplacian (``Orbits.stencil``) and
    M = diag(m), and its right-hand side -m el; CG stops on |r / sqrt(m)|.
    Restriction and unfolding are exact copies, and with m = 1 (any mask
    with no such symmetry) the arithmetic is that of the whole mask, bit
    for bit. Steps, factorizations and solves match those on the whole
    component. A one-dimensional mask is never folded: its Hessian is
    tridiagonal, and halving it would save nothing worth its cost. An
    ``initial`` field that is not itself symmetric starts from its values
    on the fundamental domain; the minimizer is unique, so the result is
    the same.
    """
    mask = prob.mask
    if initial is not None:
        _check_dirichlet(prob, initial)
    labels, count = label_components(mask.inside)
    if count > 1:
        parts = []
        for k in range(1, count + 1):
            part = prob.with_mask(DomainMask(mask.grid, labels == k))
            start = None if initial is None else part.mask.field(initial.values)
            parts.append(minimize_gp(part, tol / np.sqrt(count), initial=start))
        return GPSolution(
            ScalarField(mask.grid, sum(np.asarray(p.psi.values) for p in parts)),
            sum(p.energy for p in parts),
            float(np.sqrt(sum(p.el_residual**2 for p in parts))),
            sum(p.iterations for p in parts),
        )

    # the node values v of an invariant field on the fundamental domain of
    # the mask's flip group; m is the size of each node's orbit
    orbits = mirror_orbits(mask, prob.W)
    inside = orbits.reduced.inside
    # the quarter-Laplacian on node values, M^(1/2) B M^(1/2)
    stiff = orbits.stencil(-0.25, isometric=False).matrix
    m = orbits.sizes
    sqrt_m = np.sqrt(m)
    w = np.zeros(m.size) if prob.W is None else np.asarray(prob.W.values)[inside]
    dv = mask.grid.node_weight

    vals = None
    if initial is not None:
        vals = np.abs(np.asarray(initial.values, dtype=float)[inside])
    if vals is None or not vals.any():
        if mode is None:
            mode = onset_threshold(mask, prob.W, tol=1e-11)
        if prob.D <= mode.eigenvalue:
            return GPSolution(mask.field(np.zeros(mask.count)), 0.0, 0.0, 0)
        theta, _ = one_mode_upper_bound(prob, mode)
        vals = theta * np.abs(np.asarray(mode.eigenvector.values)[inside])

    def evaluate(v):
        """Energy, Euler-Lagrange field, its norm and |v|_H1: sums over the
        whole mask, each node's term weighted by its orbit size."""
        kv = stiff @ v
        el = _el_interior(prob, kv / m, w, v)
        kin = float(v @ kv) * dv
        quad = float(np.sum(m * ((w - prob.D) * v**2)) * dv)
        energy = kin + quad + float(prob.g * np.sum(m * v**4) * dv)
        h1 = float(np.sqrt(4.0 * kin + np.sum(m * v**2) * dv))
        return energy, el, float(np.linalg.norm(sqrt_m * el)) * np.sqrt(dv), h1

    def factorize(curvature):
        return splu(stiff + sparse.diags(m * curvature))

    def preconditioned_cg(factor, curvature, rhs, eta):
        """Solution of the Hessian system to relative residual eta, or None
        when CG meets nonpositive curvature (of the Hessian or of the kept
        factor) or misses eta within its cap."""
        d = np.zeros_like(rhs)
        r = rhs
        target = eta * np.linalg.norm(rhs / sqrt_m)
        weighted = m * curvature
        z = factor.solve(r)
        p, rz = z, float(r @ z)
        for _ in range(CG_MAX_ITER):
            hp = stiff @ p + weighted * p
            php = float(p @ hp)
            if not (php > 0.0 and rz > 0.0):
                return None
            alpha = rz / php
            d = d + alpha * p
            r = r - alpha * hp
            if np.linalg.norm(r / sqrt_m) <= target:
                return d
            z = factor.solve(r)
            rz, rz_old = float(r @ z), rz
            p = z + (rz / rz_old) * p
        return None

    e, el, res, h1 = evaluate(vals)
    if not (np.isfinite(e) and np.isfinite(res)):
        raise GPError(f"the start's energy or residual overflows (max psi "
                      f"{np.max(vals):.3g}): D is too far above threshold")
    # each Euler-Lagrange entry carries rounding of about eps |D| psi_i, and
    # |psi|_H1 <= sqrt(1 + 4 sum_a h_a^-2) |psi|_L2 (the quarter-Laplacian's
    # Gershgorin bound): past this D no field can meet the target
    d_limit = tol * float(np.sqrt(1.0 + 4.0 * np.sum(
        1.0 / np.asarray(mask.grid.spacing) ** 2))) / np.finfo(float).eps
    if abs(prob.D) > d_limit:
        raise GPError(f"|D| = {abs(prob.D):.3g} is over the {d_limit:.3g} that "
                      f"tol {tol:.3g} resolves on this grid: the residual's "
                      "rounding, about eps |D| |psi|, lies above its target "
                      "tol (1 + |psi|_H1)")
    e_start = e
    factor = None  # the last Hessian factor: CG's preconditioner
    it = 0
    best, stalled = res, 0  # smallest residual so far, steps since it fell
    while (res > tol * (1.0 + h1) and it < MAX_NEWTON_STEPS
           and stalled < STALL_STEPS):
        curvature = w - prob.D + 6.0 * prob.g * vals**2
        grad = m * el  # half the energy's gradient in v, over dv
        direction = None
        if factor is not None:
            direction = preconditioned_cg(factor, curvature, -grad,
                                          min(0.1, np.sqrt(res)))
        if direction is None or not float(grad @ direction) < 0.0:
            factor = None  # dropped before the new one is built
            try:
                factor = factorize(curvature)
            except SpectralError:  # H is not positive definite
                factor = factorize(np.maximum(curvature, 0.0))
            direction = factor.solve(-grad)
        # the Gateaux derivative along the direction is 2 <m el, direction> dv
        slope = 2.0 * float(grad @ direction) * dv
        alpha = 1.0
        for _ in range(40):
            trial = np.maximum(vals + alpha * direction, 0.0)
            e_trial, el_t, res_t, h1_t = evaluate(trial)
            if e_trial <= e + 1e-4 * alpha * slope or res_t < res:
                break
            alpha *= 0.5
        else:
            break  # no progress left at this precision
        vals, e, el, res, h1 = trial, e_trial, el_t, res_t, h1_t
        it += 1
        best, stalled = (res, 0) if res < best else (best, stalled + 1)
    if res > tol * (1.0 + h1) and stalled >= STALL_STEPS:
        raise GPError(
            f"minimizer stalled: no residual below its best {best:.3e} in "
            f"the last {stalled} of {it} Newton steps (target "
            f"{tol * (1.0 + h1):.3e}); the target may sit below the "
            "floating-point floor of this grid"
        )
    if res > tol * (1.0 + h1):
        raise GPError(
            f"minimizer did not converge in {it} Newton steps (residual "
            f"{res:.3e}, target {tol * (1.0 + h1):.3e}); the target may sit "
            "below the floating-point floor of this grid"
        )
    if e > e_start + 1e-12 * max(1.0, abs(e_start)):
        raise GPError(
            f"minimizer ended above its start energy ({e:.6e} > {e_start:.6e}): "
            "it converged to a critical point that is not the minimum"
        )

    # zero is always admissible; below threshold the minimizer is zero
    if e >= -1e-14 * (1.0 + abs(prob.D)):
        vals = np.zeros_like(vals)
        e = 0.0
    return GPSolution(ScalarField(mask.grid, orbits.unfold(vals)), e,
                      evaluate(vals)[2], it)


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
    gap = prob.D - d_c
    theta = float(np.sqrt(gap / (2.0 * prob.g * quart)))
    energy = -gap * (gap / (4.0 * prob.g * quart))
    if not np.isfinite(energy):
        raise GPError(f"single-mode energy overflows (D - D_c = {gap:.3g}, "
                      f"g = {prob.g:.3g})")
    return theta, float(energy)


def continuity_scan(
    prob: GPProblem,
    ells,
    tol: float = 1e-9,
    mode: EigenResult | None = None,
) -> ScanReport:
    """Energy differences under interior and exterior domain approximations.

    For each ell the functional is minimized on the eroded and on the
    dilated mask; the report rows are (ell, energy_interior, energy_exterior,
    diff_interior, diff_exterior) and the fitted power laws of both
    difference columns are attached (a refused fit is kept, flagged).
    The orderings E(dilated) <= E(domain) <= E(eroded) are enforced.

    ``mode`` is the onset eigenpair of the base mask, as in ``minimize_gp``.
    The minimizations on the eroded and dilated masks start from the base
    minimizer, restricted or zero-extended. Erosion can split a component
    and dilation can join components, so ``minimize_gp`` takes each
    component of the new mask apart; a component where that start is zero
    (a dilated mask may lie above its threshold while the base does not)
    starts from its own onset mode.
    """
    base = minimize_gp(prob, tol=tol, mode=mode)

    def energy_on(mask: DomainMask) -> float:
        start = mask.field(base.psi.values)
        return minimize_gp(prob.with_mask(mask), tol=tol, initial=start).energy

    rows = []
    slack = max(1e-10, 100 * tol)
    for ell in sorted(set(float(e) for e in ells)):
        if ell == 0.0:
            e_int = e_ext = base.energy
        else:
            e_int = energy_on(erode(prob.mask, ell))
            e_ext = energy_on(dilate(prob.mask, ell))
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
    if len(window) >= 3:
        ell_v = [r[0] for r in window]
        for name, col in (("interior", 3), ("exterior", 4)):
            vals = [r[col] for r in window]
            if all(v > 0 for v in vals):
                report.fits[name] = fit_power_law(ell_v, vals)
    return report

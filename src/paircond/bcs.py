"""Discrete pair states on the product domain: trial states, their energy,
one-body density, order-parameter extraction and the semiclassical
term-by-term checks. One-dimensional domains only; kernels are dense
node-pair matrices.

Center-of-mass bookkeeping: for box nodes x_i, x_j with spacing dx, the pair
(i, j) maps to u = i + j (center X on a half-spacing lattice) and v = i - j
(separation r = v*dx on a 2*dx lattice of fixed parity u mod 2). The change
of variables is a relabeling of kernel entries, with quadrature weights
(dx/2) * (2*dx) = dx^2, so all norm identities hold at machine precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .geometry import DomainMask, erode
from .gp import gradient_energy
from .grid import Grid, PairKernel, ScalarField
from .pairing import (
    MatchedRelativeState,
    RelativeGroundState,
    lattice_couplings,
    lattice_pair_energy,
    lattice_pair_field,
    matched_relative_state,
    potential_from_descriptor,
    smoothstep_cutoff,
    solve_relative,
)
from .spectral import dirichlet_laplacian_matrix, smallest_eigenpair, assemble_dirichlet


class BCSError(RuntimeError):
    """Trial-state construction or evaluation failure."""


@dataclass
class BCSConfig:
    """Scale ratio, chemical-potential offset and domain for pair states.

    The chemical potential is never set directly: mu = -E_b + D h^2, where
    E_b is the binding energy of the micro-lattice relative problem matched
    to this grid and h (see ``matched_relative_state``); it converges to the
    continuum binding energy quadratically in spacing/h. The domain shrink
    used by trial supports is ell(h) = q h ln(1/h).
    """

    mask: DomainMask
    potential: dict
    W: ScalarField | None
    h: float
    D: float
    q: float = 6.0
    relative: RelativeGroundState | None = None
    matched: MatchedRelativeState | None = None

    def __post_init__(self):
        if self.mask.grid.dim != 1:
            raise BCSError("pair-state kernels are supported in d=1 only")
        if not 0 < self.h < 1:
            raise BCSError("scale ratio h must lie in (0, 1)")
        if self.W is not None and self.W.grid != self.mask.grid:
            raise BCSError("W lives on a different grid")

    @property
    def mu(self) -> float:
        return -self.matched_state().E_b + self.D * self.h**2

    @property
    def ell(self) -> float:
        return self.h * self.q * math.log(1.0 / self.h)

    @property
    def phi(self) -> float:
        """Cutoff radius in pair units: ell(h) / h."""
        return self.q * math.log(1.0 / self.h)

    @property
    def micro_step(self) -> float:
        return self.mask.grid.spacing[0] / self.h

    def relative_state(self) -> RelativeGroundState:
        if self.relative is None:
            self.relative = solve_relative(self.potential)
        return self.relative

    def matched_state(self) -> MatchedRelativeState:
        if self.matched is None or abs(self.matched.step - self.micro_step) > 1e-12:
            halfwidth = max(20.0, 1.75 * self.phi)
            self.matched = matched_relative_state(
                self.potential, self.micro_step, halfwidth
            )
        return self.matched

    def one_body_floor(self) -> float:
        """Smallest eigenvalue of -h^2 Lap + h^2 W - mu on the mask."""
        op = assemble_dirichlet(self.mask, -1.0, self.W)
        lam = smallest_eigenpair(op, tol=1e-8).eigenvalue
        return self.h**2 * lam - self.mu

    def validate_scale(self, slack: float = 1e-9):
        """Check the small-h admissibility precondition on the one-body part."""
        floor = self.one_body_floor()
        bound = self.matched_state().E_b / 2.0
        if floor < bound - slack:
            raise BCSError(
                f"h={self.h} too large: one-body operator floor {floor:.4g} "
                f"is below half the binding energy {bound:.4g}"
            )


# ---------------------------------------------------------------------------
# center-of-mass frame


@dataclass
class COMFrame:
    """Index machinery for the (center, separation) relabeling of kernels."""

    cfg: BCSConfig
    inside: np.ndarray = field(repr=False)  # box-node interior indicator
    x: np.ndarray = field(repr=False)  # box-node coordinates
    dx: float = 0.0

    @staticmethod
    def build(cfg: BCSConfig) -> "COMFrame":
        grid = cfg.mask.grid
        return COMFrame(cfg, cfg.mask.inside.copy(), grid.axis(0),
                        grid.spacing[0])

    @property
    def n(self) -> int:
        return self.x.size

    def half_grid(self) -> Grid:
        """Center-of-mass lattice with half the domain spacing."""
        g = self.cfg.mask.grid
        return Grid.box(g.lower[0], g.upper[0], 2 * self.n - 1)

    def centers(self) -> np.ndarray:
        return self.x[0] + 0.5 * self.dx * np.arange(2 * self.n - 1)

    def pair_indices(self, u: int):
        """Box index pairs (i, j) with i + j = u and both nodes interior;
        returned with the separation index v = i - j (ascending)."""
        i_lo = max(0, u - (self.n - 1))
        i_hi = min(self.n - 1, u)
        i = np.arange(i_lo, i_hi + 1)
        j = u - i
        keep = self.inside[i] & self.inside[j]
        i, j = i[keep], j[keep]
        return i, j, i - j

    def interpolate_to_centers(self, psi: ScalarField) -> np.ndarray:
        """Linear interpolation of a domain field onto the center lattice."""
        if psi.grid != self.cfg.mask.grid:
            raise BCSError("field lives on a different grid")
        vals = np.asarray(psi.values, dtype=float)
        out = np.empty(2 * self.n - 1)
        out[0::2] = vals
        out[1::2] = 0.5 * (vals[:-1] + vals[1:])
        return out


# ---------------------------------------------------------------------------
# trial states


@dataclass
class TrialState:
    cfg: BCSConfig
    psi: ScalarField
    a_psi: PairKernel
    gamma_psi: PairKernel
    admissibility: tuple  # (min, max) eigenvalue of the block state


def _pair_kernel_matrix(cfg: BCSConfig, psi_half: np.ndarray,
                        pair_wave_lattice, frame: COMFrame) -> np.ndarray:
    """Assemble K[i, j] = psi((x_i+x_j)/2) * pair_wave(i - j) over the
    interior node pairs (zero elsewhere); the pair wave is indexed by the
    separation count v = i - j (r = v * dx)."""
    n = frame.n
    idx = np.arange(n)
    uu = idx[:, None] + idx[None, :]
    vv = idx[:, None] - idx[None, :]
    kern = psi_half[uu] * pair_wave_lattice(vv)
    both = frame.inside[:, None] & frame.inside[None, :]
    kern[~both] = 0.0
    return kern


def build_trial_state(cfg: BCSConfig, psi: ScalarField,
                      validate: bool = True) -> TrialState:
    """Pair kernel a(x,y) = h^-1 psi((x+y)/2) * chi(|x-y|/ell) * h *
    alpha((x-y)/h) and the matching one-body kernel
    gamma = a a + (1 + sqrt(h)) (a a)^2.

    The pair wave is sampled from the lattice-matched relative ground state,
    so the kinetic-plus-potential cancellation against mu is exact at this
    discretization. ``psi`` must vanish outside the ell(h)-eroded domain;
    the assembled block state is checked to have spectrum in [0, 1].
    """
    matched = cfg.matched_state()
    frame = COMFrame.build(cfg)
    _check_support(cfg, psi)
    psi_half = frame.interpolate_to_centers(psi)

    ell = cfg.ell
    dx = frame.dx

    def pair_wave(v):
        return smoothstep_cutoff(v * dx / ell) * matched.evaluate_lattice(v)

    a_mat = _pair_kernel_matrix(cfg, psi_half, pair_wave, frame)
    dv = frame.dx
    aa = (a_mat @ a_mat) * dv
    gamma = aa + (1.0 + math.sqrt(cfg.h)) * (aa @ aa) * dv

    grid = cfg.mask.grid
    state = TrialState(
        cfg,
        psi,
        PairKernel(grid, grid, a_mat),
        PairKernel(grid, grid, gamma),
        admissibility=(np.nan, np.nan),
    )
    if validate:
        lo, hi = admissibility_spectrum(state)
        if lo < -1e-9 or hi > 1 + 1e-9:
            raise BCSError(
                f"h={cfg.h} too large for admissibility: block spectrum "
                f"[{lo:.3e}, {hi:.3e}] leaves [0, 1]"
            )
        state.admissibility = (lo, hi)
    return state


def _check_support(cfg: BCSConfig, psi: ScalarField):
    if psi.grid != cfg.mask.grid:
        raise BCSError("psi lives on a different grid")
    allowed = erode(cfg.mask, cfg.ell).inside
    bad = np.abs(np.asarray(psi.values)) > 0
    bad &= ~allowed
    if bad.any():
        raise BCSError(
            "psi has support outside the ell(h)-eroded domain; the Dirichlet "
            "support condition fails"
        )


def admissibility_spectrum(state: TrialState) -> tuple:
    """Extreme eigenvalues of the block state [[gamma, a], [a, 1-gamma]].

    Kernels act on L2 with the flat interior weight, so the operator matrix
    is dx * kernel matrix.
    """
    dv = state.cfg.mask.grid.spacing[0]
    a = dv * state.a_psi.values
    g = dv * state.gamma_psi.values
    n = a.shape[0]
    block = np.block([[g, a], [a, np.eye(n) - g]])
    vals = np.linalg.eigvalsh(block)
    return float(vals[0]), float(vals[-1])


def _one_body_matrix(cfg: BCSConfig) -> sparse.csr_matrix:
    """-h^2 Lap + h^2 W - mu on the full box-node set (Dirichlet mask)."""
    grid = cfg.mask.grid
    n = grid.n[0]
    lap_int = dirichlet_laplacian_matrix(cfg.mask)
    idx = np.flatnonzero(cfg.mask.inside)
    expand = sparse.csr_matrix(
        (np.ones(idx.size), (idx, np.arange(idx.size))), shape=(n, idx.size)
    )
    mat = expand @ (-cfg.h**2 * lap_int) @ expand.T
    diag = np.zeros(n)
    if cfg.W is not None:
        diag += cfg.h**2 * np.asarray(cfg.W.values)
    diag -= cfg.mu
    diag[~cfg.mask.inside] = 0.0
    return (mat + sparse.diags(diag)).tocsr()


def bcs_energy(cfg: BCSConfig, state: TrialState) -> float:
    """Tr(h gamma) + int int V((x-y)/h) |a(x,y)|^2 dx dy."""
    dv = cfg.mask.grid.spacing[0]
    hmat = _one_body_matrix(cfg)
    gamma = state.gamma_psi.values
    tr_one_body = float(np.sum((hmat @ gamma).diagonal())) * dv

    vfun = potential_from_descriptor(cfg.potential)
    rr = cfg.mask.grid.axis(0)
    vmat = vfun((rr[:, None] - rr[None, :]) / cfg.h)
    a = state.a_psi.values
    v_term = float(np.sum(vmat * np.abs(a) ** 2)) * dv * dv
    return tr_one_body + v_term


def one_body_density(state: TrialState) -> ScalarField:
    """Diagonal of the one-body kernel; integrates to Tr(gamma)."""
    vals = np.diag(state.gamma_psi.values).copy()
    if np.min(vals) < -1e-10 * max(np.max(np.abs(vals)), 1e-300):
        raise BCSError("one-body density has a negative node")
    return ScalarField(state.cfg.mask.grid, vals)


# ---------------------------------------------------------------------------
# order-parameter extraction


def extract_order_parameter(cfg: BCSConfig, alpha: PairKernel):
    """Project a symmetric pair kernel on the relative ground state, fiber by
    fiber in the center variable.

    Returns (psi, xi): psi lives on the half-spacing center lattice (zero
    where the fiber is empty); xi is the remainder kernel on the product
    grid, fiberwise orthogonal to the pair wavefunction. The decomposition
    satisfies |alpha|^2 = h^(2-d) |psi|^2 + |xi|^2 up to the quadrature
    wobble of the sampled pair-wave normalization (~1e-9 relative).
    """
    if alpha.grid_x != cfg.mask.grid or alpha.grid_y != cfg.mask.grid:
        raise BCSError("kernel lives on a different grid")
    alpha.check_symmetric(tol=1e-10)
    gs = cfg.relative_state()
    frame = COMFrame.build(cfg)
    a_mat = np.asarray(alpha.values, dtype=float)
    both = frame.inside[:, None] & frame.inside[None, :]
    if np.any(np.abs(a_mat[~both]) > 0):
        raise BCSError("kernel has support outside the product domain")

    h = cfg.h
    dx = frame.dx
    n = frame.n
    psi_vals = np.zeros(2 * n - 1)
    xi = np.zeros_like(a_mat)
    for u in range(2 * n - 1):
        i, j, v = frame.pair_indices(u)
        if i.size == 0:
            continue
        a_fiber = gs.evaluate(v * dx / h)
        slice_vals = a_mat[i, j]
        # psi(X) = h^{-1} int alpha_*(r/h) alpha~(X, r) dr over the fiber
        psi_vals[u] = float(np.sum(a_fiber * slice_vals)) * (2.0 * dx) / h
        xi[i, j] = slice_vals - psi_vals[u] * a_fiber  # h^{1-d} = 1 at d=1
    hg = frame.half_grid()
    psi_field = ScalarField(hg, psi_vals)
    return psi_field, PairKernel(cfg.mask.grid, cfg.mask.grid, xi)


def com_norm_split(cfg: BCSConfig, alpha: PairKernel, psi: ScalarField,
                   xi: PairKernel) -> dict:
    """Both sides of the norm identity for a decomposition from
    ``extract_order_parameter``."""
    dx = cfg.mask.grid.spacing[0]
    norm_alpha = float(np.sum(np.abs(alpha.values) ** 2)) * dx * dx
    norm_xi = float(np.sum(np.abs(xi.values) ** 2)) * dx * dx
    norm_psi = float(np.sum(np.abs(psi.values) ** 2)) * (dx / 2.0)
    return {
        "alpha_sq": norm_alpha,
        "psi_sq": norm_psi,
        "xi_sq": norm_xi,
        "identity_gap": norm_alpha - (cfg.h * norm_psi + norm_xi),
    }


def fiber_orthogonality(cfg: BCSConfig, xi: PairKernel) -> float:
    """Largest fiber inner product <alpha_*(./h), xi(X, .)>; zero up to the
    sampled-normalization wobble."""
    gs = cfg.relative_state()
    frame = COMFrame.build(cfg)
    dx = frame.dx
    worst = 0.0
    xim = np.asarray(xi.values)
    for u in range(2 * frame.n - 1):
        i, j, v = frame.pair_indices(u)
        if i.size == 0:
            continue
        a_fiber = gs.evaluate(v * dx / cfg.h)
        worst = max(worst, abs(float(np.sum(a_fiber * xim[i, j])) * 2.0 * dx))
    return worst


# ---------------------------------------------------------------------------
# semiclassical checks


@dataclass
class SemiclassicsReport:
    """Left/right sides and normalized residuals of the expansion terms."""

    h: float
    identity_lhs: float
    identity_rhs: float
    identity_residual: float
    field_lhs: float
    field_rhs: float
    field_residual: float
    quartic_energy_lhs: float
    quartic_energy_rhs: float
    quartic_energy_residual: float
    quartic_lhs: float
    quartic_rhs: float
    quartic_residual: float


def _field_norms(psi: ScalarField) -> dict:
    grid = psi.grid
    vals = np.asarray(psi.values, dtype=float)
    w = grid.weights()
    return {
        "l2_sq": float(np.sum(vals**2 * w)),
        "grad_sq": gradient_energy(psi),
        "l4_4": float(np.sum(vals**4 * w)),
    }


def semiclassics_check(cfg: BCSConfig, psi: ScalarField,
                       phi_h: float | None = None) -> SemiclassicsReport:
    """Term-by-term comparison of product-grid traces with their separated
    center-of-mass evaluations.

    The kernel is a_psi(x,y) = h^-d psi((x+y)/2) a((x-y)/h) with ``a`` the
    cutoff pair function chi(s/phi_h) h alpha(s), sampled from the matched
    lattice state. Three comparisons: (identity) the quadratic trace against
    relative-energy plus center-of-mass terms; (field) the external field
    trace against its factorized form; (quartic) both quartic traces against
    the coupling-constant form. Right-hand sides use the lattice couplings
    of the same pair function, so every residual is a genuine
    center-of-mass expansion error: dimensionless, and O(h) for the field
    and quartic comparisons.
    """
    matched = cfg.matched_state()
    if phi_h is None:
        phi_h = cfg.phi
    h = cfg.h
    frame = COMFrame.build(cfg)
    _check_support(cfg, psi)
    psi_half = frame.interpolate_to_centers(psi)

    a_lat = lattice_pair_field(matched, phi_h, h)
    k_max = matched.k_max

    def pair_wave(v):
        out = np.zeros(v.shape, dtype=float)
        ok = np.abs(v) <= k_max
        out[ok] = a_lat[v[ok] + k_max] / h
        return out

    a_mat = _pair_kernel_matrix(cfg, psi_half, pair_wave, frame)
    dx = frame.dx
    dv = dx

    # lattice quadratures of the cutoff pair function
    a_norm_sq = float(np.sum(a_lat**2) * matched.step)
    a_energy = lattice_pair_energy(matched, a_lat)
    norms = _field_norms(psi)

    vfun = potential_from_descriptor(cfg.potential)

    # (i) quadratic trace: free product Laplacian, kernels vanish well inside
    lap_full = _full_line_laplacian(frame)
    ka = -(h**2) * 0.5 * (lap_full @ a_mat + a_mat @ lap_full.T)
    lhs_i = float(np.sum((ka - cfg.mu * a_mat) * a_mat)) * dv * dv
    rr = frame.x[:, None] - frame.x[None, :]
    vmat = vfun(rr / h)
    lhs_i += float(np.sum(vmat * a_mat**2)) * dv * dv
    rhs_i = (
        norms["l2_sq"] * a_energy / h
        + a_norm_sq * (h / 4.0 * norms["grad_sq"]
                       + (-matched.E_b - cfg.mu) / h * norms["l2_sq"])
    )
    scale_i = abs(rhs_i) + a_norm_sq * norms["l2_sq"] / h * matched.E_b
    res_i = abs(lhs_i - rhs_i) / max(scale_i, 1e-300)

    # (ii) external-field trace
    if cfg.W is None:
        raise BCSError("the field comparison needs a nonzero W")
    wdiag = np.asarray(cfg.W.values)
    lhs_w = float(np.sum(wdiag[:, None] * a_mat**2)) * dv * dv
    w_int = cfg.W.values * np.asarray(psi.values) ** 2
    rhs_w = a_norm_sq / h * float(np.sum(w_int * psi.grid.weights()))
    wscale = a_norm_sq / h * float(np.max(np.abs(wdiag))) * \
        (norms["l2_sq"] + norms["grad_sq"])
    res_w = abs(lhs_w - rhs_w) / max(wscale, 1e-300)

    # (iii) quartic traces
    aa = (a_mat @ a_mat) * dv
    tr_q = float(np.sum(aa * aa.T)) * dv * dv  # Tr (a abar)^2
    hker = -(h**2) * (lap_full @ aa) + (matched.E_b + (h**2) * wdiag)[:, None] * aa
    tr_qh = float(np.sum(hker * aa.T)) * dv * dv

    g_bcs_a, g_0_a = lattice_couplings(matched, a_lat)
    rhs_qh = g_bcs_a / h * norms["l4_4"]
    rhs_q = g_0_a / h * norms["l4_4"]
    res_qh = abs(tr_qh - rhs_qh) / max(abs(rhs_qh), 1e-300)
    res_q = abs(tr_q - rhs_q) / max(abs(rhs_q), 1e-300)

    return SemiclassicsReport(
        h=h,
        identity_lhs=lhs_i, identity_rhs=rhs_i, identity_residual=res_i,
        field_lhs=lhs_w, field_rhs=rhs_w, field_residual=res_w,
        quartic_energy_lhs=tr_qh, quartic_energy_rhs=rhs_qh,
        quartic_energy_residual=res_qh,
        quartic_lhs=tr_q, quartic_rhs=rhs_q, quartic_residual=res_q,
    )


def _full_line_laplacian(frame: COMFrame) -> sparse.csr_matrix:
    n = frame.n
    inv = 1.0 / frame.dx**2
    return sparse.diags(
        [np.full(n - 1, inv), np.full(n, -2.0 * inv), np.full(n - 1, inv)],
        offsets=[-1, 0, 1],
        format="csr",
    )


def export_kernel(path: str, kernel: PairKernel, h: float, kind: str):
    """Write a kernel as a binary row-major float64 array plus a JSON
    sidecar {n, grid, h, kind} at path + '.json'."""
    vals = np.ascontiguousarray(np.asarray(kernel.values, dtype=np.float64))
    vals.tofile(path)
    sidecar = {
        "n": list(vals.shape),
        "grid": {
            "lower": list(kernel.grid_x.lower),
            "upper": list(kernel.grid_x.upper),
            "n": list(kernel.grid_x.n),
        },
        "h": h,
        "kind": kind,
    }
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh)


def import_kernel(path: str) -> tuple:
    """Read a kernel written by ``export_kernel``; returns (PairKernel, h,
    kind)."""
    with open(path + ".json", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    g = sidecar["grid"]
    grid = Grid.box(g["lower"], g["upper"], g["n"])
    vals = np.fromfile(path, dtype=np.float64).reshape(sidecar["n"])
    return PairKernel(grid, grid, vals), sidecar["h"], sidecar["kind"]


def com_trace_identity(cfg: BCSConfig, alpha: PairKernel) -> dict:
    """Quadratic-trace bookkeeping check: the product-grid evaluation of
    Tr(h alpha alphabar) + V-term against the same sum relabeled in
    (center, separation) indices. Exact up to roundoff by construction."""
    gs = cfg.relative_state()
    frame = COMFrame.build(cfg)
    a_mat = np.asarray(alpha.values, dtype=float)
    dx = frame.dx

    hmat = _one_body_matrix(cfg)
    vfun = potential_from_descriptor(cfg.potential)
    rr = frame.x[:, None] - frame.x[None, :]
    vmat = vfun(rr / cfg.h)
    lhs = float(np.sum(((hmat @ a_mat) + vmat * a_mat) * a_mat)) * dx * dx

    # relabeled sum: same stencil entries grouped by fibers, weights
    # (dx/2) * (2 dx)
    total = 0.0
    ham_dense = hmat.toarray()
    for u in range(2 * frame.n - 1):
        i, j, v = frame.pair_indices(u)
        if i.size == 0:
            continue
        col = a_mat[:, j]  # alpha(. , y_j)
        hcol = ham_dense @ col
        integrand = a_mat[i, j] * (hcol[i, np.arange(i.size)]
                                   + vfun(v * dx / cfg.h) * a_mat[i, j])
        total += float(np.sum(integrand)) * (2.0 * dx) * (dx / 2.0)
    return {"xy_value": lhs, "com_value": total, "gap": lhs - total}

"""Discrete pair states on the product domain: trial states, their energy,
one-body density and the semiclassical term-by-term checks.
One-dimensional domains only.

A trial kernel a vanishes beyond the separation cutoff: a[i, j] = 0 for
|i - j| > b, and aa = a a dx vanishes beyond 2b. Both are stored on their
band, one row per node (``BandKernel``: n (2b + 1) and n (4b + 1)
entries), and no n x n array is made of them. a is gathered in one
vectorized pass, aa is one BLAS product per slab of b rows through one
dense slab window, and every trace, row sum and three-point stencil is a
row-wise sum over the band rows (``_stencil_sum``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .geometry import DomainMask, erode
from .gp import gradient_energy
from .grid import MAX_GRID_NODES, ConfigError, ScalarField
from .pairing import (
    RelativeGroundState,
    compute_couplings,
    lattice_pair_energy,
    lattice_pair_field,
    matched_relative_state,
    micro_lattice_k_max,
    potential_from_descriptor,
)
from .spectral import three_point


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

    A config refuses its own input with ``ConfigError`` before any array
    exists: a domain that is not 1D, h outside (0, 1), a micro lattice that
    ``micro_lattice_k_max`` refuses, and pair kernels over the
    ``MAX_GRID_NODES`` budget. The widest, aa = a a dx, holds n (4b + 1)
    band entries, where a reaches b = 1.5 ell / dx nodes.
    """

    mask: DomainMask
    potential: dict
    W: ScalarField | None
    h: float
    D: float
    q: float = 6.0

    def __post_init__(self):
        if self.mask.grid.dim != 1:
            raise ConfigError("pair-state kernels are supported in d=1 only")
        if not 0 < self.h < 1:
            raise ConfigError("scale ratio h must lie in (0, 1)")
        if self.W is not None and self.W.grid != self.mask.grid:
            raise BCSError("W lives on a different grid")
        n = self.mask.grid.n[0]
        b = math.floor(min(1.5 * self.ell / self.mask.grid.spacing[0], n - 1))
        if n * (4 * b + 1) > MAX_GRID_NODES:
            raise ConfigError(f"pair kernels of {n}x{4 * b + 1} band entries "
                              f"exceed the {MAX_GRID_NODES}-entry budget")
        micro_lattice_k_max(self.micro_step, self.micro_halfwidth)

    @property
    def mu(self) -> float:
        return -self.matched_state.E_b + self.D * self.h**2

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

    @property
    def micro_halfwidth(self) -> float:
        """Box of the matched state: room for the cutoff support 1.5 phi."""
        return max(20.0, 1.75 * self.phi)

    @cached_property
    def matched_state(self) -> RelativeGroundState:
        return matched_relative_state(self.potential, self.micro_step,
                                      self.micro_halfwidth)


def center_values(vals) -> np.ndarray:
    """Node values of a 1D field and their midpoint means, interleaved: the
    field on the half-spacing center lattice."""
    vals = np.asarray(vals, dtype=float)
    out = np.empty(2 * vals.size - 1)
    out[0::2] = vals
    out[1::2] = 0.5 * (vals[:-1] + vals[1:])
    return out


# ---------------------------------------------------------------------------
# trial states


@dataclass
class BandKernel:
    """A node-pair kernel K that vanishes beyond |i - j| <= band, stored by
    rows: values[i, band + d] = K[i, i + d], shape (n, 2 band + 1), with
    zeros where i + d leaves the box."""

    values: np.ndarray = field(repr=False)

    @property
    def band(self) -> int:
        return (self.values.shape[1] - 1) // 2

    def dense(self) -> np.ndarray:
        """K as an n x n array, every stored entry in place."""
        n, width = self.values.shape
        out = np.zeros((n, n + width - 1))
        _shear(out, width)[...] = self.values
        return out[:, self.band:self.band + n]


@dataclass
class TrialState:
    """A trial state on its bands: a (``a_psi``) vanishes beyond |i - j| <=
    b and aa = a a dx beyond 2b; aa is symmetric by construction."""

    cfg: BCSConfig
    psi: ScalarField
    a_psi: BandKernel
    aa: BandKernel  # a a dx, the one product gamma needs
    admissibility: tuple = (np.nan, np.nan)  # (min, max) of the block state


def pair_kernel(psi_half: np.ndarray, wave: np.ndarray,
                inside: np.ndarray) -> BandKernel:
    """K[i, j] = psi_half[i + j] * wave(i - j) where nodes i and j are both
    inside, zero elsewhere: a center field on the half-spacing lattice
    (``center_values``) times a pair wave sampled at the separation counts
    v = -k..k (zero beyond). Only the band |v| <= b is gathered, b the
    largest |v| of a nonzero sample (0 for none) and at most n - 1, in one
    pass: entry (i, i + d) has i + j = 2i + d and the wave sample wave(-d),
    so row i reads 2b + 1 consecutive entries of the centre field padded by
    b, and of the mask padded by b.
    """
    n = inside.size
    k = (wave.size - 1) // 2
    b = min(int(np.max(np.abs(np.flatnonzero(wave) - k), initial=0)), n - 1)
    centre = np.pad(np.asarray(psi_half, dtype=float), b)
    step = centre.strides[0]
    rows = as_strided(centre, (n, 2 * b + 1), (2 * step, step))
    both = inside[:, None] & sliding_window_view(np.pad(inside, b), 2 * b + 1)
    return BandKernel(np.where(both, rows * wave[k - b:k + b + 1][::-1], 0.0))


def _shear(mat: np.ndarray, width: int) -> np.ndarray:
    """The view v[i, c] = mat[i, i + c], c < width, of a 2D array with at
    least rows + width - 1 columns: where the rows of a band matrix put
    their band when the matrix is dense."""
    s0, s1 = mat.strides
    return as_strided(mat, (mat.shape[0], width), (s0 + s1, s1))


def _band_square(k: np.ndarray, scale: float) -> np.ndarray:
    """Band rows of (a a) scale, of band 2b, for the band rows ``k`` of a
    symmetric kernel a of band b.

    The upper band (columns j >= i) is one BLAS product per slab of b rows
    [r0, r1): their entries reach columns [r0 - b, r1 + b), whose rows of a
    reach [r0 - 2b, r1 + 2b). One dense window holds those rows of a over
    those columns; it is made once and refilled by the same shear for every
    slab, so the zeros outside the band are written once. Each upper entry
    (i, i + e) is also written to (i + e, i), so the lower band mirrors the
    upper one and the result is exactly symmetric: the a a of an exactly
    symmetric a, up to the rounding of the products.
    """
    n, width = k.shape
    b = (width - 1) // 2
    m = max(b, 1)
    wide = 2 * width - 1
    # 2b spare rows take the mirrored zeros of entries beyond the box
    out = np.zeros((n + 2 * b, wide))
    flat = out.reshape(-1)
    step = flat.strides[0]
    window = np.zeros((m + 2 * b, m + 4 * b))
    for r0 in range(0, n, m):
        h = min(m, n - r0)
        win = window[:h + 2 * b, :h + 4 * b]
        # win[t, t + c] = a[r0 - b + t, r0 - 2b + t + c]: row t holds row
        # r0 - b + t of a, column col holds column r0 - 2b + col
        lo, hi = max(r0 - b, 0), min(r0 + h + b, n)
        t0 = lo - (r0 - b)
        _shear(win, width)[t0:t0 + hi - lo] = k[lo:hi]
        win[t0 + hi - lo:] = 0.0  # rows past the box
        prod = win[b:b + h, b:h + 3 * b] @ win[:, 2 * b:]
        upper = _shear(prod, 2 * b + 1) * scale
        out[r0:r0 + h, 2 * b:] = upper
        # aa[i + e, i] = aa[i, i + e] is flat entry (i + e) wide + 2b - e
        as_strided(flat[r0 * wide + 2 * b:], (h, 2 * b + 1),
                   (wide * step, (wide - 1) * step))[...] = upper
    return out[:n]


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, y)


def _stencil_sum(x: np.ndarray, y: np.ndarray, diag: np.ndarray,
                 off: np.ndarray) -> float:
    """sum_ij (T x)_ij y_ij for the band rows ``x`` and ``y`` of two kernels
    of one band, where T is the symmetric tridiagonal matrix with diagonal
    ``diag`` (n) and T[i, i+1] = T[i+1, i] = off[i] (n - 1). Entry (i, j)
    sits one band column further right in row i - 1 and one further left in
    row i + 1, so the sum is three row-wise dot products."""
    return float(diag @ _row_dots(x, y)
                 + off @ _row_dots(x[:-1, 1:], y[1:, :-1])
                 + off @ _row_dots(x[1:, :-1], y[:-1, 1:]))


def _separation_sum(cfg: BCSConfig, k: np.ndarray) -> float:
    """sum_ij V((x_i - x_j)/h) a_ij^2 for the band rows ``k`` of a kernel:
    every potential is radial, so V is evaluated once per band column,
    at the separation |d| dx, and multiplies the column's sum of squares."""
    b = (k.shape[1] - 1) // 2
    vfun = potential_from_descriptor(cfg.potential)
    v_sep = vfun(np.arange(-b, b + 1) * cfg.mask.grid.spacing[0] / cfg.h)
    return float(np.sum(np.square(k), axis=0) @ v_sep)


def build_trial_state(cfg: BCSConfig, psi: ScalarField) -> TrialState:
    """Pair kernel a(x,y) = h^-1 psi((x+y)/2) * chi(|x-y|/ell) * h *
    alpha((x-y)/h) and the product a a from which the matching one-body
    kernel gamma = a a + (1 + sqrt(h)) (a a)^2 is read.

    The pair wave is sampled from the lattice-matched relative ground state,
    so the kinetic-plus-potential cancellation against mu is exact at this
    discretization. The cutoff makes a vanish beyond |x - y| = 1.5 ell, b
    nodes, so a is gathered on its band and a a dx is formed on the band
    2b, slab by slab (``_band_square``). ``psi`` must vanish outside the
    ell(h)-eroded domain; the assembled block state is checked to have
    spectrum in [0, 1].
    """
    _check_support(cfg, psi)
    # the sampled pair wave is even only up to the eigensolve's rounding;
    # made exactly even, a is exactly symmetric, as the mirrored lower band
    # of aa takes it to be, and Tr(h aa), in which the stencil terms nearly
    # cancel, stays that of the dense a a dx
    wave = lattice_pair_field(cfg.matched_state, cfg.phi, 1.0)
    wave = 0.5 * (wave + wave[::-1])
    a_psi = pair_kernel(center_values(psi.values), wave, cfg.mask.inside)
    # a a dx overflows only when ||A||_2 >> 1, and the admissibility check
    # below refuses every such state
    with np.errstate(over="ignore"):
        aa = _band_square(a_psi.values, cfg.mask.grid.spacing[0])
    state = TrialState(cfg, psi, a_psi, BandKernel(aa))
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
    """Extreme eigenvalues of the block state [[Gamma, A], [A, 1 - Gamma]].

    Kernels act on L2 with the flat interior weight, so the operators are
    A = dx * a and Gamma = dx * gamma. ``build_trial_state`` makes Gamma the
    polynomial A^2 + c A^4 (c = 1 + sqrt(h)) of the real symmetric A, so in
    an eigenbasis of A (eigenvalue s) the block splits into 2x2 blocks
    [[g, s], [s, 1 - g]] with g = s^2 + c s^4, whose eigenvalues are
    1/2 -+ r(s), r^2 = 1/4 - sqrt(h) s^4 + 2c s^6 + c^2 s^8: the spectrum
    spans 1/2 -+ max r over the eigenvalues s of A.

    In t = s^2, d(r^2)/dt = t (4c^2 t^2 + 6c t - 2 sqrt(h)) has one positive
    root, so r^2 falls and then rises, and on [-rho, rho] its maximum is at
    s = 0 or |s| = rho. With rho the largest absolute row sum of A, every s
    lies in [-rho, rho] (rho(A) <= ||A||_inf), and a zero row of A gives
    s = 0, where r = 1/2. So if A has a zero row and r(rho) <= 1/2, i.e.
    c^2 rho^4 + 2c rho^2 <= sqrt(h), the spectrum is exactly (0, 1), with no
    eigensolve; otherwise the eigenvalues of A decide, from LAPACK's banded
    symmetric eigensolver on its lower band. That condition is
    (c rho^2 + 1)^2 <= 1 + sqrt(h), so it is decided in its solved form rho
    <= rho* = sqrt((sqrt(1 + sqrt(h)) - 1) / c), in which no power of a
    huge rho overflows; sqrt(1 + sqrt(h)) - 1 is taken as sqrt(h) /
    (sqrt(1 + sqrt(h)) + 1), without the cancellation.
    """
    root_h = math.sqrt(state.cfg.h)
    c = 1.0 + root_h
    rho_star = math.sqrt(root_h / (c * (math.sqrt(1.0 + root_h) + 1.0)))
    dx = state.cfg.mask.grid.spacing[0]
    a = state.a_psi.values
    row_sums = dx * np.sum(np.abs(a), axis=1)
    if row_sums.min() == 0.0 and row_sums.max() <= rho_star:
        return 0.0, 1.0
    # the lower band of A in LAPACK's layout, [j, i] = A[i + j, i], which is
    # A[i, i + j] for the exactly symmetric kernel: the entries a dense
    # eigvalsh reads
    # imported here: at module import it loads scipy.linalg ahead of
    # scipy.sparse, which cost 10-30 ms more per CLI start on a 2-core VM;
    # spectral has loaded it by the time a trial state exists
    from scipy import linalg
    lower = (dx * a)[:, state.a_psi.band:].T
    s = linalg.eigvals_banded(lower, lower=True)
    # r is +inf once c s^4 leaves the float range, and the state is refused
    with np.errstate(over="ignore"):
        g = s**2 + c * s**4
        r = float(np.max(np.sqrt((g - 0.5) ** 2 + s**2)))
    return 0.5 - r, 0.5 + r


def bcs_energy(cfg: BCSConfig, state: TrialState) -> float:
    """Tr(h gamma) + int int V((x-y)/h) |a(x,y)|^2 dx dy, where Tr(h gamma)
    = Tr(h aa) + (1 + sqrt(h)) dx Tr(h aa aa) for the symmetric aa. The
    one-body h = -h^2 Lap + h^2 W - mu is the three-point stencil on the
    rows of aa: Tr(h aa) reads band columns 2b and 2b -+ 1 of aa, and every
    sum runs over the band rows of a or aa."""
    dv = cfg.mask.grid.spacing[0]
    aa, b2 = state.aa.values, state.aa.band
    h2 = cfg.h**2
    shift = -cfg.mu if cfg.W is None else h2 * np.asarray(cfg.W.values) - cfg.mu
    diag, off = three_point(cfg.mask.inside, h2, 1.0 / dv**2, shift)
    # the diagonal of h aa, row by row: the stencil terms nearly cancel
    h_aa = diag * aa[:, b2]
    if b2 > 0:  # aa[i - 1, i] and aa[i + 1, i]
        h_aa[1:] += off * aa[:-1, b2 + 1]
        h_aa[:-1] += off * aa[1:, b2 - 1]
    trace = float(np.sum(h_aa))
    quartic = (1.0 + math.sqrt(cfg.h)) * dv * _stencil_sum(aa, aa, diag, off)
    v_term = _separation_sum(cfg, state.a_psi.values) * dv * dv
    return (trace + quartic) * dv + v_term


def one_body_density(state: TrialState) -> ScalarField:
    """Diagonal of the one-body kernel, diag(aa) + (1 + sqrt(h)) dx times
    the row sums of aa * aa (aa symmetric, read on its band); integrates to
    Tr(gamma)."""
    dv = state.cfg.mask.grid.spacing[0]
    aa = state.aa.values
    quartic = (1.0 + math.sqrt(state.cfg.h)) * dv * np.sum(np.square(aa),
                                                            axis=1)
    vals = aa[:, state.aa.band] + quartic
    if np.min(vals) < -1e-10 * max(np.max(np.abs(vals)), 1e-300):
        raise BCSError("one-body density has a negative node")
    return ScalarField(state.cfg.mask.grid, vals)


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


def semiclassics_check(cfg: BCSConfig, psi: ScalarField) -> SemiclassicsReport:
    """Term-by-term comparison of product-grid traces with their separated
    center-of-mass evaluations.

    The kernel is a_psi(x,y) = h^-d psi((x+y)/2) a((x-y)/h) with ``a`` the
    cutoff pair function chi(s/phi) h alpha(s), phi = ``cfg.phi``, sampled
    from the matched lattice state. Three comparisons: (identity) the
    quadratic trace against relative-energy plus center-of-mass terms;
    (field) the external field trace against its factorized form; (quartic)
    both quartic traces against the coupling-constant form. Right-hand
    sides use the lattice couplings of the same pair function, so every
    residual is a genuine center-of-mass expansion error: dimensionless, and
    O(h) for the field and quartic comparisons.

    Every trace reads only the band rows of a_psi (|i - j| <= b) or of its
    square (2b): the Laplacians are three-point stencils on the rows of
    a_psi and of its band transpose, and a a dx is the slab product of
    ``build_trial_state``, symmetric by construction.
    A psi so large that a trace overflows gives a non-finite report, with
    no floating-point warning; the caller refuses it.
    """
    matched = cfg.matched_state
    h = cfg.h
    _check_support(cfg, psi)
    if cfg.W is None:
        raise BCSError("the field comparison needs a nonzero W")
    # even only up to the eigensolve's rounding; made exactly even once, it
    # gives both the kernel (exactly symmetric, as ``_band_square`` takes it
    # to be) and the lattice quadratures that each identity compares it with
    a_lat = lattice_pair_field(matched, cfg.phi, h)
    a_lat = 0.5 * (a_lat + a_lat[::-1])
    inside = cfg.mask.inside
    box = np.ones(inside.size, dtype=bool)
    dv = cfg.mask.grid.spacing[0]
    h2, inv_dx2 = h**2, 1.0 / dv**2
    wdiag = np.asarray(cfg.W.values)

    # lattice quadratures of the cutoff pair function
    a_norm_sq = float(np.sum(a_lat**2) * matched.step)
    a_energy = lattice_pair_energy(matched, a_lat)
    g_bcs_a, g_0_a = compute_couplings(matched, a_lat)

    with np.errstate(over="ignore", invalid="ignore"):
        a_band = pair_kernel(center_values(psi.values), a_lat / h,
                             inside).values
        norms = _field_norms(psi)

        # (i) quadratic trace: free product -Lap (three-point stencil on the
        # whole box), kernels vanish well inside
        neg_lap = three_point(box, 1.0, inv_dx2)
        # a is symmetric: its stencil along y is the one along x
        neg_lap_a = 2.0 * _stencil_sum(a_band, a_band, *neg_lap)
        sq_rows = np.sum(np.square(a_band), axis=1)
        lhs_i = (h2 * 0.5 * neg_lap_a - cfg.mu * float(np.sum(sq_rows))) * dv * dv
        lhs_i += _separation_sum(cfg, a_band) * dv * dv
        rhs_i = (
            norms["l2_sq"] * a_energy / h
            + a_norm_sq * (h / 4.0 * norms["grad_sq"]
                           + (-matched.E_b - cfg.mu) / h * norms["l2_sq"])
        )
        scale_i = abs(rhs_i) + a_norm_sq * norms["l2_sq"] / h * matched.E_b
        res_i = abs(lhs_i - rhs_i) / max(scale_i, 1e-300)

        # (ii) external-field trace
        lhs_w = float(wdiag @ sq_rows) * dv * dv
        w_int = wdiag * np.asarray(psi.values) ** 2
        rhs_w = a_norm_sq / h * float(np.sum(w_int * psi.grid.weights()))
        wscale = a_norm_sq / h * float(np.max(np.abs(wdiag))) * \
            (norms["l2_sq"] + norms["grad_sq"])
        res_w = abs(lhs_w - rhs_w) / max(wscale, 1e-300)

        # (iii) quartic traces; hker = -h^2 Lap aa + (E_b + h^2 W) aa, and
        # aa^T = aa
        aa = _band_square(a_band, dv)
        tr_q = float(np.sum(np.square(aa))) * dv * dv  # Tr (a abar)^2
        hker = three_point(box, h2, inv_dx2, matched.E_b + h2 * wdiag)
        tr_qh = _stencil_sum(aa, aa, *hker) * dv * dv

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

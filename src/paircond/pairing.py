"""Relative two-body problem on a truncated box: binding energy, normalized
pair wavefunction, its L2 decay rate, the quartic couplings, and the smooth
radial cutoff used by trial states.

The whole-space problem is truncated to a Dirichlet box [-L, L]^d. The pair
wavefunction decays exponentially, so the truncation error is below any
tolerance of interest once exp(-2*rho*L) is negligible; ``solve_relative``
checks the boundary amplitude after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.sparse.linalg import LinearOperator, eigsh

from .geometry import DomainMask, box_mask
from .grid import Grid, ScalarField, fourier_samples, momentum_lattice
from .spectral import (
    StencilOperator,
    assemble_dirichlet,
    gershgorin_factor,
    smallest_eigenpair,
)


class PairingError(RuntimeError):
    """Relative-problem failure (no bound state, bad box, misfit decay)."""


# ---------------------------------------------------------------------------
# potential descriptors


def potential_from_descriptor(desc: dict):
    """Return a vectorized callable V(x) from a JSON-style descriptor.

    Supported kinds: poschl_teller {depth, width}, square_well {depth,
    halfwidth}, gaussian_well {depth, width}, table {x, v} (radial linear
    interpolation, zero outside the tabulated range). All are reflection
    symmetric by construction.
    """
    if not isinstance(desc, dict) or "kind" not in desc:
        raise PairingError("potential descriptor must be a dict with a 'kind'")
    kind = desc["kind"]
    params = {k: v for k, v in desc.items() if k != "kind"}

    def radius(x):
        x = np.asarray(x, dtype=float)
        if x.ndim >= 1 and x.shape[-1] <= 3 and x.ndim > 1:
            return np.sqrt(np.sum(x**2, axis=-1))
        return np.abs(x)

    if kind == "poschl_teller":
        depth = float(params.pop("depth", 2.0))
        width = float(params.pop("width", 1.0))
        _reject_extra(kind, params)
        return lambda x: -depth / np.cosh(radius(x) / width) ** 2
    if kind == "square_well":
        depth = float(params.pop("depth"))
        halfwidth = float(params.pop("halfwidth", 1.0))
        _reject_extra(kind, params)
        return lambda x: np.where(radius(x) < halfwidth, -depth, 0.0)
    if kind == "gaussian_well":
        depth = float(params.pop("depth"))
        width = float(params.pop("width", 1.0))
        _reject_extra(kind, params)
        return lambda x: -depth * np.exp(-(radius(x) ** 2) / (2 * width**2))
    if kind == "table":
        xs = np.asarray(params.pop("x"), dtype=float)
        vs = np.asarray(params.pop("v"), dtype=float)
        _reject_extra(kind, params)
        if xs.ndim != 1 or xs.shape != vs.shape or xs.size < 2:
            raise PairingError("table potential needs matching 1D x and v arrays")
        return lambda x: np.interp(radius(x), xs, vs, left=0.0, right=0.0)
    raise PairingError(f"unknown potential kind {kind!r}")


def _reject_extra(kind, params):
    if params:
        raise PairingError(f"unknown parameters for {kind!r}: {sorted(params)}")


# ---------------------------------------------------------------------------
# ground state record


@dataclass
class RelativeGroundState:
    """Bound-state data of the relative operator -Lap + V on the box."""

    potential: dict
    E_b: float
    alpha_star: ScalarField
    L: float
    residual: float
    rho_star: float | None = None
    g_bcs: float | None = None
    g_0: float | None = None
    spectral_gap: float | None = None
    _spline: CubicSpline | None = field(default=None, repr=False, compare=False)

    @property
    def grid(self) -> Grid:
        return self.alpha_star.grid

    @property
    def dim(self) -> int:
        return self.grid.dim

    def evaluate(self, points) -> np.ndarray:
        """Sample the pair wavefunction at arbitrary 1D points (spline, zero
        outside the box)."""
        if self.dim != 1:
            raise PairingError("pointwise evaluation is implemented for d=1")
        if self._spline is None:
            self._spline = CubicSpline(self.grid.axis(0), self.alpha_star.values)
        pts = np.asarray(points, dtype=float)
        out = np.zeros_like(pts)
        ok = np.abs(pts) <= self.L
        out[ok] = self._spline(pts[ok])
        return out


def _box_operator(potential: dict, dim: int, L: float, n: int,
                  shift: float = 0.0) -> StencilOperator:
    """-Lap + V (+ shift) on [-L, L]^dim, n nodes per axis, Dirichlet walls."""
    mask = box_mask([-L] * dim, [L] * dim, n=[n] * dim)
    grid = mask.grid
    pts = grid.points().reshape(grid.shape + (dim,))
    vvals = potential_from_descriptor(potential)(pts if dim > 1 else pts[..., 0])
    return assemble_dirichlet(mask, -1.0, mask.field(vvals), shift=shift)


def solve_relative(
    potential: dict,
    L: float = 20.0,
    n: int = 4001,
    dim: int = 1,
    tol: float = 1e-10,
    couplings: bool = True,
) -> RelativeGroundState:
    """Ground state of -Lap + V on [-L, L]^dim with Dirichlet walls.

    Raises when the smallest eigenvalue is nonnegative (no bound state) or
    when the state has not decayed at the box boundary (box too small).
    """
    op = _box_operator(potential, dim, L, n)
    res = smallest_eigenpair(op, tol=tol)
    if res.eigenvalue >= 0:
        raise PairingError(
            f"no bound state: smallest eigenvalue {res.eigenvalue:.6g} is nonnegative"
        )
    alpha = res.eigenvector
    if np.min(alpha.values) < -1e-7 * np.max(np.abs(alpha.values)):
        raise PairingError("ground state is not positive after sign fixing")

    amax = np.max(np.abs(alpha.values))
    shell = _outermost_interior_amplitude(op.mask, alpha.values)
    if shell > 1e-6 * amax:
        raise PairingError(
            f"pair wavefunction has not decayed at the box boundary "
            f"(edge/interior = {shell / amax:.2e}); increase L"
        )

    gs = RelativeGroundState(
        potential=potential,
        E_b=-res.eigenvalue,
        alpha_star=alpha,
        L=L,
        residual=res.residual,
    )
    gs.rho_star = fit_decay_rate(gs)
    if couplings:
        gs.g_bcs, gs.g_0 = compute_couplings(gs)
    return gs


def _outermost_interior_amplitude(mask: DomainMask, values: np.ndarray) -> float:
    eroded_inside = mask.inside & (mask.dist > 2.01 * max(mask.grid.spacing))
    ring = mask.inside & ~eroded_inside
    if not ring.any():
        return 0.0
    return float(np.max(np.abs(values[ring])))


def spectral_gap(gs: RelativeGroundState, tol: float = 1e-8) -> float:
    """Gap between the two lowest eigenvalues of -Lap + V (cached)."""
    if gs.spectral_gap is None:
        mat = _box_operator(gs.potential, gs.dim, gs.L, gs.grid.n[0]).matrix
        sigma, lu = gershgorin_factor(mat)
        vals = np.sort(eigsh(mat, k=2, sigma=sigma, which="LM", tol=tol, rng=0,
                             OPinv=LinearOperator(mat.shape, lu.solve, dtype=float),
                             return_eigenvectors=False))
        gs.spectral_gap = float(vals[1] - vals[0])
    return gs.spectral_gap


# ---------------------------------------------------------------------------
# decay-rate fit


def shell_masses(gs: RelativeGroundState, n_shells: int = 60):
    """L2 mass of the pair wavefunction in radial shells of equal width."""
    grid = gs.grid
    r = np.abs(gs.alpha_star.values) ** 2 * grid.weights()
    radii = np.sqrt(np.sum(grid.points() ** 2, axis=-1)).reshape(grid.shape)
    edges = np.linspace(0.0, gs.L, n_shells + 1)
    idx = np.clip(np.digitize(radii.ravel(), edges) - 1, 0, n_shells - 1)
    mass = np.bincount(idx, weights=r.ravel(), minlength=n_shells)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, mass


def fit_decay_rate(
    gs: RelativeGroundState,
    window: tuple = (0.2, 0.8),
    max_log_residual: float = 0.25,
) -> float:
    """Exponential L2 decay rate: -slope/2 of log shell mass vs radius.

    The fit runs over radii in [window[0]*L, window[1]*L]. Raises when the
    shell mass is not monotone there (box too small) or when the log-linear
    residual exceeds ``max_log_residual`` (non-exponential decay).
    """
    centers, mass = shell_masses(gs)
    lo, hi = window[0] * gs.L, window[1] * gs.L
    sel = (centers >= lo) & (centers <= hi) & (mass > 0)
    # shells below the eigensolver noise floor carry no decay information
    sel &= mass > np.max(mass) * 1e-14
    if np.count_nonzero(sel) < 4:
        raise PairingError("too few usable shells in the fit window")
    c = centers[sel]
    logm = np.log(mass[sel])
    if np.any(np.diff(logm) > 1e-12):
        raise PairingError("shell mass is not monotone in the fit window; box too small")
    slope, intercept = np.polyfit(c, logm, 1)
    rms = float(np.sqrt(np.mean((logm - (slope * c + intercept)) ** 2)))
    if rms > max_log_residual:
        raise PairingError(
            f"shell-mass fit residual {rms:.3g} exceeds {max_log_residual}; "
            "decay is not exponential in this window"
        )
    # super/sub-exponential decay shows as slope drift across the window
    half = c.size // 2
    s1 = np.polyfit(c[:half], logm[:half], 1)[0]
    s2 = np.polyfit(c[half:], logm[half:], 1)[0]
    if abs(s2 - s1) > 0.10 * max(abs(s1), abs(s2)):
        raise PairingError(
            f"decay rate drifts across the window ({-s1 / 2:.3g} -> {-s2 / 2:.3g}); "
            "not exponential"
        )
    return float(-slope / 2.0)


# ---------------------------------------------------------------------------
# quartic couplings


def coupling_integrals(
    field: ScalarField,
    E_b: float,
    p_max: float | None = None,
    n_p: int = 2048,
) -> tuple:
    """Momentum quadrature of (2 pi)^-d int (p^2 + E_b)|f_hat|^4 and
    (2 pi)^-d int |f_hat|^4 for a box-supported field."""
    grid = field.grid
    if p_max is None:
        p_max = max(10.0, 10.0 * np.sqrt(max(E_b, 1e-12)))
    nyq = np.pi / max(grid.spacing)
    if p_max > nyq:
        raise PairingError(
            f"p_max {p_max:.3g} exceeds the grid Nyquist limit {nyq:.3g}"
        )
    if n_p < 512:
        raise PairingError("need at least 512 momentum nodes per axis")
    pts, w = momentum_lattice(p_max, n_p, grid.dim)
    fhat = fourier_samples(field, pts)
    dens = np.abs(fhat) ** 4
    p2 = np.sum(pts**2, axis=-1)
    pref = (2 * np.pi) ** (-grid.dim)
    g_bcs = pref * float(np.sum((p2 + E_b) * dens * w))
    g_0 = pref * float(np.sum(dens * w))

    # tail check: halving p_max must not change the result materially
    inner = np.max(np.abs(pts), axis=-1) <= 0.5 * p_max
    g_bcs_half = pref * float(np.sum(((p2 + E_b) * dens * w)[inner]))
    g_0_half = pref * float(np.sum((dens * w)[inner]))
    scale = max(abs(g_bcs), 1e-300)
    if abs(g_bcs - g_bcs_half) > 1e-4 * scale or (
        g_0 > 0 and abs(g_0 - g_0_half) > 1e-4 * g_0
    ):
        raise PairingError(
            "momentum quadrature has not converged; increase p_max"
        )
    return g_bcs, g_0


def compute_couplings(
    gs: RelativeGroundState, p_max: float | None = None, n_p: int = 2048
) -> tuple:
    """Quartic couplings of the normalized pair wavefunction; cached on gs."""
    g_bcs, g_0 = coupling_integrals(gs.alpha_star, gs.E_b, p_max=p_max, n_p=n_p)
    gs.g_bcs, gs.g_0 = g_bcs, g_0
    return g_bcs, g_0


# ---------------------------------------------------------------------------
# smooth radial cutoff


def smoothstep_cutoff(r) -> np.ndarray:
    """Symmetric profile: 1 on |r| <= 1, 0 for |r| >= 3/2, quintic in between."""
    t = np.clip((1.5 - np.abs(np.asarray(r, dtype=float))) / 0.5, 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


CHI_PROFILE = ("quintic smoothstep S((3/2 - |r|)/(1/2)) with "
               "S(t) = 6 t^5 - 15 t^4 + 10 t^3 clamped to [0, 1]; "
               "1 on the unit ball, supported in the 3/2 ball")


@dataclass
class CutoffState:
    """Radially cut pair function chi(r/phi_h) * h * alpha_star(r)."""

    gs: RelativeGroundState
    phi_h: float
    h: float
    a_field: ScalarField
    chi_profile: str = CHI_PROFILE

    def norm_sq(self) -> float:
        w = self.a_field.grid.weights()
        return float(np.sum(np.abs(self.a_field.values) ** 2 * w))

    def evaluate(self, points) -> np.ndarray:
        """chi(r/phi_h) * h * alpha_star(r) at arbitrary 1D points."""
        pts = np.asarray(points, dtype=float)
        return smoothstep_cutoff(pts / self.phi_h) * self.h * self.gs.evaluate(pts)


def cutoff_state(gs: RelativeGroundState, phi_h: float, h: float = 1.0) -> CutoffState:
    if phi_h <= 0:
        raise PairingError("cutoff radius must be positive")
    grid = gs.grid
    radii = np.sqrt(np.sum(grid.points() ** 2, axis=-1)).reshape(grid.shape)
    chi = smoothstep_cutoff(radii / phi_h)
    vals = chi * h * gs.alpha_star.values
    return CutoffState(gs, phi_h, h, ScalarField(grid, vals))


@dataclass
class MatchedRelativeState:
    """Relative ground state of the three-point discretization at a fixed
    lattice step.

    Product-grid pair kernels induce a relative problem whose Laplacian is
    the three-point stencil at the micro step (domain spacing / h). Sampling
    the pair function from this discrete eigenproblem, and pairing it with
    the discrete binding energy, makes the large kinetic-plus-potential
    cancellation in pair-state energies exact at the discrete level; both
    converge to their continuum values quadratically in the step.
    """

    potential: dict
    step: float
    halfwidth: float
    E_b: float
    samples: np.ndarray = field(repr=False)  # values at k*step, k in [-K, K]

    @property
    def k_max(self) -> int:
        return (self.samples.size - 1) // 2

    def evaluate_lattice(self, k) -> np.ndarray:
        """Values at lattice indices k (s = k * step); zero beyond the box."""
        k = np.asarray(k)
        out = np.zeros(k.shape, dtype=float)
        ok = np.abs(k) <= self.k_max
        out[ok] = self.samples[k[ok] + self.k_max]
        return out

    def norm_sq(self) -> float:
        return float(np.sum(self.samples**2) * self.step)


def matched_relative_state(
    potential: dict, step: float, halfwidth: float = 20.0, tol: float = 1e-12
) -> MatchedRelativeState:
    """Solve -Lap + V on the micro lattice of the given step (d=1).

    The eigenvector is normalized in the lattice L2 norm (sum * step) and
    sign-fixed positive; raises when no bound state exists at this step.
    """
    if step <= 0:
        raise PairingError("lattice step must be positive")
    k_max = int(round(halfwidth / step))
    if k_max < 8:
        raise PairingError("micro lattice too coarse for the box halfwidth")
    op = _box_operator(potential, 1, k_max * step, 2 * k_max + 1)
    res = smallest_eigenpair(op, tol=tol)
    if res.eigenvalue >= 0:
        raise PairingError(
            f"no bound state on the step-{step} lattice "
            f"(eigenvalue {res.eigenvalue:.6g})"
        )
    vals = np.asarray(res.eigenvector.values, dtype=float)
    nrm = np.sqrt(np.sum(vals**2) * step)
    return MatchedRelativeState(
        potential, step, k_max * step, -res.eigenvalue, vals / nrm
    )


def lattice_pair_field(matched: MatchedRelativeState, phi_h: float,
                       h: float) -> np.ndarray:
    """Cutoff pair samples chi(s/phi_h) * h * alpha(s) on the micro lattice."""
    k = np.arange(-matched.k_max, matched.k_max + 1)
    s = k * matched.step
    return smoothstep_cutoff(s / phi_h) * h * matched.samples


def _lattice_neg_laplacian(a: np.ndarray, step: float) -> np.ndarray:
    """Three-point -Lap of micro-lattice samples, zero beyond both ends."""
    d = np.zeros_like(a)
    d[1:-1] = (2.0 * a[1:-1] - a[2:] - a[:-2]) / step**2
    d[0] = (2.0 * a[0] - a[1]) / step**2
    d[-1] = (2.0 * a[-1] - a[-2]) / step**2
    return d


def lattice_couplings(matched: MatchedRelativeState, a: np.ndarray) -> tuple:
    """Exact lattice counterparts of the quartic couplings of ``a``.

    Real-space correlation form: with c(m) = sum_k a(k) a(k+m) and d the
    three-point (-Lap) of a, g_0 = step^3 * sum_m c(m)^2 and
    g_bcs = step^3 * sum_m c_d(m) c(m) + E_b * g_0. These match the lattice
    quartic traces exactly and converge quadratically to the continuum
    momentum integrals.
    """
    step = matched.step
    c = np.correlate(a, a, mode="full")
    cd = np.correlate(_lattice_neg_laplacian(a, step), a, mode="full")
    g_0 = float(np.sum(c * c)) * step**3
    g_bcs = float(np.sum(cd * c)) * step**3 + matched.E_b * g_0
    return g_bcs, g_0


def lattice_pair_energy(matched: MatchedRelativeState, a: np.ndarray) -> float:
    """<a, (-Lap + E_b + V) a> on the micro lattice (zero for the uncut
    eigenvector, up to solver precision)."""
    step = matched.step
    vfun = potential_from_descriptor(matched.potential)
    s = np.arange(-matched.k_max, matched.k_max + 1) * step
    lap_a = _lattice_neg_laplacian(a, step)
    return float(np.sum(a * (lap_a + (vfun(s) + matched.E_b) * a)) * step)


@dataclass
class CutoffDiagnostics:
    """h-normalized residuals of the four cutoff estimates."""

    norm_defect: float
    g_bcs_defect: float
    g_0_defect: float
    energy_defect: float

    def as_tuple(self) -> tuple:
        return (self.norm_defect, self.g_bcs_defect, self.g_0_defect, self.energy_defect)


def cutoff_diagnostics(gs: RelativeGroundState, phi_h: float) -> CutoffDiagnostics:
    """Residuals of the cutoff state against the uncut pair function.

    All four are already divided by their natural h power (h^2, h^4, h^4,
    h^2), which cancels h entirely; each decays like exp(-rho*phi_h/2) or
    faster as the cutoff radius grows.
    """
    if phi_h < 3:
        raise PairingError("cutoff radius must be at least 3 pair radii")
    if 1.5 * phi_h > gs.L:
        raise PairingError(
            f"cutoff support 1.5*{phi_h} exceeds the truncation box {gs.L}"
        )
    state = cutoff_state(gs, phi_h, h=1.0)
    if gs.g_bcs is None or gs.g_0 is None:
        compute_couplings(gs)

    norm_defect = abs(state.norm_sq() - 1.0)
    g_bcs_cut, g_0_cut = coupling_integrals(state.a_field, gs.E_b)
    g_bcs_defect = abs(g_bcs_cut - gs.g_bcs)
    g_0_defect = abs(g_0_cut - gs.g_0)

    op = _box_operator(gs.potential, gs.dim, gs.L, gs.grid.n[0], shift=gs.E_b)
    avals = state.a_field.values[op.mask.inside]
    energy = float(avals @ (op.matrix @ avals)) * op.mask.grid.node_weight
    return CutoffDiagnostics(norm_defect, g_bcs_defect, g_0_defect, energy)

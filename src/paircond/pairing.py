"""The relative two-body problem -Lap + V on a Dirichlet box [-L, L] and its
bound state alpha_*: binding energy, pair wavefunction, L2 decay rate,
quartic couplings, and the cut pair field chi(s/phi) h alpha_*(s) that
trial states are built from, with its energy.

One type, ``RelativeGroundState``, holds the state; one set of lattice sums
(``compute_couplings``, ``lattice_pair_field``, ``lattice_pair_energy``)
works on its samples. ``solve_relative`` solves a fine box for continuum
values; ``matched_relative_state`` solves the micro lattice (spacing / h)
whose three-point stencil the product-grid kernels induce, where the
couplings, the cut pair field and its energy are exact. The state
decays exponentially, and ``solve_relative`` checks that it has at the box
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import box_mask
from .grid import (MAX_GRID_NODES, ConfigError, Grid, Key, ScalarField,
                   positive, read_kind)
from .spectral import StencilOperator, assemble_dirichlet, smallest_eigenpair

# the decay-rate fit: radial shells, the fit window in units of L, and the
# largest rms residual of log shell mass that still counts as exponential
N_SHELLS = 60
DECAY_WINDOW = (0.2, 0.8)
MAX_LOG_RESIDUAL = 0.25


class PairingError(RuntimeError):
    """Relative-problem failure found by solving (no bound state, no decay
    at the box edge, misfit decay)."""


# ---------------------------------------------------------------------------
# potential descriptors


def _poschl_teller(depth, width):
    def profile(r):
        # -depth / inf = -0 where r / width, its cosh or the square overflows
        with np.errstate(over="ignore"):
            return -depth / np.cosh(r / width) ** 2
    return profile


def _square_well(depth, halfwidth):
    return lambda r: np.where(r < halfwidth, -depth, 0.0)


def _gaussian_well(depth, width):
    def profile(r):
        # exp(-inf) = 0 where r^2 / (2 width^2) overflows
        with np.errstate(over="ignore"):
            return -depth * np.exp(-(r**2) / (2 * width**2))
    return profile


def _gaussian_width(width, name: str):
    """Range rule of a Gaussian width: positive, and 2 width^2, which the
    profile divides by, a normal float (width about 1e-154 to 1e154)."""
    positive(width, name)
    if not np.finfo(float).tiny <= 2 * width * width < np.inf:
        raise ConfigError(f"{name} must keep 2 width^2 a normal float "
                          f"(width about 1e-154 to 1e154), got {width!r}")


def _table(x, v):
    xs, vs = np.asarray(x), np.asarray(v)
    if xs.shape != vs.shape or xs.size < 2 or not np.all(np.diff(xs) > 0):
        raise ConfigError("table potential needs x and v of one length, at "
                          "least 2, x strictly increasing")
    return lambda r: np.interp(r, xs, vs, left=0.0, right=0.0)


# potential kind -> (maker of its radial profile, parameter table, as
# grid.read_section reads it)
POTENTIALS = {
    "poschl_teller": (_poschl_teller,
                      {"depth": 2.0, "width": Key(0.0, 1.0, positive)}),
    "square_well": (_square_well,
                    {"depth": Key(0.0), "halfwidth": Key(0.0, 1.0, positive)}),
    "gaussian_well": (_gaussian_well,
                      {"depth": Key(0.0),
                       "width": Key(0.0, 1.0, _gaussian_width)}),
    "table": (_table, {"x": Key([0.0]), "v": Key([0.0])}),
}


def potential_from_descriptor(desc: dict):
    """Return a callable V(x), applied elementwise to an array of
    separations, from a JSON-style descriptor: its ``kind`` names an entry
    of ``POTENTIALS``, whose table reads the other keys (a ``table``
    interpolates its radial samples linearly, and is zero beyond them).
    Every potential is radial, so reflection symmetric. A descriptor that
    the table or the maker refuses raises ``ConfigError``."""
    make, params = read_kind(desc, POTENTIALS, "potential")
    profile = make(**params)
    return lambda x: profile(np.abs(np.asarray(x, dtype=float)))


# ---------------------------------------------------------------------------
# ground state record


@dataclass
class RelativeGroundState:
    """Bound state of the relative operator -Lap + V on the box [-L, L].

    On an odd node count 2 k_max + 1 the nodes are the lattice s = k * step,
    |k| <= k_max, on which the lattice sums work. The decay rate and the
    pair (g_bcs, g_0) are computed when first needed, then cached.
    """

    potential: dict
    E_b: float
    alpha_star: ScalarField
    L: float
    residual: float

    @property
    def grid(self) -> Grid:
        return self.alpha_star.grid

    @property
    def step(self) -> float:
        return self.grid.spacing[0]

    @cached_property
    def rho_star(self) -> float:
        return fit_decay_rate(self)

    @cached_property
    def _couplings(self) -> tuple:
        return compute_couplings(self)

    @property
    def g_bcs(self) -> float:
        return self._couplings[0]

    @property
    def g_0(self) -> float:
        return self._couplings[1]



def _box_operator(potential: dict, L: float, n: int) -> StencilOperator:
    """-Lap + V on [-L, L], n nodes, Dirichlet walls."""
    mask = box_mask([-L], [L], n=n)
    vvals = potential_from_descriptor(potential)(mask.grid.axis(0))
    return assemble_dirichlet(mask, -1.0, mask.field(vvals))


def solve_relative(
    potential: dict,
    L: float = 20.0,
    n: int = 4001,
    tol: float = 1e-10,
) -> RelativeGroundState:
    """Ground state of -Lap + V on [-L, L] with Dirichlet walls.

    Raises when the smallest eigenvalue is nonnegative (no bound state) or
    when the state has not decayed at the box boundary (box too small).
    """
    op = _box_operator(potential, L, n)
    res = smallest_eigenpair(op, tol=tol)
    if res.eigenvalue >= 0:
        raise PairingError(
            f"no bound state: smallest eigenvalue {res.eigenvalue:.6g} is nonnegative"
        )
    alpha = res.eigenvector
    if np.min(alpha.values) < -1e-7 * np.max(np.abs(alpha.values)):
        raise PairingError("ground state is not positive after sign fixing")

    vals = np.abs(alpha.values)
    amax = np.max(vals)
    shell = max(np.max(vals[1:3]), np.max(vals[-3:-1]))  # next to the walls
    if shell > 1e-6 * amax:
        raise PairingError(
            f"pair wavefunction has not decayed at the box boundary "
            f"(edge/interior = {shell / amax:.2e}); increase L"
        )
    return RelativeGroundState(potential=potential, E_b=-res.eigenvalue,
                               alpha_star=alpha, L=L, residual=res.residual)


def micro_lattice_k_max(step: float, halfwidth: float = 20.0) -> int:
    """k_max = round(halfwidth / step) of the micro lattice s = k * step.
    Refuses with ``ConfigError``, before any array exists, a nonpositive
    step, k_max < 8 and more than ``MAX_GRID_NODES`` nodes (2 k_max + 1 <= M
    exactly when halfwidth / step < (M - 1)/2, which also refuses an
    infinite ratio)."""
    if not step > 0:
        raise ConfigError("lattice step must be positive")
    ratio = halfwidth / step
    if not ratio < (MAX_GRID_NODES - 1) / 2:
        raise ConfigError(
            f"micro lattice of step {step:.3g} over the halfwidth "
            f"{halfwidth:.3g} exceeds the {MAX_GRID_NODES}-node budget"
        )
    k_max = int(round(ratio))
    if k_max < 8:
        raise ConfigError("micro lattice too coarse for the box halfwidth")
    return k_max


def matched_relative_state(potential: dict, step: float,
                           halfwidth: float = 20.0) -> RelativeGroundState:
    """Ground state of -Lap + V on the micro lattice of the given step, on
    the box of halfwidth k_max * step (``micro_lattice_k_max``).

    Product-grid pair kernels induce a relative problem whose Laplacian is
    the three-point stencil at the micro step (domain spacing / h). Sampling
    the pair function from this discrete eigenproblem, and pairing it with
    the discrete binding energy, makes the large kinetic-plus-potential
    cancellation in pair-state energies exact at the discrete level; both
    converge to their continuum values quadratically in the step.
    """
    k_max = micro_lattice_k_max(step, halfwidth)
    return solve_relative(potential, k_max * step, 2 * k_max + 1, tol=1e-12)


# ---------------------------------------------------------------------------
# decay-rate fit


def shell_masses(gs: RelativeGroundState):
    """L2 mass of the pair wavefunction in ``N_SHELLS`` radial shells of
    equal width."""
    grid = gs.grid
    r = np.abs(gs.alpha_star.values) ** 2 * grid.weights()
    edges = np.linspace(0.0, gs.L, N_SHELLS + 1)
    idx = np.clip(np.digitize(np.abs(grid.axis(0)), edges) - 1, 0, N_SHELLS - 1)
    mass = np.bincount(idx, weights=r, minlength=N_SHELLS)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, mass


def fit_decay_rate(gs: RelativeGroundState) -> float:
    """Exponential L2 decay rate: -slope/2 of log shell mass vs radius.

    The fit runs over radii in ``DECAY_WINDOW`` times L. Raises when the
    shell mass is not monotone there (box too small) or when the log-linear
    residual exceeds ``MAX_LOG_RESIDUAL`` (non-exponential decay).
    """
    centers, mass = shell_masses(gs)
    lo, hi = DECAY_WINDOW[0] * gs.L, DECAY_WINDOW[1] * gs.L
    sel = (centers >= lo) & (centers <= hi) & (mass > 0)
    # shells below the eigensolver noise floor carry no decay information
    sel &= mass > np.max(mass) * 1e-14
    if np.count_nonzero(sel) < 4:
        decay, dx = 1.0 / np.sqrt(gs.E_b), gs.grid.spacing[0]
        if decay < dx:
            raise PairingError(
                f"the bound state's decay length {decay:.3g} is below the "
                f"grid spacing {dx:.3g}, so no shell of the fit window "
                "resolves it; raise n or lower L")
        raise PairingError("too few usable shells in the fit window")
    c = centers[sel]
    logm = np.log(mass[sel])
    if np.any(np.diff(logm) > 1e-12):
        raise PairingError("shell mass is not monotone in the fit window; box too small")
    slope, intercept = np.polyfit(c, logm, 1)
    rms = float(np.sqrt(np.mean((logm - (slope * c + intercept)) ** 2)))
    if rms > MAX_LOG_RESIDUAL:
        raise PairingError(
            f"shell-mass fit residual {rms:.3g} exceeds {MAX_LOG_RESIDUAL}; "
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


def compute_couplings(gs: RelativeGroundState, a: np.ndarray | None = None) -> tuple:
    """Quartic couplings (g_bcs, g_0) of lattice samples ``a`` at the step
    and binding energy of ``gs``; ``a`` defaults to the pair wavefunction.

    For the pair wavefunction these are g_bcs = (2 pi)^-1 int (p^2 + E_b)
    |alpha_hat|^4 dp and g_0 = (2 pi)^-1 int |alpha_hat|^4 dp. By Plancherel,
    |alpha_hat|^2 is the transform of the autocorrelation c(m) =
    sum_k a(k) a(k+m), and p^2 |alpha_hat|^2 that of c_d, the correlation of
    the three-point (-Lap a) with a: g_0 = step^3 sum_m c(m)^2 and
    g_bcs = step^3 sum_m c_d(m) c(m) + E_b g_0. On the micro lattice these
    are exactly the lattice quartic traces; they converge quadratically in
    the step to the momentum integrals.

    Both sums are taken by Parseval from one FFT. Zero-padded to M >= 2N
    (N samples; M the power of two, a fast length), a has the DFT A_k, and
    c, of lags |m| < N, is the cyclic autocorrelation of the padded a, with
    DFT |A_k|^2; so sum_m c(m)^2 = M^-1 sum_k |A_k|^4. The cyclic
    three-point -Lap of the padded a has DFT lam_k A_k, lam_k = (2 - 2
    cos(2 pi k/M)) / step^2, taken as 4 sin^2(pi k/M) / step^2 without the
    cancellation at small k; it differs from the padded -Lap a only on the
    two pad nodes next to the ends, N and M - 1, where it reads
    -a(N-1)/step^2 and -a(0)/step^2. So -Lap a has the DFT X_k = lam_k A_k
    + (a(N-1) e^(-2 pi i k N/M) + a(0) e^(2 pi i k/M)) / step^2, and
    sum_m c_d(m) c(m) = M^-1 sum_k Re(X_k conj(A_k)) |A_k|^2. The sums over
    k run over the half spectrum of ``np.fft.rfft``, with the terms strictly
    between 0 and M/2 counted twice.
    """
    if a is None:
        a = gs.alpha_star.values
    step = gs.step
    size = 1 << (2 * a.size - 1).bit_length()
    spec = np.fft.rfft(a, size)
    power = spec.real**2 + spec.imag**2
    theta = 2.0 * np.pi / size * np.arange(power.size)
    ends = a[-1] * np.exp(-1j * a.size * theta) + a[0] * np.exp(1j * theta)
    lap = (4.0 * np.sin(0.5 * theta)**2 * power
           + (ends * spec.conj()).real) / step**2
    weight = np.full(power.size, 2.0 / size)
    weight[[0, -1]] = 1.0 / size
    g_0 = float(weight @ power**2) * step**3
    g_bcs = float(weight @ (lap * power)) * step**3 + gs.E_b * g_0
    return g_bcs, g_0


# ---------------------------------------------------------------------------
# smooth radial cutoff


def smoothstep_cutoff(r) -> np.ndarray:
    """Symmetric profile: 1 on |r| <= 1, 0 for |r| >= 3/2, quintic in between."""
    t = np.clip((1.5 - np.abs(np.asarray(r, dtype=float))) / 0.5, 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


def lattice_pair_field(gs: RelativeGroundState, phi: float,
                       h: float) -> np.ndarray:
    """Cut pair samples chi(s/phi) * h * alpha(s) on the nodes of ``gs``."""
    return smoothstep_cutoff(gs.grid.axis(0) / phi) * h * gs.alpha_star.values


def lattice_neg_laplacian(a: np.ndarray, step: float,
                          axis: int = 0) -> np.ndarray:
    """Three-point -Lap of lattice samples along ``axis``, zero beyond both
    ends of that axis."""
    a = np.moveaxis(a, axis, 0)
    padded = np.pad(a, [(1, 1)] + [(0, 0)] * (a.ndim - 1))
    return np.moveaxis((2.0 * a - padded[2:] - padded[:-2]) / step**2, 0, axis)


def lattice_pair_energy(gs: RelativeGroundState, a: np.ndarray) -> float:
    """<a, (-Lap + E_b + V) a> on the nodes of ``gs`` (zero for the uncut
    eigenvector, up to solver precision)."""
    vvals = potential_from_descriptor(gs.potential)(gs.grid.axis(0))
    lap_a = lattice_neg_laplacian(a, gs.step)
    return float(np.sum(a * (lap_a + (vvals + gs.E_b) * a)) * gs.step)

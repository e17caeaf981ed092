"""Order-parameter extraction for the decomposition tests: no experiment
runs it, so it lives with the tests that do (acceptance test 7 and
``test_bcs``).

Center-of-mass bookkeeping: for box nodes x_i, x_j with spacing dx, the pair
(i, j) maps to u = i + j (center X on a half-spacing lattice) and v = i - j
(separation r = v*dx on a 2*dx lattice of fixed parity u mod 2). The change
of variables is a relabeling of kernel entries, with quadrature weights
(dx/2) * (2*dx) = dx^2, so all norm identities hold at machine precision.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from paircond.bcs import BandKernel, BCSConfig, BCSError, center_values, pair_kernel
from paircond.grid import Grid, GridError, ScalarField
from paircond.pairing import solve_relative


@dataclass
class PairKernel:
    """Scalar per node pair of a product grid (same grid for both factors)."""

    grid_x: Grid
    grid_y: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values)
        expected = self.grid_x.shape + self.grid_y.shape
        if self.values.shape != expected:
            raise GridError(
                f"kernel shape {self.values.shape} does not match grids {expected}"
            )

    def check_symmetric(self, tol: float = 1e-12):
        """Hermitian check: kernel(x, y) == conj(kernel(y, x))."""
        if self.grid_x != self.grid_y:
            raise GridError("symmetry check requires identical grids")
        v = self.values
        axes = tuple(range(v.ndim // 2, v.ndim)) + tuple(range(v.ndim // 2))
        dev = np.max(np.abs(v - np.conj(np.transpose(v, axes))))
        scale = max(np.max(np.abs(v)), 1.0)
        if dev > tol * scale:
            raise GridError(f"kernel not symmetric: max deviation {dev:.3e}")


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
        return center_values(psi.values)


def pair_kernel_matrix(cfg: BCSConfig, psi_half: np.ndarray,
                       pair_wave_lattice, frame: COMFrame) -> BandKernel:
    """``pair_kernel`` for a pair wave given as a function of the separation
    count v (the continuum state's spline, say), sampled once per v."""
    n = frame.n
    return pair_kernel(psi_half, pair_wave_lattice(np.arange(1 - n, n)),
                       frame.inside)


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
    frame = COMFrame.build(cfg)
    a_mat = np.asarray(alpha.values, dtype=float)
    both = frame.inside[:, None] & frame.inside[None, :]
    if np.any(np.abs(a_mat[~both]) > 0):
        raise BCSError("kernel has support outside the product domain")

    psi_vals = np.zeros(2 * frame.n - 1)
    xi = np.zeros_like(a_mat)
    for u, i, j, a_fiber in _fibers(cfg, frame):
        slice_vals = a_mat[i, j]
        # psi(X) = h^{-1} int alpha_*(r/h) alpha~(X, r) dr over the fiber
        psi_vals[u] = (float(np.sum(a_fiber * slice_vals)) * (2.0 * frame.dx)
                       / cfg.h)
        xi[i, j] = slice_vals - psi_vals[u] * a_fiber  # h^{1-d} = 1 at d=1
    psi_field = ScalarField(frame.half_grid(), psi_vals)
    return psi_field, PairKernel(cfg.mask.grid, cfg.mask.grid, xi)


def pair_wave(gs):
    """The pair wavefunction of the relative state ``gs`` off its nodes: a
    cubic spline of its samples, zero outside the box."""
    spline = CubicSpline(gs.grid.axis(0), gs.alpha_star.values)

    def wave(points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        out = np.zeros_like(pts)
        ok = np.abs(pts) <= gs.L
        out[ok] = spline(pts[ok])
        return out

    return wave


def _fibers(cfg: BCSConfig, frame: COMFrame):
    """Each nonempty center fiber u: (u, i, j, alpha_*((x_i - x_j)/h)), the
    pair wave from the spline of the continuum relative state."""
    wave = pair_wave(solve_relative(cfg.potential))
    for u in range(2 * frame.n - 1):
        i, j, v = frame.pair_indices(u)
        if i.size:
            yield u, i, j, wave(v * frame.dx / cfg.h)


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

"""Uniform Cartesian lattices, fields on them, quadrature and Fourier sampling.

Grids are node-centered: the first and last node of every axis sit exactly on
the box bounds. Quadrature is the tensor trapezoid rule, which reduces to a
plain ``prod(spacing)`` node sum for every field that vanishes on the box
boundary (all physically relevant fields here do).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


class GridError(ValueError):
    """Usage error in grid or field construction/combination."""


def _as_axis_tuple(value, dim, dtype):
    arr = np.asarray(value, dtype=dtype).reshape(-1)
    if arr.size == 1:
        arr = np.repeat(arr, dim)
    if arr.size != dim:
        raise GridError(f"expected {dim} per-axis values, got {arr.size}")
    return tuple(arr.tolist())


@dataclass(frozen=True)
class Grid:
    """Uniform lattice over a d-dimensional box, d in {1, 2, 3}."""

    lower: tuple
    upper: tuple
    n: tuple

    def __post_init__(self):
        dim = len(self.n)
        if dim not in (1, 2, 3):
            raise GridError(f"dimension must be 1, 2 or 3, got {dim}")
        if len(self.lower) != dim or len(self.upper) != dim:
            raise GridError("lower/upper/n must have matching lengths")
        for lo, up, k in zip(self.lower, self.upper, self.n):
            if k < 3:
                raise GridError("need at least 3 nodes per axis")
            if not up > lo:
                raise GridError("upper bound must exceed lower bound")

    @staticmethod
    def box(lower, upper, n) -> "Grid":
        """Build a grid from scalars (1D) or per-axis sequences."""
        n_arr = np.asarray(n).reshape(-1)
        dim = n_arr.size
        return Grid(
            _as_axis_tuple(lower, dim, float),
            _as_axis_tuple(upper, dim, float),
            _as_axis_tuple(n, dim, int),
        )

    @property
    def dim(self) -> int:
        return len(self.n)

    @property
    def shape(self) -> tuple:
        return tuple(self.n)

    @property
    def size(self) -> int:
        return int(np.prod(self.n))

    @property
    def spacing(self) -> tuple:
        return tuple(
            (up - lo) / (k - 1) for lo, up, k in zip(self.lower, self.upper, self.n)
        )

    @property
    def node_weight(self) -> float:
        """Interior quadrature weight, the product of spacings."""
        return float(np.prod(self.spacing))

    def axis(self, a: int) -> np.ndarray:
        return np.linspace(self.lower[a], self.upper[a], self.n[a])

    def axes(self) -> tuple:
        return tuple(self.axis(a) for a in range(self.dim))

    def meshgrid(self) -> tuple:
        return tuple(np.meshgrid(*self.axes(), indexing="ij"))

    def points(self) -> np.ndarray:
        """All node coordinates as an (N, dim) array in C order."""
        mesh = self.meshgrid()
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weight per node (shape ``self.shape``)."""
        w = np.ones(self.shape)
        for a in range(self.dim):
            wa = np.full(self.n[a], self.spacing[a])
            wa[0] *= 0.5
            wa[-1] *= 0.5
            shape = [1] * self.dim
            shape[a] = self.n[a]
            w = w * wa.reshape(shape)
        return w

    def boundary_shell(self) -> np.ndarray:
        """Indicator of the nodes on the faces of the box."""
        shell = np.zeros(self.shape, dtype=bool)
        for a in range(self.dim):
            idx = [slice(None)] * self.dim
            for edge in (0, -1):
                idx[a] = edge
                shell[tuple(idx)] = True
        return shell


@dataclass
class ScalarField:
    """Real or complex values on the nodes of one grid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise GridError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def check_finite(self):
        if not np.all(np.isfinite(self.values)):
            raise GridError("field contains non-finite values")


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


def _require_same_grid(f: ScalarField, g: ScalarField):
    if f.grid != g.grid:
        raise GridError("fields live on different grids")


def integrate(f: ScalarField) -> complex | float:
    """Quadrature sum of ``f`` over the whole box."""
    f.check_finite()
    total = np.sum(f.values * f.grid.weights())
    return total if np.iscomplexobj(f.values) else float(total)


def inner_product(f: ScalarField, g: ScalarField) -> complex | float:
    """L2 pairing, conjugate-linear in the first argument."""
    _require_same_grid(f, g)
    total = np.sum(np.conj(f.values) * g.values * f.grid.weights())
    if np.iscomplexobj(f.values) or np.iscomplexobj(g.values):
        return total
    return float(total)


def fourier_samples(f: ScalarField, momenta) -> np.ndarray:
    """Direct-quadrature Fourier transform f_hat(p) = int exp(-i p.x) f dx.

    ``momenta`` is an (M, dim) array (or a flat list for 1D grids). With this
    convention Plancherel reads (2 pi)^-d int |f_hat|^2 dp = int |f|^2 dx.
    A warning is emitted when |f| has not decayed at the box boundary, and
    when a requested momentum exceeds the grid Nyquist limit pi/spacing
    (beyond it the quadrature only returns aliases).
    """
    f.check_finite()
    grid = f.grid
    p = np.asarray(momenta, dtype=float)
    if p.ndim == 1:
        p = p.reshape(-1, 1) if grid.dim == 1 else p.reshape(1, -1)
    if p.ndim != 2 or p.shape[1] != grid.dim:
        raise GridError(f"momenta must be (M, {grid.dim})")

    vals = f.values
    interior_max = np.max(np.abs(vals))
    if interior_max > 0:
        bmax = np.max(np.abs(vals[grid.boundary_shell()]))
        if bmax > 1e-6 * interior_max:
            warnings.warn(
                "field has not decayed at the box boundary; Fourier samples "
                f"may be unreliable (boundary/interior = {bmax / interior_max:.2e})",
                stacklevel=2,
            )
    nyq = np.pi / np.min(grid.spacing)
    if np.max(np.abs(p)) > nyq:
        warnings.warn(
            f"momenta beyond the Nyquist limit {nyq:.3g} alias back into the band",
            stacklevel=2,
        )

    x = grid.points()
    fw = (vals * grid.weights()).ravel()
    out = np.empty(p.shape[0], dtype=complex)
    # chunked to keep the phase matrix small
    chunk = max(1, int(2**22 // max(x.shape[0], 1)))
    for start in range(0, p.shape[0], chunk):
        pc = p[start : start + chunk]
        phase = np.exp(-1j * (pc @ x.T))
        out[start : start + chunk] = phase @ fw
    return out


def momentum_lattice(p_max: float, n_p: int, dim: int = 1) -> tuple:
    """Uniform momentum grid over [-p_max, p_max]^dim with trapezoid weights.

    Returns (points (M, dim), weights (M,)).
    """
    axis = np.linspace(-p_max, p_max, n_p)
    dp = axis[1] - axis[0]
    w1 = np.full(n_p, dp)
    w1[0] *= 0.5
    w1[-1] *= 0.5
    if dim == 1:
        return axis.reshape(-1, 1), w1
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    ws = np.meshgrid(*([w1] * dim), indexing="ij")
    w = np.ones(n_p**dim)
    for g in ws:
        w = w * g.ravel()
    return pts, w

"""Uniform Cartesian lattices, fields on them, and the L2 pairing.

Grids are node-centered: the first and last node of every axis sit exactly on
the box bounds. Quadrature (``Grid.weights``) is the tensor trapezoid rule,
which reduces to a plain ``prod(spacing)`` node sum for every field that
vanishes on the box boundary (all physically relevant fields here do). A
grid refuses more than ``MAX_GRID_NODES`` nodes when it is constructed,
before any array exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# 32 MiB per float64 field; about ten times the largest product grid that
# twobody builds within its unknowns budget
MAX_GRID_NODES = 2**22


class GridError(ValueError):
    """Usage error in grid or field construction/combination."""


def _as_axis_tuple(value, dim, dtype):
    try:
        arr = np.asarray(value, dtype=dtype).reshape(-1)
    except OverflowError as exc:
        raise GridError("per-axis value beyond the int64 range") from exc
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
            # stencils divide by the squared spacing
            if not 1e-150 < (up - lo) / (k - 1) < 1e150:
                raise GridError(f"grid spacing on [{lo}, {up}] is out of range")
        nodes = math.prod(int(k) for k in self.n)
        if nodes > MAX_GRID_NODES:
            raise GridError(
                f"grid of {nodes} nodes exceeds the {MAX_GRID_NODES}-node budget"
            )

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

    def check_finite(self):
        if not np.all(np.isfinite(self.values)):
            raise GridError("field contains non-finite values")


def _require_same_grid(f: ScalarField, g: ScalarField):
    if f.grid != g.grid:
        raise GridError("fields live on different grids")


def inner_product(f: ScalarField, g: ScalarField) -> complex | float:
    """L2 pairing, conjugate-linear in the first argument."""
    _require_same_grid(f, g)
    total = np.sum(np.conj(f.values) * g.values * f.grid.weights())
    if np.iscomplexobj(f.values) or np.iscomplexobj(g.values):
        return total
    return float(total)

"""Domain masks on grids: the distance transform, erosion/dilation (the
interior and exterior approximations of a domain), connected components, the
builtin test domains and portable mask JSON.

A node belongs to a mask by its center. Distances are measured between node
centers, so every inside node has a strictly positive distance to the
complement (at least one spacing); boundary locations are resolved to one
grid cell. That convention makes ``erode(m, 0) == m`` and ``dilate(m, 0) == m``
exact.

On a line the distance transform is two running sweeps over the indices of
the outside nodes (nearest one to the left, nearest one to the right), and
the components are the runs of inside nodes. On a plane both come from
``scipy.ndimage``: its exact Euclidean distance transform (Maurer, Qi &
Raghavan, IEEE TPAMI 25, 2003) and its labelling. ``ndimage`` is imported
there, on first use, so one-dimensional runs never load it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import ConfigError, Grid, ScalarField, as_number


class GeometryError(ConfigError):
    """A mask, mask file or morphology that its input cannot give."""


@dataclass
class DomainMask:
    """Boolean interior indicator on a grid plus the distance fields of erosion
    (``dist``) and dilation (``dist_outside``), each cached on first use."""

    grid: Grid
    inside: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.inside = np.asarray(self.inside, dtype=bool)
        if self.inside.shape != self.grid.shape:
            raise GeometryError(
                f"inside shape {self.inside.shape} does not match grid {self.grid.shape}"
            )

    @cached_property
    def dist(self) -> np.ndarray:
        """Distance from each inside node to the nearest outside node center."""
        return _distance_exact(self.inside, self.grid.spacing)

    @cached_property
    def dist_outside(self) -> np.ndarray:
        """Distance from each outside node to the nearest inside node center."""
        return _distance_exact(~self.inside, self.grid.spacing)

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.inside))

    def interior_points(self) -> np.ndarray:
        return self.grid.points()[self.inside.ravel()]

    def field(self, values) -> ScalarField:
        """Build a Dirichlet field: given interior values (or a full array),
        zero everywhere outside the mask."""
        values = np.asarray(values)
        if values.shape == self.grid.shape:
            out = np.where(self.inside, values, 0.0)
        elif values.shape == (self.count,):
            out = np.zeros(self.grid.shape, dtype=values.dtype)
            out[self.inside] = values
        else:
            raise GeometryError(f"cannot place values of shape {values.shape}")
        return ScalarField(self.grid, out)


def _check_nontrivial(mask: DomainMask):
    n_in = mask.count
    if n_in == 0:
        raise GeometryError("mask has no inside nodes")
    if n_in == mask.grid.size:
        raise GeometryError("mask has no outside nodes")


def _distance_exact(inside: np.ndarray, spacing) -> np.ndarray:
    """Exact Euclidean distance transform (node-center convention).

    Zero on outside nodes; on inside nodes the distance to the nearest
    outside node center. On a line that node is the nearer of the last
    outside node to the left and the first to the right, and the distance
    is its index offset times the spacing, which is what ``ndimage`` returns
    there, bit for bit.
    """
    if not inside.any() or inside.all():
        raise GeometryError("distance transform needs inside and outside nodes")
    if inside.ndim > 1:
        from scipy import ndimage

        return ndimage.distance_transform_edt(inside, sampling=spacing)
    n = inside.size
    idx = np.arange(n)
    # sentinels a full length beyond either end lose to any outside node
    left = np.maximum.accumulate(np.where(inside, -n, idx))
    right = np.minimum.accumulate(np.where(inside, 2 * n, idx)[::-1])[::-1]
    return np.minimum(idx - left, right - idx) * float(spacing[0])


def label_components(inside: np.ndarray) -> tuple:
    """Connected components of a mask as (labels, count): labels numbers the
    components 1..count in index order and is 0 outside. Nodes connect to
    their axis neighbours only (4-connectivity on a plane), as the stencil
    couples them."""
    if inside.ndim > 1:
        from scipy import ndimage

        return ndimage.label(inside)
    starts = inside & ~np.concatenate(([False], inside[:-1]))
    return np.cumsum(starts) * inside, int(np.count_nonzero(starts))


def _box_margin(mask: DomainMask) -> float:
    """Smallest gap between the inside nodes and the bounding box."""
    pts = mask.interior_points()
    margins = []
    for a in range(mask.grid.dim):
        margins.append(np.min(pts[:, a]) - mask.grid.lower[a])
        margins.append(mask.grid.upper[a] - np.max(pts[:, a]))
    return float(min(margins))


def erode(mask: DomainMask, ell: float) -> DomainMask:
    """Interior approximation: keep nodes with dist(x, complement) > ell."""
    if ell < 0:
        raise GeometryError("erosion length must be nonnegative")
    _check_nontrivial(mask)
    inside = mask.inside & (mask.dist > ell)
    if not inside.any():
        raise GeometryError(f"erosion by {ell} leaves no nodes")
    return DomainMask(mask.grid, inside)


def dilate(mask: DomainMask, ell: float) -> DomainMask:
    """Exterior approximation: the mask plus outside nodes with dist(x, mask) <= ell."""
    if ell < 0:
        raise GeometryError("dilation length must be nonnegative")
    _check_nontrivial(mask)
    if ell > 0 and _box_margin(mask) < ell + 2 * max(mask.grid.spacing):
        raise GeometryError(
            f"dilation by {ell} would overflow the bounding box "
            f"(margin {_box_margin(mask):.3g})"
        )
    if ell == 0:
        return DomainMask(mask.grid, mask.inside.copy())
    # inclusive threshold: node-center distances overshoot the continuum
    # distance by up to one spacing, so <= keeps the result within one cell
    inside = mask.inside | (mask.dist_outside <= ell)
    return DomainMask(mask.grid, inside)


# ---------------------------------------------------------------------------
# builtin domains


def interval(a: float, b: float, grid: Grid | None = None, n: int = 401,
             margin: float | None = None) -> DomainMask:
    """Open interval (a, b) with Dirichlet nodes outside."""
    if grid is None:
        pad = margin if margin is not None else 0.0
        grid = Grid.box(a - pad, b + pad, n)
    x = grid.axis(0)
    inside = (x > a) & (x < b)
    return DomainMask(grid, inside)


def box_mask(lower, upper, grid: Grid | None = None, n=201,
             margin: float | None = None) -> DomainMask:
    """Open box prod (lower_a, upper_a)."""
    lo = np.atleast_1d(np.asarray(lower, dtype=float))
    up = np.atleast_1d(np.asarray(upper, dtype=float))
    if grid is None:
        pad = margin if margin is not None else 0.0
        grid = Grid.box(lo - pad, up + pad, n)
    mesh = grid.meshgrid()
    inside = np.ones(grid.shape, dtype=bool)
    for a in range(grid.dim):
        inside &= (mesh[a] > lo[a]) & (mesh[a] < up[a])
    return DomainMask(grid, inside)


def disk(center, radius: float, grid: Grid | None = None, n: int = 201,
         margin: float | None = None) -> DomainMask:
    c = np.asarray(center, dtype=float)
    if c.shape != (2,):
        raise GeometryError(f"disk center needs 2 coordinates, got {center!r}")
    if grid is None:
        pad = margin if margin is not None else 0.25 * radius
        grid = Grid.box(c - radius - pad, c + radius + pad, [n, n])
    mesh = grid.meshgrid()
    r2 = sum((mesh[a] - c[a]) ** 2 for a in range(2))
    return DomainMask(grid, r2 < radius**2)


def lshape(n: int = 201) -> DomainMask:
    """Nonconvex L: the unit square minus its open upper-right quadrant."""
    grid = Grid.box([-0.1, -0.1], [1.1, 1.1], [n, n])
    xx, yy = grid.meshgrid()
    inside = (xx > 0) & (xx < 1) & (yy > 0) & (yy < 1)
    inside &= ~((xx > 0.5) & (yy > 0.5))
    return DomainMask(grid, inside)


def slit_square(n: int = 241) -> DomainMask:
    """[-1, 1]^2 minus the slit (-1, 0] x {0}, one node row wide.

    The grid is chosen so a node row lies exactly on y = 0; ``n`` is forced
    odd for that reason.
    """
    if n % 2 == 0:
        n += 1
    grid = Grid.box([-1.2, -1.2], [1.2, 1.2], [n, n])
    xx, yy = grid.meshgrid()
    inside = (np.abs(xx) < 1) & (np.abs(yy) < 1)
    y = grid.axis(1)
    j0 = int(np.argmin(np.abs(y)))
    slit = np.zeros(grid.shape, dtype=bool)
    slit[:, j0] = xx[:, j0] <= 0
    inside &= ~slit
    return DomainMask(grid, inside)


# config name -> (constructor, its key table as grid.read_section reads it:
# each parameter a config may set, with its default)
BUILTIN_DOMAINS = {
    "interval": (interval, {"a": 0.0, "b": 1.0, "n": 801, "margin": None}),
    "box": (box_mask, {"lower": [0.0, 0.0], "upper": [1.0, 1.0],
                       "n": [201, 201], "margin": 0.0}),
    "disk": (disk, {"center": [0.0, 0.0], "radius": 1.0, "n": 201,
                    "margin": None}),
    "lshape": (lshape, {"n": 201}),
    "slit_square": (slit_square, {"n": 241}),
}


# ---------------------------------------------------------------------------
# portable mask serialization


def _rle_encode(bits: np.ndarray) -> list:
    """Run lengths of a flat bit array, starting with the count of zeros."""
    runs = []
    current = False
    count = 0
    for b in bits:
        if bool(b) == current:
            count += 1
        else:
            runs.append(count)
            current = bool(b)
            count = 1
    runs.append(count)
    return runs


def _count(value) -> int:
    """``value`` if it is a JSON integer >= 0, else GeometryError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise GeometryError(f"{value!r} is not a nonnegative integer count")
    return value


def _rle_decode(runs: list, size: int) -> np.ndarray:
    runs = [_count(run) for run in runs]
    if sum(runs) != size:
        raise GeometryError(f"run-length data covers {sum(runs)} of {size} "
                            "nodes")
    return np.repeat(np.arange(len(runs)) % 2 == 1, runs)


def mask_to_json(mask: DomainMask) -> str:
    payload = {
        "dim": mask.grid.dim,
        "lower": list(mask.grid.lower),
        "upper": list(mask.grid.upper),
        "n": list(mask.grid.n),
        "inside": _rle_encode(mask.inside.ravel()),
    }
    return json.dumps(payload)


def mask_from_json(text: str) -> DomainMask:
    payload = json.loads(text)
    try:
        grid = Grid(
            tuple(as_number(payload["lower"], [0.0], "lower")),
            tuple(as_number(payload["upper"], [0.0], "upper")),
            tuple(_count(v) for v in payload["n"]),
        )
        if _count(payload["dim"]) != grid.dim:
            raise GeometryError("declared dim does not match bounds")
        inside = _rle_decode(payload["inside"], grid.size).reshape(grid.shape)
    except (KeyError, TypeError, ConfigError) as exc:
        raise GeometryError(f"malformed mask JSON: {exc}") from exc
    return DomainMask(grid, inside)

"""Domain masks on grids: distance transforms, erosion/dilation, Minkowski
average, ramp cutoffs and the builtin test domains.

A node belongs to a mask by its center. Distances are measured between node
centers, so every inside node has a strictly positive distance to the
complement (at least one spacing); boundary locations are resolved to one
grid cell. That convention makes ``erode(m, 0) == m`` and ``dilate(m, 0) == m``
exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .grid import Grid, GridError, ScalarField


class GeometryError(ValueError):
    """Usage error in mask construction or morphology."""


@dataclass
class DomainMask:
    """Boolean interior indicator on a grid plus a cached distance field."""

    grid: Grid
    inside: np.ndarray = field(repr=False)
    _dist: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.inside = np.asarray(self.inside, dtype=bool)
        if self.inside.shape != self.grid.shape:
            raise GeometryError(
                f"inside shape {self.inside.shape} does not match grid {self.grid.shape}"
            )

    @property
    def dist(self) -> np.ndarray:
        """Distance from each inside node to the nearest outside node center."""
        if self._dist is None:
            self._dist = _distance_exact(self.inside, self.grid.spacing)
        return self._dist

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
    outside node center.
    """
    if not inside.any() or inside.all():
        raise GeometryError("distance transform needs inside and outside nodes")
    return ndimage.distance_transform_edt(inside, sampling=spacing)


def distance_brute_force(mask: DomainMask) -> np.ndarray:
    """O(N_in * N_out) reference distance transform; oracle for the fast one."""
    _check_nontrivial(mask)
    pts = mask.grid.points()
    flat = mask.inside.ravel()
    pin = pts[flat]
    pout = pts[~flat]
    out = np.zeros(mask.grid.size)
    # chunk the inside nodes to bound the pairwise matrix
    chunk = max(1, int(2**22 // max(pout.shape[0], 1)))
    dmin = np.empty(pin.shape[0])
    for s in range(0, pin.shape[0], chunk):
        block = pin[s : s + chunk]
        d2 = np.sum((block[:, None, :] - pout[None, :, :]) ** 2, axis=-1)
        dmin[s : s + chunk] = np.sqrt(d2.min(axis=1))
    out[flat] = dmin
    return out.reshape(mask.grid.shape)


def distance_field(mask: DomainMask) -> ScalarField:
    _check_nontrivial(mask)
    return ScalarField(mask.grid, mask.dist.copy())


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
    """Exterior approximation: the mask plus outside nodes with dist(x, mask) < ell."""
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
    dist_to_mask = ndimage.distance_transform_edt(
        ~mask.inside, sampling=mask.grid.spacing
    )
    # inclusive threshold: node-center distances overshoot the continuum
    # distance by up to one spacing, so <= keeps the result within one cell
    inside = mask.inside | (dist_to_mask <= ell)
    return DomainMask(mask.grid, inside)


def minkowski_average(mask: DomainMask) -> DomainMask:
    """Midpoint set (m + m)/2 on the same grid.

    A node is marked inside when some pair of inside nodes has its midpoint
    within half a spacing (per axis) of the node.
    """
    _check_nontrivial(mask)
    grid = mask.grid
    pts = mask.interior_points()
    n_in = pts.shape[0]
    inside = np.zeros(grid.shape, dtype=bool)
    lower = np.asarray(grid.lower)
    spacing = np.asarray(grid.spacing)
    nmax = np.asarray(grid.n) - 1
    chunk = max(1, int(2**21 // max(n_in, 1)))
    for s in range(0, n_in, chunk):
        mids = 0.5 * (pts[s : s + chunk, None, :] + pts[None, :, :])
        idx = np.rint((mids - lower) / spacing).astype(int)
        np.clip(idx, 0, nmax, out=idx)
        inside[tuple(idx.reshape(-1, grid.dim).T)] = True
    if inside[grid.boundary_shell()].any():
        raise GeometryError("Minkowski average touches the bounding box")
    return DomainMask(grid, inside)


def cutoff_eta(mask: DomainMask, ell: float) -> ScalarField:
    """Distance ramp: 0 within ell of the complement, linear up to 2*ell, 1 beyond."""
    if not 0 < ell < 1:
        raise GeometryError("cutoff length must satisfy 0 < ell < 1")
    _check_nontrivial(mask)
    d = mask.dist
    vals = np.clip((d - ell) / ell, 0.0, 1.0)
    vals[~mask.inside] = 0.0
    return ScalarField(mask.grid, vals)


def convexity_probe(mask: DomainMask, pairs: int = 2000, seed: int = 0) -> bool:
    """Sampled segment test: midpoints of inside-node pairs must land on
    inside nodes (up to the cell quantization). Exact convexity is ill-posed
    at grid resolution, so this is a probe for small grids, not a decision
    procedure.
    """
    _check_nontrivial(mask)
    pts = mask.interior_points()
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, pts.shape[0], size=(pairs, 2))
    mids = 0.5 * (pts[idx[:, 0]] + pts[idx[:, 1]])
    lower = np.asarray(mask.grid.lower)
    spacing = np.asarray(mask.grid.spacing)
    nodes = np.rint((mids - lower) / spacing).astype(int)
    nodes = np.clip(nodes, 0, np.asarray(mask.grid.n) - 1)
    # tolerate one cell: midpoints on cell boundaries may round just across
    # a curved mask edge
    dist_to_mask = ndimage.distance_transform_edt(~mask.inside,
                                                  sampling=mask.grid.spacing)
    tol = np.sqrt(float(np.sum(np.asarray(mask.grid.spacing) ** 2)))
    return bool(np.all(dist_to_mask[tuple(nodes.T)] <= tol))


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
        grid = Grid.box(lo - pad, up + pad, np.resize(np.asarray(n), lo.size))
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


def lshape(grid: Grid | None = None, n: int = 201) -> DomainMask:
    """Nonconvex L: the unit square minus its open upper-right quadrant."""
    if grid is None:
        grid = Grid.box([-0.1, -0.1], [1.1, 1.1], [n, n])
    xx, yy = grid.meshgrid()
    inside = (xx > 0) & (xx < 1) & (yy > 0) & (yy < 1)
    inside &= ~((xx > 0.5) & (yy > 0.5))
    return DomainMask(grid, inside)


def slit_square(grid: Grid | None = None, n: int = 241) -> DomainMask:
    """[-1, 1]^2 minus the slit (-1, 0] x {0}, one node row wide.

    The grid is chosen so a node row lies exactly on y = 0; ``n`` is forced
    odd for that reason.
    """
    if grid is None:
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


# config name -> (constructor, keyword defaults); the defaults name the
# parameters a config may set, and a list default takes a number or a list
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


def _rle_decode(runs: list, size: int) -> np.ndarray:
    bits = np.zeros(size, dtype=bool)
    pos = 0
    val = False
    for run in runs:
        if val:
            bits[pos : pos + run] = True
        pos += run
        val = not val
    if pos != size:
        raise GeometryError(f"run-length data covers {pos} of {size} nodes")
    return bits


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
            tuple(float(v) for v in payload["lower"]),
            tuple(float(v) for v in payload["upper"]),
            tuple(int(v) for v in payload["n"]),
        )
        if int(payload["dim"]) != grid.dim:
            raise GeometryError("declared dim does not match bounds")
        inside = _rle_decode(payload["inside"], grid.size).reshape(grid.shape)
    except (KeyError, TypeError, GridError) as exc:
        raise GeometryError(f"malformed mask JSON: {exc}") from exc
    return DomainMask(grid, inside)

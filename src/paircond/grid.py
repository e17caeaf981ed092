"""Uniform Cartesian lattices, fields on them, and the L2 pairing.

Grids are node-centered: the first and last node of every axis sit exactly on
the box bounds. Quadrature (``Grid.weights``) is the tensor trapezoid rule,
which reduces to a plain ``prod(spacing)`` node sum for every field that
vanishes on the box boundary (all physically relevant fields here do). A
grid refuses more than ``MAX_GRID_NODES`` nodes when it is constructed,
before any array exists.

The JSON values a run reads pass through one reader, ``read_section``, and
one number rule, ``as_number``; both refuse a bad value with
``ConfigError``.
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


class ConfigError(ValueError):
    """A JSON value that its table refuses."""


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
        """Build a grid from scalars (1D) or per-axis sequences, with one
        axis per entry of ``lower``."""
        dim = np.size(lower)
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


# ---------------------------------------------------------------------------
# JSON values


def as_number(value, like, name: str):
    """The one number rule of the JSON a run reads: ``value`` as finite
    numbers of the type of ``like`` (int, or else float): a number when
    ``like`` is a number or null, a nonempty list when it is a list (a single
    number then counts as a list of one). Booleans and strings are not
    numbers, and an int takes only integral values. ``name`` names the value
    in the ``ConfigError`` that refuses it."""
    listed = isinstance(like, list)
    items = value if listed and isinstance(value, list) else [value]
    if not items or not all(isinstance(v, (int, float))
                            and not isinstance(v, bool) for v in items):
        shape = "a nonempty list of numbers" if listed else "a number"
        raise ConfigError(f"{name} must be {shape}, got {value!r}")
    try:
        numbers = [float(v) for v in items]
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigError(f"{name} must be finite and in range") from exc
    kind = int if type(like[0] if listed else like) is int else float
    limit = 2**63 - 1 if kind is int else math.inf
    if not all(abs(v) < limit for v in numbers):  # false for NaN too
        raise ConfigError(f"{name} must be finite and in range, got {value!r}")
    if kind is int and not all(v == round(v) for v in numbers):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    numbers = [kind(v) for v in numbers]
    return numbers if listed else numbers[0]


# the default of a key that a section must give, and of one that it may
# leave unset (then absent from what ``read_section`` returns)
REQUIRED, UNSET = object(), object()


class Key:
    """A key of a JSON section: a value ``like`` of its kind (0.0, 0, [0.0]
    or [0] for ``as_number``, {} an object, "" a string), its ``default``
    (``REQUIRED``, ``UNSET`` or the value of an absent key) and its range
    ``rule``, called on the value read and the key's name, which raises
    ``ConfigError`` for a value out of range."""

    def __init__(self, like, default=REQUIRED, rule=None):
        self.like, self.default, self.rule = like, default, rule


def positive(value, name: str):
    """Range rule: every number of ``value`` is positive."""
    if not min(value if isinstance(value, list) else [value]) > 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")


def read_section(section, table: dict, where: str = "") -> dict:
    """The values of the JSON object ``section`` by ``table``, key -> Key
    (or a bare default, for Key(default, default)). Unknown keys and missing
    required ones are refused; each value is read in its key's kind (an
    object or a string as it is) and checked by its rule; an absent key
    takes its default. Null stands for an absent key only where the default
    is null. ``where`` names the section in messages ("" for the root)."""
    place = where or "config"
    if not isinstance(section, dict):
        raise ConfigError(f"{place} must be an object")
    unknown = set(section) - set(table)
    if unknown:
        raise ConfigError(f"unknown keys in {place}: {sorted(unknown)}")
    values = {}
    for key, entry in table.items():
        spec = entry if isinstance(entry, Key) else Key(entry, entry)
        value = section.get(key, spec.default)
        name = f"{where}.{key}" if where else key
        if value is REQUIRED:
            raise ConfigError(f"missing required key {key!r} in {place}")
        if value is UNSET:
            continue
        if value is None and spec.default is None:
            values[key] = None
        elif isinstance(spec.like, (dict, str)):
            if not isinstance(value, type(spec.like)):
                kind = "a string" if spec.like == "" else "an object"
                raise ConfigError(f"{name} must be {kind}, got {value!r}")
            values[key] = value
        else:
            values[key] = as_number(value, spec.like, name)
        if spec.rule:
            spec.rule(values[key], name)
    return values


def read_kind(section, kinds: dict, where: str, tag: str = "kind") -> tuple:
    """(maker, values) of the JSON object ``section`` whose ``tag`` names an
    entry of ``kinds``, name -> (maker, table): the rest of the section read
    by that table (``read_section``)."""
    if not isinstance(section, dict) or tag not in section:
        raise ConfigError(f"{where} must be an object with a {tag!r}")
    name = section[tag]
    if not isinstance(name, str) or name not in kinds:
        raise ConfigError(f"unknown {where} {tag} {name!r}")
    make, table = kinds[name]
    rest = {k: v for k, v in section.items() if k != tag}
    return make, read_section(rest, table, where)

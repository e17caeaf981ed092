import numpy as np
import pytest

from paircond import geometry as geo
from paircond import pairing
from paircond.grid import Grid, GridError

POSCHL_TELLER = {"kind": "poschl_teller", "depth": 2.0}

# frozen oracle values for the Poschl-Teller pair state, computed from the
# closed forms E_b = 1, alpha(x) = sech(x)/sqrt(2),
# alpha_hat(p) = pi sech(pi p / 2)/sqrt(2) by adaptive quadrature
# (see test_pairing.py::test_coupling_oracle for the live recomputation)
PT_G_BCS = 3.7198241782619377
PT_G_0 = 3.2898681336964533  # = pi^2 / 3


@pytest.fixture(scope="session")
def pt_state():
    """Poschl-Teller relative ground state at production resolution."""
    return pairing.solve_relative(POSCHL_TELLER, L=20.0, n=4001)


@pytest.fixture(scope="session")
def pt_state_wide():
    """Wider box for large cutoff radii."""
    return pairing.solve_relative(POSCHL_TELLER, L=35.0, n=3501)


@pytest.fixture(scope="session")
def unit_interval():
    return geo.interval(0.0, 1.0, grid=Grid.box(0.0, 1.0, 801))


@pytest.fixture(scope="session")
def padded_interval():
    return geo.interval(0.0, 1.0, grid=Grid.box(-0.3, 1.3, 801))


@pytest.fixture(scope="session")
def bcs_domain():
    """Wide 1D domain used by pair-state scans (room for ell(h) erosion)."""
    return geo.interval(0.0, 4.0, grid=Grid.box(-0.05, 4.05, 604))


def inner_product(f, g) -> complex | float:
    """L2 pairing of two fields on one grid, conjugate-linear in the
    first."""
    if f.grid != g.grid:
        raise GridError("fields live on different grids")
    total = np.sum(np.conj(f.values) * g.values * f.grid.weights())
    if np.iscomplexobj(f.values) or np.iscomplexobj(g.values):
        return total
    return float(total)


def random_1d_mask(rng, n=48):
    """Random union of one or two intervals inside [0, 1]."""
    grid = Grid.box(0.0, 1.0, n)
    x = grid.axis(0)
    while True:
        cuts = np.sort(rng.uniform(0.05, 0.95, size=rng.integers(2, 5)))
        inside = np.zeros(n, dtype=bool)
        for k in range(0, len(cuts) - 1, 2):
            inside |= (x > cuts[k]) & (x < cuts[k + 1])
        if inside.any() and not inside.all():
            return geo.DomainMask(grid, inside)


def random_2d_mask(rng, n=24):
    """Random blobby 2D mask built from a few disks."""
    grid = Grid.box([0.0, 0.0], [1.0, 1.0], [n, n])
    xx, yy = grid.meshgrid()
    inside = np.zeros((n, n), dtype=bool)
    for _ in range(rng.integers(1, 4)):
        cx, cy = rng.uniform(0.25, 0.75, size=2)
        r = rng.uniform(0.08, 0.22)
        inside |= (xx - cx) ** 2 + (yy - cy) ** 2 < r**2
    if not inside.any() or inside.all():
        return random_2d_mask(rng, n)
    return geo.DomainMask(grid, inside)

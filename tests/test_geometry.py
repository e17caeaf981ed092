import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import ndimage

from conftest import random_1d_mask, random_2d_mask
from paircond import geometry as geo
from paircond.grid import Grid


def distance_brute_force(mask: geo.DomainMask) -> np.ndarray:
    """O(N_in * N_out) reference distance transform; oracle for the fast one."""
    pts = mask.grid.points()
    flat = mask.inside.ravel()
    pin = pts[flat]
    pout = pts[~flat]
    dmin = np.empty(pin.shape[0])
    # chunk the inside nodes to bound the pairwise matrix
    chunk = max(1, 2**20 // pout.shape[0])
    for s in range(0, pin.shape[0], chunk):
        block = pin[s : s + chunk]
        d2 = np.sum((block[:, None, :] - pout[None, :, :]) ** 2, axis=-1)
        dmin[s : s + chunk] = np.sqrt(d2.min(axis=1))
    out = np.zeros(mask.grid.size)
    out[flat] = dmin
    return out.reshape(mask.grid.shape)


class TestDistance:
    def test_interval_midpoint(self):
        m = geo.interval(0.0, 1.0, grid=Grid.box(-0.5, 1.5, 201))
        dx = m.grid.spacing[0]
        i = np.argmin(np.abs(m.grid.axis(0) - 0.5))
        assert abs(m.dist[i] - 0.5) <= dx

    def test_square_center(self):
        m = geo.box_mask([0, 0], [1, 1], grid=Grid.box([-0.2, -0.2], [1.2, 1.2], [141, 141]))
        xx, yy = m.grid.meshgrid()
        i = np.unravel_index(np.argmin((xx - 0.5) ** 2 + (yy - 0.5) ** 2), xx.shape)
        assert abs(m.dist[i] - 0.5) <= max(m.grid.spacing)

    def test_outside_zero(self):
        m = geo.interval(0.0, 1.0, grid=Grid.box(-0.5, 1.5, 101))
        assert np.all(m.dist[~m.inside] == 0.0)

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            m = random_1d_mask(rng, n=40)
            assert_allclose(distance_brute_force(m), m.dist, atol=1e-12)
        for _ in range(20):
            m = random_2d_mask(rng, n=20)
            assert_allclose(distance_brute_force(m), m.dist, atol=1e-12)

    def test_lipschitz(self):
        rng = np.random.default_rng(3)
        m = random_2d_mask(rng, n=24)
        d = m.dist
        dx, dy = m.grid.spacing
        assert np.max(np.abs(np.diff(d, axis=0))) <= dx + dx + 1e-12
        assert np.max(np.abs(np.diff(d, axis=1))) <= dy + dy + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 3), data=st.data())
    def test_inside_nodes_lie_a_spacing_from_the_complement(self, dim, data):
        # any two nodes are at least the smallest spacing apart, so on any
        # mask and any spacings d >= min(spacing) inside: spectral's Hardy
        # quotient divides by d
        n = data.draw(st.lists(st.integers(3, 12), min_size=dim, max_size=dim))
        upper = data.draw(st.lists(st.floats(0.01, 100.0), min_size=dim,
                                   max_size=dim))
        grid = Grid.box([0.0] * dim, upper, n)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        inside = rng.random(grid.shape) < data.draw(st.floats(0.05, 0.95))
        inside.flat[data.draw(st.integers(0, grid.size - 1))] = True
        inside.flat[data.draw(st.integers(0, grid.size - 1))] = False
        mask = geo.DomainMask(grid, inside)
        if mask.count:
            assert np.all(mask.dist[mask.inside] >= min(grid.spacing))

    def test_degenerate_masks_rejected(self):
        g = Grid.box(0.0, 1.0, 11)
        for inside in (np.ones(11, dtype=bool), np.zeros(11, dtype=bool)):
            with pytest.raises(geo.GeometryError, match="inside and outside"):
                geo.DomainMask(g, inside).dist


class TestOneDimensional:
    """The 1D sweeps against scipy.ndimage, the 2D path, as the oracle."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(bits=st.lists(st.booleans(), min_size=2, max_size=400),
           spacing=st.floats(1e-6, 1e6))
    @example(bits=[True, False], spacing=1.0)
    @example(bits=[False] + [True] * 399, spacing=0.1)
    def test_matches_ndimage(self, bits, spacing):
        inside = np.array(bits)
        if inside.all() or not inside.any():
            inside[0] = not inside[0]
        for m in (inside, ~inside):
            assert np.array_equal(
                geo._distance_exact(m, (spacing,)),
                ndimage.distance_transform_edt(m, sampling=(spacing,)))
        labels, count = geo.label_components(inside)
        ref_labels, ref_count = ndimage.label(inside)
        assert count == ref_count and np.array_equal(labels, ref_labels)

    def test_two_dimensional_components_are_four_connected(self):
        # diagonal neighbours do not join: the stencil does not couple them
        labels, count = geo.label_components(np.eye(4, dtype=bool))
        assert count == 4 and np.array_equal(labels, np.diag([1, 2, 3, 4]))


class TestMorphology:
    def test_erode_interval(self):
        m = geo.interval(0.0, 1.0, grid=Grid.box(-0.5, 1.5, 201))
        dx = m.grid.spacing[0] + 1e-12
        e = geo.erode(m, 0.1)
        x = m.grid.axis(0)[e.inside]
        assert abs(x.min() - 0.1) <= dx and abs(x.max() - 0.9) <= dx

    def test_dilate_interval(self):
        m = geo.interval(0.0, 1.0, grid=Grid.box(-0.5, 1.5, 201))
        dx = m.grid.spacing[0] + 1e-12
        d = geo.dilate(m, 0.1)
        x = m.grid.axis(0)[d.inside]
        assert abs(x.min() + 0.1) <= dx and abs(x.max() - 1.1) <= dx

    def test_identity_at_zero(self):
        rng = np.random.default_rng(11)
        m = random_1d_mask(rng)
        assert np.array_equal(geo.erode(m, 0.0).inside, m.inside)
        assert np.array_equal(geo.dilate(m, 0.0).inside, m.inside)

    def test_containment_chain(self):
        m = geo.interval(0.2, 0.8, grid=Grid.box(0.0, 1.0, 101))
        e = geo.erode(m, 0.05)
        d = geo.dilate(m, 0.05)
        assert np.all(~e.inside | m.inside)
        assert np.all(~m.inside | d.inside)

    def test_monotone_in_ell(self):
        m = geo.interval(0.1, 0.9, grid=Grid.box(0.0, 1.0, 161))
        e1, e2 = geo.erode(m, 0.05), geo.erode(m, 0.1)
        assert np.all(~e2.inside | e1.inside)
        d1, d2 = geo.dilate(m, 0.02), geo.dilate(m, 0.05)
        assert np.all(~d1.inside | d2.inside)

    def test_duality_within_one_cell(self):
        m = geo.disk([0.0, 0.0], 0.6, grid=Grid.box([-1, -1], [1, 1], [81, 81]))
        ell = 0.1
        dx = max(m.grid.spacing)
        closed = geo.dilate(geo.erode(m, ell), ell)
        # dilate(erode(m)) subset of m up to one cell
        extra = closed.inside & ~m.inside
        if extra.any():
            d_out = distance_brute_force(
                geo.DomainMask(m.grid, ~m.inside)
            )
            assert np.max(d_out[extra]) <= np.sqrt(2) * dx + 1e-12
        opened = geo.erode(geo.dilate(m, ell), ell)
        missing = m.inside & ~opened.inside
        if missing.any():
            assert np.max(m.dist[missing]) <= ell + np.sqrt(2) * dx

    def test_dilation_overflow(self):
        m = geo.interval(0.0, 1.0, grid=Grid.box(-0.05, 1.05, 101))
        with pytest.raises(geo.GeometryError, match="overflow"):
            geo.dilate(m, 0.2)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for maker in (random_1d_mask, random_2d_mask):
            m = maker(rng)
            m2 = geo.mask_from_json(geo.mask_to_json(m))
            assert m2.grid == m.grid
            assert np.array_equal(m2.inside, m.inside)

    def test_malformed(self):
        with pytest.raises(geo.GeometryError):
            geo.mask_from_json(json.dumps({"dim": 1, "lower": [0.0]}))

    @pytest.mark.parametrize("n, runs", [
        ([11], [3, 9, -1]),  # decoded to nodes 3-10 by sliced assignment
        ([41, 41], [41 * 41 + 2, -2]),  # decoded to no interior node
        ([11], [3, True, 7]),
        ([11], [3, 1.0, 7]),
        ([11.5], [3, 1, 7]),  # n truncated to 11
        ([11], {"runs": 11}),
    ])
    def test_counts_must_be_nonnegative_integers(self, n, runs):
        text = json.dumps({"dim": len(n), "lower": [0.0] * len(n),
                           "upper": [1.0] * len(n), "n": n, "inside": runs})
        with pytest.raises(geo.GeometryError):
            geo.mask_from_json(text)

    def test_slit_square_has_slit(self):
        m = geo.slit_square(n=81)
        y = m.grid.axis(1)
        j0 = int(np.argmin(np.abs(y)))
        x = m.grid.axis(0)
        row = m.inside[:, j0]
        assert not row[x <= 0].any()
        assert row[(x > 0.2) & (x < 0.9)].all()

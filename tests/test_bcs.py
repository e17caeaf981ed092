from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg, sparse

from conftest import POSCHL_TELLER
from order_parameter import (
    COMFrame,
    PairKernel,
    com_norm_split,
    extract_order_parameter,
    pair_kernel_matrix,
    pair_wave,
)
from paircond import bcs
from paircond import geometry as geo
from paircond import gp
from paircond.grid import Grid, ScalarField
from paircond.pairing import lattice_pair_field, potential_from_descriptor
from paircond.spectral import assemble_dirichlet, onset_threshold


@pytest.fixture(scope="module")
def trial_setup(bcs_domain):
    cfg = bcs.BCSConfig(bcs_domain, POSCHL_TELLER, None, h=0.05, D=2.0, q=1.5)
    inner = geo.erode(bcs_domain, cfg.ell)
    mode = onset_threshold(inner, tol=1e-10)
    psi = ScalarField(bcs_domain.grid, 0.4 * mode.eigenvector.values)
    return cfg, psi


def product_kernel(cfg, psi_field, gs):
    """Uncut kernel psi((x+y)/2) alpha((x-y)/h) from the continuum state."""
    frame = COMFrame.build(cfg)
    psi_half = frame.interpolate_to_centers(psi_field)
    wave = pair_wave(gs)
    mat = pair_kernel_matrix(
        cfg, psi_half, lambda v: wave(v * frame.dx / cfg.h), frame,
    ).dense()
    return PairKernel(cfg.mask.grid, cfg.mask.grid, mat), psi_half


class TestTrialState:
    def test_zero_psi_is_trivial(self, trial_setup):
        cfg, _ = trial_setup
        zero = cfg.mask.field(np.zeros(cfg.mask.count))
        state = bcs.build_trial_state(cfg, zero)
        assert np.all(state.a_psi.dense() == 0.0)
        assert np.all(state.aa.dense() == 0.0)
        lo, hi = state.admissibility
        assert lo >= -1e-12 and hi <= 1 + 1e-12
        assert bcs.bcs_energy(cfg, state) == 0.0

    def test_admissible(self, trial_setup):
        cfg, psi = trial_setup
        state = bcs.build_trial_state(cfg, psi)
        lo, hi = state.admissibility
        assert lo >= -1e-9 and hi <= 1 + 1e-9

    def test_symmetric_kernel(self, trial_setup):
        cfg, psi = trial_setup
        state = bcs.build_trial_state(cfg, psi)
        grid = cfg.mask.grid
        PairKernel(grid, grid, state.a_psi.dense()).check_symmetric(tol=1e-12)

    def test_support_inside_product_domain(self, trial_setup):
        cfg, psi = trial_setup
        state = bcs.build_trial_state(cfg, psi)
        inside = cfg.mask.inside
        both = inside[:, None] & inside[None, :]
        assert np.all(state.a_psi.dense()[~both] == 0.0)
        # separation cut: zero beyond 1.5 ell
        x = cfg.mask.grid.axis(0)
        far = np.abs(x[:, None] - x[None, :]) > 1.5 * cfg.ell + 1e-12
        assert np.all(state.a_psi.dense()[far] == 0.0)

    def test_gamma_dominates_quartic(self, trial_setup):
        # gamma - a abar - (a abar)^2 = sqrt(h) (a abar)^2 >= 0, on the
        # diagonal of gamma that the one-body density holds
        cfg, psi = trial_setup
        state = bcs.build_trial_state(cfg, psi)
        dv = cfg.mask.grid.spacing[0]
        a = state.a_psi.dense()
        aa = a @ a * dv
        gap = bcs.one_body_density(state).values - np.diag(aa + aa @ aa * dv)
        assert np.min(gap) >= -1e-12 * np.max(np.diag(aa))
        assert np.max(gap) > 0.0

    def test_gamma_quartic_norm_bound(self, trial_setup):
        # |gamma - a abar| = (1 + sqrt(h)) |(a abar)^2| <= 3 |a abar|^2 bounds
        # each diagonal entry of gamma - a abar (the density minus diag aa)
        cfg, psi = trial_setup
        state = bcs.build_trial_state(cfg, psi)
        dv = cfg.mask.grid.spacing[0]
        a = dv * state.a_psi.dense()
        aa = a @ a
        rho = bcs.one_body_density(state).values
        gap = dv * rho - np.diag(aa)
        assert np.max(np.abs(gap)) <= 3.0 * np.linalg.norm(aa, ord=2) ** 2 + 1e-15

    def test_support_violation_rejected(self, trial_setup):
        cfg, _ = trial_setup
        bad = cfg.mask.field(np.ones(cfg.mask.count))
        with pytest.raises(bcs.BCSError, match="support"):
            bcs.build_trial_state(cfg, bad)


class TestEnergyAndDensity:
    def test_energy_negative_above_threshold(self, bcs_domain, pt_state):
        cfg = bcs.BCSConfig(bcs_domain, POSCHL_TELLER, None, h=0.05, D=0.0,
                            q=1.5)
        inner = geo.erode(bcs_domain, cfg.ell)
        mode = onset_threshold(inner, tol=1e-10)
        d_val = mode.eigenvalue + 1.0
        cfg = bcs.BCSConfig(bcs_domain, POSCHL_TELLER, None, h=0.05, D=d_val,
                            q=1.5)
        theta, _ = gp.one_mode_upper_bound(
            gp.GPProblem(inner, None, d_val, pt_state.g_bcs), mode=mode)
        psi = ScalarField(bcs_domain.grid, theta * mode.eigenvector.values)
        state = bcs.build_trial_state(cfg, psi)
        assert bcs.bcs_energy(cfg, state) < 0.0

    def test_density_nonnegative_and_traces(self, trial_setup):
        cfg, psi = trial_setup
        state = bcs.build_trial_state(cfg, psi)
        rho = bcs.one_body_density(state)
        dv = cfg.mask.grid.spacing[0]
        assert np.min(rho.values) >= -1e-10
        aa = state.aa.dense()
        gamma = aa + (1.0 + np.sqrt(cfg.h)) * (aa @ aa) * dv
        tr_gamma = float(np.trace(gamma)) * dv
        assert abs(np.sum(rho.values) * dv - tr_gamma) < 1e-12

    def test_zero_state_density(self, trial_setup):
        cfg, _ = trial_setup
        state = bcs.build_trial_state(cfg, cfg.mask.field(np.zeros(cfg.mask.count)))
        assert np.all(bcs.one_body_density(state).values == 0.0)


class TestExtraction:
    def test_round_trip(self, bcs_domain, pt_state):
        cfg = bcs.BCSConfig(bcs_domain, POSCHL_TELLER, None, h=0.05, D=0.0,
                            q=2.0)
        inner = geo.erode(bcs_domain, cfg.ell)
        mode = onset_threshold(inner, tol=1e-10)
        psi = ScalarField(bcs_domain.grid, 0.5 * mode.eigenvector.values)
        alpha, psi_half = product_kernel(cfg, psi, pt_state)
        extracted, xi = extract_order_parameter(cfg, alpha)
        assert np.max(np.abs(extracted.values - psi_half)) < 1e-8
        dv = cfg.mask.grid.spacing[0]
        assert np.sqrt(np.sum(xi.values**2)) * dv < 1e-8

    def test_norm_identity(self, bcs_domain):
        # generic two-hump kernel, not of trial form
        cfg = bcs.BCSConfig(bcs_domain, POSCHL_TELLER, None, h=0.05, D=0.0,
                            q=2.0)
        x = bcs_domain.grid.axis(0)
        f = np.where(bcs_domain.inside, np.sin(np.pi * x / 4.0) ** 2, 0.0)
        kern = np.outer(f, f) * np.exp(-((x[:, None] - x[None, :]) / 0.3) ** 2)
        alpha = PairKernel(bcs_domain.grid, bcs_domain.grid, kern)
        psi_x, xi = extract_order_parameter(cfg, alpha)
        split = com_norm_split(cfg, alpha, psi_x, xi)
        assert abs(split["identity_gap"]) < 1e-8 * split["alpha_sq"]

    def test_fiber_orthogonality(self, bcs_domain, pt_state):
        cfg = bcs.BCSConfig(bcs_domain, POSCHL_TELLER, None, h=0.05, D=0.0,
                            q=2.0)
        inner = geo.erode(bcs_domain, cfg.ell)
        mode = onset_threshold(inner, tol=1e-10)
        psi = ScalarField(bcs_domain.grid, 0.5 * mode.eigenvector.values)
        alpha, _ = product_kernel(cfg, psi, pt_state)
        _, xi = extract_order_parameter(cfg, alpha)
        # <alpha_*(./h), xi(X, .)> on each center fiber X
        frame = COMFrame.build(cfg)
        alpha_star = pair_wave(pt_state)
        products = []
        for u in range(2 * frame.n - 1):
            i, j, v = frame.pair_indices(u)
            if i.size:
                wave = alpha_star(v * frame.dx / cfg.h)
                products.append(np.sum(wave * xi.values[i, j]) * 2.0 * frame.dx)
        assert products and np.max(np.abs(products)) < 1e-10

    def test_asymmetric_kernel_rejected(self, bcs_domain):
        cfg = bcs.BCSConfig(bcs_domain, POSCHL_TELLER, None, h=0.05, D=0.0)
        kern = np.zeros((bcs_domain.grid.n[0],) * 2)
        idx = np.flatnonzero(bcs_domain.inside)
        kern[idx[10], idx[40]] = 1.0
        with pytest.raises(Exception):
            extract_order_parameter(
                cfg, PairKernel(bcs_domain.grid, bcs_domain.grid, kern))

    def test_nonconvex_exponential_decay(self, pt_state):
        # two intervals: the extracted center profile decays exponentially
        # in the gap, at rate 2 rho / h relative to the fiber mass
        grid = Grid.box(-0.1, 1.1, 481)
        x = grid.axis(0)
        inside = ((x > 0.0) & (x < 0.4)) | ((x > 0.6) & (x < 1.0))
        mask = geo.DomainMask(grid, inside)
        h = 0.05
        cfg = bcs.BCSConfig(mask, POSCHL_TELLER, None, h=h, D=0.0, q=1.0)
        f = np.where(inside, np.sin(np.pi * np.clip(x, 0, 1)) + 0.5, 0.0)
        kern = np.outer(f, f)
        alpha = PairKernel(grid, grid, kern * (inside[:, None] & inside[None, :]))
        psi_x, _ = extract_order_parameter(cfg, alpha)

        frame = COMFrame.build(cfg)
        centers = frame.centers()
        dx = frame.dx
        rho = pt_state.rho_star
        # distance from a center node to the domain (1D, set of two intervals)
        pts = mask.interior_points()[:, 0]
        ratios = []
        for u, X in enumerate(centers):
            i, j, v = frame.pair_indices(u)
            if i.size == 0 or inside[min(range(len(x)), key=lambda k: abs(x[k] - X))]:
                continue
            dist = np.min(np.abs(pts - X))
            if dist < 4 * dx:
                continue
            fiber_norm = np.sqrt(np.sum(kern[i, j] ** 2) * 2 * dx)
            if fiber_norm == 0:
                continue
            bound_shape = np.exp(-2 * rho * dist / h) * fiber_norm
            ratios.append(abs(psi_x.values[u]) / bound_shape)
        assert ratios
        # a single fitted constant covers every node
        c_fit = max(ratios)
        assert c_fit < 10.0 / np.sqrt(h)


def rho_star(h):
    """The rho where r(rho) = 1/2: the positive root of
    c^2 t^2 + 2c t - sqrt(h) in t = rho^2, c = 1 + sqrt(h)."""
    c = 1.0 + np.sqrt(h)
    return np.sqrt((np.sqrt(1.0 + np.sqrt(h)) - 1.0) / c)


class TestAdmissibility:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 60),
           h=st.floats(0.01, 0.5, exclude_min=True, exclude_max=True),
           scale=st.floats(0.0, 1.5), zero_row=st.booleans(),
           near=st.sampled_from([None, -1, 1]))
    @example(seed=1, n=30, h=0.1, scale=0.0, zero_row=True, near=-1)
    @example(seed=2, n=30, h=0.1, scale=0.0, zero_row=True, near=1)
    @example(seed=3, n=45, h=0.3, scale=0.0, zero_row=False, near=-1)
    @example(seed=4, n=12, h=0.02, scale=0.05, zero_row=True, near=None)
    def test_matches_dense_block(self, seed, n, h, scale, zero_row, near):
        # scale sets the spectral radius of A; near = -1 or 1 sets its
        # largest absolute row sum just below or above rho_star instead
        rng = np.random.default_rng(seed)
        mask = geo.interval(0.0, 1.0, n=n)
        # the spectrum reads only h and the grid of its config; BCSConfig
        # would refuse the coarser of these grids for their micro lattice
        cfg = SimpleNamespace(h=h, mask=mask)
        dv = mask.grid.spacing[0]
        m = rng.standard_normal((n, n))
        a_op = m + m.T
        if zero_row:
            k = rng.integers(n)
            a_op[k, :] = a_op[:, k] = 0.0
        if near is None:
            radius = np.max(np.abs(np.linalg.eigvalsh(a_op)))
            a_op *= scale / max(radius, 1e-300)
        else:
            row_max = np.max(np.sum(np.abs(a_op), axis=1))
            a_op *= rho_star(h) * (1.0 + near * 1e-6) / row_max
        g_op = a_op @ a_op + (1.0 + np.sqrt(h)) * np.linalg.matrix_power(a_op, 4)
        state = bcs.TrialState(cfg, mask.field(np.zeros(mask.count)),
                               bcs.BandKernel(band_rows(a_op / dv, n - 1)),
                               bcs.BandKernel(band_rows(g_op / dv, n - 1)))
        block = np.block([[g_op, a_op], [a_op, np.eye(n) - g_op]])
        dense = np.linalg.eigvalsh(block)
        row_sums = np.sum(np.abs(a_op), axis=1)
        bound_decides = row_sums.min() == 0.0 and row_sums.max() <= rho_star(h)
        with mock.patch.object(linalg, "eigvals_banded",
                               wraps=linalg.eigvals_banded) as spy:
            lo, hi = bcs.admissibility_spectrum(state)
        assert spy.called != bound_decides
        if bound_decides:
            assert (lo, hi) == (0.0, 1.0)
        assert abs(lo - dense[0]) < 1e-12
        assert abs(hi - dense[-1]) < 1e-12


def one_body_matrix(cfg):
    """Reference for the one-body stencil of ``bcs.bcs_energy``: -h^2 Lap +
    h^2 W - mu as a sparse matrix on the full box-node set (Dirichlet
    mask)."""
    grid = cfg.mask.grid
    n = grid.n[0]
    lap_int = assemble_dirichlet(cfg.mask, 1.0).matrix
    idx = np.flatnonzero(cfg.mask.inside)
    expand = sparse.csr_matrix(
        (np.ones(idx.size), (idx, np.arange(idx.size))), shape=(n, idx.size)
    )
    mat = expand @ (-cfg.h**2 * lap_int) @ expand.T
    diag = np.zeros(n)
    if cfg.W is not None:
        diag += cfg.h**2 * np.asarray(cfg.W.values)
    diag -= cfg.mu
    diag[~cfg.mask.inside] = 0.0
    return (mat + sparse.diags(diag)).tocsr()


def dense_pair_kernel(psi_half, wave, inside):
    """Reference for ``bcs.pair_kernel``: every node pair gathered."""
    n = inside.size
    k = (wave.size - 1) // 2
    kern = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if inside[i] and inside[j] and abs(i - j) <= k:
                kern[i, j] = psi_half[i + j] * wave[i - j + k]
    return kern


def band_rows(mat, band):
    """Reference layout of ``bcs.BandKernel``: rows[i, band + d] = mat[i, i + d]
    for |d| <= band, zero where i + d leaves the box."""
    n = mat.shape[0]
    rows = np.zeros((n, 2 * band + 1))
    for i in range(n):
        for d in range(-band, band + 1):
            if 0 <= i + d < n:
                rows[i, band + d] = mat[i, i + d]
    return rows


def random_band(rng, n, band):
    """A random n x n matrix that vanishes beyond |i - j| <= band."""
    sep = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return np.where(sep <= band, rng.standard_normal((n, n)), 0.0)


class TestBandedKernel:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           k=st.integers(0, 60), tail=st.integers(0, 60),
           dense_mask=st.booleans())
    @example(seed=1, n=12, k=5, tail=5, dense_mask=True)
    @example(seed=2, n=12, k=30, tail=0, dense_mask=False)
    def test_matches_dense_gather(self, seed, n, k, tail, dense_mask):
        # a wave of 2k + 1 samples whose outer ``tail`` samples on each side
        # are zero; k >= n and k - tail >= n give bands wider than the grid,
        # tail > k a zero wave
        rng = np.random.default_rng(seed)
        inside = (np.ones(n, bool) if dense_mask
                  else rng.random(n) < rng.uniform(0.2, 0.9))
        psi_half = rng.standard_normal(2 * n - 1)
        wave = rng.standard_normal(2 * k + 1)
        cut = min(tail, k + 1)
        wave[:cut] = 0.0
        wave[wave.size - cut:] = 0.0
        kern = bcs.pair_kernel(psi_half, wave, inside)
        dense = dense_pair_kernel(psi_half, wave, inside)
        assert np.array_equal(kern.dense(), dense)
        assert kern.band == min(max(k - tail, 0), n - 1)
        assert np.array_equal(kern.values, band_rows(dense, kern.band))

    def test_zero_wave(self):
        inside = np.array([False, True, True, True, False])
        kern = bcs.pair_kernel(np.ones(9), np.zeros(7), inside).dense()
        assert kern.shape == (5, 5) and not kern.any()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           b=st.integers(-1, 45), tail=st.integers(0, 5),
           dense_mask=st.booleans())
    @example(seed=1, n=12, b=-1, tail=3, dense_mask=True)
    @example(seed=2, n=12, b=11, tail=0, dense_mask=False)
    @example(seed=3, n=12, b=30, tail=2, dense_mask=True)
    def test_band_product_matches_dense(self, seed, n, b, tail, dense_mask):
        # a kernel of band b (b = -1: a zero wave; b >= n - 1: as wide as
        # the grid) squared slab by slab against the dense product; the wave
        # is even, as every pair wave is, so the kernel is symmetric
        rng = np.random.default_rng(seed)
        inside = (np.ones(n, bool) if dense_mask
                  else rng.random(n) < rng.uniform(0.2, 0.9))
        wave = np.zeros(2 * (max(b, 0) + tail) + 1)
        if b >= 0:
            half = rng.standard_normal(2 * b + 1)
            wave[tail:wave.size - tail] = half + half[::-1]
        kern = bcs.pair_kernel(rng.standard_normal(2 * n - 1), wave, inside)
        band = kern.band
        assert band == min(max(b, 0), n - 1)
        a = kern.dense()
        dx = rng.uniform(0.01, 1.0)
        aa = bcs._band_square(kern.values, dx)
        assert aa.shape == (n, 4 * band + 1)
        dense = (a @ a) * dx
        scale = np.max(np.abs(dense), initial=0.0)
        # every entry of the band rows, and none beyond 2b once densified
        assert np.max(np.abs(aa - band_rows(dense, 2 * band))) <= 1e-12 * scale
        assert np.max(np.abs(bcs.BandKernel(aa).dense() - dense)) \
            <= 1e-12 * scale
        dense_aa = bcs.BandKernel(aa).dense()
        assert np.array_equal(dense_aa, dense_aa.T)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           band=st.integers(0, 45))
    @example(seed=1, n=3, band=0)
    @example(seed=2, n=10, band=9)
    def test_band_sums_match_dense(self, seed, n, band):
        # unrelated x and y of one band, y read through the band rows of
        # y^T, and a tridiagonal T with unequal entries
        rng = np.random.default_rng(seed)
        band = min(band, n - 1)
        x, y = random_band(rng, n, band), random_band(rng, n, band)
        rows_x = band_rows(x, band)
        diag, off = rng.standard_normal(n), rng.standard_normal(n - 1)
        t_mat = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        ref = np.sum((t_mat @ x) * y.T)
        scale = np.sum(np.abs(t_mat) @ np.abs(x) * np.abs(y.T))
        got = bcs._stencil_sum(rows_x, band_rows(y.T, band), diag, off)
        assert abs(got - ref) <= 1e-12 * scale
        assert np.allclose(np.sum(np.abs(rows_x), axis=1),
                           np.sum(np.abs(x), axis=1), rtol=1e-13, atol=0.0)
        if n < 3:  # a grid has at least 3 nodes
            return
        mask = geo.interval(0.0, 1.0, n=n)
        cfg = bcs.BCSConfig(mask, POSCHL_TELLER, None, h=0.3, D=0.0)
        nodes = mask.grid.axis(0)
        vmat = potential_from_descriptor(POSCHL_TELLER)(
            (nodes[:, None] - nodes[None, :]) / cfg.h)
        ref_v = np.sum(vmat * x**2)
        assert abs(bcs._separation_sum(cfg, rows_x) - ref_v) \
            <= 1e-12 * np.sum(np.abs(vmat) * x**2)

    def test_banded_fallback_matches_dense(self, trial_setup):
        # the trial kernel scaled until the norm bound cannot decide: the
        # eigenvalues of the band matrix A against a dense eigvalsh of the
        # block state
        cfg, psi = trial_setup
        state = bcs.build_trial_state(cfg, psi)
        dv = cfg.mask.grid.spacing[0]
        rows = state.a_psi.values
        factor = 1.5 * rho_star(cfg.h) / np.max(np.sum(np.abs(dv * rows),
                                                       axis=1))
        scaled = bcs.TrialState(cfg, psi, bcs.BandKernel(factor * rows),
                                state.aa)
        with mock.patch.object(linalg, "eigvals_banded",
                               wraps=linalg.eigvals_banded) as spy:
            lo, hi = bcs.admissibility_spectrum(scaled)
        assert spy.called
        a_op = dv * scaled.a_psi.dense()
        a2 = a_op @ a_op
        g_op = a2 + (1.0 + np.sqrt(cfg.h)) * (a2 @ a2)
        n = a_op.shape[0]
        dense = np.linalg.eigvalsh(np.block([[g_op, a_op],
                                             [a_op, np.eye(n) - g_op]]))
        assert abs(lo - dense[0]) < 1e-12
        assert abs(hi - dense[-1]) < 1e-12
        assert hi > 1.0

    def test_energy_density_gamma_match_dense_gamma(self, trial_setup):
        # the formulas of a dense gamma = aa + (1 + sqrt(h)) (aa aa) dx
        cfg, psi = trial_setup
        state = bcs.build_trial_state(cfg, psi)
        dv = cfg.mask.grid.spacing[0]
        a = state.a_psi.dense()
        aa = (a @ a) * dv
        gamma = aa + (1.0 + np.sqrt(cfg.h)) * (aa @ aa) * dv
        x = cfg.mask.grid.axis(0)
        vmat = potential_from_descriptor(cfg.potential)(
            (x[:, None] - x[None, :]) / cfg.h)
        energy = (float(np.sum((one_body_matrix(cfg) @ gamma).diagonal()))
                  * dv + float(np.sum(vmat * a**2)) * dv * dv)
        assert abs(bcs.bcs_energy(cfg, state) - energy) <= 1e-12 * abs(energy)
        rho = bcs.one_body_density(state).values
        scale = np.max(np.abs(np.diag(gamma)))
        assert np.max(np.abs(rho - np.diag(gamma))) <= 1e-12 * scale


def dense_semiclassics_terms(cfg, psi):
    """Reference for the traces of ``bcs.semiclassics_check``: each left
    side as its terms, from the product Laplacian as a sparse matrix on the
    whole box, V gathered on every node pair and the dense product a @ a."""
    matched, h = cfg.matched_state, cfg.h
    grid = cfg.mask.grid
    dv = grid.spacing[0]
    a_lat = lattice_pair_field(matched, cfg.phi, h)
    a = bcs.pair_kernel(bcs.center_values(psi.values), a_lat / h,
                        cfg.mask.inside).dense()
    lap = assemble_dirichlet(geo.DomainMask(grid, np.ones(grid.shape, bool)),
                             1.0).matrix
    ka = -(h**2) * 0.5 * (lap @ a + a @ lap.T)
    x = grid.axis(0)
    vmat = potential_from_descriptor(cfg.potential)(
        (x[:, None] - x[None, :]) / h)
    w = np.asarray(cfg.W.values)
    aa = (a @ a) * dv
    terms = {
        "identity_lhs": [np.sum(ka * a), -cfg.mu * np.sum(a * a),
                         np.sum(vmat * a**2)],
        "field_lhs": [np.sum(w[:, None] * a**2)],
        "quartic_energy_lhs": [
            -(h**2) * np.sum((lap @ aa) * aa.T),
            np.sum((matched.E_b + h**2 * w)[:, None] * aa * aa.T)],
        "quartic_lhs": [np.sum(aa * aa.T)],
    }
    return {name: [float(t) * dv * dv for t in ts] for name, ts in terms.items()}


class TestSemiclassics:
    @pytest.mark.parametrize("h, q", [(0.05, 1.0), (0.1, 1.5)])
    def test_traces_match_dense(self, bcs_domain, h, q):
        x = bcs_domain.grid.axis(0)
        w = ScalarField(bcs_domain.grid,
                        np.where(bcs_domain.inside,
                                 10.0 * np.exp(-((x - 2.0) / 0.5) ** 2), 0.0))
        cfg = bcs.BCSConfig(bcs_domain, POSCHL_TELLER, w, h=h, D=1.0, q=q)
        inner = geo.erode(bcs_domain, cfg.ell)
        mode = onset_threshold(inner, tol=1e-10)
        psi = ScalarField(bcs_domain.grid, 0.5 * mode.eigenvector.values)
        rep = bcs.semiclassics_check(cfg, psi)
        for name, terms in dense_semiclassics_terms(cfg, psi).items():
            scale = max(abs(t) for t in terms)
            assert abs(getattr(rep, name) - sum(terms)) <= 1e-12 * scale, name

    def test_kernel_and_quadratures_share_one_even_wave(self, bcs_domain,
                                                        monkeypatch):
        # the sampled pair wave is even only up to rounding; evened once, it
        # makes the kernel exactly symmetric, as the mirrored band square
        # takes it to be, and is the wave the couplings are summed from
        x = bcs_domain.grid.axis(0)
        w = ScalarField(bcs_domain.grid,
                        np.where(bcs_domain.inside,
                                 10.0 * np.exp(-((x - 2.0) / 0.5) ** 2), 0.0))
        cfg = bcs.BCSConfig(bcs_domain, POSCHL_TELLER, w, h=0.1, D=1.0, q=1.0)
        mode = onset_threshold(geo.erode(bcs_domain, cfg.ell), tol=1e-10)
        psi = ScalarField(bcs_domain.grid, 0.5 * mode.eigenvector.values)
        kernels, waves = [], []
        pair_kernel, couplings = bcs.pair_kernel, bcs.compute_couplings

        def kernel_recording(*args):
            kernel = pair_kernel(*args)
            kernels.append(kernel.values)
            return kernel

        def couplings_recording(state, a):
            waves.append(a)
            return couplings(state, a)

        monkeypatch.setattr(bcs, "pair_kernel", kernel_recording)
        monkeypatch.setattr(bcs, "compute_couplings", couplings_recording)
        bcs.semiclassics_check(cfg, psi)
        assert len(kernels) == len(waves) == 1
        d = bcs.BandKernel(kernels[0]).dense()
        assert np.array_equal(d, d.T)
        assert np.array_equal(waves[0], waves[0][::-1])

    def test_identity_small(self, bcs_domain):
        x = bcs_domain.grid.axis(0)
        w = ScalarField(bcs_domain.grid,
                        np.where(bcs_domain.inside,
                                 10.0 * np.exp(-((x - 2.0) / 0.5) ** 2), 0.0))
        cfg = bcs.BCSConfig(bcs_domain, POSCHL_TELLER, w, h=0.05, D=1.0, q=1.0)
        inner = geo.erode(bcs_domain, bcs.BCSConfig(
            bcs_domain, POSCHL_TELLER, w, h=0.1, D=1.0, q=1.0).ell)
        mode = onset_threshold(inner, tol=1e-10)
        psi = ScalarField(bcs_domain.grid, 0.5 * mode.eigenvector.values)
        rep = bcs.semiclassics_check(cfg, psi)
        assert rep.identity_residual < 1e-4
        assert rep.field_residual < 1e-2
        assert rep.quartic_residual < 0.1

    def test_chi_one_limit(self, bcs_domain):
        # with the cutoff plateau covering the whole pair function, the
        # relative-energy term in the identity reduces to solver precision
        cfg = bcs.BCSConfig(bcs_domain, POSCHL_TELLER, None, h=0.05, D=1.0,
                            q=1.5)
        matched = cfg.matched_state
        from paircond.pairing import lattice_pair_energy, lattice_pair_field

        a_uncut = lattice_pair_field(matched, 1e9, cfg.h)
        assert abs(lattice_pair_energy(matched, a_uncut)) < 1e-10 * cfg.h**2

    def test_norm_bounded_by_h(self, bcs_domain):
        cfg = bcs.BCSConfig(bcs_domain, POSCHL_TELLER, None, h=0.07, D=1.0,
                            q=1.5)
        from paircond.pairing import lattice_pair_field

        matched = cfg.matched_state
        a = lattice_pair_field(matched, cfg.phi, cfg.h)
        assert np.sum(a**2) * matched.step <= cfg.h**2 + 1e-12

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, eigvalsh_tridiagonal
from scipy.sparse.linalg import eigsh, splu

from conftest import random_1d_mask, random_2d_mask
from paircond import geometry as geo
from paircond import spectral as sp
from paircond.grid import Grid, ScalarField
from paircond.reporting import fit_power_law


def interval_mask(n=801, a=0.0, b=1.0, pad=0.0):
    return geo.interval(a, b, grid=Grid.box(a - pad, b + pad, n))


class TestAssembly:
    def test_interval_spectrum(self):
        m = interval_mask(2001)
        op = sp.assemble_dirichlet(m, -1.0)
        res = sp.smallest_eigenpair(op)
        assert abs(res.eigenvalue - np.pi**2) < 2e-5 * np.pi**2

    def test_square_spectrum(self):
        m = geo.box_mask([0, 0], [1, 1], grid=Grid.box([0, 0], [1, 1], [121, 121]))
        op = sp.assemble_dirichlet(m, -1.0)
        res = sp.smallest_eigenpair(op)
        assert abs(res.eigenvalue - 2 * np.pi**2) < 1e-3 * 2 * np.pi**2

    def test_shift_translates_exactly(self):
        m = interval_mask(301)
        base = sp.smallest_eigenpair(sp.assemble_dirichlet(m, -1.0))
        shifted = sp.smallest_eigenpair(sp.assemble_dirichlet(m, -1.0, shift=5.0))
        assert abs(shifted.eigenvalue - base.eigenvalue - 5.0) < 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        m = interval_mask(101, pad=0.1)
        w = ScalarField(m.grid, np.where(m.inside, rng.standard_normal(m.grid.shape), 0.0))
        op = sp.assemble_dirichlet(m, -0.25, w, shift=0.3)
        mat = op.matrix
        assert abs(mat - mat.T).max() < 1e-12

    def test_potential_grid_mismatch(self):
        m = interval_mask(101)
        w = ScalarField(Grid.box(0.0, 1.0, 51), np.zeros(51))
        with pytest.raises(sp.SpectralError):
            sp.assemble_dirichlet(m, -1.0, w)


class TestEigenSolver:
    def test_threshold_interval(self):
        res = sp.onset_threshold(interval_mask(2001))
        assert abs(res.eigenvalue - np.pi**2 / 4) < 1e-3

    def test_threshold_square(self):
        m = geo.box_mask([0, 0], [1, 1], grid=Grid.box([0, 0], [1, 1], [201, 201]))
        res = sp.onset_threshold(m)
        assert abs(res.eigenvalue - np.pi**2 / 2) < 5e-3

    def test_constant_potential_shifts(self):
        m = interval_mask(401)
        w = ScalarField(m.grid, np.where(m.inside, 7.5, 0.0))
        base = sp.onset_threshold(m)
        shifted = sp.onset_threshold(m, w)
        assert abs(shifted.eigenvalue - base.eigenvalue - 7.5) < 1e-8

    def test_rayleigh_consistency(self):
        m = interval_mask(501)
        op = sp.assemble_dirichlet(m, -0.25)
        res = sp.smallest_eigenpair(op, tol=1e-11)
        v = res.eigenvector.values[m.inside]
        rq = float(v @ (op.matrix @ v)) / float(v @ v)
        assert abs(rq - res.eigenvalue) <= 10 * res.residual + 1e-12

    def test_sign_fixed(self):
        res = sp.onset_threshold(interval_mask(301))
        assert np.sum(res.eigenvector.values) > 0

    def test_matches_lanczos_oracle(self):
        m = geo.lshape(n=61)
        op = sp.assemble_dirichlet(m, -1.0)
        mine = sp.smallest_eigenpair(op, tol=1e-11)
        oracle = eigsh(op.matrix, k=1, which="SA", tol=1e-10,
                       return_eigenvectors=False)[0]
        assert abs(mine.eigenvalue - oracle) < 1e-7 * abs(oracle)

    def test_monotone_under_erosion(self):
        m = interval_mask(401, pad=0.2)
        lam = sp.smallest_eigenpair(sp.assemble_dirichlet(m, -1.0)).eigenvalue
        dx = m.grid.spacing[0]
        lam_eroded = sp.smallest_eigenpair(
            sp.assemble_dirichlet(geo.erode(m, 2 * dx), -1.0)
        ).eigenvalue
        assert lam_eroded > lam

    def test_nonconvergence_diagnostic(self, monkeypatch):
        m = interval_mask(301)
        op = sp.assemble_dirichlet(m, -1.0)
        monkeypatch.setattr(sp, "MAX_LU_SOLVES", 2)
        with pytest.raises(sp.SpectralError, match="converge"):
            sp.smallest_eigenpair(op, tol=1e-16)

    def test_narrow_well_ground_state(self):
        # a single-node well far below the rest of the spectrum: the ground
        # state lives on one node of 4001
        m = interval_mask(4001)
        w = np.zeros(4001)
        w[1001] = -2e4
        res = sp.onset_threshold(m, ScalarField(m.grid, w))
        inv_h2 = 1.0 / m.grid.spacing[0] ** 2
        ref = eigvalsh_tridiagonal(0.5 * inv_h2 + w[m.inside],
                                   np.full(m.count - 1, -0.25 * inv_h2),
                                   select="i", select_range=(0, 0))[0]
        assert ref < -24.0
        assert abs(res.eigenvalue - ref) < 1e-8 * abs(ref)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2]),
           coefficient=st.sampled_from([-1.0, -0.25]),
           scale=st.sampled_from([0.0, 1.0, 1e2, 1e4]),
           well=st.floats(-2e4, 0.0))
    def test_matches_dense_spectrum(self, seed, dim, coefficient, scale, well):
        # random masks of at most 400 nodes with a rough potential and one
        # single-node well: the solver must return the smallest eigenvalue
        rng = np.random.default_rng(seed)
        m = random_1d_mask(rng, n=48) if dim == 1 else random_2d_mask(rng, n=20)
        w = scale * rng.standard_normal(m.grid.shape)
        w.flat[rng.choice(np.flatnonzero(m.inside))] += well
        op = sp.assemble_dirichlet(m, coefficient, ScalarField(m.grid, w))
        res = sp.smallest_eigenpair(op)
        ref = np.linalg.eigvalsh(op.matrix.toarray())[0]
        slack = 64 * np.finfo(float).eps * op.norm_estimate()
        assert abs(res.eigenvalue - ref) <= res.residual + slack

    def test_threshold_continuity_under_approximation(self):
        # |D_c^pm(ell) - D_c| decays linearly for a convex domain
        m = interval_mask(1601, pad=0.25)
        d_c = sp.onset_threshold(m).eigenvalue
        dx = m.grid.spacing[0]
        ells = [8 * dx, 12 * dx, 16 * dx, 24 * dx, 32 * dx]
        diffs_int, diffs_ext = [], []
        for ell in ells:
            d_int = sp.onset_threshold(geo.erode(m, ell)).eigenvalue
            d_ext = sp.onset_threshold(geo.dilate(m, ell)).eigenvalue
            diffs_int.append(abs(d_int - d_c))
            diffs_ext.append(abs(d_ext - d_c))
        for diffs in (diffs_int, diffs_ext):
            fit = fit_power_law(ells, diffs)
            assert fit.exponent >= 0.9


class TestShift:
    """Every solve starts from a shift estimate that the pivots of its one
    factor certify, with the Gershgorin shift as the fallback."""

    @staticmethod
    def count_factors(monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape[0])
            return splu(*args, **kwargs)

        monkeypatch.setattr(sp, "splu", counting)
        return calls

    def test_refused_estimate_falls_back_to_gershgorin(self, monkeypatch):
        # a 2D operator takes the Gershgorin shift; an estimate between
        # lambda_1 and lambda_2 leaves one negative pivot, is refused, and
        # costs exactly one more factorization before the same solve runs
        grid = Grid.box([0.0, 0.0], [1.0, 1.0], [31, 31])
        w = ScalarField(grid, np.random.default_rng(3).standard_normal((31, 31)))
        op = sp.assemble_dirichlet(geo.box_mask([0.0, 0.0], [1.0, 1.0], grid),
                                   -1.0, w)
        lam = np.linalg.eigvalsh(op.matrix.toarray())[:2]
        calls = self.count_factors(monkeypatch)
        base = sp.smallest_eigenpair(op)
        assert len(calls) == 1
        assert abs(base.eigenvalue - lam[0]) <= 1e-10 * abs(lam[0])
        refused = sp.smallest_eigenpair(op, sigma=0.5 * (lam[0] + lam[1]))
        assert len(calls) == 3
        assert refused.eigenvalue == base.eigenvalue
        assert refused.iterations == base.iterations
        # the first estimate that the pivots admit is used, and no
        # Gershgorin factor is made
        near = lam[0] - 0.1 * (lam[1] - lam[0])
        res = sp.smallest_eigenpair(op, sigma=(0.5 * (lam[0] + lam[1]), near))
        assert len(calls) == 5
        assert abs(res.eigenvalue - lam[0]) <= 1e-10 * abs(lam[0])

    def test_tridiagonal_operator_takes_the_sturm_shift(self, monkeypatch):
        # the narrow well of test_narrow_well_ground_state: the Gershgorin
        # shift sits near the well depth, 2e4 below lambda_1, and takes
        # hundreds of LU solves; the Sturm shift needs ARPACK's floor, with
        # one factorization
        m = interval_mask(4001)
        w = np.zeros(4001)
        w[1001] = -2e4
        op = sp.assemble_dirichlet(m, -0.25, ScalarField(m.grid, w))
        calls = self.count_factors(monkeypatch)
        res = sp.smallest_eigenpair(op)
        assert len(calls) == 1 and res.iterations <= 25
        gersh = sp.smallest_eigenpair(op, sigma=sp.gershgorin_shift(op.matrix))
        assert gersh.iterations > 200
        assert abs(res.eigenvalue - gersh.eigenvalue) <= 1e-12 * abs(gersh.eigenvalue)


def two_intervals():
    grid = Grid.box(0.0, 1.0, 301)
    x = grid.axis(0)
    return geo.DomainMask(grid, ((x > 0.1) & (x < 0.4)) | ((x > 0.5) & (x < 0.9)))


HARDY_MASKS = {
    "interval201": lambda: interval_mask(201, pad=0.25),
    "interval801": lambda: interval_mask(801, pad=0.25),
    "lshape61": lambda: geo.lshape(n=61),
    "square71": lambda: geo.box_mask(
        [0, 0], [1, 1], grid=Grid.box([-0.2, -0.2], [1.2, 1.2], [71, 71])),
    "two_intervals": two_intervals,
}


def hardy_dense(m):
    """Largest eigenvalue of W phi = mu K phi by a dense generalized eigh,
    with the weights of ``hardy_quotient``."""
    stiff = sp.assemble_dirichlet(m, -1.0).matrix.toarray()
    d = m.dist[m.inside]
    w = np.where(d >= min(m.grid.spacing), 1.0 / d**2, 0.0)
    return eigh(np.diag(w), stiff, eigvals_only=True,
                subset_by_index=[m.count - 1, m.count - 1])[0]


class TestHardy:
    @pytest.mark.parametrize("name", HARDY_MASKS)
    def test_matches_dense_oracle(self, name):
        m = HARDY_MASKS[name]()
        ref = hardy_dense(m)
        assert abs(sp.hardy_quotient(m, 0.0, tol=1e-10) - ref) <= 1e-10 * ref

    def test_certificate_floor(self):
        # 4001 nodes: rounding in the certificate's factor refuses the
        # correct mu at delta <= 1e-13, so delta stops at the floor
        m = interval_mask(4001, pad=0.25)
        tight = sp.hardy_quotient(m, 0.0, tol=1e-14)
        assert abs(tight - sp.hardy_quotient(m, 0.0)) <= 1e-8 * tight

    def test_refuses_a_smaller_eigenvalue(self, monkeypatch):
        # an eigensolve that returns the second-largest eigenvalue (2.0854
        # against 2.5625) fails the pivot check of the certificate
        m = interval_mask(201, pad=0.25)

        def second_largest(a, k, **kwargs):
            vals, vecs = eigsh(a, k=2, **kwargs)
            return vals[:1], vecs[:, :1]

        monkeypatch.setattr(sp, "eigsh", second_largest)
        with pytest.raises(sp.SpectralError, match="not certified"):
            sp.hardy_quotient(m, 0.0)

    def test_lu_solve_cap(self, monkeypatch):
        # one cap serves both eigensolves
        m = interval_mask(201, pad=0.25)
        monkeypatch.setattr(sp, "MAX_LU_SOLVES", 5)
        with pytest.raises(sp.SpectralError, match="in 5 LU solves"):
            sp.hardy_quotient(m, 0.0)
        with pytest.raises(sp.SpectralError, match="in 5 LU solves"):
            sp.smallest_eigenpair(sp.assemble_dirichlet(m, -1.0))

    def test_interval_below_four_and_increasing(self):
        mus = []
        for n in (201, 401, 801):
            m = interval_mask(n, pad=0.25)
            mus.append(sp.hardy_quotient(m, 0.0))
        assert all(mu <= 4.0 + 1e-9 for mu in mus)
        assert mus[0] < mus[1] < mus[2]
        # the supremum 4 is approached logarithmically in the spacing
        assert mus[-1] > 2.8

    def test_square_below_four(self):
        m = geo.box_mask([0, 0], [1, 1], grid=Grid.box([-0.2, -0.2], [1.2, 1.2], [141, 141]))
        mu = sp.hardy_quotient(m, 0.0)
        assert mu <= 4.0 + 1e-9

    def test_dilation_invariance(self):
        mu1 = sp.hardy_quotient(interval_mask(401, 0.0, 1.0, pad=0.2), 0.0)
        mu2 = sp.hardy_quotient(interval_mask(401, 0.0, 2.0, pad=0.4), 0.0)
        assert abs(mu1 - mu2) < 5e-3 * mu1

    def test_indefinite_offset_rejected(self):
        m = interval_mask(201)
        with pytest.raises(sp.SpectralError):
            sp.hardy_quotient(m, lambda_offset=-1e4)

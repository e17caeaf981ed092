import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import eigh, eigvalsh_tridiagonal
from scipy.sparse.linalg import eigsh

from conftest import random_1d_mask, random_2d_mask
from paircond import geometry as geo
from paircond import spectral as sp
from paircond.grid import Grid, ScalarField
from paircond.reporting import fit_power_law


def interval_mask(n=801, a=0.0, b=1.0, pad=0.0):
    return geo.interval(a, b, grid=Grid.box(a - pad, b + pad, n))


def small_square(n=21):
    return geo.box_mask([0, 0], [1, 1], grid=Grid.box([0, 0], [1, 1], [n, n]))


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
        # one message in either dimension: the solves, the shift, the last
        # residual and the target
        monkeypatch.setattr(sp, "MAX_LU_SOLVES", 2)
        for m in (interval_mask(801), small_square()):
            op = sp.assemble_dirichlet(m, -1.0)
            with pytest.raises(sp.SpectralError,
                               match=r"did not converge in 2 solves at the "
                                     r"shift \S+: residual \S+, target \S+$"):
                sp.smallest_eigenpair(op, tol=1e-16)

    def test_breakdown_is_a_solver_error(self, monkeypatch):
        # a factor whose solves turn NaN ends the window's loop at once, in
        # the one non-convergence message and not in a LinAlgError
        monkeypatch.setattr(sp.splu, "solve",
                            lambda self, b: np.full_like(b, np.nan))
        with pytest.raises(sp.SpectralError, match="did not converge in 1 solves"):
            sp.smallest_eigenpair(sp.assemble_dirichlet(small_square(), -1.0))

    def test_breakdown_reports_the_unit_start_residual(self, monkeypatch):
        # a breakdown on the first step reports the residual of the start
        # scaled to a unit vector, at most ||A||_est, and not that of the
        # all-ones start itself (5.8e5 on this square, where ||A||_est is
        # 3.2e3)
        monkeypatch.setattr(sp.splu, "solve",
                            lambda self, b: np.full_like(b, np.nan))
        op = sp.assemble_dirichlet(small_square(), -1.0)
        with pytest.raises(sp.SpectralError) as info:
            sp.smallest_eigenpair(op)
        residual = float(re.search(r"residual (\S+),", str(info.value))[1])
        assert 0.0 < residual <= op.norm_estimate()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_single_unknown(self, dim):
        # one interior node, spacing 1/2: the 1x1 matrix is 2 dim - 7.25
        grid = Grid.box([0.0] * dim, [1.0] * dim, [3] * dim)
        inside = np.zeros(grid.shape, dtype=bool)
        inside[(1,) * dim] = True
        m = geo.DomainMask(grid, inside)
        res = sp.onset_threshold(m, ScalarField(grid, np.full(grid.shape, -7.25)))
        assert (res.eigenvalue, res.residual, res.iterations) == (2 * dim - 7.25, 0, 0)
        assert abs(np.sum(res.eigenvector.values ** 2) * grid.node_weight - 1) < 1e-15

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


def count_superlu(monkeypatch):
    """The list of SuperLU factorizations made from now on."""
    calls = []
    superlu = sp.superlu

    def counting(*args, **kwargs):
        calls.append(1)
        return superlu(*args, **kwargs)

    monkeypatch.setattr(sp, "superlu", counting)
    return calls


@pytest.fixture(params=["band", "superlu"])
def factor_path(request, monkeypatch):
    """Forces ``splu`` onto banded Cholesky or onto SuperLU by its band
    limit; gives the path and the list of SuperLU factorizations made."""
    if request.param == "superlu":
        monkeypatch.setattr(sp, "MAX_CHOLESKY_BAND", 0)
    return request.param, count_superlu(monkeypatch)


class TestCertifiedFactor:
    """``splu`` factors a symmetric positive-definite matrix by banded
    Cholesky up to ``MAX_CHOLESKY_BAND``, by SuperLU past it, and refuses
    any other matrix on either path."""

    @staticmethod
    def operator(seed=5):
        rng = np.random.default_rng(seed)
        mask = random_2d_mask(rng, 20)
        w = ScalarField(mask.grid, rng.standard_normal(mask.grid.shape))
        return sp.assemble_dirichlet(mask, -1.0, w)

    def test_eigenvalue_just_below_zero_is_refused(self, factor_path):
        path, superlu_calls = factor_path
        op = self.operator()
        lam = np.linalg.eigvalsh(op.matrix.toarray())[0]
        t = 1e-10 * op.norm_estimate()
        factor = sp.shifted_factor(op.matrix, lam - t)
        assert factor.band > 1
        with pytest.raises(sp.SpectralError, match="not positive definite"):
            sp.shifted_factor(op.matrix, lam + t)
        assert len(superlu_calls) == (2 if path == "superlu" else 0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["diagonal", "coupling"])
    def test_nonfinite_entry_is_refused(self, factor_path, value, where):
        op = self.operator()
        a = op.matrix.toarray() - sp.gershgorin_shift(op.matrix) * np.eye(op.n_unknowns)
        sp.splu(sparse.csr_matrix(a))  # positive definite as it stands
        k = op.n_unknowns // 2
        j = k if where == "diagonal" else int(np.flatnonzero(a[k, :k])[-1])
        a[k, j] = a[j, k] = value
        with pytest.raises(sp.SpectralError, match="not positive definite"):
            sp.splu(sparse.csr_matrix(a))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.sampled_from([1, 2]),
           superlu=st.booleans())
    def test_solve_matches_dense(self, seed, dim, superlu):
        rng = np.random.default_rng(seed)
        mask = random_2d_mask(rng, 16) if dim == 2 else random_1d_mask(rng)
        w = ScalarField(mask.grid, rng.uniform(-50, 50, mask.grid.shape))
        op = sp.assemble_dirichlet(mask, -1.0, w)
        sigma = sp.gershgorin_shift(op.matrix)
        b = rng.standard_normal(op.n_unknowns)
        with pytest.MonkeyPatch.context() as mp:
            if superlu:
                mp.setattr(sp, "MAX_CHOLESKY_BAND", 0)
            x = sp.shifted_factor(op.matrix, sigma).solve(b)
        ref = np.linalg.solve(op.matrix.toarray() - sigma * np.eye(op.n_unknowns), b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_3d_mask_past_the_band_limit_takes_superlu(self, monkeypatch):
        # 3 x 13 x 13 interior nodes: band 13 * 13 = 169; a random W leaves
        # no flip symmetry, so the whole mask is solved
        calls = count_superlu(monkeypatch)
        grid = Grid.box([0, 0, 0], [1, 1, 1], [5, 15, 15])
        mask = geo.box_mask([0, 0, 0], [1, 1, 1], grid)
        w = ScalarField(grid, np.random.default_rng(8).standard_normal(grid.shape))
        op = sp.assemble_dirichlet(mask, -0.25, w)
        assert sp.splu(op.matrix - sp.gershgorin_shift(op.matrix)
                       * sparse.identity(op.n_unknowns)).band == 169
        assert 169 > sp.MAX_CHOLESKY_BAND
        calls.clear()
        res = sp.onset_threshold(mask, w)
        assert calls == [1]
        ref = np.linalg.eigvalsh(op.matrix.toarray())[0]
        assert abs(res.eigenvalue - ref) <= 1e-10 * abs(ref)

    def test_diagonal_is_packed_as_the_sparse_sum(self):
        # splu(A, d) adds d to the band's diagonal: bit for bit the band
        # factor of the summed sparse matrix, and shifted_factor that of
        # A - sigma I
        op = self.operator()
        sigma = sp.gershgorin_shift(op.matrix)
        d = np.random.default_rng(3).uniform(0.0, 50.0, op.n_unknowns) - sigma
        packed = sp.splu(op.matrix, d)
        assert packed.band > 1 and packed._lu is None
        assert np.array_equal(packed._band,
                              sp.splu(op.matrix + sparse.diags(d))._band)
        ident = sparse.identity(op.n_unknowns, format="csr")
        assert np.array_equal(sp.shifted_factor(op.matrix, sigma)._band,
                              sp.splu(op.matrix - sigma * ident)._band)

    def test_diagonal_past_the_band_limit_keeps_superlu_pivots(self):
        # band 169 > MAX_CHOLESKY_BAND: SuperLU factors A + diag(d), with
        # the pivots of the summed sparse matrix
        grid = Grid.box([0, 0, 0], [1, 1, 1], [5, 15, 15])
        mask = geo.box_mask([0, 0, 0], [1, 1, 1], grid)
        op = sp.assemble_dirichlet(mask, -0.25)
        sigma = sp.gershgorin_shift(op.matrix)
        d = np.random.default_rng(4).uniform(0.0, 50.0, op.n_unknowns) - sigma
        ident = sparse.identity(op.n_unknowns, format="csr")
        for factor, ref in ((sp.splu(op.matrix, d),
                             sp.splu(op.matrix + sparse.diags(d))),
                            (sp.shifted_factor(op.matrix, sigma),
                             sp.splu(op.matrix - sigma * ident))):
            assert factor.band == 169 > sp.MAX_CHOLESKY_BAND
            assert np.array_equal(factor._lu.U.diagonal(), ref._lu.U.diagonal())

    def test_indefinite_diagonal_is_refused(self, factor_path):
        # a diagonal that pushes one node's row below zero
        op = self.operator()
        d = np.full(op.n_unknowns, -sp.gershgorin_shift(op.matrix))
        sp.splu(op.matrix, d)  # positive definite as it stands
        d[op.n_unknowns // 2] = -2.0 * op.norm_estimate()
        with pytest.raises(sp.SpectralError, match="not positive definite"):
            sp.splu(op.matrix, d)

    @pytest.mark.parametrize("shape", [(12, 9), (9, 12), (30, 5), (40,)])
    def test_band_is_the_row_width(self, shape):
        # interior rows of shape[-1] - 2 nodes; an interval has band 1
        d = len(shape)
        mask = geo.box_mask([0] * d, [1] * d, Grid.box([0] * d, [1] * d, list(shape)))
        factor = sp.splu(sp.assemble_dirichlet(mask, -1.0).matrix)
        assert factor.band == (shape[-1] - 2 if d == 2 else 1)


class TestShift:
    """Every solve of an operator on more than one dimension starts from a
    shift estimate that the pivots of its one factor certify, with the
    Gershgorin shift as the fallback. A 1D operator makes no factor."""

    @staticmethod
    def count_factors(monkeypatch):
        calls = []
        splu = sp.splu

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
        # an admitted estimate makes the one factor and no Gershgorin shift
        floors = []
        monkeypatch.setattr(sp, "gershgorin_shift", floors.append)
        res = sp.smallest_eigenpair(op, sigma=lam[0] - 0.1 * (lam[1] - lam[0]))
        assert len(calls) == 4 and floors == []
        assert abs(res.eigenvalue - lam[0]) <= 1e-10 * abs(lam[0])

    def test_tridiagonal_operator_makes_no_factor(self, monkeypatch):
        # the narrow well of test_narrow_well_ground_state: inverse
        # iteration on pttrf/pttrs solves it in a handful of solves, with no
        # sparse factor
        m = interval_mask(4001)
        w = np.zeros(4001)
        w[1001] = -2e4
        op = sp.assemble_dirichlet(m, -0.25, ScalarField(m.grid, w))
        factors = self.count_factors(monkeypatch)
        res = sp.smallest_eigenpair(op)
        assert factors == [] and 0 < res.iterations <= 12
        norm = op.norm_estimate()
        target = max(1e-10 * min(norm, max(1.0, abs(res.eigenvalue))),
                     32 * np.finfo(float).eps * norm)
        assert res.residual <= target
        # a bisected eigenvalue is good only to about eps ||A|| (here it
        # lies 2e-12 relative off), so the 1e-12 reference is the Rayleigh
        # quotient of an independent shift-invert ARPACK vector
        bisected = eigvalsh_tridiagonal(op.matrix.diagonal(),
                                        op.matrix.diagonal(1), select="i",
                                        select_range=(0, 0),
                                        tol=np.finfo(float).tiny)[0]
        assert abs(res.eigenvalue - bisected) <= 32 * np.finfo(float).eps * norm
        _, vecs = eigsh(op.matrix.tocsc(), k=1, sigma=bisected - 1.0,
                        which="LM", tol=1e-14)
        ref = vecs[:, 0] @ (op.matrix @ vecs[:, 0])
        assert abs(res.eigenvalue - ref) <= 1e-12 * abs(ref)


def two_squares(corridor: bool):
    """Two equal squares of 12 x 12 interior nodes, three nodes apart; with
    ``corridor`` a path one node wide joins them at mid-height, a dumbbell."""
    inside = np.zeros((31, 16), dtype=bool)
    inside[2:14, 2:14] = inside[17:29, 2:14] = True
    if corridor:
        inside[14:17, 8] = True
    return geo.DomainMask(Grid.box([0.0, 0.0], [1.0, 0.5], [31, 16]), inside)


class TestWindow:
    """The window of a 2D solve on two wells of (nearly) equal depth:
    lambda_1 twice on disjoint squares, and lambda_1 close to lambda_2 on
    the dumbbell. Either shift returns the smallest eigenvalue."""

    @pytest.mark.parametrize("corridor", [False, True])
    @pytest.mark.parametrize("near", [False, True])
    def test_matches_dense_spectrum(self, corridor, near):
        op = sp.assemble_dirichlet(two_squares(corridor), -1.0)
        lam = np.linalg.eigvalsh(op.matrix.toarray())[:3]
        slack = 64 * np.finfo(float).eps * op.norm_estimate()
        gap = lam[1] - lam[0]
        assert 0 < gap < 1e-3 * lam[0] if corridor else gap <= slack
        sigma = lam[0] - 0.01 * (lam[2] - lam[0]) if near else None
        res = sp.smallest_eigenpair(op, tol=1e-11, sigma=sigma)
        assert abs(res.eigenvalue - lam[0]) <= res.residual + slack
        assert res.residual <= 1e-11 * lam[0]

def twin_mask(n, gap):
    """Two equal intervals of n nodes, ``gap`` outside nodes apart, with an
    outside node at each end."""
    inside = np.zeros(2 * n + gap + 2, dtype=bool)
    inside[1:n + 1] = inside[n + gap + 1:-1] = True
    return geo.DomainMask(Grid.box(0.0, 1.0, inside.size), inside)


class TestTridiagonal:
    """A 1D operator is its tridiagonal (d, e), solved by inverse iteration
    on pttrf/pttrs: lambda_1 lies between the last certified shift and the
    returned Rayleigh quotient, and no sparse matrix is made."""

    @staticmethod
    def solve(op, monkeypatch):
        """``smallest_eigenpair(op)`` and the highest shift that a completed
        pttrf factor certified below lambda_1, in the operator's units (nan
        for one unknown, which makes no factor)."""
        shifts = [np.nan]
        factor = sp._TridiagonalFactor

        def recording(d, e, sigma):
            out = factor(d, e, sigma)
            shifts.append(sigma)
            return out

        monkeypatch.setattr(sp, "_TridiagonalFactor", recording)
        res = sp.smallest_eigenpair(op)
        monkeypatch.undo()
        scale = np.frexp(op.norm_estimate())[1]
        return res, float(np.ldexp(max(shifts[1:], default=np.nan), scale))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["random", "split", "twin", "single"]),
           coefficient=st.sampled_from([-1.0, -0.25, 1.0]),
           scale=st.sampled_from([1e-3, 1.0, 1e4, 1e8, 1e12]))
    def test_matches_dense_spectrum(self, seed, kind, coefficient, scale):
        # one or two intervals; many components, single nodes among them;
        # two equal components with equal potentials (lambda_1 twice); one
        # node. Rough potentials up to 1e12, Laplacian couplings of either
        # sign
        rng = np.random.default_rng(seed)
        if kind == "random":
            m = random_1d_mask(rng, n=64)
        elif kind == "split":
            inside = rng.random(64) < 0.6
            inside[[0, -1]] = False
            inside[32] = True
            m = geo.DomainMask(Grid.box(0.0, 1.0, 64), inside)
        elif kind == "twin":
            m = twin_mask(int(rng.integers(2, 30)), int(rng.integers(1, 4)))
        else:
            m = geo.DomainMask(Grid.box(0.0, 1.0, 5), np.arange(5) == 2)
        w = scale * rng.standard_normal(m.grid.shape)
        if kind == "twin":
            w = 0.5 * (w + w[::-1])
        with pytest.MonkeyPatch.context() as mp:
            op = sp.assemble_dirichlet(m, coefficient, ScalarField(m.grid, w))
            res, sigma = self.solve(op, mp)
        dense = np.linalg.eigvalsh(op.matrix.toarray())
        norm = op.norm_estimate()
        slack = 64 * np.finfo(float).eps * norm
        target = max(1e-10 * min(norm, max(1.0, abs(res.eigenvalue))),
                     32 * np.finfo(float).eps * norm)
        assert dense[0] <= res.eigenvalue + slack
        assert res.residual <= target
        assert abs(res.eigenvalue - dense[0]) <= res.residual + slack
        if kind == "twin":
            assert abs(dense[1] - dense[0]) <= slack
        if m.count == 1:
            assert (res.eigenvalue, res.residual, res.iterations) == (dense[0], 0, 0)
        else:
            assert sigma - slack < dense[0]

    def test_overshooting_shift_is_refused(self, monkeypatch):
        # every factor after the Gershgorin one is asked for at a shift
        # between lambda_1 and lambda_2, close to lambda_2, from which
        # inverse iteration would find lambda_2: each is refused, and so is
        # the returned eigenvalue's certificate
        m = interval_mask(51)
        x = m.grid.axis(0)
        op = sp.assemble_dirichlet(m, -1.0, ScalarField(m.grid, 40.0 * x))
        factor = sp._TridiagonalFactor
        tried = []

        def overshooting(d, e, sigma):
            if not tried:  # the Gershgorin shift
                tried.append("floor")
                return factor(d, e, sigma)
            lam = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
            try:
                out = factor(d, e, lam[0] + 0.9 * (lam[1] - lam[0]))
            except sp.SpectralError:
                tried.append("refused")
                raise
            tried.append("accepted")
            return out

        monkeypatch.setattr(sp, "_TridiagonalFactor", overshooting)
        with pytest.raises(sp.SpectralError, match="not certified as the smallest"):
            sp.smallest_eigenpair(op)
        assert tried[0] == "floor" and len(tried) > 2
        assert set(tried[1:]) == {"refused"}

    def test_relative_solve_builds_no_sparse_matrix(self, monkeypatch):
        # every scipy.sparse matrix or array constructor raises: neither the
        # assembly nor the solve of the relative pair problem makes one
        def refuse(*args, **kwargs):
            raise AssertionError("a scipy.sparse matrix was built")

        for name in dir(sparse):
            if name.endswith(("_matrix", "_array")) or name in (
                    "diags", "eye", "identity", "spdiags"):
                monkeypatch.setattr(sparse, name, refuse)
        from paircond import pairing

        potential = {"kind": "poschl_teller", "depth": 2.0}
        state = pairing.solve_relative(potential, L=16.0, n=801)
        assert abs(state.E_b - 1.0) < 1e-3
        # the guard holds: the sparse matrix of a 1D operator is refused
        with pytest.raises(AssertionError, match="scipy.sparse"):
            pairing._box_operator(potential, 16.0, 801).matrix


class TestStart:
    """A start vector only changes how many solves the loop makes."""

    @staticmethod
    def square_with_potential():
        grid = Grid.box([0.0, 0.0], [1.0, 1.0], [41, 41])
        w = ScalarField(grid, np.random.default_rng(5).standard_normal((41, 41)))
        return sp.assemble_dirichlet(geo.box_mask([0.0, 0.0], [1.0, 1.0], grid),
                                     -1.0, w)

    def test_near_start_saves_lu_solves(self):
        # the product sin(pi x) sin(pi y), the ground mode without the
        # potential, against the default all-ones start: it saves solves at
        # the Gershgorin shift, and at a near estimate, where the window
        # meets the target in 4 solves from either start, costs none
        op = self.square_with_potential()
        xx, yy = op.mask.grid.meshgrid()
        start = (np.sin(np.pi * xx) * np.sin(np.pi * yy))[op.mask.inside]
        lam = np.linalg.eigvalsh(op.matrix.toarray())[:2]
        for sigma in (None, lam[0] - 0.01 * (lam[1] - lam[0])):
            base = sp.smallest_eigenpair(op, sigma=sigma)
            started = sp.smallest_eigenpair(op, sigma=sigma, start=start)
            assert abs(started.eigenvalue - base.eigenvalue) <= 1e-12 * abs(lam[0])
            assert abs(started.eigenvalue - lam[0]) <= 1e-10 * abs(lam[0])
            if sigma is None:
                assert started.iterations < base.iterations
            else:
                assert started.iterations <= base.iterations == 4
            assert started.residual <= 1e-10 * min(op.norm_estimate(),
                                                   max(1.0, abs(lam[0])))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["short", "matrix", "nan", "inf", "zero"])
    def test_bad_start_refused(self, dim, kind):
        op = (self.square_with_potential() if dim == 2
              else sp.assemble_dirichlet(interval_mask(101), -1.0))
        n = op.n_unknowns
        start = {"short": np.ones(n - 1), "matrix": np.ones((n, 1)),
                 "nan": np.full(n, np.nan), "inf": np.full(n, np.inf),
                 "zero": np.zeros(n)}[kind]
        if kind in ("nan", "inf"):
            start[1:] = 1.0
        with pytest.raises(sp.SpectralError, match="start vector"):
            sp.smallest_eigenpair(op, start=start)


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
    """Largest eigenvalue of W phi = mu K phi, W = d^-2, by a dense
    generalized eigh."""
    stiff = sp.assemble_dirichlet(m, -1.0).matrix.toarray()
    w = 1.0 / m.dist[m.inside] ** 2
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
        # a solve of D K D that hands back its second eigenpair (mu 2.0854
        # against 2.5625) fails the pivot check of the certificate
        m = interval_mask(201, pad=0.25)

        def second(op, tol, sigma=None):
            vals, vecs = eigh(op.matrix.toarray(), subset_by_index=[1, 1])
            return sp.EigenResult(vals[0], op.mask.field(vecs[:, 0]), 0.0, 0)

        monkeypatch.setattr(sp, "smallest_eigenpair", second)
        with pytest.raises(sp.SpectralError, match="not certified"):
            sp.hardy_quotient(m, 0.0)

    def test_lu_solve_cap(self, monkeypatch):
        # one cap and one message serve every eigensolve: Hardy's as much
        # as a ground solve, on a tridiagonal as on a 2D mask
        monkeypatch.setattr(sp, "MAX_LU_SOLVES", 3)
        cap = r"in 3 solves at the shift \S+: residual \S+, target \S+$"
        for name in ("interval801", "square71"):
            mask = HARDY_MASKS[name]()
            with pytest.raises(sp.SpectralError, match=cap):
                sp.hardy_quotient(mask, 0.0, tol=1e-12)
            with pytest.raises(sp.SpectralError, match=cap):
                sp.smallest_eigenpair(sp.assemble_dirichlet(mask, -1.0),
                                      tol=1e-14)

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

    @pytest.mark.parametrize("dim", [1, 2])
    def test_single_unknown(self, dim):
        # one node at distance 1/2 from the walls: mu = 1 / (d^2 K) with
        # K = 2 dim / (1/2)^2 + lambda
        grid = Grid.box([0.0] * dim, [1.0] * dim, [3] * dim)
        inside = np.zeros(grid.shape, dtype=bool)
        inside[(1,) * dim] = True
        mu = sp.hardy_quotient(geo.DomainMask(grid, inside), 1.0)
        assert mu == 1.0 / (0.25 * (8.0 * dim + 1.0))

    def test_indefinite_offset_rejected(self):
        m = interval_mask(201)
        with pytest.raises(sp.SpectralError):
            sp.hardy_quotient(m, lambda_offset=-1e4)


def mirror_symmetric_w(mask, seed):
    """A random W on the mask, made exactly invariant under both flips:
    (w + w_x) + (w_y + w_xy) is the same sum of the same pairs after
    either flip."""
    w = np.random.default_rng(seed).uniform(-20, 20, mask.grid.shape)
    w = (w + np.flip(w, 0)) + (np.flip(w, 1) + np.flip(w, (0, 1)))
    return mask.field(w)


FLIP_MASKS = {
    "slit": lambda: geo.slit_square(21),
    "disk_odd": lambda: geo.disk([0, 0], 1.0, grid=Grid.box(
        [-1.2, -1.2], [1.2, 1.2], [23, 23])),
    "disk_even": lambda: geo.disk([0, 0], 1.0, grid=Grid.box(
        [-1.2, -1.2], [1.2, 1.2], [22, 22])),
    "box_even_axis": lambda: geo.box_mask([0, 0], [1, 1], grid=Grid.box(
        [-0.2, -0.2], [1.2, 1.2], [20, 27])),
}


def orbit_isometry(mask, orbits):
    """S: column u is the unit sum of the orbit of node u of the fundamental
    domain, sum of e_y over its distinct images y, over sqrt(their number),
    in the unknowns of the whole mask; built node by node."""
    index = np.full(mask.grid.shape, -1)
    index[mask.inside] = np.arange(mask.count)
    s = np.zeros((mask.count, orbits.reduced.count))
    for u in range(orbits.reduced.count):
        orbit = {tuple(int(x[u]) for x in image) for image in orbits.images}
        for node in orbit:
            assert index[node] >= 0, "an image left the mask"
            s[index[node], u] = 1.0 / np.sqrt(len(orbit))
    return s


class TestMirrorFold:
    @pytest.mark.parametrize("name", sorted(FLIP_MASKS))
    def test_stencil_is_s_transpose_a_s(self, name):
        # B = S^T A S and, on node values, M^(1/2) B M^(1/2), to rounding;
        # the even axes carry the self-coupling across their middle
        mask = FLIP_MASKS[name]()
        w = mirror_symmetric_w(mask, 1)
        orbits = sp.mirror_orbits(mask, w)
        assert orbits.order == (2 if name == "slit" else 4)
        full = sp.assemble_dirichlet(mask, -0.25, w).matrix.toarray()
        s = orbit_isometry(mask, orbits)
        assert np.allclose(s.T @ s, np.eye(s.shape[1]), rtol=0, atol=1e-15)
        folded = s.T @ full @ s
        scale = np.max(np.abs(full))
        b = orbits.stencil(-0.25, w).matrix.toarray()
        assert np.max(np.abs(b - folded)) <= 4 * np.finfo(float).eps * scale
        root_m = np.sqrt(orbits.sizes)
        c = orbits.stencil(-0.25, w, isometric=False).matrix.toarray()
        assert np.array_equal(c, c.T)
        assert (np.max(np.abs(c - root_m[:, None] * folded * root_m[None, :]))
                <= 16 * np.finfo(float).eps * scale)
        # the shift floor is read from rows that are A's
        floor = sp.gershgorin_shift(orbits.row_scaled(orbits.stencil(-0.25, w).matrix))
        ref = sp.gershgorin_shift(sp.assemble_dirichlet(mask, -0.25, w).matrix)
        assert abs(floor - ref) <= 1e-12 * abs(ref)

    def test_row_scaled_diagonal_is_the_stencils(self):
        # W near the float maximum on the 21^2 box: recomputed as
        # (s a_ii) / s, the diagonal of 19 of the 100 folded nodes was inf
        mask = geo.box_mask([0, 0], [1, 1], n=21)
        w = mask.field(np.full(mask.grid.shape, 1.7e308))
        orbits = sp.mirror_orbits(mask, w)
        stencil = orbits.stencil(-0.25, w).matrix
        scaled = orbits.row_scaled(stencil)
        assert np.all(np.isfinite(scaled.diagonal()))
        assert np.array_equal(scaled.diagonal(), stencil.diagonal())
        whole = sp.assemble_dirichlet(mask, -0.25, w).matrix
        assert sp.gershgorin_shift(scaled) == sp.gershgorin_shift(whole)

    @pytest.mark.parametrize("name", sorted(FLIP_MASKS))
    def test_onset_is_smallest_of_whole_operator(self, name):
        # solved on the fundamental domain: the smallest eigenvalue of the
        # dense operator on the whole mask, and an eigenvector of it
        mask = FLIP_MASKS[name]()
        w = mirror_symmetric_w(mask, 2)
        full = sp.assemble_dirichlet(mask, -0.25, w).matrix
        res = sp.onset_threshold(mask, w, tol=1e-11)
        ref = np.linalg.eigvalsh(full.toarray())[0]
        assert abs(res.eigenvalue - ref) <= 1e-10 * max(1.0, abs(ref))
        v = res.eigenvector.values[mask.inside]
        assert abs(np.sum(v**2) * mask.grid.node_weight - 1.0) < 1e-13
        assert np.min(v) >= 0.0
        u = v / np.linalg.norm(v)
        rounding = 64 * np.finfo(float).eps * sp.StencilOperator(
            mask, full).norm_estimate()
        assert np.linalg.norm(full @ u - res.eigenvalue * u) <= res.residual + rounding

    def test_folded_solve_saves_unknowns(self, monkeypatch):
        sizes = []
        solve = sp.smallest_eigenpair

        def recording(op, *args, **kwargs):
            sizes.append(op.n_unknowns)
            return solve(op, *args, **kwargs)

        monkeypatch.setattr(sp, "smallest_eigenpair", recording)
        mask = FLIP_MASKS["disk_odd"]()
        sp.onset_threshold(mask)
        assert sizes == [sp.mirror_orbits(mask).reduced.count]
        assert sizes[0] < mask.count / 3

    def test_w_off_by_one_ulp_is_not_folded(self, monkeypatch):
        mask = FLIP_MASKS["disk_odd"]()
        w = mirror_symmetric_w(mask, 3)
        values = np.array(w.values)
        values[8, 13] = np.nextafter(values[8, 13], np.inf)
        near = mask.field(values)
        assert sp.mirror_orbits(mask, near).order == 1
        res = sp.onset_threshold(mask, near, tol=1e-11)
        ref = sp.smallest_eigenpair(sp.assemble_dirichlet(mask, -0.25, near),
                                    tol=1e-11)
        assert res.eigenvalue == ref.eigenvalue
        assert res.residual == ref.residual and res.iterations == ref.iterations
        assert np.array_equal(res.eigenvector.values, ref.eigenvector.values)

    @pytest.mark.parametrize("name", sorted(FLIP_MASKS))
    def test_default_representatives_are_upper_halves(self, name):
        # each orbit keeps its node of largest column-major flat index: for
        # the single-axis flips, the nodes k >= n_a // 2 on each flipped axis
        mask = FLIP_MASKS[name]()
        orbits = sp.mirror_orbits(mask)
        keep = mask.inside.copy()
        for a in range(2):
            if np.array_equal(mask.inside, np.flip(mask.inside, a)):
                k = np.arange(mask.grid.n[a]).reshape([-1, 1] if a == 0 else [1, -1])
                keep &= k >= mask.grid.n[a] // 2
        assert np.array_equal(orbits.reduced.inside, keep)

    def test_one_dimensional_mask_is_not_folded(self):
        mask = interval_mask(201)
        assert np.array_equal(mask.inside, mask.inside[::-1])
        orbits = sp.mirror_orbits(mask)
        assert orbits.order == 1 and orbits.reduced is mask

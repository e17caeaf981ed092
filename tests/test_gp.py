import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from conftest import inner_product, random_1d_mask, random_2d_mask
from paircond import geometry as geo
from paircond import gp, spectral
from paircond.grid import Grid, ScalarField
from paircond.reporting import fit_power_law
from paircond.spectral import onset_threshold

D_C_INTERVAL = np.pi**2 / 4


def mode_field(mask, amplitude=1.0):
    res = onset_threshold(mask, tol=1e-11)
    return ScalarField(mask.grid, amplitude * res.eigenvector.values), res


def gradient_flow_oracle(n, D, g, tau=2e-3, iters=30000):
    """Independent semi-implicit imaginary-time reference on (0, 1), dense
    tridiagonal algebra only."""
    x = np.linspace(0.0, 1.0, n)
    dx = x[1] - x[0]
    m = n - 2
    lap = (np.diag(np.full(m, -2.0)) + np.diag(np.ones(m - 1), 1)
           + np.diag(np.ones(m - 1), -1)) / dx**2
    a_inv = np.linalg.inv(np.eye(m) + tau * (-0.25) * lap)
    psi = np.sqrt(2.0) * np.sin(np.pi * x[1:-1])
    for _ in range(iters):
        psi = np.maximum(a_inv @ (psi - tau * (-D * psi + 2 * g * psi**3)), 0.0)
    padded = np.concatenate([[0.0], psi, [0.0]])
    kinetic = 0.25 * np.sum(np.diff(padded) ** 2) / dx
    return kinetic + np.sum(-D * psi**2 + g * psi**4) * dx


def check_minimizer(prob, sol, mode, tol=1e-9):
    """Nonnegative, meets the residual contract, reports its own energy and
    lies at or below the single-mode bound."""
    vals = sol.psi.values
    h1 = np.sqrt(gp.gradient_energy(sol.psi)
                 + np.sum(vals**2) * prob.mask.grid.node_weight)
    assert np.min(vals) >= 0.0
    assert sol.el_residual <= tol * (1 + h1)
    assert abs(sol.energy - gp.gp_energy(prob, sol.psi)) <= 1e-9 * (1 + abs(sol.energy))
    _, ub = gp.one_mode_upper_bound(prob, mode=mode)
    assert sol.energy <= ub + 1e-12 * (1 + abs(ub))


class TestEnergy:
    def test_zero_field(self, unit_interval):
        prob = gp.GPProblem(unit_interval, None, 3.0, 1.0)
        zero = unit_interval.field(np.zeros(unit_interval.count))
        assert gp.gp_energy(prob, zero) == 0.0

    def test_nonnegative_without_well(self, unit_interval):
        prob = gp.GPProblem(unit_interval, None, 0.0, 1.0)
        rng = np.random.default_rng(2)
        for _ in range(5):
            psi = unit_interval.field(rng.standard_normal(unit_interval.count))
            assert gp.gp_energy(prob, psi) >= 0.0

    def test_mode_closed_form(self):
        mask = geo.interval(0.0, 1.0, grid=Grid.box(0.0, 1.0, 2001))
        d_val, g_val, theta = 3.0, 1.0, 0.8
        prob = gp.GPProblem(mask, None, d_val, g_val)
        x = mask.grid.axis(0)
        psi = ScalarField(mask.grid, theta * np.sqrt(2.0) * np.sin(np.pi * x)
                          * mask.inside)
        # |psi_1|^2 = 1, kinetic = pi^2/4, |psi_1|_4^4 = 3/2
        expected = theta**2 * (np.pi**2 / 4 - d_val) + g_val * theta**4 * 1.5
        assert abs(gp.gp_energy(prob, psi) - expected) < 1e-4

    def test_dirichlet_violation_rejected(self, padded_interval):
        prob = gp.GPProblem(padded_interval, None, 1.0, 1.0)
        bad = ScalarField(padded_interval.grid,
                          np.ones(padded_interval.grid.shape))
        with pytest.raises(gp.GPError):
            gp.gp_energy(prob, bad)


class TestGradient:
    def test_directional_derivative(self, unit_interval):
        # the Gateaux derivative along v equals 2 <gradient, v>
        prob = gp.GPProblem(unit_interval, None, 2.5, 1.0)
        x = unit_interval.grid.axis(0)
        psi = ScalarField(unit_interval.grid,
                          0.7 * np.sin(np.pi * x) * unit_interval.inside)
        rng = np.random.default_rng(3)
        v = unit_interval.field(rng.standard_normal(unit_interval.count))
        ip = inner_product(gp.gp_gradient(prob, psi), v)
        errs = []
        for eps in (1e-3, 1e-4):
            plus = ScalarField(psi.grid, psi.values + eps * v.values)
            minus = ScalarField(psi.grid, psi.values - eps * v.values)
            fd = (gp.gp_energy(prob, plus) - gp.gp_energy(prob, minus)) / (2 * eps)
            errs.append(abs(fd - 2.0 * ip) / abs(2.0 * ip))
        assert errs[0] < 1e-4
        assert errs[1] < errs[0] / 10  # quadratic decay in eps

    def test_zero_field(self, unit_interval):
        prob = gp.GPProblem(unit_interval, None, 2.0, 1.0)
        zero = unit_interval.field(np.zeros(unit_interval.count))
        assert np.all(gp.gp_gradient(prob, zero).values == 0.0)

    def test_linear_mode_at_eigenvalue(self, unit_interval):
        psi, res = mode_field(unit_interval)
        prob = gp.GPProblem(unit_interval, None, res.eigenvalue, 1e-12)
        grad = gp.gp_gradient(prob, psi)
        assert np.max(np.abs(grad.values)) < 1e-6


class TestMinimize:
    def test_below_threshold_zero(self, unit_interval):
        prob = gp.GPProblem(unit_interval, None, 0.0, 1.0)
        sol = gp.minimize_gp(prob)
        assert sol.energy == 0.0
        assert np.all(sol.psi.values == 0.0)

    def test_at_threshold_vanishing(self, unit_interval):
        prob = gp.GPProblem(unit_interval, None, D_C_INTERVAL, 1.0)
        sol = gp.minimize_gp(prob)
        norm = np.sqrt(np.sum(sol.psi.values**2) * unit_interval.grid.node_weight)
        assert sol.energy <= 0.0
        assert norm < 0.05

    def test_one_mode_is_upper_bound(self, unit_interval):
        prob = gp.GPProblem(unit_interval, None, D_C_INTERVAL + 1.0, 1.0)
        sol = gp.minimize_gp(prob)
        _, ub = gp.one_mode_upper_bound(prob)
        assert sol.energy <= ub + 1e-12
        assert sol.energy < 0.0

    def test_matches_gradient_flow_oracle(self, unit_interval):
        prob = gp.GPProblem(unit_interval, None, 5.0, 1.0)
        sol = gp.minimize_gp(prob, tol=1e-11)
        oracle = gradient_flow_oracle(801, 5.0, 1.0)
        assert abs(sol.energy - oracle) < 1e-6

    def test_restart_independent(self, unit_interval):
        prob = gp.GPProblem(unit_interval, None, D_C_INTERVAL + 1.0, 1.0)
        sol_a = gp.minimize_gp(prob)
        rng = np.random.default_rng(9)
        init = unit_interval.field(np.abs(rng.standard_normal(unit_interval.count)))
        sol_b = gp.minimize_gp(prob, initial=init)
        assert abs(sol_a.energy - sol_b.energy) < 1e-9
        dens_gap = np.sqrt(np.sum((sol_a.psi.values**2 - sol_b.psi.values**2) ** 2)
                           * unit_interval.grid.node_weight)
        assert dens_gap < 1e-6

    def test_residual_contract(self, unit_interval):
        prob = gp.GPProblem(unit_interval, None, 4.0, 1.0)
        tol = 1e-10
        sol = gp.minimize_gp(prob, tol=tol)
        h1 = np.sqrt(gp.gradient_energy(sol.psi)
                     + np.sum(sol.psi.values**2) * unit_interval.grid.node_weight)
        assert sol.el_residual <= tol * (1 + h1)

    def test_nonnegative(self, unit_interval):
        prob = gp.GPProblem(unit_interval, None, 6.0, 2.0)
        sol = gp.minimize_gp(prob)
        assert np.min(sol.psi.values) >= 0.0

    def test_slit_square_far_above_threshold(self):
        # far above threshold the Hessian is indefinite along the way: a
        # Newton iteration that only asks the residual to fall fails here
        mask = geo.slit_square(n=61)
        mode = onset_threshold(mask, tol=1e-11)
        prob = gp.GPProblem(mask, None, mode.eigenvalue + 20.0, 1.0)
        check_minimizer(prob, gp.minimize_gp(prob, mode=mode), mode)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2]),
           w_scale=st.sampled_from([0.0, 1.0, 1e2]),
           gap=st.floats(0.1, 50.0), g_val=st.floats(0.1, 10.0))
    def test_random_masks(self, seed, dim, w_scale, gap, g_val):
        # masks of at most 400 nodes with a rough W, from just above the
        # threshold to far above it
        rng = np.random.default_rng(seed)
        m = random_1d_mask(rng, n=48) if dim == 1 else random_2d_mask(rng, n=20)
        w = m.field(w_scale * rng.standard_normal(m.grid.shape))
        mode = onset_threshold(m, w, tol=1e-11)
        prob = gp.GPProblem(m, w, mode.eigenvalue + gap, g_val)
        check_minimizer(prob, gp.minimize_gp(prob, mode=mode), mode)

    def test_max_iter_diagnostic(self, unit_interval, monkeypatch):
        monkeypatch.setattr(gp, "MAX_NEWTON_STEPS", 3)
        prob = gp.GPProblem(unit_interval, None, 5.0, 1.0)
        with pytest.raises(gp.GPError, match="converge in 3 Newton steps"):
            gp.minimize_gp(prob, tol=1e-16)


def separated_parts(rng, dim):
    """Two to four rectangles (intervals in 1D) in separate cells of a box of
    at most 400 nodes, each at least one node clear of its cell's edges."""
    if dim == 1:
        grid = Grid.box(0.0, 1.0, int(rng.integers(60, 401)))
        cells = [(slice(a, a + grid.n[0] // 4),)
                 for a in range(0, 4 * (grid.n[0] // 4), grid.n[0] // 4)]
    else:
        grid = Grid.box([0.0, 0.0], [1.0, 1.0], [20, 20])
        cells = [(slice(a, a + 10), slice(b, b + 10))
                 for a in (0, 10) for b in (0, 10)]
    parts = []
    for k in rng.choice(4, size=int(rng.integers(2, 5)), replace=False):
        inside = np.zeros(grid.shape, dtype=bool)
        box = []
        for sl in cells[k]:
            size = sl.stop - sl.start
            lo = int(rng.integers(1, size - 3))
            box.append(slice(sl.start + lo,
                             sl.start + int(rng.integers(lo + 2, size))))
        inside[tuple(box)] = True
        parts.append(geo.DomainMask(grid, inside))
    return grid, parts


class TestComponents:
    def test_two_intervals(self):
        # the onset mode lives on the longer interval; a single start from
        # it ends at that interval's minimum, -19.8007
        grid = Grid.box(0.0, 1.0, 401)
        parts = [geo.interval(0.1, 0.4, grid=grid),
                 geo.interval(0.5, 0.9, grid=grid)]
        union = geo.DomainMask(grid, parts[0].inside | parts[1].inside)
        d_val = max(onset_threshold(m, tol=1e-11).eigenvalue for m in parts) + 5
        sol = gp.minimize_gp(gp.GPProblem(union, None, d_val, 1.0))
        assert abs(sol.energy + 21.0570) < 1e-4
        total = sum(gp.minimize_gp(gp.GPProblem(m, None, d_val, 1.0)).energy
                    for m in parts)
        assert abs(sol.energy - total) <= 1e-12 * abs(total)
        # the continuity scan's base minimization takes the same rule
        rep = gp.continuity_scan(gp.GPProblem(union, None, d_val, 1.0), [0.01])
        assert abs(rep.metadata["base_energy"] - total) <= 1e-12 * abs(total)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2]),
           w_scale=st.sampled_from([0.0, 10.0]), gap=st.floats(0.1, 30.0))
    def test_union_energy_is_sum_of_parts(self, seed, dim, w_scale, gap):
        # D sits above the threshold of one random part; parts whose own
        # threshold is higher contribute zero
        rng = np.random.default_rng(seed)
        grid, parts = separated_parts(rng, dim)
        union = geo.DomainMask(grid, np.any([m.inside for m in parts], axis=0))
        w = union.field(w_scale * rng.standard_normal(grid.shape))
        d_val = onset_threshold(parts[0], w, tol=1e-11).eigenvalue + gap
        prob = gp.GPProblem(union, w, d_val, 1.0)
        sol = gp.minimize_gp(prob)
        check_minimizer(prob, sol, onset_threshold(union, w, tol=1e-11))
        total = sum(gp.minimize_gp(gp.GPProblem(m, w, d_val, 1.0)).energy
                    for m in parts)
        assert abs(sol.energy - total) <= 1e-9 * (1.0 + abs(total))


class TestOneMode:
    def test_below_threshold(self, unit_interval):
        prob = gp.GPProblem(unit_interval, None, 0.5, 1.0)
        assert gp.one_mode_upper_bound(prob) == (0.0, 0.0)

    def test_formula(self, unit_interval):
        gap, g_val = 0.7, 1.3
        prob = gp.GPProblem(unit_interval, None, D_C_INTERVAL + gap, g_val)
        theta, energy = gp.one_mode_upper_bound(prob)
        quart = 1.5  # |psi_1|_4^4 for the normalized sine mode
        assert abs(theta**2 - gap / (2 * g_val * quart)) < 1e-3
        assert abs(energy + gap**2 / (4 * g_val * quart)) < 1e-3

    def test_energy_scaling_exponent(self, unit_interval):
        gaps = [0.1, 0.2, 0.4, 0.7, 1.0]
        energies = []
        for gap in gaps:
            prob = gp.GPProblem(unit_interval, None, D_C_INTERVAL + gap, 1.0)
            energies.append(-gp.minimize_gp(prob).energy)
        fit = fit_power_law(gaps, energies)
        assert abs(fit.exponent - 2.0) <= 0.02


class TestContinuity:
    def test_zero_ell_exact(self, padded_interval):
        prob = gp.GPProblem(padded_interval, None, D_C_INTERVAL + 1.0, 1.0)
        rep = gp.continuity_scan(prob, [0.0])
        row = rep.sorted_rows()[0]
        assert row[3] == 0.0 and row[4] == 0.0

    def test_ordering_enforced(self, padded_interval):
        prob = gp.GPProblem(padded_interval, None, D_C_INTERVAL + 1.0, 1.0)
        rep = gp.continuity_scan(prob, [0.01, 0.02, 0.04])
        rows = rep.sorted_rows()
        base = rep.metadata["base_energy"]
        for row in rows:
            assert row[2] <= base + 1e-9 <= row[1] + 2e-9

    def test_one_onset_solve(self, padded_interval, monkeypatch):
        # the eroded and dilated masks start from the base minimizer
        masks = []

        def counting(mask, *args, **kwargs):
            masks.append(mask.count)
            return onset_threshold(mask, *args, **kwargs)

        monkeypatch.setattr(gp, "onset_threshold", counting)
        prob = gp.GPProblem(padded_interval, None, D_C_INTERVAL + 1.0, 1.0)
        gp.continuity_scan(prob, [0.01, 0.02, 0.04])
        assert masks == [padded_interval.count]

    def test_zero_base_dilated_above_threshold(self):
        # below the base threshold, above the dilated one: the dilated
        # minimizer is not zero even though the base minimizer is
        mask = geo.interval(0.2, 0.8, grid=Grid.box(0.0, 1.0, 401))
        d_val = 0.5 * (onset_threshold(mask).eigenvalue
                       + onset_threshold(geo.dilate(mask, 0.05)).eigenvalue)
        rep = gp.continuity_scan(gp.GPProblem(mask, None, d_val, 1.0), [0.05])
        assert rep.metadata["base_energy"] == 0.0
        assert rep.sorted_rows()[0][2] < 0.0

    def test_monotone_under_enlargement(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            lo = rng.uniform(0.05, 0.3)
            hi = rng.uniform(0.7, 0.95)
            grow = rng.uniform(0.02, min(lo, 1 - hi) - 0.01)
            grid = Grid.box(-0.1, 1.1, 241)
            small = geo.interval(lo, hi, grid=grid)
            large = geo.interval(lo - grow, hi + grow, grid=grid)
            d_val = onset_threshold(small).eigenvalue + 0.5
            e_small = gp.minimize_gp(gp.GPProblem(small, None, d_val, 1.0)).energy
            e_large = gp.minimize_gp(gp.GPProblem(large, None, d_val, 1.0)).energy
            assert e_large <= e_small + 1e-10


class TestWarmStart:
    """Each mask of a continuity scan starts from the minimizer of the
    previous mask on its side, eroded or dilated: the chain crosses one
    step of ell at a time, not the whole gap from the base mask."""

    @staticmethod
    def problem():
        # the slit square of the condensate-continuity benchmark, ell = 2, 3
        # and 4 cells
        mask = geo.slit_square(81)
        mode = onset_threshold(mask, tol=1e-11)
        ells = [k * mask.grid.spacing[0] for k in (2, 3, 4)]
        return gp.GPProblem(mask, None, mode.eigenvalue + 1.0, 1.0), mode, ells

    def test_factor_and_solve_counts_pinned(self):
        # started each from the base minimizer, the six masks took 10
        # Hessian factors and 144 factor solves in all, and each dilated mask
        # refused an indefinite first factor; along the chain only the first
        # dilated mask refuses one
        prob, mode, ells = self.problem()
        _, counts = counted(lambda: gp.continuity_scan(prob, ells, mode=mode))
        assert counts == {"factorizations": 8, "solves": 92}

    def test_energies_match_starts_from_the_base(self):
        prob, mode, ells = self.problem()
        rep = gp.continuity_scan(prob, ells, mode=mode)
        base = gp.minimize_gp(prob, mode=mode)
        for row in rep.sorted_rows():
            for col, morph in ((1, geo.erode), (2, geo.dilate)):
                mask = morph(prob.mask, row[0])
                ref = gp.minimize_gp(prob.with_mask(mask),
                                     initial=mask.field(base.psi.values)).energy
                assert abs(row[col] - ref) <= 1e-12 * abs(ref)


class TestFactorsBuildNoSparseMatrix:
    def test_newton_and_shifted_factors(self, monkeypatch):
        # every scipy.sparse matrix or array constructor raises while the
        # Newton loop and a shifted factor run: each factor is packed from
        # the stencil and its diagonal, with no sparse sum made per factor
        mask = geo.slit_square(41)
        mode = onset_threshold(mask, tol=1e-11)
        prob = gp.GPProblem(mask, None, mode.eigenvalue + 30.0, 1.0)
        expected = gp.minimize_gp(prob, mode=mode)
        # the stencils, the one sparse matrix of each solve, are made first
        orbits = spectral.mirror_orbits(mask)
        stencil = orbits.stencil(-0.25, isometric=False)
        monkeypatch.setattr(orbits, "stencil", lambda *args, **kwargs: stencil)
        monkeypatch.setattr(gp, "mirror_orbits", lambda *args: orbits)
        op = spectral.assemble_dirichlet(mask, -0.25)
        sigma = spectral.gershgorin_shift(op.matrix)

        def refuse(*args, **kwargs):
            raise AssertionError("a scipy.sparse matrix was built")

        for name in dir(sparse):
            if name.endswith(("_matrix", "_array")) or name in (
                    "diags", "eye", "identity", "spdiags"):
                monkeypatch.setattr(sparse, name, refuse)
        sol, counts = counted(lambda: gp.minimize_gp(prob, mode=mode))
        assert counts["factorizations"] > 1
        assert sol.energy == expected.energy
        b = np.ones(op.n_unknowns)
        x = spectral.shifted_factor(op.matrix, sigma).solve(b)
        np.testing.assert_allclose(op.matrix @ x - sigma * x, b, rtol=1e-12)
        # the guard holds: a sparse sum of the stencil and a diagonal is refused
        with pytest.raises(AssertionError, match="scipy.sparse"):
            op.matrix + sparse.diags(np.ones(op.n_unknowns))


# continuity_scan rows of the n = 41 slit square at D = D_c + 30, g = 1, ells
# 0.03, 0.07 and 0.11, as computed with a fresh Hessian factor at every
# Newton step (before the factor was kept)
SLIT_41_ROWS = [
    (0.03, -666.4719034982834, -666.4719034982834, 0.0, 0.0),
    (0.07, -536.9153437781725, -852.734456250706, 129.55655972011084,
     186.2625527524226),
    (0.11, -533.1639758012298, -856.1049841442709, 133.30792769705363,
     189.63308064598755),
]


@pytest.fixture
def gp_counts(monkeypatch):
    """Counts Hessian factorizations, minimizations and Newton steps."""
    counts = {"factorizations": 0, "minimizations": 0, "steps": 0}
    splu, minimize = gp.splu, gp.minimize_gp

    def counting_splu(*args, **kwargs):
        counts["factorizations"] += 1
        return splu(*args, **kwargs)

    def counting_minimize(*args, **kwargs):
        sol = minimize(*args, **kwargs)
        counts["minimizations"] += 1
        counts["steps"] += sol.iterations
        return sol

    monkeypatch.setattr(gp, "splu", counting_splu)
    monkeypatch.setattr(gp, "minimize_gp", counting_minimize)
    return counts


class TestKeptFactor:
    def test_disk_scan_factors_rarely(self, gp_counts):
        # later Newton steps run CG on the kept factor
        mask = geo.disk([0, 0], 1.5, grid=Grid.box([-1.85, -1.85],
                                                   [1.85, 1.85], [81, 81]))
        dx = mask.grid.spacing[0]
        mode = onset_threshold(mask, tol=1e-11)
        prob = gp.GPProblem(mask, None, mode.eigenvalue + 1.0, 1.0)
        gp.continuity_scan(prob, [2 * dx, 3 * dx, 4 * dx], mode=mode)
        assert gp_counts["minimizations"] == 7
        assert gp_counts["factorizations"] < gp_counts["steps"] / 2

    def test_slit_square_rows_pinned(self, gp_counts):
        # the early Hessians are indefinite here: CG meets negative curvature
        # or misses its target, and the loop factors again
        mask = geo.slit_square(n=41)
        mode = onset_threshold(mask, tol=1e-11)
        prob = gp.GPProblem(mask, None, mode.eigenvalue + 30.0, 1.0)
        rep = gp.continuity_scan(prob, [0.03, 0.07, 0.11], mode=mode)
        np.testing.assert_allclose(rep.sorted_rows(), SLIT_41_ROWS,
                                   rtol=1e-12, atol=0.0)
        assert gp_counts["factorizations"] > gp_counts["minimizations"]


class TestFirstStep:
    def test_indefinite_hessian_goes_straight_to_fallback(self, monkeypatch):
        # the base minimizer of the n = 41 slit square, zero-extended onto
        # its dilation by 0.07, starts where the Hessian has a negative
        # eigenvalue: its factor is refused before any solve with it, and
        # the first step solves with the positive-definite fallback
        events, hessians = [], []
        splu = gp.splu

        class Factor:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                events.append("solve")
                return self.lu.solve(b)

        def recording(mat, diag=0.0):
            hessians.append(mat.toarray()
                            + np.diag(np.broadcast_to(diag, mat.shape[0])))
            try:
                lu = splu(mat, diag)
            except spectral.SpectralError:
                events.append("refused")
                raise
            events.append("factor")
            return Factor(lu)

        mask = geo.slit_square(n=41)
        mode = onset_threshold(mask, tol=1e-11)
        prob = gp.GPProblem(mask, None, mode.eigenvalue + 30.0, 1.0)
        base = gp.minimize_gp(prob, mode=mode)
        dilated = geo.dilate(mask, 0.07)
        monkeypatch.setattr(gp, "splu", recording)
        sol = gp.minimize_gp(prob.with_mask(dilated),
                             initial=dilated.field(base.psi.values))
        assert events[:3] == ["refused", "factor", "solve"]
        first, fallback = hessians[:2]
        assert np.linalg.eigvalsh(first)[0] < 0.0
        # the fallback keeps the stencil and the nonnegative part of the
        # weighted curvature m c = diag(H) - diag(K) on the diagonal
        off = ~np.eye(first.shape[0], dtype=bool)
        assert np.array_equal(fallback[off], first[off])
        k = spectral.mirror_orbits(dilated).stencil(-0.25, isometric=False)
        k_diag = k.matrix.diagonal()
        np.testing.assert_allclose(
            np.diag(fallback), k_diag + np.maximum(np.diag(first) - k_diag, 0.0),
            rtol=1e-12, atol=0.0)
        # the exterior energy of SLIT_41_ROWS at ell = 0.07
        assert abs(sol.energy - SLIT_41_ROWS[1][2]) <= 1e-12 * abs(SLIT_41_ROWS[1][2])


class TestCGGuards:
    """CG on the kept factor stops at its cap, ``CG_MAX_ITER``, and at
    nonpositive curvature; either way the Newton step factors anew."""

    @staticmethod
    def problem():
        mask = geo.disk([0, 0], 1.0, grid=Grid.box([-1.2, -1.2], [1.2, 1.2],
                                                   [41, 41]))
        mode = onset_threshold(mask, tol=1e-11)
        return gp.GPProblem(mask, None, mode.eigenvalue + 10.0, 1.0), mode

    @staticmethod
    def minimize(monkeypatch, negate_cg=False):
        """(solution, factorizations); with ``negate_cg`` each factor answers
        every solve after its first, the CG ones, with -H0^-1 b."""
        factors = []
        splu = gp.splu

        class Factor:
            def __init__(self, lu):
                self.lu, self.solves = lu, 0

            def solve(self, b):
                self.solves += 1
                x = self.lu.solve(b)
                return -x if negate_cg and self.solves > 1 else x

        def counting(*args, **kwargs):
            factors.append(Factor(splu(*args, **kwargs)))
            return factors[-1]

        monkeypatch.setattr(gp, "splu", counting)
        prob, mode = TestCGGuards.problem()
        sol = gp.minimize_gp(prob, mode=mode)
        check_minimizer(prob, sol, mode)
        return sol, len(factors)

    def test_kept_factor_saves_factorizations(self, monkeypatch):
        sol, factors = self.minimize(monkeypatch)
        assert factors < sol.iterations

    def test_cap_of_zero_factors_every_step(self, monkeypatch):
        # CG may take no iteration: every Newton step factors the Hessian
        monkeypatch.setattr(gp, "CG_MAX_ITER", 0)
        sol, factors = self.minimize(monkeypatch)
        assert factors >= sol.iterations

    def test_negative_preconditioner_is_refused(self, monkeypatch):
        # a negative definite preconditioner gives r^T z < 0 at CG's first
        # iteration; CG stops there, and every Newton step factors anew
        # (past that check, CG with -H0 would run as with H0)
        sol, factors = self.minimize(monkeypatch, negate_cg=True)
        assert factors >= sol.iterations


class TestElResidualBound:
    def test_module_wide_constant(self):
        # |Lap psi| <= C (1 + |D|)(|psi|_H1 + |psi|_H1^3) across problems
        ratios = []
        grid = Grid.box(-0.2, 1.2, 401)
        base = geo.interval(0.0, 1.0, grid=grid)
        rng = np.random.default_rng(4)
        for d_off, g_val in ((0.5, 1.0), (1.5, 0.5), (3.0, 2.0)):
            w = ScalarField(grid, np.where(base.inside,
                                           rng.uniform(-1, 1, grid.shape), 0.0))
            mode = onset_threshold(base, w, tol=1e-11)
            prob = gp.GPProblem(base, w, mode.eigenvalue + d_off, g_val)
            sol = gp.minimize_gp(prob, mode=mode)
            if sol.energy == 0.0:
                continue
            vals = sol.psi.values[base.inside]
            from paircond.spectral import assemble_dirichlet

            lap = assemble_dirichlet(base, 1.0).matrix
            lap_norm = np.linalg.norm(lap @ vals) * np.sqrt(grid.node_weight)
            h1 = np.sqrt(gp.gradient_energy(sol.psi)
                         + np.sum(vals**2) * grid.node_weight)
            ratios.append(lap_norm / ((1 + abs(prob.D)) * (h1 + h1**3)))
        assert ratios and max(ratios) < 50.0


def trivial_orbits(mask, potential=None, mirror_orbits=spectral.mirror_orbits):
    """The orbits of the trivial group: the whole mask, unfolded. The
    original ``mirror_orbits`` is bound here, so patching the module's name
    with this function does not make it call itself."""
    return mirror_orbits(mask, generators=())


def counted(fn, trivial=False):
    """fn() and its Hessian factorizations and factor solves (the first
    solve of each factor, then CG's); with ``trivial``, every mask is solved
    whole, as with the trivial group."""
    counts = {"factorizations": 0, "solves": 0}
    splu = gp.splu

    class Factor:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            counts["solves"] += 1
            return self.lu.solve(b)

    def counting(*args, **kwargs):
        counts["factorizations"] += 1
        return Factor(splu(*args, **kwargs))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gp, "splu", counting)
        if trivial:
            mp.setattr(gp, "mirror_orbits", trivial_orbits)
            mp.setattr(spectral, "mirror_orbits", trivial_orbits)
        return fn(), counts


SYMMETRIC_MASKS = {
    # (mask, order of its flip group)
    "slit": (geo.slit_square(41), 2),
    "centred_disk": (geo.disk([0, 0], 1.0, grid=Grid.box([-1.5, -1.5], [1.5, 1.5],
                                                          [41, 41])), 4),
    # 30 nodes along x: the middle pair of columns mirror onto each other
    "box_even_axis": (geo.box_mask([0, 0], [1, 1], grid=Grid.box(
        [-0.2, -0.2], [1.2, 1.2], [30, 41])), 4),
}


class TestFold:
    """A mask and W that flips along grid axes map onto themselves are
    minimized on the flip group's fundamental domain, in the same Newton
    steps, factorizations and solves as on the whole mask."""

    @staticmethod
    def problem(name, gap=10.0):
        mask, order = SYMMETRIC_MASKS[name]
        assert spectral.mirror_orbits(mask).order == order
        mode = onset_threshold(mask, tol=1e-11)
        return gp.GPProblem(mask, None, mode.eigenvalue + gap, 1.0), mode

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_MASKS))
    def test_minimizer_matches_whole_mask(self, name):
        prob, mode = self.problem(name)
        tol = 1e-9
        folded, counts = counted(lambda: gp.minimize_gp(prob, tol=tol, mode=mode))
        whole, whole_counts = counted(
            lambda: gp.minimize_gp(prob, tol=tol, mode=mode), trivial=True)
        assert folded.iterations == whole.iterations
        assert counts == whole_counts
        assert abs(folded.energy - whole.energy) <= 1e-12 * abs(whole.energy)
        psi = folded.psi.values
        orbits = spectral.mirror_orbits(prob.mask)
        flipped = [a for a in range(2) if np.array_equal(
            prob.mask.inside, np.flip(prob.mask.inside, a))]
        assert 2 ** len(flipped) == orbits.order
        for a in flipped:
            assert np.array_equal(psi, np.flip(psi, a))
        # the residual of the unfolded field, on the whole mask
        dv = prob.mask.grid.node_weight
        el = gp.gp_gradient(prob, folded.psi).values
        h1 = np.sqrt(gp.gradient_energy(folded.psi) + np.sum(psi**2) * dv)
        assert np.linalg.norm(el) * np.sqrt(dv) <= tol * (1 + h1)
        check_minimizer(prob, folded, mode)

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_MASKS))
    def test_continuity_matches_whole_mask(self, name):
        prob, mode = self.problem(name)
        ells = [0.03, 0.07]
        folded, counts = counted(lambda: gp.continuity_scan(prob, ells, mode=mode))
        whole, whole_counts = counted(
            lambda: gp.continuity_scan(prob, ells, mode=mode), trivial=True)
        assert counts == whole_counts
        scale = abs(whole.metadata["base_energy"])
        for row, ref in zip(folded.sorted_rows(), whole.sorted_rows()):
            assert np.max(np.abs(np.subtract(row, ref))) <= 1e-12 * scale

    def test_asymmetric_start_on_symmetric_mask(self):
        # the start is read on the fundamental domain only; the minimizer is
        # unique, so a start that breaks the symmetry changes no result
        prob, mode = self.problem("slit")
        base = gp.minimize_gp(prob, mode=mode)
        rng = np.random.default_rng(5)
        start = prob.mask.field(base.psi.values * rng.uniform(0.5, 1.5, prob.mask.grid.shape))
        sol = gp.minimize_gp(prob, initial=start)
        assert abs(sol.energy - base.energy) <= 1e-10 * abs(base.energy)
        assert np.array_equal(sol.psi.values, np.flip(sol.psi.values, 1))


def byte_identical(a, b):
    """Two minimizer results agree bit for bit."""
    return (np.array_equal(a.psi.values, b.psi.values) and a.energy == b.energy
            and a.el_residual == b.el_residual and a.iterations == b.iterations)


class TestFoldRefused:
    """Without an exact flip symmetry the whole mask is solved, bit for bit
    as with the trivial group."""

    def test_w_off_by_one_ulp(self):
        mask, _ = SYMMETRIC_MASKS["centred_disk"]
        rng = np.random.default_rng(8)
        w = rng.uniform(-1, 1, mask.grid.shape)
        w = (w + np.flip(w, 0)) + (np.flip(w, 1) + np.flip(w, (0, 1)))
        assert spectral.mirror_orbits(mask, mask.field(w)).order == 4
        w[24, 13] = np.nextafter(w[24, 13], np.inf)
        field = mask.field(w)
        assert spectral.mirror_orbits(mask, field).order == 1
        mode = onset_threshold(mask, field, tol=1e-11)
        prob = gp.GPProblem(mask, field, mode.eigenvalue + 5.0, 1.0)
        sol, counts = counted(lambda: gp.minimize_gp(prob))
        ref, ref_counts = counted(lambda: gp.minimize_gp(prob), trivial=True)
        assert byte_identical(sol, ref) and counts == ref_counts

    def test_components_that_mirror_onto_each_other(self):
        # the union is symmetric under the flip of x, each part is not
        grid = Grid.box([0.0, 0.0], [1.0, 1.0], [41, 41])
        inside = np.zeros(grid.shape, dtype=bool)
        inside[5:12, 22:30] = inside[29:36, 22:30] = True
        union = geo.DomainMask(grid, inside)
        assert spectral.mirror_orbits(union).order == 2
        labels, _ = geo.label_components(inside)
        assert spectral.mirror_orbits(geo.DomainMask(grid, labels == 1)).order == 1
        part = geo.DomainMask(grid, labels == 1)
        d_val = onset_threshold(part, tol=1e-11).eigenvalue + 5.0
        prob = gp.GPProblem(union, None, d_val, 1.0)
        sol, counts = counted(lambda: gp.minimize_gp(prob))
        ref, ref_counts = counted(lambda: gp.minimize_gp(prob), trivial=True)
        assert byte_identical(sol, ref) and counts == ref_counts

    def test_interval(self, unit_interval):
        assert spectral.mirror_orbits(unit_interval).order == 1
        prob = gp.GPProblem(unit_interval, None, D_C_INTERVAL + 3.0, 1.0)
        sol, counts = counted(lambda: gp.minimize_gp(prob))
        ref, ref_counts = counted(lambda: gp.minimize_gp(prob), trivial=True)
        assert byte_identical(sol, ref) and counts == ref_counts

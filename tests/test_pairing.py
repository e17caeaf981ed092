import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import POSCHL_TELLER, PT_G_0, PT_G_BCS
from paircond import pairing as pr
from paircond.grid import Grid, ScalarField


class TestSolveRelative:
    def test_poschl_teller_closed_form(self, pt_state):
        assert abs(pt_state.E_b - 1.0) < 1e-4
        x = pt_state.grid.axis(0)
        exact = 1.0 / np.cosh(x) / np.sqrt(2.0)
        assert np.max(np.abs(pt_state.alpha_star.values - exact)) < 1e-4

    def test_poschl_teller_decay_rate(self, pt_state):
        assert abs(pt_state.rho_star - 1.0) < 0.02

    def test_even(self, pt_state):
        v = pt_state.alpha_star.values
        assert np.max(np.abs(v - v[::-1])) < 1e-10

    def test_normalized_and_positive(self, pt_state):
        w = pt_state.grid.weights()
        assert abs(np.sum(pt_state.alpha_star.values**2 * w) - 1.0) < 1e-10
        assert np.min(pt_state.alpha_star.values) > -1e-7

    def test_square_well_root_oracle(self):
        v0, a = 4.0, 1.0
        gs = pr.solve_relative({"kind": "square_well", "depth": v0, "halfwidth": a},
                               L=25.0, n=5001)

        def even_match(e):
            k = np.sqrt(v0 - e)
            return k * np.tan(k * a) - np.sqrt(e)

        root = brentq(even_match, 2.5, 3.5)
        # the jump in V is resolved to one cell, hence the loose tolerance
        assert abs(gs.E_b - root) < 0.01
        assert abs(gs.rho_star - np.sqrt(gs.E_b)) < 0.02 * np.sqrt(gs.E_b)

    def test_gaussian_well_exterior_rate(self):
        gs = pr.solve_relative({"kind": "gaussian_well", "depth": 3.0, "width": 1.0},
                               L=25.0, n=3001)
        assert abs(gs.rho_star - np.sqrt(gs.E_b)) < 0.02 * np.sqrt(gs.E_b)

    def test_no_bound_state(self):
        with pytest.raises(pr.PairingError, match="no bound state"):
            pr.solve_relative({"kind": "gaussian_well", "depth": -1.0, "width": 1.0},
                              L=10.0, n=801)

    def test_box_too_small(self):
        with pytest.raises(pr.PairingError, match="increase L"):
            pr.solve_relative(POSCHL_TELLER, L=4.0, n=401)

    def test_box_size_independence(self, pt_state):
        gs_wide = pr.solve_relative(POSCHL_TELLER, L=30.0,
                                    n=int(30 / 20 * 4000) + 1)
        assert abs(gs_wide.E_b - pt_state.E_b) < np.exp(-pt_state.rho_star * 20.0)

    def test_exponential_moment_finite(self, pt_state):
        # int exp(2 rho |r|) |alpha|^2 at rho = 0.9 rho_star has converged
        # on the box: the outer half contributes a vanishing share
        rho = 0.9 * pt_state.rho_star
        r = np.abs(pt_state.grid.axis(0))
        w = pt_state.grid.weights()
        integrand = np.exp(2 * rho * r) * pt_state.alpha_star.values**2 * w
        total = float(np.sum(integrand))
        outer = float(np.sum(integrand[r > 0.75 * pt_state.L]))
        assert np.isfinite(total)
        assert outer < 0.05 * total

    def test_table_potential(self):
        x = np.linspace(0, 6, 400)
        desc = {"kind": "table", "x": x.tolist(),
                "v": (-2.0 / np.cosh(x) ** 2).tolist()}
        gs = pr.solve_relative(desc, L=20.0, n=2001)
        assert abs(gs.E_b - 1.0) < 5e-3

    def test_unknown_kind(self):
        with pytest.raises(pr.PairingError):
            pr.potential_from_descriptor({"kind": "lennard_jones"})

    def test_unknown_params(self):
        with pytest.raises(pr.PairingError):
            pr.potential_from_descriptor({"kind": "poschl_teller", "shape": 2})

    @pytest.mark.parametrize("params", [
        {"kind": "poschl_teller", "width": True},
        {"kind": "poschl_teller", "depth": "1"},
        {"kind": "square_well", "depth": 1.0, "halfwidth": [1.0]},
        {"kind": "table", "x": ["0", "1", "2"], "v": [True, False, True]},
        {"kind": "table", "x": [0.0, 1.0, 2.0], "v": [-1.0, 0.0]},
    ])
    def test_parameters_read_by_the_number_rule(self, params):
        # booleans, strings, a list for a number and tables of two lengths
        with pytest.raises(pr.PairingError):
            pr.potential_from_descriptor(params)


class TestDecayFit:
    def test_gaussian_field_rejected(self, pt_state):
        g = Grid.box(-20.0, 20.0, 2001)
        x = g.axis(0)
        fake = pr.RelativeGroundState(
            potential=POSCHL_TELLER, E_b=1.0,
            alpha_star=ScalarField(g, np.exp(-(x**2) / 2) / np.pi**0.25),
            L=20.0, residual=0.0,
        )
        with pytest.raises(pr.PairingError):
            pr.fit_decay_rate(fake)

    def test_growing_tail_rejected(self, pt_state):
        g = Grid.box(-20.0, 20.0, 2001)
        x = g.axis(0)
        vals = 1.0 / np.cosh(x) + 1e-3 * (np.abs(x) > 10)
        fake = pr.RelativeGroundState(
            potential=POSCHL_TELLER, E_b=1.0,
            alpha_star=ScalarField(g, vals / np.sqrt(np.sum(vals**2) * 0.02)),
            L=20.0, residual=0.0,
        )
        with pytest.raises(pr.PairingError, match="monotone"):
            pr.fit_decay_rate(fake)


def correlate_couplings(gs, a=None):
    """Reference for ``compute_couplings``: both sums from the lags of
    ``np.correlate``, in O(N^2)."""
    if a is None:
        a = gs.alpha_star.values
    step = gs.step
    c = np.correlate(a, a, mode="full")
    cd = np.correlate(pr.lattice_neg_laplacian(a, step), a, mode="full")
    g_0 = float(np.sum(c * c)) * step**3
    return float(np.sum(cd * c)) * step**3 + gs.E_b * g_0, g_0


class TestCouplings:
    def test_parseval_matches_correlate(self, pt_state):
        for got, ref in zip(pr.compute_couplings(pt_state),
                            correlate_couplings(pt_state)):
            assert abs(got - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("size", [1, 2, 3, 8, 51, 64, 1000, 1001])
    def test_parseval_random_vectors(self, size):
        # odd and even lengths, and ends that do not vanish: the two pad
        # nodes next to the ends carry the correction to the cyclic -Lap
        rng = np.random.default_rng(size)
        g = Grid.box(-1.0, 1.0, max(size, 3))
        gs = pr.RelativeGroundState(
            potential=POSCHL_TELLER, E_b=1.3,
            alpha_star=ScalarField(g, np.zeros(g.n[0])), L=1.0, residual=0.0)
        a = rng.standard_normal(size) + 0.5
        for got, ref in zip(pr.compute_couplings(gs, a),
                            correlate_couplings(gs, a)):
            assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_coupling_oracle(self, pt_state):
        # independent oracle: adaptive quadrature on the closed-form
        # transform pi sech(pi p / 2)/sqrt(2)
        def ahat(p):
            return np.pi / np.sqrt(2.0) / np.cosh(np.pi * p / 2.0)

        g_bcs_oracle = quad(lambda p: (p * p + 1.0) * ahat(p) ** 4, -40, 40,
                            limit=400)[0] / (2 * np.pi)
        g_0_oracle = quad(lambda p: ahat(p) ** 4, -40, 40, limit=400)[0] / (2 * np.pi)
        assert abs(g_bcs_oracle - PT_G_BCS) < 1e-10
        assert abs(g_0_oracle - PT_G_0) < 1e-10
        # production resolution is already inside the acceptance tolerance
        assert abs(pt_state.g_bcs - g_bcs_oracle) < 1e-5 * g_bcs_oracle
        assert abs(pt_state.g_0 - g_0_oracle) < 1e-5 * g_0_oracle

    def test_rescaling_oracle(self):
        # alpha(x/s)/sqrt(s): the transform gains sqrt(s) and dilates, so
        # both couplings scale by s in one dimension (change of variables)
        s = 2.0
        g = Grid.box(-40.0, 40.0, 8001)
        x = g.axis(0)
        resc = pr.RelativeGroundState(
            potential=POSCHL_TELLER, E_b=1.0 / s**2,
            alpha_star=ScalarField(g, 1.0 / np.cosh(x / s) / np.sqrt(2.0 * s)),
            L=40.0, residual=0.0,
        )
        gb, g0 = pr.compute_couplings(resc)
        assert abs(g0 - s * PT_G_0) < 1e-4 * s * PT_G_0

    def test_zero_field(self):
        g = Grid.box(-10.0, 10.0, 801)
        zero = pr.RelativeGroundState(
            potential=POSCHL_TELLER, E_b=1.0,
            alpha_star=ScalarField(g, np.zeros(801)), L=10.0, residual=0.0,
        )
        gb, g0 = pr.compute_couplings(zero)
        assert gb == 0.0 and g0 == 0.0

    def test_domination(self, pt_state):
        assert pt_state.g_bcs >= pt_state.E_b * pt_state.g_0


class TestCutoff:
    def test_profile_plateau_and_support(self):
        r = np.linspace(-3, 3, 1001)
        chi = pr.smoothstep_cutoff(r)
        assert np.all(chi[np.abs(r) <= 1.0] == 1.0)
        assert np.all(chi[np.abs(r) >= 1.5] == 0.0)
        assert np.all((chi >= 0) & (chi <= 1))

    def test_diagnostics_decay(self, pt_state_wide):
        # norm, coupling and energy defects of the cut pair field against
        # the uncut state decay like exp(-rho phi / 2) in the cutoff radius
        gs = pt_state_wide

        def defects(phi):
            a = pr.lattice_pair_field(gs, phi, 1.0)
            g_bcs, g_0 = pr.compute_couplings(gs, a)
            return (abs(np.sum(a**2) * gs.step - 1.0), abs(g_bcs - gs.g_bcs),
                    abs(g_0 - gs.g_0), pr.lattice_pair_energy(gs, a))

        d10, d20 = defects(10.0), defects(20.0)
        rho = gs.rho_star
        bound10 = np.exp(-rho * 10.0 / 2.0)
        for val in d10:
            assert abs(val) <= 2.0 * bound10  # fitted constant ~ O(1)
            assert abs(val) <= 1e-2
        for v10, v20 in zip(d10, d20):
            assert abs(v20) <= max(abs(v10) * 30 * np.exp(-rho * 5.0), 1e-12)

    def test_chi_one_limit_energy(self, pt_state):
        # at phi large enough that chi == 1 on the whole box, the energy
        # defect reduces to the eigenvalue equation residual
        a = pr.lattice_pair_field(pt_state, 13.2, 1.0)
        assert abs(pr.lattice_pair_energy(pt_state, a)) < 1e-9

    def test_norm_never_exceeds_h(self, pt_state):
        a = pr.lattice_pair_field(pt_state, 5.0, 0.3)
        assert np.sum(a**2) * pt_state.step <= 0.3**2 + 1e-12


class TestLatticeLaplacian:
    def test_three_point_with_zero_ends(self):
        a = np.random.default_rng(0).standard_normal(9)
        step = 0.3
        expected = (2.0 * a - np.r_[a[1:], 0.0] - np.r_[0.0, a[:-1]]) / step**2
        assert np.array_equal(pr.lattice_neg_laplacian(a, step), expected)

    def test_axis_acts_on_each_line(self):
        # along an axis of a 2D array, the 1D difference of each line
        f = np.random.default_rng(1).standard_normal((7, 5))
        step = 0.2
        along_x = pr.lattice_neg_laplacian(f, step, axis=0)
        along_y = pr.lattice_neg_laplacian(f, step, axis=1)
        for j in range(f.shape[1]):
            assert np.array_equal(along_x[:, j],
                                  pr.lattice_neg_laplacian(f[:, j], step))
        for i in range(f.shape[0]):
            assert np.array_equal(along_y[i], pr.lattice_neg_laplacian(f[i], step))


class TestMatchedState:
    def test_quadratic_convergence(self):
        errs = []
        for step in (0.4, 0.2, 0.1):
            m = pr.matched_relative_state(POSCHL_TELLER, step)
            errs.append(abs(m.E_b - 1.0))
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    def test_lattice_couplings_converge(self):
        vals = []
        for step in (0.2, 0.1, 0.05):
            m = pr.matched_relative_state(POSCHL_TELLER, step)
            a = pr.lattice_pair_field(m, 1e9, 1.0)
            vals.append(pr.compute_couplings(m, a))
        assert abs(vals[-1][0] - PT_G_BCS) < 1e-3
        assert abs(vals[-1][1] - PT_G_0) < 1e-3
        assert abs(vals[1][1] - PT_G_0) < abs(vals[0][1] - PT_G_0)

    def test_eigen_cancellation_exact(self):
        m = pr.matched_relative_state(POSCHL_TELLER, 0.15)
        a = pr.lattice_pair_field(m, 1e9, 1.0)
        assert abs(pr.lattice_pair_energy(m, a)) < 1e-12

    def test_lattice_normalization(self):
        m = pr.matched_relative_state(POSCHL_TELLER, 0.1)
        assert abs(np.sum(m.alpha_star.values**2) * m.step - 1.0) < 1e-12

    def test_is_the_solved_box_state(self):
        step = 0.2
        m = pr.matched_relative_state(POSCHL_TELLER, step)
        k = int(round(20.0 / step))
        gs = pr.solve_relative(POSCHL_TELLER, k * step, 2 * k + 1, tol=1e-12)
        assert isinstance(m, pr.RelativeGroundState)
        assert m.grid.n[0] == 2 * k + 1 and abs(m.step - step) < 1e-15
        assert m.E_b == gs.E_b
        assert np.array_equal(m.alpha_star.values, gs.alpha_star.values)

    def test_undecayed_box_refused(self):
        # a shallow well binds weakly: its state still fills a small box
        shallow = {"kind": "gaussian_well", "depth": 0.3, "width": 1.0}
        with pytest.raises(pr.PairingError, match="increase L"):
            pr.matched_relative_state(shallow, 0.1, halfwidth=4.0)

    @pytest.mark.parametrize("step, match", [
        (0.0, "positive"), (3.0, "too coarse"), (1e-300, "budget"),
    ])
    def test_micro_lattice_refused_before_solving(self, step, match):
        with pytest.raises(pr.PairingError, match=match):
            pr.micro_lattice_k_max(step, 20.0)

    def test_couplings_computed_once(self, monkeypatch):
        gs = pr.solve_relative(POSCHL_TELLER, L=20.0, n=2001)
        calls = []
        compute_couplings = pr.compute_couplings  # the unpatched function

        def counting(*args, **kwargs):
            calls.append(args)
            return compute_couplings(*args, **kwargs)

        monkeypatch.setattr(pr, "compute_couplings", counting)
        g_bcs, g_0 = gs.g_bcs, gs.g_0
        assert len(calls) == 1
        assert (g_bcs, g_0) == compute_couplings(gs)
        assert gs.g_bcs == g_bcs and len(calls) == 1

    def test_energy_defect_is_the_sparse_form(self):
        # the coarse matched lattice keeps the rounding of the three-point
        # differences far below the defect
        from scipy import sparse

        gs = pr.matched_relative_state(POSCHL_TELLER, 0.25)
        phi = 3.0
        a = pr.lattice_pair_field(gs, phi, 1.0)[1:-1]
        dx = gs.step
        x = gs.grid.axis(0)[1:-1]
        v = pr.potential_from_descriptor(POSCHL_TELLER)(x)
        op = sparse.diags(
            [np.full(a.size - 1, -1.0 / dx**2),
             2.0 / dx**2 + v + gs.E_b,
             np.full(a.size - 1, -1.0 / dx**2)], [-1, 0, 1])
        expected = float(a @ (op @ a)) * dx
        got = pr.lattice_pair_energy(gs, pr.lattice_pair_field(gs, phi, 1.0))
        assert abs(expected) > 1e-3
        assert abs(got - expected) <= 1e-12 * abs(expected)

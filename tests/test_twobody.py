import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from conftest import POSCHL_TELLER, random_1d_mask
from paircond import geometry as geo
from paircond import spectral
from paircond import twobody as tb
from paircond.grid import Grid, ScalarField
from paircond.pairing import potential_from_descriptor
from paircond.spectral import assemble_dirichlet, smallest_eigenpair

POTENTIALS = [
    POSCHL_TELLER,
    {"kind": "square_well", "depth": 3.0, "halfwidth": 0.6},
    {"kind": "gaussian_well", "depth": 2.5, "width": 0.7},
    {"kind": "table", "x": [0.0, 0.5, 1.5], "v": [-3.0, -1.0, 0.0]},
]


def full_operator_and_fold(prob):
    """The pair operator A on the whole product grid and the isometry S from
    the fundamental domain of its symmetry group G onto the G-invariant
    product fields: the oracle of ``TwoBodyProblem.operator``, which must
    equal S^T A S.

    G holds the exchange P(i, j) = (j, i) and, when ``prob.group_order`` is
    4, the reflection R(i, j) = (n-1-j, n-1-i) and PR. S maps a node u to
    the unit sum of its orbit, sum of e_w over the distinct images w of u,
    over sqrt(their number): e_ii on the diagonal of the half x >= y,
    (e_ij + e_ji)/sqrt(2) off it. V is taken on the lattice separations
    (i - j) dx / h, so A is exactly G-invariant.
    """
    pmask = prob.product_mask()
    n = pmask.grid.n[0]
    sep = np.subtract.outer(np.arange(n), np.arange(n)) * pmask.grid.spacing[0]
    pot = potential_from_descriptor(prob.potential)(sep / prob.h)
    if prob.W is not None:
        w = np.asarray(prob.W.values)
        pot = pot + 0.5 * prob.h**2 * (w[:, None] + w[None, :])
    full = assemble_dirichlet(pmask, -0.5 * prob.h**2, pmask.field(pot))
    reduced = prob.operator().mask
    index = np.full(pmask.grid.shape, -1)
    index[pmask.inside] = np.arange(pmask.count)
    group = [lambda i, j: (i, j), lambda i, j: (j, i),
             lambda i, j: (n - 1 - j, n - 1 - i),
             lambda i, j: (n - 1 - i, n - 1 - j)][:prob.group_order]
    rows, cols, vals = [], [], []
    # the order of reduced.field
    for k, (i, j) in enumerate(zip(*np.nonzero(reduced.inside))):
        orbit = {g(i, j) for g in group}
        for node in orbit:
            assert index[node] >= 0, "an image left the product domain"
            rows.append(index[node])
            cols.append(k)
            vals.append(1.0 / np.sqrt(len(orbit)))
    fold = sparse.csr_matrix((vals, (rows, cols)),
                             shape=(pmask.count, reduced.count))
    return full, fold


def check_against_full_operator(prob):
    """Assert that the reduced operator of ``prob`` is S^T A S to rounding,
    that its default shift is A's Gershgorin shift, and that its solve finds
    the smallest eigenvalue of the full product matrix A; returns the solve
    and A."""
    full, fold = full_operator_and_fold(prob)
    folded = (fold.T @ full.matrix @ fold).toarray()
    scale = np.max(np.abs(full.matrix.toarray()))
    assert (np.max(np.abs(prob.operator().matrix.toarray() - folded))
            <= 4 * np.finfo(float).eps * scale)

    floors = []

    def recording(mat):
        floors.append(spectral.gershgorin_shift(mat))
        return floors[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tb, "gershgorin_shift", recording)
        res = tb.ground_energy(prob, tol=1e-9)
    ref_floor = spectral.gershgorin_shift(full.matrix)
    assert floors and abs(floors[0] - ref_floor) <= 1e-12 * abs(ref_floor)
    ref = np.linalg.eigvalsh(full.matrix.toarray())[0]
    assert abs(res.eigenvalue - ref) <= 1e-10 * max(1.0, abs(ref))
    return res, full


def mirrored_problem(n, w_kind, h_cells=8.0):
    """The Poschl-Teller pair on (0, 1) with ``n`` grid nodes, h = h_cells
    dx, and a W that is exactly its own reverse: none, constant, or random
    values plus their reverse."""
    mask = geo.interval(0.0, 1.0, grid=Grid.box(0.0, 1.0, n))
    w = None
    if w_kind == "constant":
        w = mask.field(np.full(n, 3.0))
    elif w_kind == "random":
        values = 5.0 * np.random.default_rng(n).standard_normal(n)
        w = mask.field(values + values[::-1])
    return tb.TwoBodyProblem(mask, POSCHL_TELLER, w,
                             h_cells * mask.grid.spacing[0])


def half_count(m):
    return m * (m + 1) // 2


def quarter_count(m):
    # x >= y and x + y <= a + b over m interior nodes a side
    return (m + 1) ** 2 // 4 if m % 2 else m * (m + 2) // 4


@pytest.fixture(scope="module")
def pt_problem():
    cfg = tb.TwoBodyScanConfig(micro_step=0.125)
    return tb.problem_at(cfg, 0.05)


class TestGroundEnergy:
    def test_poschl_teller_asymptote(self, pt_problem):
        res = tb.ground_energy(pt_problem, tol=1e-9)
        target = -1.0 + 0.05**2 * np.pi**2 / 4
        # genuine subleading term plus discretization, both O(h^3)-ish
        assert abs(res.eigenvalue - target) < 3 * 0.05**3 + 2e-3

    def test_eigenvector_symmetric(self, pt_problem):
        # the scan interval is solved on the quarter; its ground vector v,
        # mapped by S onto the invariant product fields, is an eigenvector of
        # the full operator A to within the residual it was returned with (S
        # is an isometry, and A S = S B)
        assert pt_problem.group_order == 4
        res = tb.ground_energy(pt_problem, tol=1e-9)
        full, fold = full_operator_and_fold(pt_problem)
        reduced = pt_problem.operator().mask
        v = np.asarray(res.eigenvector.values)[reduced.inside]
        u = fold @ (v / np.linalg.norm(v))
        resid = np.linalg.norm(full.matrix @ u - res.eigenvalue * u)
        rounding = 64 * np.finfo(float).eps * full.norm_estimate()
        assert resid <= res.residual + rounding
        assert res.residual <= 1e-9 * max(1.0, abs(res.eigenvalue))

    def test_constant_w_shifts_exactly(self, pt_problem):
        base = tb.ground_energy(pt_problem, tol=1e-10).eigenvalue
        c = 3.0
        w = ScalarField(pt_problem.mask.grid,
                        np.where(pt_problem.mask.inside, c, 0.0))
        shifted = tb.TwoBodyProblem(pt_problem.mask, POSCHL_TELLER, w,
                                    pt_problem.h)
        e = tb.ground_energy(shifted, tol=1e-10).eigenvalue
        assert abs(e - base - pt_problem.h**2 * c) < 1e-9

    def test_free_pair_is_separable(self):
        # V == 0: two decoupled Dirichlet modes at h^2 pi^2 on (0, 1)
        mask = geo.interval(0.0, 1.0, grid=Grid.box(0.0, 1.0, 101))
        zero_v = {"kind": "table", "x": [0.0, 1.0], "v": [0.0, 0.0]}
        prob = tb.TwoBodyProblem(mask, zero_v, None, 0.1)
        res = tb.ground_energy(prob, tol=1e-10)
        dx = mask.grid.spacing[0]
        lam1 = 4.0 / dx**2 * np.sin(np.pi * dx / 2) ** 2  # discrete mode
        assert abs(res.eigenvalue - 0.1**2 * lam1) < 1e-10

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), pot=st.sampled_from(POTENTIALS),
           w_scale=st.sampled_from([0.0, 1.0, 20.0]),
           h_cells=st.floats(6.0, 12.0))
    def test_half_solve_matches_full_operator(self, seed, pot, w_scale,
                                              h_cells):
        # masks of one or two intervals with at most 20 nodes, h of 6 to 12
        # cells (the scans run at 8), solved on the half or, when mask and W
        # are mirror symmetric, the quarter; the reduced operator must be
        # S^T A S to rounding, its default shift A's Gershgorin shift, and
        # its solve must find the smallest eigenvalue of the full product
        # matrix A, with no more LU solves than A takes at that shift
        rng = np.random.default_rng(seed)
        mask = random_1d_mask(rng, n=22)
        w = mask.field(w_scale * rng.standard_normal(22))
        prob = tb.TwoBodyProblem(mask, pot, w, h_cells * mask.grid.spacing[0])
        res, full = check_against_full_operator(prob)
        assert res.iterations <= smallest_eigenpair(full, tol=1e-9).iterations

    def test_trial_start_saves_lu_solves(self):
        # the h = 0.07 product problem at the scan's shift: started from the
        # diamond trial vector, ARPACK returns the unstarted eigenvalue in
        # fewer LU solves, to the same residual target
        prob = tb.problem_at(tb.TwoBodyScanConfig(micro_step=0.125), 0.07)
        sigma = tb._shift_estimate(prob)
        _, trial = tb.twobody_trial_upper_bound(prob)
        base = tb.ground_energy(prob, tol=1e-9, sigma=sigma)
        started = tb.ground_energy(prob, tol=1e-9, sigma=sigma, start=trial)
        assert (abs(started.eigenvalue - base.eigenvalue)
                <= 1e-12 * abs(base.eigenvalue))
        assert started.iterations < base.iterations
        assert started.residual <= 1e-9 * max(1.0, abs(started.eigenvalue))

    def test_memory_guard(self):
        mask = geo.interval(0.0, 1.0, grid=Grid.box(0.0, 1.0, 1001))
        with pytest.raises(tb.TwoBodyError, match="budget"):
            tb.TwoBodyProblem(mask, POSCHL_TELLER, None, 0.05)


class TestMirror:
    @pytest.mark.parametrize("w_kind", [None, "constant", "random"])
    @pytest.mark.parametrize("n", [21, 22], ids=["odd", "even"])
    def test_quarter_matches_full_operator(self, n, w_kind):
        # a symmetric interval and a W equal to its reverse: the problem is
        # solved on the quarter, which must be S^T A S to rounding, keep A's
        # Gershgorin shift, and find the smallest eigenvalue of A
        prob = mirrored_problem(n, w_kind)
        assert prob.group_order == 4
        assert prob.operator().n_unknowns == quarter_count(n - 2)
        _, fold = full_operator_and_fold(prob)
        assert abs(fold.T @ fold - sparse.identity(fold.shape[1])).max() < 1e-15
        check_against_full_operator(prob)

    @pytest.mark.parametrize("n", [21, 22], ids=["odd", "even"])
    def test_quarter_agrees_with_half(self, n):
        # the same problem forced onto the exchange-only half: E0, the trial
        # bound and the discretization estimate read off the unfolded ground
        # vector agree, so fold and unfold carry every image
        quarter = mirrored_problem(n, "random")
        half = mirrored_problem(n, "random")
        half.group_order = 2  # the cached value, set before any build
        assert half.operator().n_unknowns == half_count(n - 2)
        results = []
        for prob in (quarter, half):
            upper, trial = tb.twobody_trial_upper_bound(prob, q=1.0)
            res = tb.ground_energy(prob, tol=1e-11, start=trial)
            results.append((res.eigenvalue, upper,
                            tb.leading_disc_error(prob, res)))
        for a, b in zip(*results):  # measured 3.3e-14 at most
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    @pytest.mark.parametrize("n", [21, 22], ids=["odd", "even"])
    def test_fold_is_s_transpose(self, n):
        # S^T f of a field that has no symmetry at all, on the quarter and
        # on the half, against the oracle's S
        rng = np.random.default_rng(n)
        for order in (4, 2):
            prob = mirrored_problem(n, None)
            prob.group_order = order
            _, fold = full_operator_and_fold(prob)
            f = rng.standard_normal((n, n))
            folded = tb._fold(f, prob.orbits)
            ref = fold.T @ f[prob.product_mask().inside]
            assert np.max(np.abs(folded - ref)) <= 4e-15 * np.max(np.abs(f))

    def test_near_mirror_keeps_the_half(self):
        # W symmetric only to rounding, or a mask off the box's midpoint: no
        # reflection, so the exchange-only half is solved, and still finds
        # A's smallest eigenvalue
        prob = mirrored_problem(22, "random")
        values = np.array(prob.W.values)
        values[5] = np.nextafter(values[5], np.inf)
        near = tb.TwoBodyProblem(prob.mask, POSCHL_TELLER,
                                 prob.mask.field(values), prob.h)
        mask = geo.interval(0.0, 0.9, grid=Grid.box(0.0, 1.0, 22))
        shifted = tb.TwoBodyProblem(mask, POSCHL_TELLER, None, prob.h)
        for case in (near, shifted):
            assert case.group_order == 2
            assert case.operator().n_unknowns == half_count(case.mask.count)
            check_against_full_operator(case)

    def test_scan_problem_unknowns(self):
        # the scan's interval has no W, so every h is solved on the quarter:
        # 13,110 unknowns at h = 0.035 (228 interior nodes a side), where
        # the half had 26,106 and the product grid 51,984
        cfg = tb.TwoBodyScanConfig(micro_step=0.125)
        for h, count in ((0.07, 3249), (0.035, 13_110)):
            prob = tb.problem_at(cfg, h)
            assert prob.group_order == 4
            assert prob.operator().n_unknowns == count


class TestBounds:
    def test_sandwich(self, pt_problem):
        from paircond.pairing import solve_relative

        res = tb.ground_energy(pt_problem, tol=1e-9)
        e0 = res.eigenvalue
        lower = tb.decoupled_lower_bound(
            pt_problem, solve_relative(POSCHL_TELLER).E_b)
        upper, _ = tb.twobody_trial_upper_bound(pt_problem, q=1.5)
        eps = tb.leading_disc_error(pt_problem, res)
        assert lower - eps <= e0 <= upper + 1e-12

    def test_disc_error_of_free_pair(self):
        # V == 0: the ground vector is the discrete sin(pi x) sin(pi y), with
        # eigenvalue h^2 mu, mu = (4/dx^2) sin^2(pi dx/2), so the error is
        # h^2 (pi^2 - mu) in closed form; eps / error measured 0.9992 at 41
        # nodes (1 - O(dx^2): 0.9967 at 21 nodes, 0.99987 at 101)
        mask = geo.interval(0.0, 1.0, grid=Grid.box(0.0, 1.0, 41))
        zero_v = {"kind": "table", "x": [0.0, 1.0], "v": [0.0, 0.0]}
        prob = tb.TwoBodyProblem(mask, zero_v, None, 0.1)
        res = tb.ground_energy(prob, tol=1e-10)
        dx = mask.grid.spacing[0]
        mu = 4.0 / dx**2 * np.sin(np.pi * dx / 2) ** 2
        error = 0.1**2 * (np.pi**2 - mu)
        assert abs(tb.leading_disc_error(prob, res) / error - 1.0) < 2e-3

    def test_disc_error_matches_grid_refinement(self):
        # oracle: at the same h, n -> 2n - 1 nodes halves dx and divides the
        # error of a second-order scheme by 4, so (4/3)(E_{2n-1} - E_n) is the
        # error at n to leading order. eps(n) / oracle measured 0.997 at
        # h = 0.07, n = 115; dropping the h^2/2 factor would multiply eps by
        # 408 and the 1/12 by 12, and summing the second differences over the
        # wall nodes too would read 1.069
        energies, estimates = [], []
        for n in (115, 229):
            mask = geo.interval(0.0, 1.0, grid=Grid.box(0.0, 1.0, n))
            prob = tb.TwoBodyProblem(mask, POSCHL_TELLER, None, 0.07)
            res = tb.ground_energy(prob, tol=1e-10,
                                   sigma=tb._shift_estimate(prob))
            energies.append(res.eigenvalue)
            estimates.append(tb.leading_disc_error(prob, res))
        oracle = 4.0 / 3.0 * (energies[1] - energies[0])
        assert abs(estimates[0] / oracle - 1.0) < 0.02
        # and the estimate falls with dx^2 itself
        assert abs(estimates[0] / estimates[1] - 4.0) < 0.04

    def test_decoupled_closed_form(self, pt_problem):
        from paircond.pairing import solve_relative

        e_b = solve_relative(POSCHL_TELLER).E_b
        val = tb.decoupled_lower_bound(pt_problem, binding_energy=e_b)
        d_c = pt_problem.com_threshold
        assert abs(val - (-e_b + pt_problem.h**2 * d_c)) < 1e-14

    def test_upper_at_least_lower(self, pt_problem):
        upper, _ = tb.twobody_trial_upper_bound(pt_problem, q=1.5)
        lower = tb.decoupled_lower_bound(pt_problem,
                                         pt_problem.matched_state.E_b)
        assert upper >= lower

    def test_trial_vanishes_on_boundary(self, pt_problem):
        # rebuild the trial directly and check the product boundary ring
        h = pt_problem.h
        ell = 1.5 * h * np.log(1 / h)
        from paircond.pairing import smoothstep_cutoff
        from paircond.spectral import onset_threshold

        inner = geo.erode(pt_problem.mask, ell)
        mode = onset_threshold(inner, tol=1e-10)
        full = np.asarray(mode.eigenvector.values)
        n = pt_problem.mask.grid.n[0]
        half = np.empty(2 * n - 1)
        half[0::2] = full
        half[1::2] = 0.5 * (full[:-1] + full[1:])
        idx = np.arange(n)
        alpha = pt_problem.matched_state.alpha_star.values
        k_max = (alpha.size - 1) // 2  # alpha[k_max + k] at s = k * step
        trial = (half[idx[:, None] + idx[None, :]]
                 * smoothstep_cutoff((idx[:, None] - idx[None, :])
                                     * pt_problem.mask.grid.spacing[0] / ell)
                 * np.pad(alpha, n)[idx[:, None] - idx[None, :] + k_max + n])
        pmask = pt_problem.product_mask()
        ring = np.zeros_like(pmask.inside)
        ring[0, :] = ring[-1, :] = ring[:, 0] = ring[:, -1] = True
        assert np.max(np.abs(trial[ring])) == 0.0

    def test_under_resolved_ell_rejected(self):
        cfg = tb.TwoBodyScanConfig(micro_step=0.125)
        prob = tb.problem_at(cfg, 0.05)
        with pytest.raises(tb.TwoBodyError, match="under-resolved"):
            tb.twobody_trial_upper_bound(prob, q=0.05)


class TestScan:
    def test_grid_convergence(self):
        h = 0.1
        mask1 = geo.interval(0.0, 1.0, grid=Grid.box(0.0, 1.0, 201))
        e_fine = tb.ground_energy(
            tb.TwoBodyProblem(mask1, POSCHL_TELLER, None, h), tol=1e-10
        ).eigenvalue
        mask2 = geo.interval(0.0, 1.0, grid=Grid.box(0.0, 1.0, 301))
        e_finer = tb.ground_energy(
            tb.TwoBodyProblem(mask2, POSCHL_TELLER, None, h), tol=1e-10
        ).eigenvalue
        assert abs(e_fine - e_finer) < 1e-4

    def test_three_point_scan(self, monkeypatch):
        solves = []  # (h, LU solves) of every ground solve
        ground = tb.ground_energy

        def recording(prob, *args, **kwargs):
            res = ground(prob, *args, **kwargs)
            solves.append((prob.h, res.iterations))
            return res

        monkeypatch.setattr(tb, "ground_energy", recording)
        cfg = tb.TwoBodyScanConfig(micro_step=0.125)
        rep = tb.asymptotic_scan(cfg, [0.1, 0.07, 0.05])
        md = rep.metadata
        assert md["threshold_rel_error"] < 0.10  # short scan, loose check
        rows = rep.sorted_rows()
        assert all(r[2] - 0.01 <= r[1] <= r[3] + 1e-9 for r in rows)
        # one ground solve per h, started near lambda_1 from the trial
        # vector: ARPACK's floor of 7 LU solves at every h (at h = 0.07
        # random starts took 21, and 31 at the Gershgorin shift)
        assert len(solves) == 3
        assert all(it <= 7 for h, it in solves if h == 0.07)
        assert sum(it for _, it in solves) <= 21

    def test_strong_field_sandwich_on_either_shift(self, monkeypatch):
        # a strong W; a margin of -E_b puts every estimate above lambda_1,
        # so the pivots refuse it and the Gershgorin shift runs instead, at
        # one more factorization per h (one ground solve each): the scan
        # passes its sandwich check either way, with the same energies
        cfg = tb.TwoBodyScanConfig(
            micro_step=0.125,
            w_profile=lambda x: 100.0 * np.exp(-((x - 0.5) / 0.2) ** 2),
        )
        h_list = [0.1, 0.085, 0.07]
        factors = []
        splu = spectral.splu

        def counting(*args, **kwargs):
            factors.append(args[0].shape[0])
            return splu(*args, **kwargs)

        monkeypatch.setattr(spectral, "splu", counting)
        estimated = tb.asymptotic_scan(cfg, h_list).sorted_rows()
        n_estimated = len(factors)
        assert n_estimated == len(h_list)  # one factor per h at the estimate
        factors.clear()
        monkeypatch.setattr(tb, "SHIFT_MARGIN", -1.0)
        refused = tb.asymptotic_scan(cfg, h_list).sorted_rows()
        assert len(factors) == n_estimated + len(h_list)
        for a, b in zip(estimated, refused):
            assert abs(a[1] - b[1]) <= 1e-12 * abs(a[1])
            assert a[2:4] == b[2:4]

    def test_needs_three_points(self):
        cfg = tb.TwoBodyScanConfig()
        with pytest.raises(tb.TwoBodyError):
            tb.asymptotic_scan(cfg, [0.1, 0.05])

    def test_scan_with_field_matches_threshold(self):
        # slope tends to the ground eigenvalue of the quarter-Laplacian
        # plus W, computed independently by the spectral module
        cfg = tb.TwoBodyScanConfig(
            micro_step=0.125,
            w_profile=lambda x: 10.0 * np.exp(-((x - 0.5) / 0.2) ** 2),
        )
        rep = tb.asymptotic_scan(cfg, [0.1, 0.07, 0.05, 0.035, 0.025])
        assert rep.metadata["threshold_rel_error"] < 0.03

import numpy as np
import pytest

from conftest import inner_product
from paircond.grid import Grid, GridError, ScalarField


def field_1d(n, fn, lo=0.0, hi=1.0):
    g = Grid.box(lo, hi, n)
    return ScalarField(g, fn(g.axis(0)))


def integrate(f: ScalarField) -> float:
    """Trapezoid quadrature of ``f`` with the grid's weights."""
    return float(np.sum(f.values * f.grid.weights()))


class TestIntegrate:
    def test_constant_is_exact(self):
        f = field_1d(101, lambda x: np.ones_like(x))
        assert abs(integrate(f) - 1.0) < 1e-12

    def test_sine_closed_form(self):
        f = field_1d(1001, lambda x: np.sin(np.pi * x))
        assert abs(integrate(f) - 2.0 / np.pi) < 1e-5

    def test_zero(self):
        f = field_1d(11, np.zeros_like)
        assert integrate(f) == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(0)
        g = Grid.box(0.0, 1.0, 64)
        for _ in range(5):
            a, b = rng.standard_normal(2)
            fv, gv = rng.standard_normal((2, 64))
            lhs = integrate(ScalarField(g, a * fv + b * gv))
            rhs = a * integrate(ScalarField(g, fv)) + b * integrate(ScalarField(g, gv))
            assert abs(lhs - rhs) < 1e-12

    def test_refinement_is_second_order(self):
        errs = []
        for n in (101, 201, 401):
            f = field_1d(n, lambda x: np.sin(np.pi * x))
            errs.append(abs(integrate(f) - 2.0 / np.pi))
        # halving the spacing must cut the error by at least ~4
        assert errs[0] / errs[1] > 3.5
        assert errs[1] / errs[2] > 3.5


class TestInnerProduct:
    def test_constants(self):
        f = field_1d(101, np.ones_like)
        assert abs(inner_product(f, f) - 1.0) < 1e-12

    def test_mode_orthogonality(self):
        f = field_1d(1001, lambda x: np.sin(np.pi * x))
        g = field_1d(1001, lambda x: np.sin(2 * np.pi * x))
        assert abs(inner_product(f, g)) < 1e-10

    def test_mode_norm(self):
        f = field_1d(1001, lambda x: np.sin(np.pi * x))
        assert abs(inner_product(f, f) - 0.5) < 1e-6

    def test_conjugate_linearity(self):
        g = Grid.box(0.0, 1.0, 32)
        rng = np.random.default_rng(1)
        fv = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        gv = rng.standard_normal(32)
        ip = inner_product(ScalarField(g, fv), ScalarField(g, gv))
        ip_conj = inner_product(ScalarField(g, gv), ScalarField(g, fv))
        assert abs(ip - np.conj(ip_conj)) < 1e-14

    def test_grid_mismatch(self):
        f = field_1d(11, np.ones_like)
        g = field_1d(21, np.ones_like)
        with pytest.raises(GridError):
            inner_product(f, g)


class TestGridBasics:
    def test_bounds_reproduced(self):
        g = Grid.box(0.25, 1.75, 7)
        x = g.axis(0)
        assert x[0] == 0.25 and x[-1] == 1.75

    def test_rejects_tiny_axes(self):
        with pytest.raises(GridError):
            Grid.box(0.0, 1.0, 2)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(GridError):
            Grid.box(1.0, 0.0, 11)

    def test_kernel_symmetry_check(self):
        from order_parameter import PairKernel

        g = Grid.box(0.0, 1.0, 8)
        k = PairKernel(g, g, np.eye(8))
        k.check_symmetric()
        k2 = PairKernel(g, g, np.arange(64.0).reshape(8, 8))
        with pytest.raises(GridError):
            k2.check_symmetric()

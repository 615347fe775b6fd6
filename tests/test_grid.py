import concurrent.futures

import numpy as np
import pytest

from phaselab.errors import ConfigurationError
from phaselab.grid import (
    Face,
    Grid2D,
    ScalarField2D,
    _axis_derivative,
    boundary_trace,
    face_integral,
    gradient,
    integrate_domain,
    inward_slope,
    laplacian,
    normal_derivative,
    tangential_derivative,
)


def unit_square(n):
    return Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, n, n)


class TestGridConstruction:
    def test_spacings_from_extents(self):
        g = Grid2D.from_extents(0.0, 2.0, 0.0, 1.0, 21, 11)
        assert g.hx == pytest.approx(0.1)
        assert g.hy == pytest.approx(0.1)
        assert g.lx == pytest.approx(2.0)

    def test_1d_mode(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 0.0, 11, 1)
        assert g.is_1d
        assert g.active_faces() == (Face.LEFT, Face.RIGHT)
        with pytest.raises(ConfigurationError):
            g.require_active(Face.BOTTOM)

    def test_degenerate_rejected(self):
        with pytest.raises(ConfigurationError):
            Grid2D(nx=1, ny=5, hx=0.1, hy=0.1)
        with pytest.raises(ConfigurationError):
            Grid2D(nx=5, ny=5, hx=-0.1, hy=0.1)

    def test_field_shape_checked(self):
        g = unit_square(5)
        with pytest.raises(ConfigurationError):
            ScalarField2D(g, np.zeros((4, 5)))


class TestGradient:
    def test_constant_is_zero(self):
        g = unit_square(17)
        v = gradient(ScalarField2D.full(g, 3.7))
        assert np.all(v.vx == 0.0)
        assert np.all(v.vy == 0.0)

    def test_linear_exact(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 13, 9)
        f = ScalarField2D.from_function(g, lambda x, y: x)
        v = gradient(f)
        assert np.allclose(v.vx, 1.0, atol=1e-13)
        assert np.allclose(v.vy, 0.0, atol=1e-13)

    def test_affine_exact_both_axes(self):
        g = Grid2D.from_extents(-1.0, 2.0, 0.5, 3.0, 12, 17)
        f = ScalarField2D.from_function(g, lambda x, y: 2.0 * x - 3.0 * y + 1.0)
        v = gradient(f)
        assert np.allclose(v.vx, 2.0, atol=1e-12)
        assert np.allclose(v.vy, -3.0, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_end_rows_are_inward_slope_bit_for_bit(self, n, axis):
        rng = np.random.default_rng(n)
        shape = (n, 3) if axis == 0 else (3, n)
        cases = [
            rng.uniform(-1.0, 1.0, shape),
            rng.choice([-0.0, 0.0, 0.5, -1.0], shape),
            rng.standard_normal(shape) * 1e-200,
        ]
        for h in (0.1, 1.0 / 3.0):
            for v in cases:
                d = _axis_derivative(v, h, axis).swapaxes(0, axis)
                w = v.swapaxes(0, axis)
                lo = inward_slope(w[0], w[1], w[2], h)
                hi = -inward_slope(w[-1], w[-2], w[-3], h)
                assert d[0].tobytes() == lo.tobytes()
                assert d[-1].tobytes() == hi.tobytes()

    def test_sin_convergence_table(self):
        # frozen from the analytic-derivative oracle pi*cos(pi x)
        errs = {}
        for n in (65, 129):
            g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, n, 5)
            f = ScalarField2D.from_function(g, lambda x, y: np.sin(np.pi * x))
            xx, _ = g.meshgrid()
            errs[n] = np.max(np.abs(gradient(f).vx - np.pi * np.cos(np.pi * xx)))
        assert errs[65] < 2.6e-3
        assert 3.5 < errs[65] / errs[129] < 4.5


class TestLaplacian:
    def test_constant_zero(self):
        g = unit_square(9)
        assert np.all(laplacian(ScalarField2D.full(g, -2.0)).values == 0.0)

    def test_quadratic_exact(self):
        g = unit_square(15)
        f = ScalarField2D.from_function(g, lambda x, y: x * x + y * y)
        lap = laplacian(f).values
        assert np.allclose(lap, 4.0, atol=1e-10)

    def test_sin_sin_convergence(self):
        errs = {}
        for n in (33, 65):
            g = unit_square(n)
            f = ScalarField2D.from_function(
                g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
            )
            exact = -2.0 * np.pi**2 * f.values
            # interior nodes only (faces use one-sided diagnostics stencils)
            err = np.abs(laplacian(f).values - exact)[1:-1, 1:-1]
            errs[n] = err.max()
        assert 3.5 < errs[33] / errs[65] < 4.5


class TestBoundaryTrace:
    def test_constant_times_length(self):
        g = Grid2D.from_extents(0.0, 2.0, 0.0, 1.0, 41, 21)
        f = ScalarField2D.full(g, 3.0)
        vals, w = boundary_trace(f, Face.BOTTOM)
        assert np.sum(vals * w) == pytest.approx(3.0 * 2.0)

    def test_linear_exact(self):
        g = Grid2D.from_extents(0.0, 2.0, 0.0, 1.0, 17, 9)
        f = ScalarField2D.from_function(g, lambda x, y: x)
        vals, w = boundary_trace(f, Face.BOTTOM)
        assert np.sum(vals * w) == pytest.approx(2.0, abs=1e-13)

    def test_quadratic_second_order(self):
        errs = {}
        for n in (33, 65):
            g = Grid2D.from_extents(0.0, 2.0, 0.0, 1.0, n, 5)
            f = ScalarField2D.from_function(g, lambda x, y: x * x)
            vals, w = boundary_trace(f, Face.BOTTOM)
            errs[n] = abs(np.sum(vals * w) - 8.0 / 3.0)
        assert 3.5 < errs[33] / errs[65] < 4.5

    def test_1d_point_faces(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 0.0, 11, 1)
        f = ScalarField2D.from_function(g, lambda x, y: x)
        vals, w = boundary_trace(f, Face.RIGHT)
        assert vals.shape == (1,)
        assert np.sum(vals * w) == pytest.approx(1.0)


class TestTangentialDerivative:
    def test_constant_zero(self):
        g = unit_square(11)
        f = ScalarField2D.full(g, 5.0)
        assert np.all(tangential_derivative(f, Face.BOTTOM) == 0.0)

    def test_linear_one(self):
        g = unit_square(11)
        f = ScalarField2D.from_function(g, lambda x, y: x)
        assert np.allclose(tangential_derivative(f, Face.BOTTOM), 1.0, atol=1e-13)
        # x is constant along the left face
        assert np.allclose(tangential_derivative(f, Face.LEFT), 0.0, atol=1e-13)

    def test_tanh_layer_peak(self):
        eps = 0.1
        g = Grid2D.from_extents(0.0, 2.0, 0.0, 1.0, 401, 5)
        f = ScalarField2D.from_function(g, lambda x, y: np.tanh((x - 1.0) / eps))
        tau = tangential_derivative(f, Face.BOTTOM)
        assert np.max(tau) == pytest.approx(1.0 / eps, rel=1e-3)

    def test_1d_point_face_is_zero(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 0.0, 11, 1)
        f = ScalarField2D.from_function(g, lambda x, y: x * x)
        assert tangential_derivative(f, Face.LEFT) == pytest.approx(0.0)


class TestNormalDerivative:
    def test_linear_exact_signs(self):
        g = unit_square(11)
        f = ScalarField2D.from_function(g, lambda x, y: x + 2.0 * y)
        assert np.allclose(normal_derivative(f, Face.LEFT), -1.0, atol=1e-12)
        assert np.allclose(normal_derivative(f, Face.RIGHT), 1.0, atol=1e-12)
        assert np.allclose(normal_derivative(f, Face.BOTTOM), -2.0, atol=1e-12)
        assert np.allclose(normal_derivative(f, Face.TOP), 2.0, atol=1e-12)


class TestIntegrateDomain:
    def test_constant(self):
        g = Grid2D.from_extents(0.0, 2.0, 0.0, 1.0, 21, 11)
        assert integrate_domain(ScalarField2D.full(g, 1.0)) == pytest.approx(2.0)

    def test_linear_exact(self):
        g = unit_square(13)
        f = ScalarField2D.from_function(g, lambda x, y: x)
        assert integrate_domain(f) == pytest.approx(0.5, abs=1e-14)

    def test_sin_sin_value(self):
        g = unit_square(129)
        f = ScalarField2D.from_function(
            g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        )
        assert integrate_domain(f) == pytest.approx(4.0 / np.pi**2, rel=2e-4)

    def test_1d_integral(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 0.0, 101, 1)
        f = ScalarField2D.from_function(g, lambda x, y: x)
        assert integrate_domain(f) == pytest.approx(0.5, abs=1e-14)

    def test_bit_identical_across_threads(self):
        g = unit_square(64)
        rng = np.random.default_rng(7)
        f = ScalarField2D(g, rng.standard_normal((64, 64)))
        ref = integrate_domain(f)
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as ex:
            vals = list(ex.map(lambda _: integrate_domain(f), range(64)))
        assert all(v == ref for v in vals)


class TestFaceIntegralPartition:
    def test_boundary_integral_splits_into_faces(self):
        # sum of face trapezoids is the full line integral; corners carry
        # measure zero so no double counting occurs
        g = Grid2D.from_extents(0.0, 2.0, 0.0, 1.0, 81, 41)
        f = ScalarField2D.full(g, 1.0)
        total = sum(face_integral(f, face) for face in Face)
        assert total == pytest.approx(2.0 * (2.0 + 1.0))

import concurrent.futures

import numpy as np
import pytest

from phaselab.errors import ConfigurationError
from phaselab.grid import (
    Face,
    Grid2D,
    ScalarField2D,
    _axis_derivative,
    face_gradient,
    gradient,
    integrate_values,
    inward_slope,
    laplacian,
)


def unit_square(n):
    return Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, n, n)


def trace_and_weights(f, face):
    g = f.grid
    return g.face_slice(f.values, face), g.face_weights(face)


def trace_integral(f, face):
    vals, w = trace_and_weights(f, face)
    return float(np.sum(vals * w))


def tangential(f, face):
    return face_gradient(gradient(f), face)[0]


def outward_normal(f, face):
    return face_gradient(gradient(f), face)[1]


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
    """Face values (`face_slice`) against trapezoid weights
    (`face_weights`)."""

    def test_constant_times_length(self):
        g = Grid2D.from_extents(0.0, 2.0, 0.0, 1.0, 41, 21)
        f = ScalarField2D.full(g, 3.0)
        assert trace_integral(f, Face.BOTTOM) == pytest.approx(3.0 * 2.0)

    def test_linear_exact(self):
        g = Grid2D.from_extents(0.0, 2.0, 0.0, 1.0, 17, 9)
        f = ScalarField2D.from_function(g, lambda x, y: x)
        assert trace_integral(f, Face.BOTTOM) == pytest.approx(2.0, abs=1e-13)

    def test_quadratic_second_order(self):
        errs = {}
        for n in (33, 65):
            g = Grid2D.from_extents(0.0, 2.0, 0.0, 1.0, n, 5)
            f = ScalarField2D.from_function(g, lambda x, y: x * x)
            errs[n] = abs(trace_integral(f, Face.BOTTOM) - 8.0 / 3.0)
        assert 3.5 < errs[33] / errs[65] < 4.5

    def test_1d_point_faces(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 0.0, 11, 1)
        f = ScalarField2D.from_function(g, lambda x, y: x)
        vals, w = trace_and_weights(f, Face.RIGHT)
        assert vals.shape == (1,)
        assert np.sum(vals * w) == pytest.approx(1.0)


class TestTangentialDerivative:
    """The tangential part of `face_gradient`."""

    def test_constant_zero(self):
        g = unit_square(11)
        f = ScalarField2D.full(g, 5.0)
        assert np.all(tangential(f, Face.BOTTOM) == 0.0)

    def test_linear_one(self):
        g = unit_square(11)
        f = ScalarField2D.from_function(g, lambda x, y: x)
        assert np.allclose(tangential(f, Face.BOTTOM), 1.0, atol=1e-13)
        # x is constant along the left face
        assert np.allclose(tangential(f, Face.LEFT), 0.0, atol=1e-13)

    def test_tanh_layer_peak(self):
        eps = 0.1
        g = Grid2D.from_extents(0.0, 2.0, 0.0, 1.0, 401, 5)
        f = ScalarField2D.from_function(g, lambda x, y: np.tanh((x - 1.0) / eps))
        tau = tangential(f, Face.BOTTOM)
        assert np.max(tau) == pytest.approx(1.0 / eps, rel=1e-3)

    def test_1d_point_face_is_zero(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 0.0, 11, 1)
        f = ScalarField2D.from_function(g, lambda x, y: x * x)
        for face in g.active_faces():
            tau = tangential(f, face)
            assert tau.shape == (1,) and tau[0] == 0.0


class TestNormalDerivative:
    """The outward normal part of `face_gradient`."""

    def test_linear_exact_signs(self):
        g = unit_square(11)
        f = ScalarField2D.from_function(g, lambda x, y: x + 2.0 * y)
        assert np.allclose(outward_normal(f, Face.LEFT), -1.0, atol=1e-12)
        assert np.allclose(outward_normal(f, Face.RIGHT), 1.0, atol=1e-12)
        assert np.allclose(outward_normal(f, Face.BOTTOM), -2.0, atol=1e-12)
        assert np.allclose(outward_normal(f, Face.TOP), 2.0, atol=1e-12)

    def test_1d_point_faces(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 0.0, 11, 1)
        f = ScalarField2D.from_function(g, lambda x, y: 3.0 * x)
        assert outward_normal(f, Face.LEFT) == pytest.approx([-3.0])
        assert outward_normal(f, Face.RIGHT) == pytest.approx([3.0])


class TestFaceGradient:
    @pytest.mark.parametrize("shape", [(5, 4), (3, 3), (4, 3), (9, 1), (3, 1)])
    def test_normal_is_negated_inward_slope_bit_for_bit(self, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 0.7, *shape)
        for v in (
            rng.uniform(-1.0, 1.0, shape),
            rng.choice([-0.0, 0.0, 0.5, -1.0], shape),
        ):
            f = ScalarField2D(g, v)
            grad = gradient(f)
            for face in g.active_faces():
                i0, i1, i2, h = g.inward_lines(face)
                ref = -inward_slope(v[i0], v[i1], v[i2], h)
                assert face_gradient(grad, face)[1].tobytes() == np.atleast_1d(ref).tobytes()

    def test_two_nodes_across_agree_in_value(self):
        # with two nodes across a face one 2-point difference serves both
        # ends, so on a RIGHT or TOP face a zero slope reads +0.0 where
        # the negated inward slope of the face line reads -0.0
        rng = np.random.default_rng(5)
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 2, 2)
        for v in (rng.uniform(-1.0, 1.0, (2, 2)), np.full((2, 2), 0.5)):
            grad = gradient(ScalarField2D(g, v))
            for face in g.active_faces():
                i0, i1, _, h = g.inward_lines(face)
                ref = -inward_slope(v[i0], v[i1], None, h)
                assert np.array_equal(face_gradient(grad, face)[1], ref)

    def test_tangential_is_line_derivative_of_the_trace(self):
        rng = np.random.default_rng(3)
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 0.7, 6, 4)
        v = rng.uniform(-1.0, 1.0, (6, 4))
        grad = gradient(ScalarField2D(g, v))
        for face in g.active_faces():
            h = g.hx if face.axis == 0 else g.hy
            trace = g.face_slice(v, face)
            ref = _axis_derivative(trace[:, None], h, 0)[:, 0]
            assert face_gradient(grad, face)[0].tobytes() == ref.tobytes()

    def test_returns_fresh_arrays(self):
        g = unit_square(5)
        grad = gradient(ScalarField2D.from_function(g, lambda x, y: x * y))
        for face in g.active_faces():
            for part in face_gradient(grad, face):
                assert not np.shares_memory(part, grad.vx)
                assert not np.shares_memory(part, grad.vy)


class TestIntegrateDomain:
    """`integrate_values`, the tensor-product trapezoid rule."""

    def test_constant(self):
        g = Grid2D.from_extents(0.0, 2.0, 0.0, 1.0, 21, 11)
        assert integrate_values(g, np.ones((21, 11))) == pytest.approx(2.0)

    def test_linear_exact(self):
        g = unit_square(13)
        f = ScalarField2D.from_function(g, lambda x, y: x)
        assert integrate_values(g, f.values) == pytest.approx(0.5, abs=1e-14)

    def test_sin_sin_value(self):
        g = unit_square(129)
        f = ScalarField2D.from_function(
            g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        )
        assert integrate_values(g, f.values) == pytest.approx(4.0 / np.pi**2, rel=2e-4)

    def test_1d_integral(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 0.0, 101, 1)
        f = ScalarField2D.from_function(g, lambda x, y: x)
        assert integrate_values(g, f.values) == pytest.approx(0.5, abs=1e-14)

    def test_bit_identical_across_threads(self):
        g = unit_square(64)
        rng = np.random.default_rng(7)
        v = rng.standard_normal((64, 64))
        ref = integrate_values(g, v)
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as ex:
            vals = list(ex.map(lambda _: integrate_values(g, v), range(64)))
        assert all(v == ref for v in vals)


class TestFaceIntegralPartition:
    def test_boundary_integral_splits_into_faces(self):
        # sum of face trapezoids is the full line integral; corners carry
        # measure zero so no double counting occurs
        g = Grid2D.from_extents(0.0, 2.0, 0.0, 1.0, 81, 41)
        f = ScalarField2D.full(g, 1.0)
        total = sum(trace_integral(f, face) for face in Face)
        assert total == pytest.approx(2.0 * (2.0 + 1.0))

import numpy as np
import pytest

from phaselab.errors import UsageError
from phaselab.grid import Face, Grid2D, ScalarField2D, gradient
from phaselab.measures import dissipation_window, gradient_floor
from phaselab.solver import (
    CircleArc,
    Dynamic,
    Line1D,
    NeumannZeroFlux,
    PhaseState,
    double_well,
    init_profile,
    neumann_laws,
    run,
    stable_dt,
    step,
)
from phaselab.varifold import (
    Window1D,
    boundary_functional,
    brakke_residual,
    bump1d,
    first_variation_direct,
    first_variation_expanded,
    gauss_window,
    mean_curvature_field,
    projection_tensor,
    scalar_constant,
    scalar_gauss,
    scalar_window,
    tangential_first_variation,
    vec_constant,
    vec_dilation,
    vec_separable,
)

EVERYWHERE = Window1D(float("-inf"), float("inf"), 0.0, 0.0)


def radial_state(n=129, eps=0.1, r0=0.25):
    g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, n, n)
    return init_profile(g, CircleArc((0.5, 0.5), r0), eps)


def compressed_1d(nx=1001, eps=0.05):
    g = Grid2D.from_extents(0.0, 1.0, 0.0, 0.0, nx, 1)
    xx, _ = g.meshgrid()
    u = np.tanh((xx - 0.5) / (2.0 * eps))
    return PhaseState(ScalarField2D(g, u), 0.0, eps, neumann_laws())


def interior_bump_field():
    return vec_separable(
        (1.0, 0.0),
        bump1d(0.5, 0.35),
        bump1d(0.5, 0.35),
        compact_faces=tuple(Face),
    )


class TestTestFieldFlags:
    def test_tangential_certified(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 17, 17)
        # x-directed field vanishing at x-walls is tangential on all faces
        fld = vec_separable(
            (1.0, 0.0), bump1d(0.5, 0.5), EVERYWHERE, tangential_on_boundary=True
        )
        fld.verify_flags(g)

    def test_tangential_violation_caught(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 17, 17)
        fld = vec_constant(1.0, 0.0)
        fld.tangential_on_boundary = True
        with pytest.raises(UsageError):
            fld.verify_flags(g)

    def test_compact_support_violation_caught(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 17, 17)
        fld = vec_constant(1.0, 0.0)
        fld.compact_faces = (Face.LEFT,)
        with pytest.raises(UsageError):
            fld.verify_flags(g)

    def test_gauss_on_face_center_certifies(self):
        g = Grid2D.from_extents(-1.0, 3.0, 0.0, 2.0, 65, 33)
        phi = scalar_gauss(1.0, 0.0, 0.25)
        phi.verify_flags(g)  # zero slope on its center line, tiny tails

    def test_offcenter_gauss_fails_certification(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 33, 33)
        phi = scalar_gauss(0.5, 0.5, 0.3)  # tails well above 1e-10 at walls
        with pytest.raises(UsageError):
            phi.verify_flags(g)

    def test_window_derivative_is_c1(self):
        w = Window1D(0.3, 0.7, 0.2, 0.2)
        z = np.linspace(0.0, 1.0, 2001)
        dv = np.gradient(w.value(z), z)
        # exact derivative away from the C^1 joints (finite differences
        # carry O(h) error at the curvature jumps there)
        joints = np.array([0.1, 0.3, 0.7, 0.9])
        away = np.min(np.abs(z[:, None] - joints[None, :]), axis=1) > 2e-3
        # central-difference truncation h^2/6 * f''' bounds the mismatch
        assert np.max(np.abs((dv - w.deriv(z))[away])) < 2e-4
        assert w.value(0.3) == 1.0 and w.value(0.05) == 0.0
        # derivative continuous across the joints
        for j in joints:
            assert abs(w.deriv(j - 1e-9) - w.deriv(j + 1e-9)) < 1e-6


class TestFirstVariation:
    def test_constant_field_direct_zero(self):
        st = radial_state(65)
        assert first_variation_direct(st, vec_constant(2.0, -1.0)) == 0.0

    def test_constant_state_empty_mask(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 33, 33)
        st = PhaseState(ScalarField2D.full(g, 0.5), 0.0, 0.1, neumann_laws())
        assert first_variation_direct(st, vec_constant(1.0, 0.0)) == 0.0

    def test_constant_field_expanded_cancels(self):
        st = radial_state(129)
        rep = first_variation_expanded(st, vec_constant(1.0, 0.0))
        assert rep.delta_direct == 0.0
        assert abs(rep.delta_expanded) < 1e-6 * max(rep.terms_abs_sum, 1.0)

    def test_interior_bump_boundary_terms_vanish(self):
        st = radial_state(65)
        rep = first_variation_expanded(st, interior_bump_field())
        assert rep.terms["boundary_density"] == 0.0
        assert rep.terms["boundary_normal_flux"] == 0.0

    def test_ibp_residual_second_order_2d(self):
        g = vec_dilation(
            (0.5, 0.5), bump1d(0.5, 0.45), bump1d(0.5, 0.45),
            compact_faces=tuple(Face),
        )
        resid = {}
        for n in (65, 129):
            st = radial_state(n)
            rep = first_variation_expanded(st, g)
            assert rep.delta_direct == first_variation_direct(st, g)
            resid[n] = rep.ibp_residual
        assert 3.5 < resid[65] / resid[129] < 4.5

    def test_ibp_residual_second_order_1d(self):
        g = vec_separable(
            (1.0, 0.0), bump1d(0.62, 0.3), EVERYWHERE,
            compact_faces=(Face.LEFT, Face.RIGHT),
        )
        resid = {}
        for nx in (501, 1001):
            st = compressed_1d(nx)
            rep = first_variation_expanded(st, g)
            assert rep.delta_direct == first_variation_direct(st, g)
            resid[nx] = rep.ibp_residual
        assert 3.5 < resid[501] / resid[1001] < 4.5

    def test_projection_algebra(self):
        st = radial_state(65)
        pxx, pxy, pyy, mask = projection_tensor(st)
        # idempotent: P^2 = P entrywise combinations
        qxx = pxx * pxx + pxy * pxy
        qxy = pxx * pxy + pxy * pyy
        qyy = pxy * pxy + pyy * pyy
        for a, b in ((qxx, pxx), (qxy, pxy), (qyy, pyy)):
            assert np.max(np.abs((a - b)[mask])) < 1e-12
        assert np.max(np.abs((pxx + pyy - 1.0)[mask])) < 1e-12  # trace = dim-1


class TestMeanCurvature:
    def test_constant_state_zero(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 17, 17)
        st = PhaseState(ScalarField2D.full(g, 0.3), 0.0, 0.1, neumann_laws())
        H = mean_curvature_field(st)
        assert np.all(H.vx == 0.0) and np.all(H.vy == 0.0)

    def test_flat_interface_curvature_small(self):
        st = compressed_1d(2001, 0.05)
        # flat equilibrium-width layer
        g = st.grid
        xx, _ = g.meshgrid()
        st = PhaseState(
            ScalarField2D(g, np.tanh((xx - 0.5) / 0.05)), 0.0, 0.05, neumann_laws()
        )
        H = mean_curvature_field(st)
        x = g.x()
        layer = np.abs(x - 0.5) < 0.05
        assert np.max(np.abs(H.vx[layer, 0])) < 1e-2

    def test_radial_curvature_magnitude(self):
        st = radial_state(257, eps=0.06, r0=0.5 * 0.5)
        # R0 = 0.25 here; use the spec's R0 = 0.5 circle on a wider box
        g = Grid2D.from_extents(0.0, 2.0, 0.0, 2.0, 257, 257)
        st = init_profile(g, CircleArc((1.0, 1.0), 0.5), 0.06)
        H = mean_curvature_field(st)
        xx, yy = g.meshgrid()
        rr = np.hypot(xx - 1.0, yy - 1.0)
        band = np.abs(rr - 0.5) < 0.02
        mag = np.hypot(H.vx, H.vy)[band]
        assert np.mean(mag) == pytest.approx(2.0, rel=0.1)
        # points toward the center (shrinking circle)
        rx = (xx - 1.0) / np.maximum(rr, 1e-12)
        ry = (yy - 1.0) / np.maximum(rr, 1e-12)
        inward = -(H.vx * rx + H.vy * ry)
        assert np.mean(inward[band]) > 0

    def test_pairing_against_first_variation(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 257, 257)
        st = init_profile(g, CircleArc((0.5, 0.5), 0.25), 0.06)
        fld = vec_dilation(
            (0.5, 0.5), bump1d(0.5, 0.45), bump1d(0.5, 0.45),
            compact_faces=tuple(Face),
        )
        H = mean_curvature_field(st)
        grad = gradient(st.u)
        mu = 0.5 * st.eps * grad.norm2() + double_well(st.u.values) / st.eps
        xx, yy = g.meshgrid()
        gx, gy = fld.value(xx, yy)
        from phaselab.grid import integrate_values

        pairing = integrate_values(g, (gx * H.vx + gy * H.vy) * mu)
        dv = first_variation_direct(st, fld)
        assert dv + pairing == pytest.approx(0.0, abs=2e-4 * abs(dv))


def arc_record(sigma=1.0, eps=0.08, nx=129, ny=65, t_end=4e-3, cadence=20):
    g = Grid2D.from_extents(-1.0, 3.0, 0.0, 2.0, nx, ny)
    laws = dict(neumann_laws())
    laws[Face.BOTTOM] = Dynamic(sigma)
    st = init_profile(
        g, CircleArc((1.0, -1.0 / sigma), np.sqrt(1.0 + 1.0 / sigma**2)), eps, laws=laws
    )
    return run(st, t_end, observer_cadence=cadence)


class TestBoundaryPairings:
    @pytest.fixture(scope="class")
    def record(self):
        return arc_record()

    def test_zero_velocity_zero_functional(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 33, 33)
        st = PhaseState(ScalarField2D.full(g, 1.0), 0.0, 0.1, neumann_laws())
        rec = run(st, 6e-4, observer_cadence=1)
        t = rec.times()
        val = boundary_functional(rec, vec_constant(1.0, 0.0), t[1], t[-1])
        assert val == 0.0

    def test_orthogonal_field_zero(self, record):
        # bottom-face boundary velocity is tangential (x-directed); a
        # y-directed field pairs to exactly zero
        t = record.times()
        val = boundary_functional(
            record,
            vec_separable((0.0, 1.0), EVERYWHERE, EVERYWHERE),
            t[1],
            t[-1],
            faces=(Face.BOTTOM,),
        )
        assert val == 0.0

    def test_arc_symmetry_cancellation(self, record):
        # (1,0) pairs the two contacts with opposite velocities
        t = record.times()
        sym = boundary_functional(
            record, vec_constant(1.0, 0.0), t[1], t[-1], faces=(Face.BOTTOM,)
        )
        one_side = boundary_functional(
            record,
            vec_separable((1.0, 0.0), bump1d(0.0, 0.8), EVERYWHERE),
            t[1],
            t[-1],
            faces=(Face.BOTTOM,),
        )
        assert abs(sym) < 1e-6 * abs(one_side)

    def test_velocity_absent_rejected(self, record):
        t = record.times()
        with pytest.raises(UsageError):
            boundary_functional(record, vec_constant(1.0, 0.0), t[0], t[-1])


class TestTangentialFirstVariation:
    def make_state(self):
        g = Grid2D.from_extents(-1.0, 3.0, 0.0, 2.0, 129, 65)
        laws = dict(neumann_laws())
        laws[Face.BOTTOM] = Dynamic(1.3)
        st = init_profile(g, CircleArc((1.0, -1.0), np.sqrt(2.0)), 0.08, laws=laws)
        return step(st, stable_dt(st))

    def test_normal_directed_field_killed(self):
        st = self.make_state()
        fld = vec_separable((0.0, 1.0), EVERYWHERE, EVERYWHERE)
        assert tangential_first_variation(st, fld, faces=(Face.BOTTOM,)) == 0.0

    def test_tangential_field_unchanged_by_projection(self):
        st = self.make_state()
        mixed = vec_constant(1.0, 5.0)
        tangential_only = vec_constant(1.0, 0.0)
        a = tangential_first_variation(st, mixed, faces=(Face.BOTTOM,))
        b = tangential_first_variation(st, tangential_only, faces=(Face.BOTTOM,))
        assert a == b

    def test_cancels_scaled_boundary_pairing_on_dynamic_face(self):
        # on a dynamic face the trace obeys du/dt = -sigma dnu u, so
        # delta V^T + (1/sigma) * pairing vanishes up to the one-step skew
        # between the cached velocity and the current normal derivative:
        # an O(dt) residual that halves with dt
        from phaselab.measures import observe
        from phaselab.varifold import _pairing_instant

        sigma = 1.3
        fld = vec_separable((1.0, 0.0), bump1d(0.3, 1.0), EVERYWHERE)

        def mismatch(dt_frac):
            g = Grid2D.from_extents(-1.0, 3.0, 0.0, 2.0, 129, 65)
            laws = dict(neumann_laws())
            laws[Face.BOTTOM] = Dynamic(sigma)
            st = init_profile(
                g, CircleArc((1.0, -1.0), np.sqrt(2.0)), 0.08, laws=laws
            )
            st = step(st, stable_dt(st) * dt_frac)
            faces = observe(st).faces
            pairing = _pairing_instant(faces, st.grid, fld, (Face.BOTTOM,))
            tv = tangential_first_variation(st, fld, faces=(Face.BOTTOM,))
            return abs(tv + pairing / sigma), max(abs(tv), abs(pairing))

        m_full, scale = mismatch(1.0)
        m_half, _ = mismatch(0.5)
        assert m_full < 5e-3 * scale  # frozen regression bound
        assert 1.6 < m_full / m_half < 2.4


class TestBrakke:
    @pytest.fixture(scope="class")
    def record(self):
        return arc_record(eps=0.08, nx=129, ny=65, t_end=6e-3, cadence=10)

    def test_pure_phase_identity_trivial(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 33, 33)
        laws = dict(neumann_laws())
        laws[Face.BOTTOM] = Dynamic(1.0)
        st = PhaseState(ScalarField2D.full(g, 1.0), 0.0, 0.1, laws)
        rec = run(st, 6e-4, observer_cadence=1)
        t = rec.times()
        rep = brakke_residual(rec, scalar_constant(1.0), t[1], t[-1])
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.residual == 0.0

    def test_constant_phi_reduces_to_dissipation_window(self, record):
        t = record.times()
        rep = brakke_residual(record, scalar_constant(1.0), t[1], t[-1], mode="dynamic")
        dw = dissipation_window(record, t[1], t[-1])
        assert abs(rep.residual - dw) <= 1e-10

    def test_modes_agree_through_boundary_law(self, record):
        t = record.times()
        phi = scalar_window(
            Window1D(0.0, 2.0, 0.8, 0.8), Window1D(float("-inf"), 0.8, 0.0, 0.6)
        )
        a = brakke_residual(record, phi, t[1], t[-1], mode="dynamic")
        b = brakke_residual(record, phi, t[1], t[-1], mode="dirichlet")
        # identical up to explicit-Euler skew of the boundary quadrature
        assert a.rhs == pytest.approx(b.rhs, rel=2e-2)

    def test_neumann_only_run_drops_boundary_term(self):
        rec = arc_record(eps=0.08, t_end=2e-3, cadence=10)
        # replace laws: all-Neumann record has no dynamic faces
        g = rec.snapshots[0].state.grid
        st = init_profile(
            g, CircleArc((1.0, -1.0), np.sqrt(2.0)), 0.08, laws=neumann_laws()
        )
        rec2 = run(st, 2e-3, observer_cadence=10)
        t = rec2.times()
        phi = scalar_constant(1.0)
        rep = brakke_residual(rec2, phi, t[1], t[-1], mode="dynamic")
        assert rec2.series("diss_boundary")[-1] == 0.0
        assert abs(rep.residual - dissipation_window(rec2, t[1], t[-1])) <= 1e-12

    def test_dynamic_mode_requires_compatible_phi(self, record):
        t = record.times()
        phi = scalar_gauss(0.5, 0.5, 0.3)  # not certifiable on this box
        with pytest.raises(UsageError):
            brakke_residual(record, phi, t[1], t[-1], mode="dynamic")

    def test_nonnegativity_enforced(self, record):
        t = record.times()
        phi = scalar_constant(-1.0)
        with pytest.raises(UsageError):
            brakke_residual(record, phi, t[1], t[-1])

    def test_window_with_missing_velocities_rejected(self, record):
        t = record.times()
        with pytest.raises(UsageError):
            brakke_residual(record, scalar_constant(1.0), t[0], t[-1])

    def test_gauss_window_admissible(self, record):
        t = record.times()
        phi = gauss_window(
            1.0, 0.0, 0.6,
            Window1D(0.0, 2.0, 0.9, 0.9),
            Window1D(float("-inf"), 0.8, 0.0, 0.6),
        )
        rep = brakke_residual(record, phi, t[1], t[-1], mode="dynamic")
        assert np.isfinite(rep.residual)

import dataclasses

import numpy as np
import pytest

from phaselab.errors import UsageError
from phaselab.grid import Face, Grid2D, ScalarField2D, gradient, inward_slope
from phaselab.measures import (
    SERIES_COLUMNS,
    SIGMA0,
    _densities,
    boundary_phase_indicator,
    dissipation_residual,
    dissipation_window,
    energy,
    gradient_floor,
    normal_velocity,
    observe,
    poincare_wirtinger_ratio,
    w_transform,
    window_integral,
)
from phaselab.solver import (
    ENERGY_RISE_SLACK,
    CircleArc,
    DirichletFrozen,
    Dynamic,
    Line1D,
    NeumannZeroFlux,
    PhaseState,
    init_profile,
    neumann_laws,
    run,
    stable_dt,
    step,
)


def tanh_1d(nx=1001, eps=0.05, x1=1.0):
    g = Grid2D.from_extents(0.0, x1, 0.0, 0.0, nx, 1)
    return init_profile(g, Line1D(x1 / 2.0), eps)


def mixed_law_state(mix, nx=33, ny=17):
    """A tanh arc (2D, ``mix`` names BOTTOM, RIGHT, TOP, LEFT) or a tanh
    layer (1D, ``mix`` names LEFT, RIGHT): D/d dynamic with sigma 0.7/1.3,
    F frozen, N zero-flux."""
    kinds = {"D": Dynamic(0.7), "d": Dynamic(1.3), "F": DirichletFrozen(),
             "N": NeumannZeroFlux()}
    if len(mix) == 2:
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 0.0, nx, 1)
        laws = dict(zip((Face.LEFT, Face.RIGHT), (kinds[c] for c in mix)))
        return init_profile(g, Line1D(0.37), 0.1, laws=laws)
    g = Grid2D.from_extents(-1.0, 3.0, 0.0, 2.0, nx, ny)
    faces = (Face.BOTTOM, Face.RIGHT, Face.TOP, Face.LEFT)
    laws = dict(zip(faces, (kinds[c] for c in mix)))
    return init_profile(g, CircleArc((1.0, -1.0), np.sqrt(2.0)), 0.15, laws=laws)


LAW_MIXES = ["NN", "DN", "Dd", "FD", "DNNN", "DdFN", "FNDd", "DdDd"]


class TestEnergyAndDensities:
    @pytest.mark.parametrize("mix", LAW_MIXES)
    def test_energy_is_diagnostics_total_bit_for_bit(self, mix):
        st = mixed_law_state(mix)
        for state in (st, step(st, stable_dt(st))):
            assert energy(state) == observe(state).scalars["E"]
            assert observe(state).scalars["mu_total"] == energy(state)

    @pytest.mark.parametrize("mix", ["DN", "DdFN"])
    def test_scalars_are_the_series_columns_in_order(self, mix):
        # one name per observed quantity: a scalar added under a second
        # name, or out of order, changes the key tuple
        st = mixed_law_state(mix)
        for state in (st, step(st, stable_dt(st))):
            assert tuple(observe(state).scalars) == SERIES_COLUMNS

    def test_pure_phases_zero(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 17, 17)
        for v in (-1.0, 1.0):
            st = PhaseState(ScalarField2D.full(g, v), 0.0, 0.1, neumann_laws())
            assert energy(st) == 0.0

    def test_unstable_well_constant(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 17, 17)
        eps = 0.1
        st = PhaseState(ScalarField2D.full(g, 0.0), 0.0, eps, neumann_laws())
        assert energy(st) == pytest.approx(0.5 / eps)

    def test_tanh_energy_approaches_four_thirds(self):
        st = tanh_1d(nx=2001, eps=0.02)
        assert energy(st) == pytest.approx(4.0 / 3.0, rel=0.01)
        assert SIGMA0 == pytest.approx(4.0 / 3.0)

    def test_tanh_discrepancy_small(self):
        st = tanh_1d(nx=1001, eps=0.05)
        sc = observe(st).scalars
        assert sc["xi_abs"] <= 1e-3 * sc["E"]

    def test_constant_state_all_zero(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 17, 17)
        st = PhaseState(ScalarField2D.full(g, 1.0), 0.0, 0.1, neumann_laws())
        st = step(st, stable_dt(st))
        snap = observe(st)
        assert snap.scalars["E"] == 0.0
        assert snap.scalars["alpha_total"] == 0.0
        assert np.all(normal_velocity(st).vx == 0.0)
        for fd in snap.faces.values():
            assert np.all(fd.vb_x == 0.0)

    def test_equipartition_bound_nodewise(self):
        # |xi| <= mu holds algebraically for any field
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 33, 33)
        rng = np.random.default_rng(3)
        for _ in range(5):
            st = PhaseState(
                ScalarField2D(g, rng.uniform(-1, 1, (33, 33))),
                0.0,
                0.1,
                neumann_laws(),
            )
            dens = _densities(st)
            assert np.all(np.abs(dens.xi) <= dens.mu + 1e-15)

    def test_velocities_absent_before_first_step(self):
        st = tanh_1d(nx=101)
        assert normal_velocity(st) is None
        assert np.isnan(observe(st).scalars["diss_interior"])


class TestContactAngleTraces:
    def circle_state(self, eps=0.1, nx=129, ny=65):
        g = Grid2D.from_extents(-1.0, 3.0, 0.0, 2.0, nx, ny)
        laws = dict(neumann_laws())
        laws[Face.BOTTOM] = Dynamic(1.0)
        return init_profile(g, CircleArc((1.0, -1.0), np.sqrt(2.0)), eps, laws=laws)

    def test_pythagoras_exact_for_trace_assembly(self):
        st = self.circle_state()
        for fd in observe(st).faces.values():
            s2c2 = fd.sin_theta**2 + fd.cos_theta**2
            mag = np.hypot(fd.tangential, fd.normal)
            active = mag > gradient_floor(st.eps)
            assert np.allclose(s2c2[active], 1.0, atol=1e-10)

    def test_alpha_consistency(self):
        # alpha = sin^2 * eps*|grad u|^2 with the trace-assembled gradient
        st = self.circle_state()
        fd = observe(st).faces[Face.BOTTOM]
        mag2 = fd.tangential**2 + fd.normal**2
        active = np.sqrt(mag2) > gradient_floor(st.eps)
        lhs = fd.alpha[active]
        rhs = (fd.sin_theta**2 * st.eps * mag2)[active]
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_trace_gradient_matches_volumetric(self):
        # the face traces are the face rows of the volumetric gradient:
        # the normal one is the negated inward slope of the face lines, and
        # |grad u|^2 splits into tangential^2 + normal^2 bit for bit
        st = self.circle_state()
        faces = observe(st).faces
        g, v = st.grid, st.u.values
        vol = gradient(st.u).norm2()
        for face in g.active_faces():
            fd = faces[face]
            i0, i1, i2, h = g.inward_lines(face)
            dnu = -inward_slope(v[i0], v[i1], v[i2], h)
            assert fd.normal.tobytes() == dnu.tobytes()
            assembled = fd.tangential**2 + fd.normal**2
            assert assembled.tobytes() == g.face_slice(vol, face).tobytes()

    def test_contact_sin_theta_against_arc_value(self):
        # at t=0 the arc meets the wall at sin(theta) = 1/sqrt(2); needs a
        # layer resolved by a few nodes
        st = self.circle_state(eps=0.08, nx=257, ny=129)
        fd = observe(st).faces[Face.BOTTOM]
        x = st.grid.x()
        i = int(np.argmin(np.abs(x - 0.0)))
        assert fd.sin_theta[i] == pytest.approx(1.0 / np.sqrt(2.0), rel=0.05)

    def test_velocity_consistency_where_gradient_lives(self):
        st = self.circle_state()
        st = step(st, stable_dt(st))
        v = normal_velocity(st)
        grad = gradient(st.u)
        g2 = grad.norm2()
        mask = g2 > (10 * gradient_floor(st.eps)) ** 2
        lhs = v.vx * grad.vx + v.vy * grad.vy
        rhs = -st.dudt.values
        assert np.allclose(lhs[mask], rhs[mask], atol=1e-9 * np.max(np.abs(rhs)))


class TestDissipationResidual:
    def test_equilibrium_residual_zero(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 17, 17)
        st = PhaseState(ScalarField2D.full(g, 1.0), 0.0, 0.1, neumann_laws())
        out = step(st, stable_dt(st))
        assert dissipation_residual(st, out, stable_dt(st)) == 0.0

    @pytest.mark.parametrize("mix", LAW_MIXES)
    def test_equals_observed_residual_bit_for_bit(self, mix):
        # with several dynamic faces the boundary dissipation must be
        # summed in one order for both to agree.  The bound check is off:
        # on this coarse grid FNDd overshoots max|u| = 1 by 1.2e-12 at
        # step 3, at the corner where the zero-flux face's one-sided
        # second derivative meets the dynamic face; not what this checks.
        st = dataclasses.replace(mixed_law_state(mix), init_bounded=False)
        dt = stable_dt(st)
        for _ in range(5):
            prev, st = st, step(st, dt)
            snap = observe(st, e_before=energy(prev), dt=dt)
            assert (
                dissipation_residual(prev, st, dt)
                == snap.scalars["dissipation_residual"]
            )

    def test_relaxing_profile_residual_small_and_first_order(self):
        from phaselab.varifold import bump1d

        def state():
            g = Grid2D.from_extents(0.0, 1.0, 0.0, 0.0, 1001, 1)
            xx, _ = g.meshgrid()
            u = np.tanh((xx - 0.5) / 0.05) - 0.04 * bump1d(0.8, 0.2).value(xx)
            return PhaseState(ScalarField2D(g, u), 0.0, 0.05, neumann_laws())

        def avg(frac, n=150):
            st = state()
            dt = stable_dt(st) * frac
            tot = 0.0
            for _ in range(n):
                prev = st
                st = step(st, dt)
                r = abs(dissipation_residual(prev, st, dt))
                assert r <= 1e-2
                tot += r
            return tot / n

        a_full = avg(1.0)
        a_half = avg(0.5, n=300)
        assert 1.7 <= a_full / a_half <= 2.3


class TestWindows:
    @pytest.fixture(scope="class")
    def record(self):
        st = tanh_1d(nx=401)
        return run(st, 4e-4, observer_cadence=20)

    def test_window_outside_record_rejected(self, record):
        with pytest.raises(UsageError):
            window_integral(record, "boundary_energy", 0.0, 1.0)
        with pytest.raises(UsageError):
            window_integral(record, "xi_abs", 0.2, 0.1)

    def test_windows_finite_and_positive(self, record):
        t1, t2 = 1e-4, 3e-4
        assert window_integral(record, "xi_abs", t1, t2) > 0
        # 1D: point boundary
        assert window_integral(record, "alpha_total", t1, t2) == 0.0
        assert window_integral(record, "normal_dirichlet_energy", t1, t2) >= 0.0

    def test_pure_phase_boundary_energy_zero(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 33, 33)
        st = PhaseState(ScalarField2D.full(g, 1.0), 0.0, 0.1, neumann_laws())
        rec = run(st, 1e-4, observer_cadence=5)
        assert window_integral(rec, "boundary_energy", 0.0, 1e-4) == 0.0

    def test_dissipation_window_matches_energy_drop(self, record):
        # skip the initial snapshot: velocities are absent before a step
        t = record.times()
        dw = dissipation_window(record, t[1], t[-1])
        e = record.series("E")
        # the defect is the energy drop plus the integrated dissipation
        assert abs(dw) < 0.05 * max(e[0], 1.0)

    def test_dissipation_window_rejects_initial_snapshot(self, record):
        t = record.times()
        with pytest.raises(UsageError):
            dissipation_window(record, t[0], t[-1])

    def test_apriori_energy_bounded_by_initial(self, record):
        e = record.series("E")
        assert max(e) - e[0] <= ENERGY_RISE_SLACK * max(e[0], 1.0)


class TestWTransformAndIndicator:
    def test_pure_phase_saturates(self):
        g = Grid2D.from_extents(0.0, 2.0, 0.0, 1.0, 33, 17)
        st = PhaseState(ScalarField2D.full(g, 1.0), 0.0, 0.1, neumann_laws())
        w = w_transform(st)
        assert np.allclose(w.values, 2.0 / 3.0)
        first, second = boundary_phase_indicator(st, Face.BOTTOM)
        assert first == pytest.approx(second)
        assert second == pytest.approx((2.0 / 3.0) * 2.0)

    def test_zero_state_below_threshold(self):
        g = Grid2D.from_extents(0.0, 2.0, 0.0, 1.0, 33, 17)
        st = PhaseState(ScalarField2D.full(g, 0.0), 0.0, 0.1, neumann_laws())
        first, second = boundary_phase_indicator(st, Face.BOTTOM)
        assert first == 0.0
        assert first < second


class TestPoincareWirtinger:
    def test_constant_trace_convention(self):
        vals = np.full(11, 2.5)
        w = np.full(11, 0.1)
        assert poincare_wirtinger_ratio(vals, w) == 0.0

    def test_periodic_sine_exact_ratio(self):
        # ||sin||_1 / ||(sin)'||_1 over one period = (2/pi) / 4 = 1/(2 pi)
        n = 400
        x = np.arange(n) / n
        vals = np.sin(2.0 * np.pi * x)
        w = np.full(n, 1.0 / n)
        ratio = poincare_wirtinger_ratio(vals, w, periodic=True)
        assert ratio == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-3)

    def test_needs_three_samples(self):
        with pytest.raises(UsageError):
            poincare_wirtinger_ratio(np.array([1.0, 2.0]), np.array([0.5, 0.5]))

    def test_boundary_trace_ratio_bounded_across_eps(self):
        # no blow-up of the ratio on the bottom-face w-trace as eps shrinks
        ratios = []
        for eps in (0.08, 0.04):
            g = Grid2D.from_extents(-1.0, 3.0, 0.0, 2.0, 257, 129)
            st = init_profile(g, CircleArc((1.0, -1.0), np.sqrt(2.0)), eps)
            w = w_transform(st)
            vals = st.grid.face_slice(w.values, Face.BOTTOM)
            wts = st.grid.face_weights(Face.BOTTOM)
            ratios.append(poincare_wirtinger_ratio(vals, wts))
        assert max(ratios) < 2.0

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab.errors import (
    ConfigurationError,
    DivergenceError,
    StabilityError,
    UsageError,
)
from phaselab import solver
from phaselab.grid import FACE_PRECEDENCE, Face, Grid2D, ScalarField2D
from phaselab.solver import (
    CircleArc,
    DirichletFrozen,
    Dynamic,
    Halfspace,
    Line1D,
    NeumannZeroFlux,
    PhaseState,
    double_well,
    double_well_prime,
    init_profile,
    neumann_laws,
    run,
    stable_dt,
    step,
)


def grid_1d(nx=201, x1=1.0):
    return Grid2D.from_extents(0.0, x1, 0.0, 0.0, nx, 1)


def tanh_state(nx=201, eps=0.05, laws=None):
    return init_profile(grid_1d(nx), Line1D(0.5), eps, laws=laws)


class TestDoubleWell:
    @pytest.mark.parametrize("s", [-1.0, 1.0])
    def test_wells(self, s):
        assert double_well(s) == 0.0
        assert double_well_prime(s) == 0.0

    def test_local_max(self):
        assert double_well(0.0) == 0.5
        assert double_well_prime(0.0) == 0.0

    def test_half(self):
        assert double_well(0.5) == pytest.approx(9.0 / 32.0)
        assert double_well_prime(0.5) == pytest.approx(-0.75)


class TestInitProfile:
    def test_line_values(self):
        st = tanh_state(nx=101)
        u = st.u.values[:, 0]
        assert u[50] == pytest.approx(0.0, abs=1e-14)
        assert u[-1] == pytest.approx(np.tanh(10.0))
        assert np.max(np.abs(u)) <= 1.0

    def test_arc_zero_level_through_contacts(self):
        g = Grid2D.from_extents(-1.0, 3.0, 0.0, 2.0, 161, 81)
        st = init_profile(g, CircleArc((1.0, -1.0), np.sqrt(2.0)), 0.05)
        x = g.x()
        i0 = int(np.argmin(np.abs(x - 0.0)))
        i1 = int(np.argmin(np.abs(x - 2.0)))
        assert st.u.values[i0, 0] == pytest.approx(0.0, abs=1e-12)
        assert st.u.values[i1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_bounded_by_one(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 33, 33)
        st = init_profile(g, Halfspace((1.0, 1.0), 1.0), 0.1)
        assert st.u.max_abs() <= 1.0

    def test_eps_range_checked(self):
        with pytest.raises(ConfigurationError):
            tanh_state(eps=1.5)

    def test_descriptor_outside_grid_rejected(self):
        g = grid_1d()
        with pytest.raises(ConfigurationError):
            init_profile(g, Line1D(5.0), 0.05)


class TestStableDt:
    def test_2d_formula(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 129, 129)
        st = init_profile(g, CircleArc((0.5, 0.5), 0.25), 0.05)
        h = 1.0 / 128.0
        assert stable_dt(st) == pytest.approx(0.5 * min(h * h / 4.0, 0.05**2 / 8.0))

    def test_1d_formula(self):
        st = init_profile(grid_1d(129), Line1D(0.5), 0.05)
        h = 1.0 / 128.0
        # 0.5 * min(3.05e-5, 3.125e-4) = 1.526e-5
        assert stable_dt(st) == pytest.approx(1.52587890625e-05)

    def test_large_eps_diffusion_limited(self):
        st = init_profile(grid_1d(129), Line1D(0.5), 0.9)
        h = 1.0 / 128.0
        assert stable_dt(st) == pytest.approx(0.5 * h * h / 2.0)

    def test_halving_h_quarters_dt(self):
        a = stable_dt(init_profile(grid_1d(65), Line1D(0.5), 0.9))
        b = stable_dt(init_profile(grid_1d(129), Line1D(0.5), 0.9))
        assert a / b == pytest.approx(4.0, rel=0.05)


class TestStep:
    def test_equilibrium_plus_one_all_laws(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 17, 17)
        laws = {
            Face.BOTTOM: Dynamic(1.0),
            Face.TOP: NeumannZeroFlux(),
            Face.LEFT: DirichletFrozen(),
            Face.RIGHT: NeumannZeroFlux(),
        }
        st = PhaseState(ScalarField2D.full(g, 1.0), 0.0, 0.1, laws)
        out = step(st, stable_dt(st))
        assert np.array_equal(out.u.values, st.u.values)

    def test_unstable_well_stays_zero(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 17, 17)
        laws = dict(neumann_laws())
        laws[Face.BOTTOM] = Dynamic(1.0)
        st = PhaseState(ScalarField2D.full(g, 0.0), 0.0, 0.1, laws)
        out = step(st, stable_dt(st))
        assert np.array_equal(out.u.values, st.u.values)

    def test_dt_above_bound_rejected(self):
        st = tanh_state()
        with pytest.raises(StabilityError):
            step(st, 2.0 * stable_dt(st))

    def test_dudt_cache_consistent(self):
        st = tanh_state()
        dt = stable_dt(st)
        out = step(st, dt)
        expect = (out.u.values - st.u.values) / dt
        assert np.array_equal(out.dudt.values, expect)

    def test_negation_symmetry_bit_exact(self):
        st = tanh_state(nx=101)
        neg = PhaseState(
            ScalarField2D(st.grid, -st.u.values), 0.0, st.eps, st.laws
        )
        dt = stable_dt(st)
        a, b = st, neg
        for _ in range(25):
            a = step(a, dt)
            b = step(b, dt)
        assert np.array_equal(a.u.values, -b.u.values)

    def test_translation_consistency_interior(self):
        # shifting the initial profile by one node shifts the solution by
        # one node away from the boundaries (stencil locality); boundary
        # influence travels one node per step, so the core must match
        # bit-exactly
        nx, nsteps = 301, 40
        g = grid_1d(nx)
        x = g.x()
        eps = 0.05
        u0 = np.tanh((x - 0.5) / eps)[:, None]
        u1 = np.roll(u0, 1, axis=0)
        laws = neumann_laws()
        a = PhaseState(ScalarField2D(g, u0), 0.0, eps, laws)
        b = PhaseState(ScalarField2D(g, u1), 0.0, eps, laws)
        dt = stable_dt(a)
        for _ in range(nsteps):
            a = step(a, dt)
            b = step(b, dt)
        core = slice(nsteps + 2, nx - nsteps - 2)
        shifted = np.roll(a.u.values[:, 0], 1)
        assert np.array_equal(shifted[core], b.u.values[core, 0])

    def test_maximum_principle_enforced(self):
        g = grid_1d(51)
        st = PhaseState(ScalarField2D.full(g, 1.2), 0.0, 0.1, neumann_laws())
        with pytest.raises(DivergenceError):
            step(st, stable_dt(st))

    def test_maximum_principle_holds_over_run(self):
        st = tanh_state(nx=201)
        dt = stable_dt(st)
        for _ in range(200):
            st = step(st, dt)
            assert st.u.max_abs() <= 1.0 + 1e-12

    def test_dynamic_face_moves_trace(self):
        # a trace with nonzero inward gradient must move under the dynamic
        # law and stay frozen under Dirichlet
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 33, 33)
        laws = dict(neumann_laws())
        laws[Face.BOTTOM] = Dynamic(2.0)
        st = init_profile(g, Halfspace((0.0, 1.0), 0.5), 0.1, laws=laws)
        out = step(st, stable_dt(st))
        assert not np.array_equal(out.u.values[:, 0], st.u.values[:, 0])

        laws[Face.BOTTOM] = DirichletFrozen()
        st2 = init_profile(g, Halfspace((0.0, 1.0), 0.5), 0.1, laws=laws)
        out2 = step(st2, stable_dt(st2))
        assert np.array_equal(out2.u.values[:, 0], st2.u.values[:, 0])

    def test_dynamic_trace_follows_boundary_law(self):
        # the cached trace derivative equals -sigma * normal derivative of
        # the pre-step field, nodewise
        from phaselab.grid import face_gradient, gradient

        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 33, 33)
        sigma = 1.7
        laws = dict(neumann_laws())
        laws[Face.BOTTOM] = Dynamic(sigma)
        st = init_profile(g, CircleArc((0.5, 0.2), 0.3), 0.1, laws=laws)
        _, dnu = face_gradient(gradient(st.u), Face.BOTTOM)
        out = step(st, stable_dt(st))
        assert np.allclose(out.dudt.values[:, 0], -sigma * dnu, atol=1e-12)


class TestTanhStationarity:
    def test_dudt_floor_shrinks_with_mesh(self):
        # the initial defect of the tanh profile against the discrete
        # equilibrium scales at second order in h and decays at a mesh-
        # independent rate, so at equal physical time the residual du/dt
        # contracts ~4x under mesh halving (table frozen from a
        # refinement study)
        t_end = 4e-3
        floors = {}
        for nx in (251, 501):
            st = tanh_state(nx=nx, laws=neumann_laws())
            dt = stable_dt(st)
            while st.t < t_end:
                st = step(st, min(dt, t_end - st.t))
            floors[nx] = np.max(np.abs(st.dudt.values))
        assert 0.15 < floors[501] / floors[251] < 0.4
        assert floors[501] < 1e-4 / 0.05**2  # 1e-4 * eps^-2 ceiling

    def test_ten_thousand_steps_near_stationary(self):
        st = tanh_state(nx=1001, laws=neumann_laws())
        dt = stable_dt(st)
        for _ in range(10_000):
            st = step(st, dt)
        assert np.max(np.abs(st.dudt.values)) < 1e-4 / st.eps**2


class TestRun:
    def test_empty_run_returns_initial_snapshot(self):
        st = tanh_state()
        rec = run(st, st.t)
        assert len(rec.snapshots) == 1
        assert rec.snapshots[0].t == st.t

    def test_energy_monotone(self):
        st = tanh_state(nx=401)
        rec = run(st, 5e-4, observer_cadence=20)
        e = rec.series("E")
        assert np.all(np.diff(e) <= 1e-10 * np.maximum(e[:-1], 1.0))

    def test_observer_cadence_and_final_time(self):
        st = tanh_state()
        rec = run(st, 3.3e-5, observer_cadence=5)
        assert rec.times()[-1] == pytest.approx(3.3e-5)
        assert len(rec.snapshots) >= 3

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), 1.5])
    def test_step_and_run_refuse_dt_alike(self, scale):
        # scale 1.5 is above the bound; 0, -1 and NaN are not positive
        st = tanh_state()
        dt = scale * stable_dt(st)
        with pytest.raises((UsageError, StabilityError)) as by_step:
            step(st, dt)
        with pytest.raises((UsageError, StabilityError)) as by_run:
            run(st, 1e-3, dt=dt)
        assert type(by_run.value) is type(by_step.value)
        assert str(by_run.value) == str(by_step.value)
        want = StabilityError if scale > 0 else UsageError
        assert type(by_step.value) is want


LAWS_1D = {
    "dynamic": lambda: Dynamic(0.8),
    "dirichlet": DirichletFrozen,
    "neumann": NeumannZeroFlux,
}


def laws_1d(left, right):
    return {Face.LEFT: LAWS_1D[left](), Face.RIGHT: LAWS_1D[right]()}


def off_center_state(left, right, nx=41, sign=1.0):
    g = grid_1d(nx)
    u = sign * np.tanh((g.x() - 0.4) / 0.1)[:, None]
    return PhaseState(ScalarField2D(g, u), 0.0, 0.1, laws_1d(left, right))


def reference_step_1d(st, dt):
    """Node-by-node transcription of the documented 1D update: explicit
    Euler on the 3-point Laplacian, a mirror ghost at a zero-flux end, the
    3-point one-sided inward derivative at a dynamic end."""
    u = st.u.values[:, 0]
    h, n = st.grid.hx, st.grid.nx
    new = np.empty(n)
    for i in range(1, n - 1):
        lap = (u[i + 1] - 2.0 * u[i] + u[i - 1]) / h**2
        new[i] = u[i] + dt * (lap - double_well_prime(u[i]) / st.eps**2)
    for i, j, k, face in ((0, 1, 2, Face.LEFT), (n - 1, n - 2, n - 3, Face.RIGHT)):
        law = st.laws[face]
        if isinstance(law, DirichletFrozen):
            new[i] = u[i]
        elif isinstance(law, Dynamic):
            inward = (4.0 * (u[j] - u[i]) - (u[k] - u[i])) / (2.0 * h)
            new[i] = u[i] + dt * law.sigma * inward
        else:
            lap = 2.0 * (u[j] - u[i]) / h**2
            new[i] = u[i] + dt * (lap - double_well_prime(u[i]) / st.eps**2)
    return new


@pytest.mark.parametrize("left", sorted(LAWS_1D))
@pytest.mark.parametrize("right", sorted(LAWS_1D))
class TestFaceLaws1D:
    """The 1D kernel under every LEFT/RIGHT face-law assignment.  The last
    step is shorter than the others, and the cadence does not divide the
    step count, so the final snapshot falls off-cadence."""

    cadence = 7

    def t_end(self, st):
        return 60.5 * stable_dt(st)

    def test_run_matches_repeated_step_bit_exactly(self, left, right):
        st = off_center_state(left, right)
        t_end = self.t_end(st)
        rec = run(st, t_end, observer_cadence=self.cadence)
        dt = stable_dt(st)
        stepped = {}
        s = st
        while s.t < t_end - 1e-12 * max(1.0, t_end):
            s = step(s, min(dt, t_end - s.t))
            stepped[s.t] = s
        assert len(rec.snapshots) == 1 + 61 // self.cadence + 1
        for snap in rec.snapshots[1:]:
            ref = stepped[snap.t]
            assert snap.state.u.values.tobytes() == ref.u.values.tobytes()
            assert snap.state.dudt.values.tobytes() == ref.dudt.values.tobytes()

    def test_step_matches_reference_update(self, left, right):
        # the kernel groups the interior update as a 3-point stencil minus
        # the cubic term, so it may differ from the transcription by a few
        # rounding errors of |u| <= 1 per step
        st = off_center_state(left, right)
        dt = stable_dt(st)
        for _ in range(20):
            ref = reference_step_1d(st, dt)
            st = step(st, dt)
            assert np.max(np.abs(st.u.values[:, 0] - ref)) <= 8 * np.finfo(float).eps

    def test_negation_symmetry_bit_exact(self, left, right):
        st = off_center_state(left, right)
        neg = off_center_state(left, right, sign=-1.0)
        t_end = self.t_end(st)
        a = run(st, t_end, observer_cadence=self.cadence)
        b = run(neg, t_end, observer_cadence=self.cadence)
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert sa.t == sb.t
            assert np.array_equal(sa.state.u.values, -sb.state.u.values)
        dt = stable_dt(st)
        for _ in range(25):
            st, neg = step(st, dt), step(neg, dt)
            assert np.array_equal(st.u.values, -neg.u.values)
            assert np.array_equal(st.dudt.values, -neg.dudt.values)

    def test_snapshots_own_their_arrays(self, left, right):
        st = off_center_state(left, right)
        u0 = st.u.values.copy()
        rec = run(st, self.t_end(st), observer_cadence=self.cadence)
        assert np.array_equal(st.u.values, u0)
        kept = [st.u.values]
        for snap in rec.snapshots[1:]:
            kept += [snap.state.u.values, snap.state.dudt.values]
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                assert not np.shares_memory(a, b)


class TestDivergenceCheck1D:
    @pytest.mark.parametrize("node", [0, 1, 20, 39, 40])
    @pytest.mark.parametrize("init_bounded", [True, False])
    def test_nan_raises(self, node, init_bounded):
        u = np.tanh((grid_1d(41).x() - 0.4) / 0.1)[:, None]
        u[node, 0] = np.nan
        st = PhaseState(
            ScalarField2D(grid_1d(41), u), 0.0, 0.1,
            laws_1d("dirichlet", "neumann"), init_bounded=init_bounded,
        )
        with pytest.raises(DivergenceError, match=r"NaN/Inf detected .* at t=0"):
            step(st, stable_dt(st))
        with pytest.raises(DivergenceError, match="NaN/Inf"):
            run(st, 3 * stable_dt(st))

    def test_unbounded_state_above_one_runs(self):
        g = grid_1d(51)
        st = PhaseState(
            ScalarField2D.full(g, 1.2), 0.0, 0.1, neumann_laws(), init_bounded=False
        )
        out = step(st, stable_dt(st))
        assert 1.0 + 1e-12 < out.u.max_abs() < 1.2
        rec = run(st, 5 * stable_dt(st), observer_cadence=2)
        assert rec.series("max_abs_u")[-1] > 1.0 + 1e-12

    def test_nan_names_end_node_and_face(self):
        u = np.tanh((grid_1d(41).x() - 0.4) / 0.1)[:, None]
        u[0, 0] = np.nan
        st = PhaseState(
            ScalarField2D(grid_1d(41), u), 0.0, 0.1, laws_1d("dirichlet", "neumann")
        )
        with pytest.raises(
            DivergenceError, match=r"at t=0, node \(0, 0\) on the left face$"
        ):
            step(st, stable_dt(st))

    def test_bounded_state_above_one_names_max_and_time(self):
        g = grid_1d(51)
        st = PhaseState(ScalarField2D.full(g, 1.2), 0.25, 0.1, neumann_laws())
        with pytest.raises(
            DivergenceError,
            match=r"maximum principle violated: max\|u\| = 1\.1\d+ at t=0\.25",
        ):
            step(st, stable_dt(st))


# -- the 2D kernel --------------------------------------------------------

LAWS_2D = {
    "dynamic": lambda: Dynamic(0.7),
    "dirichlet": DirichletFrozen,
    "neumann": NeumannZeroFlux,
}
# laws listed for (BOTTOM, RIGHT, TOP, LEFT); the three rotations put each
# law on each face, the uniform mixes give every corner one law on both
# sides
MIXES_2D = [
    ("dynamic", "dirichlet", "neumann", "dynamic"),
    ("dirichlet", "neumann", "dynamic", "dirichlet"),
    ("neumann", "dynamic", "dirichlet", "neumann"),
    ("neumann",) * 4,
    ("dynamic",) * 4,
]
ALL_MIXES_2D = list(itertools.product(sorted(LAWS_2D), repeat=4))


def laws_2d(mix):
    return {f: LAWS_2D[name]() for f, name in zip(FACE_PRECEDENCE, mix)}


def grid_2d(nx, ny):
    return Grid2D.from_extents(0.0, 1.0, 0.0, 0.6, nx, ny)


def smooth_state_2d(mix, nx=9, ny=7, sign=1.0):
    g = grid_2d(nx, ny)
    u = ScalarField2D.from_function(
        g, lambda x, y: sign * np.tanh((x - 0.45 + 0.5 * (y - 0.3)) / 0.3)
    )
    return PhaseState(u, 0.0, 0.15, laws_2d(mix))


def saturated_state_2d(mix, nx=9, ny=21, sign=1.0):
    """A thin layer across the middle: tanh is exactly sign below y = 0.2
    and exactly -sign above y = 0.8, so the kernel's band leaves the
    bottom and top levels out."""
    g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, nx, ny)
    u = ScalarField2D.from_function(
        g, lambda x, y: sign * np.tanh((0.5 + 0.05 * (x - 0.5) - y) / 0.015)
    )
    return PhaseState(u, 0.0, 0.015, laws_2d(mix))


STATES_2D = {"smooth": smooth_state_2d, "saturated": saturated_state_2d}


def _ref_inward_lines(u, face):
    """Face line and the next two lines inward (None past the grid)."""
    n = u.shape[1] if face in (Face.BOTTOM, Face.TOP) else u.shape[0]
    ks = (0, 1, 2) if face in (Face.BOTTOM, Face.LEFT) else (-1, -2, -3)
    pick = (lambda k: u[:, k]) if face in (Face.BOTTOM, Face.TOP) else (lambda k: u[k, :])
    return pick(ks[0]), pick(ks[1]), (pick(ks[2]) if n > 2 else None)


def reference_advance_2d(st, u, dt):
    """The allocating 2D update, operation for operation: 5-point interior
    Laplacian minus W'(u)/eps^2, then the faces in the order LEFT, TOP,
    RIGHT, BOTTOM, the later face writing the shared corner."""
    g = st.grid
    hx2, hy2 = g.hx * g.hx, g.hy * g.hy
    inv_eps2 = 1.0 / (st.eps * st.eps)
    unew = np.empty_like(u)
    wprime = double_well_prime(u)
    core = u[1:-1, 1:-1]
    lap = ((u[2:, 1:-1] - core) - (core - u[:-2, 1:-1])) / hx2 + (
        (u[1:-1, 2:] - core) - (core - u[1:-1, :-2])
    ) / hy2
    unew[1:-1, 1:-1] = core + dt * (lap - inv_eps2 * wprime[1:-1, 1:-1])
    for face in (Face.LEFT, Face.TOP, Face.RIGHT, Face.BOTTOM):
        law = st.laws[face]
        f0, f1, f2 = _ref_inward_lines(u, face)
        along_x = face in (Face.BOTTOM, Face.TOP)
        h = g.hy if along_x else g.hx
        if isinstance(law, DirichletFrozen):
            vals = f0.copy()
        elif isinstance(law, Dynamic):
            if f2 is None:
                dnu = -((f1 - f0) / h)
            else:
                dnu = -((4.0 * (f1 - f0) - (f2 - f0)) / (2 * h))
            vals = f0 - (dt * law.sigma) * dnu
        else:
            h_n2, h_t2 = (hy2, hx2) if along_x else (hx2, hy2)
            adj = (Face.LEFT, Face.RIGHT) if along_x else (Face.BOTTOM, Face.TOP)
            n_t = len(f0)
            tang = np.zeros_like(f0)
            if n_t >= 3:
                tang[1:-1] = ((f0[2:] - f0[1:-1]) - (f0[1:-1] - f0[:-2])) / h_t2
                for end, a in ((0, adj[0]), (-1, adj[1])):
                    o = f0 if end == 0 else f0[::-1]
                    if isinstance(st.laws[a], NeumannZeroFlux):
                        tang[end] = 2.0 * (o[1] - o[0]) / h_t2
                    elif n_t >= 4:
                        tang[end] = (
                            -5.0 * (o[1] - o[0]) + 4.0 * (o[2] - o[0]) - (o[3] - o[0])
                        ) / h_t2
                    else:
                        tang[end] = ((o[2] - o[1]) - (o[1] - o[0])) / h_t2
            w_face = wprime[:, 0 if face is Face.BOTTOM else -1] if along_x else (
                wprime[0 if face is Face.LEFT else -1, :]
            )
            lap_n = 2.0 * (f1 - f0) / h_n2
            vals = f0 + dt * (lap_n + tang - inv_eps2 * w_face)
        if face is Face.BOTTOM:
            unew[:, 0] = vals
        elif face is Face.TOP:
            unew[:, -1] = vals
        elif face is Face.LEFT:
            unew[0, :] = vals
        else:
            unew[-1, :] = vals
    return unew


@pytest.mark.parametrize("nx", [2, 3, 4, 7])
@pytest.mark.parametrize("ny", [2, 3, 4, 7])
def test_2d_advance_matches_reference_bit_exactly(nx, ny):
    # every assignment of the three laws to the four faces; with nx or
    # ny at 2 the flat interior range is empty or holds face nodes only
    rng = np.random.default_rng(100 * nx + ny)
    u0 = rng.uniform(-1.0, 1.0, (nx, ny))
    for mix in ALL_MIXES_2D:
        st = PhaseState(ScalarField2D(grid_2d(nx, ny), u0), 0.0, 0.3, laws_2d(mix))
        dt = stable_dt(st)
        kernel = solver._StepKernel(st)
        u = ref = st.u.values
        # the first input is foreign, the next ones alternate buffers
        for _ in range(4):
            u = kernel.advance(u, dt)
            ref = reference_advance_2d(st, ref, dt)
            assert u.tobytes() == ref.tobytes(), mix


def saturated_levels(u, v):
    """(levels from the bottom, levels from the top) that are all v."""
    flat = np.all(u == v, axis=0)
    return int(np.argmin(flat)), int(np.argmin(flat[::-1]))


@st.composite
def saturated_cases(draw):
    """A grid, a law mix and random data whose bottom and top levels are
    exactly +-1, between none and all of them."""
    nx, ny = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    mix = tuple(draw(st.sampled_from(sorted(LAWS_2D))) for _ in range(4))
    below = draw(st.integers(0, ny))
    above = draw(st.integers(0, ny - below))
    u = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1, 1, (nx, ny))
    u[:, :below] = draw(st.sampled_from([-1.0, 1.0]))
    u[:, ny - above:] = draw(st.sampled_from([-1.0, 1.0]))
    eps = draw(st.sampled_from([0.3, 0.05]))
    return PhaseState(ScalarField2D(grid_2d(nx, ny), u), 0.0, eps, laws_2d(mix))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st_=saturated_cases(), steps=st.integers(8, 16))
def test_2d_advance_matches_reference_with_saturated_levels(st_, steps):
    # the band skips exactly saturated levels; the reference sweeps all
    dt = stable_dt(st_)
    kernel = solver._StepKernel(st_)
    u = ref = st_.u.values
    for _ in range(steps):
        u = kernel.advance(u, dt)
        ref = reference_advance_2d(st_, ref, dt)
        assert u.tobytes() == ref.tobytes()


@pytest.mark.parametrize("mix", MIXES_2D)
def test_band_grows_as_a_layer_diffuses_into_saturated_levels(mix):
    # a sharp step between +1 and -1 levels spreads into a layer of width
    # eps: the saturated levels on both sides lose their +-1 one by one
    g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 13, 41)
    x, y = g.meshgrid()
    u0 = np.where(y < 0.5 + 0.05 * np.cos(6 * x), 1.0, -1.0)
    st_ = PhaseState(ScalarField2D(g, u0), 0.0, 0.2, laws_2d(mix))
    dt = stable_dt(st_)
    kernel = solver._StepKernel(st_)
    u = ref = st_.u.values
    bands = []
    for _ in range(200):
        u = kernel.advance(u, dt)
        # finite only: the dynamic face stencil is not monotone, so a
        # saturated dynamic face can overshoot 1 (ROADMAP item 1)
        kernel.check(u, False, 0.0)
        ref = reference_advance_2d(st_, ref, dt)
        assert u.tobytes() == ref.tobytes()
        bands.append(kernel._band[:2])
        # every level outside the band is exactly the saturated value
        lo, hi = bands[-1]
        assert saturated_levels(u, 1.0)[0] >= lo
        assert saturated_levels(u, -1.0)[1] >= g.ny - hi
    (lo0, hi0), (lo, hi) = bands[0], bands[-1]
    assert 0 < lo0 and hi0 < g.ny
    assert lo < lo0 and hi > hi0


@pytest.mark.parametrize("state", sorted(STATES_2D))
@pytest.mark.parametrize("mix", MIXES_2D)
def test_poisoned_work_buffers_do_not_reach_the_output(state, mix):
    # the padded corners are read only into discarded results, and the
    # difference and check buffers are written before they are read
    st_ = STATES_2D[state](mix)
    kernel = solver._StepKernel(st_)
    for a in (*kernel._bufs, kernel._abs, kernel._dx, kernel._dy):
        a.fill(np.nan)
    dt = stable_dt(st_)
    u = ref = st_.u.values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(12):
            u = kernel.advance(u, dt)
            kernel.check(u, True, 0.0)
            ref = reference_advance_2d(st_, ref, dt)
            assert u.tobytes() == ref.tobytes()


def kernel_arrays(kernel):
    """Every numpy array a kernel holds, in its attributes and in the
    tuples and lists among them."""
    found, todo = [], list(vars(kernel).values())
    while todo:
        a = todo.pop()
        if isinstance(a, np.ndarray):
            found.append(a)
        elif isinstance(a, (tuple, list)):
            todo.extend(a)
    return found


class TestDivergenceCheck2D:
    """A NaN spreads to the four neighbours of its node in one step, and
    the check names the first NaN in its y-major scan of the result."""

    def nan_state(self, node):
        st_ = smooth_state_2d(("neumann",) * 4)
        u = st_.u.values.copy()
        u[node] = np.nan
        return PhaseState(ScalarField2D(st_.grid, u), 0.0, st_.eps, st_.laws)

    @pytest.mark.parametrize(
        "node, named",
        [
            ((4, 3), "node (4, 2) in the interior"),
            ((4, 0), "node (3, 0) on the bottom face"),
            ((8, 6), "node (8, 5) on the right face"),
            ((0, 6), "node (0, 5) on the left face"),
            ((8, 5), "node (8, 4) on the right face"),
            # first in the scan is the ghost entry left of level 2, which
            # mirrors (1, 2)
            ((1, 3), "node (1, 2) in the interior"),
        ],
    )
    def test_nan_names_node_and_face(self, node, named):
        st_ = self.nan_state(node)
        with pytest.raises(DivergenceError) as err:
            step(st_, stable_dt(st_))
        assert str(err.value) == f"NaN/Inf detected during the step at t=0, {named}"

    def test_corner_names_its_owner(self):
        g = grid_2d(9, 7)
        u = np.full((9, 7), 0.5)
        u[0, 0] = 1.5
        laws = laws_2d(("dirichlet",) * 4)
        st_ = PhaseState(ScalarField2D(g, u), 0.25, 0.15, laws)
        with pytest.raises(
            DivergenceError,
            match=r"max\|u\| = 1\.5 at t=0\.25, node \(0, 0\) on the bottom face$",
        ):
            step(st_, stable_dt(st_))


@pytest.mark.parametrize("mix", MIXES_2D)
class TestKernel2D:
    """The 2D kernel under face-law mixes; as in `TestFaceLaws1D` the last
    step is short and the final snapshot falls off-cadence."""

    cadence = 6
    make_state = staticmethod(smooth_state_2d)

    def t_end(self, st):
        return 20.5 * stable_dt(st)

    def test_run_matches_repeated_step_bit_exactly(self, mix):
        st = self.make_state(mix)
        t_end = self.t_end(st)
        rec = run(st, t_end, observer_cadence=self.cadence)
        dt = stable_dt(st)
        stepped = {}
        s = st
        while s.t < t_end - 1e-12 * max(1.0, t_end):
            s = step(s, min(dt, t_end - s.t))
            stepped[s.t] = s
        assert len(rec.snapshots) == 1 + 21 // self.cadence + 1
        for snap in rec.snapshots[1:]:
            ref = stepped[snap.t]
            assert snap.state.u.values.tobytes() == ref.u.values.tobytes()
            assert snap.state.dudt.values.tobytes() == ref.dudt.values.tobytes()

    def test_negation_symmetry_bit_exact(self, mix):
        st = self.make_state(mix)
        neg = self.make_state(mix, sign=-1.0)
        t_end = self.t_end(st)
        a = run(st, t_end, observer_cadence=self.cadence)
        b = run(neg, t_end, observer_cadence=self.cadence)
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert sa.t == sb.t
            assert np.array_equal(sa.state.u.values, -sb.state.u.values)
        dt = stable_dt(st)
        for _ in range(10):
            st, neg = step(st, dt), step(neg, dt)
            assert np.array_equal(st.u.values, -neg.u.values)
            assert np.array_equal(st.dudt.values, -neg.dudt.values)

    def spy_kernels(self, monkeypatch):
        kernels = []

        class SpyKernel(solver._StepKernel):
            def __init__(self, state):
                super().__init__(state)
                kernels.append(self)

        monkeypatch.setattr(solver, "_StepKernel", SpyKernel)
        return kernels

    def test_snapshots_share_no_memory_with_work_buffers(self, mix, monkeypatch):
        kernels = self.spy_kernels(monkeypatch)
        st = self.make_state(mix)
        u0 = st.u.values.copy()
        rec = run(st, self.t_end(st), observer_cadence=self.cadence)
        assert np.array_equal(st.u.values, u0)
        (kernel,) = kernels
        # the padded buffers (the fields handed out are views of them),
        # the check buffer and the two difference buffers
        work = [*kernel._bufs, kernel._abs, kernel._dx, kernel._dy]
        assert all(any(np.shares_memory(a, w) for w in work) for a in kernel_arrays(kernel))
        kept = [st.u.values]
        for snap in rec.snapshots[1:]:
            kept += [snap.state.u.values, snap.state.dudt.values]
        for i, a in enumerate(kept):
            for b in kept[i + 1:] + work:
                assert not np.shares_memory(a, b)

    def test_step_shares_no_memory_with_its_kernel(self, mix, monkeypatch):
        kernels = self.spy_kernels(monkeypatch)
        st = self.make_state(mix)
        out = step(st, stable_dt(st))
        (kernel,) = kernels
        for a in (out.u.values, out.dudt.values):
            assert not any(np.shares_memory(a, w) for w in kernel_arrays(kernel))

    def test_advance_allocates_no_grid_array(self, mix):
        st = self.make_state(mix, nx=64, ny=32)
        kernel = solver._StepKernel(st)
        dt = stable_dt(st)
        u = kernel.advance(kernel.advance(st.u.values, dt), dt)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                u = kernel.advance(u, dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 64 * 32 * 8


class TestKernel2DSaturated(TestKernel2D):
    """The same checks on a state whose bottom and top levels are exactly
    +-1, which the kernel's band leaves out of the sweep."""

    make_state = staticmethod(saturated_state_2d)

import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab import sharp

from phaselab.errors import (
    ContactSingularityError,
    ExtinctionError,
    ResolutionError,
    StabilityError,
    UsageError,
)
from phaselab.sharp import (
    ArcSolution,
    FrontHistory,
    PolylineFront,
    arc_exact,
    circle_radius_errors,
    compare_to_exact,
    curvature_vectors,
    evolve_front,
    make_arc_front,
    make_circle_front,
    polyline_step,
    redistribute,
)


class TestArcExact:
    def test_initial_data_sigma_one(self):
        s = arc_exact(1.0, 0.0)
        assert s.big_radius == pytest.approx(math.sqrt(2.0))
        assert s.x0 == pytest.approx(0.0)
        assert s.x1 == pytest.approx(2.0)
        assert s.vb == pytest.approx(1.0)
        assert s.sin_theta == pytest.approx(1.0 / math.sqrt(2.0))

    def test_mid_time_values(self):
        s = arc_exact(1.0, 0.375)
        assert s.r == pytest.approx(math.sqrt(2.0 - 0.75))
        assert s.x0 == pytest.approx(0.5)
        assert s.x1 == pytest.approx(1.5)
        assert s.vb == pytest.approx(2.0)

    @pytest.mark.parametrize("sigma", [0.3, 0.5, 1.0, 2.0, 7.0])
    @pytest.mark.parametrize("t", [0.0, 0.2, 0.45])
    def test_algebraic_identity(self, sigma, t):
        s = arc_exact(sigma, t)
        assert s.r**2 - 1.0 / sigma**2 == pytest.approx(1.0 - 2.0 * t, abs=1e-13)
        # sigma / tan(theta) equals the contact speed
        tan_theta = s.sin_theta / s.cos_theta
        assert sigma / tan_theta == pytest.approx(s.vb, rel=1e-12)

    def test_gap_and_speed_degenerate_toward_detachment(self):
        s = arc_exact(1.0, 0.499999)
        assert s.x1 - s.x0 < 3e-3
        assert s.vb > 700.0

    def test_detached_regime_fields_absent(self):
        s = arc_exact(1.0, 0.6)
        assert not s.contacts_exist
        assert s.vb is None and s.sin_theta is None
        assert s.r == pytest.approx(math.sqrt(2.0 - 1.2))

    def test_extinction_raises(self):
        with pytest.raises(ExtinctionError):
            arc_exact(1.0, 1.0)

    def test_bad_arguments(self):
        with pytest.raises(UsageError):
            arc_exact(-1.0, 0.1)
        with pytest.raises(UsageError):
            arc_exact(1.0, -0.1)


class TestPolylineFront:
    def test_attached_endpoints_pinned_exactly(self):
        f = make_arc_front(1.0, 50)
        assert f.nodes[0, 1] == 0.0
        assert f.nodes[-1, 1] == 0.0

    def test_closed_and_attached_exclusive(self):
        with pytest.raises(UsageError):
            PolylineFront(np.zeros((4, 2)), closed=True, attached=True)

    def test_is_simple_detects_figure_eight(self):
        eight = PolylineFront(
            np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]), closed=True
        )
        assert not eight.is_simple()
        square = PolylineFront(
            np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), closed=True
        )
        assert square.is_simple()

    def test_redistribute_preserves_endpoints_and_count(self):
        f = make_arc_front(1.0, 80, grade_count=5)
        g = redistribute(f)
        assert g.n_nodes() == f.n_nodes()
        assert np.array_equal(g.nodes[0], f.nodes[0])
        assert np.array_equal(g.nodes[-1], f.nodes[-1])

    def test_curvature_exact_on_circle_nodes(self):
        f = make_circle_front((0.0, 0.0), 0.5, 64)
        kn = curvature_vectors(f.nodes, closed=True)
        mags = np.hypot(kn[:, 0], kn[:, 1])
        assert np.allclose(mags, 2.0, rtol=1e-12)

    def test_collinear_nodes_zero_curvature(self):
        nodes = np.column_stack([np.linspace(0, 1, 7), np.zeros(7)])
        kn = curvature_vectors(nodes, closed=False)
        assert np.all(kn == 0.0)


class TestPolylineStep:
    def test_dt_bound_enforced(self):
        f = make_circle_front((0.0, 0.0), 0.5, 64)
        with pytest.raises(StabilityError):
            polyline_step(f, 1.0, 1.0)

    def test_needs_three_nodes(self):
        f = PolylineFront(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(UsageError):
            polyline_step(f, 1.0, 1e-8)

    def test_tangential_contact_raises(self):
        nodes = np.array([[0.0, 0.0], [0.5, 1e-12], [1.0, 0.0]])
        f = PolylineFront(nodes, attached=True)
        with pytest.raises(ContactSingularityError):
            polyline_step(f, 1.0, 1e-26)

    def test_segment_collapse_raises(self):
        nodes = np.array([[0.0, 0.0], [1e-13, 1e-13], [1.0, 1.0]])
        f = PolylineFront(nodes)
        with pytest.raises(ResolutionError):
            polyline_step(f, 1.0, 1e-30)

    def test_right_angle_contact_stationary(self):
        # vertical first segments: tan(theta) = inf, endpoint speed 0
        nodes = np.array(
            [[0.0, 0.0], [0.0, 0.5], [0.5, 0.9], [1.0, 0.5], [1.0, 0.0]]
        )
        f = PolylineFront(nodes, attached=True)
        out = polyline_step(f, 3.0, 1e-6, tangent_correction=False)
        assert out.nodes[0, 0] == 0.0
        assert out.nodes[-1, 0] == 1.0

    def test_one_step_consistency_with_exact_arc(self):
        f = make_arc_front(1.0, 100, grade_count=0)
        dt = 1e-6
        out = polyline_step(f, 1.0, dt)
        sol = arc_exact(1.0, dt)
        cx, cy = sol.center
        rr = np.hypot(out.nodes[:, 0] - cx, out.nodes[:, 1] - cy)
        assert np.max(np.abs(rr - sol.r)) < 5e-6
        assert abs(out.nodes[0, 0] - sol.x0) < 5e-6


class TestEvolution:
    def test_circle_shrinks_on_exact_law(self):
        front = make_circle_front((0.0, 0.0), 0.5, 200)
        hist = evolve_front(front, 1.0, 0.02, dt=1e-5, redistribute_every=0)
        times, errs = circle_radius_errors(hist, (0.0, 0.0), 0.5)
        assert errs.max() < 1e-4

    def test_area_decreases_at_two_pi(self):
        front = make_circle_front((0.0, 0.0), 0.5, 200)
        hist = evolve_front(front, 1.0, 0.02, dt=1e-5, redistribute_every=0)
        a0 = PolylineFront(hist.fronts[0], closed=True).enclosed_area()
        a1 = PolylineFront(hist.fronts[-1], closed=True).enclosed_area()
        rate = (a0 - a1) / (hist.times[-1] - hist.times[0])
        assert rate == pytest.approx(2.0 * math.pi, rel=0.02)

    def test_arc_contacts_track_closed_form(self):
        front = make_arc_front(1.0, 200, grade_count=2)
        hist = evolve_front(front, 1.0, 0.1, redistribute_every=25)
        tab = compare_to_exact(hist, 1.0)
        assert tab.radius_error.max() < 1e-3
        assert np.nanmax(tab.contact_error) < 1e-3

    def test_compare_rejects_foreign_initial_data(self):
        front = make_arc_front(1.0, 50)
        front.nodes[5] += 0.01
        hist = evolve_front(front, 1.0, 1e-4, redistribute_every=0)
        with pytest.raises(UsageError):
            compare_to_exact(hist, 1.0)

    def test_fixed_dt_respects_shrinking_bound(self):
        front = make_arc_front(1.0, 200, grade_count=6)
        with pytest.raises(StabilityError):
            evolve_front(front, 1.0, 0.05, dt=1e-5)

    def test_adaptive_dt_without_redistribution_refuses_to_stall(self):
        # the contact nodes bunch up and the adaptive step shrinks
        # geometrically; t used to creep toward t_end without end
        front = make_arc_front(0.5, 120, grade_count=0)
        t0 = time.perf_counter()
        with pytest.raises(ResolutionError, match=r"at t=0\.0\d+ \(shortest segment"):
            evolve_front(front, 0.5, 0.02, dt=None, redistribute_every=0)
        assert time.perf_counter() - t0 < 20.0


# -- bit-exact references for the buffered front step --------------------------
#
# Transcriptions of the allocating front step that the buffered kernel
# replaced: the np.where curvature formula, the numpy endpoint tangent,
# one `polyline_step` and the `evolve_front` loop.  The kernel must
# reproduce them bit for bit, errors included.


def reference_curvature_vectors(nodes, closed):
    n = nodes.shape[0]
    out = np.zeros_like(nodes)
    if closed:
        prev = np.roll(nodes, 1, axis=0)
        nxt = np.roll(nodes, -1, axis=0)
        mids = nodes
        idx = slice(None)
    else:
        prev = nodes[:-2]
        nxt = nodes[2:]
        mids = nodes[1:-1]
        idx = slice(1, n - 1)
    p = prev - mids
    q = nxt - mids
    d = 2.0 * (p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0])
    p2 = p[:, 0] ** 2 + p[:, 1] ** 2
    q2 = q[:, 0] ** 2 + q[:, 1] ** 2
    scale = np.maximum(p2, q2)
    ok = np.abs(d) > 1e-14 * scale
    dsafe = np.where(ok, d, 1.0)
    ccx = (p2 * q[:, 1] - q2 * p[:, 1]) / dsafe
    ccy = (q2 * p[:, 0] - p2 * q[:, 0]) / dsafe
    c2 = ccx * ccx + ccy * ccy
    c2 = np.where(ok & (c2 > 0), c2, 1.0)
    kx = np.where(ok, ccx / c2, 0.0)
    ky = np.where(ok, ccy / c2, 0.0)
    out[idx, 0] = kx
    out[idx, 1] = ky
    return out


def reference_endpoint_tangent(p0, p1, p2, correct):
    s0 = p1 - p0
    if not correct:
        return s0
    s1 = p2 - p1
    delta = math.atan2(
        s0[0] * s1[1] - s0[1] * s1[0], s0[0] * s1[0] + s0[1] * s1[1]
    )
    l0 = math.hypot(*s0)
    l1 = math.hypot(*s1)
    beta = delta * l0 / (l0 + l1)
    c, s = math.cos(beta), math.sin(beta)
    return np.array([s0[0] * c + s0[1] * s, -s0[0] * s + s0[1] * c])


def reference_advance(nodes, closed, attached, sigma, h, theta_tol, tangent_correction):
    kn = reference_curvature_vectors(nodes, closed)
    new = nodes + h * kn
    if attached:
        t0 = reference_endpoint_tangent(nodes[0], nodes[1], nodes[2], tangent_correction)
        t1 = reference_endpoint_tangent(nodes[-1], nodes[-2], nodes[-3], tangent_correction)
        if t0[1] <= theta_tol * math.hypot(*t0) or t1[1] <= theta_tol * math.hypot(*t1):
            raise ContactSingularityError("tangential contact (theta -> 0)")
        new[0] = (nodes[0, 0] + h * sigma * t0[0] / t0[1], 0.0)
        new[-1] = (nodes[-1, 0] + h * sigma * t1[0] / t1[1], 0.0)
    return new


def reference_polyline_step(front, sigma, dt, c_stab=0.25, theta_tol=1e-8,
                            tangent_correction=True):
    if front.n_nodes() < 3:
        raise UsageError("front needs at least 3 nodes")
    min_seg = front.min_segment()
    if min_seg <= 1e-12:
        raise ResolutionError("front segment collapsed")
    if dt > c_stab * min_seg * min_seg:
        raise StabilityError(
            f"dt={dt:.3e} exceeds front bound {c_stab * min_seg**2:.3e}"
        )
    new = reference_advance(front.nodes, front.closed, front.attached, sigma, dt,
                            theta_tol, tangent_correction)
    out = PolylineFront(new, closed=front.closed, attached=front.attached,
                        target_fractions=front.target_fractions)
    if out.min_segment() <= 1e-12:
        raise ResolutionError("front segment collapsed")
    return out


def reference_evolve_front(front, sigma, t_end, dt=None, redistribute_every=25,
                           record_every=100, check_simple_every=2000, c_stab=0.25,
                           theta_tol=1e-8, tangent_correction=True):
    hist = FrontHistory(sigma=sigma, closed=front.closed, attached=front.attached)
    t = 0.0
    hist.append(t, front)
    if front.n_nodes() < 3:
        raise UsageError("front needs at least 3 nodes")
    nodes = front.nodes.copy()
    closed = front.closed
    attached = front.attached
    fractions = front.target_fractions
    block = max(1, redistribute_every)

    def current(nodes_arr):
        return PolylineFront(nodes_arr.copy(), closed=closed, attached=attached,
                             target_fractions=fractions)

    def block_dt(nodes_arr):
        seg = np.diff(
            np.vstack([nodes_arr, nodes_arr[:1]]) if closed else nodes_arr, axis=0
        )
        min_seg = float(np.min(np.hypot(seg[:, 0], seg[:, 1])))
        if min_seg <= 1e-12:
            raise ResolutionError("front segment collapsed")
        bound = c_stab * min_seg * min_seg
        if dt is None:
            return 0.5 * bound
        if dt > bound:
            raise StabilityError(f"dt={dt:.3e} exceeds front bound {bound:.3e}")
        return dt

    k = 0
    while t < t_end - 1e-15:
        step_dt = block_dt(nodes)
        for _ in range(block):
            if t >= t_end - 1e-15:
                break
            h = min(step_dt, t_end - t)
            nodes = reference_advance(nodes, closed, attached, sigma, h, theta_tol,
                                      tangent_correction)
            t += h
            k += 1
            if (record_every and k % record_every == 0) or t >= t_end - 1e-15:
                hist.append(t, current(nodes))
        if redistribute_every and t < t_end - 1e-15:
            nodes = redistribute(current(nodes)).nodes
        if check_simple_every and (k // block) % max(1, check_simple_every // block) == 0:
            if not current(nodes).is_simple():
                raise ResolutionError("front self-intersects")
    return hist


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_history(got, want):
    assert (got.sigma, got.closed, got.attached) == (want.sigma, want.closed, want.attached)
    assert same_bits(got.times, want.times)
    assert len(got.fronts) == len(want.fronts)
    for a, b in zip(got.fronts, want.fronts):
        assert same_bits(a, b)


def evolve_outcome(monkeypatch, evolve, make_front, *args, **kwargs):
    """(history or None, error type and message or None, every (t, nodes)
    the run recorded before it ended)."""
    recorded = []
    append = FrontHistory.append

    def spy(self, t, front):
        recorded.append((t, front.nodes.copy()))
        append(self, t, front)

    with monkeypatch.context() as m:
        m.setattr(FrontHistory, "append", spy)
        try:
            return evolve(make_front(), *args, **kwargs), None, recorded
        except (ContactSingularityError, ResolutionError, StabilityError) as e:
            return None, (type(e), str(e)), recorded


def assert_same_evolution(monkeypatch, make_front, *args, **kwargs):
    got = evolve_outcome(monkeypatch, evolve_front, make_front, *args, **kwargs)
    want = evolve_outcome(monkeypatch, reference_evolve_front, make_front, *args, **kwargs)
    assert got[1] == want[1]
    assert len(got[2]) == len(want[2])
    for (ta, a), (tb, b) in zip(got[2], want[2]):
        assert same_bits(ta, tb) and same_bits(a, b)
    if want[0] is not None:
        assert_same_history(got[0], want[0])
    return got


def flat_topped_front():
    """Attached front with nine collinear nodes along its top."""
    top = np.column_stack([np.linspace(0.4, 1.6, 9), np.full(9, 0.7)])
    return PolylineFront(
        np.vstack([[[0.0, 0.0], [0.1, 0.4]], top, [[1.9, 0.4], [2.0, 0.0]]]),
        attached=True,
    )


def square_front():
    """Closed square with five nodes per side, collinear along each side."""
    s = np.linspace(0.0, 1.0, 5)[:-1]
    one, zero = np.ones(4), np.zeros(4)
    sides = [(s, zero), (one, s), (1.0 - s, one), (zero, 1.0 - s)]
    return PolylineFront(np.vstack([np.column_stack(xy) for xy in sides]), closed=True)


class TestBufferedKernelBitExact:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("grade_count", [0, 2, 6])
    @pytest.mark.parametrize("dt", [None, 2e-5])
    @pytest.mark.parametrize("redistribute_every", [0, 25])
    def test_attached_arcs(self, monkeypatch, sigma, grade_count, dt, redistribute_every):
        assert_same_evolution(
            monkeypatch,
            lambda: make_arc_front(sigma, 60, grade_count=grade_count),
            sigma, 0.004, dt=dt, redistribute_every=redistribute_every, record_every=7,
        )

    def test_fixed_dt_stability_error_on_graded_arc(self, monkeypatch):
        _, err, _ = assert_same_evolution(
            monkeypatch, lambda: make_arc_front(1.0, 60, grade_count=6),
            1.0, 0.004, dt=2e-5, redistribute_every=0, record_every=1,
        )
        assert err[0] is StabilityError

    @pytest.mark.parametrize("dt, redistribute_every", [(1e-5, 0), (None, 25)])
    def test_closed_circle(self, monkeypatch, dt, redistribute_every):
        assert_same_evolution(
            monkeypatch, lambda: make_circle_front((0.1, -0.2), 0.5, 150),
            1.0, 0.005, dt=dt, redistribute_every=redistribute_every, record_every=50,
        )

    def test_collinear_triples_take_the_masked_path(self, monkeypatch):
        assert reference_curvature_vectors(flat_topped_front().nodes, False)[5, 0] == 0.0
        assert_same_evolution(
            monkeypatch, flat_topped_front, 1.0, 0.002, dt=1e-4,
            redistribute_every=0, record_every=1,
        )
        assert_same_evolution(
            monkeypatch, square_front, 1.0, 0.002, dt=1e-4,
            redistribute_every=0, record_every=1,
        )

    def test_zero_circumradius_takes_the_masked_path(self):
        # every product underflows: d is nonzero but cc = 0, so c2 = 0
        nodes = np.array([[1e-160, 0.0], [0.0, 0.0], [0.0, 1e-160], [1e-160, 1e-160]])
        for closed in (False, True):
            want = reference_curvature_vectors(nodes, closed)
            assert not np.isnan(want).any()
            assert same_bits(curvature_vectors(nodes, closed), want)
            kernel = sharp._FrontKernel(nodes, closed)
            kernel.step(0.5)
            assert same_bits(kernel.nodes, nodes + 0.5 * want)

    def test_contact_singularity_at_the_same_step(self, monkeypatch):
        # a negative sigma drives the contacts toward tangency
        make = lambda: make_arc_front(1.0, 12, grade_count=0)  # noqa: E731
        _, err, recorded = assert_same_evolution(
            monkeypatch, make, -1.0, 1.0, dt=0.008, redistribute_every=0,
            record_every=1,
        )
        assert err[0] is ContactSingularityError
        assert len(recorded) > 10

    def test_self_intersection_at_the_same_step(self, monkeypatch):
        eight = lambda: PolylineFront(  # noqa: E731
            np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]), closed=True
        )
        _, err, recorded = assert_same_evolution(
            monkeypatch, eight, 1.0, 0.1, dt=1e-3, redistribute_every=0,
            record_every=1, check_simple_every=1,
        )
        assert err == (ResolutionError, "front self-intersects")
        assert len(recorded) == 2

    def test_collapsed_segment(self, monkeypatch):
        pinch = lambda: PolylineFront(  # noqa: E731
            np.array([[0.0, 0.0], [1e-13, 1e-13], [1.0, 1.0], [2.0, 0.0]])
        )
        _, err, _ = assert_same_evolution(monkeypatch, pinch, 1.0, 0.1)
        assert err == (ResolutionError, "front segment collapsed")

    @pytest.mark.parametrize(
        "make, sigma, error",
        [
            (lambda: make_arc_front(1.0, 12, grade_count=0), -1.0, ContactSingularityError),
            (lambda: make_arc_front(1.0, 8, grade_count=0), 1.0, StabilityError),
            (flat_topped_front, 1.0, StabilityError),
        ],
    )
    def test_polyline_step_chain(self, make, sigma, error):
        got = want = make()
        dt = 0.2 * got.min_segment() ** 2
        for k in range(200):
            try:
                want = reference_polyline_step(want, sigma, dt)
            except error as e:
                with pytest.raises(error, match=re.escape(str(e))):
                    polyline_step(got, sigma, dt)
                break
            got = polyline_step(got, sigma, dt)
            assert same_bits(got.nodes, want.nodes)
            assert got.target_fractions is want.target_fractions
        else:
            pytest.fail("the reference never raised")
        assert k >= 2

    def test_kernel_step_allocates_less_than_a_front(self):
        front = make_arc_front(1.0, 200, grade_count=2)
        kernel = sharp._FrontKernel(front.nodes, False, 1.0, True)
        for _ in range(3):
            kernel.step(1e-7)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(100):
                kernel.step(1e-7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < front.nodes.nbytes


@st.composite
def perturbed_fronts(draw):
    """Arcs and circles of 5 to 40 nodes, their nodes jittered by up to a
    fifth of the shortest segment; some nodes are then moved to the
    midpoint of their neighbours, making near-collinear triples."""
    n = draw(st.integers(5, 40))
    if draw(st.booleans()):
        center = (draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
        front = make_circle_front(center, draw(st.floats(0.2, 2.0)), n)
    else:
        front = make_arc_front(draw(st.floats(0.3, 5.0)), n, draw(st.integers(0, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amp = draw(st.floats(0.0, 0.2)) * front.min_segment()
    nodes = front.nodes + amp * rng.uniform(-1.0, 1.0, front.nodes.shape)
    m = nodes.shape[0]
    for i in draw(st.lists(st.integers(1, m - 2), max_size=3)):
        nodes[i] = 0.5 * (nodes[i - 1] + nodes[i + 1])
    return PolylineFront(nodes, closed=front.closed, attached=front.attached,
                         target_fractions=front.target_fractions)


class TestBufferedKernelProperties:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(front=perturbed_fronts(), sigma=st.floats(0.25, 4.0),
           frac=st.floats(0.01, 0.25))
    def test_polyline_step_is_one_kernel_step(self, front, sigma, frac):
        dt = frac * front.min_segment() ** 2
        kernel = sharp._FrontKernel(front.nodes, front.closed, sigma, front.attached)
        try:
            want = reference_polyline_step(front, sigma, dt)
        except (ContactSingularityError, ResolutionError) as e:
            with pytest.raises(type(e)):
                polyline_step(front, sigma, dt)
            with pytest.raises(type(e)):
                kernel.step(dt)
            return
        got = polyline_step(front, sigma, dt)
        kernel.step(dt)
        assert same_bits(got.nodes, want.nodes)
        assert same_bits(kernel.nodes, want.nodes)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(front=perturbed_fronts(), shift=st.floats(-1.0, 1.0))
    def test_curvature_same_bits_with_or_without_work(self, front, shift):
        want = reference_curvature_vectors(front.nodes, front.closed)
        # work buffers that last held other nodes
        work = sharp._FrontKernel(front.nodes[::-1] + shift, front.closed)
        curvature_vectors(work.nodes, front.closed, work)
        assert same_bits(curvature_vectors(front.nodes, front.closed), want)
        assert same_bits(curvature_vectors(front.nodes, front.closed, work), want)
        assert same_bits(curvature_vectors(work.nodes, front.closed, work), want)

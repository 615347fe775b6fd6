"""Sharp-interface references: the closed-form shrinking arc and a
polyline curvature-flow oracle with the sigma/tan(theta) contact law.

The arc: on the upper half plane, the circle of radius R = sqrt(1 +
1/sigma^2) centered at (1, -1/sigma) meets y = 0 at x = 0 and x = 2.
Under curvature flow the radius is r(t) = sqrt(R^2 - 2t), the contact
points sit at 1 -+ sqrt(1 - 2t), and both move with speed

    v_b(t) = 1 / sqrt(1 - 2t),

independent of sigma, matching sigma/tan(theta) with sin(theta) =
sqrt(1-2t)/sqrt(1-2t+1/sigma^2).  Contacts detach at t = 1/2; the circle
vanishes at t = R^2/2.

The oracle moves interior polyline nodes by the curvature vector from
the circumscribed circle of consecutive node triples, and slides
boundary-attached endpoints along y = 0 with signed speed
sigma * T_x / T_y, T the unit tangent into the curve (equal to
sigma/tan(theta) toward the contact's leaning side).  A straight
vertical segment hitting y = 0 is stationary under both laws.

Both `polyline_step` and `evolve_front` advance a front with one step
function, `_FrontKernel.step`, on buffers preallocated once per front:
one `curvature_vectors` call into work arrays, the node update in place,
and the endpoint tangents on Python floats.  Every node gets the IEEE
operations of the masked formula at the end of `curvature_vectors`, in
that formula's order, so fronts are bit-identical to it; a step in which
some triple is collinear or degenerate runs the masked formula itself.

The tolerances are fixed constants, not settings: the step bound
0 < dt <= C_STAB * (shortest segment)^2 and the collapse length
COLLAPSE_TOL, both checked by `_front_bound`; THETA_TOL, below which T_y
of the unit contact tangent is tangential; and GRADE_RATIO of
`make_arc_front`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContactSingularityError,
    ExtinctionError,
    ResolutionError,
    StabilityError,
    UsageError,
)

DEFAULT_ORACLE_T_MAX = 0.45  # stay clear of the contact singularity at 1/2

# an adaptive oracle step below this fraction of the first block's step
# means the nodes bunch up faster than anything spreads them
_ADAPTIVE_DT_FLOOR = 1e-4

# the oracle's fixed tolerances (see the module docstring)
C_STAB = 0.25
COLLAPSE_TOL = 1e-12
THETA_TOL = 1e-8
GRADE_RATIO = 0.8

# a triple is collinear when |d| <= _FLAT_TOL * max(|p|^2, |q|^2); a 0-d
# array, so the buffered product skips a scalar conversion per call
_FLAT_TOL = np.array(1e-14)


@dataclass(frozen=True)
class ArcSolution:
    """Closed-form shrinking-arc snapshot for one (sigma, t)."""

    sigma: float
    t: float
    big_radius: float
    center: tuple[float, float]
    r: float
    x0: float | None
    x1: float | None
    vb: float | None
    sin_theta: float | None
    cos_theta: float | None

    @property
    def contacts_exist(self) -> bool:
        return self.x0 is not None


def arc_exact(sigma: float, t: float) -> ArcSolution:
    """Evaluate the closed-form arc; contact fields are absent for
    t >= 1/2 (detached regime), extinction raises."""
    if sigma <= 0:
        raise UsageError("sigma must be positive")
    if t < 0:
        raise UsageError("t must be nonnegative")
    inv2 = 1.0 / (sigma * sigma)
    r2 = 1.0 + inv2
    big_r = math.sqrt(r2)
    if 2.0 * t >= r2:
        raise ExtinctionError(f"arc extinct at t = {0.5 * r2:.6g}")
    r = math.sqrt(r2 - 2.0 * t)
    center = (1.0, -1.0 / sigma)
    if t < 0.5:
        s = math.sqrt(1.0 - 2.0 * t)  # equals sqrt(r^2 - 1/sigma^2)
        denom = math.sqrt(1.0 - 2.0 * t + inv2)
        return ArcSolution(
            sigma=sigma,
            t=t,
            big_radius=big_r,
            center=center,
            r=r,
            x0=1.0 - s,
            x1=1.0 + s,
            vb=1.0 / s,
            sin_theta=s / denom,
            cos_theta=(1.0 / sigma) / denom,
        )
    return ArcSolution(
        sigma=sigma,
        t=t,
        big_radius=big_r,
        center=center,
        r=r,
        x0=None,
        x1=None,
        vb=None,
        sin_theta=None,
        cos_theta=None,
    )


# -- polyline fronts -----------------------------------------------------------


@dataclass
class PolylineFront:
    """Ordered 2D nodes; ``attached`` pins the endpoints to y = 0."""

    nodes: np.ndarray
    closed: bool = False
    attached: bool = False
    target_fractions: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=float)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise UsageError("nodes must be an (N, 2) array")
        if self.closed and self.attached:
            raise UsageError("a closed front cannot be boundary-attached")
        if self.attached:
            self.nodes[0, 1] = 0.0
            self.nodes[-1, 1] = 0.0

    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def segment_lengths(self) -> np.ndarray:
        pts = self.nodes
        if self.closed:
            d = np.roll(pts, -1, axis=0) - pts
        else:
            d = pts[1:] - pts[:-1]
        return np.hypot(d[:, 0], d[:, 1])

    def min_segment(self) -> float:
        return float(np.min(self.segment_lengths()))

    def arclength(self) -> float:
        return float(np.sum(self.segment_lengths()))

    def enclosed_area(self) -> float:
        if not self.closed:
            raise UsageError("area defined for closed fronts only")
        x, y = self.nodes[:, 0], self.nodes[:, 1]
        return 0.5 * abs(
            float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        )

    def is_simple(self) -> bool:
        """All-pairs segment sweep for self-intersection (diagnostic);
        vectorized, adjacent segments excluded."""
        pts = self.nodes
        if self.closed:
            a, b = pts, np.roll(pts, -1, axis=0)
        else:
            a, b = pts[:-1], pts[1:]
        m = a.shape[0]

        def orient(p, q, r):
            return (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]) - (
                q[..., 1] - p[..., 1]
            ) * (r[..., 0] - p[..., 0])

        pa, pb = a[:, None, :], b[:, None, :]
        qa, qb = a[None, :, :], b[None, :, :]
        d1 = orient(qa, qb, pa)
        d2 = orient(qa, qb, pb)
        d3 = orient(pa, pb, qa)
        d4 = orient(pa, pb, qb)
        crossing = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
        idx = np.arange(m)
        gap = np.abs(idx[:, None] - idx[None, :])
        adjacent = gap <= 1
        if self.closed:
            adjacent |= gap == m - 1
        return not bool(np.any(crossing & ~adjacent))


def _graded_fractions(n: int, grade_count: int, ratio: float) -> np.ndarray:
    """Cumulative parameter fractions with geometric grading at both ends."""
    n_seg = n - 1
    grade_count = min(grade_count, n_seg // 2)
    mid = n_seg - 2 * grade_count
    inc = np.concatenate(
        [
            ratio ** np.arange(grade_count, 0, -1),
            np.ones(mid),
            ratio ** np.arange(1, grade_count + 1),
        ]
    )
    f = np.concatenate([[0.0], np.cumsum(inc)])
    return f / f[-1]


def make_arc_front(sigma: float, n_nodes: int = 200, grade_count: int = 14) -> PolylineFront:
    """Initial attached front on the exact t = 0 arc, node spacing graded
    geometrically (ratio `GRADE_RATIO`) toward both contacts to control
    the boundary-layer error as the contact speed grows."""
    sol = arc_exact(sigma, 0.0)
    cx, cy = sol.center
    phi0 = math.atan2(0.0 - cy, sol.x0 - cx)  # left contact
    phi1 = math.atan2(0.0 - cy, sol.x1 - cx)  # right contact
    fr = _graded_fractions(n_nodes, grade_count, GRADE_RATIO)
    phis = phi0 + (phi1 - phi0) * fr
    nodes = np.column_stack(
        [cx + sol.big_radius * np.cos(phis), cy + sol.big_radius * np.sin(phis)]
    )
    nodes[0] = (sol.x0, 0.0)
    nodes[-1] = (sol.x1, 0.0)
    return PolylineFront(nodes, attached=True, target_fractions=fr)


def make_circle_front(
    center: tuple[float, float], radius: float, n_nodes: int = 200
) -> PolylineFront:
    phis = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    nodes = np.column_stack(
        [center[0] + radius * np.cos(phis), center[1] + radius * np.sin(phis)]
    )
    return PolylineFront(
        nodes, closed=True, target_fractions=np.arange(n_nodes + 1) / n_nodes
    )


def _endpoint_tangent(x0, y0, x1, y1, x2, y2) -> tuple[float, float]:
    """Tangent direction into the curve at endpoint (x0, y0), with
    (x1, y1) and (x2, y2) the next two nodes inward.

    The raw first-segment chord equals the true tangent rotated by half
    the local arc angle; measuring the turning between the first two
    chords and rotating back (arclength-weighted) removes that bias to
    second order.
    """
    s0x = x1 - x0
    s0y = y1 - y0
    s1x = x2 - x1
    s1y = y2 - y1
    delta = math.atan2(s0x * s1y - s0y * s1x, s0x * s1x + s0y * s1y)
    l0 = math.hypot(s0x, s0y)
    l1 = math.hypot(s1x, s1y)
    beta = delta * l0 / (l0 + l1)
    c, s = math.cos(beta), math.sin(beta)
    return s0x * c + s0y * s, -s0x * s + s0y * c


class _FrontKernel:
    """Preallocated state of one front for repeated explicit steps.

    The coordinates live in the two contiguous rows ``x`` and ``y`` of
    one (2, N) block.  A closed front carries one ghost node at each end
    (N = n + 2), equal to the node it wraps to after every `load` and
    `step`.  ``nodes`` is the (n, 2) view of the real nodes, and ``k``
    the (n, 2) view of the curvature buffer, zero at the endpoints of an
    open front.  The previous, middle and next nodes of the m interior
    triples are contiguous slices of ``x`` and ``y``, and the work arrays
    that `curvature_vectors` fills are rows of a few blocks, so paired
    rows go through one ufunc call.  All views are made here; a step
    allocates nothing.
    """

    def __init__(self, nodes, closed: bool, sigma: float = 1.0, attached: bool = False):
        n = nodes.shape[0]
        self.closed = closed
        self.attached = attached
        self.sigma = sigma
        g = 1 if closed else 0
        m = n if closed else n - 2  # interior triples
        self.n, self.ghost = n, g
        self.xy = np.empty((2, n + 2 * g))
        self.x, self.y = self.xy
        self.real = self.xy[:, g : g + n]
        self.nodes = self.real.T
        self.kxy = np.zeros((2, n))
        self.k = self.kxy.T
        k_int = self.kxy if closed else self.kxy[:, 1:-1]
        self.hk = np.empty((2, n))
        x, y = self.x, self.y
        pq = np.empty((4, m))  # p = prev - mid, q = next - mid
        sq = np.empty((4, m))
        p2q2 = np.empty((2, m))
        cc = np.empty((2, m))
        cc_sq = np.empty((2, m))
        a, b, d, abs_d, scale, c2 = np.empty((6, m))
        # the views `curvature_vectors` reads, in its order
        self.bufs = (
            (x[0:m], x[1 : m + 1], x[2 : m + 2]),
            (y[0:m], y[1 : m + 1], y[2 : m + 2]),
            pq, tuple(pq), sq, sq[0:2], sq[2:4], p2q2, tuple(p2q2),
            a, b, d, abs_d, scale, np.empty(m, dtype=bool),
            cc, tuple(cc), cc_sq, tuple(cc_sq), c2, tuple(k_int),
        )
        self.load(nodes)

    def load(self, nodes) -> None:
        self.real[...] = np.asarray(nodes, dtype=float).T
        self._wrap()

    def _wrap(self) -> None:
        if self.closed:
            xy, n = self.xy, self.n
            xy[:, 0] = xy[:, n]
            xy[:, n + 1] = xy[:, 1]

    def min_segment(self) -> float:
        g, n_seg = self.ghost, self.n - 1 + self.ghost
        seg = self.xy[:, g + 1 : g + 1 + n_seg] - self.xy[:, g : g + n_seg]
        return float(np.min(np.hypot(seg[0], seg[1])))

    def front(self, target_fractions=None) -> "PolylineFront":
        return PolylineFront(
            self.nodes.copy(),
            closed=self.closed,
            attached=self.attached,
            target_fractions=target_fractions,
        )

    def step(self, h: float) -> None:
        """Advance the nodes by ``h``: interior nodes by the curvature
        vector, attached endpoints along y = 0 by sigma * T_x / T_y.
        Raises `ContactSingularityError` before moving anything."""
        curvature_vectors(self.nodes, self.closed, self)
        if self.attached:
            (x0, x1, x2), (y0, y1, y2) = self.xy[:, :3].tolist()
            (e2, e1, e0), (f2, f1, f0) = self.xy[:, -3:].tolist()
            t0x, t0y = _endpoint_tangent(x0, y0, x1, y1, x2, y2)
            t1x, t1y = _endpoint_tangent(e0, f0, e1, f1, e2, f2)
            if (t0y <= THETA_TOL * math.hypot(t0x, t0y)
                    or t1y <= THETA_TOL * math.hypot(t1x, t1y)):
                raise ContactSingularityError("tangential contact (theta -> 0)")
        np.multiply(self.kxy, h, out=self.hk)
        np.add(self.real, self.hk, out=self.real)
        if self.attached:
            hs = h * self.sigma
            x, y = self.x, self.y
            x[0] = x0 + hs * t0x / t0y
            y[0] = 0.0
            x[-1] = e0 + hs * t1x / t1y
            y[-1] = 0.0
        self._wrap()


def curvature_vectors(nodes: np.ndarray, closed: bool, work: _FrontKernel | None = None) -> np.ndarray:
    """Curvature vector at each node from the circumscribed circle of the
    adjacent node triple; endpoints of open fronts get zero.  Collinear
    triples contribute zero (flat front).

    ``work`` is a `_FrontKernel` of the same node count and closedness.
    The nodes are copied into it unless they are its own ``nodes``, and
    the result is its ``k`` buffer, overwritten by its next call; nothing
    is allocated unless a triple is collinear or degenerate.  Without
    ``work`` the result is a fresh array, bit-identical to the buffered
    one.
    """
    if work is None:
        nodes = np.asarray(nodes, dtype=float)
        if nodes.shape[0] < (1 if closed else 3):
            return np.zeros_like(nodes)
        return curvature_vectors(nodes, closed, _FrontKernel(nodes, closed)).copy()
    if nodes is not work.nodes:
        work.load(nodes)
    (
        (x_prev, x_mid, x_next),
        (y_prev, y_mid, y_next),
        pq, (px, qx, py, qy), sq, sq_x, sq_y, p2q2, (p2, q2),
        a, b, d, abs_d, scale, ok,
        cc, (ccx, ccy), cc_sq, (ccx_sq, ccy_sq), c2, (kx, ky),
    ) = work.bufs
    # every node gets the operations of the masked formula at the end,
    # in its order; the masks are dropped when every triple passes them
    np.subtract(x_prev, x_mid, out=px)
    np.subtract(x_next, x_mid, out=qx)
    np.subtract(y_prev, y_mid, out=py)
    np.subtract(y_next, y_mid, out=qy)
    np.multiply(px, qy, out=a)
    np.multiply(py, qx, out=b)
    np.subtract(a, b, out=d)
    np.add(d, d, out=d)  # 2.0 * d, exactly
    np.multiply(pq, pq, out=sq)
    np.add(sq_x, sq_y, out=p2q2)
    np.maximum(p2, q2, out=scale)
    np.multiply(scale, _FLAT_TOL, out=scale)
    np.abs(d, out=abs_d)
    np.greater(abs_d, scale, out=ok)
    if np.logical_and.reduce(ok):
        np.multiply(p2, qy, out=a)
        np.multiply(q2, py, out=b)
        np.subtract(a, b, out=ccx)
        np.divide(ccx, d, out=ccx)
        np.multiply(q2, px, out=a)
        np.multiply(p2, qx, out=b)
        np.subtract(a, b, out=ccy)
        np.divide(ccy, d, out=ccy)
        np.multiply(cc, cc, out=cc_sq)
        np.add(ccx_sq, ccy_sq, out=c2)
        if np.minimum.reduce(c2) > 0:
            np.divide(ccx, c2, out=kx)
            np.divide(ccy, c2, out=ky)
            return work.k
    dsafe = np.where(ok, d, 1.0)
    ccx = (p2 * qy - q2 * py) / dsafe
    ccy = (q2 * px - p2 * qx) / dsafe
    c2 = ccx * ccx + ccy * ccy
    c2 = np.where(ok & (c2 > 0), c2, 1.0)
    kx[...] = np.where(ok, ccx / c2, 0.0)
    ky[...] = np.where(ok, ccy / c2, 0.0)
    return work.k


def _front_bound(min_seg: float, dt: float | None = None) -> float:
    """The parabolic step bound ``C_STAB * min_seg^2`` of a front whose
    shortest segment is ``min_seg``.  Raises `UsageError` when ``dt`` is
    not positive (NaN included), `ResolutionError` when the segment has
    collapsed and `StabilityError` when ``dt`` exceeds the bound."""
    if dt is not None and not dt > 0:
        raise UsageError("dt must be positive")
    if min_seg <= COLLAPSE_TOL:
        raise ResolutionError("front segment collapsed")
    bound = C_STAB * min_seg * min_seg
    if dt is not None and dt > bound:
        raise StabilityError(f"dt={dt:.3e} exceeds front bound {bound:.3e}")
    return bound


def polyline_step(front: PolylineFront, sigma: float, dt: float) -> PolylineFront:
    """One explicit front step: interior nodes move by the curvature
    vector, attached endpoints slide along y = 0 with speed
    sigma * T_x / T_y, T the tangent into the curve at the contact
    (sigma/tan(theta) toward the contact's leaning side, theta the angle
    between the curve and the in-boundary normal of its endpoint set).

    Raises on tangential contact (T_y -> 0), on a dt that is not
    positive or above the C_STAB * (min segment)^2 parabolic bound, and on
    segment collapse.
    """
    if front.n_nodes() < 3:
        raise UsageError("front needs at least 3 nodes")
    _front_bound(front.min_segment(), dt)
    kernel = _FrontKernel(front.nodes, front.closed, sigma, front.attached)
    kernel.step(dt)
    out = kernel.front(front.target_fractions)
    _front_bound(out.min_segment())
    return out


def redistribute(front: PolylineFront) -> PolylineFront:
    """Resample nodes along the current polyline at the stored arclength
    fractions (uniform when absent), preserving the endpoints."""
    pts = front.nodes
    if front.closed:
        pts = np.vstack([pts, pts[:1]])
    seg = np.hypot(*(np.diff(pts, axis=0).T))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    if front.target_fractions is None:
        fr = np.linspace(0.0, 1.0, pts.shape[0])
    else:
        fr = front.target_fractions
    snew = fr * s[-1]
    x = np.interp(snew, s, pts[:, 0])
    y = np.interp(snew, s, pts[:, 1])
    nodes = np.column_stack([x, y])
    if front.closed:
        nodes = nodes[:-1]
    else:
        nodes[0] = front.nodes[0]
        nodes[-1] = front.nodes[-1]
    return PolylineFront(
        nodes,
        closed=front.closed,
        attached=front.attached,
        target_fractions=front.target_fractions,
    )


@dataclass
class FrontHistory:
    sigma: float
    times: list[float] = field(default_factory=list)
    fronts: list[np.ndarray] = field(default_factory=list)
    closed: bool = False
    attached: bool = False

    def append(self, t: float, front: PolylineFront) -> None:
        self.times.append(t)
        self.fronts.append(front.nodes.copy())


def evolve_front(
    front: PolylineFront,
    sigma: float,
    t_end: float,
    dt: float | None = None,
    redistribute_every: int = 25,
    record_every: int = 100,
    check_simple_every: int = 2000,
) -> FrontHistory:
    """Drive the front to ``t_end``, redistributing and recording on the
    given cadences.  ``dt=None`` adapts the step to the parabolic bound,
    re-evaluated at every redistribution as segments shrink, and raises
    `ResolutionError` once it falls below 1e-4 of the first block's step
    (without redistribution the nodes near a contact can bunch up until
    t stalls).  Each step is the buffered kernel of `polyline_step`, and
    the stability and collapse checks are the ones `polyline_step` runs,
    at the redistribution cadence rather than per step."""
    hist = FrontHistory(sigma=sigma, closed=front.closed, attached=front.attached)
    t = 0.0
    hist.append(t, front)
    if front.n_nodes() < 3:
        raise UsageError("front needs at least 3 nodes")

    kernel = _FrontKernel(front.nodes, front.closed, sigma, front.attached)
    fractions = front.target_fractions
    block = max(1, redistribute_every)
    first_dt = None

    def block_dt() -> float:
        nonlocal first_dt
        min_seg = kernel.min_segment()
        bound = _front_bound(min_seg, dt)
        if dt is not None:
            return dt
        # margin for segment shrinkage within the block
        adaptive = 0.5 * bound
        first_dt = first_dt or adaptive
        if adaptive < _ADAPTIVE_DT_FLOOR * first_dt:
            raise ResolutionError(
                f"adaptive front step fell below {_ADAPTIVE_DT_FLOOR:g} of its "
                f"first value at t={t:.6g} (shortest segment {min_seg:.3e})")
        return adaptive

    k = 0
    while t < t_end - 1e-15:
        step_dt = block_dt()
        for _ in range(block):
            if t >= t_end - 1e-15:
                break
            h = min(step_dt, t_end - t)
            kernel.step(h)
            t += h
            k += 1
            if (record_every and k % record_every == 0) or t >= t_end - 1e-15:
                hist.append(t, kernel.front(fractions))
        if redistribute_every and t < t_end - 1e-15:
            kernel.load(redistribute(kernel.front(fractions)).nodes)
        if check_simple_every and (k // block) % max(1, check_simple_every // block) == 0:
            if not kernel.front(fractions).is_simple():
                raise ResolutionError("front self-intersects")
    return hist


@dataclass
class ErrorTable:
    """Per-snapshot errors of a tracked arc front against closed forms."""

    times: np.ndarray
    radius_error: np.ndarray
    contact_error: np.ndarray
    velocity_times: np.ndarray
    velocity_measured: np.ndarray
    velocity_exact: np.ndarray

    @property
    def velocity_rel_error(self) -> np.ndarray:
        return np.abs(self.velocity_measured - self.velocity_exact) / self.velocity_exact


def compare_to_exact(history: FrontHistory, sigma: float) -> ErrorTable:
    """Sup distance of nodes to the exact circle, contact-point error,
    and contact velocity (central differences) against 1/sqrt(1-2t).

    Requires the history to start on the exact sigma-arc.
    """
    if not history.attached:
        raise UsageError("compare_to_exact expects an attached arc history")
    sol0 = arc_exact(sigma, 0.0)
    cx, cy = sol0.center
    first = history.fronts[0]
    r0 = np.hypot(first[:, 0] - cx, first[:, 1] - cy)
    if np.max(np.abs(r0 - sol0.big_radius)) > 1e-8:
        raise UsageError("history does not start from the exact arc initial data")

    times = np.asarray(history.times)
    radius_err = np.empty_like(times)
    contact_err = np.empty_like(times)
    xl = np.empty_like(times)
    xr = np.empty_like(times)
    for k, (t, pts) in enumerate(zip(times, history.fronts)):
        sol = arc_exact(sigma, float(t))
        rr = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
        radius_err[k] = float(np.max(np.abs(rr - sol.r)))
        xl[k] = pts[0, 0]
        xr[k] = pts[-1, 0]
        if sol.contacts_exist:
            contact_err[k] = max(abs(xl[k] - sol.x0), abs(xr[k] - sol.x1))
        else:
            contact_err[k] = float("nan")

    vt = times[1:-1]
    dts = times[2:] - times[:-2]
    v_left = (xl[2:] - xl[:-2]) / dts
    v_right = -(xr[2:] - xr[:-2]) / dts
    v_meas = 0.5 * (v_left + v_right)
    v_exact = np.array([arc_exact(sigma, float(t)).vb for t in vt])
    return ErrorTable(
        times=times,
        radius_error=radius_err,
        contact_error=contact_err,
        velocity_times=vt,
        velocity_measured=v_meas,
        velocity_exact=v_exact,
    )


def circle_radius_errors(
    history: FrontHistory, center: tuple[float, float], r0: float
) -> tuple[np.ndarray, np.ndarray]:
    """(times, sup radius errors) of a closed front against
    sqrt(r0^2 - 2t)."""
    times = np.asarray(history.times)
    errs = np.empty_like(times)
    for k, (t, pts) in enumerate(zip(times, history.fronts)):
        target = math.sqrt(max(r0 * r0 - 2.0 * float(t), 0.0))
        rr = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
        errs[k] = float(np.max(np.abs(rr - target)))
    return times, errs

"""Explicit time integration of the Allen-Cahn system.

Interior nodes evolve by explicit Euler on

    du/dt = lap(u) - W'(u)/eps^2,      W(s) = (1 - s^2)^2 / 2,

while each boundary face carries one of three laws: a dynamic law
``du/dt = -sigma * du/dnu`` (outward normal derivative by the 3-point
one-sided stencil), a frozen trace (formal ``sigma -> 0`` limit), or
zero-flux reflection (formal ``sigma = infinity``).  The scheme commutes
with ``u -> -u`` bit-exactly and keeps ``max|u| <= 1 + 1e-12`` whenever
the initial data lies in ``[-1, 1]``; a violation or a NaN aborts the
run as numerical divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigurationError, DivergenceError, StabilityError, UsageError
from .grid import Face, Grid2D, ScalarField2D, inward_slope, one_sided_second

MAX_PRINCIPLE_SLACK = 1e-12
ENERGY_RISE_SLACK = 1e-10


def double_well(s):
    """W(s) = (1 - s^2)^2 / 2, minima at s = +-1."""
    q = 1.0 - s * s
    return 0.5 * q * q


def double_well_prime(s):
    """W'(s) = -2 s (1 - s^2)."""
    return -2.0 * s * (1.0 - s * s)


# -- boundary laws ------------------------------------------------------------


@dataclass(frozen=True)
class Dynamic:
    """Boundary trace driven by the outward normal derivative."""

    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ConfigurationError(f"dynamic law needs sigma > 0, got {self.sigma}")


@dataclass(frozen=True)
class DirichletFrozen:
    """Trace pinned at its initial values."""


@dataclass(frozen=True)
class NeumannZeroFlux:
    """Zero-flux: mirror ghost values, then the interior update."""


BoundaryLaw = Union[Dynamic, DirichletFrozen, NeumannZeroFlux]


# -- initial interfaces -------------------------------------------------------


@dataclass(frozen=True)
class Line1D:
    """Vertical interface at x = x_star; the +1 phase sits at x > x_star."""

    x_star: float


@dataclass(frozen=True)
class CircleArc:
    """Circular interface; sign=+1 puts the +1 phase inside the disk."""

    center: tuple[float, float]
    radius: float
    sign: float = 1.0

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ConfigurationError("circle radius must be positive")


@dataclass(frozen=True)
class Halfspace:
    """The +1 phase occupies {x . n < offset}."""

    normal: tuple[float, float]
    offset: float


InterfaceDescriptor = Union[Line1D, CircleArc, Halfspace]


def signed_distance(desc: InterfaceDescriptor, grid: Grid2D) -> np.ndarray:
    """Signed distance to the described interface, positive on the +1 side."""
    xx, yy = grid.meshgrid()
    if isinstance(desc, Line1D):
        return xx - desc.x_star
    if isinstance(desc, CircleArc):
        cx, cy = desc.center
        rr = np.hypot(xx - cx, yy - cy)
        return desc.sign * (desc.radius - rr)
    if isinstance(desc, Halfspace):
        nx_, ny_ = desc.normal
        nn = math.hypot(nx_, ny_)
        if nn == 0:
            raise ConfigurationError("halfspace normal must be nonzero")
        return (desc.offset - (xx * nx_ + yy * ny_)) / nn
    raise ConfigurationError(f"unknown interface descriptor {desc!r}")


# -- solver state -------------------------------------------------------------


@dataclass
class PhaseState:
    """Full solver state: order parameter, time, layer width, per-face laws
    and the time derivative cached from the last accepted step."""

    u: ScalarField2D
    t: float
    eps: float
    laws: dict[Face, BoundaryLaw]
    dudt: ScalarField2D | None = None
    init_bounded: bool = True

    def __post_init__(self) -> None:
        if not (0.0 < self.eps < 1.0):
            raise ConfigurationError(f"eps must lie in (0, 1), got {self.eps}")
        missing = [f for f in self.u.grid.active_faces() if f not in self.laws]
        if missing:
            raise ConfigurationError(
                f"missing boundary law for face(s) {[f.value for f in missing]}"
            )

    @property
    def grid(self) -> Grid2D:
        return self.u.grid

    def dynamic_faces(self) -> list[tuple[Face, float]]:
        return [
            (f, law.sigma)
            for f in self.grid.active_faces()
            if isinstance((law := self.laws[f]), Dynamic)
        ]


def neumann_laws() -> dict[Face, BoundaryLaw]:
    return {f: NeumannZeroFlux() for f in Face}


def init_profile(
    grid: Grid2D,
    desc: InterfaceDescriptor,
    eps: float,
    laws: dict[Face, BoundaryLaw] | None = None,
) -> PhaseState:
    """tanh(d/eps) initial data for the signed distance d of the descriptor.

    sup|u0| <= 1 holds by construction.  A descriptor whose interface does
    not cross the grid is rejected.
    """
    if not (0.0 < eps < 1.0):
        raise ConfigurationError(f"eps must lie in (0, 1), got {eps}")
    d = signed_distance(desc, grid)
    if not (d.min() < 0.0 < d.max()):
        raise ConfigurationError(
            "interface descriptor does not cross the grid extents"
        )
    u0 = np.tanh(d / eps)
    return PhaseState(
        u=ScalarField2D(grid, u0),
        t=0.0,
        eps=eps,
        laws=dict(laws) if laws is not None else neumann_laws(),
        dudt=None,
        init_bounded=True,
    )


def stable_dt(state: PhaseState, safety: float = 0.5) -> float:
    """Explicit stability bound: diffusion CFL ``h^2/(2*dim)`` (unit
    diffusivity) against reaction stiffness ``eps^2/8`` (|W''| <= 4 on
    [-1, 1]), scaled by the safety factor."""
    g = state.grid
    h = g.hx if g.is_1d else min(g.hx, g.hy)
    dim = 1 if g.is_1d else 2
    return safety * min(h * h / (2.0 * dim), state.eps**2 / 8.0)


# -- the explicit step --------------------------------------------------------


class _StepKernel:
    """Precompiled single-step arithmetic for one (grid, eps, laws)
    combination.  `step` builds one per call; `run` reuses one across the
    whole march, so both paths produce bit-identical updates.

    Updates land in two preallocated work buffers: `advance` writes into
    the one its input is not, so a result stays valid until the call
    after next.  A caller that keeps a result longer copies it.

    The 2D interior allocates nothing per step.  It runs as ``out=``
    ufuncs on contiguous 1D slices of the flattened C-order arrays: node
    (i, j) sits at flat index k = i*ny + j, its x-neighbours at k +- ny
    and its y-neighbours at k +- 1.  The flat range [ny + 1, nx*ny - ny - 1)
    spans the core rows i = 1 .. nx-2, but it also takes in the j = 0 and
    j = ny-1 nodes of those rows, whose y-neighbours wrap into the next or
    previous row.  Those wrapped values are never kept: all four faces are
    active in 2D, and the BOTTOM and TOP face laws, written after the
    interior, overwrite every j = 0 and j = ny-1 node.  Each node keeps
    the operations of the per-node formula in its order,

        lap  = ((E - c) - (c - W))/hx^2 + ((N - c) - (c - S))/hy^2
        W'   = (-2 c)(1 - c c)
        unew = c + dt (lap - W'/eps^2)

    with ``E - c`` and ``c - W`` (likewise ``N - c`` and ``c - S``) read
    from one array of neighbour differences, and W' evaluated only where
    it is read: on the core here, and on the zero-flux face lines.
    """

    def __init__(self, state: PhaseState):
        g = state.grid
        self.grid = g
        self.eps = state.eps
        self.inv_eps2 = 1.0 / (state.eps * state.eps)
        self.laws = state.laws
        self.is_1d = g.is_1d
        self.hx2 = g.hx * g.hx
        self.hy2 = g.hy * g.hy
        # faces in reverse ownership precedence: the owner writes corners
        # last (bottom owns both bottom corners, then right, top, left)
        self.face_plan = [
            (f, self.laws[f])
            for f in (Face.LEFT, Face.TOP, Face.RIGHT, Face.BOTTOM)
            if f in g.active_faces()
        ]
        self._bufs = (np.empty((g.nx, g.ny)), np.empty((g.nx, g.ny)))
        self._abs = np.empty((g.nx, g.ny))
        if self.is_1d:
            # per input buffer: (input column, its interior, output column,
            # its interior, output array); a foreign input writes to buffer 0
            c0, c1 = (b[:, 0] for b in self._bufs)
            self._views = {
                id(self._bufs[0]): (c0, c0[1:-1], c1, c1[1:-1], self._bufs[1]),
                id(self._bufs[1]): (c1, c1[1:-1], c0, c0[1:-1], self._bufs[0]),
            }
            self._cube = np.empty(g.nx - 2) if g.nx > 2 else None
            self._ends = [self._end_plan(f) for f, _ in self.face_plan]
            self._dt = None
        else:
            # flat interior range and its x / y neighbour-difference buffers
            self._lo, self._hi = g.ny + 1, g.nx * g.ny - g.ny - 1
            m = max(self._hi - self._lo, 0)
            self._dx, self._dy = np.empty(m + g.ny), np.empty(m + 1)
            self._faces = [self._face_plan_2d(f, law) for f, law in self.face_plan]

    def _end_plan(self, face: Face):
        """(node, first inward, second inward or None, law kind, sigma) of
        a 1D end node; the indices are nonnegative, for `ndarray.item`."""
        n = self.grid.nx
        i, j, k = (0, 1, 2) if face is Face.LEFT else (n - 1, n - 2, n - 3)
        law = self.laws[face]
        sigma = law.sigma if isinstance(law, Dynamic) else None
        return i, j, (k if n > 2 else None), type(law), sigma

    def _face_plan_2d(self, face: Face, law: BoundaryLaw):
        """(law kind, face line, inward lines, normal spacing, sigma or the
        zero-flux plan) of a 2D face, resolved once."""
        g = self.grid
        i0, i1, i2, h = g.inward_lines(face)
        extra = law.sigma if isinstance(law, Dynamic) else None
        if isinstance(law, NeumannZeroFlux):
            # tangential spacing, whether the face at each end of the line
            # mirrors across the shared corner, and line work buffers
            along_x = face in (Face.BOTTOM, Face.TOP)
            h_t2, n = (self.hx2, g.nx) if along_x else (self.hy2, g.ny)
            ends = (Face.LEFT, Face.RIGHT) if along_x else (Face.BOTTOM, Face.TOP)
            mirrored = tuple(isinstance(self.laws[f], NeumannZeroFlux) for f in ends)
            extra = (h * h, h_t2, mirrored, np.empty((3, n)), np.zeros(n))
        return type(law), i0, i1, i2, h, extra

    def _target(self, u: np.ndarray) -> np.ndarray:
        """The work buffer that `u` is not."""
        return self._bufs[1] if u is self._bufs[0] else self._bufs[0]

    # -- face pieces -----------------------------------------------------

    def _neumann_face(self, fv, inner, plan, dt: float, out) -> None:
        """Zero-flux face: mirrored normal second difference plus the
        tangential second derivative along the face, into ``out``."""
        h_n2, h_t2, mirrored, (lap, w, q), tang = plan
        n = tang.size
        np.subtract(inner, fv, out=lap)
        np.multiply(lap, 2.0, out=lap)
        np.divide(lap, h_n2, out=lap)
        if n >= 3:
            # tang stays zero on lines of two nodes; q holds the differences
            diff = q[:-1]
            np.subtract(fv[1:], fv[:-1], out=diff)
            np.subtract(diff[1:], diff[:-1], out=tang[1:-1])
            np.divide(tang[1:-1], h_t2, out=tang[1:-1])
            for end, inward, mirror in ((0, 1, mirrored[0]), (-1, -1, mirrored[1])):
                # the line read from this end inward, as Python floats
                o0, o1, o2 = (fv.item(end + k * inward) for k in range(3))
                if mirror:
                    # the adjacent face mirrors across the corner
                    tang[end] = 2.0 * (o1 - o0) / h_t2
                elif n >= 4:
                    o3 = fv.item(end + 3 * inward)
                    tang[end] = one_sided_second(o0, o1, o2, o3, h_t2)
                else:
                    tang[end] = ((o2 - o1) - (o1 - o0)) / h_t2
        # fv + dt*((lap + tang) - W'(fv)/eps^2), W' = (-2 fv)(1 - fv fv)
        np.multiply(fv, fv, out=q)
        np.subtract(1.0, q, out=q)
        np.multiply(fv, -2.0, out=w)
        np.multiply(w, q, out=w)
        np.multiply(w, self.inv_eps2, out=w)
        np.add(lap, tang, out=lap)
        np.subtract(lap, w, out=lap)
        np.multiply(lap, dt, out=lap)
        np.add(fv, lap, out=out)

    # -- full update -------------------------------------------------------

    def _set_dt_1d(self, dt: float) -> None:
        # interior: u + dt*(lap u - W'(u)/eps^2) regrouped as the 3-point
        # stencil (k, 1 - 2k + c, k) minus c*u^3, k = dt/h^2, c = 2 dt/eps^2
        k = dt / self.hx2
        c = 2.0 * dt * self.inv_eps2
        self._dt = dt
        self._c_react = c
        # a 0-d array multiplies an array faster than a Python float does
        self._c_react_0d = np.array(c)
        self._stencil = np.array([k, (1.0 - 2.0 * k) + c, k])

    def _advance_1d(self, u: np.ndarray, dt: float) -> np.ndarray:
        if dt != self._dt:
            self._set_dt_1d(dt)
        views = self._views.get(id(u))
        if views is None:
            col = u[:, 0]
            views = (col, col[1:-1]) + self._views[id(self._bufs[1])][2:]
        col, inner, out, out_inner, unew = views
        cube = self._cube
        if cube is not None:
            np.multiply(inner, inner, out=cube)
            np.multiply(cube, inner, out=cube)
            np.multiply(cube, self._c_react_0d, out=cube)
            lin = np.correlate(col, self._stencil, "valid")
            np.subtract(lin, cube, out=out_inner)
        # end nodes in Python floats: the same IEEE operations as the
        # per-node formulas, without numpy-scalar overhead
        for i, j, k, kind, sigma in self._ends:
            c0 = col.item(i)
            if kind is NeumannZeroFlux:
                # mirrored ghost: reaction plus 2 (u1 - u0)/h^2
                poly = (c0 - c0 * c0 * c0) * self._c_react + c0
                out[i] = poly + dt * (2.0 * (col.item(j) - c0) / self.hx2)
            elif kind is Dynamic:
                hx = self.grid.hx
                c1 = col.item(j)
                if k is None:
                    inward = (c1 - c0) / hx
                else:
                    inward = (4.0 * (c1 - c0) - (col.item(k) - c0)) / (2 * hx)
                out[i] = c0 + dt * sigma * inward
            else:
                out[i] = c0
        return unew

    def _advance_2d(self, u: np.ndarray, dt: float) -> np.ndarray:
        unew = self._target(u)
        lo, hi = self._lo, self._hi
        if hi > lo:
            ny, m = self.grid.ny, hi - lo
            uf = u.reshape(-1)
            c = uf[lo:hi]
            acc = unew.reshape(-1)[lo:hi]
            dx, dy = self._dx, self._dy
            # dx[s] = E - c at flat node lo - ny + s: (E - c) is dx[ny:],
            # (c - W) is dx[:m]; dy likewise with the y-neighbours
            np.subtract(uf[lo:hi + ny], uf[lo - ny:hi], out=dx)
            np.subtract(dx[ny:], dx[:m], out=acc)
            np.divide(acc, self.hx2, out=acc)
            np.subtract(uf[lo:hi + 1], uf[lo - 1:hi], out=dy)
            tmp, wprime = dx[:m], dy[:m]
            np.subtract(dy[1:], wprime, out=tmp)
            np.divide(tmp, self.hy2, out=tmp)
            np.add(acc, tmp, out=acc)
            np.multiply(c, c, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            np.multiply(c, -2.0, out=wprime)
            np.multiply(wprime, tmp, out=wprime)
            np.multiply(wprime, self.inv_eps2, out=wprime)
            np.subtract(acc, wprime, out=acc)
            np.multiply(acc, dt, out=acc)
            np.add(c, acc, out=acc)

        for kind, i0, i1, i2, h, extra in self._faces:
            out = unew[i0]
            if kind is DirichletFrozen:
                np.copyto(out, u[i0])
            elif kind is Dynamic:
                inward = inward_slope(
                    u[i0], u[i1], None if i2 is None else u[i2], h
                )
                np.subtract(u[i0], (dt * extra) * -inward, out=out)
            else:
                self._neumann_face(u[i0], u[i1], extra, dt, out)
        return unew

    def advance(self, u: np.ndarray, dt: float) -> np.ndarray:
        if self.is_1d:
            return self._advance_1d(u, dt)
        return self._advance_2d(u, dt)

    def check(self, unew: np.ndarray, init_bounded: bool, t: float) -> None:
        """One reduction of |unew|: argmax lands on the first NaN if there
        is one, so a NaN or Inf anywhere makes the maximum non-finite."""
        a = np.abs(unew, out=self._abs)
        m = a.item(a.argmax())
        if not math.isfinite(m):
            raise DivergenceError(f"NaN/Inf detected during the step at t={t:.6g}")
        if init_bounded and m > 1.0 + MAX_PRINCIPLE_SLACK:
            raise DivergenceError(
                f"maximum principle violated: max|u| = {m:.15g} at t={t:.6g}"
            )


def step(state: PhaseState, dt: float) -> PhaseState:
    """One explicit Euler step.  Pure Jacobi-style update: the new state
    is a function of the previous one only.

    Raises `StabilityError` when dt exceeds the stable bound and
    `DivergenceError` on NaN or a maximum-principle violation.
    """
    if dt <= 0:
        raise UsageError("dt must be positive")
    bound = stable_dt(state)
    if dt > bound * (1.0 + 1e-12):
        raise StabilityError(f"dt={dt:.3e} exceeds the stable bound {bound:.3e}")
    kernel = _StepKernel(state)
    u = state.u.values
    unew = kernel.advance(u, dt)
    kernel.check(unew, state.init_bounded, state.t)
    dudt = (unew - u) / dt
    return PhaseState(
        u=ScalarField2D(state.grid, unew),
        t=state.t + dt,
        eps=state.eps,
        laws=state.laws,
        dudt=ScalarField2D(state.grid, dudt),
        init_bounded=state.init_bounded,
    )


def run(
    state: PhaseState,
    t_end: float,
    observer_cadence: int = 100,
    dt: float | None = None,
    safety: float = 0.5,
):
    """March to ``t_end`` with dt = stable_dt (or an explicit override),
    recording diagnostics every ``observer_cadence`` steps.

    The discrete energy must be nonincreasing between snapshots up to
    ``1e-10 * max(E, 1)``; any rise beyond that aborts as divergence.
    Returns a `RunRecord`.
    """
    from . import measures
    from .record import RunRecord

    if t_end < state.t:
        raise UsageError("t_end must not precede the state time")
    if observer_cadence < 1:
        raise UsageError("observer cadence must be >= 1")

    record = RunRecord.start(state)
    if t_end == state.t:
        return record

    base_dt = stable_dt(state, safety) if dt is None else dt
    if base_dt <= 0:
        raise UsageError("dt must be positive")
    bound = stable_dt(state)
    if base_dt > bound * (1.0 + 1e-12):
        raise StabilityError(
            f"dt={base_dt:.3e} exceeds the stable bound {bound:.3e}"
        )

    kernel = _StepKernel(state)
    grid, eps, laws = kernel.grid, kernel.eps, kernel.laws
    init_bounded = state.init_bounded
    u = state.u.values
    t = state.t
    prev_energy = record.snapshots[0].scalars["E"]
    k = 0
    t_stop = t_end - 1e-12 * max(1.0, abs(t_end))
    while t < t_stop:
        step_dt = min(base_dt, t_end - t)
        k += 1
        observing = k % observer_cadence == 0 or t + step_dt >= t_stop
        if observing:
            e_before = measures.energy(
                PhaseState(ScalarField2D(grid, u), t, eps, laws)
            )
        unew = kernel.advance(u, step_dt)
        kernel.check(unew, init_bounded, t)
        t += step_dt
        if observing:
            # the work buffers are reused; the snapshot keeps a copy
            after = PhaseState(
                u=ScalarField2D(grid, unew.copy()),
                t=t,
                eps=eps,
                laws=laws,
                dudt=ScalarField2D(grid, (unew - u) / step_dt),
                init_bounded=init_bounded,
            )
            snap = measures.observe(after, e_before=e_before, dt=step_dt)
            rise = snap.scalars["E"] - prev_energy
            if rise > ENERGY_RISE_SLACK * max(prev_energy, 1.0):
                raise DivergenceError(
                    f"energy increased by {rise:.3e} at t={t:.6g}"
                )
            prev_energy = snap.scalars["E"]
            record.append(snap)
        u = unew
    return record

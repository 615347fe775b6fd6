"""Explicit time integration of the Allen-Cahn system.

Interior nodes evolve by explicit Euler on

    du/dt = lap(u) - W'(u)/eps^2,      W(s) = (1 - s^2)^2 / 2,

while each boundary face carries one of three laws: a dynamic law
``du/dt = -sigma * du/dnu`` (outward normal derivative by the 3-point
one-sided stencil), a frozen trace (formal ``sigma -> 0`` limit), or
zero-flux reflection (formal ``sigma = infinity``).  The scheme commutes
with ``u -> -u`` bit-exactly and keeps ``max|u| <= 1 + 1e-12`` whenever
the initial data lies in ``[-1, 1]``; a violation or a NaN aborts the
run as numerical divergence, naming the node and its face.

The 2D step runs on ghost-padded work buffers stored y-major, whose
ghost lines mirror the first inward line after every step, so the
interior sweep also serves the zero-flux faces.  It updates only a band
of y-levels: away from the diffuse layer the tanh profile is +-1 to the
last bit, and the update maps an exact +-1 level with +-1 neighbours to
itself, so skipping such levels changes no bit of any output.
`_StepKernel` states the layout and the exactness argument in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigurationError, DivergenceError, StabilityError, UsageError
from .grid import (
    FACE_PRECEDENCE,
    Face,
    Grid2D,
    ScalarField2D,
    inward_slope,
    one_sided_second,
)

MAX_PRINCIPLE_SLACK = 1e-12
ENERGY_RISE_SLACK = 1e-10
# levels a face stencil reads across from its own: the dynamic law's
# 3-point slope reads two, the 4-point corner formula three
_FACE_REACH = 3


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
    after next.  A caller that keeps a result longer copies it; a result
    passed back to `advance` must be unchanged.

    **2D layout.**  Each 2D work buffer is stored y-major with one ghost
    line on every side, shape (ny + 2, nx + 2): node (i, j) sits at
    [j + 1, i + 1], and `advance` hands out the transposed interior view
    as the (nx, ny) field.  After every step the four ghost lines are
    refreshed as mirrors of the first inward line (ghost column 0 holds
    i = 1, ghost row 0 holds j = 1, and so on).  On the flattened buffer
    node (i, j) has its x-neighbours at k +- 1 and its y-neighbours at
    k +- (nx + 2), so one contiguous range of ``out=`` ufuncs updates
    whole y-levels, face nodes included.  The range also takes in the
    ghost columns between levels; their results are never kept, since the
    refresh overwrites them.  Each node keeps the operations of the
    per-node formula in their order,

        lap  = ((E - c) - (c - W))/hx^2 + ((N - c) - (c - S))/hy^2
        W'   = (-2 c)(1 - c c)
        unew = c + dt (lap - W'/eps^2)

    with ``E - c`` and ``c - W`` (likewise ``N - c`` and ``c - S``) read
    from one array of neighbour differences.  At a zero-flux face the
    mirrored ghost makes ``c - S`` the exact negation of ``N - c``, so
    ``(N - c) - (c - S)`` is exactly the face formula's ``2 (N - c)`` and
    the face needs no code of its own.  Two cases keep a formula of their
    own, recomputed in Python floats: a corner owned by a
    zero-flux face whose neighbour face does not mirror (the tangential
    term is the 4-point one-sided second derivative, or the 3-point one
    on a line of 3 nodes), and a zero-flux line of fewer than 3 nodes (no
    tangential term).  Dynamic and frozen faces are then written as
    lines in reverse ownership precedence (left, top, right, bottom), so
    the owner writes a shared corner last.

    **The band.**  The kernel keeps a range [lo, hi) of y-levels: every
    level below it is exactly v_lo and every level from hi up exactly
    v_hi, with v_lo and v_hi in {-1, +1}.  The sweep and the bound check
    cover only the band.  This is exact: for c = v with equal neighbours
    every IEEE operation above returns c (the differences are +0,
    W' = -+0, (+0) - (-+0) = +0, c + 0 = c); the dynamic law gives
    u0 - (dt sigma)(-0) = u0, the frozen law copies, and the corner
    formulas give 0.  So a skipped level holds what a full sweep would
    write, and every output is the one a full sweep gives, bit for bit.
    One scan finds the band when the kernel meets an input that is not
    one of its buffers.  Before each later step the band takes in one
    more level at each edge whose edge level is no longer all v, which
    keeps the edge levels themselves at v: information crosses one level
    per step.  The face stencils reach up to `_FACE_REACH` levels across
    (the dynamic law's 3-point slope, the 4-point corner formula), so an
    edge of the band is either the edge of the grid or at least that far
    from it.  The band only grows.
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
        if self.is_1d:
            self._bufs = (np.empty((g.nx, 1)), np.empty((g.nx, 1)))
            self._abs = np.empty((g.nx, 1))
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
            w = g.nx + 2
            # the padded corners are read only into discarded ghost-column
            # results; zeros keep that arithmetic free of overflow warnings
            self._bufs = (np.zeros((g.ny + 2, w)), np.zeros((g.ny + 2, w)))
            self._fields = tuple(b[1:-1, 1:-1].T for b in self._bufs)
            self._ghosts = tuple(
                [
                    (b[1:-1, 0], b[1:-1, 2]),
                    (b[1:-1, -1], b[1:-1, -3]),
                    (b[0, 1:-1], b[2, 1:-1]),
                    (b[-1, 1:-1], b[-3, 1:-1]),
                ]
                for b in self._bufs
            )
            # the flat range of the whole grid, and its work arrays
            m = (g.ny - 1) * w + g.nx
            self._abs, self._dx, self._dy = np.empty(m), np.empty(m + 1), np.empty(m + w)
            self._faces = [self._face_plan_2d(f, law) for f, law in self.face_plan]
            self._band = None
            self._out = None

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
        zero-flux corner plans) of a 2D face, resolved once."""
        g = self.grid
        i0, i1, i2, h = g.inward_lines(face)
        extra = law.sigma if isinstance(law, Dynamic) else None
        if isinstance(law, NeumannZeroFlux):
            extra = self._corner_plans(face, h * h)
        return type(law), i0, i1, i2, h, extra

    def _corner_plans(self, face: Face, h_n2: float):
        """The corners of a zero-flux face that the flat sweep gets wrong:
        those it owns where the line has fewer than 3 nodes or the
        neighbour face does not mirror.  Each plan is (node, first node
        inward across the face, the next nodes inward along the face,
        tangential spacing squared); no nodes along means no tangential
        term."""
        g = self.grid
        along_x = face.axis == 0
        n, h_t2 = (g.nx, self.hx2) if along_x else (g.ny, self.hy2)
        if along_x:
            j, j_in = (0, 1) if face is Face.BOTTOM else (g.ny - 1, g.ny - 2)
            node, inward = (lambda k: (k, j)), (lambda k: (k, j_in))
        else:
            i, i_in = (0, 1) if face is Face.LEFT else (g.nx - 1, g.nx - 2)
            node, inward = (lambda k: (i, k)), (lambda k: (i_in, k))
        ends = (Face.LEFT, Face.RIGHT) if along_x else (Face.BOTTOM, Face.TOP)
        plans = []
        for end, step_in, other in ((0, 1, ends[0]), (n - 1, -1, ends[1])):
            if FACE_PRECEDENCE.index(other) < FACE_PRECEDENCE.index(face):
                continue  # the other face writes this corner last
            mirrored = isinstance(self.laws[other], NeumannZeroFlux)
            if n >= 3 and mirrored:
                continue  # the ghost mirror gives the face formula exactly
            reach = 0 if n < 3 else min(n - 1, 3)
            along = tuple(node(end + k * step_in) for k in range(1, reach + 1))
            plans.append((node(end), inward(end), along, h_n2, h_t2))
        return plans

    # -- the band ----------------------------------------------------------

    def _load(self, u: np.ndarray) -> None:
        """Copy a foreign field into both ghost-padded buffers and find its
        band with one scan."""
        np.copyto(self._fields[0], u)
        for ghost, line in self._ghosts[0]:
            np.copyto(ghost, line)
        np.copyto(self._bufs[1], self._bufs[0])
        ny, levels = self.grid.ny, self._bufs[0][1:-1, 1:-1]
        runs = []
        for side in (levels, levels[::-1]):
            # the number of levels from this side that are all v = +-1
            v = side.item(0, 0)
            flat = (side == v).all(axis=1) if v in (-1.0, 1.0) else np.zeros(1, bool)
            runs.append((v, ny if flat.all() else int(flat.argmin())))
        (v_lo, below), (v_hi, above) = runs
        if below == ny:
            lo, hi = 0, ny  # all v: too rare to skip
        else:
            # keep the edge level itself at v (see the class docstring)
            lo = below - 1 if below > _FACE_REACH else 0
            hi = ny - above + 1 if above > _FACE_REACH else ny
        self._set_band(lo, hi, v_lo, v_hi)

    def _grow(self, s: int) -> None:
        """Widen the band by one level at each edge where buffer ``s``,
        the next input, is no longer all v."""
        lo, hi, v_lo, v_hi = self._band
        levels = self._bufs[s]
        grown = (lo, hi)
        if lo and (levels[lo + 1, 1:-1] != v_lo).any():
            lo = lo - 1 if lo > _FACE_REACH else 0
        if hi < self.grid.ny and (levels[hi, 1:-1] != v_hi).any():
            hi = hi + 1 if hi < self.grid.ny - _FACE_REACH else self.grid.ny
        if (lo, hi) != grown:
            self._set_band(lo, hi, v_lo, v_hi)

    def _set_band(self, lo: int, hi: int, v_lo: float, v_hi: float) -> None:
        """Cut the views of the flat sweep over levels [lo, hi): from node
        (0, lo) through node (nx - 1, hi - 1)."""
        self._band = (lo, hi, v_lo, v_hi)
        w = self.grid.nx + 2
        k0, k1 = (lo + 1) * w + 1, hi * w + w - 1
        m = k1 - k0
        self._k0 = k0
        flats = [b.reshape(-1) for b in self._bufs]
        # per buffer: the band, and its x and y neighbour pairs
        self._sweep = [
            (f[k0:k1], f[k0:k1 + 1], f[k0 - 1:k1], f[k0:k1 + w], f[k0 - w:k1])
            for f in flats
        ]
        dx, dy = self._dx[:m + 1], self._dy[:m + w]
        # dx[s] = E - c at flat node k0 - 1 + s: (E - c) is dx[1:], (c - W)
        # is dx[:m]; dy[s] = N - c at k0 - w + s: (N - c) is dy[w:], (c - S)
        # is dy[:m].  tmp and wprime reuse them once they are read.
        self._diffs = (dx, dy, dx[1:], dx[:m], dy[w:], dy[:m])
        self._abs_band = self._abs[:m]

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
                c2 = None if k is None else col.item(k)
                inward = inward_slope(c0, col.item(j), c2, self.grid.hx)
                out[i] = c0 + dt * sigma * inward
            else:
                out[i] = c0
        return unew

    def _advance_2d(self, u: np.ndarray, dt: float) -> np.ndarray:
        if u is self._fields[0] or u is self._fields[1]:
            s = 0 if u is self._fields[0] else 1
            self._grow(s)
        else:
            s = 0
            self._load(u)
            u = self._fields[0]
        t = 1 - s
        self._out = t
        c, east, mid, north, south = self._sweep[s]
        acc = self._sweep[t][0]
        dx, dy, e_c, c_w, n_c, c_s = self._diffs
        tmp, wprime = c_w, c_s
        np.subtract(east, mid, out=dx)
        np.subtract(e_c, c_w, out=acc)
        np.divide(acc, self.hx2, out=acc)
        np.subtract(north, south, out=dy)
        np.subtract(n_c, c_s, out=tmp)
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

        unew = self._fields[t]
        for kind, i0, i1, i2, h, extra in self._faces:
            if kind is DirichletFrozen:
                np.copyto(unew[i0], u[i0])
            elif kind is Dynamic:
                inward = inward_slope(
                    u[i0], u[i1], None if i2 is None else u[i2], h
                )
                np.subtract(u[i0], (dt * extra) * -inward, out=unew[i0])
            else:
                for node, inner, along, h_n2, h_t2 in extra:
                    self._corner(u, unew, node, inner, along, h_n2, h_t2, dt)
        for ghost, line in self._ghosts[t]:
            np.copyto(ghost, line)
        return unew

    def _corner(self, u, unew, node, inner, along, h_n2, h_t2, dt) -> None:
        """The zero-flux face formula at one corner, in Python floats:
        mirrored normal second difference plus the tangential term."""
        c0 = u.item(node)
        o = [u.item(p) for p in along]
        if len(o) == 3:
            tang = one_sided_second(c0, o[0], o[1], o[2], h_t2)
        elif o:
            tang = ((o[1] - o[0]) - (o[0] - c0)) / h_t2
        else:
            tang = 0.0
        lap = (u.item(inner) - c0) * 2.0 / h_n2
        wprime = c0 * -2.0 * (1.0 - c0 * c0) * self.inv_eps2
        unew[node] = c0 + ((lap + tang) - wprime) * dt

    def advance(self, u: np.ndarray, dt: float) -> np.ndarray:
        if self.is_1d:
            return self._advance_1d(u, dt)
        return self._advance_2d(u, dt)

    def check(self, unew: np.ndarray, init_bounded: bool, t: float) -> None:
        """One reduction of |unew| over the band: argmax lands on the first
        NaN if there is one, so a NaN or Inf anywhere makes the maximum
        non-finite.  The message names the node and its face."""
        if self.is_1d:
            a = np.abs(unew, out=self._abs)
        else:
            a = np.abs(self._sweep[self._out][0], out=self._abs_band)
        k = a.argmax()
        m = a.item(k)
        if not math.isfinite(m):
            raise DivergenceError(
                f"NaN/Inf detected during the step at t={t:.6g}, {self._site(k)}"
            )
        if init_bounded and m > 1.0 + MAX_PRINCIPLE_SLACK:
            raise DivergenceError(
                f"maximum principle violated: max|u| = {m:.15g} at t={t:.6g}, "
                f"{self._site(k)}"
            )

    def _site(self, k: int) -> str:
        """The node behind flat index ``k`` of the checked block, and its
        face; a ghost entry names the node it mirrors, and a corner the
        face that owns it."""
        g = self.grid
        if self.is_1d:
            i, j = int(k), 0
        else:
            row, col = divmod(self._k0 + int(k), g.nx + 2)
            i, j = {0: 1, g.nx + 1: g.nx - 2}.get(col, col - 1), row - 1
        on_face = {
            Face.BOTTOM: j == 0,
            Face.RIGHT: i == g.nx - 1,
            Face.TOP: j == g.ny - 1,
            Face.LEFT: i == 0,
        }
        face = next((f for f in g.active_faces() if on_face[f]), None)
        where = "in the interior" if face is None else f"on the {face.value} face"
        return f"node ({i}, {j}) {where}"


def _refuse_dt(state: PhaseState, dt: float) -> None:
    """Refuse a dt that is not positive (NaN included), or one above the
    stable bound of ``state``."""
    if not dt > 0:
        raise UsageError("dt must be positive")
    bound = stable_dt(state)
    if dt > bound * (1.0 + 1e-12):
        raise StabilityError(f"dt={dt:.3e} exceeds the stable bound {bound:.3e}")


def _stepped(
    state: PhaseState, u: np.ndarray, out: np.ndarray, t: float, dt: float
) -> PhaseState:
    """The state after one step of ``dt`` from field ``u`` at time ``t`` to
    the kernel's output ``out``; ``state`` gives the grid, eps, laws and
    init_bounded.  The kernel reuses ``out``, so the new state keeps a copy."""
    unew = out.copy()
    return PhaseState(
        u=ScalarField2D(state.grid, unew),
        t=t + dt,
        eps=state.eps,
        laws=state.laws,
        dudt=ScalarField2D(state.grid, (unew - u) / dt),
        init_bounded=state.init_bounded,
    )


def step(state: PhaseState, dt: float) -> PhaseState:
    """One explicit Euler step.  Pure Jacobi-style update: the new state
    is a function of the previous one only.

    Raises `StabilityError` when dt exceeds the stable bound and
    `DivergenceError` on NaN or a maximum-principle violation.
    """
    _refuse_dt(state, dt)
    kernel = _StepKernel(state)
    out = kernel.advance(state.u.values, dt)
    kernel.check(out, state.init_bounded, state.t)
    return _stepped(state, state.u.values, out, state.t, dt)


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
    ``ENERGY_RISE_SLACK * max(E, 1)``; any rise beyond that aborts as
    divergence.  dt is refused, and each snapshot's state is built, by the
    helpers `step` uses.
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
    _refuse_dt(state, base_dt)

    kernel = _StepKernel(state)
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
                PhaseState(ScalarField2D(state.grid, u), t, state.eps, state.laws)
            )
        unew = kernel.advance(u, step_dt)
        kernel.check(unew, init_bounded, t)
        if observing:
            after = _stepped(state, u, unew, t, step_dt)
            snap = measures.observe(after, e_before=e_before, dt=step_dt)
            rise = snap.scalars["E"] - prev_energy
            if rise > ENERGY_RISE_SLACK * max(prev_energy, 1.0):
                raise DivergenceError(
                    f"energy increased by {rise:.3e} at t={after.t:.6g}"
                )
            prev_energy = snap.scalars["E"]
            record.append(snap)
        t += step_dt
        u = unew
    return record

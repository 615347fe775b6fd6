"""Structured rectangular grids and second-order discrete calculus.

Axis convention: ``values[i, j]`` samples the point
``(x0 + i*hx, y0 + j*hy)``; axis 0 is x, axis 1 is y.  Arrays are
row-major (C order), which fixes the reduction order of every integral.
``ny == 1`` selects the degenerate 1D mode: the domain is the interval
``[x0, x0 + (nx-1)*hx]``, its boundary is the two endpoint faces LEFT
and RIGHT carrying counting measure, and BOTTOM/TOP are inactive.

Stencils are second order throughout: central differences in the
interior, 3-point one-sided first derivatives and 4-point one-sided
second derivatives at the ends of every line.  Each one-sided stencil
has one home, shared by the solver and the diagnostics: `inward_slope`
(a 2-point difference on lines of two nodes) and `one_sided_second`.
All of them reproduce affine fields exactly; the second-derivative
stencils reproduce quadratics exactly.

Face derivatives are read, never re-derived: `face_gradient` returns
the face row of a computed `gradient`, whose end rows are `inward_slope`.
Face values come from `Grid2D.face_slice`, their quadrature weights from
`Grid2D.face_weights`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError


class Face(Enum):
    """The four faces of an axis-aligned rectangle."""

    BOTTOM = "bottom"
    TOP = "top"
    LEFT = "left"
    RIGHT = "right"

    @property
    def normal(self) -> tuple[float, float]:
        """Outward unit normal of the face."""
        return _FACE_NORMALS[self]

    @property
    def tangent(self) -> tuple[float, float]:
        """Unit tangent along the face (direction of increasing arclength)."""
        return _FACE_TANGENTS[self]

    @property
    def axis(self) -> int:
        """Axis along which the face extends (0 = x, 1 = y)."""
        return 0 if self in (Face.BOTTOM, Face.TOP) else 1


_FACE_NORMALS = {
    Face.BOTTOM: (0.0, -1.0),
    Face.TOP: (0.0, 1.0),
    Face.LEFT: (-1.0, 0.0),
    Face.RIGHT: (1.0, 0.0),
}
_FACE_TANGENTS = {
    Face.BOTTOM: (1.0, 0.0),
    Face.TOP: (1.0, 0.0),
    Face.LEFT: (0.0, 1.0),
    Face.RIGHT: (0.0, 1.0),
}

# Corner ownership: a corner node belongs to the face that comes first here.
FACE_PRECEDENCE = (Face.BOTTOM, Face.RIGHT, Face.TOP, Face.LEFT)


@dataclass(frozen=True)
class Grid2D:
    """Uniform tensor-product grid on an axis-aligned rectangle.

    ``hx = Lx/(nx-1)`` and ``hy = Ly/(ny-1)`` for declared extents; in 1D
    mode (``ny == 1``) ``hy`` is a dummy positive spacing and only LEFT
    and RIGHT faces are active.
    """

    nx: int
    ny: int
    hx: float
    hy: float
    origin: tuple[float, float] = (0.0, 0.0)
    face_tags: tuple[tuple[Face, str], ...] = field(
        default=tuple((f, f.value) for f in FACE_PRECEDENCE)
    )

    def __post_init__(self) -> None:
        if self.nx < 2:
            raise ConfigurationError(f"nx must be >= 2, got {self.nx}")
        if self.ny < 1:
            raise ConfigurationError(f"ny must be >= 1, got {self.ny}")
        if not (self.hx > 0 and self.hy > 0):
            raise ConfigurationError("grid spacings must be positive")
        tagged = {f for f, _ in self.face_tags}
        if tagged != set(Face):
            raise ConfigurationError("every face needs exactly one tag")

    @classmethod
    def from_extents(
        cls,
        x0: float,
        x1: float,
        y0: float,
        y1: float,
        nx: int,
        ny: int,
        face_tags: dict[Face, str] | None = None,
    ) -> "Grid2D":
        if x1 <= x0:
            raise ConfigurationError("x extent must satisfy x1 > x0")
        hx = (x1 - x0) / (nx - 1)
        if ny == 1:
            hy = 1.0
        else:
            if y1 <= y0:
                raise ConfigurationError("y extent must satisfy y1 > y0")
            hy = (y1 - y0) / (ny - 1)
        tags = tuple(
            (f, (face_tags or {}).get(f, f.value)) for f in FACE_PRECEDENCE
        )
        return cls(nx=nx, ny=ny, hx=hx, hy=hy, origin=(x0, y0), face_tags=tags)

    # -- geometry -----------------------------------------------------------

    @property
    def is_1d(self) -> bool:
        return self.ny == 1

    @property
    def lx(self) -> float:
        return (self.nx - 1) * self.hx

    @property
    def ly(self) -> float:
        return 0.0 if self.is_1d else (self.ny - 1) * self.hy

    def x(self) -> np.ndarray:
        return self.origin[0] + self.hx * np.arange(self.nx)

    def y(self) -> np.ndarray:
        return self.origin[1] + self.hy * np.arange(self.ny)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays of shape (nx, ny)."""
        return np.meshgrid(self.x(), self.y(), indexing="ij")

    def active_faces(self) -> tuple[Face, ...]:
        if self.is_1d:
            return (Face.LEFT, Face.RIGHT)
        return FACE_PRECEDENCE

    def require_active(self, face: Face) -> None:
        if face not in self.active_faces():
            raise ConfigurationError(f"face {face.value} is inactive in 1D mode")

    def face_measure(self, face: Face) -> float:
        """Boundary measure of the face: its length in 2D, 1 (counting
        measure of a point) in 1D mode."""
        self.require_active(face)
        if self.is_1d:
            return 1.0
        return self.lx if face.axis == 0 else self.ly

    def face_coords(self, face: Face) -> np.ndarray:
        """Node coordinates along the face, shape (n, 2)."""
        self.require_active(face)
        x0, y0 = self.origin
        if self.is_1d:
            xs = x0 if face is Face.LEFT else x0 + self.lx
            return np.array([[xs, y0]])
        if face is Face.BOTTOM:
            return np.column_stack([self.x(), np.full(self.nx, y0)])
        if face is Face.TOP:
            return np.column_stack([self.x(), np.full(self.nx, y0 + self.ly)])
        if face is Face.LEFT:
            return np.column_stack([np.full(self.ny, x0), self.y()])
        return np.column_stack([np.full(self.ny, x0 + self.lx), self.y()])

    def face_slice(self, values: np.ndarray, face: Face) -> np.ndarray:
        """View of the face row/column of a (nx, ny) array."""
        return values[self.inward_lines(face)[0]]

    def inward_lines(self, face: Face):
        """Index tuples of the face row/column and of the next two lines
        inward (the third None when only two lines cross the face), with
        the spacing across the face."""
        self.require_active(face)
        if face.axis == 0:
            n, h, line = self.ny, self.hy, lambda k: (slice(None), k)
        else:
            n, h, line = self.nx, self.hx, lambda k: (k, slice(None))
        ks = (0, 1, 2) if face in (Face.BOTTOM, Face.LEFT) else (-1, -2, -3)
        return line(ks[0]), line(ks[1]), (line(ks[2]) if n > 2 else None), h

    def face_weights(self, face: Face) -> np.ndarray:
        """Trapezoidal arclength weights along the face (end nodes h/2).

        In 1D mode the face is a single point with unit weight.
        """
        self.require_active(face)
        if self.is_1d:
            return np.array([1.0])
        n, h = (self.nx, self.hx) if face.axis == 0 else (self.ny, self.hy)
        w = np.full(n, h)
        w[0] = w[-1] = h / 2
        return w

    def domain_weights(self) -> np.ndarray:
        """Tensor-product trapezoid weights, shape (nx, ny); read-only and
        shared between calls on equal grids."""
        return _trapezoid_weights(self.nx, self.ny, self.hx, self.hy)


@lru_cache(maxsize=16)
def _trapezoid_weights(nx: int, ny: int, hx: float, hy: float) -> np.ndarray:
    wx = np.full(nx, hx)
    wx[0] = wx[-1] = hx / 2
    if ny == 1:
        wy = np.array([1.0])
    else:
        wy = np.full(ny, hy)
        wy[0] = wy[-1] = hy / 2
    w = np.outer(wx, wy)
    w.flags.writeable = False
    return w


@dataclass
class ScalarField2D:
    """Nodal scalar samples on a grid, shape (nx, ny)."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.nx, self.grid.ny):
            raise ConfigurationError(
                f"field shape {self.values.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})"
            )

    @classmethod
    def from_function(cls, grid: Grid2D, fn) -> "ScalarField2D":
        xx, yy = grid.meshgrid()
        return cls(grid, np.asarray(fn(xx, yy), dtype=np.float64))

    @classmethod
    def full(cls, grid: Grid2D, value: float) -> "ScalarField2D":
        return cls(grid, np.full((grid.nx, grid.ny), value))

    def copy(self) -> "ScalarField2D":
        return ScalarField2D(self.grid, self.values.copy())

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass
class VectorField2D:
    """Two nodal component arrays on a grid."""

    grid: Grid2D
    vx: np.ndarray
    vy: np.ndarray

    def __post_init__(self) -> None:
        self.vx = np.ascontiguousarray(self.vx, dtype=np.float64)
        self.vy = np.ascontiguousarray(self.vy, dtype=np.float64)
        shape = (self.grid.nx, self.grid.ny)
        if self.vx.shape != shape or self.vy.shape != shape:
            raise ConfigurationError("vector component shapes do not match grid")

    def norm2(self) -> np.ndarray:
        return self.vx * self.vx + self.vy * self.vy


# -- stencils ---------------------------------------------------------------


def _axis_derivative(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order first derivative along ``axis`` of a 2-D array;
    `inward_slope` at the ends."""
    v = values.swapaxes(0, axis)
    n = v.shape[0]
    out = np.empty_like(v)
    if n == 1:
        out[:] = 0.0
    elif n == 2:
        # one 2-point difference for both ends (negating the slope read
        # from the far end would turn a +0.0 into -0.0)
        out[0] = out[1] = inward_slope(v[0], v[1], None, h)
    else:
        # difference forms vanish bit-exactly on constants
        out[1:-1] = (v[2:] - v[:-2]) / (2 * h)
        out[0] = inward_slope(v[0], v[1], v[2], h)
        out[-1] = -inward_slope(v[-1], v[-2], v[-3], h)
    return out.swapaxes(0, axis)


def one_sided_second(f0, f1, f2, f3, h2):
    """Second derivative at an end from the end value ``f0`` and the next
    three values inward, over the squared spacing ``h2``: the 4-point
    one-sided (second order) stencil.  The one home of this stencil: the
    solver's zero-flux face ends and `laplacian`'s end rows call it."""
    return (-5.0 * (f1 - f0) + 4.0 * (f2 - f0) - (f3 - f0)) / h2


def _axis_second_derivative(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second derivative along ``axis`` of a 2-D array: 3-point central in
    the interior, 4-point one-sided (second order) at the ends."""
    v = values.swapaxes(0, axis)
    n = v.shape[0]
    out = np.empty_like(v)
    h2 = h * h
    if n <= 2:
        out[:] = 0.0
    elif n == 3:
        mid = ((v[2] - v[1]) - (v[1] - v[0])) / h2
        out[0] = mid
        out[1] = mid
        out[2] = mid
    else:
        out[1:-1] = ((v[2:] - v[1:-1]) - (v[1:-1] - v[:-2])) / h2
        out[0] = one_sided_second(v[0], v[1], v[2], v[3], h2)
        out[-1] = one_sided_second(v[-1], v[-2], v[-3], v[-4], h2)
    return out.swapaxes(0, axis)


def gradient(f: ScalarField2D) -> VectorField2D:
    """Nodal gradient, second order including one-sided face stencils.

    Exact on affine fields.  In 1D mode the y component is zero.
    """
    g = f.grid
    vx = _axis_derivative(f.values, g.hx, 0)
    if g.is_1d:
        vy = np.zeros_like(f.values)
    else:
        vy = _axis_derivative(f.values, g.hy, 1)
    return VectorField2D(g, vx, vy)


def laplacian(f: ScalarField2D) -> ScalarField2D:
    """5-point Laplacian at interior nodes; one-sided second derivatives
    fill the faces (diagnostics only -- the solver never consumes them).

    Exact on quadratics at interior nodes.
    """
    g = f.grid
    out = _axis_second_derivative(f.values, g.hx, 0)
    if not g.is_1d:
        out = out + _axis_second_derivative(f.values, g.hy, 1)
    return ScalarField2D(g, out)


def inward_slope(f0, f1, f2, h: float):
    """Inward first derivative at a face from the face line ``f0`` and the
    next lines ``f1``, ``f2`` inward: the 3-point one-sided stencil, or
    the 2-point difference when ``f2`` is None (minimal grids).  Takes
    arrays or Python floats.  The one home of this stencil: the solver's
    dynamic faces (2D lines and 1D end nodes) and the end rows of
    `_axis_derivative` (hence `gradient` and `face_gradient`) call it."""
    if f2 is None:
        return (f1 - f0) / h
    return (4.0 * (f1 - f0) - (f2 - f0)) / (2 * h)


def face_gradient(grad: VectorField2D, face: Face) -> tuple[np.ndarray, np.ndarray]:
    """(tangential, outward normal) derivative on a face: the face row of
    a computed `gradient`, whose end rows are `inward_slope`.  The
    tangential part is zero in 1D mode (point faces).  Both arrays are
    fresh, so keeping them does not keep the gradient alive."""
    g = grad.grid
    along, across = (grad.vx, grad.vy) if face.axis == 0 else (grad.vy, grad.vx)
    across = g.face_slice(across, face)
    normal = -across if face in (Face.BOTTOM, Face.LEFT) else across.copy()
    return g.face_slice(along, face).copy(), normal


def integrate_values(grid: Grid2D, values: np.ndarray) -> float:
    """Tensor-product trapezoid rule of a (nx, ny) array.

    The reduction runs over the row-major weighted array with numpy's
    pairwise summation, a fixed deterministic order independent of any
    threading in the caller.
    """
    return float(np.sum(grid.domain_weights() * values))

"""Discrete first variations, curvature extraction and energy-balance
identities.

The direct first variation pairs the jacobian of a test vector field
with the tangent-plane projector ``I - a (x) a`` (``a`` the unit
gradient) against the surface density; the expanded form splits the same
quantity into five named terms (interior chemical-potential pairing,
discrepancy projection, two boundary integrals, and the zero-gradient
set) whose mismatch against the direct value is the integration-by-parts
residual -- it contracts at the stencil order under mesh refinement.

The Brakke-type check evaluates the exact energy-balance identity for a
nonnegative test function ``phi``: the change of ``int phi dmu`` between
two recorded times against time-integrated dissipation, transport and
boundary terms.  The boundary term is assembled per dynamic face either
from the cached trace velocity (``dynamic`` mode) or from the normal
derivative (``dirichlet`` mode); the two coincide through the boundary
law up to explicit-Euler truncation.

Test fields are closed forms with exact derivatives; declared flags
(compact support on faces, tangentiality, zero normal derivative) are
certified by sampling boundary nodes before use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import UsageError
from .grid import (
    Face,
    Grid2D,
    VectorField2D,
    face_gradient,
    gradient,
    integrate_values,
    laplacian,
)
from .measures import _densities, _face_dissipation, time_trapezoid, window_indices
from .solver import PhaseState, double_well_prime

if TYPE_CHECKING:
    from .record import RunRecord

FLAG_TOL = 1e-10


# -- test fields --------------------------------------------------------------


@dataclass
class VectorTestField:
    """Closed-form vector field with exact jacobian.

    ``value(x, y) -> (gx, gy)``; ``jacobian(x, y) -> (dgx_dx, dgx_dy,
    dgy_dx, dgy_dy)``.  Flags are claims certified against grid boundary
    nodes by `verify_flags`.
    """

    name: str
    value: Callable
    jacobian: Callable
    compact_faces: tuple[Face, ...] = ()
    tangential_on_boundary: bool = False

    def verify_flags(self, grid: Grid2D) -> None:
        for face in self.compact_faces:
            if face not in grid.active_faces():
                continue
            c = grid.face_coords(face)
            gx, gy = self.value(c[:, 0], c[:, 1])
            if np.max(np.hypot(gx, gy)) > FLAG_TOL:
                raise UsageError(
                    f"test field {self.name!r} not compactly supported away "
                    f"from face {face.value}"
                )
        if self.tangential_on_boundary:
            for face in grid.active_faces():
                c = grid.face_coords(face)
                gx, gy = self.value(c[:, 0], c[:, 1])
                nx_, ny_ = face.normal
                if np.max(np.abs(gx * nx_ + gy * ny_)) > FLAG_TOL:
                    raise UsageError(
                        f"test field {self.name!r} is not tangential on "
                        f"face {face.value}"
                    )


@dataclass
class ScalarTestField:
    """Closed-form scalar test function with exact gradient and optional
    time derivative (zero when omitted)."""

    name: str
    value: Callable
    grad: Callable
    time_derivative: Callable | None = None
    neumann_compatible: bool = False

    def dt(self, x, y, t: float):
        if self.time_derivative is None:
            return np.zeros_like(np.asarray(x, dtype=float))
        return self.time_derivative(x, y, t)

    def verify_flags(self, grid: Grid2D) -> None:
        if self.neumann_compatible:
            for face in grid.active_faces():
                c = grid.face_coords(face)
                px, py = self.grad(c[:, 0], c[:, 1])
                nx_, ny_ = face.normal
                if np.max(np.abs(px * nx_ + py * ny_)) > FLAG_TOL:
                    raise UsageError(
                        f"test function {self.name!r} violates grad.nu = 0 "
                        f"on face {face.value}"
                    )

    def verify_nonnegative(self, grid: Grid2D) -> None:
        xx, yy = grid.meshgrid()
        if np.min(self.value(xx, yy)) < -1e-12:
            raise UsageError(f"test function {self.name!r} is not nonnegative")


@dataclass(frozen=True)
class Window1D:
    """C^1 plateau window: 1 on [lo, hi], cos^2 rolls of the given widths
    on each side, 0 beyond.  A zero roll width extends the plateau to
    infinity on that side (derivative identically zero there)."""

    lo: float
    hi: float
    roll_lo: float
    roll_hi: float

    def value(self, z):
        z = np.asarray(z, dtype=float)
        out = np.zeros_like(z)
        out = np.where((z >= self.lo) & (z <= self.hi), 1.0, out)
        if self.roll_lo > 0:
            s = (self.lo - z) / self.roll_lo
            m = (s > 0) & (s < 1)
            out = np.where(m, np.cos(0.5 * np.pi * s) ** 2, out)
        else:
            out = np.where(z < self.lo, 1.0, out)
        if self.roll_hi > 0:
            s = (z - self.hi) / self.roll_hi
            m = (s > 0) & (s < 1)
            out = np.where(m, np.cos(0.5 * np.pi * s) ** 2, out)
        else:
            out = np.where(z > self.hi, 1.0, out)
        return out

    def deriv(self, z):
        z = np.asarray(z, dtype=float)
        out = np.zeros_like(z)
        if self.roll_lo > 0:
            s = (self.lo - z) / self.roll_lo
            m = (s > 0) & (s < 1)
            out = np.where(m, (0.5 * np.pi / self.roll_lo) * np.sin(np.pi * s), out)
        if self.roll_hi > 0:
            s = (z - self.hi) / self.roll_hi
            m = (s > 0) & (s < 1)
            out = np.where(m, -(0.5 * np.pi / self.roll_hi) * np.sin(np.pi * s), out)
        return out


def bump1d(center: float, width: float) -> Window1D:
    """cos^2 bump of compact support [center-width, center+width]."""
    return Window1D(center, center, width, width)


def vec_constant(cx: float, cy: float, name: str | None = None) -> VectorTestField:
    def value(x, y):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, cx), np.full_like(x, cy)

    def jac(x, y):
        z = np.zeros_like(np.asarray(x, dtype=float))
        return z, z, z, z

    return VectorTestField(
        name or f"const({cx},{cy})",
        value,
        jac,
        tangential_on_boundary=(cx == 0.0 and cy == 0.0),
    )


def vec_separable(
    direction: tuple[float, float],
    wx: Window1D,
    wy: Window1D,
    name: str | None = None,
    compact_faces: tuple[Face, ...] = (),
    tangential_on_boundary: bool = False,
) -> VectorTestField:
    """g(x, y) = direction * Wx(x) * Wy(y)."""
    dx_, dy_ = direction

    def value(x, y):
        b = wx.value(x) * wy.value(y)
        return dx_ * b, dy_ * b

    def jac(x, y):
        bx = wx.deriv(x) * wy.value(y)
        by = wx.value(x) * wy.deriv(y)
        return dx_ * bx, dx_ * by, dy_ * bx, dy_ * by

    return VectorTestField(
        name or f"sep({direction})",
        value,
        jac,
        compact_faces=compact_faces,
        tangential_on_boundary=tangential_on_boundary,
    )


def vec_dilation(
    center: tuple[float, float],
    wx: Window1D,
    wy: Window1D,
    name: str | None = None,
    compact_faces: tuple[Face, ...] = (),
) -> VectorTestField:
    """g(x, y) = (x - center) * Wx(x) * Wy(y): a windowed dilation, the
    canonical field with nonzero first variation on closed interfaces."""
    cx, cy = center

    def value(x, y):
        b = wx.value(x) * wy.value(y)
        return (x - cx) * b, (y - cy) * b

    def jac(x, y):
        bx = wx.value(x)
        by = wy.value(y)
        dbx = wx.deriv(x)
        dby = wy.deriv(y)
        jxx = bx * by + (x - cx) * dbx * by
        jxy = (x - cx) * bx * dby
        jyx = (y - cy) * dbx * by
        jyy = bx * by + (y - cy) * bx * dby
        return jxx, jxy, jyx, jyy

    return VectorTestField(
        name or f"dilation({cx},{cy})", value, jac, compact_faces=compact_faces
    )


def scalar_constant(c: float, name: str | None = None) -> ScalarTestField:
    def value(x, y):
        return np.full_like(np.asarray(x, dtype=float), c)

    def grad(x, y):
        z = np.zeros_like(np.asarray(x, dtype=float))
        return z, z

    return ScalarTestField(
        name or f"const({c})", value, grad, neumann_compatible=True
    )


def scalar_window(
    wx: Window1D, wy: Window1D, name: str | None = None, neumann_compatible: bool = True
) -> ScalarTestField:
    """phi(x, y) = Wx(x) * Wy(y); nonnegative and C^1 by construction."""

    def value(x, y):
        return wx.value(x) * wy.value(y)

    def grad(x, y):
        return wx.deriv(x) * wy.value(y), wx.value(x) * wy.deriv(y)

    return ScalarTestField(
        name or "window", value, grad, neumann_compatible=neumann_compatible
    )


def scalar_gauss(
    cx: float, cy: float, s: float, name: str | None = None
) -> ScalarTestField:
    """Isotropic Gaussian bump; certifiably boundary-compatible when its
    center sits on a face (zero slope there) and the tails are below the
    flag tolerance on the remaining faces."""

    def value(x, y):
        return np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * s * s))

    def grad(x, y):
        v = value(x, y)
        return -(x - cx) / (s * s) * v, -(y - cy) / (s * s) * v

    return ScalarTestField(
        name or f"gauss({cx},{cy};{s})", value, grad, neumann_compatible=True
    )


def gauss_window(
    cx: float,
    cy: float,
    s: float,
    wx: Window1D,
    wy: Window1D,
    name: str | None = None,
) -> ScalarTestField:
    """Gaussian mollified by plateau windows so the support stays inside
    the rectangle (hence grad.nu = 0 on every face)."""

    def value(x, y):
        g = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * s * s))
        return g * wx.value(x) * wy.value(y)

    def grad(x, y):
        g = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * s * s))
        wxx, wyy = wx.value(x), wy.value(y)
        px = g * (wx.deriv(x) * wyy - (x - cx) / (s * s) * wxx * wyy)
        py = g * (wxx * wy.deriv(y) - (y - cy) / (s * s) * wxx * wyy)
        return px, py

    return ScalarTestField(
        name or f"gauss_window({cx},{cy})", value, grad, neumann_compatible=True
    )


# -- first variations ----------------------------------------------------------


@dataclass
class VariationReport:
    """Direct vs expanded first variation with the per-term breakdown."""

    delta_direct: float
    delta_expanded: float
    terms: dict[str, float] = field(default_factory=dict)

    @property
    def ibp_residual(self) -> float:
        return abs(self.delta_direct - self.delta_expanded)

    @property
    def terms_abs_sum(self) -> float:
        return sum(abs(v) for v in self.terms.values())


def _projection_pairing(xx, yy, dens, g: VectorTestField):
    """(div g, (jac g) : (a (x) a)) at the nodes ``(xx, yy)``; the second
    is meaningful on the gradient mask only."""
    jxx, jxy, jyx, jyy = g.jacobian(xx, yy)
    vx, vy = dens.grad.vx, dens.grad.vy
    denom = np.where(dens.mask, dens.g2, 1.0)
    aa = (jxx * vx * vx + (jxy + jyx) * vx * vy + jyy * vy * vy) / denom
    return jxx + jyy, aa


def _direct_variation(grid: Grid2D, dens, divg, aa) -> float:
    return integrate_values(grid, np.where(dens.mask, (divg - aa) * dens.mu, 0.0))


def first_variation_direct(state: PhaseState, g: VectorTestField) -> float:
    """int over {|grad u| > floor} of (jac g) : (I - a(x)a) against the
    surface density."""
    g.verify_flags(state.grid)
    dens = _densities(state)
    divg, aa = _projection_pairing(*state.grid.meshgrid(), dens, g)
    return _direct_variation(state.grid, dens, divg, aa)


def first_variation_expanded(state: PhaseState, g: VectorTestField) -> VariationReport:
    """The five-term split of the direct first variation (interior
    chemical potential, discrepancy projection, boundary density and
    normal-flux terms, zero-gradient set)."""
    g.verify_flags(state.grid)
    grd = state.grid
    eps = state.eps
    u = state.u.values
    dens = _densities(state)
    grad, mask, xi = dens.grad, dens.mask, dens.xi
    lap = laplacian(state.u).values
    xx, yy = grd.meshgrid()
    gx, gy = g.value(xx, yy)
    divg, aa = _projection_pairing(xx, yy, dens, g)

    chem = eps * lap - double_well_prime(u) / eps
    t_interior = integrate_values(grd, (gx * grad.vx + gy * grad.vy) * chem)
    t_discrepancy = integrate_values(grd, np.where(mask, aa * xi, 0.0))
    t_zero_set = integrate_values(grd, np.where(mask, 0.0, divg * xi))

    t_boundary_mu = 0.0
    t_boundary_flux = 0.0
    for face in grd.active_faces():
        coords = grd.face_coords(face)
        fx, fy = g.value(coords[:, 0], coords[:, 1])
        nx_, ny_ = face.normal
        wts = grd.face_weights(face)
        mu_tr = grd.face_slice(dens.mu, face)
        vx_tr = grd.face_slice(grad.vx, face)
        vy_tr = grd.face_slice(grad.vy, face)
        _, dnu = face_gradient(grad, face)
        t_boundary_mu += float(np.sum(wts * (fx * nx_ + fy * ny_) * mu_tr))
        t_boundary_flux += float(
            np.sum(wts * (-eps) * (fx * vx_tr + fy * vy_tr) * dnu)
        )

    terms = {
        "interior_chemical": t_interior,
        "discrepancy_projection": t_discrepancy,
        "boundary_density": t_boundary_mu,
        "boundary_normal_flux": t_boundary_flux,
        "zero_gradient_set": t_zero_set,
    }
    return VariationReport(
        delta_direct=_direct_variation(grd, dens, divg, aa),
        delta_expanded=sum(terms.values()),
        terms=terms,
    )


def mean_curvature_field(state: PhaseState) -> VectorField2D:
    """Diffuse mean curvature vector: with f = -eps*lap(u) + W'(u)/eps,

        H = f * grad u / (eps |grad u|^2)   on {|grad u| > floor},  else 0.

    For interior-supported g, int g.H dmu approximates -deltaV(g); on a
    radial profile of radius R the magnitude approaches 1/R at the level
    set.
    """
    dens = _densities(state)
    grad, mask = dens.grad, dens.mask
    eps = state.eps
    f = -eps * laplacian(state.u).values + double_well_prime(state.u.values) / eps
    denom = np.where(mask, eps * dens.g2, 1.0)
    return VectorField2D(
        state.grid,
        np.where(mask, f * grad.vx / denom, 0.0),
        np.where(mask, f * grad.vy / denom, 0.0),
    )


def projection_tensor(state: PhaseState):
    """(pxx, pxy, pyy, mask): entries of I - a(x)a where the gradient is
    above the floor (used by invariant checks)."""
    dens = _densities(state)
    grad, mask = dens.grad, dens.mask
    denom = np.where(mask, dens.g2, 1.0)
    axx = grad.vx * grad.vx / denom
    axy = grad.vx * grad.vy / denom
    ayy = grad.vy * grad.vy / denom
    return 1.0 - axx, -axy, 1.0 - ayy, mask


# -- boundary pairings ---------------------------------------------------------


def _pairing_instant(snapshot_faces, grid: Grid2D, g: VectorTestField, faces) -> float:
    total = 0.0
    for face in faces:
        fd = snapshot_faces[face]
        if fd.vb_x is None:
            raise UsageError("boundary velocity absent (no step taken yet)")
        c = grid.face_coords(face)
        gx, gy = g.value(c[:, 0], c[:, 1])
        wts = grid.face_weights(face)
        total += float(np.sum(wts * (gx * fd.vb_x + gy * fd.vb_y) * fd.alpha))
    return total


def boundary_functional(
    record: "RunRecord",
    g: VectorTestField,
    t1: float,
    t2: float,
    faces: tuple[Face, ...] | None = None,
) -> float:
    """Time-trapezoid over [t1, t2] of sum_faces int (g . v_b) dalpha."""
    grid = record.snapshots[0].state.grid
    g.verify_flags(grid)
    if faces is None:
        faces = grid.active_faces()
    idx = window_indices(record, t1, t2)
    times = record.times()[idx]
    vals = np.array(
        [_pairing_instant(record.snapshots[i].faces, grid, g, faces) for i in idx]
    )
    return time_trapezoid(times, vals)


def tangential_first_variation(
    state: PhaseState, g: VectorTestField, faces: tuple[Face, ...] | None = None
) -> float:
    """Boundary-restricted first variation with g replaced by its
    tangential projection: the face-density term drops (g^T . nu = 0) and

        -sum_faces int eps (g . tangent) (tangential deriv)(normal deriv).

    Reads both derivatives from the face rows of one `gradient`, whose
    end rows are the boundary law's `inward_slope`; on dynamic faces it
    cancels (1/sigma) times the instantaneous boundary pairing up to one
    explicit-Euler step of skew (the cached trace velocity is driven by
    the pre-step normal derivative), an O(dt) residual.
    """
    g.verify_flags(state.grid)
    grd = state.grid
    if faces is None:
        faces = grd.active_faces()
    grad = gradient(state.u)
    total = 0.0
    for face in faces:
        tau, dnu = face_gradient(grad, face)
        c = grd.face_coords(face)
        gx, gy = g.value(c[:, 0], c[:, 1])
        tx, ty = face.tangent
        gtan = gx * tx + gy * ty
        wts = grd.face_weights(face)
        total += float(np.sum(wts * (-state.eps) * gtan * tau * dnu))
    return total


# -- Brakke-identity residuals ---------------------------------------------------


@dataclass
class BrakkeReport:
    lhs: float
    rhs: float
    residual: float
    window: tuple[float, float]
    terms: dict[str, float]


def brakke_residual(
    record: "RunRecord",
    phi: ScalarTestField,
    t1: float,
    t2: float,
    mode: str = "dynamic",
) -> BrakkeReport:
    """Exact energy-balance identity for the pairing int phi dmu.

        lhs = int phi dmu |_{t1}^{t2}
        rhs = int_t [ int (-(1/eps) phi f^2 + f grad phi . grad u) dx
                      + int d_t phi dmu ] dt  -  boundary term(mode)

    with f = -eps * du/dt (the solver's own update, which equals
    -eps*lap(u) + W'(u)/eps at interior nodes).  Boundary term per
    dynamic face: ``dynamic`` mode pairs (eps/sigma)(du/dt)^2, the
    ``dirichlet`` form pairs eps*sigma*(normal derivative)^2.  With
    sigma -> infinity (no dynamic faces) both reduce to the zero-flux
    form.  The residual is explicit-Euler truncation plus snapshot
    quadrature; the inequality check is residual <= slack.
    """
    if mode not in ("dynamic", "dirichlet"):
        raise UsageError(f"unknown mode {mode!r}")
    grid = record.snapshots[0].state.grid
    phi.verify_nonnegative(grid)
    if mode == "dynamic":
        if not phi.neumann_compatible:
            raise UsageError("dynamic mode needs a neumann_compatible test function")
        phi.verify_flags(grid)

    idx = window_indices(record, t1, t2)
    snaps = [record.snapshots[i] for i in idx]
    if any(s.state.dudt is None for s in snaps):
        raise UsageError("window includes a snapshot without velocities")

    xx, yy = grid.meshgrid()
    phi_vals = phi.value(xx, yy)
    px, py = phi.grad(xx, yy)

    times = np.array([s.state.t for s in snaps])
    integrand = np.empty(len(snaps))
    lhs_first = lhs_last = 0.0
    for k, s in enumerate(snaps):
        dens = _densities(s.state)
        grad, mu = dens.grad, dens.mu
        pairing = integrate_values(grid, phi_vals * mu)
        if k == 0:
            lhs_first = pairing
        if k == len(snaps) - 1:
            lhs_last = pairing
        eps = s.state.eps
        dudt = s.state.dudt.values
        f = -eps * dudt
        interior = integrate_values(
            grid,
            -(1.0 / eps) * phi_vals * f * f + f * (px * grad.vx + py * grad.vy),
        )
        transport = integrate_values(grid, phi.dt(xx, yy, s.state.t) * mu)
        boundary = 0.0
        for face, sigma in s.state.dynamic_faces():
            c = grid.face_coords(face)
            phi_tr = phi.value(c[:, 0], c[:, 1])
            wts = grid.face_weights(face)
            if mode == "dynamic":
                dtr = grid.face_slice(dudt, face)
                boundary -= _face_dissipation(wts * phi_tr, eps, sigma, dtr)
            else:
                _, dnu = face_gradient(grad, face)
                boundary -= float(np.sum(wts * phi_tr * eps * sigma * dnu * dnu))
        integrand[k] = interior + transport + boundary

    rhs = time_trapezoid(times, integrand)
    lhs = lhs_last - lhs_first
    return BrakkeReport(
        lhs=lhs,
        rhs=rhs,
        residual=lhs - rhs,
        window=(float(times[0]), float(times[-1])),
        terms={"integrand_first": float(integrand[0]), "integrand_last": float(integrand[-1])},
    )

"""Diffuse-interface measures, velocities and monitored estimates.

Densities on the grid (with ``W(s) = (1-s^2)^2/2``):

    energy density      eps*|grad u|^2/2 + W(u)/eps      (surface measure)
    discrepancy density eps*|grad u|^2/2 - W(u)/eps      (equipartition gap)
    normal velocity     -du/dt * grad u / |grad u|^2     on {|grad u| > floor}

and on each boundary face, from the face row of that gradient
(`grid.face_gradient`: tangential and outward normal derivative):

    boundary area density   eps * |tangential grad|^2
    boundary velocity       -du/dt * tangential grad / |tangential grad|^2
    sin/cos contact angle   |tangential| / |grad|,  (grad . nu) / |grad|

The total mass of the energy density approximates ``4/3`` times the
interface length (``4/3`` is the integral of ``1 - s^2`` over [-1, 1]);
both the raw total and the normalized one are reported.  Velocities are
zeroed where the relevant gradient magnitude is at or below the floor
``1e-12 / eps`` to avoid 0/0 amplification in flat regions.

`observe` is the one observation of a state: it computes the
`SERIES_COLUMNS` scalars and the per-face traces and returns the
`Snapshot`.  The bulk normal velocity is built only on request, by
`normal_velocity`; `window_integral` integrates one series column of a
record over a time window.

Each formula has one home.  `_densities` evaluates the gradient, its
square, the gradient-floor mask and both densities of a state for
`energy`, `observe`, `normal_velocity` and all of `varifold`;
`_face_dissipation` is the dynamic-face dissipation
``sum w (eps/sigma) d^2`` of `observe` and the Brakke check; `observe`
alone forms the energy-balance defect.  Both helpers are private, so
they add no span to a traced run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import UsageError
from .grid import (
    Face,
    ScalarField2D,
    VectorField2D,
    _axis_derivative,
    face_gradient,
    gradient,
    integrate_values,
)
from .solver import Dynamic, PhaseState, double_well

if TYPE_CHECKING:
    from .record import RunRecord

SIGMA0 = 4.0 / 3.0


def gradient_floor(eps: float) -> float:
    """Magnitude below which gradients count as zero in velocity formulas."""
    return 1e-12 / eps


SERIES_COLUMNS = (
    "t",
    "E",
    "E_over_sigma0",
    "mu_total",
    "xi_abs",
    "alpha_total",
    "max_abs_u",
    "dissipation_residual",
    "boundary_energy",
    "normal_dirichlet_energy",
    "diss_interior",
    "diss_boundary",
)


@dataclass
class FaceDiagnostics:
    """Per-face boundary traces at one instant; their quadrature weights
    are ``grid.face_weights(face)``."""

    alpha: np.ndarray            # eps * (tangential derivative)^2
    tangential: np.ndarray
    normal: np.ndarray           # outward normal derivative
    sin_theta: np.ndarray
    cos_theta: np.ndarray
    vb_x: np.ndarray | None
    vb_y: np.ndarray | None


@dataclass
class Snapshot:
    """One observed instant: the full state, its `SERIES_COLUMNS`
    scalars and its boundary traces per active face."""

    state: PhaseState
    scalars: dict[str, float]
    faces: dict[Face, FaceDiagnostics]


@dataclass
class _Densities:
    """Bulk densities of one state, from one gradient evaluation."""

    grad: VectorField2D
    g2: np.ndarray               # |grad u|^2
    mask: np.ndarray             # |grad u| above the gradient floor
    mu: np.ndarray               # eps*|grad u|^2/2 + W(u)/eps
    xi: np.ndarray               # eps*|grad u|^2/2 - W(u)/eps


def _densities(state: PhaseState) -> _Densities:
    eps = state.eps
    grad = gradient(state.u)
    g2 = grad.norm2()
    floor = gradient_floor(eps)
    kinetic = 0.5 * eps * g2
    potential = double_well(state.u.values) / eps
    return _Densities(
        grad=grad,
        g2=g2,
        mask=g2 > floor * floor,
        mu=kinetic + potential,
        xi=kinetic - potential,
    )


def _face_dissipation(w: np.ndarray, eps: float, sigma: float, d: np.ndarray) -> float:
    """sum of w (eps/sigma) d^2 over a dynamic face, with quadrature (or
    quadrature times test function) weights ``w`` and trace rate ``d``."""
    return float(np.sum(w * (eps / sigma) * d * d))


def energy(state: PhaseState) -> float:
    """Free energy: the integral of eps*|grad u|^2/2 + W(u)/eps."""
    return integrate_values(state.grid, _densities(state).mu)


def observe(
    state: PhaseState, e_before: float | None = None, dt: float | None = None
) -> Snapshot:
    """The snapshot of a state.  Rates (dissipation, boundary velocities)
    are NaN or absent when no step has populated ``dudt`` yet; when the
    pre-step energy and the step are supplied the per-step dissipation
    residual is attached."""
    g = state.grid
    eps = state.eps
    dens = _densities(state)
    e_total = integrate_values(g, dens.mu)
    xi_abs = integrate_values(g, np.abs(dens.xi))
    floor = gradient_floor(eps)

    diss_interior = float("nan")
    if state.dudt is not None:
        dudt = state.dudt.values
        diss_interior = integrate_values(g, eps * dudt * dudt)

    faces: dict[Face, FaceDiagnostics] = {}
    alpha_total = 0.0
    boundary_energy = 0.0
    normal_energy = 0.0
    diss_boundary = 0.0 if state.dudt is not None else float("nan")
    for face in g.active_faces():
        tau, dnu = face_gradient(dens.grad, face)
        wts = g.face_weights(face)
        bmag = np.hypot(tau, dnu)
        bmask = bmag > floor
        safe = np.where(bmask, bmag, 1.0)
        sin_t = np.where(bmask, np.abs(tau) / safe, 0.0)
        cos_t = np.where(bmask, dnu / safe, 0.0)
        alpha = eps * tau * tau

        vb_x = vb_y = None
        if state.dudt is not None:
            dudt_tr = g.face_slice(state.dudt.values, face)
            tmask = np.abs(tau) > floor
            scale = np.where(tmask, -dudt_tr / np.where(tmask, tau, 1.0), 0.0)
            tx, ty = face.tangent
            vb_x = scale * tx
            vb_y = scale * ty
            law = state.laws[face]
            if isinstance(law, Dynamic):
                diss_boundary += _face_dissipation(wts, eps, law.sigma, dudt_tr)

        faces[face] = FaceDiagnostics(
            alpha=alpha,
            tangential=tau,
            normal=dnu,
            sin_theta=sin_t,
            cos_theta=cos_t,
            vb_x=vb_x,
            vb_y=vb_y,
        )
        alpha_total += float(np.sum(wts * alpha))
        # eps*tau^2/2 + W/eps (tangential part only) and eps*(normal)^2
        trace = g.face_slice(state.u.values, face)
        e_dens = 0.5 * eps * tau * tau + double_well(trace) / eps
        boundary_energy += float(np.sum(wts * e_dens))
        normal_energy += float(np.sum(wts * (eps * dnu * dnu)))

    residual = float("nan")
    if e_before is not None and dt is not None and state.dudt is not None:
        residual = (
            (e_total - e_before) / dt + diss_interior + diss_boundary
        ) / max(e_before, 1.0)
    scalars = {
        "t": state.t,
        "E": e_total,
        "E_over_sigma0": e_total / SIGMA0,
        "mu_total": e_total,
        "xi_abs": xi_abs,
        "alpha_total": alpha_total,
        "max_abs_u": state.u.max_abs(),
        "dissipation_residual": residual,
        "boundary_energy": boundary_energy,
        "normal_dirichlet_energy": normal_energy,
        "diss_interior": diss_interior,
        "diss_boundary": diss_boundary,
    }
    return Snapshot(state=state, scalars=scalars, faces=faces)


def normal_velocity(state: PhaseState) -> VectorField2D | None:
    """The bulk normal velocity ``-du/dt * grad u / |grad u|^2``, zero
    where |grad u| is at or below the gradient floor; None when no step
    has populated ``dudt`` yet."""
    if state.dudt is None:
        return None
    dens = _densities(state)
    grad, mask = dens.grad, dens.mask
    dudt = state.dudt.values
    denom = np.where(mask, dens.g2, 1.0)
    return VectorField2D(
        state.grid,
        np.where(mask, -dudt * grad.vx / denom, 0.0),
        np.where(mask, -dudt * grad.vy / denom, 0.0),
    )


def dissipation_residual(
    state_before: PhaseState, state_after: PhaseState, dt: float
) -> float:
    """Defect of the discrete energy balance across one accepted step,

        [E(after) - E(before)]/dt + int eps (du/dt)^2
                                  + sum_dynamic int (eps/sigma) (du/dt)^2,

    normalized by max(E(before), 1): the value `observe` records as
    ``dissipation_residual``.  Zero for exact equilibria; O(dt)
    otherwise (explicit Euler truncation).
    """
    if state_after.dudt is None:
        raise UsageError("state_after carries no cached time derivative")
    snap = observe(state_after, e_before=energy(state_before), dt=dt)
    return snap.scalars["dissipation_residual"]


# -- windowed record integrals ------------------------------------------------


def window_indices(record: "RunRecord", t1: float, t2: float) -> list[int]:
    """Snapshot indices whose times lie in [t1, t2]; the window must be
    ordered, inside the record, and contain at least two snapshots."""
    times = record.times()
    if not t1 < t2:
        raise UsageError("window must satisfy t1 < t2")
    if t1 < times[0] - 1e-12 or t2 > times[-1] + 1e-12:
        raise UsageError(
            f"window [{t1}, {t2}] outside record [{times[0]}, {times[-1]}]"
        )
    idx = [i for i, t in enumerate(times) if t1 - 1e-12 <= t <= t2 + 1e-12]
    if len(idx) < 2:
        raise UsageError("window contains fewer than two snapshots")
    return idx


_trapz = getattr(np, "trapezoid", None) or np.trapz


def time_trapezoid(times: np.ndarray, values: np.ndarray) -> float:
    return float(_trapz(values, times))


def window_integral(record: "RunRecord", column: str, t1: float, t2: float) -> float:
    """Snapshot trapezoid over [t1, t2] of one series column, e.g. the
    boundary energy, the normal Dirichlet energy (which blows up like
    1/sigma toward the frozen-trace limit), |xi| (reported, never assumed
    small) or the boundary area density."""
    idx = window_indices(record, t1, t2)
    times = record.times()[idx]
    vals = record.series(column)[idx]
    if np.any(np.isnan(vals)):
        raise UsageError(f"column {column} undefined inside the window")
    return time_trapezoid(times, vals)


def dissipation_window(record: "RunRecord", t1: float, t2: float) -> float:
    """Windowed energy-balance defect

        E|_{t1}^{t2} + int_t (int eps (du/dt)^2 + boundary dissipation),

    with the same snapshot trapezoid used by the Brakke-identity check
    with a constant test function (the two agree to roundoff)."""
    idx = window_indices(record, t1, t2)
    times = record.times()[idx]
    e = record.series("E")[idx]
    diss = record.series("diss_interior")[idx] + record.series("diss_boundary")[idx]
    if np.any(np.isnan(diss)):
        raise UsageError("dissipation columns undefined inside the window")
    return float(e[-1] - e[0]) + time_trapezoid(times, diss)


# -- auxiliary transforms -----------------------------------------------------


def w_transform(state: PhaseState) -> ScalarField2D:
    """u - u^3/3, the antiderivative of sqrt(2 W) through the wells; its
    face integral saturates at (2/3)|face| exactly when no phase boundary
    crosses the face."""
    u = state.u.values
    return ScalarField2D(state.grid, u - u**3 / 3.0)


def boundary_phase_indicator(state: PhaseState, face: Face) -> tuple[float, float]:
    """(|int_face w|, (2/3)*|face|): a first component strictly below the
    second signals a phase boundary on the face."""
    g = state.grid
    trace = g.face_slice(w_transform(state).values, face)
    mass = abs(float(np.sum(trace * g.face_weights(face))))
    return mass, (2.0 / 3.0) * g.face_measure(face)


def poincare_wirtinger_ratio(
    values: np.ndarray, weights: np.ndarray, periodic: bool = False
) -> float:
    """||w - mean(w)||_L1 / ||dw/ds||_L1 on a face trace or closed loop.

    Convention: 0 when both norms vanish, inf when only the denominator
    does.  The sample spacing is read off the interior weights.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.size < 3:
        raise UsageError("need at least 3 samples")
    h = weights[1] if weights.size > 2 else weights[0]
    total = float(np.sum(weights))
    mean = float(np.sum(values * weights)) / total
    num = float(np.sum(np.abs(values - mean) * weights))
    if periodic:
        dw = (np.roll(values, -1) - np.roll(values, 1)) / (2.0 * h)
    else:
        dw = _axis_derivative(values[:, None], h, 0)[:, 0]
    den = float(np.sum(np.abs(dw) * weights))
    tiny = 1e-300
    if den <= tiny:
        return 0.0 if num <= 1e-14 * max(total, 1.0) else float("inf")
    return num / den

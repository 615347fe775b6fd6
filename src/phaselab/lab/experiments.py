"""Experiment orchestration: single runs, sweeps, the arc benchmark, the
front-tracking oracle, and run-directory persistence.

Output layout per run: ``config.echo`` (byte-identical input config),
``series.csv`` (scalar time series), ``interface/*.csv`` (extracted
zero-level polylines), optional ``fields/*.csv`` dumps, ``report.json``.
Numbers are written with shortest round-trip formatting and no
wall-clock data, so identical configs give byte-identical outputs.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .. import measures, sharp
from ..errors import UsageError
from ..record import RunRecord, write_field_csv
from ..solver import run
from ..varifold import boundary_functional
from .catalog import DEFAULT_SWEEP_FIELDS, vector_field_from_spec
from .config import RunConfig, build_state, child_configs, serialize
from .extract import InterfaceExtract, extract_interface


def run_single(config: RunConfig) -> RunRecord:
    state = build_state(config)
    record = run(
        state,
        config.schedule.t_end,
        observer_cadence=config.schedule.cadence,
        dt=config.schedule.dt,
        safety=config.schedule.safety,
    )
    record.config_echo = config.source_text or serialize(config)
    record.meta = {
        "mode": config.experiment.mode,
        "eps": config.physics.eps,
        "sigma": config.physics.sigma,
        "nx": config.grid.nx,
        "ny": config.grid.ny,
    }
    return record


def write_run_outputs(
    config: RunConfig,
    record: RunRecord,
    out_dir: str | Path,
    extra_report: dict | None = None,
) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.echo").write_text(
        record.config_echo or serialize(config), encoding="utf-8"
    )
    record.write_series_csv(out / "series.csv")

    iface_dir = out / "interface"
    iface_dir.mkdir(exist_ok=True)
    for k, snap in enumerate(record.snapshots):
        ext = extract_interface(snap.state.u)
        lines = ["t,polyline,x,y"]
        for p, poly in enumerate(ext.polylines):
            for xp, yp in poly:
                lines.append(f"{snap.t!r},{p},{float(xp)!r},{float(yp)!r}")
        (iface_dir / f"{k:04d}.csv").write_text("\n".join(lines) + "\n", "utf-8")

    if config.output.dump_fields:
        fdir = out / "fields"
        fdir.mkdir(exist_ok=True)
        for k, snap in enumerate(record.snapshots):
            write_field_csv(fdir / f"u_{k:04d}.csv", snap.state.u)

    record.write_report_json(out / "report.json", extra=extra_report)
    return out


# -- arc benchmark ---------------------------------------------------------------


def _oracle_t_end(config: RunConfig) -> float:
    return min(config.schedule.t_end, sharp.DEFAULT_ORACLE_T_MAX)


def _oracle_run(config: RunConfig, sigma: float):
    """The front-tracking oracle on the graded sigma-arc up to the oracle
    end time: its `FrontHistory` and error table against the closed form."""
    front = sharp.make_arc_front(sigma, config.experiment.oracle_nodes, grade_count=2)
    hist = sharp.evolve_front(
        front, sigma, _oracle_t_end(config), dt=config.experiment.oracle_dt,
        record_every=200,
    )
    return hist, sharp.compare_to_exact(hist, sigma)


def _contact_pair(ext: InterfaceExtract, y_cut: float) -> tuple[float, float] | None:
    pts = ext.all_points()
    if pts.shape[0] == 0:
        return None
    near = pts[pts[:, 1] < y_cut]
    if near.shape[0] < 2:
        return None
    return float(np.min(near[:, 0])), float(np.max(near[:, 0]))


def smoothed_derivative(t: np.ndarray, x: np.ndarray, half_width: int = 6) -> np.ndarray:
    """Derivative of noisy samples by local quadratic fits."""
    out = np.full_like(x, np.nan)
    n = len(t)
    for k in range(n):
        lo = max(0, k - half_width)
        hi = min(n, k + half_width + 1)
        if hi - lo < 5:
            continue
        tt = t[lo:hi] - t[k]
        coef = np.polyfit(tt, x[lo:hi], 2)
        out[k] = coef[1]
    return out


def arc_benchmark(config: RunConfig) -> tuple[RunRecord, dict]:
    """Run the phase-field arc, extract/fit the interface per snapshot,
    measure contact points (interface points with y below two grid
    spacings) and their velocity, and compare against both the closed
    forms and the front-tracking oracle."""
    sigma = config.physics.sigma
    eps = config.physics.eps
    record = run_single(config)
    grid = record.snapshots[0].state.grid
    y_cut = 2.0 * grid.hy

    times = record.times()
    radius_fit = np.full_like(times, np.nan)
    radius_exact = np.empty_like(times)
    contact_left = np.full_like(times, np.nan)
    contact_right = np.full_like(times, np.nan)
    contact_exact_l = np.full_like(times, np.nan)
    contact_exact_r = np.full_like(times, np.nan)
    for k, snap in enumerate(record.snapshots):
        sol = sharp.arc_exact(sigma, float(times[k]))
        radius_exact[k] = sol.r
        ext = extract_interface(snap.state.u, fit=True)
        if ext.circle is not None:
            radius_fit[k] = ext.circle[2]
        pair = _contact_pair(ext, y_cut)
        if pair is not None:
            contact_left[k], contact_right[k] = pair
        if sol.contacts_exist:
            contact_exact_l[k] = sol.x0
            contact_exact_r[k] = sol.x1

    radius_err = np.abs(radius_fit - radius_exact)
    contact_err = np.maximum(
        np.abs(contact_left - contact_exact_l), np.abs(contact_right - contact_exact_r)
    )

    v_left = smoothed_derivative(times, contact_left)
    v_right = -smoothed_derivative(times, contact_right)
    v_meas = 0.5 * (v_left + v_right)
    v_exact = np.array(
        [
            1.0 / math.sqrt(1.0 - 2.0 * t) if t < 0.5 else np.nan
            for t in times
        ]
    )
    v_rel_err = np.abs(v_meas - v_exact) / v_exact

    t1 = config.experiment.window_t1 if config.experiment.window_t1 is not None else 0.05
    t2 = config.experiment.window_t2 if config.experiment.window_t2 is not None else 0.25
    w = (times >= t1) & (times <= t2)

    # oracle comparison at the recorded times
    hist, tab = _oracle_run(config, sigma)
    o_times = np.asarray(hist.times)
    o_left = np.array([f[0, 0] for f in hist.fronts])
    in_oracle = times <= o_times[-1] + 1e-12
    oracle_contact_diff = np.abs(
        np.interp(times[in_oracle], o_times, o_left) - contact_left[in_oracle]
    )

    def finite_max(a):
        vals = a[np.isfinite(a)]
        return float(np.max(vals)) if vals.size else float("nan")

    radius_err_max = finite_max(radius_err)
    contact_err_max = finite_max(contact_err)
    vel_err_max = finite_max(v_rel_err[w])
    report = {
        "sigma": sigma,
        "eps": eps,
        "times": times.tolist(),
        "radius_fit": radius_fit.tolist(),
        "radius_exact": radius_exact.tolist(),
        "radius_err_max": radius_err_max,
        "contact_err_max": contact_err_max,
        "velocity_window": [t1, t2],
        "velocity_rel_err_max": vel_err_max,
        "oracle_radius_err_max": float(np.max(tab.radius_error)),
        "oracle_contact_diff_max": finite_max(oracle_contact_diff),
        "checks": {
            "radius_within_3eps": bool(radius_err_max <= 3.0 * eps),
            "contact_within_3eps": bool(contact_err_max <= 3.0 * eps),
            "velocity_within_10pct": bool(vel_err_max <= 0.10),
        },
    }
    return record, report


# -- sweeps ---------------------------------------------------------------------


def _run_child(args):
    value, child = args
    return value, run_single(child)


def sweep(
    config: RunConfig, threads: int = 1
) -> tuple[list[tuple[float, RunRecord]], dict]:
    """Execute the sweep children (worker pool when threads > 1) and
    tabulate the windowed diagnostics per parameter value."""
    children = child_configs(config)
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_child, children))
    else:
        results = [_run_child(c) for c in children]
    report = sweep_report(config, results)
    return results, report


def sweep_report(
    config: RunConfig, results: list[tuple[float, RunRecord]]
) -> dict:
    """Per-value windowed integrals plus log-log slopes across the sweep."""
    if not results:
        raise UsageError("empty sweep")
    meta0 = {
        k: results[0][1].meta.get(k) for k in ("nx", "ny")
    }
    for _, rec in results[1:]:
        if {k: rec.meta.get(k) for k in ("nx", "ny")} != meta0:
            raise UsageError("sweep records have inconsistent grids")

    t_end = config.schedule.t_end
    t1 = (
        config.experiment.window_t1
        if config.experiment.window_t1 is not None
        else 0.25 * t_end
    )
    t2 = (
        config.experiment.window_t2
        if config.experiment.window_t2 is not None
        else 0.75 * t_end
    )
    specs = config.experiment.test_fields or DEFAULT_SWEEP_FIELDS
    fields = [vector_field_from_spec(s) for s in specs]

    rows = []
    for value, rec in results:
        row = {
            "value": value,
            "xi_window": measures.discrepancy_window(rec, t1, t2),
            "alpha_window": measures.alpha_window(rec, t1, t2),
            "boundary_energy_window": measures.boundary_energy_window(rec, t1, t2),
            "normal_dirichlet_window": measures.normal_dirichlet_energy_window(
                rec, t1, t2
            ),
        }
        for spec, fld in zip(specs, fields):
            row[f"bf[{spec}]"] = boundary_functional(rec, fld, t1, t2)
        rows.append(row)

    def loglog_slope(xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = (xs > 0) & (ys > 0)
        if keep.sum() < 2:
            return None
        return float(np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)[0])

    values = [r["value"] for r in rows]
    report = {
        "mode": config.experiment.mode,
        "window": [t1, t2],
        "rows": rows,
        "slopes": {
            "normal_dirichlet": loglog_slope(
                values, [r["normal_dirichlet_window"] for r in rows]
            ),
            "xi": loglog_slope(values, [r["xi_window"] for r in rows]),
        },
    }
    for spec in specs:
        report["slopes"][f"bf[{spec}]"] = loglog_slope(
            values, [abs(r[f"bf[{spec}]"]) for r in rows]
        )
    return report


def write_sweep_outputs(
    config: RunConfig,
    results: list[tuple[float, RunRecord]],
    report: dict,
    out_dir: str | Path,
) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for (value, rec), (_, child) in zip(results, child_configs(config)):
        write_run_outputs(child, rec, child.output.dir)
    rows = report["rows"]
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(repr(r[c]) for c in cols))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", "utf-8")
    (out / "sweep.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", "utf-8"
    )
    return out


# -- oracle ----------------------------------------------------------------------


def oracle(config: RunConfig) -> dict:
    """Front-tracking oracle runs for sigma (or the sweep list), with
    error tables against the closed-form arc."""
    sigmas = config.experiment.sigma_list or (config.physics.sigma,)
    if any(s is None for s in sigmas):
        raise UsageError("oracle mode needs physics.sigma or experiment.sigma_list")
    out = {"t_end": _oracle_t_end(config), "runs": []}
    for s in sigmas:
        _, tab = _oracle_run(config, s)
        m = np.isfinite(tab.contact_error)
        out["runs"].append(
            {
                "sigma": s,
                "radius_err_max": float(np.max(tab.radius_error)),
                "contact_err_max": float(np.max(tab.contact_error[m])),
                "velocity_rel_err_max": float(np.max(tab.velocity_rel_error)),
                "times": tab.times.tolist(),
                "velocity_times": tab.velocity_times.tolist(),
                "velocity_measured": tab.velocity_measured.tolist(),
            }
        )
    return out


def write_oracle_outputs(config: RunConfig, report: dict, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "oracle.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", "utf-8"
    )
    for entry in report["runs"]:
        lines = ["t,velocity_measured"]
        for t, v in zip(entry["velocity_times"], entry["velocity_measured"]):
            lines.append(f"{t!r},{v!r}")
        (out / f"oracle_velocity_sigma_{entry['sigma']:g}.csv").write_text(
            "\n".join(lines) + "\n", "utf-8"
        )
    return out


# -- report re-checks -------------------------------------------------------------


def check_run_dir(out_dir: str | Path) -> list[str]:
    """Re-evaluate the universal acceptance checks of a finished run
    directory; returns the list of failures (empty = pass)."""
    out = Path(out_dir)
    failures = []
    series = out / "series.csv"
    if not series.exists():
        return [f"{series} missing"]
    rows = series.read_text("utf-8").strip().split("\n")
    header = rows[0].split(",")
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    col = {name: k for k, name in enumerate(header)}
    max_abs_u = data[:, col["max_abs_u"]]
    if np.any(max_abs_u > 1.0 + 1e-12):
        failures.append(f"max|u| reached {np.max(max_abs_u):.15g} > 1 + 1e-12")
    energy = data[:, col["E"]]
    rises = np.diff(energy)
    slack = 1e-10 * np.maximum(energy[:-1], 1.0)
    if np.any(rises > slack):
        failures.append(f"energy increased by {np.max(rises):.3e}")
    report = out / "report.json"
    if report.exists():
        payload = json.loads(report.read_text("utf-8"))
        checks = payload.get("checks", {})
        for name, ok in checks.items():
            if not ok:
                failures.append(f"benchmark check failed: {name}")
    return failures

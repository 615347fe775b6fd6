"""Correctness checks computed apart from the program.

Each check takes plain data (parsed output files, arrays, numbers) and
returns a list of failure messages; an empty list means it passed. The
benchmark reads no coordinates from ``interface/*.csv``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

TIME_TOL = 1e-9


def split_header(line: str) -> list[str]:
    """Column names split at commas outside brackets: `sweep.csv` names
    its boundary-functional columns ``bf[<spec>]`` with the spec's
    commas unquoted."""
    names, depth, cur = [], 0, ""
    for ch in line.strip():
        depth += {"[": 1, "]": -1}.get(ch, 0)
        if ch == "," and depth == 0:
            names.append(cur)
            cur = ""
        else:
            cur += ch
    return names + [cur]


def read_csv(path: Path) -> dict[str, list[float]]:
    """Columns of a numeric CSV file with a header row."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = split_header(fh.readline())
        body = list(csv.reader(fh))
    if any(len(r) != len(header) for r in body):
        raise ValueError(f"{path}: rows do not match the {len(header)} header names")
    return {name: [float(r[k]) for r in body] for k, name in enumerate(header)}


def check_series(series: dict[str, list[float]], times: list[float]) -> list[str]:
    """Scheme properties of a `series.csv`: max|u| <= 1 + 1e-12,
    E nonincreasing within 1e-10 * max(E, 1), and one row per expected
    snapshot time."""
    fails = []
    if len(series["t"]) != len(times):
        fails.append(f"{len(series['t'])} rows, expected {len(times)} snapshots")
    elif any(abs(a - b) > TIME_TOL for a, b in zip(series["t"], times)):
        fails.append("snapshot times differ from the schedule")
    worst = max(series["max_abs_u"])
    if worst > 1.0 + 1e-12:
        fails.append(f"max|u| reached {worst!r}")
    e = series["E"]
    for k in range(1, len(e)):
        if e[k] - e[k - 1] > 1e-10 * max(e[k - 1], 1.0):
            fails.append(f"E rose by {e[k] - e[k - 1]:.3e} at row {k}")
            break
    return fails


def zero_crossings(x: np.ndarray, u: np.ndarray) -> list[float]:
    """Sign changes of u along x, placed by linear interpolation."""
    out = []
    for i in range(len(u) - 1):
        if (u[i] >= 0.0) != (u[i + 1] >= 0.0):
            out.append(float(x[i] + u[i] / (u[i] - u[i + 1]) * (x[i + 1] - x[i])))
    return out


def check_standing_wave(
    series: dict[str, list[float]], x: np.ndarray, u: np.ndarray, x_star: float
) -> list[str]:
    """The layer stays at x_star, within one cell, and keeps its profile:
    one flat interface's energy, discrepancy at the floor, and
    antisymmetry about x_star at roundoff."""
    fails = []
    h = float(x[1] - x[0])
    cross = zero_crossings(x, u)
    if len(cross) != 1 or abs(cross[0] - x_star) > h:
        fails.append(f"final zero crossings {cross}, expected one within {h} of {x_star}")
    ratio = series["xi_abs"][-1] / series["E"][-1]
    if not ratio <= 1e-3:
        fails.append(f"final xi_abs/E = {ratio:.3e} > 1e-3")
    worst = max(abs(v - 1.0) for v in series["E_over_sigma0"])
    if not worst <= 0.01:
        fails.append(f"E_over_sigma0 strays {worst:.3e} from 1")
    i = int(round((x_star - x[0]) / h))
    m = min(i, len(u) - 1 - i)
    if abs(x[i] - x_star) > 1e-9 * h:
        fails.append(f"x_star {x_star} is not a node")
    else:
        odd = float(np.max(np.abs(u[i + 1 : i + m + 1] + u[i - 1 :: -1][:m])))
        if not odd <= 1e-12:
            fails.append(f"u(x*+s) + u(x*-s) reaches {odd:.3e}")
    return fails


def check_arc(
    report: dict, times: list[float], bottom_rows: list[np.ndarray], x: np.ndarray,
    eps: float, sigma: float,
) -> list[str]:
    """The shrinking arc against its closed form: fitted radius
    sqrt(1 + 1/sigma^2 - 2t), bottom-row contacts 1 -+ sqrt(1 - 2t), and
    the phase field's contact against the front-tracking oracle, each
    within 3 eps."""
    fails = []
    tol = 3.0 * eps
    bench = report["benchmark"]
    if any(abs(a - b) > TIME_TOL for a, b in zip(bench["times"], times)) or len(
        bench["times"]
    ) != len(times):
        fails.append("report times differ from the schedule")
    fitted = [(t, r) for t, r in zip(bench["times"], bench["radius_fit"]) if math.isfinite(r)]
    if not fitted:
        fails.append("no fitted radius")
    for t, r in fitted:
        exact = math.sqrt(1.0 + 1.0 / sigma**2 - 2.0 * t)
        if abs(r - exact) > tol:
            fails.append(f"radius_fit {r:.6g} at t={t:.6g}, closed form {exact:.6g}")
            break
    for t, row in zip(times, bottom_rows):
        s = math.sqrt(1.0 - 2.0 * t)
        cross = zero_crossings(x, row)
        if len(cross) != 2 or abs(cross[0] - (1.0 - s)) > tol or abs(cross[1] - (1.0 + s)) > tol:
            fails.append(f"bottom-row contacts {cross} at t={t:.6g}, closed form 1 -+ {s:.6g}")
            break
    diff = bench["oracle_contact_diff_max"]
    if not diff <= tol:
        fails.append(f"oracle_contact_diff_max {diff!r} > 3 eps")
    return fails


def window_trapezoid(t: list[float], v: list[float], t1: float, t2: float) -> float:
    idx = [k for k, tk in enumerate(t) if t1 - 1e-12 <= tk <= t2 + 1e-12]
    return sum(
        0.5 * (t[b] - t[a]) * (v[a] + v[b]) for a, b in zip(idx, idx[1:])
    )


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    lx = [math.log(v) for v in xs]
    ly = [math.log(v) for v in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    return num / sum((a - mx) ** 2 for a in lx)


def check_sweep(
    sweep_json: dict,
    sweep_csv: dict[str, list[float]],
    child_series: dict[float, dict[str, list[float]]],
    window: tuple[float, float],
) -> list[str]:
    """The frozen-trace limit of the sigma sweep: each child's windowed
    normal Dirichlet energy, recomputed from its series, matches
    `sweep.json` and rises as sigma drops with log-log slope <= -0.8;
    every boundary functional in `sweep.csv` falls in magnitude as sigma
    drops, by at least 5x over the sweep."""
    fails = []
    rows = {r["value"]: r for r in sweep_json["rows"]}
    if sorted(rows) != sorted(child_series):
        return [f"sweep.json values {sorted(rows)} differ from the children"]
    sigmas = sorted(child_series, reverse=True)
    energies = []
    for s in sigmas:
        ser = child_series[s]
        mine = window_trapezoid(ser["t"], ser["normal_dirichlet_energy"], *window)
        theirs = rows[s]["normal_dirichlet_window"]
        if not abs(mine - theirs) <= 1e-12 * abs(mine):
            fails.append(f"sigma={s}: window energy {theirs!r}, recomputed {mine!r}")
        energies.append(mine)
    if any(b <= a for a, b in zip(energies, energies[1:])):
        fails.append(f"window energies {energies} do not rise as sigma drops")
    elif loglog_slope(sigmas, energies) > -0.8:
        fails.append(f"log-log slope {loglog_slope(sigmas, energies):.3f} > -0.8")
    order = sorted(range(len(sweep_csv["value"])), key=lambda k: -sweep_csv["value"][k])
    bf_cols = [c for c in sweep_csv if c.startswith("bf[")]
    if not bf_cols:
        fails.append("sweep.csv has no boundary functional")
    for c in bf_cols:
        mags = [abs(sweep_csv[c][k]) for k in order]
        if any(b > a for a, b in zip(mags, mags[1:])) or not mags[0] >= 5.0 * mags[-1]:
            fails.append(f"{c} magnitudes {mags} do not fall 5x as sigma drops")
    return fails


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Every file under root, by relative path."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }

"""Persisted time series of a run: snapshots, scalar series, CSV/JSON.

A `RunRecord` holds the `measures.Snapshot`s that `measures.observe`
builds and reads its series by the `measures.SERIES_COLUMNS` names;
`measures.window_integral` integrates one of them over a time window.
No bulk velocity field is kept: `measures.normal_velocity` builds it
from a snapshot's state on request.
CSV numbers use ``repr`` (shortest round-trip float form), so identical
configs produce byte-identical files; nothing wall-clock dependent is
written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import UsageError
from .measures import SERIES_COLUMNS, Snapshot, observe
from .solver import PhaseState


@dataclass
class RunRecord:
    """Snapshots of a single run with strictly increasing times."""

    snapshots: list[Snapshot] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @classmethod
    def start(cls, state: PhaseState) -> "RunRecord":
        rec = cls()
        rec.append(observe(state))
        return rec

    def append(self, snap: Snapshot) -> None:
        if self.snapshots and snap.state.t <= self.snapshots[-1].state.t:
            raise UsageError("snapshot times must be strictly increasing")
        self.snapshots.append(snap)

    def times(self) -> np.ndarray:
        return np.array([s.state.t for s in self.snapshots])

    def series(self, column: str) -> np.ndarray:
        if column not in SERIES_COLUMNS:
            raise UsageError(f"unknown series column {column!r}")
        return np.array([s.scalars[column] for s in self.snapshots])

    def snapshot_near(self, t: float) -> Snapshot:
        times = self.times()
        i = int(np.argmin(np.abs(times - t)))
        return self.snapshots[i]

    # -- persistence ----------------------------------------------------------

    def series_csv_text(self) -> str:
        lines = [",".join(SERIES_COLUMNS)]
        for s in self.snapshots:
            lines.append(",".join(repr(float(s.scalars[c])) for c in SERIES_COLUMNS))
        return "\n".join(lines) + "\n"

    def write_series_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.series_csv_text(), encoding="utf-8")

    def summary(self) -> dict:
        t = self.times()
        out = {
            "snapshots": len(self.snapshots),
            "t_first": float(t[0]),
            "t_last": float(t[-1]),
        }
        for c in ("E", "xi_abs", "alpha_total", "max_abs_u"):
            vals = self.series(c)
            out[f"{c}_first"] = float(vals[0])
            out[f"{c}_last"] = float(vals[-1])
            out[f"{c}_max"] = float(np.max(vals))
        res = self.series("dissipation_residual")
        res = res[~np.isnan(res)]
        out["dissipation_residual_max_abs"] = (
            float(np.max(np.abs(res))) if res.size else None
        )
        return out

    def write_report_json(self, path: str | Path, extra: dict | None = None) -> None:
        payload = {"summary": self.summary(), "meta": self.meta}
        if extra:
            payload.update(extra)
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def write_field_csv(path: str | Path, state_field, grid=None) -> None:
    """Field dump: one header line ``nx,ny,hx,hy,x0,y0`` then row-major
    values, one per line."""
    g = state_field.grid if grid is None else grid
    vals = state_field.values if hasattr(state_field, "values") else state_field
    header = ",".join(
        repr(v) for v in (g.nx, g.ny, g.hx, g.hy, g.origin[0], g.origin[1])
    )
    lines = [header]
    lines.extend(repr(float(v)) for v in np.asarray(vals).ravel(order="C"))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_field_csv(path: str | Path):
    """Inverse of `write_field_csv`: returns (grid, values)."""
    from .grid import Grid2D

    text = Path(path).read_text(encoding="utf-8").strip().split("\n")
    nx_s, ny_s, hx_s, hy_s, x0_s, y0_s = text[0].split(",")
    nx, ny = int(float(nx_s)), int(float(ny_s))
    grid = Grid2D(
        nx=nx, ny=ny, hx=float(hx_s), hy=float(hy_s), origin=(float(x0_s), float(y0_s))
    )
    vals = np.array([float(v) for v in text[1:]]).reshape(nx, ny)
    return grid, vals

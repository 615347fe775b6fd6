"""Zero-level-set extraction by marching squares with linear edge
interpolation, polyline assembly, and an algebraic circle fit.

Intersection points lie on grid edges where the nodal values change
sign; along an edge the linear interpolant vanishes exactly at the
returned point.  Segments are keyed by their edge ids, so chaining into
polylines needs no floating-point point matching.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..errors import UsageError
from ..grid import ScalarField2D


@dataclass
class InterfaceExtract:
    """Zero-level polylines, each an (n, 2) array."""

    polylines: list[np.ndarray]

    @property
    def empty(self) -> bool:
        return not self.polylines

    def all_points(self) -> np.ndarray:
        if self.empty:
            return np.zeros((0, 2))
        return np.vstack(self.polylines)


def _edge_point(xa, ya, va, xb, yb, vb):
    t = va / (va - vb)
    return (xa + t * (xb - xa), ya + t * (yb - ya))


# case table: for each 4-bit corner sign pattern (v00, v10, v11, v01 >= 0),
# the pairs of cell edges joined by a contour segment.  Edges per cell:
# 0 bottom (00-10), 1 right (10-11), 2 top (01-11), 3 left (00-01).
_CASES: dict[int, tuple[tuple[int, int], ...]] = {
    0b0000: (),
    0b1111: (),
    0b0001: ((0, 3),),
    0b1110: ((0, 3),),
    0b0010: ((0, 1),),
    0b1101: ((0, 1),),
    0b0100: ((1, 2),),
    0b1011: ((1, 2),),
    0b1000: ((2, 3),),
    0b0111: ((2, 3),),
    0b0011: ((1, 3),),
    0b1100: ((1, 3),),
    0b0110: ((0, 2),),
    0b1001: ((0, 2),),
    # the two saddles, resolved by the cell-center average
    0b0101: None,
    0b1010: None,
}


def extract_interface(f: ScalarField2D) -> InterfaceExtract:
    """Marching squares on the zero level of f.

    No sign change anywhere yields an empty extract (not an error).
    """
    g = f.grid
    if g.is_1d:
        return _extract_1d(f)
    u = f.values
    x = g.x()
    y = g.y()

    segments: list[tuple[tuple, tuple]] = []
    points: dict[tuple, tuple[float, float]] = {}

    pos = u >= 0.0
    sign_change_x = pos[:-1, :] != pos[1:, :]
    sign_change_y = pos[:, :-1] != pos[:, 1:]
    cells = (
        sign_change_x[:, :-1]
        | sign_change_x[:, 1:]
        | sign_change_y[:-1, :]
        | sign_change_y[1:, :]
    )
    ii, jj = np.nonzero(cells)

    for i, j in zip(ii, jj):
        v00 = u[i, j]
        v10 = u[i + 1, j]
        v11 = u[i + 1, j + 1]
        v01 = u[i, j + 1]
        code = (
            (1 if v00 >= 0 else 0)
            | ((1 if v10 >= 0 else 0) << 1)
            | ((1 if v11 >= 0 else 0) << 2)
            | ((1 if v01 >= 0 else 0) << 3)
        )
        pairs = _CASES[code]
        if pairs is None:
            center_pos = (v00 + v10 + v11 + v01) >= 0
            if code == 0b0101:
                pairs = ((0, 1), (2, 3)) if center_pos else ((0, 3), (1, 2))
            else:
                pairs = ((0, 3), (1, 2)) if center_pos else ((0, 1), (2, 3))
        if not pairs:
            continue

        edge_keys = {}
        edge_pts = {}

        def edge(k):
            if k in edge_keys:
                return edge_keys[k], edge_pts[k]
            if k == 0:
                key = ("h", i, j)
                pt = _edge_point(x[i], y[j], v00, x[i + 1], y[j], v10)
            elif k == 1:
                key = ("v", i + 1, j)
                pt = _edge_point(x[i + 1], y[j], v10, x[i + 1], y[j + 1], v11)
            elif k == 2:
                key = ("h", i, j + 1)
                pt = _edge_point(x[i], y[j + 1], v01, x[i + 1], y[j + 1], v11)
            else:
                key = ("v", i, j)
                pt = _edge_point(x[i], y[j], v00, x[i], y[j + 1], v01)
            edge_keys[k] = key
            edge_pts[k] = pt
            return key, pt

        for a, b in pairs:
            ka, pa = edge(a)
            kb, pb = edge(b)
            points[ka] = pa
            points[kb] = pb
            segments.append((ka, kb))

    return InterfaceExtract(polylines=_chain(segments, points))


def _extract_1d(f: ScalarField2D) -> InterfaceExtract:
    u = f.values[:, 0]
    x = f.grid.x()
    pos = u >= 0
    out = []
    for i in np.nonzero(pos[:-1] != pos[1:])[0]:
        t = u[i] / (u[i] - u[i + 1])
        out.append(np.array([[x[i] + t * (x[i + 1] - x[i]), 0.0]]))
    return InterfaceExtract(polylines=out)


def _chain(segments, points) -> list[np.ndarray]:
    """Join edge-keyed segments into polylines: open chains first (from
    degree-1 edges), then closed loops."""
    if not segments:
        return []
    adj = defaultdict(list)
    for a, b in segments:
        adj[a].append(b)
        adj[b].append(a)
    visited = set()
    polylines = []

    def walk(start):
        chain = [start]
        cur = start
        prev = None
        while True:
            nxt = None
            for cand in adj[cur]:
                if cand != prev and (min(cur, cand), max(cur, cand)) not in visited:
                    nxt = cand
                    break
            if nxt is None:
                break
            visited.add((min(cur, nxt), max(cur, nxt)))
            chain.append(nxt)
            prev, cur = cur, nxt
            if cur == start:
                break
        return chain

    for key in sorted(adj):
        if len(adj[key]) == 1:
            if all((min(key, o), max(key, o)) in visited for o in adj[key]):
                continue
            chain = walk(key)
            if len(chain) > 1:
                polylines.append(np.array([points[k] for k in chain]))
    for key in sorted(adj):
        remaining = [o for o in adj[key] if (min(key, o), max(key, o)) not in visited]
        if remaining:
            chain = walk(key)
            if len(chain) > 1:
                polylines.append(np.array([points[k] for k in chain]))
    return polylines


def fit_circle(points: np.ndarray) -> tuple[float, float, float]:
    """Algebraic least-squares circle (Kasa fit): linear in center and
    radius via x^2 + y^2 = 2 a x + 2 b y + c."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 3:
        raise UsageError("need at least 3 points to fit a circle")
    x, y = pts[:, 0], pts[:, 1]
    a_mat = np.column_stack([2.0 * x, 2.0 * y, np.ones_like(x)])
    rhs = x * x + y * y
    (cx, cy, c), *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    r2 = c + cx * cx + cy * cy
    return float(cx), float(cy), float(np.sqrt(max(r2, 0.0)))

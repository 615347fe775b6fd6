"""Named test-field catalog for configs: fields are referenced as
``name:key=val,key=val`` strings, never as code.

Vector fields:
    const:dx=1,dy=0
    xbump:cx=1.0,w=1.5            (1,0) * cos^2 bump in x, constant in y
    ybump:cy=0.5,w=0.5            (0,1) * cos^2 bump in y, constant in x
    bump:dx=1,dy=0,cx=..,cy=..,wx=..,wy=..   direction * separable bumps
    dilation:cx=..,cy=..,wx=..,wy=..

Scalar fields (Brakke test functions):
    one
    plateau:xlo=..,xhi=..,xroll=..,ylo=..,yhi=..,yroll=..
    gauss:cx=..,cy=..,s=..
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError
from ..varifold import (
    ScalarTestField,
    VectorTestField,
    Window1D,
    bump1d,
    scalar_constant,
    scalar_window,
    vec_constant,
    vec_dilation,
    vec_separable,
)

EVERYWHERE = Window1D(float("-inf"), float("inf"), 0.0, 0.0)

# the parameters each field reads; a width must be positive and a roll
# nonnegative, since `Window1D` reads a nonpositive width as an unbounded
# plateau and builds a different field without a word
_VECTOR_KEYS = {
    "const": ("dx", "dy"),
    "xbump": ("cx", "w"),
    "ybump": ("cy", "w"),
    "bump": ("dx", "dy", "cx", "cy", "wx", "wy"),
    "dilation": ("cx", "cy", "wx", "wy"),
}
_SCALAR_KEYS = {
    "one": (),
    "plateau": ("xlo", "xhi", "xroll", "ylo", "yhi", "yroll"),
    "gauss": ("cx", "cy", "s"),
}
_POSITIVE = ("w", "wx", "wy", "s")
_NONNEGATIVE = ("xroll", "yroll")


class _Params(dict):
    """The parameters of one spec; reading a required one that the spec
    does not give raises a `ConfigurationError` naming it."""

    def __init__(self, spec: str):
        super().__init__()
        self.spec = spec

    def __missing__(self, key: str) -> float:
        raise ConfigurationError(f"test field {self.spec!r} needs parameter {key!r}")


def _parse_spec(spec: str, catalog: dict, kind: str) -> tuple[str, _Params]:
    """The field name and parameters of a spec, refusing an unknown name
    and any parameter the field would not read as written."""
    name, _, raw = spec.partition(":")
    name = name.strip()
    if name not in catalog:
        raise ConfigurationError(f"unknown {kind} test field {name!r}")
    params = _Params(spec)
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        key, _, val = tok.partition("=")
        key = key.strip()
        try:
            value = float(val)
        except ValueError as exc:
            raise ConfigurationError(f"bad test-field parameter {tok!r}") from exc
        if key not in catalog[name]:
            problem = "unknown"
        elif key in params:
            problem = "repeated"
        elif not math.isfinite(value):
            problem = "non-finite"
        elif key in _POSITIVE and not value > 0:
            problem = "nonpositive"
        elif key in _NONNEGATIVE and value < 0:
            problem = "negative"
        else:
            params[key] = value
            continue
        raise ConfigurationError(f"test field {spec!r} has {problem} parameter {key!r}")
    return name, params


def vector_field_from_spec(spec: str) -> VectorTestField:
    name, p = _parse_spec(spec, _VECTOR_KEYS, "vector")
    if name == "const":
        return vec_constant(p.get("dx", 1.0), p.get("dy", 0.0), name=spec)
    if name == "xbump":
        return vec_separable(
            (1.0, 0.0), bump1d(p["cx"], p["w"]), EVERYWHERE, name=spec
        )
    if name == "ybump":
        return vec_separable(
            (0.0, 1.0), EVERYWHERE, bump1d(p["cy"], p["w"]), name=spec
        )
    if name == "bump":
        return vec_separable(
            (p.get("dx", 1.0), p.get("dy", 0.0)),
            bump1d(p["cx"], p["wx"]),
            bump1d(p["cy"], p["wy"]),
            name=spec,
        )
    return vec_dilation(
        (p["cx"], p["cy"]),
        bump1d(p["cx"], p["wx"]),
        bump1d(p["cy"], p["wy"]),
        name=spec,
    )


def scalar_field_from_spec(spec: str) -> ScalarTestField:
    name, p = _parse_spec(spec, _SCALAR_KEYS, "scalar")
    if name == "one":
        return scalar_constant(1.0, name=spec)
    if name == "plateau":
        wx = Window1D(p["xlo"], p["xhi"], p.get("xroll", 0.0), p.get("xroll", 0.0))
        wy = Window1D(p["ylo"], p["yhi"], p.get("yroll", 0.0), p.get("yroll", 0.0))
        return scalar_window(wx, wy, name=spec)
    from ..varifold import scalar_gauss

    return scalar_gauss(p["cx"], p["cy"], p["s"], name=spec)


# Asymmetric by design: fields that pair symmetrically with the arc's two
# contacts (their velocities are opposite) integrate to roundoff zero.
DEFAULT_SWEEP_FIELDS = ("xbump:cx=0.2,w=0.8", "dilation:cx=1.0,cy=0.0,wx=1.2,wy=0.8")

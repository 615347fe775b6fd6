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


class _Params(dict):
    """The parameters of one spec; reading a required one that the spec
    does not give raises a `ConfigurationError` naming it."""

    def __init__(self, spec: str):
        super().__init__()
        self.spec = spec

    def __missing__(self, key: str) -> float:
        raise ConfigurationError(f"test field {self.spec!r} needs parameter {key!r}")


def _parse_spec(spec: str) -> tuple[str, _Params]:
    name, _, raw = spec.partition(":")
    params = _Params(spec)
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        key, _, val = tok.partition("=")
        try:
            params[key.strip()] = float(val)
        except ValueError as exc:
            raise ConfigurationError(f"bad test-field parameter {tok!r}") from exc
    return name.strip(), params


def vector_field_from_spec(spec: str) -> VectorTestField:
    name, p = _parse_spec(spec)
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
    if name == "dilation":
        return vec_dilation(
            (p["cx"], p["cy"]),
            bump1d(p["cx"], p["wx"]),
            bump1d(p["cy"], p["wy"]),
            name=spec,
        )
    raise ConfigurationError(f"unknown vector test field {name!r}")


def scalar_field_from_spec(spec: str) -> ScalarTestField:
    name, p = _parse_spec(spec)
    if name == "one":
        return scalar_constant(1.0, name=spec)
    if name == "plateau":
        wx = Window1D(p["xlo"], p["xhi"], p.get("xroll", 0.0), p.get("xroll", 0.0))
        wy = Window1D(p["ylo"], p["yhi"], p.get("yroll", 0.0), p.get("yroll", 0.0))
        return scalar_window(wx, wy, name=spec)
    if name == "gauss":
        from ..varifold import scalar_gauss

        return scalar_gauss(p["cx"], p["cy"], p["s"], name=spec)
    raise ConfigurationError(f"unknown scalar test field {name!r}")


# Asymmetric by design: fields that pair symmetrically with the arc's two
# contacts (their velocities are opposite) integrate to roundoff zero.
DEFAULT_SWEEP_FIELDS = ("xbump:cx=0.2,w=0.8", "dilation:cx=1.0,cy=0.0,wx=1.2,wy=0.8")

"""Run configuration: INI-style sectioned text, documented in the README.

Sections: [grid] extents and node counts, [physics] eps / per-face laws /
sigma, [initial] interface descriptor, [schedule] t_end / cadence /
safety / optional dt, [experiment] mode and sweep lists, [output]
directory and dump flags.  Validation collects every violation (with its
key path) before failing; float values must be finite.  No code is ever embedded in a config; test
fields are referenced by catalog name plus parameters, and each one is
built while parsing, so a bad spec fails with the other violations.
Values are plain strings: a ``%`` is never interpolated.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..errors import ConfigurationError
from ..grid import Face, Grid2D
from ..solver import (
    BoundaryLaw,
    CircleArc,
    DirichletFrozen,
    Dynamic,
    Halfspace,
    InterfaceDescriptor,
    Line1D,
    NeumannZeroFlux,
    PhaseState,
    init_profile,
)
from .catalog import vector_field_from_spec

MODES = ("run", "sweep-eps", "sweep-sigma", "arc-benchmark", "oracle")
LAW_NAMES = ("dynamic", "dirichlet", "neumann")


@dataclass(frozen=True)
class GridConfig:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int


@dataclass(frozen=True)
class PhysicsConfig:
    eps: float
    laws: tuple[tuple[Face, str], ...]
    sigma: float | None = None


@dataclass(frozen=True)
class InitialConfig:
    kind: str
    params: tuple[tuple[str, float], ...] = ()

    def get(self, key: str, default: float | None = None) -> float | None:
        return dict(self.params).get(key, default)


@dataclass(frozen=True)
class ScheduleConfig:
    t_end: float
    cadence: int = 100
    safety: float = 0.5
    dt: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "run"
    eps_list: tuple[float, ...] = ()
    sigma_list: tuple[float, ...] = ()
    window_t1: float | None = None
    window_t2: float | None = None
    test_fields: tuple[str, ...] = ()
    oracle_nodes: int = 200
    oracle_dt: float | None = None


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
    dump_fields: bool = False


@dataclass(frozen=True)
class RunConfig:
    grid: GridConfig
    physics: PhysicsConfig
    initial: InitialConfig
    schedule: ScheduleConfig
    experiment: ExperimentConfig
    output: OutputConfig
    source_text: str = ""

    def is_1d(self) -> bool:
        return self.grid.ny == 1


def _parser_from_text(text: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    cp.read_string(text)
    return cp


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(";", ",").split(",") if tok.strip())


def parse_config_text(text: str) -> RunConfig:
    """Parse and validate; raises `ConfigurationError` carrying every
    violation, not just the first."""
    problems: list[str] = []

    try:
        cp = _parser_from_text(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"unparseable config: {exc}") from exc

    def need(section: str, key: str, conv, default=None, required=True):
        if not cp.has_section(section) or not cp.has_option(section, key):
            if required and default is None:
                problems.append(f"{section}.{key} missing")
                return None
            return default
        raw = cp.get(section, key)
        try:
            val = conv(raw)
        except (ValueError, TypeError):
            problems.append(f"{section}.{key} unreadable value {raw!r}")
            return None
        # nan and +-inf parse as floats, but no key has a use for them
        vals = val if isinstance(val, tuple) else (val,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in vals):
            problems.append(f"{section}.{key} non-finite value {raw!r}")
            return None
        return val

    x_min = need("grid", "x_min", float)
    x_max = need("grid", "x_max", float)
    nx = need("grid", "nx", int)
    ny = need("grid", "ny", int, default=1, required=False)
    y_min = need("grid", "y_min", float, default=0.0, required=False)
    y_max = need("grid", "y_max", float, default=1.0, required=False)
    if nx is not None and nx < 2:
        problems.append("grid.nx must be >= 2")
    if ny is not None and ny < 1:
        problems.append("grid.ny must be >= 1")
    if x_min is not None and x_max is not None and not x_max > x_min:
        problems.append("grid.x_max must exceed grid.x_min")
    if ny is not None and ny > 1 and y_min is not None and y_max is not None:
        if not y_max > y_min:
            problems.append("grid.y_max must exceed grid.y_min")

    eps = need("physics", "eps", float)
    if eps is not None and not (0.0 < eps < 1.0):
        problems.append(f"physics.eps out of (0,1): {eps}")
    sigma = need("physics", "sigma", float, required=False)
    laws = []
    any_dynamic = False
    if cp.has_section("physics"):
        for key in cp.options("physics"):
            if key in ("eps", "sigma"):
                continue
            if key not in [f.value for f in Face]:
                problems.append(f"physics.{key} is not a face tag")
    for f in Face:
        name = need("physics", f.value, str, default="neumann", required=False)
        if name not in LAW_NAMES:
            problems.append(
                f"physics.{f.value} unknown law {name!r} (expected one of {LAW_NAMES})"
            )
            name = "neumann"
        if name == "dynamic":
            any_dynamic = True
        laws.append((f, name))
    if any_dynamic and (sigma is None or not sigma > 0):
        problems.append("physics.sigma must be positive when any face is dynamic")

    kind = need("initial", "kind", str)
    init_params: list[tuple[str, float]] = []
    if kind is not None:
        wanted = {
            "line1d": ("x_star",),
            "circle": ("cx", "cy", "radius"),
            "halfspace": ("nx", "ny", "offset"),
            "arc": (),
        }
        if kind not in wanted:
            problems.append(f"initial.kind unknown {kind!r}")
        else:
            for key in wanted[kind]:
                v = need("initial", key, float)
                if v is not None:
                    init_params.append((key, v))
            if kind == "circle":
                sign = need("initial", "sign", float, default=1.0, required=False)
                init_params.append(("sign", sign))
            if kind == "arc" and (sigma is None or sigma <= 0):
                problems.append("initial.kind=arc needs physics.sigma > 0")

    t_end = need("schedule", "t_end", float)
    if t_end is not None and t_end < 0:
        problems.append("schedule.t_end must be nonnegative")
    cadence = need("schedule", "cadence", int, default=100, required=False)
    if cadence is not None and cadence < 1:
        problems.append("schedule.cadence must be >= 1")
    safety = need("schedule", "safety", float, default=0.5, required=False)
    if safety is not None and not (0.0 < safety <= 0.5):
        problems.append("schedule.safety must lie in (0, 0.5]")
    dt = need("schedule", "dt", float, required=False)

    mode = need("experiment", "mode", str, default="run", required=False)
    if mode not in MODES:
        problems.append(f"experiment.mode unknown {mode!r} (expected one of {MODES})")
        mode = "run"
    eps_list = need("experiment", "eps_list", _float_list, default=(), required=False)
    sigma_list = need(
        "experiment", "sigma_list", _float_list, default=(), required=False
    )
    if mode == "sweep-eps" and not eps_list:
        problems.append("experiment.eps_list required (nonempty) in sweep-eps mode")
    if mode == "sweep-sigma" and not sigma_list:
        problems.append("experiment.sigma_list required (nonempty) in sweep-sigma mode")
    for val in eps_list or ():
        if not (0.0 < val < 1.0):
            problems.append(f"experiment.eps_list entry out of (0,1): {val}")
    for val in sigma_list or ():
        if not val > 0:
            problems.append(f"experiment.sigma_list entry must be positive: {val}")
    window_t1 = need("experiment", "window_t1", float, required=False)
    window_t2 = need("experiment", "window_t2", float, required=False)
    raw_fields = need("experiment", "test_fields", str, default="", required=False)
    test_fields = tuple(s.strip() for s in raw_fields.split("|") if s.strip())
    for spec in test_fields:
        try:
            vector_field_from_spec(spec)
        except ConfigurationError as exc:
            problems.append(f"experiment.test_fields {exc}")
    oracle_nodes = need("experiment", "nodes", int, default=200, required=False)
    oracle_dt = need("experiment", "oracle_dt", float, required=False)

    out_dir = need("output", "dir", str, default="out", required=False)
    dump = need(
        "output",
        "dump_fields",
        lambda s: s.strip().lower() in ("1", "true", "yes", "on"),
        default=False,
        required=False,
    )

    if mode == "arc-benchmark":
        if ny is not None and ny == 1:
            problems.append("arc-benchmark needs a 2D grid (grid.ny > 1)")
        if dict(laws).get(Face.BOTTOM) != "dynamic":
            problems.append("arc-benchmark needs physics.bottom = dynamic")

    if problems:
        raise ConfigurationError(
            "invalid configuration:\n  " + "\n  ".join(problems)
        )

    return RunConfig(
        grid=GridConfig(x_min, x_max, y_min, y_max, nx, ny),
        physics=PhysicsConfig(eps=eps, laws=tuple(laws), sigma=sigma),
        initial=InitialConfig(kind=kind, params=tuple(init_params)),
        schedule=ScheduleConfig(t_end=t_end, cadence=cadence, safety=safety, dt=dt),
        experiment=ExperimentConfig(
            mode=mode,
            eps_list=tuple(eps_list or ()),
            sigma_list=tuple(sigma_list or ()),
            window_t1=window_t1,
            window_t2=window_t2,
            test_fields=test_fields,
            oracle_nodes=oracle_nodes,
            oracle_dt=oracle_dt,
        ),
        output=OutputConfig(dir=out_dir, dump_fields=bool(dump)),
        source_text=text,
    )


def parse_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"config file not found: {p}")
    return parse_config_text(p.read_text(encoding="utf-8"))


def serialize(config: RunConfig) -> str:
    """Canonical config text; parse(serialize(parse(f))) == parse(f)."""
    cp = configparser.ConfigParser(interpolation=None)
    g = config.grid
    cp["grid"] = {
        "x_min": repr(g.x_min),
        "x_max": repr(g.x_max),
        "y_min": repr(g.y_min),
        "y_max": repr(g.y_max),
        "nx": str(g.nx),
        "ny": str(g.ny),
    }
    ph = {"eps": repr(config.physics.eps)}
    if config.physics.sigma is not None:
        ph["sigma"] = repr(config.physics.sigma)
    for f, name in config.physics.laws:
        ph[f.value] = name
    cp["physics"] = ph
    ini = {"kind": config.initial.kind}
    for k, v in config.initial.params:
        ini[k] = repr(v)
    cp["initial"] = ini
    sc = {
        "t_end": repr(config.schedule.t_end),
        "cadence": str(config.schedule.cadence),
        "safety": repr(config.schedule.safety),
    }
    if config.schedule.dt is not None:
        sc["dt"] = repr(config.schedule.dt)
    cp["schedule"] = sc
    ex = {"mode": config.experiment.mode}
    if config.experiment.eps_list:
        ex["eps_list"] = ",".join(repr(v) for v in config.experiment.eps_list)
    if config.experiment.sigma_list:
        ex["sigma_list"] = ",".join(repr(v) for v in config.experiment.sigma_list)
    if config.experiment.window_t1 is not None:
        ex["window_t1"] = repr(config.experiment.window_t1)
    if config.experiment.window_t2 is not None:
        ex["window_t2"] = repr(config.experiment.window_t2)
    if config.experiment.test_fields:
        ex["test_fields"] = " | ".join(config.experiment.test_fields)
    ex["nodes"] = str(config.experiment.oracle_nodes)
    if config.experiment.oracle_dt is not None:
        ex["oracle_dt"] = repr(config.experiment.oracle_dt)
    cp["experiment"] = ex
    cp["output"] = {
        "dir": config.output.dir,
        "dump_fields": "true" if config.output.dump_fields else "false",
    }
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


# -- builders -------------------------------------------------------------------


def build_grid(config: RunConfig) -> Grid2D:
    g = config.grid
    return Grid2D.from_extents(g.x_min, g.x_max, g.y_min, g.y_max, g.nx, g.ny)


def build_laws(config: RunConfig) -> dict[Face, BoundaryLaw]:
    out: dict[Face, BoundaryLaw] = {}
    for f, name in config.physics.laws:
        if name == "dynamic":
            out[f] = Dynamic(config.physics.sigma)
        elif name == "dirichlet":
            out[f] = DirichletFrozen()
        else:
            out[f] = NeumannZeroFlux()
    return out


def arc_descriptor(sigma: float) -> CircleArc:
    """The canonical shrinking-arc initial circle for a given sigma:
    center (1, -1/sigma), radius sqrt(1 + 1/sigma^2), contacts at 0, 2."""
    return CircleArc(
        center=(1.0, -1.0 / sigma), radius=math.sqrt(1.0 + 1.0 / sigma**2)
    )


def build_descriptor(config: RunConfig) -> InterfaceDescriptor:
    ini = config.initial
    if ini.kind == "line1d":
        return Line1D(ini.get("x_star"))
    if ini.kind == "circle":
        return CircleArc(
            center=(ini.get("cx"), ini.get("cy")),
            radius=ini.get("radius"),
            sign=ini.get("sign", 1.0),
        )
    if ini.kind == "halfspace":
        return Halfspace(normal=(ini.get("nx"), ini.get("ny")), offset=ini.get("offset"))
    if ini.kind == "arc":
        return arc_descriptor(config.physics.sigma)
    raise ConfigurationError(f"unknown initial kind {ini.kind!r}")


def build_state(config: RunConfig) -> PhaseState:
    return init_profile(
        build_grid(config),
        build_descriptor(config),
        config.physics.eps,
        laws=build_laws(config),
    )


def child_configs(config: RunConfig) -> list[tuple[float, RunConfig]]:
    """Per-value child configs of a sweep: identical except for the swept
    parameter and the output subdirectory."""
    ex = config.experiment
    if ex.mode == "sweep-eps":
        key, values = "eps", ex.eps_list
    elif ex.mode == "sweep-sigma":
        key, values = "sigma", ex.sigma_list
    else:
        raise ConfigurationError(f"mode {ex.mode!r} has no sweep children")
    return [
        (
            v,
            replace(
                config,
                physics=replace(config.physics, **{key: v}),
                experiment=replace(ex, mode="run"),
                output=replace(
                    config.output, dir=str(Path(config.output.dir) / f"{key}_{v:g}")
                ),
                source_text="",
            ),
        )
        for v in values
    ]

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab.errors import ConfigurationError, DivergenceError
from phaselab.grid import Face, Grid2D, ScalarField2D
from phaselab.lab import cli, experiments
from phaselab.lab.catalog import (
    DEFAULT_SWEEP_FIELDS,
    scalar_field_from_spec,
    vector_field_from_spec,
)
from phaselab.lab.config import (
    LAW_NAMES,
    MODES,
    ExperimentConfig,
    GridConfig,
    InitialConfig,
    OutputConfig,
    PhysicsConfig,
    RunConfig,
    ScheduleConfig,
    build_laws,
    build_state,
    child_configs,
    parse_config,
    parse_config_text,
    serialize,
)
from phaselab.lab.extract import extract_interface, fit_circle
from phaselab.record import read_field_csv, write_field_csv
from phaselab.solver import CircleArc, Dynamic, NeumannZeroFlux, init_profile

MINIMAL_1D = """
[grid]
x_min = 0.0
x_max = 1.0
nx = 101
ny = 1

[physics]
eps = 0.05

[initial]
kind = line1d
x_star = 0.5

[schedule]
t_end = 0.0002

[output]
dir = {out}
"""

ARC_2D = """
[grid]
x_min = -1.0
x_max = 3.0
y_min = 0.0
y_max = 2.0
nx = 65
ny = 33

[physics]
eps = 0.1
sigma = 1.0
bottom = dynamic

[initial]
kind = arc

[schedule]
t_end = 0.002
cadence = 10

[experiment]
mode = run

[output]
dir = {out}
"""


class TestConfigParsing:
    def test_minimal_defaults_filled(self, tmp_path):
        cfg = parse_config_text(MINIMAL_1D.format(out=tmp_path))
        assert cfg.schedule.safety == 0.5
        assert cfg.schedule.cadence == 100
        assert cfg.experiment.mode == "run"
        # unset faces default to zero-flux
        assert dict(cfg.physics.laws)[Face.TOP] == "neumann"

    def test_eps_out_of_range_rejected_with_path(self, tmp_path):
        text = MINIMAL_1D.format(out=tmp_path).replace("eps = 0.05", "eps = 1.5")
        with pytest.raises(ConfigurationError, match="physics.eps"):
            parse_config_text(text)

    def test_all_violations_collected(self, tmp_path):
        text = (
            MINIMAL_1D.format(out=tmp_path)
            .replace("eps = 0.05", "eps = 1.5")
            .replace("nx = 101", "nx = 1")
            .replace("t_end = 0.0002", "t_end = -1.0")
        )
        with pytest.raises(ConfigurationError) as err:
            parse_config_text(text)
        msg = str(err.value)
        assert "physics.eps" in msg and "grid.nx" in msg and "t_end" in msg

    def test_unknown_face_key_rejected(self, tmp_path):
        text = MINIMAL_1D.format(out=tmp_path).replace(
            "eps = 0.05", "eps = 0.05\nnorthwest = dynamic"
        )
        with pytest.raises(ConfigurationError, match="not a face tag"):
            parse_config_text(text)

    def test_dynamic_needs_sigma(self, tmp_path):
        text = MINIMAL_1D.format(out=tmp_path).replace(
            "eps = 0.05", "eps = 0.05\nleft = dynamic"
        )
        with pytest.raises(ConfigurationError, match="sigma"):
            parse_config_text(text)

    def test_sweep_needs_list(self, tmp_path):
        text = MINIMAL_1D.format(out=tmp_path) + "\n"
        text = text.replace("[output]", "[experiment]\nmode = sweep-eps\n\n[output]")
        with pytest.raises(ConfigurationError, match="eps_list"):
            parse_config_text(text)

    def test_serialize_round_trip_idempotent(self, tmp_path):
        cfg = parse_config_text(ARC_2D.format(out=tmp_path))
        once = parse_config_text(serialize(cfg))
        twice = parse_config_text(serialize(once))
        strip = lambda c: dataclasses.replace(c, source_text="")
        assert strip(once) == strip(cfg)
        assert strip(twice) == strip(once)

    def test_sweep_children_differ_only_in_parameter(self, tmp_path):
        text = ARC_2D.format(out=tmp_path).replace(
            "mode = run", "mode = sweep-eps\neps_list = 0.08, 0.04, 0.02"
        )
        cfg = parse_config_text(text)
        kids = child_configs(cfg)
        assert [v for v, _ in kids] == [0.08, 0.04, 0.02]
        for v, child in kids:
            assert child.physics.eps == v
            assert child.experiment.mode == "run"
            assert child.grid == cfg.grid
            assert child.schedule == cfg.schedule

    def test_build_laws_and_state(self, tmp_path):
        cfg = parse_config_text(ARC_2D.format(out=tmp_path))
        laws = build_laws(cfg)
        assert laws[Face.BOTTOM] == Dynamic(1.0)
        assert laws[Face.TOP] == NeumannZeroFlux()
        st = build_state(cfg)
        assert st.u.values.shape == (65, 33)
        assert st.eps == 0.1

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigurationError):
            parse_config("/nonexistent/path.ini")

    @pytest.mark.parametrize(
        "old, new, path, raw",
        [
            ("t_end = 0.0002", "t_end = nan", "schedule.t_end", "nan"),
            ("t_end = 0.0002", "t_end = inf", "schedule.t_end", "inf"),
            ("t_end = 0.0002", "t_end = 0.0002\ndt = nan", "schedule.dt", "nan"),
            ("eps = 0.05", "eps = nan", "physics.eps", "nan"),
            ("eps = 0.05", "eps = 0.05\nsigma = inf", "physics.sigma", "inf"),
            ("x_max = 1.0", "x_max = -inf", "grid.x_max", "-inf"),
            (
                "[output]",
                "[experiment]\nmode = sweep-sigma\nsigma_list = 0.5, nan\n\n[output]",
                "experiment.sigma_list",
                "0.5, nan",
            ),
        ],
    )
    def test_non_finite_rejected_with_path(self, tmp_path, old, new, path, raw):
        text = MINIMAL_1D.format(out=tmp_path)
        assert old in text
        with pytest.raises(ConfigurationError) as err:
            parse_config_text(text.replace(old, new))
        assert f"{path} non-finite value {raw!r}" in str(err.value)

    def test_percent_in_values_is_plain_text(self, tmp_path):
        out = tmp_path / "run%1%(nx)s%%"
        cfg = parse_config_text(MINIMAL_1D.format(out=out))
        assert cfg.output.dir == str(out)
        again = parse_config_text(serialize(cfg))
        assert dataclasses.replace(again, source_text="") == dataclasses.replace(
            cfg, source_text=""
        )

    def test_bad_test_field_spec_refused_with_path(self, tmp_path):
        text = MINIMAL_1D.format(out=tmp_path).replace(
            "[output]", "[experiment]\ntest_fields = xbump:cx=0.2 | nope:a=1\n\n[output]"
        )
        with pytest.raises(ConfigurationError) as err:
            parse_config_text(text)
        msg = str(err.value)
        assert "experiment.test_fields test field 'xbump:cx=0.2' needs parameter 'w'" in msg
        assert "experiment.test_fields unknown vector test field 'nope'" in msg


def _finite(lo=-1e6, hi=1e6):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _open_unit():
    return st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


_positive = st.floats(1e-6, 1e6)

# vector test-field specs as the catalog reads them, parameters in repr form
_SPEC_KEYS = {
    "const": ("dx", "dy"),
    "xbump": ("cx", "w"),
    "ybump": ("cy", "w"),
    "bump": ("dx", "dy", "cx", "cy", "wx", "wy"),
    "dilation": ("cx", "cy", "wx", "wy"),
}
_specs = st.sampled_from(sorted(_SPEC_KEYS)).flatmap(
    lambda name: st.tuples(
        *(_positive if k.startswith("w") else _finite() for k in _SPEC_KEYS[name])
    ).map(
        lambda vals: name
        + ":"
        + ",".join(f"{k}={v!r}" for k, v in zip(_SPEC_KEYS[name], vals))
    )
)

# Output directories: printable text with %-signs and interpolation-like
# tokens mixed in.  Left out, because the INI format cannot carry them in
# a value: line breaks and control characters, '#' and ';' (the inline
# comment prefixes), and leading or trailing whitespace (stripped).
_dir_text = st.text(
    st.characters(
        categories=("L", "N", "P", "S", "Zs"), max_codepoint=0x2FF, exclude_characters="#;"
    ),
    max_size=12,
)
_dirs = (
    st.lists(st.one_of(_dir_text, st.sampled_from(["%", "%%", "%(nx)s", "%1"])), max_size=5)
    .map("".join)
    .filter(lambda s: s == s.strip())
)


@st.composite
def run_configs(draw):
    ny = draw(st.integers(1, 300))
    x_min = draw(_finite())
    y_min = draw(_finite())
    grid = GridConfig(
        x_min=x_min,
        x_max=x_min + draw(_positive),
        y_min=y_min,
        y_max=y_min + draw(_positive) if ny > 1 else draw(_finite()),
        nx=draw(st.integers(2, 300)),
        ny=ny,
    )
    mode = draw(st.sampled_from(MODES))
    names = [draw(st.sampled_from(LAW_NAMES)) for _ in Face]
    if mode == "arc-benchmark":
        if ny == 1:
            grid = dataclasses.replace(grid, ny=2, y_max=grid.y_min + 1.0)
        names[list(Face).index(Face.BOTTOM)] = "dynamic"
    kind = draw(st.sampled_from(("line1d", "circle", "halfspace", "arc")))
    needs_sigma = "dynamic" in names or kind == "arc"
    sigma = draw(_positive if needs_sigma else st.none() | _finite())
    keys = {
        "line1d": ("x_star",),
        "circle": ("cx", "cy", "radius", "sign"),
        "halfspace": ("nx", "ny", "offset"),
        "arc": (),
    }[kind]
    return RunConfig(
        grid=grid,
        physics=PhysicsConfig(
            eps=draw(_open_unit()), laws=tuple(zip(Face, names)), sigma=sigma
        ),
        initial=InitialConfig(kind, tuple((k, draw(_finite())) for k in keys)),
        schedule=ScheduleConfig(
            t_end=draw(st.floats(0.0, 1e3)),
            cadence=draw(st.integers(1, 10**6)),
            safety=draw(st.floats(0.0, 0.5, exclude_min=True)),
            dt=draw(st.none() | _finite()),
        ),
        experiment=ExperimentConfig(
            mode=mode,
            eps_list=tuple(
                draw(st.lists(_open_unit(), min_size=mode == "sweep-eps", max_size=4))
            ),
            sigma_list=tuple(
                draw(st.lists(_positive, min_size=mode == "sweep-sigma", max_size=4))
            ),
            window_t1=draw(st.none() | _finite()),
            window_t2=draw(st.none() | _finite()),
            test_fields=tuple(draw(st.lists(_specs, max_size=3))),
            oracle_nodes=draw(st.integers(1, 10**5)),
            oracle_dt=draw(st.none() | _finite()),
        ),
        output=OutputConfig(dir=draw(_dirs), dump_fields=draw(st.booleans())),
    )


class TestConfigRoundTrip:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(cfg=run_configs())
    def test_parse_inverts_serialize(self, cfg):
        again = parse_config_text(serialize(cfg))
        assert dataclasses.replace(again, source_text="") == cfg


class TestCatalog:
    def test_vector_specs(self):
        g = vector_field_from_spec("xbump:cx=1.0,w=0.5")
        vx, vy = g.value(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        assert vx[0] == 1.0 and vx[1] == 0.0 and np.all(vy == 0.0)

    def test_scalar_specs(self):
        phi = scalar_field_from_spec("one")
        assert phi.value(np.array([3.0]), np.array([4.0]))[0] == 1.0
        phi2 = scalar_field_from_spec("gauss:cx=0.0,cy=0.0,s=1.0")
        assert phi2.value(np.array([0.0]), np.array([0.0]))[0] == 1.0

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            vector_field_from_spec("nope:a=1")
        with pytest.raises(ConfigurationError):
            vector_field_from_spec("xbump:cx=oops")

    @pytest.mark.parametrize(
        "from_spec, spec, key",
        [
            (vector_field_from_spec, "xbump:cx=0.2", "w"),
            (vector_field_from_spec, "ybump:w=0.5", "cy"),
            (vector_field_from_spec, "bump:cx=0,cy=0,wx=1", "wy"),
            (vector_field_from_spec, "dilation:cx=1,cy=0,wy=1", "wx"),
            (scalar_field_from_spec, "gauss:cx=0,cy=0", "s"),
        ],
    )
    def test_missing_parameter_named(self, from_spec, spec, key):
        with pytest.raises(ConfigurationError, match=f"needs parameter {key!r}"):
            from_spec(spec)

    @pytest.mark.parametrize(
        "from_spec, spec, problem, key",
        [
            (vector_field_from_spec, "xbump:cx=0.2,w=-0.5", "nonpositive", "w"),
            (vector_field_from_spec, "ybump:cy=0.2,w=0", "nonpositive", "w"),
            (vector_field_from_spec, "bump:cx=0,cy=0,wx=1,wy=-1", "nonpositive", "wy"),
            (vector_field_from_spec, "dilation:cx=1,cy=0,wx=0,wy=1", "nonpositive", "wx"),
            (scalar_field_from_spec, "gauss:cx=0,cy=0,s=-2", "nonpositive", "s"),
            (vector_field_from_spec, "xbump:cx=nan,w=0.8", "non-finite", "cx"),
            (vector_field_from_spec, "const:dx=inf", "non-finite", "dx"),
            (vector_field_from_spec, "xbump:cx=0.2,w=nan", "non-finite", "w"),
            (
                scalar_field_from_spec,
                "plateau:xlo=0,xhi=1,xroll=-0.1,ylo=0,yhi=1",
                "negative",
                "xroll",
            ),
            (
                scalar_field_from_spec,
                "plateau:xlo=0,xhi=1,ylo=0,yhi=1,yroll=-1",
                "negative",
                "yroll",
            ),
            (vector_field_from_spec, "const:dx=1,dz=2", "unknown", "dz"),
            (vector_field_from_spec, "xbump:cx=0.2,w=0.8,cy=1", "unknown", "cy"),
            (scalar_field_from_spec, "one:a=1", "unknown", "a"),
            (vector_field_from_spec, "xbump:cx=0.2,cx=0.3,w=0.8", "repeated", "cx"),
            (scalar_field_from_spec, "gauss:cx=0,cy=0,s=1,s=1", "repeated", "s"),
        ],
    )
    def test_misread_parameter_refused(self, from_spec, spec, problem, key):
        # each of these once built a different field from the one written,
        # silently: a nonpositive width reads as an unbounded plateau
        with pytest.raises(ConfigurationError) as err:
            from_spec(spec)
        assert str(err.value) == f"test field {spec!r} has {problem} parameter {key!r}"

    def test_zero_roll_accepted(self):
        phi = scalar_field_from_spec("plateau:xlo=0,xhi=1,xroll=0,ylo=0,yhi=1,yroll=0")
        assert phi.value(np.array([0.5]), np.array([0.5]))[0] == 1.0

    def test_default_and_shipped_specs_parse(self):
        shipped = [
            spec
            for path in sorted(Path(__file__).resolve().parents[1].glob("configs/*.ini"))
            for spec in parse_config(path).experiment.test_fields
        ]
        assert shipped and DEFAULT_SWEEP_FIELDS
        for spec in (*DEFAULT_SWEEP_FIELDS, *shipped):
            assert vector_field_from_spec(spec).name == spec


class TestExtraction:
    def test_vertical_line_exact(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 21, 21)
        f = ScalarField2D.from_function(g, lambda x, y: x - 0.5)
        ext = extract_interface(f)
        assert len(ext.polylines) == 1
        assert np.allclose(ext.polylines[0][:, 0], 0.5, atol=1e-14)

    def test_constant_field_empty(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 21, 21)
        assert extract_interface(ScalarField2D.full(g, 1.0)).empty

    def test_interpolated_points_on_zero_level(self):
        # along each cut edge the linear interpolant vanishes at the point;
        # verify via bilinear interpolation of the nodal field
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, 33, 33)
        st = init_profile(g, CircleArc((0.5, 0.5), 0.3), 0.1)
        ext = extract_interface(st.u)
        pts = ext.all_points()
        u = st.u.values
        x0, y0 = g.origin
        for xp, yp in pts[::7]:
            fi = (xp - x0) / g.hx
            fj = (yp - y0) / g.hy
            i, j = int(min(fi, g.nx - 2)), int(min(fj, g.ny - 2))
            ti, tj = fi - i, fj - j
            val = (
                u[i, j] * (1 - ti) * (1 - tj)
                + u[i + 1, j] * ti * (1 - tj)
                + u[i, j + 1] * (1 - ti) * tj
                + u[i + 1, j + 1] * ti * tj
            )
            assert abs(val) < 1e-10

    def test_circle_fit_on_arc_initial_data(self):
        g = Grid2D.from_extents(-1.0, 3.0, 0.0, 2.0, 257, 129)
        st = init_profile(g, CircleArc((1.0, -1.0), np.sqrt(2.0)), 0.02)
        ext = extract_interface(st.u, fit=True)
        cx, cy, r = ext.circle
        assert abs(cx - 1.0) < 2 * 0.02
        assert abs(cy + 1.0) < 2 * 0.02
        assert abs(r - np.sqrt(2.0)) < 2 * 0.02

    def test_fit_circle_exact_points(self):
        phis = np.linspace(0, 2 * np.pi, 17)[:-1]
        pts = np.column_stack([2.0 + 0.7 * np.cos(phis), -1.0 + 0.7 * np.sin(phis)])
        cx, cy, r = fit_circle(pts)
        assert (cx, cy, r) == pytest.approx((2.0, -1.0, 0.7), abs=1e-12)

    def test_1d_crossing(self):
        g = Grid2D.from_extents(0.0, 1.0, 0.0, 0.0, 101, 1)
        st = init_profile(g, __import__("phaselab").Line1D(0.3), 0.05)
        ext = extract_interface(st.u)
        assert len(ext.polylines) == 1
        assert ext.polylines[0][0, 0] == pytest.approx(0.3, abs=1e-10)


class TestRunOutputs:
    def test_outputs_written_and_deterministic(self, tmp_path):
        cfg = parse_config_text(MINIMAL_1D.format(out=tmp_path / "a"))
        rec1 = experiments.run_single(cfg)
        rec2 = experiments.run_single(cfg)
        assert rec1.series_csv_text() == rec2.series_csv_text()
        out = experiments.write_run_outputs(cfg, rec1, tmp_path / "a")
        assert (out / "config.echo").read_text("utf-8") == cfg.source_text
        assert (out / "series.csv").exists()
        assert (out / "report.json").exists()
        assert sorted(p.name for p in (out / "interface").iterdir())

    def test_interface_csv_fields_are_plain_floats(self, tmp_path):
        cfg = parse_config_text(ARC_2D.format(out=tmp_path))
        rec = experiments.run_single(cfg)
        out = experiments.write_run_outputs(cfg, rec, tmp_path)
        files = sorted((out / "interface").iterdir())
        assert len(files) == len(rec.snapshots)
        for path, snap in zip(files, rec.snapshots):
            lines = path.read_text("utf-8").splitlines()
            assert lines[0] == "t,polyline,x,y"
            rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
            expected = [
                [snap.t, p, x, y]
                for p, poly in enumerate(extract_interface(snap.state.u).polylines)
                for x, y in poly
            ]
            assert rows and rows == expected

    def test_field_dump_round_trip(self, tmp_path):
        g = Grid2D.from_extents(0.0, 2.0, 0.0, 1.0, 9, 5)
        f = ScalarField2D.from_function(g, lambda x, y: x * y + 1.0)
        path = tmp_path / "u.csv"
        write_field_csv(path, f)
        g2, vals = read_field_csv(path)
        assert g2.nx == 9 and g2.ny == 5
        assert np.array_equal(vals, f.values)
        header = path.read_text("utf-8").split("\n")[0]
        assert header.startswith("9,5,")

    def test_check_run_dir_passes_and_fails(self, tmp_path):
        cfg = parse_config_text(MINIMAL_1D.format(out=tmp_path / "ok"))
        rec = experiments.run_single(cfg)
        out = experiments.write_run_outputs(cfg, rec, tmp_path / "ok")
        assert experiments.check_run_dir(out) == []
        # tamper: push max|u| above the bound
        series = (out / "series.csv").read_text("utf-8").split("\n")
        cols = series[0].split(",")
        k = cols.index("max_abs_u")
        row = series[1].split(",")
        row[k] = "1.5"
        series[1] = ",".join(row)
        (out / "series.csv").write_text("\n".join(series), "utf-8")
        failures = experiments.check_run_dir(out)
        assert failures and "max|u|" in failures[0]


class TestSweeps:
    def test_eps_sweep_rows_and_direction(self, tmp_path):
        text = ARC_2D.format(out=tmp_path).replace(
            "mode = run",
            "mode = sweep-eps\neps_list = 0.12, 0.08\nwindow_t1 = 0.0005\nwindow_t2 = 0.002",
        ).replace("cadence = 10", "cadence = 1")
        cfg = parse_config_text(text)
        results, report = experiments.sweep(cfg)
        assert [r["value"] for r in report["rows"]] == [0.12, 0.08]
        for row in report["rows"]:
            assert np.isfinite(row["xi_window"])
            assert row["alpha_window"] >= 0.0
        out = experiments.write_sweep_outputs(cfg, results, report, tmp_path / "sw")
        assert (out / "sweep.csv").exists() and (out / "sweep.json").exists()
        assert (Path(tmp_path) / "eps_0.12" / "series.csv").exists()

    def test_inconsistent_records_rejected(self, tmp_path):
        cfg_a = parse_config_text(ARC_2D.format(out=tmp_path))
        rec_a = experiments.run_single(cfg_a)
        cfg_b = parse_config_text(
            ARC_2D.format(out=tmp_path).replace("nx = 65", "nx = 33")
        )
        rec_b = experiments.run_single(cfg_b)
        sweep_cfg = parse_config_text(
            ARC_2D.format(out=tmp_path).replace(
                "mode = run", "mode = sweep-eps\neps_list = 0.1, 0.1"
            )
        )
        with pytest.raises(Exception, match="inconsistent"):
            experiments.sweep_report(sweep_cfg, [(0.1, rec_a), (0.1, rec_b)])


class TestCli:
    def test_bad_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(MINIMAL_1D.format(out=tmp_path).replace("0.05", "1.5"), "utf-8")
        assert cli.main(["run", "--config", str(bad), "--quiet"]) == 2

    def test_non_finite_t_end_exit_2(self, tmp_path, capsys):
        cfgf = tmp_path / "nan.ini"
        text = MINIMAL_1D.format(out=tmp_path / "o")
        cfgf.write_text(text.replace("t_end = 0.0002", "t_end = nan"), "utf-8")
        assert cli.main(["run", "--config", str(cfgf), "--quiet"]) == 2
        assert "schedule.t_end non-finite value 'nan'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_threads_only_on_sweeps(self):
        parser = cli._build_parser()
        for sweep in ("sweep-eps", "sweep-sigma"):
            args = parser.parse_args([sweep, "--config", "c.ini", "--threads", "2"])
            assert args.threads == 2
        for command in ("run", "arc-benchmark", "oracle"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--config", "c.ini", "--threads", "2"])

    def test_percent_in_output_dir_runs(self, tmp_path):
        cfgf = tmp_path / "run.ini"
        out = tmp_path / "run%1"
        cfgf.write_text(MINIMAL_1D.format(out=out), "utf-8")
        assert cli.main(["run", "--config", str(cfgf), "--quiet"]) == 0
        assert (out / "series.csv").exists()
        assert (out / "config.echo").read_text("utf-8") == cfgf.read_text("utf-8")

    def test_bad_test_field_exit_2_before_running(self, tmp_path, capsys):
        cfgf = tmp_path / "sweep.ini"
        out = tmp_path / "o"
        text = ARC_2D.format(out=out).replace(
            "mode = run",
            "mode = sweep-sigma\nsigma_list = 1.0, 0.5\ntest_fields = xbump:cx=0.2",
        )
        cfgf.write_text(text, "utf-8")
        assert cli.main(["sweep-sigma", "--config", str(cfgf), "--quiet"]) == 2
        assert "needs parameter 'w'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("xbump:cx=0.2,w=-0.5", "has nonpositive parameter 'w'"),
            ("const:dx=1,dz=2", "has unknown parameter 'dz'"),
        ],
    )
    def test_misread_test_field_exit_2_writes_nothing(self, tmp_path, capsys, spec, message):
        cfgf = tmp_path / "sweep.ini"
        out = tmp_path / "o"
        text = ARC_2D.format(out=out).replace(
            "mode = run",
            f"mode = sweep-sigma\nsigma_list = 1.0, 0.5\ntest_fields = {spec}",
        )
        cfgf.write_text(text, "utf-8")
        assert cli.main(["sweep-sigma", "--config", str(cfgf), "--quiet"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_subcommand_mode_is_checked_before_running(self, tmp_path, capsys):
        # the subcommand's mode is checked, not the config's: a 1D run
        # config is refused before the march
        cfgf = tmp_path / "run.ini"
        out = tmp_path / "o"
        cfgf.write_text(MINIMAL_1D.format(out=out), "utf-8")
        assert cli.main(["arc-benchmark", "--config", str(cfgf), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "arc-benchmark needs a 2D grid (grid.ny > 1)" in err
        assert "arc-benchmark needs physics.bottom = dynamic" in err
        assert not out.exists()
        assert cli.main(["sweep-sigma", "--config", str(cfgf), "--quiet"]) == 2
        assert "experiment.sigma_list required" in capsys.readouterr().err
        assert not out.exists()

    def test_dt_above_stable_bound_exit_2_writes_nothing(self, tmp_path, capsys):
        cfgf = tmp_path / "run.ini"
        out = tmp_path / "o"
        text = MINIMAL_1D.format(out=out).replace("t_end = 0.0002", "t_end = 0.0002\ndt = 1.0")
        cfgf.write_text(text, "utf-8")
        assert cli.main(["run", "--config", str(cfgf), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "error: dt=1.000e+00 exceeds the stable bound 2.500e-05" in err
        assert not out.exists()

    def test_missing_config_exit_2(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.ini"), "--quiet"]) == 2

    def test_run_and_report_exit_codes(self, tmp_path):
        cfgf = tmp_path / "run.ini"
        out = tmp_path / "out"
        cfgf.write_text(MINIMAL_1D.format(out=out), "utf-8")
        assert cli.main(["run", "--config", str(cfgf), "--quiet"]) == 0
        assert cli.main(["report", "--out", str(out), "--quiet"]) == 0
        series = (out / "series.csv").read_text("utf-8").split("\n")
        cols = series[0].split(",")
        k = cols.index("max_abs_u")
        row = series[1].split(",")
        row[k] = "1.5"
        series[1] = ",".join(row)
        (out / "series.csv").write_text("\n".join(series), "utf-8")
        assert cli.main(["report", "--out", str(out), "--quiet"]) == 4

    def test_divergence_exit_3(self, tmp_path, monkeypatch):
        cfgf = tmp_path / "run.ini"
        cfgf.write_text(MINIMAL_1D.format(out=tmp_path / "o"), "utf-8")
        monkeypatch.setattr(
            experiments,
            "run_single",
            lambda config: (_ for _ in ()).throw(DivergenceError("boom")),
        )
        assert cli.main(["run", "--config", str(cfgf), "--quiet"]) == 3

    def test_oracle_subcommand(self, tmp_path):
        cfgf = tmp_path / "oracle.ini"
        out = tmp_path / "oracle_out"
        text = ARC_2D.format(out=out).replace("mode = run", "mode = oracle\nnodes = 80")
        text = text.replace("t_end = 0.002", "t_end = 0.05")
        cfgf.write_text(text, "utf-8")
        assert cli.main(["oracle", "--config", str(cfgf), "--quiet"]) == 0
        payload = json.loads((out / "oracle.json").read_text("utf-8"))
        assert payload["runs"][0]["sigma"] == 1.0
        assert payload["runs"][0]["radius_err_max"] < 1e-3

    def test_arc_benchmark_subcommand_small(self, tmp_path):
        cfgf = tmp_path / "arc.ini"
        out = tmp_path / "arc_out"
        text = ARC_2D.format(out=out).replace("mode = run", "mode = arc-benchmark")
        text = text.replace("t_end = 0.002", "t_end = 0.02").replace(
            "cadence = 10", "cadence = 4"
        )
        cfgf.write_text(text, "utf-8")
        assert cli.main(["arc-benchmark", "--config", str(cfgf), "--quiet"]) == 0
        payload = json.loads((out / "report.json").read_text("utf-8"))
        assert "benchmark" in payload

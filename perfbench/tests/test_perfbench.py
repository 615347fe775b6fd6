"""Fast tests of the benchmark itself, on tiny grids:

    python3 -m pytest -q perfbench/tests

They check the span and self-time arithmetic of the traced mode, that
tracing leaves results unchanged, the seeded inputs, and that each
correctness check refuses a broken output.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from phaselab.lab import experiments  # noqa: E402
from phaselab.lab.config import build_state, parse_config_text  # noqa: E402


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_is_duration_minus_direct_children():
    # root [0, 10] holds a [1, 6] and b [7, 9]; a holds c [2, 5]
    tracer = spans.Tracer(clock=FakeClock(0, 1, 2, 5, 6, 7, 9, 10))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("c"):
                pass
        with tracer.span("b"):
            pass
    s = spans.summarize(tracer.spans)
    assert s["root"] == {"calls": 1, "total_s": 10, "self_s": 10 - 5 - 2}
    assert s["a"] == {"calls": 1, "total_s": 5, "self_s": 2}
    assert s["c"]["self_s"] == 3 and s["b"]["self_s"] == 2
    parents = {name: parent for _, parent, name, _, _ in tracer.spans}
    ids = {name: sid for sid, _, name, _, _ in tracer.spans}
    assert parents == {"root": None, "a": ids["root"], "c": ids["a"], "b": ids["root"]}


def test_repeated_spans_add_up_per_name():
    tracer = spans.Tracer(clock=FakeClock(0, 1, 3, 4, 8, 20))
    with tracer.span("root"):
        for _ in range(2):
            with tracer.span("leaf"):
                pass
    s = spans.summarize(tracer.spans)
    assert s["leaf"] == {"calls": 2, "total_s": 6, "self_s": 6}
    assert s["root"]["self_s"] == 20 - 6


def test_a_span_closes_when_its_call_raises():
    tracer = spans.Tracer(clock=FakeClock(0, 1, 2, 3))
    with tracer.span("root"):
        with pytest.raises(ValueError):
            with tracer.span("bad"):
                raise ValueError
    s = spans.summarize(tracer.spans)
    assert s["bad"]["total_s"] == 1 and s["root"]["self_s"] == 2


TINY_1D = """
[grid]
x_min = 0.0
x_max = 1.0
nx = 41
ny = 1

[physics]
eps = 0.1

[initial]
kind = line1d
x_star = 0.5

[schedule]
t_end = 0.01
cadence = 20
"""


def test_instrument_traces_cross_module_calls_and_restores_them(tmp_path):
    config = parse_config_text(TINY_1D)
    original = experiments.run
    plain = experiments.run_single(config)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert experiments.run is not original
        traced = experiments.run_single(config)
        experiments.write_run_outputs(config, traced, tmp_path)
    assert experiments.run is original
    s = spans.summarize(tracer.spans)
    assert s["lab.experiments.run_single"]["calls"] == 1
    assert s["solver.run"]["calls"] == 1
    assert s["measures.observe"]["calls"] == len(plain.snapshots)
    assert s["lab.extract.extract_interface"]["calls"] == len(plain.snapshots)
    assert "measures.diagnostics" not in s
    assert traced.series_csv_text() == plain.series_csv_text()
    for row in s.values():
        assert 0 <= row["self_s"] <= row["total_s"]


def test_seed_zero_is_the_shipped_config():
    for w in workloads.WORKLOADS:
        name, edits = workloads.SOURCES[w]
        shipped = (ROOT / "configs" / name).read_text(encoding="utf-8")
        text = workloads.input_text(ROOT, w, 0)
        assert (text == shipped) == (not edits)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_seed_shifts_the_grid_by_less_than_half_a_cell(workload):
    base = parse_config_text(workloads.input_text(ROOT, workload, 0))
    seeded = parse_config_text(workloads.input_text(ROOT, workload, 3))
    again = parse_config_text(workloads.input_text(ROOT, workload, 3))
    assert seeded == again
    shift = seeded.grid.x_min - base.grid.x_min
    h = (base.grid.x_max - base.grid.x_min) / (base.grid.nx - 1)
    assert 0 < abs(shift) < 0.5 * h
    assert seeded.grid.x_max - base.grid.x_max == shift
    assert build_state(seeded).grid.hx == build_state(base).grid.hx
    if base.initial.kind == "line1d":
        assert seeded.initial.get("x_star") - base.initial.get("x_star") == shift


# -- correctness checks refuse broken outputs ------------------------------------


def _series(n=5):
    t = [0.1 * k for k in range(n)]
    return {"t": t, "E": [2.0 - 0.1 * k for k in range(n)], "max_abs_u": [0.99] * n}, t


def test_series_check_accepts_a_good_series():
    series, times = _series()
    assert checks.check_series(series, times) == []


def test_series_check_refuses_a_rising_energy():
    series, times = _series()
    series["E"][3] = series["E"][2] + 1e-6
    assert any("E rose" in f for f in checks.check_series(series, times))


def test_series_check_refuses_a_missing_snapshot():
    series, times = _series()
    short = {k: v[:2] + v[3:] for k, v in series.items()}
    assert any("rows" in f for f in checks.check_series(short, times))


def test_series_check_refuses_max_u_above_one():
    series, times = _series()
    series["max_abs_u"][1] = 1.0 + 1e-9
    assert any("max|u|" in f for f in checks.check_series(series, times))


def _arc(eps=0.04, sigma=1.0):
    times = [0.0, 0.1, 0.2]
    x = np.linspace(-1.0, 3.0, 257)
    rows = [np.tanh((math.sqrt(1 - 2 * t) - np.abs(x - 1.0)) / eps) for t in times]
    report = {
        "benchmark": {
            "times": times,
            "radius_fit": [math.sqrt(1 + 1 / sigma**2 - 2 * t) for t in times],
            "oracle_contact_diff_max": 0.01,
        }
    }
    return report, times, rows, x, eps, sigma


def test_arc_check_accepts_the_closed_form():
    assert checks.check_arc(*_arc()) == []


def test_arc_check_refuses_a_radius_off_by_four_eps():
    report, times, rows, x, eps, sigma = _arc()
    report["benchmark"]["radius_fit"][1] += 4 * eps
    fails = checks.check_arc(report, times, rows, x, eps, sigma)
    assert any("radius_fit" in f for f in fails)


def test_arc_check_refuses_a_contact_off_by_four_eps():
    report, times, rows, x, eps, sigma = _arc()
    rows[2] = np.tanh((math.sqrt(1 - 0.4) + 4 * eps - np.abs(x - 1.0)) / eps)
    fails = checks.check_arc(report, times, rows, x, eps, sigma)
    assert any("contacts" in f for f in fails)


def test_arc_check_refuses_an_oracle_disagreement():
    report, *rest = _arc()
    report["benchmark"]["oracle_contact_diff_max"] = 0.2
    assert any("oracle" in f for f in checks.check_arc(report, *rest))


def _sweep(energies=(1.0, 6.0, 30.0), bf=(0.1, 0.02, 0.005)):
    sigmas = (0.5, 0.1, 0.02)
    t = [0.0, 0.05, 0.15, 0.25, 0.3]
    child = {
        s: {"t": t, "normal_dirichlet_energy": [0.0, e / 0.2, e / 0.2, e / 0.2, 0.0]}
        for s, e in zip(sigmas, energies)
    }
    windows = {s: checks.window_trapezoid(t, c["normal_dirichlet_energy"], 0.05, 0.25)
               for s, c in child.items()}
    sweep_json = {"rows": [{"value": s, "normal_dirichlet_window": windows[s]} for s in sigmas]}
    sweep_csv = {"value": list(sigmas), "bf[xbump:cx=0.2,w=0.8]": list(bf)}
    return sweep_json, sweep_csv, child, (0.05, 0.25)


def test_sweep_check_accepts_the_frozen_trace_limit():
    assert checks.check_sweep(*_sweep()) == []


def test_sweep_check_refuses_windows_not_monotone_in_sigma():
    fails = checks.check_sweep(*_sweep(energies=(1.0, 30.0, 6.0)))
    assert any("do not rise" in f for f in fails)


def test_sweep_check_refuses_a_shallow_slope():
    fails = checks.check_sweep(*_sweep(energies=(1.0, 1.5, 2.0)))
    assert any("slope" in f for f in fails)


def test_sweep_check_refuses_a_window_that_disagrees_with_the_series():
    sweep_json, *rest = _sweep()
    sweep_json["rows"][1]["normal_dirichlet_window"] *= 1 + 1e-9
    assert any("recomputed" in f for f in checks.check_sweep(sweep_json, *rest))


def test_sweep_check_refuses_a_boundary_functional_that_does_not_fall():
    fails = checks.check_sweep(*_sweep(bf=(0.1, 0.05, 0.03)))
    assert any("bf[" in f for f in fails)


def test_standing_wave_check_refuses_a_moved_layer():
    x = np.linspace(0.0, 1.0, 101)
    u = np.tanh((x - 0.5) / 0.05)
    series = {"xi_abs": [1e-5], "E": [1.333], "E_over_sigma0": [1.0]}
    assert checks.check_standing_wave(series, x, u, 0.5) == []
    moved = np.tanh((x - 0.53) / 0.05)
    assert any("crossings" in f for f in checks.check_standing_wave(series, x, moved, 0.5))


def test_header_split_keeps_bracketed_commas():
    line = "value,bf[xbump:cx=0.2,w=0.8],bf[dilation:cx=1.0,cy=0.0]\n"
    assert checks.split_header(line) == [
        "value", "bf[xbump:cx=0.2,w=0.8]", "bf[dilation:cx=1.0,cy=0.0]"
    ]

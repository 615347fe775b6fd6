"""The benchmark's workloads: seeded inputs, one round of each through
the same public calls as its CLI subcommand, and the step counts.

Seed 0 runs the shipped geometry. Any other seed shifts the grid in x
by k * 2**-20 with 0 < |k| * 2**-20 < h/2, drawn from the seed; for the
1D standing wave the layer position x_star moves along. A dyadic shift
adds exactly to the shipped extents, so the spacing, dt, step counts and
closed forms are those of seed 0.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path

WORKLOADS = ("standing_wave_1d", "arc256", "sigma_sweep")

SHIFT_UNIT = 2.0**-20

# workload -> (shipped config, key = value edits applied to its text)
SOURCES = {
    "standing_wave_1d": ("standing_wave_1d.ini", {}),
    # the acceptance suite's arc256: the shipped arc benchmark at half
    # resolution
    "arc256": (
        "arc_benchmark.ini",
        {"nx": "256", "ny": "128", "eps": "0.04", "cadence": "250"},
    ),
    "sigma_sweep": ("sigma_sweep.ini", {}),
}


def _values(text: str, key: str) -> list[str]:
    return re.findall(rf"^{re.escape(key)}\s*=\s*(\S+)", text, flags=re.M)


def _set(text: str, key: str, value: str) -> str:
    new, n = re.subn(
        rf"^({re.escape(key)}\s*=\s*)\S+", lambda m: m.group(1) + value, text, flags=re.M
    )
    if n != 1:
        raise ValueError(f"config key {key!r} occurs {n} times, expected once")
    return new


def grid_shift(text: str, seed: int) -> float:
    """The seed's x offset: 0 for seed 0, else a nonzero dyadic multiple
    of 2**-20 below half a cell."""
    if seed == 0:
        return 0.0
    (x_min,), (x_max,), (nx,) = (_values(text, k) for k in ("x_min", "x_max", "nx"))
    h = (float(x_max) - float(x_min)) / (int(nx) - 1)
    kmax = int(0.5 * h / SHIFT_UNIT) - 1
    rng = random.Random(seed)
    return rng.choice((-1, 1)) * rng.randint(1, kmax) * SHIFT_UNIT


def input_text(root: Path, workload: str, seed: int) -> str:
    """The workload's config text for a seed; seed 0 gives the shipped
    file's text, edited only where the workload says."""
    name, edits = SOURCES[workload]
    text = (root / "configs" / name).read_text(encoding="utf-8")
    for key, value in edits.items():
        text = _set(text, key, value)
    shift = grid_shift(text, seed)
    if shift:
        for key in ("x_min", "x_max", "x_star"):
            (old,) = _values(text, key) or (None,)
            if old is not None:
                text = _set(text, key, repr(float(old) + shift))
    return text


@dataclass
class Round:
    """One round: its config, when set-up ended, its wall time, and the
    run records it produced."""

    config: object
    setup_done: float
    wall_s: float
    records: list


def run_round(workload: str, input_path: Path, out_dir: Path) -> Round:
    """Parse the input, build the initial state, then run the workload
    and write its outputs as its CLI subcommand does. The wall time runs
    from the first solver call to the last file written."""
    from phaselab.lab import config as cfg
    from phaselab.lab import experiments as ex

    config = cfg.parse_config(input_path)
    config = replace(config, output=replace(config.output, dir=str(out_dir)))
    cfg.build_state(config)
    setup_done = time.perf_counter()
    if workload == "standing_wave_1d":
        record = ex.run_single(config)
        ex.write_run_outputs(config, record, out_dir)
        records = [record]
    elif workload == "arc256":
        record, report = ex.arc_benchmark(config)
        ex.write_run_outputs(
            config,
            record,
            out_dir,
            extra_report={"benchmark": report, "checks": report["checks"]},
        )
        records = [record]
    else:
        results, report = ex.sweep(config, threads=1)
        ex.write_sweep_outputs(config, results, report, out_dir)
        records = [rec for _, rec in results]
    wall = time.perf_counter() - setup_done
    return Round(config, setup_done, wall, records)


def march_times(config) -> tuple[int, list[float]]:
    """(steps, snapshot times) of one config's march, counted here
    from the program's `stable_dt` and the schedule: the march takes
    min(dt, t_end - t) steps until t reaches t_end less 1e-12 * max(1,
    |t_end|), and observes at t = 0, every `cadence` steps and at the
    last step."""
    from phaselab import stable_dt
    from phaselab.lab.config import build_state

    sched = config.schedule
    dt = sched.dt if sched.dt is not None else stable_dt(build_state(config), sched.safety)
    t_end = sched.t_end
    t_stop = t_end - 1e-12 * max(1.0, abs(t_end))
    t, k, times = 0.0, 0, [0.0]
    while t < t_stop:
        step = min(dt, t_end - t)
        k += 1
        observing = k % sched.cadence == 0 or t + step >= t_stop
        t += step
        if observing:
            times.append(t)
    return k, times


def run_configs(config) -> list:
    """The configs that a round marches: the sweep's children, or the
    config itself."""
    from phaselab.lab.config import child_configs

    if config.experiment.mode.startswith("sweep"):
        return [child for _, child in child_configs(config)]
    return [config]


def plan(config) -> dict:
    """Operations, steps, node updates and snapshot times of a round."""
    cfgs = run_configs(config)
    counts = [march_times(c) for c in cfgs]
    return {
        "ops": len(cfgs),
        "steps": sum(k for k, _ in counts),
        "times": [times for _, times in counts],
        "node_updates": sum(c.grid.nx * c.grid.ny * k for c, (k, _) in zip(cfgs, counts)),
    }

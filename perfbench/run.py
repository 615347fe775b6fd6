"""phaselab benchmark: one workload, one seed, one thread.

    python3 perfbench/run.py --workload arc256 --seed 0 --seconds 22 --trace 0

Runs from the root of a checkout and imports phaselab from its ``src``.
Every round of the workload runs cold, in a fresh child process of its
own, as a CLI invocation would: a round parses the input, builds the
initial state, runs the workload, writes its outputs and checks them.

With ``--trace 0`` rounds follow one another until ``--seconds`` have
passed (at least one round), and the end-to-end metrics are the medians
over rounds. With ``--trace 1`` one untraced and one traced round run;
their output files must be byte-identical, the spans go to
``.perfbench_trace/<workload>-seed<seed>.jsonl``, and the per-layer
metrics are printed. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
TRACE_ROOT = ROOT / ".perfbench_trace"
MB = 1e6
NODE_UPDATE_BYTES = 16  # one float64 read and one written per node update
CHILD_TIMEOUT_S = 170


def import_phaselab():
    """Import phaselab from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import phaselab
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import phaselab from {src}: {exc}")
    if src.resolve() not in Path(phaselab.__file__).resolve().parents:
        raise SystemExit(f"perfbench: phaselab was imported from {phaselab.__file__}")


def dir_bytes(root: Path) -> tuple[int, int]:
    """(files, bytes) under root."""
    files = [p for p in root.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def check_round(workload, rnd, out_dir, plan) -> list[str]:
    """Every correctness check of one round's outputs."""
    import numpy as np

    import checks
    import workloads

    fails = []
    cfgs = workloads.run_configs(rnd.config)
    series = {}
    for cfg, times in zip(cfgs, plan["times"]):
        run_dir = Path(cfg.output.dir) if len(cfgs) > 1 else out_dir
        ser = checks.read_csv(run_dir / "series.csv")
        fails += [f"{run_dir.name}: {f}" for f in checks.check_series(ser, times)]
        series[cfg.physics.sigma] = ser
    g = rnd.config.grid
    x = g.x_min + (g.x_max - g.x_min) / (g.nx - 1) * np.arange(g.nx)
    if workload == "standing_wave_1d":
        u = rnd.records[0].snapshots[-1].state.u.values[:, 0]
        x_star = dict(rnd.config.initial.params)["x_star"]
        fails += checks.check_standing_wave(series[rnd.config.physics.sigma], x, u, x_star)
    elif workload == "arc256":
        rec = rnd.records[0]
        fails += checks.check_arc(
            checks.read_json(out_dir / "report.json"),
            plan["times"][0],
            [s.state.u.values[:, 0] for s in rec.snapshots],
            x,
            rnd.config.physics.eps,
            rnd.config.physics.sigma,
        )
    else:
        ex = rnd.config.experiment
        fails += checks.check_sweep(
            checks.read_json(out_dir / "sweep.json"),
            checks.read_csv(out_dir / "sweep.csv"),
            series,
            (ex.window_t1, ex.window_t2),
        )
    return fails


def snapshot_bytes(records) -> int:
    """Bytes of the distinct arrays that the records' snapshots hold."""
    import numpy as np

    seen = {}
    for rec in records:
        for snap in rec.snapshots:
            arrays = [snap.state.u.values]
            if snap.state.dudt is not None:
                arrays.append(snap.state.dudt.values)
            for fd in snap.faces.values():
                arrays += [v for v in vars(fd).values() if isinstance(v, np.ndarray)]
            for a in arrays:
                seen[id(a)] = a.nbytes
    return sum(seen.values())


# (span name, statistic) pairs reported as ``<span name>.<statistic>``
SPAN_STATS = [
    ("solver.run", "self_s"),
    ("measures.observe", "calls"),
    ("measures.observe", "self_s"),
    ("measures.energy", "calls"),
    ("measures.energy", "self_s"),
    ("lab.extract.extract_interface", "calls"),
    ("lab.extract.extract_interface", "self_s"),
    ("sharp.evolve_front", "self_s"),
    ("sharp.curvature_vectors", "self_s"),
    ("sharp.redistribute", "calls"),
    ("varifold.boundary_functional", "calls"),
    ("varifold.boundary_functional", "self_s"),
    ("lab.experiments.write_run_outputs", "self_s"),
    ("record.write_series_csv", "self_s"),
    ("record.write_report_json", "self_s"),
    ("lab.experiments.arc_benchmark", "self_s"),
    ("lab.experiments.sweep_report", "self_s"),
    ("lab.config.parse_config", "self_s"),
    ("lab.config.build_state", "self_s"),
]
UNITS = {"calls": "count", "self_s": "s"}


def layer_metrics(summary, rnd, plan, out_dir) -> dict:
    """Per-layer metrics of a traced round; a span that never opened
    counts 0 calls and 0 s."""

    def stat(name, key):
        return summary.get(name, {}).get(key, 0)

    def ms_per_call(name):
        calls = stat(name, "calls")
        return stat(name, "total_s") / calls * 1e3 if calls else 0.0

    run_self = stat("solver.run", "self_s")
    oracle_steps = stat("sharp.curvature_vectors", "calls")
    values = {f"{n}.{k}": (stat(n, k), UNITS[k]) for n, k in SPAN_STATS}
    values.update({
        "solver.steps": (plan["steps"], "count"),
        "solver.step_us": (run_self / plan["steps"] * 1e6, "us"),
        "solver.bytes_per_s": (NODE_UPDATE_BYTES * plan["node_updates"] / run_self, "B/s"),
        "measures.observe.ms_per_call": (ms_per_call("measures.observe"), "ms"),
        "lab.extract.extract_interface.ms_per_call": (
            ms_per_call("lab.extract.extract_interface"), "ms"),
        "sharp.steps": (oracle_steps, "count"),
        "sharp.step_us": (
            stat("sharp.evolve_front", "total_s") / oracle_steps * 1e6 if oracle_steps else 0.0,
            "us"),
        "lab.experiments.files_written": (dir_bytes(out_dir)[0], "count"),
        "record.snapshots": (sum(len(r.snapshots) for r in rnd.records), "count"),
        "record.snapshot_mb": (snapshot_bytes(rnd.records) / MB, "MB"),
        "trace.unattributed_s": (stat("workload", "self_s"), "s"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def child(args) -> dict:
    """One cold round in this process; the result goes to the parent as
    a JSON line."""
    import_phaselab()
    import spans
    import workloads
    from phaselab.errors import PhaseLabError
    from phaselab.lab.config import parse_config

    input_path = Path(args.input)
    out_dir = Path(args.out)
    tracer = spans.Tracer() if args.child == "traced" else None
    try:
        if tracer is None:
            rnd = workloads.run_round(args.workload, input_path, out_dir)
        else:
            with spans.instrument(tracer), tracer.span("workload"):
                rnd = workloads.run_round(args.workload, input_path, out_dir)
    except PhaseLabError as exc:
        print(f"perfbench: operation failed: {exc}", file=sys.stderr)
        ops = len(workloads.run_configs(parse_config(input_path)))
        return {"ops": ops, "failed": ops}
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
    plan = workloads.plan(rnd.config)
    result = {
        "ops": plan["ops"],
        "failed": 0,
        "setup_s": rnd.setup_done - T_START,
        "wall_s": rnd.wall_s,
        "peak_rss_mb": rss,
        "node_updates": plan["node_updates"],
        "fails": check_round(args.workload, rnd, out_dir, plan),
    }
    if tracer is not None:
        tracer.write(TRACE_ROOT / f"{args.workload}-seed{args.seed}.jsonl")
        result["layers"] = layer_metrics(spans.summarize(tracer.spans), rnd, plan, out_dir)
    return result


def spawn(args, mode: str, input_path: Path, out_dir: Path) -> dict:
    """Run one round in a child process and wait for it to end."""
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--child", mode, "--input", str(input_path), "--out", str(out_dir),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: round exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if "wall_s" in result:
        print(f"perfbench: {mode} round wall_s {result['wall_s']:.4f}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("plain", "traced"), help=argparse.SUPPRESS)
    ap.add_argument("--input", help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(args)))
        return 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    if not (ROOT / "src" / "phaselab").is_dir() or not (ROOT / "configs").is_dir():
        raise SystemExit(f"perfbench: {ROOT} holds no phaselab source tree")
    work = OUT_ROOT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    input_path = work / "input.ini"
    input_path.write_text(
        workloads.input_text(ROOT, args.workload, args.seed), encoding="utf-8"
    )

    rounds = []
    if args.trace == 0:
        t_begin = time.perf_counter()
        while not rounds or time.perf_counter() - t_begin < args.seconds:
            rounds.append(spawn(args, "plain", input_path, work / "out"))
    else:
        # both rounds write to the same path, which the outputs echo
        rounds.append(spawn(args, "plain", input_path, work / "out"))
        (work / "out").rename(work / "out_untraced")
        rounds.append(spawn(args, "traced", input_path, work / "out"))
    done = [r for r in rounds if "wall_s" in r]
    fails = [f for r in done for f in r["fails"]]
    if not done:
        raise SystemExit("perfbench: no round completed")

    if args.trace == 0:
        wall = statistics.median(r["wall_s"] for r in done)
        _, out_bytes = dir_bytes(work / "out")
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(r["setup_s"] for r in done), "s"),
            "node_updates_per_s": (done[0]["node_updates"] / wall, "1/s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in done), "MB"),
            "output_mb": (out_bytes / MB, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        import checks

        if len(done) != 2:
            raise SystemExit("perfbench: a round failed")
        untraced, traced = done
        if checks.tree_bytes(work / "out_untraced") != checks.tree_bytes(work / "out"):
            fails.append("traced outputs differ from untraced outputs")
        metrics = traced["layers"]
        metrics["trace.overhead_s"] = {
            "value": traced["wall_s"] - untraced["wall_s"], "unit": "s"
        }

    for f in fails:
        print(f"perfbench: check failed: {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not fails,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())

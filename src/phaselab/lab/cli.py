"""Command-line harness.

Subcommands: run, sweep-eps, sweep-sigma, arc-benchmark, oracle, report.
Exit codes: 0 success, 2 configuration error, 3 numerical divergence,
4 acceptance-check failure in ``report``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from ..errors import ConfigurationError, DivergenceError, PhaseLabError
from . import experiments
from .config import parse_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_CHECK_FAILED = 4


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="phaselab",
        description="Phase-field laboratory: runs, sweeps, benchmarks, oracles.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep-eps", "sweep-sigma", "arc-benchmark", "oracle"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="config file path")
        sp.add_argument("--out", default=None, help="output directory override")
        if name.startswith("sweep-"):
            # only the sweeps fan out over worker processes
            sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--dump-fields", action="store_true")
        sp.add_argument("--quiet", action="store_true")
    rp = sub.add_parser("report")
    rp.add_argument("--out", required=True, help="run directory to check")
    rp.add_argument("--quiet", action="store_true")
    return p


def _say(quiet: bool, *parts) -> None:
    if not quiet:
        print(*parts)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "report":
        failures = experiments.check_run_dir(args.out)
        if failures:
            for f in failures:
                _say(args.quiet, "FAIL:", f)
            return EXIT_CHECK_FAILED
        _say(args.quiet, "all checks passed")
        return EXIT_OK

    try:
        config = parse_config(args.config)
        if args.out is not None:
            config = replace(
                config, output=replace(config.output, dir=args.out)
            )
        if args.dump_fields:
            config = replace(
                config, output=replace(config.output, dump_fields=True)
            )
        mode_arg = args.command
        if config.experiment.mode != mode_arg:
            config = replace(
                config, experiment=replace(config.experiment, mode=mode_arg)
            )

        out_dir = Path(config.output.dir)
        if mode_arg == "run":
            record = experiments.run_single(config)
            experiments.write_run_outputs(config, record, out_dir)
            _say(args.quiet, f"run complete: {len(record.snapshots)} snapshots -> {out_dir}")
        elif mode_arg in ("sweep-eps", "sweep-sigma"):
            results, report = experiments.sweep(config, threads=args.threads)
            experiments.write_sweep_outputs(config, results, report, out_dir)
            _say(args.quiet, f"sweep complete: {len(results)} runs -> {out_dir}")
        elif mode_arg == "arc-benchmark":
            record, report = experiments.arc_benchmark(config)
            experiments.write_run_outputs(
                config, record, out_dir, extra_report={"benchmark": report, "checks": report["checks"]}
            )
            _say(
                args.quiet,
                "arc benchmark: radius_err_max=%.3e contact_err_max=%.3e vel_rel_err_max=%.3e"
                % (
                    report["radius_err_max"],
                    report["contact_err_max"],
                    report["velocity_rel_err_max"],
                ),
            )
        elif mode_arg == "oracle":
            report = experiments.oracle(config)
            experiments.write_oracle_outputs(config, report, out_dir)
            _say(args.quiet, f"oracle complete -> {out_dir}")
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except PhaseLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness.

    cbolab run --config cfg.json [--set key=value ...] [--output DIR] [--check]

`run` executes one experiment, writing CSVs, a manifest echoing the fully
resolved configuration, and a one-page summary into the output directory.
Exit codes: 0 success, 1 configuration or runtime error, 2 a `--check`
assertion failed.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .config import load_config, manifest_text
from .consensus import NumericalBreakdownError
from .experiments import DRIVERS, write_summary
from .objectives import ConfigurationError
from .particle import DivergenceError


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cbolab",
                                     description="consensus-based optimization lab")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("--config", required=True, help="JSON config path")
    run_p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key (repeatable)")
    run_p.add_argument("--output", default="runs/out",
                       help="output directory (default: runs/out)")
    run_p.add_argument("--check", action="store_true",
                       help="evaluate the config's check thresholds; exit 2 on failure")

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ConfigurationError, DivergenceError, NumericalBreakdownError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run(args) -> int:
    cfg = load_config(args.config, args.overrides)
    outdir = args.output
    try:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "manifest.json"), "w") as fh:
            fh.write(manifest_text(cfg, __version__))
    except OSError as exc:
        raise ConfigurationError(
            f"--output {outdir}: cannot write ({exc.strerror})") from None

    # the driver is called here, apart from write_summary, because
    # perfbench/launch.py times the entries of DRIVERS
    lines, measured = DRIVERS[cfg["experiment"]](cfg, outdir)
    checks = write_summary(cfg, outdir, lines, measured)

    failed = [name for name, ok, _ in checks if not ok]
    if args.check and failed:
        print(f"check failed: {', '.join(failed)} (see {outdir}/summary.txt)",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness.

    cbolab run --config cfg.json [--set key=value ...] [--output DIR] [--check]
    cbolab plot-data RUN_DIR

`run` executes one experiment, writing CSVs, a manifest echoing the fully
resolved configuration, and a one-page summary into the output directory.
Exit codes: 0 success, 1 configuration or runtime error, 2 a `--check`
assertion failed.  `plot-data` turns a run directory's CSVs into
whitespace-separated data files plus a gnuplot script; no plotting happens
here.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import __version__
from .config import ConfigError, load_config, manifest_text
from .experiments import DRIVERS, write_summary
from .objectives import ConfigurationError


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

    plot_p = sub.add_parser("plot-data", help="emit gnuplot data files from a run dir")
    plot_p.add_argument("run_dir")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _run(args)
        return _plot_data(args.run_dir)
    except ConfigurationError as exc:    # a ConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run(args) -> int:
    cfg = load_config(args.config, args.overrides)
    outdir = args.output
    os.makedirs(outdir, exist_ok=True)

    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        fh.write(manifest_text(cfg, __version__))

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


def _read_csv(path: str):
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ConfigError(f"{path} has no data rows")
    return rows[0], rows[1:]


def _plot_data(run_dir: str) -> int:
    import math

    wrote = []
    traj = _read_csv(os.path.join(run_dir, "trajectory.csv"))
    if traj:
        header, rows = traj
        t_col = header.index("time")
        w_col = header.index("w2_sq_to_vstar")
        dat = os.path.join(run_dir, "decay.dat")
        with open(dat, "w") as fh:
            fh.write("# time  w2_sq\n")
            for row in rows:
                fh.write(f"{row[t_col]} {row[w_col]}\n")
        with open(os.path.join(run_dir, "decay.gp"), "w") as fh:
            fh.write("set logscale y\nset xlabel 't'\nset ylabel 'W2^2'\n"
                     "plot 'decay.dat' using 1:2 with lines title 'W2^2 decay'\n")
        wrote.append(dat)

    scaling = _read_csv(os.path.join(run_dir, "scaling.csv"))
    if scaling:
        header, rows = scaling
        dat = os.path.join(run_dir, "scaling.dat")
        with open(dat, "w") as fh:
            fh.write("# log_n  log_err\n")
            for row in rows:
                n, err = float(row[0]), float(row[1])
                if err > 0:
                    fh.write(f"{math.log(n)} {math.log(err)}\n")
        with open(os.path.join(run_dir, "scaling.gp"), "w") as fh:
            fh.write("set xlabel 'log N'\nset ylabel 'log error'\n"
                     "plot 'scaling.dat' using 1:2 with points title 'coupling error'\n")
        wrote.append(dat)

    if not wrote:
        print(f"error: no plottable CSVs found in {run_dir}", file=sys.stderr)
        return 1
    for path in wrote:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

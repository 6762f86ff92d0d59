"""Child-process launcher for the benchmark: runs `cbolab` and times it.

    python3 perfbench/launch.py TIMING_JSON MODE cbolab-arguments...

MODE is `plain` or `trace`.  The launcher imports `cbolab.cli`, wraps the
experiment drivers so the driver's entry and exit are time-stamped, and then
calls `cbolab.cli.main` with the remaining arguments, exactly as the
`cbolab` console script would.  In `trace` mode it also wraps the public
functions of each module at the names the package actually calls, keeping
calls, wall time and self time per span; nothing inside the package is
edited.  In both modes a speed probe (see `SpeedProbe`) samples how fast the
core runs while the program runs.  The timing file is written after
`main` returns; its time stamps are `time.monotonic()` readings, which share
one clock with the parent.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import signal
import sys
import time
from collections import defaultdict

PROBE_INTERVAL_S = 0.02
PROBE_LOOPS = 2000       # about 0.17 ms on an idle core: 1% of the run


class SpeedProbe:
    """Times a fixed pure-Python loop every PROBE_INTERVAL_S of wall time.

    On a shared host the core this process runs on slows by up to half for
    seconds at a time, while the other core may not.  A probe run from a
    timer signal in the program's own thread, between two bytecodes of the
    program, sees the same core at the same moment, so the parent can scale
    the program's times to a fixed core speed.  It costs about 1% of the run
    and touches no state of the program.
    """

    def __init__(self):
        self.samples = []          # (monotonic time stamp, probe seconds)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        self.samples.append((time.monotonic(), time.perf_counter() - t0))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)   # restart interrupted calls
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Tracer:
    """Nested spans kept in memory: calls, items, total and self seconds."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.items = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self._stack = []   # per open span: seconds covered by its children

    def wrap(self, name, fn, count=None):
        """`fn` timed as span `name`; `count(args, result)` adds to its items."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_s[name] += elapsed - inner
            if count is not None:
                self.items[name] += count(args, result)
            return result

        return wrapper

    def report(self):
        return {name: {"calls": self.calls[name], "items": self.items[name],
                       "total_s": self.total[name], "self_s": self.self_s[name]}
                for name in self.calls}


def _points(x):
    """Number of points in an (..., dim) array."""
    shape = getattr(x, "shape", ())
    n = 1
    for extent in shape[:-1]:
        n *= extent
    return n


def _fft_bytes(args, result):
    return args[0].nbytes + result.nbytes


class _TracedFFT:
    """Stand-in for the `scipy.fft` module as seen by `cbolab.galerkin`."""

    def __init__(self, tracer, module):
        self._module = module
        self.rfftn = tracer.wrap("galerkin.fft.forward", module.rfftn, _fft_bytes)
        self.irfftn = tracer.wrap("galerkin.fft.inverse", module.irfftn, _fft_bytes)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install_trace(tracer):
    """Wrap every layer at the name its callers look it up under."""
    from cbolab import cli, diagnostics, experiments, galerkin, particle, streams

    w = tracer.wrap
    cli.load_config = w("config.load", cli.load_config)

    streams.gaussians = w("streams.gaussians", streams.gaussians,
                          lambda a, r: len(a[2]))
    particle.consensus_point = w("consensus.point", particle.consensus_point,
                                 lambda a, r: len(a[0]))
    particle.cbo_step = w("particle.cbo_step", particle.cbo_step,
                          lambda a, r: a[0].n_particles)
    particle.mono_step = w("particle.mono_step", particle.mono_step,
                           lambda a, r: len(a[0]))
    run_opt = w("particle.run_optimization", particle.run_optimization)
    experiments.run_optimization = diagnostics.run_optimization = run_opt
    experiments.run_coupling = w("particle.run_coupling", experiments.run_coupling)
    experiments.success_probability = w("diagnostics.success_probability",
                                        experiments.success_probability)

    builtin = experiments.builtin_objective

    def traced_objective(*args, **kwargs):
        obj = builtin(*args, **kwargs)
        # Objective is frozen: swap its eval on a copy
        return dataclasses.replace(
            obj, eval=w("objectives.eval", obj.eval, lambda a, r: _points(a[0])))

    experiments.builtin_objective = traced_objective

    galerkin.sfft = _TracedFFT(tracer, galerkin.sfft)
    galerkin.rhs = w("galerkin.rhs", galerkin.rhs)
    galerkin.cbo_divergence_rhs = w("galerkin.cbo_divergence_rhs",
                                    galerkin.cbo_divergence_rhs)
    galerkin.step = w("galerkin.step", galerkin.step)
    galerkin.spectral_radius_bound = w("galerkin.spectral_radius_bound",
                                       galerkin.spectral_radius_bound)
    galerkin.project_initial = w("galerkin.project_initial",
                                 galerkin.project_initial)
    galerkin.evolve = w("galerkin.evolve", galerkin.evolve)


def _stamp_drivers(drivers, stamps, wrap=None):
    """Record monotonic entry and exit of whichever driver runs."""
    for name, driver in list(drivers.items()):
        inner = wrap("experiments.driver", driver) if wrap else driver

        def stamped(*args, _inner=inner, **kwargs):
            stamps["driver_enter"] = time.monotonic()
            try:
                return _inner(*args, **kwargs)
            finally:
                stamps["driver_exit"] = time.monotonic()

        drivers[name] = stamped


def main(argv):
    timing_path, mode, cli_args = argv[0], argv[1], argv[2:]
    if mode not in ("plain", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    from cbolab import cli
    import_s = time.perf_counter() - t0

    stamps = {}
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        install_trace(tracer)
    _stamp_drivers(cli.DRIVERS, stamps, tracer.wrap if tracer else None)

    try:
        rc = cli.main(cli_args)
    finally:
        probe.stop()

    import numpy
    import scipy
    doc = {"rc": rc, "import_s": import_s, **stamps,
           "cbolab_file": cli.__file__, "probe": probe.samples,
           "versions": {"python": sys.version.split()[0],
                        "numpy": numpy.__version__, "scipy": scipy.__version__}}
    if tracer is not None:
        doc["spans"] = tracer.report()
    with open(timing_path, "w") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

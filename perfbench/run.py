"""End-to-end and per-layer benchmark of `cbolab run` on shipped configs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME ... --smoke      # seconds, no references
    python3 perfbench/run.py --record                          # rewrite references.json

Each workload is one shipped config run as `cbolab run --check` in a fresh
child process, one child at a time, with the BLAS/OpenMP pools pinned to one
thread.  The seed reaches the program only as `--set seed=...`; it is taken
modulo the recorded seed slots so that every run has a reference.  The two
PDE configs are shortened with `--set` (see WORKLOADS) so that several fresh
processes fit into one run, but kept long enough that the solver, not start-up,
is most of each child's time.  Times are scaled to a fixed core speed with the
launcher's speed probe and aggregated over all children of the run (see
`end_to_end`).

`--trace 0` reports the end-to-end metrics of untraced children.  `--trace 1`
alternates untraced and traced children (see launch.py) and reports the
per-layer split of the traced ones.  Every child passes a correctness gate:
expected exit code, artifacts present, key results equal (to rounding) to the
references recorded for its seed in references.json.  Byte identity of
manifest.json and the CSVs against the recorded digests is printed as
information, not as a metric.  The last stdout line is the JSON result; the
line before it holds the environment, per-child figures and byte identity.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"
REFERENCES = HERE / "references.json"
WORK = ROOT / ".perfbench_work"
OUT_REL = ".perfbench_work/out"   # relative: it is echoed into manifest.json

SEED_SLOTS = 16
MIN_PLAIN_CHILDREN = 3
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# mean time of the launcher's speed probe (launch.SpeedProbe) on an idle core
# of the 2-vCPU Intel Xeon VM the benchmark was written on
PROBE_REF_S = 1.6e-4


@dataclass(frozen=True)
class Workload:
    config: str
    sets: tuple          # shrinks the shipped config to a few seconds
    smoke: tuple         # shrinks it further, for the benchmark's own test
    artifacts: tuple


_SNAP = ("snapshot_coeffs_0000.csv", "snapshot_coeffs_0001.csv",
         "grid_0000.csv", "grid_0001.csv")

WORKLOADS = {
    # production 2-D self-consistent solve for 30 of 250 steps: assembly and
    # FFT bound, plus both snapshots (6.6 MB of CSV)
    "pde2d": Workload(
        "configs/pde-run.json",
        ("pde.horizon=0.06", "pde.snapshot_times=[0.0, 0.06]"),
        ("pde.K=16", "pde.M=64", "pde.horizon=0.004",
         "pde.snapshot_times=[0.0, 0.004]"),
        ("manifest.json", "summary.txt", "series.csv") + _SNAP),
    # 300 of 1000 steps: frozen consensus, active truncation, many short
    # 1-D FFTs; exits 2
    "pde1d": Workload(
        "configs/confinement-1d.json",
        ("pde.horizon=0.3",),
        ("pde.K=224", "pde.M=896", "pde.horizon=0.01"),
        ("manifest.json", "summary.txt", "series.csv")),
    # small-N repeated runs, as shipped: overhead and stream bound
    "particles": Workload(
        "configs/success-prob.json",
        (),
        ("success.runs=2", "cbo.horizon=1.0"),
        ("manifest.json", "summary.txt", "success.csv")),
    # large-N reference run plus mean-field twins: bandwidth and memory bound
    "coupling": Workload(
        "configs/mfl-scaling.json",
        (),
        ("coupling.sizes=[16, 32, 64]", "coupling.reference_size=256"),
        ("manifest.json", "summary.txt", "scaling.csv")),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s",
                    "cpu_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# one child process


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(name, seed, mode, extra_sets=()):
    """Spawn one `cbolab run` through the launcher; return its record."""
    wl = WORKLOADS[name]
    out = ROOT / OUT_REL
    shutil.rmtree(out, ignore_errors=True)
    timing = WORK / "timing.json"
    timing.unlink(missing_ok=True)
    cmd = [sys.executable, str(LAUNCH), str(timing), mode,
           "run", "--config", wl.config, "--output", OUT_REL, "--check",
           "--set", f"seed={seed}"]
    for item in wl.sets + tuple(extra_sets):
        cmd += ["--set", item]
    with open(WORK / "child.log", "w") as log:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                                stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {"mode": mode, "seed": seed, "rc": proc.returncode,
           "wall_s": end - spawn, "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if timing.exists():
        doc = json.loads(timing.read_text())
        rec["timing"] = doc
        if "driver_enter" in doc:
            rec["setup_s"] = doc["driver_enter"] - spawn
            rec["driver_s"] = doc["driver_exit"] - doc["driver_enter"]
            if doc.get("probe"):
                rec["ref_s"] = _at_reference_speed(rec, doc, spawn, end)
    rec["files"] = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    rec["digests"], rec["output_bytes"] = _digests(out)
    try:
        rec["key_results"] = KEY_RESULTS[name](out)
        rec["steps"] = _steps(name, json.loads((out / "manifest.json").read_text()))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        rec["error"] = f"{type(exc).__name__}: {exc}"
    if proc.returncode not in (0, 2):
        rec["log"] = (WORK / "child.log").read_text()[-2000:]
    shutil.rmtree(out, ignore_errors=True)
    return rec


def _speed(probe, lo, hi):
    """Core speed over [lo, hi] relative to the reference: below 1 when slow.

    The mean probe time drops the slowest and fastest tenth of the samples, as
    a probe that an interrupt lands in reads long however fast the core ran.
    """
    window = sorted(dt for t, dt in probe if lo <= t <= hi)
    window = window or sorted(dt for _, dt in probe)
    cut = len(window) // 10
    return PROBE_REF_S / statistics.fmean(window[cut:len(window) - cut])


def _at_reference_speed(rec, doc, spawn, end):
    """The child's times as they would read on a core running at reference speed.

    Each span is scaled by the probe samples taken inside it, so a stretch in
    which a neighbour on the host slowed this core counts at the work done.
    """
    probe, enter, leave = doc["probe"], doc["driver_enter"], doc["driver_exit"]
    whole = _speed(probe, spawn, end)
    return {"wall_s": rec["wall_s"] * whole, "cpu_s": rec["cpu_s"] * whole,
            "setup_s": rec["setup_s"] * _speed(probe, spawn, enter),
            "driver_s": rec["driver_s"] * _speed(probe, enter, leave)}


def _digests(out):
    """sha256 of manifest.json and every CSV (summary.txt holds a timestamp)."""
    digests, size = {}, 0
    if out.is_dir():
        for path in sorted(out.iterdir()):
            if path.name == "manifest.json" or path.suffix == ".csv":
                data = path.read_bytes()
                digests[path.name] = hashlib.sha256(data).hexdigest()
                size += len(data)
    return digests, size


def _steps(name, manifest):
    """Time steps the driver performs, from the resolved config."""
    cfg = manifest["config"]
    if name in ("pde2d", "pde1d"):
        return max(1, round(cfg["pde"]["horizon"] / cfg["pde"]["dt"]))
    if name == "particles":
        c = cfg["cbo"]
        return (cfg["success"]["runs"] * c["n_particles"]
                * max(1, round(c["horizon"] / c["dt"])))
    c = cfg["coupling"]
    n_steps = round(c["horizon"] / c["dt"])
    # interacting reference, interacting sizes, mean-field twins of the sizes
    return (c["reference_size"] + 2 * sum(c["sizes"])) * n_steps


# ---------------------------------------------------------------------------
# key results


def _column(path, name):
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    j = header.index(name)
    return [float(r[j]) for r in rows]


def _pde2d_results(out):
    mass = _column(out / "series.csv", "mass")
    return {"mass_drift": max(abs(m - mass[0]) for m in mass),
            "final_valpha_1": _column(out / "series.csv", "valpha_1")[-1],
            "final_valpha_2": _column(out / "series.csv", "valpha_2")[-1]}


def _pde1d_results(out):
    return {"right_mass_sup": max(_column(out / "series.csv", "right_mass"))}


def _particles_results(out):
    errors = _column(out / "success.csv", "final_error")
    return {"hits": sum(_column(out / "success.csv", "hit")),
            "diverged": sum(_column(out / "success.csv", "diverged")),
            "mean_final_error": sum(errors) / len(errors)}


def _coupling_results(out):
    ns = _column(out / "scaling.csv", "n")
    errs = _column(out / "scaling.csv", "sup_mse")
    res = {f"log_sup_mse_{int(n)}": math.log(e) for n, e in zip(ns, errs)}
    pts = [(math.log(n), math.log(e)) for n, e in zip(ns, errs) if e > 0.0]
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    res["slope"] = (sum((x - mx) * (y - my) for x, y in pts)
                    / sum((x - mx) ** 2 for x, _ in pts))
    return res


KEY_RESULTS = {"pde2d": _pde2d_results, "pde1d": _pde1d_results,
               "particles": _particles_results, "coupling": _coupling_results}


# ---------------------------------------------------------------------------
# correctness gate


def _tolerance(ref):
    """Rounding allowance: a run is reproducible for its seed."""
    return 1e-9 * (1.0 + abs(ref))


def gate(name, rec, ref):
    """Problems with one child's run; empty when it passes."""
    wl = WORKLOADS[name]
    problems = []
    if "error" in rec:
        problems.append(rec["error"])
    if "log" in rec:
        problems.append(f"child output: {rec['log']}")
    if "timing" not in rec:
        problems.append(f"no timing record (exit {rec['rc']})")
    elif not Path(rec["timing"]["cbolab_file"]).resolve().is_relative_to(ROOT / "src"):
        problems.append(f"imported cbolab from {rec['timing']['cbolab_file']}")
    if "ref_s" not in rec:
        problems.append("no driver time stamps or speed probe samples")
    missing = sorted(set(wl.artifacts) - set(rec["files"]))
    if missing:
        problems.append(f"missing artifacts {missing}")
    if ref is None:        # smoke mode: no references at these sizes
        if rec["rc"] not in (0, 2):
            problems.append(f"exit {rec['rc']}")
        return problems
    seed_ref = ref["seeds"][str(rec["seed"])]
    if rec["rc"] != seed_ref["rc"]:
        problems.append(f"exit {rec['rc']}, expected {seed_ref['rc']}")
    got = rec.get("key_results", {})
    for key, want in seed_ref["key_results"].items():
        tol = _tolerance(want)
        if key not in got or not abs(got[key] - want) <= tol:
            problems.append(f"{key}={got.get(key)} outside {want}+-{tol:.3g}")
    return problems


def load_references():
    refs = json.loads(REFERENCES.read_text())
    for name, wl in WORKLOADS.items():
        if refs["workloads"][name]["sets"] != list(wl.sets):
            raise SystemExit(f"references.json was recorded for other sizes of {name}")
    return refs


# ---------------------------------------------------------------------------
# metrics


def end_to_end(recs):
    """Times at reference core speed, averaged over the run's children.

    On a shared host a core runs up to half as fast for seconds or minutes at
    a time, so raw times of the same code spread by a third between runs.
    Each time is therefore scaled by the speed probe sampled inside it (see
    `_at_reference_speed`), then averaged over all children; throughput is
    all steps over all scaled driver time.  Set-up time and memory are the
    median child's.  Raw and scaled figures of every child are printed on the
    info line.
    """
    ref = [r["ref_s"] for r in recs]
    return {"wall_s": statistics.fmean(t["wall_s"] for t in ref),
            "setup_s": statistics.median(t["setup_s"] for t in ref),
            "steps_per_s": (sum(r["steps"] for r in recs)
                            / sum(t["driver_s"] for t in ref)),
            "cpu_s": statistics.fmean(t["cpu_s"] for t in ref),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in recs)}


def _div(a, b):
    return a / b if b else 0.0


def layers(rec):
    """Per-layer figures of one traced child, as (value, unit) pairs."""
    spans = rec["timing"]["spans"]

    def get(span, field):
        return spans.get(span, {}).get(field, 0)

    cbo_steps = get("particle.cbo_step", "items")
    mono_steps = get("particle.mono_step", "items")
    particle_steps = cbo_steps + mono_steps
    rhs_calls = get("galerkin.rhs", "calls")
    fft = ("galerkin.fft.forward", "galerkin.fft.inverse")
    fft_calls = sum(get(s, "calls") for s in fft)
    inside_driver = sum(v["self_s"] for k, v in spans.items() if k != "config.load")
    m = {
        "cli.import_s": (rec["timing"]["import_s"], "s"),
        "config.load_s": (get("config.load", "total_s"), "s"),
        "streams.gaussians.calls": (get("streams.gaussians", "calls"), "count"),
        "streams.gaussians.ns_per_particle_step": (
            1e9 * _div(get("streams.gaussians", "total_s"), particle_steps), "ns"),
        "objectives.eval.calls": (get("objectives.eval", "calls"), "count"),
        "objectives.eval.points": (get("objectives.eval", "items"), "count"),
        "objectives.evals_per_step": (
            _div(get("objectives.eval", "items"), cbo_steps), "ratio"),
        "consensus.point.calls": (get("consensus.point", "calls"), "count"),
        "consensus.point.ns_per_particle": (
            1e9 * _div(get("consensus.point", "total_s"),
                       get("consensus.point", "items")), "ns"),
        "particle.cbo_step.calls": (get("particle.cbo_step", "calls"), "count"),
        "particle.cbo_step.self_ns_per_particle_step": (
            1e9 * _div(get("particle.cbo_step", "self_s"), cbo_steps), "ns"),
        "particle.mono_step.calls": (get("particle.mono_step", "calls"), "count"),
        "particle.mono_step.self_ns_per_particle_step": (
            1e9 * _div(get("particle.mono_step", "self_s"), mono_steps), "ns"),
        "particle.run_optimization.self_s": (
            get("particle.run_optimization", "self_s"), "s"),
        "particle.run_coupling.self_s": (get("particle.run_coupling", "self_s"), "s"),
        "diagnostics.success_probability.self_s": (
            get("diagnostics.success_probability", "self_s"), "s"),
        "galerkin.step.calls": (get("galerkin.step", "calls"), "count"),
        "galerkin.step.self_s": (get("galerkin.step", "self_s"), "s"),
        "galerkin.rhs.calls": (rhs_calls, "count"),
        "galerkin.rkc_stages_per_step": (
            _div(rhs_calls, get("galerkin.step", "calls")), "count"),
        "galerkin.rhs.self_ms_per_call": (
            1e3 * _div(get("galerkin.rhs", "self_s")
                       + get("galerkin.cbo_divergence_rhs", "self_s"), rhs_calls),
            "ms"),
        "galerkin.fft.forward_calls": (get(fft[0], "calls"), "count"),
        "galerkin.fft.inverse_calls": (get(fft[1], "calls"), "count"),
        "galerkin.fft.calls_per_rhs": (_div(fft_calls, rhs_calls), "count"),
        "galerkin.fft.self_s": (sum(get(s, "self_s") for s in fft), "s"),
        "galerkin.fft.mb_computed": (sum(get(s, "items") for s in fft) / 1e6, "MB"),
        "galerkin.spectral_radius_bound.self_s": (
            get("galerkin.spectral_radius_bound", "self_s"), "s"),
        "galerkin.evolve.self_s": (get("galerkin.evolve", "self_s"), "s"),
        "galerkin.project_initial.s": (get("galerkin.project_initial", "total_s"), "s"),
        "experiments.output_bytes": (rec["output_bytes"], "bytes"),
        "experiments.driver.self_s": (get("experiments.driver", "self_s"), "s"),
        "trace.unattributed_s": (
            rec["wall_s"] - rec["setup_s"] - inside_driver, "s"),
    }
    return m


def per_layer(plain, traced):
    per_child = [layers(r) for r in traced]
    out = {name: {"value": statistics.median([c[name][0] for c in per_child]),
                  "unit": unit}
           for name, (_, unit) in per_child[0].items()}
    out["trace.overhead"] = {
        "value": statistics.median([r["ref_s"]["wall_s"] for r in traced])
        / statistics.median([r["ref_s"]["wall_s"] for r in plain]),
        "unit": "ratio"}
    return out


# ---------------------------------------------------------------------------
# driver


def _environment(recs):
    versions = next((r["timing"]["versions"] for r in recs if "timing" in r), {})
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg(), **versions}


def measure(name, seed, seconds, trace, smoke_sets):
    """Run children until `seconds` are used; return their records."""
    modes = ("plain", "trace") if trace else ("plain",)
    min_rounds = 1 if (trace or smoke_sets) else MIN_PLAIN_CHILDREN
    recs = []
    start = time.monotonic()
    while True:
        for mode in modes:
            recs.append(run_child(name, seed, mode, smoke_sets))
            if recs[-1]["rc"] < 0:      # killed by a signal, e.g. the timeout
                return recs
        rounds = len(recs) // len(modes)
        elapsed = time.monotonic() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return recs


def benchmark(args):
    smoke_sets = WORKLOADS[args.workload].smoke if args.smoke else ()
    refs = None if args.smoke else load_references()
    seed = args.seed % SEED_SLOTS
    ref = None if refs is None else refs["workloads"][args.workload]
    recs = measure(args.workload, seed, args.seconds, args.trace, smoke_sets)

    problems = {i: gate(args.workload, r, ref) for i, r in enumerate(recs)}
    failed = sum(1 for p in problems.values() if p)
    # neither a rerun nor the traced launcher may change a single output byte
    identical = all(r["digests"] == recs[0]["digests"] for r in recs)
    byte_identity = None
    if ref is not None:
        got, want = recs[0]["digests"], ref["seeds"][str(seed)]["digests"]
        byte_identity = {f: ("same" if got.get(f) == want.get(f)
                             else "changed" if f in got and f in want
                             else "added" if f in got else "missing")
                         for f in sorted(set(got) | set(want))}

    info = {"workload": args.workload, "seed": args.seed, "program_seed": seed,
            "environment": _environment(recs),
            "byte_identity_vs_reference": byte_identity,
            "reference_seed_spread": None if ref is None else ref["seed_spread"],
            "outputs_identical_across_children": identical,
            "children": [{k: r.get(k) for k in
                          ("mode", "rc", "wall_s", "setup_s", "driver_s",
                           "cpu_s", "ref_s", "peak_rss_mb", "steps",
                           "key_results")}
                         | {"problems": problems[i]} for i, r in enumerate(recs)]}
    print(json.dumps({"info": info}))

    plain = [r for i, r in enumerate(recs) if r["mode"] == "plain" and not problems[i]]
    traced = [r for i, r in enumerate(recs) if r["mode"] == "trace" and not problems[i]]
    metrics = {}
    if args.trace and plain and traced:
        metrics = per_layer(plain, traced)
    elif not args.trace and plain:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end(plain).items()}
    return {"correct": failed == 0 and identical, "attempted": len(recs),
            "failed": failed, "metrics": metrics}


def record():
    """Run every workload once per seed slot and write references.json."""
    doc = {"seed_slots": SEED_SLOTS, "workloads": {}}
    for name, wl in WORKLOADS.items():
        per_seed = {}
        for seed in range(SEED_SLOTS):
            rec = run_child(name, seed, "plain")
            problems = gate(name, rec, None)
            if problems:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            per_seed[str(seed)] = {"rc": rec["rc"], "key_results": rec["key_results"],
                                   "digests": rec["digests"]}
            print(name, seed, rec["rc"], rec["key_results"], file=sys.stderr)
        # how much the key results move from seed to seed: shown, not gated
        spread = {k: statistics.pstdev([s["key_results"][k]
                                        for s in per_seed.values()])
                  for k in per_seed["0"]["key_results"]}
        doc["workloads"][name] = {"config": wl.config, "sets": list(wl.sets),
                                  "seed_spread": spread, "seeds": per_seed}
    REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrink every workload further and skip the references")
    p.add_argument("--record", action="store_true",
                   help="rewrite references.json from this tree")
    args = p.parse_args(argv)
    if not args.record and args.workload is None:
        p.error("--workload is required")

    missing = [f for f in ["src/cbolab/cli.py"] + [w.config for w in WORKLOADS.values()]
               if not (ROOT / f).is_file()]
    if missing:
        print(f"error: {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    try:
        if args.record:
            record()
            return 0
        result = benchmark(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

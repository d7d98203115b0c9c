#!/usr/bin/env python3
"""modnet's benchmark: end-to-end throughput, mixing, set-up time and memory
on three workloads, and per-layer timing from a separate traced run.

    python3 perfbench/run.py --workload chain3_exact --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from a checkout of the repository; the package is imported from its
src/ directory and nothing is installed. A run prints a machine and run
record, every metric by name with its unit, and as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics with tracing off; --trace 1 reports the per-layer
metrics of a traced pass, plus trace.overhead_frac against an untraced pass
of the same run. Results and spans are also written under perfbench/out/.

Every end-to-end time is rescaled for the machine's speed at the moment it
was measured (see speed.py), so that runs of the same code agree on a shared
host whose speed drifts; the raw wall times are kept in the run record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("chain3_exact", "switch_hmm_pool", "estimator_batch")

END_TO_END = {
    "iters_per_s": "iter/s",
    "ess_per_s": "ess/s",
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "smc.regenerate_calls": "count",
    "smc.regenerate_s": "s",
    "smc.regenerate_us_p50": "us",
    "smc.regenerate_us_p99": "us",
    "smc.particle_steps": "count",
    "smc.particle_steps_per_s": "1/s",
    "smc.simulate_calls": "count",
    "smc.simulate_s": "s",
    "smc.dead_frac": "ratio",
    "smc.log_z_sd": "nat",
    "smc.self_s": "s",
    "inverse.regenerate_calls": "count",
    "inverse.regenerate_s": "s",
    "inverse.regenerate_us_p50": "us",
    "inverse.train_calls": "count",
    "inverse.train_s": "s",
    "inverse.train_samples_per_s": "1/s",
    "inverse.self_s": "s",
    "mh.update_calls": "count",
    "mh.update_s": "s",
    "mh.update_self_s": "s",
    "mh.update_us_p50": "us",
    "mh.update_us_p99": "us",
    "mh.accept_rate": "ratio",
    "mh.neg_inf_frac": "ratio",
    "mh.self_s": "s",
    "network.build_s": "s",
    "network.initialize_s": "s",
    "network.initialize_calls": "count",
    "network.self_s": "s",
    "traceio.writer_rows": "count",
    "traceio.writer_s": "s",
    "traceio.bytes_written": "bytes",
    "traceio.accumulator_s": "s",
    "traceio.summary_s": "s",
    "traceio.self_s": "s",
    "experiment.chain_s_max": "s",
    "experiment.chain_s_sum": "s",
    "experiment.pool_overhead_s": "s",
    "experiment.pool_efficiency": "ratio",
    "experiment.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# Set-up is timed as repeated separate calls and the median is reported. On
# chain workloads the calls follow every unit, taking a tenth of its time,
# so set-up is sampled across the whole run as the units are, and every
# batch of calls is rescaled by the machine's speed around it.
SETUP_SHARE = 0.1
SETUP_MAX_REPS = 200
ESTIMATOR_SETUP_REPS = 5


def load_modnet():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "modnet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no modnet package under {src}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    import modnet
    import modnet.experiment
    import modnet.oracle
    import modnet.outlier_oracle
    import modnet.outlier_regression
    import modnet.reference_models
    if Path(modnet.__file__).resolve().parent != (src / "modnet").resolve():
        raise SystemExit(f"perfbench: imported modnet from {modnet.__file__}, not {src}")
    return modnet


def machine_record(args, runs: dict) -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **runs,
    }


def repeat_for(seconds: float, fn, min_reps: int = 1, max_reps: int | None = None):
    """Call fn(i) until another call would likely overrun `seconds`."""
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(fn(len(results)))
        n = len(results)
        elapsed = time.perf_counter() - t0
        if max_reps is not None and n >= max_reps:
            break
        if n >= min_reps and elapsed * (n + 1) / n > seconds:
            break
    return results


def time_setup(setup, seed: int, seconds: float, min_reps: int) -> list[float]:
    """Separate set-up calls for about `seconds`, each rescaled by the
    machine's speed around the batch."""
    def once(_):
        t0 = time.perf_counter()
        setup(seed)
        return time.perf_counter() - t0
    reps, scale = speed.bracket(repeat_for, seconds, once, min_reps, SETUP_MAX_REPS)
    return [r * scale for r in reps]


def scaled_unit(unit, *args):
    """unit(*args), a UnitResult or None, with the machine's speed around
    it attached."""
    result, scale = speed.bracket(unit, *args)
    if result is not None:
        result.scale = scale
    return result


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


# -- chain workloads ------------------------------------------------------------


def run_chain_units(wl, seed: int, seconds: float, workdir: Path, ops,
                    first: int = 0, after=None, **overrides) -> list:
    """Units numbered from `first`; unit i runs from its own derived seed.
    after(unit) runs once each finished unit's output is removed."""
    from workloads import _UNIT, sub_seed

    def one(i):
        out = workdir / f"unit{first + i}"
        try:
            cfg = wl.config(sub_seed(seed, _UNIT, first + i), **overrides)
            result = scaled_unit(wl.unit, cfg, out, ops)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if after is not None and result is not None:
            after(result)
        return result

    return [r for r in repeat_for(seconds, one) if r is not None]


def chain_end_to_end(wl, args, workdir, ops) -> tuple[dict, dict]:
    setups: list[float] = []

    def set_up(unit):
        setups.extend(time_setup(wl.setup, args.seed, SETUP_SHARE * unit.wall_s, 1))

    units = run_chain_units(wl, args.seed, args.seconds, workdir, ops, after=set_up)
    rss = peak_rss_mb()  # before the checks, which hold every chain at once
    wl.finish(ops)
    return end_to_end(units, wl.ess(), setups, rss)


def end_to_end(units, ess: float, setups: list[float], rss: float) -> tuple[dict, dict]:
    """The end-to-end metrics from a run's scaled units. ess_per_s is the
    run's effective samples per iteration at the median throughput, so the
    machine's speed enters it the way it enters iters_per_s."""
    rate = median([u.iterations / u.scaled_s for u in units])
    iterations = sum(u.iterations for u in units)
    metrics = {
        "iters_per_s": rate,
        "ess_per_s": ess / iterations * rate if iterations else 0.0,
        "run_s": median([u.scaled_s for u in units]),
        "setup_s": median(setups),
        "peak_rss_mb": rss,
    }
    return metrics, {"units": len(units), "setup_reps": len(setups), "ess": ess,
                     "unit_wall_s": [u.wall_s for u in units],
                     "unit_scale": [u.scale for u in units]}


def chain_per_layer(wl, args, workdir, ops, modnet) -> tuple[dict, dict, object]:
    import tracing

    workers = wl.doc.get("workers", 1)
    phases = 3 if workers > 1 else 2
    share = args.seconds / phases
    plain = run_chain_units(wl, args.seed, share, workdir, ops)
    serial = plain if workers == 1 else run_chain_units(
        wl, args.seed, share, workdir, ops, first=len(plain), workers=1)
    tracer = tracing.Tracer()
    with tracing.traced(tracer, modnet):
        traced = run_chain_units(wl, args.seed, share, workdir, ops,
                                 first=len(plain) + len(serial), workers=1)
    wl.finish(ops)

    rate = lambda us: median([u.iterations / u.scaled_s for u in us])
    overhead = rate(traced) / rate(serial) - 1.0 if rate(serial) else 0.0
    metrics = tracing.layer_metrics(tracer)
    metrics["smc.log_z_sd"] = median([u.log_z_sd for u in traced])
    metrics["traceio.bytes_written"] = sum(u.bytes_written for u in traced)
    # Traced busy time, scaled back by the measured tracing overhead.
    busy = [[c * (1.0 + overhead) for c in call]
            for call in tracing.chain_busy(tracer)]
    chain_max = median([max(c) for c in busy])
    chain_sum = median([sum(c) for c in busy])
    wall = median([u.wall_s for u in plain])
    metrics["experiment.chain_s_max"] = chain_max
    metrics["experiment.chain_s_sum"] = chain_sum
    metrics["experiment.pool_overhead_s"] = wall - max(chain_max, chain_sum / workers)
    metrics["experiment.pool_efficiency"] = chain_sum / (workers * wall) if wall else 0.0
    metrics["trace.overhead_frac"] = overhead
    units = {"untraced": len(plain), "traced": len(traced)}
    if workers > 1:
        units["untraced_serial"] = len(serial)
    notes = {
        "units": units,
        "derivation": (
            "traced chains run in-process (workers=1) because pool children "
            "return no spans; experiment.* combine the untraced wall time of "
            f"workers={workers} calls with traced per-chain busy time scaled "
            "by 1 + trace.overhead_frac, the ratio of traced to untraced "
            "serial throughput"),
    }
    return metrics, notes, tracer


# -- estimator batch ------------------------------------------------------------


def estimator_end_to_end(wl, args, ops) -> tuple[dict, dict]:
    # Each call takes most of a second, so each gets its own speed bracket.
    setups = [t for _ in range(ESTIMATOR_SETUP_REPS)
              for t in time_setup(wl.setup, args.seed, 0.0, 1)]
    units = repeat_for(args.seconds, lambda i: scaled_unit(wl.unit, args.seed, i))
    rss = peak_rss_mb()
    ess, sd = wl.finish(ops)
    metrics, notes = end_to_end(units, ess, setups, rss)
    return metrics, {**notes, "log_z_sd": sd}


def estimator_per_layer(wl, args, ops, modnet) -> tuple[dict, dict, object]:
    import tracing

    share = args.seconds / 2
    unit = lambda i: scaled_unit(wl.unit, args.seed, i)
    plain = repeat_for(share, unit)
    tracer = tracing.Tracer()
    with tracing.traced(tracer, modnet):
        traced = repeat_for(share, lambda i: unit(len(plain) + i))
    _ess, sd = wl.finish(ops)
    metrics = tracing.layer_metrics(tracer)
    metrics["smc.log_z_sd"] = sd.get("regen_k30", 0.0)
    metrics["traceio.bytes_written"] = 0
    for name in ("chain_s_max", "chain_s_sum", "pool_overhead_s", "pool_efficiency"):
        metrics[f"experiment.{name}"] = 0.0
    rate = lambda us: median([1.0 / u.scaled_s for u in us])
    metrics["trace.overhead_frac"] = rate(traced) / rate(plain) - 1.0
    return metrics, {"units": {"untraced": len(plain), "traced": len(traced)},
                     "log_z_sd": sd}, tracer


# -- entry points ---------------------------------------------------------------


def run_workload(args) -> int:
    modnet = load_modnet()
    import workloads
    from stats import Operations

    ops = Operations()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    tracer = None
    try:
        if args.workload == "estimator_batch":
            wl = workloads.EstimatorWorkload(modnet)
            wl.setup(args.seed)
            ops.run("determinism", _checked, wl.determinism, args.seed)
            if args.trace:
                metrics, notes, tracer = estimator_per_layer(wl, args, ops, modnet)
            else:
                metrics, notes = estimator_end_to_end(wl, args, ops)
        else:
            wl = workloads.make_chain_workload(args.workload, modnet)
            ops.run("determinism", _checked, wl.determinism, args.seed, workdir)
            if args.trace:
                metrics, notes, tracer = chain_per_layer(wl, args, workdir, ops, modnet)
            else:
                metrics, notes = chain_end_to_end(wl, args, workdir, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = machine_record(args, notes)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"record": record, "failures": ops.reasons,
         **result}, indent=2, sort_keys=True) + "\n")

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}")
    for key in ("nproc", "cpu_model", "python", "numpy", "git_commit"):
        print(f"  {key}: {record[key]}")
    print(f"  runs: {json.dumps(notes, sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':32s} {ops.failed_frac:>16.6g} ratio "
          f"({ops.failed} of {ops.attempted} operations)")
    for why in ops.reasons:
        print(f"  FAILED {why}")
    print(json.dumps(result))
    return 0


def _checked(check, *args):
    """Run a (ok, reason) check, raising so the operation counts as failed."""
    ok, why = check(*args)
    if not ok:
        raise AssertionError(why)


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload;
    prints the end-to-end metrics side by side."""
    rows, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        rows[name] = json.loads(lines[-1])
    units = PER_LAYER if args.trace else END_TO_END
    names = [n for n in WORKLOADS if n in rows]
    print(f"{'metric':32s} {'unit':>6s} " + " ".join(f"{n:>16s}" for n in names))
    for metric, unit in units.items():
        cells = " ".join(f"{rows[n]['metrics'][metric]['value']:>16.6g}" for n in names)
        print(f"{metric:32s} {unit:>6s} {cells}")
    fails = " ".join(
        f"{rows[n]['failed'] / rows[n]['attempted']:>16.6g}" for n in names)
    print(f"{'failed_frac':32s} {'ratio':>6s} {fails}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

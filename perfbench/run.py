#!/usr/bin/env python3
"""mixsep benchmark: end-to-end timings per workload, per-layer timings from a traced run.

Run one workload (from the root of a source checkout):

    python3 perfbench/run.py --workload fig3_sweep --seed 1 --seconds 15 --trace 0

A run sets up, then repeats the workload's operation until --seconds have
passed (at least once; the last operation may run past the limit), checks
every output, and prints each metric as "name = value unit" followed by one
JSON line {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics; --trace 1 runs the operation once untraced and once
traced and reports the per-layer metrics. Every run also appends a full
record (environment, seed, per-operation samples, iteration counts) to
.perfbench_out/results.jsonl; a traced run writes its spans to
.perfbench_out/trace_<workload>_seed<seed>.jsonl.

Compare two result sets (or summarize one):

    python3 perfbench/run.py compare A.jsonl B.jsonl
"""

import os

# BLAS and OpenMP read these when numpy loads, so they are pinned before any
# import that could pull numpy in.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

# Set-up is timed in fresh interpreters, from spawn to "ready", and the
# median of these samples is reported.
SETUP_PROBES = 3


def _setup(name: str, seed: int):
    import workloads

    return workloads.WORKLOADS[name](seed, OUT / f"work-{os.getpid()}")


def _setup_probe_seconds(name: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return ready - start


def _environment() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mixsep").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS + ("MIXSEP_THREADS",)},
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _timed(fn):
    wall0, cpu0 = time.perf_counter(), time.process_time()
    result = fn()
    return result, time.perf_counter() - wall0, time.process_time() - cpu0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(setup_samples, walls, cpus, residuals) -> dict:
    return {
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "wall_s": _metric(statistics.median(walls), "s"),
        "cpu_s": _metric(statistics.median(cpus), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "residual_max": _metric(max(residuals), "ratio"),
    }


def _per_layer(layers: dict, outcome, cells: int, overhead: float) -> dict:
    def s(name):
        return layers.get(name, {}).get("s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    its = outcome.iterations
    n_it = its.get("solver.iterations", 0)
    n_full = its.get("solver.iterations.full", 0)
    n_tf = its.get("solver.iterations.tf", 0)
    stencil_calls = calls("functional.stencil_apply")
    stencil_s = s("functional.stencil_apply")
    # Computed traffic: one read of the input field and one write of the
    # output per apply, 8 bytes per cell each; cache misses are not counted.
    stencil_bytes = 16.0 * cells * stencil_calls
    solver_self = sum(rec["self_s"] for name, rec in layers.items()
                      if name.startswith("solver.minimize."))
    return {
        "solver.iterations": _metric(n_it, "count"),
        "solver.iterations.full": _metric(n_full, "count"),
        "solver.iterations.tf": _metric(n_tf, "count"),
        "solver.rejected_steps": _metric(outcome.rejected, "count"),
        "solver.accepted_ratio": _metric((n_it - outcome.rejected) / n_it if n_it else 0.0, "ratio"),
        "solver.ms_per_iter.full": _metric(1e3 * s("solver.minimize.full") / n_full if n_full else 0.0, "ms"),
        "solver.ms_per_iter.tf": _metric(1e3 * s("solver.minimize.tf") / n_tf if n_tf else 0.0, "ms"),
        "solver.self_s": _metric(solver_self, "s"),
        "solver.minimize.full.s": _metric(s("solver.minimize.full"), "s"),
        "solver.minimize.tf.s": _metric(s("solver.minimize.tf"), "s"),
        "functional.stencil_apply.calls": _metric(stencil_calls, "count"),
        "functional.stencil_apply.s": _metric(stencil_s, "s"),
        "functional.stencil_apply.us_per_call": _metric(
            1e6 * stencil_s / stencil_calls if stencil_calls else 0.0, "us"),
        "functional.stencil_apply.gbs_computed": _metric(
            stencil_bytes / stencil_s / 1e9 if stencil_s else 0.0, "GB/s"),
        "functional.energy_terms.calls": _metric(calls("functional.energy_terms"), "count"),
        "functional.energy_terms.s": _metric(s("functional.energy_terms"), "s"),
        "functional.apply_hamiltonians.calls": _metric(calls("functional.apply_hamiltonians"), "count"),
        "functional.apply_hamiltonians.s": _metric(s("functional.apply_hamiltonians"), "s"),
        "functional.local_scale_bound.s": _metric(s("functional.local_scale_bound"), "s"),
        "profiles.grid_for_scenario.s": _metric(s("profiles.grid_for_scenario"), "s"),
        "profiles.tf_profiles.s": _metric(s("profiles.tf_profiles"), "s"),
        "profiles.fra_peak_quantities.s": _metric(s("profiles.fra_peak_quantities"), "s"),
        "config.parse_config.s": _metric(s("config.parse_config"), "s"),
        "config.serialize_config.s": _metric(s("config.serialize_config"), "s"),
        "overlap.omega_eff_from_ground_state.calls": _metric(
            calls("overlap.omega_eff_from_ground_state"), "count"),
        "overlap.omega_eff_from_ground_state.s": _metric(s("overlap.omega_eff_from_ground_state"), "s"),
        "pipeline.run_figure3_pipeline.s": _metric(s("pipeline.run_figure3_pipeline"), "s"),
        "pipeline.self_s": _metric(
            layers.get("pipeline.run_figure3_pipeline", {}).get("self_s", 0.0), "s"),
        "pipeline.write_table.s": _metric(s("pipeline.write_table"), "s"),
        "pipeline.manifest.s": _metric(s("pipeline.manifest"), "s"),
        "abel.forward_abel.calls": _metric(calls("abel.forward_abel"), "count"),
        "abel.forward_abel.s": _metric(s("abel.forward_abel"), "s"),
        "abel.center_and_symmetrize.s": _metric(s("abel.center_and_symmetrize"), "s"),
        "abel.inverse_abel.dasch3.s": _metric(s("abel.inverse_abel.dasch3"), "s"),
        "abel.inverse_abel.onion.s": _metric(s("abel.inverse_abel.onion"), "s"),
        "lossfit.fit_gamma.calls": _metric(calls("lossfit.fit_gamma"), "count"),
        "lossfit.fit_gamma.s": _metric(s("lossfit.fit_gamma"), "s"),
        "lossfit.fit_l3.calls": _metric(calls("lossfit.fit_l3"), "count"),
        "lossfit.fit_l3.s": _metric(s("lossfit.fit_l3"), "s"),
        "lossfit.smooth_l3.s": _metric(s("lossfit.smooth_l3"), "s"),
        "trace.overhead_s": _metric(overhead, "s"),
    }


def run(name: str, seed: int, seconds: float, traced: bool) -> int:
    import spans
    import workloads

    setup_samples = [_setup_probe_seconds(name, seed) for _ in range(SETUP_PROBES)]
    tally = workloads.Tally()
    tracer = spans.Tracer()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
              "setup_samples_s": setup_samples}

    with spans.installed(tracer) if traced else contextlib.nullcontext():
        tracer.enabled = traced
        work = _setup(name, seed)
        tracer.enabled = False
        walls, cpus, outcomes = [], [], []
        start = time.perf_counter()
        while True:
            tracer.enabled = traced and len(walls) == 1
            result, wall, cpu = _timed(work.run)
            tracer.enabled = False
            outcomes.append(work.check(result, tally))
            walls.append(wall)
            cpus.append(cpu)
            if len(walls) == 2 if traced else time.perf_counter() - start >= seconds:
                break

    for other in outcomes[1:]:
        if other.iterations != outcomes[0].iterations:
            tally.failed += 1
            tally.reasons.append(
                f"iteration counts differ between repeats: {outcomes[0].iterations} "
                f"vs {other.iterations}")

    if traced:
        cells = 0
        if hasattr(work, "grid"):
            cells = work.grid.n_rho * work.grid.n_z
        metrics = _per_layer(tracer.aggregate(), outcomes[1], cells, walls[1] - walls[0])
        tracer.write(OUT / f"trace_{name}_seed{seed}.jsonl")
    else:
        metrics = _end_to_end(setup_samples, walls, cpus, [o.residual for o in outcomes])

    record.update(
        environment=_environment(),
        op_wall_s=walls, op_cpu_s=cpus,
        iterations=outcomes[0].iterations, rejected_steps=outcomes[0].rejected,
        points=outcomes[0].points, residual_max=max(o.residual for o in outcomes),
        attempted=tally.attempted, failed=tally.failed, failures=tally.reasons[:50],
        metrics=metrics,
    )
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    for reason in tally.reasons[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"# {name} seed={seed} ops={len(walls)} threads={os.environ['OMP_NUM_THREADS']} nproc={os.cpu_count()}")
    if not traced:
        for key, val in outcomes[0].iterations.items():
            print(f"{key} = {val} count")
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        import compare

        return compare.main(argv[1:], ROOT / "BENCHMARK.json")
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("fig3_sweep", "solve_fine", "analysis"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        _setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

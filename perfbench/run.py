"""Benchmark of irsloc power sweeps: one workload per process, one closed loop.

    python3 perfbench/run.py --workload single_seq --seed 1 --seconds 30 --trace 0

Run from the repository root.  With --trace 0 it times whole sweeps with
tracing off and prints the end-to-end metrics; with --trace 1 it alternates
untraced and traced sweeps of the same seed, repeats one traced sweep in a
child process with BLAS limited to one thread, and prints the per-layer
metrics.  Both modes run the correctness gate, print a readable report and
the environment record, write them with the spans under perfbench/out/, and
end with one JSON line: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # this process plus two fresh child processes
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
BENCHMARK = json.loads(BENCHMARK_FILE.read_text()) if BENCHMARK_FILE.is_file() else {}


def _import_library() -> None:
    """Put the checkout's own src/ first on the path; refuse any other irsloc."""
    src = ROOT / "src"
    if not (src / "irsloc" / "__init__.py").is_file():
        sys.exit(f"no irsloc sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import irsloc

    if Path(irsloc.__file__).resolve().parent != src / "irsloc":
        sys.exit(f"imported irsloc from {irsloc.__file__}, not from {src}")


def set_up(workload_name: str, seed: int):
    """Import, config load, one warm-up trial and one bounds call, timed together."""
    start = time.perf_counter()
    _import_library()
    import sweeps

    workload = sweeps.load_workload(workload_name)
    cfg = sweeps.build_config(workload, seed)
    sweeps.warm_up(cfg)
    return sweeps, workload, cfg, time.perf_counter() - start


def _child(args: list[str], env: dict | None = None) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), *args]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT,
                          env={**os.environ, **(env or {})})
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def blas_record() -> dict:
    """Vendor and thread count of the BLAS that numpy calls."""
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"),
              "config": blas.get("openblas configuration"), "threads": None}
    for lib in glob.glob(str(Path(np.__file__).parent) + ".libs/*openblas*"):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype, getter.argtypes = ctypes.c_int, []
                record["threads"] = getter()
                return record
    return record


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def _source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "configs").glob("*.yaml")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(repeats: dict) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "repeats": repeats,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    sweeps, workload, cfg, setup_s = set_up(workload_name, seed)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    if trace:
        result, report, repeats = _run_traced(sweeps, workload, cfg, seconds, seed,
                                              out_dir / f"{stem}-spans.json")
    else:
        result, report, repeats = _run_plain(sweeps, workload, cfg, seconds, seed, setup_s)
    env = environment(repeats)
    for line in report:
        print(line)
    print("env " + json.dumps(env))
    (out_dir / f"{stem}.json").write_text(json.dumps({**result, "report": report, "env": env},
                                                     indent=1))
    return result


def _run_plain(sweeps, workload, cfg, seconds, seed, setup_s):
    loop = sweeps.measure(workload, cfg, seconds)
    setups = [setup_s] + [
        _child(["--workload", workload.name, "--seed", str(seed), "--child", "setup"])["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)]
    rates = [loop.sweep_trials / w for w in loop.walls]  # per sweep, for the spread only
    acc = loop.accuracy(workload)
    values = {
        "setup_s": statistics.median(setups),
        "trials_per_s": loop.sweep_trials * len(loop.walls) / sum(loop.walls) if rates else 0.0,
        # attach_crb does the same work at every power point, so the median call
        # times the number of points is the sweep's bound time, robust to outliers.
        "bounds_s": (statistics.median(loop.bound_calls) * len(cfg.p_bs_dbm_sweep)
                     if loop.bound_calls else 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rmse_q_m": acc.get("rmse_q_m", 0.0),
        "rmse_irs_doa": acc.get("rmse_irs_doa", 0.0),
    }
    repeats = {"sweeps": len(loop.walls), "trials_per_sweep": loop.sweep_trials,
               "trials_per_s_spread": sweeps.spread(rates),
               "bound_calls": len(loop.bound_calls),
               "bound_call_spread": sweeps.spread(loop.bound_calls),
               "setup_samples": len(setups), "setup_s_spread": sweeps.spread(setups)}
    report = [f"workload {workload.name} seed {seed} trace 0: {len(loop.walls)} sweeps of "
              f"{loop.sweep_trials} trials over {len(loop.first)} seeds, one closed loop"]
    report += [f"  {name:<18} {values[name]:.6g} {_unit(name)}" for name in values]
    report += [f"  {name:<18} {acc[name]:.6g} {unit}  (per-layer metric {layer})"
               for name, unit, layer in (("rmse_bs_doa", "1", "stage1.rmse_bs_doa"),
                                         ("typed_fail_share", "1", "harness.typed_fail_share"))
               if name in acc]
    report += _gate_lines(loop.problems)
    return _result(values, loop.attempted, loop.failed, not loop.problems), report, repeats


def _run_traced(sweeps, workload, cfg, seconds, seed, spans_path):
    from spans import Tracer

    tracer = Tracer("harness.trial")
    plain, traced = sweeps.measure_traced(cfg, seconds, tracer)
    tracer.dump(spans_path)
    acc = traced.accuracy(workload)
    problems = plain.problems + traced.problems
    values = sweeps.layer_metrics(tracer, max(len(traced.walls), 1))
    one = _child(["--workload", workload.name, "--seed", str(seed), "--child", "onethread"],
                 env={v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")})
    values["harness.trial_ms_p50_1t"] = one["trial_ms_p50"]
    values["harness.bounds_ms_1t"] = one["bounds_ms"]
    if one["problems"]:
        problems += [f"one-thread child: {p}" for p in one["problems"]]
    values["harness.typed_fail_share"] = acc.get("typed_fail_share", 0.0)
    values["stage1.rmse_bs_doa"] = acc.get("rmse_bs_doa", 0.0)
    values["trace.overhead_share"] = (
        statistics.median(traced.walls) / statistics.median(plain.walls) - 1.0
        if traced.walls and plain.walls else 0.0)
    repeats = {"untraced_sweeps": len(plain.walls), "traced_sweeps": len(traced.walls),
               "trials_per_sweep": traced.sweep_trials,
               "traced_wall_spread": sweeps.spread(traced.walls), "spans": len(tracer.spans)}
    report = [f"workload {workload.name} seed {seed} trace 1: {len(plain.walls)} untraced and "
              f"{len(traced.walls)} traced sweeps of {traced.sweep_trials} trials"]
    report += [f"  {name:<32} {values[name]:.6g} {_unit(name)}" for name in sorted(values)]
    report += _share_lines(values)
    report += _gate_lines(problems)
    attempted = plain.attempted + traced.attempted + one["attempted"]
    failed = plain.failed + traced.failed + one["failed"]
    return _result(values, attempted, failed, not problems), report, repeats


def _share_lines(v: dict) -> list[str]:
    trial, bounds = v["harness.trial_ms_p50"], v["harness.bounds_ms"]
    if not (trial > 0 and bounds > 0):
        return []
    stage1 = sum(v[k] for k in ("stage1.synth_ms", "stage1.cov_ms", "stage1.subspace_ms",
                                "stage1.search_ms"))
    return [
        f"  share of trial p50 in stage1.*: {stage1 / trial:.3f}",
        f"  share of trial p50 in stage2.synth: {v['stage2.synth_ms'] / trial:.3f}",
        f"  share of bounds call in crb.stage2 + stage2.codewords: "
        f"{(v['crb.stage2_ms'] + v['stage2.codewords_ms']) / bounds:.3f}",
    ]


def _gate_lines(problems: list[str]) -> list[str]:
    return ["gate: pass"] if not problems else ["gate: FAIL"] + [f"  {p}" for p in problems]


def _unit(name: str) -> str:
    for group in ("end_to_end", "per_layer"):
        for metric in BENCHMARK.get(group, []):
            if metric["name"] == name:
                return metric["unit"]
    return "?"


def _result(values: dict, attempted: int, failed: int, correct: bool) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(v), "unit": _unit(name)}
                        for name, v in values.items()}}


def child(role: str, workload_name: str, seed: int) -> dict:
    """Work done in a fresh process: a cold set-up, or one traced sweep."""
    sweeps, workload, cfg, setup_s = set_up(workload_name, seed)
    if role == "setup":
        return {"setup_s": setup_s}
    from spans import Tracer

    tracer = Tracer("harness.trial")
    loop, records = sweeps.Loop(cfg.trials * len(cfg.p_bs_dbm_sweep)), []
    try:
        rows, wall = sweeps.traced_sweep(cfg, tracer, records)
        loop.record(0, rows, records, wall)
    except Exception as exc:  # reported to the parent, never fatal here
        loop.crash(exc)
    values = sweeps.layer_metrics(tracer, 1)
    loop.accuracy(workload)
    return {"trial_ms_p50": values["harness.trial_ms_p50"],
            "bounds_ms": values["harness.bounds_ms"], "problems": loop.problems,
            "attempted": loop.attempted, "failed": loop.failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(BENCHMARK.get("run_seconds", 30)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "onethread"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in {w["name"] for w in BENCHMARK.get("workloads", [])}:
        sys.exit(f"unknown workload {args.workload!r}")
    if args.child:
        print(json.dumps(child(args.child, args.workload, args.seed)))
        return 0
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

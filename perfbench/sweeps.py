"""Workloads, the timed sweep loop, the correctness gate and the per-layer numbers.

Every workload is a shipped config plus overrides, run through the public
library path: ExperimentConfig -> run_experiment, and attach_crb over the
sweep's power points for the bounds (the `irsloc crb` path).  One process,
one caller: each trial starts when the previous one returns.
"""

from __future__ import annotations

import json
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from irsloc import harness, localization, stage1, stage2
from irsloc.errors import (
    CollinearGeometryError,
    DegenerateGeometryError,
    InconsistentDoAError,
    UnderResolvedError,
)
from irsloc.harness import ExperimentConfig

from spans import Patches, Tracer, self_time

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads(Path(__file__).with_name("workloads.json").read_text())
CRB_COLUMNS = ("sqrt_crb_mu_b2t", "sqrt_crb_nu_b2t", "sqrt_crb_mu_irs", "sqrt_crb_nu_irs")
SEEDS_PER_RUN = 3  # distinct base seeds a --trace 0 run cycles through; accuracy pools them
SEED_STRIDE = 1 << 32
BOUNDS_PASSES = 2  # bound calls are short and noisy, so each cycle times two passes


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    overrides: dict
    trials: int
    rmse_q_max_m: float


def load_workload(name: str) -> Workload:
    raw = SPEC["workloads"][name]
    return Workload(name=name, config=raw["config"], overrides=dict(raw["overrides"]),
                    trials=int(raw["trials"]), rmse_q_max_m=float(raw["rmse_q_max_m"]))


def build_config(workload: Workload, seed: int) -> ExperimentConfig:
    cfg = ExperimentConfig.from_yaml(str(ROOT / workload.config))
    return replace(cfg, base_seed=seed, trials=workload.trials, output_path=None,
                   **workload.overrides)


def warm_up(cfg: ExperimentConfig) -> None:
    """One trial and one bounds call, so lazy set-up is paid before timing."""
    top = max(cfg.p_bs_dbm_sweep)
    harness.run_trial(cfg, top, harness.trial_seed(cfg.base_seed, 0, 0), 0)
    harness.attach_crb(cfg, top)


def bounds_pass(cfg: ExperimentConfig) -> tuple[list[float], list[dict]]:
    """attach_crb at every power point of the sweep, BOUNDS_PASSES times, timed call by call."""
    walls, values = [], []
    for p in cfg.p_bs_dbm_sweep * BOUNDS_PASSES:
        start = time.perf_counter()
        values.append(harness.attach_crb(cfg, p))
        walls.append(time.perf_counter() - start)
    return walls, values


# ---------------------------------------------------------------- correctness


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def same_rows(rows: list[dict], reference: list[dict]) -> bool:
    return len(rows) == len(reference) and all(
        r.keys() == s.keys() and all(_same(r[k], s[k]) for k in r)
        for r, s in zip(rows, reference))


def top_row(rows: list[dict]) -> dict:
    return max(rows, key=lambda r: r["p_bs_dbm"])


def gate(rows: list[dict], reference: list[dict], bounds: list[dict] | None = None) -> list[str]:
    """Problems with one sweep's rows; empty when the sweep is correct."""
    problems = []
    if not same_rows(rows, reference):
        problems.append("rows differ from an earlier sweep with the same seed")
    top = top_row(rows)
    if top["trials_failed"] != 0:
        problems.append(f"{top['trials_failed']} typed failures at the top power point")
    for col in CRB_COLUMNS:
        if not (math.isfinite(top[col]) and top[col] > 0):
            problems.append(f"{col} = {top[col]!r} at the top power point")
    if bounds is not None and any(
            not _same(b[c], rows[i % len(rows)][c]) for i, b in enumerate(bounds)
            for c in CRB_COLUMNS):
        problems.append("attach_crb disagrees with the sweep's bound columns")
    return problems


def _rms_pair(row: dict, mu: str, nu: str) -> float:
    return math.sqrt((row[mu] ** 2 + row[nu] ** 2) / 2)


# ---------------------------------------------------------------- timed loop


def seeded(cfg: ExperimentConfig, index: int) -> ExperimentConfig:
    """The index-th distinct seed of a run: base seeds s, s + 2**32, s + 2 * 2**32, ..."""
    return replace(cfg, base_seed=cfg.base_seed + index * SEED_STRIDE)


@dataclass
class Loop:
    """What a sequence of sweeps produced: timings, gate outcomes, and accuracy inputs."""

    sweep_trials: int
    first: dict = field(default_factory=dict)  # seed index -> (rows, records) of its first sweep
    walls: list[float] = field(default_factory=list)
    bound_calls: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def record(self, index: int, rows, records, wall, bounds=None) -> None:
        self.attempted += self.sweep_trials
        reference, _ = self.first.setdefault(index, (rows, records))
        issues = gate(rows, reference, bounds[1] if bounds else None)
        if issues:
            self.failed += self.sweep_trials
            self.problems.extend(issues)
        self.walls.append(wall)
        if bounds:
            self.bound_calls.extend(bounds[0])

    def crash(self, exc: BaseException) -> None:
        """A sweep that raised anything counts every one of its trials as failed."""
        traceback.print_exception(exc)
        self.attempted += self.sweep_trials
        self.failed += self.sweep_trials
        self.problems.append(f"sweep raised {type(exc).__name__}: {exc}")

    def accuracy(self, workload: Workload) -> dict:
        """Accuracy pooled over the first sweep of every distinct seed; gates rmse_q."""
        if not self.first:
            return {}
        rows = [r for rows, _ in self.first.values() for r in rows]
        top_power = top_row(rows)["p_bs_dbm"]
        top = harness.aggregate_trials([t for _, records in self.first.values()
                                        for t in records if t.p_bs_dbm == top_power])
        if not top["rmse_q"] <= workload.rmse_q_max_m:
            self.problems.append(f"rmse_q {top['rmse_q']!r} m above {workload.rmse_q_max_m} m")
            self.failed = self.attempted
        return {
            "rmse_q_m": top["rmse_q"],
            "rmse_bs_doa": _rms_pair(top, "rmse_mu_b2t", "rmse_nu_b2t"),
            "rmse_irs_doa": _rms_pair(top, "rmse_mu_i2t", "rmse_nu_i2t"),
            "typed_fail_share": (sum(r["trials_failed"] for r in rows)
                                 / sum(r["trials"] for r in rows)),
        }


def timed_sweep(cfg: ExperimentConfig, sink: list) -> tuple[list[dict], float]:
    start = time.perf_counter()
    rows = harness.run_experiment(cfg, trial_sink=sink)
    return rows, time.perf_counter() - start


def cycles(seconds: float, at_least: int):
    """Count cycles until one more of median length would pass the deadline."""
    deadline = time.perf_counter() + seconds
    durations: list[float] = []
    while len(durations) < at_least or (
            time.perf_counter() + statistics.median(durations) <= deadline):
        start = time.perf_counter()
        yield len(durations)
        durations.append(time.perf_counter() - start)


def measure(workload: Workload, cfg: ExperimentConfig, seconds: float) -> Loop:
    """Untraced closed loop over SEEDS_PER_RUN seeds: a sweep, then attach_crb at its powers."""
    loop = Loop(sweep_trials=cfg.trials * len(cfg.p_bs_dbm_sweep))
    for n in cycles(seconds, SEEDS_PER_RUN + 1):
        index = n % SEEDS_PER_RUN
        sweep_cfg, records = seeded(cfg, index), []
        try:
            rows, wall = timed_sweep(sweep_cfg, records)
            bounds = bounds_pass(sweep_cfg)
        except Exception as exc:  # reported as failed operations, never fatal
            loop.crash(exc)
            break
        loop.record(index, rows, records, wall, bounds)
        if loop.problems:
            break
    return loop


# ---------------------------------------------------------------- tracing


def _count_samples(counts, args, kwargs, obs) -> None:
    for values in (obs.grid_values, obs.y_values, obs.z_values):
        if values is not None:
            counts["stage2.samples"] += values.size


def _count_codewords(counts, args, kwargs, fim) -> None:
    counts["crb.codewords"] += len(args[3] if len(args) > 3 else kwargs["irs_codewords"])


def _count_assignments(counts, args, kwargs, ranked) -> None:
    counts["localization.assignments_scored"] += len(ranked)
    counts["localization.assignments_kept"] += 1 if ranked else 0


def trace_sites():
    """(module, attribute, span name, hook): each name patched where its caller looks it up."""
    h, s1, s2, loc = harness, stage1, stage2, localization
    return [
        (h, "run_trial", "harness.trial", None),
        (h, "attach_crb", "harness.bounds", None),
        (h, "synthesize_stage1", "stage1.synth", None),
        (h, "sample_covariance", "stage1.cov", None),
        (h, "music_estimate", "stage1.search", None),
        (s1, "signal_noise_subspaces", "stage1.subspace", None),
        (h, "build_scan_plan", "stage2.plan", None),
        (h, "synthesize_stage2", "stage2.synth", _count_samples),
        (h, "scan_estimate", "stage2.estimate", None),
        (h, "joint_codewords", "stage2.codewords", None),
        (h, "sequential_codewords", "stage2.codewords", None),
        (s1, "channel_btb", "channel.dense", None),
        (s2, "channel_b2i", "channel.dense", None),
        (s2, "channel_iti", "channel.dense", None),
        (s2, "channel_bti", "channel.dense", None),
        (h, "fim_stage1", "crb.stage1", None),
        (h, "fim_stage2_case1", "crb.stage2", _count_codewords),
        (h, "fim_stage2_case2", "crb.stage2", _count_codewords),
        (h, "construct_location", "localization.construct", None),
        (h, "match_and_localize", "localization.match", None),
        (loc, "construct_location", "localization.construct", None),
        (loc, "enumerate_pair_assignments", "localization.assign", _count_assignments),
    ]


def traced_sweep(cfg: ExperimentConfig, tracer: Tracer, sink: list) -> tuple[list[dict], float]:
    with Patches(tracer, trace_sites()):
        return timed_sweep(cfg, sink)


def measure_traced(cfg: ExperimentConfig, seconds: float, tracer: Tracer) -> tuple[Loop, Loop]:
    """Alternate untraced and traced sweeps of one seed, so counts repeat exactly.

    Both loops gate against the same first sweep, so tracing that changed a
    result would fail the run; the pair of walls gives the overhead.
    """
    sweep_trials = cfg.trials * len(cfg.p_bs_dbm_sweep)
    first: dict = {}
    plain, traced = Loop(sweep_trials, first), Loop(sweep_trials, first)
    for _ in cycles(seconds, 1):
        for loop, run in ((plain, lambda sink: timed_sweep(cfg, sink)),
                          (traced, lambda sink: traced_sweep(cfg, tracer, sink))):
            records: list = []
            try:
                rows, wall = run(records)
            except Exception as exc:  # reported as failed operations, never fatal
                loop.crash(exc)
                return plain, traced
            loop.record(0, rows, records, wall)
        if plain.problems or traced.problems:
            break
    return plain, traced


PER_TRIAL_SPANS = {  # metric -> (span name, self time only)
    "stage1.synth_ms": ("stage1.synth", False),
    "stage1.cov_ms": ("stage1.cov", False),
    "stage1.subspace_ms": ("stage1.subspace", False),
    "stage1.search_ms": ("stage1.search", True),
    "stage2.synth_ms": ("stage2.synth", False),
    "stage2.plan_ms": ("stage2.plan", False),
    "stage2.estimate_ms": ("stage2.estimate", False),
    "channel.dense_ms": ("channel.dense", False),
}
PER_BOUNDS_SPANS = {
    "stage2.codewords_ms": "stage2.codewords",
    "crb.stage1_ms": "crb.stage1",
    "crb.stage2_ms": "crb.stage2",
}


def layer_metrics(tracer: Tracer, sweeps: int) -> dict[str, float]:
    """Per-layer numbers: per-trial and per-bounds-call medians in ms, counts per sweep."""
    kids = tracer.children()
    by_root: dict[int, list] = {}
    for s in tracer.spans:
        by_root.setdefault(s.root, []).append(s)
    trials = [s for s in tracer.spans if s.name == "harness.trial"]
    bounds = [s for s in tracer.spans if s.name == "harness.bounds" and s.parent is None]

    def total(root, name, own=False):
        return sum(self_time(s, kids.get(s.id, [])) if own else s.end - s.start
                   for s in by_root[root.id] if s.name == name)

    def ms(values):
        return 1e3 * statistics.median(values) if values else 0.0

    durations = [t.end - t.start for t in trials]
    out = {
        "harness.trial_ms_p50": ms(durations),
        "harness.trial_ms_p90": (1e3 * statistics.quantiles(durations, n=10, method="inclusive")[8]
                                 if len(durations) > 1 else ms(durations)),
        "harness.trial_self_ms": ms([self_time(t, kids.get(t.id, [])) for t in trials]),
        "harness.bounds_ms": ms([b.end - b.start for b in bounds]),
    }
    for metric, (name, own) in PER_TRIAL_SPANS.items():
        out[metric] = ms([total(t, name, own) for t in trials])
    for metric, name in PER_BOUNDS_SPANS.items():
        out[metric] = ms([total(b, name) for b in bounds])
    # The localization layer as the harness calls it: matching, or the direct
    # construction that bypasses matching when there is one target and one surface.
    out["localization.match_ms"] = ms([
        sum(s.end - s.start for s in kids.get(t.id, [])
            if s.name in ("localization.match", "localization.construct")) for t in trials])

    def per_sweep(value):
        return value / sweeps

    c, e = tracer.counts, tracer.exceptions
    dense = sum(1 for s in tracer.spans if s.name == "channel.dense")
    constructs = sum(1 for s in tracer.spans if s.name == "localization.construct")
    scored = c["localization.assignments_scored"]
    geometry = {t.__name__ for t in (DegenerateGeometryError, CollinearGeometryError,
                                     InconsistentDoAError)}
    out.update({
        "stage1.under_resolved": per_sweep(e[("stage1.search", "harness.trial",
                                              UnderResolvedError.__name__)]),
        "stage2.samples": per_sweep(c["stage2.samples"]),
        "stage2.under_resolved": per_sweep(e[("stage2.estimate", "harness.trial",
                                              UnderResolvedError.__name__)]),
        "channel.dense_calls": per_sweep(dense),
        "crb.codewords": per_sweep(c["crb.codewords"]),
        "localization.construct_calls": per_sweep(constructs),
        "localization.assignments_scored": per_sweep(scored),
        "localization.kept_ratio": c["localization.assignments_kept"] / scored if scored else 0.0,
        "localization.geometry_errors": per_sweep(sum(
            n for (name, parent, kind), n in e.items()
            if name.startswith("localization.") and parent == "harness.trial"
            and kind in geometry)),
    })
    return out


# ---------------------------------------------------------------- summaries


def spread(values: list[float]) -> float:
    """Interquartile range over the median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

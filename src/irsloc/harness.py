"""Experiment configuration, seeded Monte Carlo runs, RMSE metrics, CSV emission.

A trial runs the full pipeline: white probing and subspace search with every
surface off, then one scan stage per surface, then geometric reconstruction
with target matching.  Trials are independently seeded off a reproducible
ladder, failures are counted rather than fatal, and the bound curves attached
to the output come exclusively from the Fisher-information module.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
import yaml
from scipy.optimize import linear_sum_assignment

from .arrays import Position3, SpatialAnglePair, UpaConfig, dft_codebook
from .channel import SceneGeometry, dbm_to_watts
from .crb import fim_stage1, fim_stage2_case1, fim_stage2_case2
from .errors import InvalidArgumentError, IrslocError
# construct_location, sample_covariance: unused, but perfbench traces them by name here
from .localization import construct_location, match_and_localize
from .stage1 import music_estimate, sample_covariance, synthesize_stage1
from .stage2 import (
    IrsScanPlan,
    Stage2Mode,
    build_scan_plan,
    classify_regime,
    joint_codewords,
    scan_estimate,
    sequential_codewords,
    synthesize_stage2,
)

DEFAULT_POWER_SWEEP = [float(p) for p in range(-10, 45, 5)]


@dataclass
class ExperimentConfig:
    scene: SceneGeometry
    p_bs_dbm_sweep: list[float] = field(default_factory=lambda: list(DEFAULT_POWER_SWEEP))
    t1: int = 24
    t2_y: int = 10
    t2_z: int = 10
    trials: int = 200
    base_seed: int = 20240601
    noise_dbm: float = -80.0
    stage2_mode: Stage2Mode = Stage2Mode.CASE1_APPROX
    joint_scan: bool = False
    music_grid: float = 2e-3
    music_refine_levels: int = 2
    output_path: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidArgumentError("need at least one trial")
        if not self.p_bs_dbm_sweep:
            raise InvalidArgumentError("power sweep must be non-empty")
        if self.t1 < 1 or self.t2_y < 1 or self.t2_z < 1:
            raise InvalidArgumentError("every stage needs at least one sample")
        if not self.scene.irs:
            raise InvalidArgumentError("need at least one reflecting surface")
        if isinstance(self.stage2_mode, str):
            self.stage2_mode = Stage2Mode(self.stage2_mode)

    @property
    def noise_var(self) -> float:
        return dbm_to_watts(self.noise_dbm)

    @property
    def n_targets(self) -> int:
        return len(self.scene.targets)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        raw = dict(raw)
        scene_raw = dict(raw.pop("scene"))
        scene = SceneGeometry(
            bs=Position3(*scene_raw["bs"]),
            irs=[Position3(*p) for p in scene_raw["irs"]],
            targets=[Position3(*p) for p in scene_raw["targets"]],
            bs_upa=UpaConfig(**scene_raw["bs_upa"]),
            irs_upa=[UpaConfig(**u) for u in scene_raw["irs_upa"]],
            carrier_freq_hz=float(scene_raw.get("carrier_freq_hz", 750e6)),
            rcs_dbsm=list(scene_raw.get("rcs_dbsm", [])),
        )
        return cls(scene=scene, **raw)

    @classmethod
    def from_yaml(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(yaml.safe_load(fh))


@dataclass
class TrialRecord:
    trial_index: int
    seed: int
    p_bs_dbm: float
    true_bs_doas: np.ndarray       # (K, 2)
    est_bs_doas: np.ndarray | None
    true_irs_doas: np.ndarray      # (M, K, 2)
    est_irs_doas: np.ndarray | None
    true_positions: np.ndarray     # (K, 3)
    est_positions: np.ndarray | None
    regime: str
    wall_time_s: float
    failed: bool = False
    failure: str | None = None


def trial_seed(base_seed: int, sweep_index: int, trial_index: int) -> int:
    """Deterministic 64-bit seed ladder; no two (sweep, trial) cells collide."""
    mask = (1 << 64) - 1
    ss = np.random.SeedSequence(entropy=base_seed & mask,
                                spawn_key=(sweep_index & mask, trial_index & mask))
    return int(ss.generate_state(1, np.uint64)[0])


def rmse_angle(true_values, estimates) -> float:
    """sqrt(E |theta - theta_hat|^2) over matching arrays."""
    t = np.asarray(true_values, dtype=float)
    e = np.asarray(estimates, dtype=float)
    if t.shape != e.shape:
        raise InvalidArgumentError("angle arrays must have matching shapes")
    return float(np.sqrt(np.mean((t - e) ** 2)))


def rmse_location(true_positions, estimated_positions) -> float:
    """sqrt((1/K) E sum_k ||q_k - q_hat_k||^2); accepts (K, 3) or (T, K, 3)."""
    t = np.asarray(true_positions, dtype=float)
    e = np.asarray(estimated_positions, dtype=float)
    if t.shape != e.shape:
        raise InvalidArgumentError("position arrays must have matching shapes")
    sq = np.sum((t - e) ** 2, axis=-1)
    return float(np.sqrt(np.mean(sq)))


def _angles_to_array(angles: Sequence[SpatialAnglePair]) -> np.ndarray:
    return np.array([[a.mu, a.nu] for a in angles])


def _align(true_rows: np.ndarray, est_rows: np.ndarray) -> np.ndarray:
    """Reorder est_rows to minimize the summed squared distance to true_rows."""
    cost = np.sum((true_rows[:, None, :] - est_rows[None, :, :]) ** 2, axis=-1)
    _, cols = linear_sum_assignment(cost)
    return est_rows[cols]


def _scene_truth(scene: SceneGeometry):
    k = len(scene.targets)
    m = len(scene.irs)
    bs = _angles_to_array([scene.bs_target_doa(j) for j in range(k)])
    irs = np.array([[[scene.irs_target_doa(i, j).mu, scene.irs_target_doa(i, j).nu]
                     for j in range(k)] for i in range(m)])
    pos = np.array([t.as_array() for t in scene.targets])
    return bs, irs, pos


def run_trial(config: ExperimentConfig, p_bs_dbm: float, seed: int,
              trial_index: int = 0) -> TrialRecord:
    """One full pipeline pass at one power point, deterministic under the seed."""
    scene = config.scene
    k = config.n_targets
    m = len(scene.irs)
    p_watts = dbm_to_watts(p_bs_dbm)
    noise_var = config.noise_var
    true_bs, true_irs, true_pos = _scene_truth(scene)
    regime = classify_regime(scene, 0, 0).regime.value
    start = time.perf_counter()

    children = np.random.SeedSequence(seed).spawn(1 + m)
    stage_seeds = [int(c.generate_state(1, np.uint64)[0]) for c in children]

    record = TrialRecord(
        trial_index=trial_index, seed=seed, p_bs_dbm=p_bs_dbm,
        true_bs_doas=true_bs, est_bs_doas=None,
        true_irs_doas=true_irs, est_irs_doas=None,
        true_positions=true_pos, est_positions=None,
        regime=regime, wall_time_s=0.0,
    )
    try:
        probing = dft_codebook(scene.n_bs, config.t1, p_watts)
        block = synthesize_stage1(scene, probing, noise_var, stage_seeds[0])
        music = music_estimate(block.samples, scene.bs_upa, k, config.music_grid,
                               config.music_refine_levels)
        est_bs = music.angles
        record.est_bs_doas = _align(true_bs, _angles_to_array(est_bs))

        est_irs: list[list[SpatialAnglePair]] = []
        for i in range(m):
            plan = build_scan_plan(scene.irs_upa[i], config.t2_y, config.t2_z)
            obs = synthesize_stage2(scene, i, plan, noise_var, stage_seeds[1 + i],
                                    mode=config.stage2_mode, p_bs_watts=p_watts,
                                    joint=config.joint_scan)
            est_irs.append(scan_estimate(obs, plan, scene.bs_irs_aoa(i), k))
        record.est_irs_doas = np.array([_align(true_irs[i], _angles_to_array(est_irs[i]))
                                        for i in range(m)])

        loc = match_and_localize(est_bs, {i: est_irs[i] for i in range(m)}, scene)
        record.est_positions = _align(true_pos, np.array([e.position.as_array() for e in loc]))
    except IrslocError as exc:
        record.failed = True
        record.failure = f"{type(exc).__name__}: {exc}"
    record.wall_time_s = time.perf_counter() - start
    return record


def _scan_plan_codewords(config: ExperimentConfig, plan: IrsScanPlan) -> list[np.ndarray]:
    return joint_codewords(plan) if config.joint_scan else sequential_codewords(plan)


def attach_crb(config: ExperimentConfig, p_bs_dbm: float) -> dict:
    """Bound columns for one power point, straight from the closed forms.

    The stage-1 bound uses the coherence matrix of the codebook actually
    probed: with fewer samples than antennas the DFT columns are not
    spatially white and the white-input closed form would be optimistic.
    """
    scene = config.scene
    p_watts = dbm_to_watts(p_bs_dbm)
    noise_var = config.noise_var
    if noise_var <= 0:
        return {key: 0.0 for key in ("sqrt_crb_mu_b2t", "sqrt_crb_nu_b2t",
                                     "sqrt_crb_mu_irs", "sqrt_crb_nu_irs")}
    probing = dft_codebook(scene.n_bs, config.t1, p_watts)
    r_w = probing @ probing.conj().T / config.t1
    s1 = fim_stage1(scene, r_w, config.t1, noise_var)
    plan = build_scan_plan(scene.irs_upa[0], config.t2_y, config.t2_z)
    words = _scan_plan_codewords(config, plan)
    if config.stage2_mode is Stage2Mode.CASE2_APPROX:
        s2 = fim_stage2_case2(scene, 0, 0, words, noise_var, p_watts)
        mu_key, nu_key = "mu_i2t", "nu_i2t"
    else:
        s2 = fim_stage2_case1(scene, 0, 0, words, noise_var, p_watts)
        mu_key, nu_key = "mu", "nu"
    return {
        "sqrt_crb_mu_b2t": float(np.sqrt(s1.crb("mu_b2t"))),
        "sqrt_crb_nu_b2t": float(np.sqrt(s1.crb("nu_b2t"))),
        "sqrt_crb_mu_irs": float(np.sqrt(s2.crb(mu_key))),
        "sqrt_crb_nu_irs": float(np.sqrt(s2.crb(nu_key))),
    }


def aggregate_trials(records: list[TrialRecord]) -> dict:
    """RMSE columns for one sweep point.

    DoA metrics average over every trial that produced estimates for that
    stage (the angle figures involve no reconstruction); the location metric
    averages over fully successful trials only.
    """
    ok = [r for r in records if not r.failed]
    row = {
        "trials": len(records),
        "trials_failed": len(records) - len(ok),
    }
    with_bs = [r for r in records if r.est_bs_doas is not None]
    with_irs = [r for r in records if r.est_irs_doas is not None]
    if with_bs:
        bs_true = np.array([r.true_bs_doas for r in with_bs])
        bs_est = np.array([r.est_bs_doas for r in with_bs])
        row["rmse_mu_b2t"] = rmse_angle(bs_true[..., 0], bs_est[..., 0])
        row["rmse_nu_b2t"] = rmse_angle(bs_true[..., 1], bs_est[..., 1])
    else:
        row["rmse_mu_b2t"] = row["rmse_nu_b2t"] = float("nan")
    if with_irs:
        irs_true = np.array([r.true_irs_doas for r in with_irs])
        irs_est = np.array([r.est_irs_doas for r in with_irs])
        row["rmse_mu_i2t"] = rmse_angle(irs_true[..., 0], irs_est[..., 0])
        row["rmse_nu_i2t"] = rmse_angle(irs_true[..., 1], irs_est[..., 1])
    else:
        row["rmse_mu_i2t"] = row["rmse_nu_i2t"] = float("nan")
    if ok:
        row["rmse_q"] = rmse_location(np.array([r.true_positions for r in ok]),
                                      np.array([r.est_positions for r in ok]))
    else:
        row["rmse_q"] = float("nan")
    return row


def run_experiment(config: ExperimentConfig,
                   trial_sink: list | None = None) -> list[dict]:
    """Power sweep of seeded trials; one aggregate row per sweep point."""
    rows = []
    for s_idx, p_dbm in enumerate(config.p_bs_dbm_sweep):
        records = [run_trial(config, p_dbm, trial_seed(config.base_seed, s_idx, t), t)
                   for t in range(config.trials)]
        if trial_sink is not None:
            trial_sink.extend(records)
        row = {"p_bs_dbm": float(p_dbm)}
        row.update(aggregate_trials(records))
        row.update(attach_crb(config, p_dbm))
        rows.append(row)
    return rows


def run_t2_sweep(config: ExperimentConfig, t2_values: Sequence[int],
                 p_bs_dbm: float | None = None) -> list[dict]:
    """Scan-refinement sweep at a fixed power; t2 is the per-axis beam count."""
    p_dbm = config.p_bs_dbm_sweep[0] if p_bs_dbm is None else p_bs_dbm
    rows = []
    for s_idx, t2 in enumerate(t2_values):
        cfg = replace(config, t2_y=int(t2), t2_z=int(t2), p_bs_dbm_sweep=[p_dbm])
        records = [run_trial(cfg, p_dbm, trial_seed(config.base_seed, s_idx, t), t)
                   for t in range(config.trials)]
        row = {"t2": int(t2), "p_bs_dbm": float(p_dbm)}
        row.update(aggregate_trials(records))
        rows.append(row)
    return rows


def run_area_sweep(config: ExperimentConfig, x_values: Sequence[float],
                   y_values: Sequence[float], p_bs_dbm: float | None = None,
                   target_z: float = 0.0) -> list[dict]:
    """Move a single target over an (x, y) grid; failures counted, never fatal."""
    if config.n_targets != 1:
        raise InvalidArgumentError("area sweep is a single-target experiment")
    p_dbm = config.p_bs_dbm_sweep[0] if p_bs_dbm is None else p_bs_dbm
    rows = []
    cell = 0
    for x in x_values:
        for y in y_values:
            scene = replace(config.scene, targets=[Position3(float(x), float(y), target_z)])
            cfg = replace(config, scene=scene, p_bs_dbm_sweep=[p_dbm])
            records, degenerate = [], 0
            for t in range(config.trials):
                try:
                    records.append(run_trial(cfg, p_dbm, trial_seed(config.base_seed, cell, t), t))
                except IrslocError:  # the scene itself is degenerate, e.g. target on a surface
                    degenerate += 1
            row = {"x": float(x), "y": float(y)}
            row.update(aggregate_trials(records))
            row["trials"] += degenerate
            row["trials_failed"] += degenerate
            rows.append(row)
            cell += 1
    return rows


def run_doa_snapshot(config: ExperimentConfig, p_bs_dbm: float | None = None,
                     irs_index: int = 0) -> list[dict]:
    """Single-trial true-vs-estimated DoA table (scatter-style figure data)."""
    p_dbm = config.p_bs_dbm_sweep[-1] if p_bs_dbm is None else p_bs_dbm
    record = run_trial(config, p_dbm, trial_seed(config.base_seed, 0, 0), 0)
    if record.est_bs_doas is None or record.est_irs_doas is None:
        raise InvalidArgumentError(f"snapshot trial produced no DoAs: {record.failure}")
    rows = []
    for j in range(config.n_targets):
        rows.append({
            "target": j,
            "mu_b2t_true": float(record.true_bs_doas[j, 0]),
            "nu_b2t_true": float(record.true_bs_doas[j, 1]),
            "mu_b2t_est": float(record.est_bs_doas[j, 0]),
            "nu_b2t_est": float(record.est_bs_doas[j, 1]),
            "mu_i2t_true": float(record.true_irs_doas[irs_index, j, 0]),
            "nu_i2t_true": float(record.true_irs_doas[irs_index, j, 1]),
            "mu_i2t_est": float(record.est_irs_doas[irs_index, j, 0]),
            "nu_i2t_est": float(record.est_irs_doas[irs_index, j, 1]),
        })
    return rows


FIGURE_COLUMNS = {
    "fig6": ["p_bs_dbm", "rmse_mu_b2t", "rmse_nu_b2t", "sqrt_crb_mu_b2t", "sqrt_crb_nu_b2t"],
    "fig7": ["p_bs_dbm", "rmse_mu_i2t", "rmse_nu_i2t", "sqrt_crb_mu_irs", "sqrt_crb_nu_irs"],
    "fig8": ["t2", "p_bs_dbm", "rmse_mu_i2t", "rmse_nu_i2t"],
    "fig9": ["p_bs_dbm", "rmse_q", "trials_failed"],
    "fig10": ["x", "y", "rmse_q", "trials_failed"],
    "fig11": ["target", "mu_b2t_true", "nu_b2t_true", "mu_b2t_est", "nu_b2t_est",
              "mu_i2t_true", "nu_i2t_true", "mu_i2t_est", "nu_i2t_est"],
    "fig12": ["p_bs_dbm", "rmse_q", "trials_failed"],
}


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(rows: list[dict], path: str, columns: Sequence[str] | None = None) -> None:
    """Write rows with a header; floats keep full round-trip precision."""
    if not rows:
        raise InvalidArgumentError("nothing to emit")
    cols = list(columns) if columns is not None else list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in cols])


def emit_figure_data(rows: list[dict], figure_id: str, path: str) -> None:
    """Project rows onto one figure's column layout and write CSV."""
    if figure_id not in FIGURE_COLUMNS:
        raise InvalidArgumentError(f"unknown figure id {figure_id!r}")
    cols = FIGURE_COLUMNS[figure_id]
    missing = [c for c in cols if c not in rows[0]]
    if missing:
        raise InvalidArgumentError(
            f"rows lack columns {missing} needed by {figure_id}; run the matching sweep")
    emit_csv(rows, path, cols)

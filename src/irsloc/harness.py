"""Experiment configuration, seeded Monte Carlo runs, RMSE metrics, CSV emission.

A trial runs the full pipeline: white probing and subspace search with every
surface off, then one scan stage per surface, then geometric reconstruction
with target matching.  Trials are independently seeded off a reproducible
ladder, failures are counted rather than fatal, and the bound curves attached
to the output come exclusively from the Fisher-information module.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import numbers
import sys
import time
from collections.abc import Mapping
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np
import yaml

from . import stage2
from .arrays import Position3, SpatialAnglePair, UpaConfig, check_power, dft_codebook, is_number
from .channel import SceneGeometry, dbm_to_watts
from .crb import crb_trace_stage1, fim_stage1, fim_stage2, fim_stage2_case1, fim_stage2_case2
from .errors import DegenerateGeometryError, InvalidArgumentError, IrslocError
# construct_location, sample_covariance: unused, but perfbench traces them by name here
from .localization import MATCHING_BUDGET, construct_location, match_and_localize
from .stage1 import (
    SEARCH_BATCH,
    MusicEstimate,
    music_estimate,
    music_estimates,
    sample_covariance,
    stage1_echo,
    synthesize_stage1,
)
# joint_codewords, sequential_codewords: unused, but perfbench traces them by name here
from .stage2 import (
    Stage2Mode,
    build_scan_plan,
    classify_regime,
    joint_codewords,
    scan_estimate,
    sequential_codewords,
    stage2_model,
    synthesize_stage2,
)

DEFAULT_POWER_SWEEP = [float(p) for p in range(-10, 45, 5)]


def _reject_unknown_keys(raw: dict, schema, where: str) -> None:
    unknown = sorted(str(k) for k in set(raw) - {f.name for f in fields(schema)})
    if unknown:
        raise InvalidArgumentError(f"unknown {where} keys {unknown}")


def _numbers(value, where: str) -> list:
    if not (isinstance(value, (list, tuple)) and all(is_number(v) for v in value)):
        raise InvalidArgumentError(f"{where} {value!r} must be a list of numbers")
    return list(value)


def _mapping(value, where: str, schema) -> dict:
    """A copy of value, which must be a mapping with no key outside the schema's fields."""
    if not isinstance(value, Mapping):
        raise InvalidArgumentError(f"{where} {value!r} must be a mapping of keys")
    raw = dict(value)
    _reject_unknown_keys(raw, schema, where)
    return raw


def _required(raw: dict, keys: Sequence[str], where: str) -> None:
    missing = [k for k in keys if k not in raw]
    if missing:
        raise InvalidArgumentError(f"{where} lacks keys {missing}")


def _position(value, where: str) -> Position3:
    if len(_numbers(value, where)) != 3:
        raise InvalidArgumentError(f"{where} {value!r} must be three coordinates [x, y, z]")
    return Position3(*value)


def _list(value, where: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise InvalidArgumentError(f"{where} {value!r} must be a list")
    return list(value)


def _upa(value, where: str) -> UpaConfig:
    raw = _mapping(value, where, UpaConfig)
    _required(raw, ("n_y", "n_z"), where)
    return UpaConfig(**raw)


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
        for name in ("t1", "t2_y", "t2_z", "trials", "music_refine_levels", "base_seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise InvalidArgumentError(f"{name} {value!r} must be an integer")
        if not isinstance(self.joint_scan, bool):
            raise InvalidArgumentError(f"joint_scan {self.joint_scan!r} must be true or false")
        if self.trials < 1:
            raise InvalidArgumentError("need at least one trial")
        _numbers(self.p_bs_dbm_sweep, "p_bs_dbm_sweep")
        for name in ("noise_dbm", "music_grid"):
            if not is_number(getattr(self, name)):
                raise InvalidArgumentError(f"{name} {getattr(self, name)!r} must be a number")
        if not self.p_bs_dbm_sweep:
            raise InvalidArgumentError("power sweep must be non-empty")
        if not np.all(np.isfinite(self.p_bs_dbm_sweep)):
            raise InvalidArgumentError(f"power sweep {self.p_bs_dbm_sweep} must be finite")
        if not self.noise_dbm < np.inf:  # NaN or +inf; -inf is the noiseless limit
            raise InvalidArgumentError(f"noise_dbm {self.noise_dbm} must be below +inf")
        if self.t1 < 1 or self.t2_y < 1 or self.t2_z < 1:
            raise InvalidArgumentError("every stage needs at least one sample")
        if not self.scene.irs:
            raise InvalidArgumentError("need at least one reflecting surface")
        if not (np.isfinite(self.music_grid) and 0.0 < self.music_grid <= 1.0):
            raise InvalidArgumentError(f"music_grid {self.music_grid} must lie in (0, 1]")
        if self.music_refine_levels < 0:
            raise InvalidArgumentError("music_refine_levels must be non-negative")
        if self.n_targets < 1:
            raise InvalidArgumentError("need at least one target")
        if self.n_targets > MATCHING_BUDGET:
            raise InvalidArgumentError(
                f"{self.n_targets} targets exceed the matching budget {MATCHING_BUDGET}")
        if self.n_targets > 1 and not self.joint_scan:
            raise InvalidArgumentError(
                f"joint_scan false serves one target, the scene has {self.n_targets} targets")
        try:
            self.stage2_mode = Stage2Mode(self.stage2_mode)
        except ValueError:
            raise InvalidArgumentError(
                f"stage2_mode {self.stage2_mode!r} must be one of "
                f"{[m.value for m in Stage2Mode]}") from None

    @property
    def noise_var(self) -> float:
        return dbm_to_watts(self.noise_dbm)

    @property
    def n_targets(self) -> int:
        return len(self.scene.targets)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """A config from a parsed document; malformed fields raise InvalidArgumentError naming them."""
        raw = _mapping(raw, "config", cls)
        _required(raw, ("scene",), "config")
        scene_raw = _mapping(raw.pop("scene"), "scene", SceneGeometry)
        _required(scene_raw, ("bs", "irs", "targets", "bs_upa", "irs_upa"), "scene")
        carrier = scene_raw.get("carrier_freq_hz", 750e6)
        try:
            if isinstance(carrier, bool):  # float(True) would be a 1 Hz carrier
                raise TypeError(carrier)
            carrier = float(carrier)  # also a string such as "750e6", as PyYAML reads it
        except (TypeError, ValueError):
            raise InvalidArgumentError(
                f"scene.carrier_freq_hz {carrier!r} must be a number") from None
        scene = SceneGeometry(
            bs=_position(scene_raw["bs"], "scene.bs"),
            irs=[_position(p, f"scene.irs[{i}]")
                 for i, p in enumerate(_list(scene_raw["irs"], "scene.irs"))],
            targets=[_position(p, f"scene.targets[{i}]")
                     for i, p in enumerate(_list(scene_raw["targets"], "scene.targets"))],
            bs_upa=_upa(scene_raw["bs_upa"], "scene.bs_upa"),
            irs_upa=[_upa(u, f"scene.irs_upa[{i}]")
                     for i, u in enumerate(_list(scene_raw["irs_upa"], "scene.irs_upa"))],
            carrier_freq_hz=carrier,
            rcs_dbsm=_numbers(scene_raw.get("rcs_dbsm", []), "scene.rcs_dbsm"),
        )
        return cls(scene=scene, **raw)

    @classmethod
    def from_yaml(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(yaml.safe_load(fh))


@dataclass
class TrialRecord:
    """One trial's truth, estimates and outcome.

    wall_time_s is the time run_trial took.  Run alone that is the whole
    trial; in a sweep the stage-1 searches run stacked, a batch of trials
    ahead (_sweep_cells), so it covers stage 2, localization and the
    record, not stage 1.
    """

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
    """Reorder est_rows to minimize the summed squared distance to true_rows.

    Exact search over all k! orders; the config caps k at MATCHING_BUDGET.
    """
    cost = np.sum((true_rows[:, None, :] - est_rows[None, :, :]) ** 2, axis=-1)
    k = len(true_rows)
    perms = _permutations(k)
    best = int(np.argmin(cost[np.arange(k), perms].sum(axis=1)))
    return est_rows[perms[best]]


@functools.lru_cache(maxsize=MATCHING_BUDGET)
def _permutations(k: int) -> np.ndarray:
    """Read-only (k!, k) table of every order of range(k), in lexicographic order."""
    perms = np.array(list(itertools.permutations(range(k))))
    perms.setflags(write=False)
    return perms


def _scene_truth(scene: SceneGeometry):
    k = len(scene.targets)
    m = len(scene.irs)
    bs = _angles_to_array([scene.bs_target_doa(j) for j in range(k)])
    irs = np.array([[[scene.irs_target_doa(i, j).mu, scene.irs_target_doa(i, j).nu]
                     for j in range(k)] for i in range(m)])
    pos = np.array([t.as_array() for t in scene.targets])
    return bs, irs, pos


@functools.lru_cache(maxsize=16)  # a scene is immutable and hashable: its own key
def _trial_data(scene: SceneGeometry, t1: int, t2_y: int, t2_z: int,
                stage2_mode: Stage2Mode) -> tuple:
    """Read-only unit-power data that every trial of one scene shares.

    (true BS angles, true surface angles, true positions, regime, scan plans,
    stage-1 echo, stage-2 model per surface); both signals are linear in the
    transmit amplitude, so a trial at P watts sends sqrt(P) times the echo and
    each model.  IrslocError if the scene is degenerate, e.g. a target on a surface.
    """
    plans = tuple(build_scan_plan(u, t2_y, t2_z) for u in scene.irs_upa)
    echo = stage1_echo(scene, dft_codebook(scene.n_bs, t1, 1.0))
    models = tuple(stage2_model(scene, i, plan, stage2_mode, 1.0) for i, plan in enumerate(plans))
    truth = _scene_truth(scene)
    for a in (*truth, echo, *models):
        a.setflags(write=False)
    return (*truth, classify_regime(scene, 0, 0).regime.value, plans, echo, models)


def _stage_seed(seed: int, stage: int) -> int:
    """The seed of one stage of a trial: stage 0 is stage 1, stage 1 + i is surface i's scan.

    SeedSequence(seed).spawn(n)[stage] is SeedSequence(seed, spawn_key=(stage,)),
    built here without its parent and siblings.
    """
    return int(np.random.SeedSequence(seed, spawn_key=(stage,)).generate_state(1, np.uint64)[0])


def _amplitude(p_bs_dbm: float) -> float:
    """sqrt(P) of the transmit power, which must be finite and positive."""
    p_watts = dbm_to_watts(p_bs_dbm)
    check_power(p_watts)
    return np.sqrt(p_watts)


def _stage1_samples(config: ExperimentConfig, echo: np.ndarray, seed: int) -> np.ndarray:
    """A trial's noisy stage-1 snapshots: its seeded noise added into echo, which it consumes."""
    return synthesize_stage1(config.scene, None, config.noise_var, _stage_seed(seed, 0),
                             echo=echo)


def run_trial(config: ExperimentConfig, p_bs_dbm: float, seed: int,
              trial_index: int = 0, *,
              music: MusicEstimate | IrslocError | None = None) -> TrialRecord:
    """One full pipeline pass at one power point, deterministic under the seed.

    The trial only scales its scene's cached unit-power signals (_trial_data),
    draws noise and estimates.  music is the trial's stage-1 result, or the
    IrslocError that ended it, from music_estimates over the same seeded
    snapshots; a trial run alone searches its own, a batch of one.
    Estimation failures are recorded in the returned record; a degenerate
    scene or a transmit power that is not finite and positive raises before
    any estimate.
    """
    scene = config.scene
    true_bs, true_irs, true_pos, regime, plans, echo, models = _trial_data(
        scene, config.t1, config.t2_y, config.t2_z, config.stage2_mode)
    amplitude = _amplitude(p_bs_dbm)
    k = config.n_targets
    m = len(scene.irs)
    noise_var = config.noise_var
    start = time.perf_counter()

    record = TrialRecord(
        trial_index=trial_index, seed=seed, p_bs_dbm=p_bs_dbm,
        true_bs_doas=true_bs, est_bs_doas=None,
        true_irs_doas=true_irs, est_irs_doas=None,
        true_positions=true_pos, est_positions=None,
        regime=regime, wall_time_s=0.0,
    )
    try:
        if music is None:
            music = music_estimate(_stage1_samples(config, amplitude * echo, seed), scene.bs_upa,
                                   k, config.music_grid, config.music_refine_levels)
        elif isinstance(music, IrslocError):
            raise music
        est_bs = music.angles
        record.est_bs_doas = _align(true_bs, _angles_to_array(est_bs))

        est_irs: list[list[SpatialAnglePair]] = []
        for i, plan in enumerate(plans):
            obs = synthesize_stage2(scene, i, plan, noise_var, _stage_seed(seed, 1 + i),
                                    joint=config.joint_scan, model=amplitude * models[i])
            est_irs.append(scan_estimate(obs, plan, scene.bs_irs_aoa(i), k))
        record.est_irs_doas = np.array([_align(true_irs[i], _angles_to_array(est_irs[i]))
                                        for i in range(m)])

        record.est_positions = _align(
            true_pos, match_and_localize(est_bs, {i: est_irs[i] for i in range(m)}, scene))
    except IrslocError as exc:
        record.failed = True
        record.failure = f"{type(exc).__name__}: {exc}"
    record.wall_time_s = time.perf_counter() - start
    return record


CRB_COLUMNS = ("sqrt_crb_mu_b2t", "sqrt_crb_nu_b2t", "sqrt_crb_mu_irs", "sqrt_crb_nu_irs")


@functools.lru_cache(maxsize=16)
def _unit_bounds(scene: SceneGeometry, t1: int, t2_y: int, t2_z: int, joint_scan: bool,
                 stage2_mode: Stage2Mode) -> tuple[float, float, float, float]:
    """The angle CRBs behind attach_crb's CRB_COLUMNS, at unit power and unit noise.

    The stage-1 bound takes the DFT codebook probed at 1 W; the stage-2 bound
    is fim_stage2 of the mode's own echo model over the codewords that the
    first surface's scan sends run noiselessly at unit power (called through
    its module, so a traced bounds call counts no scan samples), toward
    target 0.  Case 1 and case 2 go through fim_stage2_case1/case2, the
    names a traced bounds call times; full mode calls fim_stage2, which no
    trace site covers, so its bounds are not traced.
    """
    plan = build_scan_plan(scene.irs_upa[0], t2_y, t2_z)
    words = stage2.synthesize_stage2(scene, 0, plan, 0.0, 0, stage2_mode, joint=joint_scan).codewords
    s1 = fim_stage1(scene, dft_codebook(scene.n_bs, t1, 1.0), 1.0)
    if stage2_mode is Stage2Mode.CASE1_APPROX:
        s2 = fim_stage2_case1(scene, 0, 0, words, 1.0)
    elif stage2_mode is Stage2Mode.CASE2_APPROX:
        s2 = fim_stage2_case2(scene, 0, 0, words, 1.0)
    else:
        s2 = fim_stage2(scene, 0, 0, words, 1.0, stage2_mode)
    return s1.crb("mu_b2t"), s1.crb("nu_b2t"), s2.crb("mu"), s2.crb("nu")


def attach_crb(config: ExperimentConfig, p_bs_dbm: float) -> dict:
    """Bound columns for one power point, straight from the closed forms.

    The stage-1 bound takes the Jacobian of the echo mean against the codebook
    actually probed: with fewer samples than antennas the DFT columns are not
    spatially white and the white-input closed form would be optimistic.
    The stage-2 bound is the first surface's scan toward target 0, over
    the surface angles and the gain of each echo term the mode carries, so
    it is finite in every mode whose scan resolves the target.  Every
    mean is linear in the transmit amplitude, so each bound is
    sqrt(sigma^2/P) times its unit-power, unit-noise value, which is solved
    once per scene and scan (_unit_bounds); a trial's codebook is never used.
    """
    noise_var = config.noise_var
    p_watts = dbm_to_watts(p_bs_dbm)
    check_power(p_watts)
    if noise_var <= 0:
        return {key: 0.0 for key in CRB_COLUMNS}
    unit = _unit_bounds(config.scene, config.t1, config.t2_y, config.t2_z,
                        config.joint_scan, config.stage2_mode)
    return {key: math.sqrt(noise_var / p_watts * v) for key, v in zip(CRB_COLUMNS, unit)}


def stage1_crb_trace(config: ExperimentConfig, p_bs_dbm: float) -> float:
    """Trace of the inverse stage-1 FIM for the DFT codebook sent at p_bs_dbm.

    crb_trace_stage1 on that codebook: +inf when the FIM is singular, and 0.0
    in the noiseless limit, as attach_crb reports.
    """
    if config.noise_var <= 0:
        return 0.0
    probing = dft_codebook(config.scene.n_bs, config.t1, dbm_to_watts(p_bs_dbm))
    return crb_trace_stage1(config.scene, probing, config.noise_var)


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


def _sweep_cells(config: ExperimentConfig, cells: Sequence[tuple[ExperimentConfig, float, int]],
                 skip_degenerate: bool = False) -> list[list[TrialRecord]]:
    """The seeded trial records of each cell (config, power, sweep index), in order.

    Each cell's config is config with its own scene or scans, but config's
    BS array, target count and search.  Stage 1 runs for SEARCH_BATCH trials
    at a time in sweep order, so batches straddle cells: each trial's
    snapshots and signal subspace on their own, then the searches stacked
    (music_estimates).  Each trial of the batch then runs through run_trial
    with its stage-1 result, so every record equals the one the same trial
    gives run alone.  A cell's power is checked before its scene; a
    degenerate scene raises DegenerateGeometryError, or with
    skip_degenerate adds no trials and leaves its cell empty.
    """
    def trials():
        for c, (cfg, p_dbm, s_idx) in enumerate(cells):
            amplitude = _amplitude(p_dbm)
            try:
                *_, echo, _ = _trial_data(cfg.scene, cfg.t1, cfg.t2_y, cfg.t2_z, cfg.stage2_mode)
            except DegenerateGeometryError:
                if not skip_degenerate:
                    raise
                continue
            for t in range(cfg.trials):
                yield c, t, trial_seed(cfg.base_seed, s_idx, t), amplitude, echo

    records: list = [[] for _ in cells]
    pending = trials()
    while batch := list(itertools.islice(pending, SEARCH_BATCH)):
        music = music_estimates((_stage1_samples(cells[c][0], amplitude * echo, seed)
                                 for c, _, seed, amplitude, echo in batch),
                                config.scene.bs_upa, config.n_targets, config.music_grid,
                                config.music_refine_levels)
        for (c, t, seed, *_), result in zip(batch, music):
            cfg, p_dbm, _ = cells[c]
            records[c].append(run_trial(cfg, p_dbm, seed, t, music=result))
    return records


def run_experiment(config: ExperimentConfig,
                   trial_sink: list | None = None) -> list[dict]:
    """Power sweep of seeded trials; one aggregate row per sweep point."""
    sweep = config.p_bs_dbm_sweep
    rows = []
    for p_dbm, records in zip(sweep, _sweep_cells(
            config, [(config, p, s_idx) for s_idx, p in enumerate(sweep)])):
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
    cells = [(replace(config, t2_y=t2, t2_z=t2, p_bs_dbm_sweep=[p_dbm]), p_dbm, s_idx)
             for s_idx, t2 in enumerate(t2_values)]
    return [{"t2": t2, "p_bs_dbm": float(p_dbm), **aggregate_trials(records)}
            for t2, records in zip(t2_values, _sweep_cells(config, cells))]


def run_area_sweep(config: ExperimentConfig, x_values: Sequence[float],
                   y_values: Sequence[float], p_bs_dbm: float | None = None,
                   target_z: float = 0.0) -> list[dict]:
    """Move a single target over an (x, y) grid; failures counted, never fatal.

    A cell whose scene is degenerate (the target on a surface or the BS)
    counts every trial as failed; a transmit power that is not finite and
    positive raises at the first cell.
    """
    if config.n_targets != 1:
        raise InvalidArgumentError("area sweep is a single-target experiment")
    p_dbm = config.p_bs_dbm_sweep[0] if p_bs_dbm is None else p_bs_dbm
    grid = list(itertools.product(x_values, y_values))
    cells = [(replace(config, p_bs_dbm_sweep=[p_dbm], scene=replace(
                 config.scene, targets=[Position3(float(x), float(y), target_z)])), p_dbm, cell)
             for cell, (x, y) in enumerate(grid)]
    rows = []
    for (x, y), records in zip(grid, _sweep_cells(config, cells, skip_degenerate=True)):
        degenerate = 0 if records else config.trials
        row = {"x": float(x), "y": float(y)}
        row.update(aggregate_trials(records))
        row["trials"] += degenerate
        row["trials_failed"] += degenerate
        rows.append(row)
    return rows


def run_doa_snapshot(config: ExperimentConfig, p_bs_dbm: float | None = None,
                     irs_index: int = 0) -> list[dict]:
    """Single-trial true-vs-estimated DoA table (scatter-style figure data)."""
    m = len(config.scene.irs)
    if not (isinstance(irs_index, numbers.Integral) and not isinstance(irs_index, bool)
            and 0 <= irs_index < m):
        raise InvalidArgumentError(f"irs_index {irs_index!r} must be an integer in [0, {m})")
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


def emit_csv(rows: list[dict], path: str | None, columns: Sequence[str] | None = None) -> None:
    """Write rows with a header to path, or to stdout (newline-terminated) when path is None.

    Floats keep full round-trip precision.
    """
    if not rows:
        raise InvalidArgumentError("nothing to emit")
    cols = list(columns) if columns is not None else list(rows[0].keys())
    if path is None:
        out, terminator = nullcontext(sys.stdout), "\n"
    else:
        out, terminator = open(path, "w", newline=""), "\r\n"
    with out as fh:
        writer = csv.writer(fh, lineterminator=terminator)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in cols])


def emit_figure_data(rows: list[dict], figure_id: str, path: str | None) -> None:
    """Project rows onto one figure's column layout and write CSV (stdout when path is None)."""
    if not rows:
        raise InvalidArgumentError("nothing to emit")
    if figure_id not in FIGURE_COLUMNS:
        raise InvalidArgumentError(f"unknown figure id {figure_id!r}")
    cols = FIGURE_COLUMNS[figure_id]
    missing = [c for c in cols if c not in rows[0]]
    if missing:
        raise InvalidArgumentError(
            f"rows lack columns {missing} needed by {figure_id}; run the matching sweep")
    emit_csv(rows, path, cols)

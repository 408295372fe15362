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
from .arrays import Position3, SpatialAnglePair, UpaConfig, dft_codebook
from .channel import SceneGeometry, dbm_to_watts, is_number
# fim_stage1, fim_stage2_case1/case2: unused, but perfbench traces them by name here
from .crb import (
    assemble_case1,
    assemble_case2,
    assemble_stage1,
    case1_factors,
    case2_factors,
    fim_stage1,
    fim_stage2_case1,
    fim_stage2_case2,
    stage1_factors,
)
from .errors import InvalidArgumentError, IrslocError
# construct_location, sample_covariance: unused, but perfbench traces them by name here
from .localization import MATCHING_BUDGET, construct_location, match_and_localize
from .stage1 import music_estimate, sample_covariance, stage1_echo, synthesize_stage1
# joint_codewords, sequential_codewords: unused, but perfbench traces them by name here
from .stage2 import (
    IrsScanPlan,
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
def _scene_invariants(scene: SceneGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Read-only true BS angles, surface angles and positions, and the regime, of one scene."""
    truth = _scene_truth(scene)
    for a in truth:
        a.setflags(write=False)
    return (*truth, classify_regime(scene, 0, 0).regime.value)


@dataclass(frozen=True)
class PowerPoint:
    """What the trials of one power point share, built once so that a trial only draws and estimates.

    The probing codebook and the scan plans come from tables cached per
    shape for the process, since neither depends on the scene; the rest is
    the scene's at this power: the noiseless stage-1 snapshots and each
    surface's noiseless scan samples over its whole beam grid.  The arrays
    are read-only, since one value serves every trial of the point.
    """

    probing: np.ndarray
    plans: tuple[IrsScanPlan, ...]
    echo: np.ndarray                 # (N_BS, T1), stage1_echo
    models: tuple[np.ndarray, ...]   # (t2_y, t2_z) per surface, stage2_model


def power_point(config: ExperimentConfig, p_bs_dbm: float) -> PowerPoint:
    """Build the per-power-point invariants once, for every trial at p_bs_dbm.

    The codebook and plans come from their builders' per-shape caches.
    Raises IrslocError when the scene itself is degenerate, e.g. a target on
    a surface.
    """
    scene = config.scene
    p_watts = dbm_to_watts(p_bs_dbm)
    probing = dft_codebook(scene.n_bs, config.t1, p_watts)
    plans = tuple(build_scan_plan(u, config.t2_y, config.t2_z) for u in scene.irs_upa)
    echo = stage1_echo(scene, probing)
    models = tuple(stage2_model(scene, i, plan, config.stage2_mode, p_watts)
                   for i, plan in enumerate(plans))
    for a in (probing, echo, *models):
        a.setflags(write=False)
    return PowerPoint(probing=probing, plans=plans, echo=echo, models=models)


def run_trial(config: ExperimentConfig, p_bs_dbm: float, seed: int,
              trial_index: int = 0, point: PowerPoint | None = None) -> TrialRecord:
    """One full pipeline pass at one power point, deterministic under the seed.

    point carries the invariants shared by the power point's trials, so the
    trial only draws noise and estimates; a trial run alone builds its own.
    The truth and regime come from _scene_invariants, once per scene.
    Estimation failures are recorded in the returned record; a degenerate
    scene raises IrslocError before any estimate.
    """
    scene = config.scene
    true_bs, true_irs, true_pos, regime = _scene_invariants(scene)
    if point is None:
        point = power_point(config, p_bs_dbm)
    k = config.n_targets
    m = len(scene.irs)
    noise_var = config.noise_var
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
        block = synthesize_stage1(scene, point.probing, noise_var, stage_seeds[0],
                                  echo=point.echo)
        music = music_estimate(block.samples, scene.bs_upa, k, config.music_grid,
                               config.music_refine_levels)
        est_bs = music.angles
        record.est_bs_doas = _align(true_bs, _angles_to_array(est_bs))

        est_irs: list[list[SpatialAnglePair]] = []
        for i, plan in enumerate(point.plans):
            obs = synthesize_stage2(scene, i, plan, noise_var, stage_seeds[1 + i],
                                    joint=config.joint_scan, model=point.models[i])
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


@functools.lru_cache(maxsize=16)
def _bound_factors(scene: SceneGeometry, t2_y: int, t2_z: int, joint_scan: bool,
                   stage2_mode: Stage2Mode) -> tuple:
    """Read-only power-independent factors of both bounds of one scene: (stage 1, stage 2).

    The stage-2 bound takes the codewords that the first surface's scan sends
    run noiselessly at unit power (called through its module, so a traced
    bounds call counts no scan samples).
    """
    plan = build_scan_plan(scene.irs_upa[0], t2_y, t2_z)
    words = stage2.synthesize_stage2(scene, 0, plan, 0.0, 0, stage2_mode, joint=joint_scan).codewords
    factors = case2_factors if stage2_mode is Stage2Mode.CASE2_APPROX else case1_factors
    return stage1_factors(scene), factors(scene, 0, 0, words)


def _factors(config: ExperimentConfig) -> tuple:
    return _bound_factors(config.scene, config.t2_y, config.t2_z,
                          config.joint_scan, config.stage2_mode)


def attach_crb(config: ExperimentConfig, p_bs_dbm: float) -> dict:
    """Bound columns for one power point, straight from the closed forms.

    The stage-1 bound takes the Jacobian of the echo mean against the codebook
    actually probed: with fewer samples than antennas the DFT columns are not
    spatially white and the white-input closed form would be optimistic.
    The stage-2 bound is the first surface's scan toward target 0.  Both are
    assembled from factors cached per scene and scan (_bound_factors), so a
    call pays only the power's scalings and the small FIMs once its scene has
    been seen; the probing codebook comes from its builder, never a trial's.
    """
    noise_var = config.noise_var
    if noise_var <= 0:
        return {key: 0.0 for key in ("sqrt_crb_mu_b2t", "sqrt_crb_nu_b2t",
                                     "sqrt_crb_mu_irs", "sqrt_crb_nu_irs")}
    p_watts = dbm_to_watts(p_bs_dbm)
    probing = dft_codebook(config.scene.n_bs, config.t1, p_watts)
    factors1, factors2 = _factors(config)
    s1 = assemble_stage1(factors1, probing, noise_var)
    if config.stage2_mode is Stage2Mode.CASE2_APPROX:
        s2 = assemble_case2(factors2, noise_var, p_watts)
        mu_key, nu_key = "mu_i2t", "nu_i2t"
    else:
        s2 = assemble_case1(factors2, noise_var, p_watts)
        mu_key, nu_key = "mu", "nu"
    return {
        "sqrt_crb_mu_b2t": float(np.sqrt(s1.crb("mu_b2t"))),
        "sqrt_crb_nu_b2t": float(np.sqrt(s1.crb("nu_b2t"))),
        "sqrt_crb_mu_irs": float(np.sqrt(s2.crb(mu_key))),
        "sqrt_crb_nu_irs": float(np.sqrt(s2.crb(nu_key))),
    }


def stage1_crb_trace(config: ExperimentConfig, p_bs_dbm: float) -> float:
    """Trace of the inverse stage-1 FIM for the DFT codebook sent at p_bs_dbm.

    The crb_trace_stage1 value from attach_crb's cached factors: +inf when the
    FIM is singular, and 0.0 in the noiseless limit, as attach_crb reports.
    """
    if config.noise_var <= 0:
        return 0.0
    probing = dft_codebook(config.scene.n_bs, config.t1, dbm_to_watts(p_bs_dbm))
    return float(np.sum(assemble_stage1(_factors(config)[0], probing, config.noise_var).crb_diag))


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


def _sweep_point(config: ExperimentConfig, p_dbm: float, sweep_index: int) -> list[TrialRecord]:
    """The seeded trials of one sweep point on one power point; IrslocError if degenerate."""
    point = power_point(config, p_dbm)
    return [run_trial(config, p_dbm, trial_seed(config.base_seed, sweep_index, t), t, point)
            for t in range(config.trials)]


def run_experiment(config: ExperimentConfig,
                   trial_sink: list | None = None) -> list[dict]:
    """Power sweep of seeded trials; one aggregate row per sweep point."""
    rows = []
    for s_idx, p_dbm in enumerate(config.p_bs_dbm_sweep):
        records = _sweep_point(config, p_dbm, s_idx)
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
        records = _sweep_point(cfg, p_dbm, s_idx)
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
            try:
                records, degenerate = _sweep_point(cfg, p_dbm, cell), 0
            except IrslocError:  # the scene itself is degenerate, e.g. target on a surface
                records, degenerate = [], config.trials
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

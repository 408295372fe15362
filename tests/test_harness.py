import itertools
import os
import re
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from irsloc import (
    ExperimentConfig,
    InvalidArgumentError,
    IrslocError,
    Position3,
    SceneGeometry,
    UpaConfig,
    emit_csv,
    emit_figure_data,
    rmse_angle,
    rmse_location,
    run_experiment,
    run_trial,
    trial_seed,
)
from irsloc import harness
from irsloc.harness import (
    _align,
    aggregate_trials,
    attach_crb,
    power_point,
    run_area_sweep,
    run_doa_snapshot,
    run_t2_sweep,
)
from irsloc.arrays import _dft_table, dft_codebook
from irsloc.channel import dbm_to_watts
from irsloc.crb import crb_trace_stage1, fim_stage1, fim_stage2_case1, fim_stage2_case2
from irsloc.localization import DoAPairObservation, construct_location
from irsloc.stage1 import _steering_table
from irsloc.stage2 import (
    KroneckerCodewords,
    _scan_plan,
    beam_gains,
    build_scan_plan,
    composite_angle,
    joint_codewords,
    stage2_model,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def tiny_config(**overrides):
    scene = SceneGeometry(
        bs=Position3(0.0, 0.0, 5.0), irs=[Position3(-20.0, 0.0, 3.0)],
        targets=[Position3(-12.0, 6.0, 0.0)],
        bs_upa=UpaConfig(4, 4), irs_upa=[UpaConfig(6, 6)],
    )
    defaults = dict(scene=scene, p_bs_dbm_sweep=[30.0], t1=16, t2_y=17, t2_z=17,
                    trials=2, base_seed=77, music_grid=0.01, music_refine_levels=1)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_rmse_metric_definitions():
    assert rmse_angle([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse_angle([0.0], [0.3]) == pytest.approx(0.3, rel=1e-12)
    true_pos = np.zeros((1, 2, 3))
    est_pos = np.array([[[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]]])
    assert rmse_location(true_pos, est_pos) == pytest.approx(np.sqrt(25.0 / 2.0), rel=1e-12)
    with pytest.raises(InvalidArgumentError):
        rmse_angle([1.0], [1.0, 2.0])


def test_seed_ladder_unique_and_stable():
    seeds = {trial_seed(42, s, t) for s in range(6) for t in range(100)}
    assert len(seeds) == 600
    assert trial_seed(42, 3, 7) == trial_seed(42, 3, 7)
    assert trial_seed(42, 3, 7) != trial_seed(43, 3, 7)


def test_trial_replays_bit_identically():
    cfg = tiny_config()
    a = run_trial(cfg, 30.0, trial_seed(cfg.base_seed, 0, 0), 0)
    b = run_trial(cfg, 30.0, trial_seed(cfg.base_seed, 0, 0), 0)
    assert not a.failed and not b.failed
    assert np.array_equal(a.est_positions, b.est_positions)
    assert np.array_equal(a.est_bs_doas, b.est_bs_doas)


def _assert_same_record(a, b):
    for f in fields(a):
        if f.name != "wall_time_s":
            np.testing.assert_equal(getattr(a, f.name), getattr(b, f.name), err_msg=f.name)


def test_shared_power_point_matches_a_trial_run_alone():
    configs = Path(__file__).resolve().parents[1] / "configs"
    shipped = [ExperimentConfig.from_yaml(str(configs / name))
               for name in ("single_target.yaml", "multi_target.yaml")]
    for base, mode, joint in itertools.product(shipped, ("full", "case1", "case2"), (True, False)):
        if base.n_targets > 1 and not joint:  # a sequential scan serves one target
            with pytest.raises(InvalidArgumentError, match="joint_scan"):
                replace(base, stage2_mode=mode, joint_scan=joint)
            continue
        cfg = replace(base, stage2_mode=mode, joint_scan=joint)
        point = power_point(cfg, 40.0)
        assert all(plan is point.plans[0] for plan in point.plans)  # one shape, one plan
        seed = trial_seed(cfg.base_seed, 0, 0)
        alone, shared = run_trial(cfg, 40.0, seed, 0), run_trial(cfg, 40.0, seed, 0, point)
        _assert_same_record(alone, shared)
        if mode == base.stage2_mode.value and joint == base.joint_scan:
            assert not shared.failed
        cached = [point.probing, point.echo, *point.models, *(
            a for plan in point.plans for a in (plan.mu_grid, plan.nu_grid,
                                                plan.codebook_y, plan.codebook_z))]
        cached += [_steering_table(cfg.music_grid, n) for n in (cfg.scene.bs_upa.n_y,
                                                                 cfg.scene.bs_upa.n_z)]
        truth = harness._scene_invariants(cfg.scene)
        assert shared.regime == alone.regime == truth[3]
        for name, value in zip(("true_bs_doas", "true_irs_doas", "true_positions"), truth):
            assert getattr(shared, name) is getattr(alone, name) is value
            cached.append(value)
        assert not any(a.flags.writeable for a in cached)
        # the bounds probe with the codebook the point sends
        assert np.array_equal(point.probing,
                              dft_codebook(cfg.scene.n_bs, cfg.t1, dbm_to_watts(40.0)))


def test_standalone_bounds_build_no_trial_invariants(monkeypatch):
    configs = [ExperimentConfig.from_yaml(str(CONFIGS / name))
               for name in ("multi_target.yaml", "single_target.yaml")]  # joint, sequential
    for cfg in configs:
        power_point(cfg, 40.0)
    expected = [attach_crb(cfg, 40.0) for cfg in configs]

    def trial_only(*args, **kwargs):
        raise AssertionError("the bounds path built a trial invariant")

    # cold caches: the bound factors are rebuilt without any trial invariant
    harness._bound_factors.cache_clear()
    harness._scene_invariants.cache_clear()
    for name in ("stage1_echo", "stage2_model", "_scene_truth", "classify_regime"):
        monkeypatch.setattr(harness, name, trial_only)
    assert [attach_crb(cfg, 40.0) for cfg in configs] == expected
    assert harness._bound_factors.cache_info().misses == len(configs)


def test_codebook_table_and_scan_plans_are_built_once_per_shape():
    plan = build_scan_plan(UpaConfig(5, 3), 4, 6)
    assert build_scan_plan(UpaConfig(5, 3), 4, 6) is plan
    with pytest.raises(AttributeError):
        plan.t2_y = 5
    for a in (plan.mu_grid, plan.nu_grid, plan.codebook_y, plan.codebook_z):
        with pytest.raises(ValueError):
            a[0] = 0
    cfg = replace(ExperimentConfig.from_yaml(str(CONFIGS / "single_target.yaml")), trials=1)
    assert len(cfg.p_bs_dbm_sweep) == 11
    # the per-scene truth, regime and bound factors are built once per sweep, too
    caches = (_dft_table, _scan_plan, harness._permutations, harness._scene_invariants,
              harness._bound_factors)
    for cache in caches:
        cache.cache_clear()
    with warnings.catch_warnings():  # t1 < N_BS: non-white probing
        warnings.simplefilter("ignore")
        run_experiment(cfg)
    for cache in caches:
        assert cache.cache_info().misses == 1, cache


def test_power_is_checked_outside_the_config_sweep():
    cfg = tiny_config()
    for p_dbm in (float("nan"), float("inf")):
        with pytest.raises(InvalidArgumentError, match="transmit power"):
            attach_crb(cfg, p_dbm)
        with pytest.raises(InvalidArgumentError, match="transmit power"):
            run_trial(cfg, p_dbm, 0)


def sent_codewords(cfg, p_watts):
    """The first surface's codewords as a scan sends them: a sequential z sweep holds the
    noiseless y-sweep peak, as synthesize_stage2 picks it."""
    plan = build_scan_plan(cfg.scene.irs_upa[0], cfg.t2_y, cfg.t2_z)
    if cfg.joint_scan:
        return joint_codewords(plan)
    model = stage2_model(cfg.scene, 0, plan, cfg.stage2_mode, p_watts)
    hold_y = int(np.argmax(np.abs(model[:, plan.hold_z_index]) ** 2))
    return KroneckerCodewords(plan.codebook_y, plan.codebook_z,
                              np.r_[np.arange(cfg.t2_y), np.full(cfg.t2_z, hold_y)],
                              np.r_[np.full(cfg.t2_y, plan.hold_z_index), np.arange(cfg.t2_z)])


def public_bounds(cfg, p_dbm):
    """attach_crb's columns composed from the public FIMs, for the codebooks a run sends."""
    p_watts = dbm_to_watts(p_dbm)
    probing = dft_codebook(cfg.scene.n_bs, cfg.t1, p_watts)
    s1 = fim_stage1(cfg.scene, probing, cfg.noise_var)
    fim, keys = ((fim_stage2_case2, ("mu_i2t", "nu_i2t")) if cfg.stage2_mode.value == "case2"
                 else (fim_stage2_case1, ("mu", "nu")))
    s2 = fim(cfg.scene, 0, 0, sent_codewords(cfg, p_watts), cfg.noise_var, p_watts)
    return {"sqrt_crb_mu_b2t": float(np.sqrt(s1.crb("mu_b2t"))),
            "sqrt_crb_nu_b2t": float(np.sqrt(s1.crb("nu_b2t"))),
            "sqrt_crb_mu_irs": float(np.sqrt(s2.crb(keys[0]))),
            "sqrt_crb_nu_irs": float(np.sqrt(s2.crb(keys[1])))}


# sequential scans keep their plain ids; joint scans add the factored bound of a full grid
SENT_SCANS = [pytest.param(mode, t2, joint, id=f"{mode}-{t2}" + ("-joint" if joint else ""))
              for joint, beams in ((False, (7, 10, 30, 60)), (True, (10, 30)))
              for mode in ("case1", "case2", "full") for t2 in beams]


@pytest.mark.parametrize("mode, t2, joint", SENT_SCANS)
def test_sequential_bound_holds_the_sent_y_beam(mode, t2, joint):
    # bounds assembled from cached factors equal the public FIMs bit for bit at every power
    cfg = replace(ExperimentConfig.from_yaml(str(CONFIGS / "single_target.yaml")),
                  stage2_mode=mode, t2_y=t2, t2_z=t2, joint_scan=joint)
    with warnings.catch_warnings():  # t1 < N_BS: non-white probing
        warnings.simplefilter("ignore")
        for p_dbm in (-10.0, 0.0, 25.0, 40.0):
            assert attach_crb(cfg, p_dbm) == public_bounds(cfg, p_dbm), p_dbm


def test_sequential_bound_holds_the_y_beam_a_full_echo_scan_sends():
    # here the y sweep's full echo (double plus single bounce) peaks at y beam 9, where
    # the double-bounce gain |g_y| alone peaks at beam 2; the scan holds beam 9, and
    # so must the bound
    base = ExperimentConfig.from_yaml(str(CONFIGS / "single_target.yaml"))
    scene = replace(base.scene, targets=[Position3(-8.775133, -11.971208, -0.966360)])
    cfg = replace(base, scene=scene, t2_y=10, t2_z=10, stage2_mode="full")
    plan = build_scan_plan(scene.irs_upa[0], 10, 10)
    gy, _ = beam_gains(scene.irs_upa[0], composite_angle(scene, 0, 0),
                       plan.codebook_y, plan.codebook_z)
    assert int(np.argmax(np.abs(gy))) == 2
    p_watts = dbm_to_watts(40.0)
    sent = sent_codewords(cfg, p_watts)
    assert set(sent.y_idx[plan.t2_y:].tolist()) == {9}
    want = fim_stage2_case1(scene, 0, 0, sent, cfg.noise_var, p_watts)
    with warnings.catch_warnings():  # t1 < N_BS: non-white probing
        warnings.simplefilter("ignore")
        bounds = attach_crb(cfg, 40.0)
    assert bounds["sqrt_crb_mu_irs"] == pytest.approx(np.sqrt(want.crb("mu")), rel=1e-12)
    assert bounds["sqrt_crb_nu_irs"] == pytest.approx(np.sqrt(want.crb("nu")), rel=1e-12)


def test_bound_factors_follow_rebuilt_scenes():
    cfg = ExperimentConfig.from_yaml(str(CONFIGS / "single_target.yaml"))
    harness._bound_factors.cache_clear()
    with warnings.catch_warnings():  # t1 < N_BS: non-white probing
        warnings.simplefilter("ignore")
        cold = attach_crb(cfg, 10.0)
        assert attach_crb(cfg, 10.0) == cold == public_bounds(cfg, 10.0)
        assert harness._bound_factors.cache_info().misses == 1
        stage1, _ = harness._factors(cfg)
        for a in (stage1.resp, stage1.gram):
            assert not a.flags.writeable
        _, case2 = harness._factors(replace(cfg, stage2_mode="case2"))
        for a in (case2.wq, case2.wq_mu, case2.wq_nu):
            assert not a.flags.writeable
        # a scene is immutable, so no cached value can go stale under an in-place edit
        target = cfg.scene.targets[0]
        moved = Position3(target.x + 3.0, target.y - 2.0, target.z + 1.0)
        with pytest.raises(TypeError):
            cfg.scene.rcs_dbsm[0] = 10.0
        with pytest.raises(TypeError):
            cfg.scene.targets[0] = moved
        with pytest.raises(FrozenInstanceError):
            cfg.scene.targets = [moved]
        assert attach_crb(cfg, 10.0) == cold
        for edit in (dict(rcs_dbsm=[10.0]), dict(targets=[moved])):
            cfg = replace(cfg, scene=replace(cfg.scene, **edit))
            for p_dbm in (10.0, 30.0):
                assert attach_crb(cfg, p_dbm) == public_bounds(cfg, p_dbm)
            assert attach_crb(cfg, 10.0) != cold
            cold = attach_crb(cfg, 10.0)
            probing = dft_codebook(cfg.scene.n_bs, cfg.t1, dbm_to_watts(30.0))
            assert harness.stage1_crb_trace(cfg, 30.0) == crb_trace_stage1(
                cfg.scene, probing, cfg.noise_var)


def test_run_reruns_byte_identical_csv(tmp_path):
    cfg = tiny_config(trials=1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_experiment(cfg), str(p1))
    emit_csv(run_experiment(cfg), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_is_idempotent(tmp_path):
    cfg = tiny_config(trials=1)
    rows = run_experiment(cfg)
    p = tmp_path / "out.csv"
    emit_csv(rows, str(p))
    first = p.read_bytes()
    emit_csv(rows, str(p))
    assert p.read_bytes() == first
    header = first.decode().splitlines()[0]
    assert header.startswith("p_bs_dbm,")


def test_figure_projection_and_validation(tmp_path):
    cfg = tiny_config(trials=1)
    rows = run_experiment(cfg)
    p = tmp_path / "fig6.csv"
    emit_figure_data(rows, "fig6", str(p))
    header = p.read_text().splitlines()[0].split(",")
    assert header == ["p_bs_dbm", "rmse_mu_b2t", "rmse_nu_b2t",
                      "sqrt_crb_mu_b2t", "sqrt_crb_nu_b2t"]
    with pytest.raises(InvalidArgumentError):
        emit_figure_data(rows, "fig10", str(tmp_path / "f.csv"))
    with pytest.raises(InvalidArgumentError):
        emit_figure_data(rows, "nope", str(tmp_path / "g.csv"))


def test_figure_data_rejects_empty_rows(tmp_path):
    path = tmp_path / "empty.csv"
    with pytest.raises(InvalidArgumentError, match="nothing to emit"):
        emit_figure_data([], "fig6", str(path))
    assert not path.exists()


def test_failed_trials_are_counted_not_fatal():
    # target on the y=0 axis plane: collinear construction, every trial fails
    scene = SceneGeometry(
        bs=Position3(0.0, 0.0, 5.0), irs=[Position3(-20.0, 0.0, 3.0)],
        targets=[Position3(-10.0, 0.0, 0.0)],
        bs_upa=UpaConfig(4, 4), irs_upa=[UpaConfig(6, 6)],
    )
    cfg = tiny_config(scene=scene, trials=2)
    rows = run_experiment(cfg)
    assert rows[0]["trials_failed"] == 2
    assert np.isnan(rows[0]["rmse_q"])


def test_noiseless_rmse_equals_quantization_floor():
    # independent prediction: nearest grid nodes + the same construction math
    cfg = tiny_config(trials=2, noise_dbm=float("-inf"), music_refine_levels=0)
    scene = cfg.scene
    rows = run_experiment(cfg)

    doa = scene.bs_target_doa(0)
    res = cfg.music_grid
    mu_bs = -1.0 + res * round((doa.mu + 1.0) / res)
    nu_bs = -1.0 + res * round((doa.nu + 1.0) / res)

    plan = build_scan_plan(scene.irs_upa[0], cfg.t2_y, cfg.t2_z)
    aoa = scene.bs_irs_aoa(0)
    comp_mu = aoa.mu + scene.irs_target_doa(0, 0).mu
    comp_nu = aoa.nu + scene.irs_target_doa(0, 0).nu
    mu_irs = plan.mu_grid[np.argmin(np.abs(plan.mu_grid - comp_mu))] - aoa.mu
    nu_irs = plan.nu_grid[np.argmin(np.abs(plan.nu_grid - comp_nu))] - aoa.nu

    from irsloc import SpatialAnglePair
    predicted = construct_location(
        DoAPairObservation(SpatialAnglePair(mu_bs, nu_bs),
                           SpatialAnglePair(float(mu_irs), float(nu_irs)), 0), scene)
    expected_rmse = float(np.linalg.norm(predicted.position.as_array()
                                         - scene.targets[0].as_array()))
    assert rows[0]["rmse_q"] == pytest.approx(expected_rmse, abs=1e-12)
    assert rows[0]["rmse_mu_b2t"] == pytest.approx(abs(mu_bs - doa.mu), abs=1e-12)


def test_aggregate_handles_all_failures():
    row = aggregate_trials([])
    assert row["trials"] == 0


def test_scan_rmse_is_grid_limited_at_high_power():
    # once the passive gain beats the noise, the scan error is pure beam-grid
    # quantization and more transmit power changes nothing
    scene = SceneGeometry(
        bs=Position3(0.0, 0.0, 5.0), irs=[Position3(-20.0, 0.0, 3.0)],
        targets=[Position3(-20.0, 2.0, 0.0)],
        bs_upa=UpaConfig(20, 20), irs_upa=[UpaConfig(30, 30)],
    )
    cfg = ExperimentConfig(scene=scene, p_bs_dbm_sweep=[20.0, 40.0], t1=24,
                           t2_y=10, t2_z=10, trials=6, base_seed=55,
                           music_grid=0.01, music_refine_levels=1)
    rows = run_experiment(cfg)
    assert rows[0]["rmse_mu_i2t"] == pytest.approx(rows[1]["rmse_mu_i2t"], rel=1e-9)
    assert rows[0]["rmse_nu_i2t"] == pytest.approx(rows[1]["rmse_nu_i2t"], rel=1e-9)
    assert rows[0]["rmse_mu_i2t"] > 0


def test_t2_sweep_has_t2_column():
    cfg = tiny_config(trials=1)
    rows = run_t2_sweep(cfg, [9, 17], p_bs_dbm=30.0)
    assert [r["t2"] for r in rows] == [9, 17]
    assert all("rmse_mu_i2t" in r for r in rows)


def _cells_run_alone(config, x_values, y_values, p_dbm, target_z=0.0):
    """Each area-sweep cell's row from run_trial on that cell's config alone; None if degenerate."""
    rows = []
    for cell, (x, y) in enumerate(itertools.product(x_values, y_values)):
        scene = replace(config.scene, targets=[Position3(x, y, target_z)])
        cfg = replace(config, scene=scene, p_bs_dbm_sweep=[p_dbm])
        try:
            records = [run_trial(cfg, p_dbm, trial_seed(config.base_seed, cell, t), t)
                       for t in range(config.trials)]
        except IrslocError:
            rows.append(None)
            continue
        rows.append({"x": x, "y": y, **aggregate_trials(records)})
    return rows


def test_area_sweep_grid_rows():
    cfg = tiny_config(trials=1)
    rows = run_area_sweep(cfg, x_values=[-15.0, -10.0], y_values=[4.0, 8.0], p_bs_dbm=30.0)
    assert len(rows) == 4
    assert {"x", "y", "rmse_q", "trials_failed"} <= set(rows[0])
    np.testing.assert_equal(rows, _cells_run_alone(cfg, [-15.0, -10.0], [4.0, 8.0], 30.0))
    # a target on the surface itself fails every trial; none may vanish from the count
    on_surface = run_area_sweep(tiny_config(), x_values=[-20.0, -10.0], y_values=[0.0],
                                p_bs_dbm=30.0, target_z=3.0)
    assert (on_surface[0]["trials"], on_surface[0]["trials_failed"]) == (2, 2)
    assert np.isnan(on_surface[0]["rmse_q"])
    assert on_surface[1]["trials"] == 2
    alone = _cells_run_alone(tiny_config(), [-20.0, -10.0], [0.0], 30.0, target_z=3.0)
    assert alone[0] is None
    np.testing.assert_equal(on_surface[1], alone[1])


def test_doa_snapshot_rows():
    cfg = tiny_config(trials=1)
    rows = run_doa_snapshot(cfg, p_bs_dbm=30.0)
    assert len(rows) == 1
    assert abs(rows[0]["mu_b2t_est"] - rows[0]["mu_b2t_true"]) < 0.02


def test_doa_snapshot_rejects_a_surface_index_outside_the_scene():
    cfg = ExperimentConfig.from_yaml(str(CONFIGS / "multi_target.yaml"))
    for bad in (-1, 3, 1.0, True, "0"):
        with pytest.raises(InvalidArgumentError, match="irs_index"):
            run_doa_snapshot(cfg, irs_index=bad)
    rows = run_doa_snapshot(cfg, irs_index=2)
    truth = harness._scene_invariants(cfg.scene)[1]
    assert [[r["mu_i2t_true"], r["nu_i2t_true"]] for r in rows] == truth[2].tolist()


def test_scenes_from_lists_and_tuples_share_one_cache_entry():
    parts = dict(bs=Position3(0.0, 0.0, 5.0), bs_upa=UpaConfig(4, 4),
                 irs=[Position3(-20.0, 0.0, 3.0)], targets=[Position3(-12.0, 6.0, 0.0)],
                 irs_upa=[UpaConfig(6, 6)], rcs_dbsm=[7.0])
    from_lists = SceneGeometry(**parts)
    from_tuples = SceneGeometry(**{k: tuple(v) if isinstance(v, list) else v
                                   for k, v in parts.items()})
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    assert from_lists == replace(from_tuples, rcs_dbsm=[])  # 7 dBsm is the default
    harness._bound_factors.cache_clear()
    bounds = [attach_crb(tiny_config(scene=scene), 30.0) for scene in (from_lists, from_tuples)]
    assert bounds[0] == bounds[1]
    assert harness._bound_factors.cache_info().misses == 1


def test_config_yaml_round_trip(tmp_path):
    text = """
scene:
  bs: [0.0, 0.0, 5.0]
  irs:
    - [-20.0, 0.0, 3.0]
  targets:
    - [-12.0, 6.0, 0.0]
  bs_upa: {n_y: 4, n_z: 4}
  irs_upa:
    - {n_y: 6, n_z: 6}
  rcs_dbsm: [7.0]
noise_dbm: -80.0
p_bs_dbm_sweep: [30.0]
t1: 16
t2_y: 17
t2_z: 17
trials: 1
base_seed: 7
stage2_mode: case1
"""
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    cfg = ExperimentConfig.from_yaml(str(path))
    assert cfg.scene.n_bs == 16
    assert cfg.noise_var == pytest.approx(1e-11)
    rows = run_experiment(cfg)
    assert rows[0]["trials"] == 1


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        tiny_config(trials=0)
    with pytest.raises(InvalidArgumentError):
        tiny_config(p_bs_dbm_sweep=[])
    for counts in ({"t1": 0}, {"t2_y": 0}, {"t2_z": 0}):
        with pytest.raises(InvalidArgumentError):
            tiny_config(**counts)
    no_surface = replace(tiny_config().scene, irs=[], irs_upa=[])
    with pytest.raises(InvalidArgumentError):
        tiny_config(scene=no_surface)
    five, six = ([Position3(-12.0, 6.0 - j, 0.0) for j in range(n)] for n in (5, 6))
    tiny_config(scene=replace(tiny_config().scene, targets=five, rcs_dbsm=[]), joint_scan=True)
    with pytest.raises(InvalidArgumentError, match="matching budget"):
        tiny_config(scene=replace(tiny_config().scene, targets=six, rcs_dbsm=[]))
    for bad in ({"music_grid": 0}, {"music_grid": -1e-3}, {"music_grid": 1.5},
                {"music_grid": float("nan")}, {"music_grid": float("inf")},
                {"music_refine_levels": -1}):
        with pytest.raises(InvalidArgumentError):
            tiny_config(**bad)
    tiny_config(music_grid=1.0, music_refine_levels=0)
    for bad in ({"p_bs_dbm_sweep": [10.0, float("nan")]}, {"p_bs_dbm_sweep": [float("inf")]},
                {"p_bs_dbm_sweep": [float("-inf")]}, {"noise_dbm": float("nan")},
                {"noise_dbm": float("inf")}, {"t1": 2.5}, {"t2_y": 3.0}, {"t2_z": "4"},
                {"trials": 1.5}, {"music_refine_levels": 1.0}, {"trials": True}):
        with pytest.raises(InvalidArgumentError):
            tiny_config(**bad)
    tiny_config(noise_dbm=float("-inf"), t1=np.int64(4))
    no_target = replace(tiny_config().scene, targets=[], rcs_dbsm=[])
    for bad in ({"base_seed": 1.5}, {"base_seed": True}, {"stage2_mode": "bogus"},
                {"joint_scan": "no"}, {"joint_scan": 1}, {"scene": no_target}):
        with pytest.raises(InvalidArgumentError):
            tiny_config(**bad)
    tiny_config(base_seed=np.int64(-3), joint_scan=True, stage2_mode="case2")
    shipped = Path(__file__).resolve().parents[1] / "configs" / "single_target.yaml"
    raw = yaml.safe_load(shipped.read_text())
    with pytest.raises(InvalidArgumentError, match=r"config keys \['trails'\]"):
        ExperimentConfig.from_dict({**raw, "trails": 3})
    with pytest.raises(InvalidArgumentError, match=r"scene keys \['carrier'\]"):
        ExperimentConfig.from_dict({**raw, "scene": {**raw["scene"], "carrier": 1e9}})
    for carrier in (True, False):  # float(True) would be a 1 Hz carrier
        with pytest.raises(InvalidArgumentError, match="scene.carrier_freq_hz"):
            ExperimentConfig.from_dict({**raw, "scene": {**raw["scene"],
                                                         "carrier_freq_hz": carrier}})
    as_text = ExperimentConfig.from_dict({**raw, "scene": {**raw["scene"],
                                                           "carrier_freq_hz": "750e6"}})
    assert as_text.scene.carrier_freq_hz == 750e6
    scene = raw["scene"]
    for field_name, bad in (
            ("scene", {k: v for k, v in raw.items() if k != "scene"}),
            ("config", [raw]),
            ("scene.bs", {**raw, "scene": {**scene, "bs": [0.0, 1.0]}}),
            ("scene.irs", {**raw, "scene": {**scene, "irs": 5}}),
            ("p_bs_dbm_sweep", {**raw, "p_bs_dbm_sweep": "10"}),
            ("music_grid", {**raw, "music_grid": "2e-3"}),
            ("noise_dbm", {**raw, "noise_dbm": "-80"}),
            ("scene.bs_upa", {**raw, "scene": {**scene, "bs_upa": {**scene["bs_upa"], "n_x": 4}}}),
            ("scene.irs_upa", {**raw, "scene": {**scene, "irs_upa": [{"n_y": 4, "n": 4}]}})):
        with pytest.raises(InvalidArgumentError, match=re.escape(field_name)):
            ExperimentConfig.from_dict(bad)
    multi = yaml.safe_load((shipped.parent / "multi_target.yaml").read_text())
    on_bs = {**multi["scene"], "irs": [multi["scene"]["irs"][0], multi["scene"]["bs"],
                                       multi["scene"]["irs"][2]]}
    with pytest.raises(InvalidArgumentError, match=re.escape("irs[1] coincides with the BS")):
        ExperimentConfig.from_dict({**multi, "scene": on_bs})


def test_sequential_scan_config_takes_one_target(tmp_path):
    # random scenes on the multi-target config's arrays and surfaces: several
    # targets need the joint scan, one target may use the sequential scan
    shipped = Path(__file__).resolve().parents[1] / "configs" / "multi_target.yaml"
    raw = yaml.safe_load(shipped.read_text())
    rng = np.random.default_rng(12)
    for n_targets in [2, 3] * 10 + [1] * 10:
        targets = [[float(rng.uniform(-24, 0)), float(rng.uniform(-12, 12)),
                    float(rng.uniform(-2, 1))] for _ in range(n_targets)]
        doc = {**raw, "scene": {**raw["scene"], "targets": targets,
                                "rcs_dbsm": [7.0] * n_targets}}
        joint = ExperimentConfig.from_dict({**doc, "joint_scan": True})
        sequential = {**doc, "joint_scan": False}
        if n_targets == 1:
            ExperimentConfig.from_dict(sequential)
            replace(joint, joint_scan=False)
            continue
        message = f"joint_scan false serves one target, the scene has {n_targets} targets"
        with pytest.raises(InvalidArgumentError, match=message):
            ExperimentConfig.from_dict(sequential)
        with pytest.raises(InvalidArgumentError, match=message):
            ExperimentConfig(scene=joint.scene, joint_scan=False)
    path = tmp_path / "multi_sequential.yaml"
    path.write_text(shipped.read_text().replace("joint_scan: true", "joint_scan: false"))
    with pytest.raises(InvalidArgumentError, match="joint_scan false .* 3 targets"):
        ExperimentConfig.from_yaml(str(path))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_align_matches_hungarian_oracle(k):
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(k)
    for trial in range(40):
        true_rows = rng.uniform(-1.0, 1.0, (k, 2))
        est_rows = rng.uniform(-1.0, 1.0, (k, 2))
        if k > 1 and trial % 2:
            est_rows[rng.integers(1, k)] = est_rows[0]
        cost = np.sum((true_rows[:, None, :] - est_rows[None, :, :]) ** 2, axis=-1)
        expected = est_rows[linear_sum_assignment(cost)[1]]
        assert np.array_equal(_align(true_rows, est_rows), expected)
        if k > 1:
            # coincident truths tie; any order reaching the optimal cost is right
            true_rows[rng.integers(1, k)] = true_rows[0]
            cost = np.sum((true_rows[:, None, :] - est_rows[None, :, :]) ** 2, axis=-1)
            optimum = cost[linear_sum_assignment(cost)].sum()
            got = np.sum((true_rows - _align(true_rows, est_rows)) ** 2)
            assert got == pytest.approx(optimum, rel=1e-12, abs=1e-15)


def test_trial_loads_no_scipy():
    import irsloc

    config = Path(__file__).resolve().parents[1] / "configs" / "single_target.yaml"
    script = (
        "import sys\n"
        "from irsloc import ExperimentConfig, run_trial\n"
        f"assert not run_trial(ExperimentConfig.from_yaml({str(config)!r}), 40.0, 1).failed\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(irsloc.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-W", "ignore", "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
                          check=True)
    assert done.stdout.strip() == "[]"

from dataclasses import replace

import numpy as np
import pytest

from irsloc import (
    ExperimentConfig,
    InvalidArgumentError,
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
from irsloc.harness import aggregate_trials, run_area_sweep, run_doa_snapshot, run_t2_sweep
from irsloc.localization import DoAPairObservation, construct_location
from irsloc.stage2 import build_scan_plan


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


def test_area_sweep_grid_rows():
    cfg = tiny_config(trials=1)
    rows = run_area_sweep(cfg, x_values=[-15.0, -10.0], y_values=[4.0, 8.0], p_bs_dbm=30.0)
    assert len(rows) == 4
    assert {"x", "y", "rmse_q", "trials_failed"} <= set(rows[0])
    # a target on the surface itself fails every trial; none may vanish from the count
    on_surface = run_area_sweep(tiny_config(), x_values=[-20.0, -10.0], y_values=[0.0],
                                p_bs_dbm=30.0, target_z=3.0)
    assert (on_surface[0]["trials"], on_surface[0]["trials_failed"]) == (2, 2)
    assert np.isnan(on_surface[0]["rmse_q"])
    assert on_surface[1]["trials"] == 2


def test_doa_snapshot_rows():
    cfg = tiny_config(trials=1)
    rows = run_doa_snapshot(cfg, p_bs_dbm=30.0)
    assert len(rows) == 1
    assert abs(rows[0]["mu_b2t_est"] - rows[0]["mu_b2t_true"]) < 0.02


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

import concurrent.futures
import itertools
import math
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from irsloc import (
    DegenerateGeometryError,
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
from irsloc import harness, stage1
from irsloc.harness import (
    _align,
    aggregate_trials,
    attach_crb,
    run_area_sweep,
    run_doa_snapshot,
    run_t2_sweep,
)
from irsloc.arrays import _dft_table, dft_codebook
from irsloc.channel import dbm_to_watts
from irsloc.crb import crb_trace_stage1, fim_stage1, fim_stage2
from irsloc.localization import DoAPairObservation, construct_location
from irsloc.stage1 import SEARCH_BATCH, _steering_table, stage1_echo
from irsloc.stage2 import (
    KroneckerCodewords,
    Stage2Mode,
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


def _trial_data(cfg):
    return harness._trial_data(cfg.scene, cfg.t1, cfg.t2_y, cfg.t2_z, cfg.stage2_mode)


def test_a_trial_run_alone_matches_the_same_trial_in_a_sweep():
    shipped = [ExperimentConfig.from_yaml(str(CONFIGS / name))
               for name in ("single_target.yaml", "multi_target.yaml")]
    for base, mode, joint in itertools.product(shipped, ("full", "case1", "case2"), (True, False)):
        if base.n_targets > 1 and not joint:  # a sequential scan serves one target
            with pytest.raises(InvalidArgumentError, match="joint_scan"):
                replace(base, stage2_mode=mode, joint_scan=joint)
            continue
        cfg = replace(base, stage2_mode=mode, joint_scan=joint, trials=2, p_bs_dbm_sweep=[40.0])
        harness._trial_data.cache_clear()  # the trial alone builds its scene's data cold
        alone = run_trial(cfg, 40.0, trial_seed(cfg.base_seed, 0, 1), 1)
        swept: list = []
        run_experiment(cfg, swept)
        _assert_same_record(alone, swept[1])
        if mode == base.stage2_mode.value and joint == base.joint_scan:
            assert not alone.failed
        *truth, regime, plans, echo, models = _trial_data(cfg)
        assert all(plan is plans[0] for plan in plans)  # one shape, one plan
        assert alone.regime == swept[0].regime == regime
        for name, value in zip(("true_bs_doas", "true_irs_doas", "true_positions"), truth):
            assert getattr(alone, name) is getattr(swept[1], name) is value
        cached = [*truth, echo, *models, *(
            a for plan in plans for a in (plan.mu_grid, plan.nu_grid,
                                           plan.codebook_y, plan.codebook_z))]
        cached += [_steering_table(cfg.music_grid, n) for n in (cfg.scene.bs_upa.n_y,
                                                                 cfg.scene.bs_upa.n_z)]
        assert not any(a.flags.writeable for a in cached)


@pytest.mark.parametrize("mode", ["case1", "case2", "full"])
def test_unit_power_trial_data_scales_to_every_power(mode):
    cfg = replace(ExperimentConfig.from_yaml(str(CONFIGS / "multi_target.yaml")), stage2_mode=mode)
    *_, plans, echo, models = _trial_data(cfg)
    for p_dbm in (-10.0, 20.0, 40.0):
        p_watts = dbm_to_watts(p_dbm)
        expected = [stage1_echo(cfg.scene, dft_codebook(cfg.scene.n_bs, cfg.t1, p_watts))]
        expected += [stage2_model(cfg.scene, i, plan, cfg.stage2_mode, p_watts)
                     for i, plan in enumerate(plans)]
        for unit, want in zip((echo, *models), expected, strict=True):
            # relative to the array's largest entry: the sum over targets cancels in places
            gap = np.max(np.abs(np.sqrt(p_watts) * unit - want)) / np.max(np.abs(want))
            assert gap <= 1e-14, (p_dbm, gap)


def test_trial_data_is_built_once_per_sweep(monkeypatch):
    cfg = replace(ExperimentConfig.from_yaml(str(CONFIGS / "single_target.yaml")), trials=1)
    assert len(cfg.p_bs_dbm_sweep) == 11
    calls = {"stage1_echo": 0, "stage2_model": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(harness, name), **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    harness._trial_data.cache_clear()
    with warnings.catch_warnings():  # t1 < N_BS: non-white probing
        warnings.simplefilter("ignore")
        run_experiment(cfg)
    assert calls == {"stage1_echo": 1, "stage2_model": len(cfg.scene.irs)}


def test_standalone_bounds_build_no_trial_invariants(monkeypatch):
    configs = [ExperimentConfig.from_yaml(str(CONFIGS / name))
               for name in ("multi_target.yaml", "single_target.yaml")]  # joint, sequential
    for cfg in configs:
        run_trial(cfg, 40.0, 0)
    expected = [attach_crb(cfg, 40.0) for cfg in configs]

    def trial_only(*args, **kwargs):
        raise AssertionError("the bounds path built a trial invariant")

    # cold caches: the unit-power bounds are rebuilt without any trial invariant
    harness._unit_bounds.cache_clear()
    harness._trial_data.cache_clear()
    for name in ("stage1_echo", "stage2_model", "_scene_truth", "classify_regime"):
        monkeypatch.setattr(harness, name, trial_only)
    assert [attach_crb(cfg, 40.0) for cfg in configs] == expected
    assert harness._unit_bounds.cache_info().misses == len(configs)
    assert harness._trial_data.cache_info().currsize == 0


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
    # the per-scene trial data and unit-power bounds are built once per sweep, too
    caches = (_dft_table, _scan_plan, harness._permutations, harness._trial_data,
              harness._unit_bounds)
    for cache in caches:
        cache.cache_clear()
    with warnings.catch_warnings():  # t1 < N_BS: non-white probing
        warnings.simplefilter("ignore")
        run_experiment(cfg)
    for cache in caches:
        assert cache.cache_info().misses == 1, cache


def test_power_is_checked_outside_the_config_sweep():
    for cfg in (tiny_config(), tiny_config(noise_dbm=float("-inf"))):
        for p_dbm in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InvalidArgumentError, match="transmit power"):
                attach_crb(cfg, p_dbm)
            with pytest.raises(InvalidArgumentError, match="transmit power"):
                run_trial(cfg, p_dbm, 0)
            with pytest.raises(InvalidArgumentError, match="transmit power"):
                harness._sweep_cells(cfg, [(cfg, p_dbm, 0)])


def test_stage_seeds_are_the_spawned_children():
    for seed in (0, 77, trial_seed(20240601, 3, 5), (1 << 64) - 1):
        children = np.random.SeedSequence(seed).spawn(4)
        assert [harness._stage_seed(seed, i) for i in range(4)] == [
            int(c.generate_state(1, np.uint64)[0]) for c in children]


SWEEPS_RUN_ALONE = {
    "single_target": ("single_target.yaml", 3),
    "multi_target": ("multi_target.yaml", 3),
    "more_trials_than_a_batch": ("single_target.yaml", SEARCH_BATCH + 1),
}


@pytest.mark.parametrize("name", sorted(SWEEPS_RUN_ALONE))
def test_every_sweep_record_equals_its_trial_run_alone(name):
    # the sweep searches stage 1 in stacked batches; each trial run alone is a batch of one
    path, trials = SWEEPS_RUN_ALONE[name]
    cfg = replace(ExperimentConfig.from_yaml(str(CONFIGS / path)), trials=trials,
                  p_bs_dbm_sweep=[0.0, 40.0])
    with warnings.catch_warnings():  # t1 < N_BS: non-white probing
        warnings.simplefilter("ignore")
        swept: list = []
        run_experiment(cfg, swept)
        assert len(swept) == 2 * trials
        for record in swept:
            s_idx = cfg.p_bs_dbm_sweep.index(record.p_bs_dbm)
            alone = run_trial(cfg, record.p_bs_dbm,
                              trial_seed(cfg.base_seed, s_idx, record.trial_index),
                              record.trial_index)
            _assert_same_record(alone, record)
    assert not any(r.failed for r in swept if r.p_bs_dbm == 40.0)


def under_resolving_config(trials, p_bs_dbm_sweep):
    """Two targets before a 4x4 BS searched on a 0.4 grid: at -10 dBm some seeds'
    stage-1 spectra hold one separated peak for the two targets."""
    scene = replace(tiny_config().scene,
                    irs=[Position3(-20.0, 0.0, 3.0), Position3(-5.0, -8.0, 4.0)],
                    irs_upa=[UpaConfig(6, 6)] * 2,
                    targets=[Position3(-12.0, 6.0, 0.0), Position3(-6.0, -2.0, 1.0)],
                    rcs_dbsm=[7.0, 7.0])
    return tiny_config(scene=scene, music_grid=0.4, trials=trials,
                       p_bs_dbm_sweep=p_bs_dbm_sweep, joint_scan=True)


def test_an_under_resolved_trial_fails_alone_in_its_batch():
    # an under-resolved trial fails with the search's error and no BS estimate,
    # and its batch-mates keep their stage-1 estimates (12 trials: two batches)
    cfg = under_resolving_config(12, [-10.0])
    assert cfg.trials > SEARCH_BATCH
    swept: list = []
    run_experiment(cfg, swept)
    under = [r.trial_index for r in swept
             if r.failure == "UnderResolvedError: found 1 spectrum peaks, need 2"]
    assert under == [4, 7]
    assert all((r.est_bs_doas is None) == (r.trial_index in under) for r in swept)
    for record in swept:
        _assert_same_record(run_trial(cfg, -10.0, record.seed, record.trial_index), record)


class SweepSpy:
    """Watches a sweep's stage-1 blocks, stacked searches, stage-1 results and trials.

    Blocks, searches and results are made on the sweep's worker threads and
    trials run on the calling thread, so every count is taken under one lock.
    blocks_ahead and results_ahead are the largest numbers of blocks made,
    and of stage-1 results returned, for trials that had not yet run;
    batches holds the block count of every stacked search, workers is the
    worker count the sweep asked for, and threads the names of the threads
    that made blocks.
    """

    def __init__(self, monkeypatch):
        self.lock = threading.Lock()
        self.blocks = self.results = self.searches = self.blocks_ahead = self.results_ahead = 0
        self.batches: list = []
        self.workers = None
        self.threads: set = set()
        self.trials: list = []  # (config, power, record) of every trial the sweep ran
        synth, estimates, search, trial, workers = (
            stage1.synthesize_stage1, harness.music_estimates, stage1._search, harness.run_trial,
            harness._stage1_workers)

        def samples(*args):
            with self.lock:
                self.blocks += 1
                self.blocks_ahead = max(self.blocks_ahead, self.blocks - len(self.trials))
                self.threads.add(threading.current_thread().name)
            return synth(*args)

        def music_estimates(*args):
            out = estimates(*args)
            with self.lock:
                self.results += len(out)
                self.results_ahead = max(self.results_ahead, self.results - len(self.trials))
            return out

        def stacked(*args):
            with self.lock:
                self.searches += 1
                self.batches.append(len(args[0]))
            return search(*args)

        def run(cfg, p_dbm, seed, trial_index, *, music):
            record = trial(cfg, p_dbm, seed, trial_index, music=music)
            with self.lock:
                self.trials.append((cfg, p_dbm, record))
            return record

        def stage1_workers():
            self.workers = workers()
            return self.workers

        monkeypatch.setattr(stage1, "synthesize_stage1", samples)
        monkeypatch.setattr(harness, "music_estimates", music_estimates)
        monkeypatch.setattr(stage1, "_search", stacked)
        monkeypatch.setattr(harness, "run_trial", run)
        monkeypatch.setattr(harness, "_stage1_workers", stage1_workers)

    def check(self, blocks: int, trials: int | None = None) -> None:
        """The blocks cut as _batch_sizes cuts the sweep's trials (blocks, unless degenerate
        cells added none), one stacked search a batch, at most one batch more than there are
        workers ahead of the trials, and every record equal to its trial run alone (a batch
        of one)."""
        assert self.blocks == self.results == len(self.trials) == blocks
        batches, left = [], blocks
        for size in harness._batch_sizes(blocks if trials is None else trials):
            if left:
                batches.append(min(size, left))
                left -= batches[-1]
        assert self.searches == len(batches)
        assert sorted(self.batches) == sorted(batches)  # workers may finish out of order
        ahead = (self.workers + 1) * SEARCH_BATCH
        assert self.blocks_ahead <= ahead and self.results_ahead <= ahead
        for cfg, p_dbm, record in self.trials:
            _assert_same_record(run_trial(cfg, p_dbm, record.seed, record.trial_index), record)


@pytest.mark.parametrize("trials", [1, 3])
def test_a_power_sweep_searches_its_blocks_in_batches_across_points(monkeypatch, trials):
    cfg = tiny_config(trials=trials, p_bs_dbm_sweep=[0.0, 10.0, 20.0, 30.0, 40.0])
    spy = SweepSpy(monkeypatch)
    swept: list = []
    rows = run_experiment(cfg, swept)
    assert [r for *_, r in spy.trials] == swept
    assert [(r.p_bs_dbm, r.trial_index) for r in swept] == list(
        itertools.product(cfg.p_bs_dbm_sweep, range(trials)))
    assert [r["trials"] for r in rows] == [trials] * 5
    spy.check(5 * trials)


def test_a_t2_sweep_searches_its_blocks_in_batches_across_t2_values(monkeypatch):
    cfg = tiny_config(trials=3)
    spy = SweepSpy(monkeypatch)
    rows = run_t2_sweep(cfg, [9, 13, 17], p_bs_dbm=30.0)
    assert [r["t2"] for r in rows] == [9, 13, 17]
    assert [cfg.t2_y for cfg, *_ in spy.trials] == [9] * 3 + [13] * 3 + [17] * 3
    for row, t2 in zip(rows, (9, 13, 17)):
        records = [r for cfg, _, r in spy.trials if cfg.t2_y == t2]
        np.testing.assert_equal(row, {"t2": t2, "p_bs_dbm": 30.0, **aggregate_trials(records)})
    spy.check(9)


def test_a_degenerate_area_cell_inside_a_batch_adds_no_blocks(monkeypatch):
    # the middle cell puts the target on the surface; its neighbours share one batch
    cfg = tiny_config(trials=3)
    spy = SweepSpy(monkeypatch)
    rows = run_area_sweep(cfg, x_values=[-15.0, -20.0, -10.0], y_values=[0.0], p_bs_dbm=30.0,
                          target_z=3.0)
    assert [(r["trials"], r["trials_failed"]) for r in rows][1] == (3, 3)
    assert [cfg.scene.targets[0].x for cfg, *_ in spy.trials] == [-15.0] * 3 + [-10.0] * 3
    spy.check(6, trials=9)
    alone = _cells_run_alone(cfg, [-15.0, -20.0, -10.0], [0.0], 30.0, target_z=3.0)
    np.testing.assert_equal([rows[0], rows[2]], [alone[0], alone[2]])


def test_an_under_resolved_trial_inside_a_batch_fails_alone(monkeypatch):
    # three trials at each of four points: twelve blocks, two batches that straddle points
    cfg = under_resolving_config(3, [-10.0] * 4)
    spy = SweepSpy(monkeypatch)
    swept: list = []
    run_experiment(cfg, swept)
    under = [b for b, r in enumerate(swept)
             if r.failure == "UnderResolvedError: found 1 spectrum peaks, need 2"]
    assert under == [3, 6, 9, 11]
    assert all((r.est_bs_doas is None) == (b in under) for b, r in enumerate(swept))
    spy.check(12)


def test_sweeps_raise_on_a_bad_transmit_power_even_in_degenerate_cells():
    # -4000 dBm is 0 W; the area sweep must not count it as degenerate cells
    cfg = tiny_config()
    message = "transmit power 0.0 must be finite and positive"
    with pytest.raises(InvalidArgumentError, match=message):
        run_area_sweep(cfg, [-20.0, -10.0], [2.0], p_bs_dbm=-4000.0)
    with pytest.raises(InvalidArgumentError, match=message):
        run_area_sweep(cfg, [-20.0], [0.0], p_bs_dbm=-4000.0, target_z=3.0)  # on the surface
    with pytest.raises(InvalidArgumentError, match=message):
        run_t2_sweep(cfg, [9], p_bs_dbm=-4000.0)
    with pytest.raises(InvalidArgumentError, match=message):
        run_experiment(replace(cfg, p_bs_dbm_sweep=[-4000.0]))


def _sweeps_with_workers(monkeypatch, workers):
    """Rows and records of three sweeps, with the stage-1 worker count forced to workers.

    The power sweep holds under-resolved trials in batches that straddle its
    points, the t2 sweep's four batches straddle its cells, and the area
    sweep has a degenerate cell (the target on the surface) among its batches.
    The workers start on cold steering tables, which they fill as they search.
    """
    monkeypatch.setattr(harness, "_stage1_workers", lambda: workers)
    stage1._steering_table.cache_clear()
    stage1._coarse_grid.cache_clear()
    spy = SweepSpy(monkeypatch)
    rows = [run_experiment(under_resolving_config(3, [-10.0] * 4)),
            run_t2_sweep(tiny_config(trials=9), [9, 13, 17], p_bs_dbm=30.0),
            run_area_sweep(tiny_config(trials=3), [-15.0, -20.0, -10.0], [0.0, 2.0],
                           p_bs_dbm=30.0, target_z=3.0)]
    monkeypatch.undo()
    assert spy.workers == workers
    assert spy.blocks_ahead <= (workers + 1) * SEARCH_BATCH
    return rows, [record for *_, record in spy.trials], spy.threads


def test_sweeps_give_the_same_rows_and_records_on_any_worker_count(monkeypatch):
    inline_rows, inline_records, threads = _sweeps_with_workers(monkeypatch, 0)
    assert threads == {threading.current_thread().name}
    assert len(inline_records) == 12 + 27 + 15
    assert [r.failure for r in inline_records[:12]].count(
        "UnderResolvedError: found 1 spectrum peaks, need 2") == 4
    assert inline_rows[2][2]["trials_failed"] == 3  # the degenerate cell
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)  # more workers than CPUs, switching often
        threaded = {workers: _sweeps_with_workers(monkeypatch, workers) for workers in (1, 3)}
    finally:
        sys.setswitchinterval(interval)
    for workers, (rows, records, threads) in threaded.items():
        assert threading.current_thread().name not in threads
        assert 1 <= len(threads) <= workers
        np.testing.assert_equal(rows, inline_rows)
        assert len(records) == len(inline_records)
        for a, b in zip(records, inline_records):
            _assert_same_record(a, b)


def _blas_threads():
    blas = harness._blas_threads()
    return blas[0]() if blas else None


@pytest.fixture
def three_blas_threads():
    """The BLAS at three threads, a count no sweep sets, for the test's duration."""
    blas = harness._blas_threads()
    if blas:
        before = blas[0]()
        blas[1](3)
    yield
    if blas:
        blas[1](before)


def test_a_sweep_restores_the_blas_threads_and_ends_its_workers(monkeypatch, three_blas_threads):
    # two workers even on one CPU; stage 1 reads the BLAS thread count it runs under
    monkeypatch.setattr(harness, "_stage1_workers", lambda: 2)
    seen, synth = set(), stage1.synthesize_stage1

    def samples(*args):
        seen.add(_blas_threads())
        return synth(*args)

    monkeypatch.setattr(stage1, "synthesize_stage1", samples)
    threads, blas = threading.active_count(), _blas_threads()
    assert blas in (3, None)
    cfg = tiny_config(trials=5, p_bs_dbm_sweep=[10.0, 20.0, 30.0, 40.0])
    run_experiment(cfg)
    assert seen == ({1} if blas is not None else {None})
    assert (threading.active_count(), _blas_threads()) == (threads, blas)

    # a degenerate scene, from the start of the sweep or in a later cell with batches in flight
    degenerate = replace(cfg, scene=replace(cfg.scene, targets=[Position3(-20.0, 0.0, 3.0)]))
    with pytest.raises(DegenerateGeometryError):
        run_experiment(degenerate)
    assert (threading.active_count(), _blas_threads()) == (threads, blas)
    cells = [(cfg, 30.0, s_idx) for s_idx in range(4)] + [(degenerate, 30.0, 4)]
    with pytest.raises(DegenerateGeometryError):
        harness._sweep_cells(cfg, cells)
    assert (threading.active_count(), _blas_threads()) == (threads, blas)

    # a bad power in a later cell, with the first cell's batch in flight, raises the power error
    with pytest.raises(InvalidArgumentError, match="transmit power 0.0 must be finite and positive"):
        run_experiment(replace(cfg, trials=8, p_bs_dbm_sweep=[30.0, -4000.0, 30.0, 30.0]))
    assert (threading.active_count(), _blas_threads()) == (threads, blas)


def test_leaving_the_stage1_pool_cancels_its_queued_batches(monkeypatch, three_blas_threads):
    # one worker busy with the first batch: the second waits in the queue when the sweep raises
    monkeypatch.setattr(harness, "_stage1_workers", lambda: 1)
    threads, blas = threading.active_count(), _blas_threads()
    started, ran = threading.Event(), []

    def batch(name):
        ran.append(name)
        started.set()
        time.sleep(0.3)
        return name

    with pytest.raises(RuntimeError, match="a trial failed"):
        with harness._stage1_pool() as (submit, workers):
            assert workers == 1
            first = submit(batch, "first")
            assert started.wait(10)
            second = submit(batch, "second")
            raise RuntimeError("a trial failed")
    assert ran == ["first"] and first() == "first"
    with pytest.raises(concurrent.futures.CancelledError):
        second()
    assert (threading.active_count(), _blas_threads()) == (threads, blas)


BATCH_SIZES = {  # trials -> stage-1 batch sizes
    1: [1], 11: [6, 5], 40: [8] * 5, 44: [8] * 2 + [7] * 4, 45: [8] * 3 + [7] * 3,
}


@pytest.mark.parametrize("trials", sorted(BATCH_SIZES))
def test_a_sweep_cuts_its_trials_into_the_fewest_even_batches(trials):
    sizes = harness._batch_sizes(trials)
    assert sizes == BATCH_SIZES[trials]
    assert sum(sizes) == trials and max(sizes) <= SEARCH_BATCH
    assert max(sizes) - min(sizes) <= 1 and len(sizes) == math.ceil(trials / SEARCH_BATCH)


@pytest.mark.parametrize("workers", [0, 2])
def test_a_sweep_without_trials_searches_nothing_and_emits_nothing(monkeypatch, tmp_path, workers):
    monkeypatch.setattr(harness, "_stage1_workers", lambda: workers)
    spy = SweepSpy(monkeypatch)
    assert harness._batch_sizes(0) == []
    assert harness._sweep_cells(tiny_config(), []) == []
    rows = run_area_sweep(tiny_config(), [], [0.0], p_bs_dbm=30.0)
    assert rows == [] and spy.searches == spy.blocks == 0
    with pytest.raises(InvalidArgumentError, match="nothing to emit"):
        emit_figure_data(rows, "fig10", str(tmp_path / "fig10.csv"))


def test_overlapping_sweeps_restore_the_blas_threads(monkeypatch, three_blas_threads):
    # two sweeps in two threads, both inside their pools at once; the first to start ends
    # first, while the second still runs on one BLAS thread, then the second ends
    monkeypatch.setattr(harness, "_stage1_workers", lambda: 2)
    blas = _blas_threads()
    assert blas in (3, None)
    both_in, first_done, seen, trial = threading.Barrier(2, timeout=30), threading.Event(), [], \
        harness.run_trial
    short, long = tiny_config(trials=1), tiny_config(trials=4, base_seed=78)

    def run(cfg, p_dbm, seed, trial_index, *, music):
        if trial_index == 0:
            both_in.wait()
        if cfg.base_seed == long.base_seed:
            assert first_done.wait(30)
            seen.append(_blas_threads())
        return trial(cfg, p_dbm, seed, trial_index, music=music)

    monkeypatch.setattr(harness, "run_trial", run)
    errors: list = []

    def sweep(cfg):
        try:
            run_experiment(cfg)
        except BaseException as exc:  # noqa: BLE001 -- re-raised on the test thread
            errors.append(exc)

    threads = [threading.Thread(target=sweep, args=(cfg,)) for cfg in (short, long)]
    for thread in threads:
        thread.start()
    threads[0].join(30)
    first_done.set()
    threads[1].join(30)
    assert not errors and not any(thread.is_alive() for thread in threads)
    assert seen == [1 if blas is not None else None] * 4
    assert _blas_threads() == blas


def test_an_area_cell_counts_only_a_degenerate_scene_as_failed(monkeypatch):
    def broken(*args, **kwargs):
        raise InvalidArgumentError("not a degenerate scene")

    harness._trial_data.cache_clear()
    monkeypatch.setattr(harness, "stage2_model", broken)
    with pytest.raises(InvalidArgumentError, match="not a degenerate scene"):
        run_area_sweep(tiny_config(), [-15.0], [2.0], p_bs_dbm=30.0)
    monkeypatch.undo()
    harness._trial_data.cache_clear()
    with pytest.raises(IrslocError):  # a degenerate scene outside the area sweep still raises
        run_experiment(replace(tiny_config(), scene=replace(
            tiny_config().scene, targets=[Position3(-20.0, 0.0, 3.0)])))


def test_undersampled_codebook_warns_at_most_once_per_power_point():
    # t1 = 60 < N_BS = 400: the codebook warning comes from the bounds' one unit-power
    # codebook per scene; a trial checks its power without building a codebook
    cfg = replace(ExperimentConfig.from_yaml(str(CONFIGS / "single_target.yaml")), trials=4)
    run_trial(cfg, 40.0, 0)  # the scene's unit-power data, built once for the process
    harness._unit_bounds.cache_clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_experiment(cfg)
    undersampled = [w for w in caught if "cannot be spatially white" in str(w.message)]
    assert len(undersampled) == 1


def test_sweep_leaves_the_cached_echo_unwritten():
    cfg = tiny_config(trials=3)
    run_experiment(cfg)
    *_, echo, _ = _trial_data(cfg)
    assert not echo.flags.writeable
    expected = stage1_echo(cfg.scene, dft_codebook(cfg.scene.n_bs, cfg.t1, 1.0))
    assert np.array_equal(echo, expected)


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


def fim_bounds(cfg, p_watts, noise_var, scale=1.0):
    """attach_crb's columns from the public FIMs at p_watts and noise_var, for the codebooks
    a run sends, each variance times scale."""
    s1 = fim_stage1(cfg.scene, dft_codebook(cfg.scene.n_bs, cfg.t1, p_watts), noise_var)
    s2 = fim_stage2(cfg.scene, 0, 0, sent_codewords(cfg, p_watts), noise_var, cfg.stage2_mode,
                    p_watts)
    return {"sqrt_crb_mu_b2t": float(np.sqrt(scale * s1.crb("mu_b2t"))),
            "sqrt_crb_nu_b2t": float(np.sqrt(scale * s1.crb("nu_b2t"))),
            "sqrt_crb_mu_irs": float(np.sqrt(scale * s2.crb("mu"))),
            "sqrt_crb_nu_irs": float(np.sqrt(scale * s2.crb("nu")))}


def public_bounds(cfg, p_dbm):
    """attach_crb's columns: the public FIMs at unit power and unit noise, scaled by sigma^2/P."""
    return fim_bounds(cfg, 1.0, 1.0, cfg.noise_var / dbm_to_watts(p_dbm))


def per_power_bounds(cfg, p_dbm):
    """The same columns from the public FIMs solved at the power and noise themselves."""
    return fim_bounds(cfg, dbm_to_watts(p_dbm), cfg.noise_var)


# sequential scans keep their plain ids; joint scans add the factored bound of a full grid
SENT_SCANS = [pytest.param(mode, t2, joint, id=f"{mode}-{t2}" + ("-joint" if joint else ""))
              for joint, beams in ((False, (7, 10, 30, 60)), (True, (10, 30)))
              for mode in ("case1", "case2", "full") for t2 in beams]


@pytest.mark.parametrize("mode, t2, joint", SENT_SCANS)
def test_sequential_bound_holds_the_sent_y_beam(mode, t2, joint):
    # bounds scaled from the cached unit-power solve equal the public FIMs at unit power
    # bit for bit, and the public FIMs solved at each power up to the rounding of
    # re-inverting an ill-conditioned FIM
    cfg = replace(ExperimentConfig.from_yaml(str(CONFIGS / "single_target.yaml")),
                  stage2_mode=mode, t2_y=t2, t2_z=t2, joint_scan=joint)
    with warnings.catch_warnings():  # t1 < N_BS: non-white probing
        warnings.simplefilter("ignore")
        for p_dbm in (-10.0, 0.0, 25.0, 40.0):
            bounds = attach_crb(cfg, p_dbm)
            assert bounds == public_bounds(cfg, p_dbm), p_dbm
            assert bounds == pytest.approx(per_power_bounds(cfg, p_dbm), rel=1e-8), p_dbm


def test_bounds_scale_exactly_with_power():
    # each sqrt(CRB) is sqrt(sigma^2/P) times one unit-power value, so no power point
    # re-inverts an ill-conditioned FIM with its own rounding; a singular FIM would
    # read +inf at every power
    shipped = [ExperimentConfig.from_yaml(str(CONFIGS / name))
               for name in ("single_target.yaml", "multi_target.yaml")]
    with warnings.catch_warnings():  # t1 < N_BS: non-white probing
        warnings.simplefilter("ignore")
        for base, mode, joint in itertools.product(shipped, ("full", "case1", "case2"),
                                                   (True, False)):
            if base.n_targets > 1 and not joint:  # a sequential scan serves one target
                continue
            cfg = replace(base, stage2_mode=mode, joint_scan=joint)
            rows = [attach_crb(cfg, p) for p in cfg.p_bs_dbm_sweep]
            for key in harness.CRB_COLUMNS:
                unit = np.array([row[key] * np.sqrt(dbm_to_watts(p) / cfg.noise_var)
                                 for row, p in zip(rows, cfg.p_bs_dbm_sweep)])
                if np.all(np.isinf(unit)):
                    continue
                assert np.all(np.isfinite(unit)) and np.all(unit > 0), (mode, joint, key)
                spread = (unit.max() - unit.min()) / unit.max()
                assert spread <= 1e-14, (mode, joint, key, spread)


def test_sequential_bound_holds_the_y_beam_a_full_echo_scan_sends():
    # here the y sweep's full echo (double plus single bounce) peaks at y beam 9, where
    # the double-bounce gain |g_y| alone peaks at beam 2; the scan holds beam 9, and
    # so must the bound, which is the full echo's own FIM
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
    want = fim_stage2(scene, 0, 0, sent, cfg.noise_var, Stage2Mode.FULL_ECHO, p_watts)
    assert want.parameter_labels == ["mu", "nu", "re_alpha", "im_alpha", "re_gamma", "im_gamma"]
    with warnings.catch_warnings():  # t1 < N_BS: non-white probing
        warnings.simplefilter("ignore")
        bounds = attach_crb(cfg, 40.0)
    assert bounds["sqrt_crb_mu_irs"] == pytest.approx(np.sqrt(want.crb("mu")), rel=1e-12)
    assert bounds["sqrt_crb_nu_irs"] == pytest.approx(np.sqrt(want.crb("nu")), rel=1e-12)


def test_bounds_follow_rebuilt_scenes():
    cfg = ExperimentConfig.from_yaml(str(CONFIGS / "single_target.yaml"))
    harness._unit_bounds.cache_clear()
    with warnings.catch_warnings():  # t1 < N_BS: non-white probing
        warnings.simplefilter("ignore")
        cold = attach_crb(cfg, 10.0)
        assert attach_crb(cfg, 10.0) == cold == public_bounds(cfg, 10.0)
        assert harness._unit_bounds.cache_info().misses == 1
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


def test_t2_sweep_rejects_a_non_integer_t2():
    cfg = tiny_config(trials=1)
    for bad in (10.7, True, "9"):
        with pytest.raises(InvalidArgumentError, match=f"t2_y {bad!r} must be an integer"):
            run_t2_sweep(cfg, [bad], p_bs_dbm=30.0)
    assert [r["t2"] for r in run_t2_sweep(cfg, [np.int64(9)], p_bs_dbm=30.0)] == [9]


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
    truth = harness._scene_truth(cfg.scene)[1]
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
    harness._unit_bounds.cache_clear()
    bounds = [attach_crb(tiny_config(scene=scene), 30.0) for scene in (from_lists, from_tuples)]
    assert bounds[0] == bounds[1]
    assert harness._unit_bounds.cache_info().misses == 1


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
            ("output_path", {**raw, "output_path": 7}),  # would write into descriptor 7
            ("output_path", {**raw, "output_path": ["a"]}),
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

"""The benchmark's traced run patches library names by string; a rename must fail here."""

from dataclasses import replace
from pathlib import Path

import pytest

from irsloc import harness
from irsloc.harness import ExperimentConfig
from irsloc.stage1 import SEARCH_BATCH

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def sweeps(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import sweeps

    return sweeps


def test_every_trace_site_resolves(sweeps):
    for module, attribute, span, _ in sweeps.trace_sites():
        assert callable(getattr(module, attribute, None)), (module.__name__, attribute, span)


def test_traced_bounds_call_builds_the_codewords_once_per_scene(sweeps):
    # the first call of a scene builds the plan, runs the scan noiselessly through the
    # stage-2 module, and solves both FIMs at unit power over its 3600 Kronecker
    # codewords; later calls only scale, so no FIM, scan or codeword span fires
    from spans import Patches, Tracer

    cfg = ExperimentConfig.from_yaml(str(ROOT / "configs" / "multi_target.yaml"))
    top = max(cfg.p_bs_dbm_sweep)
    harness._unit_bounds.cache_clear()
    tracer = Tracer("harness.trial")
    with Patches(tracer, sweeps.trace_sites()):
        cold = harness.attach_crb(cfg, top)
        cold_spans = len(tracer.spans)
        warm = [harness.attach_crb(cfg, p) for p in cfg.p_bs_dbm_sweep]
    assert cold == warm[-1] == harness.attach_crb(cfg, top)
    assert warm == [harness.attach_crb(cfg, p) for p in cfg.p_bs_dbm_sweep]
    names = [s.name for s in tracer.spans]
    assert names[:cold_spans] == ["harness.bounds", "stage2.plan", "crb.stage1", "crb.stage2"]
    assert names[cold_spans:] == ["harness.bounds"] * len(warm)
    assert tracer.counts["crb.codewords"] == cfg.t2_y * cfg.t2_z == 3600
    assert tracer.counts["stage2.samples"] == 0


def test_traced_trial_records_the_stage_spans(sweeps):
    from spans import Patches, Tracer

    cfg = ExperimentConfig.from_yaml(str(ROOT / "configs" / "single_target.yaml"))
    tracer = Tracer("harness.trial")
    with Patches(tracer, sweeps.trace_sites()):
        record = harness.run_trial(cfg, max(cfg.p_bs_dbm_sweep), harness.trial_seed(1, 0, 0))
    assert not record.failed
    names = [s.name for s in tracer.spans]
    assert names[0] == "harness.trial"
    assert {"stage1.synth", "stage1.search", "stage2.synth"} <= set(names)


@pytest.mark.parametrize("joint", [True, False], ids=["joint", "sequential"])
def test_traced_trial_counts_the_scan_samples(sweeps, joint):
    # the hook reads the observation's grid_values, y_values and z_values
    from spans import Patches, Tracer

    cfg = ExperimentConfig.from_yaml(str(ROOT / "configs" / "single_target.yaml"))
    cfg = replace(cfg, joint_scan=joint, t2_y=7, t2_z=5)
    tracer = Tracer("harness.trial")
    with Patches(tracer, sweeps.trace_sites()):
        harness.run_trial(cfg, max(cfg.p_bs_dbm_sweep), harness.trial_seed(1, 0, 0))
    expected = cfg.t2_y * cfg.t2_z if joint else cfg.t2_y + cfg.t2_z
    assert tracer.counts["stage2.samples"] == expected


def test_a_traced_sweep_opens_every_trial_span_on_the_calling_thread(sweeps, monkeypatch):
    # the tracer keeps one span stack: stage-1 workers must reach no traced name, so every
    # trial span is a root and the per-layer numbers can be read from the spans
    from spans import Patches, Tracer

    monkeypatch.setattr(harness, "_stage1_workers", lambda: 2)  # workers even on one CPU
    cfg = ExperimentConfig.from_yaml(str(ROOT / "configs" / "multi_target.yaml"))
    cfg = replace(cfg, trials=3, p_bs_dbm_sweep=[20.0, 30.0, 40.0, 30.0, 40.0, 35.0])
    assert cfg.trials * len(cfg.p_bs_dbm_sweep) > 2 * SEARCH_BATCH
    untraced = harness.run_experiment(cfg)
    tracer = Tracer("harness.trial")
    with Patches(tracer, sweeps.trace_sites()):
        traced = harness.run_experiment(cfg)
    assert sweeps.same_rows(traced, untraced)
    trials = [s for s in tracer.spans if s.name == "harness.trial"]
    assert len(trials) == 18
    assert all(s.parent is None and s.root == s.id for s in trials)
    assert sweeps.layer_metrics(tracer, 1)["harness.trial_ms_p50"] > 0

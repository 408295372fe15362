"""The benchmark's traced run patches library names by string; a rename must fail here."""

from dataclasses import replace
from pathlib import Path

import pytest

from irsloc import harness
from irsloc.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def sweeps(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import sweeps

    return sweeps


def test_every_trace_site_resolves(sweeps):
    for module, attribute, span, _ in sweeps.trace_sites():
        assert callable(getattr(module, attribute, None)), (module.__name__, attribute, span)


def test_traced_bounds_call_counts_the_factored_codewords(sweeps):
    from spans import Patches, Tracer

    cfg = ExperimentConfig.from_yaml(str(ROOT / "configs" / "multi_target.yaml"))
    tracer = Tracer("harness.trial")
    with Patches(tracer, sweeps.trace_sites()):
        bounds = harness.attach_crb(cfg, max(cfg.p_bs_dbm_sweep))
    assert bounds == harness.attach_crb(cfg, max(cfg.p_bs_dbm_sweep))
    assert tracer.counts["crb.codewords"] == cfg.t2_y * cfg.t2_z == 3600
    assert {s.name for s in tracer.spans} >= {"harness.bounds", "stage2.codewords",
                                              "crb.stage1", "crb.stage2"}


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

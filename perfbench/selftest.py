"""Tests of the benchmark's own helpers.

    python3 -m pytest -q perfbench/selftest.py

The last two tests run the benchmark command itself and take about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import sweeps  # noqa: E402
from irsloc.harness import TrialRecord  # noqa: E402
from spans import Patches, Span, Tracer, self_time  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(start, end, id=0, parent=None):
    return Span(id=id, name="x", start=start, end=end, parent=parent, root=0, trial=None)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    parent = _span(0.0, 10.0)
    children = [_span(1.0, 3.0), _span(2.0, 4.0), _span(6.0, 7.0), _span(9.0, 12.0)]
    assert self_time(parent, children) == pytest.approx(10.0 - 3.0 - 1.0 - 1.0)
    assert self_time(parent, []) == 10.0


def test_wrapper_returns_the_result_unchanged_and_nests_spans():
    tracer = Tracer("trial")
    result = object()
    inner = tracer.wrap("inner", lambda: result)
    outer = tracer.wrap("trial", lambda: inner())
    assert outer() is result
    assert outer() is result
    first_trial, first_inner = tracer.spans[0], tracer.spans[1]
    assert [s.name for s in tracer.spans] == ["trial", "inner", "trial", "inner"]
    assert first_inner.parent == first_trial.id and first_inner.root == first_trial.id
    assert [s.trial for s in tracer.spans] == [0, 0, 1, 1]
    assert all(s.end >= s.start for s in tracer.spans)


def test_wrapper_counts_the_exception_and_reraises_the_same_object():
    tracer = Tracer("trial")
    error = KeyError("boom")

    def fails():
        raise error

    with pytest.raises(KeyError) as caught:
        tracer.wrap("trial", lambda: tracer.wrap("inner", fails)())()
    assert caught.value is error
    assert tracer.exceptions[("inner", "trial", "KeyError")] == 1
    assert tracer.exceptions[("trial", None, "KeyError")] == 1
    assert not tracer._stack


def test_patches_are_restored_after_a_traced_sweep():
    sites = sweeps.trace_sites()
    originals = [getattr(module, attr) for module, attr, _, _ in sites]
    with Patches(Tracer("harness.trial"), sites):
        assert all(getattr(m, a) is not o for (m, a, _, _), o in zip(sites, originals))
    assert all(getattr(m, a) is o for (m, a, _, _), o in zip(sites, originals))


def test_gate_flags_changed_rows_top_power_failures_and_bad_bounds():
    row = {"p_bs_dbm": 40.0, "trials": 2, "trials_failed": 0, "rmse_q": 0.2,
           "sqrt_crb_mu_b2t": 1e-6, "sqrt_crb_nu_b2t": 1e-6,
           "sqrt_crb_mu_irs": 1e-4, "sqrt_crb_nu_irs": 1e-4}
    low = {**row, "p_bs_dbm": -10.0, "rmse_q": float("nan"), "trials_failed": 2}
    assert sweeps.gate([low, row], [dict(low), dict(row)]) == []
    bad = {**row, "trials_failed": 1, "sqrt_crb_nu_irs": float("inf")}
    assert len(sweeps.gate([low, bad], [low, row])) == 3


def test_pooled_accuracy_fails_the_run_above_the_workload_ceiling():
    workload = sweeps.load_workload("single_seq")
    truth = np.zeros((1, 3))

    def record(error_m):
        return TrialRecord(trial_index=0, seed=0, p_bs_dbm=40.0,
                           true_bs_doas=np.zeros((1, 2)), est_bs_doas=np.zeros((1, 2)),
                           true_irs_doas=np.zeros((1, 1, 2)), est_irs_doas=np.zeros((1, 1, 2)),
                           true_positions=truth, est_positions=truth + [[error_m, 0, 0]],
                           regime="case1", wall_time_s=0.0)

    row = {"p_bs_dbm": 40.0, "trials": 1, "trials_failed": 0}
    for error_m, ok in ((0.5 * workload.rmse_q_max_m, True), (2 * workload.rmse_q_max_m, False)):
        loop = sweeps.Loop(sweep_trials=1, attempted=1, first={0: ([row], [record(error_m)])})
        assert loop.accuracy(workload)["rmse_q_m"] == pytest.approx(error_m)
        assert (not loop.problems) is ok and loop.failed == (0 if ok else 1)


def test_every_workload_and_per_layer_metric_is_described_in_the_spec():
    assert set(sweeps.SPEC["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
    layers = sweeps.SPEC["layers"]
    assert set(layers) == {m["name"] for m in BENCHMARK["per_layer"]}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]} | {"typed_fail_share"}
    for entry in layers.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= set(sweeps.SPEC["workloads"])


def _bench(*args):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(trace, group):
    result = _bench("--workload", "single_seq", "--seed", "5", "--seconds", "1",
                    "--trace", str(trace))
    declared = {m["name"]: m["unit"] for m in BENCHMARK[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_a_held_out_seed_runs_clean():
    result = _bench("--workload", "multi_joint", "--seed", "424242", "--seconds", "1",
                    "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert all(v["value"] > 0 for v in result["metrics"].values())

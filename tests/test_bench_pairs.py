"""tools/bench_pairs.py: parsing a run's output and summarizing pairs, on canned runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = [{"name": "trials_per_s", "unit": "1/s", "better": "higher"},
           {"name": "bounds_s", "unit": "s", "better": "lower"},
           {"name": "rmse_q_m", "unit": "m", "better": "lower"}]


def _run(pair, side, rate, bounds, rmse, failed=0):
    return {"pair": pair, "side": side, "correct": failed == 0, "attempted": 100,
            "failed": failed, "metrics": {"trials_per_s": {"value": rate, "unit": "1/s"},
                                          "bounds_s": {"value": bounds, "unit": "s"},
                                          "rmse_q_m": {"value": rmse, "unit": "m"}}}


CANNED = [
    _run(1, "parent", 100.0, 4.0, 0.5), _run(1, "change", 120.0, 2.0, 0.5),
    _run(2, "change", 130.0, 2.0, 0.7), _run(2, "parent", 110.0, 5.0, 0.7),
    _run(3, "parent", 120.0, 3.0, 0.6), _run(3, "change", 110.0, 3.0, 0.6, failed=2),
    _run(4, "change", 140.0, 1.0, 0.4), _run(4, "parent", 130.0, 6.0, 0.4),
    _run(5, "parent", 90.0, 4.0, 0.5), _run(5, "change", 150.0, 2.0, 0.5),
]


def test_summary_reads_quartiles_and_pairs_won_per_metric(bench_pairs):
    rate, bounds, rmse = bench_pairs.summarize(CANNED, METRICS)
    assert rate["pairs"] == 5
    assert rate["parent"] == (100.0, 110.0, 120.0)  # inclusive quartiles of 90..130
    assert rate["change"] == (120.0, 130.0, 140.0)
    assert rate["median_change"] == pytest.approx(130.0 / 110.0 - 1.0)
    assert (rate["won"], rate["lost"], rate["tied"]) == (4, 1, 0)
    assert (bounds["won"], bounds["lost"], bounds["tied"]) == (4, 0, 1)  # lower is better
    assert bounds["change"][1] == 2.0 and bounds["parent"][1] == 4.0
    assert (rmse["won"], rmse["lost"], rmse["tied"]) == (0, 0, 5)
    assert bench_pairs.failures(CANNED) == (
        "parent: 0 of 500 operations failed, 0 of 5 runs incorrect; "
        "change: 2 of 500 operations failed, 1 of 5 runs incorrect")
    lines = bench_pairs.report("w", [rate])
    assert lines == ["w trials_per_s (1/s, higher is better): parent 110 [100, 120]  "
                     "change 130 [120, 140]  median +18.2%; change better in 4/5, worse in 1, "
                     "equal in 0; gain claim not met (median gap 20, parent IQR 20)"]
    assert not any(m["claim"] for m in (rate, bounds, rmse))


def _pairs(parent, change):
    """Canned runs of one pair per (parent, change) rate; bounds_s mirrors the rate."""
    return [_run(i, side, rate, 1000.0 - rate, 0.5)
            for i, (p, c) in enumerate(zip(parent, change), 1)
            for side, rate in (("parent", p), ("change", c))]


@pytest.mark.parametrize("change, claim", [
    ([p + 10 for p in range(100, 109)] + [108], True),    # 9/10 won, gap 9 > IQR 4.5
    ([p + 3 for p in range(100, 109)] + [108], False),    # 9/10 won, gap 3 <= IQR 4.5
    ([p + 10 for p in range(100, 108)] + [107, 108], False),  # 8/10 won
    ([p + 10 for p in range(100, 109)] + [109], True),    # 9 won and a tie
    ([p + 10 for p in range(100, 108)] + [108, 109], False),  # 8 won and two ties
    ([p + 10 for p in range(100, 109)], False),  # 9/9 won, but fewer than ten pairs ran
], ids=["met", "gap_within_iqr", "eight_wins", "nine_wins_one_tie", "eight_wins_two_ties",
        "nine_pairs"])
def test_the_claim_needs_nine_tenths_of_pairs_and_a_gap_past_the_parent_iqr(bench_pairs, change,
                                                                            claim):
    parent = [float(p) for p in range(100, 100 + len(change))]  # ten: quartiles 102.25, 106.75
    rate, bounds, _ = bench_pairs.summarize(_pairs(parent, change), METRICS)
    assert rate["parent_iqr"] == bounds["parent_iqr"] == (4.5 if len(change) == 10 else 4.0)
    assert rate["claim"] is bounds["claim"] is claim  # a higher and a lower-is-better metric
    assert bench_pairs.report("w", [rate])[0].endswith(
        f"gain claim {'met' if claim else 'not met'} (median gap {rate['median_gap']:.6g}, "
        f"parent IQR {rate['parent_iqr']:.6g})")


def test_summary_needs_both_sides_of_every_pair(bench_pairs):
    with pytest.raises(ValueError, match=r"\(3, 'change'\)"):
        bench_pairs.summarize([r for r in CANNED if (r["pair"], r["side"]) != (3, "change")],
                              METRICS)
    one = bench_pairs.summarize(CANNED[:2], METRICS)[0]
    assert one["parent"] == (100.0, 100.0, 100.0) and one["won"] == 1


def test_pairs_alternate_which_side_runs_first(bench_pairs):
    assert [bench_pairs.order(p) for p in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_a_run_is_its_last_json_line_with_its_env(bench_pairs):
    result = {"correct": True, "attempted": 4, "failed": 0, "metrics": {}}
    stdout = "\n".join(["workload w seed 1 trace 0: report", "  trials_per_s 1 1/s",
                        "env " + json.dumps({"nproc": 2}), json.dumps(result)]) + "\n"
    assert bench_pairs.parse_run(stdout) == {**result, "env": {"nproc": 2}}
    assert bench_pairs.parse_run(json.dumps(result)) == result


def test_the_summary_covers_every_end_to_end_metric_of_the_benchmark(bench_pairs):
    names = [m["name"] for m in bench_pairs.end_to_end_metrics()]
    assert "trials_per_s" in names and "bounds_s" in names
    assert all(m["better"] in ("higher", "lower") for m in bench_pairs.end_to_end_metrics())

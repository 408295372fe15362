"""tools/row_digest.py hashes the benchmark's workloads first; they must not drift apart."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def row_digest():
    spec = importlib.util.spec_from_file_location("row_digest", ROOT / "tools" / "row_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_matrix_starts_with_the_benchmark_workloads(row_digest):
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
    head = dict(list(row_digest.MATRIX.items())[:len(workloads)])
    assert len(workloads) == 3
    assert head == {name: (w["config"], w["overrides"]) for name, w in workloads.items()}


def test_digest_matrix_spans_two_search_batches(row_digest):
    from irsloc.stage1 import SEARCH_BATCH

    spanning = [overrides["trials"] for _, overrides in row_digest.MATRIX.values()
                if "trials" in overrides]
    assert spanning == [SEARCH_BATCH + 1]


def test_worst_bound_gap_names_its_run_and_entry(row_digest):
    saved = {"a 1": [1.0, 2.0, math.inf], "b 2": [4.0, 0.0, 8.0]}
    assert row_digest.worst_bound_gap(saved, saved) == (0.0, "a 1", 0)
    bounds = {"a 1": [1.0, 2.0 * (1 + 1e-9), math.inf], "b 2": [4.0, 0.0, 8.0 * (1 + 3e-9)]}
    gap, key, index = row_digest.worst_bound_gap(bounds, saved)
    assert (key, index) == ("b 2", 2) and gap == pytest.approx(3e-9, rel=1e-6)
    bounds["a 1"][2] = 5.0  # finite on one side only
    assert row_digest.worst_bound_gap(bounds, saved) == (math.inf, "a 1", 2)
    with pytest.raises(SystemExit):
        row_digest.worst_bound_gap({"a 1": [1.0]}, saved)


def test_over_tolerance_counts_the_entries_past_the_bound_per_run(row_digest):
    saved = {"a 1": [1.0, 2.0, 3.0, 4.0], "b 2": [4.0, 0.0], "c 3": [1.0]}
    bounds = {"a 1": [1.0 + 1e-12, 2.0, 3.0 * (1 + 1e-13), 4.5], "b 2": [4.0, 0.0], "c 3": [math.inf]}
    columns = {"a 1": ["sqrt_crb_nu_irs", "sqrt_crb_mu_b2t", "sqrt_crb_nu_irs", "sqrt_crb_mu_irs"],
               "b 2": ["sqrt_crb_mu_b2t", "sqrt_crb_nu_b2t"], "c 3": ["sqrt_crb_mu_irs"]}
    assert row_digest.over_tolerance(row_digest.bound_gaps(bounds, saved), columns).splitlines() == [
        f"bounds past {row_digest.BOUNDS_RTOL:g}: 4 of 7 entries",
        "  'a 1': sqrt_crb_nu_irs 2, sqrt_crb_mu_irs 1", "  'c 3': sqrt_crb_mu_irs 1"]

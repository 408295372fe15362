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

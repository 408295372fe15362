"""tools/row_digest.py hashes the benchmark's workloads first; they must not drift apart."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_digest_matrix_starts_with_the_benchmark_workloads():
    spec = importlib.util.spec_from_file_location("row_digest", ROOT / "tools" / "row_digest.py")
    row_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(row_digest)
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
    head = dict(list(row_digest.MATRIX.items())[:len(workloads)])
    assert len(workloads) == 3
    assert head == {name: (w["config"], w["overrides"]) for name, w in workloads.items()}

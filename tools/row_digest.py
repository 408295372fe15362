"""One sha256 over the rows and trial records of a fixed config matrix.

A refactor that must keep outputs identical runs this on the parent commit and
on the change; equal digests mean every hashed value is byte-identical:

    python3 tools/row_digest.py                            # on each checkout
    python3 tools/row_digest.py --save-bounds old.json     # parent: keep its bounds
    python3 tools/row_digest.py --check-bounds old.json    # change: compare them

The digest covers run_experiment rows and their TrialRecords (less
wall_time_s, arrays hashed with dtype, shape and bytes) for every config
below at base seeds 1000-1003, plus one t2 sweep and one area sweep.  The
sqrt_crb_* bound columns are left out of the digest, since a reordered
floating-point sum moves them in the last bits; --save-bounds writes them,
with a standalone attach_crb(cfg, p) (outside any sweep) at every power of
every matrix config and the `irsloc crb` table of every matrix config (its
four bound columns and crb_trace_stage1 for the DFT codebook sent at each
power), and --check-bounds compares them within BOUNDS_RTOL relative and names
the run key and entry index of the worst gap.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from irsloc.cli import main as irsloc_main  # noqa: E402
from irsloc.harness import (  # noqa: E402
    ExperimentConfig,
    TrialRecord,
    attach_crb,
    run_area_sweep,
    run_experiment,
    run_t2_sweep,
)

SEEDS = (1000, 1001, 1002, 1003)
TRIALS = 3
BOUNDS_RTOL = 1e-14
SINGLE = "configs/single_target.yaml"
MULTI = "configs/multi_target.yaml"
# name -> (config file, overrides); the first three are the benchmark's workloads
MATRIX = {
    "single_seq": (SINGLE, {}),
    "multi_joint": (MULTI, {}),
    "full_echo": (SINGLE, {"stage2_mode": "full", "joint_scan": True, "t2_y": 30, "t2_z": 30}),
    "single_seq_full": (SINGLE, {"stage2_mode": "full"}),
    "single_seq_case2": (SINGLE, {"stage2_mode": "case2"}),
    "single_seq_noiseless": (SINGLE, {"noise_dbm": -math.inf}),
    "multi_joint_full": (MULTI, {"stage2_mode": "full"}),
}
T2_VALUES = (10, 20, 30)
AREA_CELLS = np.linspace(-20.0, 0.0, 3), np.linspace(-10.0, 10.0, 3)
SWEEP_DBM = 10.0


def _config(path: str, seed: int, **overrides) -> ExperimentConfig:
    cfg = ExperimentConfig.from_yaml(str(ROOT / path))
    return replace(cfg, base_seed=seed, trials=TRIALS, output_path=None, **overrides)


def _feed(h, value) -> None:
    """Type-tagged bytes of value, so distinct values never share an encoding."""
    if isinstance(value, np.ndarray):
        h.update(f"array {value.dtype.str} {value.shape}\n".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(f"{type(value).__name__} {value!r}\n".encode())


def _feed_row(h, row: dict, bounds: list) -> None:
    for key in sorted(row):
        if key.startswith("sqrt_crb_"):
            bounds.append(row[key])
        else:
            _feed(h, key)
            _feed(h, row[key])


def _feed_record(h, record: TrialRecord) -> None:
    for f in fields(record):
        if f.name != "wall_time_s":
            _feed(h, f.name)
            _feed(h, getattr(record, f.name))


def crb_table(path: str, overrides: dict) -> list[float]:
    """Every value of the `irsloc crb` table of one matrix config, row by row."""
    raw = {**yaml.safe_load((ROOT / path).read_text()), **overrides, "output_path": None}
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.yaml", Path(tmp) / "crb.csv"
        config.write_text(yaml.safe_dump(raw))
        with contextlib.redirect_stdout(io.StringIO()):  # its "wrote N rows" line
            status = irsloc_main(["crb", str(config), "--out", str(out)])
        if status != 0:
            raise SystemExit(f"irsloc crb failed on {path} with {overrides}")
        with open(out, newline="") as fh:
            return [float(v) for row in csv.DictReader(fh) for _, v in sorted(row.items())]


def digest() -> tuple[str, dict[str, list[float]]]:
    """The sha256 hex digest over the matrix, and the bound columns per run."""
    h = hashlib.sha256()
    bounds = {f"{name} irsloc crb": crb_table(path, overrides)
              for name, (path, overrides) in MATRIX.items()}
    for seed in SEEDS:
        for name, (path, overrides) in MATRIX.items():
            records: list[TrialRecord] = []
            cfg = _config(path, seed, **overrides)
            rows = run_experiment(cfg, records)
            _feed(h, f"{name} {seed}")
            run_bounds = bounds.setdefault(f"{name} {seed}", [])
            for row in rows:
                _feed_row(h, row, run_bounds)
            for record in records:
                _feed_record(h, record)
            bounds[f"{name} {seed} standalone"] = [
                v for p in cfg.p_bs_dbm_sweep for _, v in sorted(attach_crb(cfg, p).items())]
        for name, rows in (
                ("t2_sweep", run_t2_sweep(_config(SINGLE, seed), T2_VALUES, SWEEP_DBM)),
                ("area_sweep", run_area_sweep(_config(SINGLE, seed), *AREA_CELLS, SWEEP_DBM))):
            _feed(h, f"{name} {seed}")
            for row in rows:
                _feed_row(h, row, [])
    return h.hexdigest(), bounds


def worst_bound_gap(bounds: dict[str, list[float]],
                    saved: dict[str, list[float]]) -> tuple[float, str, int]:
    """Largest relative difference between two bound sets of one matrix: (gap, run key, index).

    An entry finite on one side only has an infinite gap; ties go to the first entry.
    """
    if bounds.keys() != saved.keys() or any(len(bounds[k]) != len(saved[k]) for k in bounds):
        raise SystemExit("saved bounds cover a different config matrix")
    worst = (-1.0, "", -1)
    for key in bounds:
        a, b = np.array(bounds[key]), np.array(saved[key])
        ok = np.isfinite(a) & np.isfinite(b)
        scale = np.maximum(np.abs(a[ok]), np.abs(b[ok]))
        gap = np.zeros(a.shape)
        gap[ok] = np.abs(a[ok] - b[ok]) / np.where(scale > 0, scale, 1.0)
        gap[np.isfinite(a) != np.isfinite(b)] = math.inf
        if gap.size and gap.max() > worst[0]:
            worst = (float(gap.max()), key, int(np.argmax(gap)))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save-bounds", metavar="PATH", help="write the bound columns as JSON")
    parser.add_argument("--check-bounds", metavar="PATH",
                        help=f"compare the bound columns with saved ones within {BOUNDS_RTOL:g}")
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # the configs' expected warnings, e.g. non-white probing
        warnings.simplefilter("ignore")
        hexdigest, bounds = digest()
    print(f"rows+records sha256 {hexdigest}")
    if args.save_bounds:
        Path(args.save_bounds).write_text(json.dumps(bounds))
    if args.check_bounds:
        gap, key, index = worst_bound_gap(bounds, json.loads(Path(args.check_bounds).read_text()))
        print(f"bounds worst relative gap {gap:.3g} at {key!r} entry {index} "
              f"({'ok' if gap <= BOUNDS_RTOL else 'FAIL'})")
        return 0 if gap <= BOUNDS_RTOL else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

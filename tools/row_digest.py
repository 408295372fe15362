"""One sha256 over the rows and trial records of a fixed config matrix.

A refactor that must keep outputs identical runs this on the parent commit and
on the change; equal digests mean every hashed value is byte-identical:

    python3 tools/row_digest.py                            # on each checkout
    python3 tools/row_digest.py --save-bounds old.json     # parent: keep its bounds
    python3 tools/row_digest.py --check-bounds old.json    # change: compare them

The digest covers run_experiment rows and their TrialRecords (less
wall_time_s, arrays hashed with dtype, shape and bytes) for every config
below at base seeds 1000-1003, TRIALS trials a point unless a config sets
its own, plus one t2 sweep and one area sweep.  The
sqrt_crb_* bound columns are left out of the digest, since a reordered
floating-point sum moves them in the last bits; --save-bounds writes them,
with a standalone attach_crb(cfg, p) (outside any sweep) at every power of
every matrix config and the `irsloc crb` table of every matrix config (its
four bound columns and crb_trace_stage1 for the DFT codebook sent at each
power), and --check-bounds compares them within BOUNDS_RTOL relative, names
the run key and entry index of the worst gap, and counts the entries past
BOUNDS_RTOL in each run key.  A well-conditioned bound moves by a few units
in the last place when the arithmetic behind it changes; an ill-conditioned
one, such as a sequential scan's surface bound, whose FIM inverts a
correlation matrix with condition number near 1e5-1e6, can move by up to
that factor more, so a change that reorders a FIM's arithmetic can fail the
check on those entries alone.

The area sweep includes a seam-tie cell: its target at (0, 0, 0) sits
straight below the BS (nu = -1), where an even n_z gives the MUSIC axis ends
+-1 the same steering row up to a global sign, so the stage-1 pick between
them follows rounding, and a change that reorders floating-point work can
move that row alone.
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
from collections import Counter
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
    # one trial more than stage 1's search batch (irsloc.stage1.SEARCH_BATCH = 8),
    # so each point's searches span two batches
    "multi_joint_two_batches": (MULTI, {"trials": 9}),
}
T2_VALUES = (10, 20, 30)
AREA_CELLS = np.linspace(-20.0, 0.0, 3), np.linspace(-10.0, 10.0, 3)
SWEEP_DBM = 10.0


def _config(path: str, seed: int, **overrides) -> ExperimentConfig:
    cfg = ExperimentConfig.from_yaml(str(ROOT / path))
    return replace(cfg, **{"base_seed": seed, "trials": TRIALS, "output_path": None, **overrides})


def _feed(h, value) -> None:
    """Type-tagged bytes of value, so distinct values never share an encoding."""
    if isinstance(value, np.ndarray):
        h.update(f"array {value.dtype.str} {value.shape}\n".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(f"{type(value).__name__} {value!r}\n".encode())


def _feed_row(h, row: dict, bounds: list, columns: list) -> None:
    for key in sorted(row):
        if key.startswith("sqrt_crb_"):
            bounds.append(row[key])
            columns.append(key)
        else:
            _feed(h, key)
            _feed(h, row[key])


def _feed_record(h, record: TrialRecord) -> None:
    for f in fields(record):
        if f.name != "wall_time_s":
            _feed(h, f.name)
            _feed(h, getattr(record, f.name))


def crb_table(path: str, overrides: dict) -> list[tuple[str, float]]:
    """Every (column, value) of the `irsloc crb` table of one matrix config, row by row."""
    raw = {**yaml.safe_load((ROOT / path).read_text()), **overrides, "output_path": None}
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.yaml", Path(tmp) / "crb.csv"
        config.write_text(yaml.safe_dump(raw))
        with contextlib.redirect_stdout(io.StringIO()):  # its "wrote N rows" line
            status = irsloc_main(["crb", str(config), "--out", str(out)])
        if status != 0:
            raise SystemExit(f"irsloc crb failed on {path} with {overrides}")
        with open(out, newline="") as fh:
            return [(k, float(v)) for row in csv.DictReader(fh) for k, v in sorted(row.items())]


def digest() -> tuple[str, dict[str, list[float]], dict[str, list[str]]]:
    """The sha256 hex digest over the matrix, the bound values per run, and the column of each."""
    h = hashlib.sha256()
    bounds, columns = {}, {}
    for name, (path, overrides) in MATRIX.items():
        columns[f"{name} irsloc crb"], bounds[f"{name} irsloc crb"] = map(
            list, zip(*crb_table(path, overrides)))
    for seed in SEEDS:
        for name, (path, overrides) in MATRIX.items():
            records: list[TrialRecord] = []
            cfg = _config(path, seed, **overrides)
            rows = run_experiment(cfg, records)
            _feed(h, f"{name} {seed}")
            run_bounds = bounds.setdefault(f"{name} {seed}", [])
            run_columns = columns.setdefault(f"{name} {seed}", [])
            for row in rows:
                _feed_row(h, row, run_bounds, run_columns)
            for record in records:
                _feed_record(h, record)
            standalone = [kv for p in cfg.p_bs_dbm_sweep for kv in sorted(attach_crb(cfg, p).items())]
            columns[f"{name} {seed} standalone"] = [k for k, _ in standalone]
            bounds[f"{name} {seed} standalone"] = [v for _, v in standalone]
        for name, rows in (
                ("t2_sweep", run_t2_sweep(_config(SINGLE, seed), T2_VALUES, SWEEP_DBM)),
                ("area_sweep", run_area_sweep(_config(SINGLE, seed), *AREA_CELLS, SWEEP_DBM))):
            _feed(h, f"{name} {seed}")
            for row in rows:
                _feed_row(h, row, [], [])
    return h.hexdigest(), bounds, columns


def bound_gaps(bounds: dict[str, list[float]],
               saved: dict[str, list[float]]) -> dict[str, np.ndarray]:
    """Relative difference of every entry between two bound sets of one matrix, per run key.

    An entry finite on one side only has an infinite gap.
    """
    if bounds.keys() != saved.keys() or any(len(bounds[k]) != len(saved[k]) for k in bounds):
        raise SystemExit("saved bounds cover a different config matrix")
    gaps = {}
    for key in bounds:
        a, b = np.array(bounds[key]), np.array(saved[key])
        ok = np.isfinite(a) & np.isfinite(b)
        scale = np.maximum(np.abs(a[ok]), np.abs(b[ok]))
        gap = np.zeros(a.shape)
        gap[ok] = np.abs(a[ok] - b[ok]) / np.where(scale > 0, scale, 1.0)
        gap[np.isfinite(a) != np.isfinite(b)] = math.inf
        gaps[key] = gap
    return gaps


def worst_bound_gap(bounds: dict[str, list[float]],
                    saved: dict[str, list[float]]) -> tuple[float, str, int]:
    """The largest of bound_gaps: (gap, run key, index); ties go to the first entry."""
    worst = (-1.0, "", -1)
    for key, gap in bound_gaps(bounds, saved).items():
        if gap.size and gap.max() > worst[0]:
            worst = (float(gap.max()), key, int(np.argmax(gap)))
    return worst


def over_tolerance(gaps: dict[str, np.ndarray], columns: dict[str, list[str]]) -> str:
    """How many entries exceed BOUNDS_RTOL, in all and per run key that has any.

    A run key's count is split by the column of each entry (digest's third
    value), in the order the columns first appear.
    """
    over = {k: g > BOUNDS_RTOL for k, g in gaps.items()}
    lines = [f"bounds past {BOUNDS_RTOL:g}: {sum(int(o.sum()) for o in over.values())} of "
             f"{sum(g.size for g in gaps.values())} entries"]
    for key, past in over.items():
        if not past.any():
            continue
        counts = Counter(np.array(columns[key])[past])
        lines.append(f"  {key!r}: " + ", ".join(f"{n} {c}" for n, c in counts.items()))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save-bounds", metavar="PATH", help="write the bound columns as JSON")
    parser.add_argument("--check-bounds", metavar="PATH",
                        help=f"compare the bound columns with saved ones within {BOUNDS_RTOL:g}")
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # the configs' expected warnings, e.g. non-white probing
        warnings.simplefilter("ignore")
        hexdigest, bounds, columns = digest()
    print(f"rows+records sha256 {hexdigest}")
    if args.save_bounds:
        Path(args.save_bounds).write_text(json.dumps(bounds))
    if args.check_bounds:
        saved = json.loads(Path(args.check_bounds).read_text())
        gap, key, index = worst_bound_gap(bounds, saved)
        print(f"bounds worst relative gap {gap:.3g} at {key!r} entry {index} "
              f"({'ok' if gap <= BOUNDS_RTOL else 'FAIL'})")
        print(over_tolerance(bound_gaps(bounds, saved), columns))
        return 0 if gap <= BOUNDS_RTOL else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

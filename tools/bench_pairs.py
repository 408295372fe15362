"""Alternating parent/change benchmark pairs and their summary, one workload at a time.

Runs `perfbench/run.py --trace 0` in two checkouts of the repository, one
after the other, for N pairs: pair i uses seed K + i - 1 on both sides, and
the parent runs first on odd pairs, the change first on even pairs, so a
drift of the machine over time falls on both sides alike.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload full_echo \\
        --pairs 8 --seconds 30 --seed0 22001 [--out runs.json]

Each run's result is the last JSON line it prints (its `env ` line is kept
with it).  For every end-to-end metric of BENCHMARK.json the summary prints
the median and quartiles of each side, the change in the median, and in how
many pairs the change was better, worse or equal.  --out writes every run's
record as JSON, for a committed BENCH_*.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def end_to_end_metrics(checkout: Path = ROOT) -> list[dict]:
    """The end-to-end metrics of the checkout's BENCHMARK.json: name, unit and better."""
    return json.loads((checkout / "BENCHMARK.json").read_text())["end_to_end"]


def parse_run(stdout: str) -> dict:
    """A run's result (its last JSON line) with its env line, if it printed one."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = [line for line in lines if line.startswith("env ")]
    if env:
        result["env"] = json.loads(env[-1][len("env "):])
    return result


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    return parse_run(done.stdout)


def order(pair: int) -> tuple[str, str]:
    """The sides of a 1-based pair in the order they run: the parent first on odd pairs."""
    return SIDES if pair % 2 else SIDES[::-1]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], metrics: list[dict]) -> list[dict]:
    """Per metric: each side's quartiles and how many pairs the change won, lost and tied.

    runs holds one record per run with keys pair, side and the run's result
    (metrics, failed, correct); every pair needs both sides.  A pair counts
    as won when the change's value is better in the metric's direction.
    """
    pairs = sorted({r["pair"] for r in runs})
    by = {(r["pair"], r["side"]): r for r in runs}
    missing = [(p, s) for p in pairs for s in SIDES if (p, s) not in by]
    if missing:
        raise ValueError(f"runs lack (pair, side) {missing}")
    out = []
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        values = {s: [by[p, s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        parent, change = _quartiles(values["parent"]), _quartiles(values["change"])
        out.append({
            "name": name, "unit": metric["unit"], "better": metric["better"],
            "pairs": len(pairs), "parent": parent, "change": change,
            "median_change": change[1] / parent[1] - 1.0 if parent[1] else float("nan"),
            "won": sum(d > 0 for d in diffs), "lost": sum(d < 0 for d in diffs),
            "tied": sum(d == 0 for d in diffs),
        })
    return out


def failures(runs: list[dict]) -> str:
    """Failed operations and incorrect runs, per side."""
    parts = []
    for side in SIDES:
        mine = [r for r in runs if r["side"] == side]
        parts.append(f"{side}: {sum(r['failed'] for r in mine)} of "
                     f"{sum(r['attempted'] for r in mine)} operations failed, "
                     f"{sum(not r['correct'] for r in mine)} of {len(mine)} runs incorrect")
    return "; ".join(parts)


def report(workload: str, summary: list[dict]) -> list[str]:
    lines = []
    for m in summary:
        (p1, p2, p3), (c1, c2, c3) = m["parent"], m["change"]
        lines.append(
            f"{workload} {m['name']} ({m['unit']}, {m['better']} is better): "
            f"parent {p2:.6g} [{p1:.6g}, {p3:.6g}]  change {c2:.6g} [{c1:.6g}, {c3:.6g}]  "
            f"median {m['median_change']:+.1%}; change better in {m['won']}/{m['pairs']}, "
            f"worse in {m['lost']}, equal in {m['tied']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--out", type=Path, help="write every run's record as JSON")
    args = parser.parse_args(argv)
    dirs = {"parent": args.parent_dir, "change": args.change_dir}
    runs = []
    for pair in range(1, args.pairs + 1):
        seed = args.seed0 + pair - 1
        for side in order(pair):
            result = run_once(dirs[side], args.workload, seed, args.seconds)
            runs.append({"run_index": len(runs), "pair": pair, "side": side,
                         "workload": args.workload, "seed": seed, "trace": 0, **result})
            print(f"pair {pair} {side} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
            if args.out:
                args.out.write_text(json.dumps(runs, indent=1))
    for line in report(args.workload, summarize(runs, end_to_end_metrics(args.change_dir))):
        print(line)
    print(failures(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())

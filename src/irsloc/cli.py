"""Command-line front end: run experiments, dump bound curves, check invariants."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .arrays import SpatialAnglePair, upa_response, upa_response_derivatives
from .channel import SceneGeometry, dbm_to_watts
from .crb import fim_stage1, fim_stage1_white
from .harness import (
    ExperimentConfig,
    attach_crb,
    emit_csv,
    emit_figure_data,
    run_area_sweep,
    run_doa_snapshot,
    run_experiment,
    run_t2_sweep,
    stage1_crb_trace,
    trial_seed,
)
from .localization import DoAPairObservation, construct_location
from .stage2 import build_scan_plan, cascade_scalar, classify_regime, matched_theta


def _emit(rows, figure, out):
    if figure:
        emit_figure_data(rows, figure, out)
    else:
        emit_csv(rows, out)
    if out is not None:
        print(f"wrote {len(rows)} rows to {out}")


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_yaml(args.config)
    if args.trials is not None:
        config = replace(config, trials=args.trials)
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)
    figure = args.figure
    if figure == "fig8":
        rows = run_t2_sweep(config, args.t2_list or [10, 20, 30, 40, 50, 60])
    elif figure == "fig10":
        cells = args.cells
        rows = run_area_sweep(config,
                              np.linspace(-20.0, 0.0, cells),
                              np.linspace(-10.0, 10.0, cells))
    elif figure == "fig11":
        rows = run_doa_snapshot(config)
    else:
        rows = run_experiment(config)
    _emit(rows, figure, args.out or config.output_path)
    return 0


def _cmd_crb(args) -> int:
    config = ExperimentConfig.from_yaml(args.config)
    rows = []
    for p_dbm in config.p_bs_dbm_sweep:
        row = {"p_bs_dbm": float(p_dbm)}
        row.update(attach_crb(config, p_dbm))
        row["crb_trace_stage1"] = stage1_crb_trace(config, p_dbm)
        rows.append(row)
    _emit(rows, None, args.out or config.output_path)
    return 0


def _check(name: str, ok: bool, failures: list) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if not ok:
        failures.append(name)


def _cmd_validate(args) -> int:
    config = ExperimentConfig.from_yaml(args.config)
    scene: SceneGeometry = config.scene
    rng = np.random.default_rng(7)
    failures: list = []

    ang = SpatialAnglePair(rng.uniform(-1, 1), rng.uniform(-1, 1))
    da_mu, da_nu = upa_response_derivatives(ang, scene.bs_upa)
    a = upa_response(ang, scene.bs_upa)
    _check("planar-array derivative orthogonality",
           abs(np.vdot(da_mu, a)) < 1e-10 * np.linalg.norm(da_mu) * np.linalg.norm(a)
           and abs(np.vdot(da_mu, da_nu)) < 1e-10 * np.linalg.norm(da_mu) * np.linalg.norm(da_nu),
           failures)

    plan = build_scan_plan(scene.irs_upa[0], max(config.t2_y, 3), max(config.t2_z, 3))
    _check("scan codewords are unit modulus",
           np.max(np.abs(np.abs(plan.codebook_y) - 1)) < 1e-12
           and np.max(np.abs(np.abs(plan.codebook_z) - 1)) < 1e-12, failures)

    b_in = upa_response(scene.bs_irs_aoa(0), scene.irs_upa[0])
    b_out = upa_response(scene.irs_target_doa(0, 0), scene.irs_upa[0])
    q = cascade_scalar(matched_theta(b_in, b_out), b_in, b_out)
    _check("matched cascade scalar reaches the element count",
           abs(q - scene.n_irs(0)) < 1e-9 * scene.n_irs(0), failures)

    report = classify_regime(scene, 0, 0)
    _check("regime powers p1 and p2 are finite",
           np.isfinite(report.p1) and np.isfinite(report.p2), failures)

    doa_pair = DoAPairObservation(scene.bs_target_doa(0), scene.irs_target_doa(0, 0), 0)
    est = construct_location(doa_pair, scene)
    _check("geometric round trip recovers the configured target",
           np.linalg.norm(est.position.as_array() - scene.targets[0].as_array()) < 1e-8,
           failures)

    # Both sides scale as 1/sigma^2, so the identity is checked at sigma^2 = 1
    # and holds for a noiseless config too.
    p_watts = dbm_to_watts(config.p_bs_dbm_sweep[0])
    n = scene.n_bs
    white = np.sqrt(p_watts * config.t1 / n) * np.eye(n, dtype=complex)
    dense = fim_stage1(scene, white, 1.0)
    closed = fim_stage1_white(scene, p_watts, config.t1, 1.0)
    _check("white-probing information matrix matches its closed form",
           np.allclose(dense.matrix, closed.matrix,
                       rtol=1e-10, atol=1e-10 * abs(closed.matrix).max()), failures)

    _check("seed ladder is collision-free over a small block",
           len({trial_seed(config.base_seed, s, t) for s in range(4) for t in range(50)}) == 200,
           failures)

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="irsloc",
                                     description="Reflecting-surface localization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a Monte Carlo sweep from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--figure", choices=["fig6", "fig7", "fig8", "fig9", "fig10",
                                            "fig11", "fig12"], default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--trials", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--cells", type=int, default=41, help="area-sweep grid cells per axis")
    p_run.add_argument("--t2-list", type=int, nargs="+", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_crb = sub.add_parser("crb", help="analytic bound sweep only")
    p_crb.add_argument("config")
    p_crb.add_argument("--out", default=None)
    p_crb.set_defaults(func=_cmd_crb)

    p_val = sub.add_parser("validate", help="run the invariant checks on a config")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

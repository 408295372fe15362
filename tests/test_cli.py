import csv
from pathlib import Path

import numpy as np
import pytest
import yaml

from irsloc import (
    ExperimentConfig,
    InvalidArgumentError,
    crb_trace_stage1,
    dbm_to_watts,
    dft_codebook,
    fim_stage1_white,
)
from irsloc.cli import main

CONFIG = """
scene:
  bs: [0.0, 0.0, 5.0]
  irs:
    - [-20.0, 0.0, 3.0]
  targets:
    - [-12.0, 6.0, 0.0]
  bs_upa: {n_y: 4, n_z: 4}
  irs_upa:
    - {n_y: 6, n_z: 6}
  rcs_dbsm: [7.0]
noise_dbm: -80.0
p_bs_dbm_sweep: [30.0]
t1: 16
t2_y: 17
t2_z: 17
trials: 2
base_seed: 7
stage2_mode: case1
music_grid: 0.01
music_refine_levels: 1
"""


def write_config(tmp_path, text=CONFIG):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    return str(path)


NOISELESS = CONFIG.replace("noise_dbm: -80.0", "noise_dbm: -.inf")


def test_run_subcommand_writes_csv(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "rows.csv"
    assert main(["run", cfg, "--out", str(out), "--trials", "1"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("p_bs_dbm,")
    assert len(lines) == 2


def test_run_subcommand_figure_projection(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "fig6.csv"
    assert main(["run", cfg, "--figure", "fig6", "--out", str(out), "--trials", "1"]) == 0
    assert out.read_text().splitlines()[0] == \
        "p_bs_dbm,rmse_mu_b2t,rmse_nu_b2t,sqrt_crb_mu_b2t,sqrt_crb_nu_b2t"


def test_run_subcommand_stdout_uses_the_figure_projection(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", cfg, "--figure", "fig6", "--trials", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p_bs_dbm,rmse_mu_b2t,rmse_nu_b2t,sqrt_crb_mu_b2t,sqrt_crb_nu_b2t"
    assert len(lines) == 2 and len(lines[1].split(",")) == 5


def test_run_subcommand_stdout_rejects_empty_rows(tmp_path):
    cfg = write_config(tmp_path)
    with pytest.raises(InvalidArgumentError, match="nothing to emit"):
        main(["run", cfg, "--figure", "fig10", "--cells", "0", "--trials", "1"])


def test_run_subcommand_seed_override_changes_rows(tmp_path):
    cfg = write_config(tmp_path)
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    main(["run", cfg, "--out", str(a), "--seed", "1"])
    main(["run", cfg, "--out", str(b), "--seed", "1"])
    main(["run", cfg, "--out", str(c), "--seed", "2"])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_crb_subcommand(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "crb.csv"
    assert main(["crb", cfg, "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert "sqrt_crb_mu_b2t" in header
    assert "crb_trace_stage1" in header
    first_cell = out.read_text().splitlines()[1].split(",")[0]
    assert np.isfinite(float(first_cell))


def test_crb_subcommand_trace_is_for_the_transmitted_codebook(tmp_path):
    # with t1 < N_BS the DFT codebook is not spatially white, so the trace of
    # the codebook a run sends differs from the white-probing closed form
    cfg = write_config(tmp_path, CONFIG.replace("t1: 16", "t1: 8"))
    out = tmp_path / "crb.csv"
    assert main(["crb", cfg, "--out", str(out)]) == 0
    header, row = (line.split(",") for line in out.read_text().splitlines())
    got = float(row[header.index("crb_trace_stage1")])
    config = ExperimentConfig.from_yaml(cfg)
    p_watts = dbm_to_watts(config.p_bs_dbm_sweep[0])
    with pytest.warns(UserWarning, match="spatially white"):
        probing = dft_codebook(config.scene.n_bs, 8, p_watts)
    assert got == crb_trace_stage1(config.scene, probing, config.noise_var)
    white = fim_stage1_white(config.scene, p_watts, 8, config.noise_var)
    assert not np.isclose(got, np.sum(white.crb_diag), rtol=1e-3)


def test_crb_subcommand_noiseless_writes_zero_bounds(tmp_path):
    cfg = write_config(tmp_path, NOISELESS)
    out = tmp_path / "crb.csv"
    assert main(["crb", cfg, "--out", str(out)]) == 0
    header, row = (line.split(",") for line in out.read_text().splitlines())
    assert all(float(v) == 0.0 for k, v in zip(header, row) if k != "p_bs_dbm")


@pytest.mark.parametrize("shipped", ["single_target.yaml", "multi_target.yaml"])
def test_case2_bounds_are_finite_in_crb_and_fig7(tmp_path, shipped):
    # the single-bounce bound is taken over the surface angles and gamma = alpha_tilde b,
    # which the scan identifies, so it is finite at every power
    raw = yaml.safe_load((Path(__file__).resolve().parents[1] / "configs" / shipped).read_text())
    cfg = tmp_path / "case2.yaml"
    cfg.write_text(yaml.safe_dump({**raw, "stage2_mode": "case2", "output_path": None}))
    crb, fig7 = tmp_path / "crb.csv", tmp_path / "fig7.csv"
    with pytest.warns(UserWarning, match="spatially white"):  # t1 < N_BS
        assert main(["crb", str(cfg), "--out", str(crb)]) == 0
        assert main(["run", str(cfg), "--figure", "fig7", "--trials", "1", "--out", str(fig7)]) == 0
    for out in (crb, fig7):
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["p_bs_dbm"]) for r in rows] == raw["p_bs_dbm_sweep"]
        for r in rows:
            for key in ("sqrt_crb_mu_irs", "sqrt_crb_nu_irs"):
                assert np.isfinite(float(r[key])) and float(r[key]) > 0, (out.name, key, r)


def test_validate_subcommand_passes_noiseless(tmp_path, capsys):
    cfg = write_config(tmp_path, NOISELESS)
    assert main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert "PASS  white-probing information matrix matches its closed form" in out
    assert "FAIL" not in out


def test_validate_subcommand_passes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_validate_subcommand_fails_on_a_colliding_seed_ladder(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("irsloc.cli.trial_seed", lambda base_seed, sweep, trial: 1)
    assert main(["validate", write_config(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "FAIL  seed ladder is collision-free over a small block" in out
    assert out[-1] == "1 check(s) failed"


def test_fig11_snapshot(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "fig11.csv"
    assert main(["run", cfg, "--figure", "fig11", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header[0] == "target" and "mu_i2t_est" in header

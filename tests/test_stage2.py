import warnings

import numpy as np
import pytest

from irsloc import (
    InvalidArgumentError,
    Position3,
    Regime,
    SceneGeometry,
    UnderResolvedError,
    UpaConfig,
    build_scan_plan,
    cascade_scalar,
    classify_regime,
    composite_angle,
    matched_theta,
    scan_estimate,
    steering_vector,
    synthesize_stage2,
    upa_response,
)
from irsloc.channel import PathKind, path_gain, stage2_effective_channel
from irsloc.stage2 import Stage2Mode, case1_amplitude, case2_amplitude

from conftest import random_desk_scene


def test_scan_grid_endpoints_inclusive():
    plan = build_scan_plan(UpaConfig(4, 4), 3, 5)
    assert np.allclose(plan.mu_grid, [-1.0, 0.0, 1.0])
    assert np.allclose(plan.nu_grid, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert plan.hold_y_index == 1 and plan.hold_z_index == 2


def test_scan_codewords_unit_modulus():
    plan = build_scan_plan(UpaConfig(6, 5), 8, 8)
    assert np.max(np.abs(np.abs(plan.codebook_y) - 1.0)) < 1e-15
    assert np.max(np.abs(np.abs(plan.codebook_z) - 1.0)) < 1e-15


@pytest.mark.parametrize("cfg, t2_y, t2_z", [(UpaConfig(30, 30), 60, 60), (UpaConfig(6, 5), 8, 3),
                                             (UpaConfig(1, 4), 1, 7)])
def test_scan_codebooks_match_stacked_steering_vectors(cfg, t2_y, t2_z):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # one beam warns
        plan = build_scan_plan(cfg, t2_y, t2_z)
    for codebook, grid, n in ((plan.codebook_y, plan.mu_grid, cfg.n_y),
                              (plan.codebook_z, plan.nu_grid, cfg.n_z)):
        stacked = np.stack([np.conj(steering_vector(phi, n)) for phi in grid], axis=1)
        assert codebook.shape == stacked.shape
        assert np.max(np.abs(codebook - stacked)) < 1e-14


def test_scan_plan_warns_below_three_beams():
    with pytest.warns(UserWarning):
        build_scan_plan(UpaConfig(4, 4), 2, 4)
    with pytest.raises(InvalidArgumentError):
        build_scan_plan(UpaConfig(4, 4), 0, 4)


def test_beam_on_its_own_center_gives_full_gain():
    plan = build_scan_plan(UpaConfig(8, 8), 7, 7)
    for i, mu in enumerate(plan.mu_grid):
        u = steering_vector(float(mu), 8)
        assert abs(u @ plan.codebook_y[:, i]) == pytest.approx(8.0, rel=1e-12)


def test_cascade_scalar_matched_reaches_element_count():
    g = random_desk_scene(3)
    b_in = upa_response(g.bs_irs_aoa(0), g.irs_upa[0])
    b_out = upa_response(g.irs_target_doa(0, 0), g.irs_upa[0])
    q = cascade_scalar(matched_theta(b_in, b_out), b_in, b_out)
    assert q == pytest.approx(g.n_irs(0), rel=1e-12)


def test_cascade_scalar_all_ones_boresight():
    n = 12
    ones = np.ones(n, dtype=complex)
    assert cascade_scalar(ones, ones, ones) == pytest.approx(n)


def test_cascade_scalar_validates_inputs():
    with pytest.raises(InvalidArgumentError):
        cascade_scalar(np.ones(3), np.ones(4, dtype=complex), np.ones(4, dtype=complex))
    with pytest.raises(InvalidArgumentError):
        cascade_scalar(0.5 * np.ones(4), np.ones(4, dtype=complex), np.ones(4, dtype=complex))


def test_cascade_separable_factorization():
    # Kronecker-factored codewords: q = (u^T(mu) w_y)(u^T(nu) w_z)
    rng = np.random.default_rng(8)
    for _ in range(20):
        n_y, n_z = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        mu_a, nu_a = rng.uniform(-1, 1, 2)
        mu_d, nu_d = rng.uniform(-1, 1, 2)
        w_y = np.exp(1j * rng.uniform(0, 2 * np.pi, n_y))
        w_z = np.exp(1j * rng.uniform(0, 2 * np.pi, n_z))
        b_in = np.kron(steering_vector(mu_a, n_y), steering_vector(nu_a, n_z))
        b_out = np.kron(steering_vector(mu_d, n_y), steering_vector(nu_d, n_z))
        q_direct = cascade_scalar(np.kron(w_y, w_z), b_in, b_out)
        q_sep = (steering_vector(mu_a + mu_d, n_y) @ w_y) * (steering_vector(nu_a + nu_d, n_z) @ w_z)
        assert q_direct == pytest.approx(q_sep, rel=1e-12)


def test_coherent_gain_bound():
    g = random_desk_scene(11)
    n_r = g.n_irs(0)
    b_in = upa_response(g.bs_irs_aoa(0), g.irs_upa[0])
    b_out = upa_response(g.irs_target_doa(0, 0), g.irs_upa[0])
    rng = np.random.default_rng(0)
    for _ in range(50):
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, n_r))
        assert abs(cascade_scalar(theta, b_in, b_out)) <= n_r + 1e-9
    assert abs(cascade_scalar(matched_theta(b_in, b_out), b_in, b_out)) == pytest.approx(n_r, rel=1e-12)


def test_full_echo_equals_scalar_model_identity():
    # exact algebra: filtered full echo = alpha q^2 + alpha_tilde b q per sample
    g = random_desk_scene(21, max_side=4)
    p = 2.0
    plan = build_scan_plan(g.irs_upa[0], 4, 4)
    full = synthesize_stage2(g, 0, plan, 0.0, 0, Stage2Mode.FULL_ECHO, p, joint=True)
    alpha = case1_amplitude(g, 0, 0, p)
    alpha_t, b = case2_amplitude(g, 0, 0, p)
    comp = composite_angle(g, 0, 0)
    cfg = g.irs_upa[0]
    for i in range(plan.t2_y):
        for j in range(plan.t2_z):
            q = (steering_vector(comp.mu, cfg.n_y) @ plan.codebook_y[:, i]) * \
                (steering_vector(comp.nu, cfg.n_z) @ plan.codebook_z[:, j])
            expected = alpha * q**2 + alpha_t * b * q
            got = full.grid_values[i, j]
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-18)


def _dense_full_echo(g, plan, p, y_idx, z_idx, noise_var, seed):
    """Oracle: a^H sum_k H_eff,k(theta) w_BS per codeword, with per-antenna noise
    drawn sample by sample (N_BS real, then N_BS imaginary draws)."""
    rng = np.random.default_rng(seed)
    a_irs = upa_response(g.bs_irs_aod(0), g.bs_upa)
    w_bs = np.sqrt(p / g.n_bs) * np.conj(a_irs)
    out = []
    for i, j in zip(y_idx, z_idx):
        theta = np.kron(plan.codebook_y[:, i], plan.codebook_z[:, j])
        h = sum(stage2_effective_channel(g, 0, k, theta) for k in range(len(g.targets)))
        val = np.conj(a_irs) @ h @ w_bs
        if noise_var > 0:
            val += np.conj(a_irs) @ (np.sqrt(noise_var / 2.0) * (
                rng.standard_normal(g.n_bs) + 1j * rng.standard_normal(g.n_bs)))
        out.append(val)
    return np.array(out)


@pytest.mark.parametrize("noise_var", [0.0, 1e-12])
def test_full_echo_matches_dense_oracle(noise_var):
    base = random_desk_scene(23, max_side=5)
    g = SceneGeometry(bs=base.bs, irs=base.irs, bs_upa=base.bs_upa, irs_upa=base.irs_upa,
                      targets=[base.targets[0], Position3(-9.0, -4.0, 1.5)])
    plan = build_scan_plan(g.irs_upa[0], 5, 4)
    p, seed = 2.0, 31
    joint = synthesize_stage2(g, 0, plan, noise_var, seed, Stage2Mode.FULL_ECHO, p, joint=True)
    ii, jj = np.meshgrid(np.arange(plan.t2_y), np.arange(plan.t2_z), indexing="ij")
    expected = _dense_full_echo(g, plan, p, ii.ravel(), jj.ravel(), noise_var, seed)
    np.testing.assert_allclose(joint.grid_values.ravel(), expected, rtol=1e-10, atol=0)

    seq = synthesize_stage2(g, 0, plan, noise_var, seed, Stage2Mode.FULL_ECHO, p)
    y_idx = list(range(plan.t2_y)) + [plan.hold_y_index] * plan.t2_z
    z_idx = [plan.hold_z_index] * plan.t2_y + list(range(plan.t2_z))
    expected = _dense_full_echo(g, plan, p, y_idx, z_idx, noise_var, seed)
    np.testing.assert_allclose(np.concatenate([seq.y_values, seq.z_values]), expected,
                               rtol=1e-10, atol=0)


def test_case1_approximation_error_small_for_large_arrays(single_scene):
    plan = build_scan_plan(single_scene.irs_upa[0], 6, 6)
    p = 1.0
    full = synthesize_stage2(single_scene, 0, plan, 0.0, 0, Stage2Mode.FULL_ECHO, p, joint=True)
    approx = synthesize_stage2(single_scene, 0, plan, 0.0, 0, Stage2Mode.CASE1_APPROX, p, joint=True)
    num = np.sum(np.abs(full.grid_values - approx.grid_values) ** 2)
    den = np.sum(np.abs(full.grid_values) ** 2)
    assert num / den < 0.05


def test_matched_beam_value_is_alpha_nr_squared():
    # plan grid contains the composite direction exactly when it sits on a node
    g = SceneGeometry(
        bs=Position3(0.0, 0.0, 3.0), irs=[Position3(-20.0, 0.0, 3.0)],
        targets=[Position3(-26.0, 4.0, 0.0)],
        bs_upa=UpaConfig(4, 4), irs_upa=[UpaConfig(5, 5)],
    )
    comp = composite_angle(g, 0, 0)
    t2 = 5
    grid = np.linspace(-1, 1, t2)
    # move the target so the composite angles land on grid nodes
    mu_goal = grid[np.argmin(np.abs(grid - comp.mu))]
    nu_goal = grid[np.argmin(np.abs(grid - comp.nu))]
    d = 7.0
    x = g.irs[0].x - d * np.sqrt(max(1 - mu_goal**2 - nu_goal**2, 0))
    tgt = Position3(x, g.irs[0].y + mu_goal * d, g.irs[0].z + nu_goal * d)
    g = SceneGeometry(bs=g.bs, irs=g.irs, targets=[tgt], bs_upa=g.bs_upa, irs_upa=g.irs_upa)
    comp = composite_angle(g, 0, 0)
    assert comp.mu == pytest.approx(mu_goal, abs=1e-12)

    plan = build_scan_plan(g.irs_upa[0], t2, t2)
    p = 3.0
    obs = synthesize_stage2(g, 0, plan, 0.0, 0, Stage2Mode.CASE1_APPROX, p, joint=True)
    i = int(np.argmin(np.abs(plan.mu_grid - mu_goal)))
    j = int(np.argmin(np.abs(plan.nu_grid - nu_goal)))
    alpha = case1_amplitude(g, 0, 0, p)
    n_r = g.n_irs(0)
    assert obs.grid_values[i, j] == pytest.approx(alpha * n_r**2, rel=1e-10)


def test_synthesis_deterministic_per_seed(single_scene):
    plan = build_scan_plan(single_scene.irs_upa[0], 5, 5)
    for mode in (Stage2Mode.CASE1_APPROX, Stage2Mode.CASE2_APPROX):
        a = synthesize_stage2(single_scene, 0, plan, 1e-11, 5, mode, 1.0)
        b = synthesize_stage2(single_scene, 0, plan, 1e-11, 5, mode, 1.0)
        assert np.array_equal(a.y_values, b.y_values)
        assert np.array_equal(a.z_values, b.z_values)
    c = synthesize_stage2(single_scene, 0, plan, 1e-11, 6, Stage2Mode.CASE1_APPROX, 1.0)
    assert not np.array_equal(a.y_values, c.y_values)


def test_effective_noise_variance_is_scaled(single_scene):
    plan = build_scan_plan(single_scene.irs_upa[0], 5, 5)
    obs = synthesize_stage2(single_scene, 0, plan, 1e-9, 0, Stage2Mode.CASE1_APPROX, 1.0)
    assert obs.noise_var_effective == pytest.approx(single_scene.n_bs * 1e-9)


def test_classify_regime_closed_forms_and_cases(single_scene):
    report = classify_regime(single_scene, 0, 0)
    assert report.regime is Regime.CASE1_IRS_DOMINANT  # 900 elements
    assert report.p1 >= report.p2

    small = SceneGeometry(
        bs=single_scene.bs, irs=single_scene.irs, targets=single_scene.targets,
        bs_upa=UpaConfig(5, 5), irs_upa=[UpaConfig(2, 2)],
    )
    report = classify_regime(small, 0, 0)
    assert report.regime is Regime.CASE2_DIRECT_DOMINANT
    assert report.p1 < 0.1 * report.p2


def test_regime_flip_matches_paper_threshold_when_equidistant():
    # with d_b2t == d_i2t the crossing reduces to sqrt(2)/beta_b2i exactly
    def scene(n_r):
        return SceneGeometry(
            bs=Position3(0, 0, 5), irs=[Position3(-20, 0, 3)], targets=[Position3(-10, 6, 4)],
            bs_upa=UpaConfig(4, 4), irs_upa=[UpaConfig(n_r, 1)],
        )

    g = scene(4)
    assert g.d_b2t(0) == pytest.approx(g.d_i2t(0, 0), rel=1e-12)
    beta = abs(path_gain(PathKind.B2I, g, irs_index=0).value)
    paper_threshold = np.sqrt(2) / beta
    report = classify_regime(g, 0, 0)
    assert report.threshold_nr == pytest.approx(paper_threshold, rel=1e-12)
    lo, hi = int(paper_threshold) - 3, int(paper_threshold) + 3
    flips = [classify_regime(scene(n), 0, 0).regime is Regime.CASE1_IRS_DOMINANT
             for n in range(lo, hi + 1)]
    first_case1 = lo + flips.index(True)
    assert abs(first_case1 - paper_threshold) <= 1.0


def test_scan_estimate_recovers_nearest_node(single_scene):
    plan = build_scan_plan(single_scene.irs_upa[0], 60, 60)
    obs = synthesize_stage2(single_scene, 0, plan, 0.0, 0, Stage2Mode.CASE1_APPROX, 1.0)
    est = scan_estimate(obs, plan, single_scene.bs_irs_aoa(0), 1)[0]
    comp = composite_angle(single_scene, 0, 0)
    aoa = single_scene.bs_irs_aoa(0)
    exp_mu = plan.mu_grid[np.argmin(np.abs(plan.mu_grid - comp.mu))] - aoa.mu
    exp_nu = plan.nu_grid[np.argmin(np.abs(plan.nu_grid - comp.nu))] - aoa.nu
    assert est.mu == pytest.approx(exp_mu, abs=1e-12)
    assert est.nu == pytest.approx(exp_nu, abs=1e-12)


def test_scan_estimate_joint_mode(single_scene):
    plan = build_scan_plan(single_scene.irs_upa[0], 20, 20)
    obs = synthesize_stage2(single_scene, 0, plan, 0.0, 0, Stage2Mode.CASE1_APPROX, 1.0, joint=True)
    est = scan_estimate(obs, plan, single_scene.bs_irs_aoa(0), 1)[0]
    truth = single_scene.irs_target_doa(0, 0)
    step = plan.mu_grid[1] - plan.mu_grid[0]
    assert abs(est.mu - truth.mu) <= step
    assert abs(est.nu - truth.nu) <= step


def test_doubling_beams_never_worsens_worst_case_quantization():
    rng = np.random.default_rng(17)
    for t2 in (5, 9, 16):
        worst = {}
        targets = rng.uniform(-0.95, 0.95, 100)
        for factor in (1, 2):
            grid = np.linspace(-1, 1, t2 * factor)
            errs = [np.min(np.abs(grid - t)) for t in targets]
            worst[factor] = max(errs)
        assert worst[2] <= worst[1] + 1e-12


def test_sequential_multi_target_pairing():
    # Targets placed at mirrored composite angles so both see equal hold-beam
    # gains in each sweep; unequal ranges then let amplitude ordering resolve
    # the 2! pairing.  The z sweep must keep the center hold, otherwise the
    # stronger target's beam buries the weaker one's elevation peak.
    bs, irs = Position3(0, 0, 5), Position3(-20, 0, 3)
    aoa_nu = (irs.z - bs.z) / np.linalg.norm(irs.as_array() - bs.as_array())

    def target_from_composite(comp_mu, comp_nu, d):
        mu_it, nu_it = comp_mu - 0.0, comp_nu - aoa_nu
        x = irs.x + d * np.sqrt(1 - mu_it**2 - nu_it**2)
        return Position3(x, irs.y + mu_it * d, irs.z + nu_it * d)

    g = SceneGeometry(
        bs=bs, irs=[irs],
        targets=[target_from_composite(0.45, -0.35, 7.0),
                 target_from_composite(-0.45, 0.35, 11.0)],
        bs_upa=UpaConfig(8, 8), irs_upa=[UpaConfig(16, 16)],
    )
    plan = build_scan_plan(g.irs_upa[0], 41, 41)
    obs = synthesize_stage2(g, 0, plan, 0.0, 0, Stage2Mode.CASE1_APPROX, 1.0)
    assert obs.best_y_index == plan.hold_y_index
    est = scan_estimate(obs, plan, g.bs_irs_aoa(0), 2)
    step = plan.mu_grid[1] - plan.mu_grid[0]
    for k in range(2):
        truth = g.irs_target_doa(0, k)
        assert any(abs(e.mu - truth.mu) <= step and abs(e.nu - truth.nu) <= step for e in est), k


def test_scan_under_resolved():
    g = random_desk_scene(4)
    plan = build_scan_plan(g.irs_upa[0], 12, 12)
    obs = synthesize_stage2(g, 0, plan, 0.0, 0, Stage2Mode.CASE1_APPROX, 1.0, joint=True)
    with pytest.raises(UnderResolvedError):
        scan_estimate(obs, plan, g.bs_irs_aoa(0), 50)

import tracemalloc
import warnings

import numpy as np
import pytest

from irsloc import (
    InvalidArgumentError,
    Position3,
    Regime,
    ScanObservation,
    SceneGeometry,
    SpatialAnglePair,
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
from irsloc.channel import PathKind, path_gain
from irsloc.stage2 import Stage2Mode, case1_amplitude, case2_amplitude, sequential_codewords

from conftest import random_desk_scene
from oracles import stage2_effective_channel


def test_scan_grid_endpoints_inclusive():
    plan = build_scan_plan(UpaConfig(4, 4), 3, 5)
    assert np.allclose(plan.mu_grid, [-1.0, 0.0, 1.0])
    assert np.allclose(plan.nu_grid, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert plan.hold_z_index == 2


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
    for _ in range(2):  # the cached plan must not swallow the warning
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


def _scalar_noise(rng, samples, eff_var):
    """One sweep's matched-filter noise: all real draws, then all imaginary draws."""
    return np.sqrt(eff_var / 2.0) * (rng.standard_normal(samples) + 1j * rng.standard_normal(samples))


def _dense_full_echo(g, plan, p, sweeps, noise_var, seed):
    """Oracle: a^H sum_k H_eff,k(theta) w_BS per codeword of each (y_idx, z_idx)
    sweep, plus the matched-filter noise a^H n ~ CN(0, N_BS sigma^2) drawn as
    scalars (all real parts of a sweep, then all imaginary parts)."""
    rng = np.random.default_rng(seed)
    a_irs = upa_response(g.bs_irs_aod(0), g.bs_upa)
    w_bs = np.sqrt(p / g.n_bs) * np.conj(a_irs)
    out = []
    for y_idx, z_idx in sweeps:
        vals = []
        for i, j in zip(y_idx, z_idx):
            theta = np.kron(plan.codebook_y[:, i], plan.codebook_z[:, j])
            h = sum(stage2_effective_channel(g, 0, k, theta) for k in range(len(g.targets)))
            vals.append(np.conj(a_irs) @ h @ w_bs)
        vals = np.array(vals)
        if noise_var > 0:
            vals += _scalar_noise(rng, len(vals), g.n_bs * noise_var)
        out.append(vals)
    return np.concatenate(out)


@pytest.mark.parametrize("noise_var", [0.0, 1e-12])
def test_full_echo_matches_dense_oracle(noise_var):
    base = random_desk_scene(23, max_side=5)
    g = SceneGeometry(bs=base.bs, irs=base.irs, bs_upa=base.bs_upa, irs_upa=base.irs_upa,
                      targets=[base.targets[0], Position3(-9.0, -4.0, 1.5)])
    plan = build_scan_plan(g.irs_upa[0], 5, 4)
    p, seed = 2.0, 31
    joint = synthesize_stage2(g, 0, plan, noise_var, seed, Stage2Mode.FULL_ECHO, p, joint=True)
    ii, jj = np.meshgrid(np.arange(plan.t2_y), np.arange(plan.t2_z), indexing="ij")
    expected = _dense_full_echo(g, plan, p, [(ii.ravel(), jj.ravel())], noise_var, seed)
    np.testing.assert_allclose(joint.grid_values.ravel(), expected, rtol=1e-10, atol=0)

    seq = synthesize_stage2(g, 0, plan, noise_var, seed, Stage2Mode.FULL_ECHO, p)
    # the z sweep holds the y sweep's strongest beam, read here off the oracle's own y sweep
    y_sweep = _dense_full_echo(g, plan, p, [(range(plan.t2_y), [plan.hold_z_index] * plan.t2_y)],
                               noise_var, seed)
    hold_y = int(np.argmax(np.abs(y_sweep) ** 2))
    sweeps = [(range(plan.t2_y), [plan.hold_z_index] * plan.t2_y),
              ([hold_y] * plan.t2_z, range(plan.t2_z))]
    expected = _dense_full_echo(g, plan, p, sweeps, noise_var, seed)
    np.testing.assert_allclose(np.concatenate([seq.y_values, seq.z_values]), expected,
                               rtol=1e-10, atol=0)


@pytest.mark.parametrize("joint", [True, False], ids=["joint", "sequential"])
@pytest.mark.parametrize("mode", list(Stage2Mode), ids=lambda m: m.value)
def test_noise_is_one_scalar_draw_per_sample_in_every_mode(mode, joint):
    # a^H n with n ~ CN(0, sigma^2 I) is CN(0, N_BS sigma^2): every mode draws it
    # directly from a fresh generator, sweep by sweep, so the noise is mode-free
    g = random_desk_scene(29)
    plan = build_scan_plan(g.irs_upa[0], 60, 60)
    p, noise_var, seed = 2.0, 1e-3, 41
    eff_var = g.n_bs * noise_var
    clean = synthesize_stage2(g, 0, plan, 0.0, seed, mode, p, joint=True).grid_values
    obs = synthesize_stage2(g, 0, plan, noise_var, seed, mode, p, joint=joint)
    rng = np.random.default_rng(seed)
    if joint:
        got, expected = (obs.grid_values - clean).ravel(), _scalar_noise(rng, clean.size, eff_var)
        assert abs(np.mean(np.abs(got) ** 2) / eff_var - 1.0) < 0.1  # 3600 samples
    else:
        y_noise = _scalar_noise(rng, plan.t2_y, eff_var)
        z_noise = _scalar_noise(rng, plan.t2_z, eff_var)
        y_clean = clean[:, plan.hold_z_index]
        hold_y = int(np.argmax(np.abs(obs.y_values) ** 2))  # one target: z holds the y-sweep peak
        got = np.concatenate([obs.y_values - y_clean, obs.z_values - clean[hold_y]])
        expected = np.concatenate([y_noise, z_noise])
    scale = np.max(np.abs(clean)) + np.max(np.abs(expected))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("samples", [1, 63, 64, 65, 131])
def test_full_echo_noise_matches_one_shot_draws_across_chunks(samples):
    # sweeps of any length, a single sample and counts around a power of two
    # included, take their noise from one real and one imaginary draw call
    g = random_desk_scene(29)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a one-beam axis warns
        plan = build_scan_plan(g.irs_upa[0], samples, 1)
    p, noise_var, seed = 2.0, 1e-3, 41
    clean = synthesize_stage2(g, 0, plan, 0.0, seed, Stage2Mode.FULL_ECHO, p, joint=True)
    noisy = synthesize_stage2(g, 0, plan, noise_var, seed, Stage2Mode.FULL_ECHO, p, joint=True)
    expected = _scalar_noise(np.random.default_rng(seed), samples, g.n_bs * noise_var)
    np.testing.assert_allclose((noisy.grid_values - clean.grid_values).ravel(), expected,
                               rtol=0, atol=1e-12 * np.max(np.abs(expected)))


def test_full_echo_noise_filter_allocates_no_dense_draw_matrix(single_scene):
    # flagship 400-element BS, 30x30 joint scan: the complex 900x400 draw matrix
    # alone would take 5.8 MB
    plan = build_scan_plan(single_scene.irs_upa[0], 30, 30)
    args = (single_scene, 0, plan, 1e-11, 3, Stage2Mode.FULL_ECHO, 1.0)
    synthesize_stage2(*args, joint=True)
    tracemalloc.start()
    try:
        synthesize_stage2(*args, joint=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


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
    beta = abs(path_gain(PathKind.B2I, g, irs_index=0))
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


def _sweep_estimate(y_power, z_power, k, hold_y=None):
    """scan_estimate on hand-built sweeps of a 7x5-beam plan, sent by the sequential codewords
    whose z sweep holds hold_y (by default the y-sweep peak), as (y beam, z beam) pairs."""
    plan = build_scan_plan(UpaConfig(4, 4), 7, 5)
    y_values = np.sqrt(np.array(y_power, float))
    hold_y = int(np.argmax(y_values)) if hold_y is None else hold_y
    obs = ScanObservation(sequential_codewords(plan, hold_y), y_values=y_values,
                          z_values=np.sqrt(np.array(z_power, float)))
    est = scan_estimate(obs, plan, SpatialAnglePair(0.0, 0.0), k)
    mu, nu = list(plan.mu_grid), list(plan.nu_grid)
    return [(mu.index(e.mu), nu.index(e.nu)) for e in est]


def test_sequential_estimate_on_hand_built_sweeps():
    # equal-power peaks go to the lowest beam index
    assert _sweep_estimate([0, 1, 0, 0, 1, 0, 0], [2, 0, 0, 0, 2], 1) == [(1, 0)]
    # the y beam is the one the z sweep held, read off the codewords, not the y sweep
    assert _sweep_estimate([0, 1, 0, 0, 1, 0, 0], [0, 0, 3, 0, 1], 1, hold_y=5) == [(5, 2)]
    # two sweeps cannot pair several targets' peaks, so they resolve one target only
    for y_power, z_power in (([0, 3, 3, 0, 0, 1, 0], [0, 4, 0, 1, 0]),
                             ([0, 1, 0, 0, 3, 0, 0], [5, 0, 0, 2, 0]),
                             ([0, 1, 2, 3, 4, 5, 6], [1, 0, 0, 0, 1])):
        with pytest.raises(InvalidArgumentError, match="one target"):
            _sweep_estimate(y_power, z_power, 2)


def test_scan_under_resolved():
    g = random_desk_scene(4)
    plan = build_scan_plan(g.irs_upa[0], 12, 12)
    obs = synthesize_stage2(g, 0, plan, 0.0, 0, Stage2Mode.CASE1_APPROX, 1.0, joint=True)
    with pytest.raises(UnderResolvedError):
        scan_estimate(obs, plan, g.bs_irs_aoa(0), 50)

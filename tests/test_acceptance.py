"""End-to-end acceptance gate, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole file takes a few minutes.
"""

import numpy as np
import pytest

from irsloc import (
    ExperimentConfig,
    Position3,
    SceneGeometry,
    SpatialAnglePair,
    UpaConfig,
    build_scan_plan,
    cascade_power_closed_form,
    cascade_scalar,
    channel_b2i,
    channel_bti,
    channel_iti,
    classify_regime,
    construct_location,
    dbm_to_watts,
    dft_codebook,
    fim_stage1,
    fim_stage1_white,
    fim_stage2,
    fim_stage2_case1,
    fim_stage2_case2,
    match_and_localize,
    matched_theta,
    music_estimate,
    run_experiment,
    sample_covariance,
    scan_estimate,
    spatial_doa,
    stage1_echo,
    stage2_model,
    steering_derivative,
    steering_vector,
    synthesize_stage1,
    synthesize_stage2,
    trial_seed,
    upa_response,
    upa_response_derivatives,
)
from irsloc.channel import PathKind, path_gain
from irsloc.crb import SINGULARITY_EIG_RATIO
from irsloc.localization import DoAPairObservation
from irsloc.stage2 import (
    Regime,
    Stage2Mode,
    case1_amplitude,
    case2_amplitude,
    composite_angle,
    sequential_codewords,
)

from conftest import random_desk_scene
from oracles import (correlation_eig_ratio, fim_finite_difference_oracle, repeated_codeword_witness,
                     stage1_mean_builder, stage2_case1_mean_builder, stage2_case2_mean_builder,
                     stage2_full_mean_builder)

NOISE_VAR = dbm_to_watts(-80.0)


def report(number, name):
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def flagship_scene():
    return SceneGeometry(
        bs=Position3(0.0, 0.0, 5.0), irs=[Position3(-20.0, 0.0, 3.0)],
        targets=[Position3(-20.0, 2.0, 0.0)],
        bs_upa=UpaConfig(20, 20), irs_upa=[UpaConfig(30, 30)],
    )


def three_target_scene():
    return SceneGeometry(
        bs=Position3(0.0, 0.0, 5.0),
        irs=[Position3(-20.0, 0.0, 3.0), Position3(-10.0, 0.0, 3.0), Position3(-5.0, 0.0, 3.0)],
        targets=[Position3(-10.0, 10.0, 0.0), Position3(-20.0, 2.0, 0.0), Position3(-5.0, 10.0, 0.0)],
        bs_upa=UpaConfig(20, 20), irs_upa=[UpaConfig(30, 30)] * 3,
    )


def test_criterion_1_optimal_waveform_diagonality():
    g = flagship_scene()
    p, t1 = 1.0, 24
    white = np.sqrt(p * t1 / g.n_bs) * np.eye(g.n_bs, dtype=complex)
    dense = fim_stage1(g, white, NOISE_VAR)
    closed = fim_stage1_white(g, p, t1, NOISE_VAR)
    diag = np.diag(dense.matrix)
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(dense.matrix[i, j]) < 1e-10 * np.sqrt(diag[i] * diag[j]), (i, j)
    assert dense.matrix[0, 0] == pytest.approx(closed.matrix[0, 0], rel=1e-10)
    assert dense.matrix[1, 1] == pytest.approx(closed.matrix[1, 1], rel=1e-10)
    assert dense.matrix[2, 2] == pytest.approx(closed.matrix[2, 2], rel=1e-10)
    report(1, "white probing gives the diagonal closed-form information matrix")


def test_criterion_2_fim_oracle_equivalence():
    worst = {"stage1": 0.0, "case1": 0.0, "case2": 0.0, "full": 0.0}
    for seed in range(20):
        g = random_desk_scene(seed, max_side=8)
        t1 = 10
        r = np.random.default_rng(1000 + seed)
        w = (r.standard_normal((g.n_bs, t1)) + 1j * r.standard_normal((g.n_bs, t1))) / np.sqrt(2)
        noise = float(r.uniform(0.2, 2.0))
        closed = fim_stage1(g, w, noise)
        beta = path_gain(PathKind.BTB, g, target_index=0)
        doa = g.bs_target_doa(0)
        fd = fim_finite_difference_oracle(
            stage1_mean_builder(g, w), noise,
            np.array([doa.mu, doa.nu, beta.real, beta.imag]),
            h=np.array([1e-5, 1e-5, 1e-6, 1e-6]))
        worst["stage1"] = max(worst["stage1"],
                              np.linalg.norm(closed.matrix - fd.matrix) / np.linalg.norm(closed.matrix))

        words = [np.exp(1j * r.uniform(0, 2 * np.pi, g.n_irs(0))) for _ in range(6)]
        c1 = fim_stage2_case1(g, 0, 0, words, noise, 2.0)
        alpha = case1_amplitude(g, 0, 0, 2.0)
        comp = composite_angle(g, 0, 0)
        h_a = max(abs(alpha) * 1e-6, 1e-12)
        fd1 = fim_finite_difference_oracle(
            stage2_case1_mean_builder(g, 0, words), noise * g.n_bs,
            np.array([comp.mu, comp.nu, alpha.real, alpha.imag]),
            h=np.array([1e-5, 1e-5, h_a, h_a]))
        worst["case1"] = max(worst["case1"],
                             np.linalg.norm(c1.matrix - fd1.matrix) / np.linalg.norm(c1.matrix))

        c2 = fim_stage2_case2(g, 0, 0, words, noise, 2.0)
        alpha_t, b = case2_amplitude(g, 0, 0, 2.0)
        gamma = alpha_t * b
        h_g = max(abs(gamma) * 1e-6, 1e-12)
        fd2 = fim_finite_difference_oracle(
            stage2_case2_mean_builder(g, 0, words), noise * g.n_bs,
            np.array([comp.mu, comp.nu, gamma.real, gamma.imag]),
            h=np.array([1e-5, 1e-5, h_g, h_g]))
        worst["case2"] = max(worst["case2"],
                             np.linalg.norm(c2.matrix - fd2.matrix) / np.linalg.norm(c2.matrix))

        full = fim_stage2(g, 0, 0, words, noise, Stage2Mode.FULL_ECHO, 2.0)
        fd3 = fim_finite_difference_oracle(
            stage2_full_mean_builder(g, 0, words), noise * g.n_bs,
            np.array([comp.mu, comp.nu, alpha.real, alpha.imag, gamma.real, gamma.imag]),
            h=np.array([1e-5, 1e-5, h_a, h_a, h_g, h_g]))
        worst["full"] = max(worst["full"],
                            np.linalg.norm(full.matrix - fd3.matrix) / np.linalg.norm(full.matrix))
    for key, value in worst.items():
        assert value <= 1e-4, (key, value)
    report(2, f"closed-form FIMs match the finite-difference oracle, worst {max(worst.values()):.2e}")


def test_criterion_3_single_beam_singularity():
    g = flagship_scene()
    r = np.random.default_rng(5)
    w0 = np.exp(1j * r.uniform(0, 2 * np.pi, g.n_irs(0)))
    t2 = 8
    repeated = fim_stage2_case1(g, 0, 0, [w0] * t2, NOISE_VAR, 1.0)
    diag = np.diag(repeated.matrix)
    assert abs(repeated.determinant) <= 1e-8 * float(np.prod(diag))
    assert repeated.singular and np.all(np.isinf(repeated.crb_diag))
    wit = repeated_codeword_witness(g, 0, 0, [w0] * t2, NOISE_VAR, 1.0)
    assert wit.f11f22_minus_f12f21_norm <= 1e-9 * wit.block_product_norm

    plan = build_scan_plan(g.irs_upa[0], 3, 3)
    multi = fim_stage2_case1(g, 0, 0, sequential_codewords(plan, (plan.t2_y - 1) // 2),
                             NOISE_VAR, 1.0)
    assert not multi.singular and np.isfinite(multi.crb("mu"))
    # the eigenvalue ratio of a singular FIM is rounding (|r| ~ 1e-16); this scene's three-beam
    # FIM is itself ill-conditioned (r ~ 2e-8), so it is held against the singularity threshold
    blind, seen = correlation_eig_ratio(repeated.matrix), correlation_eig_ratio(multi.matrix)
    assert blind < SINGULARITY_EIG_RATIO
    assert seen >= 1e4 * SINGULARITY_EIG_RATIO
    report(3, f"one beam is blind (det ~ 0, CRB inf, eigenvalue ratio {blind:.1e}); "
              f"three beams lift the ratio to {seen:.1e}")


def test_criterion_4_reflected_link_power_identities():
    worst = 0.0
    for seed in range(200):
        g = random_desk_scene(seed, max_side=5)
        b_in = upa_response(g.bs_irs_aoa(0), g.irs_upa[0])
        b_out = upa_response(g.irs_target_doa(0, 0), g.irs_upa[0])
        theta = matched_theta(b_in, b_out)
        assert abs(cascade_scalar(theta, b_in, b_out) - g.n_irs(0)) < 1e-9 * g.n_irs(0)
        d = np.diag(theta)
        h_b2i = channel_b2i(g, 0)
        h_iti = channel_iti(g, 0, 0)
        h_bti = channel_bti(g, 0, 0)
        p1_brute = np.linalg.norm(h_b2i.T @ d @ h_iti @ d @ h_b2i, "fro") ** 2
        p2_brute = 2 * np.linalg.norm(h_b2i.T @ d @ h_bti, "fro") ** 2
        p1, p2 = cascade_power_closed_form(g, 0, 0)
        worst = max(worst, abs(p1_brute - p1) / p1, abs(p2_brute - p2) / p2)
    assert worst <= 1e-10

    # regime flip: target equidistant from BS and surface, where the
    # element-count threshold reduces exactly to sqrt(2)/beta_b2i
    def scene(n_r):
        return SceneGeometry(
            bs=Position3(0, 0, 5), irs=[Position3(-20, 0, 3)], targets=[Position3(-10, 6, 4)],
            bs_upa=UpaConfig(4, 4), irs_upa=[UpaConfig(n_r, 1)],
        )

    g0 = scene(4)
    assert g0.d_b2t(0) == pytest.approx(g0.d_i2t(0, 0), rel=1e-12)
    beta = abs(path_gain(PathKind.B2I, g0, irs_index=0))
    threshold = np.sqrt(2.0) / beta
    lo = int(threshold) - 4
    flips = [classify_regime(scene(n), 0, 0).regime is Regime.CASE1_IRS_DOMINANT
             for n in range(lo, lo + 9)]
    assert any(flips) and not all(flips)
    first_case1 = lo + flips.index(True)
    assert abs(first_case1 - threshold) <= 1.0
    report(4, f"cascade powers match brute force (worst {worst:.1e}); "
              f"regime flips at {first_case1} vs threshold {threshold:.1f}")


def test_criterion_5_geometric_round_trip():
    base = flagship_scene()
    est = construct_location(
        DoAPairObservation(base.bs_target_doa(0), base.irs_target_doa(0, 0), 0), base)
    err_ref = np.linalg.norm(est.position.as_array() - np.array([-20.0, 2.0, 0.0]))
    assert err_ref < 1e-9

    r = np.random.default_rng(0)
    count, worst = 0, 0.0
    while count < 1000:
        tgt = Position3(float(r.uniform(-30, 10)), float(r.uniform(-15, 15)),
                        float(r.uniform(-5, 8)))
        g = SceneGeometry(bs=base.bs, irs=base.irs, targets=[tgt],
                          bs_upa=UpaConfig(4, 4), irs_upa=[UpaConfig(4, 4)])
        bs_doa = g.bs_target_doa(0)
        irs_doa = g.irs_target_doa(0, 0)
        if abs(irs_doa.mu * bs_doa.nu - bs_doa.mu * irs_doa.nu) < 1e-3:
            continue
        est = construct_location(DoAPairObservation(bs_doa, irs_doa, 0), g)
        worst = max(worst, float(np.linalg.norm(est.position.as_array() - tgt.as_array())))
        count += 1
    assert worst < 1e-8
    report(5, f"1000-scene round trip worst error {worst:.1e} m; reference target {err_ref:.1e} m")


def test_criterion_6_three_target_doa_reproduction():
    g = three_target_scene()
    p = dbm_to_watts(30.0)
    t1 = 60

    listed_bs = [(0.8165, -0.4082), (0.6667, -0.3333), (0.0966, -0.2414)]
    listed_irs = [(0.6917, -0.2075), (0.5547, -0.8321), (0.5472, -0.1642)]

    probing = dft_codebook(g.n_bs, t1, p)
    block = synthesize_stage1(stage1_echo(g, probing), NOISE_VAR, trial_seed(61, 0, 0))
    music = music_estimate(sample_covariance(block), g.bs_upa, 3, 2e-3, refine_levels=1)
    music_step = 2e-3
    for mu, nu in listed_bs:
        best = min(abs(a.mu - mu) + abs(a.nu - nu) for a in music.angles)
        match = min(music.angles, key=lambda a: abs(a.mu - mu) + abs(a.nu - nu))
        assert abs(match.mu - mu) <= music_step + 1e-4, (mu, nu, best)
        assert abs(match.nu - nu) <= music_step + 1e-4, (mu, nu, best)

    plan = build_scan_plan(g.irs_upa[0], 30, 30)
    obs = synthesize_stage2(g, plan, stage2_model(g, 0, plan, Stage2Mode.CASE1_APPROX, p),
                            NOISE_VAR, trial_seed(61, 1, 0), joint=True)
    scans = scan_estimate(obs, plan, g.bs_irs_aoa(0), 3)
    scan_step = float(plan.mu_grid[1] - plan.mu_grid[0])
    for mu, nu in listed_irs:
        match = min(scans, key=lambda a: abs(a.mu - mu) + abs(a.nu - nu))
        assert abs(match.mu - mu) <= scan_step + 1e-4, (mu, nu)
        assert abs(match.nu - nu) <= scan_step + 1e-4, (mu, nu)
    report(6, "three-target subspace and scan DoAs land within one grid step of the references")


def test_criterion_7_submeter_localization_and_power_curve():
    scene = flagship_scene()
    config = ExperimentConfig(scene=scene, p_bs_dbm_sweep=[30.0], t1=60, t2_y=60, t2_z=60,
                              trials=200, base_seed=20240601)
    rows = run_experiment(config)
    rmse_30 = rows[0]["rmse_q"]
    assert rows[0]["trials_failed"] == 0
    assert rmse_30 < 1.0

    sweep = ExperimentConfig(scene=scene, p_bs_dbm_sweep=[float(x) for x in range(-10, 45, 5)],
                             t1=60, t2_y=60, t2_z=60, trials=48, base_seed=777)
    curve = run_experiment(sweep)
    usable = [(r["p_bs_dbm"], r["rmse_q"]) for r in curve
              if r["trials_failed"] < r["trials"] / 2 and np.isfinite(r["rmse_q"])]
    assert len(usable) >= 6
    values = [v for _, v in usable]
    for older, newer in zip(values, values[1:]):
        assert newer <= 1.10 * older, usable
    assert values[-1] <= 0.5 * values[0]
    assert abs(values[-1] / values[-2] - 1.0) <= 0.10
    report(7, f"200-trial location RMSE {rmse_30:.3f} m at 30 dBm; "
              "curve decreases then holds within the 10% band")


def test_criterion_8_music_rmse_approaches_the_bound():
    # T1 = N_BS makes the DFT probe exactly spatially white, the setting the
    # bound assumes; the sweep bottom sits in the subspace-swap breakdown
    # region so the low-power gap is visible despite the 52 dB array gain.
    scene = flagship_scene()
    t1 = scene.n_bs
    true_doa = scene.bs_target_doa(0)
    ratios = {}
    for p_dbm, trials in ((-20.0, 100), (40.0, 100)):
        p = dbm_to_watts(p_dbm)
        probing = dft_codebook(scene.n_bs, t1, p)
        errs = []
        for t in range(trials):
            block = synthesize_stage1(stage1_echo(scene, probing), NOISE_VAR,
                                      trial_seed(88, int(p_dbm) & 63, t))
            est = music_estimate(sample_covariance(block), scene.bs_upa, 1, 2e-3,
                                 refine_levels=3)
            errs.append([est.angles[0].mu - true_doa.mu, est.angles[0].nu - true_doa.nu])
        rmse = np.sqrt(np.mean(np.square(errs), axis=0))
        bound = fim_stage1_white(scene, p, t1, NOISE_VAR)
        ratios[p_dbm] = (rmse[0] / np.sqrt(bound.crb("mu_b2t")),
                         rmse[1] / np.sqrt(bound.crb("nu_b2t")))
    assert ratios[40.0][0] <= 3.0 and ratios[40.0][1] <= 3.0, ratios
    assert min(ratios[-20.0]) > max(ratios[40.0]), ratios
    report(8, f"RMSE/sqrt(CRB) = ({ratios[40.0][0]:.2f}, {ratios[40.0][1]:.2f}) at the "
              f"top of the sweep vs ({ratios[-20.0][0]:.2f}, {ratios[-20.0][1]:.2f}) at the bottom")


def test_criterion_9_property_suites():
    rng = np.random.default_rng(99)

    # steering identities
    for _ in range(20):
        phi, n = float(rng.uniform(-2, 2)), int(rng.integers(1, 33))
        u = steering_vector(phi, n)
        assert abs(np.vdot(u, u).real - n) <= 1e-12 * n
        sign = -1.0 if n % 2 == 0 else 1.0
        assert np.allclose(steering_vector(phi + 2, n), sign * u, atol=1e-9)
        du = steering_derivative(phi, n)
        fd = (steering_vector(phi + 1e-6, n) - steering_vector(phi - 1e-6, n)) / 2e-6
        assert np.max(np.abs(du - fd)) < 1e-6

    # planar-array derivative orthogonality
    for _ in range(10):
        cfg = UpaConfig(int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        ang = SpatialAnglePair(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        a = upa_response(ang, cfg)
        da_mu, da_nu = upa_response_derivatives(ang, cfg)
        assert abs(np.vdot(da_mu, da_nu)) < 1e-10 * np.linalg.norm(da_mu) * np.linalg.norm(da_nu)
        assert abs(np.vdot(da_mu, a)) < 1e-10 * np.linalg.norm(da_mu) * np.linalg.norm(a)

    # coherent-gain bound and codeword modulus
    g = random_desk_scene(123)
    n_r = g.n_irs(0)
    b_in = upa_response(g.bs_irs_aoa(0), g.irs_upa[0])
    b_out = upa_response(g.irs_target_doa(0, 0), g.irs_upa[0])
    for _ in range(30):
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, n_r))
        assert abs(cascade_scalar(theta, b_in, b_out)) <= n_r + 1e-9
    plan = build_scan_plan(g.irs_upa[0], 9, 9)
    assert np.max(np.abs(np.abs(plan.codebook_y) - 1.0)) < 1e-15

    # seed determinism end to end
    probing = dft_codebook(g.n_bs, 12, 1.0)
    b1 = synthesize_stage1(stage1_echo(g, probing), 1e-6, 5)
    b2 = synthesize_stage1(stage1_echo(g, probing), 1e-6, 5)
    assert np.array_equal(b1, b2)
    model = stage2_model(g, 0, plan, Stage2Mode.CASE1_APPROX, 1.0)
    o1 = synthesize_stage2(g, plan, model, 1e-9, 6)
    o2 = synthesize_stage2(g, plan, model, 1e-9, 6)
    assert np.array_equal(o1.y_values, o2.y_values)

    # matching permutation invariance
    g3 = three_target_scene()
    bs = [g3.bs_target_doa(k) for k in range(3)]
    irs = {m: [g3.irs_target_doa(m, k) for k in range(3)] for m in range(3)}
    merged = match_and_localize(bs, irs, g3)
    shuffled = {m: [irs[m][i] for i in np.random.default_rng(1).permutation(3)] for m in irs}
    merged_shuffled = match_and_localize(bs, shuffled, g3)
    assert np.allclose(merged, merged_shuffled, atol=1e-9)

    # round-trip consistency of the geometry inversion
    est = construct_location(DoAPairObservation(bs[0], irs[0][0], 0), g3)
    back = spatial_doa(g3.bs, est.position)
    assert back.mu == pytest.approx(bs[0].mu, abs=1e-9)
    report(9, "module invariant sweep (identities, bounds, determinism, matching)")

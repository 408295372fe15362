from dataclasses import replace

import numpy as np
import pytest

from irsloc import (
    Position3,
    crb_trace_stage1,
    dft_codebook,
    fim_stage1,
    fim_stage1_white,
    fim_stage2,
    fim_stage2_case1,
    fim_stage2_case2,
    UpaConfig,
    upa_response,
    upa_response_derivatives,
)
from irsloc.channel import PathKind, path_gain
from irsloc.errors import InvalidArgumentError
from irsloc.stage2 import (
    KroneckerCodewords,
    Stage2Mode,
    build_scan_plan,
    case1_amplitude,
    case2_amplitude,
    composite_angle,
    joint_codewords,
    sequential_codewords,
    stage2_model,
    synthesize_stage2,
)

from conftest import random_desk_scene
from oracles import (OracleFailureError, fim_finite_difference_oracle, repeated_codeword_witness,
                     stage1_mean_builder, stage2_case1_mean_builder, stage2_case2_mean_builder)


def fim_stage2_full(geometry, irs_index, target_index, irs_codewords, noise_var, p_bs_watts=1.0):
    return fim_stage2(geometry, irs_index, target_index, irs_codewords, noise_var,
                      Stage2Mode.FULL_ECHO, p_bs_watts)


STAGE2_FIMS = [fim_stage2_case1, fim_stage2_case2, fim_stage2_full]


def white_cov(n, p):
    return (p / n) * np.eye(n, dtype=complex)


def white_probing(n, p, t1):
    """A codebook W with W W^H / t1 = (p / n) I."""
    return np.sqrt(p * t1 / n) * np.eye(n, dtype=complex)


def random_probing(n, t1, seed):
    r = np.random.default_rng(seed)
    return (r.standard_normal((n, t1)) + 1j * r.standard_normal((n, t1))) / np.sqrt(2)


def random_codewords(n, count, seed):
    r = np.random.default_rng(seed)
    return [np.exp(1j * r.uniform(0, 2 * np.pi, n)) for _ in range(count)]


def test_white_probing_fim_is_diagonal():
    g = random_desk_scene(0)
    p, t1, noise = 2.0, 10, 0.3
    dense = fim_stage1(g, white_probing(g.n_bs, p, t1), noise)
    closed = fim_stage1_white(g, p, t1, noise)
    diag = np.diag(dense.matrix)
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(dense.matrix[i, j]) < 1e-10 * np.sqrt(diag[i] * diag[j])
    assert np.allclose(dense.matrix, closed.matrix, rtol=1e-10)


def test_white_fim_mu_entry_closed_form():
    g = random_desk_scene(5)
    p, t1, noise = 1.7, 8, 0.9
    beta = path_gain(PathKind.BTB, g, target_index=0)
    n_y, n_z = g.bs_upa.n_y, g.bs_upa.n_z
    expected = (abs(beta) ** 2 * t1 * p * np.pi**2 * n_z / noise
                * sum((n_y - 2 * k + 1) ** 2 for k in range(1, n_y + 1)))
    got = fim_stage1_white(g, p, t1, noise).matrix[0, 0]
    assert got == pytest.approx(expected, rel=1e-12)


def test_fim_scales_linearly_with_power():
    # every mean is linear in the transmit amplitude, so each angle CRB scales as 1/P
    g = random_desk_scene(1)
    t1, noise = 12, 0.5
    f1 = fim_stage1(g, white_probing(g.n_bs, 1.0, t1), noise)
    f10 = fim_stage1(g, white_probing(g.n_bs, 10.0, t1), noise)
    assert np.allclose(f10.crb_diag, f1.crb_diag / 10.0, rtol=1e-9)
    # stage 2: the gain parameters carry the amplitude, so F(10 P) = S F(P) S with
    # S = sqrt(10) on the two angles and 1 on the gains of every echo term the mode keeps
    words = joint_codewords(build_scan_plan(g.irs_upa[0], 5, 5))
    for fim, n_gains in zip(STAGE2_FIMS, (2, 2, 4)):
        f1, f10 = (fim(g, 0, 0, words, noise, p) for p in (1.0, 10.0))
        scale = np.r_[np.sqrt(10.0), np.sqrt(10.0), np.ones(n_gains)]
        assert np.allclose(f10.matrix, scale[:, None] * f1.matrix * scale, rtol=1e-9, atol=0)
        assert not f1.singular and not f10.singular
        assert np.allclose(f10.crb_diag[:2], f1.crb_diag[:2] / 10.0, rtol=1e-9)


def test_diagonal_fim_trace_is_sum_of_reciprocals():
    g = random_desk_scene(2)
    p, t1, noise = 3.0, 6, 0.2
    closed = fim_stage1_white(g, p, t1, noise)
    trace = crb_trace_stage1(g, white_probing(g.n_bs, p, t1), noise)
    assert trace == pytest.approx(float(np.sum(1.0 / np.diag(closed.matrix))), rel=1e-9)


def test_white_probing_maximizes_worst_case_information():
    # The optimal-waveform result's max-min content: over unit-trace PSD weightings E,
    # min tr(R E) = lambda_min(R), and the white covariance is the unique
    # trace-P maximizer at P/N.  (The pointwise fixed-direction CRB trace is
    # NOT minimized by white: beamforming at a known direction beats it.)
    n, p = 16, 2.0
    white_floor = np.linalg.eigvalsh(white_cov(n, p))[0]
    assert white_floor == pytest.approx(p / n, rel=1e-12)
    for seed in range(25):
        r = np.random.default_rng(seed)
        x = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
        cov = x @ x.conj().T
        cov *= p / np.trace(cov).real
        assert np.linalg.eigvalsh(cov)[0] < white_floor


def test_stage1_fim_matches_fd_oracle():
    for seed in range(5):
        g = random_desk_scene(seed + 30)
        t1 = 10
        w = random_probing(g.n_bs, t1, seed)
        noise = 0.7
        closed = fim_stage1(g, w, noise)
        beta = path_gain(PathKind.BTB, g, target_index=0)
        doa = g.bs_target_doa(0)
        fd = fim_finite_difference_oracle(
            stage1_mean_builder(g, w), noise,
            np.array([doa.mu, doa.nu, beta.real, beta.imag]),
            h=np.array([1e-5, 1e-5, 1e-6, 1e-6]))
        rel = np.linalg.norm(closed.matrix - fd.matrix) / np.linalg.norm(closed.matrix)
        assert rel < 1e-4


def dense_fim_stage1(g, r, t1, noise_var):
    """The stage-1 FIM from dense N_BS x N_BS trace products in R: the oracle for the Jacobian form."""
    beta = path_gain(PathKind.BTB, g, target_index=0)
    doa = g.bs_target_doa(0)
    a = upa_response(doa, g.bs_upa)
    da_mu, da_nu = upa_response_derivatives(doa, g.bs_upa)
    a_mat = np.outer(a, a)
    ad_mu = np.outer(da_mu, a) + np.outer(a, da_mu)
    ad_nu = np.outer(da_nu, a) + np.outer(a, da_nu)
    c = 2.0 * t1 / noise_var
    ab2 = abs(beta) ** 2

    def tr(x, y):
        return complex(np.trace(x @ r @ y.conj().T))

    f = np.zeros((4, 4))
    f[0, 0] = c * ab2 * tr(ad_mu, ad_mu).real
    f[1, 1] = c * ab2 * tr(ad_nu, ad_nu).real
    f[0, 1] = f[1, 0] = c * ab2 * tr(ad_nu, ad_mu).real
    z_mu = np.conj(beta) * tr(a_mat, ad_mu)
    z_nu = np.conj(beta) * tr(a_mat, ad_nu)
    f[0, 2:] = c * np.array([z_mu.real, -z_mu.imag])
    f[1, 2:] = c * np.array([z_nu.real, -z_nu.imag])
    f[2:, 0] = f[0, 2:]
    f[2:, 1] = f[1, 2:]
    f[2:, 2:] = c * tr(a_mat, a_mat).real * np.eye(2)
    return f


def random_psd_factor(n, t1, seed):
    """W with W W^H / t1 = X X^H / n, a random PSD coherence."""
    r = np.random.default_rng(seed)
    x = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
    return np.sqrt(t1) * x / np.sqrt(n)


@pytest.mark.parametrize("coherence", ["dft_t1_below_n", "random_psd"])
def test_stage1_fim_matches_dense_trace_oracle(single_scene, coherence):
    for seed in range(3):
        g = single_scene if seed == 0 else random_desk_scene(seed + 50)
        t1 = 60 if seed == 0 else 5
        if coherence == "dft_t1_below_n":
            w = dft_codebook(g.n_bs, t1, 0.1 * (seed + 1))
        else:
            w = random_psd_factor(g.n_bs, t1, seed)
        r = w @ w.conj().T / t1
        noise = 1e-11 if seed == 0 else 0.4
        got = fim_stage1(g, w, noise).matrix
        want = dense_fim_stage1(g, r, t1, noise)
        np.testing.assert_allclose(np.diag(got), np.diag(want), rtol=1e-12)
        # entries carry mixed units, so compare the correlation-normalized matrix
        d = 1.0 / np.sqrt(np.diag(want))
        np.testing.assert_allclose(d[:, None] * got * d, d[:, None] * want * d,
                                   rtol=1e-12, atol=1e-12)


def test_stage2_case1_fim_matches_fd_oracle():
    for seed in range(5):
        g = random_desk_scene(seed + 40)
        words = random_codewords(g.n_irs(0), 6, seed)
        noise, p = 0.5, 2.0
        closed = fim_stage2_case1(g, 0, 0, words, noise, p)
        alpha = case1_amplitude(g, 0, 0, p)
        comp = composite_angle(g, 0, 0)
        scale = max(abs(alpha) * 1e-6, 1e-12)
        fd = fim_finite_difference_oracle(
            stage2_case1_mean_builder(g, 0, words), noise * g.n_bs,
            np.array([comp.mu, comp.nu, alpha.real, alpha.imag]),
            h=np.array([1e-5, 1e-5, scale, scale]))
        rel = np.linalg.norm(closed.matrix - fd.matrix) / np.linalg.norm(closed.matrix)
        assert rel < 1e-4


def test_stage2_case2_fim_matches_fd_oracle():
    for seed in range(5):
        g = random_desk_scene(seed + 50)
        words = random_codewords(g.n_irs(0), 6, seed)
        noise, p = 0.5, 2.0
        closed = fim_stage2_case2(g, 0, 0, words, noise, p)
        alpha_t, b = case2_amplitude(g, 0, 0, p)
        gamma = alpha_t * b
        comp = composite_angle(g, 0, 0)
        scale = max(abs(gamma) * 1e-6, 1e-12)
        fd = fim_finite_difference_oracle(
            stage2_case2_mean_builder(g, 0, words), noise * g.n_bs,
            np.array([comp.mu, comp.nu, gamma.real, gamma.imag]),
            h=np.array([1e-5, 1e-5, scale, scale]))
        rel = np.linalg.norm(closed.matrix - fd.matrix) / np.linalg.norm(closed.matrix)
        assert rel < 1e-4


def test_fd_oracle_exact_for_linear_mean():
    c = np.array([1.0 + 2.0j, -0.5 + 0.25j, 3.0 - 1.0j])

    def mean(params):
        return c * params[0] + 1j * c * params[1]

    for h in (1e-3, 1e-6):
        fim = fim_finite_difference_oracle(mean, 2.0, np.array([0.4, -1.2]), h=h)
        expected = (2.0 / 2.0) * np.array([[np.vdot(c, c).real, np.vdot(c, 1j * c).real],
                                           [np.vdot(1j * c, c).real, np.vdot(c, c).real]])
        assert np.allclose(fim.matrix, expected, rtol=1e-8)


def test_fd_oracle_second_order_convergence():
    g = random_desk_scene(60)
    w = random_probing(g.n_bs, 8, 0)
    beta = path_gain(PathKind.BTB, g, target_index=0)
    doa = g.bs_target_doa(0)
    params = np.array([doa.mu, doa.nu, beta.real, beta.imag])
    closed = fim_stage1(g, w, 1.0)
    mean = stage1_mean_builder(g, w)
    errs = []
    for h in (1e-4, 5e-5):
        fd = fim_finite_difference_oracle(mean, 1.0, params, h=h)
        errs.append(np.linalg.norm(closed.matrix - fd.matrix))
    assert errs[1] < errs[0]


def test_fd_oracle_flags_nonfinite_mean():
    def mean(params):
        return np.array([np.inf + 0j])

    with pytest.raises(OracleFailureError):
        fim_finite_difference_oracle(mean, 1.0, np.array([0.0]), h=1e-5)


def test_repeated_codeword_fim_is_singular():
    g = random_desk_scene(70)
    w0 = random_codewords(g.n_irs(0), 1, 0)[0]
    result = fim_stage2_case1(g, 0, 0, [w0] * 8, 1e-3, 1.0)
    assert result.singular
    assert np.all(np.isinf(result.crb_diag))
    diag = np.diag(result.matrix)
    assert abs(result.determinant) <= 1e-8 * float(np.prod(diag))

    wit = repeated_codeword_witness(g, 0, 0, [w0] * 8, 1e-3, 1.0)
    assert wit.f11f22_minus_f12f21_norm <= 1e-9 * wit.block_product_norm


def test_repeated_codeword_case2_fim_is_singular():
    g = random_desk_scene(71)
    w0 = random_codewords(g.n_irs(0), 1, 1)[0]
    result = fim_stage2_case2(g, 0, 0, [w0] * 6, 1e-3, 1.0)
    diag = np.diag(result.matrix)
    assert abs(result.determinant) <= 1e-8 * float(np.prod(diag))
    assert result.singular


def test_three_beams_restore_identifiability():
    g = random_desk_scene(72)
    plan = build_scan_plan(g.irs_upa[0], 3, 3)
    words = sequential_codewords(plan, center_hold_y(plan))
    result = fim_stage2_case1(g, 0, 0, words, 1e-3, 1.0)
    assert not result.singular
    assert np.isfinite(result.crb("mu"))

    one_beam = fim_stage2_case1(g, 0, 0, [words[0]] * len(words), 1e-3, 1.0)
    try:
        pseudo = abs(np.linalg.inv(one_beam.matrix)[0, 0])
    except np.linalg.LinAlgError:
        pseudo = np.inf
    assert pseudo / result.crb("mu") >= 1e8


def test_two_beams_remain_nearly_singular():
    g = random_desk_scene(73)
    plan = build_scan_plan(g.irs_upa[0], 3, 3)
    words3 = sequential_codewords(plan, center_hold_y(plan))
    two = random_codewords(g.n_irs(0), 2, 5)
    f2 = fim_stage2_case1(g, 0, 0, [two[0], two[1]] * 4, 1e-3, 1.0)
    f3 = fim_stage2_case1(g, 0, 0, words3, 1e-3, 1.0)
    crb2 = np.inf if f2.singular else f2.crb("mu")
    assert crb2 > 100 * f3.crb("mu")


def test_distinct_codewords_break_block_cancellation():
    g = random_desk_scene(74)
    words = random_codewords(g.n_irs(0), 4, 2)
    with pytest.warns(UserWarning):
        wit = repeated_codeword_witness(g, 0, 0, words, 1e-3, 1.0)
    assert wit.determinant > 0


def test_every_fim_is_positive_semidefinite():
    for seed in range(6):
        g = random_desk_scene(seed + 80)
        w = random_probing(g.n_bs, 8, seed)
        f1 = fim_stage1(g, w, 0.5)
        words = random_codewords(g.n_irs(0), 5, seed)
        for f in (f1, *(fim(g, 0, 0, words, 0.5, 1.0) for fim in STAGE2_FIMS)):
            eigvals = np.linalg.eigvalsh(f.matrix)
            assert eigvals[0] >= -1e-8 * max(eigvals[-1], 0.0)


def test_singular_input_covariance_gives_infinite_trace():
    g = random_desk_scene(90)
    w = np.zeros((g.n_bs, 8), dtype=complex)  # no probing power at all
    assert crb_trace_stage1(g, w, 1.0) == np.inf


def test_stage1_fim_rejects_a_malformed_codebook():
    g = random_desk_scene(91)
    w = random_probing(g.n_bs, 8, 0)
    for bad in (w[:, 0], w[1:], np.vstack([w, w[:1]])):
        with pytest.raises(InvalidArgumentError, match="probing codebook"):
            fim_stage1(g, bad, 1.0)


def dense_joint_codewords(plan):
    """The dense per-sample Kronecker vectors of a joint scan: the oracle for the factored value."""
    return [np.kron(plan.codebook_y[:, i], plan.codebook_z[:, j])
            for i in range(plan.t2_y) for j in range(plan.t2_z)]


def center_hold_y(plan):
    return (plan.t2_y - 1) // 2


def dense_sequential_codewords(plan, hold_y=None):
    """The dense vectors of a sequential scan whose z sweep holds y beam hold_y, the center one
    by default."""
    hold_y = center_hold_y(plan) if hold_y is None else hold_y
    words = [np.kron(plan.codebook_y[:, i], plan.codebook_z[:, plan.hold_z_index])
             for i in range(plan.t2_y)]
    words += [np.kron(plan.codebook_y[:, hold_y], plan.codebook_z[:, j])
              for j in range(plan.t2_z)]
    return words


SCANS = {"joint": (joint_codewords, dense_joint_codewords),
         "sequential": (lambda plan: sequential_codewords(plan, center_hold_y(plan)),
                        dense_sequential_codewords)}


@pytest.mark.parametrize("fim", STAGE2_FIMS)
@pytest.mark.parametrize("scan", sorted(SCANS))
@pytest.mark.parametrize("surface, beams", [
    ((30, 30), (60, 60)),  # the flagship surface and scan
    ((5, 7), (4, 6)),      # non-square, holds at beams 1 and 2
    ((5, 7), (7, 5)),      # non-square, holds at beams 3 and 2
], ids=["flagship", "5x7_4x6", "5x7_7x5"])
def test_factored_stage2_fim_matches_dense_codewords(single_scene, fim, scan, surface, beams):
    g = replace(single_scene, irs_upa=[UpaConfig(*surface)])
    plan = build_scan_plan(g.irs_upa[0], *beams)
    factored, dense = SCANS[scan]
    words, oracle = factored(plan), dense(plan)
    assert len(words) == len(oracle)
    for got, want in zip(words, oracle, strict=True):
        np.testing.assert_array_equal(got, want)
    got = fim(g, 0, 0, words, 1e-11, 10.0).matrix
    want = fim(g, 0, 0, oracle, 1e-11, 10.0).matrix
    # entries carry mixed units, so compare the correlation-normalized matrix
    d = 1.0 / np.sqrt(np.diag(want))
    np.testing.assert_allclose(np.diag(got), np.diag(want), rtol=1e-12)
    np.testing.assert_allclose(d[:, None] * got * d, d[:, None] * want * d,
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("fim", STAGE2_FIMS)
@pytest.mark.parametrize("axis", ["y", "z"])
def test_factored_codewords_keep_the_unit_modulus_check(single_scene, fim, axis):
    plan = build_scan_plan(single_scene.irs_upa[0], 5, 5)
    words = joint_codewords(plan)
    book = getattr(words, f"codebook_{axis}").copy()
    book[1, 2] *= 1.01
    bad = replace(words, **{f"codebook_{axis}": book})
    with pytest.raises(InvalidArgumentError, match="unit modulus"):
        fim(single_scene, 0, 0, bad, 1e-11, 1.0)
    short = replace(words, **{f"codebook_{axis}": book[1:]})
    with pytest.raises(InvalidArgumentError, match="length"):
        fim(single_scene, 0, 0, short, 1e-11, 1.0)
    with pytest.raises(InvalidArgumentError, match="at least one"):
        fim(single_scene, 0, 0, words[:0], 1e-11, 1.0)


@pytest.mark.parametrize("noise_var", [0.0, 1e-11])
@pytest.mark.parametrize("joint", [True, False], ids=["joint", "sequential"])
def test_a_scan_returns_the_codewords_it_sends(single_scene, joint, noise_var):
    # the target sits off the surface's center beams, so the sequential z sweep holds
    # a y beam other than the center one
    g = replace(single_scene, irs_upa=[UpaConfig(5, 7)], targets=[Position3(-12.0, -6.0, 1.0)])
    plan = build_scan_plan(g.irs_upa[0], 7, 6)
    obs = synthesize_stage2(g, 0, plan, noise_var, 3, Stage2Mode.FULL_ECHO, 10.0, joint=joint)
    if joint:
        values, oracle = obs.grid_values.ravel(), dense_joint_codewords(plan)
    else:
        hold_y = int(np.argmax(np.abs(obs.y_values) ** 2))
        assert hold_y != center_hold_y(plan)
        values = np.concatenate([obs.y_values, obs.z_values])
        oracle = dense_sequential_codewords(plan, hold_y)
    assert len(obs.codewords) == len(oracle) == len(values)
    for got, want in zip(obs.codewords, oracle, strict=True):
        np.testing.assert_array_equal(got, want)
    if noise_var == 0.0:  # sample t is the model's node at the beams of codeword t
        model = stage2_model(g, 0, plan, Stage2Mode.FULL_ECHO, 10.0)
        np.testing.assert_array_equal(values, model[obs.codewords.y_idx, obs.codewords.z_idx])
    for idx in (obs.codewords.y_idx, obs.codewords.z_idx):  # cached per plan, so read-only
        assert not idx.flags.writeable


def test_factored_codewords_slice_like_the_dense_list():
    plan = build_scan_plan(UpaConfig(3, 4), 4, 5)
    words = sequential_codewords(plan, center_hold_y(plan))
    assert isinstance(words[2:7], KroneckerCodewords)
    for got, want in zip(words[2:7], dense_sequential_codewords(plan)[2:7], strict=True):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(words[-1], dense_sequential_codewords(plan)[-1])
    with pytest.raises(IndexError):
        words[len(words)]

import numpy as np
import pytest

from irsloc import (
    InvalidArgumentError,
    MusicEstimate,
    Position3,
    SceneGeometry,
    SpatialAnglePair,
    UnderResolvedError,
    UpaConfig,
    dft_codebook,
    music_estimate,
    music_estimates,
    sample_covariance,
    signal_noise_subspaces,
    synthesize_stage1,
    upa_response,
)
from irsloc._gridpeaks import top_peaks_2d
from irsloc.channel import channel_btb, dbm_to_watts
from irsloc import stage1
from irsloc.stage1 import SEARCH_BATCH, _coarse_grid, _coarse_stride, _signal_subspace, stage1_echo

from oracles import music_spectrum


def small_scene(targets=None):
    targets = targets or [Position3(-12.0, 6.0, 0.0)]
    return SceneGeometry(
        bs=Position3(0.0, 0.0, 5.0), irs=[Position3(-20.0, 0.0, 3.0)],
        targets=targets, bs_upa=UpaConfig(4, 4), irs_upa=[UpaConfig(4, 4)],
    )


def test_noiseless_columns_live_in_steering_span():
    g = small_scene()
    w = dft_codebook(g.n_bs, 16, 1.0)
    block = synthesize_stage1(g, w, 0.0, 1)
    a = upa_response(g.bs_target_doa(0), g.bs_upa)
    a = a / np.linalg.norm(a)
    for col in block.T:
        residual = col - a * (a.conj() @ col)
        assert np.linalg.norm(residual) < 1e-10 * max(np.linalg.norm(col), 1.0)


def test_zero_probing_gives_pure_noise_variance():
    g = small_scene()
    t1 = 700  # T1 * N_BS > 1e4 samples
    block = synthesize_stage1(g, np.zeros((g.n_bs, t1)), 2.5, 42)
    sample_var = np.mean(np.abs(block) ** 2)
    assert sample_var == pytest.approx(2.5, rel=0.05)


def test_synthesis_is_deterministic_per_seed():
    g = small_scene()
    w = dft_codebook(g.n_bs, 16, 1.0)
    b1 = synthesize_stage1(g, w, 1e-3, 7)
    b2 = synthesize_stage1(g, w, 1e-3, 7)
    b3 = synthesize_stage1(g, w, 1e-3, 8)
    assert np.array_equal(b1, b2)
    assert not np.array_equal(b1, b3)


def test_synthesis_rejects_wrong_probing_shape():
    g = small_scene()
    with pytest.raises(InvalidArgumentError):
        synthesize_stage1(g, np.zeros((3, 5)), 0.0, 0)


def test_synthesis_matches_dense_channel_oracle():
    # the rank-1 synthesis equals (sum_k H_BTB,k) W from the dense builders,
    # with the noise drawn in the same order
    g = small_scene(targets=[Position3(-12.0, 6.0, 0.0), Position3(-6.0, 2.0, 1.0)])
    w = dft_codebook(g.n_bs, 16, 1.0)
    block = synthesize_stage1(g, w, 1e-3, 11)
    rng = np.random.default_rng(11)
    noise = rng.standard_normal((g.n_bs, 16)) + 1j * rng.standard_normal((g.n_bs, 16))
    dense = (channel_btb(g, 0) + channel_btb(g, 1)) @ w + np.sqrt(1e-3 / 2.0) * noise
    np.testing.assert_allclose(block, dense, rtol=1e-12, atol=1e-12 * np.abs(dense).max())


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_noise_added_into_a_scaled_echo_matches_the_two_draw_formula(seed):
    # the oracle is the earlier synthesis: real parts, then imaginary parts, each drawn
    # as its own (N_BS, T1) block into a new array, then the echo added
    g = small_scene(targets=[Position3(-12.0, 6.0, 0.0), Position3(-6.0, 2.0, 1.0)])
    unit = stage1_echo(g, dft_codebook(g.n_bs, 16, 1.0))
    unit.setflags(write=False)
    amplitude, noise_var = np.sqrt(dbm_to_watts(20.0)), 1e-11
    got = synthesize_stage1(g, None, noise_var, seed, echo=amplitude * unit)
    rng = np.random.default_rng(seed)
    want = np.empty(unit.shape, dtype=complex)
    want.real = np.sqrt(noise_var / 2.0) * rng.standard_normal(unit.shape)
    want.imag = np.sqrt(noise_var / 2.0) * rng.standard_normal(unit.shape)
    want += amplitude * unit
    assert np.array_equal(got, want)


@pytest.mark.parametrize("noise_var", [1e-3, 0.0])
def test_synthesis_returns_the_passed_echo_itself(noise_var):
    # the harness passes a fresh scaled echo and keeps the result, so no copy is made
    g = small_scene()
    y = stage1_echo(g, dft_codebook(g.n_bs, 16, 1.0))
    assert synthesize_stage1(g, None, noise_var, 3, echo=y) is y


def test_sample_covariance_properties():
    g = small_scene()
    w = dft_codebook(g.n_bs, 32, 1.0)
    block = synthesize_stage1(g, w, 1e-4, 3)
    cov = sample_covariance(block)
    sym = 0.5 * (cov + cov.conj().T)
    assert np.allclose(sym, sym.conj().T)
    assert np.trace(cov).real == pytest.approx(np.linalg.norm(block, "fro") ** 2 / 32,
                                               rel=1e-12)
    noiseless = sample_covariance(synthesize_stage1(g, w, 0.0, 3))
    eigvals = np.linalg.eigvalsh(0.5 * (noiseless + noiseless.conj().T))[::-1]
    assert eigvals[1] < 1e-10 * eigvals[0]


def test_white_probing_covariance_rank_equals_target_count():
    g = small_scene(targets=[Position3(-12.0, 6.0, 0.0), Position3(-6.0, 2.0, 1.0)])
    w = dft_codebook(g.n_bs, 16, 1.0)  # t1 = n, exactly white
    cov = sample_covariance(synthesize_stage1(g, w, 0.0, 0))
    eigvals = np.linalg.eigvalsh(0.5 * (cov + cov.conj().T))[::-1]
    assert eigvals[1] > 1e-8 * eigvals[0]
    assert eigvals[2] < 1e-8 * eigvals[0]


def test_eigendecomposition_order_and_orthogonality():
    g = small_scene()
    w = dft_codebook(g.n_bs, 16, 1.0)
    cov = sample_covariance(synthesize_stage1(g, w, 1e-3, 5))
    eigvals, u_s, u_n = signal_noise_subspaces(cov, 1)
    assert np.all(np.diff(eigvals) <= 1e-12 * eigvals[0])
    assert np.max(np.abs(u_s.conj().T @ u_n)) < 1e-10
    with pytest.raises(InvalidArgumentError):
        signal_noise_subspaces(cov, cov.shape[0])


def test_spectrum_matches_noise_subspace_formula():
    # direct a^H U_n U_n^H a evaluation is the independent oracle
    g = small_scene()
    w = dft_codebook(g.n_bs, 16, 1.0)
    cov = sample_covariance(synthesize_stage1(g, w, 1e-3, 9))
    mu_axis, nu_axis, spec = music_spectrum(cov, g.bs_upa, 1, grid_resolution=0.25)
    _, _, u_n = signal_noise_subspaces(cov, 1)
    proj = u_n @ u_n.conj().T
    for i, mu in enumerate(mu_axis):
        for j, nu in enumerate(nu_axis):
            a = upa_response(SpatialAnglePair(float(mu), float(nu)), g.bs_upa)
            denom = (a.conj() @ proj @ a).real
            assert spec[i, j] == pytest.approx(1.0 / denom, rel=1e-6)


def test_noiseless_spectrum_diverges_at_truth():
    # target placed so its direction cosines (0.5, -0.25) sit exactly on the grid
    d = 10.0
    tgt = Position3(-d * np.sqrt(1 - 0.25 - 0.0625), 0.5 * d, 5.0 - 0.25 * d)
    g = small_scene(targets=[tgt])
    doa = g.bs_target_doa(0)
    assert doa.mu == pytest.approx(0.5, abs=1e-12) and doa.nu == pytest.approx(-0.25, abs=1e-12)
    w = dft_codebook(g.n_bs, 16, 1.0)
    cov = sample_covariance(synthesize_stage1(g, w, 0.0, 0))
    mu_axis, nu_axis, spec = music_spectrum(cov, g.bs_upa, 1, grid_resolution=2e-3)
    i = int(np.argmin(np.abs(mu_axis - doa.mu)))
    j = int(np.argmin(np.abs(nu_axis - doa.nu)))
    assert spec[i, j] >= 1e8


def test_isotropic_covariance_spectrum_is_flat():
    g = small_scene()
    cov = 1e-3 * np.eye(g.n_bs, dtype=complex)
    _, _, spec = music_spectrum(cov, g.bs_upa, 1, grid_resolution=0.05)
    assert spec.max() / spec.min() < 10.0


def test_peak_locations_stable_under_tiny_hermitian_perturbation():
    g = small_scene()
    w = dft_codebook(g.n_bs, 16, 1.0)
    cov = sample_covariance(synthesize_stage1(g, w, 1e-4, 6))
    rng = np.random.default_rng(0)
    x = rng.standard_normal(cov.shape) + 1j * rng.standard_normal(cov.shape)
    bump = 1e-13 * np.abs(cov).max() * (x + x.conj().T)
    a = music_estimate(cov, g.bs_upa, 1, 0.01, refine_levels=0)
    b = music_estimate(cov + bump, g.bs_upa, 1, 0.01, refine_levels=0)
    assert a.angles == b.angles


def test_spectrum_invariant_to_positive_scaling():
    g = small_scene()
    w = dft_codebook(g.n_bs, 16, 1.0)
    cov = sample_covariance(synthesize_stage1(g, w, 1e-3, 4))
    _, _, s1 = music_spectrum(cov, g.bs_upa, 1, grid_resolution=0.02)
    _, _, s2 = music_spectrum(7.3 * cov, g.bs_upa, 1, grid_resolution=0.02)
    assert np.unravel_index(np.argmax(s1), s1.shape) == np.unravel_index(np.argmax(s2), s2.shape)


def test_noiseless_estimate_hits_nearest_grid_node():
    g = small_scene()
    w = dft_codebook(g.n_bs, 16, 1.0)
    cov = sample_covariance(synthesize_stage1(g, w, 0.0, 0))
    res = 0.01
    est = music_estimate(cov, g.bs_upa, 1, grid_resolution=res, refine_levels=0)
    doa = g.bs_target_doa(0)
    expected_mu = -1.0 + res * round((doa.mu + 1.0) / res)
    expected_nu = -1.0 + res * round((doa.nu + 1.0) / res)
    assert est.angles[0].mu == pytest.approx(expected_mu, abs=1e-12)
    assert est.angles[0].nu == pytest.approx(expected_nu, abs=1e-12)


def test_refinement_tightens_noiseless_estimate():
    g = small_scene()
    w = dft_codebook(g.n_bs, 16, 1.0)
    cov = sample_covariance(synthesize_stage1(g, w, 0.0, 0))
    doa = g.bs_target_doa(0)
    coarse = music_estimate(cov, g.bs_upa, 1, 0.01, refine_levels=0)
    fine = music_estimate(cov, g.bs_upa, 1, 0.01, refine_levels=2)
    err_coarse = abs(coarse.angles[0].mu - doa.mu) + abs(coarse.angles[0].nu - doa.nu)
    err_fine = abs(fine.angles[0].mu - doa.mu) + abs(fine.angles[0].nu - doa.nu)
    assert err_fine < err_coarse
    assert fine.grid_resolution == pytest.approx(0.01 / 100)


def test_two_targets_recovered_in_either_order():
    t_a = Position3(-12.0, 6.0, 0.0)
    t_b = Position3(-4.0, -6.0, 2.0)
    estimates = {}
    truths = {}
    for order, targets in enumerate([[t_a, t_b], [t_b, t_a]]):
        g = small_scene(targets=targets)
        w = dft_codebook(g.n_bs, 16, 1.0)
        cov = sample_covariance(synthesize_stage1(g, w, 0.0, 0))
        est = music_estimate(cov, g.bs_upa, 2, 0.01, refine_levels=0)
        estimates[order] = {(round(a.mu, 6), round(a.nu, 6)) for a in est.angles}
        truths[order] = [g.bs_target_doa(k) for k in range(2)]
    assert estimates[0] == estimates[1]
    for doa in truths[0]:
        assert any(abs(doa.mu - m) < 0.01 and abs(doa.nu - n) < 0.01 for m, n in estimates[0])


def test_under_resolved_when_grid_cannot_hold_requested_peaks():
    # a 3x3 grid lies entirely inside one suppression window, so at most one
    # peak can ever be extracted
    g = small_scene()
    w = dft_codebook(g.n_bs, 16, 1.0)
    cov = sample_covariance(synthesize_stage1(g, w, 0.0, 0))
    with pytest.raises(UnderResolvedError) as err:
        music_estimate(cov, g.bs_upa, 2, grid_resolution=1.0, refine_levels=0)
    assert err.value.found == 1


def flagship_bs_scene(targets):
    return SceneGeometry(
        bs=Position3(0.0, 0.0, 5.0), irs=[Position3(-20.0, 0.0, 3.0)],
        targets=targets, bs_upa=UpaConfig(20, 20), irs_upa=[UpaConfig(30, 30)],
    )


def at_bs_angles(mu, nu, distance):
    """Target seen from the BS at (0, 0, 5) under spatial angles (mu, nu)."""
    return Position3(-distance * np.sqrt(1.0 - mu**2 - nu**2), mu * distance, 5.0 + nu * distance)


SEARCH_SCENES = {
    "one_target": [Position3(-20.0, 2.0, 0.0)],
    # 0.15 apart in mu: 1.5 beamwidths of the 20-element axis
    "close_pair": [at_bs_angles(0.3, -0.2, 15.0), at_bs_angles(0.45, -0.2, 15.0)],
    "three_targets": [Position3(-10.0, 10.0, 0.0), Position3(-20.0, 2.0, 0.0),
                      Position3(-5.0, 10.0, 0.0)],
    "grid_edge": [at_bs_angles(0.995, -0.05, 12.0)],
}


def grid_nodes(est: MusicEstimate, resolution: float) -> dict:
    return {(round((a.mu + 1.0) / resolution), round((a.nu + 1.0) / resolution)): v
            for a, v in zip(est.angles, est.spectrum_peak_values)}


@pytest.mark.parametrize("name", sorted(SEARCH_SCENES))
def test_coarse_to_fine_search_matches_dense_grid(name):
    # 4 scenes x 11 powers x 5 seeds = 220 blocks at the shipped array, T1 and
    # grid; the dense spectrum with top_peaks_2d is the oracle
    g = flagship_bs_scene(SEARCH_SCENES[name])
    k = len(g.targets)
    res = 2e-3
    for p_dbm in range(-10, 45, 5):
        probing = dft_codebook(g.n_bs, 60, dbm_to_watts(p_dbm))
        for seed in range(5):
            block = synthesize_stage1(g, probing, 1e-11, 1000 * (p_dbm + 10) + seed)
            _, _, spec = music_spectrum(block, g.bs_upa, k, res)
            want = top_peaks_2d(spec, k, 3)
            got = grid_nodes(music_estimate(block, g.bs_upa, k, res, refine_levels=0), res)
            assert sorted(got) == sorted(want), (p_dbm, seed)
            for node, value in got.items():
                assert value == pytest.approx(spec[node], rel=1e-9)
            if seed == 0:
                from_y = music_estimate(block, g.bs_upa, k, res, refine_levels=2)
                from_cov = music_estimate(sample_covariance(block), g.bs_upa, k, res,
                                          refine_levels=2)
                assert from_y.angles == from_cov.angles, (p_dbm, seed)


def test_search_finds_weak_maximum_on_a_lobe_flank():
    # asking for a third peak next to the close pair at -5 dBm picks a noise
    # maximum on the flank of the pair's lobes; the coarse grid rises
    # straight through it, so only the zoom around near-equal coarse nodes
    # finds it
    g = flagship_bs_scene(SEARCH_SCENES["close_pair"])
    block = synthesize_stage1(g, dft_codebook(g.n_bs, 60, dbm_to_watts(-5.0)), 1e-11, 500024)
    _, _, spec = music_spectrum(block, g.bs_upa, 3, 2e-3)
    want = top_peaks_2d(spec, 3, 3)
    assert want[2] == (593, 393)
    got = grid_nodes(music_estimate(block, g.bs_upa, 3, 2e-3, refine_levels=0), 2e-3)
    assert sorted(got) == sorted(want)


def test_snapshots_need_as_many_columns_as_targets():
    g = small_scene(targets=[Position3(-12.0, 6.0, 0.0), Position3(-6.0, 2.0, 1.0)])
    block = synthesize_stage1(g, dft_codebook(g.n_bs, 1, 1.0), 0.0, 0)
    with pytest.raises(InvalidArgumentError):
        music_estimate(block, g.bs_upa, 2, 0.01)


GRAM_TARGETS = [Position3(-12.0, 6.0, 0.0), Position3(-6.0, 2.0, 1.0), Position3(-9.0, -4.0, -1.0)]


def projector(u):
    return u @ u.conj().T


@pytest.mark.filterwarnings("ignore:codebook with t=8")
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("t1", [8, 16, 32])  # T1 < N, T1 = N, T1 > N for the 4x4 BS
def test_gram_subspace_matches_thin_svd(k, t1):
    g = small_scene(targets=GRAM_TARGETS[:k])
    for p_dbm in (-10, 0, 10, 20, 30, 40):
        y = synthesize_stage1(g, dft_codebook(g.n_bs, t1, dbm_to_watts(p_dbm)), 1e-11,
                              1000 * k + 10 * t1 + p_dbm)
        u_svd = np.linalg.svd(y, full_matrices=False)[0][:, :k]
        u_s = _signal_subspace(y, k)
        assert u_s.shape == (g.n_bs, k)
        assert np.max(np.abs(projector(u_s) - projector(u_svd))) < 1e-12


def test_gram_subspace_of_a_covariance_matches_its_eigenvectors():
    g = small_scene(targets=GRAM_TARGETS[:2])
    cov = sample_covariance(synthesize_stage1(g, dft_codebook(g.n_bs, 16, dbm_to_watts(10.0)),
                                              1e-11, 9))
    _, u_eig, _ = signal_noise_subspaces(cov, 2)
    assert np.max(np.abs(projector(_signal_subspace(cov, 2)) - projector(u_eig))) < 1e-12


def test_signal_subspace_stays_orthonormal_without_signal_in_a_direction():
    # One noiseless target asked for two directions: the second has no signal.
    g = small_scene()
    y = synthesize_stage1(g, dft_codebook(g.n_bs, 16, 1.0), 0.0, 0)
    u_s = _signal_subspace(y, 2)
    assert np.all(np.isfinite(u_s))
    assert np.max(np.abs(u_s.conj().T @ u_s - np.eye(2))) < 1e-12
    a = upa_response(g.bs_target_doa(0), g.bs_upa)
    assert np.max(np.abs(projector(u_s[:, :1]) - np.outer(a, a.conj()) / g.n_bs)) < 1e-12


def batch_blocks(g, p_dbm, seeds, t1=60):
    probing = dft_codebook(g.n_bs, t1, dbm_to_watts(p_dbm))
    return [synthesize_stage1(g, probing, 1e-11, seed) for seed in seeds]


@pytest.mark.parametrize("name", ["one_target", "three_targets"])
@pytest.mark.parametrize("levels", [0, 2])
def test_music_estimate_is_a_batch_of_one(name, levels):
    # one block alone, the same block as a batch of one, and the same block among
    # batch-mates (more than SEARCH_BATCH blocks, so batches are cut) all agree bit for bit
    g = flagship_bs_scene(SEARCH_SCENES[name])
    k = len(g.targets)
    blocks = batch_blocks(g, 0.0, range(SEARCH_BATCH + 2))
    batched = music_estimates(iter(blocks), g.bs_upa, k, 2e-3, levels)
    assert len(batched) == len(blocks)
    for block, est in zip(blocks, batched):
        alone = music_estimate(block, g.bs_upa, k, 2e-3, levels)
        assert music_estimates([block], g.bs_upa, k, 2e-3, levels) == [alone] == [est]


def test_a_block_that_fails_fails_alone_in_its_batch():
    # at this coarse grid some seeds' spectra hold one separated peak for two
    # targets; those blocks, and a block with too few columns, get their own
    # errors, and every other block gets the estimate it gets alone
    g = small_scene(targets=[Position3(-12.0, 6.0, 0.0), Position3(-6.0, -2.0, 1.0)])
    blocks = batch_blocks(g, -10.0, range(8), t1=16)
    blocks.insert(5, blocks[0][:, :1])
    results = music_estimates(blocks, g.bs_upa, 2, 0.4, 1)
    failed = [i for i, r in enumerate(results) if isinstance(r, UnderResolvedError)]
    assert failed == [1, 2, 3, 8]
    for i in failed:
        with pytest.raises(UnderResolvedError, match="^found 1 spectrum peaks, need 2$"):
            music_estimate(blocks[i], g.bs_upa, 2, 0.4, 1)
        assert results[i].found == 1
    assert isinstance(results[5], InvalidArgumentError)
    assert str(results[5]) == "1 columns cannot span 2 signal directions"
    for i in set(range(len(blocks))) - set(failed) - {5}:
        assert results[i] == music_estimate(blocks[i], g.bs_upa, 2, 0.4, 1)


def test_coarse_grid_is_cached_read_only_per_grid_and_array():
    g = flagship_bs_scene(SEARCH_SCENES["one_target"])
    block = batch_blocks(g, 40.0, [0])[0]
    _coarse_grid.cache_clear()
    music_estimate(block, g.bs_upa, 1, 2e-3, 0)
    music_estimate(block, g.bs_upa, 1, 2e-3, 0)
    info = _coarse_grid.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    nodes, rows_y, rows_z = _coarse_grid(2e-3, 20, 20)
    stride = _coarse_stride(2e-3, 20, 20)
    assert np.array_equal(nodes, np.unique(np.append(np.arange(0, 1001, stride), 1000)))
    table = stage1._steering_table(2e-3, 20)
    assert np.array_equal(rows_y, table[nodes]) and np.array_equal(rows_z, table[nodes])
    assert not any(a.flags.writeable for a in (nodes, rows_y, rows_z))

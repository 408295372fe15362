"""Dense reference code the tests check the library's closed forms against; no pipeline runs it."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from irsloc.arrays import SpatialAnglePair, UpaConfig, upa_response
from irsloc.channel import SceneGeometry, channel_b2i, channel_bti, channel_iti, check_unit_modulus
from irsloc.crb import FimResult, _check_codewords, _finalize, fim_stage2_case1
from irsloc.errors import InvalidArgumentError, IrslocError
from irsloc.stage1 import DEFAULT_GRID_RESOLUTION, _axis, _columns, _deficit, _signal_subspace, _tables


class OracleFailureError(IrslocError, RuntimeError):
    """Finite-difference oracle evaluated a non-finite mean."""


def fim_finite_difference_oracle(mean_fn: Callable[[np.ndarray], np.ndarray],
                                 noise_var, params: np.ndarray, h=1e-5,
                                 labels: Sequence[str] | None = None) -> FimResult:
    """Gaussian-mean FIM with central-difference derivatives of mean_fn.

    F_ij = 2 Re{(du/d eta_i)^H diag(1/sigma^2) (du/d eta_j)}; noise_var may be
    a scalar or a per-sample vector.  Independent of every closed form in irsloc.crb.
    """
    params = np.asarray(params, dtype=float)
    p = params.size
    steps = np.broadcast_to(np.asarray(h, dtype=float), (p,))
    cols = []
    for i in range(p):
        lo, hi = params.copy(), params.copy()
        lo[i] -= steps[i]
        hi[i] += steps[i]
        f_hi, f_lo = np.asarray(mean_fn(hi)), np.asarray(mean_fn(lo))
        if not (np.all(np.isfinite(f_hi)) and np.all(np.isfinite(f_lo))):
            raise OracleFailureError(f"non-finite mean at parameter {i}")
        cols.append((f_hi - f_lo) / (2.0 * steps[i]))
    jac = np.stack(cols, axis=1)
    inv_var = 1.0 / np.asarray(noise_var, dtype=float)
    if inv_var.ndim == 0:
        f = 2.0 * inv_var * (jac.conj().T @ jac).real
    else:
        f = 2.0 * (jac.conj().T @ (inv_var[:, None] * jac)).real
    if labels is None:
        labels = [f"eta_{i}" for i in range(p)]
    return _finalize(f, labels)


def stage1_mean_builder(geometry: SceneGeometry, probing: np.ndarray,
                        target_index: int = 0) -> Callable[[np.ndarray], np.ndarray]:
    """Mean map eta = [mu, nu, Re beta, Im beta] -> vec(beta A(mu, nu) W)."""
    cfg = geometry.bs_upa

    def mean(params: np.ndarray) -> np.ndarray:
        mu, nu, re_b, im_b = params
        a = upa_response(SpatialAnglePair(mu, nu), cfg)
        return (re_b + 1j * im_b) * (np.outer(a, a) @ probing).ravel(order="F")

    return mean


def stage2_case1_mean_builder(geometry: SceneGeometry, irs_index: int,
                              irs_codewords: Sequence[np.ndarray],
                              ) -> Callable[[np.ndarray], np.ndarray]:
    """Mean map eta = [mu, nu, Re alpha, Im alpha] -> alpha (w_t^T q(mu, nu))^2."""
    cfg = geometry.irs_upa[irs_index]
    w = _check_codewords(irs_codewords, cfg.n)

    def mean(params: np.ndarray) -> np.ndarray:
        mu, nu, re_a, im_a = params
        q = upa_response(SpatialAnglePair(mu, nu), cfg)
        return (re_a + 1j * im_a) * (w.T @ q) ** 2

    return mean


def stage2_case2_mean_builder(geometry: SceneGeometry, irs_index: int,
                              irs_codewords: Sequence[np.ndarray],
                              ) -> Callable[[np.ndarray], np.ndarray]:
    """Mean map eta = [mu, nu, Re gamma, Im gamma] -> gamma w_t^T q(mu, nu)."""
    cfg = geometry.irs_upa[irs_index]
    w = _check_codewords(irs_codewords, cfg.n)

    def mean(params: np.ndarray) -> np.ndarray:
        mu, nu, re_g, im_g = params
        return (re_g + 1j * im_g) * (w.T @ upa_response(SpatialAnglePair(mu, nu), cfg))

    return mean


def stage2_full_mean_builder(geometry: SceneGeometry, irs_index: int,
                             irs_codewords: Sequence[np.ndarray],
                             ) -> Callable[[np.ndarray], np.ndarray]:
    """Mean map eta = [mu, nu, Re alpha, Im alpha, Re gamma, Im gamma] -> the sum of both terms."""
    double = stage2_case1_mean_builder(geometry, irs_index, irs_codewords)
    single = stage2_case2_mean_builder(geometry, irs_index, irs_codewords)
    return lambda params: double(params[:4]) + single(np.r_[params[:2], params[4:]])


@dataclass
class RepeatedCodewordWitness:
    determinant: float
    f11f22_minus_f12f21_norm: float
    block_product_norm: float


def repeated_codeword_witness(geometry: SceneGeometry, irs_index: int, target_index: int,
                     irs_codewords: Sequence[np.ndarray], noise_var: float,
                     p_bs_watts: float = 1.0) -> RepeatedCodewordWitness:
    """Block-factorization check of the repeated-codeword FIM.

    With one codeword reused for every sample, F11 F22 equals F12 F21 and the
    determinant vanishes; distinct codewords break the cancellation.
    """
    w0 = np.asarray(irs_codewords[0])
    if any(not np.allclose(np.asarray(c), w0) for c in irs_codewords[1:]):
        warnings.warn("repeated_codeword_witness expects identical codewords; blocks will not cancel",
                      stacklevel=2)
    result = fim_stage2_case1(geometry, irs_index, target_index, irs_codewords,
                              noise_var, p_bs_watts)
    f = result.matrix
    f11, f12, f21, f22 = f[:2, :2], f[:2, 2:], f[2:, :2], f[2:, 2:]
    prod = f11 @ f22
    residual = prod - f12 @ f21
    return RepeatedCodewordWitness(
        determinant=result.determinant,
        f11f22_minus_f12f21_norm=float(np.linalg.norm(residual)),
        block_product_norm=float(np.linalg.norm(prod)),
    )


def correlation_eig_ratio(matrix: np.ndarray) -> float:
    """Smallest over largest eigenvalue of the correlation-normalized FIM, the spectrum on which
    crb._finalize judges singularity; rounding leaves it near +-1e-16 on a singular FIM."""
    d = 1.0 / np.sqrt(np.diag(matrix))
    eigs = np.linalg.eigvalsh(d[:, None] * matrix * d[None, :])
    return float(eigs[0] / eigs[-1])


def stage2_effective_channel(geometry: SceneGeometry, irs_index: int, target_index: int,
                             theta: np.ndarray) -> np.ndarray:
    """Reflected three-term channel seen at the BS after direct-link removal.

    H_B2I^T diag(theta) H_ITI diag(theta) H_B2I
      + H_B2I^T diag(theta) H_BTI + H_BTI^T diag(theta) H_B2I
    """
    theta, n_r = np.asarray(theta), geometry.n_irs(irs_index)
    if theta.shape != (n_r,):
        raise InvalidArgumentError(f"phase vector must have shape ({n_r},), got {theta.shape}")
    check_unit_modulus(theta)
    h_b2i = channel_b2i(geometry, irs_index)
    h_iti = channel_iti(geometry, irs_index, target_index)
    h_bti = channel_bti(geometry, irs_index, target_index)
    t_b2i = theta[:, None] * h_b2i          # diag(theta) @ H_B2I
    term1 = h_b2i.T @ (theta[:, None] * (h_iti @ t_b2i))
    term2 = h_b2i.T @ (theta[:, None] * h_bti)
    term3 = h_bti.T @ t_b2i
    return term1 + term2 + term3


def music_spectrum(cov: np.ndarray, cfg: UpaConfig, k: int,
                   grid_resolution: float = DEFAULT_GRID_RESOLUTION,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MUSIC spectrum 1 / (a^H U_n U_n^H a) over the dense grid on [-1, 1]^2.

    cov is the snapshot block Y or a covariance built from it (see
    _signal_subspace).  Returns (mu_axis, nu_axis, values) with values[i, j] at
    (mu_axis[i], nu_axis[j]).
    """
    signal = _columns(_signal_subspace(cov, k), cfg)
    return (_axis(grid_resolution), _axis(grid_resolution),
            1.0 / _deficit(signal, *_tables(cfg, grid_resolution)))


def normalized_beam_gain(delta_mu: float, delta_nu: float, n_bar: int) -> float:
    """Normalized gain of an n_bar x n_bar UPA beam at offset (delta_mu, delta_nu).

    (1/n_bar^2) * |sum_i e^{j pi (n_bar-2i+1) dmu/2}| * |same in dnu|; equals 1
    at (0, 0), first null at |offset| = 2/n_bar.
    """
    if n_bar < 1:
        raise InvalidArgumentError("array size must be >= 1")

    def factor(delta: float) -> float:
        i = np.arange(1, n_bar + 1)
        return float(np.abs(np.sum(np.exp(1j * np.pi * (n_bar - 2 * i + 1) * delta / 2))))

    return factor(delta_mu) * factor(delta_nu) / n_bar**2


def neighbour_maxima_2d(values: np.ndarray) -> np.ndarray:
    """Boolean mask of nodes >= each of their 8 neighbours (edges allowed), one comparison each.

    Works on the last two axes; a neighbour outside the grid counts as -inf.
    """
    rows, cols = values.shape[-2:]
    padded = np.full(values.shape[:-2] + (rows + 2, cols + 2), -np.inf)
    padded[..., 1:-1, 1:-1] = values
    mask = np.ones_like(values, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            mask &= values >= padded[..., 1 + di:rows + 1 + di, 1 + dj:cols + 1 + dj]
    return mask

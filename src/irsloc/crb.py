"""Fisher information matrices and the bounds they imply, for both stages.

Every FIM here is the Gaussian-mean form 2/sigma^2 * Re{(du/d eta_i)^H (du/d eta_j)}:
the noise covariance never depends on the parameters, so only the mean
derivatives matter.  The tests check every closed form against an independent
finite-difference FIM over the same rule (tests/oracles.py).

The stage-1 FIM takes the Gram of the echo mean's Jacobian against the
probing codebook itself: every Jacobian column is a sum of outer products of
the BS response and its derivatives with rows over the codebook, so the Gram
needs only the 3x3 Gram of those responses and the rows.
One stage-2 FIM (fim_stage2) serves every echo model: it is taken over the
surface angles and the complex gain of each echo term the mode carries,
which is what the scan's samples identify.  It needs only the per-sample
projections w^T q, w^T qdot_mu and w^T qdot_nu of the scan codewords onto
the surface response; for Kronecker codewords these are products of per-axis
beam gains, c_y^T u_y times c_z^T u_z, so no codeword of the surface's full
length is formed.

Every mean is linear in the transmit amplitude (through the probing codebook
in stage 1, the gain parameters in stage 2), so every angle CRB is sigma^2/P
times its value at unit power and unit noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arrays import (
    SpatialAnglePair,
    UpaConfig,
    steering_derivative,
    upa_response,
    upa_response_derivatives,
)
from .channel import PathKind, SceneGeometry, check_unit_modulus, path_gain
from .errors import InvalidArgumentError
from .stage2 import (
    KroneckerCodewords,
    Stage2Mode,
    beam_gains,
    case1_amplitude,
    case2_amplitude,
    composite_angle,
)

SINGULARITY_EIG_RATIO = 1e-12


@dataclass
class FimResult:
    """Fisher information with its inverse diagonal, or +inf flags when singular."""

    matrix: np.ndarray
    parameter_labels: list[str]
    crb_diag: np.ndarray
    determinant: float
    singular: bool

    def crb(self, label: str) -> float:
        return float(self.crb_diag[self.parameter_labels.index(label)])


def _finalize(matrix: np.ndarray, labels: Sequence[str]) -> FimResult:
    m = 0.5 * (matrix + matrix.T)
    det = float(np.linalg.det(m))
    diag = np.diag(m)
    # Parameters carry wildly different units (angles vs linear channel gains),
    # so rank deficiency is judged on the correlation-normalized spectrum,
    # which is invariant to that scaling.
    if np.any(diag <= 0):
        singular = True
    else:
        d = 1.0 / np.sqrt(diag)
        corr_eigs = np.linalg.eigvalsh(d[:, None] * m * d[None, :])
        singular = corr_eigs[0] < SINGULARITY_EIG_RATIO * corr_eigs[-1]
    if singular:
        crb_diag = np.full(m.shape[0], np.inf)
    else:
        inv_corr = np.linalg.inv(d[:, None] * m * d[None, :])
        crb_diag = d**2 * np.diag(inv_corr)
    return FimResult(matrix=m, parameter_labels=list(labels), crb_diag=crb_diag,
                     determinant=det, singular=singular)


STAGE1_LABELS = ["mu_b2t", "nu_b2t", "re_beta", "im_beta"]


def _centered_square_sum(n: int) -> float:
    k = np.arange(1, n + 1)
    return float(np.sum((n - 2 * k + 1) ** 2))


def _gaussian_fim(gram: np.ndarray, noise_var: float, labels: Sequence[str]) -> FimResult:
    """2/sigma^2 Re{J^H J} from the Gram J^H J of the mean's Jacobian J."""
    if noise_var <= 0:
        raise InvalidArgumentError("noise variance must be positive")
    return _finalize((2.0 / noise_var) * gram.real, labels)


def fim_stage1(geometry: SceneGeometry, probing: np.ndarray, noise_var: float,
               target_index: int = 0) -> FimResult:
    """4x4 FIM over [mu_b2t, nu_b2t, Re beta, Im beta] from the Jacobian of the echo mean.

    The mean is vec(beta a (a^T W)) over the N_BS x T1 probing codebook W, so
    each angle's column is beta (adot (a^T W) + a (adot^T W)) and the gain's
    columns are [1, j] a (a^T W): column k is sum_r resp_r kron coef[r, k],
    over the responses resp = [a, adot_mu, adot_nu] and length-T1 rows coef.
    Its Gram is then sum_{r,s} (resp_r^H resp_s) coef[r, k]^H coef[s, l], so
    neither the N_BS T1 x 4 Jacobian nor any N_BS x N_BS matrix is formed.
    """
    w = np.asarray(probing)
    n_bs = geometry.n_bs
    if w.ndim != 2 or w.shape[0] != n_bs:
        raise InvalidArgumentError(f"probing codebook must be ({n_bs}, T1), got {w.shape}")
    beta = path_gain(PathKind.BTB, geometry, target_index=target_index)
    doa = geometry.bs_target_doa(target_index)
    resp = np.stack([upa_response(doa, geometry.bs_upa),
                     *upa_response_derivatives(doa, geometry.bs_upa)], axis=1)
    aw, dw_mu, dw_nu = resp.T @ w
    zero = np.zeros_like(aw)
    # coef[r, k] is the row that response r carries in Jacobian column k
    coef = np.array([[beta * dw_mu, beta * dw_nu, aw, 1j * aw],
                     [beta * aw, zero, zero, zero],
                     [zero, beta * aw, zero, zero]])
    gram = np.einsum("rs,rkt,slt->kl", resp.conj().T @ resp, coef.conj(), coef)
    return _gaussian_fim(gram, noise_var, STAGE1_LABELS)


def fim_stage1_white(geometry: SceneGeometry, p_bs_watts: float, t1: int,
                     noise_var: float, target_index: int = 0) -> FimResult:
    """Closed-form diagonal FIM under the spatially white probing (P/N) I.

    f_mu_mu = |beta|^2 T1 P pi^2 N_z sum_n (N_y - 2n + 1)^2 / sigma^2, the nu
    entry mirrors it, the coefficient block is (2 T1 N P / sigma^2) I_2, and
    every off-diagonal entry vanishes.
    """
    if noise_var <= 0:
        raise InvalidArgumentError("noise variance must be positive")
    beta = path_gain(PathKind.BTB, geometry, target_index=target_index)
    cfg = geometry.bs_upa
    ab2 = abs(beta) ** 2
    f = np.zeros((4, 4))
    f[0, 0] = ab2 * t1 * p_bs_watts * np.pi**2 * cfg.n_z * _centered_square_sum(cfg.n_y) / noise_var
    f[1, 1] = ab2 * t1 * p_bs_watts * np.pi**2 * cfg.n_y * _centered_square_sum(cfg.n_z) / noise_var
    f[2, 2] = f[3, 3] = 2.0 * t1 * cfg.n * p_bs_watts / noise_var
    return _finalize(f, STAGE1_LABELS)


def crb_trace_stage1(geometry: SceneGeometry, probing: np.ndarray, noise_var: float,
                     target_index: int = 0) -> float:
    """Trace of the inverse stage-1 FIM; +inf when the FIM is singular."""
    return float(np.sum(fim_stage1(geometry, probing, noise_var, target_index).crb_diag))


def _check_codewords(codewords: Sequence[np.ndarray], n_r: int) -> np.ndarray:
    w = np.stack([np.asarray(c) for c in codewords], axis=1)
    if w.shape[1] < 1:
        raise InvalidArgumentError("need at least one codeword")
    if w.shape[0] != n_r:
        raise InvalidArgumentError(f"codewords must have length {n_r}")
    check_unit_modulus(w)
    return w


def _projections(cfg: UpaConfig, comp: SpatialAnglePair, codewords: Sequence[np.ndarray]):
    """Per-sample (w^T q, w^T qdot_mu, w^T qdot_nu) of the scan at the composite angle.

    Kronecker codewords take the mixed-product rule
    (c_y kron c_z)^T (u_y kron u_z) = (c_y^T u_y)(c_z^T u_z): per-axis gains
    over each codebook, indexed by each sample's beam pair.  Any other
    sequence is stacked and projected densely.
    """
    if not isinstance(codewords, KroneckerCodewords):
        w = _check_codewords(codewords, cfg.n)
        q = upa_response(comp, cfg)
        qd_mu, qd_nu = upa_response_derivatives(comp, cfg)
        return w.T @ q, w.T @ qd_mu, w.T @ qd_nu
    cy, cz = codewords.codebook_y, codewords.codebook_z
    if len(codewords) < 1:
        raise InvalidArgumentError("need at least one codeword")
    if cy.shape[0] != cfg.n_y or cz.shape[0] != cfg.n_z:
        raise InvalidArgumentError(f"codewords must have length {cfg.n}")
    check_unit_modulus(cy)
    check_unit_modulus(cz)
    gy, gz = beam_gains(cfg, comp, cy, cz)
    hy = steering_derivative(comp.mu, cfg.n_y) @ cy
    hz = steering_derivative(comp.nu, cfg.n_z) @ cz
    y, z = codewords.y_idx, codewords.z_idx
    return gy[y] * gz[z], hy[y] * gz[z], gy[y] * hz[z]


def fim_stage2(geometry: SceneGeometry, irs_index: int, target_index: int,
               irs_codewords: Sequence[np.ndarray], noise_var: float, mode: Stage2Mode,
               p_bs_watts: float = 1.0) -> FimResult:
    """FIM of one surface's scan toward one target, over the parameters its echo identifies.

    With s_t = w_t^T q the cascade projection of sample t, the mean is
    alpha s_t^2 (double bounce) plus gamma s_t (single bounce, gamma =
    alpha_tilde b); case 1 keeps the alpha term, case 2 the gamma term and
    the full echo both.  The parameters are [mu, nu] plus Re/Im of each gain
    the mode carries: 4x4 for either approximation, 6x6 for the full echo.
    The BS angles enter the single bounce only through the complex scalar b,
    so gamma absorbs them: a model over them would be singular by
    construction, and the bound of the identifiable parameters is this one
    (Stoica & Marzetta, IEEE TSP 49(1), 2001).  The matched filter's noise is
    CN(0, N_BS sigma^2) per sample.
    """
    mode = Stage2Mode(mode)
    comp = composite_angle(geometry, irs_index, target_index)
    wq, wq_mu, wq_nu = _projections(geometry.irs_upa[irs_index], comp, irs_codewords)
    # per echo term: its gain, the angle derivatives of its per-sample factor, the factor
    terms, labels = [], ["mu", "nu"]
    if mode is not Stage2Mode.CASE2_APPROX:
        alpha = case1_amplitude(geometry, irs_index, target_index, p_bs_watts)
        terms.append((alpha, 2.0 * wq * wq_mu, 2.0 * wq * wq_nu, wq**2))
        labels += ["re_alpha", "im_alpha"]
    if mode is not Stage2Mode.CASE1_APPROX:
        alpha_t, b = case2_amplitude(geometry, irs_index, target_index, p_bs_watts)
        terms.append((alpha_t * b, wq_mu, wq_nu, wq))
        labels += ["re_gamma", "im_gamma"]
    jac = np.stack([sum(g * d for g, d, _, _ in terms), sum(g * d for g, _, d, _ in terms),
                    *(s for *_, s in terms)], axis=1)
    # a gain's Re/Im columns are s and j s, so both read one complex Gram entry
    col = np.r_[0, 1, np.repeat(np.arange(2, 2 + len(terms)), 2)]
    unit = np.r_[1.0, 1.0, [1.0, 1j] * len(terms)]
    gram = (jac.conj().T @ jac)[np.ix_(col, col)] * np.outer(unit.conj(), unit)
    return _gaussian_fim(gram, noise_var * geometry.n_bs, labels)


def fim_stage2_case1(geometry: SceneGeometry, irs_index: int, target_index: int,
                     irs_codewords: Sequence[np.ndarray], noise_var: float,
                     p_bs_watts: float = 1.0) -> FimResult:
    """fim_stage2 of the double-bounce model: 4x4 over [mu, nu, Re alpha, Im alpha]."""
    return fim_stage2(geometry, irs_index, target_index, irs_codewords, noise_var,
                      Stage2Mode.CASE1_APPROX, p_bs_watts)


def fim_stage2_case2(geometry: SceneGeometry, irs_index: int, target_index: int,
                     irs_codewords: Sequence[np.ndarray], noise_var: float,
                     p_bs_watts: float = 1.0) -> FimResult:
    """fim_stage2 of the single-bounce model: 4x4 over [mu, nu, Re gamma, Im gamma]."""
    return fim_stage2(geometry, irs_index, target_index, irs_codewords, noise_var,
                      Stage2Mode.CASE2_APPROX, p_bs_watts)

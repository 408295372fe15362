"""Fisher information matrices and the bounds they imply, for both stages.

Every FIM here is the Gaussian-mean form 2/sigma^2 * Re{(du/d eta_i)^H (du/d eta_j)}:
the noise covariance never depends on the parameters, so only the mean
derivatives matter.  A finite-difference oracle over the same rule provides
an independent check of every closed form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .arrays import SpatialAnglePair, UpaConfig, upa_response, upa_response_derivatives
from .channel import PathKind, SceneGeometry, path_gain
from .errors import InvalidArgumentError, OracleFailureError
from .stage2 import case1_amplitude, case2_amplitude, composite_angle

SINGULARITY_EIG_RATIO = 1e-12


@dataclass
class FimResult:
    """Fisher information with its inverse diagonal, or +inf flags when singular."""

    matrix: np.ndarray
    parameter_labels: list[str]
    crb_diag: np.ndarray
    determinant: float
    condition_estimate: float
    singular: bool

    def crb(self, label: str) -> float:
        return float(self.crb_diag[self.parameter_labels.index(label)])


@dataclass
class RepeatedCodewordWitness:
    determinant: float
    f11f22_minus_f12f21_norm: float
    block_product_norm: float


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
        cond = np.inf
    else:
        inv_corr = np.linalg.inv(d[:, None] * m * d[None, :])
        crb_diag = d**2 * np.diag(inv_corr)
        cond = float(corr_eigs[-1] / corr_eigs[0])
    return FimResult(matrix=m, parameter_labels=list(labels), crb_diag=crb_diag,
                     determinant=det, condition_estimate=cond, singular=singular)


STAGE1_LABELS = ["mu_b2t", "nu_b2t", "re_beta", "im_beta"]
CASE1_LABELS = ["mu", "nu", "re_alpha", "im_alpha"]
CASE2_LABELS = ["mu_i2t", "nu_i2t", "mu_b2t", "nu_b2t", "re_alpha_tilde", "im_alpha_tilde"]


def _centered_square_sum(n: int) -> float:
    k = np.arange(1, n + 1)
    return float(np.sum((n - 2 * k + 1) ** 2))


def fim_stage1(geometry: SceneGeometry, probing_covariance: np.ndarray, t1: int,
               noise_var: float, target_index: int = 0) -> FimResult:
    """4x4 FIM over [mu_b2t, nu_b2t, Re beta, Im beta] via quadratic forms in a, adot and R.

    f_mu_mu = (2|beta|^2 T1 / sigma^2) tr(Adot_mu R Adot_mu^H) and friends; the
    coefficient-block rows carry Re{beta* [1 j] tr(A R Adot^H)}.  A = a a^T and
    Adot = adot a^T + a adot^T are sums of outer products u v^T, so each trace
    tr(X R Y^H) is the sum of (u_Y^H u_X)(v_X^T R conj(v_Y)) over their terms:
    Gram entries and quadratic forms of the three vectors a, adot_mu, adot_nu.
    """
    r = np.asarray(probing_covariance)
    n_bs = geometry.n_bs
    if r.shape != (n_bs, n_bs):
        raise InvalidArgumentError(f"probing covariance must be ({n_bs}, {n_bs})")
    if noise_var <= 0:
        raise InvalidArgumentError("noise variance must be positive")
    beta = path_gain(PathKind.BTB, geometry, target_index=target_index).value
    doa = geometry.bs_target_doa(target_index)
    vecs = np.stack([upa_response(doa, geometry.bs_upa),
                     *upa_response_derivatives(doa, geometry.bs_upa)], axis=1)
    gram = vecs.conj().T @ vecs  # gram[i, j] = u_i^H u_j
    quad = vecs.T @ r @ vecs.conj()  # quad[i, j] = v_i^T R conj(v_j)
    a, d_mu, d_nu = 0, 1, 2  # columns of vecs
    a_mat = [(a, a)]
    ad_mu = [(d_mu, a), (a, d_mu)]
    ad_nu = [(d_nu, a), (a, d_nu)]

    c = 2.0 * t1 / noise_var
    ab2 = abs(beta) ** 2

    def tr(x, y):
        return complex(sum(gram[u2, u1] * quad[v1, v2] for u1, v1 in x for u2, v2 in y))

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
    return _finalize(f, STAGE1_LABELS)


def fim_stage1_white(geometry: SceneGeometry, p_bs_watts: float, t1: int,
                     noise_var: float, target_index: int = 0) -> FimResult:
    """Closed-form diagonal FIM under the spatially white probing (P/N) I.

    f_mu_mu = |beta|^2 T1 P pi^2 N_z sum_n (N_y - 2n + 1)^2 / sigma^2, the nu
    entry mirrors it, the coefficient block is (2 T1 N P / sigma^2) I_2, and
    every off-diagonal entry vanishes.
    """
    if noise_var <= 0:
        raise InvalidArgumentError("noise variance must be positive")
    beta = path_gain(PathKind.BTB, geometry, target_index=target_index).value
    cfg = geometry.bs_upa
    ab2 = abs(beta) ** 2
    f = np.zeros((4, 4))
    f[0, 0] = ab2 * t1 * p_bs_watts * np.pi**2 * cfg.n_z * _centered_square_sum(cfg.n_y) / noise_var
    f[1, 1] = ab2 * t1 * p_bs_watts * np.pi**2 * cfg.n_y * _centered_square_sum(cfg.n_z) / noise_var
    f[2, 2] = f[3, 3] = 2.0 * t1 * cfg.n * p_bs_watts / noise_var
    return _finalize(f, STAGE1_LABELS)


def crb_trace_stage1(geometry: SceneGeometry, probing_covariance: np.ndarray, t1: int,
                     noise_var: float, target_index: int = 0) -> float:
    """Trace of the inverse stage-1 FIM; +inf when the FIM is singular."""
    result = fim_stage1(geometry, probing_covariance, t1, noise_var, target_index)
    if result.singular:
        return np.inf
    return float(np.sum(result.crb_diag))


def _check_codewords(codewords: Sequence[np.ndarray], n_r: int) -> np.ndarray:
    w = np.stack([np.asarray(c) for c in codewords], axis=1)
    if w.shape[1] < 1:
        raise InvalidArgumentError("need at least one codeword")
    if w.shape[0] != n_r:
        raise InvalidArgumentError(f"codewords must have length {n_r}")
    if np.any(np.abs(np.abs(w) - 1.0) > 1e-9):
        raise InvalidArgumentError("codeword entries must be unit modulus")
    return w


def _surface_response(cfg: UpaConfig, comp: SpatialAnglePair):
    q = upa_response(comp, cfg)
    qd_mu, qd_nu = upa_response_derivatives(comp, cfg)
    return q, qd_mu, qd_nu


def fim_stage2_case1(geometry: SceneGeometry, irs_index: int, target_index: int,
                     irs_codewords: Sequence[np.ndarray], noise_var: float,
                     p_bs_watts: float = 1.0) -> FimResult:
    """4x4 FIM over [mu, nu, Re alpha, Im alpha] for the double-bounce model.

    Per-sample quadratic forms w^T Q w with Q = q q^T and its angle
    derivatives Q_mu = qdot_mu q^T + q qdot_mu^T, summed over the scan.
    """
    if noise_var <= 0:
        raise InvalidArgumentError("noise variance must be positive")
    cfg = geometry.irs_upa[irs_index]
    w = _check_codewords(irs_codewords, cfg.n)
    alpha = case1_amplitude(geometry, irs_index, target_index, p_bs_watts)
    comp = composite_angle(geometry, irs_index, target_index)
    q, qd_mu, qd_nu = _surface_response(cfg, comp)

    wq = w.T @ q
    s0 = wq**2
    s_mu = 2.0 * wq * (w.T @ qd_mu)
    s_nu = 2.0 * wq * (w.T @ qd_nu)

    c = 2.0 / (noise_var * geometry.n_bs)
    aa2 = abs(alpha) ** 2
    f = np.zeros((4, 4))
    f[0, 0] = c * aa2 * float(np.sum(np.abs(s_mu) ** 2))
    f[1, 1] = c * aa2 * float(np.sum(np.abs(s_nu) ** 2))
    f[0, 1] = f[1, 0] = c * aa2 * float(np.sum(np.conj(s_mu) * s_nu).real)
    z_mu = np.conj(alpha) * complex(np.sum(np.conj(s_mu) * s0))
    z_nu = np.conj(alpha) * complex(np.sum(np.conj(s_nu) * s0))
    f[0, 2:] = c * np.array([z_mu.real, -z_mu.imag])
    f[1, 2:] = c * np.array([z_nu.real, -z_nu.imag])
    f[2:, 0] = f[0, 2:]
    f[2:, 1] = f[1, 2:]
    f[2:, 2:] = c * float(np.sum(np.abs(s0) ** 2)) * np.eye(2)
    return _finalize(f, CASE1_LABELS)


def fim_stage2_case2(geometry: SceneGeometry, irs_index: int, target_index: int,
                     irs_codewords: Sequence[np.ndarray], noise_var: float,
                     p_bs_watts: float = 1.0) -> FimResult:
    """6x6 FIM over [mu_i2t, nu_i2t, mu_b2t, nu_b2t, Re/Im alpha_tilde].

    Mean alpha_tilde * b * W^T q, with b the BS beam-mismatch scalar; the
    angle derivatives split into W^T qdot terms and bdot scalars.
    """
    if noise_var <= 0:
        raise InvalidArgumentError("noise variance must be positive")
    cfg = geometry.irs_upa[irs_index]
    w = _check_codewords(irs_codewords, cfg.n)
    alpha_t, b = case2_amplitude(geometry, irs_index, target_index, p_bs_watts)
    comp = composite_angle(geometry, irs_index, target_index)
    q, qd_mu, qd_nu = _surface_response(cfg, comp)

    a_irs = upa_response(geometry.bs_irs_aod(irs_index), geometry.bs_upa)
    bs_doa = geometry.bs_target_doa(target_index)
    da_mu, da_nu = upa_response_derivatives(bs_doa, geometry.bs_upa)
    db_mu = complex(np.vdot(a_irs, da_mu))
    db_nu = complex(np.vdot(a_irs, da_nu))

    wq = w.T @ q
    cols = [
        alpha_t * b * (w.T @ qd_mu),
        alpha_t * b * (w.T @ qd_nu),
        alpha_t * db_mu * wq,
        alpha_t * db_nu * wq,
        b * wq,
        1j * b * wq,
    ]
    jac = np.stack(cols, axis=1)
    f = (2.0 / (noise_var * geometry.n_bs)) * (jac.conj().T @ jac).real
    return _finalize(f, CASE2_LABELS)


def fim_finite_difference_oracle(mean_fn: Callable[[np.ndarray], np.ndarray],
                                 noise_var, params: np.ndarray, h=1e-5,
                                 labels: Sequence[str] | None = None) -> FimResult:
    """Gaussian-mean FIM with central-difference derivatives of mean_fn.

    F_ij = 2 Re{(du/d eta_i)^H diag(1/sigma^2) (du/d eta_j)}; noise_var may be
    a scalar or a per-sample vector.  Independent of every closed form above.
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
    """Mean map over [mu_i2t, nu_i2t, mu_b2t, nu_b2t, Re/Im alpha_tilde]."""
    cfg = geometry.irs_upa[irs_index]
    w = _check_codewords(irs_codewords, cfg.n)
    aoa = geometry.bs_irs_aoa(irs_index)
    a_irs = upa_response(geometry.bs_irs_aod(irs_index), geometry.bs_upa)
    bs_cfg = geometry.bs_upa

    def mean(params: np.ndarray) -> np.ndarray:
        mu_it, nu_it, mu_bt, nu_bt, re_a, im_a = params
        q = upa_response(SpatialAnglePair(aoa.mu + mu_it, aoa.nu + nu_it), cfg)
        b = complex(np.vdot(a_irs, upa_response(SpatialAnglePair(mu_bt, nu_bt), bs_cfg)))
        return (re_a + 1j * im_a) * b * (w.T @ q)

    return mean


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

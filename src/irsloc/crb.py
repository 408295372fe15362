"""Fisher information matrices and the bounds they imply, for both stages.

Every FIM here is the Gaussian-mean form 2/sigma^2 * Re{(du/d eta_i)^H (du/d eta_j)}:
the noise covariance never depends on the parameters, so only the mean
derivatives matter.  A finite-difference oracle over the same rule provides
an independent check of every closed form.

The stage-1 FIM takes the Gram of the echo mean's Jacobian against the
probing codebook itself: every Jacobian column is a sum of outer products of
the BS response and its derivatives with rows over the codebook, so the Gram
needs only the 3x3 Gram of those responses and the rows.
The stage-2 FIMs need only the per-sample projections w^T q, w^T qdot_mu and
w^T qdot_nu of the scan codewords onto the surface response; for Kronecker
codewords these are products of per-axis beam gains, c_y^T u_y times
c_z^T u_z, so no codeword of the surface's full length is formed.

Every FIM depends on the transmit power only through scalars, so each fim_*
is a factor build that never sees the power (path gains, responses, Grams,
projection sums) followed by an assembly per power and codebook; a caller
that keeps the factors of a scene pays only the assembly at each power.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .arrays import (
    SpatialAnglePair,
    UpaConfig,
    steering_derivative,
    upa_response,
    upa_response_derivatives,
)
from .channel import PathKind, SceneGeometry, check_unit_modulus, path_gain
from .errors import InvalidArgumentError, OracleFailureError
from .stage2 import (
    KroneckerCodewords,
    beam_gains,
    composite_angle,
    double_bounce_gain,
    single_bounce_gain,
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
    else:
        inv_corr = np.linalg.inv(d[:, None] * m * d[None, :])
        crb_diag = d**2 * np.diag(inv_corr)
    return FimResult(matrix=m, parameter_labels=list(labels), crb_diag=crb_diag,
                     determinant=det, singular=singular)


STAGE1_LABELS = ["mu_b2t", "nu_b2t", "re_beta", "im_beta"]
CASE1_LABELS = ["mu", "nu", "re_alpha", "im_alpha"]
CASE2_LABELS = ["mu_i2t", "nu_i2t", "mu_b2t", "nu_b2t", "re_alpha_tilde", "im_alpha_tilde"]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _centered_square_sum(n: int) -> float:
    k = np.arange(1, n + 1)
    return float(np.sum((n - 2 * k + 1) ** 2))


def _gaussian_fim(gram: np.ndarray, noise_var: float, labels: Sequence[str]) -> FimResult:
    """2/sigma^2 Re{J^H J} from the Gram J^H J of the mean's Jacobian J."""
    if noise_var <= 0:
        raise InvalidArgumentError("noise variance must be positive")
    return _finalize((2.0 / noise_var) * gram.real, labels)


class Stage1Factors(NamedTuple):
    """The power-independent part of the stage-1 FIM; arrays read-only."""

    beta: complex        # BS-target-BS path gain
    resp: np.ndarray     # (N_BS, 3) [a, adot_mu, adot_nu] at the target's DoA
    gram: np.ndarray     # (3, 3) resp^H resp


def stage1_factors(geometry: SceneGeometry, target_index: int = 0) -> Stage1Factors:
    """Path gain, BS response with its derivatives, and their Gram, for assemble_stage1."""
    beta = path_gain(PathKind.BTB, geometry, target_index=target_index).value
    doa = geometry.bs_target_doa(target_index)
    resp = np.stack([upa_response(doa, geometry.bs_upa),
                     *upa_response_derivatives(doa, geometry.bs_upa)], axis=1)
    return Stage1Factors(beta=beta, resp=_read_only(resp), gram=_read_only(resp.conj().T @ resp))


def assemble_stage1(factors: Stage1Factors, probing: np.ndarray, noise_var: float) -> FimResult:
    """The stage-1 FIM of fim_stage1 from its factors and an (N_BS, T1) probing codebook."""
    beta = factors.beta
    aw, dw_mu, dw_nu = factors.resp.T @ probing
    zero = np.zeros_like(aw)
    # coef[r, k] is the row that response r carries in Jacobian column k
    coef = np.array([[beta * dw_mu, beta * dw_nu, aw, 1j * aw],
                     [beta * aw, zero, zero, zero],
                     [zero, beta * aw, zero, zero]])
    gram = np.einsum("rs,rkt,slt->kl", factors.gram, coef.conj(), coef)
    return _gaussian_fim(gram, noise_var, STAGE1_LABELS)


def fim_stage1(geometry: SceneGeometry, probing: np.ndarray, noise_var: float,
               target_index: int = 0) -> FimResult:
    """4x4 FIM over [mu_b2t, nu_b2t, Re beta, Im beta] from the Jacobian of the echo mean.

    The mean is vec(beta a (a^T W)) over the N_BS x T1 probing codebook W, so
    each angle's column is beta (adot (a^T W) + a (adot^T W)) and the gain's
    columns are [1, j] a (a^T W): column k is sum_r resp_r kron coef[r, k],
    over the responses resp = [a, adot_mu, adot_nu] and length-T1 rows coef.
    Its Gram is then sum_{r,s} (resp_r^H resp_s) coef[r, k]^H coef[s, l], so
    neither the N_BS T1 x 4 Jacobian nor any N_BS x N_BS matrix is formed.
    Only W and the noise enter after stage1_factors.
    """
    w = np.asarray(probing)
    n_bs = geometry.n_bs
    if w.ndim != 2 or w.shape[0] != n_bs:
        raise InvalidArgumentError(f"probing codebook must be ({n_bs}, T1), got {w.shape}")
    return assemble_stage1(stage1_factors(geometry, target_index), w, noise_var)


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


class Case1Factors(NamedTuple):
    """The power-independent part of the double-bounce FIM: path gains and scan sums.

    With s0 = (w^T q)^2 and s_mu, s_nu = 2 (w^T q)(w^T qdot_mu, nu) per sample,
    the sums run over the scan.
    """

    n_bs: int
    b_b2i: complex
    b_iti: complex
    mu_mu: float     # sum |s_mu|^2
    nu_nu: float     # sum |s_nu|^2
    mu_nu: float     # Re sum conj(s_mu) s_nu
    mu_0: complex    # sum conj(s_mu) s0
    nu_0: complex    # sum conj(s_nu) s0
    s0_s0: float     # sum |s0|^2


def case1_factors(geometry: SceneGeometry, irs_index: int, target_index: int,
                  irs_codewords: Sequence[np.ndarray]) -> Case1Factors:
    """Path gains and projection sums of the scan, for assemble_case1."""
    cfg = geometry.irs_upa[irs_index]
    comp = composite_angle(geometry, irs_index, target_index)
    wq, wq_mu, wq_nu = _projections(cfg, comp, irs_codewords)
    s0 = wq**2
    s_mu = 2.0 * wq * wq_mu
    s_nu = 2.0 * wq * wq_nu
    return Case1Factors(
        n_bs=geometry.n_bs,
        b_b2i=path_gain(PathKind.B2I, geometry, irs_index=irs_index).value,
        b_iti=path_gain(PathKind.ITI, geometry, irs_index=irs_index,
                        target_index=target_index).value,
        mu_mu=float(np.sum(np.abs(s_mu) ** 2)),
        nu_nu=float(np.sum(np.abs(s_nu) ** 2)),
        mu_nu=float(np.sum(np.conj(s_mu) * s_nu).real),
        mu_0=complex(np.sum(np.conj(s_mu) * s0)),
        nu_0=complex(np.sum(np.conj(s_nu) * s0)),
        s0_s0=float(np.sum(np.abs(s0) ** 2)),
    )


def assemble_case1(factors: Case1Factors, noise_var: float, p_bs_watts: float) -> FimResult:
    """The double-bounce FIM of fim_stage2_case1 from its factors; noise_var must be positive."""
    alpha = double_bounce_gain(factors.n_bs, factors.b_b2i, factors.b_iti, p_bs_watts)
    c = 2.0 / (noise_var * factors.n_bs)
    aa2 = abs(alpha) ** 2
    f = np.zeros((4, 4))
    f[0, 0] = c * aa2 * factors.mu_mu
    f[1, 1] = c * aa2 * factors.nu_nu
    f[0, 1] = f[1, 0] = c * aa2 * factors.mu_nu
    z_mu = np.conj(alpha) * factors.mu_0
    z_nu = np.conj(alpha) * factors.nu_0
    f[0, 2:] = c * np.array([z_mu.real, -z_mu.imag])
    f[1, 2:] = c * np.array([z_nu.real, -z_nu.imag])
    f[2:, 0] = f[0, 2:]
    f[2:, 1] = f[1, 2:]
    f[2:, 2:] = c * factors.s0_s0 * np.eye(2)
    return _finalize(f, CASE1_LABELS)


def fim_stage2_case1(geometry: SceneGeometry, irs_index: int, target_index: int,
                     irs_codewords: Sequence[np.ndarray], noise_var: float,
                     p_bs_watts: float = 1.0) -> FimResult:
    """4x4 FIM over [mu, nu, Re alpha, Im alpha] for the double-bounce model.

    The mean of sample t is alpha (w_t^T q)^2, so its derivatives are
    2 (w_t^T q)(w_t^T qdot) and (w_t^T q)^2: the FIM is sums over the scan of
    products of the three projections.  Kronecker codewords give those as
    per-axis beam gains; other sequences are projected densely.  The sums
    and path gains are case1_factors; the power enters only through alpha.
    """
    if noise_var <= 0:
        raise InvalidArgumentError("noise variance must be positive")
    return assemble_case1(case1_factors(geometry, irs_index, target_index, irs_codewords),
                          noise_var, p_bs_watts)


class Case2Factors(NamedTuple):
    """The power-independent part of the single-bounce FIM; arrays read-only."""

    n_bs: int
    b_b2i: complex
    b_bti: complex
    b: complex                       # a_irs^H a, the BS beam-mismatch scalar
    db_mu: complex                   # a_irs^H adot_mu
    db_nu: complex                   # a_irs^H adot_nu
    wq: np.ndarray                   # (samples,) w^T q
    wq_mu: np.ndarray                # (samples,) w^T qdot_mu
    wq_nu: np.ndarray                # (samples,) w^T qdot_nu


def case2_factors(geometry: SceneGeometry, irs_index: int, target_index: int,
                  irs_codewords: Sequence[np.ndarray]) -> Case2Factors:
    """Path gains, BS beam-mismatch scalars and per-sample projections, for assemble_case2."""
    cfg = geometry.irs_upa[irs_index]
    comp = composite_angle(geometry, irs_index, target_index)
    wq, wq_mu, wq_nu = _projections(cfg, comp, irs_codewords)
    a_irs = upa_response(geometry.bs_irs_aod(irs_index), geometry.bs_upa)
    bs_doa = geometry.bs_target_doa(target_index)
    da_mu, da_nu = upa_response_derivatives(bs_doa, geometry.bs_upa)
    return Case2Factors(
        n_bs=geometry.n_bs,
        b_b2i=path_gain(PathKind.B2I, geometry, irs_index=irs_index).value,
        b_bti=path_gain(PathKind.BTI, geometry, irs_index=irs_index,
                        target_index=target_index).value,
        b=complex(np.vdot(a_irs, upa_response(bs_doa, geometry.bs_upa))),
        db_mu=complex(np.vdot(a_irs, da_mu)),
        db_nu=complex(np.vdot(a_irs, da_nu)),
        wq=_read_only(wq), wq_mu=_read_only(wq_mu), wq_nu=_read_only(wq_nu),
    )


def assemble_case2(factors: Case2Factors, noise_var: float, p_bs_watts: float) -> FimResult:
    """The single-bounce FIM of fim_stage2_case2 from its factors."""
    alpha_t = single_bounce_gain(factors.n_bs, factors.b_b2i, factors.b_bti, p_bs_watts)
    b, wq = factors.b, factors.wq
    cols = [
        alpha_t * b * factors.wq_mu,
        alpha_t * b * factors.wq_nu,
        alpha_t * factors.db_mu * wq,
        alpha_t * factors.db_nu * wq,
        b * wq,
        1j * b * wq,
    ]
    jac = np.stack(cols, axis=1)
    # the matched filter's noise is CN(0, N_BS sigma^2) per sample
    return _gaussian_fim(jac.conj().T @ jac, noise_var * factors.n_bs, CASE2_LABELS)


def fim_stage2_case2(geometry: SceneGeometry, irs_index: int, target_index: int,
                     irs_codewords: Sequence[np.ndarray], noise_var: float,
                     p_bs_watts: float = 1.0) -> FimResult:
    """6x6 FIM over [mu_i2t, nu_i2t, mu_b2t, nu_b2t, Re/Im alpha_tilde].

    Mean alpha_tilde * b * w_t^T q, with b the BS beam-mismatch scalar; the
    angle derivatives split into w_t^T qdot terms and bdot scalars, so the
    FIM again needs only the three per-sample projections of the scan, which
    case2_factors keeps with b and bdot; the power enters only through alpha_tilde.
    """
    return assemble_case2(case2_factors(geometry, irs_index, target_index, irs_codewords),
                          noise_var, p_bs_watts)


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

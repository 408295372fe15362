"""Reflector-on stage: scan synthesis, matched filtering, and on-grid DoA estimation.

The BS beam is fixed toward the reflecting surface while the surface sweeps
conjugate-steering codewords over the spatial square.  After matched
filtering each sample collapses to a scalar whose magnitude peaks when the
swept beam hits the composite direction (arrival-from-BS plus
departure-to-target); subtracting the known arrival angles leaves the
surface-to-target DoA.
"""

from __future__ import annotations

import enum
import functools
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from ._gridpeaks import top_peaks_2d
from .arrays import SpatialAnglePair, UpaConfig, steering_matrix, steering_vector, upa_response
from .channel import (  # channel_b2i/bti/iti: unused, but perfbench traces them by name here
    PathKind,
    SceneGeometry,
    add_circular_noise,
    cascade_power_closed_form,
    channel_b2i,
    channel_bti,
    channel_iti,
    check_unit_modulus,
    path_gain,
)
from .errors import InvalidArgumentError, UnderResolvedError

SCAN_SUPPRESSION_RADIUS = 1  # beam-grid steps; scan grids are far coarser than the spectrum grid
CASE2_POWER_RATIO = 0.1  # p1/p2 below this is squarely single-bounce dominated


class Stage2Mode(enum.Enum):
    FULL_ECHO = "full"
    CASE1_APPROX = "case1"
    CASE2_APPROX = "case2"


class Regime(enum.Enum):
    CASE1_IRS_DOMINANT = "case1"
    CASE2_DIRECT_DOMINANT = "case2"
    MIXED = "mixed"


@dataclass(frozen=True, eq=False)  # hashed by identity: scan codewords are cached per plan
class IrsScanPlan:
    """Separable y/z scan codebooks over the endpoint-inclusive beam grids; read-only, one per shape."""

    t2_y: int
    t2_z: int
    mu_grid: np.ndarray      # (t2_y,) beam centers in [-1, 1]
    nu_grid: np.ndarray      # (t2_z,)
    codebook_y: np.ndarray   # (n_y, t2_y) unit-modulus columns
    codebook_z: np.ndarray   # (n_z, t2_z)
    hold_z_index: int        # center z codeword, held while the y axis sweeps


@dataclass(frozen=True, eq=False)
class KroneckerCodewords(Sequence):
    """Scan codewords kept as their Kronecker factors.

    Item t is kron(codebook_y[:, y_idx[t]], codebook_z[:, z_idx[t]]), so the
    value reads as the list of dense phase vectors, while the bounds can use
    the two codebooks and the per-sample beam indices directly.
    """

    codebook_y: np.ndarray   # (n_y, t2_y)
    codebook_z: np.ndarray   # (n_z, t2_z)
    y_idx: np.ndarray        # (samples,) y-beam of each sample
    z_idx: np.ndarray        # (samples,) z-beam of each sample

    def __post_init__(self):
        if np.shape(self.y_idx) != np.shape(self.z_idx) or np.ndim(self.y_idx) != 1:
            raise InvalidArgumentError("y and z beam indices must be two 1-D arrays of one length")

    def __len__(self) -> int:
        return len(self.y_idx)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return replace(self, y_idx=self.y_idx[t], z_idx=self.z_idx[t])
        return np.kron(self.codebook_y[:, self.y_idx[t]], self.codebook_z[:, self.z_idx[t]])


@dataclass
class ScanObservation:
    """Matched-filter outputs of one scan's sweeps, and the codewords that sent them in sample order."""

    codewords: KroneckerCodewords
    y_values: np.ndarray | None = None      # (t2_y,) the sequential y sweep
    z_values: np.ndarray | None = None      # (t2_z,) the sequential z sweep
    grid_values: np.ndarray | None = None   # (t2_y, t2_z) the joint sweep


@dataclass
class RegimeReport:
    p1: float
    p2: float
    regime: Regime
    threshold_nr: float


def _scan_grid(t2: int) -> np.ndarray:
    if t2 < 1:
        raise InvalidArgumentError("scan needs at least one beam")
    if t2 == 1:
        return np.array([0.0])
    return np.linspace(-1.0, 1.0, t2)


def build_scan_plan(irs_cfg: UpaConfig, t2_y: int, t2_z: int) -> IrsScanPlan:
    """Conjugate-steering codebooks on mu_i = -1 + 2(i-1)/(t2-1), endpoints inclusive.

    The same grid is used for synthesis and inversion so the two are exact
    inverses.  Fewer than 3 beams on an axis cannot pin down the direction
    and channel coefficient jointly, hence the warning; the plan is cached per shape.
    """
    if t2_y < 3 or t2_z < 3:
        warnings.warn(f"scan with {t2_y}x{t2_z} beams is below the 3-beam identifiability minimum",
                      stacklevel=2)
    return _scan_plan(irs_cfg, t2_y, t2_z)


@functools.lru_cache(maxsize=16)
def _scan_plan(irs_cfg: UpaConfig, t2_y: int, t2_z: int) -> IrsScanPlan:
    mu_grid = _scan_grid(t2_y)
    nu_grid = _scan_grid(t2_z)
    codebook_y = np.conj(steering_matrix(mu_grid, irs_cfg.n_y).T)
    codebook_z = np.conj(steering_matrix(nu_grid, irs_cfg.n_z).T)
    for a in (mu_grid, nu_grid, codebook_y, codebook_z):
        a.setflags(write=False)
    return IrsScanPlan(
        t2_y=t2_y, t2_z=t2_z, mu_grid=mu_grid, nu_grid=nu_grid,
        codebook_y=codebook_y, codebook_z=codebook_z,
        hold_z_index=(t2_z - 1) // 2,
    )


def cascade_scalar(theta: np.ndarray, b_in: np.ndarray, b_out: np.ndarray) -> complex:
    """b_in^T diag(theta) b_out, the surface-modulated coupling scalar; |q| <= N_r."""
    theta = np.asarray(theta)
    if theta.shape != b_in.shape or theta.shape != b_out.shape:
        raise InvalidArgumentError("theta and the two responses must share one length")
    check_unit_modulus(theta)
    return complex(np.sum(b_in * theta * b_out))


def matched_theta(b_in: np.ndarray, b_out: np.ndarray) -> np.ndarray:
    """Phase profile that drives the cascade scalar to its maximum N_r."""
    return np.conj(b_in * b_out)


def composite_angle(geometry: SceneGeometry, irs_index: int, target_index: int) -> SpatialAnglePair:
    """Arrival-from-BS plus departure-to-target spatial angles at the surface."""
    aoa = geometry.bs_irs_aoa(irs_index)
    dep = geometry.irs_target_doa(irs_index, target_index)
    return SpatialAnglePair(aoa.mu + dep.mu, aoa.nu + dep.nu)


def case1_amplitude(geometry: SceneGeometry, irs_index: int, target_index: int,
                    p_bs_watts: float) -> complex:
    """alpha = sqrt(P N_BS) N_BS beta_B2I^2 beta_ITI (double-bounce scalar gain)."""
    b_b2i = path_gain(PathKind.B2I, geometry, irs_index=irs_index)
    b_iti = path_gain(PathKind.ITI, geometry, irs_index=irs_index, target_index=target_index)
    n_bs = geometry.n_bs
    return np.sqrt(p_bs_watts * n_bs) * n_bs * b_b2i**2 * b_iti


def case2_amplitude(geometry: SceneGeometry, irs_index: int, target_index: int,
                    p_bs_watts: float) -> tuple[complex, complex]:
    """(alpha_tilde, b): single-bounce scalar gain and the BS beam-mismatch factor."""
    b_b2i = path_gain(PathKind.B2I, geometry, irs_index=irs_index)
    b_bti = path_gain(PathKind.BTI, geometry, irs_index=irs_index, target_index=target_index)
    alpha_t = 2.0 * np.sqrt(p_bs_watts * geometry.n_bs) * b_b2i * b_bti
    a_irs = upa_response(geometry.bs_irs_aod(irs_index), geometry.bs_upa)
    a_tgt = upa_response(geometry.bs_target_doa(target_index), geometry.bs_upa)
    b = complex(np.vdot(a_irs, a_tgt))
    return alpha_t, b


def beam_gains(cfg: UpaConfig, comp: SpatialAnglePair, codebook_y: np.ndarray,
               codebook_z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis steering products u^T(comp.mu) w_y and u^T(comp.nu) w_z over each codebook."""
    return (steering_vector(comp.mu, cfg.n_y) @ codebook_y,
            steering_vector(comp.nu, cfg.n_z) @ codebook_z)


def stage2_model(geometry: SceneGeometry, irs_index: int, plan: IrsScanPlan,
                 mode: Stage2Mode, p_bs_watts: float) -> np.ndarray:
    """Noiseless matched-filter samples at every beam pair (y, z) of the plan: (t2_y, t2_z).

    Every route is rank 1 and every codeword a Kronecker product, so the
    filtered echo of target k is alpha q^2 (double bounce, case 1) plus
    alpha_tilde b q (the two single bounces, case 2), with q = g_y g_z the
    separable cascade scalar, so each term is an outer product of a y and a
    z beam-gain vector.  The full echo is exactly the sum of both terms; each
    approximation keeps one.
    """
    cfg = geometry.irs_upa[irs_index]
    out = np.zeros((plan.t2_y, plan.t2_z), dtype=complex)
    for k in range(len(geometry.targets)):
        gy, gz = beam_gains(cfg, composite_angle(geometry, irs_index, k),
                            plan.codebook_y, plan.codebook_z)
        if mode is not Stage2Mode.CASE2_APPROX:
            alpha = case1_amplitude(geometry, irs_index, k, p_bs_watts)
            out += np.outer(alpha * gy ** 2, gz ** 2)
        if mode is not Stage2Mode.CASE1_APPROX:
            alpha_t, b = case2_amplitude(geometry, irs_index, k, p_bs_watts)
            out += np.outer(alpha_t * b * gy, gz)
    return out


def synthesize_stage2(geometry: SceneGeometry, irs_index: int, plan: IrsScanPlan,
                      noise_var: float, seed: int,
                      mode: Stage2Mode = Stage2Mode.CASE1_APPROX,
                      p_bs_watts: float = 1.0, joint: bool = False, *,
                      model: np.ndarray | None = None) -> ScanObservation:
    """Matched-filter samples for a scan: the joint grid (t2_y * t2_z) or two sweeps (t2_y + t2_z).

    The scan runs sweep by sweep and returns the codewords it sends:
    joint_codewords, or sequential_codewords whose z sweep holds the y-sweep
    peak.  Sample t reads model[y_idx[t], z_idx[t]] off the noiseless beam
    grid stage2_model(geometry, irs_index, plan, mode, p_bs_watts), built
    here unless the caller passes one; model is never written.  Every term
    is linear in sqrt(p_bs_watts), so a caller keeps the unit-power grid and
    passes sqrt(P) times it.  The BS beam is sqrt(P/N_BS) a*(arrival
    direction of the surface).
    Per-antenna noise n_t ~ CN(0, sigma^2 I) reaches the estimator only as
    a^H n_t, which is CN(0, N_BS sigma^2) since ||a||^2 = N_BS; every mode
    draws that scalar directly, all real parts of a sweep and then all
    imaginary parts, so the modes differ only in their signal model.
    """
    if model is None:
        model = stage2_model(geometry, irs_index, plan, mode, p_bs_watts)
    rng = np.random.default_rng(seed)

    def sweep(words, samples):  # always a new array, so an observation never aliases model
        vals = model[words.y_idx[samples], words.z_idx[samples]]
        return vals if noise_var <= 0 else add_circular_noise(vals, geometry.n_bs * noise_var, rng)

    if joint:
        words = joint_codewords(plan)
        return ScanObservation(words, grid_values=sweep(words, slice(None)).reshape(model.shape))
    y_vals = sweep(sequential_codewords(plan, 0), slice(plan.t2_y))  # the same for any hold
    words = sequential_codewords(plan, int(np.argmax(np.abs(y_vals) ** 2)))
    return ScanObservation(words, y_values=y_vals, z_values=sweep(words, slice(plan.t2_y, None)))


def classify_regime(geometry: SceneGeometry, irs_index: int, target_index: int) -> RegimeReport:
    """Compare the double-bounce power p1 against the single-bounce power p2.

    threshold_nr is the element count where the two closed forms cross,
    sqrt(2) beta_BTI / (beta_ITI beta_B2I); when the target is equidistant
    from the BS and the surface this reduces to sqrt(2) / beta_B2I.
    """
    p1, p2 = cascade_power_closed_form(geometry, irs_index, target_index)
    b_b2i = abs(path_gain(PathKind.B2I, geometry, irs_index=irs_index))
    b_iti = abs(path_gain(PathKind.ITI, geometry, irs_index=irs_index, target_index=target_index))
    b_bti = abs(path_gain(PathKind.BTI, geometry, irs_index=irs_index, target_index=target_index))
    threshold = np.sqrt(2.0) * b_bti / (b_iti * b_b2i)
    if p1 >= p2:
        regime = Regime.CASE1_IRS_DOMINANT
    elif p1 <= CASE2_POWER_RATIO * p2:
        regime = Regime.CASE2_DIRECT_DOMINANT
    else:
        regime = Regime.MIXED
    return RegimeReport(p1=p1, p2=p2, regime=regime, threshold_nr=float(threshold))


def scan_estimate(obs: ScanObservation, plan: IrsScanPlan, bs_irs_doa: SpatialAnglePair,
                  k: int = 1) -> list[SpatialAnglePair]:
    """Map the strongest beams back to surface-to-target DoAs.

    The scan's last sweep (the joint grid, or the sequential z sweep) yields
    its top-k separated peaks, and each reads its beams off the codeword that
    sent it.  A later sweep holds an earlier one's peak, so a scan of several
    serves one target.  The known arrival angles are subtracted.
    """
    last = obs.grid_values if obs.grid_values is not None else obs.z_values[None]
    words, first = obs.codewords, len(obs.codewords) - last.size  # the last sweep's first sample
    if first and k != 1:
        raise InvalidArgumentError(f"a sequential scan resolves one target, not {k}")
    pairs = top_peaks_2d(np.abs(last) ** 2, k, SCAN_SUPPRESSION_RADIUS)
    if len(pairs) < k:
        raise UnderResolvedError(f"found {len(pairs)} scan peaks, need {k}", found=len(pairs))
    samples = [first + i * last.shape[1] + j for i, j in pairs]
    return [SpatialAnglePair(float(plan.mu_grid[words.y_idx[t]]) - bs_irs_doa.mu,
                             float(plan.nu_grid[words.z_idx[t]]) - bs_irs_doa.nu) for t in samples]


@functools.lru_cache(maxsize=256)
def sequential_codewords(plan: IrsScanPlan, hold_y: int) -> KroneckerCodewords:
    """Per-sample phase vectors of a sequential scan, cached per (plan, hold_y), read-only.

    The y sweep holds z beam plan.hold_z_index, then the z sweep holds y beam
    hold_y, which a scan sets to the y sweep's peak.
    """
    return _plan_codewords(plan, np.r_[np.arange(plan.t2_y), np.full(plan.t2_z, hold_y)],
                           np.r_[np.full(plan.t2_y, plan.hold_z_index), np.arange(plan.t2_z)])


@functools.lru_cache(maxsize=16)
def joint_codewords(plan: IrsScanPlan) -> KroneckerCodewords:
    """Per-sample phase vectors of a joint scan, row-major over (y, z) beams, cached per plan."""
    return _plan_codewords(plan, *np.indices((plan.t2_y, plan.t2_z)).reshape(2, -1))


def _plan_codewords(plan: IrsScanPlan, y_idx: np.ndarray, z_idx: np.ndarray) -> KroneckerCodewords:
    for idx in (y_idx, z_idx):  # a cached value is shared, so it must stay unwritten
        idx.setflags(write=False)
    return KroneckerCodewords(plan.codebook_y, plan.codebook_z, y_idx, z_idx)

"""Line-of-sight path gains and channel matrices for the four echo routes.

All four channels are rank-1 outer products of planar-array responses.  The
routes are named by their hops: BTB (BS-target-BS), B2I (BS-IRS), ITI
(IRS-target-IRS), and BTI (BS-target-IRS).  Both stages synthesize from the
rank-1 factors; the dense builders back the test oracles in tests/oracles.py,
which check the samples and the power identities (honest Frobenius norms).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np

from .arrays import (
    SPEED_OF_LIGHT,
    Position3,
    SpatialAnglePair,
    UpaConfig,
    is_number,
    upa_response,
)
from .arrays import spatial_doa as _spatial_doa
from .errors import DegenerateGeometryError, InvalidArgumentError


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def dbsm_to_m2(dbsm: float) -> float:
    return 10.0 ** (dbsm / 10.0)


class PathKind(enum.Enum):
    BTB = "btb"
    B2I = "b2i"
    ITI = "iti"
    BTI = "bti"


@dataclass(frozen=True)
class SceneGeometry:
    """Sites, arrays, and RF constants for one localization scene; frozen, lists become tuples.

    The hash of the fields is computed once, as every cache keyed on a scene looks it up.
    """

    bs: Position3
    irs: tuple[Position3, ...]
    targets: tuple[Position3, ...]
    bs_upa: UpaConfig
    irs_upa: tuple[UpaConfig, ...]
    carrier_freq_hz: float = 750e6
    rcs_dbsm: tuple[float, ...] = ()

    def __post_init__(self):
        for name in ("irs", "targets", "irs_upa", "rcs_dbsm"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not (is_number(self.carrier_freq_hz) and np.isfinite(self.carrier_freq_hz)
                and self.carrier_freq_hz > 0):
            raise InvalidArgumentError(
                f"carrier frequency {self.carrier_freq_hz!r} must be a finite positive number")
        if len(self.irs_upa) != len(self.irs):
            raise InvalidArgumentError("need one UPA config per reflecting surface")
        if not self.rcs_dbsm:
            object.__setattr__(self, "rcs_dbsm", (7.0,) * len(self.targets))
        if len(self.rcs_dbsm) != len(self.targets):
            raise InvalidArgumentError("need one RCS value per target")
        if not all(is_number(v) and np.isfinite(v) for v in self.rcs_dbsm):
            raise InvalidArgumentError(f"RCS values {self.rcs_dbsm!r} must be finite numbers")
        for i in range(len(self.irs)):
            if self.d_b2i(i) < 1e-9:  # the BS-surface hop would have no direction
                raise InvalidArgumentError(f"reflecting surface irs[{i}] coincides with the BS")
        object.__setattr__(self, "_hash", hash(tuple(getattr(self, f.name) for f in fields(self))))

    def __hash__(self) -> int:
        return self._hash

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz

    @property
    def n_bs(self) -> int:
        return self.bs_upa.n

    def n_irs(self, irs_index: int) -> int:
        return self.irs_upa[irs_index].n

    def rcs_m2(self, target_index: int) -> float:
        return dbsm_to_m2(self.rcs_dbsm[target_index])

    # Direction helpers.  All use the propagation direction of the named hop;
    # departures scale by the departing array's spacing, arrivals by the
    # receiving array's.
    def bs_target_doa(self, target_index: int) -> SpatialAnglePair:
        return _spatial_doa(self.bs, self.targets[target_index], self.bs_upa.spacing_over_lambda)

    def bs_irs_aod(self, irs_index: int) -> SpatialAnglePair:
        return _spatial_doa(self.bs, self.irs[irs_index], self.bs_upa.spacing_over_lambda)

    def bs_irs_aoa(self, irs_index: int) -> SpatialAnglePair:
        return _spatial_doa(self.bs, self.irs[irs_index], self.irs_upa[irs_index].spacing_over_lambda)

    def irs_target_doa(self, irs_index: int, target_index: int) -> SpatialAnglePair:
        return _spatial_doa(self.irs[irs_index], self.targets[target_index],
                            self.irs_upa[irs_index].spacing_over_lambda)

    def distance(self, a: Position3, b: Position3) -> float:
        return float(np.linalg.norm(a.as_array() - b.as_array()))

    def d_b2t(self, target_index: int) -> float:
        return self.distance(self.bs, self.targets[target_index])

    def d_b2i(self, irs_index: int) -> float:
        return self.distance(self.bs, self.irs[irs_index])

    def d_i2t(self, irs_index: int, target_index: int) -> float:
        return self.distance(self.irs[irs_index], self.targets[target_index])


def _check_distance(d: float, what: str) -> None:
    if d < 1e-9:
        raise DegenerateGeometryError(f"zero {what} distance")


def path_gain(kind: PathKind, geometry: SceneGeometry,
              irs_index: int | None = None, target_index: int | None = None) -> complex:
    """Complex path gain for one route.

    Magnitudes follow the radar/free-space laws:
      BTB:  sqrt(lambda^2 kappa / (64 pi^3 d^4)),      phase -4 pi d / lambda
      B2I:  lambda / (4 pi d),                         phase -2 pi d / lambda
      ITI:  sqrt(lambda^2 kappa / (64 pi^3 d_it^4)),   phase -4 pi d_it / lambda
      BTI:  sqrt(lambda^2 kappa / (64 pi^3 d_bt^2 d_it^2)), phase -2 pi (d_bt + d_it) / lambda
    """
    lam = geometry.wavelength
    if kind is PathKind.BTB:
        d = geometry.d_b2t(target_index)
        _check_distance(d, "BS-target")
        kappa = geometry.rcs_m2(target_index)
        mag = np.sqrt(lam**2 * kappa / (64 * np.pi**3 * d**4))
        phase = -4 * np.pi * d / lam
    elif kind is PathKind.B2I:
        d = geometry.d_b2i(irs_index)
        _check_distance(d, "BS-IRS")
        mag = lam / (4 * np.pi * d)
        phase = -2 * np.pi * d / lam
    elif kind is PathKind.ITI:
        d = geometry.d_i2t(irs_index, target_index)
        _check_distance(d, "IRS-target")
        kappa = geometry.rcs_m2(target_index)
        mag = np.sqrt(lam**2 * kappa / (64 * np.pi**3 * d**4))
        phase = -4 * np.pi * d / lam
    elif kind is PathKind.BTI:
        d_bt = geometry.d_b2t(target_index)
        d_it = geometry.d_i2t(irs_index, target_index)
        _check_distance(d_bt, "BS-target")
        _check_distance(d_it, "IRS-target")
        kappa = geometry.rcs_m2(target_index)
        mag = np.sqrt(lam**2 * kappa / (64 * np.pi**3 * d_bt**2 * d_it**2))
        phase = -2 * np.pi * (d_bt + d_it) / lam
    else:
        raise InvalidArgumentError(f"unknown path kind {kind}")
    return complex(mag * np.exp(1j * phase))


def _symmetric_outer(beta: complex, v: np.ndarray) -> np.ndarray:
    # beta * v v^T is symmetric in exact arithmetic; averaging with the
    # transpose makes that hold bitwise despite non-commutative SIMD rounding
    h = beta * np.outer(v, v)
    return 0.5 * (h + h.T)


def channel_btb(geometry: SceneGeometry, target_index: int) -> np.ndarray:
    """BS-target-BS channel beta * a a^T (N_BS x N_BS, rank 1, symmetric)."""
    beta = path_gain(PathKind.BTB, geometry, target_index=target_index)
    a = upa_response(geometry.bs_target_doa(target_index), geometry.bs_upa)
    return _symmetric_outer(beta, a)


def channel_b2i(geometry: SceneGeometry, irs_index: int) -> np.ndarray:
    """BS-to-IRS channel beta * b_r a^T (N_r x N_BS, rank 1)."""
    beta = path_gain(PathKind.B2I, geometry, irs_index=irs_index)
    b_r = upa_response(geometry.bs_irs_aoa(irs_index), geometry.irs_upa[irs_index])
    a = upa_response(geometry.bs_irs_aod(irs_index), geometry.bs_upa)
    return beta * np.outer(b_r, a)


def channel_iti(geometry: SceneGeometry, irs_index: int, target_index: int) -> np.ndarray:
    """IRS-target-IRS channel beta * b_t b_t^T (N_r x N_r, rank 1, symmetric)."""
    beta = path_gain(PathKind.ITI, geometry, irs_index=irs_index, target_index=target_index)
    b_t = upa_response(geometry.irs_target_doa(irs_index, target_index), geometry.irs_upa[irs_index])
    return _symmetric_outer(beta, b_t)


def channel_bti(geometry: SceneGeometry, irs_index: int, target_index: int) -> np.ndarray:
    """BS-target-IRS channel beta * b_t a^T (N_r x N_BS, rank 1)."""
    beta = path_gain(PathKind.BTI, geometry, irs_index=irs_index, target_index=target_index)
    b_t = upa_response(geometry.irs_target_doa(irs_index, target_index), geometry.irs_upa[irs_index])
    a = upa_response(geometry.bs_target_doa(target_index), geometry.bs_upa)
    return beta * np.outer(b_t, a)


def check_unit_modulus(phases: np.ndarray) -> None:
    """Reject surface phases or codewords with an entry off the unit circle (elements are phase-only)."""
    if np.any(np.abs(np.abs(phases) - 1.0) > 1e-9):
        raise InvalidArgumentError("reflecting-surface phases must be unit modulus")


def add_circular_noise(signal: np.ndarray, variance: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. CN(0, variance) entries into the complex array signal and return it.

    One normal block holds all real parts, drawn first, then all imaginary
    parts.  signal is written, so a caller passes an array of its own.
    """
    noise = rng.standard_normal((2, *signal.shape))
    noise *= np.sqrt(variance / 2.0)
    signal.real += noise[0]
    signal.imag += noise[1]
    return signal


def cascade_power_closed_form(geometry: SceneGeometry, irs_index: int,
                              target_index: int) -> tuple[float, float]:
    """Closed-form powers of the double-bounce and single-bounce reflected links.

    With the reflecting phases matched so the cascade scalar reaches N_r:
      P1 = |beta_ITI * beta_B2I^2|^2 * N_BS^2 * N_r^4   (BS-IRS-target-IRS-BS)
      P2 = 2 |beta_BTI * beta_B2I|^2 * N_BS^2 * N_r^2   (BS-target-IRS-BS + reverse)
    Both equal the Frobenius norms of the corresponding dense cascades exactly.
    """
    n_bs = geometry.n_bs
    n_r = geometry.n_irs(irs_index)
    b_b2i = abs(path_gain(PathKind.B2I, geometry, irs_index=irs_index))
    b_iti = abs(path_gain(PathKind.ITI, geometry, irs_index=irs_index, target_index=target_index))
    b_bti = abs(path_gain(PathKind.BTI, geometry, irs_index=irs_index, target_index=target_index))
    p1 = (b_iti * b_b2i**2) ** 2 * n_bs**2 * n_r**4
    p2 = 2 * (b_bti * b_b2i) ** 2 * n_bs**2 * n_r**2
    return p1, p2

"""Steering vectors, planar-array responses, their derivatives, and spatial-angle geometry.

Spatial angles (mu, nu) are dimensionless: mu = (2d/lambda)*cos(elev)*sin(azim),
nu = (2d/lambda)*sin(elev).  At half-wavelength spacing they reduce to the
direction cosines along the array's y and z axes, which is how they are
computed from site coordinates here.  Array phase centers sit at the element
centroid, so every steering vector carries the centered phase progression.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InvalidArgumentError

SPEED_OF_LIGHT = 299792458.0
"""Speed of light in m/s (exact)."""


def is_number(value) -> bool:
    """A real number that is not a boolean (float(True) would pass for 1)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class UpaConfig:
    """Uniform planar array with n_y x n_z elements in the y-z plane."""

    n_y: int
    n_z: int
    spacing_over_lambda: float = 0.5

    def __post_init__(self):
        for count in (self.n_y, self.n_z):
            if not isinstance(count, numbers.Integral) or isinstance(count, bool):
                raise InvalidArgumentError(f"UPA element count {count!r} must be an integer")
        if self.n_y < 1 or self.n_z < 1:
            raise InvalidArgumentError(f"UPA needs at least one element per axis, got {self.n_y}x{self.n_z}")
        spacing = self.spacing_over_lambda
        if not (is_number(spacing) and np.isfinite(spacing) and spacing > 0):
            raise InvalidArgumentError(
                f"element spacing {spacing!r} must be finite and positive")

    @property
    def n(self) -> int:
        return self.n_y * self.n_z


@dataclass(frozen=True)
class SpatialAnglePair:
    """Dimensionless spatial azimuth/elevation pair (mu, nu)."""

    mu: float
    nu: float

    def as_array(self) -> np.ndarray:
        return np.array([self.mu, self.nu])


@dataclass(frozen=True)
class Position3:
    """Cartesian position in meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(is_number(v) and np.isfinite(v) for v in (self.x, self.y, self.z)):
            raise InvalidArgumentError(f"position {self!r} must have finite real coordinates")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def steering_vector(phi: float, n: int) -> np.ndarray:
    """Centered steering vector [e^{-j(n-1)pi*phi/2}, ..., e^{+j(n-1)pi*phi/2}].

    Entry i (1-based) is exp(j*(2i-1-n)*pi*phi/2); unit modulus, squared norm n.
    """
    if n < 1:
        raise InvalidArgumentError("array size must be >= 1")
    k = np.arange(n)
    return np.exp(1j * np.pi * phi * (2 * k + 1 - n) / 2)


def steering_derivative(phi: float, n: int) -> np.ndarray:
    """Elementwise derivative of steering_vector with respect to phi.

    Satisfies du^H du = (pi^2/4) * sum_k (n-2k+1)^2 and du^H u = 0 for the
    centered array.
    """
    if n < 1:
        raise InvalidArgumentError("array size must be >= 1")
    k = np.arange(n)
    c = 1j * np.pi * (2 * k + 1 - n) / 2
    return c * np.exp(c * phi)


def steering_matrix(phis: np.ndarray, n: int) -> np.ndarray:
    """Steering vectors for a batch of directions, one per row (len(phis) x n)."""
    phis = np.asarray(phis, dtype=float)
    k = np.arange(n)
    return np.exp(1j * np.pi * np.outer(phis, (2 * k + 1 - n) / 2))


def upa_response(angles: SpatialAnglePair, cfg: UpaConfig) -> np.ndarray:
    """UPA response u(mu, n_y) kron u(nu, n_z); squared norm n_y*n_z."""
    return np.kron(steering_vector(angles.mu, cfg.n_y), steering_vector(angles.nu, cfg.n_z))


def upa_response_derivatives(angles: SpatialAnglePair, cfg: UpaConfig) -> tuple[np.ndarray, np.ndarray]:
    """Partial derivatives of upa_response w.r.t. mu and nu (Kronecker chain rule)."""
    u_y = steering_vector(angles.mu, cfg.n_y)
    u_z = steering_vector(angles.nu, cfg.n_z)
    d_mu = np.kron(steering_derivative(angles.mu, cfg.n_y), u_z)
    d_nu = np.kron(u_y, steering_derivative(angles.nu, cfg.n_z))
    return d_mu, d_nu


def spatial_doa(from_pos: Position3, to_pos: Position3, spacing_over_lambda: float = 0.5) -> SpatialAnglePair:
    """Spatial angles of the from->to direction, scaled by 2*spacing_over_lambda.

    At the default half-wavelength spacing this is the (y, z) direction-cosine
    pair of the line of sight, the same quantity the location construction
    inverts.
    """
    diff = to_pos.as_array() - from_pos.as_array()
    dist = float(np.linalg.norm(diff))
    if dist < 1e-12:
        raise DegenerateGeometryError("coincident endpoints have no direction")
    scale = 2.0 * spacing_over_lambda
    return SpatialAnglePair(float(scale * diff[1] / dist), float(scale * diff[2] / dist))


def check_power(power: float) -> None:
    """InvalidArgumentError unless the transmit power (watts) is finite and positive."""
    if not (math.isfinite(power) and power > 0):
        raise InvalidArgumentError(f"transmit power {power!r} must be finite and positive")


def dft_codebook(n: int, t: int, power: float) -> np.ndarray:
    """DFT probing codebook, one codeword per column (n x t).

    Entry (k, tau), 0-based, is sqrt(power/n) * exp(-j*2*pi*tau*k/t), looked up
    among the t roots of unity at (tau*k) mod t, so no phase exceeds 2*pi.  The
    sample coherence (1/t) W W^H equals (power/n) I whenever t is a multiple
    of n, and tr((1/t) W W^H) = power always.
    """
    if n < 1 or t < 1:
        raise InvalidArgumentError("codebook dimensions must be >= 1")
    check_power(power)
    if t < n:
        warnings.warn(f"codebook with t={t} < n={n} columns cannot be spatially white", stacklevel=2)
    return np.sqrt(power / n) * _dft_table(n, t)


@functools.lru_cache(maxsize=8)
def _dft_table(n: int, t: int) -> np.ndarray:
    """Read-only (n, t) table of exp(-j*2*pi*((tau*k) mod t)/t), shared by every power."""
    table = np.exp(-2j * np.pi * np.arange(t) / t)[np.outer(np.arange(n), np.arange(t)) % t]
    table.setflags(write=False)
    return table

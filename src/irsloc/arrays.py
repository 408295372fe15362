"""Steering vectors, planar-array responses, their derivatives, and spatial-angle geometry.

Spatial angles (mu, nu) are dimensionless: mu = (2d/lambda)*cos(elev)*sin(azim),
nu = (2d/lambda)*sin(elev).  At half-wavelength spacing they reduce to the
direction cosines along the array's y and z axes, which is how they are
computed from site coordinates here.  Array phase centers sit at the element
centroid, so every steering vector carries the centered phase progression.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InvalidArgumentError

SPEED_OF_LIGHT = 299792458.0
"""Speed of light in m/s (exact)."""


@dataclass(frozen=True)
class UpaConfig:
    """Uniform planar array with n_y x n_z elements in the y-z plane."""

    n_y: int
    n_z: int
    spacing_over_lambda: float = 0.5

    def __post_init__(self):
        if self.n_y < 1 or self.n_z < 1:
            raise InvalidArgumentError(f"UPA needs at least one element per axis, got {self.n_y}x{self.n_z}")
        if self.spacing_over_lambda <= 0:
            raise InvalidArgumentError("element spacing must be positive")

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
        if not (np.isfinite(self.x) and np.isfinite(self.y) and np.isfinite(self.z)):
            raise InvalidArgumentError("position components must be finite")

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


def dft_codebook(n: int, t: int, power: float) -> np.ndarray:
    """DFT probing codebook, one codeword per column (n x t).

    Entry (k, tau), 0-based, is sqrt(power/n) * exp(-j*2*pi*tau*k/t), looked up
    among the t roots of unity at (tau*k) mod t, so no phase exceeds 2*pi.  The
    sample coherence (1/t) W W^H equals (power/n) I whenever t is a multiple
    of n, and tr((1/t) W W^H) = power always.
    """
    if n < 1 or t < 1:
        raise InvalidArgumentError("codebook dimensions must be >= 1")
    if power <= 0:
        raise InvalidArgumentError("transmit power must be positive")
    if t < n:
        warnings.warn(f"codebook with t={t} < n={n} columns cannot be spatially white", stacklevel=2)
    roots = np.exp(-2j * np.pi * np.arange(t) / t)
    return np.sqrt(power / n) * roots[np.outer(np.arange(n), np.arange(t)) % t]


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

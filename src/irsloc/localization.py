"""3D location construction from DoA pairs and target matching.

One BS DoA plus one surface DoA pin down the two ranges through a 2x2 linear
system in the y-z plane; the x coordinate comes from the BS range sphere,
with the surface sphere breaking the sign ambiguity.  Multi-target scenes
enumerate DoA-to-target assignments over surface pairs and keep the
assignment whose reconstructions re-predict the other surface's DoAs best.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .arrays import Position3, SpatialAnglePair, spatial_doa
from .channel import SceneGeometry
from .errors import (
    CapacityError,
    CollinearGeometryError,
    DegenerateGeometryError,
    InconsistentDoAError,
    InvalidArgumentError,
)

DENOMINATOR_TOL = 1e-9
BS_RADICAND_TOL = 1e-9
MATCHING_BUDGET = 5


@dataclass(frozen=True)
class DoAPairObservation:
    bs_doa: SpatialAnglePair
    irs_doa: SpatialAnglePair
    irs_index: int


@dataclass
class LocationEstimate:
    position: Position3
    d_b2t: float
    d_i2t: float
    residual: float


def construct_location(obs: DoAPairObservation, geometry: SceneGeometry) -> LocationEstimate:
    """Invert the direction-cosine equations to a 3D point.

    Each spatial angle is first divided by its array's 2d/lambda factor
    (1 at half-wavelength spacing) to give a direction cosine.  With those,
    d_b2t = (nu_i (y_bs - y_irs) - mu_i (z_bs - z_irs)) / (mu_i nu_b - mu_b nu_i),
    then y, z follow from the BS ray and x from the BS sphere.  Of the two x
    roots, the one whose unsigned distance to the surface plane best matches
    the surface-sphere radius is kept; exact ties prefer the front half-space
    x >= x_irs.  The surface-sphere radicand is clamped at zero when noise
    pushes it negative: it only steers the branch choice, and targets near
    the surface plane sit exactly on that boundary.
    """
    bs_scale = 2.0 * geometry.bs_upa.spacing_over_lambda
    irs_scale = 2.0 * geometry.irs_upa[obs.irs_index].spacing_over_lambda
    mu_b, nu_b = obs.bs_doa.mu / bs_scale, obs.bs_doa.nu / bs_scale
    mu_i, nu_i = obs.irs_doa.mu / irs_scale, obs.irs_doa.nu / irs_scale
    bs = geometry.bs
    irs = geometry.irs[obs.irs_index]

    den = mu_i * nu_b - mu_b * nu_i
    if abs(den) < DENOMINATOR_TOL:
        raise CollinearGeometryError(f"DoA pair denominator {den:.3e} below tolerance")
    d_b2t = (nu_i * (bs.y - irs.y) - mu_i * (bs.z - irs.z)) / den
    d_i2t = (nu_b * (irs.y - bs.y) - mu_b * (irs.z - bs.z)) / (-den)
    if d_b2t <= 0 or d_i2t <= 0:
        raise InconsistentDoAError(f"non-positive range solution ({d_b2t:.3f}, {d_i2t:.3f})",
                                   radicand=min(d_b2t, d_i2t))

    y_t = bs.y + mu_b * d_b2t
    z_t = bs.z + nu_b * d_b2t

    rad_bs = d_b2t**2 - (y_t - bs.y) ** 2 - (z_t - bs.z) ** 2
    if rad_bs < -BS_RADICAND_TOL:
        raise InconsistentDoAError(f"BS sphere radicand {rad_bs:.3e} negative", radicand=rad_bs)
    rad_bs = max(rad_bs, 0.0)
    rad_irs = d_i2t**2 - (y_t - irs.y) ** 2 - (z_t - irs.z) ** 2
    sphere_radius = np.sqrt(max(rad_irs, 0.0))

    # Multi-surface scenes place targets on either side of a surface's plane,
    # so the sphere consistency check compares unsigned x gaps; the
    # front-half-space preference survives only as the tie-breaker.
    half_width = np.sqrt(rad_bs)
    candidates = [bs.x + half_width, bs.x - half_width]
    gaps = [abs(abs(x - irs.x) - sphere_radius) for x in candidates]
    if abs(gaps[0] - gaps[1]) <= 1e-12 * (1.0 + sphere_radius):
        front = [x for x in candidates if x >= irs.x - BS_RADICAND_TOL]
        x_t = front[0] if front else candidates[0]
        residual = gaps[0]
    else:
        pick = int(np.argmin(gaps))
        x_t = candidates[pick]
        residual = gaps[pick]
    return LocationEstimate(
        position=Position3(float(x_t), float(y_t), float(z_t)),
        d_b2t=float(d_b2t), d_i2t=float(d_i2t), residual=float(residual),
    )


@dataclass
class PairAssignment:
    """One scored surface-pair assignment: its residual and the constructions it keeps."""

    residual: float
    estimates: list[LocationEstimate]


def _doa_residual(est: SpatialAnglePair, ref: SpatialAnglePair) -> float:
    return (est.mu - ref.mu) ** 2 + (est.nu - ref.nu) ** 2


def _constructions(bs_doas, doas, irs_index, geometry):
    """Per-permutation construction lists; None where the geometry rejects one."""
    k = len(bs_doas)
    out = {}
    for perm in itertools.permutations(range(k)):
        ests = []
        for j in range(k):
            try:
                ests.append(construct_location(
                    DoAPairObservation(bs_doas[j], doas[perm[j]], irs_index), geometry))
            except (DegenerateGeometryError, InconsistentDoAError):
                ests = None
                break
        out[perm] = ests
    return out


def enumerate_pair_assignments(bs_doas, doas_a, doas_b, irs_a: int, irs_b: int,
                               geometry: SceneGeometry) -> list[PairAssignment]:
    """Score every joint assignment of two surfaces' DoA lists against each other.

    Candidates built from surface A must re-predict surface B's DoAs under
    B's assignment, and vice versa; the residual is the stacked squared DoA
    mismatch of both cross-checks.  Returned sorted, best first.
    """
    k = len(bs_doas)
    cons_a = _constructions(bs_doas, doas_a, irs_a, geometry)
    cons_b = _constructions(bs_doas, doas_b, irs_b, geometry)
    spacing_a = geometry.irs_upa[irs_a].spacing_over_lambda
    spacing_b = geometry.irs_upa[irs_b].spacing_over_lambda
    results = []
    for perm_a, ests_a in cons_a.items():
        if ests_a is None:
            continue
        for perm_b, ests_b in cons_b.items():
            if ests_b is None:
                continue
            res_a = sum(
                _doa_residual(spatial_doa(geometry.irs[irs_b], ests_a[j].position, spacing_b),
                              doas_b[perm_b[j]])
                for j in range(k))
            res_b = sum(
                _doa_residual(spatial_doa(geometry.irs[irs_a], ests_b[j].position, spacing_a),
                              doas_a[perm_a[j]])
                for j in range(k))
            results.append(PairAssignment(residual=float(np.sqrt(res_a + res_b)),
                                          estimates=ests_a if res_a <= res_b else ests_b))
    results.sort(key=lambda r: r.residual)
    return results


def match_and_localize(bs_doas: list[SpatialAnglePair],
                       per_irs_doas: dict[int, list[SpatialAnglePair]],
                       geometry: SceneGeometry) -> list[LocationEstimate]:
    """Assign surface DoAs to BS DoAs and reconstruct every target.

    Output order follows bs_doas.  Each surface pair contributes the
    reconstruction of its best joint assignment; positions are averaged
    across pairs.  Pairs whose every assignment fails are skipped with a
    warning.
    """
    k = len(bs_doas)
    if k < 1:
        raise InvalidArgumentError("need at least one BS DoA")
    if k > MATCHING_BUDGET:
        raise CapacityError(f"{k} targets exceed the factorial matching budget {MATCHING_BUDGET}")
    irs_ids = sorted(per_irs_doas)
    for m in irs_ids:
        if not (0 <= m < len(geometry.irs)):
            raise InvalidArgumentError(f"unknown surface index {m}")
        if len(per_irs_doas[m]) != k:
            raise InvalidArgumentError("every surface must report one DoA per target")

    if k == 1 and len(irs_ids) == 1:
        m = irs_ids[0]
        return [construct_location(DoAPairObservation(bs_doas[0], per_irs_doas[m][0], m), geometry)]
    if len(irs_ids) < 2:
        raise InvalidArgumentError("multi-target matching needs at least 2 surfaces")

    per_pair: list[list[LocationEstimate]] = []
    residuals: list[float] = []
    for irs_a, irs_b in itertools.combinations(irs_ids, 2):
        ranked = enumerate_pair_assignments(bs_doas, per_irs_doas[irs_a], per_irs_doas[irs_b],
                                            irs_a, irs_b, geometry)
        if not ranked:
            warnings.warn(f"surface pair ({irs_a}, {irs_b}) fully degenerate; skipped", stacklevel=2)
            continue
        per_pair.append(ranked[0].estimates)
        residuals.append(ranked[0].residual)
    if not per_pair:
        raise DegenerateGeometryError("every surface pair was degenerate")

    merged = []
    for j in range(k):
        positions = np.mean([ests[j].position.as_array() for ests in per_pair], axis=0)
        template = per_pair[int(np.argmin(residuals))][j]
        merged.append(LocationEstimate(
            position=Position3(*map(float, positions)),
            d_b2t=float(np.linalg.norm(positions - geometry.bs.as_array())),
            d_i2t=template.d_i2t,
            residual=float(np.mean(residuals)),
        ))
    return merged

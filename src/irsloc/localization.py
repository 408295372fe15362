"""3D location construction from DoA pairs and target matching.

One BS DoA plus one surface DoA pin down the two ranges through a 2x2 linear
system in the y-z plane; the x coordinate comes from the BS range sphere,
with the surface sphere breaking the sign ambiguity.  Multi-target scenes
build one table of every (BS DoA, surface DoA) construction per surface,
enumerate DoA-to-target assignments over surface pairs from those tables,
and keep the assignment whose reconstructions re-predict the other surface's
DoAs best.
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
    else:
        x_t = candidates[int(np.argmin(gaps))]
    return LocationEstimate(position=Position3(float(x_t), float(y_t), float(z_t)),
                            d_b2t=float(d_b2t), d_i2t=float(d_i2t))


@dataclass
class PairAssignment:
    """One scored surface-pair assignment: its residual and the constructions it keeps."""

    residual: float
    estimates: list[LocationEstimate]


def _construct_or_none(obs: DoAPairObservation, geometry: SceneGeometry) -> LocationEstimate | None:
    try:
        return construct_location(obs, geometry)
    except (DegenerateGeometryError, InconsistentDoAError):
        return None


def construction_table(bs_doas, doas, irs_index: int,
                       geometry: SceneGeometry) -> list[list[LocationEstimate | None]]:
    """Entry [j][i] constructs BS DoA j with surface DoA i; None where the geometry rejects the pair."""
    return [[_construct_or_none(DoAPairObservation(bs_doa, doa, irs_index), geometry) for doa in doas]
            for bs_doa in bs_doas]


def _valid_orders(table) -> list[tuple[int, ...]]:
    """Lexicographic orders perm (BS DoA j takes surface DoA perm[j]) whose constructions all exist."""
    return [perm for perm in itertools.permutations(range(len(table)))
            if all(table[j][i] is not None for j, i in enumerate(perm))]


def _mismatches(table, orders, irs, spacing, doas) -> dict:
    """Squared DoA mismatch, at irs, of each construction (j, i) some order uses to each of doas."""
    out = {}
    for j, i in {(j, i) for perm in orders for j, i in enumerate(perm)}:
        p = spatial_doa(irs, table[j][i].position, spacing)
        out[j, i] = [(p.mu - doa.mu) ** 2 + (p.nu - doa.nu) ** 2 for doa in doas]
    return out


def enumerate_pair_assignments(table_a, table_b, doas_a, doas_b, irs_a: int, irs_b: int,
                               geometry: SceneGeometry) -> list[PairAssignment]:
    """Score every joint assignment of two surfaces' DoA lists against each other.

    table_a and table_b are the surfaces' construction_table.  Candidates
    built from surface A must re-predict surface B's DoAs under B's
    assignment, and vice versa; the residual is the stacked squared DoA
    mismatch of both cross-checks.  Returned stable-sorted, best first.
    """
    orders_a, orders_b = _valid_orders(table_a), _valid_orders(table_b)
    if not (orders_a and orders_b):
        return []
    miss_a = _mismatches(table_a, orders_a, geometry.irs[irs_b],
                         geometry.irs_upa[irs_b].spacing_over_lambda, doas_b)
    miss_b = _mismatches(table_b, orders_b, geometry.irs[irs_a],
                         geometry.irs_upa[irs_a].spacing_over_lambda, doas_a)
    results = []
    for perm_a in orders_a:
        for perm_b in orders_b:
            # plain sums over j in order: np.sum's pairwise order would move the low bits ranked here
            res_a = sum(miss_a[j, i][perm_b[j]] for j, i in enumerate(perm_a))
            res_b = sum(miss_b[j, i][perm_a[j]] for j, i in enumerate(perm_b))
            table, perm = (table_a, perm_a) if res_a <= res_b else (table_b, perm_b)
            results.append(PairAssignment(residual=float(np.sqrt(res_a + res_b)),
                                          estimates=[table[j][i] for j, i in enumerate(perm)]))
    results.sort(key=lambda r: r.residual)
    return results


def match_and_localize(bs_doas: list[SpatialAnglePair],
                       per_irs_doas: dict[int, list[SpatialAnglePair]],
                       geometry: SceneGeometry) -> np.ndarray:
    """Assign surface DoAs to BS DoAs and reconstruct every target: (K, 3) positions.

    Rows follow bs_doas.  Each surface's construction table is built once;
    each surface pair contributes the reconstruction of its best joint
    assignment, and positions are averaged across pairs.  Pairs whose every
    assignment fails are skipped with a warning.
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
        obs = DoAPairObservation(bs_doas[0], per_irs_doas[m][0], m)
        return construct_location(obs, geometry).position.as_array()[None]
    if len(irs_ids) < 2:
        raise InvalidArgumentError("multi-target matching needs at least 2 surfaces")

    tables = {m: construction_table(bs_doas, per_irs_doas[m], m, geometry) for m in irs_ids}
    per_pair: list[list[np.ndarray]] = []
    for irs_a, irs_b in itertools.combinations(irs_ids, 2):
        ranked = enumerate_pair_assignments(tables[irs_a], tables[irs_b], per_irs_doas[irs_a],
                                            per_irs_doas[irs_b], irs_a, irs_b, geometry)
        if not ranked:
            warnings.warn(f"surface pair ({irs_a}, {irs_b}) fully degenerate; skipped", stacklevel=2)
            continue
        per_pair.append([est.position.as_array() for est in ranked[0].estimates])
    if not per_pair:
        raise DegenerateGeometryError("every surface pair was degenerate")
    return np.mean(per_pair, axis=0)

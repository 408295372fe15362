import itertools
import warnings

import numpy as np
import pytest

from irsloc import (
    CapacityError,
    CollinearGeometryError,
    DegenerateGeometryError,
    DoAPairObservation,
    InconsistentDoAError,
    InvalidArgumentError,
    IrslocError,
    Position3,
    SceneGeometry,
    SpatialAnglePair,
    UpaConfig,
    construct_location,
    match_and_localize,
    spatial_doa,
)
from irsloc import localization
from irsloc.localization import PairAssignment, construction_table, enumerate_pair_assignments


def scene_with(targets, irs=None):
    irs = irs or [Position3(-20.0, 0.0, 3.0)]
    return SceneGeometry(
        bs=Position3(0.0, 0.0, 5.0), irs=irs, targets=targets,
        bs_upa=UpaConfig(4, 4), irs_upa=[UpaConfig(4, 4)] * len(irs),
    )


def exact_obs(g, irs_index=0, target_index=0):
    return DoAPairObservation(
        bs_doa=g.bs_target_doa(target_index),
        irs_doa=g.irs_target_doa(irs_index, target_index),
        irs_index=irs_index,
    )


def test_reference_target_recovered_exactly(single_scene):
    est = construct_location(exact_obs(single_scene), single_scene)
    err = np.linalg.norm(est.position.as_array() - np.array([-20.0, 2.0, 0.0]))
    assert err < 1e-9
    assert est.d_b2t == pytest.approx(np.sqrt(429.0), rel=1e-12)
    assert est.d_i2t == pytest.approx(np.sqrt(13.0), rel=1e-12)


@pytest.mark.parametrize("spacing", [0.3, 0.4, 0.5])
def test_round_trip_at_element_spacing(single_scene, spacing):
    # spatial angles scale with 2d/lambda on both arrays; the construction
    # must undo that scale before inverting them as direction cosines
    g = SceneGeometry(
        bs=single_scene.bs, irs=single_scene.irs, targets=single_scene.targets,
        bs_upa=UpaConfig(20, 20, spacing), irs_upa=[UpaConfig(30, 30, spacing)],
    )
    est = construct_location(exact_obs(g), g)
    err = np.linalg.norm(est.position.as_array() - np.array([-20.0, 2.0, 0.0]))
    assert err < 1e-9
    assert est.d_b2t == pytest.approx(np.sqrt(429.0), rel=1e-12)
    assert est.d_i2t == pytest.approx(np.sqrt(13.0), rel=1e-12)


def random_nondegenerate_scene(seed):
    r = np.random.default_rng(seed)
    while True:
        tgt = Position3(float(r.uniform(-30, 10)), float(r.uniform(-15, 15)),
                        float(r.uniform(-5, 8)))
        g = scene_with([tgt])
        bs_doa = g.bs_target_doa(0)
        irs_doa = g.irs_target_doa(0, 0)
        den = irs_doa.mu * bs_doa.nu - bs_doa.mu * irs_doa.nu
        if abs(den) > 1e-3:
            return g


def test_round_trip_on_random_scenes():
    for seed in range(200):
        g = random_nondegenerate_scene(seed)
        est = construct_location(exact_obs(g), g)
        assert np.linalg.norm(est.position.as_array() - g.targets[0].as_array()) < 1e-8, seed


def test_selected_branch_respects_front_half_space():
    # when the true target sits in front of the surface, so does the pick
    for seed in range(100):
        g = random_nondegenerate_scene(seed + 500)
        if g.targets[0].x < g.irs[0].x:
            continue
        est = construct_location(exact_obs(g), g)
        assert est.position.x >= g.irs[0].x - 1e-9


def test_perturbation_response_is_jacobian_bounded():
    g = random_nondegenerate_scene(3)
    obs = exact_obs(g)
    base = construct_location(obs, g).position.as_array()

    h = 1e-6
    obs_h = DoAPairObservation(SpatialAnglePair(obs.bs_doa.mu + h, obs.bs_doa.nu),
                               obs.irs_doa, 0)
    jac_col = (construct_location(obs_h, g).position.as_array() - base) / h

    delta = 1e-3
    obs_d = DoAPairObservation(SpatialAnglePair(obs.bs_doa.mu + delta, obs.bs_doa.nu),
                               obs.irs_doa, 0)
    moved = construct_location(obs_d, g).position.as_array()
    assert np.linalg.norm(moved - base) <= 10 * np.linalg.norm(jac_col) * delta + 1e-9


def test_collinear_geometry_rejected():
    # target in the y=0 plane through BS and surface: both azimuths vanish
    g = scene_with([Position3(-10.0, 0.0, 1.0)])
    with pytest.raises(CollinearGeometryError):
        construct_location(exact_obs(g), g)


def test_unphysical_doa_pair_rejected():
    g = scene_with([Position3(-10.0, 5.0, 1.0)])
    bad = DoAPairObservation(SpatialAnglePair(0.9, -0.5), g.irs_target_doa(0, 0), 0)
    with pytest.raises(InconsistentDoAError) as err:
        construct_location(bad, g)
    assert err.value.radicand is not None


def multi_irs_scene():
    return SceneGeometry(
        bs=Position3(0.0, 0.0, 5.0),
        irs=[Position3(-20.0, 0.0, 3.0), Position3(-10.0, 0.0, 3.0), Position3(-5.0, 0.0, 3.0)],
        targets=[Position3(-10.0, 10.0, 0.0), Position3(-20.0, 2.0, 0.0), Position3(-5.0, 10.0, 0.0)],
        bs_upa=UpaConfig(4, 4), irs_upa=[UpaConfig(4, 4)] * 3,
    )


def exact_doas(g):
    k = len(g.targets)
    bs = [g.bs_target_doa(j) for j in range(k)]
    irs = {m: [g.irs_target_doa(m, j) for j in range(k)] for m in range(len(g.irs))}
    return bs, irs


def test_single_target_two_surfaces_averages_identical_points():
    g = SceneGeometry(
        bs=Position3(0.0, 0.0, 5.0),
        irs=[Position3(-20.0, 0.0, 3.0), Position3(-10.0, 0.0, 3.0)],
        targets=[Position3(-12.0, 7.0, 0.0)],
        bs_upa=UpaConfig(4, 4), irs_upa=[UpaConfig(4, 4)] * 2,
    )
    bs, irs = exact_doas(g)
    merged = match_and_localize(bs, irs, g)
    single = construct_location(DoAPairObservation(bs[0], irs[0][0], 0), g)
    assert merged.shape == (1, 3)
    assert np.allclose(merged[0], single.position.as_array(), atol=1e-9)


def test_three_targets_recovered_from_exact_doas():
    g = multi_irs_scene()
    bs, irs = exact_doas(g)
    merged = match_and_localize(bs, irs, g)
    for j in range(3):
        assert np.linalg.norm(merged[j] - g.targets[j].as_array()) < 1e-6, j


def test_matching_survives_shuffled_surface_lists():
    g = multi_irs_scene()
    bs, irs = exact_doas(g)
    rng = np.random.default_rng(0)
    shuffled = {m: [irs[m][i] for i in rng.permutation(3)] for m in irs}
    merged = match_and_localize(bs, shuffled, g)
    for j in range(3):
        assert np.linalg.norm(merged[j] - g.targets[j].as_array()) < 1e-6, j


def test_matching_output_follows_bs_input_order():
    g = multi_irs_scene()
    bs, irs = exact_doas(g)
    merged = match_and_localize(bs, irs, g)
    flipped = match_and_localize(list(reversed(bs)), irs, g)
    got = {tuple(np.round(row, 9)) for row in merged}
    got_flipped = {tuple(np.round(row, 9)) for row in flipped}
    assert got == got_flipped
    assert np.allclose(flipped[0], merged[-1], atol=1e-9)


def test_best_assignment_is_uniquely_optimal():
    g = multi_irs_scene()
    bs, irs = exact_doas(g)
    tables = [construction_table(bs, irs[m], m, g) for m in (0, 1)]
    ranked = enumerate_pair_assignments(*tables, irs[0], irs[1], 0, 1, g)
    assert ranked[0].residual < 1e-9
    margin = ranked[1].residual - ranked[0].residual
    assert margin > 1e-6


def test_capacity_cap_enforced():
    g = multi_irs_scene()
    bs, irs = exact_doas(g)
    too_many = bs * 2
    with pytest.raises(CapacityError):
        match_and_localize(too_many, {m: irs[m] * 2 for m in irs}, g)


def test_multi_target_needs_two_surfaces():
    g = multi_irs_scene()
    bs, irs = exact_doas(g)
    with pytest.raises(InvalidArgumentError):
        match_and_localize(bs, {0: irs[0]}, g)


def test_spatial_doa_inversion_consistency():
    # construct_location output re-predicts the BS DoA that built it
    for seed in range(20):
        g = random_nondegenerate_scene(seed + 900)
        est = construct_location(exact_obs(g), g)
        back = spatial_doa(g.bs, est.position)
        truth = g.bs_target_doa(0)
        assert back.mu == pytest.approx(truth.mu, abs=1e-9)
        assert back.nu == pytest.approx(truth.nu, abs=1e-9)


# The per-permutation matcher the construction tables replaced, kept as the
# oracle: it rebuilds every construction of every order it scores.

def oracle_constructions(bs_doas, doas, irs_index, geometry):
    out = {}
    for perm in itertools.permutations(range(len(bs_doas))):
        ests = []
        for j in range(len(bs_doas)):
            try:
                ests.append(construct_location(
                    DoAPairObservation(bs_doas[j], doas[perm[j]], irs_index), geometry))
            except (DegenerateGeometryError, InconsistentDoAError):
                ests = None
                break
        out[perm] = ests
    return out


def oracle_pair_assignments(bs_doas, doas_a, doas_b, irs_a, irs_b, geometry):
    k = len(bs_doas)
    cons_a = oracle_constructions(bs_doas, doas_a, irs_a, geometry)
    cons_b = oracle_constructions(bs_doas, doas_b, irs_b, geometry)
    spacing_a = geometry.irs_upa[irs_a].spacing_over_lambda
    spacing_b = geometry.irs_upa[irs_b].spacing_over_lambda

    def miss(est, ref):
        return (est.mu - ref.mu) ** 2 + (est.nu - ref.nu) ** 2

    results = []
    for perm_a, ests_a in cons_a.items():
        if ests_a is None:
            continue
        for perm_b, ests_b in cons_b.items():
            if ests_b is None:
                continue
            res_a = sum(miss(spatial_doa(geometry.irs[irs_b], ests_a[j].position, spacing_b),
                             doas_b[perm_b[j]]) for j in range(k))
            res_b = sum(miss(spatial_doa(geometry.irs[irs_a], ests_b[j].position, spacing_a),
                             doas_a[perm_a[j]]) for j in range(k))
            results.append(PairAssignment(residual=float(np.sqrt(res_a + res_b)),
                                          estimates=ests_a if res_a <= res_b else ests_b))
    results.sort(key=lambda r: r.residual)
    return results


def oracle_match(bs_doas, per_irs_doas, geometry):
    per_pair = []
    for irs_a, irs_b in itertools.combinations(sorted(per_irs_doas), 2):
        ranked = oracle_pair_assignments(bs_doas, per_irs_doas[irs_a], per_irs_doas[irs_b],
                                         irs_a, irs_b, geometry)
        if ranked:
            per_pair.append(ranked[0].estimates)
    if not per_pair:
        raise DegenerateGeometryError("every surface pair was degenerate")
    return np.array([np.mean([ests[j].position.as_array() for ests in per_pair], axis=0)
                     for j in range(len(bs_doas))])


def outcome(fn, *args):
    """fn's value, or the type of the package error it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fn(*args)
        except IrslocError as exc:
            return type(exc)


def random_matching_case(seed):
    """Random k-target, M-surface scene with noisy DoAs; the last seeds blank one surface."""
    r = np.random.default_rng(seed)
    k, m = 2 + seed % 4, 2 + seed % 2
    g = SceneGeometry(
        bs=Position3(0.0, 0.0, 5.0),
        irs=[Position3(float(r.uniform(-25, -3)), float(r.uniform(-4, 4)), float(r.uniform(2, 4)))
             for _ in range(m)],
        targets=[Position3(float(r.uniform(-25, 0)), float(r.uniform(-12, 12)),
                           float(r.uniform(-2, 2))) for _ in range(k)],
        bs_upa=UpaConfig(4, 4), irs_upa=[UpaConfig(4, 4)] * m,
    )
    bs, irs = exact_doas(g)

    def noisy(a):
        return SpatialAnglePair(a.mu + r.normal(0, 0.01), a.nu + r.normal(0, 0.01))

    bs = [noisy(a) for a in bs]
    irs = {i: [noisy(irs[i][j]) for j in r.permutation(k)] for i in irs}
    if seed % 5 == 4:  # every construction on this surface is collinear
        irs[m - 1] = [SpatialAnglePair(0.0, 0.0)] * k
    return g, bs, irs


def test_tables_match_the_per_permutation_oracle_bit_for_bit():
    failed_constructions = exact_failures = 0
    for seed in range(40):
        g, bs, irs = random_matching_case(seed)
        tables = {i: construction_table(bs, irs[i], i, g) for i in irs}
        failed_constructions += sum(e is None for t in tables.values() for row in t for e in row)
        for a, b in itertools.combinations(sorted(irs), 2):
            got = outcome(enumerate_pair_assignments, tables[a], tables[b], irs[a], irs[b], a, b, g)
            want = outcome(oracle_pair_assignments, bs, irs[a], irs[b], a, b, g)
            assert got == want, (seed, a, b)
        got = outcome(match_and_localize, bs, irs, g)
        want = outcome(oracle_match, bs, irs, g)
        if isinstance(want, type):
            exact_failures += 1
            assert got is want, seed
        else:
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), seed
    assert failed_constructions > 0 and exact_failures > 0


def test_multi_target_match_constructs_each_pair_once(monkeypatch):
    g = multi_irs_scene()
    bs, irs = exact_doas(g)
    calls = []

    def counting(obs, geometry):
        calls.append((obs.bs_doa, obs.irs_doa, obs.irs_index))
        return construct_location(obs, geometry)

    monkeypatch.setattr(localization, "construct_location", counting)
    match_and_localize(bs, irs, g)
    k, m = len(bs), len(irs)
    assert len(calls) == m * k * k == len(set(calls))

import numpy as np
import pytest

from irsloc import (
    CapacityError,
    CollinearGeometryError,
    DoAPairObservation,
    InconsistentDoAError,
    InvalidArgumentError,
    Position3,
    SceneGeometry,
    SpatialAnglePair,
    UpaConfig,
    build_schedule,
    construct_location,
    match_and_localize,
    spatial_doa,
)
from irsloc.localization import enumerate_pair_assignments


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


def test_schedule_shapes():
    two_stage = build_schedule(1, 24, 20)
    assert len(two_stage.stages) == 2
    assert two_stage.stages[0].irs_on is None
    assert two_stage.stages[1].irs_on == 0

    multi = build_schedule(3, 24, 20)
    assert multi.total_samples == 84
    on = [s.irs_on for s in multi.stages]
    assert on == [None, 0, 1, 2]
    assert len(set(on)) == len(on)

    with pytest.raises(InvalidArgumentError):
        build_schedule(1, 0, 20)


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
    assert np.allclose(merged[0].position.as_array(), single.position.as_array(), atol=1e-9)


def test_three_targets_recovered_from_exact_doas():
    g = multi_irs_scene()
    bs, irs = exact_doas(g)
    merged = match_and_localize(bs, irs, g)
    for j in range(3):
        err = np.linalg.norm(merged[j].position.as_array() - g.targets[j].as_array())
        assert err < 1e-6, j


def test_matching_survives_shuffled_surface_lists():
    g = multi_irs_scene()
    bs, irs = exact_doas(g)
    rng = np.random.default_rng(0)
    shuffled = {m: [irs[m][i] for i in rng.permutation(3)] for m in irs}
    merged = match_and_localize(bs, shuffled, g)
    for j in range(3):
        err = np.linalg.norm(merged[j].position.as_array() - g.targets[j].as_array())
        assert err < 1e-6, j


def test_matching_output_follows_bs_input_order():
    g = multi_irs_scene()
    bs, irs = exact_doas(g)
    merged = match_and_localize(bs, irs, g)
    flipped = match_and_localize(list(reversed(bs)), irs, g)
    got = {tuple(np.round(e.position.as_array(), 9)) for e in merged}
    got_flipped = {tuple(np.round(e.position.as_array(), 9)) for e in flipped}
    assert got == got_flipped
    assert np.allclose(flipped[0].position.as_array(), merged[-1].position.as_array(), atol=1e-9)


def test_best_assignment_is_uniquely_optimal():
    g = multi_irs_scene()
    bs, irs = exact_doas(g)
    ranked = enumerate_pair_assignments(bs, irs[0], irs[1], 0, 1, g)
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

import numpy as np
import pytest

from irsloc._gridpeaks import local_maxima_2d, separated_peaks, strongest_separated, top_peaks_2d
from oracles import neighbour_maxima_2d

SHAPES = [(1, 1), (1, 2), (1, 7), (1, 60), (2, 1), (5, 5), (30, 30), (60, 60)]


def general_rule(values, k, radius):
    """top_peaks_2d without its k = 1 shortcut: every local maximum through the NMS rule."""
    mask = neighbour_maxima_2d(values)
    return strongest_separated(np.argwhere(mask), values[mask], k, radius)


def planted_grids(seed, shape):
    """Random grids, and the same grids with the maximum planted at several nodes."""
    rng = np.random.default_rng(seed)
    values = rng.random(shape)
    yield values
    tied = rng.integers(0, 4, shape).astype(float)  # many equal values, many equal maxima
    yield tied
    planted = values.copy()
    nodes = rng.choice(planted.size, size=min(3, planted.size), replace=False)
    planted.flat[nodes] = planted.max() + 1.0
    yield planted


def marked_grids(seed, shape):
    """planted_grids, each also with NaN, +inf and -inf written at a few random nodes."""
    rng = np.random.default_rng(seed + 1000)
    for values in planted_grids(seed, shape):
        yield values
        marked = values.copy()
        for special in (np.nan, np.inf, -np.inf):
            marked.flat[rng.choice(marked.size, size=rng.integers(0, 3))] = special
        yield marked


@pytest.mark.parametrize("shape", SHAPES)
def test_single_peak_shortcut_matches_the_general_rule(shape):
    for seed in range(20):
        for values in planted_grids(seed, shape):
            for radius in (0, 1, 3):
                assert top_peaks_2d(values, 1, radius) == general_rule(values, 1, radius)


def test_single_peak_shortcut_keeps_the_general_rule_for_nan_grids():
    values = np.arange(12.0).reshape(3, 4)
    values[0, 1] = np.nan  # neighbours of a NaN are not local maxima under the general rule
    assert top_peaks_2d(values, 1, 1) == general_rule(values, 1, 1)
    assert top_peaks_2d(np.zeros((0, 4)), 1, 1) == []


@pytest.mark.parametrize("shape", SHAPES)
def test_separable_local_maxima_match_the_eight_neighbour_comparisons(shape):
    for seed in range(10):
        grids = list(marked_grids(seed, shape))
        for values in grids:
            np.testing.assert_array_equal(local_maxima_2d(values), neighbour_maxima_2d(values))
        stack = np.stack(grids)  # one mask per grid of a stack
        np.testing.assert_array_equal(local_maxima_2d(stack), neighbour_maxima_2d(stack))
    for empty in (np.zeros((0, 4)), np.zeros((3, 0)), np.zeros((2, 0, 5))):
        assert local_maxima_2d(empty).shape == empty.shape
    inf = np.full((2, 3), np.inf)
    np.testing.assert_array_equal(local_maxima_2d(inf), np.ones((2, 3), dtype=bool))
    np.testing.assert_array_equal(local_maxima_2d(-inf), np.ones((2, 3), dtype=bool))


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("radius", [0, 3])
def test_top_peaks_match_the_looped_picker(k, radius):
    for seed in range(10):
        for shape in SHAPES:
            for values in marked_grids(seed, shape):
                assert top_peaks_2d(values, k, radius) == general_rule(values, k, radius)


def picked(nodes, picks):
    """The nodes each block accepted, in order."""
    return [[tuple(nodes[p]) for p in row if p >= 0] for row in picks]


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("radius", [0, 3])
def test_batched_picker_matches_the_looped_picker_on_every_block(k, radius):
    # blocks of local maxima and blocks of arbitrary nodes (NaN and +-inf values among them),
    # handed over shuffled, with empty blocks between them and after the last
    for seed in range(10):
        rng = np.random.default_rng(seed)
        grids = list(marked_grids(seed, (12, 15)))
        blocks, nodes, values, want = [], [], [], []
        for values_b in grids:
            for mask in (neighbour_maxima_2d(values_b), rng.random(values_b.shape) < 0.2):
                idx = np.argwhere(mask)
                blocks.append(np.full(len(idx), len(want)))
                nodes.append(idx)
                values.append(values_b[mask])
                want.append(strongest_separated(idx, values_b[mask], k, radius))
            want.append([])  # a block without candidates
        want.append([])
        order = rng.permutation(sum(len(b) for b in blocks))
        blocks, nodes, values = (np.concatenate(a)[order] for a in (blocks, nodes, values))
        picks = separated_peaks(blocks, nodes, values, len(want), k, radius)
        assert picks.shape == (len(want), k)
        assert picked(nodes, picks) == want
        for b, (row, accepted) in enumerate(zip(picks, want)):
            assert (row[len(accepted):] == -1).all() and (blocks[row[:len(accepted)]] == b).all()


def test_batched_picker_takes_no_candidates():
    empty = np.empty(0, dtype=int)
    picks = separated_peaks(empty, np.empty((0, 2), dtype=int), np.empty(0), 3, 2, 3)
    np.testing.assert_array_equal(picks, np.full((3, 2), -1))

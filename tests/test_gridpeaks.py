import numpy as np
import pytest

from irsloc._gridpeaks import local_maxima_2d, strongest_separated, top_peaks_2d


def general_rule(values, k, radius):
    """top_peaks_2d without its k = 1 shortcut: every local maximum through the NMS rule."""
    mask = local_maxima_2d(values)
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


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (1, 7), (1, 60), (2, 1), (5, 5), (30, 30),
                                   (60, 60)])
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

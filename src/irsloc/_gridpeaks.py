"""Grid peak extraction shared by the spectrum search and the beam-scan estimators."""

from __future__ import annotations

import numpy as np


def local_maxima_2d(values: np.ndarray) -> np.ndarray:
    """Boolean mask of nodes that are >= all of their 8 neighbors (edges allowed).

    Works on the last two axes, so a stack of grids gets one mask per grid.
    """
    rows, cols = values.shape[-2:]
    padded = np.full(values.shape[:-2] + (rows + 2, cols + 2), -np.inf)
    padded[..., 1:-1, 1:-1] = values
    mask = np.ones_like(values, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            mask &= values >= padded[..., 1 + di:rows + 1 + di, 1 + dj:cols + 1 + dj]
    return mask


def strongest_separated(idx: np.ndarray, vals: np.ndarray, k: int,
                        suppression_radius: int) -> list[tuple[int, int]]:
    """Up to k of the (row, col) nodes idx, greedily accepted in decreasing value with Chebyshev NMS.

    Ties are broken by the lowest (row, col) index so reruns are deterministic.
    """
    if idx.size == 0:
        return []
    order = np.lexsort((idx[:, 1], idx[:, 0], -vals))
    accepted: list[tuple[int, int]] = []
    for o in order:
        i, j = int(idx[o, 0]), int(idx[o, 1])
        if all(max(abs(i - ai), abs(j - aj)) > suppression_radius for ai, aj in accepted):
            accepted.append((i, j))
            if len(accepted) == k:
                break
    return accepted


def top_peaks_2d(values: np.ndarray, k: int, suppression_radius: int) -> list[tuple[int, int]]:
    """Up to k local maxima, greedily accepted in decreasing value with Chebyshev NMS.

    Ties are broken by the lowest (row, col) index so reruns are deterministic.
    Returns fewer than k entries when the grid does not support them.  For
    k = 1 the first accepted peak is the global maximum, lowest index on
    ties, which is the first argmax unless the grid holds a NaN.
    """
    if k == 1 and values.size:
        i, j = np.unravel_index(np.argmax(values), values.shape)
        if not np.isnan(values[i, j]):  # argmax returns the first NaN if there is one
            return [(int(i), int(j))]
    mask = local_maxima_2d(values)
    return strongest_separated(np.argwhere(mask), values[mask], k, suppression_radius)

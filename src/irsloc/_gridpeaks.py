"""Grid peak extraction shared by the spectrum search and the beam-scan estimators.

One greedy suppression rule serves both, in two forms: strongest_separated
takes one grid's candidates one at a time and stops at the k-th accepted,
which is the faster form for a single grid (top_peaks_2d, stage 2's scans);
separated_peaks takes the candidates of a whole batch of spectra in k
vectorized passes (the stage-1 search).
"""

from __future__ import annotations

import numpy as np


def local_maxima_2d(values: np.ndarray) -> np.ndarray:
    """Boolean mask of nodes that are >= all of their 8 neighbors (edges allowed).

    Works on the last two axes, so a stack of grids gets one mask per grid.
    Each node is compared with the separable 3 x 3 maximum of its -inf-padded
    grid, itself included: a NaN in the window makes that maximum NaN, so
    neither a NaN node nor any of its neighbours is a maximum.
    """
    rows, cols = values.shape[-2:]
    padded = np.full(values.shape[:-2] + (rows + 2, cols + 2), -np.inf)
    padded[..., 1:-1, 1:-1] = values
    across = np.maximum(padded[..., :-2], padded[..., 1:-1])
    np.maximum(across, padded[..., 2:], out=across)
    window = np.maximum(across[..., :-2, :], across[..., 1:-1, :])
    np.maximum(window, across[..., 2:, :], out=window)
    return values >= window


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


def separated_peaks(blocks: np.ndarray, nodes: np.ndarray, values: np.ndarray, n_blocks: int,
                    k: int, suppression_radius: int) -> np.ndarray:
    """Per block, the picks of strongest_separated, for many blocks at once.

    Candidate c is node nodes[c] = (row, col) of block blocks[c] with value
    values[c]; nodes within one block are distinct.  Ties are broken by the
    lowest (row, col) so reruns are deterministic, and a NaN value ranks
    last.  Returns an (n_blocks, k) array of candidate positions in
    acceptance order, -1 past a block's last accepted candidate.  The s-th
    accepted candidate of a block is the first in that order farther than
    suppression_radius (>= 0) from every earlier one, so every block's k
    slots are filled in k passes over all candidates.
    """
    picks = np.full((n_blocks, k), -1)
    alive = np.lexsort((nodes[:, 1], nodes[:, 0], -values, blocks))
    for slot in range(k):
        if not alive.size:
            break
        owner = blocks[alive]
        first = alive[np.r_[True, owner[1:] != owner[:-1]]]
        picks[blocks[first], slot] = first
        chosen = nodes[picks[owner, slot]]
        alive = alive[np.abs(nodes[alive] - chosen).max(axis=1) > suppression_radius]
    return picks


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

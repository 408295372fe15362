"""Reflector-off stage: echo synthesis and subspace (MUSIC) DoA estimation at the BS.

The BS probes with T1 waveform columns, collects the direct target echoes,
and locates spectrum peaks of 1 / (a^H U_n U_n^H a) over the spatial-angle
square [-1, 1]^2.  The signal subspace U_s is the top-k left singular
subspace of the snapshots Y (N_BS x T1), found from the T1 x T1 Gram Y^H Y;
a Hermitian PSD covariance works as input too.  The denominator is evaluated
through the orthogonal complement ||a||^2 - ||U_s^H a||^2, which is
algebraically identical and lets the Kronecker structure of the UPA response
carry the grid search.  The search samples the grid at quarter-beamwidth
strides and evaluates the full resolution only where a peak can be: around
the strongest coarse maxima and the coarse nodes nearly as strong as the
weakest pick.  Grid rows come from read-only steering tables built once per
grid resolution and array size.  The searches of several snapshot blocks run
as one stacked pass (music_estimates), each block getting exactly the
estimate it gets alone, and picks the peaks of every block of a batch in
one pass; a sweep searches its trials' blocks that way, a batch per call
on worker threads.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ._gridpeaks import local_maxima_2d, separated_peaks, top_peaks_2d
from .arrays import SpatialAnglePair, UpaConfig, steering_matrix, upa_response
from .channel import (  # channel_btb: unused, but perfbench traces it by name here
    PathKind,
    SceneGeometry,
    add_circular_noise,
    channel_btb,
    path_gain,
)
from .errors import InvalidArgumentError, IrslocError, UnderResolvedError

DEFAULT_GRID_RESOLUTION = 2e-3
PEAK_SUPPRESSION_RADIUS = 3  # grid steps
MIN_COARSE_STRIDE = 3  # grid steps; finer strides search the dense grid
EXTRA_COARSE_CANDIDATES = 8  # coarse maxima zoomed beyond the k requested peaks
ZOOM_MARGIN = 5e-3  # relative; coarse nodes this close to the weakest pick are zoomed too
SEARCH_BATCH = 8  # blocks per stacked search; bounds the memory of the stacked grids
ZOOM_NODES = 1 << 14  # grid nodes per stacked zoom evaluation; bounds its memory


@dataclass
class MusicEstimate:
    angles: list[SpatialAnglePair]
    spectrum_peak_values: list[float]
    grid_resolution: float


def stage1_echo(geometry: SceneGeometry, probing: np.ndarray) -> np.ndarray:
    """Noiseless snapshots (sum_k H_BTB,k) W, (N_BS, T1).

    Each H_BTB,k = beta_k a_k a_k^T is rank 1, so its term is built as
    beta_k a_k (a_k^T W) without the N_BS x N_BS matrix.
    """
    probing = np.asarray(probing)
    n_bs = geometry.n_bs
    if probing.ndim != 2 or probing.shape[0] != n_bs or probing.shape[1] < 1:
        raise InvalidArgumentError(f"probing must be ({n_bs}, T1>=1), got {probing.shape}")
    y = np.zeros(probing.shape, dtype=complex)
    for k in range(len(geometry.targets)):
        beta = path_gain(PathKind.BTB, geometry, target_index=k)
        a = upa_response(geometry.bs_target_doa(k), geometry.bs_upa)
        y += np.outer(beta * a, a @ probing)
    return y


def synthesize_stage1(echo: np.ndarray, noise_var: float, seed: int) -> np.ndarray:
    """Y = (sum_k H_BTB,k) W + N, (N_BS, T1), with i.i.d. CN(0, noise_var) entries in N.

    echo is the noiseless stage1_echo at the transmitted power, and Y is echo
    itself with the seeded noise added, so it must be a writable array of the
    caller's own: a caller keeps the unit-power echo and passes sqrt(P) times it.
    """
    if not (isinstance(echo, np.ndarray) and echo.ndim == 2 and echo.flags.writeable):
        raise InvalidArgumentError("echo must be a writable (N_BS, T1) array")
    if noise_var > 0:
        echo = add_circular_noise(echo, noise_var, np.random.default_rng(seed))
    return echo


def sample_covariance(y: np.ndarray) -> np.ndarray:
    """(1/T1) Y Y^H of the (N_BS, T1) snapshots Y."""
    return (y @ y.conj().T) / y.shape[1]


def signal_noise_subspaces(cov: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecompose the Hermitian-symmetrized covariance.

    Returns (eigenvalues descending, U_s with k columns, U_n with the rest).
    """
    n = cov.shape[0]
    if not (0 < k < n):
        raise InvalidArgumentError(f"need 0 < k < {n}, got k={k}")
    sym = 0.5 * (cov + cov.conj().T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    eigvals = eigvals[::-1]
    eigvecs = eigvecs[:, ::-1]
    return eigvals, eigvecs[:, :k], eigvecs[:, k:]


def _signal_subspace(x: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal top-k left singular subspace of Y, or of a Hermitian PSD covariance.

    Each eigenvector v of the Gram Y^H Y maps to Y v = sigma u, so the k
    strongest span the subspace without an N_BS x N_BS matrix.  A thin QR,
    not 1/sigma, normalises them: it stays orthonormal when a requested
    direction has no signal (sigma ~ 0).  A covariance C has the Gram C^2,
    whose eigenvectors are those of C.
    """
    n = x.shape[0]
    if not (0 < k < n):
        raise InvalidArgumentError(f"need 0 < k < {n}, got k={k}")
    if x.shape[1] < k:
        raise InvalidArgumentError(f"{x.shape[1]} columns cannot span {k} signal directions")
    v = np.linalg.eigh(x.conj().T @ x)[1][:, :-k - 1:-1]  # eigh sorts ascending
    return np.linalg.qr(x @ v)[0]


def _columns(u_s: np.ndarray, cfg: UpaConfig) -> list[np.ndarray]:
    """The conjugated columns of U_s, each laid out on the (n_y, n_z) element grid."""
    return [u_s[:, col].reshape(cfg.n_y, cfg.n_z).conj() for col in range(u_s.shape[1])]


def _deficit(signal: Iterable[np.ndarray], a_mu: np.ndarray, a_nu: np.ndarray) -> np.ndarray:
    """||a||^2 - ||U_s^H a||^2 for every row of a_mu against every row of a_nu.

    signal yields U_s's columns from _columns, evaluated one at a time.
    a_mu (..., I, n_y) and a_nu (..., J, n_z) hold steering rows; leading
    axes batch independent grids, and a column's leading axes give each grid
    its own U_s.  Equals a^H U_n U_n^H a.
    """
    n = a_mu.shape[-1] * a_nu.shape[-1]
    a_nu_t = np.swapaxes(a_nu, -1, -2)
    power = None
    for s in signal:
        square = np.abs(a_mu @ s @ a_nu_t)
        square **= 2
        if power is None:
            power = square
        else:
            power += square
    np.subtract(n, power, out=power)
    return np.maximum(power, n * 1e-15, out=power)


def _axis(resolution: float) -> np.ndarray:
    steps = int(round(2.0 / resolution))
    return np.linspace(-1.0, 1.0, steps + 1)


@functools.lru_cache(maxsize=8)
def _steering_table(grid_resolution: float, n: int) -> np.ndarray:
    """Read-only steering rows of an n-element line array over _axis(grid_resolution).

    Every search at one resolution reads its grid rows from this one table.
    """
    table = steering_matrix(_axis(grid_resolution), n)
    table.setflags(write=False)
    return table


def _tables(cfg: UpaConfig, grid_resolution: float) -> tuple[np.ndarray, np.ndarray]:
    return _steering_table(grid_resolution, cfg.n_y), _steering_table(grid_resolution, cfg.n_z)


def _coarse_stride(grid_resolution: float, n_y: int, n_z: int) -> int:
    """Coarse search stride in grid nodes: at most a quarter beamwidth (2/n per axis)."""
    return int(1.0 / (2 * max(n_y, n_z) * grid_resolution))


@functools.lru_cache(maxsize=8)
def _coarse_grid(grid_resolution: float, n_y: int, n_z: int) -> tuple[np.ndarray, ...]:
    """Read-only coarse search grid: (axis nodes, their n_y rows, their n_z rows).

    The nodes are every _coarse_stride-th node of _axis(grid_resolution) and
    the last one; their rows come from the steering tables.
    """
    table_y, table_z = _steering_table(grid_resolution, n_y), _steering_table(grid_resolution, n_z)
    n_axis = table_y.shape[0]
    nodes = np.arange(0, n_axis, _coarse_stride(grid_resolution, n_y, n_z))
    if nodes[-1] != n_axis - 1:
        nodes = np.append(nodes, n_axis - 1)
    grid = (nodes, table_y[nodes], table_z[nodes])
    for a in grid:
        a.setflags(write=False)
    return grid


def _zoom(signal: list[np.ndarray], owner: np.ndarray, table_y: np.ndarray, table_z: np.ndarray,
          centers: np.ndarray, reach: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-resolution local maxima within `reach` nodes of each (i, j) center.

    Window w searches the spectrum of block owner[w], whose U_s columns are
    signal[c][owner[w]].  Returns (owner, node, value) of every maximum,
    window by window.  table_y and table_z hold the steering rows of the axis
    nodes.  A node counts only when all eight of its neighbours were
    evaluated, so every node returned is a local maximum of the dense
    spectrum too.
    """
    n_axis = table_y.shape[0]
    size = 2 * reach + 3  # reach <= 1 / (2 grid_resolution) keeps it inside the axis
    per_call = max(1, ZOOM_NODES // size**2)
    if len(owner) > per_call:
        parts = [_zoom(signal, owner[w:w + per_call], table_y, table_z, centers[w:w + per_call], reach)
                 for w in range(0, len(owner), per_call)]
        return tuple(np.concatenate(found) for found in zip(*parts))
    starts = np.clip(centers - reach - 1, 0, n_axis - size)  # (windows, 2)
    rows = starts[:, 0, None] + np.arange(size)
    cols = starts[:, 1, None] + np.arange(size)
    spectrum = 1.0 / _deficit((s[owner] for s in signal), table_y[rows], table_z[cols])
    mask = local_maxima_2d(spectrum)
    # A window edge inside the grid has unevaluated neighbours beyond it.
    mask[starts[:, 0] > 0, 0, :] = False
    mask[starts[:, 0] + size < n_axis, -1, :] = False
    mask[starts[:, 1] > 0, :, 0] = False
    mask[starts[:, 1] + size < n_axis, :, -1] = False
    w, r, c = np.nonzero(mask)
    return owner[w], np.stack([rows[w, r], cols[w, c]], axis=1), spectrum[w, r, c]


def _search_grid(signal: list[np.ndarray], cfg: UpaConfig, grid_resolution: float,
                 k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per block, the nodes that top_peaks_2d picks from its dense spectrum on _axis x _axis.

    signal[c][b] is column c of block b's U_s (see _columns).  Returns
    (found, nodes, values): block b's found[b] <= k picks are the axis
    nodes nodes[b, :found[b]] = (i, j) with spectrum values
    values[b, :found[b]], in the order top_peaks_2d accepts them.  The
    spectrum has no feature narrower than a beamwidth (2/n per axis), so it
    is first sampled every `stride` nodes, at most a quarter beamwidth
    apart.  Coarse nodes are then zoomed: the nodes around them are
    evaluated at full resolution, and the local maxima found go through the
    same tie rule and suppression as top_peaks_2d.
      1. The strongest coarse local maxima, EXTRA_COARSE_CANDIDATES more than
         k because coarse sampling can misorder sharp peaks, are zoomed one
         stride wide: a coarse maximum has its dense maximum within a stride.
      2. Every coarse node within ZOOM_MARGIN of the weakest pick is zoomed
         half a stride wide, until none is left.  Any dense maximum lies
         within half a stride per axis of a coarse node, which at a quarter
         beamwidth costs a noise-level maximum about 0.2% of its value; this
         finds maxima without a coarse maximum of their own, such as a weak
         one on the flank of a stronger lobe.
    Every step is one pass over the whole batch: one coarse evaluation and
    local-maximum mask, one lexsort of (block, -value, i, j) that keeps each
    block's strongest coarse maxima, then per round one zoom call for the
    windows of every block still zooming, one merge of the maxima found
    into those kept (zooms may overlap; the first value found for a (block,
    i, j) stays) and one suppression pass (separated_peaks).  Strides below
    MIN_COARSE_STRIDE, and blocks whose search finds fewer than k peaks,
    use the dense grid instead, a block at a time.  Every grid row is read
    from the resolution's steering tables.
    """
    table_y, table_z = _tables(cfg, grid_resolution)
    n_axis = table_y.shape[0]
    n_blocks = len(signal[0])
    found = np.zeros(n_blocks, dtype=int)
    nodes = np.zeros((n_blocks, k, 2), dtype=int)
    values = np.zeros((n_blocks, k))
    stride = _coarse_stride(grid_resolution, cfg.n_y, cfg.n_z)
    if stride >= MIN_COARSE_STRIDE:
        coarse, coarse_y, coarse_z = _coarse_grid(grid_resolution, cfg.n_y, cfg.n_z)
        coarse_spectrum = 1.0 / _deficit(signal, coarse_y, coarse_z)
        b, i, j = np.nonzero(local_maxima_2d(coarse_spectrum))
        order = np.lexsort((j, i, -coarse_spectrum[b, i, j], b))
        rank = np.arange(len(order)) - np.searchsorted(b[order], b[order])
        keep = order[rank < k + EXTRA_COARSE_CANDIDATES]
        zoomed = np.zeros(coarse_spectrum.shape, dtype=bool)
        zoomed[b[keep], i[keep], j[keep]] = True
        windows = np.argwhere(zoomed)  # (block, i, j), block by block
        maxima = _zoom(signal, windows[:, 0], table_y, table_z, coarse[windows[:, 1:]], stride)
        zooming = np.arange(n_blocks)
        while True:
            owner, node, value = maxima
            key = (owner * n_axis + node[:, 0]) * n_axis + node[:, 1]
            first = np.unique(key, return_index=True)[1]  # a stable sort: each key's first
            owner, node, value = owner[first], node[first], value[first]
            picks = separated_peaks(owner, node, value, n_blocks, k, PEAK_SUPPRESSION_RADIUS)
            zooming = zooming[picks[zooming, -1] >= 0]
            weakest = value[picks[zooming, -1]]
            more = coarse_spectrum[zooming] >= (1.0 - ZOOM_MARGIN) * weakest[:, None, None]
            more &= ~zoomed[zooming]
            extend = more.any(axis=(1, 2))
            done = zooming[~extend]
            found[done] = k
            nodes[done], values[done] = node[picks[done]], value[picks[done]]
            zooming, more = zooming[extend], more[extend]
            if not len(zooming):
                break
            zoomed[zooming] |= more
            windows = np.argwhere(more)  # (position in zooming, i, j), block by block
            new = _zoom(signal, zooming[windows[:, 0]], table_y, table_z, coarse[windows[:, 1:]],
                        (stride + 1) // 2)
            mine = np.isin(owner, zooming)
            maxima = [np.concatenate([a[mine], n]) for a, n in zip((owner, node, value), new)]
    for b in np.flatnonzero(found < k):  # not settled by the zoom rounds
        spectrum = 1.0 / _deficit([s[b] for s in signal], table_y, table_z)
        for p, (i, j) in enumerate(top_peaks_2d(spectrum, k, PEAK_SUPPRESSION_RADIUS)):
            found[b], nodes[b, p], values[b, p] = p + 1, (i, j), spectrum[i, j]
    return found, nodes, values


def _refine_peaks(signal: list[np.ndarray], owner: np.ndarray, mu0: np.ndarray, nu0: np.ndarray,
                  cfg: UpaConfig, step: float, levels: int) -> tuple[np.ndarray, ...]:
    """Zoom the spectrum around each peak; each level shrinks the step tenfold.

    Peak p lies in the spectrum of block owner[p] (see _zoom), and every
    level evaluates the 21 x 21 local grids of all peaks in one pass.
    Returns (mu, nu, value, final step).
    """
    signal = [s[owner] for s in signal]
    peaks = np.arange(len(owner))
    for _ in range(levels):
        mu_axis = np.linspace(np.maximum(-1.0, mu0 - step), np.minimum(1.0, mu0 + step), 21, axis=-1)
        nu_axis = np.linspace(np.maximum(-1.0, nu0 - step), np.minimum(1.0, nu0 + step), 21, axis=-1)
        deficit = _deficit(signal, steering_matrix(mu_axis.ravel(), cfg.n_y).reshape(-1, 21, cfg.n_y),
                           steering_matrix(nu_axis.ravel(), cfg.n_z).reshape(-1, 21, cfg.n_z))
        i, j = np.divmod(deficit.reshape(len(owner), -1).argmin(axis=1), 21)
        mu0, nu0 = mu_axis[peaks, i], nu_axis[peaks, j]
        value = 1.0 / deficit[peaks, i, j]
        step /= 10.0
    return mu0, nu0, value, step


def _subspace_or_error(x: np.ndarray, k: int) -> np.ndarray | IrslocError:
    try:
        return _signal_subspace(x, k)
    except IrslocError as exc:
        return exc


def _search(subspaces: list[np.ndarray], cfg: UpaConfig, k: int, grid_resolution: float,
            refine_levels: int) -> list[MusicEstimate | UnderResolvedError]:
    """The estimate of each signal subspace, from one stacked search and refinement."""
    if not subspaces:
        return []
    signal = [np.stack(column) for column in zip(*(_columns(u_s, cfg) for u_s in subspaces))]
    found, nodes, values = _search_grid(signal, cfg, grid_resolution, k)
    resolved = np.flatnonzero(found == k)
    picked = nodes[resolved].reshape(-1, 2)
    axis = _axis(grid_resolution)
    mu, nu = axis[picked[:, 0]], axis[picked[:, 1]]
    value = values[resolved].ravel()
    step = grid_resolution
    if refine_levels > 0 and len(resolved):
        mu, nu, value, step = _refine_peaks(signal, np.repeat(resolved, k), mu, nu, cfg,
                                            grid_resolution, refine_levels)
    out: list = []
    first = 0  # the block's first peak in mu, nu and value
    for count in found.tolist():
        if count < k:
            out.append(UnderResolvedError(f"found {count} spectrum peaks, need {k}", found=count))
            continue
        mine = slice(first, first + k)
        first += k
        order = np.argsort(value[mine])[::-1]
        out.append(MusicEstimate(
            angles=[SpatialAnglePair(float(mu[mine][o]), float(nu[mine][o])) for o in order],
            spectrum_peak_values=[float(value[mine][o]) for o in order],
            grid_resolution=step,
        ))
    return out


def music_estimates(blocks: Iterable[np.ndarray], cfg: UpaConfig, k: int,
                    grid_resolution: float = DEFAULT_GRID_RESOLUTION,
                    refine_levels: int = 1) -> list[MusicEstimate | IrslocError]:
    """music_estimate of every block, with the searches of SEARCH_BATCH blocks stacked.

    Each block's signal subspace is found on its own as it arrives, so a
    generator of blocks keeps one block alive at a time.  Then each batch's
    coarse grids, zoom rounds and refinement levels run as one stacked pass,
    whose peak picking also runs over the whole batch at once (_search_grid),
    and every block gets exactly the estimate music_estimate gives it alone.
    An IrslocError that ends a block's estimate (too few columns for k, or
    fewer than k peaks) takes that block's place in the list; the other
    blocks are searched as usual.  Calls share nothing but the read-only
    steering tables and coarse grids, so a sweep runs one call per batch on
    each of several worker threads at once (harness._sweep_cells).
    """
    subspaces = (_subspace_or_error(block, k) for block in blocks)
    results: list = []
    while batch := list(itertools.islice(subspaces, SEARCH_BATCH)):
        searched = iter(_search([u for u in batch if not isinstance(u, IrslocError)], cfg, k,
                                grid_resolution, refine_levels))
        results += [u if isinstance(u, IrslocError) else next(searched) for u in batch]
    return results


def music_estimate(cov: np.ndarray, cfg: UpaConfig, k: int,
                   grid_resolution: float = DEFAULT_GRID_RESOLUTION,
                   refine_levels: int = 1) -> MusicEstimate:
    """Top-k spectrum peaks with non-maximum suppression and optional local zoom.

    cov is the snapshot block Y (N_BS x T1) or any Hermitian PSD covariance
    such as (1/T1) Y Y^H; both give the same signal subspace (see
    _signal_subspace), and Y is the cheaper input.  Peaks are the k largest
    local maxima of the grid_resolution spectrum (suppression radius 3 grid
    steps, ties broken toward the lowest grid index), found by a
    coarse-to-fine search: quarter-beamwidth strides first, then the full
    resolution around the strongest coarse maxima and around every coarse
    node nearly as strong as the weakest pick (see _search_grid).  Each
    refinement level re-searches a 10x finer local grid around a peak.
    A batch of one of music_estimates.  Raises UnderResolvedError when
    fewer than k peaks exist.
    """
    (result,) = music_estimates([cov], cfg, k, grid_resolution, refine_levels)
    if isinstance(result, IrslocError):
        raise result
    return result

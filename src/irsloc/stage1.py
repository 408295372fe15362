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
grid resolution and array size.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._gridpeaks import local_maxima_2d, strongest_separated, top_peaks_2d
from .arrays import SpatialAnglePair, UpaConfig, steering_matrix, upa_response
from .channel import (  # channel_btb: unused, but perfbench traces it by name here
    PathKind,
    SceneGeometry,
    add_circular_noise,
    channel_btb,
    path_gain,
)
from .errors import InvalidArgumentError, UnderResolvedError

DEFAULT_GRID_RESOLUTION = 2e-3
PEAK_SUPPRESSION_RADIUS = 3  # grid steps
MIN_COARSE_STRIDE = 3  # grid steps; finer strides search the dense grid
EXTRA_COARSE_CANDIDATES = 8  # coarse maxima zoomed beyond the k requested peaks
ZOOM_MARGIN = 5e-3  # relative; coarse nodes this close to the weakest pick are zoomed too


@dataclass
class SnapshotBlock:
    """T1 received snapshots."""

    samples: np.ndarray  # (N_BS, T1) complex


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
        beta = path_gain(PathKind.BTB, geometry, target_index=k).value
        a = upa_response(geometry.bs_target_doa(k), geometry.bs_upa)
        y += np.outer(beta * a, a @ probing)
    return y


def synthesize_stage1(geometry: SceneGeometry, probing: np.ndarray,
                      noise_var: float, seed: int, *,
                      echo: np.ndarray | None = None) -> SnapshotBlock:
    """Y = (sum_k H_BTB,k) W + N with i.i.d. circular complex Gaussian noise.

    echo is stage1_echo(geometry, probing), built here unless the caller
    passes one; it is never written.  The echo is linear in the probing
    amplitude, so a caller keeps the unit-power echo and passes sqrt(P) times
    it.  Per-entry noise variance is noise_var (real/imag each noise_var/2);
    deterministic under the seed.
    """
    y = stage1_echo(geometry, probing) if echo is None else echo
    if noise_var > 0:
        y = add_circular_noise(y, noise_var, np.random.default_rng(seed))
    return SnapshotBlock(samples=y)


def sample_covariance(block: SnapshotBlock) -> np.ndarray:
    """(1/T1) Y Y^H."""
    y = block.samples
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


def _deficit(u_s: np.ndarray, cfg: UpaConfig, a_mu: np.ndarray, a_nu: np.ndarray) -> np.ndarray:
    """||a||^2 - ||U_s^H a||^2 for every row of a_mu against every row of a_nu.

    a_mu (..., I, n_y) and a_nu (..., J, n_z) hold steering rows; leading
    axes batch independent grids.  Equals a^H U_n U_n^H a.
    """
    n = cfg.n
    a_nu_t = np.swapaxes(a_nu, -1, -2)
    power = 0.0
    for col in range(u_s.shape[1]):
        s = u_s[:, col].reshape(cfg.n_y, cfg.n_z)
        c = a_mu @ s.conj() @ a_nu_t
        power = power + np.abs(c) ** 2
    deficit = n - power
    return np.maximum(deficit, n * 1e-15)


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


def music_spectrum(cov: np.ndarray, cfg: UpaConfig, k: int,
                   grid_resolution: float = DEFAULT_GRID_RESOLUTION,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MUSIC spectrum 1 / (a^H U_n U_n^H a) over the dense grid on [-1, 1]^2.

    cov is the snapshot block Y or a covariance built from it (see
    _signal_subspace).  Returns (mu_axis, nu_axis, values) with values[i, j] at
    (mu_axis[i], nu_axis[j]).
    """
    u_s = _signal_subspace(cov, k)
    return (_axis(grid_resolution), _axis(grid_resolution),
            1.0 / _deficit(u_s, cfg, *_tables(cfg, grid_resolution)))


def _zoom(u_s: np.ndarray, cfg: UpaConfig, table_y: np.ndarray, table_z: np.ndarray,
          centers: np.ndarray, reach: int) -> tuple[np.ndarray, np.ndarray]:
    """Full-resolution local maxima within `reach` nodes of each (i, j) center: (nodes, values).

    table_y and table_z hold the steering rows of the axis nodes.  A node
    counts only when all eight of its neighbours were evaluated, so every
    node returned is a local maximum of the dense spectrum too.
    """
    n_axis = table_y.shape[0]
    size = 2 * reach + 3  # reach <= 1 / (2 grid_resolution) keeps it inside the axis
    starts = np.clip(centers - reach - 1, 0, n_axis - size)  # (windows, 2)
    rows = starts[:, 0, None] + np.arange(size)
    cols = starts[:, 1, None] + np.arange(size)
    spectrum = 1.0 / _deficit(u_s, cfg, table_y[rows], table_z[cols])
    mask = local_maxima_2d(spectrum)
    # A window edge inside the grid has unevaluated neighbours beyond it.
    mask[starts[:, 0] > 0, 0, :] = False
    mask[starts[:, 0] + size < n_axis, -1, :] = False
    mask[starts[:, 1] > 0, :, 0] = False
    mask[starts[:, 1] + size < n_axis, :, -1] = False
    w, r, c = np.nonzero(mask)
    return np.stack([rows[w, r], cols[w, c]], axis=1), spectrum[w, r, c]


def _search_grid(u_s: np.ndarray, cfg: UpaConfig, grid_resolution: float,
                 k: int) -> list[tuple[int, int, float]]:
    """The (i, j, value) nodes that top_peaks_2d picks from the dense spectrum on _axis x _axis.

    The spectrum has no feature narrower than a beamwidth (2/n per axis), so
    it is first sampled every `stride` nodes, at most a quarter beamwidth
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
    Strides below MIN_COARSE_STRIDE, and searches that find fewer than k
    peaks, use the dense grid instead.  Every grid row is read from the
    resolution's steering tables.
    """
    table_y, table_z = _tables(cfg, grid_resolution)
    n_axis = table_y.shape[0]
    stride = int(1.0 / (2 * max(cfg.n_y, cfg.n_z) * grid_resolution))
    if stride >= MIN_COARSE_STRIDE:
        coarse = np.unique(np.append(np.arange(0, n_axis, stride), n_axis - 1))
        coarse_spectrum = 1.0 / _deficit(u_s, cfg, table_y[coarse], table_z[coarse])
        zoomed = np.zeros(coarse_spectrum.shape, dtype=bool)
        zoomed[tuple(np.array(top_peaks_2d(coarse_spectrum, k + EXTRA_COARSE_CANDIDATES, 0)).T)] = True
        nodes, values = _zoom(u_s, cfg, table_y, table_z, coarse[np.argwhere(zoomed)], stride)
        while True:
            nodes, first = np.unique(nodes, axis=0, return_index=True)  # zooms may overlap
            values = values[first]
            peaks = strongest_separated(nodes, values, k, PEAK_SUPPRESSION_RADIUS)
            if len(peaks) < k:
                break
            lookup = {(int(i), int(j)): float(v) for (i, j), v in zip(nodes, values)}
            picked = [(i, j, lookup[i, j]) for i, j in peaks]
            more = (coarse_spectrum >= (1.0 - ZOOM_MARGIN) * picked[-1][2]) & ~zoomed
            if not more.any():
                return picked
            zoomed |= more
            new_nodes, new_values = _zoom(u_s, cfg, table_y, table_z, coarse[np.argwhere(more)],
                                          (stride + 1) // 2)
            nodes = np.concatenate([nodes, new_nodes])
            values = np.concatenate([values, new_values])
    spectrum = 1.0 / _deficit(u_s, cfg, table_y, table_z)
    return [(i, j, float(spectrum[i, j]))
            for i, j in top_peaks_2d(spectrum, k, PEAK_SUPPRESSION_RADIUS)]


def _refine_peak(u_s: np.ndarray, cfg: UpaConfig, mu0: float, nu0: float,
                 step: float, levels: int) -> tuple[float, float, float, float]:
    """Zoom the spectrum around one peak; each level shrinks the step tenfold."""
    value = np.nan
    for _ in range(levels):
        mu_lo, mu_hi = max(-1.0, mu0 - step), min(1.0, mu0 + step)
        nu_lo, nu_hi = max(-1.0, nu0 - step), min(1.0, nu0 + step)
        mu_axis = np.linspace(mu_lo, mu_hi, 21)
        nu_axis = np.linspace(nu_lo, nu_hi, 21)
        deficit = _deficit(u_s, cfg, steering_matrix(mu_axis, cfg.n_y),
                           steering_matrix(nu_axis, cfg.n_z))
        i, j = np.unravel_index(np.argmin(deficit), deficit.shape)
        mu0, nu0 = float(mu_axis[i]), float(nu_axis[j])
        value = 1.0 / float(deficit[i, j])
        step /= 10.0
    return mu0, nu0, value, step


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
    Raises UnderResolvedError when fewer than k peaks exist.
    """
    u_s = _signal_subspace(cov, k)
    axis = _axis(grid_resolution)
    peaks = _search_grid(u_s, cfg, grid_resolution, k)
    if len(peaks) < k:
        raise UnderResolvedError(f"found {len(peaks)} spectrum peaks, need {k}", found=len(peaks))

    angles: list[SpatialAnglePair] = []
    values: list[float] = []
    final_step = grid_resolution
    for i, j, val in peaks:
        mu0, nu0 = float(axis[i]), float(axis[j])
        if refine_levels > 0:
            mu0, nu0, val, final_step = _refine_peak(u_s, cfg, mu0, nu0, grid_resolution, refine_levels)
        angles.append(SpatialAnglePair(mu0, nu0))
        values.append(val)
    order = np.argsort(values)[::-1]
    return MusicEstimate(
        angles=[angles[int(o)] for o in order],
        spectrum_peak_values=[values[int(o)] for o in order],
        grid_resolution=final_step if refine_levels > 0 else grid_resolution,
    )

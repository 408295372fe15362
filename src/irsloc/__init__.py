"""Monostatic 3D localization through reflecting-surface beam scanning."""

from .arrays import (
    SPEED_OF_LIGHT,
    Position3,
    SpatialAnglePair,
    UpaConfig,
    dft_codebook,
    spatial_doa,
    steering_derivative,
    steering_vector,
    upa_response,
    upa_response_derivatives,
)
from .channel import (
    PathKind,
    SceneGeometry,
    cascade_power_closed_form,
    channel_b2i,
    channel_btb,
    channel_bti,
    channel_iti,
    dbm_to_watts,
    dbsm_to_m2,
    path_gain,
)
from .crb import (
    FimResult,
    crb_trace_stage1,
    fim_stage1,
    fim_stage1_white,
    fim_stage2,
    fim_stage2_case1,
    fim_stage2_case2,
)
from .errors import (
    CapacityError,
    CollinearGeometryError,
    DegenerateGeometryError,
    InconsistentDoAError,
    InvalidArgumentError,
    IrslocError,
    UnderResolvedError,
)
from .harness import (
    ExperimentConfig,
    TrialRecord,
    emit_csv,
    emit_figure_data,
    rmse_angle,
    rmse_location,
    run_area_sweep,
    run_experiment,
    run_t2_sweep,
    run_trial,
    trial_seed,
)
from .localization import (
    DoAPairObservation,
    LocationEstimate,
    construct_location,
    match_and_localize,
)
from .stage1 import (
    MusicEstimate,
    music_estimate,
    music_estimates,
    sample_covariance,
    signal_noise_subspaces,
    stage1_echo,
    synthesize_stage1,
)
from .stage2 import (
    IrsScanPlan,
    Regime,
    RegimeReport,
    ScanObservation,
    Stage2Mode,
    build_scan_plan,
    cascade_scalar,
    classify_regime,
    composite_angle,
    matched_theta,
    scan_estimate,
    stage2_model,
    synthesize_stage2,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

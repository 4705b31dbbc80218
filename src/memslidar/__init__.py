"""Desk-scale simulator for an adaptive MEMS-scanned lidar.

The package walks the whole pipeline in plain numpy: receiver
optics characterization (optics), synthetic rgb-d scenes (scene_io),
scan budgets and sampling patterns (scan_engine), attention ROIs
(foveation), per-dot range capture (lidar_sim), guided densification
(completion), and depth accuracy metrics (metrics).  ``memslidar``
on the command line drives the same code.
"""

__version__ = "0.1.0"

from .completion import (
    CompletionError,
    DenseDepth,
    GuidedFillParams,
    complete,
    complete_bruteforce,
)
from .foveation import (
    BackgroundModel,
    EntropyMap,
    FoveationError,
    entropy_map,
    entropy_maps,
    grayscale,
    max_entropy_roi,
    update_and_detect,
)
from .lidar_sim import (
    DEPTH_SAMPLE_DTYPE,
    CaptureConfig,
    LidarSimError,
    SparseDepth,
    capture,
    dot_footprint_radius_px,
    load_sparse,
    save_sparse,
)
from .metrics import (
    MetricsError,
    MetricsReport,
    compute,
    depth_to_points,
    planar_rmse,
)
from .optics import (
    DesignCharacterization,
    DesignKind,
    OpticsError,
    ReceiverSpec,
    TransmitterSpec,
    beam_divergence,
    characterize,
    find_crossovers,
    format_sweep_csv,
    fov_limit_underfocused,
    log_range_grid,
    solid_angle_to_apex,
    sweep,
    write_sweep_csv,
)
from .pipeline import compare_foveated
from .scan_engine import (
    ROI,
    SCAN_SAMPLE_DTYPE,
    BudgetFit,
    MirrorModel,
    Regime,
    ScanEngineError,
    ScanPattern,
    budget,
    fit_budget,
    fps_for_budget,
    gen_density_sweep,
    gen_entropy_adaptive,
    gen_foveated,
    gen_full_fov,
    reference_mirror_model,
)
from .scene_io import (
    Intrinsics,
    Primitive,
    SceneFrame,
    SceneIOError,
    SceneMeta,
    SceneSequence,
    SyntheticSpec,
    generate_synthetic,
    load_scene,
    load_spec,
    read_pgm16,
    read_ppm,
    save_scene,
    write_pgm16,
    write_ppm,
)

__all__ = [name for name in dir() if not name.startswith("_")]

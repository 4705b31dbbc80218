"""One frame of the sensor loop: pick a measurement pattern from the guide
image, capture sparse depth with the mirror, and optionally complete it.
The CLI and the demos run their frames through here.
"""

from __future__ import annotations

import numpy as np

from .completion import GuidedFillParams, complete
from .foveation import BackgroundModel, entropy_map, update_and_detect
from .lidar_sim import CaptureConfig, SparseDepth, capture
from .scan_engine import (ROI, MirrorModel, Regime, ScanPattern, gen_density_sweep,
                          gen_entropy_adaptive, gen_foveated, gen_full_fov)
from .scene_io import SceneFrame, depth_to_millimeters, millimeters_to_depth


def frame_seed(seed: int, frame_index: int, stream: int) -> int:
    """Stable per-frame substream seed, independent of execution order."""
    ss = np.random.SeedSequence([seed, frame_index, stream])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def frame_pattern(
    dims: tuple[int, int], rgb: np.ndarray | None, regime: Regime, model: MirrorModel,
    fps: float, seed: int, roi: ROI | None, density: float, window_px: int,
) -> ScanPattern:
    """Scan pattern over a `dims` image; only the entropy regime reads the
    guide `rgb` and `seed`.  Foveated with no ROI scans the full FOV."""
    if regime == Regime.FOVEATED_ROI and roi is None:
        regime = Regime.FULL_FOV
    if regime == Regime.FULL_FOV:
        return gen_full_fov(model, fps, dims)
    if regime == Regime.DENSITY_SWEEP:
        return gen_density_sweep(model, fps, dims, density)
    if regime == Regime.FOVEATED_ROI:
        return gen_foveated(model, fps, roi, dims)
    return gen_entropy_adaptive(model, fps, entropy_map(rgb, window_px).values, seed)


def track_motion(frames, background_model: BackgroundModel) -> list[ROI | None]:
    """Motion ROI of each frame from one background-subtraction pass (None: no motion)."""
    rois = []
    for frame in frames:
        background_model, roi = update_and_detect(background_model, frame.rgb)
        rois.append(roi)
    return rois


def run_frame(
    frame: SceneFrame, roi: ROI | None, regime: Regime, model: MirrorModel, fps: float,
    seed: int, density: float, window_px: int, cap_cfg: CaptureConfig,
    params: GuidedFillParams | None,
) -> tuple[SparseDepth, np.ndarray | None]:
    """Pattern (stream-0 seed), capture (stream-1 seed) and, given `params`,
    completion of one frame.  Returns the capture and the completed depth
    in metres quantised to the millimetres `complete` writes, or None."""
    dims = (frame.intrinsics.width, frame.intrinsics.height)
    pattern = frame_pattern(
        dims, frame.rgb, regime, model, fps,
        frame_seed(seed, frame.frame_index, 0), roi, density, window_px,
    )
    sparse = capture(frame, pattern, cap_cfg, frame_seed(seed, frame.frame_index, 1))
    if params is None:
        return sparse, None
    dense = complete(sparse, frame.rgb, params)
    return sparse, millimeters_to_depth(depth_to_millimeters(dense.depth_m))

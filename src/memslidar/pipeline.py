"""The sensor loop over a scene: pick each frame's measurement pattern from
its guide image in one ordered pass, then capture sparse depth with the
mirror and optionally complete it, one frame at a time.  The CLI and the
demos run their frames through here, and the foveated versus full-FOV
comparison scores its two frames here.
"""

from __future__ import annotations

import numpy as np

from .completion import GuidedFillParams, complete
from .foveation import BackgroundModel, entropy_maps, update_and_detect
from .lidar_sim import CaptureConfig, SparseDepth, capture
from .metrics import MetricsReport, compute
from .scan_engine import (ROI, MirrorModel, Regime, ScanPattern, gen_density_sweep,
                          gen_entropy_adaptive, gen_foveated, gen_full_fov)
from .scene_io import SceneFrame, depth_to_millimeters, millimeters_to_depth


def frame_seed(seed: int, frame_index: int, stream: int) -> int:
    """Stable per-frame substream seed, independent of execution order."""
    ss = np.random.SeedSequence([seed, frame_index, stream])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def frame_pattern(
    dims: tuple[int, int], entropy: np.ndarray | None, regime: Regime, model: MirrorModel,
    fps: float, seed: int, roi: ROI | None, density: float | None,
) -> ScanPattern:
    """Scan pattern over a `dims` image; only the entropy regime reads the
    guide image's `entropy` values and `seed`, and only the density regime
    reads `density`.  Foveated with no ROI scans the full FOV."""
    if regime == Regime.FOVEATED_ROI and roi is None:
        regime = Regime.FULL_FOV
    if regime == Regime.FULL_FOV:
        return gen_full_fov(model, fps, dims)
    if regime == Regime.DENSITY_SWEEP:
        return gen_density_sweep(model, fps, dims, density)
    if regime == Regime.FOVEATED_ROI:
        return gen_foveated(model, fps, roi, dims)
    return gen_entropy_adaptive(model, fps, entropy, seed)


def track_motion(frames, background_model: BackgroundModel) -> list[ROI | None]:
    """Motion ROI of each frame from one background-subtraction pass (None: no motion)."""
    rois = []
    for frame in frames:
        background_model, roi = update_and_detect(background_model, frame.rgb)
        rois.append(roi)
    return rois


def frame_patterns(
    frames, rois, regime: Regime, model: MirrorModel, fps: float, seed: int,
    density: float | None, window_px: int | None,
) -> list[ScanPattern]:
    """Each frame's pattern (stream-0 seed) from one pass in frame order.
    Only the entropy regime reads the guide images, through `entropy_maps`,
    which recounts a frame's map only where its image changed."""
    entropies = ((m.values for m in entropy_maps((f.rgb for f in frames), window_px))
                 if regime == Regime.ENTROPY_ADAPTIVE else [None] * len(frames))
    return [
        frame_pattern((frame.intrinsics.width, frame.intrinsics.height), entropy, regime,
                      model, fps, frame_seed(seed, frame.frame_index, 0), roi, density)
        for frame, roi, entropy in zip(frames, rois, entropies)
    ]


def run_frame(
    frame: SceneFrame, pattern: ScanPattern, seed: int, cap_cfg: CaptureConfig,
    params: GuidedFillParams | None,
) -> tuple[SparseDepth, np.ndarray | None]:
    """Capture (stream-1 seed) of one frame with its pattern and, given
    `params`, completion.  Returns the capture and the completed depth in
    metres quantised to the millimetres `complete` writes, or None."""
    sparse = capture(frame, pattern, cap_cfg, frame_seed(seed, frame.frame_index, 1))
    if params is None:
        return sparse, None
    dense = complete(sparse, frame.rgb, params)
    return sparse, millimeters_to_depth(depth_to_millimeters(dense.depth_m))


def compare_foveated(
    frame: SceneFrame,
    roi: ROI,
    model: MirrorModel,
    fps: float,
    params: GuidedFillParams = GuidedFillParams(),
    config: CaptureConfig = CaptureConfig(),
    noise_seed: int = 0,
) -> tuple[MetricsReport, MetricsReport]:
    """Full-FOV vs foveated completion quality inside the ROI.

    Both pipelines run with the same per-frame budget and the same noise
    seed; metrics are restricted to ROI pixels with valid ground truth.
    Returns (full_fov_report, foveated_report).
    """
    dims = (frame.intrinsics.width, frame.intrinsics.height)
    patterns = [frame_pattern(dims, None, regime, model, fps, seed=0, roi=roi, density=None)
                for regime in (Regime.FULL_FOV, Regime.FOVEATED_ROI)]
    crop = np.s_[roi.y0:roi.y1, roi.x0:roi.x1]
    reports = []
    for pattern in patterns:
        sparse = capture(frame, pattern, config, noise_seed)
        dense = complete(sparse, frame.rgb, params)
        reports.append(compute(dense.depth_m[crop], frame.depth_gt[crop]))
    return reports[0], reports[1]

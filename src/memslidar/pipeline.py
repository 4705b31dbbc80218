"""The sensor loop over a scene: pick each frame's pattern from its guide
image in one ordered pass, then capture and optionally complete every frame
in one pass, `run_scene`, which alone uses worker processes and runs the
CLI's capture, complete and fps-sweep and the foveated versus full-FOV
comparison.  One loop stays outside it: the motion demo seeds noise by frame
index.
"""

from __future__ import annotations

import concurrent.futures  # its process pool loads multiprocessing on first use
from dataclasses import dataclass
from functools import partial

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


@dataclass(frozen=True)
class FrameResult:
    """One frame of `run_scene`: its capture and, given completion
    parameters, the uint16 millimetres `complete` writes for it (else None)."""
    sparse: SparseDepth
    depth_mm: np.ndarray | None


def _scene_frame(frame: SceneFrame, source, seed, cap_cfg, params) -> FrameResult:
    sparse = (capture(frame, source, cap_cfg, frame_seed(seed, frame.frame_index, 1))
              if isinstance(source, ScanPattern) else source)
    if params is None:
        return FrameResult(sparse, None)
    return FrameResult(sparse, depth_to_millimeters(complete(sparse, frame.rgb, params).depth_m))


def run_scene(
    frames, sources, seed: int = 0, cap_cfg: CaptureConfig = CaptureConfig(),
    params: GuidedFillParams | None = None, jobs: int = 1,
) -> list[FrameResult]:
    """Each frame's `FrameResult`, in frame order.  A frame's source is its
    `ScanPattern`, captured with the stream-1 seed, or its loaded `SparseDepth`.
    Up to `jobs` worker processes, at most one per frame (a forking pool
    starts all its workers at once); the output is the same for any `jobs`."""
    fn = partial(_scene_frame, seed=seed, cap_cfg=cap_cfg, params=params)
    workers = min(jobs, len(frames))
    if workers <= 1:
        return list(map(fn, frames, sources))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, frames, sources))


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

    One `run_scene` pass takes the frame twice, with a full-FOV and a
    foveated pattern of one budget, so both captures draw the same noise
    seed.  Each completed depth, in the millimetres a depth PGM holds, is
    scored against the ROI pixels with valid ground truth.
    Returns (full_fov_report, foveated_report).
    """
    dims = (frame.intrinsics.width, frame.intrinsics.height)
    patterns = [gen_full_fov(model, fps, dims), gen_foveated(model, fps, roi, dims)]
    crop = np.s_[roi.y0:roi.y1, roi.x0:roi.x1]
    full, foveated = (compute(millimeters_to_depth(r.depth_mm)[crop], frame.depth_gt[crop])
                      for r in run_scene([frame, frame], patterns, noise_seed, config, params))
    return full, foveated

"""memslidar.pipeline against the frame chain the CLI wired by hand before it.

The reference below is that chain: the regime dispatch, the "foveated with
no ROI scans the full FOV" fallback, stream-0/stream-1 seeds, capture,
completion and the millimetre quantisation of a written PGM.
"""

import math

import numpy as np
import pytest

from memslidar.cli import main
from memslidar.completion import GuidedFillParams, complete
from memslidar.foveation import BackgroundModel, entropy_map, update_and_detect
from memslidar.lidar_sim import CaptureConfig, capture, load_sparse, save_sparse
from memslidar.pipeline import (frame_pattern, frame_patterns, frame_seed, run_scene,
                                track_motion)
from memslidar.scan_engine import (
    ROI,
    Regime,
    gen_density_sweep,
    gen_entropy_adaptive,
    gen_foveated,
    gen_full_fov,
    reference_mirror_model,
)
from memslidar.scene_io import depth_to_millimeters, load_scene, millimeters_to_depth

DENSITY = 0.5
WINDOW_PX = 15
FIXED_ROI = ROI(20, 30, 90, 80, 1.0, 0.1)


def reference_seed(seed, frame_index, stream):
    ss = np.random.SeedSequence([seed, frame_index, stream])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def reference_pattern(regime, model, fps, dims, seed, roi, density, window_px, rgb):
    if regime == Regime.FULL_FOV:
        return gen_full_fov(model, fps, dims)
    if regime == Regime.DENSITY_SWEEP:
        return gen_density_sweep(model, fps, dims, density)
    if regime == Regime.FOVEATED_ROI:
        return gen_foveated(model, fps, roi, dims)
    return gen_entropy_adaptive(model, fps, entropy_map(rgb, window_px).values, seed)


def reference_frame(frame, regime, model, fps, seed, cap_cfg, roi, params):
    if regime == Regime.FOVEATED_ROI and roi is None:
        regime = Regime.FULL_FOV  # nothing detected: scan everything
    dims = (frame.intrinsics.width, frame.intrinsics.height)
    pattern = reference_pattern(
        regime, model, fps, dims, reference_seed(seed, frame.frame_index, 0),
        roi, DENSITY, WINDOW_PX, frame.rgb,
    )
    sparse = capture(frame, pattern, cap_cfg, reference_seed(seed, frame.frame_index, 1))
    dense = complete(sparse, frame.rgb, params)
    return sparse, millimeters_to_depth(depth_to_millimeters(dense.depth_m))


@pytest.mark.parametrize("seed", [0, 1, 17])
@pytest.mark.parametrize("fps", [30.0, 6.0, 1.0])
@pytest.mark.parametrize("regime, roi", [
    (Regime.FULL_FOV, None),
    (Regime.DENSITY_SWEEP, None),
    (Regime.ENTROPY_ADAPTIVE, None),
    (Regime.FOVEATED_ROI, FIXED_ROI),
    (Regime.FOVEATED_ROI, None),
], ids=["full", "density", "entropy", "foveated-roi", "foveated-none"])
def test_run_frame_matches_reference_chain(tmp_path, textured_frame, regime, roi, fps, seed):
    model = reference_mirror_model(math.radians(25.0))
    cap_cfg, params = CaptureConfig(), GuidedFillParams()
    want_sparse, want_depth = reference_frame(
        textured_frame, regime, model, fps, seed, cap_cfg, roi, params)
    [pattern] = frame_patterns(
        [textured_frame], [roi], regime, model, fps, seed, DENSITY, WINDOW_PX)
    [done] = run_scene([textured_frame], [pattern], seed, cap_cfg, params)
    sparse, depth = done.sparse, millimeters_to_depth(done.depth_mm)
    assert sparse.to_json() == want_sparse.to_json()
    assert sparse.depth_m.tobytes() == want_sparse.depth_m.tobytes()
    assert depth.tobytes() == want_depth.tobytes()
    # without completion parameters the capture is the same and no depth comes back
    [bare] = run_scene([textured_frame], [pattern], seed, cap_cfg, None)
    assert bare.depth_mm is None and bare.sparse.to_json() == want_sparse.to_json()
    # the capture written and read back completes to the same millimetres
    save_sparse(sparse, tmp_path / "0000.pgm", tmp_path / "0000.json")
    loaded = load_sparse(tmp_path / "0000.pgm", tmp_path / "0000.json")
    [again] = run_scene([textured_frame], [loaded], params=params)
    assert again.sparse is loaded and again.depth_mm.tobytes() == done.depth_mm.tobytes()


def test_foveated_without_roi_scans_full_fov():
    model = reference_mirror_model()
    args = ((64, 48), None, Regime.FOVEATED_ROI, model, 6.0, 0, None, DENSITY)
    pattern = frame_pattern(*args)
    assert pattern.regime == Regime.FULL_FOV
    assert pattern.to_json() == gen_full_fov(model, 6.0, (64, 48)).to_json()


@pytest.mark.parametrize("seed, index, stream", [(0, 0, 0), (0, 0, 1), (5, 3, 1), (2**40, 7, 0)])
def test_frame_seed_matches_reference(seed, index, stream):
    assert frame_seed(seed, index, stream) == reference_seed(seed, index, stream)


def test_track_motion_matches_update_and_detect_loop(tmp_path):
    scene = tmp_path / "scene"
    assert main(["gen-scene", "--preset", "moving-box", "--frames", "4",
                 "--out", str(scene)]) == 0
    frames = load_scene(scene).frames
    bg = BackgroundModel(margin_px=4)
    want = []
    model = bg
    for frame in frames:
        model, roi = update_and_detect(model, frame.rgb)
        want.append(roi)
    got = track_motion(frames, bg)
    assert got == want
    assert got[0] is None and any(roi is not None for roi in got[1:])

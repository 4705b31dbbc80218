import math

import numpy as np
import pytest

from memslidar import (
    Intrinsics,
    MirrorModel,
    Primitive,
    SceneFrame,
    SyntheticSpec,
    generate_synthetic,
)


def model_with_budget(n: int, fps: float = 10.0, fov_deg: float = 25.0) -> MirrorModel:
    """Zero-overhead mirror whose budget at `fps` is exactly n."""
    return MirrorModel(
        fov_rad=math.radians(fov_deg), sample_rate_hz=n * fps, frame_overhead_s=0.0
    )


def make_frame(depth: np.ndarray, rgb: np.ndarray | None = None,
               fov_deg: float = 25.0) -> SceneFrame:
    """Hand-built frame with matched-FOV intrinsics."""
    h, w = depth.shape
    if rgb is None:
        rgb = np.full((h, w, 3), 128, dtype=np.uint8)
    fx = (w / 2.0) / math.tan(math.radians(fov_deg) / 2.0)
    intr = Intrinsics(width=w, height=h, fx_px=fx, fy_px=fx,
                      cx_px=w / 2.0, cy_px=h / 2.0)
    return SceneFrame(rgb=rgb, depth_gt=depth.astype(np.float64),
                      intrinsics=intr, frame_index=0)


@pytest.fixture
def plane_frame():
    """Constant 2 m plane, 64x48."""
    spec = SyntheticSpec(
        width=64, height=48, n_frames=1,
        primitives=(Primitive(kind="plane", z_m=2.0, texture="flat"),),
    )
    return generate_synthetic(spec, seed=0).frames[0]


def foveation_scene(seed: int):
    """Frame with several small offset quads inside the (10,20)-(90,80) ROI.

    The quads are below the full-FOV grid pitch and share the plane's
    color statistics, so dense in-ROI sampling is the only way to pin
    their depth: the setup where foveation should win.
    """
    rng = np.random.default_rng(seed)
    fx = 80.0 / math.tan(math.radians(12.5))
    prims = [Primitive(kind="plane", z_m=2.5, texture="noise", color=(120, 140, 160))]
    for _ in range(6):
        cx_px = rng.uniform(22, 78)
        cy_px = rng.uniform(30, 70)
        z = float(rng.uniform(1.6, 2.0))
        side_px = rng.uniform(9, 14)
        prims.append(
            Primitive(
                kind="quad",
                z_m=z,
                size_xy_m=(side_px / fx * z, side_px / fx * z),
                center_xy_m=((cx_px - 80) / fx * z, (cy_px - 60) / fx * z),
                texture="noise",
                color=(130, 150, 150),
            )
        )
    spec = SyntheticSpec(width=160, height=120, n_frames=1, primitives=tuple(prims))
    return generate_synthetic(spec, seed=seed).frames[0]


@pytest.fixture
def textured_frame():
    """Noise-textured plane plus two offset quads, 160x120."""
    spec = SyntheticSpec(
        width=160, height=120, n_frames=1,
        primitives=(
            Primitive(kind="plane", z_m=2.5, texture="noise", color=(120, 140, 160)),
            Primitive(kind="quad", z_m=1.2, size_xy_m=(0.16, 0.12),
                      center_xy_m=(-0.08, -0.03), texture="checker",
                      checker_m=0.03, color=(210, 210, 60)),
            Primitive(kind="quad", z_m=1.8, size_xy_m=(0.22, 0.16),
                      center_xy_m=(0.12, 0.05), texture="noise", color=(80, 190, 90)),
        ),
    )
    return generate_synthetic(spec, seed=7).frames[0]

"""Sparse depth capture: what the scanned rangefinder would measure.

Each scheduled mirror direction projects into the guide camera's frame.
The rangefinder's dot is far coarser than a camera pixel, so the return
is modeled as the mean ground-truth depth over the dot's pixel footprint,
plus range-proportional Gaussian noise.  Samples are dropped (no return)
when they leave the image, land on invalid geometry, or exceed the
sensor's range; the drop count is part of the result.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .metrics import MetricsReport, compute
from .scan_engine import Regime, ScanPattern, angles_to_pixel
from .scene_io import (
    SceneFrame,
    millimeters_to_depth,
    depth_to_millimeters,
    read_pgm16,
    write_pgm16,
)

DEFAULT_DOT_SOLID_ANGLE_SR = 6e-4
# Range-proportional noise; the default reproduces the reference planar
# residual of ~0.069 m at a 3 m working range.
DEFAULT_NOISE_COEFF = 0.023


class LidarSimError(ValueError):
    pass


class NoSamples(LidarSimError):
    """Capture produced zero valid returns."""


class NoOverlap(LidarSimError):
    """Sparse samples and reference share no valid pixels."""


class SingularFit(LidarSimError):
    """Calibration pairs cannot determine a line."""


@dataclass(frozen=True)
class CalibrationModel:
    """Linear sensor calibration: range_m = gain * volts + offset."""

    gain_m_per_v: float
    offset_m: float
    residual_rmse_m: float = 0.0

    def volts_to_range(self, volts: float) -> float:
        return self.gain_m_per_v * volts + self.offset_m

    def range_to_volts(self, range_m: float) -> float:
        return (range_m - self.offset_m) / self.gain_m_per_v


IDENTITY_CALIBRATION = CalibrationModel(gain_m_per_v=1.0, offset_m=0.0)


@dataclass(frozen=True)
class CaptureConfig:
    """Sensor model knobs.

    z_max_m              maximum range; beyond it there is no return
    dot_solid_angle_sr   angular footprint of the measurement dot
    noise_coeff          sigma(Z) = noise_coeff * Z (set 0 for noiseless)
    sensor_calibration   voltage <-> range map used to synthesize raw volts
    """

    z_max_m: float = 3.0
    dot_solid_angle_sr: float = DEFAULT_DOT_SOLID_ANGLE_SR
    noise_coeff: float = DEFAULT_NOISE_COEFF
    sensor_calibration: CalibrationModel = IDENTITY_CALIBRATION

    def __post_init__(self):
        if not self.z_max_m > 0:
            raise ValueError(f"z_max must be > 0, got {self.z_max_m}")
        if not 0 < self.dot_solid_angle_sr < 2 * math.pi:
            raise ValueError("dot solid angle must be in (0, 2*pi) sr")
        if self.noise_coeff < 0:
            raise ValueError("noise coefficient must be >= 0")


@dataclass(frozen=True)
class DepthSample:
    """One valid return."""

    t_s: float
    theta_rad: float
    phi_rad: float
    pixel_x: int
    pixel_y: int
    range_m: float
    raw_volts: float


@dataclass
class SparseDepth:
    """Sparse measured depth for one frame.

    depth_m   (H, W) float64; 0.0 where unsampled.  Nonzero pixels map
              1:1 onto `samples` (later duplicates of a pixel are dropped).
    """

    depth_m: np.ndarray
    samples: list[DepthSample]
    fps: float
    regime: Regime
    drop_count: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "fps": self.fps,
                "regime": self.regime.value,
                "drop_count": self.drop_count,
                "samples": [
                    {
                        "t_s": s.t_s,
                        "theta_rad": s.theta_rad,
                        "phi_rad": s.phi_rad,
                        "pixel_x": s.pixel_x,
                        "pixel_y": s.pixel_y,
                        "range_m": s.range_m,
                        "raw_volts": s.raw_volts,
                    }
                    for s in self.samples
                ],
            },
            indent=2,
            sort_keys=True,
        )


def dot_footprint_radius_px(frame: SceneFrame, dot_solid_angle_sr: float) -> float:
    """Dot radius in pixels; constant with range for a co-located camera."""
    apex = 2.0 * math.acos(1.0 - dot_solid_angle_sr / (2.0 * math.pi))
    return max(frame.intrinsics.fx_px * math.tan(apex / 2.0), 1.0)


def _disk_offsets(radius_px: float) -> tuple[np.ndarray, np.ndarray]:
    r = int(math.floor(radius_px))
    dy, dx = np.mgrid[-r:r + 1, -r:r + 1]
    keep = dy * dy + dx * dx <= radius_px * radius_px
    return dy[keep], dx[keep]


def capture(
    frame: SceneFrame,
    pattern: ScanPattern,
    config: CaptureConfig = CaptureConfig(),
    noise_seed: int = 0,
) -> SparseDepth:
    """Simulate one frame of sparse acquisition.

    The measured range at each direction is the mean of valid ground
    truth over the dot footprint (a disk around the projected center;
    the center pixel itself must be valid), then perturbed by
    N(0, noise_coeff * Z).  Deterministic for a fixed (pattern, seed).
    """
    depth_gt = frame.depth_gt
    h, w = depth_gt.shape
    intr = frame.intrinsics
    dy, dx = _disk_offsets(dot_footprint_radius_px(frame, config.dot_solid_angle_sr))
    rng = np.random.default_rng(noise_seed)

    thetas = np.array([s.theta_rad for s in pattern.samples])
    phis = np.array([s.phi_rad for s in pattern.samples])
    pxs, pys = angles_to_pixel(thetas, phis, intr)

    depth_out = np.zeros_like(depth_gt)
    samples: list[DepthSample] = []
    dropped = 0
    for s, px, py in zip(pattern.samples, pxs, pys):
        # noise is drawn per scheduled sample so that drop decisions do not
        # shift the stream for later samples
        noise_unit = rng.standard_normal()
        ix, iy = int(math.floor(px)), int(math.floor(py))
        if not (0 <= ix < w and 0 <= iy < h):
            dropped += 1
            continue
        if depth_gt[iy, ix] <= 0:
            dropped += 1
            continue
        ys = iy + dy
        xs = ix + dx
        inbounds = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
        footprint = depth_gt[ys[inbounds], xs[inbounds]]
        footprint = footprint[footprint > 0]
        mean_range = float(footprint.mean())
        measured = mean_range + config.noise_coeff * mean_range * noise_unit
        if measured <= 0 or measured > config.z_max_m:
            dropped += 1  # no return
            continue
        if depth_out[iy, ix] > 0:
            dropped += 1  # pixel already sampled this frame
            continue
        depth_out[iy, ix] = measured
        samples.append(
            DepthSample(
                t_s=s.t_s,
                theta_rad=s.theta_rad,
                phi_rad=s.phi_rad,
                pixel_x=ix,
                pixel_y=iy,
                range_m=measured,
                raw_volts=config.sensor_calibration.range_to_volts(measured),
            )
        )
    if not samples:
        raise NoSamples(
            f"all {len(pattern.samples)} scheduled samples were dropped"
        )
    return SparseDepth(
        depth_m=depth_out,
        samples=samples,
        fps=pattern.fps,
        regime=pattern.regime,
        drop_count=dropped,
    )


def fit_calibration(pairs) -> CalibrationModel:
    """Least-squares line through (volts, true_range_m) pairs."""
    pairs = [(float(v), float(z)) for v, z in pairs]
    if len(pairs) < 2:
        raise SingularFit(f"need >= 2 calibration pairs, got {len(pairs)}")
    v = np.array([p[0] for p in pairs])
    z = np.array([p[1] for p in pairs])
    if np.ptp(v) == 0.0:
        raise SingularFit("all calibration pairs share one voltage")
    design = np.stack([v, np.ones_like(v)], axis=1)
    (gain, offset), *_ = np.linalg.lstsq(design, z, rcond=None)
    resid = design @ (gain, offset) - z
    return CalibrationModel(
        gain_m_per_v=float(gain),
        offset_m=float(offset),
        residual_rmse_m=float(np.sqrt(np.mean(np.square(resid)))),
    )


def evaluate_against_reference(
    sparse: SparseDepth, reference_m: np.ndarray
) -> MetricsReport:
    """Metrics over sampled pixels that the reference also covers.

    The reference sensor has its own error (a few tenths of a percent of
    range for typical structured-light devices); that uncertainty is not
    compensated here, only documented.
    """
    reference_m = np.asarray(reference_m, dtype=np.float64)
    if reference_m.shape != sparse.depth_m.shape:
        raise LidarSimError(
            f"reference shape {reference_m.shape} != sparse shape {sparse.depth_m.shape}"
        )
    mask = (sparse.depth_m > 0) & (reference_m > 0)
    if not mask.any():
        raise NoOverlap("no pixel is valid in both the capture and the reference")
    return compute(sparse.depth_m, reference_m, mask)


# ---------- sparse file I/O (shares scene conventions) ----------

def save_sparse(sparse: SparseDepth, pgm_path, json_path) -> None:
    write_pgm16(pgm_path, depth_to_millimeters(sparse.depth_m))
    with open(json_path, "w") as fh:
        fh.write(sparse.to_json())


def load_sparse(pgm_path, json_path) -> SparseDepth:
    depth = millimeters_to_depth(read_pgm16(pgm_path))
    doc = json.loads(Path(json_path).read_text())
    return SparseDepth(
        depth_m=depth,
        samples=[DepthSample(**s) for s in doc["samples"]],
        fps=doc["fps"],
        regime=Regime(doc["regime"]),
        drop_count=doc["drop_count"],
    )

"""Sparse depth capture: what the scanned rangefinder would measure.

Each scheduled mirror direction projects into the guide camera's frame.
The rangefinder's dot is far coarser than a camera pixel, so the return
is modeled as the mean ground-truth depth over the dot's pixel footprint,
plus range-proportional Gaussian noise.  Samples are dropped (no return)
when they leave the image, land on invalid geometry, or exceed the
sensor's range; the drop count is part of the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optics import solid_angle_to_apex
from .scan_engine import (
    SCAN_SAMPLE_DTYPE,
    Regime,
    ScanPattern,
    angles_to_pixel,
    json_with_records,
    records_from_dicts,
)
from .scene_io import (
    DEPTH_QUANTUM_M,
    SceneFrame,
    millimeters_to_depth,
    depth_to_millimeters,
    read_json,
    read_pgm16,
    write_pgm16,
)

DEFAULT_DOT_SOLID_ANGLE_SR = 6e-4
# Range-proportional noise; the default reproduces the reference planar
# residual of ~0.069 m at a 3 m working range.
DEFAULT_NOISE_COEFF = 0.023
# (sample, offset) entries `capture` gathers at once; bounds its memory
_FOOTPRINT_BLOCK = 1 << 16


class LidarSimError(ValueError):
    pass


class NoSamples(LidarSimError):
    """Capture produced zero valid returns."""


class MalformedSparse(LidarSimError):
    """Sparse capture JSON is not JSON, lacks or mistypes a field, or disagrees with its PGM."""


class MalformedCaptureSummary(LidarSimError):
    """capture_summary.json is not JSON or does not fit the scene."""


@dataclass(frozen=True)
class CaptureConfig:
    """Sensor model knobs.

    z_max_m              maximum range; beyond it there is no return
    dot_solid_angle_sr   angular footprint of the measurement dot
    noise_coeff          sigma(Z) = noise_coeff * Z (set 0 for noiseless)
    """

    z_max_m: float = 3.0
    dot_solid_angle_sr: float = DEFAULT_DOT_SOLID_ANGLE_SR
    noise_coeff: float = DEFAULT_NOISE_COEFF

    def __post_init__(self):
        if not self.z_max_m > 0:
            raise ValueError(f"z_max must be > 0, got {self.z_max_m}")
        if not 0 < self.dot_solid_angle_sr < 2 * math.pi:
            raise ValueError("dot solid angle must be in (0, 2*pi) sr")
        if not 0 <= self.noise_coeff < math.inf:
            raise ValueError(f"noise coefficient must be finite and >= 0, got {self.noise_coeff}")


# one valid return per record: its scheduled direction, pixel and range
DEPTH_SAMPLE_DTYPE = np.dtype(
    SCAN_SAMPLE_DTYPE.descr
    + [("pixel_x", "i8"), ("pixel_y", "i8"), ("range_m", "f8")]
)


@dataclass
class SparseDepth:
    """Sparse measured depth for one frame.

    depth_m   (H, W) float64; 0.0 where unsampled.
    samples   record array of DEPTH_SAMPLE_DTYPE, one record per valid
              return in schedule order; nonzero pixels of depth_m map 1:1
              onto its (pixel_x, pixel_y) (later returns on a pixel are
              dropped).  `samples.range_m` is a column, `samples[i]` a record.
    """

    depth_m: np.ndarray
    samples: np.recarray
    fps: float
    regime: Regime
    drop_count: int

    def to_json(self) -> str:
        doc = {"fps": self.fps, "regime": self.regime.value, "drop_count": self.drop_count}
        return json_with_records(doc, "samples", self.samples)


def dot_footprint_radius_px(frame: SceneFrame, dot_solid_angle_sr: float) -> float:
    """Dot radius in pixels; constant with range for a co-located camera."""
    apex = solid_angle_to_apex(dot_solid_angle_sr)
    return max(frame.intrinsics.fx_px * math.tan(apex / 2.0), 1.0)


def _disk_offsets(radius_px: float) -> tuple[np.ndarray, np.ndarray]:
    r = int(math.floor(radius_px))
    dy, dx = np.mgrid[-r:r + 1, -r:r + 1]
    keep = dy * dy + dx * dx <= radius_px * radius_px
    return dy[keep], dx[keep]


def _footprint_means(padded: np.ndarray, centres: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """`f[f > 0].mean()` of each footprint `f = padded[centre + offsets]`.

    Footprints are gathered in blocks of at most `_FOOTPRINT_BLOCK` entries.
    Rows with the same valid count c are summed as one C-contiguous (rows, c)
    block: numpy reduces each row with the same pairwise sum that a 1-D
    `.mean()` uses, so every mean is byte-identical to the per-footprint one.
    """
    means = np.empty(len(centres))
    step = max(1, _FOOTPRINT_BLOCK // len(offsets))
    for lo in range(0, len(centres), step):
        footprint = padded[centres[lo:lo + step, None] + offsets]
        valid = footprint > 0
        count = np.count_nonzero(valid, axis=1)
        block = means[lo:lo + step]
        full = count == len(offsets)
        block[full] = footprint[full].sum(axis=1) / len(offsets)
        holed = np.flatnonzero(~full)
        holed = holed[np.argsort(count[holed], kind="stable")]
        values = footprint[holed][valid[holed]]
        sizes, first, rows = np.unique(count[holed], return_index=True, return_counts=True)
        at = 0
        for c, i, n in zip(sizes.tolist(), first.tolist(), rows.tolist()):
            block[holed[i:i + n]] = values[at:at + n * c].reshape(n, c).sum(axis=1) / c
            at += n * c
    return means


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
    radius_px = dot_footprint_radius_px(frame, config.dot_solid_angle_sr)
    if radius_px > math.hypot(w, h):  # the disk would be sized from a bad fx_px
        raise LidarSimError(
            f"dot footprint radius {radius_px:.6g} px exceeds the {w}x{h} image diagonal"
        )
    dy, dx = _disk_offsets(radius_px)
    scheduled = pattern.samples
    n = len(scheduled)
    # one draw per scheduled sample, so drops do not shift the stream for later samples
    noise = np.random.default_rng(noise_seed).standard_normal(n)

    px, py = angles_to_pixel(scheduled.theta_rad, scheduled.phi_rad, frame.intrinsics)
    fx, fy = np.floor(px), np.floor(py)
    keep = np.flatnonzero((0 <= fx) & (fx < w) & (0 <= fy) & (fy < h))
    ix, iy = fx[keep].astype(np.int64), fy[keep].astype(np.int64)
    valid = depth_gt[iy, ix] > 0
    keep, ix, iy = keep[valid], ix[valid], iy[valid]

    # Footprints read a zero-padded copy: padding and invalid ground truth
    # both fail `> 0`, so each footprint keeps the in-image valid pixels in
    # disk-offset order, and its mean sums them in the same order.
    r = int(math.floor(radius_px))
    padded = np.pad(depth_gt, r).ravel()
    offsets = dy * (w + 2 * r) + dx
    mean_range = _footprint_means(padded, (iy + r) * (w + 2 * r) + (ix + r), offsets)
    measured = mean_range + config.noise_coeff * mean_range * noise[keep]

    returned = (measured > 0) & (measured <= config.z_max_m)  # else no return
    keep, ix, iy, measured = keep[returned], ix[returned], iy[returned], measured[returned]
    # the first return on a pixel wins; later ones are dropped
    _, first = np.unique(iy * w + ix, return_index=True)
    first.sort()
    keep, ix, iy, measured = keep[first], ix[first], iy[first], measured[first]
    if len(keep) == 0:
        raise NoSamples(f"all {n} scheduled samples were dropped")

    depth_out = np.zeros_like(depth_gt)
    depth_out[iy, ix] = measured
    kept = scheduled[keep]
    samples = np.rec.fromarrays(
        [kept.t_s, kept.theta_rad, kept.phi_rad, ix, iy, measured],
        dtype=DEPTH_SAMPLE_DTYPE,
    )
    return SparseDepth(
        depth_m=depth_out,
        samples=samples,
        fps=pattern.fps,
        regime=pattern.regime,
        drop_count=n - len(keep),
    )


# ---------- sparse file I/O (shares scene conventions) ----------

def save_sparse(sparse: SparseDepth, pgm_path, json_path) -> None:
    write_pgm16(pgm_path, depth_to_millimeters(sparse.depth_m))
    with open(json_path, "w") as fh:
        fh.write(sparse.to_json())


def _check_samples(samples: np.recarray, measured: np.ndarray, json_path) -> None:
    """Samples must lie inside the depth map, carry finite positive ranges,
    and lie on distinct pixels: the measured pixels of the map, plus any
    whose range `save_sparse` rounded to 0 mm."""
    h, w = measured.shape
    xs, ys, zs = samples.pixel_x, samples.pixel_y, samples.range_m
    inside = (0 <= xs) & (xs < w) & (0 <= ys) & (ys < h)
    if not inside.all():
        i = int(np.argmin(inside))
        raise MalformedSparse(
            f"{json_path}: sample {i} at pixel ({xs[i]}, {ys[i]}) lies outside the "
            f"{w}x{h} depth map"
        )
    good = np.isfinite(zs) & (zs > 0)
    if not good.all():
        i = int(np.argmin(good))
        raise MalformedSparse(f"{json_path}: sample {i} has range_m {zs[i]}, not finite and > 0")
    at = ys * w + xs
    hit = np.zeros(h * w, dtype=bool)
    hit[at[np.round(zs / DEPTH_QUANTUM_M) > 0]] = True
    if len(np.unique(at)) != len(at) or not np.array_equal(hit.reshape(h, w), measured):
        raise MalformedSparse(
            f"{json_path}: {len(samples)} samples do not match the "
            f"{np.count_nonzero(measured)} measured pixels of the depth map"
        )


def load_sparse(pgm_path, json_path) -> SparseDepth:
    depth = millimeters_to_depth(read_pgm16(pgm_path))
    doc = read_json(json_path, MalformedSparse)
    try:
        if (type(doc["fps"]) not in (int, float) or type(doc["drop_count"]) is not int
                or doc["drop_count"] < 0):
            raise TypeError("fps must be a number and drop_count an integer >= 0")
        sparse = SparseDepth(
            depth_m=depth,
            samples=records_from_dicts(doc["samples"], DEPTH_SAMPLE_DTYPE),
            fps=doc["fps"],
            regime=Regime(doc["regime"]),
            drop_count=doc["drop_count"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedSparse(f"{json_path}: not a sparse capture file ({exc!r})") from None
    _check_samples(sparse.samples, depth > 0, json_path)
    return sparse

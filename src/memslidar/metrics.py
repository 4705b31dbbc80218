"""Depth-map error metrics and planar-fit validation.

The report carries the six standard depth-completion columns in their
conventional order: mean relative error (%), RMSE (m), mean absolute
log10 error, and the three ratio-threshold accuracies delta_1..3, where
delta_i is the percentage of pixels with max(pred/true, true/pred)
strictly below 1.25**i.
"""

from __future__ import annotations

import json
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

DELTA_BASE = 1.25


class MetricsError(ValueError):
    pass


class EmptyMask(MetricsError):
    """No pixels selected for evaluation."""


class NonPositiveDepth(MetricsError):
    """A selected pixel has non-positive predicted or true depth."""


class DegenerateGeometry(MetricsError):
    """Too few or collinear points; no plane is defined."""


@dataclass(frozen=True)
class MetricsReport:
    mre_pct: float
    rmse_m: float
    log10: float
    delta1_pct: float
    delta2_pct: float
    delta3_pct: float
    n_pixels: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def to_csv_row(self) -> str:
        """The fields in METRICS_CSV_HEADER order: six errors to 9 digits, then the count."""
        *errors, n_pixels = astuple(self)
        return ",".join([*(f"{v:.9g}" for v in errors), f"{n_pixels}"])


METRICS_CSV_HEADER = ",".join(f.name for f in fields(MetricsReport))


def compute(
    pred_m: np.ndarray, truth_m: np.ndarray, mask: np.ndarray | None = None
) -> MetricsReport:
    """Evaluate predicted against true depth over a pixel mask.

    mask defaults to pixels where both maps are positive.  Raises
    EmptyMask when nothing is selected and NonPositiveDepth when the mask
    reaches a pixel either map cannot support.

    A capture is scored against a reference depth map the same way:
    compute(sparse.depth_m, reference_m) selects the sampled pixels the
    reference also covers.  The reference sensor has its own error (a few
    tenths of a percent of range for typical structured-light devices);
    that uncertainty is not compensated here, only documented.
    """
    pred_m = np.asarray(pred_m, dtype=np.float64)
    truth_m = np.asarray(truth_m, dtype=np.float64)
    if pred_m.shape != truth_m.shape:
        raise MetricsError(f"shape mismatch: {pred_m.shape} vs {truth_m.shape}")
    if mask is None:
        mask = (pred_m > 0) & (truth_m > 0)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != pred_m.shape:
        raise MetricsError(f"mask shape {mask.shape} != map shape {pred_m.shape}")
    if not mask.any():
        raise EmptyMask("evaluation mask selects no pixels")

    p = pred_m[mask]
    t = truth_m[mask]
    if np.any(p <= 0) or np.any(t <= 0):
        raise NonPositiveDepth("masked pixels must have positive depth in both maps")

    mre = float(np.mean(np.abs(p - t) / t)) * 100.0
    rmse = float(np.sqrt(np.mean(np.square(p - t))))
    log10_err = float(np.mean(np.abs(np.log10(p) - np.log10(t))))
    ratio = np.maximum(p / t, t / p)
    deltas = [float(np.mean(ratio < DELTA_BASE**i)) * 100.0 for i in (1, 2, 3)]
    return MetricsReport(
        mre_pct=mre,
        rmse_m=rmse,
        log10=log10_err,
        delta1_pct=deltas[0],
        delta2_pct=deltas[1],
        delta3_pct=deltas[2],
        n_pixels=int(mask.sum()),
    )


def planar_rmse(points_xyz_m: np.ndarray) -> float:
    """RMS orthogonal distance of 3-D points to their best-fit plane.

    The plane comes from an SVD of the centered point cloud: the singular
    vector with the smallest singular value is the normal.  Needs at
    least 3 non-collinear points.
    """
    pts = np.asarray(points_xyz_m, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise MetricsError(f"expected (N, 3) points, got {pts.shape}")
    if pts.shape[0] < 3:
        raise DegenerateGeometry(f"plane fit needs >= 3 points, got {pts.shape[0]}")
    centered = pts - pts.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    # collinear (or coincident) points leave the normal unconstrained
    if s[1] <= max(s[0], 1.0) * 1e-12:
        raise DegenerateGeometry("points are collinear; plane is not unique")
    normal = vt[-1]
    dist = centered @ normal
    return float(np.sqrt(np.mean(np.square(dist))))


def depth_to_points(
    depth_m: np.ndarray, fx_px: float, fy_px: float, cx_px: float, cy_px: float
) -> np.ndarray:
    """Back-project valid depth pixels (z > 0) to (N, 3) camera-space points."""
    depth_m = np.asarray(depth_m, dtype=np.float64)
    ys, xs = np.nonzero(depth_m > 0)
    z = depth_m[ys, xs]
    x = (xs + 0.5 - cx_px) / fx_px * z
    y = (ys + 0.5 - cy_px) / fy_px * z
    return np.stack([x, y, z], axis=1)

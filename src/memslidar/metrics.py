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


# The largest node of numpy's pairwise sum that `compute` reduces in one
# np.add.reduce call; the nodes above it are added in Python.  It is more
# than numpy's own block of 128 terms, so every split made here is one
# numpy makes too.
_LEAF = 1 << 15


def compute(pred_m, truth_m, mask=None) -> MetricsReport:
    """Evaluate predicted against true depth over a pixel mask.

    mask defaults to pixels where both maps are positive.  Raises
    EmptyMask when nothing is selected and NonPositiveDepth when the mask
    reaches a pixel either map cannot support.

    pred_m, truth_m and mask may also be equal-length lists (or tuples) of
    frames, each frame with its own shape; a mask list may hold None for a
    frame's default.  The frames are pooled: the report is the one their
    flattened concatenation would give, but no concatenation is built.

    Each mean is numpy's pairwise sum over the selected pixels, taken node
    by node in blocks of at most _LEAF pixels, so it matches np.mean over
    the whole selection bit for bit while memory stays a few blocks above
    the inputs however many pixels are pooled.

    A capture is scored against a reference depth map the same way:
    compute(sparse.depth_m, reference_m) selects the sampled pixels the
    reference also covers.  The reference sensor has its own error (a few
    tenths of a percent of range for typical structured-light devices);
    that uncertainty is not compensated here, only documented.
    """
    frames = _frames(pred_m, truth_m, mask)
    n = int(sum(np.count_nonzero(selected) for _, _, selected in _blocks(frames)))
    if n == 0:
        raise EmptyMask("evaluation mask selects no pixels")
    leaf = _leaf_reader(_selected_runs(frames), min(n, _LEAF))
    rel, sq, log, *below = _pairwise(n, leaf)
    deltas = [float(count / n) * 100.0 for count in below]
    return MetricsReport(
        mre_pct=float(rel / n) * 100.0,
        rmse_m=float(np.sqrt(sq / n)),
        log10=float(log / n),
        delta1_pct=deltas[0],
        delta2_pct=deltas[1],
        delta3_pct=deltas[2],
        n_pixels=n,
    )


def _frames(pred_m, truth_m, mask) -> list[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """(pred, truth, mask or None) per frame: one frame, or one per list item."""
    if isinstance(pred_m, (list, tuple)):
        masks = [None] * len(pred_m) if mask is None else mask
        if not len(pred_m) == len(truth_m) == len(masks):
            raise MetricsError(f"frame counts differ: {len(pred_m)} predicted, "
                               f"{len(truth_m)} true, {len(masks)} masks")
        triples = zip(pred_m, truth_m, masks)
    else:
        triples = [(pred_m, truth_m, mask)]
    frames = []
    for pred, truth, selected in triples:
        pred = np.asarray(pred, dtype=np.float64)
        truth = np.asarray(truth, dtype=np.float64)
        if pred.shape != truth.shape:
            raise MetricsError(f"shape mismatch: {pred.shape} vs {truth.shape}")
        if selected is not None:
            selected = np.asarray(selected, dtype=bool)
            if selected.shape != pred.shape:
                raise MetricsError(f"mask shape {selected.shape} != map shape {pred.shape}")
        frames.append((pred, truth, selected))
    return frames


def _blocks(frames):
    """(pred, truth, selected) over runs of at most _LEAF pixels in pooled,
    row-major order.  A frame that is not contiguous is copied flat while
    it is read, one frame at a time."""
    for pred, truth, mask in frames:
        pred, truth = pred.reshape(-1), truth.reshape(-1)
        mask = None if mask is None else mask.reshape(-1)
        for lo in range(0, pred.size, _LEAF):
            p, t = pred[lo:lo + _LEAF], truth[lo:lo + _LEAF]
            yield p, t, (p > 0) & (t > 0) if mask is None else mask[lo:lo + _LEAF]


def _selected_runs(frames):
    """The selected (pred, truth) values of each block."""
    for p, t, selected in _blocks(frames):
        p, t = p[selected], t[selected]
        if np.any(p <= 0) or np.any(t <= 0):
            raise NonPositiveDepth("masked pixels must have positive depth in both maps")
        yield p, t


def _leaf_reader(runs, size: int):
    """leaf(m): the error sums of the next m selected pixels from `runs`,
    read in place when one run holds them all, else copied into a buffer."""
    p_buf, t_buf = np.empty(size), np.empty(size)
    work = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
    p_run = t_run = p_buf[:0]
    at = 0

    def leaf(m: int) -> np.ndarray:
        nonlocal p_run, t_run, at
        filled = 0
        while filled < m:
            if at == p_run.size:
                p_run, t_run = next(runs)
                at = 0
            k = min(m - filled, p_run.size - at)
            if k == m:
                at += m
                return _error_sums(p_run[at - m:at], t_run[at - m:at], work)
            p_buf[filled:filled + k] = p_run[at:at + k]
            t_buf[filled:filled + k] = t_run[at:at + k]
            filled += k
            at += k
        return _error_sums(p_buf[:m], t_buf[:m], work)

    return leaf


def _error_sums(p: np.ndarray, t: np.ndarray, work) -> np.ndarray:
    """Sums over p and t of the relative, squared and log10 errors, and the
    counts of ratios under each delta threshold, as one float64 vector."""
    a, b, below = (w[:p.size] for w in work)
    np.subtract(p, t, out=b)
    rel = np.add.reduce(np.divide(np.abs(b, out=a), t, out=a))
    sq = np.add.reduce(np.square(b, out=b))
    log = np.add.reduce(np.abs(np.subtract(np.log10(p, out=a), np.log10(t, out=b), out=a), out=a))
    ratio = np.maximum(np.divide(p, t, out=a), np.divide(t, p, out=b), out=a)
    counts = [np.count_nonzero(np.less(ratio, DELTA_BASE**i, out=below)) for i in (1, 2, 3)]
    return np.array([rel, sq, log, *counts], dtype=np.float64)


def _pairwise(n: int, leaf) -> np.ndarray:
    """numpy's pairwise sum over n terms, split where numpy splits it; each
    node of at most _LEAF terms is leaf(size), taken left to right."""
    if n <= _LEAF:
        return leaf(n)
    half = n // 2 - (n // 2) % 8
    return _pairwise(half, leaf) + _pairwise(n - half, leaf)


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

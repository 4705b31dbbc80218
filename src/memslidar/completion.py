"""Sparse-to-dense depth completion guided by the RGB image.

The rangefinder leaves most pixels unmeasured; the guide camera sees all
of them.  Each missing pixel takes a weighted mean of its k nearest
measured samples, with weights

    exp(-d^2 / (2*sigma_spatial^2)) * exp(-|rgb_p - rgb_s|^2 / (2*sigma_color^2))

so depth stops propagating across color edges.  This is a deliberately
simple, deterministic baseline: no learning, no iteration.  Measured
pixels pass through untouched.

Neighbours come from a k-d tree (`scipy.spatial.cKDTree`) built once over
the sample pixels.  Pending pixels are queried in blocks of at most
`_CHUNK_TARGET` (pixel, candidate) entries, which bounds memory at any
image size.  Each pixel's candidates are ranked by (squared distance,
sample index), exactly as a stable sort of all samples would rank them,
so the weights are summed in a fixed order and the output does not
depend on the tree.  scipy.spatial is imported on the first call, not
with the package, because it adds 0.1-0.2 s to every fresh import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lidar_sim import CaptureConfig, NoSamples, SparseDepth, capture
from .metrics import MetricsReport, compute
from .scan_engine import ROI, MirrorModel, gen_foveated, gen_full_fov
from .scene_io import SceneFrame


# per-block budget of (pixel, candidate) entries for the k-NN queries
_CHUNK_TARGET = int(5e5)
# candidates queried beyond k, so that most rows settle their k-th-distance ties at once
_TIE_SLACK = 4


@dataclass(frozen=True)
class GuidedFillParams:
    """Completion knobs.

    sigma_spatial_px   spatial reach of a sample (pixels)
    sigma_color        RGB Euclidean distance scale (gray levels);
                       math.inf disables guidance entirely
    k_neighbors        measured samples consulted per missing pixel
    fallback           value when every weight underflows to zero:
                       "nearest" copies the closest sample, "mean" takes
                       the unweighted mean of the k neighbors
    """

    sigma_spatial_px: float = 12.0
    sigma_color: float = 20.0
    k_neighbors: int = 16
    fallback: str = "nearest"

    def __post_init__(self):
        if not self.sigma_spatial_px > 0:
            raise ValueError("sigma_spatial_px must be > 0")
        if not self.sigma_color > 0:
            raise ValueError("sigma_color must be > 0")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if self.fallback not in ("nearest", "mean"):
            raise ValueError(f"unknown fallback policy {self.fallback!r}")


@dataclass
class DenseDepth:
    """Fully populated depth map plus provenance ('completed' or 'ground_truth')."""

    depth_m: np.ndarray
    provenance: str


def _sample_arrays(sparse: SparseDepth, rgb: np.ndarray):
    ys = np.array([s.pixel_y for s in sparse.samples], dtype=np.int64)
    xs = np.array([s.pixel_x for s in sparse.samples], dtype=np.int64)
    zs = np.array([s.range_m for s in sparse.samples], dtype=np.float64)
    colors = rgb[ys, xs].astype(np.float64)
    return ys, xs, zs, colors


def _knn_keys(tree, my, mx, ys, xs, k, kq):
    """Keys d2 * n + index of each pixel's k nearest samples, ascending.

    The tree returns each pixel's kq nearest samples, but orders samples
    at equal distance arbitrarily, so the candidates are re-ranked by key.
    A row is exact once its last candidate lies strictly farther than its
    k-th: then every sample tied at the k-th distance is a candidate.
    Other rows are queried again with twice as many candidates, in blocks
    of the same entry budget; a query for all n samples is always exact.
    """
    n = len(ys)
    _, idx = tree.query(np.column_stack((my, mx)), k=kq)
    idx = idx.reshape(my.size, kq)
    d2 = (my[:, None] - ys[idx]) ** 2 + (mx[:, None] - xs[idx]) ** 2
    key = np.sort(d2 * n + idx, axis=1)
    tied = np.flatnonzero(key[:, k - 1] // n == key[:, -1] // n)
    key = key[:, :k]
    if kq < n and tied.size:
        kq = min(2 * kq, n)
        step = max(1, _CHUNK_TARGET // kq)
        for lo in range(0, len(tied), step):
            rows = tied[lo:lo + step]
            key[rows] = _knn_keys(tree, my[rows], mx[rows], ys, xs, k, kq)
    return key


def complete(
    sparse: SparseDepth, rgb: np.ndarray, params: GuidedFillParams = GuidedFillParams()
) -> DenseDepth:
    """Fill every unmeasured pixel from its k nearest measured samples.

    Pure function of its inputs: no RNG, no iteration order dependence
    (neighbor ties are broken by sample index).  Output values are convex
    combinations of measured ranges, clipped to the measured min/max
    because rounding can land the weighted mean an ulp outside them.
    """
    # deferred: scipy.spatial adds 0.1-0.2 s to a fresh `import memslidar`
    from scipy.spatial import cKDTree

    if not sparse.samples:
        raise NoSamples("cannot complete a capture with zero samples")
    depth = sparse.depth_m
    h, w = depth.shape
    if rgb.shape[:2] != (h, w):
        raise ValueError(f"rgb {rgb.shape[:2]} does not match depth {(h, w)}")
    ys, xs, zs, colors = _sample_arrays(sparse, rgb)
    k = min(params.k_neighbors, len(zs))
    inv_2ss = 1.0 / (2.0 * params.sigma_spatial_px**2)
    inv_2sc = 0.0 if math.isinf(params.sigma_color) else 1.0 / (2.0 * params.sigma_color**2)

    out = depth.copy()
    miss_y, miss_x = np.nonzero(depth <= 0)
    if miss_y.size == 0:
        return DenseDepth(depth_m=out, provenance="completed")
    rgb_f = rgb.astype(np.float64)

    tree = cKDTree(np.column_stack((ys, xs)))
    kq = min(k + _TIE_SLACK, len(zs))
    chunk = max(1, _CHUNK_TARGET // kq)
    for lo in range(0, miss_y.size, chunk):
        my = miss_y[lo:lo + chunk]
        mx = miss_x[lo:lo + chunk]
        key = _knn_keys(tree, my, mx, ys, xs, k, kq)
        nn = key % len(zs)
        d2_k = (key // len(zs)).astype(np.float64)
        w_spatial = np.exp(-d2_k * inv_2ss)
        if inv_2sc > 0.0:
            dc = rgb_f[my, mx][:, None, :] - colors[nn]
            c2 = np.sum(dc * dc, axis=2)
            weight = w_spatial * np.exp(-c2 * inv_2sc)
        else:
            weight = w_spatial
        z_k = zs[nn]
        wsum = weight.sum(axis=1)
        ok = wsum > 0
        vals = np.empty(nn.shape[0])
        vals[ok] = (weight[ok] * z_k[ok]).sum(axis=1) / wsum[ok]
        if not ok.all():
            if params.fallback == "nearest":
                vals[~ok] = z_k[~ok, 0]
            else:
                vals[~ok] = z_k[~ok].mean(axis=1)
        out[my, mx] = np.clip(vals, zs.min(), zs.max())
    return DenseDepth(depth_m=out, provenance="completed")


def complete_bruteforce(
    sparse: SparseDepth, rgb: np.ndarray, params: GuidedFillParams = GuidedFillParams()
) -> DenseDepth:
    """Per-pixel reference implementation; oracle for `complete`.

    Same definition executed the slow way: explicit loops, explicit
    (distance, index) sorting.  Kept for tests; do not use on big frames.
    """
    if not sparse.samples:
        raise NoSamples("cannot complete a capture with zero samples")
    depth = sparse.depth_m
    h, w = depth.shape
    ys, xs, zs, colors = _sample_arrays(sparse, rgb)
    k = min(params.k_neighbors, len(zs))
    out = depth.copy()
    for py in range(h):
        for px in range(w):
            if depth[py, px] > 0:
                continue
            cand = sorted(
                ((py - sy) ** 2 + (px - sx) ** 2, i)
                for i, (sy, sx) in enumerate(zip(ys, xs))
            )[:k]
            wsum = 0.0
            acc = 0.0
            for d2, i in cand:
                w_s = math.exp(-d2 / (2.0 * params.sigma_spatial_px**2))
                if math.isinf(params.sigma_color):
                    w_c = 1.0
                else:
                    dc = rgb[py, px].astype(np.float64) - colors[i]
                    w_c = math.exp(-float(dc @ dc) / (2.0 * params.sigma_color**2))
                wgt = w_s * w_c
                wsum += wgt
                acc += wgt * zs[i]
            if wsum > 0:
                out[py, px] = acc / wsum
            elif params.fallback == "nearest":
                out[py, px] = zs[cand[0][1]]
            else:
                out[py, px] = np.mean([zs[i] for _, i in cand])
    return DenseDepth(depth_m=out, provenance="completed")


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
    pattern_full = gen_full_fov(model, fps, dims)
    pattern_fov = gen_foveated(model, fps, roi, dims)
    if len(pattern_full) != len(pattern_fov):
        raise ValueError(
            f"pattern budgets diverged: {len(pattern_full)} vs {len(pattern_fov)}"
        )
    mask = np.zeros(frame.depth_gt.shape, dtype=bool)
    mask[roi.y0:roi.y1, roi.x0:roi.x1] = True
    mask &= frame.depth_gt > 0

    reports = []
    for pattern in (pattern_full, pattern_fov):
        sparse = capture(frame, pattern, config, noise_seed)
        dense = complete(sparse, frame.rgb, params)
        reports.append(compute(dense.depth_m, frame.depth_gt, mask))
    return reports[0], reports[1]

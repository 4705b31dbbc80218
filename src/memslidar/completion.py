"""Sparse-to-dense depth completion guided by the RGB image.

The rangefinder leaves most pixels unmeasured; the guide camera sees all
of them.  Each missing pixel takes a weighted mean of its k nearest
measured samples, with weights

    exp(-d^2 / (2*sigma_spatial^2)) * exp(-|rgb_p - rgb_s|^2 / (2*sigma_color^2))

so depth stops propagating across color edges.  This is a deliberately
simple, deterministic baseline: no learning, no iteration.  Measured
pixels pass through untouched.

Neighbours come from a tile search (the cell method of Bentley, Stanat
& Williams, 1977).  The image is cut into t x t tiles, t about the sample
spacing.  If d_k is the k-th nearest sample distance from a tile's centre
and r the tile's half-diagonal, then every sample among any tile pixel's
k nearest, ties included, lies within d_k + 2r of the centre.  Those
candidates are ranked for all the tile's pixels at once by the integer
key (squared distance, sample index), exactly as a stable sort of all
samples would rank them, so the weights are summed in a fixed order.
Squared distances and RGB distances are integers, so both Gaussians are
read from tables, cached across calls.  Tiles are processed in blocks
that hold at most `_CHUNK_TARGET` (tile, sample) and (pixel, candidate)
entries, which bounds memory at any image size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lidar_sim import NoSamples, SparseDepth


# per-block budget of (tile, sample) and of (pixel, candidate) entries; at
# 1e5 a block's float64 temporaries are 0.8 MB, small enough for the
# allocator to reuse from block to block and call to call instead of
# faulting in fresh pages
_CHUNK_TARGET = int(1e5)


class CompletionError(ValueError):
    """Completion parameters or inputs that `complete` cannot take."""


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

    Each sigma must leave `complete`'s weight scale 1/(2*sigma**2) a float:
    sigma**2 may not overflow and 2*sigma**2 may not round to 0, which
    rejects sigmas above about 1.34e154 or below about 1.57e-162.
    """

    sigma_spatial_px: float = 12.0
    sigma_color: float = 20.0
    k_neighbors: int = 16
    fallback: str = "nearest"

    def __post_init__(self):
        if not self.sigma_spatial_px > 0:
            raise CompletionError("sigma_spatial_px must be > 0")
        if not self.sigma_color > 0:
            raise CompletionError("sigma_color must be > 0")
        if self.k_neighbors < 1:
            raise CompletionError("k_neighbors must be >= 1")
        if self.fallback not in ("nearest", "mean"):
            raise CompletionError(f"unknown fallback policy {self.fallback!r}")
        for name in ("sigma_spatial_px", "sigma_color"):
            sigma = getattr(self, name)
            try:
                1.0 / (2.0 * sigma**2)  # the weight scale `complete` computes
            except ArithmeticError:  # sigma**2 overflows, or 2*sigma**2 rounds to 0
                raise CompletionError(
                    f"{name} {sigma!r} is out of range: 1/(2*{name}**2) is not a float"
                ) from None


@dataclass
class DenseDepth:
    """Fully populated depth map."""

    depth_m: np.ndarray


def _tile_size(h: int, w: int, n: int) -> int:
    """Tile edge in pixels: small tiles for dense samples, larger for sparse."""
    return 4 if math.sqrt(h * w / n) < 12 else 8


def _knn_blocks(ys, xs, pending, k):
    """Yield (my, mx, d2, nn) for blocks of pending pixels.

    nn[i] holds the indices of pixel (my[i], mx[i])'s k nearest samples and
    d2[i] their squared distances, ranked by the key (d2 << bits) | index:
    the order of a stable sort by distance.  Coordinates are doubled
    inside, so that tile centres are integers.
    """
    h, w = pending.shape
    n = len(ys)
    bits = n.bit_length()  # index n pads short candidate lists
    t = _tile_size(h, w, n)
    rows, cols = -(-h // t), -(-w // t)
    tile_pending = np.zeros((rows * t, cols * t), dtype=bool)
    tile_pending[:h, :w] = pending
    tile_pending = tile_pending.reshape(rows, t, cols, t).swapaxes(1, 2).reshape(-1, t, t)
    tiles = np.flatnonzero(tile_pending.any(axis=(1, 2)))
    tile_y, tile_x = np.divmod(tiles, cols)
    # squared doubled distances from tile-centre rows and columns to each sample
    centre_y = np.arange(rows)[:, None] * 2 * t + (t - 1)
    centre_x = np.arange(cols)[:, None] * 2 * t + (t - 1)
    # int32 halves the (tile, sample) block wherever it cannot overflow
    dist = np.int32 if (2 * rows * t) ** 2 + (2 * cols * t) ** 2 < 2**30 else np.int64
    dd_y = ((centre_y - 2 * ys) ** 2).astype(dist)
    dd_x = ((centre_x - 2 * xs) ** 2).astype(dist)
    reach = 2.0 * math.sqrt(2.0) * (t - 1)  # 2r, doubled
    # the padding index n sits farther from every image pixel than any sample
    ys_pad, xs_pad = np.append(ys, -h), np.append(xs, -w)
    key_max = ((rows * t + h) ** 2 + (cols * t + w) ** 2) << bits | n
    key_type = np.int32 if key_max < 2**31 else np.int64
    offsets = np.arange(t)
    step = max(1, _CHUNK_TARGET // n)
    lo = 0
    while lo < len(tiles):
        dd = dd_y[tile_y[lo:lo + step]]
        dd += dd_x[tile_x[lo:lo + step]]
        dd_k = np.partition(dd, k - 1, axis=1)[:, k - 1]
        # rounded up: extra candidates cannot change the ranking
        bound = np.ceil((np.sqrt(dd_k) + reach) ** 2 * (1.0 + 1e-9)).astype(dist)
        near = dd <= bound[:, None]
        count = np.count_nonzero(near, axis=1)
        # the longest run of tiles whose padded (pixel, candidate) block fits
        size = np.arange(1, len(count) + 1) * np.maximum.accumulate(count) * (t * t)
        b = max(1, int(np.count_nonzero(size <= _CHUNK_TARGET)))
        near, count = near[:b], count[:b]
        tile_i = np.repeat(np.arange(b), count)
        cand_i = np.flatnonzero(near) - tile_i * n
        slot = np.arange(len(cand_i)) - np.repeat(np.cumsum(count) - count, count)
        cand = np.full((b, count.max()), n)
        cand[tile_i, slot] = cand_i
        py = (tile_y[lo:lo + b] * t)[:, None] + offsets
        px = (tile_x[lo:lo + b] * t)[:, None] + offsets
        cy, cx = ys_pad[cand][:, None, :], xs_pad[cand][:, None, :]
        key_y = ((py[:, :, None] - cy) ** 2 << bits).astype(key_type)
        key_x = ((px[:, :, None] - cx) ** 2 << bits | cand[:, None, :]).astype(key_type)
        key = (key_y[:, :, None, :] + key_x[:, None, :, :]).reshape(b * t * t, -1)
        sel = tile_pending[tiles[lo:lo + b]]
        key = key[sel.ravel()]
        # one sort per row: faster on these short integer rows than a partition first
        key.sort(axis=1)
        tile_i, oy, ox = np.nonzero(sel)
        # intp: numpy converts any other index dtype on every gather
        nn = key[:, :k].astype(np.intp)
        d2 = nn >> bits
        nn &= (1 << bits) - 1
        yield py[tile_i, oy], px[tile_i, ox], d2, nn
        lo += b
        # size the next block for this one's candidate count, so that little is cut
        step = max(1, min(_CHUNK_TARGET // n, _CHUNK_TARGET // (t * t * int(count.max()))))


@functools.lru_cache(maxsize=4)
def _gauss_table(size: int, inv_2s2: float) -> np.ndarray:
    """exp(-i * inv_2s2) for integers i < size, read-only.  np.exp of the
    same arguments as exp(-d2 * inv_2s2) per entry: the same weights."""
    table = np.exp(-np.arange(size) * inv_2s2)
    table.flags.writeable = False
    return table


def complete(
    sparse: SparseDepth, rgb: np.ndarray, params: GuidedFillParams = GuidedFillParams()
) -> DenseDepth:
    """Fill every unmeasured pixel from its k nearest measured samples.

    Pure function of its inputs: no RNG, no iteration order dependence
    (neighbor ties are broken by sample index).  Output values are convex
    combinations of measured ranges, clipped to the measured min/max
    because rounding can land the weighted mean an ulp outside them.
    """
    if len(sparse.samples) == 0:
        raise NoSamples("cannot complete a capture with zero samples")
    depth = sparse.depth_m
    h, w = depth.shape
    if rgb.shape != (h, w, 3) or rgb.dtype != np.uint8:
        raise CompletionError(f"rgb must be {(h, w, 3)} uint8, got {rgb.shape} {rgb.dtype}")
    ys, xs, zs = sparse.samples.pixel_y, sparse.samples.pixel_x, sparse.samples.range_m
    if not (np.all((0 <= ys) & (ys < h)) and np.all((0 <= xs) & (xs < w))):
        raise CompletionError(f"a sample lies outside the {w}x{h} depth map")
    k = min(params.k_neighbors, len(zs))
    inv_2ss = 1.0 / (2.0 * params.sigma_spatial_px**2)
    inv_2sc = 1.0 / (2.0 * params.sigma_color**2)  # 0.0 at sigma_color = inf: colour weights 1.0

    out = depth.copy()
    pending = depth <= 0
    if not pending.any():
        return DenseDepth(depth_m=out)
    z_lo, z_hi = zs.min(), zs.max()
    exp_s = _gauss_table((h - 1) ** 2 + (w - 1) ** 2 + 1, inv_2ss)
    exp_c = _gauss_table(3 * 255**2 + 1, inv_2sc)
    pixel_rgb = [rgb[..., c].ravel().astype(np.int32) for c in range(3)]
    sample_rgb = [p[ys * w + xs] for p in pixel_rgb]

    for my, mx, d2, nn in _knn_blocks(ys, xs, pending, k):
        weight = exp_s[d2]
        at = my * w + mx
        c2 = np.zeros(nn.shape, dtype=np.int32)
        dc = np.empty(nn.shape, dtype=np.int32)
        for p, s in zip(pixel_rgb, sample_rgb):
            np.take(s, nn, out=dc)
            np.subtract(p[at][:, None], dc, out=dc)
            np.multiply(dc, dc, out=dc)
            c2 += dc
        weight *= exp_c[c2]
        z_k = zs[nn]
        wsum = weight.sum(axis=1)
        ok = wsum > 0
        num = (weight * z_k).sum(axis=1)
        vals = np.divide(num, wsum, out=num, where=ok)
        if params.fallback == "nearest":
            vals[~ok] = z_k[~ok, 0]
        else:
            vals[~ok] = z_k[~ok].mean(axis=1)
        out[my, mx] = np.clip(vals, z_lo, z_hi)
    return DenseDepth(depth_m=out)


def complete_bruteforce(
    sparse: SparseDepth, rgb: np.ndarray, params: GuidedFillParams = GuidedFillParams()
) -> DenseDepth:
    """Per-pixel reference implementation; oracle for `complete`.

    Same definition executed the slow way: explicit loops, explicit
    (distance, index) sorting, and the same clip to the measured min/max.
    Kept for tests; do not use on big frames.
    """
    if len(sparse.samples) == 0:
        raise NoSamples("cannot complete a capture with zero samples")
    depth = sparse.depth_m
    h, w = depth.shape
    ys, xs, zs = sparse.samples.pixel_y, sparse.samples.pixel_x, sparse.samples.range_m
    colors = rgb[ys, xs].astype(np.float64)
    k = min(params.k_neighbors, len(zs))
    z_lo, z_hi = zs.min(), zs.max()
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
                dc = rgb[py, px].astype(np.float64) - colors[i]
                w_c = math.exp(-float(dc @ dc) / (2.0 * params.sigma_color**2))
                wgt = w_s * w_c
                wsum += wgt
                acc += wgt * zs[i]
            if wsum > 0:
                z = acc / wsum
            elif params.fallback == "nearest":
                z = zs[cand[0][1]]
            else:
                z = np.mean([zs[i] for _, i in cand])
            out[py, px] = min(max(z, z_lo), z_hi)
    return DenseDepth(depth_m=out)

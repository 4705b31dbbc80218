import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memslidar.completion as completion
from memslidar.cli import DATA_ERRORS
from memslidar.completion import (CompletionError, GuidedFillParams, complete,
                                   complete_bruteforce)
from memslidar.lidar_sim import (
    CaptureConfig,
    DEPTH_SAMPLE_DTYPE,
    NoSamples,
    SparseDepth,
    capture,
)
from memslidar.metrics import compute
from memslidar.pipeline import compare_foveated
from memslidar.foveation import entropy_map, max_entropy_roi
from memslidar.scan_engine import (
    ROI,
    Regime,
    gen_entropy_adaptive,
    gen_foveated,
    gen_full_fov,
)

from conftest import foveation_scene, make_frame, model_with_budget


def _sparse_from_pixels(shape, pixel_depths):
    """SparseDepth with the given {(x, y): z} measured pixels."""
    depth = np.zeros(shape)
    samples = []
    for (x, y), z in pixel_depths.items():
        depth[y, x] = z
        samples.append((0.0, 0.0, 0.0, x, y, float(z)))
    samples = np.rec.fromrecords(samples, dtype=DEPTH_SAMPLE_DTYPE)
    return SparseDepth(depth_m=depth, samples=samples, fps=10.0,
                       regime=Regime.FULL_FOV, drop_count=0)


def _random_sparse(shape, n, seed, z_lo=0.5, z_hi=4.0):
    rng = np.random.default_rng(seed)
    h, w = shape
    idx = rng.choice(h * w, size=n, replace=False)
    return _sparse_from_pixels(
        shape,
        {(int(i % w), int(i // w)): rng.uniform(z_lo, z_hi) for i in idx},
    )


def _flat_rgb(shape, value=128):
    return np.full((*shape, 3), value, dtype=np.uint8)


# ---------- basic contract ----------

def test_fully_measured_map_passes_through():
    shape = (12, 16)
    pixels = {(x, y): 2.0 for y in range(12) for x in range(16)}
    sparse = _sparse_from_pixels(shape, pixels)
    dense = complete(sparse, _flat_rgb(shape))
    assert np.array_equal(dense.depth_m, sparse.depth_m)
    assert dense.depth_m is not sparse.depth_m


def test_measured_pixels_are_untouched(plane_frame):
    pattern = gen_full_fov(model_with_budget(100), 10.0, (64, 48))
    sparse = capture(plane_frame, pattern, CaptureConfig(noise_coeff=0.02))
    dense = complete(sparse, plane_frame.rgb)
    mask = sparse.depth_m > 0
    assert np.array_equal(dense.depth_m[mask], sparse.depth_m[mask])
    assert np.all(dense.depth_m > 0)


def test_equidistant_samples_average():
    shape = (21, 31)
    sparse = _sparse_from_pixels(shape, {(10, 10): 1.0, (20, 10): 3.0})
    dense = complete(sparse, _flat_rgb(shape))
    assert dense.depth_m[10, 15] == pytest.approx(2.0, rel=1e-12)


def test_output_stays_within_measured_range():
    shape = (30, 40)
    rng = np.random.default_rng(0)
    for seed in range(5):
        sparse = _random_sparse(shape, 25, seed)
        rgb = rng.integers(0, 256, (*shape, 3), dtype=np.uint8)
        zs = [s.range_m for s in sparse.samples]
        for params in (
            GuidedFillParams(),
            GuidedFillParams(sigma_color=math.inf),
            GuidedFillParams(sigma_spatial_px=0.5, fallback="mean"),
        ):
            dense = complete(sparse, rgb, params)
            assert dense.depth_m.min() >= min(zs)
            assert dense.depth_m.max() <= max(zs)


# (x, y, range_m, rgb) of the 27 returns of a foveated 30 fps frame (160x120,
# the benchmark's frame-qqvga seed 403, frame 6).  Pixels colored like the
# nearest sample, (139, 83), weight it almost alone; the weighted mean then
# rounds one ulp below its range, the smallest measured.
_ULP_CASE = (
    (20, 30, 2.49921094608176, (159, 112, 102)),
    (34, 30, 2.606947598083864, (54, 38, 35)),
    (47, 30, 2.4608183846615077, (128, 90, 83)),
    (47, 38, 2.570934266798901, (44, 31, 28)),
    (34, 38, 2.410589927802687, (116, 82, 75)),
    (20, 38, 2.449457642335083, (110, 77, 71)),
    (20, 45, 2.586480944782233, (127, 90, 82)),
    (34, 45, 2.509881971288084, (142, 100, 91)),
    (47, 45, 2.5745961193231013, (83, 58, 53)),
    (34, 53, 2.523182520715995, (79, 55, 50)),
    (20, 53, 2.601191576572923, (49, 34, 31)),
    (20, 12, 2.524225921457776, (59, 41, 38)),
    (60, 12, 2.4764824239562606, (58, 40, 37)),
    (99, 12, 2.527291046970043, (133, 94, 86)),
    (139, 12, 2.468263015469165, (56, 39, 36)),
    (139, 36, 2.48753928908807, (82, 57, 52)),
    (99, 36, 2.533563229914289, (98, 69, 63)),
    (60, 36, 2.547071855719285, (67, 47, 43)),
    (20, 60, 2.523122104688796, (41, 29, 27)),
    (99, 60, 1.909911393145637, (61, 70, 39)),
    (139, 60, 1.4318668440454356, (54, 51, 23)),
    (139, 83, 1.3400185999584189, (218, 207, 92)),
    (99, 83, 2.4750296595588117, (100, 70, 64)),
    (60, 83, 2.357523536092858, (58, 41, 37)),
    (20, 83, 2.4975545402150874, (165, 116, 106)),
    (20, 107, 2.5874616685442953, (72, 51, 46)),
    (60, 107, 2.558927916479844, (157, 111, 101)),
)


def test_rounding_cannot_leave_measured_range():
    shape = (120, 160)
    sparse = _sparse_from_pixels(shape, {(x, y): z for x, y, z, _ in _ULP_CASE})
    rgb = np.empty((*shape, 3), dtype=np.uint8)
    rgb[:] = (218, 207, 92)
    for x, y, _, color in _ULP_CASE:
        rgb[y, x] = color
    zs = sparse.depth_m[sparse.depth_m > 0]
    for fill in (complete, complete_bruteforce):
        dense = fill(sparse, rgb).depth_m
        assert dense.min() == zs.min(), fill.__name__
        assert dense.max() <= zs.max(), fill.__name__


# ---------- oracle equivalence ----------

@pytest.mark.parametrize("params", [
    GuidedFillParams(),
    GuidedFillParams(sigma_color=math.inf),
    GuidedFillParams(k_neighbors=64),
    GuidedFillParams(sigma_spatial_px=0.5, fallback="nearest"),
    GuidedFillParams(sigma_spatial_px=0.5, fallback="mean"),
])
def test_chunked_matches_bruteforce(params):
    shape = (36, 48)
    sparse = _random_sparse(shape, 40, seed=3)
    rgb = np.random.default_rng(4).integers(0, 256, (*shape, 3), dtype=np.uint8)
    fast = complete(sparse, rgb, params)
    slow = complete_bruteforce(sparse, rgb, params)
    np.testing.assert_allclose(fast.depth_m, slow.depth_m, atol=1e-12)


@pytest.mark.parametrize("sigma_color", [20.0, math.inf])
@pytest.mark.parametrize("fallback", ["nearest", "mean"])
def test_underflow_fallbacks_match_bruteforce(fallback, sigma_color):
    # six samples at sigma 0.5 px leave pixels whose nearest sample's spatial
    # weight, and so every weight, underflows: both fallback branches run
    shape = (36, 48)
    params = GuidedFillParams(sigma_spatial_px=0.5, sigma_color=sigma_color, fallback=fallback)
    sparse = _random_sparse(shape, 6, seed=3)
    ys, xs = np.mgrid[:shape[0], :shape[1]]
    nearest_d2 = np.min([(ys - s.pixel_y) ** 2 + (xs - s.pixel_x) ** 2 for s in sparse.samples],
                        axis=0)
    assert np.any(np.exp(-nearest_d2 / (2 * params.sigma_spatial_px**2)) == 0.0)
    rgb = np.random.default_rng(4).integers(0, 256, (*shape, 3), dtype=np.uint8)
    fast = complete(sparse, rgb, params)
    slow = complete_bruteforce(sparse, rgb, params)
    np.testing.assert_allclose(fast.depth_m, slow.depth_m, atol=1e-12)


def test_chunk_boundaries_do_not_change_results(monkeypatch):
    # 1 and 7 cut every block to one tile; 300 and 1000 split the (pixel,
    # candidate) level below the (tile, sample) level; 20000 splits neither
    shape = (36, 48)
    sparse = _random_sparse(shape, 40, seed=5)
    rgb = np.random.default_rng(6).integers(0, 256, (*shape, 3), dtype=np.uint8)
    whole = complete(sparse, rgb)
    for target in [1, 7, 300, 1000, 20000]:
        monkeypatch.setattr(completion, "_CHUNK_TARGET", target)
        chunked = complete(sparse, rgb)
        np.testing.assert_array_equal(whole.depth_m, chunked.depth_m, err_msg=f"{target=}")


def test_cached_tables_match_a_fresh_call():
    # two sizes and two parameter sets, alternated: every call must see the
    # tables of its own (size, sigma), whatever the calls before it built
    cases = []
    for shape, seed in (((36, 48), 7), ((20, 64), 8)):
        sparse = _random_sparse(shape, 30, seed=seed)
        rgb = np.random.default_rng(seed).integers(0, 256, (*shape, 3), dtype=np.uint8)
        cases.append((sparse, rgb))
    params = (GuidedFillParams(), GuidedFillParams(sigma_spatial_px=3.0, sigma_color=7.0))
    fresh = {}
    for i, (sparse, rgb) in enumerate(cases):
        for j, p in enumerate(params):
            completion._gauss_table.cache_clear()
            fresh[i, j] = complete(sparse, rgb, p).depth_m.tobytes()
    completion._gauss_table.cache_clear()
    for _ in range(2):
        for j in range(len(params)):
            for i, (sparse, rgb) in enumerate(cases):
                assert complete(sparse, rgb, params[j]).depth_m.tobytes() == fresh[i, j], (i, j)
    table = completion._gauss_table(100, 0.5)
    assert table is completion._gauss_table(100, 0.5)
    with pytest.raises(ValueError):
        table[0] = 0.0


# ---------- tie order: byte-exact argsort reference ----------

def _complete_argsort(sparse, rgb, params):
    """`complete` with the neighbour search it was first written with.

    Every pending pixel stable-argsorts its squared distance to every
    sample, so ties at the k-th distance go to the lower sample index.
    The weight arithmetic is the library's, step for step, so `complete`
    must match this reference byte for byte.
    """
    ys = np.array([s.pixel_y for s in sparse.samples], dtype=np.int64)
    xs = np.array([s.pixel_x for s in sparse.samples], dtype=np.int64)
    zs = np.array([s.range_m for s in sparse.samples], dtype=np.float64)
    colors = rgb[ys, xs].astype(np.float64)
    k = min(params.k_neighbors, len(zs))
    inv_2ss = 1.0 / (2.0 * params.sigma_spatial_px**2)
    inv_2sc = 0.0 if math.isinf(params.sigma_color) else 1.0 / (2.0 * params.sigma_color**2)
    out = sparse.depth_m.copy()
    miss_y, miss_x = np.nonzero(sparse.depth_m <= 0)
    rgb_f = rgb.astype(np.float64)
    for lo in range(0, miss_y.size, 2048):
        my = miss_y[lo:lo + 2048]
        mx = miss_x[lo:lo + 2048]
        d2 = (
            (my[:, None] - ys[None, :]) ** 2 + (mx[:, None] - xs[None, :]) ** 2
        ).astype(np.float64)
        nn = np.argsort(d2, axis=1, kind="stable")[:, :k]
        rows = np.arange(nn.shape[0])[:, None]
        d2_k = d2[rows, nn]
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
    return out


def _ties_across_kth(sparse, k):
    """Pending pixels whose k-th and (k+1)-th nearest samples are equidistant."""
    ys = np.array([s.pixel_y for s in sparse.samples])
    xs = np.array([s.pixel_x for s in sparse.samples])
    my, mx = np.nonzero(sparse.depth_m <= 0)
    d2 = np.sort((my[:, None] - ys) ** 2 + (mx[:, None] - xs) ** 2, axis=1)
    return int(np.sum(d2[:, k - 1] == d2[:, k]))


def _lattice_capture(shape, n):
    """gen_full_fov's raster on a flat 2 m plane: a near-regular pixel lattice."""
    h, w = shape
    rng = np.random.default_rng(n)
    frame = make_frame(np.full(shape, 2.0),
                       rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
    pattern = gen_full_fov(model_with_budget(n), 10.0, (w, h))
    return capture(frame, pattern, CaptureConfig(noise_coeff=0.05), noise_seed=n), frame.rgb


def _square_lattice(shape, pitch, seed):
    h, w = shape
    rng = np.random.default_rng(seed)
    pixels = {(x, y): rng.uniform(0.5, 4.0)
              for y in range(1, h, pitch) for x in range(2, w, pitch)}
    return _sparse_from_pixels(shape, pixels)


def _symmetric_rings(shape, seed):
    """Samples on rings about the image centre with 12-16 lattice points each."""
    h, w = shape
    cy, cx = h // 2, w // 2
    rng = np.random.default_rng(seed)
    pixels = {}
    for a, b in ((0, 5), (3, 4), (1, 7), (5, 5), (1, 8), (4, 7), (2, 9), (6, 7)):
        for dx, dy in ((a, b), (b, a)):
            for sx in (-1, 1):
                for sy in (-1, 1):
                    pixels[(cx + sx * dx, cy + sy * dy)] = rng.uniform(0.5, 4.0)
    return _sparse_from_pixels(shape, pixels)


def _tie_layouts():
    shape = (30, 41)
    rgb = np.random.default_rng(11).integers(0, 256, (*shape, 3), dtype=np.uint8)
    yield "full_fov", *_lattice_capture((36, 48), 120)
    yield "square", _square_lattice(shape, 4, 1), rgb
    yield "square_dense", _square_lattice(shape, 3, 2), rgb
    yield "rings", _symmetric_rings(shape, 3), rgb


_TIE_PARAMS = (
    {},
    {"sigma_color": math.inf},
    {"sigma_spatial_px": 0.5, "fallback": "nearest"},
    {"sigma_spatial_px": 0.5, "fallback": "mean"},
)


# tile edges for the neighbour search; 64 is wider than every test image
_TILES = [1, 2, 4, 8, 16, 64]


# tile 0 keeps the library's own `_tile_size` rule
@pytest.mark.parametrize("tile", [0, *_TILES])
@pytest.mark.parametrize("k_of_n", [
    lambda n: 1, lambda n: 16, lambda n: n - 1, lambda n: n, lambda n: n + 7,
], ids=["k1", "k16", "n-1", "n", "over_n"])
def test_tie_order_matches_argsort_reference(monkeypatch, k_of_n, tile):
    if tile:
        monkeypatch.setattr(completion, "_tile_size", lambda h, w, n: tile)
    monkeypatch.setattr(completion, "_CHUNK_TARGET", 4000)
    ties, below_n = 0, False
    for name, sparse, rgb in _tie_layouts():
        n = len(sparse.samples)
        k = k_of_n(n)
        if k < n:
            below_n = True
            ties += _ties_across_kth(sparse, k)
        for extra in _TIE_PARAMS:
            params = GuidedFillParams(k_neighbors=k, **extra)
            np.testing.assert_array_equal(
                complete(sparse, rgb, params).depth_m,
                _complete_argsort(sparse, rgb, params),
                err_msg=f"{name} k={k} {extra}",
            )
    assert ties > 0 or not below_n  # the layouts must put ties across the k-th place


def _corner_tie(shape, tile, k, seed):
    """Samples that put a tile corner's k-th nearest at the edge of the search.

    Let c be the centre of a tile near the image centre, p its bottom-right
    pixel and r = |p - c| the tile's half-diagonal.  k - 1 samples lie
    closer to c than A, on the diagonal beyond the top-left pixel, so
    d_k(c) = |c - A|.  B lies on the same diagonal beyond p, with
    |p - B| = |p - A| = d_k(c) + r and |c - B| = d_k(c) + 2r exactly.  A
    and B tie at p's k-th place, and B has the lower index, so p must take
    B: a search reach any shorter than d_k(c) + 2r loses it.
    Returns (sparse, rgb, p as (x, y)); B is sample 0.
    """
    h, w = shape
    y0, x0 = (h // 2) // tile * tile, (w // 2) // tile * tile
    cy = cx = (tile - 1) / 2  # centre offset within the tile
    gap = 1 + math.isqrt(k)  # room for k - 1 samples around c
    a = (y0 - gap, x0 - gap)
    b = (y0 + tile - 1 + tile - 1 + gap, x0 + tile - 1 + tile - 1 + gap)
    d_a = math.hypot(y0 + cy - a[0], x0 + cx - a[1])
    rng = np.random.default_rng(seed)
    inner = [(y, x) for y in range(h) for x in range(w)
             if math.hypot(y - y0 - cy, x - x0 - cx) < d_a - 1e-9
             and (y, x) != (y0 + tile - 1, x0 + tile - 1)]
    others = [inner[i] for i in rng.choice(len(inner), size=k - 1, replace=False)]
    pixels = {}
    for y, x in [b, *others, a]:
        assert 0 <= y < h and 0 <= x < w
        pixels[(x, y)] = rng.uniform(0.5, 4.0)
    sparse = _sparse_from_pixels(shape, pixels)
    rgb = rng.integers(0, 256, (*shape, 3), dtype=np.uint8)
    return sparse, rgb, (x0 + tile - 1, y0 + tile - 1)


@pytest.mark.parametrize("tile", [2, 4, 8, 16])
@pytest.mark.parametrize("k", [1, 4, 16])
def test_tile_corner_tie_at_search_edge(monkeypatch, tile, k):
    shape = (70, 90)
    sparse, rgb, (px, py) = _corner_tie(shape, tile, k, seed=tile * 100 + k)
    ys, xs = sparse.samples.pixel_y, sparse.samples.pixel_x
    d2 = (py - ys) ** 2 + (px - xs) ** 2
    assert 0 in np.argsort(d2, kind="stable")[:k]  # B is p's k-th nearest
    assert np.sort(d2)[k - 1] == np.sort(d2)[k]  # tied with A
    monkeypatch.setattr(completion, "_tile_size", lambda h, w, n: tile)
    for extra in _TIE_PARAMS:
        params = GuidedFillParams(k_neighbors=k, **extra)
        np.testing.assert_array_equal(
            complete(sparse, rgb, params).depth_m,
            _complete_argsort(sparse, rgb, params),
            err_msg=f"tile={tile} k={k} {extra}",
        )


def _fuzz_layout(rng):
    """A small random image with samples on a coarse lattice, so many tie."""
    h, w = int(rng.integers(3, 40)), int(rng.integers(3, 40))
    pitch = int(rng.integers(1, 5))
    lattice = [(x, y) for y in range(0, h, pitch) for x in range(0, w, pitch)]
    n = int(rng.integers(1, min(len(lattice), 60) + 1))
    picked = rng.choice(len(lattice), size=n, replace=False)
    sparse = _sparse_from_pixels(
        (h, w), {lattice[i]: rng.uniform(0.5, 4.0) for i in picked})
    rgb = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    return sparse, rgb


@pytest.mark.parametrize("seed", range(12))
def test_fuzz_matches_argsort_reference(monkeypatch, seed):
    rng = np.random.default_rng(1000 + seed)
    monkeypatch.setattr(completion, "_CHUNK_TARGET", int(rng.choice([50, 2000, 5e5])))
    for _ in range(4):
        sparse, rgb = _fuzz_layout(rng)
        n = len(sparse.samples)
        extra = _TIE_PARAMS[int(rng.integers(len(_TIE_PARAMS)))]
        for k in sorted({1, 16, max(n - 1, 1), n, n + 7}):
            params = GuidedFillParams(k_neighbors=k, **extra)
            expected = _complete_argsort(sparse, rgb, params)
            for tile in _TILES:
                monkeypatch.setattr(completion, "_tile_size", lambda h, w, n, t=tile: t)
                np.testing.assert_array_equal(
                    complete(sparse, rgb, params).depth_m, expected,
                    err_msg=f"{sparse.depth_m.shape} n={n} k={k} tile={tile} {extra}",
                )


def test_tie_order_matches_argsort_reference_1503_samples(textured_frame):
    pattern = gen_full_fov(model_with_budget(1503), 10.0, (160, 120))
    sparse = capture(textured_frame, pattern, CaptureConfig(), noise_seed=4)
    assert len(sparse.samples) > 1400
    params = GuidedFillParams()
    np.testing.assert_array_equal(
        complete(sparse, textured_frame.rgb, params).depth_m,
        _complete_argsort(sparse, textured_frame.rgb, params),
    )


def test_dense_capture_matches_argsort_reference():
    # 19,000 samples need 15 index bits, which pushes the keys past 32 bits
    shape = (120, 160)
    rng = np.random.default_rng(21)
    holes = rng.choice(shape[0] * shape[1], size=200, replace=False)
    depth = rng.uniform(0.5, 4.0, shape)
    depth.flat[holes] = 0.0
    ys, xs = np.nonzero(depth)
    sparse = _sparse_from_pixels(shape, {(x, y): depth[y, x] for y, x in zip(ys, xs)})
    rgb = rng.integers(0, 256, (*shape, 3), dtype=np.uint8)
    for extra in _TIE_PARAMS:
        params = GuidedFillParams(**extra)
        np.testing.assert_array_equal(complete(sparse, rgb, params).depth_m,
                                      _complete_argsort(sparse, rgb, params))


@pytest.mark.parametrize("budget", [27, 230, 1503])
@pytest.mark.parametrize("regime", ["entropy", "foveated"])
def test_clustered_patterns_match_argsort_reference(textured_frame, regime, budget):
    emap = entropy_map(textured_frame.rgb, 15)
    model = model_with_budget(budget)
    if regime == "entropy":
        pattern = gen_entropy_adaptive(model, 10.0, emap.values, seed=budget)
    else:
        best = max_entropy_roi(emap, (40, 30))
        roi = ROI(best.x0, best.y0, best.x1, best.y1, 1.0, 0.1)
        pattern = gen_foveated(model, 10.0, roi, (160, 120))
    sparse = capture(textured_frame, pattern, CaptureConfig(), noise_seed=budget)
    assert len(sparse.samples) > 0.8 * budget
    params = GuidedFillParams()
    np.testing.assert_array_equal(
        complete(sparse, textured_frame.rgb, params).depth_m,
        _complete_argsort(sparse, textured_frame.rgb, params),
    )


# ---------- color guidance ----------

def test_guidance_blocks_cross_edge_bleed():
    h, w = 48, 64
    depth = np.full((h, w), 2.0)
    depth[:, :32] = 1.0
    rgb = np.full((h, w, 3), 220, dtype=np.uint8)
    rgb[:, :32] = 40

    rng = np.random.default_rng(0)
    idx = rng.choice(h * w, size=int(0.05 * h * w), replace=False)
    pixels = {(int(i % w), int(i // w)): depth[i // w, i % w] for i in idx}
    sparse = _sparse_from_pixels((h, w), pixels)

    guided = compute(complete(sparse, rgb).depth_m, depth)
    unguided = compute(
        complete(sparse, rgb, GuidedFillParams(sigma_color=math.inf)).depth_m, depth
    )
    assert guided.mre_pct < 0.5
    assert unguided.mre_pct > 3.0
    assert unguided.mre_pct > 3 * max(guided.mre_pct, 0.5)


def test_infinite_sigma_color_equals_flat_color_run():
    shape = (24, 32)
    sparse = _random_sparse(shape, 20, seed=8)
    rgb = _flat_rgb(shape)
    a = complete(sparse, rgb, GuidedFillParams(sigma_color=20.0))
    b = complete(sparse, rgb, GuidedFillParams(sigma_color=math.inf))
    np.testing.assert_array_equal(a.depth_m, b.depth_m)


# ---------- weight-underflow fallback ----------

def test_fallback_policies_on_underflow():
    shape = (48, 64)
    sparse = _sparse_from_pixels(shape, {(0, 0): 1.0, (5, 0): 3.0})
    params = dict(sigma_spatial_px=0.5, k_neighbors=2)
    rgb = _flat_rgb(shape)
    # far corner: both Gaussians underflow to zero
    nearest = complete(sparse, rgb, GuidedFillParams(**params, fallback="nearest"))
    mean = complete(sparse, rgb, GuidedFillParams(**params, fallback="mean"))
    assert nearest.depth_m[47, 63] == 3.0  # (5,0) is the closer sample
    assert mean.depth_m[47, 63] == pytest.approx(2.0, rel=1e-12)


# ---------- errors and validation ----------

def test_empty_capture_rejected():
    empty = SparseDepth(depth_m=np.zeros((8, 8)), samples=[], fps=10.0,
                        regime=Regime.FULL_FOV, drop_count=5)
    with pytest.raises(NoSamples):
        complete(empty, _flat_rgb((8, 8)))


def test_bruteforce_rejects_an_empty_capture():
    empty = SparseDepth(depth_m=np.zeros((8, 8)), samples=[], fps=10.0,
                        regime=Regime.FULL_FOV, drop_count=5)
    with pytest.raises(NoSamples):
        complete_bruteforce(empty, _flat_rgb((8, 8)))


def test_rgb_shape_mismatch_rejected():
    sparse = _sparse_from_pixels((8, 8), {(2, 2): 1.0})
    with pytest.raises(ValueError):
        complete(sparse, _flat_rgb((9, 9)))


@pytest.mark.parametrize("x, y", [(8, 2), (-1, 2), (2, 8), (2, -3)])
def test_sample_outside_depth_map_rejected(x, y):
    sparse = _sparse_from_pixels((8, 8), {(2, 2): 1.0, (5, 5): 2.0})
    sparse.samples.pixel_x[1], sparse.samples.pixel_y[1] = x, y
    with pytest.raises(ValueError, match="outside"):
        complete(sparse, _flat_rgb((8, 8)))


def test_non_uint8_rgb_rejected():
    sparse = _sparse_from_pixels((8, 8), {(2, 2): 1.0})
    with pytest.raises(ValueError, match="uint8"):
        complete(sparse, _flat_rgb((8, 8)).astype(np.float64))


def test_complete_does_not_import_scipy_spatial():
    code = (
        "import math, sys\n"
        "import memslidar as m\n"
        "spec = m.SyntheticSpec(width=64, height=48,\n"
        "                       primitives=(m.Primitive(kind='plane', z_m=2.0),))\n"
        "frame = m.generate_synthetic(spec).frames[0]\n"
        "pattern = m.gen_full_fov(m.reference_mirror_model(math.radians(25.0)), 6.0, (64, 48))\n"
        "m.complete(m.capture(frame, pattern), frame.rgb)\n"
        "print(sorted(name for name in sys.modules if name.startswith('scipy.spatial')))\n"
    )
    src = Path(completion.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_params_validation():
    for kwargs in (
        {"sigma_spatial_px": 0.0},
        {"sigma_color": 0.0},
        {"k_neighbors": 0},
        {"fallback": "zeros"},
    ):
        with pytest.raises(ValueError):
            GuidedFillParams(**kwargs)


def test_config_errors_are_completion_errors():
    sparse = _sparse_from_pixels((4, 5), {(1, 1): 2.0})
    outside = _sparse_from_pixels((4, 5), {(1, 1): 2.0})
    outside.samples.pixel_x[0] = 5
    rgb = np.zeros((4, 5, 3), dtype=np.uint8)
    for call, match in [
        (lambda: GuidedFillParams(sigma_spatial_px=0.0), "sigma_spatial_px must be > 0"),
        (lambda: GuidedFillParams(sigma_color=0.0), "sigma_color must be > 0"),
        (lambda: GuidedFillParams(k_neighbors=0), "k_neighbors must be >= 1"),
        (lambda: GuidedFillParams(fallback="zeros"), "unknown fallback policy"),
        (lambda: GuidedFillParams(sigma_spatial_px=1e-300), "sigma_spatial_px 1e-300 is out"),
        (lambda: GuidedFillParams(sigma_color=1e308), r"sigma_color 1e\+308 is out"),
        (lambda: complete(sparse, rgb[:, :4]), "rgb must be"),
        (lambda: complete(outside, rgb), "outside the 5x4 depth map"),
    ]:
        with pytest.raises(CompletionError, match=match):
            call()
    # a usage error (exit 2), not a data error (exit 3)
    assert issubclass(CompletionError, ValueError)
    assert not issubclass(CompletionError, DATA_ERRORS)


# the extreme sigmas on each side: 2*sigma**2 rounds to 0 up to the first,
# and sigma**2 overflows from the second on
SIGMA_TINY = 1.5717277847026285e-162
SIGMA_HUGE = 1.3407807929942597e154


@pytest.mark.parametrize("sigma, rejected", [
    (5e-324, True), (1e-300, True), (SIGMA_TINY, True),
    (math.nextafter(SIGMA_TINY, 1.0), False), (1e-154, False),
    (math.nextafter(SIGMA_HUGE, 0.0), False), (SIGMA_HUGE, True), (1e308, True),
    (math.inf, False),
])
@pytest.mark.parametrize("name", ["sigma_spatial_px", "sigma_color"])
def test_sigma_rejected_where_its_weight_scale_is_no_float(name, sigma, rejected):
    if rejected:
        with pytest.raises(CompletionError, match=f"{name} .* is out of range"):
            GuidedFillParams(**{name: sigma})
    else:
        assert getattr(GuidedFillParams(**{name: sigma}), name) == sigma


# ---------- foveated comparison ----------

def test_compare_full_image_roi_is_a_tie(plane_frame):
    roi = ROI(0, 0, 64, 48, inside_density=1.0, outside_density=0.0)
    full, fov = compare_foveated(plane_frame, roi, model_with_budget(57), 10.0)
    assert full == fov


def test_foveation_wins_on_undersampled_structure():
    roi = ROI(10, 20, 90, 80, inside_density=1.0, outside_density=0.0)
    model = model_with_budget(230)
    wins, gaps = 0, []
    for seed in range(5):
        frame = foveation_scene(100 + seed)
        full, fov = compare_foveated(frame, roi, model, 10.0, noise_seed=seed)
        wins += fov.mre_pct < full.mre_pct
        gaps.append(full.mre_pct - fov.mre_pct)
    assert wins >= 4
    assert np.mean(gaps) > 0

import math

import numpy as np
import pytest

import memslidar.completion as completion
from memslidar.completion import (
    GuidedFillParams,
    compare_foveated,
    complete,
    complete_bruteforce,
)
from memslidar.lidar_sim import (
    CaptureConfig,
    DEPTH_SAMPLE_DTYPE,
    NoSamples,
    SparseDepth,
    capture,
)
from memslidar.metrics import compute
from memslidar.scan_engine import ROI, Regime, gen_full_fov

from conftest import foveation_scene, make_frame, model_with_budget


def _sparse_from_pixels(shape, pixel_depths):
    """SparseDepth with the given {(x, y): z} measured pixels."""
    depth = np.zeros(shape)
    samples = []
    for (x, y), z in pixel_depths.items():
        depth[y, x] = z
        samples.append((0.0, 0.0, 0.0, x, y, float(z), float(z)))
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
    assert dense.provenance == "completed"


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


def test_chunk_boundaries_do_not_change_results(monkeypatch):
    shape = (36, 48)
    sparse = _random_sparse(shape, 40, seed=5)
    rgb = np.random.default_rng(6).integers(0, 256, (*shape, 3), dtype=np.uint8)
    whole = complete(sparse, rgb)
    monkeypatch.setattr(completion, "_CHUNK_TARGET", 1000)  # ~68 chunks
    chunked = complete(sparse, rgb)
    np.testing.assert_array_equal(whole.depth_m, chunked.depth_m)


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


@pytest.mark.parametrize("slack", [completion._TIE_SLACK, 0])
@pytest.mark.parametrize("k_of_n", [
    lambda n: 1, lambda n: 16, lambda n: n - 1, lambda n: n, lambda n: n + 7,
], ids=["k1", "k16", "n-1", "n", "over_n"])
def test_tie_order_matches_argsort_reference(monkeypatch, k_of_n, slack):
    # slack 0 sends every row through the widened re-query
    monkeypatch.setattr(completion, "_TIE_SLACK", slack)
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


def test_tie_order_matches_argsort_reference_1503_samples(textured_frame):
    pattern = gen_full_fov(model_with_budget(1503), 10.0, (160, 120))
    sparse = capture(textured_frame, pattern, CaptureConfig(), noise_seed=4)
    assert len(sparse.samples) > 1400
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


def test_rgb_shape_mismatch_rejected():
    sparse = _sparse_from_pixels((8, 8), {(2, 2): 1.0})
    with pytest.raises(ValueError):
        complete(sparse, _flat_rgb((9, 9)))


def test_params_validation():
    for kwargs in (
        {"sigma_spatial_px": 0.0},
        {"sigma_color": 0.0},
        {"k_neighbors": 0},
        {"fallback": "zeros"},
    ):
        with pytest.raises(ValueError):
            GuidedFillParams(**kwargs)


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

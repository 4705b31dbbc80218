import json
import math

import numpy as np
import pytest

from memslidar.lidar_sim import (
    CaptureConfig,
    DEPTH_SAMPLE_DTYPE,
    NoSamples,
    SparseDepth,
    _disk_offsets,
    capture,
    dot_footprint_radius_px,
    load_sparse,
    save_sparse,
)
from memslidar.completion import complete
from memslidar.foveation import entropy_map
from memslidar.metrics import EmptyMask, MetricsError, compute, depth_to_points, planar_rmse
from memslidar.scan_engine import (
    ROI,
    SCAN_SAMPLE_DTYPE,
    Regime,
    ScanPattern,
    angles_to_pixel,
    gen_entropy_adaptive,
    gen_foveated,
    gen_full_fov,
    pixel_to_angles,
    reference_mirror_model,
)

from conftest import foveation_scene, make_frame, model_with_budget

NOISELESS = CaptureConfig(noise_coeff=0.0)


def _plane(z_m, shape=(48, 64)):
    return make_frame(np.full(shape, z_m))


def _pattern_at_pixels(frame, pixels, fps=10.0):
    """Hand-built pattern whose samples project to the given (x, y) pixels."""
    samples = []
    for i, (px, py) in enumerate(pixels):
        theta, phi = pixel_to_angles(
            np.array([float(px)]), np.array([float(py)]), frame.intrinsics
        )
        samples.append((i * 1e-3, float(theta[0]), float(phi[0])))
    samples = np.rec.fromrecords(samples, dtype=SCAN_SAMPLE_DTYPE)
    return ScanPattern(samples=samples, fps=fps, regime=Regime.FULL_FOV)


# ---------- dot footprint ----------

def test_footprint_radius_matches_solid_angle_geometry():
    frame = _plane(2.0)
    sr = 6e-4
    apex = 2.0 * math.acos(1.0 - sr / (2.0 * math.pi))
    expected = frame.intrinsics.fx_px * math.tan(apex / 2.0)
    assert expected > 1.0
    assert dot_footprint_radius_px(frame, sr) == pytest.approx(expected, rel=1e-12)


def test_footprint_radius_floors_at_one_pixel():
    assert dot_footprint_radius_px(_plane(2.0), 1e-9) == 1.0


# ---------- capture basics ----------

def test_noiseless_plane_capture_is_exact():
    frame = _plane(2.0)
    pattern = gen_full_fov(model_with_budget(100), 10.0, (64, 48))
    sparse = capture(frame, pattern, NOISELESS)
    assert len(sparse.samples) == 100
    assert sparse.drop_count == 0
    assert all(s.range_m == 2.0 for s in sparse.samples)
    assert np.all(sparse.depth_m[sparse.depth_m > 0] == 2.0)


def test_nonzero_pixels_match_sample_list():
    frame = _plane(1.5)
    pattern = gen_full_fov(model_with_budget(77), 10.0, (64, 48))
    sparse = capture(frame, pattern, CaptureConfig(noise_coeff=0.01))
    coords = {(s.pixel_x, s.pixel_y) for s in sparse.samples}
    assert len(coords) == len(sparse.samples)
    ys, xs = np.nonzero(sparse.depth_m)
    assert {(int(x), int(y)) for x, y in zip(xs, ys)} == coords
    for s in sparse.samples:
        assert sparse.depth_m[s.pixel_y, s.pixel_x] == s.range_m


def test_sample_on_invalid_depth_is_dropped():
    depth = np.full((48, 64), 2.0)
    depth[20:28, 30:38] = 0.0
    frame = make_frame(depth)
    pattern = _pattern_at_pixels(frame, [(33, 23), (10, 10)])
    sparse = capture(frame, pattern, NOISELESS)
    assert len(sparse.samples) == 1
    assert sparse.drop_count == 1
    assert (sparse.samples[0].pixel_x, sparse.samples[0].pixel_y) == (10, 10)


def test_sample_outside_image_is_dropped():
    frame = _plane(2.0)
    samples = np.rec.fromrecords([(0.0, 0.5, 0.0), (1e-3, 0.0, 0.0)], dtype=SCAN_SAMPLE_DTYPE)
    pattern = ScanPattern(samples=samples, fps=10.0, regime=Regime.FULL_FOV)
    sparse = capture(frame, pattern, NOISELESS)
    assert sparse.drop_count == 1
    assert len(sparse.samples) == 1


def test_range_gate_drops_far_returns():
    frame = _plane(2.9)
    pattern = gen_full_fov(model_with_budget(20), 10.0, (64, 48))
    with pytest.raises(NoSamples):
        capture(frame, pattern, CaptureConfig(z_max_m=2.5, noise_coeff=0.0))


def test_duplicate_pixel_keeps_first_return():
    frame = _plane(2.0)
    pattern = _pattern_at_pixels(frame, [(12, 9), (12, 9)])
    sparse = capture(frame, pattern, NOISELESS)
    assert len(sparse.samples) == 1
    assert sparse.drop_count == 1


def test_drop_accounting_is_complete():
    depth = np.full((48, 64), 2.0)
    depth[:, :20] = 0.0
    frame = make_frame(depth)
    pattern = gen_full_fov(model_with_budget(150), 10.0, (64, 48))
    sparse = capture(frame, pattern, CaptureConfig(noise_coeff=0.01))
    assert len(sparse.samples) + sparse.drop_count == len(pattern.samples)


def test_capture_noise_is_seed_deterministic():
    frame = _plane(2.0)
    pattern = gen_full_fov(model_with_budget(64), 10.0, (64, 48))
    a = capture(frame, pattern, noise_seed=42)
    b = capture(frame, pattern, noise_seed=42)
    c = capture(frame, pattern, noise_seed=43)
    assert np.array_equal(a.depth_m, b.depth_m)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.depth_m, c.depth_m)


def test_step_edge_return_is_between_surfaces():
    depth = np.full((48, 64), 2.0)
    depth[:, :32] = 1.0
    frame = make_frame(depth)
    pattern = _pattern_at_pixels(frame, [(32, 24)])
    sparse = capture(frame, pattern, NOISELESS)
    r = sparse.samples[0].range_m
    assert 1.0 < r < 2.0
    # disk mean: exact weighted average of the two depths
    from memslidar.lidar_sim import _disk_offsets
    dy, dx = _disk_offsets(dot_footprint_radius_px(frame, 6e-4))
    vals = depth[24 + dy, 32 + dx]
    assert r == pytest.approx(vals.mean(), rel=1e-12)


def test_valid_count_tracks_budget():
    frame = _plane(2.0)
    config = CaptureConfig(z_max_m=10.0)
    counts = []
    for n in (10, 50, 100, 150, 231):
        pattern = gen_full_fov(model_with_budget(n), 10.0, (64, 48))
        counts.append(len(capture(frame, pattern, config).samples))
    assert counts == [10, 50, 100, 150, 231]


def test_noise_scales_with_range():
    frame = _plane(2.0)
    config = CaptureConfig(z_max_m=10.0)  # keep the 3-sigma tail un-gated
    ranges = []
    for seed in range(10):
        pattern = gen_full_fov(model_with_budget(230), 10.0, (64, 48))
        sparse = capture(frame, pattern, config, noise_seed=seed)
        ranges.extend(s.range_m for s in sparse.samples)
    rel_std = np.std(ranges) / 2.0
    assert rel_std == pytest.approx(0.023, rel=0.10)


def test_default_noise_reproduces_reference_planar_residual_at_3m():
    # documented anchor for the default coefficient: ~0.069 m residual at 3 m
    frame = _plane(3.0)
    config = CaptureConfig(z_max_m=10.0)
    rmses = []
    for seed in range(5):
        pattern = gen_full_fov(model_with_budget(230), 10.0, (64, 48))
        sparse = capture(frame, pattern, config, noise_seed=seed)
        intr = frame.intrinsics
        pts = depth_to_points(sparse.depth_m, intr.fx_px, intr.fy_px,
                              intr.cx_px, intr.cy_px)
        rmses.append(planar_rmse(pts))
    assert np.mean(rmses) == pytest.approx(0.069, rel=0.20)


def test_aggregate_relative_error_band():
    # noise calibrated to a ~10.16% mean relative error lands the pooled
    # MRE over many planes inside the documented 8..13% band
    coeff = 0.12733672
    config = CaptureConfig(z_max_m=10.0, noise_coeff=coeff)
    errors = []
    for i, z in enumerate(np.linspace(0.5, 3.0, 75)):
        frame = _plane(float(z))
        pattern = gen_full_fov(model_with_budget(100), 10.0, (64, 48))
        sparse = capture(frame, pattern, config, noise_seed=i)
        report = compute(sparse.depth_m, frame.depth_gt)
        errors.append((report.mre_pct, report.n_pixels))
    pooled = sum(m * n for m, n in errors) / sum(n for _, n in errors)
    assert 8.0 <= pooled <= 13.0


# ---------- evaluation ----------

def test_evaluation_of_exact_capture_is_perfect():
    frame = _plane(2.0)
    pattern = gen_full_fov(model_with_budget(100), 10.0, (64, 48))
    sparse = capture(frame, pattern, NOISELESS)
    report = compute(sparse.depth_m, frame.depth_gt)
    assert report.mre_pct == 0.0
    assert report.delta1_pct == 100.0
    assert report.n_pixels == 100


def test_single_sample_arithmetic():
    depth = np.zeros((4, 4))
    depth[1, 2] = 1.10
    sparse = SparseDepth(
        depth_m=depth,
        samples=np.rec.fromrecords([(0.0, 0.0, 0.0, 2, 1, 1.10)], dtype=DEPTH_SAMPLE_DTYPE),
        fps=10.0,
        regime=Regime.FULL_FOV,
        drop_count=0,
    )
    report = compute(sparse.depth_m, np.ones((4, 4)))
    assert report.mre_pct == pytest.approx(10.0, rel=1e-9)
    assert report.rmse_m == pytest.approx(0.1, rel=1e-9)
    assert report.delta1_pct == 100.0  # 1.10 < 1.25
    assert report.n_pixels == 1


def test_no_overlap_raises():
    depth = np.zeros((4, 4))
    depth[1, 2] = 1.0
    sparse = SparseDepth(
        depth_m=depth,
        samples=np.rec.fromrecords([(0.0, 0.0, 0.0, 2, 1, 1.0)], dtype=DEPTH_SAMPLE_DTYPE),
        fps=10.0,
        regime=Regime.FULL_FOV,
        drop_count=0,
    )
    reference = np.ones((4, 4))
    reference[1, 2] = 0.0
    with pytest.raises(EmptyMask):
        compute(sparse.depth_m, reference)
    with pytest.raises(MetricsError):
        compute(sparse.depth_m, np.ones((5, 5)))


# ---------- config validation ----------

def test_capture_config_validation():
    with pytest.raises(ValueError):
        CaptureConfig(z_max_m=0.0)
    with pytest.raises(ValueError):
        CaptureConfig(dot_solid_angle_sr=0.0)
    with pytest.raises(ValueError):
        CaptureConfig(noise_coeff=-0.1)


@pytest.mark.parametrize("coeff", [math.inf, math.nan])
def test_capture_config_rejects_non_finite_noise(coeff):
    with pytest.raises(ValueError, match="finite"):
        CaptureConfig(noise_coeff=coeff)


# ---------- sparse file I/O ----------

def test_sparse_roundtrip_noiseless_is_exact(tmp_path):
    frame = _plane(2.0)
    pattern = gen_full_fov(model_with_budget(50), 10.0, (64, 48))
    sparse = capture(frame, pattern, NOISELESS)
    save_sparse(sparse, tmp_path / "d.pgm", tmp_path / "d.json")
    loaded = load_sparse(tmp_path / "d.pgm", tmp_path / "d.json")
    assert np.array_equal(loaded.depth_m, sparse.depth_m)
    assert np.array_equal(loaded.samples, sparse.samples)
    assert loaded.fps == sparse.fps
    assert loaded.regime is sparse.regime
    assert loaded.drop_count == sparse.drop_count


def test_sparse_roundtrip_quantizes_to_millimeters(tmp_path):
    frame = _plane(2.0)
    pattern = gen_full_fov(model_with_budget(50), 10.0, (64, 48))
    sparse = capture(frame, pattern, CaptureConfig(noise_coeff=0.02))
    save_sparse(sparse, tmp_path / "d.pgm", tmp_path / "d.json")
    loaded = load_sparse(tmp_path / "d.pgm", tmp_path / "d.json")
    # depth map rounds to the 1 mm file quantum; the sample list keeps
    # full precision through JSON
    assert np.max(np.abs(loaded.depth_m - sparse.depth_m)) <= 5e-4 + 1e-12
    assert np.array_equal(loaded.samples, sparse.samples)



def test_sparse_roundtrip_keeps_range_below_half_millimetre(tmp_path):
    # save_sparse writes such a range as 0 mm: the PGM shows no measurement
    # there while the sample list keeps it, and load_sparse must accept that
    frame = _plane(2.0)
    pattern = gen_full_fov(model_with_budget(50), 10.0, (64, 48))
    sparse = capture(frame, pattern, NOISELESS)
    x, y = int(sparse.samples.pixel_x[3]), int(sparse.samples.pixel_y[3])
    sparse.samples.range_m[3] = 0.0003
    sparse.depth_m[y, x] = 0.0003
    save_sparse(sparse, tmp_path / "d.pgm", tmp_path / "d.json")
    loaded = load_sparse(tmp_path / "d.pgm", tmp_path / "d.json")
    assert loaded.depth_m[y, x] == 0.0
    assert np.count_nonzero(loaded.depth_m) == len(sparse.samples) - 1
    assert np.array_equal(loaded.samples, sparse.samples)
    dense = complete(loaded, frame.rgb)
    assert 0.0003 <= dense.depth_m[y, x] <= 2.0

# ---------- capture against the per-sample reference ----------

def _capture_reference_json(frame, pattern, config, noise_seed):
    """Per-sample loop that `capture` replaced: (depth_m, to_json text), or None
    when every sample is dropped."""
    depth_gt = frame.depth_gt
    h, w = depth_gt.shape
    dy, dx = _disk_offsets(dot_footprint_radius_px(frame, config.dot_solid_angle_sr))
    rng = np.random.default_rng(noise_seed)
    pxs, pys = angles_to_pixel(
        np.array([s.theta_rad for s in pattern.samples]),
        np.array([s.phi_rad for s in pattern.samples]),
        frame.intrinsics,
    )
    depth_out = np.zeros_like(depth_gt)
    samples = []
    dropped = 0
    for (t_s, theta, phi), px, py in zip(pattern.samples.tolist(), pxs, pys):
        noise_unit = rng.standard_normal()
        ix, iy = int(math.floor(px)), int(math.floor(py))
        if not (0 <= ix < w and 0 <= iy < h) or depth_gt[iy, ix] <= 0:
            dropped += 1
            continue
        ys, xs = iy + dy, ix + dx
        inbounds = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
        footprint = depth_gt[ys[inbounds], xs[inbounds]]
        mean_range = float(footprint[footprint > 0].mean())
        measured = mean_range + config.noise_coeff * mean_range * noise_unit
        if measured <= 0 or measured > config.z_max_m or depth_out[iy, ix] > 0:
            dropped += 1
            continue
        depth_out[iy, ix] = measured
        samples.append({
            "t_s": t_s, "theta_rad": theta, "phi_rad": phi, "pixel_x": ix, "pixel_y": iy,
            "range_m": measured,
        })
    if not samples:
        return None
    doc = {"fps": pattern.fps, "regime": pattern.regime.value, "drop_count": dropped,
           "samples": samples}
    return depth_out, json.dumps(doc, indent=2, sort_keys=True)


def _assert_capture_matches_reference(frame, pattern, config, noise_seed):
    expected = _capture_reference_json(frame, pattern, config, noise_seed)
    if expected is None:
        with pytest.raises(NoSamples):
            capture(frame, pattern, config, noise_seed)
        return
    sparse = capture(frame, pattern, config, noise_seed)
    assert sparse.depth_m.tobytes() == expected[0].tobytes()
    assert sparse.to_json() == expected[1]


def _rough_scene(rng, shape=(48, 64)):
    """Steps near the 3 m gate, zero-depth holes (some at the border) and isolated zeros."""
    h, w = shape
    depth = np.full(shape, 2.0)
    for _ in range(6):
        y0, x0 = int(rng.integers(0, h)), int(rng.integers(0, w))
        depth[y0:y0 + int(rng.integers(3, 20)), x0:x0 + int(rng.integers(3, 20))] = rng.uniform(1.0, 3.3)
    for _ in range(3):
        y0, x0 = int(rng.integers(0, h)), int(rng.integers(0, w))
        depth[y0:y0 + int(rng.integers(2, 8)), x0:x0 + int(rng.integers(2, 8))] = 0.0
    depth[:, :2] = 0.0
    depth[rng.random(shape) < 0.05] = 0.0
    return make_frame(depth)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_capture_matches_per_sample_reference(seed):
    rng = np.random.default_rng(seed)
    frame = _rough_scene(rng)
    intr = frame.intrinsics
    # pixel positions spill 6 px past every edge; a fifth of the schedule
    # repeats earlier directions, and sub-pixel neighbours share pixels too
    px = rng.uniform(-6.0, intr.width + 6.0, 300)
    py = rng.uniform(-6.0, intr.height + 6.0, 300)
    px[::7] = np.floor(px[1::7][:len(px[::7])]) + 0.9
    py[::7] = np.floor(py[1::7][:len(py[::7])]) + 0.1
    theta = np.arctan((px - intr.cx_px) / intr.fx_px)
    phi = np.arctan((py - intr.cy_px) / intr.fy_px)
    repeat = rng.integers(0, 300, 75)
    theta, phi = np.concatenate((theta, theta[repeat])), np.concatenate((phi, phi[repeat]))
    samples = np.rec.fromarrays(
        [np.arange(len(theta)) * 1e-3, theta, phi], dtype=SCAN_SAMPLE_DTYPE)
    pattern = ScanPattern(samples=samples, fps=10.0, regime=Regime.FULL_FOV)
    for config in (
        CaptureConfig(z_max_m=3.0, noise_coeff=0.05),
        CaptureConfig(z_max_m=2.2, noise_coeff=0.3, dot_solid_angle_sr=2e-3),
        CaptureConfig(z_max_m=3.0, noise_coeff=0.0, dot_solid_angle_sr=1e-6),
        # a 20.4 px dot, as at 640x480: ~1300 offsets, so the survivors span
        # several footprint blocks and rows of one valid count cross their edges
        CaptureConfig(z_max_m=3.0, noise_coeff=0.1, dot_solid_angle_sr=0.062),
    ):
        _assert_capture_matches_reference(frame, pattern, config, seed)


@pytest.mark.parametrize("fps", [30.0, 6.0, 1.0])
def test_capture_of_generated_patterns_matches_reference(fps):
    frame = foveation_scene(5)
    model = reference_mirror_model()
    dims = (frame.intrinsics.width, frame.intrinsics.height)
    config = CaptureConfig(z_max_m=2.6, noise_coeff=0.04)
    for i, pattern in enumerate((
        gen_full_fov(model, fps, dims),
        gen_foveated(model, fps, ROI(10, 20, 90, 80, 1.0, 0.1), dims),
        gen_entropy_adaptive(model, fps, entropy_map(frame.rgb, 15).values, seed=3),
    )):
        _assert_capture_matches_reference(frame, pattern, config, 100 + i)


# ---------- sample JSON against the `json` encoder ----------

def records_to_dicts(samples: np.recarray) -> list[dict]:
    """JSON rows of a sample record array: Python ints and floats per field."""
    return [dict(zip(samples.dtype.names, row)) for row in samples.tolist()]


def _reference_sparse_json(sparse: SparseDepth) -> str:
    doc = {"fps": sparse.fps, "regime": sparse.regime.value, "drop_count": sparse.drop_count,
           "samples": records_to_dicts(sparse.samples)}
    return json.dumps(doc, indent=2, sort_keys=True)


def _reference_pattern_json(pattern: ScanPattern) -> str:
    doc = {"fps": pattern.fps, "regime": pattern.regime.value, "seed": pattern.seed,
           "budget": pattern.budget, "samples": records_to_dicts(pattern.samples)}
    return json.dumps(doc, indent=2, sort_keys=True)


def _depth_samples(n: int) -> np.recarray:
    rng = np.random.default_rng(n)
    return np.rec.fromarrays(
        [rng.random(n), rng.normal(size=n), rng.normal(size=n), np.arange(n), np.arange(n) * 3,
         rng.uniform(0.1, 3.0, n)],
        dtype=DEPTH_SAMPLE_DTYPE,
    )


@pytest.mark.parametrize("fields, value", [
    *[(("t_s", "theta_rad", "phi_rad", "range_m"), v)
      for v in (-0.0, 0.0, 5e-324, 1e-07, 1e16, 1.7976931348623157e308, 0.1 + 0.2)],
    (("pixel_x", "pixel_y"), 2**53 + 1),
    (("pixel_x", "pixel_y"), -(2**63)),
    *[(("t_s",), v) for v in (math.inf, -math.inf, math.nan)],
], ids=repr)
def test_sample_json_matches_json_encoder(fields, value):
    samples = _depth_samples(5)
    for name in fields:
        samples[name][1:4:2] = value
    sparse = SparseDepth(depth_m=np.zeros((2, 2)), samples=samples, fps=6.0,
                         regime=Regime.ENTROPY_ADAPTIVE, drop_count=3)
    assert sparse.to_json() == _reference_sparse_json(sparse)
    scan_fields = [name for name in fields if name in SCAN_SAMPLE_DTYPE.names]
    if scan_fields:
        scan = np.rec.fromarrays([samples[name] for name in SCAN_SAMPLE_DTYPE.names],
                                 dtype=SCAN_SAMPLE_DTYPE)
        pattern = ScanPattern(samples=scan, fps=30, regime=Regime.FOVEATED_ROI, seed=7,
                              budget=5)
        assert pattern.to_json() == _reference_pattern_json(pattern)


def test_empty_sample_json_matches_json_encoder():
    pattern = ScanPattern(samples=np.zeros(0, SCAN_SAMPLE_DTYPE).view(np.recarray), fps=6.0,
                          regime=Regime.FULL_FOV, seed=None, budget=0)
    assert len(pattern) == 0
    assert pattern.to_json() == _reference_pattern_json(pattern)
    sparse = SparseDepth(depth_m=np.zeros((2, 2)), samples=_depth_samples(0), fps=1.0,
                         regime=Regime.FULL_FOV, drop_count=4)
    assert sparse.to_json() == _reference_sparse_json(sparse)

import json
import math

import numpy as np
import pytest

import memslidar.scan_engine as scan_engine
from memslidar.scan_engine import (
    REFERENCE_BUDGET_PAIRS,
    SCAN_SAMPLE_DTYPE,
    DegenerateMap,
    MirrorModel,
    OverheadExceedsFrame,
    Regime,
    ROI,
    ROIOutOfBounds,
    ScanEngineError,
    SingularFit,
    _angular_extent,
    _outside_grid,
    _roi_angular_rect,
    _serpentine_grid,
    angles_to_pixel,
    budget,
    check_density,
    fit_budget,
    fps_for_budget,
    gen_density_sweep,
    gen_entropy_adaptive,
    gen_foveated,
    gen_full_fov,
    image_intrinsics,
    pixel_to_angles,
    records_from_dicts,
    reference_mirror_model,
)

from conftest import model_with_budget

DIMS = (64, 48)


# ---------- frame budget ----------

def test_budget_exact_division():
    model = MirrorModel(sample_rate_hz=1600.0, frame_overhead_s=0.0)
    assert budget(model, 16.0) == 100


def test_budget_overhead_exceeds_frame():
    model = MirrorModel(sample_rate_hz=1600.0, frame_overhead_s=0.05)
    with pytest.raises(OverheadExceedsFrame):
        budget(model, 30.0)
    # the frame outlasts the overhead by less than one sample period
    with pytest.raises(OverheadExceedsFrame):
        budget(model, 19.99)
    with pytest.raises(OverheadExceedsFrame):
        budget(reference_mirror_model(), 62.0)


@pytest.mark.parametrize("fps", [0.0, -1.0, math.nan])
def test_budget_rejects_a_rate_that_is_not_positive(fps):
    with pytest.raises(ScanEngineError, match="fps must be > 0"):
        budget(reference_mirror_model(), fps)


def test_fps_for_budget_inverts_budget():
    models = (
        reference_mirror_model(),
        MirrorModel(sample_rate_hz=1600.0, frame_overhead_s=0.0),
        MirrorModel(sample_rate_hz=977.3, frame_overhead_s=0.00321),
    )
    for model in models:
        for n in (1, 2, 27, 100, 231, 400):
            assert budget(model, fps_for_budget(model, n)) == n


def test_fitted_model_reproduces_reference_counts():
    model = reference_mirror_model()
    predicted = [budget(model, fps) for fps, _ in REFERENCE_BUDGET_PAIRS]
    assert predicted == [27, 39, 61, 103, 230]
    for (_, observed), got in zip(REFERENCE_BUDGET_PAIRS, predicted):
        assert abs(got - observed) / observed <= 0.05


def test_fit_budget_frozen_reference_values():
    fit = fit_budget(REFERENCE_BUDGET_PAIRS)
    assert fit.sample_rate_hz == pytest.approx(1527.6715945089757, rel=1e-12)
    assert fit.frame_overhead_s == pytest.approx(0.015495989161577512, rel=1e-12)
    assert fit.residual_rmse == pytest.approx(0.6536995683492363, rel=1e-12)
    assert len(fit.residuals) == 5
    assert 1400 <= fit.sample_rate_hz <= 1650
    assert 0.012 <= fit.frame_overhead_s <= 0.018


def test_fit_budget_recovers_exact_synthetic_timing():
    rate, overhead = 1600.0, 0.01
    obs = [(fps, (1.0 / fps - overhead) * rate) for fps in (5.0, 10.0, 20.0, 40.0)]
    fit = fit_budget(obs)
    assert fit.sample_rate_hz == pytest.approx(rate, abs=1e-6)
    assert fit.frame_overhead_s == pytest.approx(overhead, abs=1e-6)
    assert fit.residual_rmse < 1e-9


def test_fit_budget_singular_cases():
    with pytest.raises(SingularFit):
        fit_budget([(10.0, 100)])
    with pytest.raises(SingularFit):
        fit_budget([(10.0, 100), (10.0, 120)])


@pytest.mark.parametrize("fps", [0.0, -5.0, -math.inf, math.nan, math.inf, 1e-320])
def test_fit_budget_rejects_fps_without_a_finite_period(fps):
    # typed, before any arithmetic: no ZeroDivisionError and no LAPACK solve
    with pytest.raises(SingularFit):
        fit_budget([(fps, 5), (10.0, 7)])


@pytest.mark.parametrize("pairs", [[(10, 5), (20, 5)], [(10, 5), (20, 6)]])
def test_fit_budget_rejects_a_rate_that_is_not_positive(pairs):
    # equal counts fit a rate of about -1.5e-14 Hz, which rounding keeps off
    # zero; a count that falls as the period grows fits -20 Hz
    with pytest.raises(SingularFit, match="not positive"):
        fit_budget(pairs)


def test_mirror_model_validation():
    with pytest.raises(ValueError):
        MirrorModel(fov_rad=0.0)
    with pytest.raises(ValueError):
        MirrorModel(sample_rate_hz=0.0)
    with pytest.raises(ValueError):
        MirrorModel(frame_overhead_s=-0.1)


@pytest.mark.parametrize("field, value", [
    ("sample_rate_hz", math.inf), ("sample_rate_hz", math.nan),
    ("frame_overhead_s", math.inf), ("frame_overhead_s", math.nan),
])
def test_mirror_model_rejects_non_finite_timing(field, value):
    with pytest.raises(ValueError, match="finite"):
        MirrorModel(**{field: value})


def test_fps_for_budget_needs_one_sample():
    with pytest.raises(ValueError, match=">= 1 sample"):
        fps_for_budget(MirrorModel(), 0)


def test_config_errors_are_scan_engine_errors():
    model, whole = MirrorModel(), ROI(0, 0, *DIMS)
    count = np.dtype([("n", "i8")])
    for call, match in [
        (lambda: MirrorModel(fov_rad=0.0), "mirror FOV"),
        (lambda: MirrorModel(sample_rate_hz=0.0), "sample rate"),
        (lambda: MirrorModel(frame_overhead_s=-0.1), "overhead"),
        (lambda: ROI(0, 0, 5, 5, inside_density=2.0), "densities must be in"),
        (lambda: ROI(0, 0, 5, 5, 0.1, 0.5), "inside density must be"),
        (lambda: records_from_dicts([{"n": 1.5}], count), "whole numbers"),
        (lambda: records_from_dicts([{"n": 2**70}], count), "out of range"),
        (lambda: fps_for_budget(model, 0), ">= 1 sample"),
        (lambda: check_density(0.0), "density must be in"),
        (lambda: gen_entropy_adaptive(model, 10.0, np.ones(5)), "2-D"),
        (lambda: gen_entropy_adaptive(model, 10.0, -np.ones((4, 4))), "non-negative"),
        (lambda: gen_foveated(model, 10.0, ROI(0, 0, 5, 5, 0.0, 0.0), DIMS), "both zero"),
        (lambda: _outside_grid(whole, image_intrinsics(model, DIMS), model, DIMS, 5),
         "covers the image"),
    ]:
        with pytest.raises(ScanEngineError, match=match):
            call()


# ---------- angle <-> pixel ----------

def test_pixel_angle_roundtrip():
    model = MirrorModel()
    intr = image_intrinsics(model, DIMS)
    px = np.arange(DIMS[0], dtype=float)
    py = np.arange(DIMS[1], dtype=float)[: DIMS[0]]
    theta, phi = pixel_to_angles(px, np.resize(py, px.shape), intr)
    bx, by = angles_to_pixel(theta, phi, intr)
    np.testing.assert_allclose(bx, px + 0.5, atol=1e-9)
    np.testing.assert_allclose(by, np.resize(py, px.shape) + 0.5, atol=1e-9)


# ---------- full-FOV raster ----------

def test_serpentine_28_grid_shape():
    pattern = gen_full_fov(model_with_budget(28), 10.0, DIMS)
    assert len(pattern) == 28
    thetas = sorted({round(s.theta_rad, 12) for s in pattern.samples})
    phis = sorted({round(s.phi_rad, 12) for s in pattern.samples})
    assert len(thetas) == 5  # floor(sqrt(28)) columns
    assert len(phis) == 6    # five full rows plus a 3-sample remainder
    assert len({(s.theta_rad, s.phi_rad) for s in pattern.samples}) == 28
    half = model_with_budget(28).fov_rad / 2
    assert all(abs(s.theta_rad) < half for s in pattern.samples)


def test_serpentine_rows_alternate_direction():
    pattern = gen_full_fov(model_with_budget(28), 10.0, DIMS)
    rows = {}
    for s in pattern.samples:
        rows.setdefault(round(s.phi_rad, 12), []).append(s.theta_rad)
    ordered = [rows[p] for p in sorted(rows)]
    assert ordered[0] == sorted(ordered[0])
    assert ordered[1] == sorted(ordered[1], reverse=True)
    # columns are evenly spaced
    diffs = np.diff(ordered[0])
    np.testing.assert_allclose(diffs, diffs[0], rtol=1e-12)


def test_budget_one_lands_on_axis():
    pattern = gen_full_fov(model_with_budget(1), 10.0, DIMS)
    assert len(pattern) == 1
    assert pattern.samples[0].theta_rad == 0.0
    assert pattern.samples[0].phi_rad == 0.0


def test_timestamps_start_after_overhead_and_fit_frame():
    model = MirrorModel(sample_rate_hz=280.0, frame_overhead_s=0.003)
    pattern = gen_full_fov(model, 10.0, DIMS)
    ts = [s.t_s for s in pattern.samples]
    assert ts[0] == pytest.approx(0.003, rel=1e-12)
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert ts[-1] < 0.1


# ---------- density sweep ----------

def test_density_scales_sample_count():
    model = model_with_budget(230)
    pattern = gen_density_sweep(model, 10.0, DIMS, 0.5)
    assert len(pattern) == 115
    assert pattern.regime is Regime.DENSITY_SWEEP
    assert pattern.budget == 230


def test_density_floor_is_one_sample():
    pattern = gen_density_sweep(model_with_budget(230), 10.0, DIMS, 0.001)
    assert len(pattern) == 1


def test_density_one_matches_full_grid():
    model = model_with_budget(230)
    sweep = gen_density_sweep(model, 10.0, DIMS, 1.0)
    full = gen_full_fov(model, 10.0, DIMS)
    assert np.array_equal(sweep.samples, full.samples)


def test_density_out_of_range():
    for bad in (0.0, -0.2, 1.2):
        with pytest.raises(ValueError):
            gen_density_sweep(model_with_budget(10), 10.0, DIMS, bad)


# ---------- entropy-adaptive ----------

def _pattern_pixels(pattern, model, dims):
    intr = image_intrinsics(model, dims)
    theta = np.array([s.theta_rad for s in pattern.samples])
    phi = np.array([s.phi_rad for s in pattern.samples])
    px, py = angles_to_pixel(theta, phi, intr)
    return np.floor(px).astype(int), np.floor(py).astype(int)


def test_entropy_pattern_uses_full_budget():
    model = model_with_budget(230)
    emap = np.random.default_rng(0).random((48, 64))
    pattern = gen_entropy_adaptive(model, 10.0, emap, seed=0)
    assert len(pattern) == 230
    assert pattern.regime is Regime.ENTROPY_ADAPTIVE


def test_entropy_budget_capped_by_pixel_count():
    pattern = gen_entropy_adaptive(model_with_budget(230), 10.0, np.ones((10, 10)))
    assert len(pattern) == 100


def test_entropy_concentrates_on_high_entropy_half():
    model = model_with_budget(230)
    emap = np.zeros((48, 64))
    emap[:, :32] = 10.0
    pattern = gen_entropy_adaptive(model, 10.0, emap, seed=0)
    ix, _ = _pattern_pixels(pattern, model, DIMS)
    assert (ix < 32).mean() >= 0.95


def test_entropy_uniform_map_balances_quadrants():
    # hypergeometric quadrant count: mean 50, sigma ~5.9 at N=200 of 3072
    model = model_with_budget(200)
    pattern = gen_entropy_adaptive(model, 10.0, np.ones((48, 64)), seed=0)
    ix, iy = _pattern_pixels(pattern, model, DIMS)
    for qx in (ix < 32, ix >= 32):
        for qy in (iy < 24, iy >= 24):
            count = int(np.sum(qx & qy))
            assert 32 <= count <= 68


def test_entropy_all_zero_map_warns_and_falls_back():
    model = model_with_budget(50)
    with pytest.warns(DegenerateMap):
        pattern = gen_entropy_adaptive(model, 10.0, np.zeros((48, 64)), seed=0)
    assert np.array_equal(pattern.samples, gen_full_fov(model, 10.0, DIMS).samples)


def test_entropy_seed_determinism():
    model = model_with_budget(100)
    emap = np.random.default_rng(3).random((48, 64))
    a = gen_entropy_adaptive(model, 10.0, emap, seed=7)
    b = gen_entropy_adaptive(model, 10.0, emap, seed=7)
    c = gen_entropy_adaptive(model, 10.0, emap, seed=8)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_entropy_rejects_bad_maps():
    model = model_with_budget(10)
    with pytest.raises(ValueError):
        gen_entropy_adaptive(model, 10.0, np.ones(16))
    with pytest.raises(ValueError):
        gen_entropy_adaptive(model, 10.0, -np.ones((4, 4)))


# ---------- foveated ----------

def test_foveated_full_image_roi_degenerates_to_raster():
    model = model_with_budget(57)
    roi = ROI(0, 0, DIMS[0], DIMS[1], inside_density=1.0, outside_density=0.0)
    fov = gen_foveated(model, 10.0, roi, DIMS)
    full = gen_full_fov(model, 10.0, DIMS)
    assert np.array_equal(fov.samples, full.samples)
    assert fov.regime is Regime.FOVEATED_ROI


def test_foveated_quarter_roi_takes_all_samples():
    model = model_with_budget(231)
    roi = ROI(0, 0, 32, 24, inside_density=1.0, outside_density=0.0)
    pattern = gen_foveated(model, 10.0, roi, DIMS)
    assert len(pattern) == 231
    ix, iy = _pattern_pixels(pattern, model, DIMS)
    inside = (ix >= 0) & (ix < 32) & (iy >= 0) & (iy < 24)
    assert inside.all()
    # 25% of the area holding 100% of the budget: 4x the full-FOV density
    density_roi = len(pattern) / roi.area_px
    density_full = len(pattern) / (DIMS[0] * DIMS[1])
    assert density_roi == pytest.approx(4 * density_full)


def test_foveated_split_honors_density_ratio():
    model = model_with_budget(230)
    roi = ROI(0, 0, 32, 48, inside_density=1.0, outside_density=0.25)
    pattern = gen_foveated(model, 10.0, roi, DIMS)
    assert len(pattern) == 230
    ix, iy = _pattern_pixels(pattern, model, DIMS)
    n_in = int(np.sum((ix < 32)))
    # half the area at 4x weight: 0.5/(0.5 + 0.25*0.5) = 80% of the budget
    assert abs(n_in - 0.8 * 230) <= 1


def test_foveated_outside_samples_map_outside_the_roi():
    # each sample scheduled outside the ROI lands outside it when mapped to a
    # pixel as capture maps it: the pattern's angle columns through angles_to_pixel
    rng = np.random.default_rng(25)
    for _ in range(300):
        dims = w, h = tuple(int(v) for v in rng.integers(2, 400, 2))
        model = model_with_budget(int(rng.integers(1, 3000)), fov_deg=float(rng.uniform(1, 179)))
        x0, x1 = np.sort(rng.choice(w + 1, 2, replace=False))
        y0, y1 = np.sort(rng.choice(h + 1, 2, replace=False))
        inside = float(rng.uniform(0.01, 1))
        roi = ROI(int(x0), int(y0), int(x1), int(y1), inside, float(rng.uniform(0.001, inside)))
        pattern = gen_foveated(model, 10.0, roi, dims)
        w_in, w_out = roi.inside_density * roi.area_px, roi.outside_density * (w * h - roi.area_px)
        n_in = int(round(pattern.budget * w_in / (w_in + w_out)))
        px, py = angles_to_pixel(pattern.samples.theta_rad, pattern.samples.phi_rad,
                                 image_intrinsics(model, dims))
        ix, iy = np.floor(px[n_in:]), np.floor(py[n_in:])
        assert not ((roi.x0 <= ix) & (ix < roi.x1) & (roi.y0 <= iy) & (iy < roi.y1)).any()


def test_foveated_roi_bounds_checked():
    model = model_with_budget(50)
    with pytest.raises(ROIOutOfBounds):
        gen_foveated(model, 10.0, ROI(0, 0, 100, 100), DIMS)
    with pytest.raises(ROIOutOfBounds):
        ROI(5, 5, 3, 8)


def test_foveated_zero_densities_rejected():
    model = model_with_budget(50)
    roi = ROI(0, 0, 8, 8, inside_density=0.0, outside_density=0.0)
    with pytest.raises(ValueError):
        gen_foveated(model, 10.0, roi, DIMS)


def test_outside_grid_stops_at_its_bound(monkeypatch):
    # the one pixel row outside the ROI is hit only once the grid has about
    # 200 rows, so a search capped below that raises instead of growing on
    model, dims = model_with_budget(50), (400, 400)
    intr = image_intrinsics(model, dims)
    roi = ROI(0, 0, 400, 399, 1.0, 1.0)
    theta, phi = _outside_grid(roi, intr, model, dims, 10)
    assert (np.floor(angles_to_pixel(theta, phi, intr)[1]) == 399).all()
    monkeypatch.setattr(scan_engine, "MAX_OUTSIDE_GRID", 400)
    with pytest.raises(ScanEngineError, match="no grid of at most 400 points"):
        _outside_grid(roi, intr, model, dims, 10)


def test_roi_density_ordering_enforced():
    with pytest.raises(ValueError):
        ROI(0, 0, 8, 8, inside_density=0.2, outside_density=0.9)


@pytest.mark.parametrize("inside, outside", [(1.5, 0.1), (1.0, -0.1), (math.nan, 0.0)])
def test_roi_densities_outside_unit_interval_rejected(inside, outside):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ROI(0, 0, 8, 8, inside_density=inside, outside_density=outside)


# ---------- pattern serialization ----------

def test_pattern_json_roundtrip():
    model = model_with_budget(40)
    emap = np.random.default_rng(1).random((48, 64))
    pattern = gen_entropy_adaptive(model, 10.0, emap, seed=11)
    back = json.loads(pattern.to_json())
    assert back["fps"] == pattern.fps
    assert Regime(back["regime"]) is pattern.regime
    assert back["seed"] == pattern.seed
    assert back["budget"] == pattern.budget
    assert np.array_equal(records_from_dicts(back["samples"], SCAN_SAMPLE_DTYPE),
                          pattern.samples)


# ---------- generators against the list-based reference ----------

def _serpentine_grid_reference(extent, n):
    """List-based serpentine grid that `_serpentine_grid` replaced."""
    t0, t1, p0, p1 = extent
    cols = max(1, int(math.isqrt(n)))
    rows = math.ceil(n / cols)
    dt = (t1 - t0) / cols
    dp = (p1 - p0) / rows
    pts = []
    remaining = n
    for r in range(rows):
        row_count = min(cols, remaining)
        remaining -= row_count
        phi = p0 + (r + 0.5) * dp
        cols_in_row = range(row_count)
        if r % 2 == 1:
            cols_in_row = reversed(list(cols_in_row))
        for c in cols_in_row:
            theta = t0 + (c + 0.5) * dt
            pts.append((theta, phi))
    return pts


def _outside_grid_reference(roi, intr, model, image_dims, n_out):
    """Per-point loop that `_outside_grid` replaced."""
    w, h = image_dims
    frac_out = 1.0 - roi.area_px / (w * h)
    extent = _angular_extent(model, image_dims)
    m = max(n_out, int(math.ceil(n_out / frac_out)))
    for _ in range(64):
        keep = []
        for theta, phi in _serpentine_grid_reference(extent, m):
            px = intr.cx_px + intr.fx_px * math.tan(theta)
            py = intr.cy_px + intr.fy_px * math.tan(phi)
            ix, iy = int(math.floor(px)), int(math.floor(py))
            if not (roi.x0 <= ix < roi.x1 and roi.y0 <= iy < roi.y1):
                keep.append((theta, phi))
        if len(keep) >= n_out:
            idx = np.round(np.linspace(0, len(keep) - 1, n_out)).astype(int)
            return [keep[i] for i in idx]
        m = max(m + 1, int(m * 1.2))
    raise AssertionError("reference could not place outside-ROI samples")


def _foveated_reference(model, fps, roi, dims):
    """Points of the list-based foveated generator, in schedule order."""
    w, h = dims
    n = budget(model, fps)
    intr = image_intrinsics(model, dims)
    w_in = roi.inside_density * roi.area_px
    w_out = roi.outside_density * (w * h - roi.area_px)
    n_in = int(round(n * w_in / (w_in + w_out)))
    pts = []
    if n_in > 0:
        pts.extend(_serpentine_grid_reference(_roi_angular_rect(roi, intr), n_in))
    if n - n_in > 0:
        pts.extend(_outside_grid_reference(roi, intr, model, dims, n - n_in))
    return pts


def _reference_json(model, fps, regime, n_budget, pts):
    times = model.frame_overhead_s + np.arange(len(pts)) / model.sample_rate_hz
    doc = {
        "fps": fps, "regime": regime.value, "seed": None, "budget": n_budget,
        "samples": [
            {"t_s": float(t), "theta_rad": th, "phi_rad": ph}
            for t, (th, ph) in zip(times, pts)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 28, 29, 60, 231, 1503])
def test_serpentine_grid_matches_reference(n):
    extent = (-0.21, 0.23, -0.17, 0.155)
    theta, phi = _serpentine_grid(extent, n)
    assert list(zip(theta.tolist(), phi.tolist())) == _serpentine_grid_reference(extent, n)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generators_match_reference_json(seed):
    rng = np.random.default_rng(seed)
    for dims in ((64, 48), (160, 120), (97, 61)):
        w, h = dims
        model = MirrorModel(
            sample_rate_hz=float(rng.uniform(300.0, 2000.0)),
            frame_overhead_s=float(rng.uniform(0.0, 0.02)),
        )
        fps = float(rng.uniform(2.0, 20.0))
        n = budget(model, fps)
        full = _serpentine_grid_reference(_angular_extent(model, dims), n)
        expected = _reference_json(model, fps, Regime.FULL_FOV, n, full)
        assert gen_full_fov(model, fps, dims).to_json() == expected

        density = float(rng.uniform(0.05, 1.0))
        sparse = _serpentine_grid_reference(
            _angular_extent(model, dims), max(1, int(round(n * density))))
        assert gen_density_sweep(model, fps, dims, density).to_json() == _reference_json(
            model, fps, Regime.DENSITY_SWEEP, n, sparse)

        for outside in (0.0, 0.05, 0.3, 1.0):
            x0, y0 = int(rng.integers(0, w - 1)), int(rng.integers(0, h - 1))
            x1, y1 = int(rng.integers(x0 + 1, w + 1)), int(rng.integers(y0 + 1, h + 1))
            roi = ROI(x0, y0, x1, y1, 1.0, outside)
            expected = _reference_json(
                model, fps, Regime.FOVEATED_ROI, n, _foveated_reference(model, fps, roi, dims))
            assert gen_foveated(model, fps, roi, dims).to_json() == expected

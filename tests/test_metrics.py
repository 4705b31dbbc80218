import json
import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from memslidar.metrics import (
    DELTA_BASE,
    METRICS_CSV_HEADER,
    DegenerateGeometry,
    EmptyMask,
    MetricsError,
    MetricsReport,
    NonPositiveDepth,
    _LEAF,
    compute,
    depth_to_points,
    planar_rmse,
)


# ---------- compute ----------

def test_identical_maps_are_perfect():
    depth = np.full((10, 12), 2.5)
    report = compute(depth, depth)
    assert report.mre_pct == 0.0
    assert report.rmse_m == 0.0
    assert report.log10 == 0.0
    assert report.delta1_pct == 100.0
    assert report.delta2_pct == 100.0
    assert report.delta3_pct == 100.0
    assert report.n_pixels == 120


def test_uniform_thirty_percent_error():
    pred = np.full((4, 4), 1.3)
    truth = np.ones((4, 4))
    report = compute(pred, truth)
    assert report.mre_pct == pytest.approx(30.0, rel=1e-12)
    assert report.rmse_m == pytest.approx(0.3, rel=1e-12)
    assert report.log10 == pytest.approx(0.11394335230683676, rel=1e-12)
    # ratio 1.3 misses the 1.25 gate but clears 1.5625 and beyond
    assert report.delta1_pct == 0.0
    assert report.delta2_pct == 100.0
    assert report.delta3_pct == 100.0


def test_half_percent_error():
    report = compute(np.full((3, 3), 1.005), np.ones((3, 3)))
    assert report.mre_pct == pytest.approx(0.5, rel=1e-9)
    assert report.delta1_pct == 100.0


def test_delta_thresholds_are_strict():
    report = compute(np.full((2, 2), 1.25), np.ones((2, 2)))
    assert report.delta1_pct == 0.0  # ratio == 1.25 exactly, not < 1.25
    assert report.delta2_pct == 100.0


def test_matches_naive_per_pixel_loop():
    rng = np.random.default_rng(9)
    for _ in range(10):
        shape = (rng.integers(4, 16), rng.integers(4, 16))
        pred = rng.uniform(0.5, 5.0, shape)
        truth = rng.uniform(0.5, 5.0, shape)
        mask = rng.random(shape) < 0.7
        if not mask.any():
            continue
        report = compute(pred, truth, mask)

        mre = rmse = lg = 0.0
        d = [0, 0, 0]
        n = 0
        for y in range(shape[0]):
            for x in range(shape[1]):
                if not mask[y, x]:
                    continue
                p, t = pred[y, x], truth[y, x]
                mre += abs(p - t) / t
                rmse += (p - t) ** 2
                lg += abs(math.log10(p) - math.log10(t))
                ratio = max(p / t, t / p)
                for i in range(3):
                    d[i] += ratio < 1.25 ** (i + 1)
                n += 1
        assert report.n_pixels == n
        assert report.mre_pct == pytest.approx(mre / n * 100, rel=1e-12)
        assert report.rmse_m == pytest.approx(math.sqrt(rmse / n), rel=1e-12)
        assert report.log10 == pytest.approx(lg / n, rel=1e-12)
        assert report.delta1_pct == pytest.approx(d[0] / n * 100, rel=1e-12)
        assert report.delta2_pct == pytest.approx(d[1] / n * 100, rel=1e-12)
        assert report.delta3_pct == pytest.approx(d[2] / n * 100, rel=1e-12)


def test_fuzz_invariants():
    rng = np.random.default_rng(10)
    for _ in range(200):
        shape = (rng.integers(2, 10), rng.integers(2, 10))
        pred = rng.uniform(0.1, 10.0, shape)
        truth = rng.uniform(0.1, 10.0, shape)
        report = compute(pred, truth)
        assert report.mre_pct >= 0.0
        assert report.rmse_m >= 0.0
        assert report.log10 >= 0.0
        assert report.delta1_pct <= report.delta2_pct <= report.delta3_pct

        # joint rescaling leaves relative metrics alone, scales RMSE
        k = 3.7
        scaled = compute(k * pred, k * truth)
        assert scaled.mre_pct == pytest.approx(report.mre_pct, rel=1e-9)
        assert scaled.log10 == pytest.approx(report.log10, rel=1e-9, abs=1e-12)
        assert scaled.rmse_m == pytest.approx(k * report.rmse_m, rel=1e-9)
        assert scaled.delta1_pct == report.delta1_pct
        assert scaled.delta2_pct == report.delta2_pct
        assert scaled.delta3_pct == report.delta3_pct


def test_default_mask_skips_invalid_pixels():
    pred = np.array([[2.0, 0.0], [2.0, 2.0]])
    truth = np.array([[2.0, 2.0], [0.0, 2.0]])
    report = compute(pred, truth)
    assert report.n_pixels == 2
    assert report.mre_pct == 0.0


def test_empty_mask_raises():
    depth = np.ones((4, 4))
    with pytest.raises(EmptyMask):
        compute(depth, depth, np.zeros((4, 4), dtype=bool))
    with pytest.raises(EmptyMask):
        compute(np.zeros((4, 4)), depth)


def test_masked_non_positive_depth_raises():
    pred = np.array([[1.0, 0.0]])
    truth = np.ones((1, 2))
    with pytest.raises(NonPositiveDepth):
        compute(pred, truth, np.ones((1, 2), dtype=bool))


def test_shape_mismatches_raise():
    with pytest.raises(MetricsError):
        compute(np.ones((2, 2)), np.ones((2, 3)))
    with pytest.raises(MetricsError):
        compute(np.ones((2, 2)), np.ones((2, 2)), np.ones((3, 3), dtype=bool))


# ---------- pooled scoring against the concatenating oracle ----------

def reference_compute(pred_m, truth_m, mask=None) -> MetricsReport:
    """The whole selection copied out and scored with numpy's own means.
    Lists of frames are flattened and concatenated first, each frame's mask
    defaulting to its positive pixels."""
    if isinstance(pred_m, list):
        masks = [None] * len(pred_m) if mask is None else mask
        masks = [(np.asarray(p) > 0) & (np.asarray(t) > 0) if m is None else np.asarray(m)
                 for p, t, m in zip(pred_m, truth_m, masks)]
        pred_m, truth_m, mask = (np.concatenate([np.ravel(a) for a in arrays])
                                 for arrays in (pred_m, truth_m, masks))
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
    return MetricsReport(mre, rmse, log10_err, *deltas, n_pixels=int(mask.sum()))


def _bits(report: MetricsReport):
    *errors, n_pixels = astuple(report)
    return np.array(errors, dtype=np.float64).tobytes(), n_pixels


POOLED_LENGTHS = (1, 7, 8, 127, 128, 129, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 8, 691_200)


def _depths(rng, n):
    """Millimetre-quantized depths, so that some ratios land exactly on a
    delta threshold (1.25 m against 1 m, for one)."""
    truth = rng.integers(200, 10_000, n) / 1000.0
    ratio = rng.choice([0.5, 0.64, 0.8, 1.0, 1.25, 1.5625, 1.953125, 2.5], n)
    pred = np.round(truth * ratio * rng.uniform(0.97, 1.03, n), 3)
    return np.maximum(pred, 0.001), truth


def _as_frames(rng, arrays, cuts):
    """Each of `arrays` split at `cuts` into frames laid out alike: a frame
    is 1-D, 2-D, or 2-D and not contiguous."""
    split = [np.split(values, cuts) for values in arrays]
    framed = [[] for _ in arrays]
    for parts in zip(*split):
        width = int(rng.integers(2, 9))
        kind = rng.integers(3) if parts[0].size % width == 0 else 0
        for frames, part in zip(framed, parts):
            if kind == 1:
                part = part.reshape(-1, width)
            elif kind == 2:
                strided = np.empty((width, part.size // width), dtype=part.dtype).T
                strided[...] = part.reshape(-1, width)
                part = strided
            frames.append(part)
    return framed


@pytest.mark.parametrize("n", POOLED_LENGTHS)
@pytest.mark.parametrize("mask_kind", ["none", "all-true", "random"])
def test_pooled_compute_matches_concatenating_oracle(n, mask_kind):
    rng = np.random.default_rng([n, len(mask_kind)])
    pred, truth = _depths(rng, n)
    if mask_kind == "none":
        mask = None
        # the default mask skips non-positive and NaN pixels
        for values in (pred, truth):
            values[rng.random(n) < 0.05] = rng.choice([0.0, -1.0, np.nan])
        if not np.any((pred > 0) & (truth > 0)):
            pred[0] = truth[0] = 1.0
    elif mask_kind == "all-true":
        mask = np.ones(n, dtype=bool)
    else:
        mask = rng.random(n) < 0.7
        mask[rng.integers(n)] = True
        pred[~mask & (rng.random(n) < 0.5)] = np.nan
        truth[~mask & (rng.random(n) < 0.5)] = 0.0
    expected = _bits(reference_compute(pred, truth, mask))
    assert _bits(compute(pred, truth, mask)) == expected

    for n_frames in (1, 2, 3, 4):
        cuts = np.sort(rng.integers(0, n + 1, n_frames - 1))
        if mask is None:
            (preds, truths), masks = _as_frames(rng, (pred, truth), cuts), None
        else:
            preds, truths, masks = _as_frames(rng, (pred, truth, mask), cuts)
        assert _bits(compute(preds, truths, masks)) == expected, n_frames
        assert _bits(compute(tuple(preds), tuple(truths), masks)) == expected, n_frames


def test_pooled_compute_matches_oracle_over_random_frame_sets():
    rng = np.random.default_rng(26)
    for _ in range(40):
        n_frames = int(rng.integers(1, 5))
        shapes = [tuple(rng.integers(1, 300, 2)) for _ in range(n_frames)]
        preds, truths, masks = [], [], []
        for shape in shapes:
            pred, truth = _depths(rng, math.prod(shape))
            preds.append(pred.reshape(shape))
            truths.append(truth.reshape(shape))
            # a frame whose mask selects nothing adds an empty run
            masks.append(None if rng.random() < 0.3 else rng.random(shape) < rng.choice([0.0, 0.5]))
        masks[0] = None  # keeps the selection from being empty
        expected = _bits(reference_compute(preds, truths, masks))
        assert _bits(compute(preds, truths, masks)) == expected


def test_pooled_mask_list_may_default_some_frames():
    pred = [np.array([[2.0, 0.0]]), np.array([1.0, 3.0, 4.0])]
    truth = [np.array([[2.5, 1.0]]), np.array([1.0, 0.0, 2.0])]
    masks = [None, np.array([True, False, True])]
    report = compute(pred, truth, masks)
    assert report.n_pixels == 3
    assert _bits(report) == _bits(reference_compute(pred, truth, masks))


def test_pooled_empty_selections_raise():
    with pytest.raises(EmptyMask):
        compute([], [])
    with pytest.raises(EmptyMask):
        compute([np.zeros((3, 4)), np.zeros(_LEAF + 5)], [np.ones((3, 4)), np.ones(_LEAF + 5)])
    with pytest.raises(EmptyMask):
        compute([np.ones(4)] * 2, [np.ones(4)] * 2, [np.zeros(4, dtype=bool)] * 2)


def test_pooled_non_positive_depth_raises_in_any_frame():
    # the bad pixel sits in the last leaf of the pooled selection
    pred = np.ones(3 * _LEAF)
    truth = np.ones(3 * _LEAF)
    truth[-1] = -2.0
    mask = np.ones(3 * _LEAF, dtype=bool)
    with pytest.raises(NonPositiveDepth):
        compute(pred, truth, mask)
    with pytest.raises(NonPositiveDepth):
        compute(list(pred.reshape(3, -1)), list(truth.reshape(3, -1)), list(mask.reshape(3, -1)))


def test_pooled_shape_mismatches_raise():
    ok = np.ones((2, 2))
    with pytest.raises(MetricsError, match="shape mismatch"):
        compute([ok, np.ones((2, 3))], [ok, np.ones((3, 2))])
    with pytest.raises(MetricsError, match="mask shape"):
        compute([ok, ok], [ok, ok], [None, np.ones((4,), dtype=bool)])
    with pytest.raises(MetricsError, match="frame counts differ"):
        compute([ok, ok], [ok])
    with pytest.raises(MetricsError, match="frame counts differ"):
        compute([ok, ok], [ok, ok], [None])


def test_pooled_nan_inside_a_given_mask_scores_nan():
    pred = np.array([1.0, np.nan, 2.0])
    truth = np.ones(3)
    for report in (compute(pred, truth, np.ones(3, dtype=bool)),
                   compute([pred[:1], pred[1:]], [truth[:1], truth[1:]],
                           [np.ones(1, dtype=bool), np.ones(2, dtype=bool)])):
        assert math.isnan(report.mre_pct) and math.isnan(report.rmse_m)
        assert report.delta1_pct == pytest.approx(100 / 3)
        assert report.n_pixels == 3


# Pooled scoring holds a few _LEAF-sized blocks beyond its inputs; a
# concatenated or masked copy of 4.3M pixels alone would be 34 MB.
POOLED_PEAK_BOUND_MB = 16


def test_pooled_compute_memory_is_bounded():
    rng = np.random.default_rng(4)
    truth = rng.uniform(0.5, 8.0, (14, 480, 640))  # 4,300,800 pixels
    pred = truth * rng.uniform(0.7, 1.4, truth.shape)
    mask = pred > 0.6
    reports = []
    tracemalloc.start()
    try:
        for args in ((pred.reshape(-1), truth.reshape(-1), mask.reshape(-1)),
                     (list(pred), list(truth), list(mask))):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            reports.append(compute(*args))
            peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            assert peak_mb < POOLED_PEAK_BOUND_MB, peak_mb
    finally:
        tracemalloc.stop()
    assert _bits(reports[0]) == _bits(reports[1])
    assert reports[0].n_pixels == np.count_nonzero(mask)


# ---------- planar fit ----------

def test_exact_plane_has_zero_rmse():
    rng = np.random.default_rng(0)
    xy = rng.uniform(-1, 1, (200, 2))
    z = 0.3 * xy[:, 0] + 0.2 * xy[:, 1] + 1.0
    pts = np.column_stack([xy, z])
    assert planar_rmse(pts) < 1e-12


def test_noisy_plane_recovers_sigma():
    rng = np.random.default_rng(1)
    xy = rng.uniform(-1, 1, (1000, 2))
    z = 2.0 + rng.normal(0, 0.05, 1000)
    rmse = planar_rmse(np.column_stack([xy, z]))
    assert rmse == pytest.approx(0.05, rel=0.10)


def test_planar_rmse_is_rigid_motion_invariant():
    rng = np.random.default_rng(2)
    pts = np.column_stack([
        rng.uniform(-1, 1, (300, 2)),
        1.5 + rng.normal(0, 0.02, 300),
    ])
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    moved = pts @ q.T + np.array([5.0, -2.0, 11.0])
    assert planar_rmse(moved) == pytest.approx(planar_rmse(pts), rel=1e-9)


def test_degenerate_point_sets_raise():
    with pytest.raises(DegenerateGeometry):
        planar_rmse(np.zeros((2, 3)))
    line = np.outer(np.linspace(0, 1, 50), [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateGeometry):
        planar_rmse(line)
    with pytest.raises(MetricsError):
        planar_rmse(np.ones((5, 2)))


# ---------- back-projection ----------

def test_depth_to_points_flat_plane():
    depth = np.full((4, 6), 2.0)
    depth[0, 0] = 0.0  # invalid pixel must be dropped
    pts = depth_to_points(depth, fx_px=100.0, fy_px=100.0, cx_px=3.0, cy_px=2.0)
    assert pts.shape == (23, 3)
    assert np.all(pts[:, 2] == 2.0)
    # pixel (x=5, y=1) center offset: ((5.5-3)/100*2, (1.5-2)/100*2)
    idx = np.argwhere((np.abs(pts[:, 0] - 0.05) < 1e-12)
                      & (np.abs(pts[:, 1] + 0.01) < 1e-12))
    assert len(idx) == 1


# ---------- serialization ----------

def test_csv_header_and_row():
    depth = np.full((5, 5), 2.0)
    report = compute(depth, depth)
    assert METRICS_CSV_HEADER == (
        "mre_pct,rmse_m,log10,delta1_pct,delta2_pct,delta3_pct,n_pixels"
    )
    assert report.to_csv_row() == "0,0,0,100,100,100,25"


def test_json_roundtrip():
    report = compute(np.full((3, 3), 1.3), np.ones((3, 3)))
    doc = json.loads(report.to_json())
    assert doc["mre_pct"] == pytest.approx(30.0)
    assert doc["n_pixels"] == 9
    assert list(doc) == sorted(doc)

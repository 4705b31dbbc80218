import math
import sys

import numpy as np
import pytest

from memslidar.foveation import (
    BackgroundModel,
    EntropyMap,
    FoveationError,
    _pair_table,
    _term_table,
    check_window,
    entropy_map,
    entropy_maps,
    grayscale,
    max_entropy_roi,
    update_and_detect,
)
from memslidar import foveation
from memslidar.scan_engine import ROIOutOfBounds


def _rgb(gray_values):
    arr = np.asarray(gray_values, dtype=np.uint8)
    return np.stack([arr, arr, arr], axis=-1)


# ---------- grayscale ----------

def test_grayscale_luma_weights():
    rgb = np.zeros((1, 1, 3), dtype=np.uint8)
    rgb[0, 0] = (100, 50, 200)
    assert grayscale(rgb)[0, 0] == pytest.approx(
        0.299 * 100 + 0.587 * 50 + 0.114 * 200
    )


def test_grayscale_rejects_non_color_input():
    with pytest.raises(ValueError):
        grayscale(np.zeros((4, 4)))


# ---------- entropy map ----------

def test_constant_image_has_zero_entropy():
    em = entropy_map(_rgb(np.full((24, 32), 77)), window_px=7)
    assert np.all(em.values == 0.0)


def test_checker_entropy_is_one_bit():
    # 225-px window over a 2-level checker splits 113/112, a hair under 1 bit
    yy, xx = np.mgrid[0:48, 0:64]
    checker = np.where((xx + yy) % 2 == 0, 200, 40)
    em = entropy_map(_rgb(checker), window_px=15)
    interior = em.values[7:-7, 7:-7]
    np.testing.assert_allclose(interior, 0.99998575111318, rtol=1e-10)


def test_entropy_matches_per_pixel_histogram_oracle():
    rng = np.random.default_rng(2)
    gray = rng.integers(0, 256, size=(24, 32), dtype=np.uint8)
    window = 7
    em = entropy_map(_rgb(gray), window_px=window)

    half = window // 2
    padded = np.pad(gray, half, mode="edge")
    expected = np.zeros(gray.shape)
    for y in range(gray.shape[0]):
        for x in range(gray.shape[1]):
            patch = padded[y:y + window, x:x + window]
            p = np.bincount(patch.ravel(), minlength=256) / window**2
            p = p[p > 0]
            expected[y, x] = -(p * np.log2(p)).sum()
    np.testing.assert_allclose(em.values, expected, atol=1e-9)


def _entropy_map_cumsum(rgb, window_px):
    """`entropy_map` as first written: one float summed-area table per level.

    Levels run in ascending order and each pixel subtracts `p * log2(p)`
    per level present, as in the library, so `entropy_map` must match
    this reference byte for byte.
    """
    gray = np.round(grayscale(rgb)).astype(np.uint8)
    h, w = gray.shape
    half = window_px // 2
    padded = np.pad(gray, half, mode="edge")
    area = float(window_px * window_px)

    entropy = np.zeros((h, w))
    for level in np.unique(padded):
        ind = (padded == level).astype(np.float64)
        sat = ind.cumsum(axis=0).cumsum(axis=1)
        sat = np.pad(sat, ((1, 0), (1, 0)))
        counts = (
            sat[window_px:, window_px:]
            - sat[:-window_px, window_px:]
            - sat[window_px:, :-window_px]
            + sat[:-window_px, :-window_px]
        )
        p = counts / area
        nz = p > 0
        entropy[nz] -= p[nz] * np.log2(p[nz])
    return entropy


def _checker(shape):
    yy, xx = np.mgrid[0:shape[0], 0:shape[1]]
    return np.where((xx + yy) % 2 == 0, 200, 40)


def _speckled(shape, seed):
    # one dominant level: its window count passes 255 from window 17 up
    gray = np.full(shape, 77)
    rng = np.random.default_rng(seed)
    gray[rng.random(shape) < 0.05] = 200
    return gray


def _all_levels(seed):
    return np.random.default_rng(seed).permutation(256 * 4).reshape(32, 32) % 256


def _edge_levels(shape):
    # levels 0 and 255 only in the first and last column: a count that ran
    # on across a row end would reach the pixels beside them
    gray = np.random.default_rng(26).integers(1, 255, shape)
    gray[:, 0] = 0
    gray[:, -1] = 255
    return gray


_BYTE_CASES = [
    *[
        (f"random-w{w}", np.random.default_rng(10 + w).integers(0, 256, (40, 56)), w)
        for w in (3, 7, 15, 17, 21, 31)
    ],
    *[(f"constant-w{w}", np.full((30, 40), 77), w) for w in (17, 21)],
    *[(f"checker-w{w}", _checker((36, 44)), w) for w in (17, 21)],
    *[(f"speckled-w{w}", _speckled((36, 44), seed=w), w) for w in (17, 21)],
    ("all-levels-w7", _all_levels(8), 7),
    ("smaller-than-window-w15", np.random.default_rng(9).integers(0, 256, (5, 9)), 15),
    ("non-square-w9", np.random.default_rng(11).integers(0, 256, (13, 61)), 9),
    # rows narrower than the window, a single row, a row exactly one window
    *[(f"width{w}-w15", np.random.default_rng(20 + w).integers(0, 256, (40, w)), 15)
      for w in (1, 2)],
    ("height1-w15", np.random.default_rng(23).integers(0, 256, (1, 50)), 15),
    ("width-is-window-w15", np.random.default_rng(24).integers(0, 256, (20, 15)), 15),
    # uint16 counts and five doubling blocks
    ("random-w33", np.random.default_rng(25).integers(0, 256, (40, 56)), 33),
    ("rare-levels-at-row-ends-w15", _edge_levels((30, 40)), 15),
    # more than one 32k slice, an odd count length, and 256 levels three
    # to a pass; in uint8 pairs at window 15 and single uint16 counts at 17
    *[(f"odd-count-length-w{w}", np.random.default_rng(27).integers(0, 256, (181, 203)), w)
      for w in (15, 17)],
    # 7 levels, 8 to a pass
    ("seven-levels-w15", np.random.default_rng(28).integers(0, 7, (40, 56)) * 37, 15),
    # the two guide-camera sizes: 5 levels to a pass, and one
    ("qqvga-w15", np.random.default_rng(29).integers(0, 256, (120, 160)), 15),
    ("vga-w15", np.random.default_rng(30).integers(0, 256, (480, 640)), 15),
]


@pytest.mark.parametrize(
    "gray, window", [c[1:] for c in _BYTE_CASES], ids=[c[0] for c in _BYTE_CASES]
)
def test_entropy_matches_cumsum_reference_bytes(gray, window):
    rgb = _rgb(gray)
    values = entropy_map(rgb, window_px=window).values
    expected = _entropy_map_cumsum(rgb, window)
    assert values.dtype == expected.dtype and values.shape == expected.shape
    assert values.tobytes() == expected.tobytes()


def test_entropy_matches_cumsum_reference_bytes_on_random_frames():
    rng = np.random.default_rng(31)
    for _ in range(40):
        shape = tuple(int(n) for n in rng.integers(1, 90, 2))
        window = int(rng.choice([3, 5, 7, 9, 11, 13, 15, 17, 19]))
        levels = rng.choice(256, size=int(rng.integers(1, 257)), replace=False)
        rgb = _rgb(rng.choice(levels, size=shape))
        values = entropy_map(rgb, window_px=window).values
        assert values.tobytes() == _entropy_map_cumsum(rgb, window).tobytes(), (shape, window)


def test_cached_pair_table_matches_a_fresh_build():
    high, low = np.divmod(np.arange(1 << 16), 256)
    first, second = (low, high) if sys.byteorder == "little" else (high, low)
    for window in (3, 9, 15):
        area = window * window
        table = _pair_table(area)
        assert table is _pair_table(area) and not table.flags.writeable
        assert table.dtype == np.complex128 and table.shape == (1 << 16,)
        assert table.tobytes() == _pair_table.__wrapped__(area).tobytes()
        terms = np.zeros(256)
        p = np.arange(1, area + 1) / area
        terms[1:area + 1] = p * np.log2(p)
        assert table.real.tobytes() == terms[first].tobytes()
        assert table.imag.tobytes() == terms[second].tobytes()
        assert _term_table(area).tobytes() == terms[:area + 1].tobytes()
    assert not np.array_equal(_pair_table(9), _pair_table(225))


def test_entropy_is_translation_equivariant_in_the_interior():
    rng = np.random.default_rng(5)
    gray = rng.integers(0, 256, size=(32, 40), dtype=np.uint8)
    window = 7
    a = entropy_map(_rgb(gray), window_px=window).values
    b = entropy_map(_rgb(np.roll(gray, (3, 2), axis=(0, 1))), window_px=window).values
    np.testing.assert_allclose(
        b[window + 3:-window, window + 2:-window],
        a[window:-window - 3, window:-window - 2],
        atol=1e-9,
    )


def test_entropy_values_bounded():
    rng = np.random.default_rng(6)
    gray = rng.integers(0, 256, size=(24, 32), dtype=np.uint8)
    em = entropy_map(_rgb(gray), window_px=5)
    assert np.all(em.values >= 0.0)
    assert np.all(em.values <= 8.0)


def test_entropy_window_validation():
    img = _rgb(np.zeros((8, 8)))
    with pytest.raises(ValueError):
        entropy_map(img, window_px=4)
    with pytest.raises(ValueError):
        entropy_map(img, window_px=1)



# ---------- entropy maps through a sequence ----------

# edges a changed rectangle is pinned to: top, bottom, left, right
_PINS = {"interior": "", "top": "t", "bottom": "b", "left": "l", "right": "r",
         "top-left": "tl", "top-right": "tr", "bottom-left": "bl", "bottom-right": "br"}


def _changed_rect(rng, shape, pin):
    (y0, y1), (x0, x1) = (np.sort(rng.integers(0, n, 2)) + (0, 1) for n in shape)
    return np.s_[0 if "t" in pin else y0:shape[0] if "b" in pin else y1,
                 0 if "l" in pin else x0:shape[1] if "r" in pin else x1]


@pytest.mark.parametrize("window", [3, 5, 15, 17])
@pytest.mark.parametrize("pin", _PINS.values(), ids=_PINS.keys())
def test_entropy_maps_match_entropy_map_bytes(window, pin):
    rng = np.random.default_rng([window, *map(ord, pin)])
    # narrower and shorter than the window, both, and small frames whose
    # levels are stacked several to a pass
    shapes = [(1, 1), (2, 40), (30, 3), (window - 2, window - 1), (24, 32), (60, 80)]
    for shape in shapes:
        levels = rng.choice(256, size=int(rng.integers(1, 257)), replace=False)
        frames = [rng.choice(levels, size=shape)]
        for change in ("rect", "none", "rect", "all", "rect", "rect"):
            gray = frames[-1].copy()
            if change == "all":
                gray = 255 - gray  # no level is its own complement
            elif change == "rect":
                rect = _changed_rect(rng, shape, pin)
                gray[rect] = rng.choice(levels, size=gray[rect].shape)
            frames.append(gray)
        for i, (gray, emap) in enumerate(zip(frames, entropy_maps(map(_rgb, frames), window))):
            want = entropy_map(_rgb(gray), window_px=window)
            assert emap.window_px == window
            assert emap.values.tobytes() == want.values.tobytes(), (shape, i)


def test_entropy_maps_recount_one_window_per_changed_pixel(monkeypatch):
    window, shape = 7, (40, 50)
    counted = []  # kernel output shape of each count

    def recording(padded, window_px):
        counted.append(tuple(n - window_px + 1 for n in padded.shape))
        return count(padded, window_px)

    count = foveation._count_entropy
    monkeypatch.setattr(foveation, "_count_entropy", recording)
    gray = np.random.default_rng(8).integers(0, 256, shape)
    frames = [gray]
    for y, x in [(20, 25), (0, 0), (39, 49), (0, 30)]:  # interior, corners, an edge
        frames.append(frames[-1].copy())
        frames[-1][y, x] ^= 1
    frames.append(frames[-1])  # unchanged: nothing recounted
    maps = list(entropy_maps(map(_rgb, frames), window))
    assert counted == [shape, (7, 7), (4, 4), (4, 4), (4, 7)]
    monkeypatch.setattr(foveation, "_count_entropy", count)
    for gray, emap in zip(frames, maps):
        assert emap.values.tobytes() == entropy_map(_rgb(gray), window).values.tobytes()
        assert not emap.values.flags.writeable  # the next map is built from it


def test_entropy_maps_count_a_resized_frame_in_full():
    rng = np.random.default_rng(9)
    frames = [rng.integers(0, 256, shape) for shape in [(20, 30), (21, 30), (21, 30)]]
    for gray, emap in zip(frames, entropy_maps(map(_rgb, frames), 5)):
        assert emap.values.tobytes() == entropy_map(_rgb(gray), 5).values.tobytes()


def test_entropy_maps_window_validation():
    with pytest.raises(ValueError, match="window must be odd"):
        next(entropy_maps([_rgb(np.zeros((8, 8)))], window_px=4))


# ---------- max-entropy ROI ----------

def test_max_roi_matches_exhaustive_search():
    rng = np.random.default_rng(4)
    vals = rng.random((48, 64))
    roi = max_entropy_roi(EntropyMap(values=vals, window_px=7), (16, 12))
    best, loc = -1.0, None
    for y0 in range(48 - 12 + 1):
        for x0 in range(64 - 16 + 1):
            s = vals[y0:y0 + 12, x0:x0 + 16].sum()
            if s > best:
                best, loc = s, (x0, y0)
    assert (roi.x0, roi.y0) == loc
    assert (roi.x1 - roi.x0, roi.y1 - roi.y0) == (16, 12)


def test_max_roi_uniform_map_ties_to_origin():
    roi = max_entropy_roi(EntropyMap(values=np.ones((20, 30)), window_px=7), (8, 6))
    assert (roi.x0, roi.y0, roi.x1, roi.y1) == (0, 0, 8, 6)


def test_max_roi_tie_break_is_row_major():
    # single hot pixel: every covering placement ties; first in row-major wins
    vals = np.zeros((40, 50))
    vals[20, 30] = 1.0
    roi = max_entropy_roi(EntropyMap(values=vals, window_px=7), (5, 4))
    assert (roi.x0, roi.y0) == (26, 17)


def test_max_roi_window_must_fit():
    em = EntropyMap(values=np.ones((10, 10)), window_px=3)
    with pytest.raises(ROIOutOfBounds):
        max_entropy_roi(em, (11, 4))
    with pytest.raises(ROIOutOfBounds):
        max_entropy_roi(em, (0, 4))


# ---------- motion detection ----------

def test_first_frame_seeds_mean_without_detection():
    model = BackgroundModel()
    frame = _rgb(np.full((60, 80), 40))
    model, roi = update_and_detect(model, frame)
    assert roi is None
    np.testing.assert_array_equal(model.mean_gray, grayscale(frame))


def test_static_scene_detects_nothing():
    frame = _rgb(np.full((60, 80), 40))
    model, _ = update_and_detect(BackgroundModel(), frame)
    model, roi = update_and_detect(model, frame)
    assert roi is None


def test_moving_box_roi_with_margin():
    bg = np.full((120, 160), 30)
    fg = bg.copy()
    fg[15:55, 20:60] = 200  # 40x40 block
    model, _ = update_and_detect(BackgroundModel(), _rgb(bg))
    model, roi = update_and_detect(model, _rgb(fg))
    assert roi is not None
    assert (roi.x0, roi.y0, roi.x1, roi.y1) == (10, 5, 70, 65)


def test_margin_clamps_to_image():
    bg = np.full((120, 160), 30)
    fg = bg.copy()
    fg[0:40, 0:40] = 200
    model, _ = update_and_detect(BackgroundModel(), _rgb(bg))
    model, roi = update_and_detect(model, _rgb(fg))
    assert (roi.x0, roi.y0, roi.x1, roi.y1) == (0, 0, 50, 50)


def test_largest_blob_wins():
    bg = np.full((120, 160), 30)
    fg = bg.copy()
    fg[10:30, 10:35] = 200   # 500 px
    fg[80:85, 100:110] = 200  # 50 px
    model, _ = update_and_detect(BackgroundModel(), _rgb(bg))
    model, roi = update_and_detect(model, _rgb(fg))
    assert (roi.x0, roi.y0, roi.x1, roi.y1) == (0, 0, 45, 40)


def test_small_blob_below_area_floor_ignored():
    bg = np.full((120, 160), 30)
    fg = bg.copy()
    fg[10:18, 10:18] = 200  # 64 px < default floor of 100
    model, _ = update_and_detect(BackgroundModel(), _rgb(bg))
    model, roi = update_and_detect(model, _rgb(fg))
    assert roi is None


def test_detection_runs_before_the_blend():
    # diff of 26 is above threshold only against the unblended mean
    bg = np.full((120, 160), 0)
    fg = bg.copy()
    fg[15:55, 20:60] = 26
    model, _ = update_and_detect(BackgroundModel(alpha=0.05), _rgb(bg))
    model, roi = update_and_detect(model, _rgb(fg))
    assert roi is not None


def test_mean_blend_is_exact():
    g1 = np.full((30, 40), 10)
    g2 = np.full((30, 40), 60)
    model, _ = update_and_detect(BackgroundModel(alpha=0.25), _rgb(g1))
    model, _ = update_and_detect(model, _rgb(g2))
    np.testing.assert_allclose(model.mean_gray, 0.75 * 10 + 0.25 * 60, rtol=1e-12)


def test_frame_shape_must_match_model():
    model, _ = update_and_detect(BackgroundModel(), _rgb(np.zeros((30, 40))))
    with pytest.raises(FoveationError):
        update_and_detect(model, _rgb(np.zeros((31, 40))))


@pytest.mark.parametrize("threshold", [math.inf, math.nan])
def test_background_model_rejects_non_finite_threshold(threshold):
    with pytest.raises(ValueError, match="finite"):
        BackgroundModel(diff_threshold=threshold)


def test_background_model_validation():
    for kwargs in (
        {"alpha": 0.0},
        {"alpha": 1.5},
        {"diff_threshold": 0.0},
        {"min_blob_area_px": 0},
        {"margin_px": -1},
    ):
        with pytest.raises(ValueError):
            BackgroundModel(**kwargs)


def test_config_errors_are_foveation_errors():
    rgb = _rgb(np.zeros((30, 40)))
    model, _ = update_and_detect(BackgroundModel(), rgb)
    for call, match in [
        (lambda: grayscale(np.zeros((4, 4))), r"\(H, W, 3\)"),
        (lambda: check_window(4), "odd and >= 3"),
        (lambda: next(entropy_maps([rgb], 4097)), "pads the 40x30 image"),
        (lambda: BackgroundModel(alpha=0.0), "alpha"),
        (lambda: BackgroundModel(diff_threshold=0.0), "diff threshold"),
        (lambda: BackgroundModel(min_blob_area_px=0), "min blob area"),
        (lambda: BackgroundModel(margin_px=-1), "margin"),
        (lambda: update_and_detect(model, _rgb(np.zeros((31, 40)))), "background model is"),
    ]:
        with pytest.raises(FoveationError, match=match):
            call()

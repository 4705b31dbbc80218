"""Motion detection against `scipy.ndimage` as the oracle.

`update_and_detect` finds its ROI in numpy alone: a separable opening and
row runs joined by union-find.  These tests hold it to the scipy calls it
replaced: `binary_opening` and `label` on a 3x3 structure, then
`bincount`, `argmax` and the bounding box of the winning label.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from memslidar.foveation import (
    BackgroundModel,
    FoveationError,
    _largest_component,
    _open3x3,
    grayscale,
    update_and_detect,
)
from memslidar.scan_engine import ROI

SQUARE = np.ones((3, 3), dtype=bool)


def _scipy_component(mask):
    """(area, y0, x0, y1, x1) of the largest labelled component, ties to
    the lowest label, or None."""
    labels, n_labels = ndimage.label(mask, structure=SQUARE)
    if n_labels == 0:
        return None
    sizes = np.bincount(labels.ravel())[1:]
    best = int(np.argmax(sizes)) + 1
    ys, xs = np.nonzero(labels == best)
    return (int(sizes[best - 1]), int(ys.min()), int(xs.min()),
            int(ys.max()) + 1, int(xs.max()) + 1)


def _update_and_detect_scipy(model, rgb):
    """`update_and_detect` as written on `scipy.ndimage`."""
    gray = grayscale(rgb)
    if model.mean_gray is None:
        return replace(model, mean_gray=gray), None
    if model.mean_gray.shape != gray.shape:
        raise FoveationError(
            f"frame is {gray.shape}, background model is {model.mean_gray.shape}"
        )
    diff = np.abs(gray - model.mean_gray) > model.diff_threshold
    opened = ndimage.binary_opening(diff, structure=SQUARE)
    roi = None
    if opened.any():
        labels, n_labels = ndimage.label(opened, structure=SQUARE)
        sizes = np.bincount(labels.ravel())[1:]
        best = int(np.argmax(sizes)) + 1
        if sizes[best - 1] >= model.min_blob_area_px:
            ys, xs = np.nonzero(labels == best)
            h, w = gray.shape
            roi = ROI(
                x0=max(0, int(xs.min()) - model.margin_px),
                y0=max(0, int(ys.min()) - model.margin_px),
                x1=min(w, int(xs.max()) + 1 + model.margin_px),
                y1=min(h, int(ys.max()) + 1 + model.margin_px),
            )
    new_mean = (1.0 - model.alpha) * model.mean_gray + model.alpha * gray
    return replace(model, mean_gray=new_mean), roi


def _rgb(gray_values):
    arr = np.asarray(gray_values, dtype=np.uint8)
    return np.stack([arr, arr, arr], axis=-1)


def _border_blobs(rng, h, w):
    """Rectangles pinned to each edge and corner, sizes random."""
    mask = np.zeros((h, w), dtype=bool)
    for ys, xs in [(0, None), (-1, None), (None, 0), (None, -1),
                   (0, 0), (0, -1), (-1, 0), (-1, -1)]:
        bh, bw = rng.integers(1, max(h // 3, 1) + 1), rng.integers(1, max(w // 3, 1) + 1)
        y0 = 0 if ys == 0 else h - bh if ys == -1 else rng.integers(0, h - bh + 1)
        x0 = 0 if xs == 0 else w - bw if xs == -1 else rng.integers(0, w - bw + 1)
        if rng.random() < 0.5:
            mask[y0:y0 + bh, x0:x0 + bw] = True
    return mask


def _equal_blobs(rng, h, w):
    """Copies of one random shape, each jittered in its own grid cell, so
    every component has the same area and the first pixel decides ties."""
    side = int(rng.integers(2, 6))
    shape = rng.random((side, side)) < 0.6
    labels, _ = ndimage.label(shape, structure=SQUARE)
    shape = labels == labels.max()  # one 8-connected piece
    mask = np.zeros((h, w), dtype=bool)
    cell = 2 * side + 1
    for y in range(0, h - cell + 1, cell):
        for x in range(0, w - cell + 1, cell):
            if rng.random() < 0.7:
                dy, dx = rng.integers(0, side + 1, 2)
                mask[y + dy:y + dy + side, x + dx:x + dx + side] = shape
    return mask


def _fuzz_masks(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        h, w = (int(n) for n in rng.integers(1, 48, 2))
        kind = rng.integers(0, 4)
        if kind == 0:
            yield rng.random((h, w)) < rng.uniform(0.05, 0.95)
        elif kind == 1:
            yield _border_blobs(rng, h, w)
        elif kind == 2:
            yield _equal_blobs(rng, h, w)
        else:  # clumps that survive the opening
            yield ndimage.binary_dilation(rng.random((h, w)) < 0.03, structure=SQUARE,
                                          iterations=int(rng.integers(1, 4)))


EDGE_SHAPES = [(0, 7), (7, 0), (0, 0), (1, 1), (1, 9), (9, 1), (2, 2), (3, 3)]


@pytest.mark.parametrize("shape", EDGE_SHAPES)
@pytest.mark.parametrize("fill", [False, True])
def test_degenerate_masks_match_scipy(shape, fill):
    mask = np.full(shape, fill)
    opened = _open3x3(mask)
    assert opened.shape == shape
    np.testing.assert_array_equal(opened, ndimage.binary_opening(mask, structure=SQUARE))
    assert _largest_component(mask) == _scipy_component(mask)


@pytest.mark.parametrize("seed", range(4))
def test_opening_matches_scipy(seed):
    for mask in _fuzz_masks(seed, 150):
        np.testing.assert_array_equal(_open3x3(mask),
                                      ndimage.binary_opening(mask, structure=SQUARE))


@pytest.mark.parametrize("seed", range(4))
def test_largest_component_matches_scipy(seed):
    for mask in _fuzz_masks(seed, 150):
        assert _largest_component(mask) == _scipy_component(mask)
        opened = _open3x3(mask)
        assert _largest_component(opened) == _scipy_component(opened)


def test_equal_components_go_to_the_first_in_raster_order():
    # three 4-pixel pieces; the one whose first pixel comes first in
    # raster order wins, though both others reach further left
    mask = np.zeros((6, 10), dtype=bool)
    mask[0, 6] = mask[1, 5] = mask[2, 4] = mask[3, 3] = True  # first pixel (0, 6)
    mask[1:3, 8:10] = True                                    # first pixel (1, 8)
    mask[4:6, 0:2] = True                                     # first pixel (4, 0)
    assert _scipy_component(mask) == (4, 0, 3, 4, 7)
    assert _largest_component(mask) == (4, 0, 3, 4, 7)


def _serpentine(h, w):
    mask = np.zeros((h, w), dtype=bool)
    mask[::2] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


def _spiral(h, w):
    """A one-pixel path walked clockwise inwards from the top-left corner,
    one empty pixel between its turns."""
    mask = np.zeros((h, w), dtype=bool)
    y, x, dy, dx = 0, 0, 0, 1
    mask[0, 0] = True
    turns = 0
    while turns < 2:
        ny, nx = y + dy, x + dx
        ahead = (ny + dy, nx + dx)
        inside = 0 <= ahead[0] < h and 0 <= ahead[1] < w
        if 0 <= ny < h and 0 <= nx < w and not (inside and mask[ahead]):
            y, x, turns = ny, nx, 0
            mask[y, x] = True
        else:
            dy, dx, turns = dx, -dy, turns + 1
    return mask


# Each of these is one component whose runs chain end to end, the case
# where joining runs one link per round would take a round per run.
# `_largest_component` hooks roots: in a round every component that still
# touches another either hooks onto a smaller root or has one hooked onto
# it, so their number at least halves and the rounds stay within log2 of
# the run count.
@pytest.mark.parametrize("make", [_serpentine, _spiral])
def test_worst_case_shapes_match_scipy(make):
    mask = make(480, 640)
    assert ndimage.label(mask, structure=SQUARE)[1] == 1
    assert _largest_component(mask) == _scipy_component(mask)


def _frame_pair(rng):
    h, w = (int(n) for n in rng.integers(1, 72, 2))
    first = rng.integers(0, 256, (h, w), dtype=np.uint8)
    second = first.copy()
    for _ in range(rng.integers(0, 5)):
        y0, x0 = rng.integers(0, h), rng.integers(0, w)
        y1, x1 = y0 + rng.integers(1, h + 1), x0 + rng.integers(1, w + 1)
        second[y0:y1, x0:x1] = rng.integers(0, 256)
    noisy = rng.random((h, w)) < rng.uniform(0, 0.3)
    second[noisy] = rng.integers(0, 256, int(noisy.sum()))
    return first, second


@pytest.mark.parametrize("seed", range(6))
def test_update_and_detect_matches_scipy_copy(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        model = BackgroundModel(
            alpha=float(rng.uniform(0.01, 1.0)),
            diff_threshold=float(rng.uniform(1, 80)),
            min_blob_area_px=int(rng.integers(1, 60)),
            margin_px=int(rng.integers(0, 15)),
        )
        first, second = _frame_pair(rng)
        ours = theirs = model
        for gray in (first, second, first):
            ours, roi = update_and_detect(ours, _rgb(gray))
            theirs, expected = _update_and_detect_scipy(theirs, _rgb(gray))
            assert roi == expected
            np.testing.assert_array_equal(ours.mean_gray, theirs.mean_gray)


@pytest.mark.parametrize("floor_offset", [-1, 0, 1])
def test_min_blob_area_edge_matches_scipy_copy(floor_offset):
    # a 7x9 block survives the opening whole: 63 pixels
    bg = np.full((40, 50), 30)
    fg = bg.copy()
    fg[10:17, 20:29] = 200
    model = BackgroundModel(min_blob_area_px=63 + floor_offset, margin_px=2)
    ours, _ = update_and_detect(model, _rgb(bg))
    theirs, _ = _update_and_detect_scipy(model, _rgb(bg))
    _, roi = update_and_detect(ours, _rgb(fg))
    _, expected = _update_and_detect_scipy(theirs, _rgb(fg))
    assert roi == expected
    assert (roi is None) == (floor_offset > 0)
    if roi is not None:
        assert (roi.x0, roi.y0, roi.x1, roi.y1) == (18, 8, 31, 19)

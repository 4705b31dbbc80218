"""Deciding where to point the scanner: entropy and motion cues.

Two foveation signals are supported.  Local Shannon entropy of the guide
camera's grayscale image marks texture worth sampling densely; a
running-mean background model marks moving objects.  Both produce pixel
rectangles consumed by the foveated pattern generator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .scan_engine import ROI, ROIOutOfBounds
from .scene_io import MAX_SCENE_PIXELS


class FoveationError(ValueError):
    pass


def grayscale(rgb: np.ndarray) -> np.ndarray:
    """Luma conversion (BT.601 weights) to float64, 0..255."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got {rgb.shape}")
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    return 0.299 * r + 0.587 * g + 0.114 * b


@dataclass(frozen=True)
class EntropyMap:
    """Per-pixel windowed entropy in bits, same shape as the source image."""

    values: np.ndarray
    window_px: int


def _block_terms(n: int) -> list[tuple[int, int, int]]:
    """(sign, block, offset) terms: the sum of n consecutive entries as a
    signed sum of power-of-two block sums.

    With p the largest power of two <= n, the window is either a p block
    and the rest after it, or two p blocks that overlap, less the overlap
    (2p - n entries); each part is split the same way, and the shorter
    list wins (the first on a tie).  For 15 that gives 8 + 8 - 1.
    """
    p = 1 << (n.bit_length() - 1)
    if p == n:
        return [(1, p, 0)]
    rest = [(s, b, p + o) for s, b, o in _block_terms(n - p)]
    overlap = [(-s, b, n - p + o) for s, b, o in _block_terms(2 * p - n)]
    return min([(1, p, 0), *rest], [(1, p, 0), (1, p, n - p), *overlap], key=len)


def _window_plan(src: np.ndarray, n: int, stride: int, out: np.ndarray) -> list:
    """Calls that set out[f] = src[f] + src[f + stride] + ... + src[f + (n-1)*stride]
    on flat buffers, as (ufunc, a, b, out) views fixed once.

    Block sums s_2b[f] = s_b[f] + s_b[f + b*stride] (s_1 = src) are built
    by doubling in new buffers, then the terms of `_block_terms(n)` are
    added in out's unsigned type, the first two (both positive) in one
    call.  Wrap-around in between is exact, because every final count
    fits that type.
    """
    sums = {1: src}
    size = len(src)
    calls = []
    for i in range(n.bit_length() - 1):
        b = 1 << i
        size -= b * stride
        s = sums[b]
        sums[2 * b] = np.empty(size, dtype=out.dtype)
        calls.append((np.add, s[:size], s[b * stride:b * stride + size], sums[2 * b]))
    m = len(out)
    (_, b0, o0), (_, b1, o1), *rest = _block_terms(n)
    calls.append((np.add, sums[b0][o0 * stride:o0 * stride + m],
                  sums[b1][o1 * stride:o1 * stride + m], out))
    for sign, b, o in rest:
        calls.append((np.add if sign > 0 else np.subtract, out,
                      sums[b][o * stride:o * stride + m], out))
    return calls


# elements per gather-and-subtract slice, so counts, terms and sums stay in
# cache; 32k measured a little faster than 8k, 16k or 64k at 640x480; even,
# so that a slice holds whole count pairs
_SLICE = 1 << 15


@functools.lru_cache(maxsize=8)
def _term_table(area: int) -> np.ndarray:
    """`p * log2(p)` for `p = c / area`, c = 0..area (0 for c = 0), read-only."""
    p = np.arange(area + 1) / float(area)
    with np.errstate(divide="ignore", invalid="ignore"):
        table = p * np.log2(p)
    table[0] = 0.0
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=8)
def _pair_table(area: int) -> np.ndarray:
    """Entry i is (t[a], t[b]) as one complex128, for i's two bytes a, b in
    memory order and t the `_term_table(area)` values, 0 past `area`: one
    gather by a `uint16` view of two `uint8` counts fetches both terms."""
    t = np.zeros(256)
    t[:area + 1] = _term_table(area)
    a, b = np.arange(1 << 16, dtype=np.uint16).view(np.uint8).reshape(-1, 2).T
    table = np.empty(1 << 16, dtype=np.complex128)
    table.real, table.imag = t[a], t[b]
    table.flags.writeable = False
    return table


def check_window(window_px: int) -> None:
    """The entropy window rule: an odd side of at least 3 pixels."""
    if window_px < 3 or window_px % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {window_px}")


def entropy_map(rgb: np.ndarray, window_px: int = 15) -> EntropyMap:
    """Shannon entropy of the grayscale histogram in a sliding window:
    the one map of `entropy_maps([rgb], window_px)`, its values read-only."""
    return next(entropy_maps([rgb], window_px))


def entropy_maps(rgbs, window_px: int = 15):
    """The entropy map of each image in `rgbs`, in order, as a generator.

    Borders are replicate-padded so every pixel sees a full window.  The
    first image, and any image whose shape differs from the one before,
    is counted in full.  A later one copies the previous map and
    recounts only the bounding box of the pixels whose gray level changed,
    grown by `window_px // 2` and clipped to the image, from the matching
    crop of the edge-padded gray image; with no change it yields the
    previous map's array again.  That is exact: a pixel's entropy
    reads only the levels in its window (a pad cell copies a border pixel
    within `window_px // 2` of every pixel whose window holds it), and a
    level missing from a crop would only have subtracted a `0.0` term, so
    the terms present are still summed in the same ascending level order.
    The yielded values are read-only, because the next map is built from
    them.  No state outlives the generator.  A window that pads an image
    past `MAX_SCENE_PIXELS` raises FoveationError before the pad is made.
    """
    check_window(window_px)
    half = window_px // 2
    gray = values = None
    for rgb in rgbs:
        last, gray = gray, np.round(grayscale(rgb)).astype(np.uint8)
        h, w = gray.shape
        if (h + 2 * half) * (w + 2 * half) > MAX_SCENE_PIXELS:
            raise FoveationError(
                f"a {window_px} px window pads the {w}x{h} image past {MAX_SCENE_PIXELS} pixels")
        padded = np.pad(gray, half, mode="edge")
        if last is None or last.shape != gray.shape:
            values = _count_entropy(padded, window_px)
        else:
            changed = gray != last
            ys, xs = np.flatnonzero(changed.any(axis=1)), np.flatnonzero(changed.any(axis=0))
            if ys.size:
                values = values.copy()
                y0, y1 = max(ys[0] - half, 0), min(ys[-1] + 1 + half, h)
                x0, x1 = max(xs[0] - half, 0), min(xs[-1] + 1 + half, w)
                values[y0:y1, x0:x1] = _count_entropy(
                    padded[y0:y1 + 2 * half, x0:x1 + 2 * half], window_px)
        values.flags.writeable = False
        yield EntropyMap(values=values, window_px=window_px)


def _count_entropy(padded: np.ndarray, window_px: int) -> np.ndarray:
    """Windowed entropy of each pixel whose whole window lies in `padded`,
    an edge-padded `uint8` gray image: `(h, w)` values for an
    `(h + window_px - 1, w + window_px - 1)` input.

    For each gray level present, in ascending order, the window count of
    its indicator is summed first down the rows and then across the
    columns, in the smallest unsigned type that holds `window_px**2`, from
    power-of-two block sums built by doubling (`_window_plan`).  The term
    `p * log2(p)` for `p = count / area` is looked up in a table indexed
    by that count (0 for an empty count) and subtracted, a slice at a
    time.  `uint8` counts (windows up to 15) are gathered two at a time
    from `_pair_table`.  The maps are byte-identical to the float
    summed-area-table version kept as `_entropy_map_cumsum` in the tests,
    and match a brute-force per-pixel histogram to 1e-9.

    Every pass runs on flat C-order buffers of padded-width rows: a shift
    down by b rows is an offset of b * padded width, and a shift across
    by b columns an offset of b.  A window that starts in the last
    `window_px - 1` columns of a row runs on into the next row, so its
    count is wrapped; those are exactly the padded columns past the
    image width, and they are cropped before the values are returned.  A
    wrapped count is still a sum of `window_px` column counts, so it
    never exceeds the area and indexes the table safely.  Small frames
    count up to 8 levels per pass, stacked one even `stride` apart in
    about 2**17 entries; counts between two levels are wrapped ones too.
    """
    h, w = (n - window_px + 1 for n in padded.shape)
    wp = padded.shape[1]
    area = window_px * window_px

    count_type = np.min_scalar_type(area)  # counts reach `area`, never more
    flat = padded.ravel()
    stride = flat.size + flat.size % 2
    batch = min(max((1 << 17) // stride, 1), 8)
    ind = np.zeros((batch - 1) * stride + flat.size, dtype=bool)
    rows = np.empty((batch - 1) * stride + h * wp, dtype=count_type)  # counts down columns
    # pixel (y, x) sits at y * wp + x; counts stop window_px - 1 short of
    # h * wp, in the last row's padded columns, where a window would run
    # past the end of `rows`; m rounds that up to whole pairs with a zero
    m = (h * wp - window_px + 2) // 2 * 2
    counts = np.zeros((batch - 1) * stride + m, dtype=count_type)
    calls = (_window_plan(ind.view(np.uint8), window_px, wp, rows)
             + _window_plan(rows, window_px, 1, counts[:len(rows) - window_px + 1]))
    term = np.empty(_SLICE)
    if count_type == np.uint8:
        index, table = counts.view(np.uint16), _pair_table(area)
    else:
        index, table = counts, _term_table(area)
    gathered = term.view(table.dtype)
    per = len(term) // len(gathered)  # counts per gather
    entropy = np.zeros(h * wp)
    cuts = [(s, min(_SLICE, m - s)) for s in range(0, m, _SLICE)]
    # per stacked level: (index, gathered, term, entropy) slices
    slices = [[(index[(g * stride + s) // per:(g * stride + s + n) // per], gathered[:n // per],
                term[:n], entropy[s:s + n]) for s, n in cuts] for g in range(batch)]
    levels = np.flatnonzero(np.bincount(flat, minlength=256)).astype(np.uint8)
    # one pass per `batch` gray levels present, in ascending order
    for group in np.split(levels, range(batch, len(levels), batch)):
        for g, level in enumerate(group):
            np.equal(flat, level, out=ind[g * stride:g * stride + flat.size])
        for ufunc, a, b, out in calls:
            ufunc(a, b, out=out, dtype=count_type)
        for g in range(len(group)):
            for c, t, tf, e in slices[g]:
                # every index is in the table, so "clip" never fires; it
                # is the fast gather mode for a small-integer index
                table.take(c, out=t, mode="clip")
                np.subtract(e, tf, out=e)
    return entropy.reshape(h, wp)[:, :w].copy()


def max_entropy_roi(emap: EntropyMap, roi_dims_px: tuple[int, int]) -> ROI:
    """Placement of a fixed-size window maximizing summed entropy.

    Exact search over all placements via a summed-area table; ties go to
    the smallest (y0, x0) in row-major order.  Returned ROI defaults to
    all-inside density (inside 1.0, outside 0.0).
    """
    values = emap.values
    h, w = values.shape
    rw, rh = roi_dims_px
    if rw < 1 or rh < 1 or rw > w or rh > h:
        raise ROIOutOfBounds(f"ROI window {rw}x{rh} does not fit {w}x{h} map")
    sat = values.cumsum(axis=0).cumsum(axis=1)
    sat = np.pad(sat, ((1, 0), (1, 0)))
    sums = (
        sat[rh:, rw:]
        - sat[:-rh, rw:]
        - sat[rh:, :-rw]
        + sat[:-rh, :-rw]
    )
    flat = int(np.argmax(sums))  # first maximum in row-major order = smallest (y0, x0)
    y0, x0 = divmod(flat, sums.shape[1])
    return ROI(x0=x0, y0=y0, x1=x0 + rw, y1=y0 + rh)


@dataclass(frozen=True)
class BackgroundModel:
    """Running-mean background for motion foveation.

    mean_gray        float64 running mean, or None before the first frame
    alpha            update weight for the newest frame
    diff_threshold   gray-level change that counts as motion
    min_blob_area_px smallest connected region worth an ROI
    margin_px        dilation applied to the detected bounding box
    """

    mean_gray: np.ndarray | None = None
    alpha: float = 0.05
    diff_threshold: float = 25.0
    min_blob_area_px: int = 100
    margin_px: int = 10

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0 < self.diff_threshold < np.inf:
            raise ValueError(f"diff threshold must be finite and > 0, got {self.diff_threshold}")
        if self.min_blob_area_px < 1:
            raise ValueError("min blob area must be >= 1")
        if self.margin_px < 0:
            raise ValueError("margin must be >= 0")


def _open3x3(mask: np.ndarray) -> np.ndarray:
    """Binary opening of a bool mask by a 3x3 square with a zero border:
    a 3x3 AND (erosion) and then a 3x3 OR (dilation), each one 3-tap pass
    along the rows and one down the columns of the zero-padded mask.
    Equal to `scipy.ndimage.binary_opening(mask, structure=np.ones((3, 3)))`,
    whose `border_value` is 0."""
    out = mask
    for op in (np.logical_and, np.logical_or):
        padded = np.pad(out, 1)
        rows = op(op(padded[:, :-2], padded[:, 1:-1]), padded[:, 2:])
        out = op(op(rows[:-2], rows[1:-1]), rows[2:])
    return out


def _largest_component(mask: np.ndarray) -> tuple[int, int, int, int, int] | None:
    """(area, y0, x0, y1, x1) of the largest 8-connected component of a
    bool mask, its bounding box half-open; None for an empty mask.  Of
    equal-size components the one whose first pixel comes first in raster
    order wins, as `argmax` over `scipy.ndimage.label`'s labels does.

    No label image is built.  The row runs come from one `np.diff` of the
    mask with a zero column on each side, keyed by their flat index in that
    `(h, w + 2)` layout: `start` is a run's first pixel, `end` one past its
    last.  Run a touches run b of the row above, diagonals included, when
    `start_a <= end_b` and `end_a >= start_b` on a's keys moved up one
    row; the zero columns keep those keys clear of every other row, so two
    `searchsorted` calls give each run its touching runs as one index
    range.  Runs merge by union-find: each round hooks every root onto the
    smallest root it touches, then jumps pointers until every run points at
    its root.  A root is thus always the component's first run in raster
    order.  Every component that still touches another either hooks or is
    hooked onto, so each round at least halves their number, and the
    rounds stay logarithmic even for a spiral or serpentine whose runs
    chain end to end.
    """
    wp = mask.shape[1] + 2
    edges = np.diff(np.pad(mask, ((0, 0), (1, 1))).ravel().view(np.int8))
    starts = np.flatnonzero(edges == 1) + 1
    if not starts.size:
        return None
    ends = np.flatnonzero(edges == -1) + 1
    lo = np.searchsorted(ends, starts - wp, side="left")
    hi = np.searchsorted(starts, ends - wp, side="right")
    touching = np.maximum(hi - lo, 0)
    # one (a, b) pair per touch: b runs from lo to hi - 1 for each a
    run_a = np.repeat(np.arange(starts.size), touching)
    run_b = np.arange(run_a.size) - np.repeat(np.cumsum(touching) - touching - lo, touching)
    parent = np.arange(starts.size)
    while run_a.size:
        root_a, root_b = parent[run_a], parent[run_b]
        apart = root_a != root_b
        run_a, run_b = run_a[apart], run_b[apart]
        root_a, root_b = root_a[apart], root_b[apart]
        np.minimum.at(parent, np.maximum(root_a, root_b), np.minimum(root_a, root_b))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    sizes = np.bincount(parent, weights=ends - starts)
    best = int(np.argmax(sizes))
    member = parent == best
    rows, firsts = np.divmod(starts[member], wp)  # padded columns: x + 1
    lasts = ends[member] % wp
    return (int(sizes[best]), int(rows.min()), int(firsts.min()) - 1,
            int(rows.max()) + 1, int(lasts.max()) - 1)


def update_and_detect(
    model: BackgroundModel, rgb: np.ndarray
) -> tuple[BackgroundModel, ROI | None]:
    """Detect motion against the running mean, then fold the frame in.

    Pipeline: |gray - mean| > threshold, 3x3 morphological opening
    (`_open3x3`), the largest 8-connected component found from the row
    runs by union-find (`_largest_component`) if its area is at least
    min_blob_area_px, and its bounding box dilated by margin_px and
    clamped to the image.  Returns the updated model and the ROI (None
    when nothing moved).  The first frame only seeds the mean.
    """
    gray = grayscale(rgb)
    if model.mean_gray is None:
        return replace(model, mean_gray=gray), None
    if model.mean_gray.shape != gray.shape:
        raise FoveationError(
            f"frame is {gray.shape}, background model is {model.mean_gray.shape}"
        )

    diff = np.abs(gray - model.mean_gray) > model.diff_threshold
    blob = _largest_component(_open3x3(diff))
    roi = None
    if blob is not None and blob[0] >= model.min_blob_area_px:
        _, y0, x0, y1, x1 = blob
        h, w = gray.shape
        m = model.margin_px
        roi = ROI(x0=max(0, x0 - m), y0=max(0, y0 - m),
                  x1=min(w, x1 + m), y1=min(h, y1 + m))

    new_mean = (1.0 - model.alpha) * model.mean_gray + model.alpha * gray
    return replace(model, mean_gray=new_mean), roi

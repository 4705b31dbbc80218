"""Scan-pattern scheduling for a MEMS-steered single-beam rangefinder.

The rangefinder delivers a fixed stream of depth measurements per second;
a scan mirror steers each one.  At a target frame rate, the per-frame
sample budget is what is left of the frame period after fixed per-frame
overhead, times the measurement rate:

    budget(fps) = floor((1/fps - overhead) * rate)

Pattern generators spend that budget three ways: an equi-angular serpentine
grid over the full FOV, an entropy-weighted random pattern, and a foveated
pattern that concentrates density inside a region of interest.  Angles are
apex radians; (theta, phi) = (azimuth, elevation) relative to the optical
axis, positive toward +x / +y in image coordinates.

The mirror and guide camera are co-located with matched horizontal FOV,
so angle <-> pixel mapping is the shared pinhole  x = cx + fx*tan(theta).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .scene_io import Intrinsics, pinhole_intrinsics

DEFAULT_SAMPLE_RATE_HZ = 1600.0
DEFAULT_MIRROR_FOV_RAD = math.radians(25.0)
MAX_FRAME_BUDGET = 1 << 20  # samples per frame: ~700x the reference mirror's at 1 fps
# points in the largest grid `gen_foveated` lays to place its outside-ROI samples;
# its first grid holds at most about twice the frame budget
MAX_OUTSIDE_GRID = 4 * MAX_FRAME_BUDGET

# Measured frame-rate / samples-per-frame pairs for the reference engine;
# fit_budget() recovers (rate, overhead) from them.
REFERENCE_BUDGET_PAIRS = (
    (30.0, 28), (24.0, 40), (18.0, 60), (12.0, 104), (6.0, 231),
)


class ScanEngineError(ValueError):
    pass


class OverheadExceedsFrame(ScanEngineError):
    """Frame period leaves no time for sampling at this fps."""


class DegenerateMap(UserWarning):
    """Importance map carries no signal; generator fell back to the grid."""


class ROIOutOfBounds(ScanEngineError):
    """Region of interest does not fit the image."""


class Regime(str, Enum):
    FULL_FOV = "full_fov"
    ENTROPY_ADAPTIVE = "entropy_adaptive"
    FOVEATED_ROI = "foveated_roi"
    DENSITY_SWEEP = "density_sweep"


@dataclass(frozen=True)
class MirrorModel:
    """Scan mirror + rangefinder timing.

    fov_rad            full scan FOV, apex angle (rad)
    sample_rate_hz     depth measurements per second
    frame_overhead_s   fixed per-frame dead time (readout, flyback)
    """

    fov_rad: float = DEFAULT_MIRROR_FOV_RAD
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ
    frame_overhead_s: float = 0.0

    def __post_init__(self):
        if not 0 < self.fov_rad <= math.pi:
            raise ScanEngineError(f"mirror FOV must be in (0, pi] rad, got {self.fov_rad}")
        if not 0 < self.sample_rate_hz < math.inf:
            raise ScanEngineError(f"sample rate must be finite and > 0, got {self.sample_rate_hz}")
        if not 0 <= self.frame_overhead_s < math.inf:
            raise ScanEngineError(f"overhead must be finite and >= 0, got {self.frame_overhead_s}")


@dataclass(frozen=True)
class ROI:
    """Pixel-space region of interest with sampling density weights.

    The rectangle spans [x0, x1) x [y0, y1).  Densities are relative
    per-pixel sampling weights in [0, 1] with inside >= outside; the
    foveated generator splits the budget so per-area densities honor
    their ratio.
    """

    x0: int
    y0: int
    x1: int
    y1: int
    inside_density: float = 1.0
    outside_density: float = 0.0

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ROIOutOfBounds(f"empty ROI rectangle {(self.x0, self.y0, self.x1, self.y1)}")
        if not (0.0 <= self.outside_density <= 1.0 and 0.0 <= self.inside_density <= 1.0):
            raise ScanEngineError("densities must be in [0, 1]")
        if self.inside_density < self.outside_density:
            raise ScanEngineError("inside density must be >= outside density")

    def validate_bounds(self, width: int, height: int) -> None:
        if self.x0 < 0 or self.y0 < 0 or self.x1 > width or self.y1 > height:
            raise ROIOutOfBounds(
                f"ROI {(self.x0, self.y0, self.x1, self.y1)} outside {width}x{height} image"
            )

    @property
    def area_px(self) -> int:
        return (self.x1 - self.x0) * (self.y1 - self.y0)


# one scheduled mirror direction per record, in schedule order
SCAN_SAMPLE_DTYPE = np.dtype([("t_s", "f8"), ("theta_rad", "f8"), ("phi_rad", "f8")])


# what `json` prints for the non-finite floats, by their `float.__repr__`
_NON_FINITE_JSON = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_values(values: list) -> list[str]:
    """Each value as `json.dumps` prints it; floats and ints by their repr."""
    kinds = set(map(type, values))
    if kinds == {float}:
        text = list(map(float.__repr__, values))
        if all(map(math.isfinite, values)):
            return text
        return [_NON_FINITE_JSON.get(t, t) for t in text]
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {str}:
        # a column of names repeats a few of them: each is encoded once
        text = {v: json.dumps(v) for v in set(values)}
        return list(map(text.__getitem__, values))
    return list(map(json.dumps, values))


def records_json(columns: dict[str, list], level: int = 0) -> str:
    """`json.dumps(rows, indent=2, sort_keys=True)` for the list of flat
    records whose fields `columns` holds (name -> one value per record),
    as printed `level` containers deep.

    Each record is written from one template with its keys in sorted
    order, instead of through the pure-Python indented encoder, and comes
    out byte for byte the same.
    """
    names = sorted(columns)
    texts = [_json_values(columns[name]) for name in names]
    if not names or not texts[0]:
        return "[]"
    pad = "  " * level
    fields = ",\n".join(f"{pad}    {json.dumps(name)}: %s" for name in names)
    template = f"{pad}  {{\n{fields}\n{pad}  }}"
    body = ",\n".join(map(template.__mod__, zip(*texts)))
    return f"[\n{body}\n{pad}]"


def json_with_records(doc: dict, key: str, samples: np.recarray) -> str:
    """`json.dumps({**doc, key: rows}, indent=2, sort_keys=True)`, the rows
    being the records of `samples`, written from their columns."""
    text = json.dumps({**doc, key: []}, indent=2, sort_keys=True)
    rows = records_json({name: samples[name].tolist() for name in samples.dtype.names}, 1)
    # a raw newline is never inside a JSON string, so this is the top-level key
    return text.replace(f'\n  "{key}": []', f'\n  "{key}": {rows}', 1)


def _json_column(values: list, dtype: np.dtype) -> np.ndarray:
    """JSON values as one column, refusing what `np.array` would coerce:
    anything but an int or a float (bools, strings, nulls), and in an
    integer field a float that is not a whole number."""
    kinds = set(map(type, values)) - {int, float}
    if kinds:
        raise TypeError(f"expected numbers, got {', '.join(sorted(k.__name__ for k in kinds))}")
    if dtype.kind == "i" and not all(v.is_integer() for v in values if type(v) is float):
        raise ScanEngineError("expected whole numbers in an integer field")
    try:
        return np.array(values, dtype=dtype)
    except OverflowError as exc:
        raise ScanEngineError(f"value out of range ({exc})") from None


def records_from_dicts(rows, dtype: np.dtype) -> np.recarray:
    """Sample record array from JSON rows; KeyError/TypeError/ValueError on bad rows."""
    return np.rec.fromarrays(
        [_json_column([row[name] for row in rows], dtype[name]) for name in dtype.names],
        dtype=dtype,
    )


@dataclass
class ScanPattern:
    """Time-ordered mirror directions for one frame.

    samples   record array of SCAN_SAMPLE_DTYPE, one record per scheduled
              direction in schedule order: `samples.theta_rad` is the
              azimuth column, `samples[i]` the i-th record.
    """

    samples: np.recarray
    fps: float
    regime: Regime
    seed: int | None = None
    budget: int | None = None

    def __len__(self) -> int:
        return len(self.samples)

    def to_json(self) -> str:
        doc = {"fps": self.fps, "regime": self.regime.value, "seed": self.seed,
               "budget": self.budget}
        return json_with_records(doc, "samples", self.samples)


@dataclass(frozen=True)
class BudgetFit:
    sample_rate_hz: float
    frame_overhead_s: float
    residual_rmse: float
    residuals: tuple[float, ...]

    def mirror_model(self, fov_rad: float = DEFAULT_MIRROR_FOV_RAD) -> MirrorModel:
        """The mirror of this timing, scanning `fov_rad`."""
        return MirrorModel(fov_rad, self.sample_rate_hz, self.frame_overhead_s)


# ---------- timing ----------

def budget(model: MirrorModel, fps: float) -> int:
    """Samples available per frame at the requested rate, at most MAX_FRAME_BUDGET."""
    if not fps > 0:
        raise ScanEngineError(f"fps must be > 0, got {fps}")
    frame_s = 1.0 / fps
    if frame_s <= model.frame_overhead_s:
        raise OverheadExceedsFrame(
            f"frame period {frame_s:.6f} s <= overhead {model.frame_overhead_s:.6f} s"
        )
    samples = (frame_s - model.frame_overhead_s) * model.sample_rate_hz
    if samples >= MAX_FRAME_BUDGET + 1:
        raise ScanEngineError(f"{fps:g} fps gives {samples:.6g} samples, over {MAX_FRAME_BUDGET}")
    n = int(math.floor(samples))
    if n < 1:
        raise OverheadExceedsFrame(
            f"frame period {frame_s:.6f} s leaves {frame_s - model.frame_overhead_s:.6f} s "
            f"after overhead, less than one sample period at {model.sample_rate_hz:g} Hz"
        )
    return n


def fps_for_budget(model: MirrorModel, n_samples: int) -> float:
    """Frame rate at which the budget is exactly n_samples (inverse of budget)."""
    if n_samples < 1:
        raise ScanEngineError(f"need >= 1 sample, got {n_samples}")
    # pad by a sliver of a sample so budget's floor lands on n despite rounding
    return 1.0 / ((n_samples + 1e-9) / model.sample_rate_hz + model.frame_overhead_s)


class SingularFit(ScanEngineError):
    """Observations cannot pin down the two parameters of a line."""


def fit_budget(observations) -> BudgetFit:
    """Least-squares (rate, overhead) from (fps, samples) observations.

    The model is linear once rewritten as samples = rate/fps - rate*overhead,
    so an ordinary least-squares solve recovers both parameters.  Fewer than
    two observations, a non-finite observation or period, or observations
    that share one fps raise SingularFit.
    """
    observations = [(float(fps), n) for fps, n in observations]
    if any(fps <= 0.0 for fps, _ in observations):
        raise SingularFit(f"every observation's fps must be > 0, got {observations}")
    points = [(fps, float(n)) for fps, n in observations]
    if len(points) < 2:
        raise SingularFit(f"need >= 2 observations, got {len(points)}")
    periods = np.array([1.0 / fps for fps, _ in points])
    samples = np.array([n for _, n in points])
    if not (np.isfinite(points).all() and np.isfinite(periods).all()):
        raise SingularFit(f"observations must be finite, got {points}")
    if np.ptp(periods) == 0.0:
        raise SingularFit("all observations share one fps; overhead is unidentifiable")
    design = np.stack([periods, np.full_like(periods, -1.0)], axis=1)
    (rate, rate_x_overhead), *_ = np.linalg.lstsq(design, samples, rcond=None)
    if rate <= 0.0:
        raise SingularFit(f"fitted rate {rate:g} Hz is not positive")
    overhead = rate_x_overhead / rate
    residuals = tuple(float(r) for r in design @ (rate, rate_x_overhead) - samples)
    rmse = float(np.sqrt(np.mean(np.square(residuals))))
    return BudgetFit(
        sample_rate_hz=float(rate),
        frame_overhead_s=float(overhead),
        residual_rmse=rmse,
        residuals=residuals,
    )


def reference_mirror_model(fov_rad: float = DEFAULT_MIRROR_FOV_RAD) -> MirrorModel:
    """Mirror model with timing fitted to the reference budget table."""
    return fit_budget(REFERENCE_BUDGET_PAIRS).mirror_model(fov_rad)


# ---------- angle <-> pixel mapping (shared-FOV pinhole) ----------

def image_intrinsics(model: MirrorModel, image_dims: tuple[int, int]) -> Intrinsics:
    """Pinhole intrinsics for a camera sharing the mirror's horizontal FOV."""
    return pinhole_intrinsics(*image_dims, model.fov_rad)


def pixel_to_angles(
    px: np.ndarray, py: np.ndarray, intr: Intrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-center coordinates to mirror angles (apex radians)."""
    theta = np.arctan((np.asarray(px, dtype=np.float64) + 0.5 - intr.cx_px) / intr.fx_px)
    phi = np.arctan((np.asarray(py, dtype=np.float64) + 0.5 - intr.cy_px) / intr.fy_px)
    return theta, phi


def angles_to_pixel(
    theta_rad: np.ndarray, phi_rad: np.ndarray, intr: Intrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Mirror angles to continuous pixel coordinates (floor to index)."""
    px = intr.cx_px + intr.fx_px * np.tan(np.asarray(theta_rad, dtype=np.float64))
    py = intr.cy_px + intr.fy_px * np.tan(np.asarray(phi_rad, dtype=np.float64))
    return px, py


def _angular_extent(model: MirrorModel, image_dims: tuple[int, int]) -> tuple[float, float, float, float]:
    """(theta_min, theta_max, phi_min, phi_max) covered by the image's pixel edges."""
    w, h = image_dims
    return _roi_angular_rect(ROI(0, 0, w, h), image_intrinsics(model, image_dims))


# ---------- pattern generators ----------

def _scan_pattern(model: MirrorModel, fps: float, regime: Regime, theta: np.ndarray,
                  phi: np.ndarray, n: int, seed: int | None = None) -> ScanPattern:
    """The pattern of a frame of budget `n`: the directions in schedule
    order, timed overhead first, then one per tick."""
    t_s = model.frame_overhead_s + np.arange(len(theta)) / model.sample_rate_hz
    samples = np.rec.fromarrays([t_s, theta, phi], dtype=SCAN_SAMPLE_DTYPE)
    return ScanPattern(samples=samples, fps=fps, regime=regime, seed=seed, budget=n)


def _serpentine_grid(
    extent: tuple[float, float, float, float], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(theta, phi) of a near-square cell-centered grid of n points, serpentine order.

    Columns = floor(sqrt(n)); rows fill top-down, the last row may be
    partial.  Cell-centering keeps every point strictly inside the extent.
    n = 0 gives empty columns.
    """
    t0, t1, p0, p1 = extent
    cols = max(1, int(math.isqrt(n)))
    rows = max(1, math.ceil(n / cols))
    dt = (t1 - t0) / cols
    dp = (p1 - p0) / rows
    r, c = np.divmod(np.arange(n), cols)
    row_count = np.minimum(cols, n - r * cols)
    c = np.where(r % 2 == 1, row_count - 1 - c, c)  # serpentine: odd rows run backwards to minimize slew
    return t0 + (c + 0.5) * dt, p0 + (r + 0.5) * dp


def _raster(
    model: MirrorModel, fps: float, image_dims: tuple[int, int], density: float, regime: Regime
) -> ScanPattern:
    """Equi-angular serpentine raster over the full (image-clipped) FOV
    with `density` of the budget, at least one sample."""
    n = budget(model, fps)
    theta, phi = _serpentine_grid(_angular_extent(model, image_dims),
                                  max(1, int(round(n * density))))
    return _scan_pattern(model, fps, regime, theta, phi, n)


def gen_full_fov(
    model: MirrorModel, fps: float, image_dims: tuple[int, int]
) -> ScanPattern:
    """Equi-angular serpentine raster over the full (image-clipped) FOV."""
    return _raster(model, fps, image_dims, 1.0, Regime.FULL_FOV)


def check_density(density: float) -> None:
    """The density regime's rule: a budget fraction in (0, 1]."""
    if not 0 < density <= 1:
        raise ScanEngineError(f"density must be in (0, 1], got {density}")


def gen_density_sweep(
    model: MirrorModel, fps: float, image_dims: tuple[int, int], density: float
) -> ScanPattern:
    """Full-FOV raster at a fraction of the budget (density study regime)."""
    check_density(density)
    return _raster(model, fps, image_dims, density, Regime.DENSITY_SWEEP)


def gen_entropy_adaptive(
    model: MirrorModel,
    fps: float,
    entropy_values: np.ndarray,
    seed: int = 0,
) -> ScanPattern:
    """Sample pixels without replacement, weighted by local image entropy.

    Weights are entropy + epsilon with epsilon = 1% of the map maximum, so
    zero-entropy regions keep a trickle of coverage.  An all-zero map has
    nothing to say; the generator warns and falls back to the grid.
    """
    values = np.asarray(entropy_values, dtype=np.float64)
    if values.ndim != 2:
        raise ScanEngineError(f"entropy map must be 2-D, got shape {values.shape}")
    if np.any(values < 0):
        raise ScanEngineError("entropy values must be non-negative")
    h, w = values.shape
    peak = float(values.max()) if values.size else 0.0
    if peak == 0.0:
        warnings.warn(
            "entropy map is all zeros; falling back to the full-FOV grid",
            DegenerateMap,
        )
        return gen_full_fov(model, fps, (w, h))

    n = budget(model, fps)
    weights = values + 0.01 * peak
    p = (weights / weights.sum()).ravel()
    rng = np.random.default_rng(seed)
    flat = rng.choice(values.size, size=min(n, values.size), replace=False, p=p)
    ys, xs = np.divmod(flat, w)
    intr = image_intrinsics(model, (w, h))
    theta, phi = pixel_to_angles(xs, ys, intr)
    return _scan_pattern(model, fps, Regime.ENTROPY_ADAPTIVE, theta, phi, n, seed)


def _roi_angular_rect(
    roi: ROI, intr: Intrinsics
) -> tuple[float, float, float, float]:
    """Angular extent of the ROI rectangle (its pixel-edge bounds)."""
    t0 = math.atan((roi.x0 - intr.cx_px) / intr.fx_px)
    t1 = math.atan((roi.x1 - intr.cx_px) / intr.fx_px)
    p0 = math.atan((roi.y0 - intr.cy_px) / intr.fy_px)
    p1 = math.atan((roi.y1 - intr.cy_px) / intr.fy_px)
    return t0, t1, p0, p1


def gen_foveated(
    model: MirrorModel,
    fps: float,
    roi: ROI,
    image_dims: tuple[int, int],
) -> ScanPattern:
    """Split the budget between ROI and periphery by per-area density.

    Counts are allocated so that (samples/area) inside vs outside matches
    inside_density : outside_density, with the total pinned at the budget.
    Both regions get equi-angular sub-grids; with outside_density = 0 the
    whole budget lands inside the ROI.  An ROI covering the full image
    degenerates to exactly the full-FOV raster.
    """
    w, h = image_dims
    roi.validate_bounds(w, h)
    n = budget(model, fps)
    intr = image_intrinsics(model, image_dims)

    area_in = roi.area_px
    area_out = w * h - area_in
    w_in = roi.inside_density * area_in
    w_out = roi.outside_density * area_out
    if w_in + w_out == 0:
        raise ScanEngineError("ROI densities are both zero; nothing to sample")
    n_in = int(round(n * w_in / (w_in + w_out)))
    n_out = n - n_in

    theta, phi = _serpentine_grid(_roi_angular_rect(roi, intr), n_in)
    if n_out > 0:
        theta_out, phi_out = _outside_grid(roi, intr, model, image_dims, n_out)
        theta, phi = np.concatenate((theta, theta_out)), np.concatenate((phi, phi_out))
    return _scan_pattern(model, fps, Regime.FOVEATED_ROI, theta, phi, n)


def _outside_grid(
    roi: ROI,
    intr: Intrinsics,
    model: MirrorModel,
    image_dims: tuple[int, int],
    n_out: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(theta, phi) of n_out near-uniform points over the full FOV minus the ROI.

    Lays a full-FOV grid sized so that enough points miss the ROI, growing
    it 1.2x until they do, then thins evenly (by serpentine index) to the
    exact count.  A point's pixel is the one `angles_to_pixel` gives it, as
    in capture.  An outside region that no grid of at most
    `MAX_OUTSIDE_GRID` points reaches often enough raises ScanEngineError.
    """
    w, h = image_dims
    frac_out = 1.0 - roi.area_px / (w * h)
    if frac_out <= 0:
        raise ScanEngineError("ROI covers the image; no outside region to sample")
    extent = _angular_extent(model, image_dims)
    m = max(n_out, int(math.ceil(n_out / frac_out)))
    while m <= MAX_OUTSIDE_GRID:
        theta, phi = _serpentine_grid(extent, m)
        ix, iy = np.floor(angles_to_pixel(theta, phi, intr))
        keep = np.flatnonzero(~((roi.x0 <= ix) & (ix < roi.x1) & (roi.y0 <= iy) & (iy < roi.y1)))
        if len(keep) >= n_out:
            keep = keep[np.round(np.linspace(0, len(keep) - 1, n_out)).astype(int)]
            return theta[keep], phi[keep]
        m = max(m + 1, int(m * 1.2))
    raise ScanEngineError(
        f"no grid of at most {MAX_OUTSIDE_GRID} points puts {n_out} samples outside the ROI")

"""Closed-form receiver/transmitter trade-off models for a MEMS-scanned LIDAR.

Three receiver architectures are characterized at a working range Z:

* retroreflective  -- the outgoing MEMS mirror doubles as the receive
  aperture, so the aperture is pinned to the beam waist and the return
  signal falls off steeply with range.
* receiver_array   -- an n x n detector array behind a lens of aperture A;
  wide instantaneous FOV, large focal volume.
* single_detector  -- one detector behind the lens.  With the detector
  in focus (u >= f) the FOV collapses as the target recedes; deliberately
  under-focusing it (u < f) defocuses the return over a blur kernel whose
  angular size is nearly range-independent, buying a consistent FOV at a
  fixed sensitivity cost.

Conventions: SI units (meters, seconds) and *apex* angles in radians
throughout.  Solid-angle steradians appear only in `acuity_gain`, via
``2*pi*(1 - cos(apex/2))``.  Received radiance is reported in inverse
meters: it is a normalized area-times-solid-angle proxy, useful for
comparing designs, not an absolute photon count.

Sweeps are columnar.  `sweep` evaluates the (transmitter, receiver) pairs
of each design kind over the whole range grid in one `_characterize_ranges`
call and returns a dict of numpy columns keyed by the SWEEP_CSV_HEADER
names.  Consecutive rows with equal design fields form a run (each pair's
range block, in a sweep): `format_sweep_csv` formats a run's design fields
once and each distinct per-row float once, and joins the same blocks of
rows that `write_sweep_csv` writes to a file; `find_crossovers` groups
runs, not rows, by transmitter and receiver, and scans the receiver pairs
of every transmitter in one pass over one rr matrix ((transmitter,
receiver) x range).  `characterize` is the same call for one pair at a
single range.  The columns equal a scalar, row-at-a-time
evaluation bit for bit, which is why two things stay scalar: each
transcendental of a range is `math.atan` mapped over the column
(`np.arctan` and `np.tan` take SIMD paths that differ from libm in the last
bit on some inputs), and per-design quantities such as ``A**2`` stay
Python floats (C ``pow`` and numpy's ``x*x`` differ in the last bit on some
values).  Range-dependent ``+ - * /`` run in numpy in the scalar formula's
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# §-style design-space bounds enforced by sweep(): modest beam quality and
# waist, bench-scale receiver optics.
SWEEP_BOUNDS = {
    "beam_quality_m": (1.0, 100.0),
    "waist_radius_m": (0.1e-3, 5e-3),
    "aperture_m": (0.0, 0.10),
    "focal_length_m": (0.0, 50e-3),
    "image_distance_m": (0.0, 50e-3),
}
MAX_SWEEP_ROWS = 1 << 20  # rows of one sweep; 1,036,800 rows peak near 280 MB

SWEEP_CSV_HEADER = (
    "design_kind,M,w0_m,lambda_m,n,A_m,u_m,f_m,Z_m,fov_rad,rr_per_m,volume_m3,flag"
)

FLAG_NONPHYSICAL_DIVERGENCE = "nonphysical_divergence"
FLAG_DEGENERATE_FOCUS = "degenerate_focus"
FLAG_ZERO_KERNEL = "zero_kernel"


class OpticsError(ValueError):
    """Base class for optics errors: a spec, range or sweep grid out of
    range, or a singular focus geometry."""


class DegenerateFocus(OpticsError):
    """Working range equals the focal length: the image distance diverges."""


class ZeroKernel(OpticsError):
    """Detector exactly in focus: blur kernel is a point, radiance unbounded."""


class InvalidVariant(OpticsError):
    """Operation asked for a design variant it does not apply to."""


class DesignKind(str, Enum):
    RETROREFLECTIVE = "retroreflective"
    RECEIVER_ARRAY = "receiver_array"
    SINGLE_DETECTOR = "single_detector"


@dataclass(frozen=True)
class TransmitterSpec:
    """Laser + MEMS scan mirror parameters.

    beam_quality_m        M^2-style beam quality factor, >= 1 (dimensionless)
    waist_radius_m        beam waist radius w_o at the mirror (m)
    wavelength_m          laser wavelength (m)
    mirror_fov_rad        full scan FOV of the mirror, apex angle (rad), in (0, pi]
    """

    beam_quality_m: float
    waist_radius_m: float
    wavelength_m: float
    mirror_fov_rad: float

    def __post_init__(self):
        if not self.beam_quality_m >= 1.0:
            raise OpticsError(f"beam quality must be >= 1, got {self.beam_quality_m}")
        if not self.waist_radius_m > 0:
            raise OpticsError(f"waist radius must be > 0, got {self.waist_radius_m}")
        if not self.wavelength_m > 0:
            raise OpticsError(f"wavelength must be > 0, got {self.wavelength_m}")
        if not 0 < self.mirror_fov_rad <= math.pi:
            raise OpticsError(
                f"mirror FOV must be in (0, pi] rad, got {self.mirror_fov_rad}"
            )


@dataclass(frozen=True)
class ReceiverSpec:
    """Receive-side optics.

    design_kind           one of DesignKind
    aperture_m            lens aperture diameter A (m); ignored for the
                          retroreflective design, whose aperture is the
                          mirror itself (the transmit waist)
    image_distance_m      lens-to-detector distance u (m)
    focal_length_m        lens focal length f (m)
    detector_count_n      detectors per side of the array (n x n); 1 for
                          the single-detector and retroreflective designs
    """

    design_kind: DesignKind
    aperture_m: float
    image_distance_m: float
    focal_length_m: float
    detector_count_n: int = 1

    def __post_init__(self):
        if not self.aperture_m > 0:
            raise OpticsError(f"aperture must be > 0, got {self.aperture_m}")
        if not self.image_distance_m > 0:
            raise OpticsError(f"image distance must be > 0, got {self.image_distance_m}")
        if not self.focal_length_m > 0:
            raise OpticsError(f"focal length must be > 0, got {self.focal_length_m}")
        if self.detector_count_n < 1:
            raise OpticsError(f"detector count must be >= 1, got {self.detector_count_n}")
        if self.design_kind != DesignKind.RECEIVER_ARRAY and self.detector_count_n != 1:
            raise OpticsError(f"{self.design_kind.value} design requires n = 1")


@dataclass(frozen=True)
class CameraSpec:
    """Guide-camera geometry for angular-acuity comparisons.

    fov_rad         full camera FOV, apex angle (rad)
    pixel_count     total pixel count I (e.g. 640*480)
    """

    fov_rad: float
    pixel_count: int

    def __post_init__(self):
        if not 0 < self.fov_rad <= math.pi:
            raise OpticsError(f"camera FOV must be in (0, pi] rad, got {self.fov_rad}")
        if self.pixel_count < 1:
            raise OpticsError(f"pixel count must be >= 1, got {self.pixel_count}")


@dataclass(frozen=True)
class DesignCharacterization:
    """Figures of merit for one design at one working range.

    fov_rad          instantaneous receive FOV, apex angle (rad); always
                     capped at the mirror scan FOV
    rr_per_m         received radiance proxy (1/m); +inf on singular rows
    volume_m3        light-collecting focal volume (m^3)
    range_m          working range Z this row was evaluated at (m)
    flag             "" when healthy; otherwise semicolon-joined warnings
                     (nonphysical_divergence, degenerate_focus, zero_kernel)
    """

    fov_rad: float
    rr_per_m: float
    volume_m3: float
    range_m: float
    flag: str = ""


def apex_to_solid_angle(apex_rad: float) -> float:
    """Solid angle (sr) of a cone with the given apex angle (rad)."""
    return 2.0 * math.pi * (1.0 - math.cos(apex_rad / 2.0))


def solid_angle_to_apex(solid_sr: float) -> float:
    """Apex angle (rad) of a cone subtending the given solid angle (sr)."""
    if not 0 <= solid_sr <= 4 * math.pi:
        raise OpticsError(f"solid angle must be in [0, 4*pi] sr, got {solid_sr}")
    return 2.0 * math.acos(1.0 - solid_sr / (2.0 * math.pi))


def beam_divergence(tx: TransmitterSpec) -> float:
    """Full divergence apex angle (rad) of the scanned beam.

    Diffraction-limited Gaussian-beam divergence scaled by beam quality:
    grows with beam quality squared and wavelength, shrinks with waist.
    Values >= pi are non-physical (the formula has left its small-angle
    validity); callers flag but do not reject them.
    """
    return (
        tx.beam_quality_m**2
        * tx.wavelength_m
        / (tx.waist_radius_m * math.pi)
    )


def divergence_is_physical(omega_laser_rad: float) -> bool:
    return omega_laser_rad < math.pi


def acuity_gain(tx: TransmitterSpec, cam: CameraSpec) -> float:
    """How much coarser the laser dot is than one camera pixel.

    Ratio of the dot's solid angle to the per-pixel solid angle of the
    guide camera.  A gain of ~1000 means one depth sample covers about a
    thousand camera pixels worth of angular resolution, which is the
    opening for guided completion: the camera sees structure the scanner
    cannot afford to sample.
    """
    dot_sr = apex_to_solid_angle(beam_divergence(tx))
    pixel_sr = apex_to_solid_angle(cam.fov_rad) / cam.pixel_count
    return dot_sr / pixel_sr


def fov_limit_underfocused(rx: ReceiverSpec) -> float:
    """Large-range FOV limit (rad) of the under-focused single detector.

    As Z -> inf the blur kernel apex settles at 2*atan(A*(f-u)/(2*u*f)),
    which is why the under-focused variant keeps a near-constant FOV.
    Only defined for u < f.
    """
    if rx.design_kind != DesignKind.SINGLE_DETECTOR:
        raise InvalidVariant(f"FOV limit applies to single_detector, not {rx.design_kind.value}")
    if not rx.image_distance_m < rx.focal_length_m:
        raise InvalidVariant(
            f"FOV limit requires under-focus (u < f); got u={rx.image_distance_m}, "
            f"f={rx.focal_length_m}"
        )
    a, u, f = rx.aperture_m, rx.image_distance_m, rx.focal_length_m
    return 2.0 * math.atan(a * (f - u) / (2.0 * u * f))


def _changes(keys: np.ndarray) -> np.ndarray:
    """Indices of the entries that differ from the one before, the first included."""
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(new)


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct entries of a 1-D array, and each entry's index
    among them.  Equal neighbours are looked up once (a run-length pass),
    and only the run heads are sorted."""
    heads = _changes(keys)
    compress = len(heads) < len(keys)
    head_keys = keys[heads] if compress else keys
    distinct = np.sort(head_keys)
    distinct = distinct[_changes(distinct)]
    codes = np.searchsorted(distinct, head_keys)
    if compress:
        codes = np.repeat(codes, np.diff(heads, append=len(keys)))
    return distinct, codes


def _atan(x: np.ndarray) -> np.ndarray:
    """math.atan over an array, once per distinct value (by bit pattern);
    np.arctan's SIMD path differs from libm."""
    distinct, codes = _distinct(np.ascontiguousarray(x).view(np.int64).ravel())
    values = distinct.view(np.float64).tolist()
    atan = np.fromiter(map(math.atan, values), dtype=np.float64, count=len(values))
    return atan[codes].reshape(x.shape)


def _column(values) -> np.ndarray:
    """Per-pair Python floats stacked into a (pairs, 1) column."""
    return np.array(values, dtype=np.float64)[:, None]


# Flag text by code: 3 * (divergence non-physical) + (1 degenerate focus,
# 2 zero kernel, 0 neither).
_FLAG_TEXT = (
    "", FLAG_DEGENERATE_FOCUS, FLAG_ZERO_KERNEL,
    FLAG_NONPHYSICAL_DIVERGENCE,
    FLAG_NONPHYSICAL_DIVERGENCE + ";" + FLAG_DEGENERATE_FOCUS,
    FLAG_NONPHYSICAL_DIVERGENCE + ";" + FLAG_ZERO_KERNEL,
)


def _characterize_ranges(pairs, z: np.ndarray):
    """fov, rr, volume and flag code of (transmitter, receiver) pairs of one
    design kind over the ranges z (m).

    This is the one implementation of the receiver formulas.  It returns a
    (pairs, ranges) block per quantity, or a (pairs, 1) column where it does
    not depend on range; volume has one entry per pair, and each flag code
    indexes _FLAG_TEXT.  Per-pair quantities are Python floats computed once
    per pair (``x**2`` is C ``pow``, which differs from numpy's ``x*x`` in
    the last bit) and stacked into columns; range-dependent ``+ - * /`` run
    in numpy in the scalar formula's order, and every transcendental of a
    range goes through `_atan`, so each entry equals the scalar evaluation
    bit for bit.  Single-detector singularities become sentinel entries
    (fov 0, rr +inf) whose flag code carries the reason.

    Raises OpticsError for the first (pair, range), in row order, whose range
    is not finite and > 0, or lies below a single detector's focal length.
    """
    kind = pairs[0][1].design_kind
    shape = (len(pairs), len(z))
    f = _column([rx.focal_length_m for _, rx in pairs])
    bad = ~(np.isfinite(z) & (z > 0))
    if kind == DesignKind.SINGLE_DETECTOR:
        bad = bad | (z < f)
    bad = np.broadcast_to(bad, shape)
    if bad.any():
        p, k = divmod(int(bad.argmax()), len(z))
        z_bad = z[k].item()
        if not (math.isfinite(z_bad) and z_bad > 0):
            raise OpticsError(f"range must be finite and > 0, got {z_bad}")
        raise OpticsError(
            f"single-detector geometry needs Z > f; got Z={z_bad}, "
            f"f={pairs[p][1].focal_length_m}"
        )
    omegas = [beam_divergence(tx) for tx, _ in pairs]
    omega_laser = _column(omegas)
    omega_mirror = _column([tx.mirror_fov_rad for tx, _ in pairs])
    falloff = 2.0 * z * _column([math.tan(w / 2.0) for w in omegas])
    code = np.array([0 if divergence_is_physical(w) else 3 for w in omegas],
                    dtype=np.int8)[:, None]

    if kind == DesignKind.RETROREFLECTIVE:
        # Mirror is the aperture: receive cone subtends the waist, capped
        # at the transmit divergence (cannot receive more than was sent).
        w0 = _column([tx.waist_radius_m for tx, _ in pairs])
        received_apex = np.minimum(2.0 * _atan(w0 / (2.0 * z)), omega_laser)
        rr = (received_apex / omega_laser) / falloff
        volume = [math.pi * rx.image_distance_m * tx.waist_radius_m**2 / 12.0
                  for tx, rx in pairs]
        fov = omega_mirror
    elif kind == DesignKind.RECEIVER_ARRAY:
        rr = 1.0 / falloff
        volume = [rx.image_distance_m * rx.aperture_m**2 for _, rx in pairs]
        fov = _column([
            min(2.0 * math.atan(rx.aperture_m / (2.0 * rx.image_distance_m)),
                tx.mirror_fov_rad)
            for tx, rx in pairs
        ])
    elif kind == DesignKind.SINGLE_DETECTOR:
        # A target at range Z images at u' = f*Z/(Z - f).  A detector at u
        # sees that image defocused into a kernel of diameter |u - u'| * A / u';
        # its apex angle is taken at the detector distance u.  Z == f
        # (degenerate focus) and u == u' (zero kernel) are sentinel entries.
        a = _column([rx.aperture_m for _, rx in pairs])
        u = _column([rx.image_distance_m for _, rx in pairs])
        with np.errstate(divide="ignore", invalid="ignore"):
            u_image = f * z / (z - f)
            kernel_diameter = np.abs(u - u_image) * a / u_image
            kernel_apex = 2.0 * _atan(kernel_diameter / (2.0 * u))
            rr = 1.0 / (kernel_apex * falloff)
        volume = [math.pi * rx.image_distance_m * rx.aperture_m**2 / 12.0
                  for _, rx in pairs]
        fov = np.minimum(kernel_apex, omega_mirror)
        degenerate = z == f
        zero = ~degenerate & (kernel_diameter == 0.0)
        sentinel = degenerate | zero
        fov[sentinel] = 0.0
        rr[sentinel] = math.inf
        code = code + np.where(degenerate, 1, np.where(zero, 2, 0)).astype(np.int8)
    else:  # pragma: no cover - enum is closed
        raise InvalidVariant(f"unknown design kind {kind}")
    return fov, rr, volume, code


def characterize(
    tx: TransmitterSpec, rx: ReceiverSpec, range_m: float
) -> DesignCharacterization:
    """Evaluate FOV, received radiance, and focal volume at one range.

    Parameters
    ----------
    tx, rx : transmitter and receiver geometry.
    range_m : working range Z (m); must be finite and > 0, and > f for
        the single-detector focus geometry.

    Raises
    ------
    DegenerateFocus, ZeroKernel for the single-detector singularities;
    sweep() emits these as sentinel rows rather than dropping them.
    """
    fov, rr, volume, code = _characterize_ranges(
        [(tx, rx)], np.array([range_m], dtype=np.float64)
    )
    code = int(code[0, 0])
    if code % 3 == 1:
        raise DegenerateFocus(
            f"working range {range_m} m equals focal length; image distance diverges"
        )
    if code % 3 == 2:
        raise ZeroKernel(
            f"detector exactly in focus at Z={range_m} m "
            f"(u = u' = {rx.image_distance_m} m)"
        )
    return DesignCharacterization(
        fov_rad=float(fov[0, 0]), rr_per_m=float(rr[0, 0]), volume_m3=volume[0],
        range_m=range_m, flag=_FLAG_TEXT[code],
    )


def _check_sweep_bounds(tx_grid, rx_grid) -> None:
    for spec in (*tx_grid, *rx_grid):
        for field, (lo, hi) in SWEEP_BOUNDS.items():
            if hasattr(spec, field) and not lo <= getattr(spec, field) <= hi:
                raise OpticsError(f"{field} {getattr(spec, field)} outside [{lo}, {hi}]")


def sweep(tx_grid, rx_grid, range_grid_m) -> dict[str, np.ndarray]:
    """Characterize every (transmitter, receiver, range) combination.

    Returns columns: a dict keyed by the SWEEP_CSV_HEADER names, each a
    numpy array with one entry per row (``len(columns["Z_m"])`` rows).
    Row order is the lexicographic product of the input grids (tx-major,
    then rx, then range), so output is deterministic and chunkable.
    Singular focus geometries are emitted as sentinel rows with a reason
    in the ``flag`` column, never dropped.  The pairs of each design kind
    are one `_characterize_ranges` call over the whole range grid; its
    entries equal `characterize` at each range bit for bit.
    """
    tx_grid = list(tx_grid)
    rx_grid = list(rx_grid)
    z = np.array([float(v) for v in range_grid_m], dtype=np.float64)
    if not 0 < len(tx_grid) * len(rx_grid) * len(z) <= MAX_SWEEP_ROWS:
        raise OpticsError(f"sweep grids must be non-empty and give at most {MAX_SWEEP_ROWS} rows")
    _check_sweep_bounds(tx_grid, rx_grid)

    pairs = [(tx, rx) for tx in tx_grid for rx in rx_grid]
    shape = (len(pairs), len(z))
    fov, rr = np.empty(shape), np.empty(shape)
    volume = np.empty(len(pairs))
    code = np.empty(shape, dtype=np.int8)
    by_kind: dict[DesignKind, list[int]] = {}
    for i, (_, rx) in enumerate(pairs):
        by_kind.setdefault(rx.design_kind, []).append(i)
    # kinds in order of first appearance, so a bad range raises for the
    # first bad (pair, range) in row order
    for index in by_kind.values():
        fov[index], rr[index], volume[index], code[index] = _characterize_ranges(
            [pairs[i] for i in index], z
        )
    code = code.ravel()
    # '<U' as wide as the longest flag present
    width = max(1, *(len(_FLAG_TEXT[c]) for c in np.flatnonzero(np.bincount(code))))

    def per_tx(values):
        return np.repeat(values, len(rx_grid) * len(z))

    def per_rx(values):
        return np.tile(np.repeat(values, len(z)), len(tx_grid))

    return {
        "design_kind": per_rx([rx.design_kind.value for rx in rx_grid]),
        "M": per_tx([tx.beam_quality_m for tx in tx_grid]),
        "w0_m": per_tx([tx.waist_radius_m for tx in tx_grid]),
        "lambda_m": per_tx([tx.wavelength_m for tx in tx_grid]),
        "n": per_rx([rx.detector_count_n for rx in rx_grid]),
        # Effective aperture: the retro design receives through the
        # mirror, so its aperture column reports the waist.
        "A_m": np.repeat([
            tx.waist_radius_m if rx.design_kind == DesignKind.RETROREFLECTIVE
            else rx.aperture_m
            for tx, rx in pairs
        ], len(z)),
        "u_m": per_rx([rx.image_distance_m for rx in rx_grid]),
        "f_m": per_rx([rx.focal_length_m for rx in rx_grid]),
        "Z_m": np.tile(z, len(pairs)),
        "fov_rad": fov.ravel(),
        "rr_per_m": rr.ravel(),
        "volume_m3": np.repeat(volume, len(z)),
        "flag": np.array(_FLAG_TEXT, dtype=f"<U{width}")[code],
    }


# A run is a block of consecutive rows whose design fields are equal; in a
# sweep each (transmitter, receiver) pair's range block is one run.
_DESIGN_FIELDS = ("design_kind", "M", "w0_m", "lambda_m", "n", "A_m", "u_m", "f_m")
_ROW_FIELDS = ("Z_m", "fov_rad", "rr_per_m", "volume_m3", "flag")
_FLOAT_COLUMNS = frozenset(("M", "w0_m", "lambda_m", "A_m", "u_m", "f_m", "Z_m",
                            "fov_rad", "rr_per_m", "volume_m3"))


def _keys(column: np.ndarray) -> np.ndarray:
    """Floats as their bit patterns, so -0.0 and 0.0 stay distinct."""
    return column.view(np.int64) if column.dtype == np.float64 else column


def _design_runs(columns) -> np.ndarray:
    """First row of each run, found by comparing each row with the one before."""
    new = np.zeros(len(columns["Z_m"]), dtype=bool)
    new[:1] = True
    for name in _DESIGN_FIELDS:
        keys = _keys(np.asarray(columns[name]))
        new[1:] |= keys[1:] != keys[:-1]
    return np.flatnonzero(new)


def _column_text(column: np.ndarray, name: str, end: str = "") -> np.ndarray:
    """The named column's text, each entry followed by `end`, as an object
    array: each distinct entry is formatted once, then spread over the rows.
    Float columns take one ``%.9g`` template over their distinct values;
    text columns (the design kind and the flag) are used as they are.
    """
    distinct, codes = _distinct(_keys(column))
    values = distinct.view(column.dtype).tolist()
    if column.dtype.kind == "U":
        text = values
    else:
        # one template: a NUL never occurs in formatted numbers
        fmt = ("%.9g" if name in _FLOAT_COLUMNS else "%s") + end + "\0"
        text = (fmt * len(values) % tuple(values)).split("\0")[:-1]
    return np.array(text, dtype=object)[codes]


# rows per block of CSV text; blocks keep the cell lists and the written
# text small, so the whole file is never one string in `write_sweep_csv`
_CSV_BLOCK_ROWS = 1 << 12


def _sweep_csv_blocks(columns):
    """The CSV text of sweep columns in blocks: the header, the rows
    `_CSV_BLOCK_ROWS` at a time, then the last newline.

    The eight design fields are formatted once per run of equal designs, as
    one prefix that the run's rows share; each row adds its five own fields.
    """
    n = len(columns["Z_m"])
    starts = _design_runs(columns)
    design = zip(*(_column_text(np.asarray(columns[name])[starts], name).tolist()
                   for name in _DESIGN_FIELDS))
    prefix = np.array(["\n" + ",".join(fields) + "," for fields in design], dtype=object)
    # a row's cells: a newline and its run's prefix, then its own fields,
    # each but the last (the flag) followed by its comma
    texts = [np.repeat(prefix, np.diff(starts, append=n))] + [
        _column_text(np.asarray(columns[name]), name, "," if name != "flag" else "")
        for name in _ROW_FIELDS
    ]
    yield SWEEP_CSV_HEADER
    cells = np.empty((_CSV_BLOCK_ROWS, len(texts)), dtype=object)
    for start in range(0, n, _CSV_BLOCK_ROWS):
        block = cells[:min(n - start, _CSV_BLOCK_ROWS)]
        for i, text in enumerate(texts):
            block[:, i] = text[start:start + len(block)]
        yield "".join(block.ravel().tolist())
    yield "\n"


def format_sweep_csv(columns) -> str:
    """Render sweep columns as CSV text (9 significant digits for floats)."""
    return "".join(_sweep_csv_blocks(columns))


def write_sweep_csv(columns, path) -> None:
    """Write `format_sweep_csv(columns)` to the file at `path`, one block at
    a time, so the whole text is never held, nor encoded, at once."""
    with open(path, "w") as fh:
        fh.writelines(_sweep_csv_blocks(columns))


def _group_codes(*columns) -> np.ndarray:
    """Integer code per entry whose order is the order of the value tuples.

    Codes are re-ranked after each column, so they stay below the entry count.
    """
    code = np.zeros(len(columns[0]), dtype=np.int64)
    for column in columns:
        values, inverse = np.unique(column, return_inverse=True)
        _, code = np.unique(code * len(values) + inverse, return_inverse=True)
    return code


# (pair, range) entries per block in _first_flips: about 15 MB of temporaries
_PAIR_BLOCK_ENTRIES = 1 << 19


def _first_flips(rr: np.ndarray, have: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(a, b, j, k) for each pair of rows a, lo[a] <= b < hi[a], whose
    difference d = rr[a] - rr[b] changes sign over the ranges both have: k
    is the first such range, j the shared range before it.  A zero d never
    starts a flip.  Pairs go in order of a, then b, in blocks that bound
    the temporaries; a block's pairs are made from their numbers.
    """
    # 2 * range index + (d > 0) at a shared range, -1 elsewhere; its running
    # maximum holds the last shared range and the sign of d there
    twice = np.arange(0, 2 * rr.shape[1], 2, dtype=np.min_scalar_type(-2 * rr.shape[1]))
    partners = hi - lo
    first = np.cumsum(partners) - partners  # the number of each row's first pair
    n_pairs = int(partners.sum())
    step = max(1, _PAIR_BLOCK_ENTRIES // rr.shape[1])
    found = [(lo[:0],) * 4]  # so that no pairs give four empty columns
    for start in range(0, n_pairs, step):
        pair = np.arange(start, min(start + step, n_pairs))
        # rows without partners share the next row's first number
        a = np.searchsorted(first, pair, side="right") - 1
        b = lo[a] + pair - first[a]
        d = rr[a] - rr[b]
        pos = d > 0
        shared = have[a] & have[b]
        last = np.maximum.accumulate(np.where(shared, twice + pos, -1), axis=1)[:, :-1]
        flips = shared[:, 1:] & (d[:, 1:] != 0) & (last >= 0) & ((last & 1) != pos[:, 1:])
        hit = np.flatnonzero(flips.any(axis=1))
        k = flips[hit].argmax(axis=1)
        found.append((a[hit], b[hit], last[hit, k] >> 1, k + 1))
    return [np.concatenate(column) for column in zip(*found)]


def find_crossovers(columns) -> list[dict]:
    """Locate ranges where one design's received radiance overtakes another's.

    Unflagged rows are grouped by transmitter (M, w0, lambda), in order of
    first appearance, and by receiver geometry (design, n, A, u, f) in
    sorted order; equal values share a group.  One rr matrix holds a row
    per (transmitter, receiver) and a column per distinct range, ascending.
    For each pair of receivers of different design kinds under one
    transmitter, taken in sorted order, the scan runs over the ranges both
    have and reports the first bracket [z_lo, z_hi] where the sign of
    (rr_a - rr_b) flips, with a log-interpolated crossover estimate clipped
    to the bracket.  A zero difference never starts a flip but does become
    the bracket's lower end.  All transmitters' pairs go through one
    `_first_flips` pass.
    """
    ok = np.asarray(columns["flag"]) == ""
    if not ok.any():
        return []
    starts = _design_runs(columns)
    design = {name: np.asarray(columns[name])[starts] for name in _DESIGN_FIELDS}
    # group codes per run, in sorted order of the value tuples
    tx_code = _group_codes(design["M"], design["w0_m"], design["lambda_m"])
    rx_code = _group_codes(design["design_kind"], design["n"], design["A_m"],
                           design["u_m"], design["f_m"])
    rx_kind = np.empty(rx_code.max() + 1, dtype=design["design_kind"].dtype)
    rx_kind[rx_code] = design["design_kind"]
    # the run of each unflagged row (nondecreasing), and the runs that have one
    run = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(ok)))[ok]
    new_run = np.diff(run, prepend=-1) != 0
    ok_runs = run[new_run]
    # transmitters ranked by first appearance; each one's first unflagged run
    tx_ids, tx_first = np.unique(tx_code[ok_runs], return_index=True)
    by_first = np.argsort(tx_first, kind="stable")
    tx_rank = np.empty(tx_code.max() + 1, dtype=np.int64)
    tx_rank[tx_ids[by_first]] = np.arange(len(tx_ids))
    first_run = ok_runs[tx_first[by_first]]
    tx_values = list(zip(*(design[name][first_run].tolist()
                           for name in ("M", "w0_m", "lambda_m"))))
    # one rr row per (transmitter, receiver), transmitter-major; receivers
    # in sorted order within each transmitter
    n_rx = len(rx_kind)
    keys, row = np.unique(tx_rank[tx_code[ok_runs]] * n_rx + rx_code[ok_runs],
                          return_inverse=True)
    row = row[np.cumsum(new_run) - 1]
    z_values, z_index = _distinct(np.asarray(columns["Z_m"])[ok])
    rr = np.zeros((len(keys), len(z_values)))
    have = np.zeros(rr.shape, dtype=bool)
    rr[row, z_index] = np.asarray(columns["rr_per_m"])[ok]
    have[row, z_index] = True
    # a row's partners are the rows of later design kinds under its
    # transmitter: from the next (transmitter, kind) group to the next
    # transmitter, as the rows sort by kind within a transmitter
    tx_row = keys // n_rx
    kinds = rx_kind[keys % n_rx]
    group = tx_row * len(rx_kind) + np.unique(kinds, return_inverse=True)[1]
    a, b, j, k = _first_flips(rr, have, np.searchsorted(group, group, side="right"),
                              np.searchsorted(tx_row, tx_row, side="right"))
    # the same subtraction, entry by entry, as inside _first_flips
    prev_d, dk = (rr[a, j] - rr[b, j]).tolist(), (rr[a, k] - rr[b, k]).tolist()
    z_values = z_values.tolist()
    crossovers = []
    for t, kind_a, kind_b, lo, hi, d_lo, d_hi in zip(
        tx_row[a].tolist(), kinds[a].tolist(), kinds[b].tolist(), j.tolist(), k.tolist(),
        prev_d, dk,
    ):
        prev_z, z = z_values[lo], z_values[hi]
        # log-linear interpolation of the sign change
        frac = d_lo / (d_lo - d_hi)
        z_star = math.exp(
            math.log(prev_z) + frac * (math.log(z) - math.log(prev_z))
        )
        # exp(log(z_lo)) can round an ulp outside [z_lo, z_hi]
        z_star = min(max(z_star, prev_z), z)
        m, w0, lam = tx_values[t]
        crossovers.append(
            {
                "M": m,
                "w0_m": w0,
                "lambda_m": lam,
                "design_a": kind_a,
                "design_b": kind_b,
                "z_lo_m": prev_z,
                "z_hi_m": z,
                "z_star_m": z_star,
                "winner_above": kind_a if d_hi > 0 else kind_b,
            }
        )
    return crossovers


def log_range_grid(z_min_m: float, z_max_m: float, count: int) -> np.ndarray:
    """Log-spaced range grid (m), inclusive of both endpoints."""
    if not (z_min_m > 0 and z_max_m > z_min_m and count >= 2):
        raise OpticsError("need 0 < z_min < z_max and count >= 2")
    return np.geomspace(z_min_m, z_max_m, count)

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
once and each distinct per-row float once, and `find_crossovers` groups runs,
not rows, by transmitter and receiver before it scans one rr matrix
(receiver x range) per transmitter.  `characterize` is the same call for
one pair at a single range.  The columns equal a scalar, row-at-a-time
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

SWEEP_CSV_HEADER = (
    "design_kind,M,w0_m,lambda_m,n,A_m,u_m,f_m,Z_m,fov_rad,rr_per_m,volume_m3,flag"
)

FLAG_NONPHYSICAL_DIVERGENCE = "nonphysical_divergence"
FLAG_DEGENERATE_FOCUS = "degenerate_focus"
FLAG_ZERO_KERNEL = "zero_kernel"


class OpticsError(ValueError):
    """Base class for receiver-geometry errors."""


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
            raise ValueError(f"beam quality must be >= 1, got {self.beam_quality_m}")
        if not self.waist_radius_m > 0:
            raise ValueError(f"waist radius must be > 0, got {self.waist_radius_m}")
        if not self.wavelength_m > 0:
            raise ValueError(f"wavelength must be > 0, got {self.wavelength_m}")
        if not 0 < self.mirror_fov_rad <= math.pi:
            raise ValueError(
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
            raise ValueError(f"aperture must be > 0, got {self.aperture_m}")
        if not self.image_distance_m > 0:
            raise ValueError(f"image distance must be > 0, got {self.image_distance_m}")
        if not self.focal_length_m > 0:
            raise ValueError(f"focal length must be > 0, got {self.focal_length_m}")
        if self.detector_count_n < 1:
            raise ValueError(f"detector count must be >= 1, got {self.detector_count_n}")
        if self.design_kind != DesignKind.RECEIVER_ARRAY and self.detector_count_n != 1:
            raise ValueError(f"{self.design_kind.value} design requires n = 1")


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
            raise ValueError(f"camera FOV must be in (0, pi] rad, got {self.fov_rad}")
        if self.pixel_count < 1:
            raise ValueError(f"pixel count must be >= 1, got {self.pixel_count}")


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
        raise ValueError(f"solid angle must be in [0, 4*pi] sr, got {solid_sr}")
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


def _atan(x: np.ndarray) -> np.ndarray:
    """math.atan over an array; np.arctan's SIMD path differs from libm."""
    flat = x.ravel().tolist()
    return np.fromiter(map(math.atan, flat), dtype=np.float64, count=len(flat)).reshape(x.shape)


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

    Raises ValueError for the first (pair, range), in row order, whose range
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
            raise ValueError(f"range must be finite and > 0, got {z_bad}")
        raise ValueError(
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
    for tx in tx_grid:
        lo, hi = SWEEP_BOUNDS["beam_quality_m"]
        if not lo <= tx.beam_quality_m <= hi:
            raise ValueError(f"beam quality {tx.beam_quality_m} outside [{lo}, {hi}]")
        lo, hi = SWEEP_BOUNDS["waist_radius_m"]
        if not lo <= tx.waist_radius_m <= hi:
            raise ValueError(f"waist radius {tx.waist_radius_m} m outside [{lo}, {hi}] m")
    for rx in rx_grid:
        if rx.aperture_m > SWEEP_BOUNDS["aperture_m"][1]:
            raise ValueError(f"aperture {rx.aperture_m} m exceeds {SWEEP_BOUNDS['aperture_m'][1]} m")
        if rx.focal_length_m > SWEEP_BOUNDS["focal_length_m"][1]:
            raise ValueError(
                f"focal length {rx.focal_length_m} m exceeds {SWEEP_BOUNDS['focal_length_m'][1]} m"
            )
        if rx.image_distance_m > SWEEP_BOUNDS["image_distance_m"][1]:
            raise ValueError(
                f"image distance {rx.image_distance_m} m exceeds {SWEEP_BOUNDS['image_distance_m'][1]} m"
            )


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
    if not tx_grid or not rx_grid or not len(z):
        raise ValueError("sweep grids must be non-empty")
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

    def per_pair(values):
        return np.repeat(values, len(z))

    return {
        "design_kind": per_pair([rx.design_kind.value for _, rx in pairs]),
        "M": per_pair([tx.beam_quality_m for tx, _ in pairs]),
        "w0_m": per_pair([tx.waist_radius_m for tx, _ in pairs]),
        "lambda_m": per_pair([tx.wavelength_m for tx, _ in pairs]),
        "n": per_pair([rx.detector_count_n for _, rx in pairs]),
        # Effective aperture: the retro design receives through the
        # mirror, so its aperture column reports the waist.
        "A_m": per_pair([
            tx.waist_radius_m if rx.design_kind == DesignKind.RETROREFLECTIVE
            else rx.aperture_m
            for tx, rx in pairs
        ]),
        "u_m": per_pair([rx.image_distance_m for _, rx in pairs]),
        "f_m": per_pair([rx.focal_length_m for _, rx in pairs]),
        "Z_m": np.tile(z, len(pairs)),
        "fov_rad": fov.ravel(),
        "rr_per_m": rr.ravel(),
        "volume_m3": per_pair(volume),
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


def _column_text(column: np.ndarray, name: str, end: str = "") -> list[str]:
    """The named column's text, each entry followed by `end`: each distinct
    entry is formatted once, then spread over the rows.  Text columns (the
    design kind and the flag, which take no `end`) are used as they are."""
    if column.dtype.kind == "U":
        return column.tolist()
    fmt = ("{:.9g}" if name in _FLOAT_COLUMNS else "{}") + end
    _, first, inverse = np.unique(_keys(column), return_index=True, return_inverse=True)
    text = np.array([fmt.format(v) for v in column[first].tolist()], dtype=object)
    return text[inverse].tolist()


def format_sweep_csv(columns) -> str:
    """Render sweep columns as CSV text (9 significant digits for floats).

    The eight design fields are formatted once per run of equal designs, as
    one prefix that the run's rows share; each row adds its five own fields.
    """
    n = len(columns["Z_m"])
    starts = _design_runs(columns)
    design = zip(*(_column_text(np.asarray(columns[name])[starts], name)
                   for name in _DESIGN_FIELDS))
    # the header, six cells per row, and the last newline; a row's cells are
    # a newline and its run's prefix, then its own fields, each but the
    # last (the flag) followed by its comma
    prefix = np.array(["\n" + ",".join(fields) + "," for fields in design], dtype=object)
    cells = [""] * (6 * n + 2)
    cells[0], cells[-1] = SWEEP_CSV_HEADER, "\n"
    cells[1:-1:6] = np.repeat(prefix, np.diff(starts, append=n)).tolist()
    for i, name in enumerate(_ROW_FIELDS[:-1], 2):
        cells[i:-1:6] = _column_text(np.asarray(columns[name]), name, ",")
    cells[6:-1:6] = _column_text(np.asarray(columns["flag"]), "flag")
    return "".join(cells)


def _group_codes(*columns) -> np.ndarray:
    """Integer code per entry whose order is the order of the value tuples.

    Codes are re-ranked after each column, so they stay below the entry count.
    """
    code = np.zeros(len(columns[0]), dtype=np.int64)
    for column in columns:
        values, inverse = np.unique(column, return_inverse=True)
        _, code = np.unique(code * len(values) + inverse, return_inverse=True)
    return code


# (pair, range) entries per block in _first_flips: about 20 MB of temporaries
_PAIR_BLOCK_ENTRIES = 1 << 19


def _first_flips(rr: np.ndarray, have: np.ndarray, ia: np.ndarray, ib: np.ndarray):
    """Yield (p, j, k, d_j, d_k) for each receiver pair (ia[p], ib[p]) whose
    difference d = rr[ia[p]] - rr[ib[p]] changes sign over the ranges both
    have: k is the first such range, j the shared range before it.  A zero
    d never starts a flip.  Pairs go in blocks that bound the temporaries.
    """
    cols = np.arange(rr.shape[1])
    step = max(1, _PAIR_BLOCK_ENTRIES // rr.shape[1])
    for start in range(0, len(ia), step):
        a, b = ia[start:start + step], ib[start:start + step]
        d = rr[a] - rr[b]
        shared = have[a] & have[b]
        # prev[p, k]: the last shared range before k for pair p, or -1
        last = np.maximum.accumulate(np.where(shared, cols, -1), axis=1)
        prev = np.concatenate([np.full((len(a), 1), -1), last[:, :-1]], axis=1)
        pos = d > 0
        flips = (shared & (prev >= 0) & (d != 0)
                 & (pos != np.take_along_axis(pos, np.maximum(prev, 0), axis=1)))
        hit = np.flatnonzero(flips.any(axis=1))
        k = flips[hit].argmax(axis=1)
        j = prev[hit, k]
        yield from zip((start + hit).tolist(), j.tolist(), k.tolist(),
                       d[hit, j].tolist(), d[hit, k].tolist())


def find_crossovers(columns) -> list[dict]:
    """Locate ranges where one design's received radiance overtakes another's.

    Unflagged rows are grouped by transmitter (M, w0, lambda), in order of
    first appearance, and by receiver geometry (design, n, A, u, f) in
    sorted order; equal values share a group.  Each transmitter gets an
    rr matrix (receiver x distinct range, ascending).  For each pair of
    receivers of different design kinds, taken in sorted order, the scan
    runs over the ranges both have and reports the first bracket
    [z_lo, z_hi] where the sign of (rr_a - rr_b) flips, with a
    log-interpolated crossover estimate clipped to the bracket.  A zero
    difference never starts a flip but does become the bracket's lower end.
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
    ok_runs = run[np.diff(run, prepend=-1) != 0]
    tx_ids, tx_first = np.unique(tx_code[ok_runs], return_index=True)
    z_values, z_index = np.unique(np.asarray(columns["Z_m"])[ok], return_inverse=True)
    z_values = z_values.tolist()
    # unflagged rows by transmitter, in row order within each transmitter
    tx_group = tx_code[run]
    order = np.argsort(tx_group, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(tx_group))])
    rx_group, z_index = rx_code[run][order], z_index[order]
    rr_ok = np.asarray(columns["rr_per_m"])[ok][order]

    crossovers = []
    for t in np.argsort(tx_first, kind="stable"):
        rows = slice(bounds[tx_ids[t]], bounds[tx_ids[t] + 1])
        rx_ids, rx_local = np.unique(rx_group[rows], return_inverse=True)
        rr = np.zeros((len(rx_ids), len(z_values)))
        have = np.zeros(rr.shape, dtype=bool)
        rr[rx_local, z_index[rows]] = rr_ok[rows]
        have[rx_local, z_index[rows]] = True
        kinds = rx_kind[rx_ids]
        ia, ib = np.triu_indices(len(rx_ids), k=1)
        cross = kinds[ia] != kinds[ib]
        ia, ib = ia[cross], ib[cross]
        kinds_a, kinds_b = kinds[ia].tolist(), kinds[ib].tolist()
        i0 = ok_runs[tx_first[t]]
        m, w0, lam = (design[name][i0].item() for name in ("M", "w0_m", "lambda_m"))
        for p, j, k, prev_d, dk in _first_flips(rr, have, ia, ib):
            prev_z, z = z_values[j], z_values[k]
            # log-linear interpolation of the sign change
            frac = prev_d / (prev_d - dk)
            z_star = math.exp(
                math.log(prev_z) + frac * (math.log(z) - math.log(prev_z))
            )
            # exp(log(z_lo)) can round an ulp outside [z_lo, z_hi]
            z_star = min(max(z_star, prev_z), z)
            kind_a, kind_b = kinds_a[p], kinds_b[p]
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
                    "winner_above": kind_a if dk > 0 else kind_b,
                }
            )
    return crossovers


def log_range_grid(z_min_m: float, z_max_m: float, count: int) -> np.ndarray:
    """Log-spaced range grid (m), inclusive of both endpoints."""
    if not (z_min_m > 0 and z_max_m > z_min_m and count >= 2):
        raise ValueError("need 0 < z_min < z_max and count >= 2")
    return np.geomspace(z_min_m, z_max_m, count)

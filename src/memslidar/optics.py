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

Sweeps are columnar.  `sweep` evaluates each (transmitter, receiver) pair
over the whole range grid in one `_characterize_ranges` call and returns a
dict of numpy columns keyed by the SWEEP_CSV_HEADER names;
`format_sweep_csv` formats each distinct float once, and `find_crossovers`
scans one rr matrix (receiver x range) per transmitter.  `characterize` is
the same call at a single range.  The columns equal a scalar, row-at-a-time
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
    """math.atan over a column; np.arctan's SIMD path differs from libm."""
    return np.fromiter(map(math.atan, x.tolist()), dtype=np.float64, count=len(x))


def _characterize_ranges(
    tx: TransmitterSpec, rx: ReceiverSpec, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """fov, rr, volume and flag columns of one design over the ranges z (m).

    This is the one implementation of the receiver formulas.  Per-design
    quantities are Python floats (``x**2`` is C ``pow``, which differs from
    numpy's ``x*x`` in the last bit); range-dependent ``+ - * /`` run in
    numpy in the scalar formula's order, and every transcendental of a
    range goes through `_atan`, so each entry equals the scalar evaluation
    bit for bit.  Single-detector singularities become sentinel entries
    (fov 0, rr +inf) whose flag carries the reason.

    Raises ValueError for the first range, in grid order, that is not
    finite and > 0, or that lies below a single detector's focal length.
    """
    single = rx.design_kind == DesignKind.SINGLE_DETECTOR
    bad = ~(np.isfinite(z) & (z > 0))
    if single:
        bad |= z < rx.focal_length_m
    if bad.any():
        z_bad = z[bad.argmax()].item()
        if not (math.isfinite(z_bad) and z_bad > 0):
            raise ValueError(f"range must be finite and > 0, got {z_bad}")
        raise ValueError(
            f"single-detector geometry needs Z > f; got Z={z_bad}, "
            f"f={rx.focal_length_m}"
        )
    omega_laser = beam_divergence(tx)
    flag = "" if divergence_is_physical(omega_laser) else FLAG_NONPHYSICAL_DIVERGENCE
    omega_mirror = tx.mirror_fov_rad
    falloff = 2.0 * z * math.tan(omega_laser / 2.0)
    flags = np.full(len(z), flag)

    if rx.design_kind == DesignKind.RETROREFLECTIVE:
        # Mirror is the aperture: receive cone subtends the waist, capped
        # at the transmit divergence (cannot receive more than was sent).
        w0 = tx.waist_radius_m
        received_apex = np.minimum(2.0 * _atan(w0 / (2.0 * z)), omega_laser)
        rr = (received_apex / omega_laser) / falloff
        volume = math.pi * rx.image_distance_m * w0**2 / 12.0
        fov = omega_mirror
    elif rx.design_kind == DesignKind.RECEIVER_ARRAY:
        rr = 1.0 / falloff
        volume = rx.image_distance_m * rx.aperture_m**2
        fov = min(
            2.0 * math.atan(rx.aperture_m / (2.0 * rx.image_distance_m)), omega_mirror
        )
    elif single:
        # A target at range Z images at u' = f*Z/(Z - f).  A detector at u
        # sees that image defocused into a kernel of diameter |u - u'| * A / u';
        # its apex angle is taken at the detector distance u.  Z == f
        # (degenerate focus) and u == u' (zero kernel) are sentinel rows.
        a, u, f = rx.aperture_m, rx.image_distance_m, rx.focal_length_m
        with np.errstate(divide="ignore", invalid="ignore"):
            u_image = f * z / (z - f)
            kernel_diameter = np.abs(u - u_image) * a / u_image
            kernel_apex = 2.0 * _atan(kernel_diameter / (2.0 * u))
            rr = 1.0 / (kernel_apex * falloff)
        volume = math.pi * u * a**2 / 12.0
        fov = np.minimum(kernel_apex, omega_mirror)
        degenerate = z == f
        zero = ~degenerate & (kernel_diameter == 0.0)
        sentinel = degenerate | zero
        if sentinel.any():
            prefix = flag + ";" if flag else ""
            fov[sentinel] = 0.0
            rr[sentinel] = math.inf
            flags = np.where(
                degenerate, prefix + FLAG_DEGENERATE_FOCUS,
                np.where(zero, prefix + FLAG_ZERO_KERNEL, flags),
            )
    else:  # pragma: no cover - enum is closed
        raise InvalidVariant(f"unknown design kind {rx.design_kind}")

    n = len(z)
    return (
        np.broadcast_to(fov, n).astype(np.float64),
        rr,
        np.full(n, volume),
        flags,
    )


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
    fov, rr, volume, flags = _characterize_ranges(
        tx, rx, np.array([range_m], dtype=np.float64)
    )
    flag = str(flags[0])
    if flag.endswith(FLAG_DEGENERATE_FOCUS):
        raise DegenerateFocus(
            f"working range {range_m} m equals focal length; image distance diverges"
        )
    if flag.endswith(FLAG_ZERO_KERNEL):
        raise ZeroKernel(
            f"detector exactly in focus at Z={range_m} m "
            f"(u = u' = {rx.image_distance_m} m)"
        )
    return DesignCharacterization(
        fov_rad=float(fov[0]), rr_per_m=float(rr[0]), volume_m3=float(volume[0]),
        range_m=range_m, flag=flag,
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
    in the ``flag`` column, never dropped.  Each (tx, rx) pair is one
    `_characterize_ranges` call over the whole range grid; its entries
    equal `characterize` at each range bit for bit.
    """
    tx_grid = list(tx_grid)
    rx_grid = list(rx_grid)
    z = np.array([float(v) for v in range_grid_m], dtype=np.float64)
    if not tx_grid or not rx_grid or not len(z):
        raise ValueError("sweep grids must be non-empty")
    _check_sweep_bounds(tx_grid, rx_grid)

    pairs = [(tx, rx) for tx in tx_grid for rx in rx_grid]
    fov, rr, volume, flag = zip(*(_characterize_ranges(tx, rx, z) for tx, rx in pairs))

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
        "fov_rad": np.concatenate(fov),
        "rr_per_m": np.concatenate(rr),
        "volume_m3": np.concatenate(volume),
        "flag": np.concatenate(flag),
    }


_FLOAT_COLUMNS = frozenset(("M", "w0_m", "lambda_m", "A_m", "u_m", "f_m", "Z_m",
                            "fov_rad", "rr_per_m", "volume_m3"))


def _column_text(column: np.ndarray, fmt) -> list[str]:
    """fmt applied to each distinct entry once, then spread over the rows.

    Floats are told apart by bit pattern, so -0.0 and 0.0 stay distinct.
    """
    if column.dtype.kind == "U":
        return column.tolist()
    keys = column.view(np.int64) if column.dtype == np.float64 else column
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    text = np.array([fmt(v) for v in column[first].tolist()], dtype=object)
    return text[inverse].tolist()


def format_sweep_csv(columns) -> str:
    """Render sweep columns as CSV text (9 significant digits for floats)."""
    fields = [
        _column_text(
            np.ascontiguousarray(columns[name]),
            "{:.9g}".format if name in _FLOAT_COLUMNS else str,
        )
        for name in SWEEP_CSV_HEADER.split(",")
    ]
    return "\n".join([SWEEP_CSV_HEADER, *map(",".join, zip(*fields))]) + "\n"


def _group_codes(*columns) -> np.ndarray:
    """Integer code per row whose order is the order of the row tuples.

    Codes are re-ranked after each column, so they stay below the row count.
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
        first = flips.argmax(axis=1)
        for p in np.flatnonzero(flips.any(axis=1)).tolist():
            k = int(first[p])
            j = int(prev[p, k])
            yield start + p, j, k, d[p, j].item(), d[p, k].item()


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
    col = {name: np.asarray(columns[name])[ok] for name in
           ("design_kind", "M", "w0_m", "lambda_m", "n", "A_m", "u_m", "f_m",
            "Z_m", "rr_per_m")}
    _, tx_first, tx_group = np.unique(
        _group_codes(col["M"], col["w0_m"], col["lambda_m"]),
        return_index=True, return_inverse=True,
    )
    _, rx_first, rx_group = np.unique(
        _group_codes(col["design_kind"], col["n"], col["A_m"], col["u_m"], col["f_m"]),
        return_index=True, return_inverse=True,
    )
    rx_kind = col["design_kind"][rx_first]
    z_values, z_index = np.unique(col["Z_m"], return_inverse=True)

    crossovers = []
    for t in np.argsort(tx_first, kind="stable"):
        rows = tx_group == t
        rx_ids, rx_local = np.unique(rx_group[rows], return_inverse=True)
        rr = np.zeros((len(rx_ids), len(z_values)))
        have = np.zeros(rr.shape, dtype=bool)
        rr[rx_local, z_index[rows]] = col["rr_per_m"][rows]
        have[rx_local, z_index[rows]] = True
        kinds = rx_kind[rx_ids]
        ia, ib = np.triu_indices(len(rx_ids), k=1)
        cross = kinds[ia] != kinds[ib]
        ia, ib = ia[cross], ib[cross]
        i0 = tx_first[t]
        for p, j, k, prev_d, dk in _first_flips(rr, have, ia, ib):
            prev_z, z = z_values[j].item(), z_values[k].item()
            # log-linear interpolation of the sign change
            frac = prev_d / (prev_d - dk)
            z_star = math.exp(
                math.log(prev_z) + frac * (math.log(z) - math.log(prev_z))
            )
            # exp(log(z_lo)) can round an ulp outside [z_lo, z_hi]
            z_star = min(max(z_star, prev_z), z)
            kind_a, kind_b = str(kinds[ia[p]]), str(kinds[ib[p]])
            crossovers.append(
                {
                    "M": col["M"][i0].item(),
                    "w0_m": col["w0_m"][i0].item(),
                    "lambda_m": col["lambda_m"][i0].item(),
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

"""RGB-D scene loading, saving, and synthetic generation.

On-disk layout of a scene directory:

    0000.ppm, 0001.ppm, ...   8-bit binary RGB (P6, maxval 255)
    0000.pgm, 0001.pgm, ...   16-bit binary depth (P5, maxval 65535,
                              big-endian), millimeters, 0 = invalid
    meta.json                 camera intrinsics and timing

Depth lives in memory as float64 meters (0.0 = invalid) and is quantized
to 1 mm on disk, which caps representable range at 65.535 m.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import re
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

DEPTH_QUANTUM_M = 1e-3
MAX_DEPTH_M = 65535 * DEPTH_QUANTUM_M
# width x height x n_frames of a generated scene: 54 frames at 640x480, or
# one 4096x4096 frame; rendering peaks near 55 bytes per pixel
MAX_SCENE_PIXELS = 1 << 24


class SceneIOError(ValueError):
    """Base class for scene directory problems."""


class MissingPair(SceneIOError):
    """A frame has an RGB file without depth, or depth without RGB."""


class DimensionMismatch(SceneIOError):
    """RGB, depth, or metadata dimensions disagree."""


class MalformedHeader(SceneIOError):
    """A netpbm file or meta.json could not be read, or does not hold its format."""


class DuplicateFrame(SceneIOError):
    """Two frame file stems in a scene directory parse to one frame index."""


class EmptyScene(SceneIOError):
    """A generated frame contains no valid geometry."""


class MalformedSpec(SceneIOError):
    """A scene spec file is not JSON, or has a missing, unknown or bad key."""


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole camera model in pixel units."""

    width: int
    height: int
    fx_px: float
    fy_px: float
    cx_px: float
    cy_px: float


def pinhole_intrinsics(width: int, height: int, fov_rad: float) -> Intrinsics:
    """The camera of horizontal FOV `fov_rad`: fx = fy, principal point at the centre."""
    fx = (width / 2.0) / math.tan(fov_rad / 2.0)
    return Intrinsics(width, height, fx, fx, width / 2.0, height / 2.0)


@dataclass(frozen=True)
class SceneMeta:
    """Scene-level metadata; maps 1:1 onto meta.json."""

    width: int
    height: int
    fps: float
    z_max_m: float
    fx_px: float
    fy_px: float
    cx_px: float
    cy_px: float
    mirror_fov_deg: float

    def __post_init__(self):
        for f in fields(self):
            _check_number(f.name, getattr(self, f.name), integral=f.type == "int")
        for name in ("width", "height", "fps", "fx_px", "fy_px"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name!r} must be positive, got {value}")
        if not 0 < self.z_max_m <= MAX_DEPTH_M:
            raise ValueError(f"'z_max_m' must be in (0, {MAX_DEPTH_M}] m, got {self.z_max_m}")
        _check_fov("mirror_fov_deg", self.mirror_fov_deg)

    @property
    def intrinsics(self) -> Intrinsics:
        return Intrinsics(
            self.width, self.height, self.fx_px, self.fy_px, self.cx_px, self.cy_px
        )


@dataclass
class SceneFrame:
    """One RGB-D frame.

    rgb       (H, W, 3) uint8
    depth_gt  (H, W) float64 meters; 0.0 marks invalid / no geometry
    """

    rgb: np.ndarray
    depth_gt: np.ndarray
    intrinsics: Intrinsics
    frame_index: int
    timestamp_s: float


@dataclass
class SceneSequence:
    frames: list[SceneFrame]
    meta: SceneMeta


# ---------- file readers ----------

_TOKEN_RE = re.compile(rb"\s*(?:#[^\n]*\n\s*)*(\S+)")


def _read_netpbm(path: str | Path, magic: bytes, maxval: int, dtype: str,
                 channels: int) -> np.ndarray:
    """The raster of a binary netpbm file: `magic`, dims >= 1, `maxval`, then
    height x width x `channels` values of on-disk `dtype`, returned in native
    byte order as (H, W) or (H, W, channels).  Raises MalformedHeader for any
    file that cannot be read or does not hold exactly that."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as e:
        raise MalformedHeader(f"{path}: cannot read ({e.strerror})") from None
    tokens, pos = [], 0
    for _ in range(4):
        m = _TOKEN_RE.match(data, pos)
        if not m:
            raise MalformedHeader(f"{path}: truncated netpbm header")
        tokens.append(m.group(1))
        pos = m.end()
    # exactly one whitespace byte separates the header from raster data
    if data[pos:pos + 1] not in (b"\n", b" ", b"\t", b"\r"):
        raise MalformedHeader(f"{path}: missing separator after netpbm header")
    if tokens[0] != magic:
        raise MalformedHeader(f"{path}: expected {magic.decode()} magic, got {tokens[0]!r}")
    try:
        w, h, top = (int(t) for t in tokens[1:])
    except ValueError:
        raise MalformedHeader(f"{path}: non-numeric netpbm header fields") from None
    if w < 1 or h < 1:
        raise MalformedHeader(f"{path}: netpbm dims must be >= 1, got {w}x{h}")
    if top != maxval:
        raise MalformedHeader(f"{path}: {magic.decode()} maxval must be {maxval}, got {top}")
    dtype = np.dtype(dtype)
    expected = w * h * channels * dtype.itemsize
    raster = data[pos + 1:pos + 1 + expected]
    if len(raster) != expected:
        raise MalformedHeader(f"{path}: raster has {len(raster)} bytes, expected {expected}")
    shape = (h, w) if channels == 1 else (h, w, channels)
    return np.frombuffer(raster, dtype=dtype).reshape(shape).astype(dtype.newbyteorder("="))


def _write_netpbm(path: str | Path, raster: np.ndarray, magic: bytes, maxval: int,
                  dtype: str, channels: int, rule: str) -> None:
    """`_read_netpbm`'s counterpart: write `raster`, or raise ValueError stating `rule`."""
    raster = np.asarray(raster)
    tail = () if channels == 1 else (channels,)
    native = np.dtype(dtype).newbyteorder("=")
    if raster.ndim < 2 or raster.shape[2:] != tail or raster.dtype != native:
        raise ValueError(f"{rule}, got {raster.shape} {raster.dtype}")
    with open(path, "wb") as fh:
        fh.write(b"%s\n%d %d\n%d\n" % (magic, raster.shape[1], raster.shape[0], maxval))
        fh.write(np.ascontiguousarray(raster, dtype))  # no copy if already in on-disk layout


def read_json(path: str | Path, error: type[Exception]):
    """The JSON value in the UTF-8 file at `path`; raises `error` for a file
    that cannot be read or decoded."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise error(f"{path}: cannot read ({e.strerror})") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise error(f"{path}: invalid JSON ({e})") from None


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary P6 RGB image (maxval 255) as (H, W, 3) uint8."""
    return _read_netpbm(path, b"P6", 255, "u1", 3)


def write_ppm(path: str | Path, rgb: np.ndarray) -> None:
    _write_netpbm(path, rgb, b"P6", 255, "u1", 3, "rgb must be (H, W, 3) uint8")


def read_pgm16(path: str | Path) -> np.ndarray:
    """Read a binary P5 16-bit image (maxval 65535, big-endian) as (H, W) uint16."""
    return _read_netpbm(path, b"P5", 65535, ">u2", 1)


def write_pgm16(path: str | Path, values: np.ndarray) -> None:
    _write_netpbm(path, values, b"P5", 65535, ">u2", 1, "values must be (H, W) uint16")


def depth_to_millimeters(depth_m: np.ndarray) -> np.ndarray:
    """Quantize float meters to uint16 mm; 0 stays invalid. Raises on overflow."""
    depth_m = np.asarray(depth_m, dtype=np.float64)
    if np.any(depth_m < 0):
        raise ValueError("depth values must be non-negative")
    mm = np.round(depth_m / DEPTH_QUANTUM_M)
    if np.any(mm > 65535):
        raise ValueError(f"depth exceeds {MAX_DEPTH_M} m, not representable in 16 bits")
    return mm.astype(np.uint16)


def millimeters_to_depth(mm: np.ndarray) -> np.ndarray:
    return mm.astype(np.float64) / 1000.0


# ---------- scene directories ----------

def frame_stem(index: int) -> str:
    """The file stem of frame `index`, in a scene directory and in every
    per-frame output made from it: the index, zero-padded to four digits."""
    return f"{index:04d}"


def save_scene(seq: SceneSequence, directory: str | Path) -> None:
    """Write frames and meta.json; frame files are named by `frame_stem`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for frame in seq.frames:
        stem = frame_stem(frame.frame_index)
        write_ppm(directory / f"{stem}.ppm", frame.rgb)
        write_pgm16(directory / f"{stem}.pgm", depth_to_millimeters(frame.depth_gt))
    (directory / "meta.json").write_text(
        json.dumps(asdict(seq.meta), indent=2, sort_keys=True) + "\n"
    )


def load_scene(directory: str | Path) -> SceneSequence:
    """Load a scene directory; frames come back sorted by index."""
    directory = Path(directory)
    meta_path = directory / "meta.json"
    raw = read_json(meta_path, MalformedHeader)
    meta = _construct(SceneMeta, _spec_fields(raw, SceneMeta, str(meta_path), MalformedHeader),
                      str(meta_path), MalformedHeader)

    ppm_stems = {p.stem for p in directory.glob("*.ppm")}
    pgm_stems = {p.stem for p in directory.glob("*.pgm")}
    for stem in sorted(ppm_stems - pgm_stems):
        raise MissingPair(f"{directory / (stem + '.ppm')}: no matching depth (.pgm)")
    for stem in sorted(pgm_stems - ppm_stems):
        raise MissingPair(f"{directory / (stem + '.pgm')}: no matching RGB (.ppm)")

    stems = {}  # frame index -> the stem naming it
    for stem in sorted(ppm_stems):
        if not stem.isdigit():
            raise MalformedHeader(
                f"{directory / (stem + '.ppm')}: frame stems must be numeric"
            )
        first = stems.setdefault(int(stem), stem)
        if first != stem:
            raise DuplicateFrame(f"{directory / (first + '.ppm')} and "
                                 f"{directory / (stem + '.ppm')} both name frame {int(stem)}")

    frames = []
    for index, stem in sorted(stems.items()):
        rgb = read_ppm(directory / f"{stem}.ppm")
        mm = read_pgm16(directory / f"{stem}.pgm")
        if rgb.shape[:2] != mm.shape:
            raise DimensionMismatch(
                f"{directory / (stem + '.pgm')}: depth is {mm.shape}, "
                f"RGB is {rgb.shape[:2]}"
            )
        if rgb.shape[:2] != (meta.height, meta.width):
            raise DimensionMismatch(
                f"{directory / (stem + '.ppm')}: image is {rgb.shape[:2]}, "
                f"meta.json says {(meta.height, meta.width)}"
            )
        frames.append(
            SceneFrame(
                rgb=rgb,
                depth_gt=millimeters_to_depth(mm),
                intrinsics=meta.intrinsics,
                frame_index=index,
                timestamp_s=index / meta.fps,
            )
        )
    return SceneSequence(frames=frames, meta=meta)


# ---------- synthetic scenes ----------

def _check_number(name: str, value, integral: bool = False):
    """`value` if it is a finite real (an integer if `integral`), not a bool."""
    kind = numbers.Integral if integral else numbers.Real
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not (integral or math.isfinite(value))):
        what = "an integer" if integral else "a finite number"
        raise ValueError(f"{name!r} must be {what}, got {value!r}")
    return value


def _check_fov(name: str, value) -> None:
    if not 0 < _check_number(name, value) <= 180:
        raise ValueError(f"{name!r} must be in (0, 180], got {value}")


def _check_vector(name: str, value, length: int, integral: bool = False) -> None:
    if not isinstance(value, (tuple, list)) or len(value) != length:
        raise ValueError(f"{name!r} must hold {length} numbers, got {value!r}")
    for v in value:
        _check_number(name, v, integral)


@dataclass(frozen=True)
class Primitive:
    """One fronto-parallel scene element.

    kind          "plane" (fills the frustum), "box" (cuboid, rendered by
                  its front face), or "quad" (flat rectangle)
    z_m           depth of the plane / front face (m)
    center_xy_m   (X, Y) of the box/quad center in camera coords at z (m)
    size_xy_m     (width, height) of the box/quad (m); ignored for planes
    color         base RGB, 0..255
    texture       "flat", "checker", or "noise"
    checker_m     checker cell edge (m)
    noise_texel_m noise texel edge (m)
    velocity_m_s  (vx, vy, vz) linear motion in camera coords (m/s)
    """

    kind: str
    z_m: float
    center_xy_m: tuple[float, float] = (0.0, 0.0)
    size_xy_m: tuple[float, float] | None = None
    color: tuple[int, int, int] = (128, 128, 128)
    texture: str = "flat"
    checker_m: float = 0.1
    noise_texel_m: float = 0.01
    velocity_m_s: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.kind not in ("plane", "box", "quad"):
            raise ValueError(f"unknown primitive kind {self.kind!r}")
        if self.kind != "plane" and self.size_xy_m is None:
            raise ValueError(f"{self.kind} primitive needs size_xy_m")
        if self.texture not in ("flat", "checker", "noise"):
            raise ValueError(f"unknown texture {self.texture!r}")
        _check_vector("center_xy_m", self.center_xy_m, 2)
        if self.size_xy_m is not None:
            _check_vector("size_xy_m", self.size_xy_m, 2)
        _check_vector("velocity_m_s", self.velocity_m_s, 3)
        _check_vector("color", self.color, 3, integral=True)
        if not all(0 <= c <= 255 for c in self.color):
            raise ValueError(f"'color' must lie in 0..255, got {self.color!r}")
        for name in ("z_m", "checker_m", "noise_texel_m"):
            if not _check_number(name, getattr(self, name)) > 0:
                raise ValueError(f"{name!r} must be > 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a generated RGB-D sequence.

    The camera's horizontal FOV matches the scan mirror FOV (co-located,
    matched-FOV convention used across the package): `pinhole_intrinsics`.
    """

    width: int = 160
    height: int = 120
    fov_deg: float = 25.0
    fps: float = 30.0
    n_frames: int = 1
    z_max_m: float = 3.0
    primitives: tuple[Primitive, ...] = ()

    def __post_init__(self):
        # what SceneMeta cannot say; the sizes and FOV before the pinhole reads them
        for name in ("width", "height", "n_frames"):
            _check_number(name, getattr(self, name), integral=True)
        if self.n_frames < 1:
            raise ValueError(f"'n_frames' must be >= 1, got {self.n_frames}")
        _check_fov("fov_deg", self.fov_deg)
        self.meta  # SceneMeta checks the sizes, rate and range gate
        if self.width * self.height * self.n_frames > MAX_SCENE_PIXELS:
            raise ValueError(
                f"{self.width}x{self.height} x {self.n_frames} frame(s) exceeds "
                f"{MAX_SCENE_PIXELS} pixels"
            )
        if not self.primitives:
            raise EmptyScene("scene spec has no primitives")

    @property
    def meta(self) -> SceneMeta:
        intr = pinhole_intrinsics(self.width, self.height, math.radians(self.fov_deg))
        return SceneMeta(**asdict(intr), fps=self.fps, z_max_m=self.z_max_m,
                         mirror_fov_deg=self.fov_deg)


def _spec_fields(raw, cls, where: str, error=MalformedSpec) -> dict:
    """Keyword arguments for `cls` from a JSON object; lists become tuples."""
    if not isinstance(raw, dict):
        raise error(f"{where}: expected a JSON object, got {type(raw).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise error(f"{where}: unknown key {unknown[0]!r}")
    missing = [name for name, f in known.items()
               if f.default is MISSING and f.default_factory is MISSING and name not in raw]
    if missing:
        raise error(f"{where}: missing key {missing[0]!r}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}


def _construct(cls, kwargs: dict, where: str, error=MalformedSpec):
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise error(f"{where}: {e}") from None


def load_spec(path: str | Path) -> SyntheticSpec:
    """Scene recipe from a JSON object with SyntheticSpec's keys, its
    `primitives` a list of objects with Primitive's keys."""
    raw = read_json(path, MalformedSpec)
    spec = _spec_fields(raw, SyntheticSpec, str(path))
    if "primitives" not in raw:
        raise MalformedSpec(f"{path}: missing key 'primitives'")
    if not isinstance(raw["primitives"], list):
        raise MalformedSpec(f"{path}: key 'primitives' must be a list")
    prims = []
    for i, prim in enumerate(raw["primitives"]):
        where = f"{path}: primitive {i}"
        prims.append(_construct(Primitive, _spec_fields(prim, Primitive, where), where))
    return _construct(SyntheticSpec, {**spec, "primitives": tuple(prims)}, str(path))


# the knobs a scene preset may read beyond its camera, at their defaults: the
# plane's or moving box's distance (m), and the moving box's speed (px/frame)
PRESET_KNOBS = {"range_m": 1.5, "box_speed_px": 30.0}
# scene preset name -> the knobs its recipe reads
SCENE_PRESETS = {"plane": ("range_m",), "two-plane": (), "box": (), "textured": (),
                 "moving-box": ("range_m", "box_speed_px")}


def preset_spec(name: str, *, range_m: float = PRESET_KNOBS["range_m"],
                box_speed_px: float = PRESET_KNOBS["box_speed_px"], **camera) -> SyntheticSpec:
    """The recipe of scene preset `name` on the camera that SyntheticSpec's
    keywords in `camera` describe.  A knob the preset does not read must stay
    at its default."""
    if name not in SCENE_PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    for knob, value in (("range_m", range_m), ("box_speed_px", box_speed_px)):
        if knob not in SCENE_PRESETS[name] and value != PRESET_KNOBS[knob]:
            raise ValueError(f"{knob!r} is not read by the {name} preset")
    if name == "plane":
        prims = (
            Primitive(kind="plane", z_m=range_m, texture="noise", color=(150, 150, 150)),
        )
    elif name == "two-plane":
        prims = (
            Primitive(kind="plane", z_m=3.0, texture="flat", color=(90, 90, 90)),
            Primitive(
                kind="quad", z_m=0.5, size_xy_m=(0.11, 0.16),
                center_xy_m=(-0.028, 0.0), texture="flat", color=(200, 60, 60),
            ),
        )
    elif name == "box":
        prims = (
            Primitive(kind="plane", z_m=2.5, texture="noise", color=(120, 140, 160)),
            Primitive(
                kind="box", z_m=1.2, size_xy_m=(0.18, 0.14),
                texture="noise", color=(200, 160, 60),
            ),
        )
    elif name == "textured":
        prims = (
            Primitive(kind="plane", z_m=2.5, texture="noise", color=(120, 140, 160)),
            Primitive(
                kind="quad", z_m=1.2, size_xy_m=(0.16, 0.12),
                center_xy_m=(-0.08, -0.03), texture="checker",
                checker_m=0.03, color=(210, 210, 60),
            ),
            Primitive(
                kind="quad", z_m=1.8, size_xy_m=(0.22, 0.16),
                center_xy_m=(0.12, 0.05), texture="noise", color=(80, 190, 90),
            ),
        )
    else:
        # bright box sweeping left to right over a dark static background; the
        # backdrop's spec checks the camera before its fx is read
        backdrop = SyntheticSpec(primitives=(
            Primitive(kind="plane", z_m=2.5, texture="flat", color=(30, 30, 30)),), **camera)
        speed_m_s = box_speed_px * range_m / backdrop.meta.fx_px * backdrop.fps
        prims = backdrop.primitives + (
            Primitive(
                kind="box", z_m=range_m, size_xy_m=(0.25, 0.25),
                center_xy_m=(-0.45, 0.0), texture="flat", color=(230, 230, 230),
                velocity_m_s=(speed_m_s, 0.0, 0.0),
            ),
        )
    return SyntheticSpec(primitives=prims, **camera)


@functools.lru_cache(maxsize=16)
def _noise_tile(seed: int, prim_index: int) -> np.ndarray:
    """Deterministic 256x256 grayscale tile, fixed per (seed, primitive); read-only."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, prim_index]))
    tile = rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
    tile.flags.writeable = False
    return tile


def _shade(prim: Primitive, x_m: np.ndarray, y_m: np.ndarray, tile) -> np.ndarray:
    """Per-pixel RGB for a primitive, in its own (moving) coordinates: the
    pixel at (row i, column j) sits at (x_m[j], y_m[i]).  Texel indices are
    taken per column and per row, then combined."""
    shape = (len(y_m), len(x_m), 3)
    color = np.array(prim.color, dtype=np.uint8)
    if prim.texture == "flat":
        return np.broadcast_to(color, shape)
    if prim.texture == "checker":
        parity = (
            np.floor(y_m / prim.checker_m).astype(np.int64)[:, None]
            + np.floor(x_m / prim.checker_m).astype(np.int64)
        ) % 2
        dark = (np.array(prim.color, dtype=np.float64) * 0.25).astype(np.uint8)
        return np.where((parity == 1)[..., None], dark, color)
    # noise: sample the tile in local metric coords so texture rides along;
    # each gray level's shade is the same expression as per pixel
    u = (np.floor(x_m / prim.noise_texel_m).astype(np.int64)) % 256
    v = (np.floor(y_m / prim.noise_texel_m).astype(np.int64)) % 256
    gray = np.arange(256, dtype=np.float64) / 255.0
    shades = (np.array(prim.color, dtype=np.float64) * (0.25 + 0.75 * gray[:, None])).astype(np.uint8)
    return shades[tile[v[:, None], u]]


def generate_synthetic(spec: SyntheticSpec, seed: int = 0) -> SceneSequence:
    """Render a scene recipe with a z-buffer; same (spec, seed) gives identical bytes.

    Depth is quantized to the 1 mm disk quantum at generation time so that
    save/load round-trips are bit-exact.
    """
    meta = spec.meta
    intr = meta.intrinsics
    w, h = spec.width, spec.height
    tiles = [
        _noise_tile(seed, i) if p.texture == "noise" else None
        for i, p in enumerate(spec.primitives)
    ]
    # pixel-center coordinates for texture/frustum math
    px = np.arange(w, dtype=np.float64) + 0.5
    py = np.arange(h, dtype=np.float64) + 0.5

    frames = []
    for k in range(spec.n_frames):
        t = k / spec.fps
        zbuf = np.full((h, w), np.inf)
        depth = np.zeros((h, w))
        rgb = np.zeros((h, w, 3), dtype=np.uint8)

        for i, prim in enumerate(spec.primitives):
            vx, vy, vz = prim.velocity_m_s
            z = prim.z_m + vz * t
            if z <= 0:
                continue
            cx_m = prim.center_xy_m[0] + vx * t
            cy_m = prim.center_xy_m[1] + vy * t

            if prim.kind == "plane":
                ix0, ix1, iy0, iy1 = 0, w, 0, h
            else:
                half_w = prim.size_xy_m[0] / 2.0
                half_h = prim.size_xy_m[1] / 2.0
                # project the rect edges, then take pixels whose centers fall inside
                ex0 = intr.cx_px + intr.fx_px * (cx_m - half_w) / z
                ex1 = intr.cx_px + intr.fx_px * (cx_m + half_w) / z
                ey0 = intr.cy_px + intr.fy_px * (cy_m - half_h) / z
                ey1 = intr.cy_px + intr.fy_px * (cy_m + half_h) / z
                ix0 = max(0, math.ceil(ex0 - 0.5))
                ix1 = min(w, math.ceil(ex1 - 0.5))
                iy0 = max(0, math.ceil(ey0 - 0.5))
                iy1 = min(h, math.ceil(ey1 - 0.5))
                if ix0 >= ix1 or iy0 >= iy1:
                    continue

            sub_px = px[ix0:ix1]
            sub_py = py[iy0:iy1]
            # camera-space coordinates of the hit points, then primitive-local
            x_m = (sub_px - intr.cx_px) / intr.fx_px * z - cx_m
            y_m = (sub_py - intr.cy_px) / intr.fy_px * z - cy_m
            shade = _shade(prim, x_m, y_m, tiles[i])

            region_z = zbuf[iy0:iy1, ix0:ix1]
            win = z < region_z
            region_z[win] = z
            depth[iy0:iy1, ix0:ix1][win] = z
            rgb[iy0:iy1, ix0:ix1][win] = shade[win]

        if not (depth > 0).any():
            raise EmptyScene(f"frame {k}: no primitive intersects the frustum")

        frames.append(
            SceneFrame(
                rgb=rgb,
                # quantized to the disk quantum so in-memory == on-disk
                depth_gt=millimeters_to_depth(depth_to_millimeters(depth)),
                intrinsics=intr,
                frame_index=k,
                timestamp_s=t,
            )
        )
    return SceneSequence(frames=frames, meta=meta)

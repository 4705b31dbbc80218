import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from memslidar import scene_io
from memslidar.scene_io import (
    DimensionMismatch,
    DuplicateFrame,
    EmptyScene,
    MalformedHeader,
    MissingPair,
    Primitive,
    SyntheticSpec,
    depth_to_millimeters,
    generate_synthetic,
    load_scene,
    millimeters_to_depth,
    read_pgm16,
    read_ppm,
    save_scene,
    write_pgm16,
    write_ppm,
)


# ---------- pnm formats ----------

def test_ppm_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(33, 47, 3), dtype=np.uint8)
    path = tmp_path / "x.ppm"
    write_ppm(path, img)
    assert np.array_equal(read_ppm(path), img)


def test_pgm16_roundtrip_and_big_endian(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 65536, size=(9, 11), dtype=np.uint16)
    path = tmp_path / "x.pgm"
    write_pgm16(path, img)
    assert np.array_equal(read_pgm16(path), img)
    raw = path.read_bytes()
    # header ends after a single whitespace byte following maxval
    body = raw.split(b"65535", 1)[1][1:]
    assert body[:2] == int(img[0, 0]).to_bytes(2, "big")


def test_pgm_comment_lines_are_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    body = np.array([[1000]], dtype=">u2").tobytes()
    path.write_bytes(b"P5\n# a comment\n1 1\n# another\n65535\n" + body)
    assert read_pgm16(path)[0, 0] == 1000


def test_malformed_magic_raises(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P7\n1 1\n65535\n\x00\x01")
    with pytest.raises(MalformedHeader):
        read_pgm16(path)


@pytest.mark.parametrize("read, data, match", [
    (read_ppm, b"P6\n-2 -2\n255\n" + bytes(12), "dims"),
    (read_pgm16, b"P5\n-2 -2\n65535\n" + bytes(8), "dims"),
    (read_pgm16, b"P5\n0 4\n65535\n", "dims"),
    (read_ppm, b"P6x\n1 1\n255\n" + bytes(3), "magic"),
    (read_pgm16, b"P5x\n1 1\n65535\n" + bytes(2), "magic"),
    (read_ppm, None, "cannot read"),
    (read_pgm16, None, "cannot read"),
    (read_pgm16, b"P5\n1 1\n", "truncated"),
], ids=["ppm-negative-dims", "pgm-negative-dims", "pgm-zero-width", "P6x-magic",
        "P5x-magic", "ppm-directory", "pgm-directory", "pgm-truncated-header"])
def test_malformed_netpbm_raises(tmp_path, read, data, match):
    path = tmp_path / "x"
    if data is None:
        path.mkdir()
    else:
        path.write_bytes(data)
    with pytest.raises(MalformedHeader, match=match):
        read(path)


@pytest.mark.parametrize("write, values", [
    (write_ppm, np.zeros((4, 4), dtype=np.uint8)),
    (write_ppm, np.zeros((4, 4, 3), dtype=np.uint16)),
    (write_pgm16, np.zeros((4, 4, 1), dtype=np.uint16)),
    (write_pgm16, np.zeros((4, 4), dtype=np.int32)),
])
def test_writers_reject_bad_arrays(tmp_path, write, values):
    with pytest.raises(ValueError, match="must be"):
        write(tmp_path / "x", values)
    assert not (tmp_path / "x").exists()


def test_only_the_two_readers_read_files():
    # one checked reader per format: every file the package reads is read in
    # _read_netpbm or read_json, which turn each failure into a typed error
    readers = {"_read_netpbm", "read_json"}
    package = Path(__file__).resolve().parents[1] / "src" / "memslidar"
    outside, inside = [], 0
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(node) for func in ast.walk(tree)
                   if isinstance(func, ast.FunctionDef) and func.name in readers
                   for node in ast.walk(func)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("read_text", "read_bytes")):
                if id(node) in allowed:
                    inside += 1
                else:
                    outside.append(f"{path.name}:{node.lineno}")
    assert not outside
    assert inside == 2


def test_depth_millimeter_conversion():
    depth = millimeters_to_depth(np.array([[1500, 0]], dtype=np.uint16))
    assert depth[0, 0] == 1.5
    assert depth[0, 1] == 0.0
    back = depth_to_millimeters(depth)
    assert back.dtype == np.uint16
    assert back[0, 0] == 1500
    with pytest.raises(ValueError):
        depth_to_millimeters(np.array([[70.0]]))  # beyond the 16-bit mm range


def test_negative_depth_has_no_millimeter_value():
    with pytest.raises(ValueError, match="non-negative"):
        depth_to_millimeters(np.array([[1.0, -0.001]]))


# ---------- scene save/load ----------

def _two_frame_scene():
    spec = SyntheticSpec(
        width=40, height=30, n_frames=2, fps=10.0,
        primitives=(
            Primitive(kind="plane", z_m=2.0, texture="checker", checker_m=0.05),
        ),
    )
    return generate_synthetic(spec, seed=3)


def test_save_load_roundtrip(tmp_path):
    seq = _two_frame_scene()
    save_scene(seq, tmp_path / "scene")
    loaded = load_scene(tmp_path / "scene")
    assert len(loaded.frames) == 2
    for a, b in zip(seq.frames, loaded.frames):
        assert np.array_equal(a.rgb, b.rgb)
        assert np.array_equal(a.depth_gt, b.depth_gt)
        assert a.frame_index == b.frame_index
        assert a.timestamp_s == pytest.approx(b.timestamp_s)
    assert loaded.meta == seq.meta


def test_load_reports_missing_depth(tmp_path):
    seq = _two_frame_scene()
    save_scene(seq, tmp_path / "scene")
    (tmp_path / "scene" / "0001.pgm").unlink()
    with pytest.raises(MissingPair, match="0001"):
        load_scene(tmp_path / "scene")


def test_load_reports_missing_rgb(tmp_path):
    seq = _two_frame_scene()
    save_scene(seq, tmp_path / "scene")
    (tmp_path / "scene" / "0000.ppm").unlink()
    with pytest.raises(MissingPair, match="0000"):
        load_scene(tmp_path / "scene")


def test_load_reports_dimension_mismatch(tmp_path):
    seq = _two_frame_scene()
    save_scene(seq, tmp_path / "scene")
    write_pgm16(tmp_path / "scene" / "0000.pgm", np.zeros((8, 8), dtype=np.uint16))
    with pytest.raises(DimensionMismatch, match="0000"):
        load_scene(tmp_path / "scene")


def test_load_reports_frame_size_against_meta(tmp_path):
    # the frame's PPM and PGM agree with each other, not with meta.json
    save_scene(_two_frame_scene(), tmp_path / "scene")
    write_ppm(tmp_path / "scene" / "0001.ppm", np.zeros((8, 8, 3), dtype=np.uint8))
    write_pgm16(tmp_path / "scene" / "0001.pgm", np.zeros((8, 8), dtype=np.uint16))
    with pytest.raises(DimensionMismatch, match="meta.json"):
        load_scene(tmp_path / "scene")


def test_load_requires_numeric_frame_stems(tmp_path):
    save_scene(_two_frame_scene(), tmp_path / "scene")
    for ext in ("ppm", "pgm"):
        (tmp_path / "scene" / f"0001.{ext}").rename(tmp_path / "scene" / f"last.{ext}")
    with pytest.raises(MalformedHeader, match="numeric"):
        load_scene(tmp_path / "scene")


def test_load_rejects_two_stems_for_one_frame(tmp_path, monkeypatch):
    # 0000 and 00000 both parse to frame 0: rejected before any frame is read
    scene = tmp_path / "scene"
    save_scene(_two_frame_scene(), scene)
    for ext in ("ppm", "pgm"):
        (scene / f"00000.{ext}").write_bytes((scene / f"0000.{ext}").read_bytes())
    monkeypatch.setattr(scene_io, "read_ppm", None)
    with pytest.raises(DuplicateFrame) as info:
        load_scene(scene)
    assert str(info.value) == f"{scene / '0000.ppm'} and {scene / '00000.ppm'} both name frame 0"


def test_load_requires_meta_keys(tmp_path):
    seq = _two_frame_scene()
    save_scene(seq, tmp_path / "scene")
    meta = json.loads((tmp_path / "scene" / "meta.json").read_text())
    del meta["fps"]
    (tmp_path / "scene" / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(MalformedHeader, match="fps"):
        load_scene(tmp_path / "scene")


def test_loaded_timestamps_strictly_increase(tmp_path):
    save_scene(_two_frame_scene(), tmp_path / "s")
    loaded = load_scene(tmp_path / "s")
    ts = [f.timestamp_s for f in loaded.frames]
    assert ts == sorted(ts) and len(set(ts)) == len(ts)


# ---------- synthetic generation ----------

def test_constant_plane_depth_is_exact():
    spec = SyntheticSpec(
        width=32, height=24,
        primitives=(Primitive(kind="plane", z_m=2.0, texture="flat"),),
    )
    frame = generate_synthetic(spec, seed=0).frames[0]
    assert np.all(frame.depth_gt == 2.0)


def test_two_plane_depth_histogram():
    # near quad occluding a far plane: exactly two depth values
    spec = SyntheticSpec(
        width=64, height=48, z_max_m=4.0,
        primitives=(
            Primitive(kind="plane", z_m=3.0, texture="flat"),
            Primitive(kind="quad", z_m=0.5, size_xy_m=(0.08, 0.08),
                      texture="flat", color=(200, 50, 50)),
        ),
    )
    frame = generate_synthetic(spec, seed=0).frames[0]
    values = np.unique(frame.depth_gt)
    assert set(values.tolist()) == {0.5, 3.0}
    assert (frame.depth_gt == 0.5).sum() > 0


def test_box_translates_per_frame():
    # 10 px/frame: bounding boxes of the near surface shift by exactly 10
    w, h, fov = 64, 48, 25.0
    import math
    fx = (w / 2) / math.tan(math.radians(fov) / 2)
    fps, z = 10.0, 1.0
    speed = 10.0 * z / fx * fps  # 10 px/frame in meters/second
    spec = SyntheticSpec(
        width=w, height=h, fov_deg=fov, fps=fps, n_frames=10, z_max_m=4.0,
        primitives=(
            Primitive(kind="plane", z_m=3.0, texture="flat"),
            Primitive(kind="box", z_m=z, size_xy_m=(0.05, 0.05),
                      center_xy_m=(-0.08, 0.0), velocity_m_s=(speed, 0.0, 0.0),
                      texture="flat", color=(250, 250, 250)),
        ),
    )
    seq = generate_synthetic(spec, seed=0)
    lefts = []
    for frame in seq.frames:
        cols = np.nonzero((frame.depth_gt == 1.0).any(axis=0))[0]
        if cols.size:
            lefts.append((frame.frame_index, int(cols[0]), int(cols[-1])))
    shifts = [(b[1] - a[1], b[2] - a[2]) for a, b in zip(lefts, lefts[1:])
              if a[0] + 1 == b[0]]
    interior = [s for s in shifts if s[0] == s[1]]  # ignore edge-clipped frames
    assert interior and all(s == (10, 10) for s in interior)


def test_generation_is_deterministic():
    spec = SyntheticSpec(
        width=32, height=24,
        primitives=(Primitive(kind="plane", z_m=2.0, texture="noise"),),
    )
    a = generate_synthetic(spec, seed=5).frames[0]
    b = generate_synthetic(spec, seed=5).frames[0]
    c = generate_synthetic(spec, seed=6).frames[0]
    assert np.array_equal(a.rgb, b.rgb)
    assert np.array_equal(a.depth_gt, b.depth_gt)
    assert not np.array_equal(a.rgb, c.rgb)


def test_checker_texture_has_two_shades():
    spec = SyntheticSpec(
        width=32, height=24,
        primitives=(Primitive(kind="plane", z_m=1.0, texture="checker",
                              checker_m=0.05, color=(200, 200, 200)),),
    )
    frame = generate_synthetic(spec, seed=0).frames[0]
    assert len(np.unique(frame.rgb[..., 0])) == 2


def _shade_ref(prim, local_x_m, local_y_m, tile):
    """Per-pixel shading as the renderer did it before texel indices were
    taken per column and per row: every pixel's coordinates, one by one."""
    shape = np.broadcast(local_x_m, local_y_m).shape
    base = np.empty(shape + (3,), dtype=np.uint8)
    base[...] = np.array(prim.color, dtype=np.uint8)
    if prim.texture == "flat":
        return base
    if prim.texture == "checker":
        parity = (
            np.floor(local_x_m / prim.checker_m).astype(np.int64)
            + np.floor(local_y_m / prim.checker_m).astype(np.int64)
        ) % 2
        dark = (np.array(prim.color, dtype=np.float64) * 0.25).astype(np.uint8)
        out = base.copy()
        out[parity == 1] = dark
        return out
    u = (np.floor(local_x_m / prim.noise_texel_m).astype(np.int64)) % 256
    v = (np.floor(local_y_m / prim.noise_texel_m).astype(np.int64)) % 256
    gray = tile[v, u].astype(np.float64) / 255.0
    color = np.array(prim.color, dtype=np.float64)
    return (color * (0.25 + 0.75 * gray[..., None])).astype(np.uint8)


def test_render_matches_per_pixel_shading_reference(monkeypatch):
    # flat, checker and noise primitives moving through the frame centre, so
    # local coordinates run negative; the plane's texels and checker squares
    # are half a pixel pitch wide, so their edges fall on pixel centres
    w, h, fov_deg, z = 64, 48, 25.0, 2.0
    half_pitch = z / (w / math.tan(math.radians(fov_deg) / 2.0))
    rng = np.random.default_rng(11)
    prims = [Primitive(kind="plane", z_m=z, texture=texture, color=(200, 120, 40),
                       noise_texel_m=half_pitch, checker_m=half_pitch)
             for texture in ("noise", "checker")]
    for texture in ("flat", "checker", "noise"):
        prims.append(Primitive(
            kind="quad", z_m=float(rng.uniform(0.9, 1.8)), size_xy_m=(0.2, 0.15),
            center_xy_m=(-0.12, 0.05), texture=texture, checker_m=0.013,
            noise_texel_m=0.0021, color=tuple(int(c) for c in rng.integers(0, 256, 3)),
            velocity_m_s=(float(rng.uniform(1.0, 3.0)), -0.5, 0.1)))
    scenes = [SyntheticSpec(width=w, height=h, fov_deg=fov_deg, n_frames=4,
                            primitives=(prims[i], *prims[2:])) for i in (0, 1)]
    got = [generate_synthetic(spec, seed=3) for spec in scenes]
    monkeypatch.setattr(scene_io, "_shade", lambda prim, x_m, y_m, tile: _shade_ref(
        prim, *np.broadcast_arrays(x_m[None, :], y_m[:, None]), tile))
    want = [generate_synthetic(spec, seed=3) for spec in scenes]
    for a, b in zip(got, want):
        for fa, fb in zip(a.frames, b.frames):
            assert fa.rgb.tobytes() == fb.rgb.tobytes()
            assert fa.depth_gt.tobytes() == fb.depth_gt.tobytes()
    # noise tiles are cached across renders, so they are read-only
    assert not scene_io._noise_tile(3, 0).flags.writeable


@pytest.mark.parametrize("kwargs, match", [
    ({"kind": "box", "z_m": 1.0}, "size_xy_m"),
    ({"kind": "quad", "z_m": 1.0}, "size_xy_m"),
    ({"kind": "plane", "z_m": 1.0, "texture": "marble"}, "texture"),
])
def test_primitive_rejects_bad_fields(kwargs, match):
    with pytest.raises(ValueError, match=match):
        Primitive(**kwargs)


def test_spec_needs_a_primitive():
    with pytest.raises(EmptyScene):
        SyntheticSpec()


def test_primitive_behind_camera_is_not_drawn():
    # the box starts at 0.5 m and moves 1 m toward the camera per 0.1 s frame
    spec = SyntheticSpec(
        width=16, height=12, fps=10.0, n_frames=2,
        primitives=(
            Primitive(kind="plane", z_m=2.0, texture="flat"),
            Primitive(kind="box", z_m=0.5, size_xy_m=(0.05, 0.05),
                      velocity_m_s=(0.0, 0.0, -10.0), texture="flat"),
        ),
    )
    first, second = generate_synthetic(spec, seed=0).frames
    assert (first.depth_gt == 0.5).any()
    assert (second.depth_gt == 2.0).all()


def test_empty_frustum_raises():
    spec = SyntheticSpec(
        width=32, height=24,
        primitives=(Primitive(kind="quad", z_m=1.0, center_xy_m=(5.0, 0.0),
                              size_xy_m=(0.01, 0.01), texture="flat"),),
    )
    with pytest.raises(EmptyScene):
        generate_synthetic(spec, seed=0)


def test_depth_exceeding_format_range_raises():
    spec = SyntheticSpec(
        width=8, height=8, z_max_m=65.535,
        primitives=(Primitive(kind="plane", z_m=70.0, texture="flat"),),
    )
    with pytest.raises(ValueError):
        generate_synthetic(spec, seed=0)


def test_scene_size_is_bounded():
    # checked when the spec is built, before any pixel is allocated
    plane = (Primitive(kind="plane", z_m=2.0),)
    SyntheticSpec(width=4096, height=4096, primitives=plane)
    SyntheticSpec(width=640, height=480, n_frames=54, primitives=plane)
    for width, height, n_frames in ((4097, 4096, 1), (640, 480, 55), (10**9, 1, 1)):
        with pytest.raises(ValueError, match="pixels"):
            SyntheticSpec(width=width, height=height, n_frames=n_frames, primitives=plane)

"""End-to-end tests driving the command line entry point in process."""

import ast
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from memslidar import cli
from memslidar.cli import main
from memslidar.scan_engine import ScanPattern
from memslidar.scene_io import load_scene, read_pgm16, write_pgm16


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    return json.loads(Path(path).read_text())


def make_scene(tmp_path, preset, frames, name="scene", **flags):
    out = tmp_path / name
    argv = ["gen-scene", "--preset", preset, "--frames", frames, "--out", out]
    for flag, value in flags.items():
        argv += ["--" + flag.replace("_", "-"), value]
    assert run(*argv) == 0
    return out


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "memslidar" in capsys.readouterr().out


def test_optics_sweep_row_count(tmp_path):
    out = tmp_path / "sweep"
    code = run(
        "optics-sweep", "--design", "all", "--M", "1,100",
        "--w0-mm", "0.1,5", "--Z-m", "0.5:100:log50", "--out", out,
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    # 3 designs x 2 mirror counts x 2 waists x 50 ranges, plus header
    assert len(lines) == 601
    run_doc = read_json(out / "run.json")
    assert run_doc["command"] == "optics-sweep"
    assert run_doc["resolved"]["M"] == "1,100"
    assert "package_version" in run_doc


def test_optics_sweep_crossover_file(tmp_path):
    out = tmp_path / "xover"
    assert run("optics-sweep", "--find-crossover", "--out", out) == 0
    crossings = read_json(out / "crossovers.json")
    assert crossings
    hits = [
        c for c in crossings
        if c["winner_above"] == "single_detector" and 100 < c["z_star_m"] < 300
    ]
    assert hits


def test_optics_sweep_output_bytes_frozen(tmp_path, capsys):
    # a small grid drawn once from a seeded generator, as the benchmark draws
    # its grid; 864 rows, 144 of them flagged non-physical, 32 crossovers
    out = tmp_path / "sweep"
    capsys.readouterr()
    assert run(
        "optics-sweep", "--find-crossover", "--design", "all",
        "--M", "1.155,10.84,97.76", "--w0-mm", "0.1845,4.65", "--A-mm", "19.75,90.05",
        "--u-mm", "4.911", "--f-mm", "24.49,47.34", "--Z-m", "0.5121:639.2:log12",
        "--out", out,
    ) == 0
    stdout = capsys.readouterr().out.replace(str(out), "OUT")

    def digest(data):
        return hashlib.sha256(data).hexdigest()

    assert digest((out / "sweep.csv").read_bytes()) == (
        "460f1eb6fcdf670d3068a51bafbd1b15bb6ce1a796cc25a97aa72be143ebf723")
    assert digest((out / "crossovers.json").read_bytes()) == (
        "36813a1dce4b264e5cc81bf39bc6274b8d540df67ad263ae88bdea4385f46c8a")
    assert digest(stdout.encode()) == (
        "23fcb023683f7371318faeaae18f555b3e9700afa3bf0c789297d9d980f20c7e")


def test_optics_sweep_empty_grid_usage_error(tmp_path):
    assert run("optics-sweep", "--Z-m", "", "--out", tmp_path / "a") == 2
    assert run("optics-sweep", "--M", "", "--out", tmp_path / "b") == 2


def test_optics_sweep_out_of_bounds_exit_2(tmp_path):
    assert run("optics-sweep", "--M", "300", "--out", tmp_path / "oob") == 2


@pytest.fixture(scope="module")
def plane_capture(tmp_path_factory):
    """(scene, capture) directories: one 160x120 plane frame scanned at 30 fps."""
    root = tmp_path_factory.mktemp("plane")
    scene, cap = root / "scene", root / "cap"
    assert run("gen-scene", "--preset", "plane", "--out", scene) == 0
    assert run("capture", "--scene", scene, "--fps", "30", "--out", cap) == 0
    return scene, cap


def _rejected_run(tmp_path, capsys, plane_capture, argv, code, prefix):
    """Run argv with SCENE, SPARSE and NOPE filled in; assert one error line
    and no --out directory."""
    scene, cap = plane_capture
    names = {"SCENE": scene, "SPARSE": cap, "NOPE": tmp_path / "nope"}
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*(names.get(a, a) for a in argv), "--out", out) == code
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["optics-sweep", "--M", "300"],
    ["optics-sweep", "--Z-m", "0:100:log5"],
    ["optics-sweep", "--Z-m", "inf,2"],
    ["optics-sweep", "--Z-m", "1e400,2"],
    ["optics-sweep", "--n", "0"],
    ["optics-sweep", "--mirror-fov-deg", "nan"],
    ["optics-sweep", "--design", "single", "--Z-m", "0.01,2"],
    ["gen-scene", "--preset", "plane", "--fps", "0"],
    ["fit-budget", "--pairs", "bad"],
    ["fit-budget", "--pairs", "10:5,10:7"],
    ["scan", "--dims", "160x120", "--fps", "0"],
    # budget 0: the frame outlasts the fitted overhead by under one sample period
    ["scan", "--dims", "160x120", "--fps", "62"],
    ["scan", "--dims", "160x120", "--regime", "density", "--fps", "62"],
    ["scan", "--scene", "SCENE", "--regime", "foveated"],
    ["capture", "--scene", "SCENE", "--regime", "foveated", "--roi", "5,5,2,2"],
    ["capture", "--scene", "SCENE", "--regime", "entropy", "--fps", "63"],
    ["capture", "--scene", "SCENE", "--regime", "foveated", "--roi", "0,0,40,30", "--fps", "63"],
    ["fovea", "--scene", "SCENE", "--mode", "entropy", "--roi-dims", "bad"],
    ["complete", "--scene", "SCENE", "--sparse", "SPARSE", "--k-neighbors", "0"],
    ["eval", "--scene", "SCENE"],
    ["eval", "--scene", "SCENE", "--pred", "SPARSE", "--roi", "0,0,500,500"],
    ["eval", "--scene", "SCENE", "--fps-sweep", "62"],
    # --fps-sweep captures and completes its own frames
    ["eval", "--scene", "SCENE", "--fps-sweep", "30", "--pred", "SPARSE"],
    ["eval", "--scene", "SCENE", "--fps-sweep", "30", "--roi", "0,0,5,5"],
    ["eval", "--scene", "SCENE", "--fps-sweep", "30", "--roi-only"],
    ["capture", "--scene", "SCENE", "--jobs", "0"],
    ["complete", "--scene", "SCENE", "--sparse", "SPARSE", "--jobs", "-3"],
    ["eval", "--scene", "SCENE", "--fps-sweep", "30", "--jobs", "0"],
], ids=" ".join)
def test_rejected_call_leaves_no_out_dir(tmp_path, capsys, plane_capture, argv):
    _rejected_run(tmp_path, capsys, plane_capture, argv, 2, "usage error:")


@pytest.mark.parametrize("argv", [
    ["scan", "--scene", "NOPE"],
    ["capture", "--scene", "NOPE"],
    ["capture", "--scene", "SCENE", "--z-max-m", "0.5"],
    ["fovea", "--scene", "NOPE"],
    ["complete", "--scene", "NOPE", "--sparse", "SPARSE"],
    ["complete", "--scene", "SCENE", "--sparse", "NOPE"],
    ["eval", "--scene", "NOPE", "--pred", "SPARSE"],
    ["eval", "--scene", "SCENE", "--pred", "NOPE"],
], ids=" ".join)
def test_bad_data_leaves_no_out_dir(tmp_path, capsys, plane_capture, argv):
    _rejected_run(tmp_path, capsys, plane_capture, argv, 3, "error:")


@pytest.mark.parametrize("text", [
    "not json",
    '{"frame": 0, "roi": null}',
    "[5]",
    '[{"roi": null}]',
    '[{"frame": "0", "roi": null}]',
    '[{"frame": 0.0, "roi": null}]',
    '[{"frame": 7, "roi": null}]',
    '[{"frame": 0, "roi": null}, {"frame": 0, "roi": null}]',
    '[{"frame": 0, "roi": "abc"}]',
    '[{"frame": 0, "roi": [0, 0, 5]}]',
    '[{"frame": 0, "roi": [0, 0, 10.5, 5]}]',
    '[{"frame": 0, "roi": [0, 0, true, 5]}]',
    '[{"frame": 0, "roi": [0, 0, 999, 5]}]',
    '[{"frame": 0, "roi": [-150, 0, 100, 100]}]',
], ids=["not-json", "not-a-list", "row-not-object", "no-frame", "frame-string",
        "frame-float", "frame-not-in-scene", "frame-twice", "roi-string", "roi-3-values",
        "roi-float", "roi-bool", "roi-past-edge", "roi-negative"])
def test_eval_roi_only_bad_capture_summary_exit_3(tmp_path, capsys, plane_capture, text):
    # a completed one-frame 160x120 prediction, with a capture summary beside it
    scene, cap = plane_capture
    pred = tmp_path / "pred"
    assert run("complete", "--scene", scene, "--sparse", cap, "--out", pred) == 0
    (pred / "capture_summary.json").write_text(text)
    _rejected_run(tmp_path, capsys, plane_capture,
                  ["eval", "--scene", "SCENE", "--pred", pred, "--roi-only"], 3, "error:")


def test_jobs_capped_at_frame_count(tmp_path, monkeypatch):
    # record the pool size instead of forking: --jobs 64 must not start 64 workers
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *columns):
            return map(fn, *columns)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    scene = make_scene(tmp_path, "moving-box", 2)
    for command in (["capture", "--fps", "30"], ["eval", "--fps-sweep", "30,6"]):
        out = tmp_path / command[0]
        assert run(*command, "--scene", scene, "--jobs", "64", "--out", out) == 0
    assert run("complete", "--scene", scene, "--sparse", tmp_path / "capture",
               "--jobs", "64", "--out", tmp_path / "pred") == 0
    assert sizes == [2, 2, 2, 2]


def test_cli_binds_every_name_the_benchmark_traces():
    # bench/workloads.py patches memslidar.cli.<name> for each CLI_TRACED name
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "workloads.py").read_text())
    traced = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "CLI_TRACED" for t in node.targets)
    ]
    assert len(traced) == 1 and traced[0]
    missing = [name for name in traced[0] if not callable(getattr(cli, name, None))]
    assert not missing


def _edit_first_sample(doc, **fields):
    return {**doc, "samples": [{**doc["samples"][0], **fields}, *doc["samples"][1:]]}


def _shift_first_sample(doc, name, edit):
    return _edit_first_sample(doc, **{name: edit(doc["samples"][0][name])})


@pytest.mark.parametrize("corrupt", [
    lambda doc: {k: v for k, v in doc.items() if k != "samples"},
    lambda doc: {**doc, "samples": [{k: v for k, v in s.items() if k != "range_m"}
                                    for s in doc["samples"]]},
    None,  # not JSON at all
    # each of these used to load as a nearby number: the same pixel or range
    lambda doc: _shift_first_sample(doc, "pixel_x", lambda x: x + 0.5),
    lambda doc: _shift_first_sample(doc, "pixel_y", lambda y: str(y)),
    lambda doc: _edit_first_sample(doc, pixel_x=True),
    lambda doc: _edit_first_sample(doc, pixel_y=2**70),
    lambda doc: _shift_first_sample(doc, "range_m", lambda z: str(z)),
    lambda doc: _edit_first_sample(doc, range_m=True),
    lambda doc: _edit_first_sample(doc, t_s=None),
], ids=["no-samples-key", "sample-lacks-range", "not-json", "fractional-pixel",
        "string-pixel", "bool-pixel", "pixel-beyond-int64", "string-range", "bool-range",
        "null-time"])
def test_complete_malformed_sparse_json_exit_3(tmp_path, capsys, plane_capture, corrupt):
    scene, cap = plane_capture
    sparse = tmp_path / "cap"
    shutil.copytree(cap, sparse)
    path = sparse / "0000.json"
    if corrupt is None:
        path.write_text("P5 not json\n")
    else:
        path.write_text(json.dumps(corrupt(read_json(path))))
    _rejected_run(tmp_path, capsys, plane_capture,
                  ["complete", "--scene", "SCENE", "--sparse", sparse], 3, "error:")


@pytest.mark.parametrize("corrupt", [
    lambda doc: _edit_first_sample(doc, pixel_x=500),
    lambda doc: _edit_first_sample(doc, pixel_x=-3),
    lambda doc: _edit_first_sample(doc, range_m=None),
    lambda doc: _edit_first_sample(doc, range_m=-1.0),
    lambda doc: {**doc, "samples": doc["samples"][:5]},
    lambda doc: {**doc, "samples": [doc["samples"][0], *doc["samples"][:-1]]},
], ids=["pixel-x-500", "pixel-x-negative", "range-null", "range-negative",
        "cut-to-5", "duplicate-pixel"])
def test_complete_sparse_disagreeing_with_pgm_exit_3(tmp_path, capsys, plane_capture, corrupt):
    _, cap = plane_capture
    sparse = tmp_path / "cap"
    shutil.copytree(cap, sparse)
    path = sparse / "0000.json"
    path.write_text(json.dumps(corrupt(read_json(path))))
    _rejected_run(tmp_path, capsys, plane_capture,
                  ["complete", "--scene", "SCENE", "--sparse", sparse], 3, "error:")


def test_fit_budget_reference_pairs(tmp_path):
    out = tmp_path / "fit"
    assert run("fit-budget", "--out", out) == 0
    doc = read_json(out / "budget_fit.json")
    assert doc["sample_rate_hz"] == pytest.approx(1527.6715945089757, rel=1e-9)
    assert doc["frame_overhead_s"] == pytest.approx(0.015495989161577512, rel=1e-9)
    assert len(doc["residuals"]) == 5
    assert [row["predicted"] for row in doc["forward"]] == [27, 39, 61, 103, 230]
    for row in doc["forward"]:
        assert abs(row["predicted"] - row["observed"]) <= 0.05 * row["observed"]


def test_fit_budget_bad_pairs_exit_2(tmp_path):
    assert run("fit-budget", "--pairs", "30,28", "--out", tmp_path / "a") == 2
    # two fps values, identical: singular system
    assert run("fit-budget", "--pairs", "10:5,10:7", "--out", tmp_path / "b") == 2


def test_gen_scene_preset_loads(tmp_path):
    out = make_scene(tmp_path, "two-plane", 3)
    scene = load_scene(out)
    assert len(scene.frames) == 3
    assert scene.frames[0].depth_gt.shape == (120, 160)
    stamps = [f.timestamp_s for f in scene.frames]
    assert stamps == sorted(stamps) and len(set(stamps)) == 3


def test_gen_scene_spec_json(tmp_path):
    spec = {
        "width": 64,
        "height": 48,
        "n_frames": 1,
        "fps": 10.0,
        "fov_deg": 25.0,
        "primitives": [
            {"kind": "plane", "z_m": 2.0, "texture": "flat", "color": [90, 90, 90]},
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "scene"
    assert run("gen-scene", "--spec-json", spec_path, "--out", out) == 0
    scene = load_scene(out)
    depth = scene.frames[0].depth_gt
    assert depth.shape == (48, 64)
    assert np.all(depth == 2.0)


_PLANE = {"kind": "plane", "z_m": 2.0}
_SPEC = {"width": 64, "height": 48, "primitives": [_PLANE]}


@pytest.mark.parametrize("text, named", [
    (json.dumps({**_SPEC, "primitives": [{**_PLANE, "shine": 1}]}), "'shine'"),
    (json.dumps({**_SPEC, "colour": [1, 2, 3]}), "'colour'"),
    (json.dumps({"width": 64, "height": 48}), "'primitives'"),
    (json.dumps({**_SPEC, "primitives": ["plane"]}), "primitive 0"),
    (json.dumps({**_SPEC, "primitives": {"kind": "plane"}}), "'primitives'"),
    (json.dumps({**_SPEC, "primitives": [{"z_m": 2.0}]}), "'kind'"),
    (json.dumps({**_SPEC, "primitives": [{**_PLANE, "kind": "sphere"}]}), "'sphere'"),
    (json.dumps({**_SPEC, "primitives": [{**_PLANE, "color": [300, 0, 0]}]}), "'color'"),
    (json.dumps({**_SPEC, "width": 64.5}), "'width'"),
    (json.dumps({**_SPEC, "z_max_m": "far"}), "'z_max_m'"),
    (json.dumps({**_SPEC, "primitives": [{**_PLANE, "center_xy_m": "ab"}]}), "'center_xy_m'"),
    (json.dumps({**_SPEC, "primitives": [{**_PLANE, "velocity_m_s": [1]}]}), "'velocity_m_s'"),
    (json.dumps([_SPEC]), "JSON object"),
    ("{not json", "invalid JSON"),
    (json.dumps({**_SPEC, "fps": 0}), "'fps'"),
    (json.dumps({**_SPEC, "z_max_m": -1}), "'z_max_m'"),
    (json.dumps({**_SPEC, "z_max_m": 70.0}), "'z_max_m'"),
    (json.dumps({**_SPEC, "fov_deg": 200}), "'fov_deg'"),
    (json.dumps({**_SPEC, "fov_deg": 0}), "'fov_deg'"),
    (json.dumps({**_SPEC, "n_frames": 0}), "'n_frames'"),
    ('{"width": 64, "height": 48, "fps": NaN, "primitives": [{"kind": "plane", "z_m": 2}]}',
     "'fps'"),
    (json.dumps({**_SPEC, "primitives": [{**_PLANE, "checker_m": 0}]}), "'checker_m'"),
    (json.dumps({**_SPEC, "width": 100000, "height": 100000}), "pixels"),
    (json.dumps({**_SPEC, "width": 1000000000}), "pixels"),
    (json.dumps({**_SPEC, "width": 4096, "height": 4096, "n_frames": 2}), "pixels"),
], ids=["primitive-key", "top-level-key", "no-primitives", "primitive-not-object",
        "primitives-not-list", "primitive-lacks-kind", "unknown-kind", "color-range",
        "float-width", "text-range", "text-centre", "short-velocity", "not-an-object",
        "not-json", "zero-fps", "negative-range", "range-beyond-pgm", "wide-fov",
        "zero-fov", "zero-frames", "nan-fps", "zero-checker", "huge-frame",
        "billion-wide", "too-many-frames"])
def test_gen_scene_bad_spec_json_exit_3(tmp_path, capsys, text, named):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(text)
    out = tmp_path / "scene"
    capsys.readouterr()
    assert run("gen-scene", "--spec-json", spec_path, "--out", out) == 3
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and named in lines[0], err
    assert not out.exists()


def test_scan_without_scene_single_pattern(tmp_path):
    out = tmp_path / "scan"
    assert run("scan", "--fps", "30", "--dims", "64x48", "--out", out) == 0
    files = sorted(out.glob("pattern_*.json"))
    assert [f.name for f in files] == ["pattern_0000.json"]
    pattern = ScanPattern.from_json(files[0].read_text())
    assert pattern.budget == 27
    assert len(pattern.samples) == 27


def test_scan_entropy_pattern_per_frame(tmp_path):
    scene = make_scene(tmp_path, "moving-box", 3)
    out = tmp_path / "scan"
    code = run(
        "scan", "--scene", scene, "--regime", "entropy",
        "--fps", "30", "--out", out,
    )
    assert code == 0
    files = sorted(out.glob("pattern_*.json"))
    assert [f.name for f in files] == [
        "pattern_0000.json", "pattern_0001.json", "pattern_0002.json",
    ]
    first = ScanPattern.from_json(files[0].read_text())
    last = ScanPattern.from_json(files[2].read_text())
    assert len(first.samples) == len(last.samples) == 27
    # box moved, so sample placement shifts between frames
    assert not np.array_equal(first.samples, last.samples)


def test_scan_foveated_needs_roi(tmp_path):
    assert run(
        "scan", "--regime", "foveated", "--dims", "64x48",
        "--fps", "30", "--out", tmp_path / "scan",
    ) == 2


def test_capture_sample_budget(tmp_path):
    scene = make_scene(tmp_path, "plane", 1)
    out = tmp_path / "cap"
    assert run("capture", "--scene", scene, "--fps", "30", "--out", out) == 0
    summary = read_json(out / "capture_summary.json")
    assert len(summary) == 1
    assert summary[0]["n_samples"] == 27
    assert summary[0]["regime"] == "full_fov"
    assert summary[0]["roi"] is None
    sparse = read_pgm16(out / "0000.pgm")
    assert int(np.count_nonzero(sparse)) == 27


@pytest.mark.parametrize("regime", ["full", "entropy"])
def test_capture_rerun_and_jobs_byte_identical(tmp_path, monkeypatch, regime):
    for name in ("r1", "r2"):
        root = tmp_path / name
        root.mkdir()
        monkeypatch.chdir(root)
        assert run(
            "gen-scene", "--preset", "moving-box", "--frames", "3",
            "--out", "scene",
        ) == 0
        assert run(
            "capture", "--scene", "scene", "--fps", "20", "--regime", regime,
            "--out", "cap",
        ) == 0
    a, b = tmp_path / "r1", tmp_path / "r2"
    names = sorted(p.name for p in (a / "cap").iterdir())
    assert names == sorted(p.name for p in (b / "cap").iterdir())
    for name in names:
        assert (a / "cap" / name).read_bytes() == (b / "cap" / name).read_bytes()
    # same inputs, more workers: data files must not change
    monkeypatch.chdir(a)
    assert run(
        "capture", "--scene", "scene", "--fps", "20", "--regime", regime,
        "--jobs", "2", "--out", "cap2",
    ) == 0
    for name in names:
        if name == "run.json":
            continue
        assert (a / "cap2" / name).read_bytes() == (a / "cap" / name).read_bytes()


def test_complete_fills_every_pixel(tmp_path):
    scene = make_scene(tmp_path, "plane", 1)
    cap = tmp_path / "cap"
    assert run("capture", "--scene", scene, "--fps", "30", "--out", cap) == 0
    pred = tmp_path / "pred"
    assert run(
        "complete", "--sparse", cap, "--scene", scene, "--out", pred,
    ) == 0
    dense = read_pgm16(pred / "0000.pgm")
    assert dense.shape == (120, 160)
    assert np.all(dense > 0)


def _captured_completed(tmp_path, preset="plane", frames="2", fps="10"):
    scene = make_scene(tmp_path, preset, frames)
    cap = tmp_path / "cap"
    assert run("capture", "--scene", scene, "--fps", fps, "--out", cap) == 0
    pred = tmp_path / "pred"
    assert run("complete", "--sparse", cap, "--scene", scene, "--out", pred) == 0
    return scene, cap, pred


def test_eval_row_layout_and_roi(tmp_path):
    scene, _, pred = _captured_completed(tmp_path)
    out = tmp_path / "eval"
    assert run("eval", "--pred", pred, "--scene", scene, "--out", out) == 0
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    # header, one row per frame, pooled "all" row
    assert len(lines) == 4
    assert lines[0].startswith("frame,")
    assert lines[-1].startswith("all,")
    per_frame = lines[1].split(",")
    assert int(per_frame[-1]) == 160 * 120

    roi_out = tmp_path / "eval_roi"
    assert run(
        "eval", "--pred", pred, "--scene", scene,
        "--roi", "10,10,50,40", "--out", roi_out,
    ) == 0
    rows = (roi_out / "metrics.csv").read_text().strip().splitlines()
    assert int(rows[1].split(",")[-1]) == 40 * 30


def test_eval_roi_only_uses_capture_trace(tmp_path):
    scene = make_scene(tmp_path, "plane", 2)
    cap = tmp_path / "cap"
    assert run(
        "capture", "--scene", scene, "--regime", "foveated",
        "--roi", "20,30,90,80", "--fps", "10", "--out", cap,
    ) == 0
    pred = tmp_path / "pred"
    assert run("complete", "--sparse", cap, "--scene", scene, "--out", pred) == 0
    out = tmp_path / "eval"
    assert run(
        "eval", "--pred", pred, "--scene", scene, "--roi-only", "--out", out,
    ) == 0
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    for row in lines[1:-1]:
        assert int(row.split(",")[-1]) == 70 * 50
    # the two restrictions conflict
    assert run(
        "eval", "--pred", pred, "--scene", scene, "--roi-only",
        "--roi", "0,0,10,10", "--out", tmp_path / "both",
    ) == 2


def test_capture_auto_motion_roi_trace(tmp_path):
    scene = make_scene(tmp_path, "moving-box", 4)
    cap = tmp_path / "cap"
    assert run(
        "capture", "--scene", scene, "--regime", "foveated",
        "--roi", "auto-motion", "--fps", "20", "--out", cap,
    ) == 0
    summary = read_json(cap / "capture_summary.json")
    assert len(summary) == 4
    # nothing to diff against on the first frame
    assert summary[0]["regime"] == "full_fov"
    assert summary[0]["roi"] is None
    movers = [row for row in summary[1:] if row["regime"] == "foveated_roi"]
    assert movers
    for row in movers:
        x0, y0, x1, y1 = row["roi"]
        assert 0 <= x0 < x1 <= 160 and 0 <= y0 < y1 <= 120


def test_eval_missing_pred_exit_3(tmp_path):
    scene = make_scene(tmp_path, "plane", 1)
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(
        "eval", "--pred", empty, "--scene", scene, "--out", tmp_path / "e",
    ) == 3


def test_eval_dimension_mismatch_exit_3(tmp_path):
    scene = make_scene(tmp_path, "plane", 1)
    pred = tmp_path / "pred"
    pred.mkdir()
    write_pgm16(pred / "0000.pgm", np.ones((8, 8), dtype=np.uint16))
    assert run(
        "eval", "--pred", pred, "--scene", scene, "--out", tmp_path / "e",
    ) == 3


def test_fovea_motion_trace(tmp_path):
    scene = make_scene(tmp_path, "moving-box", 4)
    out = tmp_path / "fovea"
    assert run("fovea", "--scene", scene, "--mode", "motion", "--out", out) == 0
    lines = (out / "roi_trace.csv").read_text().strip().splitlines()
    assert lines[0] == "frame,x0,y0,x1,y1,area_px"
    assert len(lines) == 5
    assert lines[1].split(",")[1:] == ["", "", "", "", ""]
    tail = [line.split(",") for line in lines[2:]]
    assert all(row[1] != "" for row in tail)
    areas = [int(row[5]) for row in tail]
    assert all(a >= 100 for a in areas)


def test_fovea_entropy_trace(tmp_path):
    scene = make_scene(tmp_path, "textured", 2)
    out = tmp_path / "fovea"
    code = run(
        "fovea", "--scene", scene, "--mode", "entropy",
        "--roi-dims", "40x30", "--out", out,
    )
    assert code == 0
    lines = (out / "roi_trace.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        frame, x0, y0, x1, y1, area = line.split(",")
        assert int(x1) - int(x0) == 40
        assert int(y1) - int(y0) == 30
        assert int(area) == 1200


def test_eval_fps_sweep(tmp_path):
    scene = make_scene(tmp_path, "plane", "1")
    out = tmp_path / "sweep"
    assert run("eval", "--scene", scene, "--fps-sweep", "30,6", "--out", out) == 0
    lines = (out / "fps_sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("30,27,")
    assert lines[2].startswith("6,230,")


def test_fps_sweep_scores_like_capture_complete_eval(tmp_path):
    scene = make_scene(tmp_path, "textured", 1)
    cap, pred = tmp_path / "cap", tmp_path / "pred"
    assert run("capture", "--scene", scene, "--fps", "6", "--out", cap) == 0
    assert run("complete", "--scene", scene, "--sparse", cap, "--out", pred) == 0
    assert run("eval", "--scene", scene, "--pred", pred, "--out", tmp_path / "ev") == 0
    assert run("eval", "--scene", scene, "--fps-sweep", "6", "--out", tmp_path / "sw") == 0
    on_disk = (tmp_path / "ev" / "metrics.csv").read_text().strip().splitlines()[-1]
    swept = (tmp_path / "sw" / "fps_sweep.csv").read_text().strip().splitlines()[-1]
    assert on_disk.startswith("all,") and swept.startswith("6,230,230,")
    assert swept.split(",", 3)[3] == on_disk.split(",", 1)[1]


def test_capture_bad_roi_exit_2(tmp_path):
    scene = make_scene(tmp_path, "plane", 1)
    assert run(
        "capture", "--scene", scene, "--regime", "foveated",
        "--roi", "5,5,2,2", "--fps", "10", "--out", tmp_path / "cap",
    ) == 2


def test_entropy_capture_does_not_import_scipy(tmp_path):
    # only motion detection needs scipy.ndimage, whose import triples start-up
    code = (
        "import sys\n"
        "from memslidar.cli import main\n"
        f"scene, cap = {str(tmp_path / 'scene')!r}, {str(tmp_path / 'cap')!r}\n"
        "assert main(['gen-scene', '--preset', 'plane', '--out', scene]) == 0\n"
        "assert main(['capture', '--scene', scene, '--regime', 'entropy',\n"
        "             '--fps', '30', '--out', cap]) == 0\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip().splitlines()[-1] == "[]"


def test_unknown_scene_dir_exit_3(tmp_path):
    assert run(
        "scan", "--scene", tmp_path / "nope", "--fps", "30",
        "--out", tmp_path / "scan",
    ) == 3


@pytest.mark.parametrize("command, key, value, code", [
    ("capture", "fps", 0, 3),
    ("fovea", "fps", 0, 3),
    ("capture", "fps", -30.0, 3),
    ("capture", "width", 0, 3),
    ("capture", "height", -1, 3),
    ("capture", "fx_px", 0.0, 3),
    ("capture", "fy_px", -1.0, 3),
    ("capture", "z_max_m", -1, 3),
    ("capture", "fps", "fast", 3),
    ("capture", "cx_px", math.nan, 3),
    ("capture", "mirror_fov_deg", -5.0, 3),
    ("capture", None, 5, 3),
    ("gen-scene", None, None, 2),
])
def test_invalid_scene_metadata_rejected(
    tmp_path, capsys, command, key, value, code
):
    if command == "gen-scene":
        argv = ["gen-scene", "--preset", "plane", "--fps", "0",
                "--out", tmp_path / "bad"]
    else:
        scene = make_scene(tmp_path, "plane", 1)
        meta_path = scene / "meta.json"
        meta = read_json(meta_path)
        if key is None:
            meta = value  # not a JSON object at all
        else:
            meta[key] = value
        meta_path.write_text(json.dumps(meta))
        argv = [command, "--scene", scene, "--out", tmp_path / "out"]
    capsys.readouterr()
    assert run(*argv) == code
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "error:" in lines[0], err
    assert "Traceback" not in err


def test_run_json_records_resolved_args(tmp_path):
    out = make_scene(tmp_path, "plane", 2)
    doc = read_json(out / "run.json")
    assert doc["command"] == "gen-scene"
    assert doc["resolved"]["seed"] == 0
    assert doc["resolved"]["frames"] == 2
    assert list(doc["resolved"]) == sorted(doc["resolved"])

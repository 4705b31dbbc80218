"""End-to-end tests driving the command line entry point in process."""

import argparse
import ast
import concurrent.futures
import hashlib
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from memslidar import cli
from memslidar.cli import main
from memslidar.completion import GuidedFillParams
from memslidar.foveation import BackgroundModel, entropy_map, grayscale, max_entropy_roi
from memslidar.lidar_sim import CaptureConfig, capture, load_sparse, save_sparse
from memslidar.pipeline import frame_seed
from memslidar.scan_engine import (DEFAULT_MIRROR_FOV_RAD, REFERENCE_BUDGET_PAIRS, ScanPattern,
                                   gen_entropy_adaptive, reference_mirror_model)
from memslidar.scene_io import (Primitive, SyntheticSpec, load_scene, read_pgm16,
                                write_pgm16)


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


@pytest.mark.parametrize("argv, code", [(["--version"], 0), (["capture", "--bogus"], 2)])
def test_python_dash_m_entry_point(argv, code):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "memslidar", *argv], env=env,
                          capture_output=True, text=True)
    assert done.returncode == code, done.stderr
    if code:
        assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("usage error:")
    else:
        assert "memslidar" in done.stdout


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


def test_written_json_is_what_the_json_encoder_prints(tmp_path):
    # sample lists and crossovers are written from templates, not by `json`
    scene = make_scene(tmp_path, "moving-box", 2)
    assert run("capture", "--scene", scene, "--regime", "foveated", "--roi", "auto-motion",
               "--fps", "6", "--out", tmp_path / "cap") == 0
    assert run("scan", "--scene", scene, "--regime", "entropy", "--fps", "6",
               "--out", tmp_path / "scan") == 0
    assert run("optics-sweep", "--find-crossover", "--Z-m", "0.5:300:log20",
               "--out", tmp_path / "sweep") == 0
    paths = sorted(p for d in ("cap", "scan", "sweep") for p in (tmp_path / d).glob("*.json"))
    names = {p.name for p in paths}
    assert {"0000.json", "pattern_0001.json", "crossovers.json"} <= names
    for path in paths:
        text = path.read_text()
        # save_sparse writes a frame's sample file without a final newline
        newline = "" if path.stem.isdigit() else "\n"
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + newline, path
    assert read_json(tmp_path / "sweep" / "crossovers.json")


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
    ["capture", "--scene", "SCENE", "--regime", "foveated"],
    ["capture", "--scene", "SCENE", "--regime", "entropy", "--fps", "63"],
    ["capture", "--scene", "SCENE", "--regime", "foveated", "--roi", "0,0,40,30", "--fps", "63"],
    # a fixed ROI is read only by the foveated regime; --roi-mode, a retired second
    # spelling of --roi auto-motion, is now an unknown flag
    ["scan", "--dims", "160x120", "--regime", "full", "--roi", "0,0,40,30"],
    ["capture", "--scene", "SCENE", "--regime", "entropy", "--roi", "0,0,40,30"],
    ["capture", "--scene", "SCENE", "--regime", "foveated", "--roi", "0,0,40,30",
     "--roi-mode", "motion"],
    ["fovea", "--scene", "SCENE", "--mode", "entropy", "--roi-dims", "bad"],
    ["complete", "--scene", "SCENE", "--sparse", "SPARSE", "--k-neighbors", "0"],
    ["eval", "--scene", "SCENE"],
    ["eval", "--scene", "SCENE", "--pred", "SPARSE", "--roi", "0,0,500,500"],
    # eval takes no --fps-sweep: the frame-rate study is its own subcommand
    ["eval", "--scene", "SCENE", "--fps-sweep", "62"],
    ["eval", "--scene", "SCENE", "--fps-sweep", "30", "--pred", "SPARSE"],
    ["eval", "--scene", "SCENE", "--fps-sweep", "30", "--roi", "0,0,5,5"],
    ["eval", "--scene", "SCENE", "--fps-sweep", "30", "--roi-only"],
    ["capture", "--scene", "SCENE", "--jobs", "0"],
    ["complete", "--scene", "SCENE", "--sparse", "SPARSE", "--jobs", "-3"],
    ["eval", "--scene", "SCENE", "--fps-sweep", "30", "--jobs", "0"],
    # motion ROIs, like a fixed one, are read only by the foveated regime
    ["capture", "--scene", "SCENE", "--regime", "entropy", "--roi", "auto-motion"],
    ["capture", "--scene", "SCENE", "--regime", "full", "--roi", "auto-motion"],
    # a zero-point grid reaches sweep, which rejects it before --out is made
    ["optics-sweep", "--Z-m", "1:2:lin0"],
    # jobs, engine, capture and completion flags are read only by --fps-sweep
    ["eval", "--scene", "SCENE", "--pred", "SPARSE", "--jobs", "4"],
    ["eval", "--scene", "SCENE", "--pred", "SPARSE", "--sample-rate-hz", "5"],
    ["eval", "--scene", "SCENE", "--pred", "SPARSE", "--fps", "30"],
    ["eval", "--scene", "SCENE", "--pred", "SPARSE", "--dot-sr", "1e-4"],
    ["eval", "--scene", "SCENE", "--pred", "SPARSE", "--k-neighbors", "4"],
    ["eval", "--scene", "SCENE", "--pred", "SPARSE", "--jobs", "4", "--sample-rate-hz", "5"],
    # told by presence: a sweep-only flag given at its default, or abbreviated
    ["eval", "--scene", "SCENE", "--pred", "SPARSE", "--jobs", "1"],
    ["eval", "--scene", "SCENE", "--pred", "SPARSE", "--jo", "1"],
    ["eval", "--scene", "SCENE", "--pred", "SPARSE", "--fps", "6"],
    ["eval", "--scene", "SCENE", "--pred", "SPARSE", "--fallback", "nearest"],
    ["eval", "--scene", "SCENE", "--pred", "SPARSE", "--noise-c", "0.001"],
    # fit-budget: a zero, non-finite or negative fps fails before any arithmetic
    ["fit-budget", "--pairs", "0:5,10:7"],
    ["fit-budget", "--pairs", "nan:5,10:7"],
    ["fit-budget", "--pairs=-5:5,10:7"],
    # a malformed flag or a flag conflict wins over a missing scene
    ["eval", "--scene", "NOPE", "--pred", "SPARSE", "--roi", "bad"],
    ["fovea", "--scene", "NOPE", "--mode", "entropy", "--roi-dims", "bad"],
    ["fps-sweep", "--scene", "NOPE", "--fps", "x"],
    ["scan", "--scene", "NOPE", "--regime", "foveated"],
    ["eval", "--scene", "NOPE"],
    ["eval", "--scene", "NOPE", "--pred", "SPARSE", "--roi", "0,0,2,2", "--roi-only"],
    ["complete", "--scene", "NOPE", "--sparse", "NOPE", "--k-neighbors", "0"],
    ["fps-sweep", "--scene", "NOPE", "--fps", "6", "--sigma-spatial-px", "0"],
    ["capture", "--scene", "NOPE", "--noise-coeff", "-1"],
    ["capture", "--scene", "NOPE", "--z-max-m", "-1"],
    ["capture", "--scene", "NOPE", "--dot-sr", "0"],
    ["capture", "--scene", "NOPE", "--overhead-ms", "-5"],
    ["capture", "--scene", "NOPE", "--fps", "0"],
    ["capture", "--scene", "NOPE", "--regime", "foveated", "--roi", "auto-motion", "--alpha", "5"],
    ["fovea", "--scene", "NOPE", "--mode", "motion", "--margin", "-1"],
    ["capture", "--scene", "NOPE", "--regime", "foveated", "--roi", "auto-motion",
     "--inside-density", "5"],
    ["capture", "--scene", "NOPE", "--regime", "foveated", "--roi", "auto-motion",
     "--outside-density", "2"],
    # non-finite mirror, noise and motion settings
    ["scan", "--dims", "160x120", "--sample-rate-hz", "inf"],
    ["scan", "--dims", "160x120", "--overhead-ms", "nan"],
    ["capture", "--scene", "NOPE", "--noise-coeff", "nan"],
    ["capture", "--scene", "NOPE", "--regime", "foveated", "--roi", "auto-motion",
     "--threshold", "nan"],
    ["fovea", "--scene", "NOPE", "--mode", "motion", "--threshold", "nan"],
    ["complete", "--scene", "NOPE", "--sparse", "NOPE", "--sigma-color", "nan"],
    # fps-sweep captures and completes its own frames
    ["fps-sweep", "--scene", "SCENE", "--fps", "62"],
    ["fps-sweep", "--scene", "SCENE", "--fps", "30", "--pred", "SPARSE"],
    ["fps-sweep", "--scene", "SCENE", "--fps", "30", "--roi", "0,0,5,5"],
    ["fps-sweep", "--scene", "SCENE", "--fps", "30", "--roi-only"],
    ["fps-sweep", "--scene", "SCENE", "--fps", "30", "--jobs", "0"],
    # argparse's own errors: bad choice, bad int, unknown flag, missing flag
    ["capture", "--scene", "SCENE", "--regime", "bogus"],
    ["capture", "--scene", "SCENE", "--jobs", "x"],
    ["optics-sweep", "--bogus"],
    ["fps-sweep", "--scene", "SCENE"],
    # scan takes its image size from exactly one of --scene and --dims
    ["scan", "--scene", "SCENE", "--dims", "bad"],
    ["scan", "--fps", "30"],
    # the entropy regime reads the guide image, which --dims does not give
    ["scan", "--dims", "160x120", "--regime", "entropy"],
    # a flag one regime or mode reads is checked by its rule before the scene is read
    ["capture", "--scene", "NOPE", "--regime", "entropy", "--window-px", "4"],
    ["fovea", "--scene", "NOPE", "--mode", "entropy", "--window-px", "2"],
    ["scan", "--scene", "NOPE", "--regime", "density", "--density", "0"],
    ["capture", "--scene", "NOPE", "--regime", "density", "--density", "1.5"],
    # malformed range grids: no kind, non-numeric bounds, unknown kind, no count
    ["optics-sweep", "--Z-m", "1:2"],
    ["optics-sweep", "--Z-m", "a:b:log5"],
    ["optics-sweep", "--Z-m", "1:2:foo5"],
    ["optics-sweep", "--Z-m", "1:2:log"],
    # sizes past the row and budget bounds, rejected before any array of that size is built
    ["optics-sweep", "--Z-m", "1:2:log3000000000"],
    ["optics-sweep", "--M", ",".join(str(m) for m in range(1, 21)),
     "--w0-mm", ",".join(f"{w / 10:g}" for w in range(1, 21)),
     "--A-mm", ",".join(str(a) for a in range(5, 101, 5)), "--Z-m", "1:2:log100000"],
    ["scan", "--dims", "160x120", "--fps", "1e-7"],
    ["scan", "--dims", "160x120", "--fps", "1e-300"],
    # an image side below one pixel, in --dims or --roi-dims, before any read
    ["scan", "--dims", "0x5"],
    ["scan", "--dims", "5x0"],
    ["scan", "--dims", "0x0"],
    ["fovea", "--scene", "NOPE", "--mode", "entropy", "--roi-dims", "0x5"],
    # the moving box's speed reads the camera only after its spec checked --fov-deg
    ["gen-scene", "--preset", "moving-box", "--fov-deg", "0"],
    # a flag only one regime reads, set away from its default under another,
    # before the scene is read
    ["scan", "--scene", "NOPE", "--regime", "full", "--density", "0.3"],
    ["scan", "--scene", "NOPE", "--regime", "full", "--window-px", "99"],
    ["scan", "--scene", "NOPE", "--regime", "full", "--inside-density", "7"],
    ["scan", "--dims", "160x120", "--regime", "foveated", "--roi", "0,0,40,30",
     "--density", "0.5"],
    ["capture", "--scene", "NOPE", "--regime", "full", "--density", "0.3", "--window-px", "99"],
    ["capture", "--scene", "NOPE", "--regime", "full", "--outside-density", "0.5"],
    ["capture", "--scene", "NOPE", "--regime", "entropy", "--inside-density", "0.5"],
    ["capture", "--scene", "NOPE", "--regime", "entropy", "--density", "nan"],
    ["capture", "--scene", "NOPE", "--regime", "density", "--window-px", "7"],
    ["capture", "--scene", "NOPE", "--regime", "foveated", "--roi", "auto-motion",
     "--window-px", "7"],
    # a motion flag without motion tracking, and a fovea flag of the other mode
    ["capture", "--scene", "NOPE", "--regime", "foveated", "--roi", "0,0,40,30", "--alpha", "0.9"],
    ["capture", "--scene", "NOPE", "--regime", "entropy", "--margin", "3"],
    ["capture", "--scene", "NOPE", "--threshold", "nan"],
    ["fovea", "--scene", "NOPE", "--mode", "motion", "--roi-dims", "3x3"],
    ["fovea", "--scene", "NOPE", "--mode", "motion", "--window-px", "5"],
    ["fovea", "--scene", "NOPE", "--mode", "entropy", "--alpha", "0.9"],
    ["fovea", "--scene", "NOPE", "--mode", "entropy", "--min-blob-area", "5"],
    # a preset flag beside --spec-json, a knob its preset does not read, and a
    # mirror FOV beside a scene that gives its own
    ["gen-scene", "--spec-json", "NOPE", "--dims", "9x9", "--fps", "1"],
    ["gen-scene", "--spec-json", "NOPE", "--preset", "box"],
    ["gen-scene", "--spec-json", "NOPE", "--range-m", "2"],
    ["gen-scene", "--preset", "box", "--range-m", "5", "--box-speed-px", "9"],
    ["gen-scene", "--preset", "textured", "--box-speed-px", "9"],
    ["gen-scene", "--preset", "plane", "--box-speed-px", "9"],
    ["scan", "--scene", "NOPE", "--mirror-fov-deg", "60"],
    # a window whose edge-padded frame would pass the scene pixel bound
    ["fovea", "--scene", "SCENE", "--mode", "entropy", "--window-px", "1000000001"],
    ["capture", "--scene", "SCENE", "--regime", "entropy", "--window-px", "1000000001"],
    ["scan", "--scene", "SCENE", "--regime", "entropy", "--window-px", "1000000001"],
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
    # no capture summary beside the prediction
    ["eval", "--scene", "SCENE", "--pred", "SCENE", "--roi-only"],
    # complete copies its capture's summary, so it reads it before making --out
    ["complete", "--scene", "SCENE", "--sparse", "BAD_SUMMARY"],
    # a 160x120 capture against an 80x60 scene, checked before any completion
    ["complete", "--scene", "SMALL_SCENE", "--sparse", "SPARSE"],
    # every sample past the range gate, raised inside a worker process
    ["capture", "--scene", "MULTI_SCENE", "--jobs", "2", "--z-max-m", "0.5"],
    ["fps-sweep", "--scene", "MULTI_SCENE", "--fps", "6", "--jobs", "2", "--z-max-m", "0.5"],
], ids=" ".join)
def test_bad_data_leaves_no_out_dir(tmp_path, capsys, plane_capture, argv):
    if "BAD_SUMMARY" in argv:  # a capture dir whose summary is not JSON
        sparse = tmp_path / "cap"
        shutil.copytree(plane_capture[1], sparse)
        (sparse / "capture_summary.json").write_text("not json")
        argv = [sparse if a == "BAD_SUMMARY" else a for a in argv]
    if "SMALL_SCENE" in argv:
        small = make_scene(tmp_path, "plane", 1, name="small", dims="80x60")
        argv = [small if a == "SMALL_SCENE" else a for a in argv]
    if "MULTI_SCENE" in argv:
        multi = make_scene(tmp_path, "moving-box", 3, name="multi")
        argv = [multi if a == "MULTI_SCENE" else a for a in argv]
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
    # complete checks the summary it copies by the same rule
    sparse = tmp_path / "cap"
    shutil.copytree(cap, sparse)
    (sparse / "capture_summary.json").write_text(text)
    _rejected_run(tmp_path, capsys, plane_capture,
                  ["complete", "--scene", "SCENE", "--sparse", sparse], 3, "error:")


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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    scene = make_scene(tmp_path, "moving-box", 2)
    for command in (["capture", "--fps", "30"], ["fps-sweep", "--fps", "30,6"]):
        out = tmp_path / command[0]
        assert run(*command, "--scene", scene, "--jobs", "64", "--out", out) == 0
    assert run("complete", "--scene", scene, "--sparse", tmp_path / "capture",
               "--jobs", "64", "--out", tmp_path / "pred") == 0
    assert sizes == [2, 2, 2, 2]


def test_usage_checks_come_before_any_file_is_read():
    # a usage error wins over a data error: in every command, each flag parse
    # and usage check comes before the first file read
    reads = {"load_scene", "load_sparse", "load_spec", "read_json", "read_pgm16",
             "_load_capture_rois"}
    checks = {"_parse_roi", "_parse_dims", "_floats", "_range_grid", "_fixed_roi",
              "_mirror_model", "_capture_config", "_fill_params", "_background_model", "budget",
              "_check_pattern_flags", "check_window"}

    def called(node):
        call = node.exc if isinstance(node, ast.Raise) else node
        return isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id

    tree = ast.parse(Path(cli.__file__).read_text())
    late = []
    for func in tree.body:
        if isinstance(func, ast.FunctionDef) and func.name.startswith("cmd_"):
            nodes = [n for n in ast.walk(func) if isinstance(n, (ast.Call, ast.Raise))]
            first_read = min((n.lineno for n in nodes if called(n) in reads), default=math.inf)
            late += [f"{func.name}:{n.lineno}" for n in nodes if n.lineno > first_read and (
                called(n) in checks if isinstance(n, ast.Call) else called(n) == "UsageError")]
    assert not late


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


@pytest.mark.parametrize("name, data", [
    ("0000.ppm", b"P6\n-2 -2\n255\n" + bytes(12)),
    ("0000.pgm", b"P5\n160 0\n65535\n"),
    ("0000.ppm", b"P6x\n160 120\n255\n" + bytes(160 * 120 * 3)),
    ("0000.pgm", b"P5x\n160 120\n65535\n" + bytes(160 * 120 * 2)),
    ("meta.json", b'{"fps": \xff}'),
    ("0000.ppm", None),
], ids=["negative-dims", "zero-height", "P6x-magic", "P5x-magic", "meta-not-utf8",
        "frame-is-a-directory"])
@pytest.mark.parametrize("command", ["capture", "fovea"])
def test_unreadable_scene_file_exit_3(tmp_path, capsys, plane_capture, command, name, data):
    scene = tmp_path / "scene"
    shutil.copytree(plane_capture[0], scene)
    (scene / name).unlink()
    if data is None:
        (scene / name).mkdir()
    else:
        (scene / name).write_bytes(data)
    _rejected_run(tmp_path, capsys, plane_capture, [command, "--scene", scene], 3,
                  f"error: {scene / name}:")


def test_capture_scene_with_two_stems_for_one_frame_exit_3(tmp_path, capsys, plane_capture):
    scene = tmp_path / "scene"
    shutil.copytree(plane_capture[0], scene)
    for ext in ("ppm", "pgm"):
        shutil.copy(scene / f"0000.{ext}", scene / f"00000.{ext}")
    _rejected_run(tmp_path, capsys, plane_capture, ["capture", "--scene", scene], 3,
                  f"error: {scene / '0000.ppm'} and {scene / '00000.ppm'} both name frame 0")


@pytest.mark.parametrize("command, name", [
    ("complete", "0000.json"), ("complete", "0000.pgm"), ("eval", "0000.pgm"),
])
def test_missing_capture_file_exit_3(tmp_path, capsys, plane_capture, command, name):
    # no pre-check: the reader names the file it could not read
    sparse = tmp_path / "cap"
    shutil.copytree(plane_capture[1], sparse)
    (sparse / name).unlink()
    flag = "--sparse" if command == "complete" else "--pred"
    _rejected_run(tmp_path, capsys, plane_capture, [command, "--scene", "SCENE", flag, sparse],
                  3, f"error: {sparse / name}: cannot read")


_META_VALUES = (math.nan, math.inf, -math.inf, True, False, None, "1", [1], {})


def _corrupt_scene(scene: Path, rng) -> str:
    """One seeded corruption of a scene directory; returns what it did."""
    frames = sorted(p for p in scene.iterdir() if p.suffix in (".ppm", ".pgm"))
    path = frames[int(rng.integers(len(frames)))]
    meta_path = scene / "meta.json"
    meta = read_json(meta_path)
    key = sorted(meta)[int(rng.integers(len(meta)))]
    kind = int(rng.integers(6))
    if kind == 0:
        data = path.read_bytes()
        cut = int(rng.integers(len(data)))
        path.write_bytes(data[:cut])
        return f"truncate {path.name} to {cut} bytes"
    if kind == 1:
        data = bytearray(path.read_bytes())
        at, mask = int(rng.integers(16)), int(rng.integers(1, 256))
        data[at] ^= mask
        path.write_bytes(bytes(data))
        return f"flip byte {at} of {path.name} by {mask:#04x}"
    if kind == 2:
        del meta[key]
        meta_path.write_text(json.dumps(meta))
        return f"drop meta key {key!r}"
    if kind == 3:
        meta[key] = _META_VALUES[int(rng.integers(len(_META_VALUES)))]
        meta_path.write_text(json.dumps(meta))
        return f"set meta {key!r} to {meta[key]!r}"
    if kind == 4:
        data = bytearray(meta_path.read_bytes())
        at, byte = int(rng.integers(len(data))), int(rng.integers(0x80, 0x100))
        data[at] = byte
        meta_path.write_bytes(bytes(data))
        return f"write byte {byte:#04x} at {at} of meta.json"
    path.unlink()
    path.mkdir()
    return f"turn {path.name} into a directory"


def test_fuzzed_scene_capture_exits_0_or_3(tmp_path, capsys):
    # every read or decode failure of a scene file is a typed data error
    clean = make_scene(tmp_path, "moving-box", 2, dims="40x30")
    rng = np.random.default_rng(12)
    codes = []
    for i in range(120):
        scene, out = tmp_path / f"scene{i}", tmp_path / f"out{i}"
        shutil.copytree(clean, scene)
        what = _corrupt_scene(scene, rng)
        capsys.readouterr()
        try:
            code = run("capture", "--scene", scene, "--out", out)
        except Exception as exc:  # a traceback is the failure this test looks for
            pytest.fail(f"{what}: {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 3), (what, err)
        if code == 3:
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), (what, err)
            assert not out.exists(), what
        codes.append(code)
    assert codes.count(3) >= 100


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
    # the header is checked like a scan pattern's
    lambda doc: {**doc, "fps": "x"},
    lambda doc: {**doc, "fps": None},
    lambda doc: {**doc, "fps": True},
    lambda doc: {**doc, "drop_count": -5},
    lambda doc: {**doc, "drop_count": "many"},
    lambda doc: {**doc, "drop_count": 1.5},
], ids=["no-samples-key", "sample-lacks-range", "not-json", "fractional-pixel",
        "string-pixel", "bool-pixel", "pixel-beyond-int64", "string-range", "bool-range",
        "null-time", "fps-string", "fps-null", "fps-bool", "drop-count-negative",
        "drop-count-string", "drop-count-float"])
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


def test_fit_budget_non_finite_pair_prints_one_line(tmp_path, capfd):
    # checked before the solve, so LAPACK prints nothing to the process's stdout
    capfd.readouterr()
    assert run("fit-budget", "--pairs", "nan:5,10:7", "--out", tmp_path / "fit") == 2
    out, err = capfd.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("usage error:"), err


def test_gen_scene_preset_loads(tmp_path):
    out = make_scene(tmp_path, "two-plane", 3)
    scene = load_scene(out)
    assert len(scene.frames) == 3
    assert scene.frames[0].depth_gt.shape == (120, 160)
    stamps = [f.timestamp_s for f in scene.frames]
    assert stamps == sorted(stamps) and len(set(stamps)) == 3


def test_gen_scene_box_preset(tmp_path):
    # a 0.18 x 0.14 m box face at 1.2 m, centred on a 2.5 m plane
    depth = load_scene(make_scene(tmp_path, "box", 1)).frames[0].depth_gt
    assert np.array_equal(np.unique(depth), [1.2, 2.5])
    ys, xs = np.nonzero(depth == 1.2)
    assert len(ys) == (ys.max() - ys.min() + 1) * (xs.max() - xs.min() + 1)
    assert abs(ys.min() + ys.max() + 1 - 120) <= 1 and abs(xs.min() + xs.max() + 1 - 160) <= 1


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


@settings(derandomize=True, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fps=st.floats(min_value=0.5, max_value=1000))
@example(fps=0.0)
@example(fps=-1.0)
@example(fps=math.nan)
@example(fps=math.inf)
@example(fps=-math.inf)
@example(fps=1e-300)
@example(fps=1e-7)
@example(fps=1e308)
def test_scan_any_fps_exits_0_or_2(tmp_path_factory, capfd, fps):
    # a rate too slow for the budget bound or too fast for one sample is a usage error
    out = tmp_path_factory.mktemp("scan") / "out"
    capfd.readouterr()
    code = main(["scan", "--dims", "8x6", f"--fps={fps!r}", "--out", str(out)])
    err = capfd.readouterr().err
    assert code in (0, 2)
    if code == 0:
        assert (out / "pattern_0000.json").exists()
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error:"), err
        assert not out.exists()


@settings(derandomize=True, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dims=st.tuples(*[st.sampled_from([-1, 0, 1, 2, 3, 160, 4096, 10**6])
                        | st.integers(min_value=1, max_value=300)] * 2))
@example(dims=(0, 5))
@example(dims=(5, 0))
@example(dims=(0, 0))
def test_scan_any_dims_exits_0_or_2(tmp_path_factory, capfd, dims):
    # a side below one pixel is a usage error, any other size scans
    out = tmp_path_factory.mktemp("scan") / "out"
    capfd.readouterr()
    code = main(["scan", "--dims={}x{}".format(*dims), "--fps", "6", "--out", str(out)])
    err = capfd.readouterr().err
    assert code == (2 if min(dims) < 1 else 0), err
    if code == 0:
        assert (out / "pattern_0000.json").exists()
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error:"), err
        assert not out.exists()


def test_regime_only_flags_at_their_defaults_change_no_byte(tmp_path, monkeypatch):
    # a flag another regime reads, given at its default, is accepted and
    # changes nothing: run.json too reads as for the call without it
    scene = make_scene(tmp_path, "moving-box", 2)
    defaults = ["--density", "1", "--window-px", "15", "--inside-density", "1",
                "--outside-density", "0.1", "--roi", ""]
    for name, extra in (("bare", []), ("defaults", defaults)):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)  # the same relative --out in both run.json files
        assert run("capture", "--scene", scene, "--fps", "20", *extra, "--out", "cap") == 0
    written = _tree_bytes(tmp_path / "bare")
    assert {"cap/0000.json", "cap/run.json"} <= set(written)
    assert _tree_bytes(tmp_path / "defaults") == written

    # so does a motion flag without motion tracking, and a preset flag beside --spec-json
    bg = BackgroundModel()
    capture = ["capture", "--scene", scene, "--fps", "20"]
    motion = ["--alpha", bg.alpha, "--threshold", bg.diff_threshold,
              "--min-blob-area", bg.min_blob_area_px, "--margin", bg.margin_px]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_SPEC))
    gen = ["gen-scene", "--spec-json", spec]
    preset = ["--preset", "textured", "--dims", "160x120", "--fov-deg", "25", "--fps", "30",
              "--frames", "1", "--z-max-m", "3", "--range-m", "1.5", "--box-speed-px", "30"]
    for command, flags in ((capture, motion), (gen, preset)):
        for name, extra in (("bare", []), ("flagged", flags)):
            (tmp_path / command[0] / name).mkdir(parents=True)
            monkeypatch.chdir(tmp_path / command[0] / name)
            assert run(*command, *extra, "--out", "out") == 0
        written = _tree_bytes(tmp_path / command[0] / "bare")
        assert "out/run.json" in written
        assert _tree_bytes(tmp_path / command[0] / "flagged") == written


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


def test_complete_and_fps_sweep_jobs_byte_identical(tmp_path):
    # three frames: two workers take them unevenly, three take one each
    scene = make_scene(tmp_path, "moving-box", 3)
    assert run("capture", "--scene", scene, "--fps", "20", "--out", tmp_path / "cap") == 0
    outputs = {}
    for jobs in ("1", "2", "3"):
        pred, sweep = tmp_path / f"pred{jobs}", tmp_path / f"sweep{jobs}"
        assert run("complete", "--scene", scene, "--sparse", tmp_path / "cap",
                   "--jobs", jobs, "--out", pred) == 0
        assert run("fps-sweep", "--scene", scene, "--fps", "30,6", "--jobs", jobs,
                   "--out", sweep) == 0
        pgms = sorted(pred.glob("*.pgm"))
        assert [p.name for p in pgms] == ["0000.pgm", "0001.pgm", "0002.pgm"]
        outputs[jobs] = [p.read_bytes() for p in pgms] + [(sweep / "fps_sweep.csv").read_bytes()]
    assert outputs["2"] == outputs["1"] and outputs["3"] == outputs["1"]


def test_entropy_commands_match_per_frame_entropy_maps(tmp_path):
    # a moving box: each later frame changes in a band, so its map is recounted in part
    scene = make_scene(tmp_path, "moving-box", 3)
    seq = load_scene(scene)
    grays = [np.round(grayscale(frame.rgb)) for frame in seq.frames]
    assert all(0 < np.mean(a != b) < 0.5 for a, b in zip(grays, grays[1:]))
    emaps = [entropy_map(frame.rgb, 15) for frame in seq.frames]
    model = replace(reference_mirror_model(), fov_rad=math.radians(seq.meta.mirror_fov_deg))
    patterns = [gen_entropy_adaptive(model, 20.0, emap.values, frame_seed(0, frame.frame_index, 0))
                for frame, emap in zip(seq.frames, emaps)]

    assert run("scan", "--scene", scene, "--regime", "entropy", "--fps", "20",
               "--out", tmp_path / "scan") == 0
    for frame, pattern in zip(seq.frames, patterns):
        written = (tmp_path / "scan" / f"pattern_{frame.frame_index:04d}.json").read_text()
        assert written == pattern.to_json() + "\n"

    want = tmp_path / "want"
    want.mkdir()
    cap_cfg = CaptureConfig(z_max_m=seq.meta.z_max_m)
    for frame, pattern in zip(seq.frames, patterns):
        sparse = capture(frame, pattern, cap_cfg, frame_seed(0, frame.frame_index, 1))
        save_sparse(sparse, want / f"{frame.frame_index:04d}.pgm",
                    want / f"{frame.frame_index:04d}.json")
    for jobs in ("1", "2"):
        out = tmp_path / f"cap{jobs}"
        assert run("capture", "--scene", scene, "--regime", "entropy", "--fps", "20",
                   "--jobs", jobs, "--out", out) == 0
        for path in sorted(want.iterdir()):
            assert (out / path.name).read_bytes() == path.read_bytes(), (jobs, path.name)

    assert run("fovea", "--scene", scene, "--mode", "entropy", "--out", tmp_path / "fovea") == 0
    rows = (tmp_path / "fovea" / "roi_trace.csv").read_text().splitlines()[1:]
    for frame, emap, row in zip(seq.frames, emaps, rows, strict=True):
        roi = max_entropy_roi(emap, (40, 30))
        assert row == f"{frame.frame_index},{roi.x0},{roi.y0},{roi.x1},{roi.y1},{roi.area_px}"


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


def test_captures_with_raw_volts_still_load_and_complete(tmp_path):
    # older captures carry a "raw_volts" key, equal to range_m, in every sample
    scene, cap, pred = _captured_completed(tmp_path)
    old = tmp_path / "old"
    shutil.copytree(cap, old)
    stems = sorted(path.stem for path in cap.glob("[0-9]*.json"))
    assert len(stems) == 2
    for stem in stems:
        doc = read_json(cap / f"{stem}.json")
        for sample in doc["samples"]:
            sample["raw_volts"] = sample["range_m"]
        (old / f"{stem}.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
        new_sparse = load_sparse(cap / f"{stem}.pgm", cap / f"{stem}.json")
        old_sparse = load_sparse(old / f"{stem}.pgm", old / f"{stem}.json")
        assert old_sparse.depth_m.tobytes() == new_sparse.depth_m.tobytes()
        assert old_sparse.samples.dtype == new_sparse.samples.dtype
        assert old_sparse.samples.tobytes() == new_sparse.samples.tobytes()
        assert ((old_sparse.fps, old_sparse.regime, old_sparse.drop_count)
                == (new_sparse.fps, new_sparse.regime, new_sparse.drop_count))
        # saved again, it is in the current format
        assert old_sparse.to_json() == (cap / f"{stem}.json").read_text()
    old_pred = tmp_path / "old_pred"
    assert run("complete", "--sparse", old, "--scene", scene, "--out", old_pred) == 0
    for stem in stems:
        assert (old_pred / f"{stem}.pgm").read_bytes() == (pred / f"{stem}.pgm").read_bytes()


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


def test_eval_roi_only_follows_run_json_from_another_directory(tmp_path, monkeypatch):
    # complete copies the capture summary beside its output, so --roi-only
    # reads it from there whatever directory eval runs in
    monkeypatch.chdir(tmp_path)
    assert run("gen-scene", "--preset", "plane", "--frames", "2", "--out", "scene") == 0
    assert run("capture", "--scene", "scene", "--regime", "foveated",
               "--roi", "20,30,90,80", "--fps", "10", "--out", "cap") == 0
    assert run("complete", "--scene", "scene", "--sparse", "cap", "--out", "runs/pred") == 0
    assert run("eval", "--scene", "scene", "--pred", "runs/pred", "--roi-only",
               "--out", "ev") == 0
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path / "sub")
    assert run("eval", "--scene", "../scene", "--pred", "../runs/pred", "--roi-only",
               "--out", "ev") == 0
    lines = (tmp_path / "sub" / "ev" / "metrics.csv").read_text()
    assert lines == (tmp_path / "ev" / "metrics.csv").read_text()
    for row in lines.strip().splitlines()[1:-1]:
        assert int(row.split(",")[-1]) == 70 * 50


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


def test_eval_roi_only_scores_the_rois_a_prediction_was_captured_with(tmp_path):
    # complete copies the capture summary byte for byte, so re-capturing into
    # the same dir, or deleting its summary, leaves the prediction's ROIs as
    # they were captured
    scene = make_scene(tmp_path, "plane", 2)
    cap, pred = tmp_path / "cap", tmp_path / "pred"
    capture = ["capture", "--scene", scene, "--regime", "foveated", "--fps", "10", "--out", cap]
    assert run(*capture, "--roi", "20,30,90,80") == 0
    assert run("complete", "--sparse", cap, "--scene", scene, "--out", pred) == 0
    summary = "capture_summary.json"
    assert (pred / summary).read_bytes() == (cap / summary).read_bytes()
    assert run(*capture, "--roi", "0,0,40,30") == 0
    evaluate = ["eval", "--pred", pred, "--scene", scene, "--roi-only", "--out"]
    assert run(*evaluate, tmp_path / "ev") == 0
    rows = (tmp_path / "ev" / "metrics.csv").read_text().strip().splitlines()[1:-1]
    assert [int(row.split(",")[-1]) for row in rows] == [70 * 50] * 2
    (cap / summary).unlink()
    assert run(*evaluate, tmp_path / "ev2") == 0
    assert (tmp_path / "ev2" / "metrics.csv").read_bytes() == (
        tmp_path / "ev" / "metrics.csv").read_bytes()


@pytest.mark.parametrize("flag, fitted", [
    ("--overhead-ms", "15.495989161577512"),
    ("--sample-rate-hz", "1527.6715945089757"),
])
def test_one_timing_flag_keeps_the_other_field_fitted(tmp_path, flag, fitted):
    # the fitted reference timing gives 230 samples per frame at 6 fps
    out = tmp_path / "scan"
    assert run("scan", "--dims", "160x120", "--fps", "6", flag, fitted, "--out", out) == 0
    assert read_json(out / "run.json")["extra"]["budget"] == 230


def test_flag_defaults_are_the_library_defaults():
    parse = cli._parser().parse_args
    for argv in (["complete", "--scene", "S", "--sparse", "C", "--out", "O"],
                 ["fps-sweep", "--scene", "S", "--fps", "6", "--out", "O"]):
        assert cli._fill_params(parse(argv)) == GuidedFillParams()
    for argv in (["capture", "--scene", "S", "--out", "O"],
                 ["fovea", "--scene", "S", "--out", "O"]):
        assert cli._background_model(parse(argv)) == BackgroundModel()
    pairs = parse(["fit-budget", "--out", "O"]).pairs
    assert [tuple(map(float, pair.split(":"))) for pair in pairs.split(",")] == list(
        REFERENCE_BUDGET_PAIRS)
    for argv in (["optics-sweep", "--out", "O"], ["scan", "--dims", "1x1", "--out", "O"]):
        assert math.radians(parse(argv).mirror_fov_deg) == DEFAULT_MIRROR_FOV_RAD
    args = parse(["gen-scene", "--out", "O"])
    spec = SyntheticSpec(primitives=(Primitive(kind="plane", z_m=1.0),))
    assert (*cli._parse_dims(args.dims), args.fov_deg, args.fps, args.frames, args.z_max_m) == (
        spec.width, spec.height, spec.fov_deg, spec.fps, spec.n_frames, spec.z_max_m)


def test_readme_commands_parse():
    # every memslidar call in README's command-line block parses, and the
    # block shows every subcommand; nothing is run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    calls = [shlex.split(line, comments=True)[1:]
             for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("memslidar ")]
    bad = []
    for argv in calls:
        try:
            cli._parser().parse_args(argv)
        except cli.UsageError as exc:
            bad.append(f"{shlex.join(argv)}: {exc}")
    assert not bad
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in calls} == set(sub.choices)


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
    assert run("fps-sweep", "--scene", scene, "--fps", "30,6", "--out", out) == 0
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
    assert run("fps-sweep", "--scene", scene, "--fps", "6", "--out", tmp_path / "sw") == 0
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
    # scipy is a test dependency only; the package never imports it
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


MOTION_CALLS = (
    ["gen-scene", "--preset", "moving-box", "--frames", "3", "--out", "scene"],
    ["capture", "--scene", "scene", "--regime", "foveated", "--roi", "auto-motion",
     "--fps", "20", "--out", "cap"],
    ["fovea", "--scene", "scene", "--mode", "motion", "--out", "fov"],
)


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_motion_commands_run_with_scipy_blocked(tmp_path, monkeypatch):
    # a `None` entry in sys.modules makes every `import scipy...` raise
    blocked, free = tmp_path / "blocked", tmp_path / "free"
    blocked.mkdir()
    free.mkdir()
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from memslidar.cli import main\n"
        f"print([main(argv) for argv in {list(MOTION_CALLS)!r}])\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=blocked,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip().splitlines()[-1] == "[0, 0, 0]"
    monkeypatch.chdir(free)  # same relative paths, so run.json matches too
    assert [main(list(argv)) for argv in MOTION_CALLS] == [0, 0, 0]
    written = _tree_bytes(free)
    assert {"cap/capture_summary.json", "fov/roi_trace.csv"} <= set(written)
    assert _tree_bytes(blocked) == written


def test_cli_import_builds_no_entropy_table():
    # the tables are built on a process's first entropy map, and the
    # argument parser on its first main(), not at import
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: (built.append(1), init(self, *a, **k))[1]\n"
        "import memslidar.cli\n"
        "from memslidar.foveation import _pair_table, _term_table\n"
        "print(_pair_table.cache_info().currsize, _term_table.cache_info().currsize, len(built))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["0", "0", "0"]


def test_shared_parser_gives_the_same_bytes_on_every_call(tmp_path, capsys):
    # one parser per process: a usage error and --version between two
    # sweeps leave it as it was, and a sweep run twice writes the same bytes
    argv = ["optics-sweep", "--find-crossover", "--M", "1,30", "--Z-m", "0.5:300:log20"]

    def sweep_outputs(name):
        out = str(tmp_path / name)
        capsys.readouterr()
        assert run(*argv, "--out", out) == 0
        # run.json records --out
        return capsys.readouterr().out.replace(out, "OUT"), {
            p.name: p.read_bytes().replace(out.encode(), b"OUT")
            for p in (tmp_path / name).iterdir()}

    first = sweep_outputs("a")
    assert main(["optics-sweep", "--bogus"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert run("optics-sweep", "--M", "300", "--out", tmp_path / "c") == 2
    assert sweep_outputs("b") == first
    assert len(first[1]) == 3 and "crossover (" in first[0]
    assert cli._parser() is cli._parser()


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
    ("capture", "fx_px", math.inf, 3),
    ("capture", "width", True, 3),
    ("capture", "width", 160.0, 3),
    ("capture", "shine", 1, 3),
    # finite, but the dot footprint would outgrow the image
    ("capture", "fx_px", 1e9, 3),
    ("capture", "fx_px", 1e12, 3),
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

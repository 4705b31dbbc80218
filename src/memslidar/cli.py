"""Command-line front end for the simulator.

Subcommands cover the pipeline end to end: optics-sweep, fit-budget,
gen-scene, scan, capture, fovea, complete, eval, fps-sweep.  Frames run
through `memslidar.pipeline`: capture, complete and fps-sweep through its
scene pass, on up to --jobs worker processes.  This module parses flags,
builds each config from them once, and writes the files.
Lengths are taken in millimeters (wavelength in micrometers, angles in
degrees) and converted to SI internally.  Every run writes run.json with
the fully resolved configuration into its output directory.

Exit codes: 0 success, 2 usage error (bad flags/grids), 3 data error
(unreadable or inconsistent inputs).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, replace
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .completion import GuidedFillParams
from .foveation import BackgroundModel, check_window, entropy_maps, max_entropy_roi
from .lidar_sim import (
    CaptureConfig,
    LidarSimError,
    MalformedCaptureSummary,
    load_sparse,
    save_sparse,
)
from .metrics import METRICS_CSV_HEADER, MetricsError, compute
from .optics import (
    MAX_SWEEP_ROWS,
    DesignKind,
    ReceiverSpec,
    TransmitterSpec,
    find_crossovers,
    log_range_grid,
    sweep,
    write_sweep_csv,
)
from .pipeline import frame_pattern, frame_patterns, frame_seed, run_scene, track_motion
from .scan_engine import (
    DEFAULT_MIRROR_FOV_RAD,
    REFERENCE_BUDGET_PAIRS,
    ROI,
    MirrorModel,
    Regime,
    ROIOutOfBounds,
    budget,
    check_density,
    fit_budget,
    records_json,
    reference_mirror_model,
)
from .scene_io import (
    PRESET_KNOBS,
    SCENE_PRESETS,
    SceneIOError,
    SceneSequence,
    SyntheticSpec,
    frame_stem,
    generate_synthetic,
    load_scene,
    load_spec,
    preset_spec,
    read_json,
    read_pgm16,
    millimeters_to_depth,
    save_scene,
    write_pgm16,
)

# unused here: bound so the benchmark's span tracer can patch them (bench/workloads.py CLI_TRACED)
from .foveation import entropy_map, update_and_detect  # noqa: F401
from .lidar_sim import capture  # noqa: F401
from .scan_engine import gen_entropy_adaptive, gen_foveated, gen_full_fov  # noqa: F401
# bound only because the tracer looks up every name it lists; optics-sweep
# writes through write_sweep_csv, so a span on this name times nothing
from .optics import format_sweep_csv  # noqa: F401

ROI_TRACE_HEADER = "frame,x0,y0,x1,y1,area_px"

DATA_ERRORS = (SceneIOError, LidarSimError, MetricsError)


class UsageError(ValueError):
    pass


# ---------- small parsers ----------

def _floats(text: str) -> list[float]:
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise UsageError(f"empty value list: {text!r}")
    try:
        return [float(t) for t in items]
    except ValueError:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from None


def _range_grid(text: str) -> list[float]:
    """Either '1,2,3' or 'lo:hi:logN' / 'lo:hi:linN'."""
    if ":" not in text:
        return _floats(text)
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"range grid must be lo:hi:logN or lo:hi:linN, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        kind, count = parts[2][:3], int(parts[2][3:])
    except ValueError:
        raise UsageError(f"bad range grid {text!r}") from None
    if count > MAX_SWEEP_ROWS:  # checked before an array of that length is built
        raise UsageError(f"range grid of {count} points exceeds {MAX_SWEEP_ROWS} sweep rows")
    if kind == "log":
        return list(log_range_grid(lo, hi, count))
    if kind == "lin":
        return list(np.linspace(lo, hi, count))
    raise UsageError(f"grid kind must be log or lin, got {kind!r}")


def _parse_roi(text: str) -> tuple[int, int, int, int]:
    try:
        x0, y0, x1, y1 = (int(t) for t in text.split(","))
    except ValueError:
        raise UsageError(f"ROI must be x0,y0,x1,y1 in pixels, got {text!r}") from None
    return x0, y0, x1, y1


def _parse_dims(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        w, h = int(w), int(h)
    except ValueError:
        raise UsageError(f"dims must be WxH, got {text!r}") from None
    if w < 1 or h < 1:
        raise UsageError(f"dims must be at least 1x1 pixels, got {text!r}")
    return w, h


def _write_run_json(outdir: Path, args: argparse.Namespace, extra: dict | None = None):
    doc = {
        "command": args.command,
        "package_version": __version__,
        "resolved": {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("command", "func") and not callable(v)
        },
        "extra": extra or {},
    }
    (outdir / "run.json").write_text(json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _mirror_model(args) -> MirrorModel:
    """The fitted reference mirror, with each timing flag given replacing its
    field.  Its FOV is the default until `_fit_scene` sets the scene's."""
    model = reference_mirror_model()
    if args.sample_rate_hz is not None:
        model = replace(model, sample_rate_hz=args.sample_rate_hz)
    if args.overhead_ms is not None:
        model = replace(model, frame_overhead_s=args.overhead_ms / 1000.0)
    return model


def _capture_config(args) -> CaptureConfig:
    """Capture knobs from the flags.  Without --z-max-m the range gate is the
    default until `_fit_scene` sets the scene's."""
    z_max_m = args.z_max_m if args.z_max_m is not None else CaptureConfig().z_max_m
    return CaptureConfig(z_max_m=z_max_m, noise_coeff=args.noise_coeff,
                         dot_solid_angle_sr=args.dot_sr)


def _fit_scene(args, seq: SceneSequence, model: MirrorModel, cap_cfg=None):
    """`model` with the scene's mirror FOV; `cap_cfg`, if given, with its range gate."""
    if cap_cfg is not None and args.z_max_m is None:  # else --z-max-m set the gate
        cap_cfg = replace(cap_cfg, z_max_m=seq.meta.z_max_m)
    return replace(model, fov_rad=math.radians(seq.meta.mirror_fov_deg)), cap_cfg


def _fill_params(args) -> GuidedFillParams:
    sigma_color = math.inf if args.sigma_color <= 0 else args.sigma_color
    return GuidedFillParams(sigma_spatial_px=args.sigma_spatial_px, sigma_color=sigma_color,
                            k_neighbors=args.k_neighbors, fallback=args.fallback)


def _background_model(args) -> BackgroundModel:
    return BackgroundModel(alpha=args.alpha, diff_threshold=args.threshold,
                           min_blob_area_px=args.min_blob_area, margin_px=args.margin)


def _check_unread(args, defaults: dict, read: bool, reader: str):
    """Unless the call reads them, the flags of `defaults` (dest -> parser
    default) stay at their defaults: a flag set but not read exits 2."""
    for name, default in defaults.items():
        if not read and getattr(args, name) != default:
            raise UsageError(f"--{name.replace('_', '-')} is read only {reader}")


# pattern flags only one regime reads: regime -> {dest: parser default}
_REGIME_ONLY_FLAGS = {
    "foveated": {"roi": "", "inside_density": 1.0, "outside_density": 0.1},
    "density": {"density": 1.0},
    "entropy": {"window_px": 15},
}
_BACKGROUND = BackgroundModel()
# flags only motion tracking reads
_MOTION_FLAGS = {"alpha": _BACKGROUND.alpha, "threshold": _BACKGROUND.diff_threshold,
                 "min_blob_area": _BACKGROUND.min_blob_area_px, "margin": _BACKGROUND.margin_px}
# flags only fovea's entropy mode reads
_ENTROPY_MODE_FLAGS = {"roi_dims": "40x30", **_REGIME_ONLY_FLAGS["entropy"]}
# flags only scan's --dims reads; with --scene the scene's FOV is the mirror's
_DIMS_FLAGS = {"mirror_fov_deg": math.degrees(DEFAULT_MIRROR_FOV_RAD)}
_SPEC = {f.name: f.default for f in fields(SyntheticSpec)}
# gen-scene flags a preset reads and --spec-json does not
_PRESET_FLAGS = {"preset": "textured", "dims": f"{_SPEC['width']}x{_SPEC['height']}",
                 "fov_deg": _SPEC["fov_deg"], "fps": _SPEC["fps"], "frames": _SPEC["n_frames"],
                 "z_max_m": _SPEC["z_max_m"], **PRESET_KNOBS}


def _check_pattern_flags(args):
    """A flag only one regime reads stays at its default under any other,
    and is checked by its own rule under its own: --window-px for entropy,
    --density for density."""
    for regime, flags in _REGIME_ONLY_FLAGS.items():
        _check_unread(args, flags, args.regime == regime,
                      f"by the {regime} regime, not by {args.regime}")
    if args.regime == "entropy":
        check_window(args.window_px)
    elif args.regime == "density":
        check_density(args.density)


def _fixed_roi(args, motion: bool = False) -> ROI | None:
    """The ROI --roi names, if any.  Only the foveated regime reads an ROI,
    and it needs one: a fixed one, or capture's `auto-motion`, whose ROI is
    a one-pixel placeholder that carries the density weights, checked here,
    onto each motion ROI."""
    if args.regime != "foveated":
        return None
    if not args.roi:
        raise UsageError("foveated regime needs --roi")
    rect = (0, 0, 1, 1) if motion else _parse_roi(args.roi)
    return ROI(*rect, args.inside_density, args.outside_density)


# ---------- optics-sweep ----------

def cmd_optics_sweep(args) -> int:
    kinds = {
        "retro": [DesignKind.RETROREFLECTIVE],
        "array": [DesignKind.RECEIVER_ARRAY],
        "single": [DesignKind.SINGLE_DETECTOR],
        "all": list(DesignKind),
    }[args.design]
    tx_grid = [
        TransmitterSpec(
            beam_quality_m=m,
            waist_radius_m=w0 * 1e-3,
            wavelength_m=lam * 1e-6,
            mirror_fov_rad=math.radians(args.mirror_fov_deg),
        )
        for m in _floats(args.M)
        for w0 in _floats(args.w0_mm)
        for lam in _floats(args.lambda_um)
    ]
    rx_grid = [
        ReceiverSpec(
            design_kind=kind,
            aperture_m=a * 1e-3,
            image_distance_m=u * 1e-3,
            focal_length_m=f * 1e-3,
            detector_count_n=args.n if kind == DesignKind.RECEIVER_ARRAY else 1,
        )
        for kind in kinds
        for a in _floats(args.A_mm)
        for u in _floats(args.u_mm)
        for f in _floats(args.f_mm)
    ]
    columns = sweep(tx_grid, rx_grid, _range_grid(args.Z_m))
    n_rows = len(columns["Z_m"])
    out = _outdir(args)
    write_sweep_csv(columns, out / "sweep.csv")
    extra = {"n_rows": n_rows}
    if args.find_crossover:
        crossings = find_crossovers(columns)
        fields = {key: [c[key] for c in crossings] for key in crossings[0]} if crossings else {}
        (out / "crossovers.json").write_text(records_json(fields) + "\n")
        extra["n_crossovers"] = len(crossings)
        if crossings:
            print("\n".join(
                f"crossover ({c['design_a']} vs {c['design_b']}, M={c['M']:g}, "
                f"w0={c['w0_m'] * 1e3:g} mm): Z* ~ {c['z_star_m']:.4g} m, "
                f"{c['winner_above']} wins above"
                for c in crossings
            ))
    _write_run_json(out, args, extra)
    print(f"wrote {n_rows} rows to {out / 'sweep.csv'}")
    return 0


# ---------- fit-budget ----------

def cmd_fit_budget(args) -> int:
    pairs = []
    for chunk in args.pairs.split(","):
        fps_s, _, n_s = chunk.partition(":")
        try:
            pairs.append((float(fps_s), float(n_s)))
        except ValueError:
            raise UsageError(f"pairs must be fps:samples,... got {chunk!r}") from None
    fit = fit_budget(pairs)
    model = fit.mirror_model()
    forward = [
        {"fps": fps, "observed": n, "predicted": budget(model, fps)}
        for fps, n in pairs
    ]
    doc = {
        "sample_rate_hz": fit.sample_rate_hz,
        "frame_overhead_s": fit.frame_overhead_s,
        "residual_rmse": fit.residual_rmse,
        "residuals": list(fit.residuals),
        "forward": forward,
    }
    out = _outdir(args)
    (out / "budget_fit.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    _write_run_json(out, args)
    print(
        f"rate = {fit.sample_rate_hz:.2f} Hz, overhead = {fit.frame_overhead_s * 1e3:.2f} ms, "
        f"residual RMSE = {fit.residual_rmse:.3f} samples"
    )
    for row in forward:
        print(f"  fps {row['fps']:g}: observed {row['observed']:g}, predicted {row['predicted']}")
    return 0


# ---------- gen-scene ----------

def cmd_gen_scene(args) -> int:
    _check_unread(args, _PRESET_FLAGS, not args.spec_json, "without --spec-json")
    if not args.spec_json:
        w, h = _parse_dims(args.dims)
        spec = preset_spec(args.preset, range_m=args.range_m, box_speed_px=args.box_speed_px,
                           width=w, height=h, fov_deg=args.fov_deg, fps=args.fps,
                           n_frames=args.frames, z_max_m=args.z_max_m)
    else:
        spec = load_spec(args.spec_json)
    seq = generate_synthetic(spec, seed=args.seed)
    out = _outdir(args)
    save_scene(seq, out)
    _write_run_json(out, args, {"n_frames": len(seq.frames)})
    print(f"wrote {len(seq.frames)} frame(s) to {out}")
    return 0


# ---------- scan ----------

_REGIME_FLAG = {
    "full": Regime.FULL_FOV,
    "entropy": Regime.ENTROPY_ADAPTIVE,
    "foveated": Regime.FOVEATED_ROI,
    "density": Regime.DENSITY_SWEEP,
}


def cmd_scan(args) -> int:
    regime = _REGIME_FLAG[args.regime]
    _check_pattern_flags(args)
    _check_unread(args, _DIMS_FLAGS, bool(args.dims), "with --dims")
    roi = _fixed_roi(args)
    model = _mirror_model(args)
    frame_budget = budget(model, args.fps)
    if args.dims:
        if regime == Regime.ENTROPY_ADAPTIVE:
            raise UsageError("entropy regime needs --scene for the guide image")
        model = replace(model, fov_rad=math.radians(args.mirror_fov_deg))
        patterns = {0: frame_pattern(_parse_dims(args.dims), None, regime, model, args.fps,
                                     frame_seed(args.seed, 0, 0), roi, args.density)}
    else:
        seq = load_scene(args.scene)
        model, _ = _fit_scene(args, seq, model)
        # a pattern read from no guide image is frame-independent; one file is enough
        frames = seq.frames if regime == Regime.ENTROPY_ADAPTIVE else seq.frames[:1]
        patterns = dict(zip(
            (frame.frame_index for frame in frames),
            frame_patterns(frames, [roi] * len(frames), regime, model, args.fps, args.seed,
                           args.density, args.window_px),
        ))
    out = _outdir(args)
    for index, pattern in patterns.items():
        (out / f"pattern_{frame_stem(index)}.json").write_text(pattern.to_json() + "\n")
    _write_run_json(out, args, {"n_patterns": len(patterns), "budget": frame_budget})
    print(f"wrote {len(patterns)} pattern file(s) to {out}")
    return 0


# ---------- capture ----------

def cmd_capture(args) -> int:
    regime = _REGIME_FLAG[args.regime]
    motion = args.roi == "auto-motion"
    _check_pattern_flags(args)
    _check_unread(args, _MOTION_FLAGS, motion, "with --roi auto-motion")
    fixed_roi = _fixed_roi(args, motion)
    model = _mirror_model(args)
    frame_budget = budget(model, args.fps)
    cap_cfg = _capture_config(args)
    background = _background_model(args) if motion else None
    seq = load_scene(args.scene)
    model, cap_cfg = _fit_scene(args, seq, model, cap_cfg)

    if motion:
        weights = dict(inside_density=fixed_roi.inside_density,
                       outside_density=fixed_roi.outside_density)
        rois = [None if roi is None else replace(roi, **weights)
                for roi in track_motion(seq.frames, background)]
    else:
        rois = [fixed_roi] * len(seq.frames)
    patterns = frame_patterns(seq.frames, rois, regime, model, args.fps, args.seed,
                              args.density, args.window_px)
    results = run_scene(seq.frames, patterns, args.seed, cap_cfg, jobs=args.jobs)

    out = _outdir(args)
    summary = []
    for frame, roi, sparse in zip(seq.frames, rois, (r.sparse for r in results)):
        index, stem = frame.frame_index, frame_stem(frame.frame_index)
        save_sparse(sparse, out / f"{stem}.pgm", out / f"{stem}.json")
        summary.append(
            {
                "frame": index,
                "n_samples": len(sparse.samples),
                "drop_count": sparse.drop_count,
                "regime": sparse.regime.value,
                "roi": None if roi is None else [roi.x0, roi.y0, roi.x1, roi.y1],
            }
        )
    (out / "capture_summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_run_json(out, args, {"budget": frame_budget})
    total = sum(s["n_samples"] for s in summary)
    print(f"captured {len(summary)} frame(s), {total} samples total, to {out}")
    return 0


# ---------- fovea ----------

def cmd_fovea(args) -> int:
    motion = args.mode == "motion"
    _check_unread(args, _MOTION_FLAGS, motion, "in --mode motion")
    _check_unread(args, _ENTROPY_MODE_FLAGS, not motion, "in --mode entropy")
    background = _background_model(args) if motion else None
    roi_dims = None if motion else _parse_dims(args.roi_dims)
    if not motion:
        check_window(args.window_px)
    seq = load_scene(args.scene)
    lines = [ROI_TRACE_HEADER]
    if motion:
        rois = track_motion(seq.frames, background)
    else:
        emaps = entropy_maps((frame.rgb for frame in seq.frames), args.window_px)
        rois = [max_entropy_roi(emap, roi_dims) for emap in emaps]
    for frame, roi in zip(seq.frames, rois):
        if roi is None:
            lines.append(f"{frame.frame_index},,,,,")
        else:
            lines.append(f"{frame.frame_index},{roi.x0},{roi.y0},{roi.x1},{roi.y1},{roi.area_px}")
    out = _outdir(args)
    (out / "roi_trace.csv").write_text("\n".join(lines) + "\n")
    _write_run_json(out, args)
    print(f"wrote ROI trace for {len(seq.frames)} frame(s) to {out / 'roi_trace.csv'}")
    return 0


# ---------- complete ----------

def cmd_complete(args) -> int:
    """Complete each captured frame, and copy the checked capture summary beside
    the output, so `eval --roi-only` scores the ROIs this prediction was made from."""
    params = _fill_params(args)
    seq = load_scene(args.scene)
    sparse_dir = Path(args.sparse)
    _, summary = _load_capture_rois(sparse_dir, seq)
    sparses = []
    for frame in seq.frames:
        pgm = sparse_dir / f"{frame_stem(frame.frame_index)}.pgm"
        sparse = load_sparse(pgm, pgm.with_suffix(".json"))
        _check_frame_size(pgm, "capture", sparse.depth_m, frame)
        sparses.append(sparse)
    results = run_scene(seq.frames, sparses, params=params, jobs=args.jobs)
    out = _outdir(args)
    for frame, result in zip(seq.frames, results):
        write_pgm16(out / f"{frame_stem(frame.frame_index)}.pgm", result.depth_mm)
    (out / "capture_summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_run_json(out, args)
    print(f"completed {len(results)} frame(s) to {out}")
    return 0


# ---------- eval ----------

def _check_frame_size(path: Path, noun: str, depth: np.ndarray, frame) -> None:
    """A per-frame depth file read beside a scene has its frame's size."""
    if depth.shape != frame.depth_gt.shape:
        raise SceneIOError(f"{path}: {noun} is {depth.shape}, scene is {frame.depth_gt.shape}")


def _load_capture_rois(capture_dir: Path, seq: SceneSequence) -> tuple[dict, list]:
    """Per-frame ROIs recorded at capture time, checked against the scene, and
    the rows of the capture summary in `capture_dir` they were read from: a
    capture's own, or the copy `complete` writes beside its prediction."""
    path = capture_dir / "capture_summary.json"
    rows = read_json(path, MalformedCaptureSummary)
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise MalformedCaptureSummary(f"{path}: expected a list of objects, one per frame")
    frames = {frame.frame_index for frame in seq.frames}
    rois = {}
    for row in rows:
        index, roi = row.get("frame"), row.get("roi")
        if type(index) is not int or index not in frames or index in rois:
            raise MalformedCaptureSummary(f"{path}: 'frame' {index!r} does not name a scene frame once")
        if roi is not None:
            if not (type(roi) is list and len(roi) == 4 and all(type(v) is int for v in roi)):
                raise MalformedCaptureSummary(f"{path}: frame {index}: 'roi' {roi!r} is neither "
                                              f"null nor x0,y0,x1,y1 in whole pixels")
            try:
                roi = ROI(*roi)
                roi.validate_bounds(seq.meta.width, seq.meta.height)
            except ROIOutOfBounds as exc:
                raise MalformedCaptureSummary(f"{path}: frame {index}: {exc}") from None
        rois[index] = roi
    return rois, rows


def cmd_eval(args) -> int:
    """Score --pred against the scene's ground truth: over --roi, over each
    frame's ROI recorded at capture (--roi-only), or over the whole frame."""
    roi = ROI(*_parse_roi(args.roi)) if args.roi else None
    seq = load_scene(args.scene)
    pred_dir = Path(args.pred)
    rois = {}  # frame index -> scored ROI; a frame without one scores in full
    if roi is not None:
        roi.validate_bounds(seq.meta.width, seq.meta.height)
        rois = {frame.frame_index: roi for frame in seq.frames}
    elif args.roi_only:
        rois, _ = _load_capture_rois(pred_dir, seq)

    lines = ["frame," + METRICS_CSV_HEADER]
    preds, truths = [], []
    for frame in seq.frames:
        pgm = pred_dir / f"{frame_stem(frame.frame_index)}.pgm"
        pred = millimeters_to_depth(read_pgm16(pgm))
        _check_frame_size(pgm, "prediction", pred, frame)
        truth = frame.depth_gt
        crop = rois.get(frame.frame_index)
        if crop is not None:
            window = np.s_[crop.y0:crop.y1, crop.x0:crop.x1]
            pred, truth = pred[window], truth[window]
        report = compute(pred, truth)
        lines.append(f"{frame.frame_index}," + report.to_csv_row())
        preds.append(pred)
        truths.append(truth)
    pooled = compute(preds, truths)
    lines.append("all," + pooled.to_csv_row())
    out = _outdir(args)
    (out / "metrics.csv").write_text("\n".join(lines) + "\n")
    (out / "metrics.json").write_text(pooled.to_json() + "\n")
    _write_run_json(out, args)
    print(f"pooled: {pooled.to_csv_row()}  ({METRICS_CSV_HEADER})")
    return 0


# ---------- fps-sweep ----------

def cmd_fps_sweep(args) -> int:
    """Capture + complete + evaluate at each --fps rate; one CSV row per rate."""
    rates = _floats(args.fps)
    model = _mirror_model(args)
    budgets = [budget(model, fps) for fps in rates]
    cap_cfg = _capture_config(args)
    params = _fill_params(args)
    seq = load_scene(args.scene)
    model, cap_cfg = _fit_scene(args, seq, model, cap_cfg)
    no_rois = [None] * len(seq.frames)
    lines = ["fps,budget,samples_per_frame," + METRICS_CSV_HEADER]
    for fps, frame_budget in zip(rates, budgets):
        patterns = frame_patterns(seq.frames, no_rois, Regime.FULL_FOV, model, fps, args.seed,
                                  None, None)
        results = run_scene(seq.frames, patterns, args.seed, cap_cfg, params, args.jobs)
        preds = [millimeters_to_depth(r.depth_mm) for r in results]  # as `eval` reads them
        report = compute(preds, [f.depth_gt for f in seq.frames])
        mean_samples = sum(len(r.sparse.samples) for r in results) / len(seq.frames)
        lines.append(
            f"{fps:.9g},{frame_budget},{mean_samples:.9g}," + report.to_csv_row()
        )
    out = _outdir(args)
    (out / "fps_sweep.csv").write_text("\n".join(lines) + "\n")
    _write_run_json(out, args)
    print("\n".join(lines))
    return 0


# ---------- parser ----------

class _Parser(argparse.ArgumentParser):
    """A bad command line is a UsageError, reported by `main` like any other."""

    def error(self, message):
        raise UsageError(message)


def _add_timing_flags(p: argparse.ArgumentParser):
    p.add_argument("--sample-rate-hz", type=float, default=None,
                   help="mirror sample rate; default: fitted reference timing")
    p.add_argument("--overhead-ms", type=float, default=None,
                   help="per-frame settle overhead; default: fitted reference timing")
    p.add_argument("--seed", type=int, default=0)


def _add_pattern_flags(p: argparse.ArgumentParser):
    default = {k: v for flags in _REGIME_ONLY_FLAGS.values() for k, v in flags.items()}
    p.add_argument("--fps", type=float, default=6.0)
    p.add_argument("--regime", choices=sorted(_REGIME_FLAG), default="full")
    p.add_argument("--roi", default=default["roi"],
                   help="x0,y0,x1,y1 in pixels; capture also accepts "
                        "'auto-motion' to track the moving region per frame")
    p.add_argument("--inside-density", type=float, default=default["inside_density"])
    p.add_argument("--outside-density", type=float, default=default["outside_density"])
    p.add_argument("--density", type=float, default=default["density"],
                   help="budget fraction for the density regime")
    p.add_argument("--window-px", type=int, default=default["window_px"],
                   help="entropy window side; odd")


def _add_motion_flags(p: argparse.ArgumentParser):
    p.add_argument("--alpha", type=float, default=_MOTION_FLAGS["alpha"])
    p.add_argument("--threshold", type=float, default=_MOTION_FLAGS["threshold"])
    p.add_argument("--min-blob-area", type=int, default=_MOTION_FLAGS["min_blob_area"])
    p.add_argument("--margin", type=int, default=_MOTION_FLAGS["margin"])


def _add_capture_flags(p: argparse.ArgumentParser):
    p.add_argument("--z-max-m", type=float, default=None,
                   help="range gate; default: scene metadata")
    p.add_argument("--noise-coeff", type=float, default=CaptureConfig().noise_coeff)
    p.add_argument("--dot-sr", type=float, default=CaptureConfig().dot_solid_angle_sr)


def _add_completion_flags(p: argparse.ArgumentParser):
    fill = GuidedFillParams()
    p.add_argument("--sigma-spatial-px", type=float, default=fill.sigma_spatial_px)
    p.add_argument("--sigma-color", type=float, default=fill.sigma_color,
                   help="<= 0 disables color guidance")
    p.add_argument("--k-neighbors", type=int, default=fill.k_neighbors)
    p.add_argument("--fallback", choices=["nearest", "mean"], default=fill.fallback)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="memslidar",
        description="Adaptive scanned-lidar design explorer and frame simulator.",
    )
    parser.add_argument(
        "--version", action="version", version="%(prog)s " + __version__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optics-sweep", help="characterize receiver designs over a range grid")
    p.add_argument("--design", choices=["retro", "array", "single", "all"], default="all")
    p.add_argument("--M", default="1", help="beam quality values, comma separated")
    p.add_argument("--w0-mm", default="5", help="beam waist radii, mm")
    p.add_argument("--lambda-um", default="1.0", help="wavelengths, um")
    p.add_argument("--A-mm", default="100", help="apertures, mm")
    p.add_argument("--u-mm", default="10", help="image distances, mm")
    p.add_argument("--f-mm", default="15", help="focal lengths, mm")
    p.add_argument("--n", type=int, default=100, help="array detector count per axis")
    p.add_argument("--Z-m", default="0.5:1000:log60", help="range grid: lo:hi:logN, lo:hi:linN, or list")
    p.add_argument("--mirror-fov-deg", type=float, default=math.degrees(DEFAULT_MIRROR_FOV_RAD))
    p.add_argument("--find-crossover", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_optics_sweep)

    p = sub.add_parser("fit-budget", help="fit rate/overhead timing to fps:samples pairs")
    p.add_argument("--pairs", default=",".join(f"{fps:g}:{n}" for fps, n in REFERENCE_BUDGET_PAIRS),
                   help="fps:samples,... observations")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_budget)

    p = sub.add_parser("gen-scene", help="render a synthetic rgb-d scene to disk")
    default = _PRESET_FLAGS
    p.add_argument("--preset", choices=list(SCENE_PRESETS), default=default["preset"])
    p.add_argument("--spec-json", default="",
                   help="full scene spec, in place of --preset and its flags")
    p.add_argument("--dims", default=default["dims"])
    p.add_argument("--fov-deg", type=float, default=default["fov_deg"])
    p.add_argument("--fps", type=float, default=default["fps"])
    p.add_argument("--frames", type=int, default=default["frames"])
    p.add_argument("--z-max-m", type=float, default=default["z_max_m"])
    p.add_argument("--range-m", type=float, default=default["range_m"],
                   help="plane/box distance for presets that take one")
    p.add_argument("--box-speed-px", type=float, default=default["box_speed_px"],
                   help="moving-box preset: lateral speed, px/frame")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_scene)

    p = sub.add_parser("scan", help="emit scan pattern json without capturing")
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--scene", default="", help="scene dir (entropy source / dims)")
    size.add_argument("--dims", default="", help="WxH, without a scene")
    p.add_argument("--mirror-fov-deg", type=float, default=_DIMS_FLAGS["mirror_fov_deg"],
                   help="with --dims; a scene gives its own")
    _add_timing_flags(p)
    _add_pattern_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("capture", help="scan a scene into sparse depth")
    p.add_argument("--scene", required=True)
    p.add_argument("--jobs", type=int, default=1)
    _add_timing_flags(p)
    _add_pattern_flags(p)
    _add_motion_flags(p)
    _add_capture_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_capture)

    p = sub.add_parser("fovea", help="trace attention ROIs over a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--mode", choices=["motion", "entropy"], default="motion")
    p.add_argument("--roi-dims", default=_ENTROPY_MODE_FLAGS["roi_dims"],
                   help="entropy mode: ROI size WxH")
    p.add_argument("--window-px", type=int, default=_ENTROPY_MODE_FLAGS["window_px"])
    _add_motion_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fovea)

    p = sub.add_parser("complete", help="densify captured sparse depth")
    p.add_argument("--scene", required=True, help="scene dir providing the guide rgb")
    p.add_argument("--sparse", required=True, help="capture output dir")
    p.add_argument("--jobs", type=int, default=1)
    _add_completion_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("eval", help="score predictions against scene ground truth")
    p.add_argument("--scene", required=True)
    p.add_argument("--pred", required=True, help="dir of 16-bit depth pgm predictions")
    roi = p.add_mutually_exclusive_group()
    roi.add_argument("--roi", default="", help="restrict scoring to x0,y0,x1,y1")
    roi.add_argument("--roi-only", action="store_true",
                     help="restrict scoring to each frame's ROI recorded at capture")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fps-sweep", help="capture, complete and score a scene at each frame rate")
    p.add_argument("--scene", required=True)
    p.add_argument("--fps", required=True, help="comma-separated frame rates, one CSV row each")
    p.add_argument("--jobs", type=int, default=1)
    _add_timing_flags(p)
    _add_capture_flags(p)
    _add_completion_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fps_sweep)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if getattr(args, "jobs", 1) < 1:
            raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
        return args.func(args)
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # UsageError and every config check
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

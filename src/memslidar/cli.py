"""Command-line front end for the simulator.

Subcommands cover the pipeline end to end: optics-sweep, fit-budget,
gen-scene, scan, capture, fovea, complete, eval.  Per-frame pattern,
capture and completion run through `memslidar.pipeline`; this module
parses flags, builds each config from them once, and writes the files.
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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .completion import GuidedFillParams, complete
from .foveation import BackgroundModel, entropy_map, max_entropy_roi
from .lidar_sim import (
    CaptureConfig,
    LidarSimError,
    MalformedCaptureSummary,
    load_sparse,
    save_sparse,
)
from .metrics import METRICS_CSV_HEADER, MetricsError, compute
from .optics import (
    DesignKind,
    OpticsError,
    ReceiverSpec,
    TransmitterSpec,
    find_crossovers,
    format_sweep_csv,
    log_range_grid,
    sweep,
)
from .pipeline import frame_pattern, frame_seed, run_frame, track_motion
from .scan_engine import (
    ROI,
    MirrorModel,
    Regime,
    ScanEngineError,
    budget,
    fit_budget,
    reference_mirror_model,
)
from .scene_io import (
    Primitive,
    SceneIOError,
    SceneMeta,
    SceneSequence,
    SyntheticSpec,
    generate_synthetic,
    load_scene,
    load_spec,
    read_pgm16,
    millimeters_to_depth,
    save_scene,
    write_pgm16,
    depth_to_millimeters,
)

# unused here: bound so the benchmark's span tracer can patch them (bench/workloads.py CLI_TRACED)
from .foveation import update_and_detect  # noqa: F401
from .lidar_sim import capture  # noqa: F401
from .scan_engine import gen_entropy_adaptive, gen_foveated, gen_full_fov  # noqa: F401

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
        return int(w), int(h)
    except ValueError:
        raise UsageError(f"dims must be WxH, got {text!r}") from None


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


def _pmap(fn, jobs: int, *columns: list) -> list:
    """Order-preserving map(fn, *columns); identical output for any job count.
    At most one worker per item: a forking pool starts all its workers at once."""
    workers = min(jobs, len(columns[0]))
    if workers <= 1:
        return list(map(fn, *columns))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *columns))


def _run_frames(args, seq: SceneSequence, rois, regime, model, fps, cap_cfg, params) -> list:
    """`pipeline.run_frame` over the scene's frames, up to --jobs at a time."""
    fn = partial(run_frame, regime=regime, model=model, fps=fps, seed=args.seed,
                 density=args.density, window_px=args.window_px, cap_cfg=cap_cfg, params=params)
    return _pmap(fn, args.jobs, seq.frames, rois)


def _mirror_model(args, fov_deg: float) -> MirrorModel:
    if args.sample_rate_hz is None and args.overhead_ms is None:
        ref = reference_mirror_model(math.radians(fov_deg))
        return ref
    rate = args.sample_rate_hz if args.sample_rate_hz is not None else 1600.0
    overhead = (args.overhead_ms or 0.0) / 1000.0
    return MirrorModel(
        fov_rad=math.radians(fov_deg), sample_rate_hz=rate, frame_overhead_s=overhead
    )


def _capture_config(args, meta: SceneMeta) -> CaptureConfig:
    z_max_m = args.z_max_m if args.z_max_m is not None else meta.z_max_m
    return CaptureConfig(z_max_m=z_max_m, noise_coeff=args.noise_coeff,
                         dot_solid_angle_sr=args.dot_sr)


def _fill_params(args) -> GuidedFillParams:
    sigma_color = args.sigma_color if args.sigma_color > 0 else math.inf
    return GuidedFillParams(sigma_spatial_px=args.sigma_spatial_px, sigma_color=sigma_color,
                            k_neighbors=args.k_neighbors, fallback=args.fallback)


def _background_model(args) -> BackgroundModel:
    return BackgroundModel(alpha=args.alpha, diff_threshold=args.threshold,
                           min_blob_area_px=args.min_blob_area, margin_px=args.margin)


def _fixed_roi(args) -> ROI | None:
    if not args.roi:
        return None
    x0, y0, x1, y1 = _parse_roi(args.roi)
    return ROI(x0, y0, x1, y1, args.inside_density, args.outside_density)


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
    z_grid = _range_grid(args.Z_m)
    if not z_grid:
        raise UsageError("empty range grid")
    if not tx_grid or not rx_grid:
        raise UsageError("empty design grid")
    columns = sweep(tx_grid, rx_grid, z_grid)
    n_rows = len(columns["Z_m"])
    out = _outdir(args)
    (out / "sweep.csv").write_text(format_sweep_csv(columns))
    extra = {"n_rows": n_rows}
    if args.find_crossover:
        crossings = find_crossovers(columns)
        (out / "crossovers.json").write_text(json.dumps(crossings, indent=2, sort_keys=True) + "\n")
        extra["n_crossovers"] = len(crossings)
        for c in crossings:
            print(
                f"crossover ({c['design_a']} vs {c['design_b']}, M={c['M']:g}, "
                f"w0={c['w0_m'] * 1e3:g} mm): Z* ~ {c['z_star_m']:.4g} m, "
                f"{c['winner_above']} wins above"
            )
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
    model = MirrorModel(
        sample_rate_hz=fit.sample_rate_hz, frame_overhead_s=fit.frame_overhead_s
    )
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

def _preset_spec(args) -> SyntheticSpec:
    w, h = _parse_dims(args.dims)
    common = dict(
        width=w, height=h, fov_deg=args.fov_deg, fps=args.fps,
        n_frames=args.frames, z_max_m=args.z_max_m,
    )
    z = args.range_m
    if args.preset == "plane":
        prims = (
            Primitive(kind="plane", z_m=z, texture="noise", color=(150, 150, 150)),
        )
    elif args.preset == "two-plane":
        prims = (
            Primitive(kind="plane", z_m=3.0, texture="flat", color=(90, 90, 90)),
            Primitive(
                kind="quad", z_m=0.5, size_xy_m=(0.11, 0.16),
                center_xy_m=(-0.028, 0.0), texture="flat", color=(200, 60, 60),
            ),
        )
    elif args.preset == "box":
        prims = (
            Primitive(kind="plane", z_m=2.5, texture="noise", color=(120, 140, 160)),
            Primitive(
                kind="box", z_m=1.2, size_xy_m=(0.18, 0.14),
                texture="noise", color=(200, 160, 60),
            ),
        )
    elif args.preset == "textured":
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
    elif args.preset == "moving-box":
        # bright box sweeping left to right over a dark static background
        speed_m_s = args.box_speed_px * z / (
            (w / 2.0) / math.tan(math.radians(args.fov_deg) / 2.0)
        ) * args.fps
        prims = (
            Primitive(kind="plane", z_m=2.5, texture="flat", color=(30, 30, 30)),
            Primitive(
                kind="box", z_m=z, size_xy_m=(0.25, 0.25),
                center_xy_m=(-0.45, 0.0), texture="flat", color=(230, 230, 230),
                velocity_m_s=(speed_m_s, 0.0, 0.0),
            ),
        )
    else:  # pragma: no cover - argparse choices guard this
        raise UsageError(f"unknown preset {args.preset!r}")
    return SyntheticSpec(primitives=prims, **common)


def cmd_gen_scene(args) -> int:
    if args.spec_json:
        spec = load_spec(args.spec_json)
    else:
        spec = _preset_spec(args)
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
    roi = _fixed_roi(args)
    if args.scene:
        seq = load_scene(args.scene)
        dims = (seq.meta.width, seq.meta.height)
        fov_deg = seq.meta.mirror_fov_deg
        guides = [(frame.frame_index, frame.rgb) for frame in seq.frames]
    else:
        if not args.dims:
            raise UsageError("scan needs --scene or --dims")
        dims = _parse_dims(args.dims)
        fov_deg = args.mirror_fov_deg
        guides = [(0, None)]
    model = _mirror_model(args, fov_deg)
    if regime == Regime.FOVEATED_ROI and roi is None:
        raise UsageError("foveated regime needs --roi")
    if regime == Regime.ENTROPY_ADAPTIVE and not args.scene:
        raise UsageError("entropy regime needs --scene for the guide image")
    if regime != Regime.ENTROPY_ADAPTIVE:
        guides = guides[:1]  # pattern is frame-independent; one file is enough

    patterns = {
        index: frame_pattern(
            dims, rgb, regime, model, args.fps,
            frame_seed(args.seed, index, 0), roi, args.density, args.window_px,
        )
        for index, rgb in guides
    }
    out = _outdir(args)
    for index, pattern in patterns.items():
        (out / f"pattern_{index:04d}.json").write_text(pattern.to_json() + "\n")
    _write_run_json(out, args, {"n_patterns": len(patterns), "budget": budget(model, args.fps)})
    print(f"wrote {len(patterns)} pattern file(s) to {out}")
    return 0


# ---------- capture ----------

def cmd_capture(args) -> int:
    seq = load_scene(args.scene)
    model = _mirror_model(args, seq.meta.mirror_fov_deg)
    cap_cfg = _capture_config(args, seq.meta)
    regime = _REGIME_FLAG[args.regime]
    motion = args.roi == "auto-motion" or args.roi_mode == "motion"
    fixed_roi = None if args.roi == "auto-motion" else _fixed_roi(args)

    if regime == Regime.FOVEATED_ROI and motion:
        weights = dict(inside_density=args.inside_density, outside_density=args.outside_density)
        rois = [None if roi is None else replace(roi, **weights)
                for roi in track_motion(seq.frames, _background_model(args))]
    else:
        rois = [fixed_roi] * len(seq.frames)
    results = _run_frames(args, seq, rois, regime, model, args.fps, cap_cfg, None)

    out = _outdir(args)
    summary = []
    for frame, roi, (sparse, _) in zip(seq.frames, rois, results):
        index = frame.frame_index
        save_sparse(sparse, out / f"{index:04d}.pgm", out / f"{index:04d}.json")
        summary.append(
            {
                "frame": index,
                "n_samples": len(sparse.samples),
                "drop_count": sparse.drop_count,
                "regime": sparse.regime.value,
                "roi": None if roi is None else [roi.x0, roi.y0, roi.x1, roi.y1],
            }
        )
    (out / "capture_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    _write_run_json(out, args, {"budget": budget(model, args.fps)})
    total = sum(s["n_samples"] for s in summary)
    print(f"captured {len(summary)} frame(s), {total} samples total, to {out}")
    return 0


# ---------- fovea ----------

def cmd_fovea(args) -> int:
    seq = load_scene(args.scene)
    lines = [ROI_TRACE_HEADER]
    if args.mode == "motion":
        rois = track_motion(seq.frames, _background_model(args))
    else:  # entropy
        rw, rh = _parse_dims(args.roi_dims)
        rois = [max_entropy_roi(entropy_map(f.rgb, args.window_px), (rw, rh)) for f in seq.frames]
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
    seq = load_scene(args.scene)
    sparse_dir = Path(args.sparse)
    params = _fill_params(args)
    sparses = []
    for frame in seq.frames:
        stem = f"{frame.frame_index:04d}"
        pgm = sparse_dir / f"{stem}.pgm"
        sjson = sparse_dir / f"{stem}.json"
        if not pgm.is_file() or not sjson.is_file():
            raise LidarSimError(f"{sparse_dir}: missing capture files for frame {stem}")
        sparses.append(load_sparse(pgm, sjson))
    results = _pmap(
        partial(complete, params=params), args.jobs, sparses, [f.rgb for f in seq.frames]
    )
    out = _outdir(args)
    for frame, dense in zip(seq.frames, results):
        write_pgm16(out / f"{frame.frame_index:04d}.pgm", depth_to_millimeters(dense.depth_m))
    _write_run_json(out, args)
    print(f"completed {len(results)} frame(s) to {out}")
    return 0


# ---------- eval ----------

def _pooled_report(pairs):
    pred = np.concatenate([p.ravel() for p, _ in pairs])
    truth = np.concatenate([t.ravel() for _, t in pairs])
    return compute(pred, truth, (pred > 0) & (truth > 0))


def _json_file(path: Path):
    try:
        return json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedCaptureSummary(f"{path}: not JSON ({exc})") from None


def _load_capture_rois(pred_dir: Path, seq: SceneSequence) -> dict[int, list | None]:
    """Per-frame ROI rectangles recorded at capture time, checked against the
    scene.  Looks next to --pred first, then follows its run.json back to
    the capture directory, so the flag works on completed output."""
    path = pred_dir / "capture_summary.json"
    run = pred_dir / "run.json"
    if not path.is_file() and run.is_file():
        doc = _json_file(run)
        resolved = doc.get("resolved") if isinstance(doc, dict) else None
        sparse = resolved.get("sparse") if isinstance(resolved, dict) else None
        if isinstance(sparse, str) and sparse:
            path = Path(sparse) / "capture_summary.json"
    if not path.is_file():
        raise UsageError("--roi-only needs a capture_summary.json next to --pred or reachable "
                         "through its run.json")
    rows = _json_file(path)
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise MalformedCaptureSummary(f"{path}: expected a list of objects, one per frame")
    frames = {frame.frame_index for frame in seq.frames}
    w, h = seq.meta.width, seq.meta.height
    rois = {}
    for row in rows:
        index, roi = row.get("frame"), row.get("roi")
        if type(index) is not int or index not in frames or index in rois:
            raise MalformedCaptureSummary(f"{path}: 'frame' {index!r} does not name a scene frame once")
        if roi is not None and not (
            type(roi) is list and len(roi) == 4 and all(type(v) is int for v in roi)
            and 0 <= roi[0] < roi[2] <= w and 0 <= roi[1] < roi[3] <= h
        ):
            raise MalformedCaptureSummary(f"{path}: frame {index}: 'roi' {roi!r} is neither null "
                                          f"nor a non-empty x0,y0,x1,y1 rectangle inside {w}x{h}")
        rois[index] = roi
    return rois


def cmd_eval(args) -> int:
    if args.fps_sweep:
        return _eval_fps_sweep(args)
    seq = load_scene(args.scene)
    if not args.pred:
        raise UsageError("eval needs --pred (or --fps-sweep)")
    pred_dir = Path(args.pred)
    if args.roi and args.roi_only:
        raise UsageError("--roi and --roi-only are mutually exclusive")
    rects = {}  # frame index -> scored rectangle; a frame without one scores in full
    if args.roi:
        roi = ROI(*_parse_roi(args.roi))
        roi.validate_bounds(seq.meta.width, seq.meta.height)
        rects = {frame.frame_index: (roi.x0, roi.y0, roi.x1, roi.y1) for frame in seq.frames}
    elif args.roi_only:
        rects = _load_capture_rois(pred_dir, seq)

    lines = ["frame," + METRICS_CSV_HEADER]
    pooled_pairs = []
    for frame in seq.frames:
        stem = f"{frame.frame_index:04d}"
        pgm = pred_dir / f"{stem}.pgm"
        if not pgm.is_file():
            raise LidarSimError(f"{pgm}: missing prediction for frame {stem}")
        pred = millimeters_to_depth(read_pgm16(pgm))
        if pred.shape != frame.depth_gt.shape:
            raise SceneIOError(
                f"{pgm}: prediction is {pred.shape}, scene is {frame.depth_gt.shape}"
            )
        truth = frame.depth_gt
        rect = rects.get(frame.frame_index)
        if rect is not None:
            x0, y0, x1, y1 = rect
            sel = np.zeros_like(truth, dtype=bool)
            sel[y0:y1, x0:x1] = True
            pred = np.where(sel, pred, 0.0)
            truth = np.where(sel, truth, 0.0)
        report = compute(pred, truth, (pred > 0) & (truth > 0))
        lines.append(f"{frame.frame_index}," + report.to_csv_row())
        pooled_pairs.append((pred, truth))
    pooled = _pooled_report(pooled_pairs)
    lines.append("all," + pooled.to_csv_row())
    out = _outdir(args)
    (out / "metrics.csv").write_text("\n".join(lines) + "\n")
    (out / "metrics.json").write_text(pooled.to_json() + "\n")
    _write_run_json(out, args)
    print(f"pooled: {pooled.to_csv_row()}  ({METRICS_CSV_HEADER})")
    return 0


def _eval_fps_sweep(args) -> int:
    """Capture + complete + evaluate at each frame rate; one CSV row per rate."""
    for flag, given in (("--pred", args.pred), ("--roi", args.roi), ("--roi-only", args.roi_only)):
        if given:
            raise UsageError(f"--fps-sweep scores its own captures; it takes no {flag}")
    seq = load_scene(args.scene)
    model = _mirror_model(args, seq.meta.mirror_fov_deg)
    cap_cfg = _capture_config(args, seq.meta)
    params = _fill_params(args)
    no_rois = [None] * len(seq.frames)
    lines = ["fps,budget,samples_per_frame," + METRICS_CSV_HEADER]
    for fps in _floats(args.fps_sweep):
        results = _run_frames(args, seq, no_rois, Regime.FULL_FOV, model, fps, cap_cfg, params)
        # run_frame's depth is the millimetre depth `complete` writes, as `eval --pred` reads
        report = _pooled_report([(pred, f.depth_gt) for (_, pred), f in zip(results, seq.frames)])
        mean_samples = sum(len(sparse.samples) for sparse, _ in results) / len(seq.frames)
        lines.append(
            f"{fps:.9g},{budget(model, fps)},{mean_samples:.9g}," + report.to_csv_row()
        )
    out = _outdir(args)
    (out / "fps_sweep.csv").write_text("\n".join(lines) + "\n")
    _write_run_json(out, args)
    print("\n".join(lines))
    return 0


# ---------- parser ----------

def _add_engine_flags(p: argparse.ArgumentParser):
    p.add_argument("--sample-rate-hz", type=float, default=None,
                   help="mirror sample rate; default: fitted reference timing")
    p.add_argument("--overhead-ms", type=float, default=None,
                   help="per-frame settle overhead; default: fitted reference timing")
    p.add_argument("--fps", type=float, default=6.0)
    p.add_argument("--seed", type=int, default=0)


def _add_pattern_flags(p: argparse.ArgumentParser):
    p.add_argument("--regime", choices=sorted(_REGIME_FLAG), default="full")
    p.add_argument("--roi", default="",
                   help="x0,y0,x1,y1 in pixels; capture also accepts "
                        "'auto-motion' to track the moving region per frame")
    p.add_argument("--inside-density", type=float, default=1.0)
    p.add_argument("--outside-density", type=float, default=0.1)
    p.add_argument("--density", type=float, default=1.0,
                   help="budget fraction for the density regime")
    p.add_argument("--window-px", type=int, default=15,
                   help="entropy window side; odd")


def _add_motion_flags(p: argparse.ArgumentParser):
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--threshold", type=float, default=25.0)
    p.add_argument("--min-blob-area", type=int, default=100)
    p.add_argument("--margin", type=int, default=10)


def _add_capture_flags(p: argparse.ArgumentParser):
    p.add_argument("--z-max-m", type=float, default=None,
                   help="range gate; default: scene metadata")
    p.add_argument("--noise-coeff", type=float, default=CaptureConfig().noise_coeff)
    p.add_argument("--dot-sr", type=float, default=CaptureConfig().dot_solid_angle_sr)


def _add_completion_flags(p: argparse.ArgumentParser):
    p.add_argument("--sigma-spatial-px", type=float, default=12.0)
    p.add_argument("--sigma-color", type=float, default=20.0,
                   help="<= 0 disables color guidance")
    p.add_argument("--k-neighbors", type=int, default=16)
    p.add_argument("--fallback", choices=["nearest", "mean"], default="nearest")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--mirror-fov-deg", type=float, default=25.0)
    p.add_argument("--find-crossover", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_optics_sweep)

    p = sub.add_parser("fit-budget", help="fit rate/overhead timing to fps:samples pairs")
    p.add_argument("--pairs", default="30:28,24:40,18:60,12:104,6:231",
                   help="fps:samples,... observations")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_budget)

    p = sub.add_parser("gen-scene", help="render a synthetic rgb-d scene to disk")
    p.add_argument("--preset", choices=["plane", "two-plane", "box", "textured", "moving-box"],
                   default="textured")
    p.add_argument("--spec-json", default="", help="full scene spec; overrides --preset")
    p.add_argument("--dims", default="160x120")
    p.add_argument("--fov-deg", type=float, default=25.0)
    p.add_argument("--fps", type=float, default=30.0)
    p.add_argument("--frames", type=int, default=1)
    p.add_argument("--z-max-m", type=float, default=3.0)
    p.add_argument("--range-m", type=float, default=1.5,
                   help="plane/box distance for presets that take one")
    p.add_argument("--box-speed-px", type=float, default=30.0,
                   help="moving-box preset: lateral speed, px/frame")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_scene)

    p = sub.add_parser("scan", help="emit scan pattern json without capturing")
    p.add_argument("--scene", default="", help="scene dir (entropy source / dims)")
    p.add_argument("--dims", default="", help="WxH when no scene is given")
    p.add_argument("--mirror-fov-deg", type=float, default=25.0)
    _add_engine_flags(p)
    _add_pattern_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("capture", help="scan a scene into sparse depth")
    p.add_argument("--scene", required=True)
    p.add_argument("--roi-mode", choices=["fixed", "motion"], default="fixed")
    p.add_argument("--jobs", type=int, default=1)
    _add_engine_flags(p)
    _add_pattern_flags(p)
    _add_motion_flags(p)
    _add_capture_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_capture)

    p = sub.add_parser("fovea", help="trace attention ROIs over a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--mode", choices=["motion", "entropy"], default="motion")
    p.add_argument("--roi-dims", default="40x30", help="entropy mode: ROI size WxH")
    p.add_argument("--window-px", type=int, default=15)
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
    p.add_argument("--pred", default="", help="dir of 16-bit depth pgm predictions")
    p.add_argument("--roi", default="", help="restrict scoring to x0,y0,x1,y1")
    p.add_argument("--roi-only", action="store_true",
                   help="restrict scoring to each frame's ROI recorded at capture")
    p.add_argument("--fps-sweep", default="",
                   help="fps list; runs capture+complete+eval per rate instead of --pred")
    p.add_argument("--jobs", type=int, default=1)
    _add_engine_flags(p)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--window-px", type=int, default=15)
    _add_capture_flags(p)
    _add_completion_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
        return args.func(args)
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ScanEngineError, OpticsError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

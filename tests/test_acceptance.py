"""Acceptance gate: one test per shipped claim, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each test also fails loudly on its own, so a plain -v run gives the same
pass/fail picture from the test names.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import foveation_scene, model_with_budget
from memslidar.cli import main as cli_main
from memslidar.pipeline import compare_foveated
from memslidar.foveation import BackgroundModel, update_and_detect
from memslidar.lidar_sim import CaptureConfig, capture
from memslidar.metrics import compute, depth_to_points, planar_rmse
from memslidar.optics import (
    DesignKind,
    ReceiverSpec,
    TransmitterSpec,
    characterize,
    log_range_grid,
)
from memslidar.scan_engine import (
    REFERENCE_BUDGET_PAIRS,
    ROI,
    budget,
    fit_budget,
    gen_full_fov,
    reference_mirror_model,
)
from memslidar.scene_io import Primitive, SyntheticSpec, generate_synthetic


def verdict(label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


# ---------- 1: closed-form receiver characterization ----------

def _expected_characterization(kind, m, w0, lam, mirror_fov, a, u, f, z):
    """Hand-coded reference formulas, independent of the library path.

    Deliberately written with different operation ordering (half-angle
    factors, reciprocal focus equation) so bitwise agreement with the
    library is impossible and the 1e-9 tolerance does real work.
    """
    w_laser = lam * m**2 / (math.pi * w0)
    falloff = z * 2.0 * math.tan(0.5 * w_laser)
    if kind is DesignKind.RETROREFLECTIVE:
        apex = min(2.0 * math.atan(0.5 * w0 / z), w_laser)
        return mirror_fov, apex / (w_laser * falloff), (math.pi / 12.0) * u * w0 * w0
    if kind is DesignKind.RECEIVER_ARRAY:
        fov = min(2.0 * math.atan(0.5 * a / u), mirror_fov)
        return fov, 1.0 / falloff, u * a * a
    u_img = 1.0 / (1.0 / f - 1.0 / z)
    apex = 2.0 * math.atan(a * abs(u / u_img - 1.0) / (2.0 * u))
    return min(apex, mirror_fov), 1.0 / (apex * falloff), (math.pi / 12.0) * u * a * a


def test_01_closed_form_receiver_oracle():
    rng = np.random.default_rng(42)
    kinds = list(DesignKind)
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        kind = kinds[i % 3]
        m = rng.uniform(1.0, 50.0)
        w0 = rng.uniform(1e-4, 1e-2)
        lam = rng.uniform(5e-7, 1.6e-6)
        mirror_fov = rng.uniform(0.1, 1.0)
        f = rng.uniform(5e-3, 5e-2)
        u = f * rng.uniform(0.3, 0.95)
        a = rng.uniform(1e-3, 0.15)
        z = rng.uniform(0.5, 1000.0)
        tx = TransmitterSpec(beam_quality_m=m, waist_radius_m=w0,
                             wavelength_m=lam, mirror_fov_rad=mirror_fov)
        rx = ReceiverSpec(design_kind=kind, aperture_m=a,
                          image_distance_m=u, focal_length_m=f)
        got = characterize(tx, rx, z)
        want = _expected_characterization(kind, m, w0, lam, mirror_fov, a, u, f, z)
        for g, w in zip((got.fov_rad, got.rr_per_m, got.volume_m3), want):
            worst = max(worst, abs(g - w) / abs(w))
    elapsed = time.perf_counter() - start
    verdict(
        "1 closed-form receiver characterization",
        worst <= 1e-9 and elapsed < 1.0,
        f"max rel err {worst:.2e} over 1000 random designs in {elapsed:.2f} s",
    )


# ---------- 2: receiver design trade-offs ----------

def test_02_design_tradeoff_curves():
    start = time.perf_counter()
    tx = TransmitterSpec(beam_quality_m=1.0, waist_radius_m=5e-3,
                         wavelength_m=1e-6, mirror_fov_rad=math.radians(25.0))
    retro = ReceiverSpec(DesignKind.RETROREFLECTIVE, aperture_m=5e-3,
                         image_distance_m=0.010, focal_length_m=0.015)
    under = ReceiverSpec(DesignKind.SINGLE_DETECTOR, aperture_m=0.1,
                         image_distance_m=0.010, focal_length_m=0.015)
    array = ReceiverSpec(DesignKind.RECEIVER_ARRAY, aperture_m=0.1,
                         image_distance_m=0.010, focal_length_m=0.015,
                         detector_count_n=8)

    # (a) single-detector signal overtakes retroreflection at long range
    zs = log_range_grid(0.5, 1000.0, 120)
    rr_retro = np.array([characterize(tx, retro, z).rr_per_m for z in zs])
    rr_under = np.array([characterize(tx, under, z).rr_per_m for z in zs])
    sign = np.sign(rr_under - rr_retro)
    flips = np.nonzero(np.diff(sign) > 0)[0]
    crossover_ok = (
        rr_retro[0] > rr_under[0]
        and rr_under[-1] > rr_retro[-1]
        and len(flips) == 1
    )
    z_star = float(zs[flips[0] + 1]) if len(flips) else float("nan")
    crossover_ok = crossover_ok and 100.0 < z_star < 300.0

    # (b) focal volume: single detector beats the array at equal (u, A)
    volume_ok = all(
        characterize(tx, under, z).volume_m3 < characterize(tx, array, z).volume_m3
        for z in zs
    )

    # (c) under-focused FOV flat over working ranges, in-focus FOV falls
    zc = log_range_grid(0.5, 100.0, 80)
    fov_under = np.array([characterize(tx, under, z).fov_rad for z in zc])
    spread = float((fov_under.max() - fov_under.min()) / fov_under.max())
    focused = ReceiverSpec(DesignKind.SINGLE_DETECTOR, aperture_m=0.025,
                           image_distance_m=0.015, focal_length_m=0.015)
    fov_focused = np.array([characterize(tx, focused, z).fov_rad for z in zc])
    fov_ok = spread <= 0.02 and bool(np.all(np.diff(fov_focused) < 0))

    elapsed = time.perf_counter() - start
    verdict(
        "2 design trade-off curves",
        crossover_ok and volume_ok and fov_ok and elapsed < 10.0,
        f"crossover at {z_star:.0f} m, volume ratio pi/12 everywhere, "
        f"under-focused FOV spread {100 * spread:.3f}% in {elapsed:.2f} s",
    )


# ---------- 3: frame budget model ----------

def test_03_budget_model():
    fit = fit_budget(REFERENCE_BUDGET_PAIRS)
    model = reference_mirror_model()
    preds = [budget(model, fps) for fps, _ in REFERENCE_BUDGET_PAIRS]
    obs = [n for _, n in REFERENCE_BUDGET_PAIRS]
    within = all(abs(p - n) <= 0.05 * n for p, n in zip(preds, obs))

    rate, overhead = 1600.0, 0.01
    synth = [(fps, (1.0 / fps - overhead) * rate) for fps in (5.0, 10.0, 20.0, 40.0)]
    refit = fit_budget(synth)
    exact = (
        abs(refit.sample_rate_hz - rate) / rate <= 1e-6
        and abs(refit.frame_overhead_s - overhead) / overhead <= 1e-6
    )
    verdict(
        "3 frame budget model",
        within and exact,
        f"fitted {fit.sample_rate_hz:.1f} Hz / {fit.frame_overhead_s * 1e3:.2f} ms, "
        f"predictions {preds} vs {obs}, synthetic recovery to 1e-6",
    )


# ---------- 4: planar scan noise validation ----------

def test_04_planar_noise_validation():
    start = time.perf_counter()
    # range-noise coefficient calibrated so the 0.5..3 m pooled mean
    # reproduces the benchtop planar residual anchor of 0.069 m
    config = CaptureConfig(z_max_m=10.0, noise_coeff=0.06918 / 1.75)
    pattern = gen_full_fov(model_with_budget(230), 10.0, (64, 48))
    rmses = []
    for plane_idx, z in enumerate(np.linspace(0.5, 3.0, 10)):
        spec = SyntheticSpec(
            width=64, height=48, n_frames=1,
            primitives=(Primitive(kind="plane", z_m=float(z), texture="flat"),),
        )
        frame = generate_synthetic(spec, seed=0).frames[0]
        intr = frame.intrinsics
        for seed in range(10):
            sparse = capture(frame, pattern, config, noise_seed=plane_idx * 10 + seed)
            pts = depth_to_points(sparse.depth_m, intr.fx_px, intr.fy_px,
                                  intr.cx_px, intr.cy_px)
            rmses.append(planar_rmse(pts))
    mean = float(np.mean(rmses))
    elapsed = time.perf_counter() - start
    verdict(
        "4 planar scan noise validation",
        0.069 * 0.8 <= mean <= 0.069 * 1.2 and elapsed < 30.0,
        f"mean planar RMSE {mean:.4f} m over 10 planes x 10 seeds "
        f"(target 0.069 +/- 20%) in {elapsed:.1f} s",
    )


# ---------- 5: depth metrics oracle ----------

def _naive_metrics(pred, truth, mask):
    n = 0
    abs_rel = rmse = log10 = 0.0
    hits = [0, 0, 0]
    for y in range(pred.shape[0]):
        for x in range(pred.shape[1]):
            if not mask[y, x]:
                continue
            p, t = float(pred[y, x]), float(truth[y, x])
            n += 1
            abs_rel += abs(p - t) / t
            rmse += (p - t) ** 2
            log10 += abs(math.log10(p) - math.log10(t))
            ratio = max(p / t, t / p)
            for i in range(3):
                hits[i] += ratio < 1.25 ** (i + 1)
    return (
        100.0 * abs_rel / n,
        math.sqrt(rmse / n),
        log10 / n,
        *(100.0 * h / n for h in hits),
        n,
    )


def test_05_metrics_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        shape = (int(rng.integers(3, 9)), int(rng.integers(3, 11)))
        truth = rng.uniform(0.1, 10.0, shape)
        pred = truth * rng.uniform(0.5, 2.0, shape)
        mask = rng.random(shape) < 0.7
        mask.flat[int(rng.integers(mask.size))] = True
        got = compute(pred, truth, mask)
        want = _naive_metrics(pred, truth, mask)
        fields = (got.mre_pct, got.rmse_m, got.log10, got.delta1_pct,
                  got.delta2_pct, got.delta3_pct, got.n_pixels)
        for g, w in zip(fields, want):
            if w == 0.0:
                worst = max(worst, abs(g - w))
            else:
                worst = max(worst, abs(g - w) / abs(w))
    oracle_ok = worst <= 1e-12

    fuzz_ok = True
    scales = (0.37, 2.9, 13.7)
    for i in range(10_000):
        truth = rng.uniform(0.05, 20.0, (3, 4))
        pred = truth * rng.uniform(0.4, 2.5, (3, 4))
        r = compute(pred, truth)
        k = scales[i % 3]
        rk = compute(k * pred, k * truth)
        fuzz_ok = fuzz_ok and (
            0.0 <= r.delta1_pct <= r.delta2_pct <= r.delta3_pct <= 100.0
            and r.mre_pct >= 0.0 and r.rmse_m >= 0.0 and r.log10 >= 0.0
            and rk.delta1_pct == r.delta1_pct
            and rk.delta2_pct == r.delta2_pct
            and rk.delta3_pct == r.delta3_pct
            and abs(rk.mre_pct - r.mre_pct) <= 1e-9 * max(r.mre_pct, 1e-30)
            and abs(rk.log10 - r.log10) <= 1e-9 * max(r.log10, 1e-30)
            and abs(rk.rmse_m - k * r.rmse_m) <= 1e-9 * k * max(r.rmse_m, 1e-30)
        )
        if not fuzz_ok:
            break
    verdict(
        "5 depth metrics oracle",
        oracle_ok and fuzz_ok,
        f"naive-loop max rel err {worst:.2e} on 100 maps; "
        f"monotonicity and joint-scale held on 10000 fuzzed inputs",
    )


# ---------- 6: foveation benefit ----------

def test_06_foveation_benefit():
    start = time.perf_counter()
    roi = ROI(10, 20, 90, 80, inside_density=1.0, outside_density=0.0)
    model = model_with_budget(230)
    n_trials = 24
    wins = 0
    full_mres, fov_mres = [], []
    for i in range(n_trials):
        frame = foveation_scene(100 + i)
        full, fov = compare_foveated(frame, roi, model, 10.0, noise_seed=i)
        wins += fov.mre_pct < full.mre_pct
        full_mres.append(full.mre_pct)
        fov_mres.append(fov.mre_pct)
    mean_full, mean_fov = float(np.mean(full_mres)), float(np.mean(fov_mres))
    elapsed = time.perf_counter() - start
    verdict(
        "6 foveation benefit",
        wins >= 0.8 * n_trials and mean_fov < mean_full,
        f"foveated wins {wins}/{n_trials}, ROI-MRE mean {mean_fov:.2f}% vs "
        f"full-FOV {mean_full:.2f}% in {elapsed:.1f} s",
    )


# ---------- 7: motion foveation loop ----------

def _bbox_iou(a, b):
    ix0, iy0 = max(a[0], b[0]), max(a[1], b[1])
    ix1, iy1 = min(a[2], b[2]), min(a[3], b[3])
    inter = max(0, ix1 - ix0) * max(0, iy1 - iy0)
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def test_07_motion_loop():
    fov_rad = math.radians(25.0)
    fx = 80.0 / math.tan(fov_rad / 2.0)
    speed_m_s = 30.0 * 1.5 / fx * 30.0  # 30 px/frame at the box depth
    spec = SyntheticSpec(
        width=160, height=120, fps=30.0, n_frames=6,
        primitives=(
            Primitive(kind="plane", z_m=2.5, texture="flat", color=(30, 30, 30)),
            Primitive(kind="box", z_m=1.5, size_xy_m=(0.25, 0.25),
                      center_xy_m=(-0.45, 0.0), texture="flat",
                      color=(230, 230, 230), velocity_m_s=(speed_m_s, 0.0, 0.0)),
        ),
    )
    seq = generate_synthetic(spec, seed=0)
    bg = BackgroundModel()
    ious = []
    for frame in seq.frames:
        bg, roi = update_and_detect(bg, frame.rgb)
        if frame.frame_index == 0:
            continue  # first frame only seeds the background
        box = (frame.depth_gt > 0) & (frame.depth_gt < 2.0)
        if not box.any():
            continue
        ys, xs = np.nonzero(box)
        true_bbox = (int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1)
        if roi is None:
            ious.append(0.0)
        else:
            ious.append(_bbox_iou((roi.x0, roi.y0, roi.x1, roi.y1), true_bbox))
    tracked = sum(v >= 0.5 for v in ious)
    track_ok = ious and tracked >= 0.9 * len(ious)

    mirror = reference_mirror_model()
    dense = budget(mirror, 6.0)
    fov_budgets = [budget(mirror, f) for f in (20.0, 13.0, 9.0, 24.0)]
    budget_ok = (
        all(0 < b < dense for b in fov_budgets)
        and float(np.mean(fov_budgets)) < dense
    )
    verdict(
        "7 motion foveation loop",
        bool(track_ok) and budget_ok,
        f"IoU >= 0.5 on {tracked}/{len(ious)} tracked frames "
        f"(min {min(ious):.2f}); foveated budgets {fov_budgets} vs dense {dense}",
    )


# ---------- 8: pipeline determinism ----------

def _run_pipeline(root, jobs="1"):
    def cli(*argv):
        assert cli_main([str(a) for a in argv]) == 0

    cli("gen-scene", "--preset", "moving-box", "--frames", "3", "--out", "scene")
    cli("scan", "--scene", "scene", "--regime", "entropy", "--fps", "20",
        "--out", "scan")
    cli("capture", "--scene", "scene", "--fps", "20", "--jobs", jobs,
        "--out", "cap")
    cli("fovea", "--scene", "scene", "--mode", "motion", "--out", "fovea")
    cli("complete", "--sparse", "cap", "--scene", "scene", "--jobs", jobs,
        "--out", "pred")
    cli("eval", "--pred", "pred", "--scene", "scene", "--out", "metrics")


def test_08_pipeline_determinism(tmp_path, monkeypatch):
    for rep, jobs in (("r1", "1"), ("r2", "1"), ("r3", "2")):
        root = tmp_path / rep
        root.mkdir()
        monkeypatch.chdir(root)
        _run_pipeline(root, jobs)
    stages = ("scene", "scan", "cap", "fovea", "pred", "metrics")
    mismatches = []
    n_files = 0
    for stage in stages:
        base = tmp_path / "r1" / stage
        names = sorted(p.name for p in base.iterdir())
        for other, skip_runlog in (("r2", False), ("r3", True)):
            for name in names:
                if name == "run.json" and skip_runlog:
                    continue  # --jobs is recorded in the run log by design
                n_files += 1
                if (base / name).read_bytes() != (
                    tmp_path / other / stage / name
                ).read_bytes():
                    mismatches.append(f"{other}/{stage}/{name}")
    verdict(
        "8 pipeline determinism",
        not mismatches,
        f"{n_files} file comparisons across rerun and --jobs 2, "
        f"mismatches: {mismatches or 'none'}",
    )

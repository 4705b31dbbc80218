"""The benchmark's two workloads, each a closed loop in one process.

A workload generates its inputs from the seed in ``setup`` and then yields
cycles of operations.  A cycle holds every input class of the workload once,
so whole cycles keep the mix, and with it the median and tail, the same from
run to run.  ``min_cycles`` is the fewest cycles a run completes: enough ops
that the tail rank (ten ops beyond it) falls among the slowest class.

Each op's ``check`` runs outside the timed region, verifies the outputs and
returns their SHA-256 digest plus the simulated events it produced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from memslidar import cli
from memslidar.completion import GuidedFillParams, complete, complete_bruteforce
from memslidar.foveation import entropy_map, max_entropy_roi
from memslidar.lidar_sim import CaptureConfig, capture, load_sparse
from memslidar.metrics import compute
from memslidar.optics import SWEEP_CSV_HEADER
from memslidar.scan_engine import (
    ROI,
    gen_entropy_adaptive,
    gen_foveated,
    gen_full_fov,
    reference_mirror_model,
)
from memslidar.scene_io import Primitive, SyntheticSpec, generate_synthetic, read_pgm16

from tracing import targets

FOV_DEG = 25.0
ENTROPY_WINDOW_PX = 15

# names bound in memslidar.cli that the CLI workloads reach; each gets a span
CLI_TRACED = (
    "main", "load_scene", "generate_synthetic", "save_scene",
    "reference_mirror_model", "entropy_map", "max_entropy_roi",
    "update_and_detect", "gen_full_fov", "gen_entropy_adaptive",
    "gen_foveated", "capture", "save_sparse", "sweep",
    "format_sweep_csv", "find_crossovers",
)


class CheckFailed(Exception):
    """An op's outputs broke an invariant the benchmark checks."""


@dataclass
class Op:
    key: str                          # equal keys mean equal inputs, so equal digests
    run: Callable[[], object]         # the timed call
    check: Callable[[object], "Outcome"]


@dataclass
class Outcome:
    digest: str
    events: int                       # valid lidar returns


def sub_seed(seed: int, *parts: int) -> int:
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1, np.uint64)[0])


def array_digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


def dir_digest(directory: Path, names) -> str:
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode() + b"\0" + (directory / name).read_bytes())
    return h.hexdigest()


def quiet_cli(argv: list[str]) -> int:
    """cli.main with its stdout kept off the benchmark's own stdout.

    ``cli.main`` is looked up at call time, so a traced pass sees the wrapper.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# ---------- frame-qqvga ----------

FRAME_FPS = (30.0, 6.0, 1.0)       # 27 / 230 / 1503 samples, reference mirror
FRAME_REGIMES = ("full", "entropy", "foveated")


class FrameLoop:
    """In-memory loop: render, pattern, capture, complete, score; plus one
    design sweep per cycle, so the optics layer is measured too."""

    name = "frame-qqvga"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed = seed
        self.dims = (48, 36) if smoke else (160, 120)
        self.oracle_dims = (24, 18) if smoke else (64, 48)
        self.sweep = OpticsSweep(seed, workdir, smoke)
        # 40 ops: rank N-11 lies among the 1 fps frames, 3 of each cycle's 10 ops;
        # the sweep sorts between the 6 and 1 fps frames, away from median and tail
        self.min_cycles = 1 if smoke else 4
        self.lib = SimpleNamespace(
            generate_synthetic=generate_synthetic,
            entropy_map=entropy_map,
            max_entropy_roi=max_entropy_roi,
            gen_full_fov=gen_full_fov,
            gen_entropy_adaptive=gen_entropy_adaptive,
            gen_foveated=gen_foveated,
            capture=capture,
            complete=complete,
            compute=compute,
        )
        self.trace_targets = targets(self.lib, vars(self.lib)) + self.sweep.trace_targets
        self.pooled: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def setup(self) -> None:
        self.sweep.setup()
        rng = np.random.default_rng(self.seed)
        self.model = reference_mirror_model(math.radians(FOV_DEG))
        self.config = CaptureConfig()
        self.params = GuidedFillParams()
        self.plane_color = tuple(int(c) for c in rng.integers(100, 200, 3))
        self.quads = [
            dict(
                z=float(rng.uniform(1.0, 2.2)),
                size=size,
                center=(float(rng.uniform(-0.15, 0.15)), float(rng.uniform(-0.08, 0.08))),
                amplitude=(float(rng.uniform(0.05, 0.12)), float(rng.uniform(0.02, 0.05))),
                rate=float(rng.uniform(0.05, 0.15)),
                phase=float(rng.uniform(0.0, 2.0 * math.pi)),
                color=tuple(int(c) for c in rng.integers(40, 230, 3)),
                texture=texture,
            )
            for size, texture in (
                ((0.16, 0.12), "checker"), ((0.22, 0.16), "noise"), ((0.12, 0.10), "noise"),
            )
        ]

    def spec(self, k: int, dims: tuple[int, int]) -> SyntheticSpec:
        """Frame k: the seed's quads, moved along bounded paths, over a noise plane."""
        prims = [Primitive(kind="plane", z_m=2.5, texture="noise", color=self.plane_color)]
        for q in self.quads:
            angle = q["rate"] * k + q["phase"]
            prims.append(Primitive(
                kind="quad", z_m=q["z"], size_xy_m=q["size"],
                center_xy_m=(q["center"][0] + q["amplitude"][0] * math.sin(angle),
                             q["center"][1] + q["amplitude"][1] * math.cos(angle)),
                texture=q["texture"], checker_m=0.03, color=q["color"],
            ))
        return SyntheticSpec(width=dims[0], height=dims[1], fov_deg=FOV_DEG,
                             primitives=tuple(prims))

    def frame(self, k: int):
        """One frame through the whole loop, calling through the traceable namespace."""
        lib = self.lib
        fps = FRAME_FPS[k % 3]
        regime = FRAME_REGIMES[(k // 3) % 3]
        frame = lib.generate_synthetic(self.spec(k, self.dims), seed=self.seed).frames[0]
        if regime == "full":
            pattern = lib.gen_full_fov(self.model, fps, self.dims)
        else:
            emap = lib.entropy_map(frame.rgb, ENTROPY_WINDOW_PX)
            if regime == "entropy":
                pattern = lib.gen_entropy_adaptive(
                    self.model, fps, emap.values, sub_seed(self.seed, k, 0))
            else:
                best = lib.max_entropy_roi(emap, (self.dims[0] // 4, self.dims[1] // 4))
                roi = ROI(best.x0, best.y0, best.x1, best.y1, 1.0, 0.1)
                pattern = lib.gen_foveated(self.model, fps, roi, self.dims)
        sparse = lib.capture(frame, pattern, self.config, sub_seed(self.seed, k, 1))
        dense = lib.complete(sparse, frame.rgb, self.params)
        report = lib.compute(dense.depth_m, frame.depth_gt)
        return frame, sparse, dense, report

    def op(self, k: int, prefix: bool) -> Op:
        def check(result) -> Outcome:
            frame, sparse, dense, report = result
            measured = sparse.depth_m > 0
            zs = sparse.depth_m[measured]
            out = dense.depth_m
            if not np.array_equal(out[measured], zs):
                raise CheckFailed(f"frame {k}: completion changed measured pixels")
            # a weighted mean of measured ranges, so inside their range up to rounding
            lo, hi = zs.min() * (1 - 1e-12), zs.max() * (1 + 1e-12)
            if out.min() < lo or out.max() > hi:
                raise CheckFailed(f"frame {k}: completed depth leaves the measured range")
            if not (math.isfinite(report.mre_pct) and report.n_pixels == out.size):
                raise CheckFailed(f"frame {k}: metrics did not score every pixel")
            if prefix:
                self.pooled[k] = (out, frame.depth_gt)
            return Outcome(array_digest(out), len(sparse.samples))

        return Op(f"frame{k}", lambda: self.frame(k), check)

    def cycle(self, c: int) -> list[Op]:
        frames = [self.op(k, c < self.min_cycles) for k in range(9 * c, 9 * c + 9)]
        return frames + [self.sweep.op()]

    def replay(self) -> list[Op]:
        """Untimed: cycle 0's 30 and 6 fps frames again, whose digests must
        repeat, and complete() against its brute-force oracle on a small frame."""
        return [self.op(k, False) for k in range(9) if FRAME_FPS[k % 3] != 1.0] + [
            Op("oracle", self.oracle_inputs, self.check_oracle)]

    def oracle_inputs(self):
        frame = generate_synthetic(self.spec(0, self.oracle_dims), seed=self.seed).frames[0]
        emap = entropy_map(frame.rgb, ENTROPY_WINDOW_PX)
        pattern = gen_entropy_adaptive(self.model, 6.0, emap.values, sub_seed(self.seed, 0, 2))
        return capture(frame, pattern, self.config, sub_seed(self.seed, 0, 3)), frame.rgb

    def check_oracle(self, inputs) -> Outcome:
        sparse, rgb = inputs
        fast = complete(sparse, rgb, self.params).depth_m
        slow = complete_bruteforce(sparse, rgb, self.params).depth_m
        if not np.allclose(fast, slow, rtol=1e-7, atol=1e-12):
            raise CheckFailed(f"complete differs from complete_bruteforce at {self.oracle_dims}")
        return Outcome(array_digest(fast), 0)

    def quality(self) -> dict[str, float]:
        """Completion quality pooled over the frames of the first min_cycles cycles."""
        if not self.pooled:
            return {}
        keys = sorted(self.pooled)
        pred = np.concatenate([self.pooled[k][0].ravel() for k in keys])
        truth = np.concatenate([self.pooled[k][1].ravel() for k in keys])
        report = compute(pred, truth, (pred > 0) & (truth > 0))
        return {"metrics.mre_pct": report.mre_pct, "metrics.delta1_pct": report.delta1_pct}


# ---------- capture-vga ----------

# the cheapest call first: it is also the untimed warm-up op
CAPTURE_CALLS = (("foveated", 6.0), ("entropy", 6.0), ("foveated", 1.0), ("entropy", 1.0))


class CaptureLoop:
    """On-disk CLI path: scene directory in, sparse PGM/JSON per frame out."""

    name = "capture-vga"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed = seed
        self.workdir = workdir
        self.dims = (80, 60) if smoke else (640, 480)
        self.n_frames = 2
        # 24 calls: rank N-11 lies among the entropy calls, half of each cycle
        self.min_cycles = 1 if smoke else 6
        self.scene = workdir / "scene"
        self.trace_targets = targets(cli, CLI_TRACED)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        w, h = self.dims
        px_m = 2.0 * 1.2 * math.tan(math.radians(FOV_DEG) / 2.0) / w  # box-plane pixel pitch
        spec = {
            "width": w, "height": h, "fov_deg": FOV_DEG, "fps": 30.0,
            "n_frames": self.n_frames, "z_max_m": 3.0,
            "primitives": [
                {"kind": "plane", "z_m": 2.5, "texture": "noise", "noise_texel_m": 0.004,
                 "color": [int(c) for c in rng.integers(200, 256, 3)]},
                {"kind": "box", "z_m": 1.2, "size_xy_m": [0.18, 0.14],
                 "center_xy_m": [float(rng.uniform(-0.15, -0.05)), float(rng.uniform(-0.05, 0.05))],
                 "texture": "noise", "noise_texel_m": 0.006,
                 "color": [int(c) for c in rng.integers(60, 200, 3)],
                 # 20-40 px of travel per frame
                 "velocity_m_s": [float(rng.uniform(20, 40)) * px_m * 30.0, 0.0, 0.0]},
            ],
        }
        path = self.workdir / "scene_spec.json"
        path.write_text(json.dumps(spec))
        rc = quiet_cli(["gen-scene", "--spec-json", str(path), "--seed", str(self.seed),
                        "--out", str(self.scene)])
        if rc != 0:
            raise RuntimeError(f"gen-scene exited with {rc}")

    def op(self, regime: str, fps: float) -> Op:
        key = f"{regime}@{fps:g}fps"
        out = self.workdir / key
        argv = ["capture", "--scene", str(self.scene), "--regime", regime,
                "--fps", f"{fps:g}", "--seed", str(self.seed), "--jobs", "1",
                "--out", str(out)]
        if regime == "foveated":
            argv += ["--roi", "auto-motion"]

        def check(rc) -> Outcome:
            if rc != 0:
                raise CheckFailed(f"{key}: capture exited with {rc}")
            summary = json.loads((out / "capture_summary.json").read_text())
            budget = json.loads((out / "run.json").read_text())["extra"]["budget"]
            if [row["frame"] for row in summary] != list(range(self.n_frames)):
                raise CheckFailed(f"{key}: summary lists frames {[r['frame'] for r in summary]}")
            names = ["capture_summary.json"]
            for row in summary:
                stem = f"{row['frame']:04d}"
                pgm, sjson = out / f"{stem}.pgm", out / f"{stem}.json"
                sparse = load_sparse(pgm, sjson)
                mm = read_pgm16(pgm)
                ys = np.array([s.pixel_y for s in sparse.samples], dtype=np.int64)
                xs = np.array([s.pixel_x for s in sparse.samples], dtype=np.int64)
                rs = np.array([s.range_m for s in sparse.samples])
                if (np.count_nonzero(mm) != len(rs)
                        or not np.array_equal(mm[ys, xs], np.round(rs / 1e-3))):
                    raise CheckFailed(f"{key}: {pgm.name} does not match its sample list")
                if row["n_samples"] != len(rs) or len(rs) + row["drop_count"] != budget:
                    raise CheckFailed(f"{key}: frame {stem} does not account for its budget")
                names += [pgm.name, sjson.name]
            return Outcome(dir_digest(out, names), sum(r["n_samples"] for r in summary))

        return Op(key, lambda: quiet_cli(argv), check)

    def cycle(self, c: int) -> list[Op]:
        return [self.op(regime, fps) for regime, fps in CAPTURE_CALLS]

    def replay(self) -> list[Op]:
        return []  # every cycle repeats the same calls

    def quality(self) -> dict[str, float]:
        return {}


# ---------- design sweep (one op per frame-qqvga cycle) ----------

class OpticsSweep:
    """optics-sweep --find-crossover through cli.main over a seeded design grid.

    The sweep runs inside frame-qqvga rather than as a workload of its own.
    On a shared 2-vCPU VM its pure-Python time drifted by up to 1.6x with host
    load, too much for a steady median of its own; one sweep per cycle still
    measures the optics layer.
    """

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed = seed
        self.out = workdir / "sweep"
        # M, w0, A, u, f values and range count; 3 designs x 4x4x3x2x2 x 60 = 34,560 rows
        self.shape = (1, 1, 1, 1, 1, 8) if smoke else (4, 4, 3, 2, 2, 60)
        self.trace_targets = targets(cli, CLI_TRACED)

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        n_m, n_w0, n_a, n_u, n_f, n_z = self.shape

        def values(lo, hi, n):
            return ",".join(f"{v:.4g}" for v in np.sort(np.geomspace(lo, hi, n)
                                                        * rng.uniform(0.9, 1.0, n)))

        self.argv = [
            "optics-sweep", "--find-crossover", "--design", "all",
            "--M", values(1.2, 100.0, n_m),
            "--w0-mm", values(0.2, 5.0, n_w0),
            "--A-mm", values(20.0, 100.0, n_a),
            "--u-mm", values(5.0, 20.0, n_u),
            "--f-mm", values(25.0, 50.0, n_f),
            "--Z-m", f"{rng.uniform(0.3, 1.0):.4g}:{rng.uniform(500, 1000):.4g}:log{n_z}",
            "--out", str(self.out),
        ]
        self.rows = 3 * math.prod(self.shape)

    def op(self) -> Op:
        def check(rc) -> Outcome:
            if rc != 0:
                raise CheckFailed(f"optics-sweep exited with {rc}")
            lines = (self.out / "sweep.csv").read_text().splitlines()
            if lines[0] != SWEEP_CSV_HEADER or len(lines) != self.rows + 1:
                raise CheckFailed(f"sweep.csv has {len(lines) - 1} rows, expected {self.rows}")
            for x in json.loads((self.out / "crossovers.json").read_text()):
                # log-linear interpolation may land an ulp outside the bracket
                if not x["z_lo_m"] * (1 - 1e-12) <= x["z_star_m"] <= x["z_hi_m"] * (1 + 1e-12):
                    raise CheckFailed(f"crossover {x} lies outside its bracket")
            return Outcome(dir_digest(self.out, ["sweep.csv", "crossovers.json"]), 0)

        return Op("sweep", lambda: quiet_cli(self.argv), check)


WORKLOADS = {w.name: w for w in (FrameLoop, CaptureLoop)}

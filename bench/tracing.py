"""Span tracing of memslidar layers from outside the package.

A traced pass replaces the public functions a workload calls (attributes of
a namespace object, or names bound in ``memslidar.cli``) with wrappers.  Each
call records a span: its name, start, end, parent span and operation id.
Spans stay in memory and are written out once, when the run ends.

Counters are computed from call arguments and results only, so they are
deterministic for a seed.  Counting runs inside its own ``bench.count`` span,
which keeps the cost of counting out of the caller's self time.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import wraps
from pathlib import Path

import numpy as np

# memslidar modules, in pipeline order; "bench" is the benchmark's own code
LAYERS = (
    "scene_io", "scan_engine", "foveation", "lidar_sim",
    "completion", "metrics", "optics", "cli",
)

# per-layer time metric -> the wrapped functions whose spans it sums
NAMED_TIMES = {
    "scene_io.generate_s": ("scene_io.generate_synthetic",),
    "scene_io.load_s": ("scene_io.load_scene",),
    "scene_io.save_s": ("scene_io.save_scene",),
    "scan_engine.pattern_s": (
        "scan_engine.gen_full_fov",
        "scan_engine.gen_entropy_adaptive",
        "scan_engine.gen_foveated",
    ),
    "foveation.entropy_s": ("foveation.entropy_map",),
    "foveation.motion_s": ("foveation.update_and_detect",),
    "lidar_sim.capture_s": ("lidar_sim.capture",),
    "lidar_sim.sparse_io_s": ("lidar_sim.save_sparse",),
    "completion.complete_s": ("completion.complete",),
    "metrics.compute_s": ("metrics.compute",),
    "optics.sweep_s": ("optics.sweep",),
    "optics.csv_s": ("optics.format_sweep_csv",),
    "optics.crossover_s": ("optics.find_crossovers",),
}

COUNT_KEYS = (
    "scene_io.bytes_read",
    "scene_io.bytes_written",
    "scan_engine.samples_scheduled",
    "lidar_sim.samples_valid",
    "lidar_sim.drop_count",
    "lidar_sim.sparse_bytes",
    "completion.pixels_filled",
    "completion.pair_evals",
    "optics.rows",
    "cli.commands",
)

# (unit, better) of every per-layer metric; BENCHMARK.json lists the same names
PER_LAYER_UNITS = {
    **{name: ("s", "lower") for name in NAMED_TIMES},
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{name: ("count", "lower") for name in COUNT_KEYS},
    **{name: ("count", "higher") for name in (
        "lidar_sim.samples_valid", "optics.rows", "cli.commands")},
    "foveation.roi_hit_ratio": ("ratio", "higher"),
    "lidar_sim.valid_ratio": ("ratio", "higher"),
    "metrics.mre_pct": ("%", "lower"),
    "metrics.delta1_pct": ("%", "higher"),
    "bench.wall_s": ("s", "lower"),
    "bench.self_s": ("s", "lower"),
    "bench.trace_overhead_pct": ("%", "lower"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None


def _size(*paths) -> int:
    return sum(os.stat(p).st_size for p in paths)


# ---------- counters: (tracer, bound call arguments, result) ----------

def _count_pattern(t, a, pattern):
    t.add("scan_engine.samples_scheduled", len(pattern))


def _count_foveated(t, a, pattern):
    _count_pattern(t, a, pattern)
    # keep the pattern alive so its id cannot be reused before capture sees it
    t.rois[id(pattern)] = (pattern, a["roi"])


def _count_capture(t, a, sparse):
    n = len(sparse.samples)
    t.add("lidar_sim.samples_valid", n)
    t.add("lidar_sim.drop_count", sparse.drop_count)
    entry = t.rois.pop(id(a["pattern"]), None)
    if entry is not None:
        roi = entry[1]
        t.add("foveation.roi_returns", n)
        t.add("foveation.roi_hits", sum(
            roi.x0 <= s.pixel_x < roi.x1 and roi.y0 <= s.pixel_y < roi.y1
            for s in sparse.samples
        ))


def _count_complete(t, a, dense):
    sparse = a["sparse"]
    filled = int(np.count_nonzero(sparse.depth_m <= 0))
    t.add("completion.pixels_filled", filled)
    t.add("completion.pair_evals", filled * len(sparse.samples))


def _count_save_sparse(t, a, _):
    t.add("lidar_sim.sparse_bytes", _size(a["pgm_path"], a["json_path"]))


def _count_load_scene(t, a, _):
    d = Path(a["directory"])
    files = [d / "meta.json", *d.glob("*.ppm"), *d.glob("*.pgm")]
    t.add("scene_io.bytes_read", _size(*files))


def _count_save_scene(t, a, _):
    d = Path(a["directory"])
    stems = [f"{f.frame_index:04d}" for f in a["seq"].frames]
    files = [d / "meta.json"] + [d / f"{s}{ext}" for s in stems for ext in (".ppm", ".pgm")]
    t.add("scene_io.bytes_written", _size(*files))


COUNTERS = {
    "scan_engine.gen_full_fov": _count_pattern,
    "scan_engine.gen_entropy_adaptive": _count_pattern,
    "scan_engine.gen_foveated": _count_foveated,
    "lidar_sim.capture": _count_capture,
    "completion.complete": _count_complete,
    "lidar_sim.save_sparse": _count_save_sparse,
    "scene_io.load_scene": _count_load_scene,
    "scene_io.save_scene": _count_save_scene,
    "optics.sweep": lambda t, a, rows: t.add("optics.rows", len(rows)),
    "cli.main": lambda t, a, rc: t.add("cli.commands", 1),
}


def targets(owner, attrs) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for each attribute; the span name is
    the defining memslidar module's short name plus the function name."""
    out = []
    for attr in attrs:
        fn = getattr(owner, attr)
        out.append((owner, attr, f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"))
    return out


class Tracer:
    """Spans and counters of one traced run, held in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.counting = True
        self.rois: dict[int, tuple] = {}
        self._stack: list[int] = []

    def add(self, key: str, value: int) -> None:
        self.counts[key] += value

    @contextmanager
    def span(self, name: str, op: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        span = Span(name, 0.0, 0.0, parent, op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        sig = inspect.signature(fn) if count else None

        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None and self.counting:
                with self.span("bench.count"):
                    count(self, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    @contextmanager
    def patched(self, patch_targets):
        """Swap in traced wrappers for the given targets, restoring them on exit."""
        saved = []
        try:
            for owner, attr, name in patch_targets:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
            self.rois.clear()

    # ---------- aggregation ----------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times, named span sums, counts and ratios.

        A span's self time is its duration minus its children's; the
        self times of all layers, "bench" included, add up to the wall
        time of the root spans.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        self_by_layer = dict.fromkeys((*LAYERS, "bench"), 0.0)
        total_by_name: Counter = Counter()
        wall = 0.0
        for s, c in zip(self.spans, child):
            dur = s.end - s.start
            self_by_layer[s.name.split(".", 1)[0]] += dur - c
            total_by_name[s.name] += dur
            if s.parent is None:
                wall += dur
        out = {f"{layer}.self_s": v for layer, v in self_by_layer.items()}
        for metric, names in NAMED_TIMES.items():
            out[metric] = sum(total_by_name[n] for n in names)
        for key in COUNT_KEYS:
            out[key] = self.counts[key]
        scheduled = self.counts["scan_engine.samples_scheduled"]
        out["lidar_sim.valid_ratio"] = (
            self.counts["lidar_sim.samples_valid"] / scheduled if scheduled else 0.0
        )
        returns = self.counts["foveation.roi_returns"]
        out["foveation.roi_hit_ratio"] = (
            self.counts["foveation.roi_hits"] / returns if returns else 0.0
        )
        out["bench.wall_s"] = wall
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")

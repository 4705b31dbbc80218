"""Timed loop, output checks and statistics for one workload run.

Untraced runs give the end-to-end metrics.  A traced run gives the per-layer
metrics: it runs each op twice, once plain and once with the wrappers
installed, alternating which goes first by cycle, so the same work yields
both the layer spans and the tracing overhead.

Counts, digests and quality cover only the first ``min_cycles`` cycles, which
every run completes, so they repeat exactly for a seed; timings cover every
cycle run.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from tracing import PER_LAYER_UNITS, Tracer

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}

TAIL_BEYOND = 10  # the tail percentile keeps this many ops beyond it


@dataclass
class Run:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)    # successful measured ops
    busy_s: float = 0.0                                 # every measured op
    events: int = 0
    cycles: int = 0
    plain_s: float = 0.0       # traced mode: untraced twins of the traced ops
    traced_s: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)
    prefix_keys: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def fingerprint(self) -> str:
        """One digest over the outputs of the first min_cycles cycles."""
        h = hashlib.sha256()
        for key in self.prefix_keys:
            h.update(f"{key}={self.digests.get(key, 'missing')}\n".encode())
        return h.hexdigest()


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values
    beyond it; the maximum when there are too few values for that."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n


def attempt(run: Run, workload, op, tracer: Tracer | None) -> tuple[float, int | None]:
    """Run, time and check one op; returns (duration, events), events None on failure."""
    run.attempted += 1
    result, start = None, time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
            end = time.perf_counter()
        else:
            with tracer.patched(workload.trace_targets), \
                    tracer.span("bench.op", op.key) as span:
                result = op.run()
            start, end = span.start, span.end
    except Exception:  # an op that raises is a failed op; the loop goes on
        run.fail(f"{op.key}: {traceback.format_exc().strip().splitlines()[-1]}")
        return time.perf_counter() - start, None
    try:
        outcome = op.check(result)
    except Exception as exc:  # a broken output is a failed op, whatever raised
        run.fail(f"{op.key}: {type(exc).__name__}: {exc}")
        return end - start, None
    if run.digests.setdefault(op.key, outcome.digest) != outcome.digest:
        run.fail(f"{op.key}: output digest differs from an earlier run of the same inputs")
        return end - start, None
    return end - start, outcome.events


def measure(workload, seconds: float, tracer: Tracer | None) -> Run:
    """Whole cycles until `seconds` of measured op time and min_cycles are reached."""
    run = Run()
    if tracer is None:
        workload.setup()
    else:
        with tracer.patched(workload.trace_targets), tracer.span("bench.setup", "setup"):
            workload.setup()
    # warm-up, untimed: keeps first-call costs (lazy imports, allocator growth)
    # out of the first measured op, and registers a digest the loop must repeat
    attempt(run, workload, workload.cycle(0)[0], None)
    while run.cycles < workload.min_cycles or run.busy_s < seconds:
        prefix = run.cycles < workload.min_cycles
        if tracer is not None:
            tracer.counting = prefix
        for op in workload.cycle(run.cycles):
            if prefix and op.key not in run.prefix_keys:
                run.prefix_keys.append(op.key)
            if tracer is None:
                dt, events = attempt(run, workload, op, None)
                run.busy_s += dt
                if events is not None:
                    run.op_s.append(dt)
                    run.events += events
                continue
            plain_first = run.cycles % 2 == 0
            first = attempt(run, workload, op, None if plain_first else tracer)
            second = attempt(run, workload, op, tracer if plain_first else None)
            (plain_dt, plain_events), (traced_dt, traced_events) = (
                (first, second) if plain_first else (second, first))
            run.busy_s += traced_dt
            if traced_events is not None:
                run.op_s.append(traced_dt)
                run.events += traced_events
            if plain_events is not None and traced_events is not None:
                run.plain_s += plain_dt
                run.traced_s += traced_dt
        run.cycles += 1
    # untimed: equal inputs again, and the workload's own oracles
    for op in workload.replay():
        attempt(run, workload, op, None)
    return run


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(run: Run, setup_s: list[float]) -> dict[str, float]:
    ok = run.op_s or [0.0]  # every op failed: correct is false, keep the JSON strict
    return {
        "setup_s": statistics.median(setup_s),
        "op_ms_p50": 1e3 * statistics.median(ok),
        "op_ms_tail": 1e3 * tail(ok)[0],
        "ops_per_s": len(run.op_s) / run.busy_s,
        "events_per_s": run.events / run.busy_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(run: Run, tracer: Tracer, quality: dict[str, float]) -> dict[str, float]:
    out = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    out.update(tracer.layer_metrics())
    out.update(quality)
    if run.plain_s > 0:
        out["bench.trace_overhead_pct"] = 100.0 * (run.traced_s - run.plain_s) / run.plain_s
    return out

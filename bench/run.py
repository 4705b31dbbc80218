"""memslidar benchmark launcher.

    python3 bench/run.py --workload frame-qqvga --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all             # every workload, one table
    python3 bench/run.py --workload all --smoke     # tiny sizes, untraced and traced

Workloads: frame-qqvga and capture-vga (see bench/README.md).  The
package is imported from the ``src`` directory beside this one, never from
site-packages.  The last line on stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import os
import sys

# Pin BLAS/OpenMP pools before numpy is imported.  Every workload is one
# single-threaded closed loop (--jobs 1); idle pools would only add noise.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("frame-qqvga", "capture-vga")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 900


def import_package():
    """Import memslidar from this checkout's src/, or exit nonzero without a result."""
    if not (SRC / "memslidar" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'memslidar'} not found; run from a memslidar checkout")
    sys.path.insert(0, str(SRC))
    import memslidar

    if SRC not in Path(memslidar.__file__).resolve().parents:
        sys.exit(f"error: memslidar imported from {memslidar.__file__}, not {SRC}")
    return memslidar


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"  # not a git checkout


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": git_rev(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def timed_setups(args, workdir: Path) -> list[float]:
    """Wall time of fresh processes that import and build the inputs, then exit."""
    times = []
    for i in range(1 if args.smoke else SETUP_REPEATS):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(workdir / f"setup{i}")]
        if args.smoke:
            cmd.append("--smoke")
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return times


def print_table(rows) -> None:
    for name, value, unit, note in rows:
        print(f"  {name:30s} {value:14.6g} {unit:6s} {note}")


def run_one(args) -> int:
    import_package()
    import harness
    from tracing import LAYERS, PER_LAYER_UNITS, Tracer
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    if args.setup_only:
        workdir = Path(args.setup_only)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
        if args.setup_only:
            workload.setup()
            return 0
        setup_s = [] if args.trace else timed_setups(args, workdir)
        tracer = Tracer() if args.trace else None
        seconds = 0.0 if args.smoke else args.seconds
        run = harness.measure(workload, seconds, tracer)
        quality = workload.quality()
        env = environment()
        print("env: " + json.dumps(env, sort_keys=True))
        print(f"{args.workload} seed {args.seed} trace {args.trace}: {run.attempted} ops "
              f"attempted, {run.failed} failed (failed_frac {run.failed / run.attempted:.4g}), "
              f"{run.cycles} cycles, {run.busy_s:.3f} s measured")
        print(f"  outputs of the first {workload.min_cycles} cycles: sha256 {run.fingerprint()}")
        for name, value in quality.items():
            print(f"  {name} = {value!r} (pooled over the first {workload.min_cycles} cycles)")
        if tracer is None:
            metrics = harness.end_to_end(run, setup_s)
            units = harness.END_TO_END_UNITS
            _, pct = harness.tail(run.op_s) if run.op_s else (0.0, 0.0)
            notes = {
                "setup_s": f"median of {len(setup_s)} fresh-process set-ups",
                "op_ms_tail": f"p{pct:.1f} of {len(run.op_s)} ops",
            }
        else:
            metrics = harness.per_layer(run, tracer, quality)
            units = {k: u for k, (u, _) in PER_LAYER_UNITS.items()}
            wall = metrics["bench.wall_s"]
            notes = {f"{layer}.self_s": f"{100 * metrics[f'{layer}.self_s'] / wall:5.1f}% of wall"
                     for layer in (*LAYERS, "bench")}
            notes["bench.self_s"] += " (benchmark code inside the traced wall)"
            notes["bench.wall_s"] = "= the layers' self_s + bench.self_s"
            tracer.write(WORK / f"{args.workload}-seed{args.seed}-spans.jsonl")
        print_table((name, metrics[name], units[name], notes.get(name, ""))
                    for name in units)
        result = {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "env": env, "cycles": run.cycles, "fingerprint": run.fingerprint(),
                  "digests": run.digests, "failures": run.failures, "quality": quality,
                  "setup_s": setup_s, "op_s": run.op_s, **result}
        (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(json.dumps(result))
        return 0
    finally:
        if not args.setup_only:
            shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process; prints every metric by name and unit."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    traces = (0, 1) if args.smoke else (args.trace,)
    for name in WORKLOAD_NAMES:
        for trace in traces:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"error: {name} (trace {trace}) exited {proc.returncode} without a result",
                      file=sys.stderr)
                return 1
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = entry
    print("\n  " + "metric".ljust(32) + "".join(f"{w:>14s}" for w in WORKLOAD_NAMES))
    first = WORKLOAD_NAMES[0] + "."
    for metric in (m[len(first):] for m in combined["metrics"] if m.startswith(first)):
        entries = [combined["metrics"][f"{w}.{metric}"] for w in WORKLOAD_NAMES]
        print(f"  {metric:32s}" + "".join(f"{e['value']:14.6g}" for e in entries)
              + f"  {entries[0]['unit']}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0, help="input generation seed")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measured op time per run (whole cycles, at least min_cycles)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer run with spans instead of end-to-end metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one cycle, to check the harness in seconds")
    parser.add_argument("--setup-only", metavar="DIR", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

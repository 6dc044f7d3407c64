"""Benchmark of loweig's public API: one workload per process.

    python3 perfbench/run.py --workload feigh-tall --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports loweig from its ``src``
directory. With ``--trace 0`` it times each operation with nothing wrapped
and prints the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced operations and prints the per-layer metrics (see README.md). The
last line of standard output is one JSON object; the lines before it are the
same figures for reading. Exits non-zero, printing no result, when loweig
cannot be imported from the checkout.
"""

import os

# Single-threaded BLAS: set before numpy loads, overriding the caller's
# environment, so every run uses the same pool size.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from checks import CheckError
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# Set-up is timed in this process and in SETUP_PROBES fresh child processes;
# setup_s is the median.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
TRACE_SPAN_OPS = 3  # traced operations whose raw spans are written out
# The shared host's speed drifts by up to ~40% over seconds; every operation
# is bracketed by a fixed pure-Python float loop and its wall time rescaled
# to the speed at which that loop takes REF_CAL_S (see README.md).
CAL_LOOPS = 80_000
REF_CAL_S = 0.0035

END_TO_END = {"op_p50_scaled_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "kernels.symmetric_eig.self_ms": "ms",
    "kernels.symmetric_eig.calls": "count",
    "kernels.symmetric_eig.dim": "count",
    "kernels.thin_svd.self_ms": "ms",
    "kernels.thin_svd.calls": "count",
    "kernels.orthonormal_residual.self_ms": "ms",
    "kernels.orthonormal_residual.calls": "count",
    "fast_eigh.augment.self_ms": "ms",
    "fast_eigh.augment.calls": "count",
    "fast_eigh.factor_to_eig.self_ms": "ms",
    "fast_eigh.fast_eigh.self_ms": "ms",
    "fast_eigh.validate.self_ms": "ms",
    "fast_eigh.validate.calls": "count",
    "fast_eigh.mflop": "Mflop",
    "fast_eigh.mb_moved": "MB",
    "truncation.truncate.self_ms": "ms",
    "truncation.truncate.calls": "count",
    "learner.update.self_ms": "ms",
    "learner.distance.self_us": "us",
    "learner.floored_per_step": "count",
    "learner.rank": "count",
    "trace.untraced_p50_scaled_ms": "ms",
    "trace.traced_p50_scaled_ms": "ms",
    "trace.overhead_scaled_ms": "ms",
    "process.threads": "count",
}


def import_loweig():
    """Imports loweig from the checkout's ``src``, never from elsewhere."""
    if not (SRC / "loweig" / "__init__.py").is_file():
        raise SystemExit(f"error: no loweig sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import loweig

    if not Path(loweig.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: loweig was imported from {loweig.__file__}, not {SRC}")
    return loweig


def calibration_s() -> float:
    """Seconds a fixed pure-Python float loop takes now: the host's current
    speed. Of the loops tried, it tracked the slowdowns of all four workloads
    most evenly (README.md)."""
    t0 = time.perf_counter()
    x = 0.5
    for _ in range(CAL_LOOPS):
        x = x * 0.9999 + 0.0001
    return time.perf_counter() - t0


def rng_for(seed: int, workload: str):
    return np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])


def set_up(workload: str, seed: int):
    """Imports loweig and runs the workload's set-up. Returns the module, the
    workload, the generator positioned after set-up, and the seconds spent
    from just before the import to the end of set-up, input generation and
    checks excluded: raw, and rescaled to the reference speed."""
    wl = WORKLOADS[workload]()
    rng = rng_for(seed, workload)
    cal = calibration_s()
    t0 = time.perf_counter()
    lw = import_loweig()
    elapsed = time.perf_counter() - t0 + wl.setup(lw, rng)
    cal += calibration_s()
    return lw, wl, rng, elapsed, elapsed * 2.0 * REF_CAL_S / cal


def probe_setups(workload: str, seed: int) -> list[tuple[float, float]]:
    """(raw, rescaled) set-up seconds measured in fresh processes, one after
    another."""
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        raw, scaled = done.stdout.split()[-2:]
        times.append((float(raw), float(scaled)))
    return times


def threads_in_process() -> int:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    import threading

    return threading.active_count()


def measure(lw, wl, rng, seconds: float, tracer: Tracer | None):
    """Closed loop for ``seconds``. Without a tracer every operation is timed
    plainly; with one, operations alternate untraced/traced in rounds of two.
    Returns (untraced wall times, the same rescaled to the reference speed,
    rescaled traced times, per-op layer totals, failed, whether every check
    passed)."""
    plain, scaled, traced, layers, failed, correct = [], [], [], [], 0, True
    round_size = 2 if tracer else 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for slot in range(round_size):
            inp = wl.make_input(rng)
            trace_this = slot == 1
            if trace_this:
                tracer.install()
                tracer.start_op()
            cal = calibration_s()
            t0 = time.perf_counter()
            try:
                out = wl.run(lw, inp)
            except Exception:  # counted, reported, and the loop goes on
                traceback.print_exc()
                failed += 1
                continue
            finally:
                elapsed = time.perf_counter() - t0
                if trace_this:
                    tracer.uninstall()
            rescaled = elapsed * 2.0 * REF_CAL_S / (cal + calibration_s())
            if trace_this:
                traced.append(rescaled)
                totals = tracer.finish_op()
                if len(layers) < TRACE_SPAN_OPS:
                    totals["spans"] = list(tracer.spans)
                layers.append(totals)
            else:
                plain.append(elapsed)
                scaled.append(rescaled)
            try:
                wl.check(inp, out)
            except CheckError as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                correct = False
            if trace_this:
                layers[-1].update(wl.layer_counts())
    return plain, scaled, traced, layers, failed, correct


def layer_metrics(layers, scaled, traced, threads) -> dict:
    """Each per-layer metric: the median over traced operations of its
    per-operation total (per point for ``learner.distance``)."""

    def median_over_ops(key, scale=1.0):
        return statistics.median(op.get(key, 0.0) for op in layers) * scale

    per_point = [op["learner.distance.self_s"] / op["learner.distance.calls"]
                 for op in layers if op.get("learner.distance.calls")]
    untraced_ms = statistics.median(scaled) * 1e3
    traced_ms = statistics.median(traced) * 1e3
    values = {
        "learner.distance.self_us": statistics.median(per_point) * 1e6 if per_point else 0.0,
        "trace.untraced_p50_scaled_ms": untraced_ms,
        "trace.traced_p50_scaled_ms": traced_ms,
        "trace.overhead_scaled_ms": traced_ms - untraced_ms,
        "process.threads": threads,
    }
    for name in PER_LAYER:
        if name.endswith(".self_ms"):
            values[name] = median_over_ops(name[: -len("ms")] + "s", 1e3)
        elif name not in values:
            values[name] = median_over_ops(name)
    return values


def write_trace(workload, seed, layers, values):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-{seed}.json"
    spans = [
        [{"name": n, "parent": p, "start_s": s, "end_s": e, "self_s": x} for n, p, s, e, x in op["spans"]]
        for op in layers if "spans" in op
    ]
    path.write_text(json.dumps({"workload": workload, "seed": seed, "metrics": values,
                                "first_ops_spans": spans}, indent=1))
    return path


def quantile_ms(times, q):
    return float(np.quantile(times, q)) * 1e3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    lw, wl, rng, setup_raw, setup_scaled = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_raw), repr(setup_scaled))
        return 0
    setups = [(setup_raw, setup_scaled)] + probe_setups(args.workload, args.seed)
    setup_s = statistics.median(scaled for _, scaled in setups)

    tracer = Tracer() if args.trace else None
    plain, scaled, traced, layers, failed, correct = measure(lw, wl, rng, args.seconds, tracer)
    attempted = len(plain) + len(traced) + failed
    threads = threads_in_process()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {args.workload}  seed {args.seed}  threads {threads}  numpy {np.__version__}")
    print(f"setup scaled median {setup_s:.4f} s  (raw, scaled: "
          f"{', '.join(f'{raw:.4f} {scaled:.4f}' for raw, scaled in setups)})")
    print(f"op wall p50 {quantile_ms(plain, 0.5):.3f} ms  p90 {quantile_ms(plain, 0.9):.3f} ms  "
          f"scaled p50 {quantile_ms(scaled, 0.5):.3f} ms  p90 {quantile_ms(scaled, 0.9):.3f} ms  n {len(plain)}")
    if args.workload == "learner-score":
        print(f"score_pts_per_s {wl.points / statistics.median(plain):.1f}")
    if args.trace:
        values = layer_metrics(layers, scaled, traced, threads)
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
        for name, metric in metrics.items():
            print(f"{name} {metric['value']:.6g} {metric['unit']}")
        print(f"trace file {write_trace(args.workload, args.seed, layers, values)}")
    else:
        values = {"op_p50_scaled_ms": statistics.median(scaled) * 1e3,
                  "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

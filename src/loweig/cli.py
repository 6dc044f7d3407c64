"""Command line front end: timing grids with their scaling fit, and the learner demo."""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .bench import (
    ALGORITHMS,
    BenchConfig,
    _grouped_seconds,
    demo_learner,
    fit_scaling,
    normalized_flatness,
    run_grid,
)


def parse_m_grid(text: str) -> tuple[int, ...]:
    """``start:stop:xF`` geometric grids or comma-separated row counts."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or not parts[2].startswith("x"):
            raise ValueError(f"bad grid {text!r}; expected START:STOP:xFACTOR")
        start, stop = int(parts[0]), int(parts[1])
        factor = float(parts[2][1:])
        if start < 1 or stop < start or not 1.0 < factor < math.inf:
            raise ValueError(f"bad grid bounds in {text!r}")
        grid = []
        m = start
        while m <= stop:
            grid.append(m)
            m = max(int(round(m * factor)), m + 1)
        return tuple(grid)
    return tuple(int(tok) for tok in text.split(","))


def _cmd_run(args) -> int:
    cfg = BenchConfig(
        m_grid=parse_m_grid(args.m_grid),
        n=args.n,
        nx=args.nx,
        ny=args.ny,
        repeats=args.repeats,
        seed=args.seed,
        algorithms=tuple(args.algorithms.split(",")),
    )
    records = run_grid(cfg)
    for (algorithm, m), seconds in sorted(_grouped_seconds(records).items()):
        q10, med, q90 = np.quantile(seconds, [0.1, 0.5, 0.9])
        print(
            f"{algorithm} m={m}: median {med:.4g} s, q10 {q10:.4g} s, "
            f"q90 {q90:.4g} s over {len(seconds)} repeats"
        )
    if len(cfg.m_grid) >= 4:
        slopes = fit_scaling(records)
        ratios = normalized_flatness(records)
        for algorithm in sorted(slopes):
            print(
                f"{algorithm}: log-log slope {slopes[algorithm]:.3f}, "
                f"normalized last/first ratio {ratios[algorithm]:.3f}"
            )
    return 0


def _cmd_demo(args) -> int:
    report = demo_learner(
        m=args.m,
        rank_cap=args.rank_cap,
        iters=args.iters,
        seed=args.seed,
        decay=args.decay,
        gain=args.gain,
    )
    for it in report["iterations"]:
        print(
            f"iter {it['step']:3d}: regular distance {it['regular_distance']:.4g}, "
            f"irregular distance {it['irregular_distance']:.4g}"
        )
    if report["accuracy"] is not None:
        print(f"threshold {report['threshold']:.4g}, accuracy {report['accuracy']:.3f}")
    else:
        print(json.dumps(report["model"], indent=2))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"report written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Timing and demo harness for the low-rank eigendecomposition library.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="time a grid of decompositions and print its quantiles and scaling fit",
        description=(
            "Time a grid of decompositions and print its quantiles and scaling "
            "fit. The BLAS thread pool is sized when numpy loads, so single-threaded "
            "timings need OPENBLAS_NUM_THREADS=1 (OMP_NUM_THREADS=1 or "
            "MKL_NUM_THREADS=1 for other BLAS builds) set in the environment "
            "before launch."
        ),
    )
    run.add_argument("--m-grid", default="1024:262144:x2",
                     help="row counts: 'a,b,c' or 'START:STOP:xFACTOR'")
    run.add_argument("--n", type=int, default=1, help="base factor rank")
    run.add_argument("--nx", type=int, default=1, help="positive block rank")
    run.add_argument("--ny", type=int, default=1, help="negative block rank")
    run.add_argument("--repeats", type=int, default=11)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--algorithms", default="feigh,svd",
                     help=f"comma list from {','.join(ALGORITHMS)}")
    run.set_defaults(func=_cmd_run)

    demo = sub.add_parser("demo-learner", help="train the metric learner on synthetic clusters")
    demo.add_argument("--m", type=int, default=128)
    demo.add_argument("--rank-cap", type=int, default=8)
    demo.add_argument("--iters", type=int, default=20)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--decay", type=float, default=0.9)
    demo.add_argument("--gain", type=float, default=0.25)
    demo.add_argument("--out", default=None, help="JSON report path")
    demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

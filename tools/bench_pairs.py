"""Alternating benchmark pairs between two source trees, summarized as one JSON file.

    python tools/bench_pairs.py --parent PARENT_TREE --child CHILD_TREE --label NAME \
        [--pairs 10] [--seconds 25] [--seed 101] [--workloads learner-update,...]

Each tree is the root of a checkout holding ``perfbench/run.py`` and ``src``.
For every workload, pair i runs ``perfbench/run.py --trace 0`` once from each
tree with seed ``--seed + i``, the parent first in even pairs and the child
first in odd ones, one process at a time. ``BENCH_<label>.json`` (in
``--out``, the current directory by default) records each run's final JSON
line, the numpy version and BLAS of the interpreter that ran them, the BLAS
thread pins, nproc, and per workload and end-to-end metric: each side's
median, quartiles and 10%/90% quantiles, and the count of pairs the child
won (lower is better for every end-to-end metric; ties count for neither).
Exits non-zero if a run fails or prints no JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("feigh-tall", "feigh-wide", "learner-update", "learner-score")
# perfbench/run.py sets these to 1 itself; they are set here too, so the
# record states the pins every run had
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The final JSON line of one benchmark run from ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, **PINS, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stderr}")
    return json.loads(lines[-1])


def commit(tree: Path) -> str | None:
    done = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def side_summary(values: list[float]) -> dict:
    q = np.quantile(values, [0.1, 0.25, 0.5, 0.75, 0.9])
    return dict(zip(("p10", "q25", "median", "q75", "p90"), map(float, q)))


def summarize(runs: list[dict]) -> dict:
    """Per end-to-end metric: both sides' quantiles and the child's wins."""
    names = runs[0]["parent"]["metrics"].keys()
    out = {}
    for name in names:
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        child = [r["child"]["metrics"][name]["value"] for r in runs]
        out[name] = {
            "unit": runs[0]["parent"]["metrics"][name]["unit"],
            "parent": side_summary(parent),
            "child": side_summary(child),
            "child_wins": sum(c < p for p, c in zip(parent, child)),
            "pairs": len(runs),
        }
    return out


def blas_info() -> object:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy builds without the dict mode
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--child", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", type=Path, default=Path("."))
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "child": args.child.resolve()}
    record = {
        "label": args.label,
        "commits": {side: commit(tree) for side, tree in trees.items()},
        "numpy": np.__version__,
        "blas": blas_info(),
        "thread_pins": PINS,
        "nproc": os.cpu_count(),
        "pairs": args.pairs,
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "child") if i % 2 == 0 else ("child", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, args.seconds)
                print(f"{workload} pair {i} {side}: {json.dumps(pair[side])}", flush=True)
            runs.append(pair)
        record["workloads"][workload] = {"runs": runs, "summary": summarize(runs)}
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

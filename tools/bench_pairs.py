"""Alternating benchmark pairs between two source trees, summarized as one JSON file.

    python tools/bench_pairs.py --parent PARENT_TREE --child CHILD_TREE --label NAME \
        [--pairs 10] [--seconds 25] [--seed 101] [--workloads learner-update,...]

Each tree is the root of a checkout holding ``perfbench/run.py`` and ``src``.
For every workload, pair i runs ``perfbench/run.py --trace 0`` once from each
tree with seed ``--seed + i``, the parent first in even pairs and the child
first in odd ones, one process at a time. ``BENCH_<label>.json`` (in
``--out``, the current directory by default) records each run's final JSON
line, each tree's commit (None outside a checkout) and the SHA-256 of the
code it ran (``src_sha256``: each ``src/loweig/*.py`` in sorted order, its
path relative to the tree, a NUL byte, then its bytes), the numpy version
and BLAS of the interpreter that ran them, the BLAS thread pins, nproc,
and per workload and end-to-end metric: each side's
median, quartiles and 10%/90% quantiles, the count of pairs the child won
(lower is better for every end-to-end metric; ties count for neither), the
child/parent median ratio, the parent's interquartile spread relative to
its median, the metric's bound as the child tree's ``BENCHMARK.json``
states it (a share of the parent's median), and a verdict, the first of:

- ``worse``: the child's median exceeds the parent's by more than the bound;
- ``unresolved``: the parent's spread exceeds the bound, so the runs cannot
  tell a change within the bound from noise;
- ``gain``: the child won at least 9 in 10 of the pairs, and its median is
  below the parent's by more than the parent's interquartile range;
- ``same``: none of these.

A metric without a bound is judged by the last two rules only.
Exits non-zero if a run fails or prints no JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
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


def src_sha256(tree: Path) -> str:
    """The module docstring's digest of the library code in ``tree``."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "loweig").glob("*.py")):
        digest.update(path.relative_to(tree).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def side_summary(values: list[float]) -> dict:
    q = np.quantile(values, [0.1, 0.25, 0.5, 0.75, 0.9])
    return dict(zip(("p10", "q25", "median", "q75", "p90"), map(float, q)))


def verdict(parent: dict, child: dict, wins: int, pairs: int, bound: float | None) -> str:
    """The module docstring's verdict on one metric, lower being better."""
    iqr = parent["q75"] - parent["q25"]
    if bound is not None and child["median"] > parent["median"] * (1.0 + bound):
        return "worse"
    if bound is not None and iqr > bound * parent["median"]:
        return "unresolved"
    if 10 * wins >= 9 * pairs and parent["median"] - child["median"] > iqr:
        return "gain"
    return "same"


def summarize(runs: list[dict], bounds: dict) -> dict:
    """Per end-to-end metric: both sides' quantiles, the child's wins, the
    median ratio, the parent's relative spread, the bound and the verdict."""
    names = runs[0]["parent"]["metrics"].keys()
    out = {}
    for name in names:
        parent = side_summary([r["parent"]["metrics"][name]["value"] for r in runs])
        child = side_summary([r["child"]["metrics"][name]["value"] for r in runs])
        wins = sum(r["child"]["metrics"][name]["value"] < r["parent"]["metrics"][name]["value"]
                   for r in runs)
        out[name] = {
            "unit": runs[0]["parent"]["metrics"][name]["unit"],
            "parent": parent,
            "child": child,
            "child_wins": wins,
            "pairs": len(runs),
            "ratio": child["median"] / parent["median"],
            "parent_spread": (parent["q75"] - parent["q25"]) / parent["median"],
            "bound": bounds.get(name),
            "verdict": verdict(parent, child, wins, len(runs), bounds.get(name)),
        }
    return out


def read_bounds(tree: Path) -> dict:
    """Each end-to-end metric's bound in the tree's ``BENCHMARK.json``."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


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
    bounds = read_bounds(trees["child"])
    record = {
        "label": args.label,
        "commits": {side: commit(tree) for side, tree in trees.items()},
        "src_sha256": {side: src_sha256(tree) for side, tree in trees.items()},
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
        record["workloads"][workload] = {"runs": runs, "summary": summarize(runs, bounds)}
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

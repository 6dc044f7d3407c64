"""Same-results digests: one SHA-256 per named set of library results.

    PYTHONPATH=TREE/src python tools/same_results.py record OUT.json
    python tools/same_results.py compare A.json B.json

``record`` imports loweig from the path it is given, runs every set below
and writes each set's digest and item count to OUT.json. ``compare`` names
each set of two such files as equal or different, and exits non-zero
unless every set is equal. A refactor that claims the same results records
its parent and itself and compares them; a change that moves some results
on purpose names the sets it moves.

Sets, every input drawn from generators with fixed seeds:

- ``feigh-bench``: ``fast_eigh`` at the benchmark's shapes, inputs drawn as
  ``perfbench/workloads.py``'s ``Feigh.make_input`` draws them: 6 at
  (m; n, nx, ny) = (2^18; 2, 2, 2), 30 at (4096; 32, 16, 16) and 30 at
  (4096; 32, 4, 4), from generators seeded 1, 2 and 3.
- ``feigh-edge``: 8 ``fast_eigh`` inputs at (64; 8, 3, 3), two each of data
  scaled by 1e+150 and by 1e-150 (B and alpha by its square), exact
  cancellation ``X == Y``, and Z near span(Q); the last two take the
  two-pass route.
- ``learner-stream``: 400 ``update`` steps on each of seeds 1 and 2 of the
  benchmark's learner stream (m = 4096, rank cap 32, decay 0.9, gain 0.25,
  4 + 4 points per batch), from the identity: every step's ``UpdateStats``,
  and ``eigen`` every 7th step.
- ``learner-scores``: ``distance`` of 8 fixed probes (4 stream points and 4
  standard Gaussians) on every 3rd of the first 150 snapshots of the
  learner stream of seed 3, deferred and compacted snapshots alike, each
  with its ``compacted`` flag.
- ``stream-two-pass``, ``stream-scaled``, ``stream-dense`` and
  ``stream-mixed``: 150 steps each off the in-band Gram route, with
  ``eigen`` every 3rd step. Cancelling batches the Gram route declines; a
  stream at data scale 1e+100 that mixes batches of that scale, which the
  Gram route scales, with batches of scale 1e+68, which it does not, so
  that scaled steps also land on deferred snapshots; batches that outgrow
  m, for the dense path; and a seeded mix of in-band Gram-route,
  cancelling, dense and empty batches.
- ``augment``: ``(Qc, Bc)`` of ``augment`` on 12 inputs at (64; 8, 4) and
  (500; 3, 6), with per-column signs, both scalar signs and, on a third
  of them, a column repeated so that the two-pass route drops a direction.
- ``factor_to_eig``: ``(alpha, E, D)`` at (4096; 32), (500; 8) and (64;
  64), 4 inputs each.
- ``svd_route``: ``(alpha, E, D)`` at (4096; 8) and (64; 10), 4 inputs
  each, half of them with a column repeated, which the rank cut drops.
- ``dense_fallback``: ``(alpha, E, D)`` at (24; 8, 10, 10) and (12; 4, 6,
  6), 4 inputs each, where the combined rank outgrows m.

A digest covers every array's shape and bytes, every float's bits and every
other value's repr, in order. Run as a script, it pins BLAS to one thread
before numpy loads, since BLAS rounding may depend on the thread count.
"""

from __future__ import annotations

import os

if __name__ == "__main__":  # before numpy loads; an import leaves the environment alone
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import hashlib
import json
import struct
import sys

import numpy as np


def feed(digest, value) -> None:
    """Add ``value`` to ``digest``: arrays by shape and bytes, floats by their
    bits, sequences item by item, anything else by its repr."""
    if isinstance(value, np.ndarray):
        digest.update(f"A{value.shape}".encode() + np.ascontiguousarray(value, float).tobytes())
    elif isinstance(value, float):
        digest.update(b"F" + struct.pack("<d", value))
    elif isinstance(value, (tuple, list)):
        digest.update(f"L{len(value)}".encode())
        for item in value:
            feed(digest, item)
    else:
        digest.update(f"R{value!r}\0".encode())


def orthonormal(rng, m, n):
    return np.linalg.qr(rng.standard_normal((m, n)))[0]


def feigh_bench(lw):
    """``(alpha, E, D)`` of ``fast_eigh`` on the benchmark's input draws."""
    for seed, (m, n, nx, ny), count in ((1, (2**18, 2, 2, 2), 6), (2, (4096, 32, 16, 16), 30),
                                        (3, (4096, 32, 4, 4), 30)):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            q = orthonormal(rng, m, n)
            g = rng.standard_normal((n, n))
            b = (g + g.T) / 2.0
            x, y = rng.standard_normal((m, nx)), rng.standard_normal((m, ny))
            ef = lw.fast_eigh(1.0, lw.LowRankFactor(1.0, q, b), lw.WeightedData(x, y))
            yield ef.alpha, ef.E, ef.D


def feigh_edge(lw):
    """``(alpha, E, D)`` of ``fast_eigh`` at extreme scales and off its Gram route."""
    m, n, nx, ny = 64, 8, 3, 3
    for case in ("1e150", "1e-150", "cancel", "near-span"):
        for seed in range(2):
            rng = np.random.default_rng([seed, len(case)])
            q = orthonormal(rng, m, n)
            g = rng.standard_normal((n, n))
            b = (g + g.T) / 2.0
            eps = 1e-6 if case == "near-span" else 1.0
            z = q @ rng.standard_normal((n, nx + ny)) + eps * rng.standard_normal((m, nx + ny))
            x, y = z[:, :nx], z[:, nx:]
            if case == "cancel":
                y = x.copy()
            s = float(case) if case[0] == "1" else 1.0
            ef = lw.fast_eigh(s * s, lw.LowRankFactor(s * s, q, b * (s * s)),
                              lw.WeightedData(x * s, y * s))
            yield ef.alpha, ef.E, ef.D


def stream(lw, model, cfg, batches, every):
    """Each step's stats, and ``eigen`` every ``every``-th step."""
    for i, (vectors, weights) in enumerate(batches, 1):
        model = lw.update(model, lw.LabeledBatch(vectors, weights), cfg)
        stats = model.stats
        yield [getattr(stats, name) for name in stats._fields]
        if i % every == 0:
            ef = model.eigen
            yield ef.alpha, ef.E, ef.D


def learner_batches(seed, steps):
    """``(draw, batches)`` of the benchmark's learner stream, as
    ``perfbench/workloads.py`` draws it: ``draw(count, i)`` draws count
    points along the regular (0) or irregular (1) direction."""
    m, per_class = 4096, 4
    rng = np.random.default_rng(seed)
    directions = orthonormal(rng, m, 2).T

    def draw(count, i):
        signal = rng.uniform(0.7, 2.7, count) * rng.choice((-1.0, 1.0), count)
        return signal[:, None] * directions[i] + 0.1 * rng.standard_normal((count, m))

    def batches():
        for _ in range(steps):
            yield (np.vstack([draw(per_class, 0), draw(per_class, 1)]),
                   np.concatenate([np.ones(per_class), -np.ones(per_class)]))

    return draw, batches()


def learner_config(lw):
    return lw.UpdateConfig(decay=0.9, gain=0.25, rank_cap=32)


def learner_stream(lw):
    """400 steps of the benchmark's learner stream on each of two seeds."""
    for seed in (1, 2):
        _, batches = learner_batches(seed, 400)
        yield from stream(lw, lw.MetricModel.identity(4096, 1.0), learner_config(lw), batches, 7)


def learner_scores(lw):
    """``distance`` of fixed probes on snapshots of the learner stream."""
    draw, batches = learner_batches(3, 150)
    probes = [*draw(2, 0), *draw(2, 1), *np.random.default_rng(4).standard_normal((4, 4096))]
    model, cfg = lw.MetricModel.identity(4096, 1.0), learner_config(lw)
    for i, (vectors, weights) in enumerate(batches, 1):
        model = lw.update(model, lw.LabeledBatch(vectors, weights), cfg)
        if i % 3 == 0:
            yield [model.stats.compacted, *(lw.distance(model, x) for x in probes)]


def off_route(kind):
    """A 150-step stream of the named kind, as ``(m, alpha, cfg args, batches)``."""
    m, rng = (12 if kind == "dense" else 40), np.random.default_rng(len(kind))
    scale = 1e100 if kind == "scaled" else 1.0

    def batch(kind):
        if kind == "gram":
            return rng.standard_normal((3, m)), rng.choice((-1.0, 1.0), 3)
        if kind == "two-pass":  # a vector added and taken away again
            v = rng.standard_normal((2, m))
            return v[[0, 1, 0]], np.array([1.0, 1.0, -1.0])
        if kind == "scaled":  # 1e68 keeps Z^T Z in band, 1e100 does not
            big = rng.integers(3) == 0
            return (1e100 if big else 1e68) * rng.standard_normal((3, m)), rng.choice((-1.0, 1.0), 3)
        if kind == "dense":  # rank cap 6 and m - 4 vectors outgrow m
            return rng.standard_normal((m - 4, m)), rng.choice((-1.0, 1.0), m - 4)
        return np.zeros((0, m)), np.zeros(0)

    kinds = ["gram", "two-pass", "dense", "empty"]
    batches = [batch(kinds[rng.integers(4)] if kind == "mixed" else kind) for _ in range(150)]
    return m, scale**2, (0.9, 0.5, 6, 1e-3 * scale**2), batches


def off_route_stream(kind):
    def results(lw):
        m, alpha, args, batches = off_route(kind)
        yield from stream(lw, lw.MetricModel.identity(m, alpha), lw.UpdateConfig(*args), batches, 3)
    return results


def symmetric(rng, n):
    g = rng.standard_normal((n, n))
    return (g + g.T) / 2.0


def with_repeat(rng, m, k, repeat):
    """An m-by-k Gaussian draw, its last column a copy of its first if repeat."""
    x = rng.standard_normal((m, k))
    if repeat and k > 1:
        x[:, -1] = x[:, 0]
    return x


def augment(lw):
    """``(Qc, Bc)`` of ``augment`` with per-column and scalar signs."""
    for m, n, k in ((64, 8, 4), (500, 3, 6)):
        rng = np.random.default_rng([m, n, k])
        for i, sign in enumerate(["columns", 1.0, -1.0] * 2):
            q, b = orthonormal(rng, m, n), symmetric(rng, n)
            x = with_repeat(rng, m, k, i % 3 == 0)
            if sign == "columns":
                sign = rng.choice((-1.0, 1.0), k)
            yield lw.augment(q, b, x, sign)


def factor_to_eig(lw):
    """``(alpha, E, D)`` of ``factor_to_eig`` on orthonormal bases."""
    for m, r in ((4096, 32), (500, 8), (64, 64)):
        rng = np.random.default_rng([m, r])
        for _ in range(4):
            ef = lw.factor_to_eig(float(rng.uniform(0.5, 2.0)), orthonormal(rng, m, r),
                                  symmetric(rng, r))
            yield ef.alpha, ef.E, ef.D


def svd_route(lw):
    """``(alpha, E, D)`` of ``svd_route``, rank deficient on half the draws."""
    for m, k in ((4096, 8), (64, 10)):
        rng = np.random.default_rng([m, k, 1])
        for i in range(4):
            ef = lw.svd_route(float(rng.uniform(0.5, 2.0)), with_repeat(rng, m, k, i % 2))
            yield ef.alpha, ef.E, ef.D


def dense_fallback(lw):
    """``(alpha, E, D)`` of ``dense_fallback`` where n + nx + ny outgrows m."""
    for m, n, nx, ny in ((24, 8, 10, 10), (12, 4, 6, 6)):
        rng = np.random.default_rng([m, n, nx, ny])
        for _ in range(4):
            factor = lw.LowRankFactor(1.0, orthonormal(rng, m, n), symmetric(rng, n))
            data = lw.WeightedData(rng.standard_normal((m, nx)), rng.standard_normal((m, ny)))
            ef = lw.dense_fallback(float(rng.uniform(0.5, 2.0)), factor, data)
            yield ef.alpha, ef.E, ef.D


SETS = {
    "feigh-bench": feigh_bench,
    "feigh-edge": feigh_edge,
    "learner-stream": learner_stream,
    "learner-scores": learner_scores,
    **{f"stream-{kind}": off_route_stream(kind)
       for kind in ("two-pass", "scaled", "dense", "mixed")},
    "augment": augment,
    "factor_to_eig": factor_to_eig,
    "svd_route": svd_route,
    "dense_fallback": dense_fallback,
}


def record(path: str) -> None:
    import loweig

    out = {"loweig": loweig.__file__, "numpy": np.__version__, "sets": {}}
    for name, results in SETS.items():
        digest, count = hashlib.sha256(), 0
        for item in results(loweig):
            feed(digest, item)
            count += 1
        out["sets"][name] = {"sha256": digest.hexdigest(), "items": count}
        print(f"{name}: {count} items, {digest.hexdigest()[:16]}", flush=True)
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


def compare(a_path: str, b_path: str) -> int:
    a, b = (json.load(open(path))["sets"] for path in (a_path, b_path))
    differ = 0
    for name in sorted(a.keys() | b.keys()):
        same = name in a and name in b and a[name] == b[name]
        differ += not same
        print(f"{name}: {'equal' if same else 'different'}")
    return int(differ > 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("record").add_argument("out")
    both = sub.add_parser("compare")
    both.add_argument("a")
    both.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args.out)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())

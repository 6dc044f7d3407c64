"""The benchmark's workloads: seeded inputs, the timed operation, its check.

Each workload is driven in a closed loop, one operation at a time, with a
fresh input drawn from the run's seeded generator before every operation.
``setup`` builds the first factor or model and warms up; ``make_input`` and
``check`` run outside the timed region; ``run`` is the timed operation and
calls loweig only through its public package namespace.
"""

from __future__ import annotations

import time

import numpy as np

import checks


class Feigh:
    """``fast_eigh`` of ``alpha*I + Q B Q^T + X X^T - Y Y^T``, inputs made as
    in ``loweig.bench.generate_instance``: Q orthonormalized Gaussian, B
    symmetrized Gaussian, X and Y Gaussian, alpha = 1. The timed operation
    builds the factor and the data from the raw arrays, as a caller does."""

    alpha = 1.0

    def __init__(self, m, n, nx, ny):
        self.m, self.n, self.nx, self.ny = m, n, nx, ny

    def make_input(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((self.m, self.n)))
        g = rng.standard_normal((self.n, self.n))
        b = (g + g.T) / 2.0
        x = rng.standard_normal((self.m, self.nx))
        y = rng.standard_normal((self.m, self.ny))
        return q, b, x, y

    def setup(self, lw, rng):
        """One untimed call. Returns the seconds it took."""
        inp = self.make_input(rng)
        t0 = time.perf_counter()
        out = self.run(lw, inp)
        elapsed = time.perf_counter() - t0
        self.check(inp, out)
        return elapsed

    def run(self, lw, inp):
        q, b, x, y = inp
        return lw.fast_eigh(self.alpha, lw.LowRankFactor(self.alpha, q, b), lw.WeightedData(x, y))

    def check(self, inp, out):
        q, b, x, y = inp
        checks.check_eigh(self.alpha, q, b, x, y, out.E, out.D)

    def layer_counts(self):
        return {}


class TwoClusterStream:
    """The stream of ``loweig.bench.demo_learner``: regular points along one
    latent direction, irregular ones along an orthogonal one, amplitudes in
    +-[0.7, 2.7] and isotropic noise of scale 0.1."""

    def __init__(self, rng, m):
        basis, _ = np.linalg.qr(rng.standard_normal((m, 2)))
        self.reg, self.irr = basis[:, 0], basis[:, 1]
        self.m = m

    def draw(self, rng, count, direction):
        signal = rng.uniform(0.7, 2.7, count) * rng.choice((-1.0, 1.0), count)
        return signal[:, None] * direction + 0.1 * rng.standard_normal((count, self.m))

    def batch(self, rng, per_class):
        vectors = np.vstack([self.draw(rng, per_class, self.reg), self.draw(rng, per_class, self.irr)])
        weights = np.concatenate([np.ones(per_class), -np.ones(per_class)])
        return vectors, weights


def model_arrays(model) -> checks.ModelArrays:
    f, e = model.factor, model.eigen
    return checks.ModelArrays(f.alpha, f.Q, f.B, e.alpha, e.E, e.D)


class LearnerUpdate:
    """One streaming ``update`` per operation; the model carries over."""

    decay, gain, per_class = 0.9, 0.25, 4

    def __init__(self, m, rank_cap):
        self.m, self.rank_cap = m, rank_cap
        self.stream = None
        self.model = None

    def setup(self, lw, rng):
        """Starts from the identity and updates until the rank first reaches
        ``rank_cap``. Returns the seconds spent in loweig."""
        self.stream = TwoClusterStream(rng, self.m)
        t0 = time.perf_counter()
        self.cfg = lw.UpdateConfig(decay=self.decay, gain=self.gain, rank_cap=self.rank_cap)
        self.model = lw.MetricModel.identity(self.m, 1.0)
        elapsed = time.perf_counter() - t0
        while self.model.rank < self.rank_cap:
            inp = self.make_input(rng)
            t0 = time.perf_counter()
            out = self.run(lw, inp)
            elapsed += time.perf_counter() - t0
            self.check(inp, out)
        return elapsed

    def make_input(self, rng):
        return self.stream.batch(rng, self.per_class)

    def run(self, lw, inp):
        vectors, weights = inp
        return lw.update(self.model, lw.LabeledBatch(vectors, weights), self.cfg)

    def check(self, inp, out):
        vectors, weights = inp
        floor = 1e-12 * self.decay * self.model.factor.alpha
        checks.check_update(model_arrays(self.model), vectors, weights, self.decay, self.gain,
                            self.rank_cap, floor, model_arrays(out))
        self.model = out

    def layer_counts(self):
        return {"learner.floored_per_step": self.model.stats.floored, "learner.rank": self.model.rank}


class LearnerScore:
    """Scores a batch of fresh stream points, one ``distance`` call each,
    with the model that ``LearnerUpdate.setup`` trains."""

    points = 256

    def __init__(self, m, rank_cap):
        self.trainer = LearnerUpdate(m, rank_cap)

    def setup(self, lw, rng):
        return self.trainer.setup(lw, rng)

    def make_input(self, rng):
        stream, half = self.trainer.stream, self.points // 2
        return np.vstack([stream.draw(rng, half, stream.reg), stream.draw(rng, half, stream.irr)])

    def run(self, lw, inp):
        model, distance = self.trainer.model, lw.distance
        return [distance(model, x) for x in inp]

    def check(self, inp, out):
        f = self.trainer.model.factor
        checks.check_distances(f.alpha, f.Q, f.B, inp, out)

    def layer_counts(self):
        return self.trainer.layer_counts()


WORKLOADS = {
    "feigh-tall": lambda: Feigh(m=2**18, n=2, nx=2, ny=2),
    "feigh-wide": lambda: Feigh(m=4096, n=32, nx=16, ny=16),
    "learner-update": lambda: LearnerUpdate(m=4096, rank_cap=32),
    "learner-score": lambda: LearnerScore(m=4096, rank_cap=32),
}

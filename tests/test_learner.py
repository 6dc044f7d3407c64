"""Streaming learner: distances, updates, flooring, and the dense simulator."""

import importlib
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from loweig import (
    DimensionError,
    EigenFactor,
    IRREGULAR,
    REGULAR,
    LabeledBatch,
    LowRankFactor,
    MetricModel,
    UpdateConfig,
    WeightedData,
    classify,
    dense_fallback,
    distance,
    fast_eigh,
    materialize,
    truncate,
    update,
)
from loweig import kernels, learner
from loweig.learner import _floor_spectrum

from helpers import dense_metric_simulator, random_factor

# the package exports the function fast_eigh under the module's name
fast_eigh_module = importlib.import_module("loweig.fast_eigh")


def dense_distance(model, x):
    a = materialize(model.factor.alpha, model.factor, WeightedData.empty(model.dim))
    return float(np.sqrt(x @ np.linalg.inv(a) @ x))


class TestDistance:
    def test_scaled_identity(self):
        model = MetricModel.identity(3, 4.0)
        x = np.array([2.0, 0.0, 0.0])
        assert distance(model, x) == pytest.approx(1.0, abs=1e-14)

    def test_single_eigenpair(self):
        factor = LowRankFactor(1.0, np.eye(4)[:, :1], np.array([[3.0]]))
        model = MetricModel.from_factor(factor)
        assert distance(model, np.eye(4)[0]) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_inverse(self, seed):
        rng = np.random.default_rng(seed)
        factor = random_factor(rng, 7, 3, alpha=float(np.exp(rng.normal())))
        # shift B up so the model stays positive definite
        b = factor.B + 2.0 * np.abs(np.linalg.eigvalsh(factor.B)).max() * np.eye(3)
        factor = LowRankFactor(factor.alpha, factor.Q, b)
        model = MetricModel.from_factor(factor)
        x = rng.standard_normal(7)
        assert distance(model, x) == pytest.approx(dense_distance(model, x), rel=1e-10)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            distance(MetricModel.identity(3, 1.0), np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probe_rejected(self, bad):
        rng = np.random.default_rng(8)
        model = MetricModel.from_factor(random_factor(rng, 16, 2, alpha=8.0))
        x = np.ones(16)
        x[5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            distance(model, x)

    def test_overflowing_finite_probe_is_infinite(self):
        model = MetricModel.identity(4, 1.0)
        assert distance(model, np.full(4, 1e300)) == math.inf

    @pytest.mark.parametrize("steps", [0, 1, 5])
    def test_stored_weights_score_bitwise_as_recomputed(self, steps):
        # the model computes 1/(alpha + d) - 1/alpha once; the score must not
        # move by a bit from the expression evaluated on every call
        rng = np.random.default_rng([steps, 19])
        model = MetricModel.from_factor(
            LowRankFactor(2.0, random_factor(rng, 24, 3).Q, np.diag([3.0, 1.0, 0.5]))
        )
        cfg = UpdateConfig(decay=0.9, gain=0.5, rank_cap=5)
        for _ in range(steps):
            model = update(model, LabeledBatch(rng.standard_normal((3, 24)), [1.0, -1.0, 1.0]), cfg)
        ef = model.eigen
        for x in rng.standard_normal((10, 24)):
            proj = ef.E.T @ x
            d2 = float(x @ x) / ef.alpha
            d2 += float(proj**2 @ (1.0 / (ef.alpha + ef.D) - 1.0 / ef.alpha))
            assert distance(model, x) == math.sqrt(max(d2, 0.0))


class TestClassify:
    def test_zero_vector_is_regular(self):
        model = MetricModel.identity(4, 1.0)
        assert classify(model, np.zeros(4), 0.0) == REGULAR

    def test_far_point_is_irregular(self):
        model = MetricModel.identity(4, 1.0)
        x = np.array([3.0, 0.0, 0.0, 0.0])
        assert classify(model, x, 2.0) == IRREGULAR

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probe_rejected(self, bad):
        model = MetricModel.identity(4, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            classify(model, np.array([1.0, bad, 0.0, 0.0]), 2.0)

    def test_nan_threshold_rejected(self):
        model = MetricModel.identity(4, 1.0)
        with pytest.raises(ValueError, match="threshold"):
            classify(model, np.zeros(4), np.nan)


class TestAlignment:
    """Every model's E starts on a 64-byte boundary, whichever path built it."""

    @staticmethod
    def assert_aligned(model):
        assert model.eigen.E.ctypes.data % 64 == 0
        assert model.eigen.E.flags.c_contiguous

    def test_from_factor(self):
        rng = np.random.default_rng(13)
        q = random_factor(rng, 40, 3).Q
        for b in (np.eye(3), np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 0.5]])):
            model = MetricModel.from_factor(LowRankFactor(1.0, q, b))
            self.assert_aligned(model)
            # checked once, so it must not change before the next step uses it
            assert not model.eigen.E.flags.writeable
            # the snapshot stores only its eigen form; factor is a view of it
            assert model.factor.Q is model.eigen.E
            assert np.array_equal(model.factor.B, np.diag(model.eigen.D))
            # a factor is no eigen form: the old MetricModel(factor, eigen) call fails
            with pytest.raises(TypeError, match="^eigen must be an EigenFactor, got LowRankFactor$"):
                MetricModel(model.factor, model.eigen)

    @pytest.mark.parametrize("rank_cap", [1, 8])
    @pytest.mark.parametrize("count", [0, 3, 6])
    def test_update_paths(self, rank_cap, count):
        # count 0: decay only; rank_cap 8: fast path kept whole; rank_cap 1:
        # truncated; count 6 on m = 6 with rank 2: dense fallback
        rng = np.random.default_rng([rank_cap, count])
        m = 6 if count == 6 else 40
        factor = LowRankFactor(4.0, random_factor(rng, m, 2).Q, np.eye(2))
        batch = LabeledBatch(rng.standard_normal((count, m)), rng.choice([-1.0, 1.0], count))
        cfg = UpdateConfig(decay=0.9, gain=0.1, rank_cap=rank_cap)
        out = update(MetricModel.from_factor(factor), batch, cfg)
        self.assert_aligned(out)
        assert out.factor.Q is out.eigen.E
        assert not out.eigen.E.flags.writeable


class TestTrustedConstruction:
    """update re-validates none of the factors it derives from a valid model
    and runs no record's checks: the fast path checks its new E from the Gram
    that the lift returns, as fast_eigh does."""

    @pytest.mark.parametrize(
        "rank_cap, count, truncated, expected",
        [
            (8, 0, False, (0, 0)),  # decay only
            (8, 3, False, (0, 0)),  # fast path, kept whole
            (1, 3, True, (0, 0)),  # fast path, truncated
            (8, 6, False, (0, 0)),  # dense fallback: m = 6 with rank 2
        ],
    )
    def test_update_paths(self, monkeypatch, rank_cap, count, truncated, expected):
        rng = np.random.default_rng([rank_cap, count, 5])
        m = 6 if count == 6 else 40
        model = MetricModel.from_factor(
            LowRankFactor(4.0, random_factor(rng, m, 2).Q, np.eye(2))
        )
        batch = LabeledBatch(rng.standard_normal((count, m)), rng.choice([-1.0, 1.0], count))
        cfg = UpdateConfig(decay=0.9, gain=0.1, rank_cap=rank_cap)
        calls = {LowRankFactor: 0, EigenFactor: 0}
        for cls in calls:

            def counting(self, *args, cls=cls, original=cls.__init__):
                calls[cls] += 1
                original(self, *args)

            monkeypatch.setattr(cls, "__init__", counting)
        out = update(model, batch, cfg)
        assert (calls[LowRankFactor], calls[EigenFactor]) == expected
        assert out.stats.truncated == truncated
        assert out.stats.path == {0: "decay", 3: "fast", 6: "dense"}[count]
        assert out.rank == min(rank_cap, m, 2 + count)
        if out.stats.path == "fast":
            # the check of E still ran, on the E the model holds
            e = out.eigen.E
            assert out.stats.orthogonality == pytest.approx(
                np.linalg.norm(e.T @ e - np.eye(out.rank)), rel=0, abs=1e-14)


class TestFloorSpectrum:
    """``update`` keeps E's column order through flooring, which is right
    only if the floored d stays descending."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(1e-3, 1e3),
        st.lists(st.floats(-1.0, 3.0), max_size=12),
        st.floats(-13.0, 0.6),
        st.integers(0, 5),
    )
    def test_keeps_order_and_honors_floor(self, alpha, ratios, log_floor, implicit):
        # floors far below alpha make alpha + (floor - alpha) round below the
        # floor, which the nudge must repair without reordering
        d = np.sort(alpha * np.array(ratios))[::-1]
        floor = 10.0**log_floor * alpha
        m = d.size + implicit
        new_alpha, new_d, count = _floor_spectrum(alpha, d, m, floor)
        assert np.all(np.diff(new_d) <= 0.0)
        assert new_alpha >= floor and np.all(new_alpha + new_d >= floor)
        raised = implicit if alpha < floor else 0
        assert count == np.count_nonzero(alpha + d < floor) + raised


def reference_update(model, batch, cfg):
    """``update`` from public pieces: decompose with ``fast_eigh`` (or the
    dense or decay-only form), floor, ``truncate`` the full E, floor again."""
    m = model.dim
    decayed_alpha = cfg.decay * model.factor.alpha
    data = WeightedData.from_weighted(batch.vectors, cfg.gain * batch.weights, dim=m)
    k = data.X.shape[1] + data.Y.shape[1]
    if k == 0:
        ef = EigenFactor(decayed_alpha, model.eigen.E, cfg.decay * model.eigen.D)
    else:
        decayed = LowRankFactor(decayed_alpha, model.factor.Q, cfg.decay * model.factor.B)
        eigh = fast_eigh if model.rank + k <= m else dense_fallback
        ef = eigh(decayed_alpha, decayed, data)

    def floored(ef):
        alpha, d, count = _floor_spectrum(ef.alpha, ef.D, m, cfg.floor)
        return EigenFactor(alpha, ef.E, d), count

    ef, count = floored(ef)
    tau = None
    if ef.rank > cfg.rank_cap:
        factor, result = truncate(ef, cfg.rank_cap)
        ef, more = floored(EigenFactor(factor.alpha, factor.Q, np.diag(factor.B)))
        count, tau = count + more, result.tau
    return ef, count, tau


class TestRotateOnce:
    """Deciding on the values and rotating only the kept columns gives the
    model that decomposing, flooring and truncating the full basis gives."""

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_public_pipeline(self, seed):
        rng = np.random.default_rng([seed, 77])
        m, rank_cap = 10, 4
        # floor 0.3 catches negative batches; count 0 is decay only, and a
        # count past m - rank_cap goes through the dense fallback
        cfg = UpdateConfig(decay=0.9, gain=0.8, rank_cap=rank_cap, floor=0.3)
        model = MetricModel.identity(m, 1.0)
        seen, routes = set(), set()
        for step, count in enumerate([2, 0, 3, 1, 8, 0, 4, 2, 7, 3, 0, 5]):
            vectors = rng.standard_normal((count, m))
            weights = rng.choice([-1.0, 1.0], count)
            if step % 2 and count >= 2:
                # a vector repeated with the opposite weight cancels, so the
                # novelty is rank deficient and takes the two-pass route
                vectors[-1], weights[-1] = vectors[0], -weights[0]
            batch = LabeledBatch(vectors, weights)
            ef, count_ref, tau = reference_update(model, batch, cfg)
            model = update(model, batch, cfg)
            stats = model.stats
            seen.add((stats.path, stats.truncated))
            routes.add(stats.route)
            assert (stats.tau, stats.floored, model.rank) == (tau, count_ref, ef.rank)
            assert model.eigen.alpha == pytest.approx(ef.alpha, rel=1e-12)
            assert_allclose(model.eigen.alpha + model.eigen.D, ef.alpha + ef.D,
                            rtol=1e-12, atol=0)
            assert_allclose(model.eigen.E, ef.E, rtol=0, atol=1e-12)
        assert {("fast", False), ("fast", True), ("dense", True), ("decay", False)} <= seen
        assert {"gram", "two-pass"} <= routes


class TestUpdateDiagnostics:
    """``route``, ``novelty_ratio`` and ``dropped`` against the novelty of the
    step's ``Z = [X Y]`` outside span(Q), computed densely."""

    m, cfg = 12, UpdateConfig(decay=0.9, gain=0.5, rank_cap=6)

    def model(self):
        rng = np.random.default_rng(0)
        return MetricModel.from_factor(random_factor(rng, self.m, 3, alpha=2.0))

    def step(self, vectors, weights):
        """The stats of one update, and the dense ``(ratio, dropped)``."""
        model = self.model()
        batch = LabeledBatch(vectors, weights)
        data = WeightedData.from_weighted(vectors, self.cfg.gain * batch.weights, dim=self.m)
        z, q = np.hstack([data.X, data.Y]), model.factor.Q
        res = z - q @ (q.T @ z)
        res -= q @ (q.T @ res)
        ratio = np.linalg.svd(res, compute_uv=False)[-1] / np.linalg.norm(z)
        dropped = z.shape[1] - (np.linalg.matrix_rank(np.hstack([q, z])) - q.shape[1])
        return update(model, batch, self.cfg).stats, ratio, dropped

    def test_gram_route(self):
        rng = np.random.default_rng(40)
        stats, ratio, dropped = self.step(rng.standard_normal((3, self.m)), [1.0, -1.0, 1.0])
        assert (stats.path, stats.route, stats.dropped, dropped) == ("fast", "gram", 0, 0)
        assert stats.novelty_ratio == pytest.approx(ratio, rel=1e-8)

    def test_cancelling_pair_takes_two_pass(self):
        rng = np.random.default_rng(41)
        v = rng.standard_normal((2, self.m))
        stats, _, dropped = self.step(v[[0, 1, 0]], [1.0, 1.0, -1.0])
        assert (stats.route, stats.novelty_ratio) == ("two-pass", None)
        assert stats.dropped == dropped == 1

    def test_vector_inside_span_takes_two_pass(self):
        rng = np.random.default_rng(42)
        inside = self.model().factor.Q @ rng.standard_normal(3)
        vectors = np.vstack([inside, rng.standard_normal(self.m)])
        stats, ratio, dropped = self.step(vectors, [-1.0, 1.0])
        assert (stats.route, stats.novelty_ratio) == ("two-pass", None)
        assert ratio < 1e-12
        assert stats.dropped == dropped == 1

    @pytest.mark.parametrize("count", [0, 10])
    def test_off_the_fast_path(self, count):
        rng = np.random.default_rng(43)
        batch = LabeledBatch(rng.standard_normal((count, self.m)), np.ones(count))
        stats = update(self.model(), batch, self.cfg).stats
        assert stats.path == ("decay" if count == 0 else "dense")
        assert (stats.route, stats.novelty_ratio, stats.dropped) == (None, None, 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_alpha_condition_and_orthogonality(self, seed):
        # against the dense matrix each model represents, over a stream that
        # takes the fast (with and without truncation), decay and dense paths
        # (the floor keeps the smallest eigenvalue resolvable densely)
        rng = np.random.default_rng([seed, 44])
        cfg = UpdateConfig(decay=0.9, gain=0.5, rank_cap=6, floor=0.05)
        model, paths = self.model(), set()
        for count in (2, 3, 0, 10, 1, 5, 0, 4):
            batch = LabeledBatch(rng.standard_normal((count, self.m)),
                                 rng.choice([-1.0, 1.0], count))
            model = update(model, batch, cfg)
            stats = model.stats
            paths.add((stats.path, stats.truncated))
            values = np.linalg.eigvalsh(
                materialize(model.factor.alpha, model.factor, WeightedData.empty(self.m))
            )
            assert stats.alpha == model.eigen.alpha == model.factor.alpha
            implicit = np.count_nonzero(np.isclose(values, stats.alpha, rtol=1e-10, atol=0))
            assert implicit >= self.m - model.rank
            full = model.eigen.full_spectrum()
            assert stats.condition == full[0] / full[-1]
            assert stats.condition == pytest.approx(values[-1] / values[0], rel=1e-10)
            assert (stats.window_log_variance is None) == (not stats.truncated)
            if stats.path == "fast":
                # a compaction measures E; a deferred step reads W^T G W off
                # the snapshot's own B^T B and W
                e = model.eigen.E
                eye = np.eye(e.shape[1])
                if stats.compacted:
                    reference = np.linalg.norm(e.T @ e - eye)
                else:
                    held = model._held
                    reference = np.linalg.norm(held.coef.T @ (held.gram @ held.coef) - eye)
                assert stats.orthogonality == pytest.approx(reference, rel=1e-12, abs=0)
                assert np.linalg.norm(e.T @ e - eye) <= 1e-10 * math.sqrt(e.shape[1])
            else:
                assert stats.orthogonality is None
        assert {("fast", False), ("fast", True), ("decay", False), ("dense", True)} <= paths

    @pytest.mark.parametrize("route", ["gram", "two-pass", "dense", "decay"])
    def test_window_log_variance(self, route):
        # against the window of the expanded dense spectrum the step truncated:
        # decay*A + gain * sum w x x^T, floored, sorted descending
        rng = np.random.default_rng(45)
        cfg = UpdateConfig(decay=0.9, gain=0.5, rank_cap=2 if route == "decay" else 6, floor=0.05)
        v = rng.standard_normal((10, self.m))
        vectors, weights = {
            "gram": (v[:5], [1.0, -1.0, 1.0, 1.0, -1.0]),
            "two-pass": (v[[0, 1, 2, 3, 0]], [1.0, 1.0, 1.0, 1.0, -1.0]),
            "dense": (v, [1.0] * 10),
            "decay": (v[:0], []),
        }[route]
        model = self.model()
        stats = update(model, LabeledBatch(vectors, weights), cfg).stats
        path = route if route in ("dense", "decay") else "fast"
        assert (stats.path, stats.route or stats.path, stats.truncated) == (path, route, True)
        a = materialize(model.factor.alpha, model.factor, WeightedData.empty(self.m))
        a = cfg.decay * a + cfg.gain * (vectors.T * weights) @ vectors
        full = np.maximum(np.linalg.eigvalsh(a)[::-1], cfg.floor)
        window = full[stats.tau:stats.tau + self.m - cfg.rank_cap]
        assert stats.window_log_variance == pytest.approx(
            np.var(np.log(window)), rel=1e-9, abs=1e-12
        )


M_ROW_KERNELS = ("_block_gram", "_pairwise_gram", "_panels", "_rotate", "_self_gram",
                 "_take_columns")


def count_calls(monkeypatch, names):
    """Wrap each named function wherever a loweig module binds it; returns the
    dict of call counts by name."""
    counts = dict.fromkeys(names, 0)
    for module in (kernels, fast_eigh_module, learner):
        for name in names:
            original = getattr(module, name, None)
            if original is None:
                continue

            def counting(*args, name=name, original=original):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counting)
    return counts


def gaussian_stream(seed, m, steps, count=3):
    rng = np.random.default_rng(seed)
    return [LabeledBatch(rng.standard_normal((count, m)), rng.choice([-1.0, 1.0], count))
            for _ in range(steps)]


def run_stream(batches, cfg, m):
    model = MetricModel.identity(m, 1.0)
    for batch in batches:
        model = update(model, batch, cfg)
    return model


def assert_same_model(a, b):
    assert a.stats == b.stats
    assert a.eigen.alpha == b.eigen.alpha
    assert np.array_equal(a.eigen.D, b.eigen.D)
    assert np.array_equal(a.eigen.E, b.eigen.E)


class TestDeferredRotation:
    """A snapshot holds E as ``B W`` over a buffer its descendants share; no
    update or read of one snapshot may change another or the work done."""

    m, cfg = 40, UpdateConfig(decay=0.9, gain=0.5, rank_cap=6)

    def parent(self):
        # a deferred snapshot with room left in its buffer, so the first
        # branch appends in place and the second must copy
        model = run_stream(gaussian_stream(60, self.m, 4, count=2), self.cfg, self.m)
        held = model._held
        assert not model.stats.compacted and held.j + 2 <= held.basis.rows.shape[0]
        return model

    def test_branches_do_not_see_each_other(self):
        a, b = gaussian_stream(61, self.m, 2, count=2)
        alone = {"a": update(self.parent(), a, self.cfg), "b": update(self.parent(), b, self.cfg)}
        for order in ("ab", "ba"):
            parent = self.parent()
            batches = {"a": a, "b": b}
            first, second = (update(parent, batches[name], self.cfg) for name in order)
            assert first._held.basis is parent._held.basis
            assert second._held.basis is not parent._held.basis
            assert_same_model(first, alone[order[0]])
            assert_same_model(second, alone[order[1]])
            assert np.array_equal(parent.eigen.E, self.parent().eigen.E)

    def test_compacted_e_starts_the_next_basis_in_place(self, monkeypatch):
        # the deferred step after a compaction reads that E where it was
        # written, and its buffer holds only the batch rows
        model = run_stream(gaussian_stream(60, self.m, 1, count=2), self.cfg, self.m)
        assert model.stats.compacted
        shapes, real = [], learner._aligned_empty
        monkeypatch.setattr(learner, "_aligned_empty",
                            lambda shape: shapes.append(shape) or real(shape))
        out = update(model, gaussian_stream(68, self.m, 1, count=2)[0], self.cfg)
        assert (out.stats.route, out.stats.compacted) == ("gram", False)
        assert shapes == [((learner._DEFER_GROWTH - 1) * model.rank, self.m)]
        assert out._held.E0 is model.eigen.E

    def test_branch_conflict_copies_only_the_batch_rows(self, monkeypatch):
        parent = self.parent()
        held, (a, b) = parent._held, gaussian_stream(61, self.m, 2, count=2)
        assert held.j and update(parent, a, self.cfg)._held.basis is held.basis
        real = learner._aligned_empty

        def unwritten(shape):
            out = real(shape)
            out.fill(np.nan)
            return out

        monkeypatch.setattr(learner, "_aligned_empty", unwritten)
        second = update(parent, b, self.cfg)._held
        assert second.basis is not held.basis and second.E0 is held.E0
        rows, j = second.basis.rows, held.j
        assert np.array_equal(rows[:j], held.basis.rows[:j])
        assert np.isfinite(rows[j:j + 2]).all() and np.isnan(rows[j + 2:]).all()

    def test_concurrent_branches_do_not_see_each_other(self):
        # one claim per row of the shared buffer, even when updates of one
        # snapshot race: each branch still equals the same branch run alone
        batches = gaussian_stream(66, self.m, 8, count=2)
        alone = [update(self.parent(), batch, self.cfg) for batch in batches]
        parent, results = self.parent(), [None] * len(batches)
        start = threading.Barrier(len(batches))

        def branch(i):
            start.wait(timeout=10)
            results[i] = update(parent, batches[i], self.cfg)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=branch, args=(i,)) for i in range(len(batches))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sum(r._held.basis is parent._held.basis for r in results) == 1
        for got, want in zip(results, alone):
            assert_same_model(got, want)

    def test_reading_e_does_not_change_the_work(self, monkeypatch):
        read, unread = self.parent(), self.parent()
        counts = count_calls(monkeypatch, ("_rotate", "_block_gram"))
        compacted = set()
        for batch in gaussian_stream(62, self.m, 8, count=2):
            read.eigen
            steps = []
            for model in (read, unread):
                before = dict(counts)
                steps.append(update(model, batch, self.cfg))
                steps.append({k: counts[k] - before[k] for k in counts})
            read, read_work, unread, unread_work = steps
            assert read_work == unread_work
            assert read.stats.route == "gram"
            compacted.add(read.stats.compacted)
        assert compacted == {True, False}
        assert_same_model(read, unread)

    @pytest.mark.parametrize("steps", [1, 4])
    def test_decay_only_touches_no_row(self, monkeypatch, steps):
        # from a compacted snapshot and from a deferred one alike
        model = run_stream(gaussian_stream(63, self.m, steps, count=2), self.cfg, self.m)
        assert model.stats.compacted == (steps == 1)
        counts = count_calls(monkeypatch, M_ROW_KERNELS)
        out = update(model, LabeledBatch.empty(self.m), self.cfg)
        assert out.stats.path == "decay" and not out.stats.compacted
        assert counts == dict.fromkeys(M_ROW_KERNELS, 0)
        assert out._held.E0 is model._held.E0 and out._held.basis is model._held.basis

    @pytest.mark.parametrize("compacted", [False, True])
    def test_declined_gram_route_is_not_tried_again(self, monkeypatch, compacted):
        # a cancelling pair: the Gram route declines on [B Z], so the step
        # compacts B W (a pass, unless B is a compacted E) and goes straight
        # to the two-pass route; a compacted E is not copied into a buffer
        def parent():
            if not compacted:
                return self.parent()
            model = run_stream(gaussian_stream(60, self.m, 1, count=2), self.cfg, self.m)
            assert model.stats.compacted
            return model

        v = np.random.default_rng(67).standard_normal((2, self.m))
        batch = LabeledBatch(v[[0, 1, 0]], [1.0, 1.0, -1.0])
        cfg = UpdateConfig(decay=0.9, gain=0.5, rank_cap=6, floor=1e-3)
        ef, count, tau = reference_update(parent(), batch, cfg)
        model = parent()
        # the signed rows are written once for the two-pass route's X and Y,
        # and first into the batch rows where B has room for them
        names = ("_block_gram", "_svqr", "_rotate", "_project", "_signed_rows")
        counts = count_calls(monkeypatch, names)
        out = update(model, batch, cfg)
        assert (out.stats.route, out.stats.compacted) == ("two-pass", True)
        assert counts == dict(zip(names, (1, 1, 1 + (not compacted), 1, 1 + (not compacted))))
        assert (out.stats.tau, out.stats.floored, out.rank) == (tau, count, ef.rank)
        assert_allclose(out.eigen.alpha + out.eigen.D, ef.alpha + ef.D, rtol=1e-12, atol=0)
        assert_allclose(out.eigen.E, ef.E, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("gain", [0.5, 3.0])
    def test_batch_rows_are_from_weighted_rows(self, gain):
        # a zero weight is dropped, and a negative one listed before a
        # positive one is still written after it: the rows are [X Y]^T of
        # from_weighted on the scaled weights, bit for bit
        parent, cfg = self.parent(), UpdateConfig(self.cfg.decay, gain, self.cfg.rank_cap)
        held = parent._held
        vectors = np.random.default_rng(72).standard_normal((4, self.m))
        weights = np.array([-2.0, 0.0, 1.5, -0.25])
        assert held.j + 3 <= held.basis.rows.shape[0]
        out = update(parent, LabeledBatch(vectors, weights), cfg)
        assert (out.stats.route, out.stats.compacted) == ("gram", False)
        assert out._held.basis is held.basis and out._held.j == held.j + 3
        data = WeightedData.from_weighted(vectors, gain * weights, dim=self.m)
        rows = out._held.basis.rows[held.j:out._held.j]
        assert rows.tobytes() == np.hstack([data.X, data.Y]).T.tobytes()

    @pytest.mark.parametrize("bad, weight, gain", [
        (np.nan, 1.0, 0.5), (np.inf, -1.0, 0.5), (-np.inf, 1.0, 0.5),
        (1e300, 1e30, 0.5), (1e300, -1e30, 0.5), (1.0, 1e300, 1e10),
    ])
    def test_bad_batch_raises_and_leaves_the_row_claimable(self, monkeypatch, bad, weight, gain):
        # a non-finite vector, a product with a weight's root that overflows
        # and a weight that the gain overflows raise from_weighted's messages
        # on the scaled weights; the first two are found by the Gram of
        # [B Z] after the rows were written, the last before
        parent, cfg = self.parent(), UpdateConfig(self.cfg.decay, gain, self.cfg.rank_cap)
        held = parent._held
        vectors = np.random.default_rng(73).standard_normal((2, self.m))
        vectors[1, 5] = bad
        weights = np.array([1.0, weight])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError) as expected:
                WeightedData.from_weighted(vectors, gain * weights, dim=self.m)
        message = str(expected.value)
        if gain * weight == math.inf:
            assert message == "weights must be finite"
            message = "the scaled batch overflows float64"
        written = count_calls(monkeypatch, ("_signed_rows",))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                update(parent, LabeledBatch(vectors, weights), cfg)
        # into the batch rows, then into X and Y to name the failure
        assert written["_signed_rows"] == (0 if gain * weight == math.inf else 2)
        monkeypatch.undo()
        step = gaussian_stream(74, self.m, 1, count=2)[0]
        assert update(parent, step, self.cfg)._held.basis is held.basis

    @pytest.mark.parametrize("kind", ["scaled", "declined"])
    def test_a_compacting_step_gives_its_row_back(self, monkeypatch, kind):
        # a step that the Gram route scales, or declines, writes its rows
        # after B's and then compacts; a sibling that defers appends in place
        parent = self.parent()
        held = parent._held
        v = np.random.default_rng(75).standard_normal((2, self.m))
        if kind == "scaled":
            batch, cfg = LabeledBatch(1e100 * v, [1.0, -1.0]), self.cfg
        else:
            batch = LabeledBatch(v[[0, 1, 0]], [1.0, 1.0, -1.0])
            cfg = UpdateConfig(decay=0.9, gain=0.5, rank_cap=6, floor=1e-3)
        out = update(parent, batch, cfg)
        route = "gram" if kind == "scaled" else "two-pass"
        assert (out.stats.route, out.stats.compacted) == (route, True)
        assert held.j not in held.basis.claims
        shapes, real = [], learner._aligned_empty
        monkeypatch.setattr(learner, "_aligned_empty",
                            lambda shape: shapes.append(shape) or real(shape))
        sibling = update(parent, gaussian_stream(76, self.m, 1, count=2)[0], self.cfg)
        assert (sibling.stats.route, sibling.stats.compacted) == ("gram", False)
        assert sibling._held.basis is held.basis and shapes == []
        # ... and keeps the row it appended to
        assert update(parent, gaussian_stream(77, self.m, 1, count=2)[0],
                      self.cfg)._held.basis is not held.basis

    def test_gram_of_a_given_basis_is_measured(self):
        # an E orthonormal only to within the tolerance: a deferred step's
        # check reads that loss from E's measured Gram, not from G = I
        q = np.linalg.qr(np.random.default_rng(69).standard_normal((self.m, 3)))[0]
        model = MetricModel(EigenFactor(1.0, q * [1.0 + 4e-11, 1.0, 1.0], np.array([3.0, 2.0, 1.0])))
        assert model.eigen.orthogonality > 5e-11
        out = update(model, gaussian_stream(70, self.m, 1, count=2)[0], self.cfg)
        assert (out.stats.route, out.stats.compacted) == ("gram", False)
        assert out.stats.orthogonality >= model.eigen.orthogonality / 2

    @pytest.mark.parametrize("delta, trusted", [(1e-1, True), (2e-3, False)])
    def test_check_untrusted_once_its_rounding_nears_the_tolerance(self, delta, trusted):
        # E = [e2, e1] = B W exactly, with W's first column (b3 - b1) / delta
        # on a B whose third column nearly repeats its first: W^T G W passes
        # the tolerance either way, but rounds to within a tenth of it only
        # for the larger delta
        e = np.linalg.qr(np.random.default_rng(65).standard_normal((self.m, 2)))[0]
        b = np.hstack([e, e[:, :1] + delta * e[:, 1:]])
        coef = np.array([[-1.0 / delta, 1.0], [0.0, 0.0], [1.0 / delta, 0.0]])
        gram = b.T @ b
        norm = np.linalg.norm(coef.T @ gram @ coef - np.eye(2))
        assert norm <= 1e-10 * math.sqrt(2)
        assert (learner._deferred_orthogonality(gram, coef) is not None) == trusted

    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    def test_extreme_scale_compacts_and_matches_public_pipeline(self, scale):
        model = self.parent()
        rng = np.random.default_rng(64)
        batch = LabeledBatch(scale * rng.standard_normal((2, self.m)), [1.0, -1.0])
        cfg = UpdateConfig(decay=0.9, gain=0.5, rank_cap=6, floor=1e-3 * scale**2)
        ef, count, tau = reference_update(model, batch, cfg)
        out = update(model, batch, cfg)
        assert (out.stats.route, out.stats.compacted) == ("gram", True)
        assert (out.stats.tau, out.stats.floored, out.rank) == (tau, count, ef.rank)
        lam, ref = out.eigen.alpha + out.eigen.D, ef.alpha + ef.D
        top = float(np.max(np.abs(ref)))
        assert_allclose(lam, ref, rtol=0, atol=1e-12 * top)
        # eigenvectors are compared only where their eigenvalue stands apart:
        # at 1e+100 the floor lifts columns 1-5 to one value, and which
        # directions of that eigenspace truncation keeps is set by rounding
        gaps = np.abs(ref[:, None] - ref) + np.diag(np.full(ref.size, np.inf))
        apart = gaps.min(axis=1) > 1e-6 * top
        assert apart.tolist() == [True] + [scale < 1.0] * (ef.rank - 1)
        e, f = out.eigen.E[:, apart], ef.E[:, apart]
        assert_allclose(e * np.sign(np.sum(e * f, axis=0)), f, rtol=0, atol=1e-12)
        assert scaled_step_residual(model, batch, cfg, out) <= 1.0

    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    def test_extreme_scale_stream_keeps_its_invariants(self, scale):
        # every batch is scaled, so every Gram-route step compacts on [B Z]
        cfg = UpdateConfig(decay=0.9, gain=0.5, rank_cap=6, floor=1e-3 * scale**2)
        model, routes = MetricModel.identity(self.m, scale**2), set()
        for batch in gaussian_stream(71, self.m, 60, count=3):
            batch = LabeledBatch(scale * batch.vectors, batch.weights)
            out = update(model, batch, cfg)
            routes.add((out.stats.route, out.stats.compacted))
            e, tol = out.eigen.E, kernels._orthonormal_tolerance(out.rank)
            assert np.linalg.norm(e.T @ e - np.eye(out.rank)) <= tol
            assert scaled_step_residual(model, batch, cfg, out) <= 1.0
            model = out
        assert ("gram", True) in routes and ("gram", False) not in routes


def scaled_step_residual(prev, batch, cfg, new):
    """``step_residual`` of the step divided through by ``s**2``, the batch
    by s, s the power of 2 nearest the square root of the new largest
    eigenvalue, so that neither its products nor its norms leave the normal
    range at extreme data scales."""
    top = new.eigen.alpha + max(float(new.eigen.D.max(initial=0.0)), 0.0)
    s = 2.0 ** round(math.log2(top) / 2)

    def shrunk(model):
        ef = model.eigen
        return MetricModel(EigenFactor(ef.alpha / s**2, ef.E, ef.D / s**2))

    shrunk_batch = LabeledBatch(batch.vectors / s, batch.weights)
    shrunk_cfg = UpdateConfig(cfg.decay, cfg.gain, cfg.rank_cap, cfg.floor / s**2)
    return step_residual(shrunk(prev), shrunk_batch, shrunk_cfg, shrunk(new))


def step_residual(prev, batch, cfg, new):
    """The kept pairs' residual against ``decay*A_prev + gain * sum w x x^T``
    over its bound, as ``perfbench/checks.check_update`` measures it: at most
    1 where it holds at 1e-9."""
    lam = new.eigen.alpha + new.eigen.D
    kept = lam > cfg.floor + 1e-12 * max(new.eigen.alpha, float(np.max(lam, initial=0.0)))
    ek, lk = new.eigen.E[:, kept], lam[kept]
    pe, pd = prev.eigen.E, prev.eigen.D
    w = cfg.gain * batch.weights
    vt = batch.vectors
    applied = cfg.decay * (prev.eigen.alpha * ek + pe @ (pd[:, None] * (pe.T @ ek)))
    applied += vt.T @ (w[:, None] * (vt @ ek))
    top = float(np.max(np.abs(pd), initial=0.0))
    mass = cfg.decay * (prev.eigen.alpha + top) + float(np.abs(w) @ np.einsum("ij,ij->i", vt, vt))
    scale = max(float(np.max(np.abs(lam), initial=0.0)), mass)
    err = float(np.linalg.norm(applied - ek * lk))
    return err / (1e-9 * scale * math.sqrt(max(1, lk.size)))


class TestConditioningSoak:
    """A long stream that re-adds vectors an earlier step added and then
    truncated: each lies near span(B), far from span(E), so B's columns nearly
    repeat while the deferred step's novelty stays large."""

    def test_invariants_hold_at_every_compaction(self):
        m, count = 64, 3
        cfg = UpdateConfig(decay=0.9, gain=0.5, rank_cap=6, floor=1e-3)
        rng = np.random.default_rng(3)
        model, history = MetricModel.identity(m, 1.0), []
        compactions, worst_gram = 0, 1.0
        for step in range(2000):
            vectors = 2.0 / math.sqrt(m) * rng.standard_normal((count, m))
            if len(history) > 3:
                for i in range(2):
                    old = history[-1 - rng.integers(1, 4)][rng.integers(count)]
                    vectors[i] = old + 1e-6 * rng.standard_normal(m)
            history.append(vectors)
            batch = LabeledBatch(vectors, rng.choice([-1.0, 1.0], count))
            prev, model = model, update(model, batch, cfg)
            if not model.stats.compacted:
                worst_gram = max(worst_gram, np.linalg.cond(model._held.gram))
            if model.stats.compacted or step % 50 == 0:
                compactions += model.stats.compacted
                e = model.eigen.E
                assert np.linalg.norm(e.T @ e - np.eye(e.shape[1])) <= 1e-10 * math.sqrt(model.rank)
                spectrum = model.eigen.full_spectrum()
                assert np.isfinite(spectrum).all() and spectrum[-1] > 0.0
                assert step_residual(prev, batch, cfg, model) <= 1.0
        # the stream did make B's Gram ill-conditioned, and it both deferred
        # and compacted
        assert worst_gram > 1e8
        assert 0 < compactions < 2000

    @pytest.mark.parametrize("seed", [4, 8, 13, 27, 36, 37])
    def test_batches_near_span_of_e_keep_e_orthonormal(self, seed):
        # two of three vectors per step lie near span(E) with novelty ratios
        # above GRAM_MIN_RATIO: only the route guard keeps the Gram route
        # from amplifying E's loss of orthogonality from step to step
        m = 64
        cfg = UpdateConfig(decay=0.9, gain=0.5, rank_cap=6, floor=1e-3)
        rng = np.random.default_rng(seed)
        model, routes = MetricModel.identity(m, 1.0), set()
        for _ in range(300):
            vectors = rng.standard_normal((3, m))
            if model.rank:
                near = model.eigen.E @ rng.standard_normal((model.rank, 2))
                vectors[:2] = near.T + 0.015 * rng.standard_normal((2, m))
            model = update(model, LabeledBatch(vectors, rng.choice([-1.0, 1.0], 3)), cfg)
            routes.add(model.stats.route)
            e = model.eigen.E
            assert np.linalg.norm(e.T @ e - np.eye(model.rank)) <= 1e-10 * math.sqrt(model.rank)
        assert routes == {"gram", "two-pass"}


class TestUpdate:
    def test_empty_batch_identity_decay_is_noop(self):
        rng = np.random.default_rng(1)
        model = MetricModel.from_factor(random_factor(rng, 6, 2, alpha=2.0))
        cfg = UpdateConfig(decay=1.0, gain=1.0, rank_cap=4)
        out = update(model, LabeledBatch.empty(6), cfg)
        assert_allclose(out.eigen.full_spectrum(), model.eigen.full_spectrum(),
                        rtol=1e-12, atol=0)

    def test_single_regular_vector(self):
        model = MetricModel.identity(3, 1.0)
        batch = LabeledBatch(np.eye(3)[:1], np.array([1.0]))
        out = update(model, batch, UpdateConfig(decay=1.0, gain=1.0, rank_cap=2))
        assert_allclose(out.eigen.full_spectrum(), [2.0, 1.0, 1.0], atol=1e-12)

    def test_decay_only_scales_distances_exactly(self):
        rng = np.random.default_rng(2)
        model = MetricModel.identity(5, 1.0)
        cfg = UpdateConfig(decay=0.8, gain=1.0, rank_cap=3)
        x = rng.standard_normal(5)
        d0 = distance(model, x)
        for t in range(1, 4):
            model = update(model, LabeledBatch.empty(5), cfg)
            assert distance(model, x) == pytest.approx(d0 * 0.8 ** (-t / 2), rel=1e-12)

    def test_positive_update_contracts_own_distance(self):
        rng = np.random.default_rng(3)
        model = MetricModel.from_factor(random_factor(rng, 8, 2, alpha=1.5))
        x = rng.standard_normal(8)
        before = distance(model, x)
        out = update(model, LabeledBatch(x[None, :], np.array([1.0])),
                     UpdateConfig(decay=1.0, gain=0.5, rank_cap=6))
        assert distance(out, x) < before

    def test_negative_update_expands_own_distance(self):
        rng = np.random.default_rng(4)
        model = MetricModel.identity(8, 2.0)
        x = rng.standard_normal(8)
        x /= np.linalg.norm(x)  # small enough to stay PD without flooring
        before = distance(model, x)
        out = update(model, LabeledBatch(x[None, :], np.array([-1.0])),
                     UpdateConfig(decay=1.0, gain=0.5, rank_cap=6))
        assert out.stats.floored == 0
        assert distance(out, x) > before

    def test_flooring_restores_positive_definiteness(self):
        model = MetricModel.identity(5, 1.0)
        x = 10.0 * np.eye(5)[0]
        cfg = UpdateConfig(decay=1.0, gain=1.0, rank_cap=3, floor=1e-9)
        out = update(model, LabeledBatch(x[None, :], np.array([-1.0])), cfg)
        assert out.stats.floored > 0
        assert out.eigen.full_spectrum()[-1] >= 1e-9

    def test_rank_stays_capped(self):
        rng = np.random.default_rng(5)
        model = MetricModel.identity(12, 1.0)
        cfg = UpdateConfig(decay=0.9, gain=0.3, rank_cap=4, floor=1e-10)
        for _ in range(6):
            vectors = rng.standard_normal((3, 12))
            weights = rng.choice([-1.0, 1.0], 3)
            model = update(model, LabeledBatch(vectors, weights), cfg)
            assert model.rank <= 4
            assert model.eigen.full_spectrum()[-1] > 0.0

    def test_long_run_honors_floor_exactly(self):
        # truncation re-bases eigenvalues on a new alpha; the floor must
        # survive the representation change, not just the flooring step
        rng = np.random.default_rng(555)
        model = MetricModel.identity(24, 1.0)
        cfg = UpdateConfig(decay=0.95, gain=0.6, rank_cap=6, floor=1e-8)
        for _ in range(30):
            count = int(rng.integers(1, 6))
            vectors = rng.standard_normal((count, 24))
            weights = rng.choice([-1.0, 1.0], count)
            model = update(model, LabeledBatch(vectors, weights), cfg)
            assert model.rank <= 6
            assert model.eigen.full_spectrum()[-1] >= 1e-8

    def test_dense_fallback_branch(self):
        # combined rank exceeds m: goes through the dense path
        rng = np.random.default_rng(6)
        model = MetricModel.identity(4, 1.0)
        vectors = rng.standard_normal((4, 4))
        weights = np.array([1.0, 1.0, -1.0, 1.0])
        cfg = UpdateConfig(decay=1.0, gain=0.2, rank_cap=2, floor=1e-8)
        out = update(model, LabeledBatch(vectors, weights), cfg)
        assert out.rank <= 2
        assert out.eigen.full_spectrum()[-1] >= 1e-8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_dense_path_overflow_verdict(self):
        # the dense path names an overflow as the fast path does, with no
        # warning and no array the caller never passed
        vectors = 1e200 * np.random.default_rng(7).standard_normal((5, 4))
        batch = LabeledBatch(vectors, np.array([1.0, -1.0, 1.0, -1.0, 1.0]))
        cfg = UpdateConfig(decay=1.0, gain=0.25, rank_cap=2)
        with pytest.raises(ValueError, match="^the spectrum overflows float64 at this data scale$"):
            update(MetricModel.identity(4, 1.0), batch, cfg)

    def test_dimension_mismatch_rejected(self):
        model = MetricModel.identity(4, 1.0)
        # a wrong width is rejected even at gain 0, and so are 3-D vectors
        for vectors, gain in ((np.ones((1, 5)), 1.0), (np.ones((1, 5)), 0.0),
                              (np.ones((1, 2, 2)), 1.0)):
            batch = LabeledBatch(vectors, np.array([1.0]))
            with pytest.raises(DimensionError):
                update(model, batch, UpdateConfig(decay=1.0, gain=gain, rank_cap=2))
        # an empty batch of any width is pure decay
        empty = LabeledBatch(np.zeros((0, 5)), np.zeros(0))
        assert update(model, empty, UpdateConfig(decay=1.0, gain=1.0, rank_cap=2)).stats.path == "decay"

    @pytest.mark.parametrize("seed", [10, 11])
    def test_five_steps_match_dense_simulator(self, seed):
        rng = np.random.default_rng(seed)
        m, rank_cap, steps = 12, 4, 5
        # floor well above ulp(alpha) so the floored eigenvalue is
        # representable to 1e-10 relative in the alpha + d form
        cfg = UpdateConfig(decay=0.9, gain=0.4, rank_cap=rank_cap, floor=1e-4)
        batches = []
        for _ in range(steps):
            count = int(rng.integers(1, 4))
            batches.append(
                (rng.standard_normal((count, m)) / np.sqrt(m),
                 rng.choice([-1.0, 1.0], count))
            )
        model = MetricModel.identity(m, 1.0)
        probe = rng.standard_normal(m)
        for step in range(steps):
            model = update(model, LabeledBatch(*batches[step]), cfg)
            a_sim = dense_metric_simulator(m, 1.0, batches[: step + 1], cfg)
            d_dense = float(np.sqrt(probe @ np.linalg.inv(a_sim) @ probe))
            assert distance(model, probe) == pytest.approx(d_dense, rel=1e-10)
        sim_spectrum = np.sort(np.linalg.eigvalsh(a_sim))[::-1]
        assert_allclose(model.eigen.full_spectrum(), sim_spectrum, atol=1e-8)


class TestRecords:
    def test_batch_needs_one_weight_per_vector(self):
        with pytest.raises(DimensionError, match="^2 vectors but 3 weights$"):
            LabeledBatch(np.ones((2, 4)), np.ones(3))

    @pytest.mark.parametrize("weights", [1.0, np.ones((1, 1))])
    def test_batch_weights_must_be_one_dimensional(self, weights):
        with pytest.raises(DimensionError, match="^weights must be one-dimensional, got shape"):
            LabeledBatch(np.ones((1, 5)), weights)

    def test_gain_overflowing_finite_weights_named(self):
        # every weight is finite; only the gain takes one past float64
        batch = LabeledBatch(np.ones((2, 6)), [1e308, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the scaled batch overflows float64$"):
                update(MetricModel.identity(6), batch, UpdateConfig(0.9, 10.0, 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_batch_weights_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="^weights must be finite$"):
            LabeledBatch(np.ones((2, 4)), np.array([1.0, bad]))

    @pytest.mark.parametrize("alpha, d, message", [
        (0.0, [], "alpha <= 0"),
        (1.0, [2.0, -1.0], "nonpositive eigenvalue"),
        (1.0, [-1.5], "nonpositive eigenvalue"),
    ])
    def test_model_must_be_positive_definite(self, alpha, d, message):
        eigen = EigenFactor(alpha, np.eye(4)[:, :len(d)], np.array(d))
        with pytest.raises(ValueError, match=f"^model must be positive definite: {message}$"):
            MetricModel(eigen)


    @pytest.mark.parametrize("count", [0, 2])
    def test_update_whose_alpha_underflows_is_rejected(self, count):
        # a valid decay takes alpha to 0.0 in two steps, and the default
        # floor, 1e-12 times the decayed alpha, with it
        cfg = UpdateConfig(decay=1e-200, gain=0.5, rank_cap=6)
        batches = gaussian_stream(68, 40, 2, count=count)
        model = update(MetricModel.identity(40, 1.0), batches[0], cfg)
        with pytest.raises(ValueError, match="^model must be positive definite: alpha <= 0$"):
            update(model, batches[1], cfg)


class TestConfig:
    def test_decay_bounds(self):
        with pytest.raises(ValueError):
            UpdateConfig(decay=0.0, gain=1.0, rank_cap=2)
        with pytest.raises(ValueError):
            UpdateConfig(decay=1.5, gain=1.0, rank_cap=2)

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            UpdateConfig(decay=1.0, gain=-0.1, rank_cap=2)

    def test_zero_gain_is_pure_decay(self):
        model = MetricModel.identity(4, 1.0)
        batch = LabeledBatch(np.eye(4)[:2], np.array([1.0, -1.0]))
        out = update(model, batch, UpdateConfig(decay=1.0, gain=0.0, rank_cap=2))
        assert_allclose(out.eigen.full_spectrum(), np.ones(4), rtol=1e-12)

    def test_nonpositive_floor_rejected(self):
        with pytest.raises(ValueError):
            UpdateConfig(decay=1.0, gain=1.0, rank_cap=2, floor=0.0)

    @pytest.mark.parametrize("field, value, error", [
        ("gain", np.nan, ValueError),
        ("gain", np.inf, ValueError),
        ("floor", np.nan, ValueError),
        ("floor", np.inf, ValueError),
        ("rank_cap", 2.5, TypeError),
        ("rank_cap", -1, ValueError),
    ])
    def test_unusable_value_rejected_by_name(self, field, value, error):
        # a NaN gain would drop every vector, a NaN floor would turn flooring
        # off, and a fractional rank_cap would fail inside truncation
        kwargs = dict(decay=1.0, gain=1.0, rank_cap=2, floor=None)
        kwargs[field] = value
        with pytest.raises(error, match=f"^{field} must"):
            UpdateConfig(**kwargs)

"""Streaming learner: distances, updates, flooring, and the dense simulator."""

import math

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
from loweig.learner import _floor_spectrum

from helpers import dense_metric_simulator, random_factor


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
                e = model.eigen.E
                dense = np.linalg.norm(e.T @ e - np.eye(e.shape[1]))
                assert stats.orthogonality == pytest.approx(dense, rel=1e-12, abs=0)
                assert stats.orthogonality <= 1e-10 * math.sqrt(e.shape[1])
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

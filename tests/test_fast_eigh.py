"""Pipeline checks against dense materialization."""

import importlib
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from loweig import (
    DimensionError,
    EigenFactor,
    LowRankFactor,
    MetricModel,
    WeightedData,
    augment,
    dense_fallback,
    dense_spectrum,
    factor_to_eig,
    fast_eigh,
    materialize,
    svd_route,
    symmetric_eig,
)

from loweig.fast_eigh import _signed_core
from loweig.kernels import _block_rows

from helpers import random_instance, random_orthonormal, random_symmetric


def dense_augmented(q, b, x, sign):
    return q @ b @ q.T + sign * (x @ x.T)


class TestAugment:
    def test_pure_outer_product(self):
        x = 2.0 * np.eye(3)[:, :1]
        qc, bc = augment(np.zeros((3, 0)), np.zeros((0, 0)), x, +1)
        assert_allclose(np.abs(qc), np.eye(3)[:, :1], atol=1e-14)
        assert_allclose(bc, [[4.0]], atol=1e-14)

    def test_update_inside_span(self):
        # X entirely inside range(Q): every novelty direction is truncated.
        q = np.eye(3)[:, :1]
        qc, bc = augment(q, np.array([[5.0]]), np.eye(3)[:, :1], +1)
        assert qc.shape == (3, 1)
        assert_allclose(qc, q, atol=1e-14)
        assert_allclose(bc, [[6.0]], atol=1e-12)

    def test_negative_sign_matches_dense(self):
        rng = np.random.default_rng(17)
        q = random_orthonormal(rng, 7, 2)
        b = random_symmetric(rng, 2)
        x = rng.standard_normal((7, 2))
        qc, bc = augment(q, b, x, -1)
        expected = dense_augmented(q, b, x, -1)
        assert np.linalg.norm(qc @ bc @ qc.T - expected) <= 1e-10 * max(
            1.0, np.linalg.norm(expected)
        )

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("seed", range(6))
    def test_equality_and_orthonormality(self, sign, seed):
        rng = np.random.default_rng([seed, sign + 2])
        m = int(rng.integers(4, 31))
        n = int(rng.integers(0, min(8, m // 2) + 1))
        k = int(rng.integers(0, min(8, m - n) + 1))
        q = random_orthonormal(rng, m, n)
        b = random_symmetric(rng, n)
        x = rng.standard_normal((m, k))
        qc, bc = augment(q, b, x, sign)
        expected = dense_augmented(q, b, x, sign)
        assert np.linalg.norm(qc @ bc @ qc.T - expected) <= 1e-9 * max(
            1.0, np.linalg.norm(expected)
        )
        r = qc.shape[1]
        assert np.linalg.norm(qc.T @ qc - np.eye(r)) <= 1e-9

    def test_rank_deficient_novelty_keeps_orthonormality(self):
        rng = np.random.default_rng(4)
        q = random_orthonormal(rng, 10, 3)
        inside = q @ rng.standard_normal((3, 2))
        outside = rng.standard_normal((10, 1))
        x = np.hstack([inside, outside])
        qc, bc = augment(q, random_symmetric(rng, 3), x, +1)
        assert qc.shape[1] < 3 + 3  # dropped directions
        r = qc.shape[1]
        assert np.linalg.norm(qc.T @ qc - np.eye(r)) <= 1e-9

    def test_rank_overflow_rejected(self):
        with pytest.raises(DimensionError, match="dense_fallback"):
            augment(np.eye(3)[:, :2], np.zeros((2, 2)), np.ones((3, 2)), +1)

    @pytest.mark.parametrize("repeat", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_sign_vector_matches_dense(self, seed, repeat):
        rng = np.random.default_rng([seed, 7])
        m, n, k = 12, 3, 5
        q = random_orthonormal(rng, m, n)
        b = random_symmetric(rng, n)
        x = rng.standard_normal((m, k))
        w = np.array([1.0, -1.0, -1.0, 1.0, -1.0])
        if repeat:
            # the same column with both signs cancels and adds one direction
            x[:, 4] = x[:, 0]
        qc, bc = augment(q, b, x, w)
        expected = q @ b @ q.T + x @ np.diag(w) @ x.T
        assert np.linalg.norm(qc @ bc @ qc.T - expected) <= 1e-9 * max(
            1.0, np.linalg.norm(expected)
        )
        r = qc.shape[1]
        assert r == n + k - repeat
        assert np.linalg.norm(qc.T @ qc - np.eye(r)) <= 1e-9

    @pytest.mark.parametrize("sign", [0, 2, [1.0, -1.0], [1.0, 0.5, -1.0]])
    def test_bad_sign_rejected(self, sign):
        with pytest.raises(ValueError, match="sign"):
            augment(np.zeros((5, 0)), np.zeros((0, 0)), np.ones((5, 3)), sign)

    def test_non_symmetric_b_rejected(self):
        # Q B Q^T is symmetric only for a symmetric B; the core built from
        # any other B gave a wrong Qc Bc Qc^T without an error
        rng = np.random.default_rng(20)
        q = random_orthonormal(rng, 20, 3)
        b = rng.standard_normal((3, 3))
        with pytest.raises(ValueError, match="^b is not symmetric within tolerance$"):
            augment(q, b, rng.standard_normal((20, 2)), +1)

    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (3, 4), (3,)])
    def test_b_of_wrong_shape_rejected(self, shape):
        q = random_orthonormal(np.random.default_rng(21), 20, 3)
        with pytest.raises(DimensionError, match="^b must be"):
            augment(q, np.zeros(shape), np.ones((20, 2)), +1)

    def test_b_within_tolerance_is_symmetrized(self):
        # augment decomposes the symmetrized b, as LowRankFactor stores it
        rng = np.random.default_rng(22)
        q, x = random_orthonormal(rng, 20, 3), rng.standard_normal((20, 2))
        b = random_symmetric(rng, 3)
        near = b.copy()
        near[0, 1] += 1e-15
        assert not np.array_equal(near, near.T)
        got = augment(q, near, x, -1)
        ref = augment(q, (near + near.T) / 2.0, x, -1)
        assert all(np.array_equal(a, r) for a, r in zip(got, ref))


class TestFactorToEig:
    def test_exchange_core(self):
        ef = factor_to_eig(0.0, np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(ef.D, [1.0, -1.0], atol=1e-14)

    def test_diagonal_core_sorts(self):
        rng = np.random.default_rng(2)
        qa = random_orthonormal(rng, 5, 2)
        ef = factor_to_eig(1.0, qa, np.diag([2.0, 7.0]))
        assert_allclose(ef.D, [7.0, 2.0], atol=1e-14)
        assert_allclose(np.abs(ef.E), np.abs(qa[:, [1, 0]]), atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(31)
        qa = random_orthonormal(rng, 8, 3)
        ba = random_symmetric(rng, 3)
        ef = factor_to_eig(0.0, qa, ba)
        dense_vals, _ = dense_spectrum(qa @ ba @ qa.T)
        assert_allclose(ef.full_spectrum(), dense_vals, atol=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("core", ["diagonal", "dense"])
    def test_non_finite_basis_named(self, bad, core):
        # q_a is scanned only behind the non-finite Gram of E; the error
        # still names q_a, with a diagonal core (whose eigenvectors hold
        # zeros, so inf * 0 turns into NaN) as with a dense one
        rng = np.random.default_rng(32)
        qa = random_orthonormal(rng, 8, 3)
        ba = np.diag([3.0, 2.0, 1.0]) if core == "diagonal" else random_symmetric(rng, 3)
        qa[5, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="^q_a contains non-finite entries$"):
                factor_to_eig(1.0, qa, ba)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_from_factor_names_q_written_after_construction(self, bad):
        factor = LowRankFactor(1.0, random_orthonormal(np.random.default_rng(33), 8, 3),
                               np.diag([3.0, 2.0, 1.0]))
        factor.Q[2, 0] = bad
        with pytest.raises(ValueError, match="^q_a contains non-finite entries$"):
            MetricModel.from_factor(factor)

    @pytest.mark.parametrize("k", [2, 12])
    def test_multi_block_thin_basis(self, k):
        # q_a over several row blocks: the lift sums E's Gram block by block,
        # and its check reads the same E^T E as a separate pass would
        m = 3 * _block_rows(2 * k) + 17
        rng = np.random.default_rng(k)
        qa = random_orthonormal(rng, m, k)
        ba = random_symmetric(rng, k)
        ef = factor_to_eig(1.0, qa, ba)
        eig = np.linalg.eigh(ba)
        assert_allclose(ef.D, eig.eigenvalues[::-1], rtol=1e-12, atol=1e-12)
        assert_allclose(ef.E @ (ef.D[:, None] * (ef.E.T @ qa)), qa @ ba, atol=1e-12)
        assert ef.orthogonality == pytest.approx(
            np.linalg.norm(ef.E.T @ ef.E - np.eye(k)), rel=0, abs=1e-14)
        qa[m - 3, k - 1] = 2.0  # in the last row block
        with pytest.raises(ValueError, match="^E does not have orthonormal columns$"):
            factor_to_eig(1.0, qa, ba)

    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (3, 2)])
    def test_core_of_wrong_shape_rejected(self, shape):
        qa = random_orthonormal(np.random.default_rng(34), 8, 3)
        message = f"b_a must be 3 x 3 for q_a of shape (8, 3), got {shape}"
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            factor_to_eig(1.0, qa, np.eye(*shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_core_named(self, bad):
        ba = np.eye(2)
        ba[1, 0] = ba[0, 1] = bad
        with pytest.raises(ValueError, match="^b_a contains non-finite entries$"):
            factor_to_eig(1.0, np.eye(4)[:, :2], ba)

    def test_non_symmetric_core_named(self):
        with pytest.raises(ValueError, match="^b_a is not symmetric within tolerance$"):
            factor_to_eig(1.0, np.eye(4)[:, :2], np.triu(np.ones((2, 2))))

    def test_core_checked_once(self, monkeypatch):
        # b_a's symmetry is checked once, under its own name, wherever the
        # check is looked up
        calls = []

        def spy(b, name):
            calls.append(name)
            return original(b, name)

        original = importlib.import_module("loweig.kernels")._check_symmetric
        for module in ("loweig.kernels", "loweig.fast_eigh"):
            monkeypatch.setattr(importlib.import_module(module), "_check_symmetric", spy,
                                raising=False)
        rng = np.random.default_rng(35)
        factor_to_eig(1.0, random_orthonormal(rng, 8, 3), random_symmetric(rng, 3))
        assert calls == ["b_a"]

    def test_scale_error_keeps_its_message(self):
        # a finite q_a that is not orthonormal reports E, as before
        qa = 2.0 * np.eye(4)[:, :2]
        with pytest.raises(ValueError, match="^E does not have orthonormal columns$"):
            factor_to_eig(1.0, qa, np.eye(2))


class TestFastEigh:
    def test_exact_cancellation(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 2))
        ef = fast_eigh(1.0, LowRankFactor.identity(6, 1.0), WeightedData(x, x))
        assert np.all(np.abs(ef.D) <= 1e-10)

    def test_disjoint_axes(self):
        data = WeightedData(np.eye(4)[:, :1], 2.0 * np.eye(4)[:, 1:2])
        ef = fast_eigh(1.0, LowRankFactor.identity(4, 1.0), data)
        assert_allclose(ef.D, [1.0, -4.0], atol=1e-12)
        assert_allclose(np.abs(ef.E[:, 0]), np.eye(4)[:, 0], atol=1e-12)
        assert_allclose(np.abs(ef.E[:, 1]), np.eye(4)[:, 1], atol=1e-12)
        assert_allclose(ef.full_spectrum(), [2.0, 1.0, 1.0, -3.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        alpha, factor, data = random_instance(rng, 10, 3, 2, 2)
        ef = fast_eigh(alpha, factor, data)
        dense_vals, _ = dense_spectrum(materialize(alpha, factor, data))
        assert_allclose(ef.full_spectrum(), dense_vals, atol=1e-9)

    def test_eigenvector_residuals(self):
        rng = np.random.default_rng(77)
        alpha, factor, data = random_instance(rng, 12, 2, 3, 2)
        ef = fast_eigh(alpha, factor, data)
        a = materialize(alpha, factor, data)
        for i in range(ef.rank):
            v = ef.E[:, i]
            lam = ef.alpha + ef.D[i]
            assert np.linalg.norm(a @ v - lam * v) <= 1e-8 * np.linalg.norm(a)

    def test_spectrum_invariant_under_column_permutations(self):
        rng = np.random.default_rng(55)
        alpha, factor, data = random_instance(rng, 11, 2, 3, 2)
        base = fast_eigh(alpha, factor, data).full_spectrum()
        perm_x = data.X[:, rng.permutation(3)]
        perm_y = data.Y[:, rng.permutation(2)]
        shuffled = fast_eigh(alpha, factor, WeightedData(perm_x, perm_y)).full_spectrum()
        assert_allclose(shuffled, base, atol=1e-9)

    def test_spectrum_invariant_under_basis_rotation(self):
        rng = np.random.default_rng(56)
        alpha, factor, data = random_instance(rng, 11, 3, 2, 1)
        base = fast_eigh(alpha, factor, data).full_spectrum()
        o = symmetric_eig(random_symmetric(rng, 3)).E  # random orthogonal
        rotated = LowRankFactor(factor.alpha, factor.Q @ o, o.T @ factor.B @ o)
        assert_allclose(fast_eigh(alpha, rotated, data).full_spectrum(), base, atol=1e-9)

    def test_rank_overflow_rejected(self):
        factor = LowRankFactor.identity(4, 1.0)
        data = WeightedData(np.ones((4, 3)), np.ones((4, 2)))
        with pytest.raises(DimensionError, match="dense_fallback"):
            fast_eigh(1.0, factor, data)

    def test_one_signed_augmentation(self, monkeypatch):
        module = importlib.import_module("loweig.fast_eigh")
        original = module._signed_core
        calls = []

        def counting(b, p, r, sign):
            calls.append(np.asarray(sign).copy())
            return original(b, p, r, sign)

        monkeypatch.setattr(module, "_signed_core", counting)
        rng = np.random.default_rng(58)
        alpha, factor, data = random_instance(rng, 10, 2, 3, 2)
        fast_eigh(alpha, factor, data)
        assert len(calls) == 1
        assert_allclose(calls[0], [1.0, 1.0, 1.0, -1.0, -1.0])


class TestSvdRoute:
    def test_single_axis(self):
        ef = svd_route(1.0, 3.0 * np.eye(2)[:, :1])
        assert_allclose(ef.D, [9.0], atol=1e-12)
        assert_allclose(np.abs(ef.E), np.eye(2)[:, :1], atol=1e-12)
        assert_allclose(ef.full_spectrum(), [10.0, 1.0], atol=1e-12)

    def test_zero_matrix_truncates_to_empty(self):
        ef = svd_route(2.0, np.zeros((5, 3)))
        assert ef.rank == 0
        assert_allclose(ef.full_spectrum(), np.full(5, 2.0))

    def test_agrees_with_general_pipeline(self):
        rng = np.random.default_rng(63)
        x = rng.standard_normal((9, 3))
        via_svd = svd_route(1.0, x)
        via_feigh = fast_eigh(
            1.0, LowRankFactor.identity(9, 1.0), WeightedData(x, np.zeros((9, 0)))
        )
        assert_allclose(via_svd.full_spectrum(), via_feigh.full_spectrum(), atol=1e-9)


class TestDenseFallback:
    def test_scalar_case(self):
        factor = LowRankFactor.identity(1, 0.0)
        data = WeightedData(np.array([[3.0]]), np.zeros((1, 0)))
        ef = dense_fallback(2.0, factor, data)
        assert_allclose(ef.full_spectrum(), [11.0], atol=1e-12)

    def test_identity_only(self):
        ef = dense_fallback(5.0, LowRankFactor.identity(4, 5.0), WeightedData.empty(4))
        assert_allclose(ef.full_spectrum(), np.full(4, 5.0), atol=1e-12)
        assert ef.rank == 4
        assert ef.alpha == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_fast_path(self, seed):
        rng = np.random.default_rng(900 + seed)
        alpha, factor, data = random_instance(rng, 9, 2, 2, 2)
        fast = fast_eigh(alpha, factor, data).full_spectrum()
        dense = dense_fallback(alpha, factor, data).full_spectrum()
        assert_allclose(fast, dense, atol=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("call", [dense_fallback, materialize])
    def test_overflow_has_the_fast_paths_verdict(self, call):
        # at 1e200 the products overflow: the dense matrix gets the verdict
        # the core gets, with no warning and no name the caller did not pass
        alpha, factor, data = random_instance(np.random.default_rng(901), 9, 2, 2, 2)
        data = WeightedData(data.X * 1e200, data.Y * 1e200)
        with pytest.raises(ValueError, match="^the spectrum overflows float64 at this data scale$"):
            call(alpha, factor, data)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("call", [dense_fallback, materialize])
    @pytest.mark.parametrize("name", ["Q", "B", "X", "Y"])
    def test_nan_written_after_construction_is_named(self, call, name):
        # a NaN is no overflow: the dense matrix's verdict names the array
        factor = LowRankFactor(1.0, np.eye(6)[:, :2], np.eye(2))
        data = WeightedData(np.ones((6, 1)), np.ones((6, 1)))
        array = {"Q": factor.Q, "B": factor.B, "X": data.X, "Y": data.Y}[name]
        array[0, 0] = np.nan
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            call(1.0, factor, data)


class TestTypes:
    def test_low_rank_factor_validation(self):
        with pytest.raises(ValueError):
            LowRankFactor(1.0, np.ones((3, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            LowRankFactor(-1.0, np.zeros((3, 0)), np.zeros((0, 0)))
        with pytest.raises(ValueError):
            LowRankFactor(1.0, np.eye(3)[:, :2], np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(DimensionError, match="^Q must be tall, got 2 x 3$"):
            LowRankFactor(1.0, np.eye(2, 3), np.eye(3))

    def test_low_rank_factor_stores_b_exactly_symmetric(self):
        q = np.eye(4)[:, :2]
        exact = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert LowRankFactor(1.0, q, exact).B is exact
        near = np.array([[2.0, 1.0], [1.0 + 1e-15, 3.0]])
        stored = LowRankFactor(1.0, q, near).B
        assert np.array_equal(stored, stored.T)
        assert np.array_equal(stored, (near + near.T) / 2.0)

    def test_weighted_data_row_counts_must_match(self):
        with pytest.raises(DimensionError, match="^X and Y row counts differ: 3 vs 4$"):
            WeightedData(np.ones((3, 1)), np.ones((4, 1)))

    @pytest.mark.parametrize("call", [fast_eigh, dense_fallback])
    def test_data_dimension_must_match_factor(self, call):
        with pytest.raises(DimensionError,
                           match="^data dimension 5 does not match factor 4$"):
            call(1.0, LowRankFactor.identity(4, 1.0), WeightedData.empty(5))

    def test_weighted_data_from_pairs(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        data = WeightedData.from_weighted(vectors, [4.0, -9.0, 0.0])
        assert_allclose(data.X, 2.0 * vectors[:1].T)
        assert_allclose(data.Y, 3.0 * vectors[1:2].T)

    def test_weighted_data_empty_needs_dim(self):
        data = WeightedData.from_weighted(np.zeros((0, 5)), [], dim=5)
        assert data.X.shape == (5, 0)
        with pytest.raises(DimensionError):
            WeightedData.from_weighted([], [])

    def test_eigenfactor_validation(self):
        with pytest.raises(ValueError):
            EigenFactor(0.0, np.eye(3)[:, :2], np.array([1.0, 2.0]))  # ascending
        with pytest.raises(ValueError):
            EigenFactor(0.0, np.ones((3, 2)), np.array([2.0, 1.0]))  # not orthonormal
        with pytest.raises(DimensionError, match=r"^D must have length 2, got \(1,\)$"):
            EigenFactor(0.0, np.eye(3)[:, :2], np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_eigenfactor_non_finite(self, bad):
        # finiteness is read off the orthonormality Gram; the scan behind it
        # keeps the message
        e = random_orthonormal(np.random.default_rng(3), 6, 2)
        e[4, 1] = bad
        with pytest.raises(ValueError, match="^E contains non-finite entries$"):
            EigenFactor(0.0, e, np.array([2.0, 1.0]))

    @pytest.mark.parametrize("d", [
        [np.nan], [np.inf], [2.0, np.nan], [np.nan, 1.0], [3.0, np.nan, 1.0],
        [np.inf, 1.0, 0.0], [2.0, 1.0, -np.inf],
    ])
    def test_eigenfactor_non_finite_d(self, d):
        # a NaN fails every order comparison, and the ends bound the rest
        e = random_orthonormal(np.random.default_rng(4), 6, len(d))
        with pytest.raises(ValueError, match="^D must be finite and sorted descending$"):
            EigenFactor(0.0, e, np.array(d))

    def test_overflowing_gram_is_not_orthonormal(self):
        # finite entries whose Gram overflows: an orthonormality error, not
        # an OverflowError from the norm of an infinite residual
        with pytest.raises(ValueError, match="orthonormal"):
            LowRankFactor(1.0, np.full((3, 1), 1e200), np.eye(1))

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        # fast_eigh and factor_to_eig check alpha as the EigenFactor they
        # return would
        _, factor, data = random_instance(np.random.default_rng(5), 30, 2, 2, 1)
        with pytest.raises(ValueError, match="^alpha must be finite$"):
            fast_eigh(alpha, factor, data)
        with pytest.raises(ValueError, match="^alpha must be finite$"):
            factor_to_eig(alpha, factor.Q, factor.B)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_dense_paths_reject_non_finite_alpha(self, alpha):
        # the dense matrix is built only from a finite alpha, so no warning
        # from alpha * I and no message that names b
        _, factor, data = random_instance(np.random.default_rng(6), 30, 2, 2, 1)
        with pytest.raises(ValueError, match="^alpha must be finite$"):
            dense_fallback(alpha, factor, data)
        with pytest.raises(ValueError, match="^alpha must be finite$"):
            materialize(alpha, factor, data)

    @pytest.mark.parametrize("seed", range(3))
    def test_results_are_checked_eigenfactors(self, seed):
        # the results carry what EigenFactor's own checks measure
        alpha, factor, data = random_instance(np.random.default_rng(seed), 40, 3, 2, 2)
        for ef in (fast_eigh(alpha, factor, data), factor_to_eig(alpha, factor.Q, factor.B)):
            ref = EigenFactor(ef.alpha, ef.E, ef.D)
            assert type(ef) is EigenFactor and type(ef.alpha) is float
            assert ef.orthogonality == ref.orthogonality
            assert repr(ef) == repr(ref)


class TestFromWeighted:
    """``from_weighted`` writes X and Y in C order, each entry the one
    product ``x_ij * sqrt(|w_i|)``."""

    @staticmethod
    def elementwise(vectors, weights):
        w = np.asarray(weights, dtype=float)
        pos, neg = w > 0.0, w < 0.0
        x = (vectors[pos] * np.sqrt(w[pos])[:, None]).T
        return x, (vectors[neg] * np.sqrt(-w[neg])[:, None]).T

    @pytest.mark.parametrize("seed", range(20))
    def test_c_order_and_elementwise_values(self, seed):
        # zero weights among the draws are dropped, as the formula drops them
        rng = np.random.default_rng([seed, 11])
        count, m = int(rng.integers(1, 9)), int(rng.integers(1, 300))
        vectors = rng.standard_normal((count, m)) * 10.0 ** rng.uniform(-150, 150, (count, 1))
        weights = rng.choice([-2.5, -1.0, 0.0, 0.25, 4.0], count)
        weights *= 10.0 ** rng.uniform(-5, 5, count)
        vectors[:, rng.integers(0, m)] = 0.0  # exact zeros stay zeros
        data = WeightedData.from_weighted(vectors, weights)
        x, y = self.elementwise(vectors, weights)
        for got, ref in ((data.X, x), (data.Y, y)):
            assert got.flags.c_contiguous
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("weights", [[], [0.0, 0.0]])
    def test_empty_batches(self, weights):
        data = WeightedData.from_weighted(np.zeros((len(weights), 5)), weights, dim=5)
        for block in (data.X, data.Y):
            assert block.shape == (5, 0) and block.flags.c_contiguous

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("sign, name", [(1.0, "X"), (-1.0, "Y")])
    def test_non_finite_vector_named(self, bad, sign, name):
        # the vector leaves non-finite entries in its column of X or Y; the
        # check of that block names it, and no RuntimeWarning escapes
        vectors = np.ones((3, 6))
        vectors[1, 4] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
                WeightedData.from_weighted(vectors, [-sign, sign * 4.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        # NaN is neither > 0 nor < 0, so it would be dropped like a zero weight
        with pytest.raises(ValueError, match="^weights must be finite$"):
            WeightedData.from_weighted(np.ones((3, 4)), [1.0, bad, -1.0])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_finite_vectors_whose_scaling_overflows_named(self, sign):
        # 1e300 * sqrt(1e30) is past float64, though vector and weight are finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the scaled batch overflows float64$"):
                WeightedData.from_weighted(1e300 * np.ones((1, 6)), [sign * 1e30])

    def test_non_finite_vector_with_zero_weight_dropped(self):
        vectors = np.ones((2, 4))
        vectors[0, 1] = np.nan
        data = WeightedData.from_weighted(vectors, [0.0, 1.0])
        assert np.array_equal(data.X, vectors[1:].T)

    def test_dim_must_match_vector_length(self):
        with pytest.raises(DimensionError, match="^vectors have length 5, dim is 7$"):
            WeightedData.from_weighted(np.ones((2, 5)), [1.0, -1.0], dim=7)
        data = WeightedData.from_weighted(np.ones((2, 5)), [1.0, -1.0], dim=5)
        assert data.X.shape == data.Y.shape == (5, 1)


class TestSignedCore:
    """``_signed_core`` fills one preallocated core in place; it equals the
    ``np.block`` assembly, symmetrized, bit for bit."""

    @staticmethod
    def block_reference(b, p, r, w):
        pw = p * w
        cross = pw @ r.T
        bc = np.block([[b + pw @ p.T, cross], [cross.T, (r * w) @ r.T]])
        return (bc + bc.T) / 2.0

    @pytest.mark.parametrize("n, k, kr", [(3, 4, 4), (5, 3, 2), (0, 3, 3), (4, 2, 0),
                                          (0, 2, 0), (32, 8, 8)])
    def test_matches_block_assembly(self, n, k, kr):
        rng = np.random.default_rng([n, k, kr])
        b = rng.standard_normal((n, n))  # not symmetric: the core symmetrizes it
        p = rng.standard_normal((n, k))
        r = np.triu(rng.standard_normal((kr, k)))
        w = rng.choice([-1.0, 1.0], k)
        core = _signed_core(b, p, r, w)
        ref = self.block_reference(b, p, r, w)
        assert core.shape == (n + kr, n + kr)
        assert np.array_equal(core, ref)
        assert np.array_equal(core, core.T)

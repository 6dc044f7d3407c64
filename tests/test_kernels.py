"""Kernel identities: reconstruction, orthogonality, trace and determinant."""

import importlib
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from loweig import (
    DimensionError,
    SymEig,
    ThinSvd,
    orthonormal_residual,
    symmetric_eig,
    thin_svd,
)

from loweig.kernels import (
    _as_matrix,
    _block_rows,
    _check_orthonormal,
    _fro,
    _norm,
    _project,
    _row_blocks,
    _safe_scale,
    _self_gram,
)

from helpers import cofactor_det, laid_out, random_orthonormal


class TestThinSvd:
    def test_single_column(self):
        svd = thin_svd(np.array([[3.0], [4.0]]))
        assert_allclose(svd.S, [5.0], atol=1e-14)
        assert_allclose(svd.U, [[0.6], [0.8]], atol=1e-14)
        assert_allclose(np.abs(svd.V), [[1.0]], atol=1e-14)

    def test_identity(self):
        svd = thin_svd(np.eye(3))
        assert_allclose(svd.S, np.ones(3), atol=1e-14)
        assert_allclose(svd.U @ np.diag(svd.S) @ svd.V.T, np.eye(3), atol=1e-12)

    def test_singular_values_match_gram_eigenvalues(self):
        # Oracle: eigenvalues of A^T A through the symmetric solver.
        rng = np.random.default_rng(11)
        a = rng.standard_normal((8, 3))
        svd = thin_svd(a)
        gram_eigs = symmetric_eig(a.T @ a).D
        assert_allclose(svd.S, np.sqrt(np.maximum(gram_eigs, 0.0)), atol=1e-10)
        recon = svd.U @ np.diag(svd.S) @ svd.V.T
        assert np.linalg.norm(recon - a) <= 1e-10 * max(1.0, np.linalg.norm(a))

    def test_rank_deficient_columns_stay_orthonormal(self):
        rng = np.random.default_rng(5)
        col = rng.standard_normal((6, 1))
        a = np.hstack([col, col, rng.standard_normal((6, 1))])
        svd = thin_svd(a)
        k = a.shape[1]
        assert np.linalg.norm(svd.U.T @ svd.U - np.eye(k)) <= 1e-12 * np.sqrt(k)
        recon = svd.U @ np.diag(svd.S) @ svd.V.T
        assert np.linalg.norm(recon - a) <= 1e-10 * max(1.0, np.linalg.norm(a))

    def test_zero_matrix(self):
        svd = thin_svd(np.zeros((4, 2)))
        assert_allclose(svd.S, np.zeros(2))
        assert np.linalg.norm(svd.U.T @ svd.U - np.eye(2)) <= 1e-12 * np.sqrt(2)

    def test_empty(self):
        svd = thin_svd(np.zeros((3, 0)))
        assert svd.U.shape == (3, 0)
        assert svd.S.shape == (0,)
        assert svd.V.shape == (0, 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_invariants_random(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 33))
        k = int(rng.integers(0, m + 1))
        a = rng.standard_normal((m, k))
        svd = thin_svd(a)
        sqk = np.sqrt(max(1, k))
        assert np.linalg.norm(svd.U.T @ svd.U - np.eye(k)) <= 1e-12 * sqk
        assert np.linalg.norm(svd.V.T @ svd.V - np.eye(k)) <= 1e-12 * sqk
        assert np.all(svd.S >= 0.0)
        assert np.all(np.diff(svd.S) <= 0.0)
        recon = svd.U @ np.diag(svd.S) @ svd.V.T
        assert np.linalg.norm(recon - a) <= 1e-10 * max(1.0, np.linalg.norm(a))

    @pytest.mark.parametrize("exponent", [-150, -90, 90, 150])
    def test_extreme_scales_stay_orthonormal(self, exponent):
        # entry squares leave the normal double range without pre-scaling
        rng = np.random.default_rng(abs(exponent))
        a = 10.0**exponent * rng.standard_normal((12, 4))
        svd = thin_svd(a)
        assert np.linalg.norm(svd.U.T @ svd.U - np.eye(4)) <= 1e-12 * 2.0
        recon = svd.U @ np.diag(svd.S) @ svd.V.T
        assert np.linalg.norm(recon - a) <= 1e-10 * np.linalg.norm(a)

    def test_wide_matrix_rejected(self):
        with pytest.raises(DimensionError):
            thin_svd(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            thin_svd(np.array([[np.nan], [1.0]]))


class TestSymmetricEig:
    def test_diagonal(self):
        eig = symmetric_eig(np.diag([3.0, 1.0, 2.0]))
        assert_allclose(eig.D, [3.0, 2.0, 1.0], atol=1e-14)
        assert_allclose(np.abs(eig.E), np.eye(3)[:, [0, 2, 1]], atol=1e-14)

    def test_exchange_matrix(self):
        eig = symmetric_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(eig.D, [1.0, -1.0], atol=1e-14)
        s = 1.0 / np.sqrt(2.0)
        for col, expected in ((0, [s, s]), (1, [s, -s])):
            v = eig.E[:, col]
            assert min(np.linalg.norm(v - expected), np.linalg.norm(v + expected)) < 1e-12

    def test_trace_and_reconstruction(self):
        rng = np.random.default_rng(23)
        g = rng.standard_normal((6, 6))
        b = (g + g.T) / 2.0
        eig = symmetric_eig(b)
        assert abs(eig.D.sum() - np.trace(b)) <= 1e-10 * max(1.0, abs(np.trace(b)))
        recon = eig.E @ np.diag(eig.D) @ eig.E.T
        assert np.linalg.norm(recon - b) <= 1e-10 * max(1.0, np.linalg.norm(b))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_determinant_against_cofactor_expansion(self, k):
        rng = np.random.default_rng(100 + k)
        g = rng.standard_normal((k, k))
        b = (g + g.T) / 2.0
        eig = symmetric_eig(b)
        assert_allclose(np.prod(eig.D), cofactor_det(b), rtol=1e-9, atol=1e-12)

    def test_matches_numpy_on_random_symmetric(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((10, 10))
        b = a @ a.T
        ours = symmetric_eig(b).D
        theirs = np.sort(np.linalg.eigvalsh(b))[::-1]
        assert_allclose(ours, theirs, atol=1e-8 * np.linalg.norm(b))

    @pytest.mark.parametrize("exponent", [-150, 150])
    def test_extreme_scales(self, exponent):
        rng = np.random.default_rng(7)
        g = 10.0**exponent * rng.standard_normal((6, 6))
        b = (g + g.T) / 2.0
        eig = symmetric_eig(b)
        assert np.linalg.norm(eig.E.T @ eig.E - np.eye(6)) <= 1e-12 * np.sqrt(6)
        recon = eig.E @ np.diag(eig.D) @ eig.E.T
        assert np.linalg.norm(recon - b) <= 1e-10 * np.linalg.norm(b)

    def test_empty(self):
        eig = symmetric_eig(np.zeros((0, 0)))
        assert eig.D.shape == (0,)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            symmetric_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_descending_ties_keep_order(self):
        eig = symmetric_eig(np.diag([2.0, 2.0, 1.0]))
        assert_allclose(eig.D, [2.0, 2.0, 1.0])
        assert_allclose(np.abs(eig.E), np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("b, error, message", [
        ([[1.0, np.nan], [np.nan, 1.0]], ValueError, "b contains non-finite entries"),
        ([[1.0, 1.0], [0.0, 1.0]], ValueError, "b is not symmetric within tolerance"),
        (np.ones((2, 3)), DimensionError, "b must be 2 x 2, got (2, 3)"),
        (np.ones(3), DimensionError, "b must be 2-dimensional, got shape (3,)"),
    ])
    def test_errors_name_b(self, b, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            symmetric_eig(b)

    def test_within_tolerance_decomposes_the_symmetrized_matrix(self):
        b = np.array([[2.0, 1.0], [1.0 + 1e-15, 3.0]])
        eig = symmetric_eig(b)
        ref = symmetric_eig((b + b.T) / 2.0)
        assert np.array_equal(eig.D, ref.D) and np.array_equal(eig.E, ref.E)


class TestRecordChecks:
    """The constructors of the kernels' result records check their factors."""

    @pytest.mark.parametrize("args, error, message", [
        ((np.eye(3)[:, :2], np.ones(3), np.eye(3)), DimensionError,
         "inconsistent thin-SVD factor shapes"),
        ((np.eye(3)[:, :2], np.ones(2), np.eye(3)), DimensionError,
         "inconsistent thin-SVD factor shapes"),
        ((np.eye(3)[:, :2], np.array([1.0, 2.0]), np.eye(2)), ValueError,
         "singular values must be nonnegative and descending"),
        ((np.eye(3)[:, :2], np.array([1.0, -1.0]), np.eye(2)), ValueError,
         "singular values must be nonnegative and descending"),
    ])
    def test_thin_svd(self, args, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            ThinSvd(*args)

    @pytest.mark.parametrize("args, error, message", [
        ((np.eye(2), np.ones(3)), DimensionError, "inconsistent eigendecomposition shapes"),
        ((np.eye(3)[:, :2], np.ones(2)), DimensionError, "inconsistent eigendecomposition shapes"),
        ((np.eye(2), np.array([1.0, 2.0])), ValueError, "eigenvalues must be sorted descending"),
    ])
    def test_sym_eig(self, args, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            SymEig(*args)


class TestOrthonormalResidual:
    def test_inside_span(self):
        q = np.eye(3)[:, :1]
        p, xres = orthonormal_residual(q, np.eye(3)[:, :1])
        assert_allclose(p, [[1.0]], atol=1e-14)
        assert_allclose(xres, np.zeros((3, 1)), atol=1e-14)

    def test_orthogonal_to_span(self):
        q = np.eye(3)[:, :1]
        p, xres = orthonormal_residual(q, np.eye(3)[:, 1:2])
        assert_allclose(p, [[0.0]], atol=1e-14)
        assert_allclose(xres, np.eye(3)[:, 1:2], atol=1e-14)

    def test_additive_split(self):
        rng = np.random.default_rng(3)
        q = random_orthonormal(rng, 6, 2)
        x = rng.standard_normal((6, 2))
        p, xres = orthonormal_residual(q, x)
        nx = np.linalg.norm(x)
        assert np.linalg.norm(q @ p + xres - x) <= 1e-12 * max(1.0, nx)
        assert np.linalg.norm(q.T @ xres) <= 1e-10 * max(1.0, nx)

    def test_nearly_in_range_deflates(self):
        # the case a single projection pass gets wrong
        rng = np.random.default_rng(8)
        q = random_orthonormal(rng, 20, 5)
        x = q @ rng.standard_normal((5, 2)) + 1e-13 * rng.standard_normal((20, 2))
        p, xres = orthonormal_residual(q, x)
        nx = np.linalg.norm(x)
        assert np.linalg.norm(q.T @ xres) <= 1e-10 * max(1.0, nx)
        assert np.linalg.norm(q @ p + xres - x) <= 1e-12 * max(1.0, nx)

    def test_empty_basis(self):
        x = np.arange(6.0).reshape(3, 2)
        p, xres = orthonormal_residual(np.zeros((3, 0)), x)
        assert p.shape == (0, 2)
        assert_allclose(xres, x)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError):
            orthonormal_residual(np.ones((3, 2)), np.ones((3, 1)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            orthonormal_residual(np.eye(3)[:, :1], np.ones((4, 1)))


class TestAllocationFreeChecks:
    """The finiteness scan, the scale and the norm keep their results."""

    @pytest.mark.parametrize(
        "row", [[1.0, np.nan], [np.inf, 1.0], [1.0, -np.inf], [np.inf, -np.inf]]
    )
    def test_non_finite_rejected(self, row):
        with pytest.raises(ValueError, match="non-finite"):
            _as_matrix(np.array([row]), "a")

    @pytest.mark.parametrize("value", [1e308, -1e308])
    def test_overflowing_sum_of_finite_entries_accepted(self, value):
        a = np.full((1, 2), value)
        with np.errstate(over="ignore"):
            assert not math.isfinite(a.sum())
        assert _as_matrix(a, "a") is a

    @staticmethod
    def reference_scale(a):
        amax = float(np.max(np.abs(a)))
        if amax == 0.0 or 1e-70 <= amax <= 1e70:
            return 1.0
        return 2.0 ** math.floor(math.log2(amax))

    @pytest.mark.parametrize("exponent", [-150, 0, 150])
    @pytest.mark.parametrize("contiguous", [True, False])
    def test_scale_and_norm_unchanged(self, exponent, contiguous):
        rng = np.random.default_rng(exponent + 150)
        a = 10.0**exponent * rng.standard_normal((40, 7))
        if not contiguous:
            a = a[:, 1::2]
            assert not a.flags.c_contiguous
        scale = self.reference_scale(a)
        assert (scale == 1.0) == (exponent == 0)
        assert _safe_scale(a) == scale
        expected = math.sqrt(math.fsum((a / scale).ravel() ** 2)) * scale
        assert _fro(a) == pytest.approx(expected, rel=1e-14)

    def test_negative_extreme_sets_scale(self):
        a = np.array([[-3e150, 1.0]])
        assert _safe_scale(a) == self.reference_scale(a)


class TestBlockResidual:
    def test_blocks_match_concatenation(self):
        rng = np.random.default_rng(31)
        q = random_orthonormal(rng, 30, 4)
        x, y = rng.standard_normal((30, 3)), rng.standard_normal((30, 2))
        p, res = _project(q, (x, y))
        p_ref, res_ref = orthonormal_residual(q, np.hstack([x, y]))
        assert_allclose(p, p_ref, rtol=0, atol=1e-13)
        assert_allclose(res, res_ref, rtol=0, atol=1e-13)


def block_edges(k):
    """Row counts around the row blocks of a k-column array: none, one, a
    few, exactly one block, one block and a row, and several blocks."""
    rows = _block_rows(k)
    return [0, 1, 64, rows, rows + 1, 3 * rows + 5]


@pytest.mark.parametrize("width", [1, 6, 12, 80])
def test_even_rows_leave_no_short_tail(width):
    # round(m / rows) blocks of one size but the last, shorter by less than
    # their count, none over 1.5 blocks of rows: a tail of a few rows is
    # merged, and one of half a block or more becomes a block of its own
    rows = _block_rows(width)
    for m in [0, 1, 64, rows - 1, rows, rows + 2, rows * 3 // 2 + 1, 3 * rows + 2,
              3 * rows + rows // 2, 48 * rows + 16]:
        blocks = _row_blocks(m, width)
        sizes = [b.stop - b.start for b in blocks]
        # in order and contiguous, covering range(m) exactly
        assert [b.start for b in blocks] == [sum(sizes[:i]) for i in range(len(sizes))]
        assert sum(sizes) == m
        step = sizes[0] if sizes else 1
        assert len(sizes) == (max(1, round(m / rows)) if m else 0)
        assert all(size == step for size in sizes[:-1])
        assert not sizes or sizes[-1] > step - len(sizes)
        assert step <= max(m, 1) and (m <= rows or step <= 1.5 * rows + 1)


def test_block_gram_packs_even_panels(monkeypatch):
    # three blocks' rows and two more: the two rows join the last block, not
    # a fourth panel of their own, and the Gram is the same up to rounding
    kernels = importlib.import_module("loweig.kernels")
    m = 3 * _block_rows(3) + 2
    rng = np.random.default_rng(3)
    q = random_orthonormal(rng, m, 1)
    x, y = rng.standard_normal((m, 1)), rng.standard_normal((m, 1))
    real, packed = kernels._panels, []

    def counted(parts, blocks):
        for rows, panel in real(parts, blocks):
            packed.append(rows)
            yield rows, panel

    monkeypatch.setattr(kernels, "_panels", counted)
    p, zz = kernels._block_gram(q, [x, y])
    assert len(packed) == 3
    z = np.hstack([x, y])
    assert_allclose(p, q.T @ z, rtol=1e-12, atol=1e-12)
    assert_allclose(zz, z.T @ z, rtol=1e-12)


class TestNorm:
    """``_norm`` is ``np.linalg.norm`` to the last bit, whatever the layout,
    and overflows and underflows where it does."""

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 1), (4, 3), (7, 40), (300, 2)])
    def test_equals_numpy_norm(self, shape, layout):
        rng = np.random.default_rng(shape)
        a = laid_out(rng, *shape, layout)
        assert _norm(a) == float(np.linalg.norm(a))

    @pytest.mark.parametrize("value, expected", [
        (1e200, math.inf), (1e-200, 0.0), (np.nan, math.nan), (np.inf, math.inf),
    ])
    def test_extremes_unscaled(self, value, expected):
        a = np.full((2, 2), value)
        with np.errstate(over="ignore"):
            got, ref = _norm(a), float(np.linalg.norm(a))
        assert got == ref or (math.isnan(got) and math.isnan(ref))
        assert got == expected or (math.isnan(got) and math.isnan(expected))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSelfGram:
    """``_self_gram`` is ``a.T @ a`` up to rounding, whichever product
    computes it, and ``_check_orthonormal`` keeps its verdicts and messages
    on the thin path."""

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("k", range(1, 14))
    def test_matches_numpy_gram(self, k, layout):
        rng = np.random.default_rng(k)
        for m in block_edges(k):
            a = laid_out(rng, m, k, layout)
            g = _self_gram(a)
            assert g.shape == (k, k)
            # each is a sum of m products, within m eps of the sum of |terms|
            abs_gram = np.abs(a).T @ np.abs(a)
            bound = 2.0 * max(m, 1) * np.finfo(float).eps * abs_gram
            assert np.all(np.abs(g - a.T @ a) <= bound)

    @pytest.mark.parametrize("k", [2, 6, 12, 13])
    def test_orthonormal_accepted(self, k):
        rng = np.random.default_rng(k)
        for m in block_edges(k)[2:]:
            q = random_orthonormal(rng, m, k)
            norm = _check_orthonormal(q, "E")
            assert norm == pytest.approx(np.linalg.norm(q.T @ q - np.eye(k)), abs=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [2, 6, 12, 13])
    def test_non_finite_in_last_partial_block(self, k, bad):
        rows = _block_rows(k)
        q = random_orthonormal(np.random.default_rng(k), 2 * rows + 7, k)
        q[-3, k - 1] = bad
        with pytest.raises(ValueError, match="^E contains non-finite entries$"):
            _check_orthonormal(q, "E")

    @pytest.mark.parametrize("columns", ["all", "last"])
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("k", [2, 6, 12, 13])
    def test_overflow_and_underflow_rejected(self, k, scale, columns):
        # the squares overflow to inf or flush to 0: either way not orthonormal
        rows = _block_rows(k)
        q = random_orthonormal(np.random.default_rng(k), 2 * rows + 7, k)
        q[:, -1 if columns == "last" else slice(None)] *= scale
        with pytest.raises(ValueError, match="^E does not have orthonormal columns$"):
            _check_orthonormal(q, "E")

    @pytest.mark.parametrize("k", [1, 2, 6, 12, 13])
    def test_no_rows_rejected(self, k):
        with pytest.raises(ValueError, match="^q does not have orthonormal columns$"):
            _check_orthonormal(np.zeros((0, k)), "q")

    @pytest.mark.parametrize("m", block_edges(2))
    def test_no_columns_accepted(self, m):
        assert _check_orthonormal(np.zeros((m, 0)), "Q") == 0.0

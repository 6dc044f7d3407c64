"""The fast path's two routes against the dense oracle.

``fast_eigh`` takes the Gram route (P and R from one Gram of ``[Q X Y]`` and
one ``eigh`` of ``Z^T Z - P^T P``, the SVQR step) when
``sigma_min(R) >= GRAM_MIN_RATIO * ||Z||_F``, and the two-pass route (two
projections and an SVD of the residual) otherwise. Each test states which
route its instance must take, from a dense computation of the novelty, and
checks the result against ``dense_fallback`` at the suite's usual
tolerances. ``TestVerdicts`` checks that invalid input raises the same
errors on either route, wherever its invariant is now verified.
"""

import importlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from loweig import (
    LowRankFactor,
    WeightedData,
    augment,
    dense_fallback,
    fast_eigh,
    materialize,
    svd_route,
)
from loweig.fast_eigh import (
    GRAM_MIN_RATIO,
    _GRAM_HIGH,
    _GRAM_LOW,
    _core_eig,
    _gram_route,
    _scaled_gram,
)
from loweig.kernels import _PANEL_MAX_WIDTH, _SAFE_HIGH, _SAFE_LOW, _block_rows, _safe_scale

from helpers import laid_out, random_orthonormal, random_symmetric


def gram_route(q, b, blocks, w, loss):
    """``(P, R^-1, core, ratio)`` of ``_gram_route`` as ``_core_eig`` calls
    it for a Z that is not empty, or None where the route declines. The core
    is returned as built, not diagonalized, for at 1e160 it overflows."""
    module = importlib.import_module("loweig.fast_eigh")
    with mock.patch.object(module, "_core_symmetric_eig", lambda b, core: core), \
            np.errstate(over="ignore", invalid="ignore"):
        core, _ = _gram_route(b, (q,), blocks, w, loss)
    return None if core is None else (core.p, core.rinv, core.eig, core.novelty_ratio)


def dense_novelty(q, z):
    """``(sigma_min / ||Z||_F, rank)`` of Z's part outside span(q), densely."""
    res = z - q @ (q.T @ z)
    res -= q @ (q.T @ res)
    s = np.linalg.svd(res, compute_uv=False)
    rank = np.linalg.matrix_rank(np.hstack([q, z])) - q.shape[1]
    return s[-1] / np.linalg.norm(z), rank


def expected_route(ratio):
    return "gram" if ratio >= GRAM_MIN_RATIO else "two-pass"


def assert_matches_dense(alpha, factor, data, scale=1.0):
    """Spectrum, orthonormality and eigen-residuals of ``fast_eigh`` against
    ``dense_fallback``; ``scale`` is the spectrum's order of magnitude."""
    ef = fast_eigh(alpha, factor, data)
    dense = dense_fallback(alpha, factor, data)
    assert_allclose(ef.full_spectrum(), dense.D, rtol=0, atol=1e-9 * scale)
    assert np.linalg.norm(ef.E.T @ ef.E - np.eye(ef.rank)) <= 1e-9
    # divided by the scale so that the norms neither overflow nor underflow
    a = materialize(alpha, factor, data) / scale
    for i in range(ef.rank):
        v = ef.E[:, i]
        lam = (ef.alpha + ef.D[i]) / scale
        assert np.linalg.norm(a @ v - lam * v) <= 1e-8 * np.linalg.norm(a)


def near_span_instance(rng, eps, m=40, n=6, nx=3, ny=3):
    """``Z = Q C + eps G``: novelty of relative size ~eps outside span(Q)."""
    q = random_orthonormal(rng, m, n)
    factor = LowRankFactor(1.0, q, random_symmetric(rng, n))
    z = (q @ rng.standard_normal((n, nx + ny)) + eps * rng.standard_normal((m, nx + ny)))
    return factor, WeightedData(z[:, :nx] / math.sqrt(m), z[:, nx:] / math.sqrt(m))


class TestRouting:
    @pytest.mark.parametrize(
        "eps, route",
        [(1e-1, "gram"), (3e-2, "gram"), (1e-3, "two-pass"), (1e-4, "two-pass"),
         (1e-5, "two-pass"), (1e-6, "two-pass"), (1e-7, "two-pass"), (1e-8, "two-pass")],
    )
    def test_near_span_novelty(self, eps, route):
        rng = np.random.default_rng([11, round(-math.log10(eps) * 10)])
        factor, data = near_span_instance(rng, eps)
        ratio, _ = dense_novelty(factor.Q, np.hstack([data.X, data.Y]))
        assert expected_route(ratio) == route
        core = _core_eig(factor, data)
        assert core.route == route
        if route == "gram":
            assert core.novelty_ratio == pytest.approx(ratio, rel=1e-8)
            assert core.dropped == 0
        else:
            assert core.novelty_ratio is None
        assert_matches_dense(1.0, factor, data)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-8.0, -1.0))
    def test_near_span_property(self, seed, log_eps):
        rng = np.random.default_rng(seed)
        factor, data = near_span_instance(rng, 10.0**log_eps)
        ratio, _ = dense_novelty(factor.Q, np.hstack([data.X, data.Y]))
        core = _core_eig(factor, data)
        # the Gram route's own ratio differs from the dense one by rounding
        if abs(math.log10(ratio / GRAM_MIN_RATIO)) > 1e-3:
            assert core.route == expected_route(ratio)
        assert_matches_dense(1.0, factor, data)

    @pytest.mark.parametrize("seed", range(4))
    def test_near_span_on_a_q_that_lost_orthogonality(self, seed):
        # Q passes its check with ||Q^T Q - I||_F ~ 1e-11, and Z's novelty
        # ratio allows the Gram route, whose lift would amplify Q's loss by
        # up to 1 + ||P||_F^2 / lam_min past the check of E; the route guard
        # sends it the two-pass way, which keeps E's loss at Q's
        rng = np.random.default_rng([seed, 23])
        m, n = 64, 6
        q = random_orthonormal(rng, m, n) @ (np.eye(n) + 1e-12 * rng.standard_normal((n, n)))
        factor = LowRankFactor(1.0, q, random_symmetric(rng, n))
        z = q @ rng.standard_normal((n, 3)) + 0.02 * rng.standard_normal((m, 3))
        data = WeightedData(z[:, :2], z[:, 2:])
        assert_matches_dense(1.0, factor, data)
        ratio, _ = dense_novelty(q, z)
        assert ratio >= GRAM_MIN_RATIO and factor.orthogonality > 1e-12
        assert _core_eig(factor, data).route == "two-pass"

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_cancellation(self, seed):
        rng = np.random.default_rng([seed, 21])
        q = random_orthonormal(rng, 12, 2)
        factor = LowRankFactor(1.0, q, random_symmetric(rng, 2))
        x = rng.standard_normal((12, 3)) / math.sqrt(12)
        data = WeightedData(x, x)
        core = _core_eig(factor, data)
        assert (core.route, core.novelty_ratio, core.dropped) == ("two-pass", None, 3)
        assert_matches_dense(1.0, factor, data)

    @pytest.mark.parametrize("n, nx, ny", [(3, 3, 2), (0, 4, 4), (5, 0, 3), (6, 2, 0)])
    def test_full_rank_square(self, n, nx, ny):
        rng = np.random.default_rng([n, nx, ny])
        m = n + nx + ny
        factor = LowRankFactor(1.0, random_orthonormal(rng, m, n), random_symmetric(rng, n))
        data = WeightedData(rng.standard_normal((m, nx)), rng.standard_normal((m, ny)))
        ratio, rank = dense_novelty(factor.Q, np.hstack([data.X, data.Y]))
        core = _core_eig(factor, data)
        assert core.route == expected_route(ratio)
        assert core.dropped == nx + ny - rank
        assert_matches_dense(1.0, factor, data, scale=float(m))

    def test_square_reaches_both_routes(self):
        routes = set()
        for seed in range(20):
            rng = np.random.default_rng([seed, 8])
            factor = LowRankFactor(1.0, random_orthonormal(rng, 8, 3), random_symmetric(rng, 3))
            data = WeightedData(rng.standard_normal((8, 3)), rng.standard_normal((8, 2)))
            routes.add(_core_eig(factor, data).route)
            assert_matches_dense(1.0, factor, data, scale=8.0)
        assert routes == {"gram", "two-pass"}

    @pytest.mark.parametrize("case", ["zero column", "repeated column", "y inside x",
                                      "x inside q"])
    def test_rank_deficient_blocks(self, case):
        rng = np.random.default_rng(len(case))
        m, n = 15, 3
        q = random_orthonormal(rng, m, n)
        factor = LowRankFactor(1.0, q, random_symmetric(rng, n))
        x = rng.standard_normal((m, 3)) / math.sqrt(m)
        y = rng.standard_normal((m, 2)) / math.sqrt(m)
        if case == "zero column":
            x[:, 1] = 0.0
        elif case == "repeated column":
            x[:, 2] = x[:, 0]
        elif case == "y inside x":
            y = x @ rng.standard_normal((3, 2))
        else:
            x = q @ rng.standard_normal((n, 3))
        data = WeightedData(x, y)
        _, rank = dense_novelty(q, np.hstack([x, y]))
        core = _core_eig(factor, data)
        assert core.route == "two-pass"
        assert core.dropped == 5 - rank > 0
        assert_matches_dense(1.0, factor, data)

    @pytest.mark.parametrize("exponent", [-150, 150])
    def test_extreme_scales_end_to_end(self, exponent):
        rng = np.random.default_rng(exponent + 150)
        alpha, factor, data = 1.0, *near_span_instance(rng, 1.0, m=20, n=3, nx=2, ny=2)
        ratio = _core_eig(factor, data).novelty_ratio
        s = 10.0**exponent
        scaled_factor = LowRankFactor(alpha * s * s, factor.Q, factor.B * (s * s))
        scaled_data = WeightedData(data.X * s, data.Y * s)
        core = _core_eig(scaled_factor, scaled_data)
        assert core.route == "gram"
        assert core.novelty_ratio == pytest.approx(ratio, rel=1e-12)
        assert_matches_dense(alpha * s * s, scaled_factor, scaled_data, scale=s * s)

    @pytest.mark.parametrize("exponent", [-160, -150, 150, 160])
    def test_gram_factor_scales_exactly(self, exponent):
        # at 1e+-160 the squares leave the normal range: without the power-of-2
        # pre-scaling they overflow or keep only a few digits
        rng = np.random.default_rng(exponent + 160)
        factor, data = near_span_instance(rng, 1.0, m=20, n=3, nx=2, ny=2)
        w = np.array([1.0, 1.0, -1.0, -1.0])
        loss = factor.orthogonality
        p, rinv, _, ratio = gram_route(factor.Q, factor.B, [data.X, data.Y], w, loss)
        s = 10.0**exponent
        with np.errstate(over="ignore"):  # the core itself overflows at 1e160
            scaled = gram_route(factor.Q, factor.B, [data.X * s, data.Y * s], w, loss)
        assert scaled is not None
        ps, rinv_s, _, ratio_s = scaled
        assert np.linalg.norm(ps / s - p) <= 1e-12 * np.linalg.norm(p)
        assert np.linalg.norm(rinv_s * s - rinv) <= 1e-12 * np.linalg.norm(rinv)
        assert ratio_s == pytest.approx(ratio, rel=1e-12)

    @pytest.mark.parametrize("exponent", [0, -160, 150])
    def test_lift_is_q_v1_plus_u_v2(self, exponent):
        # the Gram route lifts through R^-1 without forming U; the lift must
        # be Q V1 + U V2 for U = (Z - Q P) R^-1, U orthonormal and
        # orthogonal to Q, within a few ulps of the sums of absolute terms
        rng = np.random.default_rng(exponent + 200)
        factor, data = near_span_instance(rng, 1.0, m=20, n=3, nx=2, ny=2)
        s = 10.0**exponent
        data = WeightedData(data.X * s, data.Y * s)
        core = _core_eig(factor, data)
        assert core.route == "gram"
        q, z, p, rinv, v = factor.Q, np.hstack([data.X, data.Y]), core.p, core.rinv, core.eig.E
        n = q.shape[1]
        u = (z - q @ p) @ rinv
        assert np.linalg.norm(u.T @ u - np.eye(u.shape[1])) <= 1e-12
        assert np.linalg.norm(q.T @ u) <= 1e-12
        e, _ = KERNELS._rotate(core.parts, core.coef(v))
        terms = (np.abs(q) @ np.abs(v[:n])
                 + (np.abs(z) + np.abs(q) @ np.abs(p)) @ (np.abs(rinv) @ np.abs(v[n:])))
        ulp = np.finfo(float).eps * 4 * v.shape[0]
        assert np.all(np.abs(e - (q @ v[:n] + u @ v[n:])) <= ulp * terms)

    @pytest.mark.parametrize("exponent", [-154, -160, -165, -200])
    def test_tiny_data_under_order_one_core(self, exponent):
        # B of order 1, X and Y scaled down: R's entries stay normal, but
        # their squares go subnormal or to 0, so the lift must not take them
        rng = np.random.default_rng(-exponent)
        factor, data = near_span_instance(rng, 1.0, m=20, n=3, nx=2, ny=2)
        s = 10.0**exponent
        tiny = WeightedData(data.X * s, data.Y * s)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _core_eig(factor, tiny).route == "gram"
            assert_matches_dense(1.0, factor, tiny)


def route_instance(route, m=20, n=3, nx=2, ny=2, seed=0):
    """A near-span instance that takes ``route``: novelty of relative size 1
    for the Gram route, 1e-6 for the two-pass route."""
    rng = np.random.default_rng([seed, len(route)])
    factor, data = near_span_instance(rng, 1.0 if route == "gram" else 1e-6, m, n, nx, ny)
    assert _core_eig(factor, data).route == route
    return factor, data


# (m, n, nx, ny) on each side of the panel kernels' width limit: the default
# shape is thin, TALL_THIN also spans several row blocks, and WIDE keeps the
# per-block products. The bad entries below go in row m - 13, inside the last
# row block (row 7 of the default shape).
TALL_THIN = (3 * _block_rows(6) + 17, 2, 2, 2)
WIDE = (40, 8, 3, 3)
ROUTES_AND_SHAPES = [
    pytest.param("gram", (20, 3, 2, 2), id="gram"),
    pytest.param("two-pass", (20, 3, 2, 2), id="two-pass"),
    pytest.param("gram", TALL_THIN, id="gram-tall-thin"),
    pytest.param("two-pass", TALL_THIN, id="two-pass-tall-thin"),
    pytest.param("gram", WIDE, id="gram-wide"),
    pytest.param("two-pass", WIDE, id="two-pass-wide"),
]


@pytest.mark.parametrize("shape", [(20, 3, 2, 2), TALL_THIN, WIDE])
def test_gram_route_factors_once(monkeypatch, shape):
    # one eigh of Z^T Z - P^T P gives R, sigma_min(R) and R^-1; the other eigh
    # is the core's
    factor, data = route_instance("gram", *shape)
    calls = []
    for name in ("eigh", "cholesky", "svd", "solve", "qr"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _name=name, _real=real, **k:
                            calls.append(_name) or _real(*a, **k))
    fast_eigh(1.0, factor, data)
    assert calls == ["eigh", "eigh"]


@pytest.mark.parametrize("call", ["augment", "fast_eigh", "svd_route"])
def test_rank_cut_scale_reads_no_m_row_array(monkeypatch, call):
    # the two-pass route and svd_route scale the rank cut by ||Z||_F, read
    # off P and the singular values, not off another pass over Z
    factor, data = route_instance("two-pass")
    z = np.hstack([data.X, data.Y])
    shapes = []
    for module in ("loweig.fast_eigh", "loweig.kernels"):
        module = importlib.import_module(module)
        for name in ("_fro", "_safe_scale"):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _real=real:
                                shapes.extend(x.shape for x in a) or _real(*a))
    if call == "augment":
        augment(factor.Q, factor.B, z, np.array([1.0, 1.0, -1.0, -1.0]))
    elif call == "fast_eigh":
        fast_eigh(1.0, factor, data)
    else:
        svd_route(1.0, z)
    assert shapes
    assert all(s[:1] != (factor.dim,) for s in shapes)


class TestVerdicts:
    """Each invariant is verified once, mostly off a Gram the call computes
    anyway, and every invalid input still gets the error it got when every
    array was scanned on its own."""

    @pytest.mark.parametrize("route, shape", ROUTES_AND_SHAPES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("array", ["Q", "X", "Y"])
    def test_non_finite_at_construction(self, array, bad, route, shape):
        factor, data = route_instance(route, *shape)
        arrays = {"Q": factor.Q.copy(), "X": data.X.copy(), "Y": data.Y.copy()}
        arrays[array][shape[0] - 13, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=f"^{array} contains non-finite entries$"):
                fast_eigh(1.0, LowRankFactor(1.0, arrays["Q"], factor.B),
                          WeightedData(arrays["X"], arrays["Y"]))

    @pytest.mark.parametrize("route, shape", ROUTES_AND_SHAPES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("array", ["Q", "X", "Y", "B"])
    def test_non_finite_written_after_construction(self, array, bad, route, shape):
        # the entry bypasses the constructors' checks; the Gram of [Q X Y]
        # (for B, the core) is then not finite, and the scans behind it name
        # the array
        factor, data = route_instance(route, *shape)
        if array == "B":
            factor.B[1, 1] = bad
        else:
            {"Q": factor.Q, "X": data.X, "Y": data.Y}[array][shape[0] - 13, 1] = bad
        name = {"Q": "q", "B": "b"}.get(array, "x")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
                fast_eigh(1.0, factor, data)

    @pytest.mark.parametrize("route, shape", ROUTES_AND_SHAPES)
    @pytest.mark.parametrize(
        "kind, amount",
        [("scale", 1.5), ("scale", 1.0 + 1e-6), ("scale", 1e-100), ("scale", 1e50),
         ("scale", 1e300), ("rotate", 0.3), ("rotate", 1e-6)],
    )
    def test_non_orthonormal_q_written_after_construction(self, kind, amount, route, shape):
        # the dropped Gram of Q is made up for by the Gram of E: every column
        # of the lift is kept, and E^T E - I = W^T (Q^T Q - I) W
        # (large scalings break ||Q^T Z|| <= ||Z|| first, before anything
        # built from Q overflows)
        factor, data = route_instance(route, *shape)
        q = factor.Q
        if kind == "scale":
            q *= amount
        else:
            # column 0 turns toward column 1, keeping its norm
            q[:, 0] = math.cos(amount) * q[:, 0] + math.sin(amount) * q[:, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="orthonormal"):
                fast_eigh(1.0, factor, data)

    @pytest.mark.parametrize("route", ["gram", "two-pass"])
    def test_overflowing_spectrum(self, route):
        # at 1e160 the pre-scaled Gram is exact, but the core's squares are not
        factor, data = route_instance(route)
        s = 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="spectrum overflows float64"):
                fast_eigh(1.0, factor, WeightedData(data.X * s, data.Y * s))

    @pytest.mark.parametrize("route", ["gram", "two-pass"])
    def test_core_linalg_error_propagates_unchanged(self, route, monkeypatch):
        # LinAlgError is a ValueError: the scans behind the core's eigensolve
        # find b and the core finite, and the error itself is raised again
        factor, data = route_instance(route)
        error = np.linalg.LinAlgError("Eigenvalues did not converge")

        def failing(b):
            raise error

        monkeypatch.setattr(importlib.import_module("loweig.fast_eigh"), "symmetric_eig", failing)
        with pytest.raises(np.linalg.LinAlgError) as raised:
            fast_eigh(1.0, factor, data)
        assert raised.value is error

    def test_gram_band_is_the_safe_band_squared(self):
        # _GRAM_LOW and _GRAM_HIGH are derived from _safe_scale's band, and
        # equal the literals they replaced
        assert (_GRAM_LOW, _GRAM_HIGH) == (2e-140, 5e139)
        assert _GRAM_LOW / 2.0 == _SAFE_LOW**2 and _GRAM_HIGH * 2.0 == _SAFE_HIGH**2
        # a column of m equal entries whose trace sits at either end of the
        # band keeps its entries inside _safe_scale's band
        m = 1000
        for trace in (m * _GRAM_LOW, _GRAM_HIGH):
            z = np.full((m, 1), math.sqrt(trace / m))
            assert _SAFE_LOW < z[0, 0] < _SAFE_HIGH
            assert _safe_scale(z) == 1.0
            assert _scaled_gram((np.zeros((m, 0)),), [z])[4] == 1.0

    @pytest.mark.parametrize(
        "case",
        ["1e-71", "1e-70", "1e-69", "1e69", "1e70", "1e71", "tiny 1e-170", "zero",
         "x alone", "y alone"],
    )
    def test_scale_matches_explicit_prescale(self, case):
        # _scaled_gram reads the scale off the unscaled Gram where it can;
        # it must still be _safe_scale's, and P and R^-1 those of a pre-scale
        rng = np.random.default_rng(len(case))
        factor, data = near_span_instance(rng, 1.0, m=20, n=3, nx=2, ny=2)
        x, y = data.X, data.Y
        if case == "zero":
            x, y = np.zeros_like(x), np.zeros_like(y)
        elif case == "x alone":
            y = y[:, :0]
        elif case == "y alone":
            x = x[:, :0]
        elif case == "tiny 1e-170":
            # entry squares underflow, so the Gram's diagonal reads 0
            x, y = x * 1e-170, y * 1e-170
        else:
            amax = max(np.max(np.abs(x)), np.max(np.abs(y)))
            x, y = x / amax * float(case), y / amax * float(case)
            assert max(np.max(np.abs(x)), np.max(np.abs(y))) == float(case)
        blocks = [x, y]
        w = np.concatenate([np.ones(x.shape[1]), -np.ones(y.shape[1])])
        scale = _safe_scale(*blocks)
        if case.startswith("1e"):
            assert (scale == 1.0) == (abs(math.log10(float(case))) <= 70.5)
        _, p, zz, _, got_scale, _, _ = _scaled_gram((factor.Q,), blocks)
        assert got_scale == scale
        prescaled = [b / scale for b in blocks]
        _, p_ref, zz_ref, _, ref_scale, _, _ = _scaled_gram((factor.Q,), prescaled)
        assert ref_scale == 1.0 or case == "zero"
        np.testing.assert_array_equal(p, p_ref)
        np.testing.assert_array_equal(zz, zz_ref)
        loss = factor.orthogonality
        got = gram_route(factor.Q, factor.B, blocks, w, loss)
        ref = gram_route(factor.Q, factor.B, prescaled, w, loss)
        assert (got is None) == (ref is None) == (case == "zero")
        if got is not None:
            np.testing.assert_array_equal(got[0], ref[0] * scale)
            np.testing.assert_array_equal(got[1], ref[1] / scale)


KERNELS = importlib.import_module("loweig.kernels")
FAST = importlib.import_module("loweig.fast_eigh")


class TestPanelKernels:
    """``_block_gram`` and ``_rotate`` pack ``[Q X Y]`` into thin panels up
    to ``_PANEL_MAX_WIDTH`` columns and take per-block products above it; the
    two kernels round differently but agree to a few ulps of the sums of
    absolute terms, whatever the layout of the inputs. ``_rotate`` returns
    the Gram of its result, summed inside the lift for a thin result."""

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("m, n, nx, ny", [
        (100, 2, 2, 2), TALL_THIN, (300, 0, 3, 3), (300, 3, 0, 3), (300, 3, 3, 0),
        (2 * _block_rows(24) + 5, 4, 4, 4), (3000, 6, 5, 5), (700, 8, 8, 8),
    ])
    def test_kernels_agree(self, monkeypatch, m, n, nx, ny, layout):
        rng = np.random.default_rng([m, n, nx, ny])
        q = random_orthonormal(rng, m, n)
        if layout != "C":
            q = np.asfortranarray(q) if layout == "F" else laid_out(rng, m, n, layout)
        x, y = laid_out(rng, m, nx, layout), laid_out(rng, m, ny, layout)
        k = n + nx + ny
        coef = rng.standard_normal((k, k))
        got = {}
        for limit in (0, k):
            monkeypatch.setattr(KERNELS, "_PANEL_MAX_WIDTH", limit)
            p, zz, _ = KERNELS._block_gram((q,), [x, y])
            e, _ = KERNELS._rotate([q, x, y], coef)
            assert np.array_equal(zz, zz.T)
            assert not e.flags.writeable and e.flags.c_contiguous and e.ctypes.data % 64 == 0
            got[limit] = np.vstack([p, zz]), e
        # numpy multiplies strided operands without BLAS, summing in order,
        # so there the per-block products' rounding grows like sqrt(m) ulps
        ulp = np.finfo(float).eps * (16 if layout != "strided" else max(16, math.sqrt(m)))
        a = np.abs(np.hstack([q, x, y]))
        (g_blocks, e_blocks), (g_panel, e_panel) = got[0], got[k]
        assert np.all(np.abs(g_panel - g_blocks) <= ulp * (a.T @ a[:, n:]))
        assert np.all(np.abs(e_panel - e_blocks) <= ulp * (a @ np.abs(coef)))
        assert_allclose(g_panel, np.hstack([q, x, y]).T @ np.hstack([x, y]), rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("limit", [0, _PANEL_MAX_WIDTH])
    @pytest.mark.parametrize("m, n, nx, ny", [(300, 4, 3, 3), (700, 8, 8, 8)])
    def test_block_gram_takes_q_as_leading_parts(self, monkeypatch, m, n, nx, ny, limit):
        # the learner gives its B as a compacted E followed by the batch
        # rows' transpose: split so, Q's Gram is Q's taken whole, up to a few
        # ulps of the sums of absolute terms, on either kernel
        rng = np.random.default_rng([m, n, 7])
        q = random_orthonormal(rng, m, n)
        x, y = rng.standard_normal((m, nx)), rng.standard_normal((m, ny))
        lead = (q[:, :n // 2], np.ascontiguousarray(q[:, n // 2:].T).T)
        monkeypatch.setattr(KERNELS, "_PANEL_MAX_WIDTH", limit)
        p, zz, _ = KERNELS._block_gram((q,), [x, y])
        p_parts, zz_parts, _ = KERNELS._block_gram(lead, [x, y])
        assert np.array_equal(zz_parts, zz_parts.T)
        a = np.abs(np.hstack([q, x, y]))
        bound = 16 * np.finfo(float).eps * (a.T @ a[:, n:])
        assert np.all(np.abs(np.vstack([p_parts, zz_parts]) - np.vstack([p, zz])) <= bound)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("widths, k", [
        ((4, 4, 4), 1), ((4, 4, 4), 2), ((4, 4, 4), 12),  # panels
        ((32, 4, 4), 1), ((32, 4, 4), 2), ((32, 4, 4), 12), ((32, 4, 4), 13),
        ((32, 4, 4), 40), ((12, 0, 0), 12),  # per-block products
    ])
    def test_rotate_returns_the_gram(self, widths, k, layout):
        # from 2 to 12 columns the lift sums E's Gram block by block, one
        # gemm against a copy of each block of E; otherwise _self_gram
        # takes it after the lift; either way it is E^T E up to rounding
        width = sum(widths)
        m = 3 * _block_rows(width + k) + 17
        rng = np.random.default_rng([width, k])
        parts = [laid_out(rng, m, j, layout) for j in widths]
        coef = rng.standard_normal((width, k)) / math.sqrt(m * width)
        e, gram = KERNELS._rotate(parts, coef)
        assert gram.shape == (k, k)
        # two sums of m products in different orders, whose rounding grows
        # like sqrt(m) ulps of the sum of absolute terms
        ulp = np.finfo(float).eps * math.sqrt(m)
        assert np.all(np.abs(gram - e.T @ e) <= ulp * (np.abs(e).T @ np.abs(e)))

    @pytest.mark.parametrize("k, fused", [(2, True), (6, True), (12, True), (13, False),
                                          (40, False)])
    def test_thin_e_is_checked_from_the_lift(self, monkeypatch, k, fused):
        # the lift returns the Gram of an E of 2 to 12 columns; a wider E on
        # the Gram route is checked off the Gram of [Q X Y]: fast_eigh takes
        # no _self_gram of E either way
        rng = np.random.default_rng(k)
        n = k // 2
        factor = LowRankFactor(1.0, random_orthonormal(rng, 64, n), random_symmetric(rng, n))
        data = WeightedData(rng.standard_normal((64, k - n - 1)), rng.standard_normal((64, 1)))
        calls, checks = [], []
        real, real_check = KERNELS._self_gram, FAST._gram_orthogonality
        monkeypatch.setattr(KERNELS, "_self_gram", lambda a: calls.append(a.shape) or real(a))
        monkeypatch.setattr(FAST, "_gram_orthogonality",
                            lambda *a: checks.append(1) or real_check(*a))
        ef = fast_eigh(1.0, factor, data)
        assert ef.rank == k
        assert calls == [] and len(checks) == (not fused)
        assert ef.orthogonality == pytest.approx(
            np.linalg.norm(ef.E.T @ ef.E - np.eye(k)), rel=0, abs=1e-14)

    @pytest.mark.parametrize("k, panel", [(6, True), (12, True), (13, False), (40, False)])
    def test_width_selects_the_kernel(self, monkeypatch, k, panel):
        calls = []
        real = KERNELS._panels
        monkeypatch.setattr(KERNELS, "_panels", lambda *a: calls.append(1) or real(*a))
        rng = np.random.default_rng(k)
        n = k // 2
        factor = LowRankFactor(1.0, random_orthonormal(rng, 64, n), random_symmetric(rng, n))
        data = WeightedData(rng.standard_normal((64, k - n - 1)), rng.standard_normal((64, 1)))
        assert_matches_dense(1.0, factor, data, scale=64.0)
        assert bool(calls) == panel


class TestCheckFromGrams:
    """On the Gram route, ``E = [Q X Y] K`` and ``E^T E = K^T G K``, G the
    Gram of ``[Q X Y]``: ``fast_eigh`` checks an E wider than
    ``_PANEL_MAX_WIDTH`` from G, Q^T Q measured in the same call, while the
    rounding bound allows, and otherwise measures E's Gram."""

    def test_planted_error_in_the_lift_coefficients_is_caught(self, monkeypatch):
        factor, data = route_instance("gram", *WIDE)
        real = FAST._Core.coef

        def planted(core, v):
            coef = real(core, v)
            coef[:, 0] *= 1.0 + 1e-8
            return coef

        monkeypatch.setattr(FAST._Core, "coef", planted)
        core = _core_eig(factor, data)
        assert core.gram is not None
        assert FAST._gram_orthogonality(core.gram, core.coef(core.eig.E)) is None
        with pytest.raises(ValueError, match="^E does not have orthonormal columns$"):
            fast_eigh(1.0, factor, data)

    @pytest.mark.parametrize("decline", ["bound", "scale"])
    def test_declined_check_measures_e(self, monkeypatch, decline):
        # a bound past its share of the tolerance, or a Z the Gram route
        # scales, leaves E to the measured Gram, and its loss is that Gram's
        factor, data = route_instance("gram", *WIDE)
        if decline == "bound":
            monkeypatch.setattr(FAST, "_CHECK_ROUNDING", 0.0)
        else:
            data = WeightedData(data.X * 1e100, data.Y * 1e100)
            assert _core_eig(factor, data).gram is None
        calls = []
        real = KERNELS._self_gram
        monkeypatch.setattr(KERNELS, "_self_gram", lambda a: calls.append(a.shape) or real(a))
        ef = fast_eigh(1.0, factor, data)
        assert calls == [ef.E.shape]
        assert ef.orthogonality == KERNELS._check_orthonormal(ef.E, "E")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(4.0, 12.0).map(lambda e: round(2.0**e)),
           st.integers(13, 80),
           st.one_of(st.just(0.0), st.floats(-14.0, -8.0)))
    def test_computed_check_agrees_with_the_measured_one(self, seed, m, width, log_loss):
        # Q scaled by 1 + delta after its factor was built: the computed loss
        # tracks the measured one within the check's rounding bound (and
        # 1e-14 where that is smaller), and an E that passes the computed
        # check passes the measured one, but for rounding at the tolerance
        width = min(width, m)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, width - 1))
        nx = int(rng.integers(0, width - n)) + 1
        factor = LowRankFactor(1.0, random_orthonormal(rng, m, n), random_symmetric(rng, n))
        data = WeightedData(rng.standard_normal((m, nx)), rng.standard_normal((m, width - n - nx)))
        factor.Q[:] *= 1.0 + (10.0**log_loss if log_loss else 0.0)
        core = _core_eig(factor, data)
        assume(core.route == "gram" and core.gram is not None)
        coef = np.abs(core.coef(core.eig.E))
        bound = 2.0 * math.sqrt(width) * np.finfo(float).eps * np.linalg.norm(
            coef.T @ np.abs(core.gram) @ coef)
        try:
            ef = fast_eigh(1.0, factor, data)
        except ValueError as error:
            assert str(error) == "E does not have orthonormal columns"
            return
        measured = np.linalg.norm(ef.E.T @ ef.E - np.eye(width))
        assert abs(ef.orthogonality - measured) <= max(1e-14, bound)
        if abs(measured - KERNELS._orthonormal_tolerance(width)) > max(1e-14, bound):
            KERNELS._check_orthonormal(ef.E, "E")

"""Window selection and geometric-mean truncation against exhaustive scans."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from loweig import (
    EigenFactor,
    Spectrum,
    SpectrumBlock,
    dense_spectrum,
    select_tau,
    truncate,
)

from helpers import (
    brute_force_feasible_tau,
    brute_force_tau,
    brute_truncate_dense,
    positive_eigenfactor,
)


def spectrum_of_values(values, explicit=None):
    """Spectrum from an expanded descending list; explicit maps value->indices."""
    explicit = explicit or {}
    blocks = []
    uniq = sorted(set(values), reverse=True)
    for v in uniq:
        mult = sum(1 for x in values if x == v)
        blocks.append(SpectrumBlock(v, mult, tuple(explicit.get(v, ()))))
    return Spectrum(tuple(blocks), len(values))


def expand(spectrum):
    out = []
    for b in spectrum.blocks:
        out.extend([b.value] * b.multiplicity)
    return np.array(out)


class TestSpectrum:
    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            Spectrum((SpectrumBlock(1.0, 1), SpectrumBlock(0.0, 1)), 2)

    def test_ascending_rejected(self):
        with pytest.raises(ValueError):
            Spectrum((SpectrumBlock(1.0, 1), SpectrumBlock(2.0, 1)), 2)

    def test_total_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Spectrum((SpectrumBlock(1.0, 2),), 3)

    def test_from_eigenfactor_merges_exact_ties(self):
        rng = np.random.default_rng(0)
        ef = positive_eigenfactor(rng, 9, 4, tie_blocks=True)
        spectrum = Spectrum.from_eigenfactor(ef)
        assert spectrum.total == 9
        assert sum(b.multiplicity for b in spectrum.blocks) == 9
        assert any(b.multiplicity >= 2 and len(b.indices) >= 2 for b in spectrum.blocks)
        values = [b.value for b in spectrum.blocks]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_from_eigenfactor_nonpositive_rejected(self):
        ef = EigenFactor(1.0, np.eye(4)[:, :1], np.array([-2.0]))
        with pytest.raises(ValueError):
            Spectrum.from_eigenfactor(ef)


class TestSelectTau:
    def test_flat_spectrum_breaks_ties_low(self):
        spectrum = spectrum_of_values([3.0] * 7)
        assert select_tau(spectrum, 3) == 0

    def test_zero_variance_window_wins(self):
        spectrum = spectrum_of_values([100.0, 10.0, 1.0, 1.0, 1.0])
        assert select_tau(spectrum, 2) == 2

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exhaustive_scan(self, seed):
        rng = np.random.default_rng(seed)
        values = np.sort(np.exp(rng.normal(0.0, 1.0, 9)))[::-1]
        spectrum = spectrum_of_values(list(values))
        tau, objectives = brute_force_tau(values, 3)
        assert select_tau(spectrum, 3) == tau

    def test_multiplicity_blocks_split_by_window(self):
        # window boundary lands inside the large block either way
        values = [50.0] + [2.0] * 6 + [0.1]
        spectrum = spectrum_of_values(values)
        tau, _ = brute_force_tau(np.array(values), 2)
        assert select_tau(spectrum, 2) == tau

    def test_k_too_large_rejected(self):
        spectrum = spectrum_of_values([2.0, 1.0])
        with pytest.raises(ValueError):
            select_tau(spectrum, 2)


class TestTruncate:
    def test_forced_window(self):
        # spectrum (8, 2, 2, 2, 1/2) with explicit pairs only for 8 and 1/2
        e = np.eye(5)[:, [0, 4]]
        ef = EigenFactor(2.0, e, np.array([6.0, -1.5]))
        model, result = truncate(ef, 2)
        assert result.tau == 1
        assert result.new_alpha == pytest.approx(2.0, abs=1e-12)
        assert result.kept_top == [(8.0, 0)]
        assert result.kept_bottom == [(0.5, 1)]
        assert_allclose(np.diag(model.B), [6.0, -1.5], atol=1e-12)

    def test_k_zero_gives_geometric_mean_of_everything(self):
        rng = np.random.default_rng(12)
        ef = positive_eigenfactor(rng, 7, 3)
        model, result = truncate(ef, 0)
        expected = np.exp(np.log(ef.full_spectrum()).mean())
        assert model.rank == 0
        assert model.alpha == pytest.approx(expected, rel=1e-12)
        assert result.kept_top == [] and result.kept_bottom == []

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_construction(self, seed):
        rng = np.random.default_rng(100 + seed)
        m, r, k = 8, 5, 3
        ef = positive_eigenfactor(rng, m, r)
        model, result = truncate(ef, k)
        # expand the full spectrum with vectors (alpha block completed densely)
        values = ef.full_spectrum()
        vectors = np.zeros((m, m))
        explicit_vals = ef.alpha + ef.D
        used = []
        for i, v in enumerate(values):
            hit = [j for j in range(r) if explicit_vals[j] == v and j not in used]
            if hit:
                used.append(hit[0])
                vectors[:, i] = ef.E[:, hit[0]]
        comp = np.eye(m) - ef.E @ ef.E.T
        fill = [i for i in range(m) if not vectors[:, i].any()]
        cvecs = np.linalg.qr(comp)[0][:, : len(fill)]
        for slot, i in enumerate(fill):
            vectors[:, i] = cvecs[:, slot]
        tau, _, _ = brute_force_feasible_tau(ef, k)
        expected, _, gmean = brute_truncate_dense(values, vectors, k, tau=tau)
        assert result.tau == tau
        assert result.new_alpha == pytest.approx(gmean, rel=1e-12)
        model_dense = (
            model.alpha * np.eye(m) + model.Q @ model.B @ model.Q.T
        )
        assert_allclose(
            dense_spectrum(model_dense)[0], dense_spectrum(expected)[0], atol=1e-10
        )

    def test_spectrum_preserved_exactly(self):
        rng = np.random.default_rng(5)
        m, r, k = 10, 6, 4
        ef = positive_eigenfactor(rng, m, r)
        model, result = truncate(ef, k)
        kept = [v for v, _ in result.kept_top + result.kept_bottom]
        expected = np.sort(np.array(kept + [result.new_alpha] * (m - k)))[::-1]
        got = np.sort(
            np.concatenate([model.alpha + np.diag(model.B), np.full(m - k, model.alpha)])
        )[::-1]
        # storing d = v - alpha round-trips v to within an ulp
        assert_allclose(got, expected, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("seed", range(6))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(200 + seed)
        m, r, k = 9, 6, 3
        ef = positive_eigenfactor(rng, m, r)
        model, _ = truncate(ef, k)
        again = EigenFactor(model.alpha, model.Q, np.diag(model.B).copy())
        model2, _ = truncate(again, k)
        s1 = np.sort(np.concatenate([model.alpha + np.diag(model.B),
                                     np.full(m - k, model.alpha)]))
        s2 = np.sort(np.concatenate([model2.alpha + np.diag(model2.B),
                                     np.full(m - k, model2.alpha)]))
        assert_allclose(s2, s1, rtol=1e-12, atol=0)

    def test_monotone_containment(self):
        rng = np.random.default_rng(3)
        m, r, k = 12, 8, 4
        ef = positive_eigenfactor(rng, m, r)
        _, result = truncate(ef, k)
        full = ef.full_spectrum()
        top = [v for v, _ in result.kept_top]
        bottom = [v for v, _ in result.kept_bottom]
        assert_allclose(sorted(top, reverse=True), full[: result.tau])
        assert_allclose(sorted(bottom, reverse=True), full[m - (k - result.tau):])

    def test_chosen_tau_is_optimal_among_feasible(self):
        rng = np.random.default_rng(41)
        for seed in range(20):
            rng = np.random.default_rng(400 + seed)
            m, r, k = 10, 7, 4
            ef = positive_eigenfactor(rng, m, r)
            _, result = truncate(ef, k)
            tau_feasible, objectives, feasible = brute_force_feasible_tau(ef, k)
            assert result.tau == tau_feasible
            assert objectives[result.tau] <= min(objectives[t] for t in feasible) + 1e-12

    def test_infeasible_minimizer_falls_back_to_best_feasible(self):
        # bottom cluster is tighter than the alpha block is wide: the
        # unconstrained window prefers dropping alpha coverage, which the
        # explicit-eigenvector constraint forbids
        e = np.eye(8)[:, :5]
        d = np.array([4.0, -0.899, -0.8995, -0.9, -0.901])
        ef = EigenFactor(1.0, e, d)
        spectrum = Spectrum.from_eigenfactor(ef)
        tau_free, _ = brute_force_tau(ef.full_spectrum(), 3)
        tau_feasible, _, feasible = brute_force_feasible_tau(ef, 3)
        assert tau_free not in feasible  # the regime this test is about
        assert select_tau(spectrum, 3) == tau_free
        model, result = truncate(ef, 3)
        assert result.tau == tau_feasible
        assert model.rank == 3

    def test_too_few_explicit_pairs_rejected(self):
        # r < k: some kept position would have no eigenvector
        rng = np.random.default_rng(6)
        ef = positive_eigenfactor(rng, 10, 2)
        with pytest.raises(ValueError, match="explicit eigenvector"):
            truncate(ef, 4)

    def test_k_too_large_rejected(self):
        rng = np.random.default_rng(7)
        ef = positive_eigenfactor(rng, 4, 2)
        with pytest.raises(ValueError):
            truncate(ef, 4)

    def test_nonpositive_spectrum_rejected(self):
        ef = EigenFactor(1.0, np.eye(5)[:, :1], np.array([-1.5]))
        with pytest.raises(ValueError):
            truncate(ef, 1)


# Generic multipliers d_i / alpha, so windows tie only through repeated values.
TIE_POOL = (0.7318, 2.2913, 4.0671, -0.4187, -0.8634)


@st.composite
def tied_eigenfactors(draw):
    """EigenFactor with exact ties, plus a k in 0..m-1.

    Explicit values repeat, and d_i == 0 ties them with alpha.
    """
    m = draw(st.integers(1, 12))
    alpha = draw(st.sampled_from([0.25, 1.0, 3.0]))
    counts = draw(st.lists(st.integers(0, 3), min_size=len(TIE_POOL), max_size=len(TIE_POOL)))
    d = [alpha * c for c, n in zip(TIE_POOL, counts) for _ in range(n)]
    d += [0.0] * draw(st.integers(0, m))
    d = np.sort(np.array(draw(st.permutations(d))[:m], dtype=float))[::-1]
    columns = list(draw(st.permutations(range(m))))[: d.size]
    return EigenFactor(alpha, np.eye(m)[:, columns], d), draw(st.integers(0, m - 1))


class TestWindowProperties:
    @settings(max_examples=300, deadline=None)
    @given(tied_eigenfactors())
    def test_truncate_matches_feasible_scan(self, case):
        ef, k = case
        try:
            tau, objectives, feasible = brute_force_feasible_tau(ef, k)
        except ValueError:
            with pytest.raises(ValueError, match="no feasible window"):
                truncate(ef, k)
            return
        model, result = truncate(ef, k)
        # Windows over the same tied values, like (a, a, b) and (a, b, b), tie
        # exactly; the scan's objectives differ there only by rounding, and the
        # tie goes to the smallest such tau.
        tied = [t for t in feasible if objectives[t] <= objectives[tau] + 1e-9]
        assert result.tau == min(tied)
        window = ef.full_spectrum()[result.tau:result.tau + ef.dim - k]
        assert result.new_alpha == pytest.approx(
            math.exp(np.log(window).mean()), rel=1e-12
        )
        assert model.rank == k

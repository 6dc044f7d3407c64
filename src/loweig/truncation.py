"""Rank truncation by log-spectrum least squares.

A window of m-k consecutive sorted eigenvalues is replaced by its geometric
mean (the optimal single value under a least-squares objective on the log
spectrum); the tau largest and k-tau smallest eigenpairs are kept exactly.
The implicit identity block is handled as a multiplicity without ever
materializing m scalars.
``select_tau`` and ``truncate`` share one vectorized pass over all offsets;
``truncate`` restricts it to the interval of offsets whose window covers the
implicit positions, which all sit in the alpha block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fast_eigh import EigenFactor, LowRankFactor
from .kernels import _unchecked


@dataclass(frozen=True)
class SpectrumBlock:
    """A maximal run of equal eigenvalues.

    ``indices`` are the explicit eigenvector column indices carried by this
    value; ``multiplicity - len(indices)`` copies are implicit (identity
    block) and have no representable eigenvector.
    """

    value: float
    multiplicity: int
    indices: tuple[int, ...] = ()

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("block multiplicity must be positive")
        if len(self.indices) > self.multiplicity:
            raise ValueError("more eigenvector indices than multiplicity")

    @property
    def implicit(self) -> int:
        return self.multiplicity - len(self.indices)


@dataclass(frozen=True)
class Spectrum:
    """Full sorted spectrum as (value, multiplicity) blocks, descending.

    All values must be strictly positive; the truncation objective lives in
    log space.
    """

    blocks: tuple[SpectrumBlock, ...]
    total: int

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if sum(b.multiplicity for b in self.blocks) != self.total:
            raise ValueError("block multiplicities do not sum to the total")
        values = [b.value for b in self.blocks]
        if any(v <= 0.0 or not math.isfinite(v) for v in values):
            raise ValueError("spectrum values must be finite and strictly positive")
        if any(values[i] <= values[i + 1] for i in range(len(values) - 1)):
            raise ValueError("block values must be strictly descending")

    @classmethod
    def from_eigenfactor(cls, ef: EigenFactor) -> "Spectrum":
        """Expand alpha + d_i plus the implicit alpha block, merging exact ties."""
        m, r = ef.E.shape
        entries = [(float(ef.alpha + ef.D[i]), i) for i in range(r)]
        merged: dict[float, list[int]] = {}
        for value, idx in entries:
            merged.setdefault(value, []).append(idx)
        alpha = float(ef.alpha)
        counts = {v: len(ix) for v, ix in merged.items()}
        if m - r > 0:
            counts[alpha] = counts.get(alpha, 0) + (m - r)
        blocks = [
            SpectrumBlock(v, counts[v], tuple(merged.get(v, ())))
            for v in sorted(counts, reverse=True)
        ]
        return cls(tuple(blocks), m)


@dataclass(frozen=True)
class TruncationResult:
    """Outcome of one truncation: the new base coefficient and the kept pairs.

    ``kept_top`` / ``kept_bottom`` list (eigenvalue, eigenvector index) pairs
    above and below the replaced window; indices refer to columns of the input
    eigenfactor.
    """

    new_alpha: float
    kept_top: list[tuple[float, int]]
    kept_bottom: list[tuple[float, int]]
    tau: int


def _block_ranges(spectrum: Spectrum):
    """Expanded half-open position range [lo, hi) of each block."""
    lo = 0
    for block in spectrum.blocks:
        yield block, lo, lo + block.multiplicity
        lo += block.multiplicity


def _windows(spectrum: Spectrum, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Objective and log geometric mean of the window at every tau in 0..k.

    The window holds sorted positions [tau, tau + m - k); its objective is the
    sum of squared deviations of its log-values from their own mean. Both come
    from block prefix sums at all 2(k+1) window edges. The third value is the
    tie tolerance: the sums round by a few ulps of their total, so objectives
    that close are ties, as windows over tied eigenvalues often are.
    """
    m = spectrum.total
    if k >= m:
        raise ValueError(f"k must be smaller than the dimension, got k={k}, m={m}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    length = m - k
    mult = np.array([b.multiplicity for b in spectrum.blocks], dtype=float)
    logs = np.array([math.log(b.value) for b in spectrum.blocks])
    mean = float((mult * logs).sum()) / m
    clogs = logs - mean  # centering kills cancellation in the variance formula
    cum_n = np.concatenate([[0.0], np.cumsum(mult)])
    cum_s1 = np.concatenate([[0.0], np.cumsum(mult * clogs)])
    cum_s2 = np.concatenate([[0.0], np.cumsum(mult * clogs**2)])
    clogs = np.append(clogs, 0.0)  # edge m lies past the last block
    edges = np.arange(k + 1)
    edges = np.concatenate([edges, edges + length])
    j = np.searchsorted(cum_n, edges, side="right") - 1
    part = edges - cum_n[j]
    s1 = cum_s1[j] + part * clogs[j]
    s2 = cum_s2[j] + part * clogs[j] ** 2
    s1 = s1[k + 1:] - s1[:k + 1]
    s2 = s2[k + 1:] - s2[:k + 1]
    objectives = np.maximum(s2 - s1 * s1 / length, 0.0)
    return objectives, s1 / length + mean, 1e-12 * float(cum_s2[-1])


def _first_min(objectives: np.ndarray, tol: float) -> int:
    """Smallest offset whose objective ties the minimum within ``tol``."""
    return int(np.argmax(objectives <= objectives.min() + tol))


def select_tau(spectrum: Spectrum, k: int) -> int:
    """Number of top eigenvalues to keep: the window offset minimizing the
    squared deviation of the window's log-values from their own mean.

    Ties, up to rounding, break toward the smallest tau. Runs on the block
    representation, so large multiplicities cost nothing extra.
    """
    objectives, _, tol = _windows(spectrum, k)
    return _first_min(objectives, tol)


def truncate(ef: EigenFactor, k: int) -> tuple[LowRankFactor, TruncationResult]:
    """Re-approximate an eigenfactor with at most k explicit eigenpairs.

    Replaces the selected window of m-k consecutive sorted eigenvalues by
    their geometric mean and keeps the remaining pairs exactly: the model's
    spectrum is {kept values} plus the geometric mean with multiplicity m-k.
    The window is constrained to cover every implicit (identity-block)
    position, since those have no representable eigenvector; among feasible
    offsets the one with the smallest objective wins, ties (up to rounding)
    toward smaller tau.

    Raises
    ------
    ValueError
        If any eigenvalue is nonpositive (log undefined) or no feasible
        window exists (a kept position would lack an explicit eigenvector).
    """
    spectrum = Spectrum.from_eigenfactor(ef)
    objectives, log_means, tol = _windows(spectrum, k)
    length = ef.dim - k
    # Every implicit position lies in the alpha block [lo, hi), so the
    # offsets whose window covers them all form the interval [first, last].
    implicit = ef.dim - ef.rank
    first, last = 0, k
    for block, lo, hi in _block_ranges(spectrum):
        if block.implicit:
            first, last = max(0, lo + implicit - length), min(k, hi - implicit)
    if implicit > length or first > last:
        raise ValueError(
            "no feasible window: a kept position would lack an explicit eigenvector"
        )
    tau = first + _first_min(objectives[first:last + 1], tol)
    new_alpha = math.exp(log_means[tau])

    kept_top: list[tuple[float, int]] = []
    kept_bottom: list[tuple[float, int]] = []
    for block, lo, hi in _block_ranges(spectrum):
        before = max(0, min(hi, tau) - lo)
        after = max(0, hi - max(lo, tau + length))
        # Feasibility guarantees enough explicit indices for the kept copies.
        kept_top.extend((block.value, idx) for idx in block.indices[:before])
        kept_bottom.extend(
            (block.value, idx) for idx in block.indices[before:before + after]
        )

    kept = kept_top + kept_bottom
    columns = [idx for _, idx in kept]
    values = np.array([v for v, _ in kept])
    model = _unchecked(
        LowRankFactor, new_alpha, ef.E[:, columns], np.diag(values - new_alpha)
    )
    return model, TruncationResult(new_alpha, kept_top, kept_bottom, tau)

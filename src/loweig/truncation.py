"""Rank truncation by log-spectrum least squares.

A window of m-k consecutive sorted eigenvalues is replaced by its geometric
mean (the optimal single value under a least-squares objective on the log
spectrum); the tau largest and k-tau smallest eigenpairs are kept exactly.
The implicit identity block is handled as a multiplicity without ever
materializing m scalars.

Values decide: ``_select`` works on ``(alpha, d, m)`` alone and returns the
new alpha, the kept columns and tau, so a caller gathers or rotates only the
columns it keeps. ``_window`` scores every offset in one vectorized pass
and takes the minimizer over the offsets whose window covers the implicit
positions, which all sit in the alpha block (every offset, for
``select_tau``). ``truncate`` is ``_select`` plus one gather.
"""

from __future__ import annotations

import math

import numpy as np

from .fast_eigh import EigenFactor, LowRankFactor, _derived_factor
from .kernels import _ValueRecord, _take_columns


class SpectrumBlock(_ValueRecord):
    """A maximal run of equal eigenvalues.

    ``indices`` are the explicit eigenvector column indices carried by this
    value; ``multiplicity - len(indices)`` copies are implicit (identity
    block) and have no representable eigenvector.
    """

    _fields = ("value", "multiplicity", "indices")

    def __init__(self, value: float, multiplicity: int, indices: tuple[int, ...] = ()):
        if multiplicity < 1:
            raise ValueError("block multiplicity must be positive")
        if len(indices) > multiplicity:
            raise ValueError("more eigenvector indices than multiplicity")
        self.__dict__.update(value=value, multiplicity=multiplicity, indices=indices)

    @property
    def implicit(self) -> int:
        return self.multiplicity - len(self.indices)


class Spectrum(_ValueRecord):
    """Full sorted spectrum as (value, multiplicity) blocks, descending.

    All values must be strictly positive; the truncation objective lives in
    log space.
    """

    _fields = ("blocks", "total")

    def __init__(self, blocks: tuple[SpectrumBlock, ...], total: int):
        blocks = tuple(blocks)
        if sum(b.multiplicity for b in blocks) != total:
            raise ValueError("block multiplicities do not sum to the total")
        values = [b.value for b in blocks]
        if any(v <= 0.0 or not math.isfinite(v) for v in values):
            raise ValueError("spectrum values must be finite and strictly positive")
        if any(values[i] <= values[i + 1] for i in range(len(values) - 1)):
            raise ValueError("block values must be strictly descending")
        self.__dict__.update(blocks=blocks, total=total)

    @classmethod
    def from_eigenfactor(cls, ef: EigenFactor) -> "Spectrum":
        """Expand alpha + d_i plus the implicit alpha block, merging exact ties."""
        values, mult, block, _ = _blocks(ef.alpha, ef.D, ef.dim)
        blocks = [
            SpectrumBlock(float(v), int(c), tuple(np.flatnonzero(block == b).tolist()))
            for b, (v, c) in enumerate(zip(values, mult))
        ]
        return cls(tuple(blocks), ef.dim)


def _blocks(alpha: float, d: np.ndarray, m: int):
    """Exact-tie blocks of the spectrum {alpha + d_i} plus alpha with
    multiplicity m - r: block values (strictly descending), multiplicities,
    the block of each explicit pair, and the block of alpha (None when
    m == r).

    One pass over the sorted d: ``alpha + d`` is descending, so its exact
    ties are neighbours, and the values above alpha come first. The m - r
    implicit copies of alpha enter as one entry after them, and a new block
    starts wherever a value differs from the one before it.
    """
    r = d.size
    pool = alpha + d
    at = None
    if m > r:
        at = r - int(pool[::-1].searchsorted(alpha, side="right"))
        pool = np.concatenate((pool[:at], (alpha,), pool[at:]))
    starts = np.empty(pool.size, dtype=bool)
    starts[:1] = True
    np.not_equal(pool[1:], pool[:-1], out=starts[1:])
    block = starts.cumsum() - 1
    values = pool[starts]
    mult = np.bincount(block)
    if at is None:
        return values, mult, block, None
    a = int(block[at])
    mult[a] += m - r - 1
    return values, mult, np.concatenate((block[:at], block[at + 1:])), a


class TruncationResult(_ValueRecord):
    """Outcome of one truncation: the new base coefficient and the kept pairs.

    ``kept_top`` / ``kept_bottom`` list (eigenvalue, eigenvector index) pairs
    above and below the replaced window; indices refer to columns of the input
    eigenfactor.
    """

    _fields = ("new_alpha", "kept_top", "kept_bottom", "tau")

    def __init__(
        self,
        new_alpha: float,
        kept_top: list[tuple[float, int]],
        kept_bottom: list[tuple[float, int]],
        tau: int,
    ):
        self.__dict__.update(
            new_alpha=new_alpha, kept_top=kept_top, kept_bottom=kept_bottom, tau=tau
        )


def _window(values: np.ndarray, mult: np.ndarray, m: int, k: int, a: int | None = None,
            implicit: int = 0) -> tuple[int, float, float, np.ndarray]:
    """``(tau, objective, log_mean, starts)`` of the best window of m - k
    consecutive sorted values that covers the ``implicit`` positions.

    ``values`` are the block values, strictly descending, and ``mult`` their
    multiplicities, which sum to m; a is the block that holds the implicit
    positions. The window at tau holds sorted positions [tau, tau + m - k);
    its objective is the sum of squared deviations of its log-values from
    their own mean, and ``log_mean`` that mean. Every offset in 0..k is
    scored in one vectorized pass, from block prefix sums at all 2(k+1)
    window edges. tau is the smallest feasible offset whose objective ties
    the least feasible one: the sums round by a few ulps of their total, so
    objectives that close are ties, as windows over tied eigenvalues often
    are. ``starts`` holds the sorted position at which each block starts,
    then m, as exact floats.
    """
    if k >= m:
        raise ValueError(f"k must be smaller than the dimension, got k={k}, m={m}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    length = m - k
    nb = values.size
    logs = np.log(values)
    # Rows 0 to 2: prefix sums at every block start, from edge 0, of the
    # positions and of the centred log-values c and their squares, weighted
    # by mult. Rows 3 and 4: c and c^2 of each block, and 0 past the last,
    # for edge m.
    acc = np.zeros((5, nb + 1))
    terms, powers = acc[:3, 1:], acc[3:, :nb]
    terms[0] = mult
    mean = float(np.add.reduce(terms[0] * logs)) / m
    # centring kills cancellation in the variance formula
    np.subtract(logs, mean, out=powers[0])
    np.square(powers[0], out=powers[1])
    np.multiply(terms[0], powers, out=terms[1:])
    np.add.accumulate(terms, axis=1, out=terms)
    starts = acc[0]
    edges = np.arange(2 * k + 2, dtype=float)
    edges[k + 1:] += length - k - 1
    at = acc.take(starts.searchsorted(edges, side="right") - 1, axis=1)
    s = at[1:3] + (edges - at[0]) * at[3:]
    s1, s2 = s[:, k + 1:] - s[:, :k + 1]
    objectives = np.maximum(s2 - s1 * s1 / length, 0.0)
    # Every implicit position lies in block a, [starts[a], starts[a + 1]),
    # so the offsets whose window covers them all form [first, last].
    first, last = 0, k
    if implicit:
        first = max(0, int(starts[a]) + implicit - length)
        last = min(k, int(starts[a + 1]) - implicit)
    if implicit > length or first > last:
        raise ValueError(
            "no feasible window: a kept position would lack an explicit eigenvector"
        )
    feasible = objectives[first:last + 1]
    tau = first + int((feasible <= np.minimum.reduce(feasible) + 1e-12 * acc[2, -1]).argmax())
    return tau, float(objectives[tau]), float(s1[tau]) / length + mean, starts


def select_tau(spectrum: Spectrum, k: int) -> int:
    """Number of top eigenvalues to keep: the window offset minimizing the
    squared deviation of the window's log-values from their own mean.

    Ties, up to rounding, break toward the smallest tau. Runs on the block
    representation, so large multiplicities cost nothing extra.
    """
    values = np.array([b.value for b in spectrum.blocks])
    mult = np.array([b.multiplicity for b in spectrum.blocks])
    return _window(values, mult, spectrum.total, k)[0]


def _select(
    alpha: float, d: np.ndarray, m: int, k: int
) -> tuple[float, np.ndarray, int, float]:
    """``truncate`` on the values alone: ``(new_alpha, columns, tau, variance)``.

    ``d`` is sorted descending and the spectrum is ``alpha + d_i`` plus alpha
    with multiplicity ``m - d.size``. ``columns`` are the indices into ``d``
    of the k kept pairs, ascending, so their values descend: the first tau
    sit above the window and the rest below it. Within a tie block the
    explicit pairs fill the kept positions first, in index order.
    ``variance`` is the variance of the log-values in the replaced window.
    """
    values, mult, block, a = _blocks(alpha, d, m)
    # the values descend, so their ends bound them
    if not (values[-1] > 0.0 and math.isfinite(values[0])):
        raise ValueError("spectrum values must be finite and strictly positive")
    length = m - k
    tau, objective, log_mean, starts = _window(values, mult, m, k, a, m - d.size)
    # Each block keeps its positions outside the window [tau, tau + length).
    # Feasibility leaves enough explicit pairs in every block to fill them;
    # they are the block's first explicit pairs, whose indices run from the
    # block's first index up to ``cut``.
    inside = np.minimum(starts[1:], tau + length) - np.maximum(starts[:-1], tau)
    cut = block.searchsorted(np.arange(values.size)) + (mult - np.maximum(inside, 0.0))
    columns = (np.arange(d.size) < cut.take(block)).nonzero()[0]
    return math.exp(log_mean), columns, tau, objective / length


def truncate(ef: EigenFactor, k: int) -> tuple[LowRankFactor, TruncationResult]:
    """Re-approximate an eigenfactor with at most k explicit eigenpairs.

    Replaces the selected window of m-k consecutive sorted eigenvalues by
    their geometric mean and keeps the remaining pairs exactly: the model's
    spectrum is {kept values} plus the geometric mean with multiplicity m-k.
    The window is constrained to cover every implicit (identity-block)
    position, since those have no representable eigenvector; among feasible
    offsets the one with the smallest objective wins, ties (up to rounding)
    toward smaller tau. The kept columns of E are gathered once into a fresh
    64-byte-aligned array; the factor carries ef's ``orthogonality``.

    Raises
    ------
    ValueError
        If any eigenvalue is nonpositive (log undefined) or no feasible
        window exists (a kept position would lack an explicit eigenvector).
    """
    new_alpha, columns, tau, _ = _select(ef.alpha, ef.D, ef.dim, k)
    values = ef.alpha + ef.D[columns]
    kept = list(zip(values.tolist(), columns.tolist()))
    model = _derived_factor(new_alpha, _take_columns(ef.E, columns), np.diag(values - new_alpha),
                            ef.orthogonality)
    return model, TruncationResult(new_alpha, kept[:tau], kept[tau:], tau)

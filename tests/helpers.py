"""Shared oracles and instance generators for the test suite.

Everything here is deliberately brute force: dense materialization, expanded
spectra, exhaustive window scans. The library must agree with these, never
the other way around.
"""

import math

import numpy as np

from loweig import (
    EigenFactor,
    LowRankFactor,
    WeightedData,
    dense_spectrum,
    thin_svd,
)


def random_orthonormal(rng, m, n):
    if n == 0:
        return np.zeros((m, 0))
    return thin_svd(rng.standard_normal((m, n))).U


def laid_out(rng, m, k, layout):
    """An m-by-k standard normal matrix in C order, F order or as a view
    strided in both rows and columns."""
    if layout == "strided":
        a = np.empty((2 * m, 2 * k + 1))[::2, 1::2]
        a[...] = rng.standard_normal((m, k))
        return a
    return np.asarray(rng.standard_normal((m, k)), order=layout)


def random_symmetric(rng, n, scale=1.0):
    g = scale * rng.standard_normal((n, n))
    return (g + g.T) / 2.0


def random_factor(rng, m, n, alpha=1.0):
    return LowRankFactor(alpha, random_orthonormal(rng, m, n), random_symmetric(rng, n))


def random_instance(rng, m, n, nx, ny, alpha=1.0, scale=None):
    """Random (alpha, factor, data) with O(1)-ish spectrum when scale is None."""
    if scale is None:
        scale = 1.0 / math.sqrt(m)
    factor = random_factor(rng, m, n, alpha)
    data = WeightedData(
        scale * rng.standard_normal((m, nx)), scale * rng.standard_normal((m, ny))
    )
    return alpha, factor, data


def positive_eigenfactor(rng, m, r, tie_blocks=False):
    """EigenFactor whose full spectrum (explicit plus alpha block) is positive."""
    alpha = float(np.exp(rng.normal(0.0, 0.5)))
    values = np.exp(rng.normal(0.0, 1.0, r)) * alpha
    if tie_blocks and r >= 2:
        values[1] = values[0]  # exact tie exercises block merging
    d = np.sort(values)[::-1] - alpha
    return EigenFactor(alpha, random_orthonormal(rng, m, r), d)


def cofactor_det(a):
    """Determinant by cofactor expansion; exponential, fine for k <= 4."""
    a = np.asarray(a, dtype=float)
    k = a.shape[0]
    if k == 0:
        return 1.0
    if k == 1:
        return float(a[0, 0])
    total = 0.0
    for j in range(k):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * cofactor_det(minor)
    return total


def brute_force_tau(values, k):
    """Exhaustive window scan over an expanded descending spectrum.

    Returns (tau, objectives); ties break toward the smallest tau.
    """
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    length = m - k
    logs = np.log(values)
    objectives = np.empty(k + 1)
    for tau in range(k + 1):
        window = logs[tau:tau + length]
        objectives[tau] = float(((window - window.mean()) ** 2).sum())
    return int(np.argmin(objectives)), objectives


def brute_force_feasible_tau(ef, k):
    """Exhaustive scan restricted to windows that can absorb the whole
    implicit block of an EigenFactor (positions with no explicit eigenvector).

    Independent restatement of the library's selection rule: kept positions
    must be explicit pairs, so the alpha-valued run of the sorted spectrum
    must contribute at least its implicit count to the window.
    """
    m, r = ef.E.shape
    values = ef.full_spectrum()
    length = m - k
    implicit = m - r
    run = np.nonzero(values == ef.alpha)[0]
    _, objectives = brute_force_tau(values, k)
    feasible = []
    for tau in range(k + 1):
        if implicit == 0:
            feasible.append(tau)
            continue
        overlap = min(run[-1] + 1, tau + length) - max(run[0], tau)
        if overlap >= implicit:
            feasible.append(tau)
    if not feasible:
        raise ValueError("no feasible window")
    best = min(feasible, key=lambda t: (objectives[t], t))
    return best, objectives, feasible


def brute_force_kept_columns(ef, tau, k):
    """Explicit columns the window at ``tau`` keeps, from the expanded spectrum.

    Kept positions are those outside the window. Within a run of equal values
    the explicit pairs take the run's kept positions first, lowest index
    first, so the implicit copies of alpha fall inside the window.
    """
    m, r = ef.E.shape
    values = ef.full_spectrum()
    explicit = ef.alpha + ef.D
    kept_values = np.concatenate([values[:tau], values[tau + m - k:]])
    columns = []
    for v in sorted(set(kept_values.tolist()), reverse=True):
        need = int(np.count_nonzero(kept_values == v))
        columns += [j for j in range(r) if explicit[j] == v][:need]
    return sorted(columns)


def brute_truncate_dense(values, vectors, k, tau=None):
    """Windowed truncation on a fully materialized spectrum.

    values descending, vectors in matching columns. Returns the rebuilt dense
    matrix after replacing the window at ``tau`` (unconstrained argmin when
    None) by its geometric mean.
    """
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    if tau is None:
        tau, _ = brute_force_tau(values, k)
    length = m - k
    window = values[tau:tau + length]
    gmean = float(np.exp(np.log(window).mean()))
    keep = list(range(tau)) + list(range(tau + length, m))
    a = gmean * np.eye(m)
    for i in keep:
        a += (values[i] - gmean) * np.outer(vectors[:, i], vectors[:, i])
    return a, tau, gmean


def dense_metric_simulator(m, alpha0, batches, cfg):
    """Dense end-to-end reference for the streaming learner.

    Applies decay-plus-signed-batch, full dense eigendecomposition, flooring,
    and exhaustive windowed truncation at every step. cfg.floor must be set
    explicitly so both paths floor at the same constant.
    """
    a = alpha0 * np.eye(m)
    for vectors, weights in batches:
        at = cfg.decay * a
        for x, w in zip(np.atleast_2d(vectors), np.asarray(weights, dtype=float)):
            at = at + cfg.gain * w * np.outer(x, x)
        at = (at + at.T) / 2.0
        vals, vecs = dense_spectrum(at)
        vals = np.maximum(vals, cfg.floor)
        a, _, _ = brute_truncate_dense(vals, vecs, cfg.rank_cap)
    return a



# The truncation routines as they were written with ``np.unique``, kept
# verbatim as the reference for the one-pass tie merge, which must reproduce
# their tau, columns and new alpha exactly.


def reference_blocks(alpha, d, m):
    r = d.size
    pool = alpha + d
    if m > r:
        pool = np.append(pool, alpha)
    values, inverse = np.unique(pool, return_inverse=True)
    mult = np.bincount(inverse[:r], minlength=values.size)
    if m > r:
        mult[inverse[r]] += m - r
    top = values.size - 1
    return values[::-1], mult[::-1], top - inverse[:r]


def reference_windows(values, mult, k):
    m = int(mult.sum())
    if k >= m:
        raise ValueError(f"k must be smaller than the dimension, got k={k}, m={m}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    length = m - k
    mult = mult.astype(float)
    logs = np.log(values)
    mean = float((mult * logs).sum()) / m
    clogs = logs - mean
    cum_n = np.concatenate([[0.0], np.cumsum(mult)])
    cum_s1 = np.concatenate([[0.0], np.cumsum(mult * clogs)])
    cum_s2 = np.concatenate([[0.0], np.cumsum(mult * clogs**2)])
    clogs = np.append(clogs, 0.0)
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


def reference_first_min(objectives, tol):
    return int(np.argmax(objectives <= objectives.min() + tol))


def reference_select_tau(alpha, d, m, k):
    """``select_tau`` of the spectrum {alpha + d_i} plus alpha (m - r times)."""
    values, mult, _ = reference_blocks(alpha, d, m)
    objectives, _, tol = reference_windows(values, mult, k)
    return reference_first_min(objectives, tol)


def reference_select(alpha, d, m, k):
    values, mult, block = reference_blocks(alpha, d, m)
    if not np.all(values > 0.0) or not math.isfinite(values[0]):
        raise ValueError("spectrum values must be finite and strictly positive")
    objectives, log_means, tol = reference_windows(values, mult, k)
    length = m - k
    hi = np.cumsum(mult)
    lo = hi - mult
    implicit = m - d.size
    first, last = 0, k
    if implicit:
        a = int(np.flatnonzero(values == alpha)[0])
        first, last = max(0, int(lo[a]) + implicit - length), min(k, int(hi[a]) - implicit)
    if implicit > length or first > last:
        raise ValueError(
            "no feasible window: a kept position would lack an explicit eigenvector"
        )
    tau = first + reference_first_min(objectives[first:last + 1], tol)
    kept = np.clip(tau - lo, 0, mult) + np.clip(hi - (tau + length), 0, mult)
    rank_in_block = np.arange(d.size) - np.searchsorted(block, block)
    columns = np.flatnonzero(rank_in_block < kept[block])
    return math.exp(log_means[tau]), columns, tau


def tied_spectrum(rng):
    """``(alpha, d, m, k)``: a descending d drawn from a few levels, so exact
    ties are common, some of them at ``d_i == 0`` (tied with alpha); the
    implicit block may be empty, and k may leave no feasible window."""
    alpha = float(np.exp(rng.normal(0.0, 1.0)))
    r = int(rng.integers(0, 12))
    levels = alpha * np.concatenate([[0.0], np.exp(rng.normal(0.0, 1.5, 4)) - 0.9])
    d = np.sort(rng.choice(levels, r))[::-1]
    m = r + int(rng.choice([0, 0, 1, 2, int(rng.integers(3, 40))]))
    m = max(m, 1)
    k = int(rng.integers(0, m))
    return alpha, d, m, k

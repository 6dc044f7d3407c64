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


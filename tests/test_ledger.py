"""Fixed-cost ledger: the calls one warm ``fast_eigh`` and one ``update`` make.

For five cases it counts the Python-level calls into loweig and into
numpy's own Python code (its wrappers and dispatchers, through
``sys.setprofile``), the LAPACK calls ``np.linalg.eigh`` and
``np.linalg.svd``, and the calls of the m-row kernels, wrapped wherever a
loweig module binds them. Each case is one operation as a caller makes it,
its records' constructors included. Each count is pinned at most at its
value in ``LEDGER``: a count may fall freely, and raising one is a decision
recorded in CHANGES.md. Every count is printed, so ``pytest -rP`` shows the
ledger.
"""

import importlib
import os
import sys

import numpy as np
import pytest

from loweig import (
    LabeledBatch,
    LowRankFactor,
    MetricModel,
    UpdateConfig,
    WeightedData,
    fast_eigh,
    learner,
    update,
)

PACKAGE_DIR = os.path.dirname(importlib.import_module("loweig").__file__) + os.sep
NUMPY_DIR = os.path.dirname(np.__file__) + os.sep
KERNELS = ("_block_gram", "_rotate", "_self_gram", "_project", "_take_columns")
LAPACK = ("eigh", "svd")

# the most calls each case may make: Python-level calls into loweig and into
# numpy, then by name
LEDGER = {
    "feigh (2^15; 1, 1, 1)": {"python": 87, "numpy": 50, "eigh": 2, "svd": 0, "_self_gram": 1,
                              "_block_gram": 1, "_rotate": 1},
    "feigh (64; 32, 4, 4)": {"python": 66, "numpy": 40, "eigh": 2, "svd": 0, "_self_gram": 1,
                             "_block_gram": 1, "_rotate": 1},
    "deferred update": {"python": 53, "numpy": 36, "eigh": 2, "svd": 0, "_block_gram": 1},
    "scaled update": {"python": 81, "numpy": 50, "eigh": 2, "svd": 0, "_block_gram": 2,
                      "_rotate": 1, "_self_gram": 1},
    "compacting update": {"python": 70, "numpy": 49, "eigh": 2, "svd": 0, "_block_gram": 1,
                          "_rotate": 1, "_self_gram": 1},
}


def ledger(monkeypatch, operation):
    """Run ``operation()`` once and return its result and its counts by name."""
    counts = dict.fromkeys(("python", "numpy", *LAPACK, *KERNELS), 0)

    def counting(original, name):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in LAPACK:
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name), name))
    # by sys.modules, for the package exports the function fast_eigh under
    # the name of its module
    modules = [module for key, module in list(sys.modules.items())
               if key == "loweig" or key.startswith("loweig.")]
    for module in modules:
        for name in KERNELS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name), name))

    def profile(frame, event, arg):
        if event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(PACKAGE_DIR):
                counts["python"] += 1
            elif filename.startswith(NUMPY_DIR):
                counts["numpy"] += 1

    sys.setprofile(profile)
    try:
        result = operation()
    finally:
        sys.setprofile(None)
    return result, counts


def check(case, counts):
    print(case, {name: n for name, n in counts.items() if n or name in LEDGER[case]})
    pinned = LEDGER[case]
    for name, n in counts.items():
        assert n <= pinned.get(name, 0), (case, name, n)


@pytest.mark.parametrize("m, n, nx, ny", [(2**15, 1, 1, 1), (64, 32, 4, 4)])
def test_warm_fast_eigh(monkeypatch, m, n, nx, ny):
    rng = np.random.default_rng(m + n)
    q, _ = np.linalg.qr(rng.standard_normal((m, n)))
    g = rng.standard_normal((n, n))
    b, x, y = (g + g.T) / 2.0, rng.standard_normal((m, nx)), rng.standard_normal((m, ny))

    def call():  # with its two constructors, as a caller makes it
        return fast_eigh(1.0, LowRankFactor(1.0, q, b), WeightedData(x, y))

    call()
    _, counts = ledger(monkeypatch, call)
    check(f"feigh ({'2^15' if m == 2**15 else m}; {n}, {nx}, {ny})", counts)


def test_learner_steps(monkeypatch):
    # the benchmark's stream shape: m = 4096, rank cap 32, 4 + 4 points per
    # batch, regular points along one direction and irregular along another
    m, per_class = 4096, 4
    rng = np.random.default_rng(23)
    directions, _ = np.linalg.qr(rng.standard_normal((m, 2)))
    cfg = UpdateConfig(0.9, 0.25, 32)

    def batch():
        signal = rng.uniform(0.7, 2.7, (2, per_class)) * rng.choice((-1.0, 1.0), (2, per_class))
        vectors = (signal[..., None] * directions.T[:, None, :]).reshape(-1, m)
        vectors += 0.1 * rng.standard_normal(vectors.shape)
        return vectors, np.repeat([1.0, -1.0], per_class)

    def step(model, vectors, weights):
        # the batch's record is built within the operation, as a caller builds it
        return lambda: update(model, LabeledBatch(vectors, weights), cfg)

    parent = MetricModel.identity(m, 1.0)
    while parent.rank < cfg.rank_cap or parent._held.j == 0:
        parent = update(parent, LabeledBatch(*batch()), cfg)
    held = parent._held
    # a batch that the Gram route scales runs on B W and compacts on [B Z],
    # without reading the snapshot's E, and gives back the row it wrote to ...
    vectors, weights = batch()
    scaled, counts = ledger(monkeypatch, step(parent, 1e100 * vectors, weights))
    assert (scaled.stats.route, scaled.stats.compacted) == ("gram", True)
    assert "eigen" not in vars(parent)
    check("scaled update", counts)
    monkeypatch.undo()
    # ... so a sibling step appends to the batch rows in place, with no fresh
    # buffer, and holds E as B W ...
    allocated, real = [], learner._aligned_empty
    monkeypatch.setattr(learner, "_aligned_empty",
                        lambda shape: allocated.append(shape) or real(shape))
    model, counts = ledger(monkeypatch, step(parent, *batch()))
    assert (model.stats.route, model.stats.compacted) == ("gram", False)
    assert model._held.basis is held.basis and allocated == []
    check("deferred update", counts)
    monkeypatch.undo()
    # ... until B would pass twice the columns of the compacted E
    while model._held.j + 2 * per_class <= model._held.E0.shape[1]:
        model = update(model, LabeledBatch(*batch()), cfg)
    model, counts = ledger(monkeypatch, step(model, *batch()))
    assert (model.stats.route, model.stats.compacted) == ("gram", True)
    check("compacting update", counts)

"""The benchmark's checks accept loweig's outputs and reject planted errors.

    python3 -m pytest perfbench
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import loweig as lw  # noqa: E402
from checks import CheckError, check_distances, check_eigh, check_update  # noqa: E402
from workloads import WORKLOADS, Feigh, LearnerScore, LearnerUpdate, model_arrays  # noqa: E402


@pytest.fixture
def eigh_case():
    wl = Feigh(m=200, n=4, nx=3, ny=3)
    inp = wl.make_input(np.random.default_rng(0))
    out = wl.run(lw, inp)
    return inp, out.E.copy(), out.D.copy()


def test_eigh_check_accepts_fast_eigh(eigh_case):
    (q, b, x, y), e, d = eigh_case
    check_eigh(1.0, q, b, x, y, e, d)


def test_eigh_check_rejects_perturbed_eigenvalue(eigh_case):
    (q, b, x, y), e, d = eigh_case
    d[3] += 1e-6 * abs(d[3])
    with pytest.raises(CheckError, match="eigvalsh"):
        check_eigh(1.0, q, b, x, y, e, d)


def test_eigh_check_rejects_non_orthonormal_e(eigh_case):
    (q, b, x, y), e, d = eigh_case
    e[:, 1] += 1e-6 * e[:, 0]
    with pytest.raises(CheckError, match="E\\^T E - I"):
        check_eigh(1.0, q, b, x, y, e, d)


def test_eigh_check_rejects_wrong_eigenvector(eigh_case):
    (q, b, x, y), e, d = eigh_case
    e[:, [0, 1]] = e[:, [1, 0]]
    with pytest.raises(CheckError, match="residual"):
        check_eigh(1.0, q, b, x, y, e, d)


def _trained(wl_cls, m=300, rank_cap=8):
    wl = wl_cls(m=m, rank_cap=rank_cap)
    rng = np.random.default_rng(1)
    wl.setup(lw, rng)
    return wl, rng


def test_update_check_accepts_and_rejects_perturbed_eigenvalue():
    wl, rng = _trained(LearnerUpdate)
    prev = wl.model
    vectors, weights = wl.make_input(rng)
    new = wl.run(lw, (vectors, weights))
    assert new.stats.truncated
    floor = 1e-12 * wl.decay * prev.factor.alpha
    args = (model_arrays(prev), vectors, weights, wl.decay, wl.gain, wl.rank_cap, floor)
    check_update(*args, model_arrays(new))
    d = new.eigen.D.copy()
    d[0] *= 1.0 + 1e-6
    with pytest.raises(CheckError, match="residual"):
        check_update(*args, dataclasses.replace(model_arrays(new), D=d))


def test_distance_check_accepts_and_rejects_wrong_distance():
    wl, rng = _trained(LearnerScore)
    points = wl.make_input(rng)
    dists = wl.run(lw, points)
    f = wl.trainer.model.factor
    check_distances(f.alpha, f.Q, f.B, points, dists)
    dists[7] *= 1.0 + 1e-6
    with pytest.raises(CheckError, match="distance"):
        check_distances(f.alpha, f.Q, f.B, points, dists)


def test_same_seed_same_inputs():
    for name in ("feigh-wide", "learner-score"):
        a, b = WORKLOADS[name](), WORKLOADS[name]()
        ra, rb = np.random.default_rng([3, 0]), np.random.default_rng([3, 0])
        a.setup(lw, ra)
        b.setup(lw, rb)
        np.testing.assert_array_equal(a.make_input(ra)[0], b.make_input(rb)[0])


def test_tracer_restores_originals_and_accounts_self_time():
    from tracing import Tracer

    original = lw.fast_eigh
    wl = Feigh(m=300, n=3, nx=2, ny=2)
    inp = wl.make_input(np.random.default_rng(2))
    tracer = Tracer()
    tracer.install()
    tracer.start_op()
    try:
        wl.run(lw, inp)
    finally:
        tracer.uninstall()
    totals = tracer.finish_op()
    assert lw.fast_eigh is original
    assert totals["fast_eigh.fast_eigh.calls"] == 1
    assert totals["kernels.symmetric_eig.dim"] >= 1
    root = [s for s in tracer.spans if s[1] is None]
    assert root[-1][0] == "fast_eigh.fast_eigh"
    assert {s[0] for s in root[:-1]} <= {"fast_eigh.validate"}
    wall = sum(end - start for _, _, start, end, _ in root)
    self_total = sum(s[4] for s in tracer.spans)
    assert all(s[4] >= 0.0 for s in tracer.spans)
    assert self_total == pytest.approx(wall, rel=1e-9)

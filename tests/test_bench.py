"""Harness behavior: instance generation, grids, fits, demo, CLI."""

import json

import numpy as np
import pytest

from loweig import (
    BenchConfig,
    BenchRecord,
    demo_learner,
    fit_scaling,
    generate_instance,
    normalized_flatness,
    run_grid,
)
from loweig.cli import main, parse_m_grid


class TestGenerateInstance:
    def test_deterministic(self):
        a1, f1, d1 = generate_instance(42, 20, 2, 3, 1)
        a2, f2, d2 = generate_instance(42, 20, 2, 3, 1)
        assert a1 == a2
        assert np.array_equal(f1.Q, f2.Q) and np.array_equal(f1.B, f2.B)
        assert np.array_equal(d1.X, d2.X) and np.array_equal(d1.Y, d2.Y)

    def test_basis_orthonormal(self):
        _, factor, _ = generate_instance(7, 50, 5, 0, 0)
        assert np.linalg.norm(factor.Q.T @ factor.Q - np.eye(5)) <= 1e-10

    def test_all_empty(self):
        alpha, factor, data = generate_instance(0, 8, 0, 0, 0)
        assert alpha == 1.0
        assert factor.rank == 0
        assert data.X.shape == (8, 0) and data.Y.shape == (8, 0)

    def test_rank_overflow_rejected(self):
        with pytest.raises(ValueError):
            generate_instance(0, 4, 2, 2, 2)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(m_grid=())
        with pytest.raises(ValueError):
            BenchConfig(m_grid=(64, 32))
        with pytest.raises(ValueError):
            BenchConfig(m_grid=(32,), repeats=0)
        with pytest.raises(ValueError):
            BenchConfig(m_grid=(32,), algorithms=("magic",))
        with pytest.raises(ValueError):
            BenchConfig(m_grid=(32,), n=0, nx=0, ny=0)
        with pytest.raises(ValueError, match="ranks must be >= 0"):
            BenchConfig(m_grid=(32,), n=-1, nx=2, ny=1)
        # the combined rank must fit the smallest m, not only the largest
        with pytest.raises(ValueError, match="combined rank"):
            BenchConfig(m_grid=(4, 32), n=2, nx=2, ny=2)

    @pytest.mark.parametrize("field, kwargs", [
        ("n", {"n": 1.5}),
        ("nx", {"nx": 1.0}),
        ("ny", {"ny": np.float64(2.0)}),
        ("repeats", {"repeats": 2.5}),
        ("m_grid", {"m_grid": (32.5,)}),
        ("m_grid", {"m_grid": (32, 64.0)}),
    ])
    def test_non_integral_size_rejected_by_name(self, field, kwargs):
        with pytest.raises(TypeError, match=f"^{field}"):
            BenchConfig(**{"m_grid": (32,), "repeats": 1, **kwargs})

    def test_numpy_integers_accepted(self):
        cfg = BenchConfig(m_grid=(np.int64(32),), n=np.int32(1), repeats=np.int64(1))
        assert cfg.m_grid == (32,) and type(cfg.m_grid[0]) is int

    @pytest.mark.parametrize("seed, error", [
        ("x", TypeError), (1.5, TypeError), (None, TypeError), (-1, ValueError),
    ])
    def test_bad_seed_rejected_by_name(self, seed, error):
        with pytest.raises(error, match="^seed"):
            BenchConfig(m_grid=(32,), seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert BenchConfig(m_grid=(32,), seed=np.int64(7)).seed == 7


class TestRecord:
    @pytest.mark.parametrize("seconds", [0.0, -1e-3, np.nan, np.inf, -np.inf])
    def test_bad_seconds_rejected(self, seconds):
        with pytest.raises(ValueError, match="^seconds must be positive"):
            BenchRecord("feigh", 8, 1, 1, 1, 0, seconds)


class TestRunGrid:
    def test_dense_only_shape(self):
        cfg = BenchConfig(m_grid=(64, 128), repeats=3, seed=5, algorithms=("feigh",))
        records = run_grid(cfg)
        assert len(records) == 6
        for r in records:
            assert r.algorithm == "feigh"
            assert (r.n, r.nx, r.ny) == (1, 1, 1)
            assert r.seconds > 0.0

    def test_svd_cells_fold_rank_into_x(self):
        cfg = BenchConfig(m_grid=(32,), n=2, nx=1, ny=1, repeats=1, algorithms=("svd",))
        (record,) = run_grid(cfg)
        assert (record.n, record.nx, record.ny) == (0, 4, 0)


def synthetic_records(exponent, ms=(64, 128, 256, 512, 1024, 2048), repeats=1):
    records = []
    for m in ms:
        for rep in range(repeats):
            records.append(BenchRecord("feigh", m, 1, 1, 1, rep, 1e-9 * m**exponent))
    return records


class TestFitScaling:
    def test_linear_power_law(self):
        slopes = fit_scaling(synthetic_records(1))
        assert slopes["feigh"] == pytest.approx(1.0, abs=1e-9)

    def test_cubic_power_law(self):
        slopes = fit_scaling(synthetic_records(3))
        assert slopes["feigh"] == pytest.approx(3.0, abs=1e-9)

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            fit_scaling(synthetic_records(1, ms=(64, 128, 256)))

    def test_warmup_repeat_excluded(self):
        records = []
        for m in (64, 128, 256, 512):
            for rep in range(3):
                secs = 1.0 if rep == 0 else 1e-9 * m  # wild warm-up outlier
                records.append(BenchRecord("feigh", m, 1, 1, 1, rep, secs))
        slopes = fit_scaling(records)
        assert slopes["feigh"] == pytest.approx(1.0, abs=1e-9)

    def test_flatness_of_exact_law(self):
        ratios = normalized_flatness(synthetic_records(1))
        assert ratios["feigh"] == pytest.approx(1.0, abs=1e-9)


class TestDemoLearner:
    def test_zero_iterations(self):
        report = demo_learner(m=16, rank_cap=4, iters=0, seed=1)
        assert report["iterations"] == []
        assert report["accuracy"] is None
        assert report["model"]["alpha"] == 1.0
        assert report["iters"] == 0

    def test_zero_gain_keeps_distances_constant(self):
        report = demo_learner(m=16, rank_cap=4, iters=4, seed=2, decay=1.0, gain=0.0)
        reg = [it["regular_distance"] for it in report["iterations"]]
        irr = [it["irregular_distance"] for it in report["iterations"]]
        assert reg == [reg[0]] * 4
        assert irr == [irr[0]] * 4

    def test_default_scenario_regression(self):
        # fixed-seed regression; the accuracy value was recorded from the
        # first computation of this exact scenario
        report = demo_learner(m=64, rank_cap=8, iters=20, seed=0)
        assert report["accuracy"] >= 0.9
        assert report["accuracy"] == pytest.approx(1.0, abs=1e-12)


class TestCli:
    def test_run_and_fit(self, capsys):
        code = main([
            "run", "--m-grid", "16,32,64,128", "--repeats", "3", "--seed", "3",
            "--algorithms", "feigh,svd",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        # one quantile line per (algorithm, m) cell, warm-up repeat dropped
        cells = [line for line in lines if " m=" in line]
        assert len(cells) == 8
        assert all("median" in line and "over 2 repeats" in line for line in cells)
        fits = [line for line in lines if "log-log slope" in line]
        assert [line.split(":")[0] for line in fits] == ["feigh", "svd"]
        assert all("normalized last/first ratio" in line for line in fits)

    def test_short_grid_prints_no_fit(self, capsys):
        assert main(["run", "--m-grid", "16,32", "--repeats", "1"]) == 0
        assert "log-log slope" not in capsys.readouterr().out

    def test_demo_subcommand(self, tmp_path):
        out = tmp_path / "demo.json"
        code = main([
            "demo-learner", "--m", "16", "--rank-cap", "4", "--iters", "2",
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["iters"] == 2

    def test_bad_config_exits_nonzero(self):
        assert main(["run", "--m-grid", "64:32:x2"]) == 1

    @pytest.mark.parametrize("factor", ["xinf", "xnan"])
    def test_non_finite_grid_factor_exits_nonzero(self, factor, capsys):
        assert main(["run", "--m-grid", f"1:4:{factor}"]) == 1
        assert capsys.readouterr().err.startswith("error: bad grid bounds")
        assert main(["run", "--m-grid", "4,32", "--n", "2", "--nx", "2", "--ny", "2"]) == 1

    def test_parse_m_grid(self):
        assert parse_m_grid("1024:8192:x2") == (1024, 2048, 4096, 8192)
        assert parse_m_grid("64,128") == (64, 128)
        with pytest.raises(ValueError):
            parse_m_grid("64:128")

    @pytest.mark.parametrize("factor", ["xinf", "x-inf", "xnan", "x1"])
    def test_parse_m_grid_rejects_bad_factor(self, factor):
        with pytest.raises(ValueError, match="bad grid bounds"):
            parse_m_grid(f"1:4:{factor}")

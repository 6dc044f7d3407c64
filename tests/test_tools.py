"""The scripts under ``tools/``: their verdicts, without running a benchmark."""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("fault", [None, "incorrect", "failed"])
def test_bench_pairs_fails_after_writing_on_a_faulty_run(tmp_path, monkeypatch, fault):
    # the child's second run reports a failed check or two failed operations
    tool = load("bench_pairs")
    trees = {side: tmp_path / side for side in ("parent", "child")}
    for tree in trees.values():
        tree.mkdir()
    spec = {"end_to_end": [{"name": "op_p50_scaled_ms", "bound": 0.24}]}
    (trees["child"] / "BENCHMARK.json").write_text(json.dumps(spec))

    def run_once(tree, workload, seed, seconds):
        faulty = tree.name == "child" and seed == 102
        return {"correct": not (faulty and fault == "incorrect"), "attempted": 10,
                "failed": 2 if faulty and fault == "failed" else 0,
                "metrics": {"op_p50_scaled_ms": {"value": 1.0, "unit": "ms"}}}

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(tool, "commit", lambda tree: None)
    code = tool.main(["--parent", str(trees["parent"]), "--child", str(trees["child"]),
                      "--label", "t", "--pairs", "3", "--seed", "101", "--workloads",
                      "learner-update", "--out", str(tmp_path)])
    record = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["learner-update"]
    assert code == (0 if fault is None else 1)
    assert record["failed_share"] == {"parent": 0.0, "child": 2 / 30 if fault == "failed" else 0.0}
    assert record["summary"]["op_p50_scaled_ms"]["verdict"] == "same"


def test_same_results_compare_names_each_set(tmp_path, capsys):
    tool = load("same_results")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    sets = {"one": {"sha256": "0" * 64, "items": 3}, "two": {"sha256": "1" * 64, "items": 2}}
    a.write_text(json.dumps({"sets": sets}))
    b.write_text(json.dumps({"sets": sets}))
    assert tool.main(["compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out.split("\n")[:2] == ["one: equal", "two: equal"]
    b.write_text(json.dumps({"sets": {**sets, "two": {"sha256": "2" * 64, "items": 2}}}))
    assert tool.main(["compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.split("\n")[:2] == ["one: equal", "two: different"]


def test_same_results_digest_reads_bits_and_order():
    tool = load("same_results")

    def digest(*items):
        h = hashlib.sha256()
        for item in items:
            tool.feed(h, item)
        return h.hexdigest()

    x = np.arange(6.0).reshape(2, 3)
    assert digest(x, 1.0) == digest(x.copy(), 1.0)
    assert digest(x, 1.0) != digest(x.reshape(3, 2), 1.0)
    assert digest(x, 0.0) != digest(x, -0.0)
    assert digest(1.0, 2.0) != digest(2.0, 1.0)

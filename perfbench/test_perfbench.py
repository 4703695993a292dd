"""Tests of the benchmark itself: python -m pytest perfbench -q"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import instrument  # noqa: E402
from bnbopt import bench, bnb, cli, gp  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(autouse=True)
def results_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "RESULTS", tmp_path)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_smoke_at_tiny_size(name, trace):
    result = harness.measure(name, seed=3, seconds=0.01, trace=trace,
                             params=WORKLOADS[name].tiny)
    assert result["correct"], result["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    for spec in harness.declared_metrics(trace):
        assert math.isfinite(result["metrics"][spec["name"]])
    if trace:
        assert result["metrics"]["bnb.run.calls"] >= 1
    else:
        assert result["metrics"]["failed_frac"] == 0.0
        assert result["metrics"]["wall_s"] > 0.0


def test_same_seed_same_trace_digest():
    name = "bowl-3d"
    a = harness.run_pass(name, WORKLOADS[name].tiny, 5, trace=False)
    b = harness.run_pass(name, WORKLOADS[name].tiny, 5, trace=True)
    c = harness.run_pass(name, WORKLOADS[name].tiny, 6, trace=False)
    assert a.digest == b.digest != c.digest
    assert a.evals == b.evals == len(a.gaps_ms) + 2


def test_self_time_on_synthetic_span_tree():
    # root 0..10 with children 1..4 and 3..6 (overlapping: 5 covered) and
    # 8..9; the first child has a grandchild 2..3
    spans = [
        ["root", 0.0, 10.0, -1, None, None],
        ["a", 1.0, 4.0, 0, None, None],
        ["b", 3.0, 6.0, 0, None, None],
        ["c", 8.0, 9.0, 0, None, None],
        ["d", 2.0, 3.0, 1, None, None],
    ]
    assert instrument.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 1.0]


def test_layer_metrics_counts_refits_and_escalations():
    spans = [
        ["gp.extend", 0.0, 5.0, -1, "w:bnb:0",
         {"gp.extend.prior_size": 0, "gp.jitter_escalations": 0}],
        ["gp.fit", 1.0, 2.0, 0, "w:bnb:0", {"gp.jitter_escalations": 0}],
        ["gp.extend", 5.0, 9.0, -1, "w:bnb:0",
         {"gp.extend.prior_size": 3, "gp.jitter_escalations": 1}],
        ["gp.fit", 6.0, 8.0, 2, "w:bnb:0", {"gp.jitter_escalations": 1}],
    ]
    m = instrument.layer_metrics(spans)
    assert m["gp.extend.calls"] == 2
    assert m["gp.extend.s"] == 9.0
    assert m["gp.extend.self_s"] == 6.0
    assert m["gp.fit.s"] == 3.0
    assert m["gp.extend.refits"] == 1
    assert m["gp.jitter_escalations"] == 2


def test_wrapped_names_are_restored_after_a_traced_run():
    owners = [(bnb, "run"), (bench, "run"), (bench, "plain_ucb_run"),
              (bench, "gp_sample_objective"), (bench, "quadratic_objective"),
              (bench._EnvelopeAudit, "__call__")]
    owners += [(owner, attr) for owner, attr, _, _ in instrument._SPANNED]
    originals = [getattr(owner, attr) for owner, attr in owners]
    assert gp.GPPosterior.extend in originals and cli.main in originals
    with instrument.Instrument("t", trace=True):
        for (owner, attr), original in zip(owners, originals):
            assert getattr(owner, attr) is not original, attr
    name = "envelope-1d"
    harness.run_pass(name, WORKLOADS[name].tiny, 0, trace=True)
    for (owner, attr), original in zip(owners, originals):
        assert getattr(owner, attr) is original, attr


def test_traced_spans_nest_and_carry_run_ids():
    name = "regret-1d"
    rep = harness.run_pass(name, WORKLOADS[name].tiny, 0, trace=True)
    names = {s[instrument.NAME] for s in rep.spans}
    assert {"cli.main", "bnb.run", "bench.plain_ucb_run", "gp.extend",
            "gp.predict_batch", "kernels.pairwise", "bench.objective"} <= names
    runs = {s[instrument.RUN] for s in rep.spans if s[instrument.NAME] == "bnb.run"}
    assert runs == {"regret-1d:bnb:0", "regret-1d:bnb:1"}
    for span in rep.spans:
        parent = span[instrument.PARENT]
        if parent >= 0:
            p = rep.spans[parent]
            assert p[instrument.START] <= span[instrument.START]
            assert span[instrument.END] <= p[instrument.END]


def test_injected_failing_check_makes_exit_code_nonzero(monkeypatch, capsys):
    name = "bowl-3d"
    tiny = dataclasses.replace(WORKLOADS[name], full=WORKLOADS[name].tiny)
    monkeypatch.setitem(harness.WORKLOADS, name, tiny)
    argv = ["--workload", name, "--seed", "1", "--seconds", "0.01", "--trace", "0"]
    assert harness.main(argv, HERE / "run.py") == 0
    capsys.readouterr()

    def fail(rec, *args):
        return ["injected"]

    monkeypatch.setattr(harness, "run_failures", fail)
    assert harness.main(argv, HERE / "run.py") != 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] == 2


def test_benchmark_json_names_metrics_the_harness_computes():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in spec["workloads"]]
    assert declared == [name for name in WORKLOADS if name in declared]
    for m in spec["end_to_end"]:
        assert harness.E2E_UNITS[m["name"]] == (m["unit"], m["better"])
    layer_names = set(instrument.layer_metrics([]))
    layer_names |= {"trace.wall_s", "trace.overhead_frac"}
    for m in spec["per_layer"]:
        assert m["name"] in layer_names
        assert harness.layer_unit(m["name"]) == m["unit"]


def test_exits_nonzero_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bowl-1d", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout

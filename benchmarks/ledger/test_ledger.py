"""Self-tests of the ledger benchmark, at tiny workload sizes.

Run with ``pytest benchmarks/ledger``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

SPEC = run.spec()
NAMES = run.workload_names()


@pytest.fixture(scope="module")
def tiny():
    reps = {name: [run.measure(name, 1, tiny=True) for _ in range(2)] for name in NAMES}
    traced = {name: run.measure(name, 1, traced=True, tiny=True) for name in NAMES}
    micro = run.measure_micro(samples=2)
    return reps, traced, micro, run.build_report(1, reps, traced, micro)


def test_every_metric_is_printed_with_its_unit(tiny):
    reps, traced, micro, report = tiny
    rows = [line.split() for line in run.format_report(report).splitlines()]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"] + [{"name": "fail_frac", "unit": "ratio"}]:
        assert any(r[:1] == [metric["name"]] and metric["unit"] in r for r in rows), metric["name"]


def test_contract_results_carry_every_metric(tiny):
    reps, traced, micro, _ = tiny
    name = "sea_16x16"
    for values, wanted in (
        (run.end_to_end_values(reps[name]), SPEC["end_to_end"]),
        (run.per_layer(traced[name], reps[name], micro), SPEC["per_layer"]),
    ):
        result = run.result_line(reps[name], values, wanted)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert [m["name"] for m in wanted] == list(result["metrics"])
        json.dumps(result)


def test_no_operation_fails(tiny):
    for name, w in tiny[3]["workloads"].items():
        assert w["end_to_end"]["fail_frac"]["median"] == 0, name
        assert w["sim_repeats_exactly"], name


def test_trace_covers_the_run(tiny):
    for name, w in tiny[3]["workloads"].items():
        assert w["per_layer"]["trace.coverage"]["value"] >= 0.9, name


def test_corrupted_sobel_line_fails():
    edge = workloads.build("edge_detection_2x2", 1, tiny=True)
    edge.run()
    assert edge.check() == (2, 0)
    edge.output[1][1] ^= 1
    assert edge.check() == (2, 1)


def test_dropped_packet_fails():
    noc = workloads.build("noc_uniform_8x8", 1, tiny=True)
    noc.run()
    attempted, failed = noc.check()
    assert failed == 0
    noc.received.pop()
    assert noc.check() == (attempted, 1)


def test_timeout_counts_outstanding_operations():
    noc = workloads.NocTraffic(1, topology="mesh:3x3", duration=60, budget=40)
    noc.run()
    attempted, failed = noc.check()
    assert 0 < failed <= attempted


def test_ledger_names_match_the_benchmark():
    doc = run.ledger()
    assert set(NAMES) == set(workloads.WORKLOADS) == set(doc["pins"])
    assert set(doc["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}


def test_default_seed_generates_pinned_inputs():
    doc = run.ledger()
    for name, pin in doc["pins"].items():
        built = workloads.build(name, doc["default_seed"])
        assert workloads.digest(built.inputs()) == pin["inputs"], name


def test_compare_flags_a_2x_slowdown_and_passes_identical_reports(tiny, tmp_path):
    report = tiny[3]
    slow = copy.deepcopy(report)
    for w in slow["workloads"].values():
        rows = w["end_to_end"]
        rows["wall_s"]["samples"] = [2 * x for x in rows["wall_s"]["samples"]]
        rows["sim_cycles_per_s"]["samples"] = [x / 2 for x in rows["sim_cycles_per_s"]["samples"]]
    parent, same, change = tmp_path / "p.json", tmp_path / "s.json", tmp_path / "c.json"
    parent.write_text(json.dumps(report))
    same.write_text(json.dumps(report))
    change.write_text(json.dumps(slow))
    assert run.compare(parent, same) == 0
    assert run.compare(parent, change) == 1


def test_compare_does_not_let_one_fast_repetition_decide():
    parent = [1.0, 1.01, 1.02, 1.03, 1.04]
    slowed_but_one = [1.0, 2.0, 2.0, 2.0, 2.0]
    assert run.judge(parent, parent, "lower", 0.25) == "same"
    assert run.judge(parent, slowed_but_one, "lower", 0.25) == "unresolved"


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "ledger", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "sea_16x16", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

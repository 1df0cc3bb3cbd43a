"""Small-size checks of the benchmark itself (not part of the repo's tier-1).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Every workload runs at ``scale="small"`` under a non-default seed, so only
the structural checks apply (the pinned digests belong to the default seed
at full size).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
from layers import ROWS, LayerTrace  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SEED = DEFAULT_SEED + 6


@pytest.fixture(autouse=True)
def _plain_environment(monkeypatch):
    for variable in run.PROGRAM_ENVIRONMENT:
        monkeypatch.delenv(variable, raising=False)


@pytest.fixture(scope="module")
def documents():
    """Every workload measured small, untraced and traced."""
    return {
        (name, trace): run.measure(name, SEED, seconds=0, trace=trace, scale="small")
        for name in WORKLOADS
        for trace in (False, True)
    }


def test_workloads_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = [workload["name"] for workload in json.load(handle)["workloads"]]
    assert declared == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_appears_with_its_unit(documents, name, trace):
    document = documents[(name, trace)]
    assert document["problems"] == []
    declared = run.declared_metrics()["per_layer" if trace else "end_to_end"]
    line = run.result_line(document)
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in line["metrics"].items()} == declared
    for metric in document["metrics"].values():
        assert {"samples", "median", "q1", "q3", "value", "unit"} <= set(metric)
    environment = document["environment"]
    assert environment["seed"] == SEED
    assert {"python", "numpy", "nproc", "commit", "loadavg_at_start"} <= set(environment)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_time_table_sums_to_traced_wall(documents, name):
    metrics = documents[(name, True)]["metrics"]
    parts = [metrics[metric]["value"] for _, metric in ROWS]
    total = sum(parts) + metrics["unattributed_s"]["value"]
    assert total == pytest.approx(metrics["traced_wall_s"]["value"], rel=1e-9)
    assert all(part >= 0.0 for part in parts)


def test_bypassed_layers_read_zero(documents):
    def value(name, metric):
        return documents[(name, True)]["metrics"][metric]["value"]

    assert value("sweep-faulty", "sim.vectorized.run_s") == 0.0
    assert value("sweep-faulty", "sim.reference.run_s") > 0.0
    assert value("sweep-vectorized", "sim.reference.run_s") == 0.0
    assert value("sweep-vectorized", "sim.vectorized.run_s") > 0.0
    assert value("campaign-tiny", "exec.wire.bytes_per_trial") > 0.0
    assert value("sweep-vectorized", "exec.wire.bytes_per_trial") == 0.0
    assert value("sweep-vectorized", "graphs.mixing_calls") >= 1
    assert value("sweep-faulty", "faults.dropped") > 0
    assert value("campaign-tiny", "exec.cache.hit_ratio") == 1.0


@pytest.mark.parametrize("scale", ["small", "full"])
def test_mixing_oracle_reuses_graph_instances(scale):
    # Several known_tmix trials per graph instance, so graphs.mixing_calls
    # per trial can tell a memo that is reached from one that misses.
    spec = WORKLOADS["sweep-vectorized"].campaign(SEED, scale)
    oracle = [
        sweep
        for sweep in spec.sweeps
        if {config.algorithm for config in sweep.configs} == {"known_tmix"}
    ]
    assert oracle and all(sweep.trials > 1 for sweep in oracle)


def test_wrappers_restore_the_program(documents):
    # The traced runs above installed and removed wrappers; what a fresh
    # trace captures as originals must be the program's own objects.
    trace = LayerTrace()
    trace.install()
    try:
        sites = trace.sites()
        assert sites and all(vars(owner)[attr] is not orig for owner, attr, orig in sites)
        assert not any(hasattr(orig, "__wrapped__") for _, _, orig in sites)
    finally:
        trace.uninstall()
    assert all(vars(owner)[attr] is orig for owner, attr, orig in sites)
    assert trace.sites() == []


def test_verification_catches_broken_outputs():
    workload = WORKLOADS["sweep-faulty"]
    directory = os.path.join(run.OUTPUT, "test-broken-%d" % os.getpid())
    os.makedirs(directory)
    try:
        spec, _, passes, paces, pass_paces = run.run_campaign(
            workload, SEED, "small", directory
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    assert checks.verify(workload.name, spec, passes) == []
    # Every pass sits between two paces: the cold one alone, the warm ones
    # in PACE_GROUPS groups.
    assert len(paces) == 2 + run.PACE_GROUPS
    assert len(pass_paces) == len(passes)
    assert pass_paces[0] == (paces[0] + paces[1]) / 2

    stale = dataclasses.replace(passes[-1], report=passes[-1].report + b" ")
    assert checks.verify(workload.name, spec, passes[:-1] + [stale])

    report = json.loads(passes[0].report)
    report["sweeps"][0]["rows"][1]["overhead"] += 0.5
    skewed = json.dumps(report).encode("utf-8")
    problems = checks.verify(
        workload.name, spec, [dataclasses.replace(one, report=skewed) for one in passes]
    )
    assert problems and all("overhead" in problem for problem in problems)

    digest = checks.outcome_digest(spec, passes[0].result)
    crashed = next(
        outcome
        for sweep in spec.sweeps
        for outcome in passes[0].result.outcomes_for(sweep.name)
        if outcome.crashed_nodes
    )
    crashed.crashed_nodes.pop()
    assert checks.verify(workload.name, spec, passes)
    assert checks.outcome_digest(spec, passes[0].result) != digest

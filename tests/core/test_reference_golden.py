"""Golden digest of reference-engine outcomes under every fault model.

The reference engine (``sim.Network`` + :class:`LeaderElectionNode`) is the
bit-exactness oracle, so any change to its bookkeeping must leave every
outcome exactly as it was.  This test runs a fixed grid -- the paper's
election and the known-``t_mix`` baseline on small expander, hypercube and
Gilbert graphs, each against no faults, drops, duplicates, random and
uniform per-edge delays, a crash at a round, edge removal, heavy loss with
delays and one combined plan -- and pins one SHA-256 over the outcomes.

Send order inside a round is part of the output: the fault injector draws
its drop/duplicate decisions from one stream in outbox order, so a reordered
send changes which messages are lost.  The delay plans reach the branches
for walk tokens and converge-casts that arrive after their segment closed.

When the digest moves on purpose (a deliberate protocol change), print the
new value with ``python tests/core/test_reference_golden.py``.
"""

import hashlib
import json
import sys

from repro.core import ElectionParameters
from repro.exec import GraphSpec, TrialSpec, get_algorithm
from repro.faults import FaultPlan
from repro.faults.plan import CrashFaults, DelayFaults, EdgeFaults, MessageFaults
from repro.graphs import gilbert_connectivity_radius

#: Cheap election constants: the digest pins the engine, not statistics.
FAST = ElectionParameters(c1=3.0, c2=0.5)

GRAPHS = (
    GraphSpec("expander", (32,), {"degree": 4}, seed=11),
    GraphSpec("hypercube", (5,)),
    GraphSpec("gilbert", (32, gilbert_connectivity_radius(32)), seed=12),
)

PLANS = (
    ("none", None),
    ("drop", FaultPlan.dropping(0.1)),
    ("duplicate", FaultPlan.duplicating(0.1)),
    ("random_delay", FaultPlan.delaying(12)),
    ("uniform_delay", FaultPlan.delaying(4, min_delay=4)),
    ("crash_at_round", FaultPlan.crashing(count=3, at_round=6)),
    ("edge_removal", FaultPlan.removing_edges(0.15, at_round=4)),
    # Heavy loss on top of delays: late-joining trees then fall due in the
    # same round as on-time ones, so the order their sends leave in decides
    # which messages are dropped.
    (
        "lossy_delay",
        FaultPlan(
            messages=MessageFaults(drop_probability=0.2, duplicate_probability=0.2),
            delays=DelayFaults(max_delay=3, min_delay=1),
        ),
    ),
    (
        "combined",
        FaultPlan(
            messages=MessageFaults(drop_probability=0.05, duplicate_probability=0.05),
            crashes=CrashFaults(count=2, at_phase=1),
            delays=DelayFaults(max_delay=2),
            edges=EdgeFaults(removal_probability=0.1, at_round=10),
        ),
    ),
)

ALGORITHMS = (
    ("election", {}),
    ("known_tmix", {"mixing_time": 6}),
)

GOLDEN_DIGEST = "df9cd06e3c2ab31d2871316f79488abbaa821c5e775398f68a49915c9a266d96"


def grid():
    for algorithm, kwargs in ALGORITHMS:
        for graph in GRAPHS:
            for plan_name, plan in PLANS:
                yield plan_name, TrialSpec(
                    graph=graph,
                    algorithm=algorithm,
                    seed=1,
                    params=FAST,
                    algo_kwargs=dict(kwargs),
                    fault_plan=plan,
                    simulator="reference",
                )


def outcome_record(plan_name, spec, graph):
    outcome = get_algorithm(spec.algorithm).run(graph, spec)
    metrics = outcome.metrics
    return {
        "trial": "%s %s" % (spec.describe(), plan_name),
        "winners": sorted(outcome.winners),
        "classification": outcome.classification,
        "rounds": metrics.rounds,
        "messages": metrics.messages,
        "message_units": metrics.message_units,
        "crashed": sorted(outcome.crashed_nodes),
        "fault_events": metrics.fault_events,
    }


def grid_records():
    built = {graph.describe(): graph.build() for graph in GRAPHS}
    return [
        outcome_record(plan_name, spec, built[spec.graph.describe()])
        for plan_name, spec in grid()
    ]


def digest(records):
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_reference_outcomes_match_golden_digest():
    records = grid_records()
    # The grid must actually exercise the adversary, or the digest pins
    # nothing about the fault paths.
    assert any(r["fault_events"] and r["fault_events"]["dropped"] for r in records)
    assert any(r["fault_events"] and r["fault_events"]["delayed"] for r in records)
    assert any(r["crashed"] for r in records)
    assert digest(records) == GOLDEN_DIGEST


if __name__ == "__main__":
    sys.stdout.write(digest(grid_records()) + "\n")

"""Verification of every campaign the benchmark runs.

A run whose checks fail reports no numbers.  The checks here are structural
and hold for every seed; for the default seed each campaign's outcome digest
must also equal the one pinned in ``pinned.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Sequence

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")


def pinned_digests(workload: str) -> List[str]:
    """The pinned default-seed digests of ``workload``, one per campaign."""
    with open(PINNED_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)["digests"].get(workload, [])


def outcome_digest(spec, result) -> str:
    """SHA-256 over every trial's winners, classification, rounds, messages
    and crashed set, in the campaign's canonical order."""
    digest = hashlib.sha256()
    for sweep in spec.sweeps:
        for index, outcome in enumerate(result.outcomes_for(sweep.name)):
            record = [
                sweep.name,
                index,
                sorted(outcome.winners),
                outcome.classification,
                outcome.rounds,
                outcome.messages,
                sorted(outcome.crashed_nodes),
            ]
            digest.update(json.dumps(record).encode("utf-8") + b"\n")
    return digest.hexdigest()


def check_passes(spec, passes: Sequence) -> List[str]:
    """Checks every workload shares: a cold pass that executes every trial,
    warm passes that execute none, and byte-identical reports."""
    problems = []
    cold, warm = passes[0], passes[1:]
    total = spec.num_trials
    if cold.result.failed or cold.result.executed != total:
        problems.append(
            "cold pass executed %d of %d trials, %d failed"
            % (cold.result.executed, total, cold.result.failed)
        )
    for number, resumed in enumerate(warm, start=1):
        if resumed.result.executed or resumed.result.cache_hits != total:
            problems.append(
                "warm pass %d executed %d trials, %d of %d cached"
                % (number, resumed.result.executed, resumed.result.cache_hits, total)
            )
        if resumed.report != cold.report:
            problems.append("warm pass %d report.json differs from the cold one" % number)
    return problems


def _check_vectorized(spec, result, report) -> List[str]:
    problems = []
    for sweep in spec.sweeps:
        for index, outcome in enumerate(result.outcomes_for(sweep.name)):
            if len(outcome.winners) != 1 or outcome.classification != "elected":
                problems.append(
                    "%s[%d]: %d leaders (%s)"
                    % (sweep.name, index, len(outcome.winners), outcome.classification)
                )
            if outcome.extras.get("simulator") != "vectorized":
                problems.append(
                    "%s[%d] ran on %r, not the vectorized engine"
                    % (sweep.name, index, outcome.extras.get("simulator", "reference"))
                )
    return problems


def _check_faulty(spec, result, report) -> List[str]:
    problems = []
    rows_by_sweep = {sweep["name"]: sweep["rows"] for sweep in report["sweeps"]}
    for sweep in spec.sweeps:
        rows = rows_by_sweep[sweep.name]
        anchor = rows[0]
        if anchor.get("success_rate") != 1.0 or anchor.get("overhead") != 1.0:
            problems.append(
                "%s anchor: success_rate %r, overhead %r (want 1.0, 1.0)"
                % (sweep.name, anchor.get("success_rate"), anchor.get("overhead"))
            )
        groups = sweep.group(result.outcomes_for(sweep.name))
        # The report's message means and overheads, recomputed from the
        # cold pass's own outcomes against the fault-free anchor's count.
        means = [sum(o.messages for o in outcomes) / len(outcomes) for outcomes in groups]
        for row, mean in zip(rows, means):
            expected = (round(mean, 1), round(mean / means[0], 3))
            if (row.get("messages"), row.get("overhead")) != expected:
                problems.append(
                    "%s %s: messages %r, overhead %r in the report; outcomes give %r, %r"
                    % ((sweep.name, row["label"], row.get("messages"), row.get("overhead"))
                       + expected)
                )
        for config, outcomes in zip(sweep.configs, groups):
            plan = config.effective_fault_plan
            if plan is None:
                continue
            if plan.messages.drop_probability > 0:
                quiet = [
                    o for o in outcomes if o.metrics.fault_events.get("dropped", 0) <= 0
                ]
                if quiet:
                    problems.append(
                        "%s %s: %d trial(s) dropped nothing"
                        % (sweep.name, plan.describe(), len(quiet))
                    )
            crashed = sum(len(o.crashed_nodes) for o in outcomes)
            expected = plan.crashes.num_crashes * len(outcomes)
            if crashed != expected:
                problems.append(
                    "%s %s: %d crashed nodes, expected %d"
                    % (sweep.name, plan.describe(), crashed, expected)
                )
    return problems


_WORKLOAD_CHECKS = {
    "sweep-vectorized": _check_vectorized,
    "sweep-faulty": _check_faulty,
}


def verify(workload: str, spec, passes: Sequence) -> List[str]:
    """Every problem found in one cold pass and its warm resumes."""
    problems = check_passes(spec, passes)
    check = _WORKLOAD_CHECKS.get(workload)
    if not problems and check is not None:
        cold = passes[0]
        problems += check(spec, cold.result, json.loads(cold.report))
    return problems


def fault_counts(spec, result) -> Dict[str, int]:
    """Dropped messages and crashed nodes over one pass's outcomes."""
    dropped = crashed = 0
    for sweep in spec.sweeps:
        for outcome in result.outcomes_for(sweep.name):
            dropped += outcome.metrics.fault_events.get("dropped", 0)
            crashed += len(outcome.crashed_nodes)
    return {"faults.dropped": dropped, "faults.crashed_nodes": crashed}

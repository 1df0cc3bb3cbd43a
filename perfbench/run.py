"""End-to-end campaign benchmark with a per-layer time table.

Runs one workload through the public campaign path --
``CampaignSpec`` -> ``CampaignRunner.run`` -> ``write_report`` -- with a real
execution backend and a real ``ResultCache``, checks the outputs, and prints
one JSON object as the last line of standard output.  From the repository
root::

    python3 perfbench/run.py --workload campaign-tiny --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics (tracing off); ``--trace 1``
runs every campaign untraced and then traced, and reports the per-layer
metrics plus the time-by-layer table.  Metric names and units come from
``BENCHMARK.json``.  A results document with the environment and every
metric's samples, median and quartiles is written under ``.perfbench/``.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUTPUT = os.path.join(ROOT, ".perfbench")

#: Environment overrides that would silently change what the campaigns run.
PROGRAM_ENVIRONMENT = (
    "REPRO_EXEC_BACKEND",
    "REPRO_EXEC_COMMAND",
    "REPRO_EXEC_SIMULATOR",
    "REPRO_CACHE_BACKEND",
    "REPRO_TRACE",
)

#: Fresh interpreters timed importing the package per untraced run (at
#: least; set-up samples).  They are spread over the run, a few before each
#: campaign, so their median sees the machine's speed over the whole run.
IMPORT_SAMPLES = 15
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); "
    "import repro, repro.campaign, repro.exec; "
    "print(time.perf_counter() - start)"
)

#: The machine's speed drifts by tens of percent for seconds to minutes at a
#: time on a shared host, in wall and CPU time alike.  Every timed span is
#: therefore bracketed by ``pace()``, a fixed yardstick of Python object
#: work, and the end-to-end times are scaled to the speed at which the
#: yardstick takes ``PACE_REFERENCE_S``: about its median on a calm 2-core
#: container (Python 3.11).  The yardstick is the benchmark's own and never
#: changes with the program.  Object work (allocation, hashing, sorting)
#: slows in step with the campaigns; a bare integer loop slows less, and
#: numpy kernels over large arrays slow more.
PACE_ITEMS = 8_000
PACE_REPEATS = 5
PACE_REFERENCE_S = 0.0022
#: Groups the warm resumes of a campaign are paced in.
PACE_GROUPS = 4


def yardstick() -> int:
    """A fixed amount of Python object work: build, sort and probe a dict."""
    table = {number: (number, str(number)) for number in range(PACE_ITEMS)}
    ordered = sorted(table.values(), key=lambda item: item[1])
    return sum(1 for item in ordered if item[0] in table)


def pace() -> float:
    """Median seconds of ``PACE_REPEATS`` runs of ``yardstick()``.

    The garbage collector is off meanwhile, so the program's live heap
    does not enter the measurement.
    """
    samples = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(PACE_REPEATS):
            start = time.perf_counter()
            yardstick()
            samples.append(time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return statistics.median(samples)


def at_reference_pace(seconds: float, *paces: float) -> float:
    """``seconds`` measured while the yardstick took ``paces``, at reference speed."""
    return seconds * PACE_REFERENCE_S / statistics.fmean(paces)


@dataclass
class Pass:
    """One campaign pass: run through ``write_report``."""

    result: object
    wall: float
    report: bytes


@dataclass
class CampaignRun:
    """What one cold pass plus its warm resumes measured."""

    traced: bool
    #: Opening the cache and building the spec.
    setup: float
    cold_wall: float
    warm_walls: List[float]
    #: Every ``pace()`` taken: before the cold pass, between it and the
    #: warm resumes, between their groups and after them.
    paces: List[float]
    #: Per pass, the mean of the two paces around it (around its group).
    pass_paces: List[float]
    trials: int
    messages_per_trial: float
    rounds_per_trial: float
    worker_busy: float
    #: Trial attempts over all passes, and how many ended without an outcome.
    attempted: int
    failed: int
    faults: Dict[str, int]
    digest: str
    problems: List[str] = field(default_factory=list)
    #: Median import time of the fresh interpreters probed before this
    #: campaign, at reference pace, for untraced runs only.
    import_s: float = 0.0
    #: Per-layer metrics, for traced campaigns only.
    layers: Optional[Dict[str, float]] = None

    @property
    def wall(self) -> float:
        return self.cold_wall + sum(self.warm_walls)

    @property
    def cold_s(self) -> float:
        return at_reference_pace(self.cold_wall, self.pass_paces[0])

    @property
    def warm_s(self) -> List[float]:
        return [
            at_reference_pace(wall, pace)
            for wall, pace in zip(self.warm_walls, self.pass_paces[1:])
        ]


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end"|"per_layer": {name: unit}}`` from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return {
        kind: {metric["name"]: metric["unit"] for metric in document[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def summary(samples: List[float]) -> Dict[str, object]:
    """Sample count, median and quartiles of one metric's samples."""
    ordered = sorted(samples)
    median = statistics.median(ordered)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = median
    return {"samples": len(ordered), "median": median, "q1": q1, "q3": q3}


def commit() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int) -> Dict[str, object]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit(),
        "seed": seed,
        "loadavg_at_start": list(os.getloadavg()),
    }


def time_imports(count: int) -> List[float]:
    """Seconds each of ``count`` fresh interpreters spends importing the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def warm_up(spec) -> None:
    """Load lazily imported engine modules and the code digest, untimed."""
    from repro.exec import GraphSpec, code_version_tag, execute_trial

    code_version_tag()
    seen = set()
    for sweep in spec.sweeps:
        for config in sweep.configs:
            if (config.algorithm, config.simulator) not in seen:
                seen.add((config.algorithm, config.simulator))
                execute_trial(replace(config, graph=GraphSpec("clique", (8,)), seed=0))


def run_campaign(workload, seed: int, scale: str, directory: str, trace=None):
    """Set up, then one cold pass and the warm resumes in ``PACE_GROUPS``
    groups, each bracketed by ``pace()``; returns (spec, setup, passes,
    paces, pass_paces)."""
    import repro.campaign as campaign
    from repro.exec import ExecutionProfile, ResultCache

    start = time.perf_counter()
    spec = workload.campaign(seed, scale)
    cache = ResultCache(directory, backend=workload.cache_backend)
    setup = time.perf_counter() - start
    profile = ExecutionProfile(backend=workload.backend, trace=False)
    passes: List[Pass] = []
    paces = [pace()]
    group_size = -(-workload.warm_passes // PACE_GROUPS)
    # Index in ``paces`` of the pace opening each pass's group.
    opening: List[int] = []
    try:
        if trace is not None:
            trace.install()
        try:
            for number in range(1 + workload.warm_passes):
                if number and (number - 1) % group_size == 0:
                    paces.append(pace())
                opening.append(len(paces) - 1)
                if trace is not None:
                    trace.phase = "warm" if number else "cold"
                start = time.perf_counter()
                result = campaign.CampaignRunner(
                    spec,
                    cache,
                    workers=workload.workers,
                    directory=directory,
                    profile=profile,
                ).run()
                campaign.write_report(spec, cache, directory)
                wall = time.perf_counter() - start
                with open(os.path.join(directory, "report.json"), "rb") as handle:
                    passes.append(Pass(result, wall, handle.read()))
            paces.append(pace())
        finally:
            if trace is not None:
                trace.uninstall()
    finally:
        cache.close()
    if trace is not None:
        trace.regions.extend(one.wall for one in passes)
    pass_paces = [statistics.fmean(paces[index : index + 2]) for index in opening]
    return spec, setup, passes, paces, pass_paces


def measure_campaign(workload, seed, scale, directory, trace=None) -> CampaignRun:
    """One campaign, verified and reduced to the numbers the metrics need."""
    from checks import fault_counts, outcome_digest, verify

    os.makedirs(directory)
    try:
        spec, setup, passes, paces, pass_paces = run_campaign(
            workload, seed, scale, directory, trace
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    cold = passes[0].result
    outcomes = [
        outcome
        for sweep in spec.sweeps
        for outcome in cold.outcomes_for(sweep.name)
        if outcome is not None
    ]
    executed = [
        result
        for per_sweep in cold.results.values()
        for result in per_sweep.values()
        if not result.from_cache
    ]
    return CampaignRun(
        traced=trace is not None,
        setup=setup,
        cold_wall=passes[0].wall,
        warm_walls=[one.wall for one in passes[1:]],
        paces=paces,
        pass_paces=pass_paces,
        trials=spec.num_trials,
        messages_per_trial=statistics.fmean(o.messages for o in outcomes) if outcomes else 0.0,
        rounds_per_trial=statistics.fmean(o.rounds for o in outcomes) if outcomes else 0.0,
        worker_busy=sum(result.elapsed_seconds for result in executed),
        attempted=spec.num_trials * len(passes),
        failed=sum(one.result.failed for one in passes),
        faults=fault_counts(spec, cold),
        digest=outcome_digest(spec, cold) if len(outcomes) == spec.num_trials else "",
        problems=verify(workload.name, spec, passes),
    )


def end_to_end(runs: List[CampaignRun]) -> Dict[str, tuple]:
    """``{metric: (value, samples)}`` over the untraced campaigns.

    Throughputs are total trials over total pass time at reference pace,
    which weighs every second of the run alike; the samples are the
    per-pass rates.  ``setup_s`` is at reference pace too.
    Per-trial means run over every trial of the run; their samples are the
    per-campaign means.
    """
    plain = [one for one in runs if not one.traced]
    cold = [(one.trials, one.cold_s) for one in plain]
    warm = [(one.trials, seconds) for one in plain for seconds in one.warm_s]
    setups = [one.import_s + at_reference_pace(one.setup, one.paces[0]) for one in runs]
    completed = 1.0 - sum(one.failed for one in runs) / sum(one.attempted for one in runs)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def rate(pairs):
        samples = [trials / wall for trials, wall in pairs]
        return sum(trials for trials, _ in pairs) / sum(wall for _, wall in pairs), samples

    def mean(field):
        samples = [getattr(one, field) for one in plain]
        total = sum(one.trials * value for one, value in zip(plain, samples))
        return total / sum(one.trials for one in plain), samples

    return {
        "trials_per_s": rate(cold),
        "resume_trials_per_s": rate(warm),
        "setup_s": (statistics.median(setups), setups),
        "completed_share": (completed, [completed]),
        "messages_per_trial": mean("messages_per_trial"),
        "rounds_per_trial": mean("rounds_per_trial"),
        "peak_rss_mb": (rss, [rss]),
    }


def layer_values(one: CampaignRun, trace, passes: int) -> Dict[str, float]:
    """One traced campaign's per-layer metrics (see README.md for the map)."""
    from layers import DISPATCH, ROWS

    shares = trace.shares()
    calls = trace.tally("calls")
    totals = trace.tally("totals")
    counts = trace.tally("counts")
    wall = sum(trace.regions)
    values = {metric: shares.get(span, 0.0) for span, metric in ROWS}
    warm_lookups = counts["exec.cache.lookups.warm"]
    saves = counts["campaign.manifest.saves"]
    values.update(
        {
            "unattributed_s": wall - sum(shares.values()),
            "traced_wall_s": wall,
            "graphs.builds": calls["graphs.build"],
            "graphs.mixing_calls": counts["graphs.mixing_calls"],
            "faults.dropped": one.faults["faults.dropped"],
            "faults.crashed_nodes": one.faults["faults.crashed_nodes"],
            "exec.fingerprint.calls_per_trial": calls["exec.fingerprint"]
            / (one.trials * passes),
            "exec.cache.hit_ratio": counts["exec.cache.hits.warm"] / warm_lookups
            if warm_lookups
            else 0.0,
            "exec.wire.bytes_per_trial": counts["exec.wire.bytes"] / one.trials,
            "exec.backends.worker_busy_s": one.worker_busy,
            "exec.backends.wait_s": totals[DISPATCH] - one.worker_busy,
            "exec.backends.respawns": counts["exec.backends.respawns"],
            "campaign.manifest.bytes": counts["campaign.manifest.bytes"] / saves
            if saves
            else 0.0,
        }
    )
    return values


def per_layer(runs: List[CampaignRun]) -> Dict[str, tuple]:
    """``{metric: (value, samples)}``: means over the traced campaigns.

    Means (not medians) keep the time table additive: the layers' self
    times plus ``unattributed_s`` sum to ``traced_wall_s`` exactly.
    ``trace_overhead`` is the traced campaigns' total wall time over the
    untraced ones' minus one; its samples pair each campaign's two runs.
    """
    traced = [one.layers for one in runs if one.traced]
    metrics = {
        name: (statistics.fmean(values[name] for values in traced), [v[name] for v in traced])
        for name in traced[0]
    }
    overheads = [
        after.wall / before.wall - 1.0 for before, after in zip(runs[::2], runs[1::2])
    ]
    untraced = sum(one.wall for one in runs if not one.traced)
    metrics["trace_overhead"] = (
        sum(one.wall for one in runs if one.traced) / untraced - 1.0,
        overheads,
    )
    return metrics


def time_table(values: Dict[str, float]) -> str:
    """The traced run's time by layer, per campaign, as Markdown."""
    from layers import ROWS

    wall = values["traced_wall_s"]
    lines = [
        "| layer | self s per campaign | share of wall |",
        "| --- | ---: | ---: |",
    ]
    for span, metric in ROWS + (("unattributed", "unattributed_s"),):
        value = values[metric]
        lines.append("| %s | %.6f | %.2f%% |" % (span, value, 100.0 * value / wall))
    lines.append("| **traced wall** | %.6f | 100.00%% |" % wall)
    lines.append("")
    lines.append(
        "trace_overhead (traced wall / untraced wall - 1): %.4f" % values["trace_overhead"]
    )
    return "\n".join(lines)


def measure(
    name: str, seed: int, seconds: float, trace: bool, scale: str = "full"
) -> Dict[str, object]:
    """Run one workload for ``seconds`` and return the results document."""
    from checks import pinned_digests
    from layers import LayerTrace
    from repro.sim.rng import derive_seed
    from workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS[name]
    document: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "environment": environment(seed),
        "backend": workload.backend,
        "workers": workload.workers,
        "warm_passes": workload.warm_passes,
    }
    warm_up(workload.campaign(seed, scale))

    passes = 1 + workload.warm_passes
    campaigns = workload.campaigns(seconds)
    probes = 0 if trace else -(-IMPORT_SAMPLES // campaigns)
    runs: List[CampaignRun] = []
    workdir = os.path.join(OUTPUT, "work-%d" % os.getpid())
    try:
        for number in range(campaigns):
            imported = 0.0
            if probes:
                before = pace()
                imported = statistics.median(time_imports(probes))
                imported = at_reference_pace(imported, before, pace())
            # Traced runs run every campaign untraced, then traced.
            for layer_trace in (None, LayerTrace()) if trace else (None,):
                one = measure_campaign(
                    workload,
                    derive_seed(seed, number),
                    scale,
                    os.path.join(workdir, "campaign-%d" % len(runs)),
                    layer_trace,
                )
                one.import_s = imported
                if layer_trace is not None:
                    one.layers = layer_values(one, layer_trace, passes)
                runs.append(one)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [problem for one in runs for problem in one.problems]
    if trace and any(a.digest != b.digest for a, b in zip(runs[::2], runs[1::2])):
        problems.append("a traced campaign's outcomes differ from the untraced run's")
    digests = [one.digest for one in runs if not one.traced]
    if seed == DEFAULT_SEED and scale == "full":
        for number, (digest, pinned) in enumerate(zip(digests, pinned_digests(name))):
            if digest != pinned:
                problems.append(
                    "campaign %d: outcome digest %s differs from the pinned %s"
                    % (number, digest, pinned)
                )
    document["campaigns"] = len(runs)
    plain = [one for one in runs if not one.traced]
    document["pace"] = dict(
        summary([value for one in runs for value in one.paces]),
        reference=PACE_REFERENCE_S,
        unit="s",
    )
    document["wall_clock"] = {
        "trials_per_s": sum(one.trials for one in plain)
        / sum(one.cold_wall for one in plain),
        "resume_trials_per_s": sum(one.trials * len(one.warm_walls) for one in plain)
        / sum(sum(one.warm_walls) for one in plain),
    }
    document["attempted"] = sum(one.attempted for one in runs)
    document["failed"] = sum(one.failed for one in runs)
    document["problems"] = problems
    document["digests"] = digests
    if problems:
        return document

    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    measured = per_layer(runs) if trace else end_to_end(runs)
    if set(measured) != set(declared):
        raise RuntimeError(
            "measured metrics %s do not match BENCHMARK.json %s"
            % (sorted(measured), sorted(declared))
        )
    document["metrics"] = {
        metric: dict(summary(samples), value=value, unit=declared[metric])
        for metric, (value, samples) in sorted(measured.items())
    }
    if trace:
        document["time_table"] = time_table(
            {metric: value for metric, (value, _) in measured.items()}
        )
    return document


def result_line(document: Dict[str, object]) -> Dict[str, object]:
    """The last stdout line: correctness, counts and each metric's value."""
    metrics = document.get("metrics", {})
    return {
        "correct": not document["problems"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {
            name: {"value": stats["value"], "unit": stats["unit"]}
            for name, stats in metrics.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no repro package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    for variable in PROGRAM_ENVIRONMENT:
        os.environ.pop(variable, None)

    from workloads import DEFAULT_SEED, WORKLOADS

    if arguments.seed is None:
        arguments.seed = DEFAULT_SEED
    if arguments.workload not in WORKLOADS:
        parser.error(
            "unknown workload %r; choose from %s"
            % (arguments.workload, ", ".join(WORKLOADS))
        )
    document = measure(
        arguments.workload, arguments.seed, arguments.seconds, bool(arguments.trace)
    )
    os.makedirs(os.path.join(OUTPUT, "results"), exist_ok=True)
    path = os.path.join(
        OUTPUT,
        "results",
        "%s-seed%d-trace%d.json" % (arguments.workload, arguments.seed, arguments.trace),
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("perfbench: results document %s" % os.path.relpath(path, ROOT), file=sys.stderr)
    for problem in document["problems"]:
        print("perfbench: check failed: %s" % problem, file=sys.stderr)
    if "time_table" in document:
        print(document["time_table"])
    print(json.dumps(result_line(document)))
    return 0 if not document["problems"] else 1


if __name__ == "__main__":
    sys.exit(main())

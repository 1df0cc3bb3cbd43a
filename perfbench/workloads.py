"""The benchmark's workloads: one campaign per name, built from the seed.

Every workload is a closed loop: one campaign at a time from one process,
run cold into a fresh cache and then resumed warm (every trial a cache hit),
each pass ending in ``write_report``.  A run holds several campaigns whose
base seeds derive from the run's seed.  ``scale="small"`` runs one trial per
configuration (four on ``campaign-tiny``) for the benchmark's own tests; the
measured runs always use ``scale="full"``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.campaign import CampaignSpec
from repro.exec import GraphSpec, SweepSpec, TrialSpec
from repro.faults import CrashFaults, FaultPlan, MessageFaults
from repro.graphs import gilbert_connectivity_radius
from repro.sim.rng import derive_seed

#: The seed whose per-trial outcome digests are pinned in ``pinned.json``.
DEFAULT_SEED = 1

#: Crash-stops per crashing plan of ``sweep-faulty``, and their round.
CRASHES = 4
CRASH_ROUND = 5
#: Per-message drop probability of the dropping plans of ``sweep-faulty``.
DROP = 0.05


@dataclass(frozen=True)
class Workload:
    """How one workload's campaign is built and executed."""

    name: str
    campaign: Callable[[int, str], CampaignSpec]
    #: Execution backend registry name.
    backend: str
    #: Cache backend registry name; ``None`` keeps the cache's default.
    cache_backend: Optional[str]
    #: Warm resumes after each cold pass (more for short resumes).
    warm_passes: int
    #: Rough wall seconds of one campaign (cold and warm) on a 2-core
    #: container; ``--seconds`` divided by it gives the campaigns per run.
    campaign_seconds: float

    def campaigns(self, seconds: float) -> int:
        """Campaigns in a run of ``seconds``: a function of the argument
        alone, so one seed and one ``--seconds`` always give the same inputs."""
        return max(1, int(seconds // self.campaign_seconds))

    @property
    def workers(self) -> int:
        """Pool workers: the orchestrator plus its workers never exceed nproc."""
        if self.backend == "serial":
            return 1
        return max(1, (os.cpu_count() or 1) - 1)


def _sweep_vectorized(seed: int, scale: str) -> CampaignSpec:
    cells = (
        ("expander", (32,), {"degree": 4}),
        ("expander", (64,), {"degree": 4}),
        ("hypercube", (5,), {}),
        ("gilbert", (32, gilbert_connectivity_radius(32)), {}),
    )
    # Every election trial gets its own graph instance: a random graph's
    # size and shape (a Gilbert graph's largest component above all) move
    # the cost of every trial on it, so a few shared instances would make
    # the run's mean cost depend on the seed far more than the trials do.
    instances = 1 if scale == "small" else 5
    election = SweepSpec(
        name="scaling",
        configs=tuple(
            TrialSpec(
                graph=GraphSpec(
                    family, args, kwargs, seed=derive_seed(seed, cell * 1000 + number)
                ),
                simulator="vectorized",
            )
            for cell, (family, args, kwargs) in enumerate(cells)
            for number in range(instances)
        ),
        trials=1,
        base_seed=seed,
    )
    # The known-t_mix cell runs several trials per graph instance, so the
    # mixing oracle's calls per instance show whether its memo is reached:
    # every trial builds a fresh Graph, and a memo per Graph misses.
    # Regular expanders keep the cost steady across instances.
    oracle = SweepSpec(
        name="known-tmix",
        configs=tuple(
            TrialSpec(
                graph=GraphSpec(
                    "expander", (32,), {"degree": 4}, seed=derive_seed(seed, 9000 + number)
                ),
                algorithm="known_tmix",
                simulator="vectorized",
            )
            for number in range(1 if scale == "small" else 2)
        ),
        trials=2 if scale == "small" else 3,
        base_seed=seed,
    )
    return CampaignSpec(name="sweep-vectorized", sweeps=(election, oracle))


def fault_plans() -> Tuple[Optional[FaultPlan], ...]:
    """The E11-style plans: the fault-free anchor first."""
    return (
        None,
        FaultPlan.dropping(DROP),
        FaultPlan.crashing(CRASHES, at_round=CRASH_ROUND),
        FaultPlan(
            messages=MessageFaults(drop_probability=DROP),
            crashes=CrashFaults(count=CRASHES, at_round=CRASH_ROUND),
        ),
    )


def _sweep_faulty(seed: int, scale: str) -> CampaignSpec:
    graphs = (
        ("expander", GraphSpec("expander", (16,), {"degree": 4})),
        ("hypercube", GraphSpec("hypercube", (4,))),
    )
    # One sweep per graph, so each graph's fault-free row anchors its own
    # message-overhead column.
    sweeps = tuple(
        SweepSpec(
            name=name,
            configs=tuple(
                TrialSpec(graph=graph, fault_plan=plan, simulator="reference")
                for plan in fault_plans()
            ),
            trials=1,
            base_seed=seed,
        )
        for name, graph in graphs
    )
    return CampaignSpec(name="sweep-faulty", sweeps=sweeps)


def _campaign_tiny(seed: int, scale: str) -> CampaignSpec:
    configs = tuple(
        TrialSpec(graph=GraphSpec("clique", (n,)), algorithm=algorithm)
        for algorithm in ("flood_max", "controlled_flooding")
        for n in (8, 12, 16)
    )
    sweep = SweepSpec(
        name="tiny",
        configs=configs,
        trials=4 if scale == "small" else 150,
        base_seed=seed,
    )
    return CampaignSpec(name="campaign-tiny", sweeps=(sweep,))


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="sweep-vectorized",
            campaign=_sweep_vectorized,
            backend="serial",
            cache_backend=None,
            warm_passes=30,
            campaign_seconds=2.2,
        ),
        Workload(
            name="sweep-faulty",
            campaign=_sweep_faulty,
            backend="serial",
            cache_backend="sqlite",
            warm_passes=80,
            campaign_seconds=2.0,
        ),
        Workload(
            name="campaign-tiny",
            campaign=_campaign_tiny,
            backend="workerpool",
            cache_backend="sqlite",
            warm_passes=6,
            campaign_seconds=3.2,
        ),
    )
}

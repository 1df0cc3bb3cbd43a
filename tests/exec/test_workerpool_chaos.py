"""Worker-death and worker-hang chaos tests for the worker-pool backend.

The backend's contract under fire: an OS-killed worker costs exactly its
in-flight trial (recaptured as an ``on_error="capture"`` failure), the slot
respawns, the batch completes -- and a resume against the same cache
re-executes only the lost trials.  With heartbeats enabled the same holds
for a worker that is alive but *stuck*: a SIGSTOPped process stops emitting
frames, trips the hang deadline, and is killed and replaced.

The chaos agents are *deterministic*: test-only algorithms, preloaded into
the workers from a module this test writes to disk, that SIGKILL (or
SIGSTOP) their own worker process the first time they run (leaving a marker
file) and succeed on every run after.  No timing, no races.
"""

import os
import sys
import textwrap

import pytest

from repro.core import ElectionParameters
from repro.exec import (
    BatchRunner,
    ExecutionProfile,
    GraphSpec,
    ResultCache,
    TrialSpec,
    WorkerPoolBackend,
)
from repro.obs import MetricsAggregator, Tracer, use_tracer

FAST = ElectionParameters(c1=3.0, c2=0.5)

CHAOS_MODULE = "repro_chaos_algos_test_only"

CHAOS_SOURCE = textwrap.dedent(
    '''
    """Test-only chaos algorithms, importable by wire workers via --preload."""

    import os
    import signal

    from repro.baselines.flood_max import flood_max_trial
    from repro.exec.algorithms import ALGORITHMS, register_algorithm

    if "_die_once_test_only" not in ALGORITHMS:

        @register_algorithm("_die_once_test_only")
        def _run_die_once(graph, spec):
            marker = spec.algo_kwargs["marker"]
            if not os.path.exists(marker):
                with open(marker, "w"):
                    pass
                os.kill(os.getpid(), signal.SIGKILL)
            return flood_max_trial(graph, seed=spec.seed)

    if "_stall_once_test_only" not in ALGORITHMS:

        @register_algorithm("_stall_once_test_only")
        def _run_stall_once(graph, spec):
            marker = spec.algo_kwargs["marker"]
            if not os.path.exists(marker):
                with open(marker, "w"):
                    pass
                # Freeze the whole worker (heartbeat thread included): the
                # process stays alive but can never emit another frame.
                os.kill(os.getpid(), signal.SIGSTOP)
            return flood_max_trial(graph, seed=spec.seed)

    if "_sleep_test_only" not in ALGORITHMS:

        @register_algorithm("_sleep_test_only")
        def _run_sleep(graph, spec):
            import time

            time.sleep(spec.algo_kwargs.get("seconds", 0.5))
            return flood_max_trial(graph, seed=spec.seed)
    '''
)


@pytest.fixture
def chaos_module(tmp_path_factory):
    """Write the chaos module where both this process and workers find it."""
    directory = tmp_path_factory.mktemp("chaos")
    path = directory / ("%s.py" % CHAOS_MODULE)
    path.write_text(CHAOS_SOURCE)
    sys.path.insert(0, str(directory))
    try:
        __import__(CHAOS_MODULE)  # register in the submitting process too
        yield str(directory)
    finally:
        sys.path.remove(str(directory))


def _specs(marker):
    good = [
        TrialSpec(graph=GraphSpec("clique", (10,)), algorithm="flood_max", seed=seed)
        for seed in (1, 2, 3)
    ]
    killer = TrialSpec(
        graph=GraphSpec("clique", (10,)),
        algorithm="_die_once_test_only",
        seed=9,
        algo_kwargs={"marker": marker},
    )
    return [good[0], killer, good[1], good[2]]


def _backend(chaos_module, workers=2):
    return WorkerPoolBackend(
        workers=workers, preload=(CHAOS_MODULE,), extra_paths=(chaos_module,)
    )


class TestWorkerDeath:
    def test_killed_worker_loses_only_the_inflight_trial(self, chaos_module, tmp_path):
        """The satellite scenario: kill a worker mid-batch; the run completes,
        the failure is captured, resume re-executes only the lost trial."""
        marker = str(tmp_path / "marker")
        cache = ResultCache(tmp_path / "cache")
        specs = _specs(marker)

        with _backend(chaos_module) as backend:
            runner = BatchRunner(
                cache=cache, on_error="capture", profile=ExecutionProfile(backend=backend)
            )
            results = runner.run(specs)
            assert backend.deaths == 1
            assert os.path.exists(marker), "the chaos trial ran on a worker"
        assert [result.failed for result in results] == [False, True, False, False]
        assert "worker died" in results[1].error
        assert runner.last_summary.failures == 1
        assert runner.last_summary.executed == 3

        # Resume: the three survivors are cache hits; only the lost trial
        # re-executes -- and succeeds, because the marker now exists.
        with _backend(chaos_module) as backend:
            resumed = BatchRunner(
                cache=cache, on_error="capture", profile=ExecutionProfile(backend=backend)
            ).run(specs)
            assert backend.deaths == 0
        assert [result.from_cache for result in resumed] == [True, False, True, True]
        assert [result.failed for result in resumed] == [False] * 4
        assert resumed[1].outcome is not None

    def test_pool_respawns_and_keeps_serving(self, chaos_module, tmp_path):
        """After a death the slot comes back: a single-worker pool executes
        the rest of the batch -- and the next batch -- on a fresh subprocess."""
        marker = str(tmp_path / "marker")
        with _backend(chaos_module, workers=1) as backend:
            runner = BatchRunner(on_error="capture", profile=ExecutionProfile(backend=backend))
            first = runner.run(_specs(marker))
            # One slot serves the whole batch in order: the two trials after
            # the kill already ran on the respawned worker.
            assert [result.failed for result in first] == [False, True, False, False]
            assert backend.deaths == 1
            respawned = backend.worker_pids()
            assert respawned != [], "a fresh worker serves the slot"
            second = runner.run(
                [
                    TrialSpec(
                        graph=GraphSpec("clique", (10,)), algorithm="flood_max", seed=4
                    )
                ]
            )
            assert [result.failed for result in second] == [False]
            assert backend.worker_pids() == respawned, "the respawn persists"

    def test_close_aborts_queued_trials_instead_of_executing_them(self):
        """A raise-mode abort closes the backend with trials still queued;
        those must drain as "backend closed" payloads, not keep running on
        daemon threads after the exception propagated."""
        backend = WorkerPoolBackend(workers=1)
        backend.start()
        backend._closed = True  # what close() sets before the drain
        future = backend.submit(
            TrialSpec(graph=GraphSpec("clique", (10,)), algorithm="flood_max", seed=1)
        )
        payload = future.result(timeout=30)
        assert payload.outcome is None
        assert "backend closed" in payload.error
        stale_queue = backend._tasks
        backend.close()
        # A restarted backend starts a new generation on a *fresh* queue --
        # stale tasks and shutdown sentinels stay with any thread that
        # outlived close()'s join timeout -- and executes again.
        backend.start()
        assert backend._tasks is not stale_queue
        revived = backend.submit(
            TrialSpec(graph=GraphSpec("clique", (10,)), algorithm="flood_max", seed=1)
        )
        assert revived.result(timeout=60).outcome is not None
        backend.close()

    def test_respawn_budget_bounds_spawn_loops(self, chaos_module, tmp_path):
        """A slot that keeps dying eventually reports budget exhaustion
        instead of spawning workers forever."""
        markers = [str(tmp_path / ("marker-%d" % i)) for i in range(3)]
        killers = [
            TrialSpec(
                graph=GraphSpec("clique", (10,)),
                algorithm="_die_once_test_only",
                seed=9,
                algo_kwargs={"marker": marker},
            )
            for marker in markers
        ]
        backend = WorkerPoolBackend(
            workers=1,
            preload=(CHAOS_MODULE,),
            extra_paths=(chaos_module,),
            max_respawns_per_slot=1,
        )
        with backend:
            runner = BatchRunner(on_error="capture", profile=ExecutionProfile(backend=backend))
            results = runner.run(killers)
        assert [result.failed for result in results] == [True, True, True]
        assert "worker died" in results[0].error
        assert "worker died" in results[1].error
        assert "respawn budget" in results[2].error


class TestWorkerHang:
    def _hang_backend(self, chaos_module, **kwargs):
        kwargs.setdefault("heartbeat_seconds", 0.1)
        kwargs.setdefault("hang_deadline_seconds", 2.0)
        return WorkerPoolBackend(
            workers=1, preload=(CHAOS_MODULE,), extra_paths=(chaos_module,), **kwargs
        )

    def test_sigstopped_worker_is_flagged_hung_and_replaced(self, chaos_module, tmp_path):
        """The satellite scenario: a worker freezes (SIGSTOP) mid-trial; the
        hang deadline trips, the process is killed and respawned, the trial
        is captured as a failure, and the batch completes."""
        marker = str(tmp_path / "marker")
        good = TrialSpec(graph=GraphSpec("clique", (10,)), algorithm="flood_max", seed=1)
        staller = TrialSpec(
            graph=GraphSpec("clique", (10,)),
            algorithm="_stall_once_test_only",
            seed=9,
            algo_kwargs={"marker": marker},
        )
        after = TrialSpec(graph=GraphSpec("clique", (10,)), algorithm="flood_max", seed=2)
        with self._hang_backend(chaos_module) as backend:
            runner = BatchRunner(on_error="capture", profile=ExecutionProfile(backend=backend))
            results = runner.run([good, staller, after])
            assert backend.hangs == 1
            assert backend.deaths == 0
            assert backend.worker_pids() != [], "a fresh worker serves the slot"
            # The marker exists now, so the same spec succeeds on the respawn.
            retried = runner.run([staller])
            assert [result.failed for result in retried] == [False]
        assert [result.failed for result in results] == [False, True, False]
        assert "worker hung" in results[1].error

    def test_progress_frames_reach_the_tracer(self, chaos_module, tmp_path):
        """Worker progress/heartbeat frames flow into the current tracer as
        ``worker.*`` events; a slow (but healthy) trial emits heartbeats
        without ever tripping the hang deadline."""
        sleeper = TrialSpec(
            graph=GraphSpec("clique", (10,)),
            algorithm="_sleep_test_only",
            seed=3,
            algo_kwargs={"seconds": 0.4},
        )
        aggregator = MetricsAggregator()
        with self._hang_backend(chaos_module) as backend, use_tracer(Tracer(aggregator)):
            runner = BatchRunner(on_error="capture", profile=ExecutionProfile(backend=backend))
            results = runner.run([sleeper])
        assert [result.failed for result in results] == [False]
        assert backend.hangs == 0
        counters = aggregator.snapshot()["counters"]
        assert counters.get("worker.spawned", 0) == 1
        assert counters.get("worker.trial_started", 0) == 1
        assert counters.get("worker.trial_finished", 0) == 1
        assert counters.get("worker.heartbeat", 0) >= 1

    def test_hang_deadline_requires_heartbeats(self):
        """A deadline without heartbeats would flag every slow trial as hung;
        the constructor rejects the combination outright."""
        with pytest.raises(ValueError, match="heartbeat"):
            WorkerPoolBackend(workers=1, hang_deadline_seconds=5.0)
        with pytest.raises(ValueError, match="exceed"):
            WorkerPoolBackend(workers=1, heartbeat_seconds=1.0, hang_deadline_seconds=0.5)

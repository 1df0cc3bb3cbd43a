"""Per-layer spans, timed around the calls into the program's layers.

The benchmark never traces inside the program.  :meth:`LayerTrace.install`
replaces the module attributes and class methods through which each layer
is reached with a thin wrapper that opens a span around the call, and
:meth:`LayerTrace.uninstall` puts every original object back, so an
untraced run after a traced one executes exactly the program's own code.

Spans stay in memory.  Each thread keeps a stack of open spans; the
innermost open span owns the time, which yields per-thread *self segments*
(a span's duration minus the part its child spans cover).  :meth:`shares`
then partitions the wall time of the orchestrating thread by span name.
While that thread blocks in a backend's ``map`` waiting for workers, the
time goes to whatever a pool's serve thread is doing in the same instant
(wire encode/decode, serialisation, blocking on a worker's reply), so the
shares plus the unattributed remainder sum to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: Time-table rows in presentation order: span name -> per-layer metric.
ROWS: Tuple[Tuple[str, str], ...] = (
    ("graphs.build", "graphs.build_s"),
    ("graphs.mixing", "graphs.mixing_s"),
    ("sim.vectorized", "sim.vectorized.run_s"),
    ("sim.reference", "sim.reference.run_s"),
    ("exec.fingerprint", "exec.fingerprint_s"),
    ("exec.serialize", "exec.serialize_s"),
    ("exec.cache.put", "exec.cache.put_s"),
    ("exec.cache.get", "exec.cache.get_s"),
    ("exec.cache.summary", "exec.cache.summary_s"),
    ("exec.wire.encode", "exec.wire.encode_s"),
    ("exec.wire.decode", "exec.wire.decode_s"),
    ("exec.backends.start", "exec.backends.start_s"),
    ("exec.backends.dispatch", "exec.backends.dispatch_s"),
    ("exec.backends.recv", "exec.backends.recv_s"),
    ("exec.backends.close", "exec.backends.close_s"),
    ("exec.runner", "exec.runner.self_s"),
    ("campaign.runner", "campaign.runner.self_s"),
    ("campaign.manifest.save", "campaign.manifest.save_s"),
    ("campaign.report", "campaign.report_s"),
)

#: The orchestrating thread's span around a backend's ``map`` step: its
#: time goes to the serve threads' concurrent spans when there are any.
DISPATCH = "exec.backends.dispatch"


class _ThreadState:
    """One thread's open-span stack and tallies (never shared)."""

    def __init__(self) -> None:
        #: Open spans as ``[name, segment start, span start]``.
        self.stack: List[list] = []
        self.calls: Counter = Counter()
        self.totals: Counter = Counter()
        self.counts: Counter = Counter()


class LayerTrace:
    """In-memory spans and counts recorded around the program's layers."""

    def __init__(self) -> None:
        self.main_thread = threading.get_ident()
        #: Self segments ``(start, end, thread id, span name)``.
        self.segments: List[Tuple[float, float, int, str]] = []
        #: Wall seconds of every traced campaign pass.
        self.regions: List[float] = []
        #: Which pass is running ("cold" or "warm"); tags cache lookups.
        self.phase = "cold"
        self._threads: Dict[int, _ThreadState] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # ----------------------------------------------------------------- spans
    def _state(self) -> _ThreadState:
        ident = threading.get_ident()
        state = self._threads.get(ident)
        if state is None:
            state = self._threads.setdefault(ident, _ThreadState())
        return state

    def enter(self, name: str) -> None:
        now = time.perf_counter()
        state = self._state()
        if state.stack:
            top = state.stack[-1]
            self.segments.append((top[1], now, threading.get_ident(), top[0]))
        state.stack.append([name, now, now])
        state.calls[name] += 1

    def exit(self) -> None:
        now = time.perf_counter()
        state = self._state()
        name, segment_start, span_start = state.stack.pop()
        self.segments.append((segment_start, now, threading.get_ident(), name))
        state.totals[name] += now - span_start
        if state.stack:
            state.stack[-1][1] = now

    def count(self, name: str, amount: float = 1) -> None:
        self._state().counts[name] += amount

    def tally(self, field: str) -> Counter:
        """``calls``, ``totals`` (span seconds) or ``counts``, over all threads."""
        merged: Counter = Counter()
        for state in list(self._threads.values()):
            merged.update(getattr(state, field))
        return merged

    # -------------------------------------------------------------- wrappers
    def _patch(self, owner: object, attribute: str, make: Callable) -> None:
        original = vars(owner)[attribute]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def _timed(self, name: str, after: Optional[Callable] = None) -> Callable:
        """Wrapper factory: one span per call, then ``after(args, result)``."""

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                self.enter(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.exit()
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        return make

    def _timed_steps(self, name: str) -> Callable:
        """Wrapper factory for generator functions: one span per step."""

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                iterator = original(*args, **kwargs)
                try:
                    while True:
                        self.enter(name)
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        finally:
                            self.exit()
                        yield item
                finally:
                    iterator.close()

            return wrapper

        return make

    def _reference_only(self, original):
        """``run_leader_election`` is a span only on the reference engine."""
        timed = self._timed("sim.reference")(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if kwargs.get("simulator", "reference") == "reference":
                return timed(*args, **kwargs)
            return original(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every layer entry point the campaign path reaches."""
        if self._patches:
            raise RuntimeError("layer trace already installed")
        import repro.baselines.known_tmix as known_tmix
        import repro.campaign as campaign
        import repro.campaign.report as campaign_report
        import repro.campaign.runner as campaign_runner
        import repro.campaign.spec as campaign_spec
        import repro.exec.algorithms as algorithms
        import repro.exec.backends.base as backends_base
        import repro.exec.backends.workerpool as workerpool
        import repro.exec.cache as cache
        import repro.exec.runner as exec_runner
        import repro.exec.wire as wire
        import repro.graphs.mixing as mixing
        import repro.sim.vectorized as vectorized
        from repro.campaign.manifest import CampaignManifest
        from repro.exec.backends.serial import SerialBackend
        from repro.exec.spec import GraphSpec

        timed = self._timed
        patch = self._patch

        def lookups(args, found) -> None:
            hits = sum(1 for entry in found if entry is not None)
            self.count("exec.cache.hits." + self.phase, hits)
            self.count("exec.cache.lookups." + self.phase, len(found))

        def lookup(args, found) -> None:
            lookups(args, [found])

        def sent(args, frame) -> None:
            self.count("exec.wire.bytes", len(frame))

        def received(args, data) -> None:
            self.count("exec.wire.bytes", len(data) if data else 0)

        def saved(args, result) -> None:
            self.count("campaign.manifest.saves")
            self.count("campaign.manifest.bytes", os.path.getsize(os.fspath(args[1])))

        def mixing_computed(args, result) -> None:
            self.count("graphs.mixing_calls")

        def closing(original):
            timed_close = timed("exec.backends.close")(original)

            @functools.wraps(original)
            def wrapper(backend, *args, **kwargs):
                self.count("exec.backends.respawns", backend.deaths + backend.hangs)
                return timed_close(backend, *args, **kwargs)

            return wrapper

        patch(GraphSpec, "build", timed("graphs.build"))
        patch(known_tmix, "cached_mixing_time", timed("graphs.mixing"))
        patch(mixing, "mixing_time", timed("graphs.mixing", mixing_computed))
        patch(vectorized, "run_vectorized_election", timed("sim.vectorized"))
        patch(vectorized, "run_vectorized_known_tmix", timed("sim.vectorized"))
        patch(algorithms, "run_leader_election", self._reference_only)
        for module in (campaign_runner, campaign_report, campaign_spec, exec_runner):
            patch(module, "trial_fingerprint", timed("exec.fingerprint"))
        patch(cache, "outcome_to_dict", timed("exec.serialize"))
        patch(cache, "outcome_from_dict", timed("exec.serialize"))
        patch(wire, "outcome_from_dict", timed("exec.serialize"))
        patch(cache.ResultCache, "put", timed("exec.cache.put"))
        patch(cache.ResultCache, "get", timed("exec.cache.get", lookup))
        patch(cache.ResultCache, "get_many", timed("exec.cache.get", lookups))
        patch(cache.ResultCache, "get_summaries", timed("exec.cache.summary"))
        patch(cache.ResultCache, "get_summary_aggregate", timed("exec.cache.summary"))
        patch(backends_base, "spec_wire_document", timed("exec.wire.encode"))
        patch(workerpool, "write_frame", timed("exec.wire.encode"))
        patch(wire, "encode_frame", timed("exec.wire.encode", sent))
        patch(workerpool, "read_frame", timed("exec.wire.decode"))
        patch(workerpool, "payload_from_dict", timed("exec.wire.decode"))
        patch(wire, "_read_exact", timed("exec.backends.recv", received))
        patch(backends_base.ExecutionBackend, "start", timed("exec.backends.start"))
        patch(workerpool.WorkerPoolBackend, "start", timed("exec.backends.start"))
        patch(workerpool._Worker, "__init__", timed("exec.backends.start"))
        patch(backends_base.ExecutionBackend, "map", self._timed_steps(DISPATCH))
        patch(SerialBackend, "map", self._timed_steps(DISPATCH))
        patch(backends_base.ExecutionBackend, "close", timed("exec.backends.close"))
        patch(backends_base.JsonWireBackend, "close", timed("exec.backends.close"))
        patch(workerpool.WorkerPoolBackend, "close", closing)
        patch(exec_runner.BatchRunner, "run", timed("exec.runner"))
        patch(campaign_runner.CampaignRunner, "run", timed("campaign.runner"))
        patch(CampaignManifest, "save", timed("campaign.manifest.save", saved))
        patch(campaign, "write_report", timed("campaign.report"))

    def uninstall(self) -> None:
        """Restore every wrapped attribute to the program's original object."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def sites(self) -> List[Tuple[object, str, object]]:
        """The ``(owner, attribute, original)`` triples currently wrapped."""
        return list(self._patches)

    # ------------------------------------------------------------ attribution
    def shares(self) -> Dict[str, float]:
        """The orchestrating thread's traced time, partitioned by span name.

        Sweeps the self segments of every thread in time order.  Each
        instant of the orchestrating thread's innermost span goes to that
        span, except inside :data:`DISPATCH`, where it goes to the spans the
        other threads are in at that instant (split evenly), if any.
        """
        events = []
        for start, end, thread, name in self.segments:
            if end > start:
                events.append((start, 1, thread, name))
                events.append((end, 0, thread, name))
        events.sort()
        shares: Counter = Counter()
        helpers: Counter = Counter()
        current: Optional[str] = None
        last = 0.0
        for moment, opening, thread, name in events:
            elapsed = moment - last
            if current is not None and elapsed > 0:
                busy = sum(helpers.values())
                if current == DISPATCH and busy:
                    for helper, active in helpers.items():
                        if active:
                            shares[helper] += elapsed * active / busy
                else:
                    shares[current] += elapsed
            last = moment
            if thread == self.main_thread:
                current = name if opening else None
            else:
                helpers[name] += 1 if opening else -1
        return dict(shares)

"""Outside-in layer tracer for the ``repro`` benchmark.

The traced run wraps the public entry points of each ``repro`` layer
from here, so no source file of the program changes.  One wrapped call
is one span.  A span's self time is its duration minus the wrapped
calls made inside it on the same thread; the self times of one thread
therefore add up to the time spent inside its outermost spans.

Spans on dispatcher threads are not subtracted from the main thread's
spans: those threads wait on shard subprocesses in parallel.  Shard
subprocesses record their own spans through ``childhook`` and the
parent folds them in with :func:`merge_snapshots`.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


class _Acc:
    """One thread's span accumulators."""

    __slots__ = ("total", "self_", "calls", "frames", "top")

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: child time accumulated per open span, innermost last
        self.frames: List[float] = []
        #: time inside this thread's outermost spans
        self.top = 0.0


class _ThreadState(threading.local):
    def __init__(self, tracer: "LayerTracer") -> None:
        self.acc = _Acc()
        tracer._register(self.acc)


class LayerTracer:
    """Span and counter accumulators plus the patches that feed them."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._accs: List[_Acc] = []
        self._tls = _ThreadState(self)
        self._main = self._tls.acc
        #: counters that hooks add to (words checked, bytes, ...)
        self.counts: Dict[str, float] = defaultdict(float)
        #: distinct values hooks collect (restored checkpoint digests)
        self.sets: Dict[str, set] = defaultdict(set)
        self._patches: List[Tuple[Any, str, Any]] = []

    def _register(self, acc: _Acc) -> None:
        with self._lock:
            self._accs.append(acc)

    # -- wrappers --------------------------------------------------------------

    def span(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``.

        ``before(args)`` returns a token handed to
        ``after(tracer, args, result, token)``; hooks run outside the
        span's own time but inside its parent's.  ``after`` runs under
        the tracer's lock: dispatcher threads update shared counters.
        """
        tls = self._tls
        clock = time.perf_counter
        lock = self._lock

        def wrapper(*args, **kwargs):
            acc = tls.acc
            frames = acc.frames
            token = before(args) if before is not None else None
            frames.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = frames.pop()
                acc.total[name] += elapsed
                acc.self_[name] += elapsed - child
                acc.calls[name] += 1
                if frames:
                    frames[-1] += elapsed
                else:
                    acc.top += elapsed
            if after is not None:
                with lock:
                    after(self, args, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its calls counted but not timed (hot inner calls)."""
        tls = self._tls

        def wrapper(*args, **kwargs):
            tls.acc.calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner: Any, attr: str, wrapper_of: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``wrapper_of(original)`` until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Totals over every thread so far, as plain JSON-safe dicts."""
        total: Dict[str, float] = defaultdict(float)
        self_: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        with self._lock:
            accs = list(self._accs)
        for acc in accs:
            for key, value in acc.total.items():
                total[key] += value
            for key, value in acc.self_.items():
                self_[key] += value
            for key, value in acc.calls.items():
                calls[key] += value
        return {
            "total": dict(total),
            "self": dict(self_),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "sets": {key: sorted(values) for key, values in self.sets.items()},
            "top": self._main.top,
        }


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum snapshots of several processes; ``top`` stays the first's."""
    merged: Dict[str, Any] = {
        "total": defaultdict(float),
        "self": defaultdict(float),
        "calls": defaultdict(int),
        "counts": defaultdict(float),
        "sets": defaultdict(set),
        "top": None,
    }
    for snap in snapshots:
        for table in ("total", "self", "calls", "counts"):
            for key, value in snap.get(table, {}).items():
                merged[table][key] += value
        for key, values in snap.get("sets", {}).items():
            merged["sets"][key].update(values)
        if merged["top"] is None:
            merged["top"] = snap.get("top", 0.0)
    merged["top"] = merged["top"] or 0.0
    return merged


# -- the layer entry points ------------------------------------------------------


def _kernel_instants(args) -> Tuple[int, int]:
    stats = args[0].simulator.stats
    return stats.fast_path_instants, stats.full_path_instants


def _after_run_cycles(tracer: LayerTracer, args, result, before) -> None:
    stats = args[0].simulator.stats
    fast = stats.fast_path_instants - before[0]
    full = stats.full_path_instants - before[1]
    tracer.counts["sysc.fast_path_instants"] += fast
    tracer.counts["sysc.instants"] += fast + full


def _after_check(tracer: LayerTracer, args, report, _token) -> None:
    tracer.counts["scenarios.words_checked"] += report.words_checked


def _after_run_shard(tracer: LayerTracer, args, report, _token) -> None:
    import json

    tracer.counts["dispatch.verdict_s"] += sum(v.wall_seconds for v in report.verdicts)
    # the child prints its report exactly this way (cliutil.emit_regression_report)
    tracer.counts["dispatch.wire_bytes"] += (
        len(json.dumps(report.to_json(), indent=2, sort_keys=True).encode("utf-8")) + 1
    )


def _after_explore(tracer: LayerTracer, args, result, _token) -> None:
    tracer.counts["explorer.states"] += result.fsm.state_count()
    tracer.counts["explorer.transitions"] += result.fsm.transition_count()


def _after_snapshot(tracer: LayerTracer, args, checkpoint, _token) -> None:
    tracer.counts["checkpoint.bytes"] += len(checkpoint.canonical_payload().encode("utf-8"))


def _after_restore(tracer: LayerTracer, args, result, _token) -> None:
    tracer.sets["checkpoint.forked"].add(args[1].digest)


def install(tracer: LayerTracer) -> None:
    """Wrap every layer's public entry points (undo with ``restore``)."""
    from repro.checkpoint import capture as checkpoint_capture
    from repro.checkpoint.store import CheckpointRegistry
    from repro.dispatch.hosts import LocalSubprocessHost
    from repro.explorer.fsm import Fsm
    from repro.explorer.goal_planner import GoalPlanner
    from repro.models.master_slave.scenario import MsScenarioSystem
    from repro.models.pci.scenario import PciScenarioSystem
    from repro.psl.monitor import Monitor
    from repro.scenarios.coverage_driven import BinCoverage
    from repro.scenarios.regression import RegressionRunner
    from repro.scenarios.scoreboard import ScenarioSystem
    from repro.workbench import session
    from repro.workbench.session import Workbench

    span = tracer.span
    spans = [
        (ScenarioSystem, "run_cycles", lambda f: span("sysc.run", f, _kernel_instants, _after_run_cycles)),
        (PciScenarioSystem, "letter", lambda f: span("models.letter", f)),
        (MsScenarioSystem, "letter", lambda f: span("models.letter", f)),
        (Monitor, "step", lambda f: span("psl.step", f)),
        (ScenarioSystem, "check", lambda f: span("scenarios.check", f, after=_after_check)),
        (BinCoverage, "record_many", lambda f: span("scenarios.coverage", f)),
        (RegressionRunner, "run", lambda f: span("scenarios.runner", f)),
        (LocalSubprocessHost, "run_shard", lambda f: span("dispatch.shard", f, after=_after_run_shard)),
        (session, "run_exploration", lambda f: span("explorer.explore", f, after=_after_explore)),
        (GoalPlanner, "plan", lambda f: span("explorer.plan", f)),
        (Fsm, "shortest_path", lambda f: tracer.counter("explorer.shortest_path", f)),
        (checkpoint_capture, "snapshot_system", lambda f: span("checkpoint.capture", f, after=_after_snapshot)),
        (CheckpointRegistry, "put", lambda f: span("checkpoint.store_put", f)),
        (checkpoint_capture, "restore_scenario", lambda f: span("checkpoint.restore", f, after=_after_restore)),
        (CheckpointRegistry, "get", lambda f: span("checkpoint.store_get", f)),
        (Workbench, "regress", lambda f: span("workbench.regress", f)),
        (Workbench, "explore", lambda f: span("workbench.explore", f)),
        (Workbench, "close_coverage", lambda f: span("workbench.close_coverage", f)),
    ]
    for owner, attr, wrapper_of in spans:
        tracer.patch(owner, attr, wrapper_of)

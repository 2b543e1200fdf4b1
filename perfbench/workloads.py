"""The benchmark's workloads.

Each workload is closed-loop load from one process: the benchmark
builds a fixed unit of work from ``--seed`` (a spec list, or one
explore + closure session), then runs that unit in *passes*.  Every
pass of one run does the same work, so its deterministic statistics
(digests, transactions, cycles, closed edges) must repeat exactly;
host time is what varies.

``repro`` is imported inside the functions, never at module level, so
the set-up probe can time ``import repro.cli`` on its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: the spec mix of every regress workload: both models, 300 cycles each
MODELS = ("master_slave", "pci")
CYCLES = 300

#: close_pci: FSM generation is bounded so one explore + closure pass
#: takes under 2 s and a run holds some 350 directed scenarios (the
#: latency tail needs them); exploration and goal planning still take
#: over 90 % of the pass
PCI_MAX_STATES = 400
CLOSE_ROUNDS = 3
CLOSE_MAX_GOALS = 12


@dataclass(frozen=True)
class Size:
    """How much work one pass does (the CLI always uses ``FULL``)."""

    specs: int
    max_states: int
    min_scenarios: int
    probes: int


FULL = Size(specs=40, max_states=PCI_MAX_STATES, min_scenarios=100, probes=7)
TINY = Size(specs=4, max_states=60, min_scenarios=0, probes=1)
SIZES = {"full": FULL, "tiny": TINY}


@dataclass
class PassResult:
    """What one pass did and how long it took."""

    wall: float
    #: per-scenario host latency as the program measured it, seconds
    scenario_walls: List[float]
    cycles: int
    transactions: int
    attempted: int
    failed: int
    #: deterministic statistics; must be identical for every pass
    facts: Dict[str, Any]
    #: host-time facts of the pass (stage walls)
    timings: Dict[str, float] = field(default_factory=dict)
    #: dispatch bookkeeping of the pass (retries, steals)
    dispatch: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: host seconds of the pass's stages, in order, summing to ``wall``
    segments: List[float] = field(default_factory=list)
    #: the index into ``segments`` each scenario ran in; empty when
    #: every scenario ran in the last one
    scenario_segments: List[int] = field(default_factory=list)
    #: reference seconds per host second of each segment, set by the
    #: runner from the host-speed kernel (``hostspeed.py``)
    ref_scales: List[float] = field(default_factory=list)

    @property
    def ref_wall(self) -> float:
        """The pass's time in reference seconds."""
        return sum(s * k for s, k in zip(self.segments, self.ref_scales))

    def ref_scenario_walls(self) -> List[float]:
        """``scenario_walls`` in reference seconds."""
        index = self.scenario_segments or [-1] * len(self.scenario_walls)
        return [w * self.ref_scales[i] for w, i in zip(self.scenario_walls, index)]


def suite_directives(model: str, topology) -> list:
    """The PSL suite the regression attaches to one (model, topology)."""
    from repro.models.master_slave.properties import ms_invariant_properties
    from repro.models.pci.properties import pci_safety_properties

    if model == "master_slave":
        blocking, non_blocking, slaves = topology
        return ms_invariant_properties(
            blocking + non_blocking, slaves, include_handshake=False
        )
    masters, targets = topology
    return pci_safety_properties(masters, targets)


class Regress:
    """A seeded constrained-random regression of both models."""

    def __init__(self, monitors: bool, shards: Optional[int]):
        self.monitors = monitors
        self.shards = shards

    def setup(self, seed: int, size: Size) -> Dict[str, float]:
        """Build the spec list and the session; returns phase times."""
        from repro.scenarios.regression import build_specs
        from repro.workbench import Workbench

        started = time.perf_counter()
        self.specs = build_specs(
            models=MODELS,
            count=size.specs,
            base_seed=seed,
            cycles=CYCLES,
            with_monitors=self.monitors,
        )
        self.workbench = Workbench("pci", seed=seed)
        phases = {"build_s": time.perf_counter() - started, "compile_s": 0.0}
        if self.monitors and not self.shards:
            # the first, cold compile of every suite the specs attach;
            # shard children compile their own, inside the measured pass
            from repro.psl.compiled import compile_properties

            started = time.perf_counter()
            for model, topology in sorted({(s.model, s.topology) for s in self.specs}):
                compile_properties(suite_directives(model, topology))
            phases["compile_s"] = time.perf_counter() - started
        return phases

    def run_pass(self, mark: Optional[Callable[[], Any]] = None) -> PassResult:
        """One regression of the spec list: a single segment."""
        started = time.perf_counter()
        if self.shards:
            stage = self.workbench.regress(specs=self.specs, shards=self.shards)
        else:
            stage = self.workbench.regress(specs=self.specs, workers=1)
        wall = time.perf_counter() - started
        report = stage.payload.get("report")
        if report is None:
            return PassResult(
                wall, [], 0, 0, len(self.specs), len(self.specs), {},
                problems=[f"regress stage {stage.status.value}: {stage.error}"],
            )
        problems = [f"scenario failed: {v.summary()}" for v in report.failed]
        if len(report.verdicts) != len(self.specs):
            problems.append(
                f"{len(report.verdicts)} verdicts for {len(self.specs)} specs"
            )
        attempted = len(self.specs)
        failed = len(report.failed) + max(0, len(self.specs) - len(report.verdicts))
        dispatch = stage.metrics.get("dispatch")
        if dispatch:
            host_failures = sum(
                sum(kinds.values()) for kinds in dispatch["failures"].values()
            )
            attempted += dispatch["shards"] + host_failures
            failed += host_failures
            if host_failures:
                problems.append(f"shard host failures: {dispatch['failures']}")
            fair_share = -(-dispatch["shards"] // len(dispatch["hosts"]))
            dispatch = {
                "retries": dispatch["retries"],
                # shards a host took beyond its even share of the queue
                "steals": sum(
                    max(0, load - fair_share)
                    for load in dispatch["host_loads"].values()
                ),
            }
        cycles = sum(v.cycles for v in report.verdicts)
        return PassResult(
            wall=wall,
            scenario_walls=[v.wall_seconds for v in report.verdicts],
            cycles=cycles,
            transactions=report.transactions,
            attempted=attempted,
            failed=failed,
            facts={
                "digest": report.digest(),
                "scenarios": len(report.verdicts),
                "transactions": report.transactions,
                "words": report.words,
                "cycles": cycles,
            },
            dispatch=dispatch or {},
            problems=problems,
            segments=[wall],
        )

    def final_check(self, facts: Dict[str, Any]) -> List[str]:
        """Sharded runs must reproduce the in-process serial digest."""
        if not self.shards or not facts:
            return []
        expected = self.reference_digest()
        if facts["digest"] != expected:
            return [
                f"sharded digest {facts['digest']} != in-process digest {expected}"
            ]
        return []

    def reference_digest(self) -> str:
        from repro.scenarios.regression import RegressionRunner

        return RegressionRunner(self.specs, workers=1).run().digest()


class ClosePci:
    """PCI FSM generation, then frontier-mode directed coverage closure."""

    def setup(self, seed: int, size: Size) -> Dict[str, float]:
        from repro.workbench import Workbench

        started = time.perf_counter()
        self.seed = seed
        self.max_states = size.max_states
        Workbench("pci", seed=seed)
        return {"build_s": time.perf_counter() - started, "compile_s": 0.0}

    def run_pass(self, mark: Optional[Callable[[], Any]] = None) -> PassResult:
        """Explore, then close, in segments with ``mark`` called between them.

        The segments are the exploration, then the closure's planning
        and each round's directed regression in turn, so the
        scenarios' own segments are scaled by the host speed measured
        right around them.  Time spent in ``mark`` is in no segment.
        """
        from repro.scenarios.regression import RegressionRunner
        from repro.workbench import Workbench

        segments: List[float] = []
        opened = [0.0]

        def boundary() -> None:
            segments.append(time.perf_counter() - opened[0])
            if mark is not None:
                mark()
            opened[0] = time.perf_counter()

        # the closure stage exposes per-round digests but not verdicts;
        # keep each round's report to read the program's own
        # per-scenario wall times (a result capture, not a timer)
        reports: List[Any] = []
        scenario_segments: List[int] = []
        original_run = RegressionRunner.run

        def run_and_keep(runner):
            boundary()
            report = original_run(runner)
            scenario_segments.extend([len(segments)] * len(report.verdicts))
            boundary()
            reports.append(report)
            return report

        RegressionRunner.run = run_and_keep
        try:
            opened[0] = time.perf_counter()
            workbench = Workbench("pci", seed=self.seed)
            explored = workbench.explore(max_states=self.max_states)
            boundary()
            explore_s = segments[0]
            closure = workbench.close_coverage(
                rounds=CLOSE_ROUNDS,
                max_goals=CLOSE_MAX_GOALS,
                workers=1,
                frontier=True,
            )
            segments.append(time.perf_counter() - opened[0])
            closure_s = sum(segments[1:])
        finally:
            RegressionRunner.run = original_run
        verdicts = [v for report in reports for v in report.verdicts]
        problems = [
            f"{stage.stage} stage {stage.status.value}: {stage.error or stage.summary}"
            for stage in (explored, closure)
            if not stage.ok
        ]
        problems += [f"scenario failed: {v.summary()}" for v in verdicts if not v.ok]
        data = closure.data if closure.ok else {}
        facts = {
            "states": explored.data.get("states"),
            "transitions": explored.data.get("transitions"),
            "fsm_digest": explored.data.get("fsm_digest"),
            "closure_edges": data.get("achieved", 0),
            "closure_sim_cycles": data.get("cycles_simulated", 0),
            "forked_goals": data.get("forked_goals", 0),
            "round_digests": [r["regression_digest"] for r in data.get("run", [])],
            "scenarios": len(verdicts),
        }
        return PassResult(
            wall=explore_s + closure_s,
            scenario_walls=[v.wall_seconds for v in verdicts],
            cycles=facts["closure_sim_cycles"],
            transactions=sum(v.transactions for v in verdicts),
            attempted=len(verdicts) + 2,
            failed=sum(1 for v in verdicts if not v.ok)
            + sum(1 for stage in (explored, closure) if not stage.ok),
            facts=facts,
            timings={"explore_s": explore_s, "closure_s": closure_s},
            problems=problems,
            segments=segments,
            scenario_segments=scenario_segments,
        )

    def final_check(self, facts: Dict[str, Any]) -> List[str]:
        return []


WORKLOADS = {
    "regress_monitored": lambda: Regress(monitors=True, shards=None),
    "regress_plain": lambda: Regress(monitors=False, shards=None),
    "regress_sharded": lambda: Regress(monitors=True, shards=2),
    "close_pci": ClosePci,
}

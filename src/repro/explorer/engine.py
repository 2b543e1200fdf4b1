"""The FSM-generation (exploration) algorithm.

"The algorithm generates the FSM by executing the model program in a
special execution environment, keeping track of the actions it performs
and recording the states it visits.  This process is called
exploration." (paper, Section 2.2.1)

The engine:

1. seals the model (fixing the instance set, rule R1) and optionally
   runs the configured init action (rule R2),
2. repeatedly pops a frontier state, restores the model *and* every
   property monitor to it, applies the filters, and fires every enabled
   candidate call (actions x argument domains, rules R3/R4); a disabled
   call leaves the state untouched (``AsmModel.try_execute``) and the
   monitors only advance after an enabled one, so the state is restored
   again only after an enabled call,
3. keys each reached state by the selected state variables plus the
   property monitors' ``P_eval``/``P_value`` bits and internal state
   (the paper's "property embedded in every state"),
4. stops at the first violation when ``stop_on_violation`` is set --
   the canonical filter of Section 3.1 -- and reconstructs the
   counterexample scenario from the predecessor map.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..asm.machine import ActionCall, AsmModel
from ..asm.state import FullState, Location, StateKey
from ..obs.runtime import OBS
from .config import ExplorationConfig, SearchOrder, StateProperty
from .counterexample import Counterexample, CounterexampleStep
from .fsm import Fsm
from .stats import ExplorationStats


@dataclass(frozen=True)
class Violation:
    """A property violation found during exploration."""

    property_name: str
    state_index: int
    message: str = ""

    def __str__(self) -> str:
        text = f"property {self.property_name!r} violated in state s{self.state_index}"
        if self.message:
            text += f": {self.message}"
        return text


@dataclass
class ExplorationResult:
    """Everything one exploration run produces."""

    fsm: Fsm
    stats: ExplorationStats
    violations: List[Violation] = field(default_factory=list)
    counterexample: Optional[Counterexample] = None
    selected_variables: Tuple[Location, ...] = ()

    @property
    def ok(self) -> bool:
        """True when no property was violated."""
        return not self.violations

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        lines = [f"[{verdict}] {self.fsm.name}: {self.stats.summary()}"]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


class _FrontierEntry:
    """Frontier bookkeeping: model state + monitor snapshots + depth."""

    __slots__ = ("key", "full_state", "monitor_snaps", "depth")

    def __init__(self, key, full_state, monitor_snaps, depth):
        self.key = key
        self.full_state = full_state
        self.monitor_snaps = monitor_snaps
        self.depth = depth


class Explorer:
    """Drives one model through one configuration."""

    def __init__(self, model: AsmModel, config: ExplorationConfig | None = None):
        self.model = model
        self.config = config or ExplorationConfig()

    def run(self, name: str | None = None) -> ExplorationResult:
        with OBS.tracer.span(
            "explorer.explore", "explorer.explore", model=self.model.name
        ) as span:
            result = self._explore(name)
            stats = result.stats
            span.set(
                states=stats.states,
                transitions=stats.transitions,
                restores=stats.restores,
            )
        return result

    def _explore(self, name: str | None) -> ExplorationResult:
        model, config = self.model, self.config
        stats = ExplorationStats()
        fsm = Fsm(name or f"{model.name}-fsm")
        started = time.perf_counter()

        if not model.sealed:
            model.seal()
        model.reset()

        if config.init_action is not None:
            machine_name, _, action_name = config.init_action.partition(".")
            model.execute(ActionCall(machine_name, action_name))

        properties = list(config.properties)
        for prop in properties:
            prop.reset()

        selected = tuple(
            config.state_variables
            if config.state_variables is not None
            else model.state_variables()
        )

        candidates = list(
            model.candidate_calls(
                actions=config.actions,
                extra_domains=config.domains,
                groups=config.action_groups,
            )
        )

        violations: List[Violation] = []
        parent: Dict[StateKey, Tuple[Optional[StateKey], Optional[ActionCall]]] = {}

        def observe_and_key() -> Tuple[StateKey, tuple, List[str]]:
            """Advance monitors on the model's current state; build the key.

            Properties exposing a shared ``extractor`` get their letter
            computed once per state instead of once per property.
            """
            bits: List[Tuple[Location, Any]] = []
            snaps = []
            violated: List[str] = []
            letters: Dict[int, Any] = {}
            for prop in properties:
                extractor = getattr(prop, "extractor", None)
                if extractor is not None and hasattr(prop, "observe_letter"):
                    token = id(extractor)
                    if token not in letters:
                        letters[token] = extractor(model)
                    can_eval, value = prop.observe_letter(letters[token])
                else:
                    can_eval, value = prop.observe(model)
                bits.append((Location(f"$prop:{prop.name}", "P_eval"), can_eval))
                bits.append((Location(f"$prop:{prop.name}", "P_value"), value))
                snap = prop.snapshot()
                bits.append((Location(f"$prop:{prop.name}", "state"), snap))
                snaps.append(snap)
                if can_eval and not value:
                    violated.append(prop.name)
            base = model.full_state().project(selected)
            key = StateKey(tuple(base.items()) + tuple(bits))
            return key, tuple(snaps), violated

        def restore(entry: _FrontierEntry) -> None:
            stats.restores += 1
            model.restore(entry.full_state)
            for prop, snap in zip(properties, entry.monitor_snaps):
                prop.restore(snap)

        def build_counterexample(property_name: str, key: StateKey) -> Counterexample:
            chain: List[CounterexampleStep] = []
            cursor: Optional[StateKey] = key
            while cursor is not None:
                prev, call = parent[cursor]
                chain.append(CounterexampleStep(call=call, state=cursor))
                cursor = prev
            chain.reverse()
            return Counterexample(property_name=property_name, steps=tuple(chain))

        # -- initial state -----------------------------------------------------
        initial_key, initial_snaps, violated = observe_and_key()
        initial = fsm.add_state(initial_key, is_initial=True)
        parent[initial_key] = (None, None)
        stats.states = 1

        if violated:
            for name_ in violated:
                violations.append(Violation(name_, initial.index, "violated initially"))
            stats.violations = len(violated)
            if config.stop_on_violation:
                fsm.mark_terminal(initial.index, "violation")
                stats.stopped_on_violation = True
                stats.elapsed_seconds = time.perf_counter() - started
                return ExplorationResult(
                    fsm=fsm,
                    stats=stats,
                    violations=violations,
                    counterexample=build_counterexample(violated[0], initial_key),
                    selected_variables=selected,
                )

        frontier: deque[_FrontierEntry] = deque(
            [_FrontierEntry(initial_key, model.full_state(), initial_snaps, 0)]
        )

        # -- main loop ------------------------------------------------------------
        while frontier:
            if config.max_seconds is not None:
                if time.perf_counter() - started > config.max_seconds:
                    stats.hit_time_bound = True
                    break
            if config.search_order is SearchOrder.BFS:
                entry = frontier.popleft()
            else:
                entry = frontier.pop()
            stats.max_depth_reached = max(stats.max_depth_reached, entry.depth)

            restore(entry)
            source_state = fsm.state_by_key(entry.key)
            assert source_state is not None

            blocked = next(
                (f for f in config.filters if not f.admits(model)), None
            )
            if blocked is not None:
                fsm.mark_terminal(source_state.index, f"filter:{blocked.name}")
                stats.filtered_states += 1
                continue

            if config.max_depth is not None and entry.depth >= config.max_depth:
                fsm.mark_terminal(source_state.index, "depth-bound")
                stats.hit_depth_bound = True
                continue

            moved = False
            for call in candidates:
                if moved:
                    restore(entry)
                    moved = False
                stats.calls_tried += 1
                enabled, _ = model.try_execute(call)
                if not enabled:
                    continue
                moved = True
                stats.calls_enabled += 1

                new_key, new_snaps, violated = observe_and_key()
                known = fsm.contains_key(new_key)
                target = fsm.add_state(new_key)
                if not known:
                    stats.states += 1
                    parent[new_key] = (entry.key, call)

                fsm.add_transition(source_state.index, target.index, call)
                stats.transitions += 1

                if violated and not known:
                    for name_ in violated:
                        violations.append(Violation(name_, target.index))
                    stats.violations += len(violated)
                    fsm.mark_terminal(target.index, "violation")
                    if config.stop_on_violation:
                        stats.stopped_on_violation = True
                        stats.elapsed_seconds = time.perf_counter() - started
                        return ExplorationResult(
                            fsm=fsm,
                            stats=stats,
                            violations=violations,
                            counterexample=build_counterexample(violated[0], new_key),
                            selected_variables=selected,
                        )
                    continue  # do not expand beyond a violation

                if stats.transitions >= config.max_transitions:
                    stats.hit_transition_bound = True
                    break

                if not known:
                    if stats.states >= config.max_states:
                        stats.hit_state_bound = True
                        fsm.mark_terminal(target.index, "state-bound")
                        break
                    frontier.append(
                        _FrontierEntry(
                            new_key, model.full_state(), new_snaps, entry.depth + 1
                        )
                    )

            if stats.hit_transition_bound or stats.hit_state_bound:
                break

        stats.elapsed_seconds = time.perf_counter() - started
        return ExplorationResult(
            fsm=fsm,
            stats=stats,
            violations=violations,
            counterexample=None,
            selected_variables=selected,
        )


def explore(
    model: AsmModel,
    config: ExplorationConfig | None = None,
    name: str | None = None,
) -> ExplorationResult:
    """Convenience wrapper: ``Explorer(model, config).run(name)``."""
    return Explorer(model, config).run(name)

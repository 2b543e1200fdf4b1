"""Bookkeeping for one exploration run."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExplorationStats:
    """Counters reported next to the generated FSM (paper Tables 1-2)."""

    states: int = 0
    transitions: int = 0
    elapsed_seconds: float = 0.0

    #: candidate action calls attempted (enabled or not)
    calls_tried: int = 0
    #: calls whose ``require`` precondition held
    calls_enabled: int = 0
    #: model + monitor restores: one per expanded state, then one
    #: before each candidate that follows an enabled call
    restores: int = 0
    #: states excluded from expansion by a filter
    filtered_states: int = 0
    #: property violations observed
    violations: int = 0
    #: maximum BFS/DFS depth reached
    max_depth_reached: int = 0

    hit_state_bound: bool = False
    hit_transition_bound: bool = False
    hit_depth_bound: bool = False
    hit_time_bound: bool = False
    stopped_on_violation: bool = False

    @property
    def completed(self) -> bool:
        """True when exploration exhausted the reachable (filtered) space."""
        return not (
            self.hit_state_bound
            or self.hit_transition_bound
            or self.hit_time_bound
            or self.stopped_on_violation
        )

    @property
    def enabled_ratio(self) -> float:
        if self.calls_tried == 0:
            return 0.0
        return self.calls_enabled / self.calls_tried

    def summary(self) -> str:
        flags = []
        if self.stopped_on_violation:
            flags.append("stopped-on-violation")
        if self.hit_state_bound:
            flags.append("state-bound")
        if self.hit_transition_bound:
            flags.append("transition-bound")
        if self.hit_depth_bound:
            flags.append("depth-bound")
        if self.hit_time_bound:
            flags.append("time-bound")
        status = ",".join(flags) if flags else "complete"
        return (
            f"{self.states} states, {self.transitions} transitions in "
            f"{self.elapsed_seconds:.2f}s ({status}; "
            f"{self.calls_enabled}/{self.calls_tried} calls enabled, "
            f"depth {self.max_depth_reached})"
        )

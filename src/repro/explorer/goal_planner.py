"""Path planning over the generated FSM: residue -> directed goals.

The model checker reaches FSM states and transitions the monitored
simulation never exercises (the :class:`~repro.workbench.duv.CoverageResidue`).
This module turns that residue into *plans*: for every uncovered
transition, a BFS shortest path from the FSM's initial state through
the covered region to the uncovered edge.  A plan is an ordered list
of ASM action calls -- exactly the vocabulary a model's scenario
driver can lower into directed bus stimulus
(:mod:`repro.scenarios.directed`), which closes the formal->simulation
loop in the directed direction the ROADMAP asks for.

The inverse mapping lives here too: :func:`walk_fsm_events` replays a
reconstructed ASM call stream (what a scenario run *observably* did at
transaction level) against the FSM and reports exactly which edges it
exercised.  The walk is structural -- it follows labelled edges rather
than re-executing the model -- so property-monitor bits embedded in
the state keys are honoured for free, and credit stops at the first
step that has no unique matching edge (partial credit, never false
credit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..asm.machine import ActionCall
from ..obs.runtime import OBS
from .fsm import Fsm, FsmTransition


def residue_label(transition: FsmTransition) -> str:
    """The residue-side name of an FSM edge (matches
    :meth:`CoverageResidue.from_fsm` / ``SimCoverage.uncovered_transitions``)."""
    return f"s{transition.source} --{transition.label()}--> s{transition.target}"


@dataclass(frozen=True)
class PlannedGoal:
    """One directed sequence goal: an FSM path whose last edge is the
    uncovered transition the plan targets.  The path starts at the
    initial state unless ``origin_state`` names a covered frontier
    state (one a checkpointed run already reached) -- then it starts
    there, and the caller forks the scenario from that checkpoint
    instead of replaying the warm-up from reset."""

    index: int
    target_edge: str
    transitions: Tuple[FsmTransition, ...]
    #: FSM state the path starts from; None = the initial state
    origin_state: Optional[int] = None
    #: length of the from-initial path to the same edge (None when the
    #: edge is unreachable from reset); with ``origin_state`` set this
    #: is what the fork saves over -- callers prorate cycle budgets by
    #: ``len(transitions) / initial_steps``
    initial_steps: Optional[int] = None

    def calls(self) -> List[ActionCall]:
        """The ASM action calls along the path, in order."""
        return [t.call for t in self.transitions]

    def edge_labels(self) -> Tuple[str, ...]:
        """Residue labels of every edge on the path (dedup credit: a
        plan incidentally covers everything it walks through)."""
        return tuple(residue_label(t) for t in self.transitions)

    def describe(self) -> str:
        steps = " -> ".join(t.label() for t in self.transitions)
        origin = (
            "" if self.origin_state is None else f" from s{self.origin_state}"
        )
        return (
            f"goal#{self.index} [{len(self.transitions)} steps{origin}] "
            f"{steps}"
        )


class GoalPlanner:
    """Plans directed sequence goals for a set of uncovered transitions.

    Planning is deterministic: candidate edges are resolved in a stable
    order, paths come from the FSM's deterministic BFS (one memoized
    tree per origin, so a round builds at most one tree per distinct
    origin however many edges it plans), and the greedy dedup keeps the
    longest plans first so shorter residue edges ride along instead of
    spawning their own scenarios.
    """

    def __init__(self, fsm: Fsm):
        self.fsm = fsm
        self._by_label: Dict[str, FsmTransition] = {}
        for transition in fsm.transitions:
            # first writer wins: duplicate (source, label, target) edges
            # are the same goal
            self._by_label.setdefault(residue_label(transition), transition)
        initials = fsm.initial_states()
        self._initial: Optional[int] = initials[0].index if initials else None
        #: residue labels that named no known FSM edge in the last plan
        self.unknown_edges: Tuple[str, ...] = ()

    def path_to(
        self, transition: FsmTransition, source: Optional[int] = None
    ) -> Optional[List[FsmTransition]]:
        """Shortest path ending with ``transition``; starts at the
        initial state, or at ``source`` when given."""
        start = self._initial if source is None else source
        if start is None:
            return None
        prefix = self.fsm.shortest_path(start, transition.source)
        if prefix is None:
            return None
        return prefix + [transition]

    def _best_path(
        self, transition: FsmTransition, frontier: Sequence[int]
    ) -> Tuple[Optional[List[FsmTransition]], Optional[int], Optional[int]]:
        """The shortest path to an edge over all plannable origins.

        Origins are the initial state plus every frontier state; the
        initial state wins ties (a from-reset plan needs no checkpoint),
        and frontier ties resolve to the lowest state index so planning
        stays deterministic.  Returns ``(path, origin_state,
        initial_steps)``.
        """
        from_initial = self.path_to(transition)
        best = from_initial
        origin: Optional[int] = None
        for state in sorted(set(frontier)):
            candidate = self.path_to(transition, source=state)
            if candidate is None:
                continue
            if best is None or len(candidate) < len(best):
                best = candidate
                origin = state
        return (
            best,
            origin,
            len(from_initial) if from_initial is not None else None,
        )

    def plan(
        self, uncovered: Iterable[str], frontier: Sequence[int] = ()
    ) -> List[PlannedGoal]:
        """Plans for ``uncovered`` residue edge labels, longest first,
        greedily deduplicated: an edge already on an earlier plan's
        path does not get its own plan.  ``frontier`` lists covered FSM
        states that checkpointed runs already sit in; an edge strictly
        closer to a frontier state than to the initial state is planned
        from there (``origin_state`` set) so the caller can fork the
        checkpoint instead of re-walking the prefix.  Budget caps
        belong to the caller (the workbench counts *lowerable* plans
        against its ``max_goals``, which this layer cannot know)."""
        labels = list(dict.fromkeys(uncovered))
        fsm = self.fsm
        trees, paths = fsm.trees_built, fsm.paths_served
        with OBS.tracer.span("explorer.plan", "explorer.plan") as span:
            plans = self._plan(labels, frontier)
            span.set(
                edges=len(labels),
                plans=len(plans),
                trees=fsm.trees_built - trees,
                paths=fsm.paths_served - paths,
            )
        return plans

    def _plan(
        self, labels: List[str], frontier: Sequence[int]
    ) -> List[PlannedGoal]:
        unknown: List[str] = []
        candidates: List[
            Tuple[str, List[FsmTransition], Optional[int], Optional[int]]
        ] = []
        for label in labels:
            transition = self._by_label.get(label)
            if transition is None:
                unknown.append(label)
                continue
            path, origin, initial_steps = self._best_path(
                transition, frontier
            )
            if path is None:
                unknown.append(label)
                continue
            candidates.append((label, path, origin, initial_steps))
        self.unknown_edges = tuple(unknown)
        # longest plans first so their prefixes absorb short ones; the
        # label tiebreak keeps the order fully deterministic
        candidates.sort(key=lambda item: (-len(item[1]), item[0]))
        plans: List[PlannedGoal] = []
        covered: set = set()
        for label, path, origin, initial_steps in candidates:
            if label in covered:
                continue
            plan = PlannedGoal(
                index=len(plans),
                target_edge=label,
                transitions=tuple(path),
                origin_state=origin,
                initial_steps=initial_steps,
            )
            covered.update(plan.edge_labels())
            plans.append(plan)
        return plans

    def replan_from_initial(
        self, plan: PlannedGoal
    ) -> Optional[PlannedGoal]:
        """The same goal re-planned from the initial state.

        The caller's fallback when a frontier-origin path turns out not
        to be drivable (its lowering starts mid-pattern, e.g. a grant
        with no pending request): the edge still deserves its from-reset
        plan rather than dropping out of the round.
        """
        transition = self._by_label.get(plan.target_edge)
        if transition is None:
            return None
        path = self.path_to(transition)
        if path is None:
            return None
        return PlannedGoal(
            index=plan.index,
            target_edge=plan.target_edge,
            transitions=tuple(path),
            origin_state=None,
            initial_steps=len(path),
        )


@dataclass
class EventWalk:
    """What one reconstructed event stream exercised on the FSM."""

    exercised: Tuple[str, ...]          # residue labels of walked edges
    visited_states: Tuple[int, ...]
    steps_walked: int
    #: events left unwalked because a step had no unique matching edge
    #: (bounded exploration, ambiguous labels, off-plan behaviour)
    off_path: int
    #: state the walk stopped in (the run's coverage frontier); None
    #: only when the FSM has no initial state
    final_state: Optional[int] = None


def walk_fsm_events(
    fsm: Fsm,
    events: Sequence[Tuple[str, str, Tuple]],
) -> EventWalk:
    """Structurally replay ``(machine, action, args)`` events on the FSM.

    Starts at the initial state and follows the unique outgoing edge
    whose label matches each event in turn.  The first event with zero
    or several matching edges stops the walk: everything after it is
    counted as ``off_path`` rather than guessed at.
    """
    initials = fsm.initial_states()
    if not initials or not events:
        return EventWalk(
            (),
            (),
            0,
            len(events),
            final_state=initials[0].index if initials else None,
        )
    current = initials[0].index
    exercised: List[str] = []
    visited: List[int] = [current]
    steps = 0
    for machine, action, args in events:
        label = ActionCall(machine, action, tuple(args)).label()
        matches = [t for t in fsm.outgoing(current) if t.label() == label]
        if len(matches) != 1:
            break
        transition = matches[0]
        exercised.append(residue_label(transition))
        current = transition.target
        visited.append(current)
        steps += 1
    return EventWalk(
        exercised=tuple(exercised),
        visited_states=tuple(dict.fromkeys(visited)),
        steps_walked=steps,
        off_path=len(events) - steps,
        final_state=current,
    )

"""The finite state machine produced by exploration.

"The transitions in the FSM are the method calls (including argument
values) in the test sequences. ... The states in the FSM are determined
by the values of selected variables in the model program" (paper,
Section 2.2.1).  The FSM is an *under-approximation* of the complete
state graph: exploration bounds, filters and domain restrictions all cut
it down.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..asm.machine import ActionCall
from ..asm.state import StateKey


@dataclass(frozen=True)
class FsmState:
    """One node: a numbered, keyed model state."""

    index: int
    key: StateKey
    is_initial: bool = False
    #: exploration stopped here (filter failed / bound hit / violation)
    terminal_reason: Optional[str] = None

    def label(self) -> str:
        return f"s{self.index}"


@dataclass(frozen=True)
class FsmTransition:
    """One edge: an action call taking ``source`` to ``target``."""

    source: int
    target: int
    call: ActionCall

    def label(self) -> str:
        return self.call.label()


class Fsm:
    """A generated finite state machine with query helpers."""

    def __init__(self, name: str = "fsm"):
        self.name = name
        self._states: List[FsmState] = []
        self._by_key: Dict[StateKey, int] = {}
        self._transitions: List[FsmTransition] = []
        self._out: Dict[int, List[int]] = {}
        self._in: Dict[int, List[int]] = {}
        #: source -> BFS tree (reached state -> the edge that first
        #: discovered it, None for the source); cleared by add_transition
        self._trees: Dict[int, Dict[int, Optional[FsmTransition]]] = {}
        #: BFS trees built and paths served over this FSM's life
        #: (observability only)
        self.trees_built = 0
        self.paths_served = 0

    # -- construction -------------------------------------------------------

    def add_state(
        self,
        key: StateKey,
        *,
        is_initial: bool = False,
        terminal_reason: str | None = None,
    ) -> FsmState:
        """Add a state (or return the existing one with the same key)."""
        existing = self._by_key.get(key)
        if existing is not None:
            return self._states[existing]
        state = FsmState(
            index=len(self._states),
            key=key,
            is_initial=is_initial,
            terminal_reason=terminal_reason,
        )
        self._states.append(state)
        self._by_key[key] = state.index
        self._out[state.index] = []
        self._in[state.index] = []
        return state

    def mark_terminal(self, index: int, reason: str) -> None:
        old = self._states[index]
        self._states[index] = FsmState(
            index=old.index,
            key=old.key,
            is_initial=old.is_initial,
            terminal_reason=reason,
        )

    def add_transition(self, source: int, target: int, call: ActionCall) -> FsmTransition:
        transition = FsmTransition(source, target, call)
        edge_index = len(self._transitions)
        self._transitions.append(transition)
        self._out[source].append(edge_index)
        self._in[target].append(edge_index)
        # a new edge can change any tree; a new state cannot (it has no
        # edges yet), so add_state keeps them
        self._trees.clear()
        return transition

    # -- queries ---------------------------------------------------------------

    @property
    def states(self) -> Tuple[FsmState, ...]:
        return tuple(self._states)

    @property
    def transitions(self) -> Tuple[FsmTransition, ...]:
        return tuple(self._transitions)

    def state_count(self) -> int:
        return len(self._states)

    def transition_count(self) -> int:
        return len(self._transitions)

    def state_by_key(self, key: StateKey) -> Optional[FsmState]:
        index = self._by_key.get(key)
        return self._states[index] if index is not None else None

    def contains_key(self, key: StateKey) -> bool:
        return key in self._by_key

    def initial_states(self) -> List[FsmState]:
        return [s for s in self._states if s.is_initial]

    def terminal_states(self) -> List[FsmState]:
        return [s for s in self._states if s.terminal_reason is not None]

    def outgoing(self, index: int) -> List[FsmTransition]:
        return [self._transitions[e] for e in self._out.get(index, ())]

    def incoming(self, index: int) -> List[FsmTransition]:
        return [self._transitions[e] for e in self._in.get(index, ())]

    def successors(self, index: int) -> List[int]:
        return [t.target for t in self.outgoing(index)]

    def deadlock_states(self) -> List[FsmState]:
        """Non-terminal states with no outgoing transition."""
        return [
            s
            for s in self._states
            if not self._out.get(s.index) and s.terminal_reason is None
        ]

    def enabled_actions_at(self, index: int) -> List[str]:
        return [t.call.label() for t in self.outgoing(index)]

    # -- graph algorithms ------------------------------------------------------

    def _bfs_tree(self, source: int) -> Dict[int, Optional[FsmTransition]]:
        """The full BFS tree from ``source``, built once per source.

        Outgoing edges are visited in insertion order and a state keeps
        the first edge that reaches it, so every path unwound from the
        tree is the one an early-exit BFS to that state would return.
        """
        tree = self._trees.get(source)
        if tree is None:
            tree = {source: None}
            frontier = deque([source])
            out, transitions = self._out, self._transitions
            while frontier:
                for edge in out.get(frontier.popleft(), ()):
                    transition = transitions[edge]
                    if transition.target not in tree:
                        tree[transition.target] = transition
                        frontier.append(transition.target)
            self._trees[source] = tree
            self.trees_built += 1
        return tree

    def shortest_path(self, source: int, target: int) -> Optional[List[FsmTransition]]:
        """BFS shortest path as a list of transitions, or None."""
        self.paths_served += 1
        tree = self._bfs_tree(source)
        if target not in tree:
            return None
        path: List[FsmTransition] = []
        node = target
        while node != source:
            transition = tree[node]
            path.append(transition)
            node = transition.source
        path.reverse()
        return path

    def reachable_from(self, source: int) -> set[int]:
        return set(self._bfs_tree(source))

    def strongly_connected_components(self) -> List[List[int]]:
        """Tarjan's algorithm (iterative); useful for liveness reasoning."""
        index_counter = 0
        stack: List[int] = []
        lowlink: Dict[int, int] = {}
        index: Dict[int, int] = {}
        on_stack: Dict[int, bool] = {}
        components: List[List[int]] = []

        for root in range(len(self._states)):
            if root in index:
                continue
            work = [(root, 0)]
            while work:
                node, child_pos = work[-1]
                if node not in index:
                    index[node] = index_counter
                    lowlink[node] = index_counter
                    index_counter += 1
                    stack.append(node)
                    on_stack[node] = True
                recurse = False
                successors = self.successors(node)
                for position in range(child_pos, len(successors)):
                    successor = successors[position]
                    if successor not in index:
                        work[-1] = (node, position + 1)
                        work.append((successor, 0))
                        recurse = True
                        break
                    if on_stack.get(successor):
                        lowlink[node] = min(lowlink[node], index[successor])
                if recurse:
                    continue
                if lowlink[node] == index[node]:
                    component: List[int] = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
                work.pop()
                if work:
                    parent_node = work[-1][0]
                    lowlink[parent_node] = min(lowlink[parent_node], lowlink[node])
        return components

    def __repr__(self) -> str:
        return (
            f"Fsm({self.name!r}: {self.state_count()} states, "
            f"{self.transition_count()} transitions)"
        )


def iter_paths(
    fsm: Fsm, source: int, max_depth: int
) -> Iterator[List[FsmTransition]]:
    """Enumerate simple paths from ``source`` up to ``max_depth`` edges."""

    def walk(node: int, path: List[FsmTransition], visited: set[int]):
        if path:
            yield list(path)
        if len(path) >= max_depth:
            return
        for transition in fsm.outgoing(node):
            if transition.target in visited:
                continue
            path.append(transition)
            visited.add(transition.target)
            yield from walk(transition.target, path, visited)
            visited.remove(transition.target)
            path.pop()

    yield from walk(source, [], {source})

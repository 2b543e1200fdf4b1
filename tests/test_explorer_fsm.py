"""Unit tests for the FSM data structure and graph algorithms."""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.asm import ActionCall
from repro.asm.state import Location, StateKey
from repro.explorer import Fsm, iter_paths


def key(**values) -> StateKey:
    return StateKey(tuple((Location("m", k), v) for k, v in values.items()))


def build_chain(length: int) -> Fsm:
    fsm = Fsm("chain")
    previous = fsm.add_state(key(x=0), is_initial=True)
    for i in range(1, length):
        node = fsm.add_state(key(x=i))
        fsm.add_transition(previous.index, node.index, ActionCall("m", "step"))
        previous = node
    return fsm


class TestConstruction:
    def test_add_state_dedupes_by_key(self):
        fsm = Fsm()
        first = fsm.add_state(key(x=1))
        second = fsm.add_state(key(x=1))
        assert first.index == second.index
        assert fsm.state_count() == 1

    def test_state_lookup(self):
        fsm = Fsm()
        fsm.add_state(key(x=1))
        assert fsm.state_by_key(key(x=1)) is not None
        assert fsm.state_by_key(key(x=2)) is None
        assert fsm.contains_key(key(x=1))

    def test_transitions_indexed_both_ways(self):
        fsm = build_chain(3)
        assert len(fsm.outgoing(0)) == 1
        assert len(fsm.incoming(1)) == 1
        assert fsm.successors(0) == [1]

    def test_mark_terminal(self):
        fsm = build_chain(2)
        fsm.mark_terminal(1, "violation")
        assert fsm.states[1].terminal_reason == "violation"
        assert fsm.terminal_states()[0].index == 1

    def test_deadlock_states(self):
        fsm = build_chain(3)
        deadlocks = fsm.deadlock_states()
        assert [s.index for s in deadlocks] == [2]
        fsm.mark_terminal(2, "filter:x")
        assert fsm.deadlock_states() == []


class TestPaths:
    def test_shortest_path(self):
        fsm = build_chain(4)
        path = fsm.shortest_path(0, 3)
        assert len(path) == 3
        assert path[0].source == 0 and path[-1].target == 3

    def test_shortest_path_none_when_unreachable(self):
        fsm = Fsm()
        fsm.add_state(key(x=0), is_initial=True)
        fsm.add_state(key(x=1))
        assert fsm.shortest_path(0, 1) is None

    def test_shortest_path_trivial(self):
        fsm = build_chain(2)
        assert fsm.shortest_path(0, 0) == []

    def test_shortest_path_prefers_short_branch(self):
        fsm = Fsm()
        a = fsm.add_state(key(x=0), is_initial=True)
        b = fsm.add_state(key(x=1))
        c = fsm.add_state(key(x=2))
        fsm.add_transition(a.index, b.index, ActionCall("m", "long1"))
        fsm.add_transition(b.index, c.index, ActionCall("m", "long2"))
        fsm.add_transition(a.index, c.index, ActionCall("m", "direct"))
        path = fsm.shortest_path(a.index, c.index)
        assert len(path) == 1
        assert path[0].call.action == "direct"

    def test_reachable_from(self):
        fsm = build_chain(3)
        fsm.add_state(key(x=99))  # island
        assert fsm.reachable_from(0) == {0, 1, 2}

    def test_iter_paths_bounded(self):
        fsm = build_chain(4)
        paths = list(iter_paths(fsm, 0, max_depth=2))
        assert max(len(p) for p in paths) == 2


def reference_shortest_path(fsm, source, target):
    """The per-call early-exit BFS the memoized trees must reproduce."""
    if source == target:
        return []
    parent = {}
    frontier = deque([source])
    seen = {source}
    while frontier:
        node = frontier.popleft()
        for transition in fsm.outgoing(node):
            if transition.target in seen:
                continue
            parent[transition.target] = transition
            if transition.target == target:
                path = []
                while target != source:
                    path.append(parent[target])
                    target = parent[target].source
                return path[::-1]
            seen.add(transition.target)
            frontier.append(transition.target)
    return None


def reference_reachable(fsm, source):
    seen = {source}
    frontier = deque([source])
    while frontier:
        for successor in fsm.successors(frontier.popleft()):
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return seen


#: graph mutations interleaved with queries; indices are taken modulo
#: the state count at the time, so edges cover self-loops, parallel
#: edges and states nothing reaches
FSM_OPS = st.lists(
    st.one_of(
        st.just(("state",)),
        st.tuples(st.just("edge"), st.integers(0, 9), st.integers(0, 9)),
        st.tuples(st.just("path"), st.integers(0, 9), st.integers(0, 9)),
        st.tuples(st.just("reach"), st.integers(0, 9)),
    ),
    max_size=80,
)


class TestMemoizedQueries:
    @settings(max_examples=300, deadline=None)
    @given(FSM_OPS)
    def test_queries_match_a_per_call_bfs(self, ops):
        fsm = Fsm()
        fsm.add_state(key(x=0), is_initial=True)
        for op in ops:
            count = fsm.state_count()
            if op[0] == "state":
                fsm.add_state(key(x=count))
            elif op[0] == "edge":
                # unique args: parallel edges stay distinguishable
                call = ActionCall("m", "e", (fsm.transition_count(),))
                fsm.add_transition(op[1] % count, op[2] % count, call)
            elif op[0] == "path":
                source, target = op[1] % count, op[2] % count
                assert fsm.shortest_path(source, target) == (
                    reference_shortest_path(fsm, source, target)
                )
            else:
                source = op[1] % count
                assert fsm.reachable_from(source) == (
                    reference_reachable(fsm, source)
                )

    def test_one_tree_per_source_until_an_edge_is_added(self):
        fsm = build_chain(4)
        for target in range(4):
            fsm.shortest_path(0, target)
        assert fsm.reachable_from(0) == {0, 1, 2, 3}
        assert (fsm.trees_built, fsm.paths_served) == (1, 4)
        fsm.add_state(key(x=9))
        assert fsm.shortest_path(0, 3) is not None
        assert fsm.trees_built == 1
        fsm.add_transition(3, 4, ActionCall("m", "step"))
        assert len(fsm.shortest_path(0, 4)) == 4
        assert fsm.trees_built == 2


class TestScc:
    def test_chain_has_singleton_sccs(self):
        fsm = build_chain(3)
        components = fsm.strongly_connected_components()
        assert sorted(len(c) for c in components) == [1, 1, 1]

    def test_cycle_detected(self):
        fsm = Fsm()
        a = fsm.add_state(key(x=0), is_initial=True)
        b = fsm.add_state(key(x=1))
        fsm.add_transition(a.index, b.index, ActionCall("m", "go"))
        fsm.add_transition(b.index, a.index, ActionCall("m", "back"))
        components = fsm.strongly_connected_components()
        assert sorted(len(c) for c in components) == [2]

    def test_mixed_graph(self):
        fsm = Fsm()
        a = fsm.add_state(key(x=0), is_initial=True)
        b = fsm.add_state(key(x=1))
        c = fsm.add_state(key(x=2))
        fsm.add_transition(a.index, b.index, ActionCall("m", "t1"))
        fsm.add_transition(b.index, c.index, ActionCall("m", "t2"))
        fsm.add_transition(c.index, b.index, ActionCall("m", "t3"))
        components = fsm.strongly_connected_components()
        sizes = sorted(len(c) for c in components)
        assert sizes == [1, 2]

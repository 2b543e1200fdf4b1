"""Unit tests for the FSM-generation engine."""

import pytest

from repro.asm import ActionCall, AsmMachine, AsmModel, StateVar, action, require
from repro.explorer import (
    ExplorationConfig,
    Filter,
    SearchOrder,
    explore,
    violation_filter,
)


class MutexProperty:
    """At most one ToyMaster granted (plain StateProperty, no PSL)."""

    name = "mutex"

    def __init__(self):
        self._status = (False, True)

    def reset(self):
        self._status = (True, True)

    def observe(self, model):
        from conftest import ToyMaster

        granted = sum(1 for m in model.machines_of(ToyMaster) if m.m_gnt)
        self._status = (True, granted <= 1)
        return self._status

    def status(self):
        return self._status

    def snapshot(self):
        return None

    def restore(self, snap):
        pass


class TestBasicExploration:
    def test_counter_reachable_states(self, counter_model):
        result = explore(counter_model)
        # counter values 0..3
        assert result.fsm.state_count() == 4
        assert result.ok
        assert result.stats.completed

    def test_transitions_are_action_calls(self, counter_model):
        result = explore(counter_model)
        labels = {t.label() for t in result.fsm.transitions}
        assert "counter.tick()" in labels
        assert "counter.reset()" in labels

    def test_initial_state_marked(self, counter_model):
        result = explore(counter_model)
        initials = result.fsm.initial_states()
        assert len(initials) == 1
        assert initials[0].key.value("counter", "value") == 0

    def test_arbiter_model_passes_mutex(self, arbiter_model):
        result = explore(
            arbiter_model, ExplorationConfig(properties=[MutexProperty()])
        )
        assert result.ok
        assert result.stats.violations == 0

    def test_broken_arbiter_caught(self, broken_arbiter_model):
        result = explore(
            broken_arbiter_model, ExplorationConfig(properties=[MutexProperty()])
        )
        assert not result.ok
        assert result.stats.stopped_on_violation
        assert result.counterexample is not None

    def test_counterexample_replays_to_violation(self, broken_arbiter_model):
        from conftest import ToyMaster

        result = explore(
            broken_arbiter_model, ExplorationConfig(properties=[MutexProperty()])
        )
        cex = result.counterexample
        cex.replay(broken_arbiter_model)
        granted = sum(
            1 for m in broken_arbiter_model.machines_of(ToyMaster) if m.m_gnt
        )
        assert granted == 2

    def test_stop_on_violation_false_keeps_going(self, broken_arbiter_model):
        result = explore(
            broken_arbiter_model,
            ExplorationConfig(
                properties=[MutexProperty()], stop_on_violation=False
            ),
        )
        assert not result.ok
        assert result.counterexample is None
        assert result.stats.violations >= 1
        # violation states are terminal but exploration continued elsewhere
        assert result.fsm.state_count() > 3


class TestBounds:
    def test_max_states(self, arbiter_model):
        result = explore(arbiter_model, ExplorationConfig(max_states=3))
        assert result.fsm.state_count() <= 4
        assert result.stats.hit_state_bound

    def test_max_transitions(self, arbiter_model):
        result = explore(arbiter_model, ExplorationConfig(max_transitions=5))
        assert result.stats.hit_transition_bound
        assert result.fsm.transition_count() <= 6

    def test_max_depth(self, counter_model):
        result = explore(counter_model, ExplorationConfig(max_depth=1))
        # depth 0 = initial; depth 1 states are not expanded
        assert result.stats.hit_depth_bound
        assert result.fsm.state_count() <= 3

    def test_max_seconds_zero(self, arbiter_model):
        result = explore(arbiter_model, ExplorationConfig(max_seconds=0.0))
        assert result.stats.hit_time_bound

    def test_under_approximation_is_flagged(self, arbiter_model):
        bounded = explore(arbiter_model, ExplorationConfig(max_states=3))
        full = explore(arbiter_model)
        assert not bounded.stats.completed
        assert full.stats.completed
        assert bounded.fsm.state_count() <= full.fsm.state_count()


class TestFilters:
    def test_filter_prunes_expansion(self, counter_model):
        keep_small = Filter(
            "value<2", lambda m: m.machine("counter").value < 2
        )
        result = explore(counter_model, ExplorationConfig(filters=[keep_small]))
        # states 0,1 expanded; state 2 recorded but filtered
        values = {
            s.key.value("counter", "value") for s in result.fsm.states
        }
        assert 3 not in values
        assert result.stats.filtered_states >= 1

    def test_filtered_states_marked_terminal(self, counter_model):
        keep_zero = Filter("zero", lambda m: m.machine("counter").value == 0)
        result = explore(counter_model, ExplorationConfig(filters=[keep_zero]))
        reasons = {s.terminal_reason for s in result.fsm.terminal_states()}
        assert any(r and r.startswith("filter:") for r in reasons)

    def test_violation_filter_from_properties(self, broken_arbiter_model):
        prop = MutexProperty()
        filt = violation_filter([prop])
        result = explore(
            broken_arbiter_model,
            ExplorationConfig(
                properties=[prop], filters=[filt], stop_on_violation=True
            ),
        )
        assert not result.ok


class TestSearchOrder:
    def test_bfs_and_dfs_cover_same_states(self, arbiter_model):
        bfs = explore(arbiter_model, ExplorationConfig(search_order=SearchOrder.BFS))
        arbiter_model.reset()
        dfs = explore(arbiter_model, ExplorationConfig(search_order=SearchOrder.DFS))
        bfs_keys = {s.key for s in bfs.fsm.states}
        dfs_keys = {s.key for s in dfs.fsm.states}
        assert bfs_keys == dfs_keys

    def test_bfs_counterexample_is_minimal(self, broken_arbiter_model):
        result = explore(
            broken_arbiter_model,
            ExplorationConfig(
                properties=[MutexProperty()], search_order=SearchOrder.BFS
            ),
        )
        # minimal scenario: m0.request, grant, m1.request, grant
        assert result.counterexample.length == 4


class TestInitAction:
    def test_init_action_runs_first(self):
        class Gate(AsmMachine):
            ready = StateVar(False)
            fired = StateVar(False)

            @action
            def init(self):
                require(not self.ready)
                self.ready = True

            @action
            def fire(self):
                require(self.ready)
                self.fired = True

        model = AsmModel()
        Gate(model=model, name="gate")
        model.seal()
        without = explore(model)
        assert without.fsm.state_count() >= 2
        model.reset()
        with_init = explore(model, ExplorationConfig(init_action="gate.init"))
        initial = with_init.fsm.initial_states()[0]
        assert initial.key.value("gate", "ready") is True


class TestActionRestriction:
    def test_actions_whitelist_shrinks_fsm(self, arbiter_model):
        full = explore(arbiter_model)
        arbiter_model.reset()
        only_requests = explore(
            arbiter_model,
            ExplorationConfig(actions=["m0.request", "m1.request"]),
        )
        assert only_requests.fsm.state_count() < full.fsm.state_count()
        assert only_requests.fsm.state_count() == 4  # 2^2 request subsets

    def test_state_variable_selection_merges_states(self, arbiter_model):
        from repro.asm import Location

        selected = [Location("arbiter", "m_owner")]
        result = explore(
            arbiter_model, ExplorationConfig(state_variables=selected)
        )
        full = explore(arbiter_model)
        assert result.fsm.state_count() <= full.fsm.state_count()
        assert result.fsm.state_count() <= 3  # owner in {-1, 0, 1}


class TestLazyRestore:
    """The explorer restores the model and its monitors only after an
    enabled call; that is sound because a disabled call changes
    neither, which this checks at every explored state."""

    @pytest.mark.parametrize(
        "model_name, overrides",
        [("pci", {"max_states": 120}), ("master_slave", {})],
    )
    def test_disabled_calls_leave_model_and_monitors_untouched(
        self, model_name, overrides
    ):
        import copy

        from repro.explorer import Explorer
        from repro.psl.asm_embedding import AssertionProperty, state_extractor
        from repro.workbench import default_registry

        duv = default_registry().get(model_name)
        model = duv.model_factory()
        properties = [
            AssertionProperty(
                d.prop, extractor=duv.extractor or state_extractor, name=d.prop.name
            )
            for d in duv.assert_directives()
        ]
        config = duv.exploration.with_overrides(properties=properties, **overrides)
        probe = model.try_execute
        disabled = []

        def observed():
            return copy.deepcopy(
                (model.full_state().items(), [p.snapshot() for p in properties])
            )

        def checked_try_execute(call):
            before = observed()
            enabled, value = probe(call)
            if not enabled:
                assert observed() == before, f"disabled {call.label()} moved the state"
                disabled.append(call)
            return enabled, value

        model.try_execute = checked_try_execute
        result = Explorer(model, config).run()
        stats = result.stats
        assert properties and disabled
        assert len(disabled) == stats.calls_tried - stats.calls_enabled
        # one restore per expanded state plus at most one per enabled call
        assert stats.restores <= stats.states + stats.calls_enabled
        assert stats.restores < stats.calls_tried

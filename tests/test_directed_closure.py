"""Directed residue closure: planner, lowering, loop, and the e2e
comparison against PR 2's profile re-biasing."""

import json

import pytest

from repro.asm.machine import ActionCall
from repro.explorer.goal_planner import (
    GoalPlanner,
    residue_label,
    walk_fsm_events,
)
from repro.models.master_slave.asm_model import BLOCKING_BURST
from repro.models.master_slave.scenario import (
    lower_path_to_goals as ms_lower,
)
from repro.models.pci.scenario import lower_path_to_goals as pci_lower
from repro.scenarios.directed import (
    DirectedClosureLoop,
    DirectedSequence,
    TransactionGoal,
)
from repro.scenarios.random_ import ScenarioRng
from repro.scenarios.regression import (
    RegressionRunner,
    ScenarioSpec,
    ScenarioVerdict,
    run_scenario,
)
from repro.scenarios.sequences import StimulusContext
from repro.workbench import SerialEngine, ShardedEngine, Workbench


@pytest.fixture(scope="module")
def ms_workbench():
    """One explored master_slave session shared by the module."""
    workbench = Workbench("master_slave")
    workbench.explore()
    return workbench


@pytest.fixture(scope="module")
def ms_fsm(ms_workbench):
    return ms_workbench._exploration.fsm


class TestGoalPlanner:
    def test_plans_end_on_their_target_edge(self, ms_fsm):
        planner = GoalPlanner(ms_fsm)
        uncovered = [residue_label(t) for t in ms_fsm.transitions]
        plans = planner.plan(uncovered)
        assert plans
        for plan in plans:
            assert residue_label(plan.transitions[-1]) == plan.target_edge
            # the path starts at the initial state
            assert plan.transitions[0].source == ms_fsm.initial_states()[0].index

    def test_greedy_dedup_covers_every_edge_once(self, ms_fsm):
        planner = GoalPlanner(ms_fsm)
        uncovered = [residue_label(t) for t in ms_fsm.transitions]
        plans = planner.plan(uncovered)
        covered = set()
        for plan in plans:
            # a plan is only kept for a target no earlier plan covered
            assert plan.target_edge not in covered
            covered.update(plan.edge_labels())
        assert covered == set(uncovered)
        assert len(plans) < len(uncovered)  # riders were absorbed

    def test_planning_is_deterministic(self, ms_fsm):
        uncovered = [residue_label(t) for t in ms_fsm.transitions]
        first = GoalPlanner(ms_fsm).plan(uncovered)
        second = GoalPlanner(ms_fsm).plan(uncovered)
        assert [p.target_edge for p in first] == [p.target_edge for p in second]
        assert [p.edge_labels() for p in first] == [p.edge_labels() for p in second]

    def test_unknown_edges_are_reported_not_planned(self, ms_fsm):
        planner = GoalPlanner(ms_fsm)
        plans = planner.plan(["s0 --warp.core()--> s99"])
        assert plans == []
        assert planner.unknown_edges == ("s0 --warp.core()--> s99",)


class TestEventWalk:
    def test_valid_stream_walks_and_credits(self, ms_fsm):
        events = [
            ("master0", "request", ()),
            ("arbiter", "grant_and_transfer", (0, True)),
        ]
        walk = walk_fsm_events(ms_fsm, events)
        assert walk.steps_walked == 2
        assert walk.off_path == 0
        assert len(walk.exercised) == 2
        assert len(walk.visited_states) == 3

    def test_off_path_stream_stops_crediting(self, ms_fsm):
        events = [
            ("master0", "request", ()),
            ("master0", "request", ()),  # no such edge: already WANT
            ("arbiter", "grant_and_transfer", (0, True)),
        ]
        walk = walk_fsm_events(ms_fsm, events)
        assert walk.steps_walked == 1
        assert walk.off_path == 2  # the bad event and everything after

    def test_empty_stream_claims_nothing(self, ms_fsm):
        walk = walk_fsm_events(ms_fsm, [])
        assert walk.exercised == ()
        assert walk.visited_states == ()


class TestWireForms:
    def test_transaction_goal_round_trips(self):
        goal = TransactionGoal(unit=1, target=0, is_write=True, burst=2, idle=3)
        assert TransactionGoal.from_json(goal.to_json()) == goal

    def test_directed_spec_round_trips_through_json(self):
        spec = ScenarioSpec(
            model="master_slave",
            seed=77,
            topology=(1, 1, 2),
            profile="directed",
            cycles=140,
            goals=(
                TransactionGoal(unit=0, target=1, is_write=False, burst=2),
                TransactionGoal(unit=1, target=0, is_write=True, burst=1, idle=2),
            ),
            track_fsm=True,
        )
        clone = ScenarioSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert clone == spec

    def test_verdict_fsm_events_round_trip(self):
        spec = ScenarioSpec(
            model="master_slave",
            seed=5,
            topology=(1, 1, 2),
            profile="directed",
            cycles=120,
            goals=(TransactionGoal(unit=0, target=0, is_write=True, burst=2),),
            track_fsm=True,
        )
        verdict = run_scenario(spec)
        assert verdict.fsm_events  # the run reconstructed its events
        clone = ScenarioVerdict.from_json(
            json.loads(json.dumps(verdict.to_json()))
        )
        assert clone.fsm_events == verdict.fsm_events
        assert clone.spec == spec

    def test_untracked_spec_ships_no_events(self):
        spec = ScenarioSpec(
            model="master_slave", seed=5, topology=(1, 1, 2), cycles=120
        )
        assert run_scenario(spec).fsm_events == ()


class TestDirectedSequence:
    def test_for_unit_filters_goals_in_plan_order(self):
        goals = (
            TransactionGoal(unit=0, target=1, is_write=True, burst=2),
            TransactionGoal(unit=1, target=0, is_write=False, burst=1),
            TransactionGoal(unit=0, target=0, is_write=False, burst=2),
        )
        ctx = StimulusContext(n_targets=2, min_burst=1, max_burst=2)
        rng = ScenarioRng(9, "master0")
        items = list(DirectedSequence(goals).for_unit(0).items(rng, ctx))
        assert [(i.target, i.is_write) for i in items] == [(1, True), (0, False)]

    def test_goal_randomization_derives_from_goal_index(self):
        goals = (
            TransactionGoal(unit=0, target=0, is_write=True, burst=2),
            TransactionGoal(unit=0, target=1, is_write=True, burst=2),
        )
        ctx = StimulusContext(n_targets=2, min_burst=1, max_burst=2)

        def payloads():
            rng = ScenarioRng(42, "master0")
            return [
                i.payload
                for i in DirectedSequence(goals).for_unit(0).items(rng, ctx)
            ]

        assert payloads() == payloads()  # (seed, goal_index) determinism


class TestMsLowering:
    def test_transfer_goes_to_choose_min_winner(self):
        calls = [
            ActionCall("master0", "request"),
            ActionCall("master1", "request"),
            ActionCall("arbiter", "grant_and_transfer", (1, True)),
        ]
        goals = ms_lower(calls, 1, 1, 2)
        transfer = goals[0]
        assert transfer.unit == 0  # min(pending), the ASM arbitration
        assert (transfer.target, transfer.is_write) == (1, True)
        assert transfer.burst == BLOCKING_BURST  # master0 is blocking
        # master1 was left pending: it gets a drain goal
        assert goals[-1].unit == 1
        assert goals[-1].burst == 1  # non-blocking mode

    def test_ascending_requests_post_simultaneously(self):
        calls = [
            ActionCall("master0", "request"),
            ActionCall("master1", "request"),
            ActionCall("arbiter", "grant_and_transfer", (0, False)),
        ]
        goals = ms_lower(calls, 1, 1, 2)
        assert all(g.idle == 0 for g in goals)

    def test_inverted_request_order_gets_a_warmup(self):
        calls = [
            ActionCall("master1", "request"),
            ActionCall("master0", "request"),
            ActionCall("arbiter", "grant_and_transfer", (0, True)),
        ]
        goals = ms_lower(calls, 1, 1, 2)
        # warm-up transaction for the winner precedes the plan, and the
        # early higher-index requester aims into its transfer window
        assert goals[0].unit == 0 and goals[0].idle == 0
        assert any(g.unit == 1 and g.idle > 0 for g in goals)

    def test_unlowerable_actions_return_none(self):
        assert ms_lower([ActionCall("master0", "teleport")], 1, 1, 2) is None
        assert (
            ms_lower([ActionCall("arbiter", "grant_and_transfer", (0, True))], 1, 1, 2)
            is None  # transfer with nobody pending
        )


class TestPciLowering:
    def test_explicit_attribution_and_drains(self):
        calls = [
            ActionCall("master0", "request"),
            ActionCall("master1", "request"),
            ActionCall("arbiter", "update_m_req"),
            ActionCall("arbiter", "grant"),
            ActionCall("master0", "start_transaction", (1, 2)),
            ActionCall("target1", "respond"),
            ActionCall("master0", "run_data_phases"),
            ActionCall("target1", "complete"),
        ]
        goals = pci_lower(calls, 2, 2)
        assert goals[0].unit == 0
        assert goals[0].target == 1 and goals[0].burst == 2
        assert goals[-1].unit == 1  # pending master1 drains

    def test_stop_paths_are_unlowerable(self):
        calls = [
            ActionCall("master0", "request"),
            ActionCall("arbiter", "update_m_req"),
            ActionCall("arbiter", "grant"),
            ActionCall("master0", "start_transaction", (0, 1)),
            ActionCall("target0", "stop_transaction"),
            ActionCall("master0", "handle_stop"),
        ]
        assert pci_lower(calls, 1, 1) is None


class TestClosureLoop:
    def test_folds_achieved_edges_and_goes_dry(self):
        plans = []

        def plan_round(edges, round_index):
            plans.append(tuple(edges))
            return [f"goal:{e}" for e in edges]

        def run_round(planned, round_index):
            # first round closes edge "a", later rounds close nothing
            return ["a"] if round_index == 0 else []

        loop = DirectedClosureLoop(["a", "b"], plan_round, run_round, max_rounds=4)
        rounds = loop.run()
        assert [r.achieved_edges for r in rounds] == [("a",), ()]
        assert loop.remaining == ("b",)
        assert loop.went_dry
        assert plans == [("a", "b"), ("b",)]

    def test_empty_plan_ends_the_loop(self):
        loop = DirectedClosureLoop(
            ["x"], lambda edges, r: [], lambda planned, r: [], max_rounds=5
        )
        assert loop.run() == []
        assert loop.went_dry


class TestCloseCoverageStage:
    def test_ms_closure_beats_bias_rebias_at_the_same_budget(self):
        """The acceptance criterion: directed goals exercise residue
        transitions that 4 rounds of PR 2's profile re-biasing leave
        unhit at the same scenario budget."""
        workbench = Workbench("master_slave")
        workbench.explore()
        fsm = workbench._exploration.fsm

        # -- the PR 2 leg: 4 rounds of residue-biased constrained-random
        #    regression (pressure profiles), same per-scenario budget
        from repro.scenarios.regression import build_specs

        biased_covered = set()
        for round_index in range(4):
            specs = [
                spec
                for spec in build_specs(
                    models=["master_slave"],
                    count=12,
                    base_seed=2005 + 1000 * round_index,
                    cycles=140,
                    profiles=("bursty", "edges"),
                    track_fsm=True,
                )
                if spec.topology == (1, 1, 2)
            ]
            report = RegressionRunner(specs, engine=SerialEngine()).run()
            for verdict in report.verdicts:
                biased_covered.update(
                    walk_fsm_events(fsm, verdict.fsm_events).exercised
                )

        # -- the directed leg
        result = workbench.close_coverage(rounds=2, cycles=140)
        assert result.ok, result.summary
        closed = set(result.data["closed_transitions"])

        missed_by_bias = closed - biased_covered
        assert missed_by_bias, (
            "directed closure must reach residue transitions the biased "
            f"regression left unhit; bias covered {len(biased_covered)}, "
            f"directed closed {len(closed)}"
        )

    def test_close_coverage_digest_is_engine_invariant(self):
        def digest_with(**kwargs):
            workbench = Workbench("master_slave")
            result = workbench.close_coverage(rounds=1, cycles=140, **kwargs)
            return result.digest(), result.data["achieved"]

        serial = digest_with(workers=1)
        multiprocessing = digest_with(workers=2)
        sharded = digest_with(shards=2)
        assert serial == multiprocessing == sharded
        assert serial[1] > 0

    def test_closure_folds_into_the_session_residue(self):
        workbench = Workbench("master_slave")
        workbench.explore()
        before = workbench.residue
        result = workbench.close_coverage(rounds=2, cycles=140)
        after = workbench.residue
        assert result.ok
        assert len(after.uncovered_transitions) < len(before.uncovered_transitions)
        assert after.transition_coverage > before.transition_coverage
        # stage appears in the session report and its digest is stable
        report = workbench.report()
        assert report.stage("close_coverage") is result

    def test_pci_closure_achieves_goals(self):
        workbench = Workbench("pci", n_masters=1, n_targets=1)
        result = workbench.close_coverage(rounds=1, cycles=200)
        assert result.ok, result.summary
        assert result.data["achieved"] > 0
        # STOP#-family edges are not expressible as transaction goals
        assert result.data["unlowerable_edges"]

    def test_close_without_scenario_binding_errors(self):
        from repro.workbench import DUV
        from repro.explorer.config import ExplorationConfig

        def model_factory():
            from tests.conftest import Counter  # type: ignore[import]

            raise AssertionError("unused")

        duv = DUV(name="toy", model_factory=model_factory)
        workbench = Workbench(duv)
        result = workbench.close_coverage()
        assert result.status.value == "error"


class TestClosurePins:
    """Frontier closure facts pinned before the planner memoized its BFS
    trees and the explorer restored lazily: both must leave every FSM,
    plan and round digest exactly as it was."""

    @staticmethod
    def _close(model, max_states=None, **kwargs):
        workbench = Workbench(model, seed=2005)
        explored = workbench.explore(
            **({"max_states": max_states} if max_states else {})
        )
        closure = workbench.close_coverage(workers=1, frontier=True, **kwargs)
        assert explored.ok and closure.ok, closure.summary
        data = closure.data
        return {
            "fsm_digest": explored.data["fsm_digest"],
            "states": explored.data["states"],
            "transitions": explored.data["transitions"],
            "closed": data["achieved"],
            "cycles": data["cycles_simulated"],
            "forked": data["forked_goals"],
            "rounds": [r["regression_digest"] for r in data["run"]],
        }

    def test_pci_frontier_closure_at_400_states(self):
        assert self._close("pci", 400, rounds=3, max_goals=12) == {
            "fsm_digest": "d003d05cd81960ec",
            "states": 400,
            "transitions": 858,
            "closed": 35,
            "cycles": 5800,
            "forked": 2,
            "rounds": [
                "83e6b082565b29d2",
                "75c1f264913c8882",
                "ae89728b8c3e2c51",
            ],
        }

    def test_ms_frontier_closure(self):
        assert self._close("master_slave", rounds=2, cycles=160, max_goals=6) == {
            "fsm_digest": "2ad7769c1dc9599e",
            "states": 8,
            "transitions": 29,
            "closed": 17,
            "cycles": 2028,
            "forked": 2,
            "rounds": ["dcbb5aa734823c14", "d157e953047de373"],
        }


class TestDirectedSharding:
    def test_directed_specs_survive_the_shard_wire(self, tmp_path):
        """A directed spec list round-trips through the spec file and a
        sharded run's merged digest matches the serial one."""
        from repro.scenarios.regression import load_specs, save_specs

        goals = (
            TransactionGoal(unit=0, target=0, is_write=True, burst=2),
            TransactionGoal(unit=1, target=1, is_write=False, burst=1, idle=1),
        )
        specs = [
            ScenarioSpec(
                model="master_slave",
                seed=100 + index,
                topology=(1, 1, 2),
                profile="directed",
                cycles=120,
                goals=goals,
                track_fsm=True,
            )
            for index in range(4)
        ]
        path = tmp_path / "directed_specs.json"
        save_specs(specs, str(path))
        assert load_specs(str(path)) == specs

        serial = RegressionRunner(specs, engine=SerialEngine()).run()
        sharded = RegressionRunner(specs, engine=ShardedEngine(2)).run()
        assert serial.digest() == sharded.digest()
        assert all(v.fsm_events for v in sharded.verdicts)

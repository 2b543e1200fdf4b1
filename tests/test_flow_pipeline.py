"""End-to-end tests of the Figure 1 design flow.

The flow is :meth:`VerificationPlan.figure1` run by a
:class:`Workbench`: the model-checking leg (explore + liveness), the
translation + ABV leg, and the scenario regression behind them.
"""

from dataclasses import replace

from repro.asm import AsmModel
from repro.explorer import ExplorationConfig
from repro.models.master_slave import (
    build_master_slave_model,
    master_slave_domains,
    master_slave_init_call,
    ms_coarse_actions,
    ms_invariant_properties,
    ms_letter_from_model,
    want_trigger,
)
from repro.models.master_slave.properties import served_goal
from repro.psl import Property, parse_formula
from repro.workbench import (
    DUV,
    LivenessCheck,
    StageStatus,
    VerificationPlan,
    Workbench,
)
from conftest import BrokenArbiter, ToyArbiter, ToyMaster


def toy_model_factory(broken: bool = False):
    def factory() -> AsmModel:
        model = AsmModel("toy")
        ToyMaster(model=model, name="m0")
        ToyMaster(model=model, name="m1")
        (BrokenArbiter if broken else ToyArbiter)(model=model, name="arbiter")
        model.seal()
        return model

    return factory


MUTEX = Property("mutex", parse_formula("never (m0.m_gnt && m1.m_gnt)"))

#: the formal leg of Figure 1
MODEL_CHECKING = ("explore", "check_liveness")
#: Figure 1 up to ABV simulation (the toy design has no scenario binding)
THROUGH_SIMULATION = MODEL_CHECKING + ("translate", "simulate_abv")


def toy_duv(broken: bool = False, **kwargs) -> DUV:
    return DUV(
        name="toy",
        model_factory=toy_model_factory(broken),
        directives=[MUTEX],
        **kwargs,
    )


def figure1(*stages: str, **options) -> VerificationPlan:
    """The Figure 1 plan, cut down to ``stages`` when any are named."""
    plan = VerificationPlan.figure1(workers=1, **options)
    if stages:
        plan = replace(
            plan, stages=tuple(c for c in plan.stages if c.stage in stages)
        )
    return plan


class TestModelCheckingLeg:
    def test_pass_on_correct_design(self):
        report = Workbench(toy_duv()).run_plan(figure1(*MODEL_CHECKING))
        assert report.ok
        explore = report.stage("explore")
        assert explore.payload["exploration"].stats.completed
        assert "PASS" in explore.summary

    def test_fail_with_counterexample_on_broken_design(self):
        report = Workbench(toy_duv(broken=True)).run_plan(
            figure1(*MODEL_CHECKING)
        )
        assert not report.ok
        explore = report.stage("explore")
        assert explore.status is StageStatus.FAILED
        assert explore.payload["exploration"].counterexample is not None

    def test_liveness_checks_included(self):
        def m0_req(key):
            return key.value("m0", "m_req") is True

        def m0_gnt(key):
            return key.value("m0", "m_gnt") is True

        duv = toy_duv(
            liveness_checks=[LivenessCheck("grant0", m0_req, m0_gnt)]
        )
        report = Workbench(duv).run_plan(figure1(*MODEL_CHECKING))
        results = report.stage("check_liveness").payload["results"]
        assert results and results[0].holds

    def test_rule_findings_reported(self):
        report = Workbench(toy_duv()).run_plan(figure1(*MODEL_CHECKING))
        findings = report.stage("explore").payload["rule_findings"]
        # no init action configured -> R2 warning
        assert any(f.rule == "R2_FSM" for f in findings)


class TestTranslationLeg:
    def test_simulation_report_and_artifacts(self):
        report = Workbench(toy_duv()).run_plan(
            figure1("translate", "simulate_abv", cycles=300)
        )
        assert report.ok
        simulation = report.stage("simulate_abv").payload["report"]
        assert simulation.ok
        assert simulation.cycles >= 299
        assert simulation.delta_ns_per_cycle > 0
        cpp = report.stage("translate").payload["systemc"]
        assert "SC_MODULE(ToyArbiter)" in cpp
        assert "SC_MODULE(ToyMaster)" in cpp
        assert "int sc_main" in cpp
        assert "class MutexMonitor" in report.stage("translate").payload["csharp"]

    def test_monitors_fail_on_broken_design_in_simulation(self):
        from repro.translate import RandomPolicy

        result = Workbench(toy_duv(broken=True)).simulate_abv(
            cycles=2000, policy=RandomPolicy(seed=99)
        )
        assert not result.ok
        assert "mutex" in result.payload["report"].failed_assertions


class TestFullFlow:
    def test_run_verified_design(self):
        """The whole plan, regression included, behind a toy design
        bound to the master/slave scenario layer."""
        duv = toy_duv(scenario_model="master_slave")
        report = Workbench(duv).run_plan(
            figure1(cycles=300, scenarios=2, scenario_cycles=150)
        )
        assert report.ok
        assert [s.stage for s in report.stages] == [
            "explore", "check_liveness", "translate", "simulate_abv", "regress",
        ]
        assert report.stage("simulate_abv").ok
        assert "VERIFIED" in report.summary()

    def test_run_stops_before_simulation_on_mc_failure(self):
        report = Workbench(toy_duv(broken=True)).run_plan(
            figure1(*THROUGH_SIMULATION, cycles=300)
        )
        assert not report.ok
        # never translated, never simulated
        assert report.stage("translate").status is StageStatus.SKIPPED
        assert report.stage("simulate_abv").status is StageStatus.SKIPPED

    def test_feedback_loop_iterations(self):
        """The Figure 1 'Updates Sequence Diagram' edge: on failure the
        caller repairs the design from the counterexample and reruns."""
        attempts = []
        duv = toy_duv(broken=True)
        for iteration in range(1, 4):
            report = Workbench(duv).run_plan(
                figure1(*THROUGH_SIMULATION, cycles=200)
            )
            if report.ok:
                break
            attempts.append(
                report.stage("explore").payload["exploration"].counterexample
            )
            # repair = swap in the correct design
            duv = toy_duv(broken=False)
        assert report.ok
        assert iteration == 2
        assert len(attempts) == 1
        assert attempts[0] is not None  # the counterexample was delivered


class TestFlowOnMasterSlave:
    def test_master_slave_flow_end_to_end(self):
        n_masters, n_slaves = 2, 2
        duv = DUV(
            name="master_slave_adhoc",
            model_factory=lambda: build_master_slave_model(1, 1, n_slaves),
            directives=ms_invariant_properties(n_masters, n_slaves),
            extractor=ms_letter_from_model,
            exploration=ExplorationConfig(
                domains=master_slave_domains(n_slaves),
                init_action=master_slave_init_call(),
                actions=ms_coarse_actions(n_masters),
                max_states=5_000,
            ),
            liveness_checks=[
                LivenessCheck("served0", want_trigger(0), served_goal(0))
            ],
        )
        report = Workbench(duv).run_plan(figure1(*MODEL_CHECKING))
        assert report.ok, report.summary()
        assert report.stage("check_liveness").payload["results"][0].holds

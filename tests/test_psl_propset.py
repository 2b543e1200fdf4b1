"""Differential tests: property-set stepping vs singleton ``Monitor.step``.

The ABV harness steps its whole suite through one
:class:`~repro.psl.compiled.PropertySet` per cycle.  The contract is
that nothing a caller can observe moves: every monitor's verdict,
``cycle``, ``failure_cycle``, ``triggered`` and cover ``hits``, every
binding's ``fired`` flag, the order and timing of the REPORT/WARN/STOP
failure actions and ``cycles_observed`` must match stepping each
monitor alone, cycle by cycle.  The regression report digest only
records failing monitors, so it cannot gate this path on passing
runs; these tests are the gate, and the fault-injected regression at
the end pins the failures a protocol defect produces.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_psl_compiled import MODEL_SUITES, random_trace

from repro.abv import AbvHarness, FailureAction
from repro.models.master_slave.properties import (
    ms_cover_properties,
    ms_invariant_properties,
    ms_timed_properties,
)
from repro.models.pci.properties import pci_cover_properties, pci_safety_properties
from repro.psl import PslEvaluationError, Verdict, compile_properties
from repro.psl.compiled import PropertySet, compile_property
from repro.scenarios.regression import (
    RegressionRunner,
    _attach_monitors,
    _build_system,
    build_specs,
)
from repro.scenarios.scoreboard import FaultPlan
from repro.sysc import Clock, ReportHandler, Signal, Simulator, ns
from repro.sysc.errors import SimulationStopped

ENGINES = ("compiled", "interpreted")


class RecordingSignal(Signal):
    """A warning signal that logs every write into a shared list."""

    def __init__(self, log, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._log = log

    def write(self, value):
        self._log.append(("warn", self.name))
        super().write(value)


def _actions(index):
    """Cycle REPORT, REPORT+WARN and REPORT+STOP over the bindings."""
    return (
        (FailureAction.REPORT,),
        (FailureAction.REPORT, FailureAction.WARN),
        (FailureAction.REPORT, FailureAction.STOP),
    )[index % 3]


def REPORT_ONLY(index):
    """What the regression attaches: every binding only reports
    (a STOP would end a checkpoint replay early)."""
    return (FailureAction.REPORT,)


class SetSide:
    """The real harness, fed letters directly (no kernel run needed)."""

    def __init__(self, directives, engine, actions=_actions):
        self.sim = Simulator()
        self.log = []
        self.actions = actions
        handler = ReportHandler(
            sink=lambda report: self.log.append(("report", report.label))
        )
        self.harness = AbvHarness(
            self.sim, Clock("clk", ns(10), self.sim), dict, handler
        )
        self.add(directives, engine)

    def add(self, directives, engine):
        offset = len(self.harness.bindings)
        for index, monitor in enumerate(
            compile_properties(directives, engine=engine), offset
        ):
            actions = self.actions(index)
            warn = None
            if FailureAction.WARN in actions:
                warn = RecordingSignal(self.log, False, f"warn{index}", self.sim)
            self.harness.add_monitor(monitor, actions, warn)

    def observe(self, letter):
        try:
            self.harness._observe(letter)
        except SimulationStopped as stop:
            self.log.append(("stop", str(stop)))

    @property
    def monitors(self):
        return [binding.monitor for binding in self.harness.bindings]

    @property
    def fired(self):
        return [binding.fired for binding in self.harness.bindings]


class SingletonSide:
    """The parent harness's loop: each monitor stepped alone."""

    def __init__(self, directives, engine, actions=_actions):
        self.monitors = []
        self.fired = []
        self.log = []
        self.actions = actions
        self.cycles_observed = 0
        self.add(directives, engine)

    def add(self, directives, engine):
        self.monitors.extend(compile_properties(directives, engine=engine))
        self.fired.extend([False] * len(directives))

    def observe(self, letter):
        self.cycles_observed += 1
        stop = None
        for index, monitor in enumerate(self.monitors):
            if monitor.step(letter) is Verdict.FAILS and not self.fired[index]:
                self.fired[index] = True
                actions = self.actions(index)
                self.log.append(("report", monitor.name))
                if FailureAction.WARN in actions:
                    self.log.append(("warn", f"warn{index}"))
                if FailureAction.STOP in actions:
                    stop = f"assertion {monitor.name!r} fired"
        if stop is not None:
            self.log.append(("stop", stop))


def _state(monitor):
    return (
        monitor.name,
        monitor.verdict(),
        monitor.cycle,
        monitor.failure_cycle,
        getattr(monitor, "triggered", None),
        getattr(monitor, "hits", None),
    )


def assert_same(got, want, cycle):
    assert [_state(m) for m in got.monitors] == [
        _state(m) for m in want.monitors
    ], f"monitor state diverges at cycle {cycle}"
    assert got.fired == want.fired, f"fired flags diverge at cycle {cycle}"
    assert got.log == want.log, f"failure actions diverge at cycle {cycle}"


def lockstep(directives, trace, engine):
    got = SetSide(directives, engine)
    want = SingletonSide(directives, engine)
    for cycle, letter in enumerate(trace):
        got.observe(letter)
        want.observe(letter)
        assert_same(got, want, cycle)
        assert got.harness.cycles_observed == want.cycles_observed
    return got


def suite_variables(directives):
    names = set()
    for monitor in compile_properties(directives, engine="compiled"):
        names |= monitor.variables()
    return names


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("suite", sorted(MODEL_SUITES), ids=str)
class TestModelSuites:
    def test_random_traces(self, suite, engine):
        directives = MODEL_SUITES[suite]()
        names = suite_variables(directives)
        for seed, bias in ((1, 0.5), (2, 0.2), (3, 0.8)):
            lockstep(directives, random_trace(names, 60, seed, bias), engine)

    def test_quiet_traces(self, suite, engine):
        directives = MODEL_SUITES[suite]()
        names = sorted(suite_variables(directives))
        for value in (False, True):
            lockstep(directives, [{n: value for n in names}] * 15, engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_mid_run_add_monitor_rebuilds_the_set(engine):
    """Monitors bound after stepping began see history from their own
    first cycle only, exactly as if stepped alone from there."""
    first = pci_safety_properties(2, 2)
    late = ms_timed_properties(2, 2, [True, False]) + pci_cover_properties(2, 2)
    names = suite_variables(first) | suite_variables(late)
    trace = random_trace(names, 50, seed=9, bias=0.4)
    got = SetSide(first, engine)
    want = SingletonSide(first, engine)
    for cycle, letter in enumerate(trace):
        if cycle == 17:
            got.add(late, engine)
            want.add(late, engine)
        got.observe(letter)
        want.observe(letter)
        assert_same(got, want, cycle)
    assert len(got.harness._sets) == 2


@pytest.mark.parametrize("engine", ENGINES)
def test_checkpoint_letter_replay(engine):
    """``replay_letters`` into fresh monitors continues identically."""
    directives = ms_invariant_properties(3, 2) + ms_cover_properties(3, 2)
    names = suite_variables(directives)
    trace = random_trace(names, 70, seed=4, bias=0.3)
    original = SetSide(directives, engine, REPORT_ONLY)
    original.harness.record_letters = True
    for letter in trace[:30]:
        original.observe(letter)
    resumed = SetSide(directives, engine, REPORT_ONLY)
    resumed.harness.record_letters = True
    resumed.harness.replay_letters(original.harness.recorded_letters)
    assert resumed.log == original.log
    want = SingletonSide(directives, engine, REPORT_ONLY)
    for letter in trace[:30]:
        want.observe(letter)
    resumed.log = list(want.log)
    for cycle, letter in enumerate(trace[30:], 30):
        resumed.observe(letter)
        want.observe(letter)
        assert_same(resumed, want, cycle)
    assert resumed.harness.recorded_letters == [dict(l) for l in trace]


ALL_DIRECTIVES = [
    directive for suite in sorted(MODEL_SUITES) for directive in MODEL_SUITES[suite]()
]
ALL_NAMES = sorted(suite_variables(ALL_DIRECTIVES))


@settings(max_examples=30, deadline=None)
@given(
    picks=st.lists(
        st.integers(0, len(ALL_DIRECTIVES) - 1), min_size=1, max_size=12
    ),
    seed=st.integers(0, 10_000),
    bias=st.sampled_from((0.2, 0.5, 0.8)),
    engine=st.sampled_from(ENGINES),
)
def test_random_property_subsets(picks, seed, bias, engine):
    directives = [ALL_DIRECTIVES[i] for i in picks]
    lockstep(directives, random_trace(ALL_NAMES, 40, seed, bias), engine)


class TestSignalCheck:
    def test_unknown_signal_raises_naming_property_and_signal(self):
        monitor = compile_property(
            "never (a && ghost)", name="no_ghost", engine="compiled"
        )
        propset = PropertySet([monitor])
        with pytest.raises(PslEvaluationError, match=r"'no_ghost'.*'ghost'"):
            propset.step({"a": True})

    @pytest.mark.parametrize("engine", ENGINES)
    def test_unknown_signal_fails_the_simulation(self, engine):
        sim = Simulator()
        clock = Clock("clk", ns(10), sim)
        harness = AbvHarness(sim, clock, lambda: {"p": True})
        (monitor,) = compile_properties(["never q"], engine=engine)
        monitor.name = "never_q"
        harness.add_monitor(monitor)
        with pytest.raises(PslEvaluationError, match=r"'never_q'.*'q'"):
            sim.run(ns(10) * 3)

    def test_history_misses_stay_false(self):
        """``prev``/``rose`` before the trace has history read False --
        not an unknown signal -- in the set as in singleton stepping."""
        sources = [
            "never prev(a)",
            "always (rose(a) -> b)",
            "never (prev(a, 2) && b)",
        ]
        trace = [
            {"a": True, "b": False},
            {"a": False, "b": False},
            {"a": True, "b": True},
            {"a": False, "b": False},
        ]
        for engine in ENGINES:
            got = lockstep(sources, trace, engine)
            assert [m.failure_cycle for m in got.monitors] == [1, None, 2]

    @pytest.mark.parametrize(
        "model, topology",
        [("pci", (1, 1)), ("pci", (3, 2)), ("master_slave", (1, 1, 2)),
         ("master_slave", (2, 2, 3))],
    )
    def test_shipped_suites_bind_to_scenario_letters(self, model, topology):
        """Every suite the models ship reads only signals their
        scenario letters provide, so the first-letter check passes."""
        spec = build_specs(models=(model,), count=1, cycles=5)[0]
        spec = replace(spec, topology=topology)
        system = _build_system(spec)
        if model == "pci":
            directives = pci_safety_properties(*topology) + pci_cover_properties(
                *topology
            )
        else:
            masters = topology[0] + topology[1]
            directives = (
                ms_invariant_properties(masters, topology[2])
                + ms_timed_properties(
                    masters, topology[2], [True] * topology[0] + [False] * topology[1]
                )
                + ms_cover_properties(masters, topology[2])
            )
        harness = AbvHarness(system.simulator, system.clock, system.letter)
        harness.add_properties(directives)
        system.run_cycles(5)
        assert harness.cycles_observed == 5


#: Failures a ``hold-request`` fault causes in the first eight
#: default-seed specs, recorded with singleton ``Monitor.step`` stepping
#: before the harness moved to property sets: (label, ((name, cycle),)).
HOLD_REQUEST_FAILURES = [
    ("master_slave[1x1x2]#2005/reads", (("grant_clears_want_0", 2),)),
    ("pci[1x1]#2006/default", (("req_excludes_owner_0", 10),)),
    ("master_slave[1x2x2]#2007/writes", (("grant_clears_want_1", 25),)),
    ("pci[2x2]#2008/writes", (("req_excludes_owner_1", 7),)),
    ("master_slave[2x1x3]#2009/writes", (("grant_clears_want_0", 10),)),
    ("pci[2x3]#2010/reads", (("req_excludes_owner_0", 24),)),
    ("master_slave[2x2x2]#2011/reads", (("grant_clears_want_1", 6),)),
    ("pci[3x2]#2012/default", (("req_excludes_owner_1", 23),)),
]
HOLD_REQUEST_DIGEST = "bccdb53999d4b830"


def _hold_request_specs():
    specs = build_specs(count=8, base_seed=2005, cycles=300, with_monitors=True)
    return [
        replace(spec, fault=FaultPlan("hold-request", unit=(i // 2) % 2, nth=1 + i % 3))
        for i, spec in enumerate(specs)
    ]


class TestFaultInjectedRegression:
    def test_failed_monitors_and_cycles(self):
        observed = []
        for spec in _hold_request_specs():
            system = _build_system(spec)
            harness = _attach_monitors(spec, system)
            harness.record_letters = True
            system.run_cycles(spec.cycles)
            observed.append(
                (
                    spec.label,
                    tuple(
                        (b.monitor.name, b.monitor.failure_cycle)
                        for b in harness.bindings
                        if b.fired
                    ),
                )
            )
            # and stepping fresh monitors alone over the very same
            # letters leaves them in the same state
            fresh = _attach_monitors(spec, _build_system(spec))
            alone = [binding.monitor for binding in fresh.bindings]
            for letter in harness.recorded_letters:
                for monitor in alone:
                    monitor.step(letter)
            assert [_state(m) for m in alone] == [
                _state(b.monitor) for b in harness.bindings
            ]
        assert observed == HOLD_REQUEST_FAILURES

    def test_regression_digest(self):
        report = RegressionRunner(_hold_request_specs(), workers=1).run()
        assert report.digest() == HOLD_REQUEST_DIGEST
        assert sorted(
            (v.spec.label, v.failed_assertions) for v in report.verdicts
        ) == sorted(
            (label, tuple(name for name, _ in fails))
            for label, fails in HOLD_REQUEST_FAILURES
        )

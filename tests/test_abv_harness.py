"""Tests for the runtime assertion-based verification harness."""

import pytest

from repro.psl import (
    CoverMonitor,
    Verdict,
    build_monitor,
    compile_properties,
    parse_formula,
    parse_sere,
)
from repro.abv import AbvHarness, CoverageCollector, FailureAction
from repro.sysc import Clock, ReportHandler, Signal, Simulator, ns


def direct(cls, *args, **kwargs):
    """Instantiate a monitor class directly, expecting the shim warning."""
    with pytest.warns(DeprecationWarning, match="direct Monitor construction"):
        return cls(*args, **kwargs)


def make_design():
    """A toggling design: p alternates, q mirrors p one cycle late."""
    sim = Simulator()
    clock = Clock("clk", ns(10), sim)
    p = Signal(False, "p", sim)
    q = Signal(False, "q", sim)

    def driver():
        while True:
            yield clock.posedge()
            q.write(p.read())
            p.write(not p.read())

    sim.thread(driver)
    return sim, clock, p, q


class TestSampling:
    def test_monitor_samples_every_cycle(self):
        sim, clock, p, q = make_design()
        harness = AbvHarness(sim, clock, lambda: {"p": p.read(), "q": q.read()})
        monitor = build_monitor(parse_formula("always (p || !p)"), "taut")
        harness.add_monitor(monitor)
        sim.run(ns(10) * 20)
        assert harness.cycles_observed >= 19
        assert monitor.verdict() is Verdict.HOLDS

    def test_delayed_copy_property_holds(self):
        sim, clock, p, q = make_design()
        harness = AbvHarness(sim, clock, lambda: {"p": p.read(), "q": q.read()})
        monitor = build_monitor(parse_formula("always {p} |=> {q}"), "follow")
        harness.add_monitor(monitor)
        sim.run(ns(10) * 30)
        assert monitor.verdict() is Verdict.HOLDS
        assert monitor.triggered > 5

    def test_failing_property_reported(self):
        sim, clock, p, q = make_design()
        handler = ReportHandler()
        harness = AbvHarness(
            sim, clock, lambda: {"p": p.read(), "q": q.read()}, handler
        )
        monitor = build_monitor(parse_formula("never p"), "never_p")
        harness.add_monitor(monitor, actions=[FailureAction.REPORT])
        sim.run(ns(10) * 10)
        assert monitor.verdict() is Verdict.FAILS
        assert handler.errors()
        assert handler.errors()[0].label == "never_p"

    def test_each_assertion_fires_once(self):
        sim, clock, p, q = make_design()
        harness = AbvHarness(sim, clock, lambda: {"p": p.read()})
        monitor = build_monitor(parse_formula("never p"), "never_p")
        harness.add_monitor(monitor)
        sim.run(ns(10) * 20)
        assert len(harness.reports.errors()) == 1


class CountingSignal(Signal):
    """A signal that counts its write() calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.write_calls = 0

    def write(self, value):
        self.write_calls += 1
        super().write(value)


class TestWarnAction:
    """The paper's third failure action: 'send a warning signal to
    other modules (if required)'."""

    def test_warn_without_signal_is_rejected(self):
        sim, clock, p, q = make_design()
        harness = AbvHarness(sim, clock, lambda: {"p": p.read()})
        monitor = build_monitor(parse_formula("never p"), "never_p")
        with pytest.raises(ValueError, match="warning signal"):
            harness.add_monitor(monitor, actions=[FailureAction.WARN])

    def test_warn_pulses_the_signal_on_failure(self):
        sim, clock, p, q = make_design()
        warn = Signal(False, "warn", sim)
        harness = AbvHarness(sim, clock, lambda: {"p": p.read()})
        monitor = build_monitor(parse_formula("never p"), "never_p")
        harness.add_monitor(
            monitor, actions=[FailureAction.WARN], warning_signal=warn
        )
        sim.run(ns(10) * 20)
        assert monitor.verdict() is Verdict.FAILS
        assert warn.read() is True

    def test_warn_signal_is_observable_by_other_modules(self):
        """Another process (the 'other module') reacts to the pulse."""
        sim, clock, p, q = make_design()
        warn = Signal(False, "warn", sim)
        observed = []

        def watcher():
            yield warn.posedge_event
            observed.append(sim.time)

        sim.thread(watcher)
        harness = AbvHarness(sim, clock, lambda: {"p": p.read()})
        monitor = build_monitor(parse_formula("never p"), "never_p")
        harness.add_monitor(
            monitor, actions=[FailureAction.WARN], warning_signal=warn
        )
        sim.run(ns(10) * 20)
        assert observed, "the warning pulse never reached the watcher"

    def test_warn_fires_exactly_once(self):
        """The failure actions run once per assertion even though the
        property keeps failing every subsequent cycle."""
        sim, clock, p, q = make_design()
        warn = CountingSignal(False, "warn", sim)
        harness = AbvHarness(sim, clock, lambda: {"p": p.read()})
        monitor = build_monitor(parse_formula("never p"), "never_p")
        binding = harness.add_monitor(
            monitor, actions=[FailureAction.WARN], warning_signal=warn
        )
        sim.run(ns(10) * 40)
        assert binding.fired is True
        assert warn.write_calls == 1

    def test_warn_combines_with_report(self):
        sim, clock, p, q = make_design()
        warn = Signal(False, "warn", sim)
        handler = ReportHandler()
        harness = AbvHarness(sim, clock, lambda: {"p": p.read()}, handler)
        monitor = build_monitor(parse_formula("never p"), "never_p")
        harness.add_monitor(
            monitor,
            actions=[FailureAction.REPORT, FailureAction.WARN],
            warning_signal=warn,
        )
        sim.run(ns(10) * 20)
        assert warn.read() is True
        assert len(handler.errors()) == 1

    def test_warn_signal_untouched_while_assertions_hold(self):
        sim, clock, p, q = make_design()
        warn = CountingSignal(False, "warn", sim)
        harness = AbvHarness(sim, clock, lambda: {"p": p.read()})
        monitor = build_monitor(parse_formula("always (p || !p)"), "taut")
        harness.add_monitor(
            monitor, actions=[FailureAction.WARN], warning_signal=warn
        )
        sim.run(ns(10) * 20)
        assert warn.write_calls == 0
        assert warn.read() is False


class TestFailureActions:
    def test_stop_action_halts_simulation(self):
        sim, clock, p, q = make_design()
        harness = AbvHarness(sim, clock, lambda: {"p": p.read()})
        monitor = build_monitor(parse_formula("never p"), "never_p")
        harness.add_monitor(
            monitor, actions=[FailureAction.REPORT, FailureAction.STOP]
        )
        sim.run(ns(10) * 100)
        assert sim.stopped
        assert "never_p" in (sim.stop_reason or "")
        assert sim.time < ns(10) * 100

    def test_warning_signal_raised(self):
        sim, clock, p, q = make_design()
        warn = Signal(False, "warn", sim)
        harness = AbvHarness(sim, clock, lambda: {"p": p.read()})
        monitor = build_monitor(parse_formula("never p"), "never_p")
        harness.add_monitor(
            monitor, actions=[FailureAction.WARN], warning_signal=warn
        )
        sim.run(ns(10) * 10)
        assert warn.read() is True

    def test_warn_without_signal_rejected(self):
        sim, clock, p, q = make_design()
        harness = AbvHarness(sim, clock, lambda: {"p": p.read()})
        monitor = build_monitor(parse_formula("never p"), "never_p")
        with pytest.raises(ValueError):
            harness.add_monitor(monitor, actions=[FailureAction.WARN])

    def test_simulation_continues_without_stop_action(self):
        sim, clock, p, q = make_design()
        harness = AbvHarness(sim, clock, lambda: {"p": p.read()})
        monitor = build_monitor(parse_formula("never p"), "never_p")
        harness.add_monitor(monitor, actions=[FailureAction.REPORT])
        sim.run(ns(10) * 50)
        assert not sim.stopped
        assert harness.cycles_observed >= 49


class TestFinish:
    def test_uncovered_cover_warns(self):
        sim, clock, p, q = make_design()
        harness = AbvHarness(sim, clock, lambda: {"p": p.read(), "z": False})
        cover = direct(CoverMonitor, parse_sere("z"), "cover_z")
        harness.add_monitor(cover)
        sim.run(ns(10) * 10)
        harness.finish()
        warnings = [
            r for r in harness.reports.reports if r.severity.name == "WARNING"
        ]
        assert any("coverage" in w.message for w in warnings)

    def test_pending_strong_obligation_warns(self):
        sim, clock, p, q = make_design()
        harness = AbvHarness(sim, clock, lambda: {"z": False})
        monitor = build_monitor(parse_formula("eventually! z"), "ev_z")
        harness.add_monitor(monitor)
        sim.run(ns(10) * 10)
        harness.finish()
        warnings = [
            r for r in harness.reports.reports if r.severity.name == "WARNING"
        ]
        assert any("pending" in w.message for w in warnings)

    def test_summary_and_flags(self):
        sim, clock, p, q = make_design()
        harness = AbvHarness(sim, clock, lambda: {"p": p.read()})
        good = build_monitor(parse_formula("always (p || !p)"), "ok")
        bad = build_monitor(parse_formula("never p"), "bad")
        harness.add_monitors([good, bad])
        sim.run(ns(10) * 10)
        assert not harness.all_passing
        assert [b.monitor.name for b in harness.failed] == ["bad"]
        assert "2 assertions" in harness.summary()


class TestCoverageCollector:
    def test_report_includes_hits_and_vacuous(self):
        sim, clock, p, q = make_design()
        harness = AbvHarness(
            sim, clock, lambda: {"p": p.read(), "q": q.read(), "z": False}
        )
        follow = build_monitor(parse_formula("always {p} |=> {q}"), "follow")
        ghost = build_monitor(parse_formula("always {z} |=> {q}"), "ghost")
        cover = direct(CoverMonitor, parse_sere("p ; q"), "cov_pq")
        harness.add_monitors([follow, ghost, cover])
        sim.run(ns(10) * 30)
        collector = CoverageCollector([follow, ghost, cover])
        text = collector.report()
        assert "cov_pq" in text
        assert "ghost" in collector.never_triggered
        assert "follow" not in collector.never_triggered
        assert collector.uncovered == []

    def test_both_engines_report_alike(self):
        """Compiled covers and implications are reported like their
        interpreted twins, not as assertions counting cycles."""
        sources = [
            "cover {p ; q};",
            "cover {z};",
            "assert always {p} |=> {q};",
            "assert always {z} |=> {q};",
        ]

        def collect(engine):
            sim, clock, p, q = make_design()
            harness = AbvHarness(
                sim, clock, lambda: {"p": p.read(), "q": q.read(), "z": False}
            )
            monitors = compile_properties(sources, engine=engine)
            harness.add_monitors(monitors)
            sim.run(ns(10) * 30)
            collector = CoverageCollector(monitors)
            entries = [(e.kind, e.hits) for e in collector.entries()]
            return entries, collector.uncovered, collector.never_triggered

        compiled = collect("compiled")
        assert compiled == collect("interpreted")
        entries, uncovered, never_triggered = compiled
        assert [kind for kind, _ in entries] == [
            "cover", "cover", "assertion", "assertion"
        ]
        assert len(uncovered) == 1 and len(never_triggered) == 1

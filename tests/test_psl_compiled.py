"""Differential tests: compiled (table-driven) vs interpreted monitors.

The compiled engine's whole contract is *byte-identical verdicts*: any
property, any trace, every cycle, both engines must agree.  This suite
drives both engines in lockstep over

* every property the two bus models ship (invariants, timed, covers),
* a seeded corpus of randomly generated SEREs and suffix implications,

and additionally checks the redesigned ``compile_properties`` API
surface (bindings, engine selection, the deprecation shim, cache
counters) and the kernel fast path the compiled engine rides on.
"""

import random
import warnings

import pytest

from repro.models.master_slave.properties import (
    ms_cover_properties,
    ms_invariant_properties,
    ms_timed_properties,
)
from repro.models.pci.properties import (
    pci_cover_properties,
    pci_safety_properties,
)
from repro.psl import (
    Verdict,
    compile_properties,
    parse_formula,
)
from repro.psl.compiled import (
    ENGINE_ENV_VAR,
    CompiledProperty,
    clear_compile_caches,
    compile_cache_stats,
    compile_property,
    default_engine,
    property_digest,
    set_default_engine,
    shared_automaton,
)
from repro.psl.parser import parse_sere


# ---------------------------------------------------------------------------
# lockstep driving
# ---------------------------------------------------------------------------


def random_trace(variables, cycles: int, seed: int, bias: float = 0.5):
    """A seeded boolean trace over ``variables`` (sorted for stability)."""
    rng = random.Random(seed)
    names = sorted(variables) or ["p"]
    return [
        {name: rng.random() < bias for name in names} for _ in range(cycles)
    ]


def lockstep(source, trace, *, bindings=None):
    """Step both engines over ``trace``; assert per-cycle agreement.

    Returns the shared verdict sequence so callers can make additional
    assertions about the trace itself.
    """
    compiled, = compile_properties([source], bindings=bindings, engine="compiled")
    interpreted, = compile_properties(
        [source], bindings=bindings, engine="interpreted"
    )
    assert compiled.variables() == interpreted.variables()
    compiled.reset()
    interpreted.reset()
    verdicts = []
    for cycle, letter in enumerate(trace):
        got = compiled.step(letter)
        want = interpreted.step(letter)
        assert got is want, (
            f"engines diverge at cycle {cycle} for {source!r}: "
            f"compiled={got} interpreted={want}"
        )
        assert compiled.verdict() is interpreted.verdict()
        verdicts.append(got)
    return verdicts


MODEL_SUITES = {
    "ms_invariants": lambda: ms_invariant_properties(2, 2),
    "ms_timed": lambda: ms_timed_properties(2, 2, [True, False]),
    "ms_covers": lambda: ms_cover_properties(2, 2),
    "pci_safety": lambda: pci_safety_properties(2, 2),
    "pci_covers": lambda: pci_cover_properties(2, 2),
}


class TestModelProperties:
    """Every shipped model property agrees across engines."""

    @pytest.mark.parametrize("suite", sorted(MODEL_SUITES), ids=str)
    def test_random_traces_agree(self, suite):
        directives = MODEL_SUITES[suite]()
        assert directives, f"suite {suite} is empty"
        for directive in directives:
            monitor, = compile_properties([directive], engine="compiled")
            for seed in (1, 2, 3):
                trace = random_trace(monitor.variables(), 40, seed)
                lockstep(directive, trace)

    @pytest.mark.parametrize("suite", sorted(MODEL_SUITES), ids=str)
    def test_quiet_traces_agree(self, suite):
        """All-false and all-true letters: the degenerate corners."""
        for directive in MODEL_SUITES[suite]():
            monitor, = compile_properties([directive], engine="compiled")
            names = sorted(monitor.variables())
            for value in (False, True):
                trace = [{name: value for name in names}] * 12
                lockstep(directive, trace)


# ---------------------------------------------------------------------------
# random formula corpus
# ---------------------------------------------------------------------------

ATOMS = ("a", "b", "c")


def random_sere(rng: random.Random, depth: int = 0) -> str:
    atom = rng.choice(ATOMS)
    if depth >= 2:
        return atom
    pick = rng.randrange(7)
    if pick == 0:
        return atom
    if pick == 1:
        return f"{random_sere(rng, depth + 1)} ; {random_sere(rng, depth + 1)}"
    if pick == 2:
        return f"{{{random_sere(rng, depth + 1)}}} | {{{random_sere(rng, depth + 1)}}}"
    if pick == 3:
        return f"{atom}[*]"
    if pick == 4:
        return f"{atom}[+]"
    if pick == 5:
        lo = rng.randrange(0, 3)
        return f"{atom}[*{lo}:{lo + rng.randrange(1, 3)}]"
    return f"({atom} && {rng.choice(ATOMS)})"


def random_formula(rng: random.Random) -> str:
    shape = rng.randrange(6)
    if shape == 0:
        return f"always {{{random_sere(rng)}}} |=> {{{random_sere(rng)}}}"
    if shape == 1:
        return f"always {{{random_sere(rng)}}} |-> {{{random_sere(rng)}}}"
    if shape == 2:
        return f"never {{{random_sere(rng)}}}"
    if shape == 3:
        return f"always ({rng.choice(ATOMS)} -> {rng.choice(ATOMS)})"
    if shape == 4:
        return f"{rng.choice(ATOMS)} until {rng.choice(ATOMS)}"
    return f"eventually! {rng.choice(ATOMS)}"


class TestRandomCorpus:
    def test_generated_formulas_agree(self):
        rng = random.Random(20050307)
        for index in range(60):
            text = random_formula(rng)
            trace = random_trace(ATOMS, 30, seed=index, bias=rng.choice((0.3, 0.7)))
            lockstep(text, trace)

    def test_generated_covers_agree(self):
        rng = random.Random(77)
        for index in range(30):
            text = f"cover {{{random_sere(rng)}}};"
            trace = random_trace(ATOMS, 25, seed=1000 + index)
            lockstep(text, trace)


# ---------------------------------------------------------------------------
# snapshot / restore
# ---------------------------------------------------------------------------


class TestSnapshotRestore:
    CASES = [
        "always {a} |=> {b ; c}",
        "always {a ; a} |-> {b[*1:3] ; c}",
        "never {a ; b}",
        "a until b",
        "eventually! c",
        "cover {a ; b ; c};",
    ]

    @pytest.mark.parametrize("engine", ["compiled", "interpreted"])
    @pytest.mark.parametrize("text", CASES, ids=range(len(CASES)))
    def test_mid_stream_round_trip(self, engine, text):
        """Restoring a mid-trace snapshot replays the identical tail."""
        trace = random_trace(ATOMS, 30, seed=sum(text.encode()))
        monitor, = compile_properties([text], engine=engine)
        monitor.reset()
        for letter in trace[:11]:
            monitor.step(letter)
        snap = monitor.snapshot()
        tail = [monitor.step(letter) for letter in trace[11:]]
        monitor.restore(snap)
        replayed = [monitor.step(letter) for letter in trace[11:]]
        assert replayed == tail

    def test_snapshot_is_inert(self):
        """Stepping after a snapshot does not mutate the snapshot."""
        monitor, = compile_properties(["always {a} |=> {b}"], engine="compiled")
        monitor.reset()
        monitor.step({"a": True, "b": False})
        snap = monitor.snapshot()
        monitor.step({"a": False, "b": False})  # consequent fails
        assert monitor.verdict() is Verdict.FAILS
        monitor.restore(snap)
        assert monitor.verdict() is not Verdict.FAILS
        monitor.step({"a": False, "b": True})
        assert monitor.verdict() is not Verdict.FAILS


# ---------------------------------------------------------------------------
# API surface
# ---------------------------------------------------------------------------


class TestCompileApi:
    def test_engine_validation(self):
        with pytest.raises(ValueError, match="unknown PSL engine"):
            compile_properties(["always p"], engine="jit")
        with pytest.raises(ValueError, match="unknown PSL engine"):
            set_default_engine("turbo")

    def test_default_engine_round_trip(self):
        previous = set_default_engine("interpreted")
        try:
            assert default_engine() == "interpreted"
            monitor, = compile_properties(["always p"])
            assert not isinstance(monitor, CompiledProperty)
        finally:
            set_default_engine(previous)

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "interpreted")
        assert default_engine() == "interpreted"
        monkeypatch.setenv(ENGINE_ENV_VAR, "warp")
        with pytest.raises(ValueError, match="unknown PSL engine"):
            default_engine()

    def test_bindings_rename_signals(self):
        monitor, = compile_properties(
            ["always {req} |=> {gnt}"],
            bindings={"req": "want0", "gnt": "owner0"},
        )
        assert monitor.variables() == frozenset({"want0", "owner0"})
        monitor.reset()
        monitor.step({"want0": True, "owner0": False})
        monitor.step({"want0": False, "owner0": True})
        assert monitor.verdict() is not Verdict.FAILS

    def test_bindings_and_engines_agree(self):
        bindings = {"a": "x", "b": "y"}
        trace = random_trace(("x", "y"), 20, seed=9)
        lockstep("always {a} |=> {b}", trace, bindings=bindings)

    def test_source_forms_are_interchangeable(self):
        text = "always {a} |=> {b}"
        formula = parse_formula(text)
        from_text, = compile_properties([text])
        from_ast, = compile_properties([formula])
        assert type(from_text) is type(from_ast)
        assert property_digest(text) == property_digest(formula)

    def test_rejects_unknown_source_type(self):
        with pytest.raises(TypeError, match="cannot compile"):
            compile_property(42)

    def test_unsupported_patterns_fall_back(self):
        """Patterns outside the table engine run interpreted -- silently."""
        monitor, = compile_properties(["always (always a)"], engine="compiled")
        assert not isinstance(monitor, CompiledProperty)
        trace = random_trace(("a",), 10, seed=3)
        lockstep("always (always a)", trace)


class TestDeprecationShim:
    """The construction shim is gone; the public path stays silent."""

    def test_compile_properties_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            compile_properties(["always p"], engine="interpreted")
            compile_properties(["always p"], engine="compiled")


# ---------------------------------------------------------------------------
# caches
# ---------------------------------------------------------------------------


class TestCompileCaches:
    def test_plan_cache_hits_on_repeat(self):
        clear_compile_caches()
        try:
            compile_properties(["always {a} |=> {b}"] * 3)
            stats = compile_cache_stats()
            assert stats["plan_misses"] == 1
            assert stats["plan_hits"] == 2
        finally:
            clear_compile_caches()

    def test_bindings_are_part_of_the_cache_key(self):
        clear_compile_caches()
        try:
            compile_properties(["always {a} |=> {b}"])
            compile_properties(["always {a} |=> {b}"], bindings={"a": "x"})
            stats = compile_cache_stats()
            assert stats["plan_misses"] == 2
        finally:
            clear_compile_caches()

    def test_automata_are_shared_across_monitors(self):
        clear_compile_caches()
        try:
            item = parse_sere("a ; b[*] ; c")
            first = shared_automaton(item)
            second = shared_automaton(item)
            assert first is second
            stats = compile_cache_stats()
            assert stats["automaton_hits"] >= 1
        finally:
            clear_compile_caches()


# ---------------------------------------------------------------------------
# kernel fast path
# ---------------------------------------------------------------------------


class TestKernelFastPath:
    def build(self, cycles=60):
        from repro.models.master_slave.scenario import MsScenarioSystem
        from repro.scenarios import sequence_for_profile

        system = MsScenarioSystem(
            1, 1, 2, sequence_for_profile("default"), seed=2005
        )
        system.run_cycles(cycles)
        return system

    def test_fast_path_dominates_plain_scenarios(self):
        system = self.build()
        stats = system.simulator.stats
        assert stats.fast_path_instants > 0
        assert stats.fast_path_instants > stats.full_path_instants

    def test_fast_path_preserves_results(self):
        fast = self.build()
        report = fast.check()
        assert report.ok

    def test_hooks_force_full_path(self):
        from repro.models.master_slave.scenario import MsScenarioSystem
        from repro.scenarios import sequence_for_profile

        system = MsScenarioSystem(
            1, 1, 2, sequence_for_profile("default"), seed=2005
        )
        system.simulator.on_delta.append(lambda sim: None)
        system.run_cycles(20)
        stats = system.simulator.stats
        assert stats.fast_path_instants == 0
        assert stats.full_path_instants > 0

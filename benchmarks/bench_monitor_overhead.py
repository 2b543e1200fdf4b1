"""Monitor overhead and kernel throughput benches (paper Section 4.3).

The paper's delta column shows "a very short time (few seconds) to
simulate million[s] of cycles" with the assertion monitors attached.
These benches quantify the monitor cost on this kernel:

* kernel throughput with 0 / few / many monitors, bound the way a
  regression binds them (``AbvHarness.add_properties``: compiled
  monitors stepped as one property set),
* per-step cost of each monitor class (micro),
* the derivative SERE tracker on long random traces.
"""

import random

import pytest

from repro.abv import AbvHarness
from repro.psl import build_monitor, parse_formula, run_monitor
from repro.models.pci import PciSystemModel
from repro.models.pci.properties import (
    pci_invariant_properties,
    pci_safety_properties,
)

CYCLES = 10_000


def _run_with_monitor_count(count: int) -> float:
    system = PciSystemModel(2, 2, seed=7)
    directives = pci_safety_properties(2, 2)[:count]
    if directives:
        harness = AbvHarness(system.simulator, system.clock, system.letter)
        harness.add_properties(directives)
    system.run_cycles(CYCLES)
    return system.simulator.stats.wall_seconds


@pytest.mark.parametrize("monitors", [0, 4, 8, 16])
def test_monitor_count_overhead(benchmark, monitors):
    """Wall time per cycle as the attached monitor count grows."""
    seconds = benchmark.pedantic(
        _run_with_monitor_count, args=(monitors,), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        {
            "monitors": monitors,
            "delta_ns_per_cycle": round(seconds * 1e9 / CYCLES, 1),
        }
    )
    print(f"\n{monitors} monitors: {seconds * 1e9 / CYCLES:.0f} ns/cycle")


MICRO_PROPS = {
    "boolean_invariant": "always (frame -> !bus_idle)",
    "suffix_implication": "always {req0} |=> {(!gnt0)[*0:8] ; gnt0}",
    "never_sere": "never {stop_any ; stop_any ; stop_any}",
    "edge_detect": "always (rose(gnt0) -> req0)",
}


@pytest.mark.parametrize("name", sorted(MICRO_PROPS))
def test_monitor_step_micro(benchmark, name):
    """Per-step cost of one monitor on a synthetic letter stream."""
    monitor = build_monitor(parse_formula(MICRO_PROPS[name]), name=name)
    rng = random.Random(13)
    letters = [
        {
            "frame": rng.random() < 0.5,
            "bus_idle": rng.random() < 0.4,
            "req0": rng.random() < 0.3,
            "gnt0": rng.random() < 0.6,
            "stop_any": rng.random() < 0.2,
        }
        for _ in range(2000)
    ]
    # make the invariant hold so the monitor never latches FAILS
    for letter in letters:
        if letter["frame"]:
            letter["bus_idle"] = False
        if letter["gnt0"] and not letter["req0"]:
            letter["gnt0"] = False
        letter["stop_any"] = False

    def run():
        monitor.reset()
        for letter in letters:
            monitor.step(letter)
        return monitor.cycle

    cycles = benchmark(run)
    assert cycles == len(letters) - 1
    if benchmark.stats:  # absent under --benchmark-disable
        benchmark.extra_info["ns_per_step"] = round(
            benchmark.stats["mean"] * 1e9 / len(letters), 1
        )


def test_replay_vs_incremental_cost(benchmark):
    """The incremental monitor's raison d'etre: the replay oracle is
    quadratic, the derivative monitor linear."""
    formula = parse_formula("always {req0} |=> {gnt0}")
    incremental = build_monitor(formula, name="inc")
    import warnings

    from repro.psl.monitor import ReplayMonitor

    # the replay oracle is interpreted-only and deliberately
    # constructed directly; silence the compile_properties() shim
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        replay = ReplayMonitor(formula, name="rp")
    rng = random.Random(3)
    letters = [
        {"req0": rng.random() < 0.3, "gnt0": True} for _ in range(400)
    ]

    def run():
        run_monitor(incremental, letters, stop_early=False)
        run_monitor(replay, letters, stop_early=False)
        return incremental.verdict(), replay.verdict()

    inc_verdict, rep_verdict = benchmark.pedantic(run, rounds=1, iterations=1)
    assert inc_verdict == rep_verdict

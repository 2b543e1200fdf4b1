"""The repo benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload regress_monitored --seed 2005 \
        --seconds 10 --trace 0

Runs from the root of a checkout (the program is imported from
``src/``), prints a human-readable report -- every metric with its
unit and sample count, the deterministic statistics, the correctness
checks -- and, as its last line, one JSON object::

    {"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with no
tracing at all and expressed in reference seconds (host seconds
corrected for the host's speed, ``hostspeed.py``); ``--trace 1``
reports the per-layer split in host seconds, from interleaved
untraced, layer-traced and ``repro.obs``-traced passes.
See ``perfbench/README.md`` for what each metric means and which
workload should move it.  Exit status: 0 correct, 1 incorrect output,
2 when the program cannot be found or crashes (no result line then).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from hostspeed import REFERENCE_KERNEL_S, HostSpeed, ref_scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: end-to-end metrics (--trace 0): name -> unit.  ``ref_s``/``ref_ms``
#: are reference seconds/milliseconds (see ``hostspeed.py``); ``setup_s``
#: is in reference seconds too, under the unit the benchmark format
#: fixes for it
END_TO_END = {
    "setup_s": "s",
    "sim_cycles_per_s": "1/ref_s",
    "checked_txn_per_s": "1/ref_s",
    "scenario_ms.p50": "ref_ms",
    "scenario_ms.p90": "ref_ms",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (--trace 1): name -> unit.  Values are per pass.
PER_LAYER = {
    "psl.step_s": "s",
    "psl.steps": "count",
    "psl.steps_per_cycle": "1/cycle",
    "models.letter_s": "s",
    "models.letter_calls": "count",
    "sysc.self_s": "s",
    "sysc.instants": "count",
    "sysc.fast_path_frac": "ratio",
    "scenarios.check_s": "s",
    "scenarios.coverage_s": "s",
    "scenarios.words_checked": "count",
    "scenarios.runner_self_s": "s",
    "psl.compile_s": "s",
    "psl.compile_cache_hit_frac": "ratio",
    "setup.import_s": "s",
    "dispatch.shard_s": "s",
    "dispatch.shard_overhead_s": "s",
    "dispatch.wire_bytes": "B",
    "dispatch.retries": "count",
    "dispatch.steals": "count",
    "explore_s": "s",
    "closure_s": "s",
    "closure_edges": "count",
    "closure_sim_cycles": "cycles",
    "explorer.explore_s": "s",
    "explorer.states": "count",
    "explorer.transitions": "count",
    "explorer.plan_s": "s",
    "explorer.shortest_path_calls": "count",
    "explorer.edges_per_goal": "edges/goal",
    "checkpoint.capture_s": "s",
    "checkpoint.captures": "count",
    "checkpoint.restore_s": "s",
    "checkpoint.restores": "count",
    "checkpoint.bytes": "B",
    "checkpoint.fork_useful_frac": "ratio",
    "workbench.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unaccounted_frac": "ratio",
    "obs.overhead_frac": "ratio",
    "obs.psl_share_gap": "ratio",
}

#: a run that cannot reach its sample floor stops at this many times
#: its ``--seconds`` (keeps every run inside the 180 s limit)
MAX_STRETCH = 5


@dataclass
class RunResult:
    """Everything one run measured and checked."""

    workload: str
    seed: int
    trace: bool
    probes: List[Dict[str, float]]
    passes: List[Any]
    metrics: Dict[str, float]
    facts: Dict[str, Any]
    #: the untraced passes after the warm-up, which the metrics use
    measured: List[Any]
    #: the host-speed kernel times taken around the measured passes
    host_kernel_s: List[float]
    problems: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return max(1, sum(p.attempted for p in self.passes) + len(self.probes))

    @property
    def failed(self) -> int:
        failed = sum(p.failed for p in self.passes)
        # a violated check with no failed operation of its own (digest
        # mismatch, drifting statistics) still counts as one failure
        return failed or (1 if self.problems else 0)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def line(self) -> Dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, unit in (PER_LAYER if self.trace else END_TO_END).items()
            },
        }


# -- statistics -------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method; the value itself for one sample)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# -- set-up probes ------------------------------------------------------------------


class Prober:
    """Fresh-process set-up samples, spread over the run.

    One probe runs after each measured pass until ``count`` are taken,
    so a burst of host noise hits few of them; ``finish`` takes the
    rest.  A sample's ``wall_s`` is spawn to exit, and ``ref_s`` the
    same in reference seconds, from kernel times taken just before and
    after it.
    """

    def __init__(self, workload: str, seed: int, size_name: str, count: int, host: HostSpeed):
        self.command = [sys.executable, str(HERE / "probe.py"), workload, str(seed), size_name]
        self.count = count
        self.host = host
        self.samples: List[Dict[str, float]] = []

    def maybe(self) -> None:
        if len(self.samples) < self.count:
            self.samples.append(self._probe())

    def finish(self) -> List[Dict[str, float]]:
        while len(self.samples) < self.count:
            self.samples.append(self._probe())
        return self.samples

    def _probe(self) -> Dict[str, float]:
        before = self.host.sample()
        started = time.perf_counter()
        done = subprocess.run(
            self.command, capture_output=True, text=True, timeout=120, check=False
        )
        wall = time.perf_counter() - started
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
        return {
            "wall_s": wall,
            "ref_s": wall * ref_scale(before, self.host.sample()),
            **json.loads(done.stdout.strip().splitlines()[-1]),
        }


# -- passes -----------------------------------------------------------------------


def peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def timed_passes(
    workload, seconds: float, min_scenarios: int, prober: Prober, host: HostSpeed
) -> List[Any]:
    """Untraced passes until ``seconds`` and the scenario floor are met.

    The host-speed kernel runs between passes and between the
    segments of a pass; each segment is scaled by the two samples
    around it.  Kernel and probe time stay out of the ``seconds``.
    """
    passes = []
    before = host.sample()
    started = time.perf_counter()
    while True:
        result, before = measured_pass(workload, host, before)
        passes.append(result)
        paused = time.perf_counter()
        prober.maybe()
        started += time.perf_counter() - paused
        elapsed = time.perf_counter() - started
        samples = sum(len(p.scenario_walls) for p in passes)
        if passes[-1].problems or elapsed >= MAX_STRETCH * seconds:
            break
        if elapsed >= seconds and samples >= min_scenarios:
            break
    return passes


def measured_pass(workload, host: HostSpeed, before: float):
    """One pass with the kernel timed after each of its segments.

    ``before`` is the kernel time taken just before the pass; returns
    the pass, its ``ref_scales`` set, and the last kernel time.
    """
    samples = [before]
    result = workload.run_pass(mark=lambda: samples.append(host.sample()))
    samples.append(host.sample())
    result.ref_scales = [ref_scale(a, b) for a, b in zip(samples, samples[1:])]
    return result, samples[-1]


@dataclass
class TraceRounds:
    untraced: List[Any] = field(default_factory=list)
    traced: List[Any] = field(default_factory=list)
    observed: List[Any] = field(default_factory=list)
    snapshots: List[Dict[str, Any]] = field(default_factory=list)
    #: per obs pass: (psl.monitor self seconds, root span seconds)
    obs_psl: List[tuple] = field(default_factory=list)


def traced_round(
    workload, rounds: TraceRounds, tracer, layer_dir: Path, host: HostSpeed
) -> None:
    """One untraced, one layer-traced and one ``repro.obs`` pass."""
    from layers import install
    from repro.obs import disable, enable_tracing

    rounds.untraced.append(measured_pass(workload, host, host.sample())[0])

    saved = {key: os.environ.get(key) for key in ("PYTHONPATH", "PERFBENCH_LAYER_DIR")}
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(HERE / "childhook"), os.environ.get("PYTHONPATH", "")]
    )
    os.environ["PERFBENCH_LAYER_DIR"] = str(layer_dir)
    install(tracer)
    try:
        rounds.traced.append(workload.run_pass())
    finally:
        tracer.restore()
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value

    obs_tracer = enable_tracing()
    try:
        rounds.observed.append(workload.run_pass())
        spans = obs_tracer.spans()
    finally:
        disable()
    children: Dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id] = children.get(span.parent_id, 0.0) + span.duration_s
    psl_self = sum(
        max(0.0, span.duration_s - children.get(span.span_id, 0.0))
        for span in spans
        if span.component == "psl.monitor"
    )
    root = sum(span.duration_s for span in spans if span.parent_id is None)
    rounds.obs_psl.append((psl_self, root))


def trace_passes(
    workload, seconds: float, work_dir: Path, prober: Prober, host: HostSpeed
) -> TraceRounds:
    from layers import LayerTracer

    layer_dir = work_dir / "layers"
    layer_dir.mkdir(parents=True, exist_ok=True)
    tracer = LayerTracer()
    rounds = TraceRounds()
    started = time.perf_counter()
    while True:
        traced_round(workload, rounds, tracer, layer_dir, host)
        probe_started = time.perf_counter()
        prober.maybe()
        started += time.perf_counter() - probe_started
        if any(p.problems for p in rounds.untraced + rounds.traced + rounds.observed):
            break
        if time.perf_counter() - started >= seconds:
            break
    rounds.snapshots.append(tracer.snapshot())
    for path in sorted(layer_dir.glob("shard-*.json")):
        rounds.snapshots.append(json.loads(path.read_text(encoding="utf-8")))
    return rounds


# -- metrics ------------------------------------------------------------------------


def end_to_end_metrics(passes, probes, rss_mb: float, scaled: bool = True) -> Dict[str, float]:
    """The end-to-end metrics; ``scaled=False`` gives them in host seconds."""
    walls = [w for p in passes for w in (p.ref_scenario_walls() if scaled else p.scenario_walls)]
    wall = sum(p.ref_wall if scaled else p.wall for p in passes)
    return {
        "setup_s": median([p["ref_s" if scaled else "wall_s"] for p in probes]),
        "sim_cycles_per_s": sum(p.cycles for p in passes) / wall,
        "checked_txn_per_s": sum(p.transactions for p in passes) / wall,
        "scenario_ms.p50": 1000.0 * percentile(walls, 50),
        "scenario_ms.p90": 1000.0 * percentile(walls, 90),
        "peak_rss_mb": rss_mb,
    }


def layer_metrics(rounds: TraceRounds, probes, cache_hit_frac: float) -> Dict[str, float]:
    from layers import merge_snapshots

    snap = merge_snapshots(rounds.snapshots)
    total, self_, calls, counts = snap["total"], snap["self"], snap["calls"], snap["counts"]
    n = len(rounds.traced)
    traced_wall = sum(p.wall for p in rounds.traced)
    untraced_wall = sum(p.wall for p in rounds.untraced)
    observed_wall = sum(p.wall for p in rounds.observed)
    cycles = sum(p.cycles for p in rounds.traced)
    instants = counts.get("sysc.instants", 0.0)
    captures = calls.get("checkpoint.capture", 0)
    facts = rounds.untraced[0].facts
    psl_self, obs_root = (sum(column) for column in zip(*rounds.obs_psl))

    def per_pass(value: float) -> float:
        return value / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "psl.step_s": per_pass(total.get("psl.step", 0.0)),
        "psl.steps": per_pass(calls.get("psl.step", 0)),
        "psl.steps_per_cycle": ratio(calls.get("psl.step", 0), cycles),
        "models.letter_s": per_pass(total.get("models.letter", 0.0)),
        "models.letter_calls": per_pass(calls.get("models.letter", 0)),
        "sysc.self_s": per_pass(self_.get("sysc.run", 0.0)),
        "sysc.instants": per_pass(instants),
        "sysc.fast_path_frac": ratio(counts.get("sysc.fast_path_instants", 0.0), instants),
        "scenarios.check_s": per_pass(total.get("scenarios.check", 0.0)),
        "scenarios.coverage_s": per_pass(total.get("scenarios.coverage", 0.0)),
        "scenarios.words_checked": per_pass(counts.get("scenarios.words_checked", 0.0)),
        "scenarios.runner_self_s": per_pass(self_.get("scenarios.runner", 0.0)),
        "psl.compile_s": median([p["compile_s"] for p in probes]),
        "psl.compile_cache_hit_frac": cache_hit_frac,
        "setup.import_s": median([p["import_s"] for p in probes]),
        "dispatch.shard_s": per_pass(total.get("dispatch.shard", 0.0)),
        "dispatch.shard_overhead_s": per_pass(
            total.get("dispatch.shard", 0.0) - counts.get("dispatch.verdict_s", 0.0)
        ),
        "dispatch.wire_bytes": per_pass(counts.get("dispatch.wire_bytes", 0.0)),
        "dispatch.retries": per_pass(sum(p.dispatch.get("retries", 0) for p in rounds.traced)),
        "dispatch.steals": per_pass(sum(p.dispatch.get("steals", 0) for p in rounds.traced)),
        "explore_s": median([p.timings.get("explore_s", 0.0) for p in rounds.untraced]),
        "closure_s": median([p.timings.get("closure_s", 0.0) for p in rounds.untraced]),
        "closure_edges": facts.get("closure_edges", 0),
        "closure_sim_cycles": facts.get("closure_sim_cycles", 0),
        "explorer.explore_s": per_pass(total.get("explorer.explore", 0.0)),
        "explorer.states": per_pass(counts.get("explorer.states", 0.0)),
        "explorer.transitions": per_pass(counts.get("explorer.transitions", 0.0)),
        "explorer.plan_s": per_pass(total.get("explorer.plan", 0.0)),
        "explorer.shortest_path_calls": per_pass(calls.get("explorer.shortest_path", 0)),
        "explorer.edges_per_goal": ratio(
            facts.get("closure_edges", 0), facts.get("scenarios", 0)
        ),
        "checkpoint.capture_s": per_pass(
            total.get("checkpoint.capture", 0.0) + total.get("checkpoint.store_put", 0.0)
        ),
        "checkpoint.captures": per_pass(captures),
        "checkpoint.restore_s": per_pass(
            total.get("checkpoint.restore", 0.0) + total.get("checkpoint.store_get", 0.0)
        ),
        "checkpoint.restores": per_pass(calls.get("checkpoint.restore", 0)),
        "checkpoint.bytes": per_pass(counts.get("checkpoint.bytes", 0.0)),
        "checkpoint.fork_useful_frac": ratio(
            len(snap["sets"].get("checkpoint.forked", ())), per_pass(captures)
        ),
        "workbench.self_s": per_pass(
            sum(v for k, v in self_.items() if k.startswith("workbench."))
        ),
        "trace.overhead_frac": ratio(traced_wall, untraced_wall) - 1.0,
        "trace.unaccounted_frac": 1.0 - ratio(snap["top"], traced_wall),
        "obs.overhead_frac": ratio(observed_wall, untraced_wall) - 1.0,
        # parent process only: shard children run without an obs tracer
        "obs.psl_share_gap": ratio(psl_self, obs_root)
        - ratio(rounds.snapshots[0]["total"].get("psl.step", 0.0), traced_wall),
    }


def compile_cache_hit_frac() -> float:
    from repro.psl.compiled import compile_cache_stats

    stats = compile_cache_stats()
    lookups = stats["plan_hits"] + stats["plan_misses"]
    return stats["plan_hits"] / lookups if lookups else 0.0


# -- one run ------------------------------------------------------------------------


def check_passes(passes) -> List[str]:
    problems = [problem for p in passes for problem in p.problems]
    reference = passes[0].facts
    for index, p in enumerate(passes[1:], start=1):
        if p.facts != reference:
            problems.append(
                f"pass {index} statistics {p.facts} differ from pass 0 {reference}"
            )
    return problems


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size_name: str,
    work_dir: Path,
    workload: Optional[Any] = None,
) -> RunResult:
    """Probe set-up, run the passes, check them, derive the metrics.

    ``workload`` overrides the named workload object (the self-tests
    plant faults through it).
    """
    from workloads import SIZES, WORKLOADS

    size = SIZES[size_name]
    with HostSpeed() as host:
        prober = Prober(workload_name, seed, size_name, size.probes, host)
        prober.maybe()
        if workload is None:
            workload = WORKLOADS[workload_name]()
            workload.setup(seed, size)
        sharded = bool(getattr(workload, "shards", None))
        # one untimed pass first: lazy imports, monitor tables and the
        # page cache warm up here, and its statistics join the checks
        warm_up = workload.run_pass()
        if trace:
            rounds = trace_passes(workload, seconds, work_dir, prober, host)
            passes = rounds.untraced + rounds.traced + rounds.observed
            measured = rounds.untraced
        else:
            passes = measured = timed_passes(
                workload, seconds, size.min_scenarios, prober, host
            )
        rss_mb = peak_rss_mb(sharded)
        probes = prober.finish()
    metrics = end_to_end_metrics(measured, probes, rss_mb)
    if trace:
        metrics.update(layer_metrics(rounds, probes, compile_cache_hit_frac()))
    passes = [warm_up] + passes
    problems = check_passes(passes)
    if not problems:
        problems += workload.final_check(passes[0].facts)
    return RunResult(
        workload=workload_name,
        seed=seed,
        trace=trace,
        probes=probes,
        passes=passes,
        metrics=metrics,
        facts=passes[0].facts,
        measured=measured,
        host_kernel_s=host.samples,
        problems=problems,
    )


def render(result: RunResult) -> str:
    """The human-readable report printed above the result line."""
    scenarios = [w for p in result.measured for w in p.scenario_walls]
    p90 = percentile(scenarios, 90)
    walls = sorted(p.wall for p in result.measured)
    lines = [
        f"workload {result.workload}  seed {result.seed}  trace {int(result.trace)}",
        f"deterministic statistics (per pass): {json.dumps(result.facts, sort_keys=True)}",
        f"samples: {len(result.probes)} set-up probes, {len(walls)} measured passes, "
        f"{len(scenarios)} scenarios ({sum(1 for w in scenarios if w > p90)} beyond p90)",
        f"measured pass wall: median {median(walls):.6f} s, "
        f"min {walls[0]:.6f} s, max {walls[-1]:.6f} s",
    ]
    for name in END_TO_END:
        lines.append(f"  {name:<32} {result.metrics[name]:>16.6f} {END_TO_END[name]}")
    kernel = sorted(result.host_kernel_s)
    lines.append(
        f"host-speed kernel: median {1000 * median(kernel):.3f} ms, min {1000 * kernel[0]:.3f} ms, "
        f"max {1000 * kernel[-1]:.3f} ms over {len(kernel)} samples "
        f"(reference {1000 * REFERENCE_KERNEL_S:.0f} ms); the same metrics in host seconds:"
    )
    host_clock = end_to_end_metrics(result.measured, result.probes, 0.0, scaled=False)
    for name in ("setup_s", "sim_cycles_per_s", "checked_txn_per_s", "scenario_ms.p50", "scenario_ms.p90"):
        unit = END_TO_END[name].replace("ref_", "")
        lines.append(f"  {name:<32} {host_clock[name]:>16.6f} {unit}  (host clock)")
    timings = [p.timings for p in result.measured if p.timings]
    for key in ("explore_s", "closure_s"):
        if timings:
            lines.append(
                f"  {key:<32} {median([t[key] for t in timings]):>16.6f} s"
                f"  (median of {len(timings)} passes)"
            )
    for key in ("closure_edges", "closure_sim_cycles"):
        if key in result.facts:
            lines.append(f"  {key:<32} {result.facts[key]:>16} (deterministic)")
    if result.trace:
        lines.append("per-layer split (per traced pass):")
        for name, unit in PER_LAYER.items():
            lines.append(f"  {name:<32} {result.metrics[name]:>16.6f} {unit}")
    lines.append(
        f"  {'failed_frac':<32} {result.failed / result.attempted:>16.6f} "
        f"({result.failed}/{result.attempted} operations)"
    )
    lines.append("checks: " + ("all passed" if result.correct else "; ".join(result.problems)))
    return "\n".join(lines)


def _prepare_environment(work_dir: Path) -> None:
    """Children import ``repro`` from ``src`` and write only under ``work_dir``."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    existing = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), existing]))
    tmp = work_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["REPRO_CHECKPOINT_DIR"] = str(work_dir / "checkpoints")
    import tempfile

    tempfile.tempdir = str(tmp)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("regress_monitored", "regress_plain", "regress_sharded", "close_pci"),
    )
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    work_dir = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    try:
        _prepare_environment(work_dir)
        result = run(
            args.workload, args.seed, args.seconds, bool(args.trace), "full", work_dir
        )
    except Exception:  # noqa: BLE001 -- the run's boundary: report, print no result
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(render(result))
    print(json.dumps(result.line()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())

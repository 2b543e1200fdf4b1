"""The differential checkpoint suite (this PR's CI gate).

The contract under test: ``restore(snapshot(T)) + k cycles`` is
*byte-identical* to ``run(T + k)`` -- same transaction stream, same
scoreboard, same monitor verdicts, same report digest -- for both
shipped scenario models, both PSL stepping engines, at any quiescent
snapshot boundary, whether the resumed run executes serially or in
fresh shard subprocesses.  Around it: the wire form's typed rejection
taxonomy (Hypothesis round trips included), crash-safe persistence,
and the frontier planner the directed-closure loop forks from.
"""

import hashlib
import json
import os
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    SPILL_DIR_ENV,
    WIRE_VERSION,
    Checkpoint,
    CheckpointError,
    CheckpointFormatError,
    CheckpointIntegrityError,
    CheckpointStateError,
    CheckpointVersionError,
    UnknownCheckpointError,
    ensure_spill_dir,
    global_registry,
    load_checkpoint,
    reset_global_registry,
    restore_scenario,
    restore_system,
    save_checkpoint,
    snapshot_scenario_run,
    snapshot_system,
)
from repro.checkpoint.snapshot import WIRE_KIND
from repro.dispatch import ShardDispatcher
from repro.explorer.goal_planner import GoalPlanner, walk_fsm_events
from repro.dispatch.worker import CheckpointCache, store_checkpoint_request
from repro.psl.compiled import ENGINES
from repro.scenarios.directed import TransactionGoal
from repro.scenarios.regression import (
    RegressionRunner,
    ScenarioSpec,
    run_scenario,
)
from repro.scenarios.scoreboard import FaultPlan
from repro.workbench import SerialEngine, Workbench

CYCLES = 120

#: One monitored, fsm-tracked spec per shipped model: the differential
#: runs compare *everything* a verdict carries (stream, scoreboard,
#: monitor verdicts, reconstructed FSM events).
MONITORED_SPECS = {
    "master_slave": ScenarioSpec(
        "master_slave", 2005, (2, 2, 2), "bursty", CYCLES,
        None, True, (), True,
    ),
    "pci": ScenarioSpec(
        "pci", 2011, (2, 2), "default", CYCLES, None, True, (), True,
    ),
}


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Isolate every test from the process-global checkpoint registry."""
    reset_global_registry()
    yield
    reset_global_registry()


def _comparable(verdict):
    """A verdict's full wire form minus wall time and resume plumbing
    (the only fields allowed to differ between a resumed and an
    uninterrupted run)."""
    doc = verdict.to_json()
    doc.pop("wall_seconds")
    doc.pop("frontier_digest", None)
    for key in ("resume_from", "checkpoint_at"):
        doc["spec"].pop(key, None)
    return doc


_BASELINES = {}


def _baseline(model, engine):
    """The uninterrupted run's verdict, cached per (model, engine)."""
    key = (model, engine)
    if key not in _BASELINES:
        _BASELINES[key] = _comparable(run_scenario(MONITORED_SPECS[model]))
    return _BASELINES[key]


class TestRestoreEquivalence:
    """snapshot at T -> restore -> run to T+k == uninterrupted run."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("model", sorted(MONITORED_SPECS))
    @pytest.mark.parametrize("snap_at", (1, 60, CYCLES - 1))
    def test_resume_matches_uninterrupted(
        self, model, snap_at, engine, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PSL_ENGINE", engine)
        spec = MONITORED_SPECS[model]
        checkpoint = snapshot_scenario_run(
            replace(spec, cycles=snap_at), snap_at
        )
        digest = global_registry().put(checkpoint)
        resumed = _comparable(run_scenario(replace(spec, resume_from=digest)))
        assert resumed == _baseline(model, engine)

    def test_snapshot_crosses_psl_engines(self, monkeypatch):
        """Monitor state travels as replayed letters, so a snapshot
        taken under one stepping engine restores under the other."""
        spec = MONITORED_SPECS["master_slave"]
        monkeypatch.setenv("REPRO_PSL_ENGINE", "compiled")
        checkpoint = snapshot_scenario_run(replace(spec, cycles=60), 60)
        digest = global_registry().put(checkpoint)
        monkeypatch.setenv("REPRO_PSL_ENGINE", "interpreted")
        resumed = _comparable(run_scenario(replace(spec, resume_from=digest)))
        assert resumed == _baseline("master_slave", "interpreted")

    def test_fresh_process_restore_serial_vs_sharded(
        self, tmp_path, monkeypatch
    ):
        """Resumed specs produce the baseline report digest both on the
        serial engine and across shard *subprocesses* that rebuild the
        checkpoints from the spilled wire files."""
        monkeypatch.setenv(SPILL_DIR_ENV, str(tmp_path / "spill"))
        reset_global_registry()
        resumed = []
        for model in sorted(MONITORED_SPECS):
            spec = MONITORED_SPECS[model]
            checkpoint = snapshot_scenario_run(replace(spec, cycles=60), 60)
            digest = global_registry().put(checkpoint)
            resumed.append(replace(spec, resume_from=digest))
        ensure_spill_dir()
        baseline = RegressionRunner(
            list(MONITORED_SPECS.values()), engine=SerialEngine()
        ).run()
        serial = RegressionRunner(resumed, engine=SerialEngine()).run()
        sharded = ShardDispatcher(resumed, shards=2).run().report
        assert serial.digest() == baseline.digest()
        assert sharded.digest() == baseline.digest()

    def test_directed_goals_resume_too(self):
        """A fork can swap the stimulus: resuming with *different* goals
        re-arms the sequence instead of replaying the original items."""
        from repro.scenarios.directed import TransactionGoal

        spec = ScenarioSpec(
            "master_slave", 2005, (1, 1, 2), "default", 80, track_fsm=True
        )
        checkpoint = snapshot_scenario_run(spec, 80)
        digest = global_registry().put(checkpoint)
        goals = (TransactionGoal(unit=0, target=0, is_write=True, burst=1),)
        forked = run_scenario(
            replace(
                spec, cycles=96, goals=goals, profile="directed",
                resume_from=digest,
            )
        )
        assert forked.ok
        assert forked.cycles == 96
        assert forked.fsm_events  # the forked stimulus actually drove

    @pytest.mark.parametrize(
        "spec",
        (
            ScenarioSpec("master_slave", 2005, (1, 1, 2), "default", 40),
            ScenarioSpec("pci", 2011, (2, 2), "default", 40),
        ),
        ids=lambda spec: spec.model,
    )
    def test_forked_capture_restores_equivalently(self, spec):
        """A checkpoint captured *inside* a fork (``resume_from`` + new
        goals + ``checkpoint_at``) restores into the stimulus the fork
        was playing: resuming it matches running the fork straight
        through, transaction for transaction."""
        root = global_registry().put(snapshot_scenario_run(spec, 40))
        units = spec.topology[0] + (
            spec.topology[1] if spec.model == "master_slave" else 0
        )
        goals = tuple(
            TransactionGoal(
                unit=index % units,
                target=index % 2,
                is_write=index % 3 != 2,
                burst=1 + index % 2,
            )
            for index in range(60)
        )
        fork = replace(
            spec, cycles=200, profile="directed", goals=goals,
            track_fsm=True, resume_from=root, checkpoint_at=80,
        )
        straight = run_scenario(fork)
        frontier = global_registry().get(straight.frontier_digest)
        resumed = run_scenario(
            replace(
                frontier.spec, cycles=200,
                resume_from=straight.frontier_digest,
            )
        )
        assert straight.transactions > 0
        assert _comparable(resumed) == _comparable(straight)


class TestRestoreGuards:
    """Typed refusals: a checkpoint never restores into the wrong run."""

    def _checkpoint(self):
        spec = ScenarioSpec("master_slave", 2005, (1, 1, 2), "default", 60)
        return spec, snapshot_scenario_run(replace(spec, cycles=30), 30)

    def test_pinned_field_mismatch_rejected(self):
        spec, checkpoint = self._checkpoint()
        with pytest.raises(CheckpointStateError, match="seed"):
            restore_scenario(replace(spec, seed=7), checkpoint)
        with pytest.raises(CheckpointStateError, match="topology"):
            restore_scenario(replace(spec, topology=(2, 1, 3)), checkpoint)

    def test_total_cycles_below_checkpoint_rejected(self):
        spec, checkpoint = self._checkpoint()
        with pytest.raises(CheckpointStateError, match="already ran"):
            restore_scenario(replace(spec, cycles=10), checkpoint)

    def test_unknown_digest_rejected(self):
        spec, checkpoint = self._checkpoint()
        global_registry().put(checkpoint)
        with pytest.raises(UnknownCheckpointError, match="unknown"):
            run_scenario(replace(spec, resume_from="0" * 64))

    @pytest.mark.parametrize(
        "inflated",
        ({"items_consumed": 10**6}, {"items_consumed": 10**6, "issued": 10**6}),
        ids=("consumed", "consumed-and-issued"),
    )
    def test_inflated_items_consumed_rejected_before_replay(self, inflated):
        """A re-digested upload claiming a huge stimulus position is
        refused up front instead of replaying an infinite stream."""
        _, checkpoint = self._checkpoint()
        doc = checkpoint.to_json()
        payload = doc["payload"]
        payload["modules"]["master0"].update(inflated)
        doc["digest"] = hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
            .encode("utf-8")
        ).hexdigest()
        cache = CheckpointCache()
        reply = store_checkpoint_request(
            {"version": 1, "checkpoint": doc}, cache
        )
        started = time.perf_counter()
        with pytest.raises(CheckpointStateError, match="items_consumed"):
            restore_system(cache.get(reply["digest"]))
        assert time.perf_counter() - started < 1.0


class TestWireTaxonomy:
    """Corrupt, truncated and stale wire forms are rejected, typed."""

    @pytest.fixture(scope="class")
    def checkpoint(self):
        return snapshot_scenario_run(
            ScenarioSpec("master_slave", 2005, (1, 1, 2), "default", 40), 40
        )

    def test_round_trip_preserves_the_digest(self, checkpoint):
        wire = json.loads(json.dumps(checkpoint.to_json()))
        again = Checkpoint.from_json(wire)
        assert again.digest == checkpoint.digest
        assert again.canonical_payload() == checkpoint.canonical_payload()

    def test_corrupt_payload_rejected(self, checkpoint):
        doc = checkpoint.to_json()
        doc["payload"]["txn_next"] += 1
        with pytest.raises(CheckpointIntegrityError, match="digest mismatch"):
            Checkpoint.from_json(doc)

    def test_truncated_payload_rejected(self, checkpoint):
        doc = checkpoint.to_json()
        del doc["payload"]["signals"]
        with pytest.raises(CheckpointFormatError, match="malformed"):
            Checkpoint.from_json(doc)

    def test_newer_version_rejected(self, checkpoint):
        doc = checkpoint.to_json()
        doc["version"] = WIRE_VERSION + 1
        with pytest.raises(CheckpointVersionError, match="newer"):
            Checkpoint.from_json(doc)

    def test_non_checkpoint_documents_rejected(self):
        with pytest.raises(CheckpointFormatError, match="object"):
            Checkpoint.from_json([1, 2, 3])
        with pytest.raises(CheckpointFormatError, match="kind"):
            Checkpoint.from_json({"kind": "something-else"})
        with pytest.raises(CheckpointFormatError, match="version"):
            Checkpoint.from_json({"kind": WIRE_KIND, "version": "1"})
        with pytest.raises(CheckpointFormatError, match="payload"):
            Checkpoint.from_json(
                {"kind": WIRE_KIND, "version": WIRE_VERSION}
            )

    def test_every_rejection_is_one_taxonomy(self):
        for klass in (
            CheckpointFormatError,
            CheckpointVersionError,
            CheckpointIntegrityError,
            CheckpointStateError,
            UnknownCheckpointError,
        ):
            assert issubclass(klass, CheckpointError)


class TestPinnedWireFormat:
    """First-generation payload bytes are a stored format: spilled
    registry entries and CLI checkpoint files must keep resolving, so
    these digests only change together with ``WIRE_VERSION``."""

    @pytest.mark.parametrize(
        "spec, digest",
        (
            (
                MONITORED_SPECS["master_slave"],
                "9b5f4990c448c164252ff600fd5be10b"
                "7d91bb4191f005b3b9206a7ba4182d2f",
            ),
            (
                MONITORED_SPECS["pci"],
                "ccdd04b46d29540444c25ac48ff95aa4"
                "121088ecaba5f2839c7a4e925bb81acf",
            ),
            (
                ScenarioSpec(
                    "master_slave", 2005, (1, 1, 2), "default", 60,
                    FaultPlan("corrupt-read", 1, 2),
                ),
                "8788d639c668ec6234c564d5361b23ca"
                "c630339bef5cc54593fcca2e8e3b6092",
            ),
            (
                ScenarioSpec(
                    "pci", 2011, (2, 2), "default", 60,
                    FaultPlan("drop", 1, 1),
                ),
                "638345258a311bba9ce63c915b5104e7"
                "a4f2c0b64b39e81afc0b97263e8294c0",
            ),
        ),
        ids=("master_slave", "pci", "master_slave-fault", "pci-fault"),
    )
    def test_payload_digest_is_pinned(self, spec, digest):
        checkpoint = snapshot_scenario_run(replace(spec, cycles=60), 60)
        assert checkpoint.digest == digest


class TestAtomicPersistence:
    """Satellite fix: a crash mid-write never leaves a half-checkpoint
    that restore would accept."""

    def _checkpoints(self):
        spec = ScenarioSpec("master_slave", 2005, (1, 1, 2), "default", 40)
        return (
            snapshot_scenario_run(replace(spec, cycles=20), 20),
            snapshot_scenario_run(spec, 40),
        )

    def test_crash_before_rename_keeps_the_old_file(
        self, tmp_path, monkeypatch
    ):
        old, new = self._checkpoints()
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(old, path)
        with monkeypatch.context() as patch:
            def crash(src, dst):
                raise OSError("disk went away before rename")

            patch.setattr(os, "replace", crash)
            with pytest.raises(OSError, match="went away"):
                save_checkpoint(new, path)
        # the old file is intact and no tempfile litter remains
        assert load_checkpoint(path).digest == old.digest
        leftovers = [
            name
            for name in os.listdir(tmp_path)
            if name.startswith(".checkpoint-")
        ]
        assert leftovers == []

    def test_half_written_file_is_rejected_not_restored(self, tmp_path):
        old, _ = self._checkpoints()
        text = json.dumps(old.to_json())
        path = tmp_path / "torn.ckpt"
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(CheckpointFormatError, match="cannot read"):
            load_checkpoint(str(path))

    def test_registry_spill_round_trips_across_reset(self, tmp_path):
        from repro.checkpoint import CheckpointRegistry

        old, _ = self._checkpoints()
        first = CheckpointRegistry(spill_dir=str(tmp_path))
        digest = first.put(old)
        # a second registry over the same directory (= a fresh worker
        # process) resolves the digest purely from disk
        second = CheckpointRegistry(spill_dir=str(tmp_path))
        assert second.get(digest).digest == digest
        with pytest.raises(UnknownCheckpointError):
            second.get("f" * 64)


class TestHypothesisRoundTrip:
    """Random prefixes: wire round trip and re-snapshot identity."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        prefix=st.integers(min_value=1, max_value=48),
        model=st.sampled_from(sorted(MONITORED_SPECS)),
    )
    def test_random_prefix_round_trips(self, seed, prefix, model):
        topology = (1, 1, 2) if model == "master_slave" else (1, 1)
        spec = ScenarioSpec(model, seed, topology, "default", prefix)
        checkpoint = snapshot_scenario_run(spec, prefix)
        wire = json.loads(json.dumps(checkpoint.to_json()))
        again = Checkpoint.from_json(wire)
        assert again.digest == checkpoint.digest
        # restoring the parsed wire form and re-snapshotting at the
        # same boundary reproduces the identical payload bytes
        system, harness = restore_system(again)
        resnap = snapshot_system(
            system, again.spec, again.cycles_run, harness=harness
        )
        assert resnap.digest == checkpoint.digest


@pytest.fixture(scope="module")
def ms_workbench():
    """One explored Master/Slave workbench shared by the planner tests."""
    workbench = Workbench("master_slave")
    workbench.explore()
    return workbench


class TestFrontierPlanning:
    """The planner side of frontier forking: origin choice, fallback,
    and the event walk's final-state bookkeeping."""

    def _planner(self, ms_workbench):
        fsm = ms_workbench._exploration.fsm
        edges = ms_workbench._residue.uncovered_transitions
        return fsm, GoalPlanner(fsm), edges

    def test_frontier_origin_wins_only_when_strictly_shorter(
        self, ms_workbench
    ):
        _, planner, edges = self._planner(ms_workbench)
        from_reset = {p.target_edge: p for p in planner.plan(edges)}
        plans = planner.plan(edges, frontier=[3, 5])
        forked = [p for p in plans if p.origin_state is not None]
        assert forked, "no plan adopted a frontier origin"
        for plan in forked:
            assert plan.origin_state in (3, 5)
            assert f"from s{plan.origin_state}" in plan.describe()
            baseline = from_reset.get(plan.target_edge)
            if baseline is not None:
                # a fork is only taken when strictly shorter than the
                # from-reset path, whose length it records
                assert len(plan.transitions) < len(baseline.transitions)
                assert plan.initial_steps == len(baseline.transitions)
        # goals that kept the initial origin plan the same path (the
        # greedy dedup may give the two rosters different edges, so
        # compare only the shared ones)
        for plan in plans:
            if plan.origin_state is None and plan.target_edge in from_reset:
                assert (
                    plan.transitions
                    == from_reset[plan.target_edge].transitions
                )

    def test_forked_plans_sort_after_from_reset_plans(self, ms_workbench):
        """Longest-first ordering pushes the (short) forked plans to the
        tail -- the property the workbench's max_goals exemption relies
        on."""
        _, planner, edges = self._planner(ms_workbench)
        plans = planner.plan(edges, frontier=[3, 5])
        lengths = [len(p.transitions) for p in plans]
        assert lengths == sorted(lengths, reverse=True)
        first_fork = next(
            i for i, p in enumerate(plans) if p.origin_state is not None
        )
        assert all(p.origin_state is not None for p in plans[first_fork:])

    def test_replan_from_initial_recovers_an_undrivable_fork(
        self, ms_workbench
    ):
        _, planner, edges = self._planner(ms_workbench)
        plans = planner.plan(edges, frontier=[3, 5])
        forked = [p for p in plans if p.origin_state is not None][0]
        fallback = planner.replan_from_initial(forked)
        assert fallback is not None
        assert fallback.origin_state is None
        assert fallback.target_edge == forked.target_edge
        assert fallback.initial_steps == len(fallback.transitions)
        assert fallback.transitions[-1].label() == (
            forked.transitions[-1].label()
        )

    def test_walk_final_state_tracks_the_frontier(self, ms_workbench):
        fsm, _, _ = self._planner(ms_workbench)
        initial = fsm.initial_states()[0].index
        assert walk_fsm_events(fsm, []).final_state == initial
        transition = next(
            t
            for t in fsm.outgoing(initial)
            if sum(
                1
                for o in fsm.outgoing(initial)
                if o.label() == t.label()
            )
            == 1
        )
        call = transition.call
        walk = walk_fsm_events(
            fsm, [(call.machine, call.action, tuple(call.args))]
        )
        assert walk.final_state == transition.target
        assert walk.steps_walked == 1

    def test_close_coverage_frontier_forks_and_saves_cycles(self):
        """End to end: with frontier forking on, later rounds fork
        checkpointed states and bank real cycle savings."""
        workbench = Workbench("master_slave")
        workbench.explore()
        result = workbench.close_coverage(
            rounds=2, cycles=160, max_goals=6, frontier=True
        )
        data = result.data
        assert data["frontier"] is True
        assert len(data["frontier_states"]) >= 1
        assert data["forked_goals"] >= 1
        assert data["cycles_saved"] > 0
        assert data["achieved"] >= 1

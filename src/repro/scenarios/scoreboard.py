"""Transaction scoreboard with the ASM model as golden reference.

The paper verifies the ASM design formally, then trusts the translated
SystemC model to refine it.  The scoreboard closes that gap at run
time: every completed SystemC-level :class:`~repro.sysc.bus.Transaction`
is replayed -- in completion order -- as a sequence of guarded ASM
actions on a fresh instance of the very model the explorer verified.
A transaction the ASM model would not accept (a ``require`` fails
mid-replay) is a *protocol divergence*; data that differs from the
golden memory the replay maintains is a *data divergence*; completed
transactions the design never reported are *dropped*.

Every mismatch carries full divergence context: the transaction record
(txn_id, cycles, payload), what was expected, what was observed, and a
dump of the reference model's state at the point of divergence.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..asm.errors import AsmError, RequirementFailure
from ..asm.machine import ActionCall, AsmModel
from ..sysc.bus import Transaction
from .random_ import ScenarioRng
from .sequences import SequenceItem, StimulusContext


class DivergenceKind(enum.Enum):
    """Why the design and the reference disagree."""

    PROTOCOL = "protocol"    # ASM replay rejected the transaction
    DATA = "data"            # payload differs from the golden memory
    DROPPED = "dropped"      # completed but never reported
    COUNTER = "counter"      # aggregate word counters diverged


@dataclass(frozen=True)
class Mismatch:
    """One divergence, with enough context to reproduce and debug it."""

    kind: DivergenceKind
    master: str
    txn_id: int
    detail: str
    expected: str = ""
    observed: str = ""
    reference_state: str = ""

    def describe(self) -> str:
        lines = [f"[{self.kind.value}] {self.master} txn#{self.txn_id}: {self.detail}"]
        if self.expected or self.observed:
            lines.append(f"  expected: {self.expected}")
            lines.append(f"  observed: {self.observed}")
        if self.reference_state:
            lines.append(f"  reference state: {self.reference_state}")
        return "\n".join(lines)


@dataclass
class ScoreboardReport:
    """Everything one scoreboard pass produced."""

    scenario: str
    matches: int = 0
    words_checked: int = 0
    replayed_calls: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def checked(self) -> int:
        return self.matches + len(self.mismatches)

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        head = (
            f"[{status}] scoreboard {self.scenario}: {self.matches} matched, "
            f"{len(self.mismatches)} mismatched, {self.words_checked} words, "
            f"{self.replayed_calls} reference actions replayed"
        )
        if self.ok:
            return head
        return "\n".join([head] + [m.describe() for m in self.mismatches])

    def digest(self) -> str:
        """Deterministic fingerprint of the verdict (no wall times)."""
        payload = "\n".join(
            [
                self.scenario,
                str(self.matches),
                str(self.words_checked),
            ]
            + [m.describe() for m in self.mismatches]
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class AsmLockstep:
    """Drives the golden :class:`AsmModel` one guarded action at a time.

    ``call`` returns None on success or a human-readable failure
    description when the action's ``require`` rejected the step --
    i.e. when the observed SystemC behaviour has no counterpart in the
    verified ASM design.
    """

    def __init__(self, model: AsmModel):
        self.model = model
        self.calls_executed = 0
        #: bound @action methods keyed by (machine, action) -- replay
        #: scripts hit the same few actions thousands of times, so the
        #: per-call getattr/validation runs once per distinct action
        self._methods: Dict[Tuple[str, str], Any] = {}

    def call(self, machine: str, action: str, *args: Any) -> Optional[str]:
        method = self._methods.get((machine, action))
        if method is None:
            method = getattr(self.model.machines[machine], action)
            if getattr(method, "asm_action", None) is None:
                label = ActionCall(machine, action, tuple(args)).label()
                return f"{label} rejected: {machine}.{action} is not an @action"
            self._methods[(machine, action)] = method
        try:
            method(*args)
        except RequirementFailure as failure:
            # Match AsmModel.execute's wrapping (label prefix) so the
            # divergence text is identical to the uncached path.
            label = ActionCall(machine, action, tuple(args)).label()
            return f"{label} rejected: {label}: {failure}"
        except AsmError as failure:
            label = ActionCall(machine, action, tuple(args)).label()
            return f"{label} rejected: {failure}"
        self.calls_executed += 1
        return None

    def state_dump(self, limit: int = 14) -> str:
        """Compact reference-state rendering for divergence context."""
        pairs = []
        for location, value in self.model.full_state().items():
            if location.machine == "$globals":
                continue
            pairs.append(f"{location.machine}.{location.variable}={value!r}")
        if len(pairs) > limit:
            pairs = pairs[:limit] + [f"... (+{len(pairs) - limit} more)"]
        return ", ".join(pairs)


class ReferenceAdapter:
    """Binds the generic scoreboard to one design's ASM reference.

    Concrete adapters live next to their models
    (:mod:`repro.models.master_slave.scenario`,
    :mod:`repro.models.pci.scenario`) and implement
    :meth:`build_reference` plus :meth:`observe`; the lockstep
    bookkeeping and the dropped-transaction accounting are shared.
    """

    lockstep: Optional[AsmLockstep] = None

    def build_reference(self) -> AsmModel:
        """A fresh, sealed reference model (with a ``system.init``)."""
        raise NotImplementedError

    def begin(self) -> None:
        """Arm a fresh reference (called once per check pass)."""
        self._reset_reference()

    def _reset_reference(self) -> None:
        """(Re)build the golden model, preserving the replay counter --
        also used to re-arm after a protocol divergence so later
        transactions still get checked."""
        previous = self.lockstep.calls_executed if self.lockstep else 0
        self.lockstep = AsmLockstep(self.build_reference())
        self.lockstep.calls_executed = previous
        error = self.lockstep.call("system", "init")
        if error:  # pragma: no cover -- the case-study models always init
            raise RuntimeError(f"reference model failed to initialize: {error}")

    @property
    def replayed_calls(self) -> int:
        return self.lockstep.calls_executed if self.lockstep else 0

    def observe(self, txn: Transaction, item: SequenceItem) -> Iterable[Mismatch]:
        """Replay one completed transaction; yield divergences."""
        raise NotImplementedError

    def finish(
        self,
        completed: Mapping[str, int],
        recorded: Mapping[str, int],
    ) -> Iterable[Mismatch]:
        """End-of-run accounting; the default checks for dropped
        transactions (adapters may extend with model-specific checks)."""
        return self._dropped_mismatches(completed, recorded)

    def _dropped_mismatches(
        self,
        completed: Mapping[str, int],
        recorded: Mapping[str, int],
    ) -> Iterator[Mismatch]:
        for master, done in sorted(completed.items()):
            seen = recorded.get(master, 0)
            if seen < done:
                yield Mismatch(
                    kind=DivergenceKind.DROPPED,
                    master=master,
                    txn_id=-1,
                    detail=f"{done - seen} completed transaction(s) never reported",
                    expected=f"{done} records",
                    observed=f"{seen} records",
                )
            elif seen > done:  # pragma: no cover -- would be a driver bug
                yield Mismatch(
                    kind=DivergenceKind.COUNTER,
                    master=master,
                    txn_id=-1,
                    detail="more records than completed transactions",
                    expected=f"{done} records",
                    observed=f"{seen} records",
                )


class ScenarioSystem:
    """Shared scoreboard plumbing for model scenario tops.

    Subclasses build the simulator/clock/masters in ``__init__`` (each
    master exposing ``records``/``completed``/``name``) and implement
    :meth:`reference_adapter` and :meth:`coverage_context`.
    """

    simulator: Any
    clock: Any
    masters: Sequence[Any]
    n_masters: int
    seed: int
    #: rng scope the masters' item streams derive under; a checkpoint
    #: fork re-derives them under ``RNG_SCOPE + "-fork"``
    RNG_SCOPE = ""
    #: set once a checkpoint fork re-armed the masters: the
    #: ``{"goals", "profile"}`` stimulus the system was *built* with,
    #: which a capture of the forked run must carry to be restorable
    built_from: Optional[Dict[str, Any]] = None

    def _stimulus_context(self, index: int) -> StimulusContext:
        """The stimulus constraints of master ``index``."""
        raise NotImplementedError

    def _item_streams(
        self, sequence: Any, scope: str
    ) -> List[Iterator[SequenceItem]]:
        """One item stream per master, derived from the system seed
        under ``scope`` (construction and forks differ only there)."""
        root = ScenarioRng(self.seed, scope)
        return [
            sequence.for_unit(index).items(
                root.derive(f"master{index}"), self._stimulus_context(index)
            )
            for index in range(self.n_masters)
        ]

    def rebind_sequence(self, sequence: Any) -> None:
        """Swap every master's stimulus source for a new sequence.

        The checkpoint fork path: a restored system keeps its bus,
        memory and scoreboard history but plays a *different* goal set
        from here on.  Item streams re-derive from the system seed under
        a distinct rng scope so forks are deterministic yet uncorrelated
        with the original run's draws.
        """
        streams = self._item_streams(sequence, f"{self.RNG_SCOPE}-fork")
        for master, items in zip(self.masters, streams):
            master.rebind_items(items)

    def reference_adapter(self) -> ReferenceAdapter:
        raise NotImplementedError

    def coverage_context(self):
        """``(StimulusContext, address_window, target_base)`` for
        stimulus-bin coverage -- the model owns its address layout."""
        raise NotImplementedError

    def fsm_events(self) -> List[Tuple[str, str, tuple]]:
        """The run's observable behaviour as coarse ASM action events
        ``(machine, action, args)``, reconstructed from the completed
        transaction records.

        Model tops that know their coarse action vocabulary override
        this (usually via :meth:`_serialized_fsm_events`); the stream
        is what maps a scenario run onto the formally explored FSM
        (:func:`repro.explorer.goal_planner.walk_fsm_events`) and must
        be a sound under-approximation: only interleavings the records
        actually evidence may be emitted.  The default -- no mapping --
        claims no FSM coverage at all.
        """
        return []

    def _serialized_fsm_events(
        self, transaction_events
    ) -> List[Tuple[str, str, tuple]]:
        """Shared sound-serialization skeleton for :meth:`fsm_events`.

        Emits one ``master{i}.request`` per completed transaction plus
        ``transaction_events(txn, owner)``'s tail per transaction, in
        completion order.  Requests of *other* masters are emitted
        before a transaction only when the records prove they were
        pending at its grant (their window opened no later than the
        owner's) **and** lowest-index arbitration would still pick the
        observed owner -- i.e. only higher-index masters; a lower-index
        overlap would have won the grant, so its request is deferred to
        its own transaction.  Sorted by request time (master index on
        ties, matching same-cycle arbitration), every emitted
        interleaving is one the verified ASM model accepts for these
        records -- partial credit, never false credit.
        """
        completed = sorted(
            (txn for txn, _ in self.records()),
            key=lambda t: (t.end_cycle, t.txn_id),
        )
        queues: Dict[int, List[Transaction]] = {}
        for txn in completed:
            index = int(txn.master.replace("master", ""))
            queues.setdefault(index, []).append(txn)
        cursor = {index: 0 for index in queues}
        requested: set = set()
        events: List[Tuple[str, str, tuple]] = []
        for txn in completed:
            owner = int(txn.master.replace("master", ""))
            emit: List[Tuple[int, int]] = []
            if owner not in requested:
                emit.append((queues[owner][cursor[owner]].start_cycle, owner))
            for other in sorted(queues):
                if other <= owner or other in requested:
                    continue
                position = cursor[other]
                if (
                    position < len(queues[other])
                    and queues[other][position].start_cycle <= txn.start_cycle
                ):
                    emit.append((queues[other][position].start_cycle, other))
            for _, index in sorted(emit):
                events.append((f"master{index}", "request", ()))
                requested.add(index)
                cursor[index] += 1
            events.extend(transaction_events(txn, owner))
            requested.discard(owner)
        return events

    def run_cycles(self, cycles: int) -> None:
        self.simulator.run(self.clock.period * cycles)

    def records(self) -> List[Tuple[Transaction, SequenceItem]]:
        merged: List[Tuple[Transaction, SequenceItem]] = []
        for master in self.masters:
            merged.extend(master.records)
        return merged

    def completed_counts(self) -> Dict[str, int]:
        return {m.name: m.completed for m in self.masters}

    def transaction_stream(self) -> str:
        """Canonical, byte-stable rendering of everything that moved."""
        ordered = sorted(
            (txn for txn, _ in self.records()),
            key=lambda t: (t.end_cycle, t.txn_id),
        )
        return "\n".join(t.describe() for t in ordered)

    def check(self, scenario: str = "") -> "ScoreboardReport":
        name = scenario or self.simulator.name
        return Scoreboard(self.reference_adapter(), name).check(
            self.records(), self.completed_counts()
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deliberate defect injected into a scenario system.

    Used by the test suite to prove the scoreboard detects divergence
    rather than silently passing:

    * ``corrupt-read``: slave/record data path flips a bit from the
      ``nth`` read onward (master/slave index per ``unit``),
    * ``drop``: the ``nth`` completed transaction of master ``unit``
      is completed by the hardware but never reported.
    """

    kind: str              # "corrupt-read" | "drop"
    unit: int = 0          # slave index (corrupt-read) or master index (drop)
    nth: int = 1           # 1-based trigger point

    def __post_init__(self):
        if self.kind not in ("corrupt-read", "drop"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.nth < 1:
            raise ValueError("fault nth is 1-based")

    def to_json(self) -> dict:
        """Wire form for cross-host spec dispatch."""
        return {"kind": self.kind, "unit": self.unit, "nth": self.nth}

    @classmethod
    def from_json(cls, doc: dict) -> "FaultPlan":
        return cls(kind=doc["kind"], unit=doc["unit"], nth=doc["nth"])


class Scoreboard:
    """Checks a finished scenario run against its ASM reference.

    ``records`` pairs every reported transaction with the sequence
    item that stimulated it; ``completed`` counts what each master
    actually finished on the bus (reported or not).  Transactions are
    replayed in completion order (``end_cycle``, then issue order via
    ``txn_id``) so the golden memory evolves exactly as the shared
    bus serialized the transfers.
    """

    def __init__(self, adapter: ReferenceAdapter, scenario: str = "scenario"):
        self.adapter = adapter
        self.scenario = scenario

    def check(
        self,
        records: Sequence[Tuple[Transaction, SequenceItem]],
        completed: Optional[Mapping[str, int]] = None,
    ) -> ScoreboardReport:
        report = ScoreboardReport(scenario=self.scenario)
        self.adapter.begin()
        ordered = sorted(records, key=lambda pair: (pair[0].end_cycle, pair[0].txn_id))
        recorded_counts: Dict[str, int] = {}
        for txn, item in ordered:
            recorded_counts[txn.master] = recorded_counts.get(txn.master, 0) + 1
            found = list(self.adapter.observe(txn, item))
            if found:
                report.mismatches.extend(found)
            else:
                report.matches += 1
            report.words_checked += txn.burst_length
        if completed is not None:
            report.mismatches.extend(
                self.adapter.finish(completed, recorded_counts)
            )
        report.replayed_calls = self.adapter.replayed_calls
        return report

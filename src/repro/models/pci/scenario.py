"""Scenario driving for the PCI bus.

Sequence-driven stimulus and scoreboard binding for the Table 1 model:

* :class:`PciSequenceMaster` -- an initiator executing
  :class:`~repro.scenarios.sequences.SequenceItem` stimulus through
  the full REQ#/GNT#/FRAME#/IRDY# protocol, including STOP# back-off
  and retry.  The payload the item carries is what the master reports
  having moved, so the scoreboard can check payload integrity end to
  end; a ``corrupt-read`` fault models a data-path defect between the
  bus and the master's completion record.
* :class:`PciScenarioSystem` -- clock + arbiter + sequence masters +
  the unmodified :class:`~.systemc_model.PciTargetModule` targets,
  exposing the canonical property namespace for assertion monitors.
* :class:`PciReferenceAdapter` -- replays each completed transaction
  on the verified PCI ASM model: request, hidden arbitration
  (update_m_req/grant), address phase, target response, all data
  phases, and the turnaround.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ...scenarios.master import SequenceMaster
from ...scenarios.scoreboard import (
    DivergenceKind,
    FaultPlan,
    Mismatch,
    ReferenceAdapter,
    ScenarioSystem,
)
from ...scenarios.sequences import Sequence, SequenceItem, StimulusContext
from ...sysc.bus import BusMode, Transaction, TxnIdAllocator
from ...sysc.clock import Clock
from ...sysc.kernel import Simulator
from ...sysc.signal import Signal
from .asm_model import build_pci_model
from .protocol import MAX_BURST_LENGTH, PCI_CLOCK_PERIOD_PS, PciCommand
from .systemc_model import PciArbiterModule, PciSignals, PciTargetModule


class PciSequenceMaster(SequenceMaster):
    """A PCI initiator executing a sequence of items.

    Adds the REQ#/GNT#/FRAME#/IRDY# phases, STOP# back-off and retry to
    the shared :class:`~repro.scenarios.master.SequenceMaster` phase
    machine; the whole suspended protocol, mid-burst data phases
    included, lives in its declared registers.
    """

    ITEM_PHASE = "build"
    CHECKPOINT_FIELDS = SequenceMaster.CHECKPOINT_FIELDS + (
        "_target", "_burst", "_words_left", "_waited", "_backoff_left",
        "reads_completed", "retries",
    )

    def __init__(
        self,
        index: int,
        sim: Simulator,
        clock: Clock,
        wires: PciSignals,
        n_targets: int,
        items: Iterator[SequenceItem],
        txn_ids: TxnIdAllocator,
        fault: Optional[FaultPlan] = None,
    ):
        super().__init__(index, sim, clock, wires, items, txn_ids, fault)
        self.n_targets = n_targets
        self.reads_completed = 0
        self.retries = 0
        self.data_flag = Signal(False, f"master{index}_data", sim)
        self.idle_flag = Signal(True, f"master{index}_idle", sim)
        self._target = 0
        self._burst = 0
        self._words_left = 0
        self._waited = 0
        self._backoff_left = 0

    def _phase_build(self) -> Optional[bool]:
        item = self._item
        assert item is not None
        self._target = item.target % self.n_targets
        burst = max(1, min(item.burst, MAX_BURST_LENGTH))
        self._burst = burst
        payload = tuple(item.payload[:burst])
        while len(payload) < burst:
            payload += (0,)
        self._payload = payload
        self._txn = Transaction(
            master=self.name,
            address=0x1000 * (self._target + 1) + item.address_offset,
            is_write=item.is_write,
            data=payload,
            mode=BusMode.BLOCKING,
            start_cycle=self.clock.cycle_count,
            txn_id=self.txn_ids.allocate(),
        )
        self.issued += 1
        self.in_flight = True
        self._phase = "req"
        return None

    def _phase_req(self) -> Optional[bool]:
        """Start one attempt: same signal discipline as the free-running
        :class:`~.systemc_model.PciMasterModule`, so the Table 1
        property suite binds to scenario runs unchanged."""
        self.idle_flag.write(False)
        self.wires.req[self.index].write(True)
        self._phase = "gnt"
        return None

    def _phase_gnt(self) -> Optional[bool]:
        if not self.wires.gnt[self.index].read():
            return True
        self._phase = "bus_wait"
        return None

    def _phase_bus_wait(self) -> Optional[bool]:
        wires = self.wires
        if (
            wires.frame.read()
            or wires.owner.read() != -1
            or wires.stop[self._target].read()
        ):
            return True
        wires.req[self.index].write(False)
        wires.frame.write(True)
        wires.owner.write(self.index)
        wires.addr.write(self._target)
        wires.command.write(
            PciCommand.MEM_WRITE if self._item.is_write else PciCommand.MEM_READ
        )
        self._phase = "data_start"
        return True

    def _phase_data_start(self) -> Optional[bool]:
        self.wires.irdy.write(True)
        self.data_flag.write(True)
        self._words_left = self._burst
        self._waited = 0
        self._phase = "data"
        return True

    def _phase_data(self) -> Optional[bool]:
        wires = self.wires
        if wires.stop[self._target].read():
            self._release_writes()
            self._backoff_left = 2
            self._phase = "backoff"
            return True  # STOP#-ed: this wake is the release cycle
        if wires.trdy[self._target].read():
            self._words_left -= 1
            self.words_moved += 1
            self._waited = 0
            if self._words_left == 0:
                wires.frame.write(False)
                self._phase = "turnaround"
            return True
        self._waited += 1
        if self._waited > 16:  # defensive: no livelock
            self._release_writes()
            self._backoff_left = 2
            self._phase = "backoff"
        return True

    def _phase_backoff(self) -> Optional[bool]:
        if self._backoff_left == 2:
            self.retries += 1
        if self._backoff_left > 0:
            self._backoff_left -= 1
            return True
        self._phase = "req"
        return None

    def _phase_turnaround(self) -> Optional[bool]:
        self._release_writes()
        self._phase = "complete"
        return True

    def _phase_complete(self) -> Optional[bool]:
        if not self._item.is_write:
            self.reads_completed += 1
            # corrupt-read matches the MS fault contract: the data path
            # flips a bit on reads from the nth one onward
            fault = self.fault
            if (
                fault is not None
                and fault.kind == "corrupt-read"
                and fault.unit == self.index
                and self.reads_completed >= fault.nth
            ):
                self._txn.data = (self._payload[0] ^ 0x1,) + self._payload[1:]
        self._finish_transaction()
        self._phase = "fetch"
        return None

    def _release_writes(self) -> None:
        wires = self.wires
        wires.frame.write(False)
        wires.irdy.write(False)
        wires.owner.write(-1)
        wires.addr.write(-1)
        self.data_flag.write(False)
        self.idle_flag.write(True)

    _PHASES = {
        **SequenceMaster.COMMON_PHASES,
        "build": _phase_build,
        "req": _phase_req,
        "gnt": _phase_gnt,
        "bus_wait": _phase_bus_wait,
        "data_start": _phase_data_start,
        "data": _phase_data,
        "backoff": _phase_backoff,
        "turnaround": _phase_turnaround,
        "complete": _phase_complete,
    }


class PciScenarioSystem(ScenarioSystem):
    """Top level for one seeded PCI scenario."""

    RNG_SCOPE = "pci"

    def __init__(
        self,
        n_masters: int,
        n_targets: int,
        sequence: Sequence,
        seed: int,
        fault: Optional[FaultPlan] = None,
        clock_period: int = PCI_CLOCK_PERIOD_PS,
        stop_probability: float = 0.05,
        address_span: int = 16,
    ):
        self.n_masters = n_masters
        self.n_targets = n_targets
        self.fault = fault
        self.seed = seed
        self.address_span = address_span
        self.simulator = Simulator(
            f"pci_scenario_{n_masters}m_{n_targets}s_seed{seed}"
        )
        self.clock = Clock("pci_clk", clock_period, self.simulator)
        self.wires = PciSignals(self.simulator, n_masters, n_targets)
        self.txn_ids = TxnIdAllocator()
        self.arbiter = PciArbiterModule(
            "arbiter", self.simulator, self.clock, self.wires
        )
        streams = self._item_streams(sequence, self.RNG_SCOPE)
        self.masters = [
            PciSequenceMaster(
                i, self.simulator, self.clock, self.wires, n_targets,
                items, self.txn_ids, fault=fault,
            )
            for i, items in enumerate(streams)
        ]
        self.targets = [
            PciTargetModule(
                j,
                self.simulator,
                self.clock,
                self.wires,
                seed + 100 + j,
                decode_latency=1 + (j % 3),
                stop_probability=stop_probability,
            )
            for j in range(n_targets)
        ]

    def _stimulus_context(self, index: int) -> StimulusContext:
        return StimulusContext(
            n_targets=self.n_targets,
            min_burst=1,
            max_burst=MAX_BURST_LENGTH,
            address_span=self.address_span,
        )

    def letter(self) -> Dict[str, Any]:
        wires = self.wires
        addressed = wires.addr.read()
        letter: Dict[str, Any] = {
            "frame": wires.frame.read(),
            "irdy": wires.irdy.read(),
            "bus_idle": (not wires.frame.read()) and wires.owner.read() == -1,
            "devsel": any(s.read() for s in wires.devsel),
            "trdy": any(s.read() for s in wires.trdy),
            "stop_any": any(s.read() for s in wires.stop),
            "stop_addressed": bool(
                0 <= addressed < self.n_targets
                and wires.stop[addressed].read()
            ),
        }
        for i in range(self.n_masters):
            letter[f"req{i}"] = wires.req[i].read()
            letter[f"gnt{i}"] = wires.gnt[i].read()
            letter[f"owner{i}"] = wires.owner.read() == i
            letter[f"master{i}_idle"] = self.masters[i].idle_flag.read()
            letter[f"master{i}_data"] = self.masters[i].data_flag.read()
        for j in range(self.n_targets):
            letter[f"devsel{j}"] = wires.devsel[j].read()
            letter[f"trdy{j}"] = wires.trdy[j].read()
            letter[f"stop{j}"] = wires.stop[j].read()
        return letter

    # -- scoreboard plumbing (generic parts on ScenarioSystem) --------------

    def reference_adapter(self) -> "PciReferenceAdapter":
        return PciReferenceAdapter(self.n_masters, self.n_targets)

    def coverage_context(self):
        # PCI maps target t at page t+1 (protocol.target_address)
        ctx = StimulusContext(
            n_targets=self.n_targets, min_burst=1, max_burst=MAX_BURST_LENGTH
        )
        return ctx, 0x1000, 1

    def fsm_events(self) -> List[Tuple[str, str, tuple]]:
        """The run as coarse ASM events, one full transaction script per
        completed record: request (overlap-aware, see
        :meth:`ScenarioSystem._serialized_fsm_events` for the soundness
        rule -- ``update_m_req``'s lowest-index latch matches it),
        hidden arbitration, the address phase, the target's fused
        response, all data phases fused, and the target release.
        STOP#-ed attempts leave no completed record and therefore no
        events -- conservative, never false credit.
        """

        def transaction_events(txn, owner):
            target = txn.address // 0x1000 - 1
            return [
                ("arbiter", "update_m_req", ()),
                ("arbiter", "grant", ()),
                (
                    f"master{owner}",
                    "start_transaction",
                    (target, txn.burst_length),
                ),
                (f"target{target}", "respond", ()),
                (f"master{owner}", "run_data_phases", ()),
                (f"target{target}", "complete", ()),
            ]

        return self._serialized_fsm_events(transaction_events)


def lower_path_to_goals(
    calls, n_masters: int, n_targets: int
) -> Optional[List["TransactionGoal"]]:
    """Lower a planned coarse-action PCI FSM path to directed goals.

    ``master{i}.start_transaction(target, burst)`` names its initiator
    explicitly, so attribution is direct; arbitration and target
    bookkeeping actions (``update_m_req``/``grant``/``reclaim``,
    ``respond``/``complete``, ``run_data_phases``) are implied by the
    goal and skipped.  Paths that need target-initiated behaviour
    (``stop_transaction``/``handle_stop``/``clear_stop``) are not
    expressible as transaction goals -> None.  Transfer direction is
    not part of the PCI FSM vocabulary, so goals alternate write/read
    deterministically.
    """
    from ...scenarios.directed import TransactionGoal

    goals: List[TransactionGoal] = []
    pending: List[int] = []
    request_idle: Dict[int, int] = {}
    requests_seen = 0
    for call in calls:
        if call.machine.startswith("master"):
            master = int(call.machine[len("master"):])
            if master >= n_masters:
                return None
            if call.action == "request":
                if master in pending:
                    return None
                pending.append(master)
                # ascending same-cycle requests resolve in index order;
                # a later position only needs a later posting
                request_idle[master] = (
                    0 if pending == sorted(pending) else requests_seen
                )
                requests_seen += 1
            elif call.action == "start_transaction":
                target, burst = call.args
                if master not in pending or not 0 <= target < n_targets:
                    return None
                pending.remove(master)
                goals.append(
                    TransactionGoal(
                        unit=master,
                        target=target,
                        is_write=len(goals) % 2 == 0,
                        burst=max(1, min(burst, MAX_BURST_LENGTH)),
                        idle=request_idle.pop(master, 0),
                    )
                )
            elif call.action == "run_data_phases":
                continue
            else:
                return None  # handle_stop & fine-grained actions
        elif call.machine == "arbiter" and call.action in (
            "update_m_req",
            "grant",
            "reclaim",
        ):
            continue
        elif call.machine.startswith("target") and call.action in (
            "respond",
            "complete",
        ):
            continue
        elif call.machine == "system":
            continue
        else:
            return None
    for master in pending:
        goals.append(
            TransactionGoal(
                unit=master,
                target=0,
                is_write=False,
                burst=1,
                idle=request_idle.get(master, 0),
            )
        )
    return goals


class PciReferenceAdapter(ReferenceAdapter):
    """ASM-lockstep golden reference for the PCI bus."""

    def __init__(self, n_masters: int, n_targets: int):
        self.n_masters = n_masters
        self.n_targets = n_targets
        self._scripts: Dict[tuple, list] = {}

    def build_reference(self):
        return build_pci_model(self.n_masters, self.n_targets)

    def observe(self, txn: Transaction, item: SequenceItem) -> Iterable[Mismatch]:
        assert self.lockstep is not None, "begin() not called"
        master_index = int(txn.master.replace("master", ""))
        target_index = txn.address // 0x1000 - 1
        burst = txn.burst_length
        # replay scripts depend only on (master, target, burst) --
        # memoize so the hot check loop skips rebuilding them
        script_key = (master_index, target_index, burst)
        script = self._scripts.get(script_key)
        if script is None:
            master = f"master{master_index}"
            target = f"target{target_index}"
            script = (
                [
                    (master, "request", ()),
                    ("arbiter", "update_m_req", ()),
                    ("arbiter", "grant", ()),
                    (master, "start_transaction", (target_index, burst)),
                    (target, "respond", ()),
                    (master, "assert_irdy", ()),
                ]
                + [(master, "data_phase", ())] * burst
                + [
                    (master, "finish", ()),
                    (target, "complete", ()),
                ]
            )
            self._scripts[script_key] = script
        for machine, act, args in script:
            error = self.lockstep.call(machine, act, *args)
            if error is not None:
                state = self.lockstep.state_dump()
                self._reset_reference()
                yield Mismatch(
                    kind=DivergenceKind.PROTOCOL,
                    master=txn.master,
                    txn_id=txn.txn_id,
                    detail=f"ASM reference rejected replay of {txn.describe()}",
                    expected="action enabled in the verified design",
                    observed=error,
                    reference_state=state,
                )
                return
        expected = tuple(item.payload[:burst])
        while len(expected) < burst:
            expected += (0,)
        if txn.data != expected:
            yield Mismatch(
                kind=DivergenceKind.DATA,
                master=txn.master,
                txn_id=txn.txn_id,
                detail=(
                    f"reported payload diverged from the driven stimulus "
                    f"({txn.describe()})"
                ),
                expected=repr(expected),
                observed=repr(txn.data),
                reference_state=self.lockstep.state_dump(),
            )

    # finish() inherited: the default dropped-transaction accounting
    # is the whole end-of-run story for PCI (no target-side memory)

"""The sequence-master phase machine shared by both scenario models.

Every posedge wake dispatches handlers keyed by ``self._phase`` until
one returns True to *consume* the cycle (None falls through to the next
phase in the same cycle), so all mid-transaction state lives in
attributes declared in ``CHECKPOINT_FIELDS`` rather than in a generator
frame, and checkpoints through :mod:`repro.checkpoint.state`.

:class:`SequenceMaster` owns everything that is not bus protocol: the
item stream, the dispatch loop, the ``fetch``/``idle``/``done`` phases,
transaction completion and the shared counters.  A model subclass adds
its protocol phases to :attr:`SequenceMaster.COMMON_PHASES`, names the
phase a fetched item enters (:attr:`SequenceMaster.ITEM_PHASE`) and
extends the checkpoint declaration with its protocol registers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..sysc.bus import BusStatus, Transaction, TxnIdAllocator
from ..sysc.clock import Clock
from ..sysc.kernel import Simulator
from ..sysc.module import Module
from .scoreboard import FaultPlan
from .sequences import SequenceItem


class SequenceMaster(Module):
    """An initiator driving a sequence of items through a bus protocol."""

    #: the protocol phase a fetched item enters once its idle gap ran out
    ITEM_PHASE = ""
    #: phase name -> handler; subclasses extend :attr:`COMMON_PHASES`
    _PHASES: Dict[str, Callable[[Any], Optional[bool]]] = {}

    CHECKPOINT_FIELDS: Tuple[Any, ...] = (
        "_phase", ("_item", "item"), ("_txn", "txn"), "_idle_left",
        ("_payload", "tuple"), "items_consumed", "issued", "completed",
        "in_flight", "done", "words_moved", ("records", "records"),
    )

    def __init__(
        self,
        index: int,
        sim: Simulator,
        clock: Clock,
        wires: Any,
        items: Iterator[SequenceItem],
        txn_ids: TxnIdAllocator,
        fault: Optional[FaultPlan] = None,
    ):
        super().__init__(f"master{index}", sim)
        self.index = index
        self.clock = clock
        self._posedge = clock.posedge_event
        self.wires = wires
        self.items = items
        self.txn_ids = txn_ids
        self.fault = fault
        self.records: List[Tuple[Transaction, SequenceItem]] = []
        self.issued = 0
        self.completed = 0
        self.in_flight = False
        self.done = False
        self.words_moved = 0
        self.items_consumed = 0
        # phase-machine registers every protocol shares
        self._phase = "fetch"
        self._item: Optional[SequenceItem] = None
        self._txn: Optional[Transaction] = None
        self._idle_left = 0
        self._payload: Tuple[int, ...] = ()
        self.thread(self.run)

    def _next_item(self) -> Optional[SequenceItem]:
        try:
            item = next(self.items)
        except StopIteration:
            return None
        self.items_consumed += 1
        return item

    def rebind_items(self, items: Iterator[SequenceItem]) -> None:
        """Graft a fresh item stream onto a (possibly exhausted) master.

        Checkpoint forks call this after restore: records and counters
        stay (the scoreboard and FSM replay still see the whole run),
        only the stimulus source is swapped.  A master parked in the
        ``done`` phase wakes back into ``fetch`` on its next posedge.
        """
        self.items = items
        self.items_consumed = 0
        if self._phase == "done":
            self.done = False
            self._phase = "fetch"

    def before_restore(self, doc: Dict[str, Any]) -> None:
        """Replay the item stream to the checkpointed position, after
        refusing a position no run can reach (``items_consumed <=
        issued + 1 <= len(records) + 3``, see ``docs/checkpoint.md``):
        an inflated count would spin through an endless random stream.
        """
        # imported lazily: repro.checkpoint builds on this layer
        from ..checkpoint.errors import CheckpointStateError

        consumed, issued = doc["items_consumed"], doc["issued"]
        if not (
            isinstance(consumed, int)
            and isinstance(issued, int)
            and consumed <= issued + 1
            and issued <= len(doc["records"]) + 2
        ):
            raise CheckpointStateError(
                f"{self.name}: items_consumed={consumed!r} with "
                f"issued={issued!r} and {len(doc['records'])} records "
                "is not a reachable stimulus position"
            )
        while self.items_consumed < consumed:
            if self._next_item() is None:
                break

    def run(self):
        self._dispatch()
        posedge = self._posedge
        while True:
            yield posedge
            self._dispatch()

    def _dispatch(self) -> None:
        """Run phase handlers until one consumes the wake."""
        handlers = self._PHASES
        while handlers[self._phase](self) is None:
            pass

    def _phase_fetch(self) -> Optional[bool]:
        item = self._next_item()
        if item is None:
            self.done = True
            self._phase = "done"
            return None
        self._item = item
        self._idle_left = item.idle
        self._phase = "idle" if item.idle else self.ITEM_PHASE
        return None

    def _phase_idle(self) -> Optional[bool]:
        if self._idle_left > 0:
            self._idle_left -= 1
            return True
        self._phase = self.ITEM_PHASE
        return None

    def _phase_done(self) -> Optional[bool]:
        # sequence exhausted: the master idles but stays alive, so a
        # checkpoint fork can graft a fresh item stream and restart it
        return True

    def _holds_request(self) -> bool:
        """Whether a ``hold-request`` fault keeps this master's request
        line asserted past its grant (current transaction onward)."""
        fault = self.fault
        return (
            fault is not None
            and fault.kind == "hold-request"
            and fault.unit == self.index
            and self.issued >= fault.nth
        )

    def _finish_transaction(self) -> None:
        """Complete the in-flight transaction and record it, unless a
        ``drop`` fault swallows this master's ``nth`` completion."""
        txn = self._txn
        assert txn is not None and self._item is not None
        txn.end_cycle = self.clock.cycle_count
        txn.status = BusStatus.OK
        self.completed += 1
        self.in_flight = False
        fault = self.fault
        dropped = (
            fault is not None
            and fault.kind == "drop"
            and fault.unit == self.index
            and self.completed == fault.nth
        )
        if not dropped:
            self.records.append((txn, self._item))

    COMMON_PHASES = {
        "fetch": _phase_fetch,
        "idle": _phase_idle,
        "done": _phase_done,
    }

"""The checkpoint wire object.

A :class:`Checkpoint` is the *complete* state of a scenario system at a
quiescent cycle boundary: kernel clocking (time, delta count, the one
pending clock timer), every registered signal's committed value, every
stateful module's phase-machine registers (masters, arbiter, slaves,
targets), the transaction-id allocator, and -- when the run carries
monitors -- the sampled letter stream that rebuilds the PSL monitors by
replay, independent of which stepping engine they use.

The wire form is canonical JSON (sorted keys, no whitespace) and the
checkpoint digest is the SHA-256 of exactly that payload text, so two
checkpoints are byte-identical iff they restore identical states, and a
digest is a safe by-reference handle across processes and hosts
(:mod:`repro.checkpoint.store`, the worker ``/checkpoints`` endpoint).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from ..scenarios.directed import TransactionGoal
from ..scenarios.regression import ScenarioSpec
from .errors import (
    CheckpointFormatError,
    CheckpointIntegrityError,
    CheckpointVersionError,
)

#: bump when the payload schema changes incompatibly
WIRE_VERSION = 1

#: the outer wrapper's magic, so arbitrary JSON is rejected early
WIRE_KIND = "repro-checkpoint"


def encode_signal_value(value: Any) -> List[Any]:
    """Typed scalar codec: signals carry bools, ints and PciCommand."""
    if isinstance(value, bool):
        return ["bool", value]
    if isinstance(value, int):
        return ["int", value]
    from ..models.pci.protocol import PciCommand

    if isinstance(value, PciCommand):
        return ["pci-command", value.value]
    raise CheckpointFormatError(
        f"signal value {value!r} has no checkpoint codec"
    )


def decode_signal_value(doc: Any) -> Any:
    """Inverse of :func:`encode_signal_value`."""
    try:
        kind, raw = doc
    except (TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"malformed signal value {doc!r}") from exc
    if kind == "bool":
        return bool(raw)
    if kind == "int":
        return int(raw)
    if kind == "pci-command":
        from ..models.pci.protocol import PciCommand

        return PciCommand(raw)
    raise CheckpointFormatError(f"unknown signal value kind {kind!r}")


@dataclass
class Checkpoint:
    """Snapshot of one scenario system at a quiescent cycle boundary."""

    #: the spec that built (and deterministically re-builds) the system
    spec: ScenarioSpec
    #: full cycles simulated up to this snapshot
    cycles_run: int
    #: kernel clocking: time, delta_count, stats counters
    kernel: Dict[str, Any]
    #: clock driver state: cycle_count, fold phase, pending timer delay
    clock: Dict[str, Any]
    #: signal name -> [typed value, last_change_delta]
    signals: Dict[str, List[Any]]
    #: module basename -> that module's declared-state document
    #: (:func:`repro.checkpoint.state.module_state`)
    modules: Dict[str, Dict[str, Any]]
    #: next transaction id the allocator would hand out
    txn_next: int
    #: sampled monitor letters up to the snapshot (empty unless the
    #: spec runs with monitors); restore replays them into fresh
    #: monitors, which makes the monitor state engine-agnostic
    letters: List[Dict[str, Any]] = field(default_factory=list)
    #: forked captures only: the ``{"goals", "profile"}`` stimulus the
    #: system was built with before a checkpoint fork re-armed it with
    #: ``spec``'s (None -- and absent from the payload -- otherwise)
    built_from: Optional[Dict[str, Any]] = None

    def construction_spec(self) -> ScenarioSpec:
        """The spec that rebuilds this checkpoint's system: ``spec``
        itself, or for a forked capture ``spec`` with the stimulus the
        system was built with (``spec``'s is re-armed on top)."""
        if self.built_from is None:
            return self.spec
        return replace(
            self.spec,
            goals=tuple(
                TransactionGoal.from_json(goal)
                for goal in self.built_from["goals"]
            ),
            profile=self.built_from["profile"],
        )

    # -- wire form --------------------------------------------------------------

    def payload(self) -> Dict[str, Any]:
        """The digested part of the wire form (plain JSON values)."""
        payload = {
            "spec": self.spec.to_json(),
            "cycles_run": self.cycles_run,
            "kernel": self.kernel,
            "clock": self.clock,
            "signals": self.signals,
            "modules": self.modules,
            "txn_next": self.txn_next,
            "letters": self.letters,
        }
        if self.built_from is not None:
            payload["built_from"] = self.built_from
        return payload

    def canonical_payload(self) -> str:
        """Canonical JSON text: sorted keys, minimal separators."""
        return json.dumps(
            self.payload(), sort_keys=True, separators=(",", ":")
        )

    @property
    def digest(self) -> str:
        """SHA-256 over the canonical payload text."""
        return hashlib.sha256(
            self.canonical_payload().encode("utf-8")
        ).hexdigest()

    def to_json(self) -> Dict[str, Any]:
        """Self-verifying wire document (digest travels with payload)."""
        return {
            "kind": WIRE_KIND,
            "version": WIRE_VERSION,
            "digest": self.digest,
            "payload": self.payload(),
        }

    @classmethod
    def from_json(cls, doc: Any) -> "Checkpoint":
        """Parse and *verify* a wire document.

        Raises the typed taxonomy: :class:`CheckpointFormatError` for
        structural damage, :class:`CheckpointVersionError` for documents
        from a newer writer, :class:`CheckpointIntegrityError` when the
        payload does not hash to its claimed digest (the half-written /
        bit-flipped file case atomic replace is meant to prevent).
        """
        if not isinstance(doc, dict):
            raise CheckpointFormatError(
                f"checkpoint document must be an object, got {type(doc).__name__}"
            )
        if doc.get("kind") != WIRE_KIND:
            raise CheckpointFormatError(
                f"not a checkpoint document (kind={doc.get('kind')!r})"
            )
        version = doc.get("version")
        if not isinstance(version, int):
            raise CheckpointFormatError("checkpoint version missing")
        if version > WIRE_VERSION:
            raise CheckpointVersionError(
                f"checkpoint version {version} is newer than supported "
                f"{WIRE_VERSION}"
            )
        payload = doc.get("payload")
        if not isinstance(payload, dict):
            raise CheckpointFormatError("checkpoint payload missing")
        try:
            checkpoint = cls(
                spec=ScenarioSpec.from_json(payload["spec"]),
                cycles_run=int(payload["cycles_run"]),
                kernel=dict(payload["kernel"]),
                clock=dict(payload["clock"]),
                signals={
                    str(k): list(v) for k, v in payload["signals"].items()
                },
                modules={
                    str(k): dict(v) for k, v in payload["modules"].items()
                },
                txn_next=int(payload["txn_next"]),
                letters=[dict(x) for x in payload["letters"]],
                built_from=payload.get("built_from"),
            )
            checkpoint.construction_spec()
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointFormatError(
                f"malformed checkpoint payload: {exc}"
            ) from exc
        claimed = doc.get("digest")
        if claimed != checkpoint.digest:
            raise CheckpointIntegrityError(
                f"checkpoint digest mismatch: claimed {claimed!r}, "
                f"payload hashes to {checkpoint.digest!r}"
            )
        return checkpoint

    def describe(self) -> str:
        """One-line summary for CLI output and logs."""
        return (
            f"checkpoint {self.digest[:16]} {self.spec.label} "
            f"@cycle {self.cycles_run} ({len(self.modules)} modules, "
            f"{len(self.signals)} signals, {len(self.letters)} letters)"
        )

"""Declared module state: one encoder/decoder for every stateful module.

A stateful module names the attributes that make up its inter-cycle
state once, in a class-level ``CHECKPOINT_FIELDS`` tuple; a subclass
extends its base's tuple.  Each entry is either an attribute name,
whose value is a JSON scalar stored as is, or an ``(attribute, codec)``
pair naming one of :data:`CODECS` for a non-scalar value.  The
document key is the attribute name without its leading ``_``.

:func:`module_state` turns a module into its checkpoint document and
:func:`restore_module_state` writes one back.  A module that must act
before its fields are overwritten (the sequence masters replay their
item stream) defines ``before_restore(doc)``.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterator, Tuple

from ..scenarios.sequences import SequenceItem
from ..sysc.bus import Transaction
from .errors import CheckpointStateError


def _encode_rng(rng: random.Random) -> list:
    version, internal, gauss = rng.getstate()
    return [version, list(internal), gauss]


def _decode_rng(doc: list) -> random.Random:
    version, internal, gauss = doc
    rng = random.Random(0)
    rng.setstate((version, tuple(internal), gauss))
    return rng


def _same(value: Any) -> Any:
    return value


#: codec name -> (encode, decode) for the non-scalar field kinds
CODECS: Dict[str, Tuple[Callable[[Any], Any], Callable[[Any], Any]]] = {
    "item": (
        lambda item: None if item is None else item.to_json(),
        lambda doc: None if doc is None else SequenceItem.from_json(doc),
    ),
    "txn": (
        lambda txn: None if txn is None else txn.to_json(),
        lambda doc: None if doc is None else Transaction.from_json(doc),
    ),
    "records": (
        lambda records: [
            [txn.to_json(), item.to_json()] for txn, item in records
        ],
        lambda doc: [
            (Transaction.from_json(txn), SequenceItem.from_json(item))
            for txn, item in doc
        ],
    ),
    "memory": (
        lambda memory: {str(addr): word for addr, word in memory.items()},
        lambda doc: {int(addr): word for addr, word in doc.items()},
    ),
    "tuple": (list, tuple),
    "rng": (_encode_rng, _decode_rng),
}

def _fields(cls: type) -> Iterator[Tuple[str, str, Callable, Callable]]:
    """``(attribute, key, encode, decode)`` per declared field."""
    for field in cls.CHECKPOINT_FIELDS:
        attr, codec = (field, None) if isinstance(field, str) else field
        encode, decode = CODECS[codec] if codec else (_same, _same)
        yield attr, attr.lstrip("_"), encode, decode


def module_state(module: Any) -> Dict[str, Any]:
    """The checkpoint document of one module's declared state."""
    return {
        key: encode(getattr(module, attr))
        for attr, key, encode, _ in _fields(type(module))
    }


def restore_module_state(module: Any, doc: Any) -> None:
    """Write a :func:`module_state` document back onto a fresh module.

    The document must carry exactly the declared keys, and every value
    is decoded before the module is touched, so a malformed document is
    refused with :class:`CheckpointStateError` instead of half-applied.
    """
    fields = list(_fields(type(module)))
    keys = {key for _, key, _, _ in fields}
    if not isinstance(doc, dict) or set(doc) != keys:
        found = sorted(doc) if isinstance(doc, dict) else type(doc).__name__
        raise CheckpointStateError(
            f"{module.name}: state fields {found!r} do not match the "
            f"declared {sorted(keys)!r}"
        )
    try:
        values = [(attr, decode(doc[key])) for attr, key, _, decode in fields]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointStateError(
            f"{module.name}: malformed state document: {exc}"
        ) from exc
    before = getattr(module, "before_restore", None)
    if before is not None:
        before(doc)
    for attr, value in values:
        setattr(module, attr, value)

"""Table-driven compiled assertion monitors.

:mod:`repro.psl.monitor` interprets Brzozowski derivative sets
symbolically every cycle: each ``step()`` re-walks the SERE AST,
allocates fresh residual ``frozenset``s and hashes structural SERE
nodes.  That is exact but slow, and it repeats identical work for
every scenario in a regression (same properties x thousands of seeds).

This module lowers each property **once per process** into a
table-driven automaton:

* the Boolean layer is pre-bound: every atom (the ``SereBool``
  expressions reachable from the desugared SERE) compiles to a closure
  over the bounded history window, and a cycle's atom valuation packs
  into one integer *symbol* (bit ``i`` = truth of atom ``i``);
* the SERE layer is enumerated: reachable derivative residual sets
  become integer state indices, and transitions ``(state, symbol) ->
  (next_state, matched)`` fill a per-state table lazily, exactly like
  a lazy-DFA regular-expression engine.  Filling a cell runs the
  *same* :func:`repro.psl.monitor.derivatives` machinery the
  interpreted engine uses -- over a symbolic letter -- so the two
  engines agree by construction;
* suffix implication tracks antecedent attempts and consequent
  obligations as **bitsets of state indices** (one Python int each),
  so a monitor step is a handful of dict lookups and integer ops with
  no AST in sight.

Automata and per-property compilation plans are memoized process-wide,
keyed by the (hashable, immutable) property AST plus the signal
binding -- equivalent to keying by source digest, since equal sources
parse to equal ASTs (:func:`property_digest` exposes the digest form).
Cache hit/miss counts are surfaced through ``OBS.metrics`` as
``psl.compile.cache`` / ``psl.compile.automaton`` counters and through
:func:`compile_cache_stats` for the worker ``/healthz`` endpoint.

:func:`compile_properties` is the public construction path for *all*
monitors (both engines); the ``lint.monitor-construction`` rule flags
direct ``Monitor`` subclass instantiation outside this package.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from time import perf_counter as _perf_counter
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..obs.runtime import OBS
from .ast_nodes import (
    Directive,
    DirectiveKind,
    Expr,
    FlAlways,
    FlBool,
    FlEventually,
    FlImplies,
    FlNever,
    FlNot,
    FlSere,
    FlSuffixImpl,
    FlUntil,
    Formula,
    Property,
    Sere,
    SereAnd,
    SereBool,
    SereConcat,
    SereFusion,
    SereOr,
    SereRepeat,
    TRUE,
    Var,
    as_bool,
)
from .errors import PslEvaluationError, PslParseError, PslUnsupportedError
from .letter import FrozenLetter, freeze_letter
from .monitor import (
    Monitor,
    SereTracker,
    _as_sere,
    _consequent_is_strong,
    _HistoryMixin,
    build_monitor,
    derivatives,
    history_depth,
    nullable,
    sere_history_depth,
)
from .semantics import Verdict
from .sere import desugar

Letter = Mapping[str, Any]

#: Engine names accepted by :func:`compile_properties`.
ENGINES = ("compiled", "interpreted")

#: Environment variable overriding the default engine (inherited by
#: worker subprocesses, so one switch flips a whole fleet).
ENGINE_ENV_VAR = "REPRO_PSL_ENGINE"

_DEFAULT_ENGINE = "compiled"


def default_engine() -> str:
    """Engine used when ``compile_properties(engine=None)``.

    ``REPRO_PSL_ENGINE`` (if set) wins over the process default so a
    regression fleet can be flipped without touching wire forms.
    """
    env = os.environ.get(ENGINE_ENV_VAR)
    if env:
        return _validate_engine(env)
    return _DEFAULT_ENGINE


def set_default_engine(engine: str) -> str:
    """Set the process default engine; returns the previous default."""
    global _DEFAULT_ENGINE
    previous = _DEFAULT_ENGINE
    _DEFAULT_ENGINE = _validate_engine(engine)
    return previous


def _validate_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise ValueError(
            f"unknown PSL engine {engine!r}; expected one of {ENGINES}"
        )
    return engine


# ---------------------------------------------------------------------------
# Symbolic letters: drive the interpreted derivative engine over a
# truth assignment instead of a concrete letter
# ---------------------------------------------------------------------------


class _SymbolicView:
    """Letter view answering ``holds`` from a fixed truth assignment.

    Used while filling transition-table cells: the cell's symbol fixes
    the truth of every atom, so :func:`~repro.psl.monitor.derivatives`
    runs unchanged over this view.  Meeting an expression outside the
    collected atom set means atom collection missed a reachable
    ``SereBool`` -- surfaced as unsupported rather than mis-evaluated.
    """

    __slots__ = ("_truth",)

    def __init__(self, truth: Dict[Expr, bool]):
        self._truth = truth

    def holds(self, expression: Expr) -> bool:
        value = self._truth.get(expression)
        if value is None:
            raise PslUnsupportedError(
                f"expression {expression} escaped atom collection; "
                f"cannot compile this SERE to an automaton"
            )
        return value


def _collect_atoms(item: Sere, out: Dict[Expr, None]) -> None:
    """Ordered-set walk of every Boolean atom reachable via desugaring.

    Desugaring happens *here* too (goto/non-consecutive repetition
    introduce negated atoms the surface SERE never mentions), so the
    collected set covers everything ``derivatives`` can ask about.
    """
    item = desugar(item)
    if isinstance(item, SereBool):
        out.setdefault(item.expr)
    elif isinstance(item, SereConcat):
        for part in item.parts:
            _collect_atoms(part, out)
    elif isinstance(item, (SereFusion, SereOr, SereAnd)):
        _collect_atoms(item.left, out)
        _collect_atoms(item.right, out)
    elif isinstance(item, SereRepeat):
        _collect_atoms(item.body, out)
    else:  # pragma: no cover - desugar() returns only the above
        raise TypeError(f"unknown SERE node {type(item).__name__}")


def _compiled_bool(expression: Expr) -> Callable[[Sequence[Letter]], bool]:
    """Compile a Boolean-layer expression, sharing the monitor cache."""
    from .monitor import _COMPILED_BOOL

    compiled = _COMPILED_BOOL.get(expression)
    if compiled is None:
        from .compile_ import compile_bool

        compiled = compile_bool(expression)
        _COMPILED_BOOL[expression] = compiled
    return compiled


# ---------------------------------------------------------------------------
# The automaton
# ---------------------------------------------------------------------------


class SereAutomaton:
    """Lazily-enumerated DFA over derivative residual sets.

    States are integer indices into ``_states`` (index ``i`` is the
    residual ``frozenset`` the interpreted engine would carry);
    ``start`` is the state for a match anchored *now*.  ``advance``
    consumes one symbol and returns ``(next_state, matched)`` where
    ``next_state`` is :data:`DEAD` when the residual set died and
    ``matched`` mirrors ``SereTracker.advance``'s completed-match flag.

    Transition cells are filled on first use by running the symbolic
    derivative engine, then hit as plain dict lookups forever after.
    Instances are shared (via :func:`shared_automaton`) across every
    monitor compiled from an equal SERE in the process.
    """

    #: Sentinel state index: the residual set became empty.
    DEAD = -1

    def __init__(self, item: Sere):
        self.sere = desugar(item)
        self.depth = sere_history_depth(self.sere)
        atoms: Dict[Expr, None] = {}
        _collect_atoms(self.sere, atoms)
        # The non-length-matching && rewrite pads with true[*]; make
        # sure TRUE is always a known atom.
        atoms.setdefault(TRUE)
        self.atoms: Tuple[Expr, ...] = tuple(atoms)
        self._atom_fns = tuple(_compiled_bool(a) for a in self.atoms)
        start_set = frozenset({self.sere})
        self._states: List[frozenset] = [start_set]
        self._index: Dict[frozenset, int] = {start_set: 0}
        self._table: List[Dict[int, Tuple[int, bool]]] = [{}]
        self.start = 0
        self.table_fills = 0  # cells computed (diagnostic / bench)

    # -- hot path ---------------------------------------------------------

    def valuation(self, history: Sequence[Letter]) -> int:
        """Pack the atoms' truth over ``history`` into one symbol."""
        symbol = 0
        bit = 1
        for fn in self._atom_fns:
            if fn(history):
                symbol |= bit
            bit <<= 1
        return symbol

    def advance(self, state: int, symbol: int) -> Tuple[int, bool]:
        """One transition; fills the table cell on first visit."""
        entry = self._table[state].get(symbol)
        if entry is None:
            entry = self._fill(state, symbol)
        return entry

    # -- cold path --------------------------------------------------------

    def _fill(self, state: int, symbol: int) -> Tuple[int, bool]:
        truth: Dict[Expr, bool] = {}
        bit = 1
        for atom in self.atoms:
            truth[atom] = bool(symbol & bit)
            bit <<= 1
        view = _SymbolicView(truth)
        result: set = set()
        for residual in self._states[state]:
            result |= derivatives(residual, view)
        if len(result) > SereTracker.MAX_RESIDUALS:
            raise PslUnsupportedError(
                f"SERE residual set exceeded {SereTracker.MAX_RESIDUALS} "
                f"terms; use the ReplayMonitor for this property"
            )
        matched = any(nullable(r) for r in result)
        if not result:
            entry = (self.DEAD, matched)
        else:
            new_set = frozenset(result)
            index = self._index.get(new_set)
            if index is None:
                index = len(self._states)
                self._states.append(new_set)
                self._index[new_set] = index
                self._table.append({})
            entry = (index, matched)
        self._table[state][symbol] = entry
        self.table_fills += 1
        return entry

    # -- introspection ----------------------------------------------------

    @property
    def state_count(self) -> int:
        """States discovered so far (grows as the table fills)."""
        return len(self._states)

    def variables(self) -> frozenset:
        """Signal names this monitor samples each cycle."""
        return self.sere.variables()


#: Process-wide automaton cache: equal (desugared) SEREs share one
#: automaton and therefore one transition table.
_AUTOMATON_CACHE: Dict[Sere, SereAutomaton] = {}


def shared_automaton(item: Sere) -> SereAutomaton:
    """Automaton for ``item``, shared process-wide by SERE equality."""
    key = desugar(item)
    automaton = _AUTOMATON_CACHE.get(key)
    if automaton is None:
        _bump("automaton_misses", "psl.compile.automaton", "miss")
        automaton = SereAutomaton(key)
        _AUTOMATON_CACHE[key] = automaton
    else:
        _bump("automaton_hits", "psl.compile.automaton", "hit")
    return automaton


def _iter_bits(mask: int):
    """Yield set-bit indices of ``mask`` (a state bitset), ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Compiled monitors
# ---------------------------------------------------------------------------


class CompiledProperty(Monitor, _HistoryMixin):
    """Base for table-driven monitors.

    Same protocol as the interpreted :class:`Monitor` --
    ``reset/step/verdict/snapshot/restore/variables`` -- so harness,
    explorer and workbench code cannot tell the engines apart except
    by the ``engine`` tag and by speed.

    Each subclass names its Boolean ``atoms`` (bit ``i`` of its symbol
    is the truth of ``atoms[i]``) and implements one transition,
    :meth:`_advance_symbol`.  Stepping by letter values the atoms over
    the monitor's own history window; a :class:`PropertySet` values
    the union of many monitors' atoms once and projects that symbol
    onto each member, calling the same transition.
    """

    engine = "compiled"

    #: the Boolean atoms this monitor's symbol packs, in bit order
    atoms: Tuple[Expr, ...] = ()

    def _bind_atoms(self, atoms: Sequence[Expr]) -> None:
        self.atoms = tuple(atoms)
        self._atom_fns = tuple(_compiled_bool(a) for a in self.atoms)

    def _push_letter(self, letter: Letter) -> List[Letter]:
        history = self._history
        history.append(freeze_letter(letter))
        if len(history) > self._depth + 1:
            del history[0]
        return history

    def _advance(self, letter: Letter) -> Verdict:
        history = self._push_letter(letter)
        symbol = 0
        bit = 1
        for fn in self._atom_fns:
            if fn(history):
                symbol |= bit
            bit <<= 1
        return self._advance_symbol(symbol)

    def _advance_symbol(self, symbol: int) -> Verdict:
        """One transition on this cycle's atom valuation."""
        raise NotImplementedError


class CompiledInvariant(CompiledProperty):
    """``always b`` (expect=True) / ``never b`` (expect=False)."""

    def __init__(self, expression: Expr, expect: bool, name: str, report: str = ""):
        super().__init__(name, report)
        self.expression = expression
        self.expect = expect
        self._bind_atoms((expression,))
        self._init_history(history_depth(expression))

    def reset(self) -> None:
        """Return to the initial (pre-trace) monitor state."""
        super().reset()
        self._history = []

    def variables(self) -> frozenset:
        """Signal names this monitor samples each cycle."""
        return self.expression.variables()

    def _advance_symbol(self, symbol: int) -> Verdict:
        if bool(symbol) != self.expect:
            return Verdict.FAILS
        return Verdict.HOLDS

    def snapshot(self) -> Any:
        """Opaque, immutable state for :meth:`restore`."""
        return (self._verdict, self._history_snapshot())

    def restore(self, snap: Any) -> None:
        """Reinstate monitor state captured by :meth:`snapshot`."""
        self._verdict, history = snap
        self._history_restore(history)


class CompiledEventually(CompiledProperty):
    """``eventually! b``: PENDING until b holds once."""

    def __init__(self, expression: Expr, name: str, report: str = ""):
        super().__init__(name, report)
        self.expression = expression
        self._bind_atoms((expression,))
        self._init_history(history_depth(expression))
        self._verdict = Verdict.PENDING

    def reset(self) -> None:
        """Return to the initial (pre-trace) monitor state."""
        super().reset()
        self._verdict = Verdict.PENDING
        self._history = []

    def variables(self) -> frozenset:
        """Signal names this monitor samples each cycle."""
        return self.expression.variables()

    def _advance_symbol(self, symbol: int) -> Verdict:
        if symbol:
            return Verdict.HOLDS_STRONGLY
        return Verdict.PENDING

    def snapshot(self) -> Any:
        """Opaque, immutable state for :meth:`restore`."""
        return (self._verdict, self._history_snapshot())

    def restore(self, snap: Any) -> None:
        """Reinstate monitor state captured by :meth:`snapshot`."""
        self._verdict, history = snap
        self._history_restore(history)


class CompiledUntil(CompiledProperty):
    """``a until b`` / ``a until! b`` over boolean operands."""

    def __init__(
        self,
        left: Expr,
        right: Expr,
        *,
        strong: bool,
        inclusive: bool = False,
        name: str = "until",
        report: str = "",
    ):
        super().__init__(name, report)
        self.left = left
        self.right = right
        self.strong = strong
        self.inclusive = inclusive
        self._bind_atoms((left, right))  # bit 0 = left, bit 1 = right
        self._released = False
        self._init_history(max(history_depth(left), history_depth(right)))
        self._verdict = Verdict.PENDING if strong else Verdict.HOLDS

    def reset(self) -> None:
        """Return to the initial (pre-trace) monitor state."""
        super().reset()
        self._released = False
        self._verdict = Verdict.PENDING if self.strong else Verdict.HOLDS
        self._history = []

    def variables(self) -> frozenset:
        """Signal names this monitor samples each cycle."""
        return self.left.variables() | self.right.variables()

    def _advance_symbol(self, symbol: int) -> Verdict:
        if self._released:
            return self._verdict
        if symbol & 2 and (not self.inclusive or symbol & 1):
            self._released = True
            return Verdict.HOLDS_STRONGLY
        if not symbol & 1:
            return Verdict.FAILS
        return Verdict.PENDING if self.strong else Verdict.HOLDS

    def snapshot(self) -> Any:
        """Opaque, immutable state for :meth:`restore`."""
        return (self._verdict, self._released, self._history_snapshot())

    def restore(self, snap: Any) -> None:
        """Reinstate monitor state captured by :meth:`snapshot`."""
        self._verdict, self._released, history = snap
        self._history_restore(history)


class CompiledNeverSere(CompiledProperty):
    """``never {r}``: attempts tracked as a bitset of state indices."""

    def __init__(self, item: Sere, name: str = "never_sere", report: str = ""):
        super().__init__(name, report)
        self.automaton = shared_automaton(item)
        self._bind_atoms(self.automaton.atoms)
        self._attempts = 0  # bitset of live automaton states
        self._init_history(self.automaton.depth)

    def reset(self) -> None:
        """Return to the initial (pre-trace) monitor state."""
        super().reset()
        self._attempts = 0
        self._history = []

    def variables(self) -> frozenset:
        """Signal names this monitor samples each cycle."""
        return self.automaton.variables()

    def _advance_symbol(self, symbol: int) -> Verdict:
        automaton = self.automaton
        advance = automaton.advance
        survivors = 0
        for state in _iter_bits(self._attempts | (1 << automaton.start)):
            next_state, matched = advance(state, symbol)
            if matched:
                return Verdict.FAILS
            if next_state >= 0:
                survivors |= 1 << next_state
        self._attempts = survivors
        return Verdict.HOLDS

    def snapshot(self) -> Any:
        """Opaque, immutable state for :meth:`restore`."""
        return (self._verdict, self._attempts, self._history_snapshot())

    def restore(self, snap: Any) -> None:
        """Reinstate monitor state captured by :meth:`snapshot`."""
        self._verdict, self._attempts, history = snap
        self._history_restore(history)


class CompiledCover(CompiledProperty):
    """``cover {r}``: per-attempt hit counting on integer states."""

    latch_definite = False  # keep counting after the first hit
    is_cover = True

    def __init__(self, item: Sere, name: str = "cover", report: str = ""):
        super().__init__(name, report)
        self.automaton = shared_automaton(item)
        self._bind_atoms(self.automaton.atoms)
        self._attempts = 0
        self.hits = 0
        self._init_history(self.automaton.depth)

    def reset(self) -> None:
        """Return to the initial (pre-trace) monitor state."""
        super().reset()
        self._attempts = 0
        self._history = []
        self.hits = 0

    def variables(self) -> frozenset:
        """Signal names this monitor samples each cycle."""
        return self.automaton.variables()

    def _advance_symbol(self, symbol: int) -> Verdict:
        automaton = self.automaton
        advance = automaton.advance
        survivors = 0
        for state in _iter_bits(self._attempts | (1 << automaton.start)):
            next_state, matched = advance(state, symbol)
            if matched:
                self.hits += 1
            if next_state >= 0:
                survivors |= 1 << next_state
        self._attempts = survivors
        return Verdict.HOLDS_STRONGLY if self.hits else Verdict.PENDING

    def snapshot(self) -> Any:
        """Opaque, immutable state for :meth:`restore`."""
        # Mirror the interpreted CoverMonitor: the covered bit is
        # semantic state, the exact count is a statistic.
        return (self._verdict, self._attempts, self.hits > 0, self._history_snapshot())

    def restore(self, snap: Any) -> None:
        """Reinstate monitor state captured by :meth:`snapshot`."""
        self._verdict, self._attempts, covered, history = snap
        if covered and self.hits == 0:
            self.hits = 1
        self._history_restore(history)


class CompiledSuffixImplication(CompiledProperty):
    """``always {r} |->/|=> {s}`` on two shared automata.

    Antecedent attempts and consequent obligations are bitsets of
    state indices; the per-cycle work is one symbol valuation (the
    antecedent's atoms in the low bits, the consequent's above them)
    plus one table lookup per live state.  Obligation lifecycle (spawn,
    discharge on match, fail on death, PENDING under a strong
    consequent) mirrors ``SuffixImplicationMonitor._advance`` line by
    line.
    """

    def __init__(
        self,
        antecedent: Sere,
        consequent: Sere,
        *,
        overlapping: bool,
        strong_consequent: bool = False,
        name: str = "suffix_implication",
        report: str = "",
    ):
        super().__init__(name, report)
        self.antecedent_automaton = shared_automaton(antecedent)
        self.consequent_automaton = shared_automaton(consequent)
        self.overlapping = overlapping
        self.strong_consequent = strong_consequent
        width = len(self.antecedent_automaton.atoms)
        self._antecedent_mask = (1 << width) - 1
        self._consequent_shift = width
        self._bind_atoms(
            self.antecedent_automaton.atoms + self.consequent_automaton.atoms
        )
        self._antecedent_states = 0  # bitset of live antecedent states
        self._obligations = 0  # bitset of live consequent states
        self._fresh_obligations = 0  # spawned this cycle, consume next
        self._init_history(
            max(self.antecedent_automaton.depth, self.consequent_automaton.depth)
        )
        self.triggered = 0  # completed antecedent matches (activity metric)

    def reset(self) -> None:
        """Return to the initial (pre-trace) monitor state."""
        super().reset()
        self._antecedent_states = 0
        self._obligations = 0
        self._fresh_obligations = 0
        self._history = []
        self.triggered = 0

    def variables(self) -> frozenset:
        """Signal names this monitor samples each cycle."""
        return self.antecedent_automaton.variables() | (
            self.consequent_automaton.variables()
        )

    def _advance_symbol(self, symbol: int) -> Verdict:
        antecedent = self.antecedent_automaton
        consequent = self.consequent_automaton
        antecedent_symbol = symbol & self._antecedent_mask
        consequent_symbol = symbol >> self._consequent_shift

        # 1. advance antecedent attempts (plus a fresh anchor at this cycle)
        matched_now = False
        new_attempts = 0
        advance_antecedent = antecedent.advance
        for state in _iter_bits(self._antecedent_states | (1 << antecedent.start)):
            next_state, matched = advance_antecedent(state, antecedent_symbol)
            if matched:
                matched_now = True
            if next_state >= 0:
                new_attempts |= 1 << next_state
        self._antecedent_states = new_attempts

        # 2. advance outstanding obligations (those spawned before this cycle)
        live = 0
        failed = False
        advance_consequent = consequent.advance
        for state in _iter_bits(self._obligations | self._fresh_obligations):
            next_state, matched = advance_consequent(state, consequent_symbol)
            if matched:
                continue  # discharged
            if next_state < 0:
                failed = True
                continue
            live |= 1 << next_state
        self._fresh_obligations = 0

        # 3. a completed antecedent spawns a consequent obligation
        if matched_now:
            self.triggered += 1
            if self.overlapping:
                # |->: the consequent's first letter is the current one.
                next_state, matched = advance_consequent(
                    consequent.start, consequent_symbol
                )
                if not matched:
                    if next_state < 0:
                        failed = True
                    else:
                        live |= 1 << next_state
            else:
                # |=>: the consequent starts next cycle.
                self._fresh_obligations = 1 << consequent.start

        self._obligations = live
        if failed:
            return Verdict.FAILS
        if (self._obligations or self._fresh_obligations) and self.strong_consequent:
            return Verdict.PENDING
        return Verdict.HOLDS

    def snapshot(self) -> Any:
        """Opaque, immutable state for :meth:`restore`."""
        # ``triggered`` stays out, mirroring the interpreted monitor.
        return (
            self._verdict,
            self._antecedent_states,
            self._obligations,
            self._fresh_obligations,
            self._history_snapshot(),
        )

    def restore(self, snap: Any) -> None:
        """Reinstate monitor state captured by :meth:`snapshot`."""
        (
            self._verdict,
            self._antecedent_states,
            self._obligations,
            self._fresh_obligations,
            history,
        ) = snap
        self._history_restore(history)


# ---------------------------------------------------------------------------
# Property sets: one atom evaluation per cycle for a whole suite
# ---------------------------------------------------------------------------


#: what an atom may raise on a window that lacks a value -- a history
#: read before the trace start; ``compile_bool`` reads these as False
_MISSES = (KeyError, IndexError, PslEvaluationError)

#: memo rows one set plan keeps; a union symbol beyond them is still
#: stepped exactly, only without caching its row
_MEMO_LIMIT = 4096


def _member_shape(monitor: Monitor) -> Optional[Tuple]:
    """How a set steps ``monitor``: ``None`` means by letter.

    Only a fresh table-driven monitor (never stepped, empty history,
    no definite verdict) joins the shared symbol: anything else carries
    history or state the set's window does not reproduce.  Boolean
    invariants and single-letter implications (``always (a -> b)``)
    are *stateless* -- their outcome depends on this cycle's symbol
    alone -- so the set folds them into its memo rows.
    """
    if (
        not isinstance(monitor, CompiledProperty)
        or monitor.cycle >= 0
        or monitor._history
        or monitor.verdict().is_definite
    ):
        return None
    if isinstance(monitor, CompiledInvariant):
        return ("invariant", monitor.atoms, monitor.expect)
    if isinstance(monitor, CompiledSuffixImplication) and monitor.overlapping:
        antecedent = monitor.antecedent_automaton.sere
        consequent = monitor.consequent_automaton.sere
        if isinstance(antecedent, SereBool) and isinstance(consequent, SereBool):
            return ("implication", monitor.atoms, antecedent.expr, consequent.expr)
    return ("symbol", monitor.atoms)


class _SetPlan:
    """What a property set derives once from its members' shapes.

    ``atoms`` is the union of the members' atoms (bit ``i`` of the
    union symbol is ``atoms[i]``).  ``memo`` maps a union symbol to
    its *row* ``(fails, triggers, symbols)``: the stateless members
    that fail under it, the implications whose antecedent holds, and
    every other member's projected symbol (in ``projections`` order).  Plans and their memos are
    shared process-wide by every set of equally shaped members.
    """

    def __init__(self, shapes: Sequence[Optional[Tuple]]):
        union: Dict[Expr, int] = {}
        for shape in shapes:
            if shape is not None:
                for atom in shape[1]:
                    union.setdefault(atom, len(union))
        self.atoms: Tuple[Expr, ...] = tuple(union)
        self.guarded = tuple(_compiled_bool(atom) for atom in self.atoms)
        self.raw = tuple(fn.__wrapped__ for fn in self.guarded)
        self.width = 1 + max((history_depth(a) for a in self.atoms), default=0)
        self.invariants: List[Tuple[int, int, bool]] = []
        self.implications: List[Tuple[int, int, int]] = []
        self.projections: List[Tuple[int, Tuple[int, ...]]] = []
        for position, shape in enumerate(shapes):
            if shape is None:
                continue
            if shape[0] == "invariant":
                self.invariants.append((position, 1 << union[shape[1][0]], shape[2]))
            elif shape[0] == "implication":
                self.implications.append(
                    (position, 1 << union[shape[2]], 1 << union[shape[3]])
                )
            else:
                bits = tuple(union[atom] for atom in shape[1])
                self.projections.append((position, bits))
        self.memo: Dict[int, Tuple] = {}

    def row(self, symbol: int, dead: frozenset) -> Tuple:
        """The row for ``symbol``, skipping latched members in ``dead``."""
        fails = [
            position
            for position, bit, expect in self.invariants
            if position not in dead and bool(symbol & bit) != expect
        ]
        triggers = []
        for position, antecedent, consequent in self.implications:
            if position in dead or not symbol & antecedent:
                continue
            triggers.append(position)
            if not symbol & consequent:
                fails.append(position)
        symbols = []
        for _, bits in self.projections:
            projected = 0
            for index, bit in enumerate(bits):
                if symbol >> bit & 1:
                    projected |= 1 << index
            symbols.append(projected)
        return tuple(sorted(fails)), tuple(triggers), tuple(symbols)


#: Set plans, keyed by the tuple of member shapes.
_SET_PLAN_CACHE: Dict[Tuple, _SetPlan] = {}


def _set_plan(shapes: Tuple) -> _SetPlan:
    plan = _SET_PLAN_CACHE.get(shapes)
    if plan is None:
        plan = _SET_PLAN_CACHE[shapes] = _SetPlan(shapes)
    return plan


class PropertySet:
    """Steps a whole property suite from one symbol per cycle.

    The ABV harness's stepping engine.  Per sampled letter the set

    1. appends the plain letter to one shared history window (no
       per-monitor frozen copies);
    2. values the union of its members' atoms once into an integer
       symbol, in a single ``try``, re-valuing through the guarded
       per-atom closures only when a history read misses;
    3. looks the symbol up in its plan's memo: one row says which
       invariants and single-letter implications fail, which
       implications trigger, and what every other table-driven
       member's own symbol is -- so a cycle on which every stateless
       member holds touches none of them;
    4. advances each remaining member through its own
       ``_advance_symbol`` (the transition ``Monitor.step`` also
       runs), and steps interpreted or otherwise non-fresh members by
       letter through ``Monitor.step``.

    Every member keeps its exact ``verdict``, ``cycle``,
    ``failure_cycle``, ``triggered``/``hits`` and ``steps_traced``.
    Time spent inside one member's transition is its ``step_seconds``;
    the rest is the set's own :attr:`step_seconds`.  A set-stepped
    member's private history window is not maintained, so its
    ``snapshot()`` is not meaningful; snapshots belong to
    single-monitor stepping (the explorer).

    On its first letter the set checks that every member's signals are
    present and raises :class:`PslEvaluationError` naming the property
    and the signal otherwise.
    """

    def __init__(self, monitors: Sequence[Monitor]):
        self.monitors: List[Monitor] = list(monitors)
        shapes = tuple(_member_shape(monitor) for monitor in self.monitors)
        plan = self._plan = _set_plan(shapes)
        self._raw = plan.raw
        self._guarded = plan.guarded
        self._width = plan.width
        self._window: List[Letter] = []
        self._rows = plan.memo
        self._dead: frozenset = frozenset()
        self._native = [
            monitor for monitor, shape in zip(self.monitors, shapes) if shape
        ]
        stateless = {p for p, _, _ in plan.invariants}
        stateless.update(p for p, _, _ in plan.implications)
        self._stateless = [(p, self.monitors[p]) for p in sorted(stateless)]
        #: (row symbol index, position, monitor) of unlatched members
        self._walked = [
            (index, position, self.monitors[position])
            for index, (position, _) in enumerate(plan.projections)
        ]
        self._by_letter = [
            (position, monitor)
            for position, (monitor, shape) in enumerate(zip(self.monitors, shapes))
            if shape is None
        ]
        self._unchecked = True
        #: own step time, members' time excluded (``psl.propset`` span)
        self.step_seconds = 0.0

    def step(self, letter: Letter) -> List[int]:
        """Consume one cycle; positions of members that FAIL on it.

        Set-stepped members latch, so each is reported on the cycle it
        first fails; letter-stepped members are reported whenever
        ``Monitor.step`` returns FAILS, as a harness would see them.
        """
        if self._unchecked:
            self._check_signals(letter)
        timed = OBS.enabled
        if timed:
            started = _perf_counter()
            member_seconds = 0.0
        window = self._window
        window.append(dict(letter))
        if len(window) > self._width:
            del window[0]
        symbol = 0
        bit = 1
        try:
            for fn in self._raw:
                value = fn(window)
                if value is True or (value is not False and as_bool(value)):
                    symbol |= bit
                bit <<= 1
        except _MISSES:
            symbol = 0
            bit = 1
            for fn in self._guarded:
                if fn(window):
                    symbol |= bit
                bit <<= 1
        row = self._rows.get(symbol)
        if row is None:
            row = self._plan.row(symbol, self._dead)
            if len(self._rows) < _MEMO_LIMIT:
                self._rows[symbol] = row
        fails, triggers, symbols = row
        for monitor in self._native:
            monitor.cycle += 1
        monitors = self.monitors
        for position in triggers:
            monitors[position].triggered += 1
        if timed:
            for _, monitor in self._stateless:
                monitor.steps_traced += 1
        failed = self._latch(fails) if fails else []
        latched = False
        for index, position, monitor in self._walked:
            if timed:
                begun = _perf_counter()
            verdict = monitor._advance_symbol(symbols[index])
            if timed:
                spent = _perf_counter() - begun
                monitor.step_seconds += spent
                monitor.steps_traced += 1
                member_seconds += spent
            monitor._verdict = verdict
            if verdict is _FAILS:
                if monitor.failure_cycle is None:
                    monitor.failure_cycle = monitor.cycle
                failed.append(position)
                latched = latched or monitor.latch_definite
            elif verdict is _HOLDS_STRONGLY and monitor.latch_definite:
                latched = True
        if latched:
            self._walked = [
                walked
                for walked in self._walked
                if not (walked[2].latch_definite and walked[2]._verdict.is_definite)
            ]
        if self._by_letter:
            if timed:
                begun = _perf_counter()
            frozen = FrozenLetter(letter)
            for position, monitor in self._by_letter:
                if monitor.step(frozen) is _FAILS:
                    failed.append(position)
            if timed:
                member_seconds += _perf_counter() - begun
        if timed:
            self.step_seconds += _perf_counter() - started - member_seconds
        if len(failed) > 1:
            failed.sort()
        return failed

    def _latch(self, positions: Sequence[int]) -> List[int]:
        """Latch stateless members that fail; their rows go private."""
        for position in positions:
            monitor = self.monitors[position]
            monitor._verdict = _FAILS
            if monitor.failure_cycle is None:
                monitor.failure_cycle = monitor.cycle
        self._dead = self._dead.union(positions)
        # the shared memo assumes every stateless member is live
        self._rows = {}
        self._stateless = [
            (position, monitor)
            for position, monitor in self._stateless
            if position not in self._dead
        ]
        return list(positions)

    def _check_signals(self, letter: Letter) -> None:
        for monitor in self.monitors:
            for name in sorted(monitor.variables()):
                if name not in letter:
                    raise PslEvaluationError(
                        f"property {monitor.name!r} reads signal {name!r}, "
                        f"which the sampled letter does not provide"
                    )
        self._unchecked = False


_FAILS = Verdict.FAILS
_HOLDS_STRONGLY = Verdict.HOLDS_STRONGLY


# ---------------------------------------------------------------------------
# The public compilation API
# ---------------------------------------------------------------------------


#: Per-property compilation plans: (engine, kind, property AST,
#: binding) -> zero-arg monitor factory.
_PLAN_CACHE: Dict[Tuple, Callable[[], Monitor]] = {}

_CACHE_STATS = {
    "plan_hits": 0,
    "plan_misses": 0,
    "automaton_hits": 0,
    "automaton_misses": 0,
}


def _bump(stat: str, metric: str, result: str) -> None:
    _CACHE_STATS[stat] += 1
    metrics = OBS.metrics
    if metrics.enabled:
        metrics.counter(metric, result=result).inc()


def compile_cache_stats() -> Dict[str, int]:
    """Process-wide compile-cache counters (plans and automata).

    Exposed on the worker ``/healthz`` endpoint; hits should dwarf
    misses in any real regression (same properties x many seeds).
    """
    stats = dict(_CACHE_STATS)
    stats["plans"] = len(_PLAN_CACHE)
    stats["set_plans"] = len(_SET_PLAN_CACHE)
    stats["automata"] = len(_AUTOMATON_CACHE)
    stats["automaton_states"] = sum(
        a.state_count for a in _AUTOMATON_CACHE.values()
    )
    return stats


def clear_compile_caches() -> None:
    """Drop all compilation caches (tests and memory-pressure hooks)."""
    _PLAN_CACHE.clear()
    _SET_PLAN_CACHE.clear()
    _AUTOMATON_CACHE.clear()
    for key in _CACHE_STATS:
        _CACHE_STATS[key] = 0


def property_digest(source: Property | Directive | Formula | str) -> str:
    """Stable hex digest of a property's source form.

    Equal sources parse to equal ASTs and equal ASTs print back to
    equal canonical text, so this digest is interchangeable with the
    AST as a cache identity; it exists for logs and cross-process
    comparison where shipping the AST is impractical.
    """
    directive = _as_directive(source)
    text = f"{directive.kind}:{directive.prop.name}:{directive.prop.formula}"
    return hashlib.sha256(text.encode()).hexdigest()


def _as_directive(source: Property | Directive | Formula | str) -> Directive:
    """Normalize any accepted source form to an assert/cover directive."""
    if isinstance(source, Directive):
        return source
    if isinstance(source, Property):
        return Directive(kind=DirectiveKind.ASSERT, prop=source)
    if isinstance(source, str):
        from .parser import parse_directive, parse_formula

        try:
            return _as_directive(parse_directive(source))
        except PslParseError:
            return _as_directive(parse_formula(source))
    if isinstance(source, Formula):
        return Directive(
            kind=DirectiveKind.ASSERT,
            prop=Property(name="property", formula=source),
        )
    raise TypeError(
        f"cannot compile {type(source).__name__}; expected "
        f"Directive, Property, Formula or source text"
    )


def _rebind(node: Any, bindings: Mapping[str, str]) -> Any:
    """Rename signal references throughout a (frozen dataclass) AST."""
    if isinstance(node, Var):
        renamed = bindings.get(node.name)
        return Var(renamed) if renamed is not None else node
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        changes = {}
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            rebound = _rebind(value, bindings)
            if rebound is not value:
                changes[field.name] = rebound
        return dataclasses.replace(node, **changes) if changes else node
    if isinstance(node, tuple):
        rebound = tuple(_rebind(v, bindings) for v in node)
        return rebound if rebound != node else node
    return node


def compile_properties(
    sources: Iterable[Property | Directive | Formula | str],
    *,
    bindings: Optional[Mapping[str, str]] = None,
    engine: Optional[str] = None,
) -> List[Monitor]:
    """Compile properties into monitors -- the one construction path.

    ``sources`` may mix parsed :class:`Directive`/:class:`Property`/
    :class:`Formula` objects and PSL source text.  ``bindings``
    renames signal references (formal -> actual) before compilation
    and is part of the cache key.  ``engine`` selects ``"compiled"``
    (table-driven automata, the default) or ``"interpreted"`` (the
    original derivative interpreter); ``None`` defers to
    :func:`default_engine`, i.e. ``REPRO_PSL_ENGINE`` when set.

    Properties the compiled engine cannot lower (deep ``until``
    nests, unbounded-residual SEREs, ...) transparently fall back to
    the interpreted :func:`build_monitor` result, so both engines
    accept the full supported PSL subset and produce identical
    verdict traces.
    """
    resolved = _validate_engine(engine) if engine is not None else default_engine()
    return [
        compile_property(source, bindings=bindings, engine=resolved)
        for source in sources
    ]


def compile_property(
    source: Property | Directive | Formula | str,
    *,
    name: Optional[str] = None,
    bindings: Optional[Mapping[str, str]] = None,
    engine: Optional[str] = None,
) -> Monitor:
    """Compile one property (see :func:`compile_properties`)."""
    resolved = _validate_engine(engine) if engine is not None else default_engine()
    directive = _as_directive(source)
    if bindings:
        directive = _rebind(directive, dict(bindings))
    binding_key = (
        tuple(sorted(bindings.items())) if bindings else None
    )
    key = (resolved, directive.kind, directive.prop, binding_key)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        _bump("plan_misses", "psl.compile.cache", "miss")
        plan = _build_plan(directive, resolved)
        _PLAN_CACHE[key] = plan
    else:
        _bump("plan_hits", "psl.compile.cache", "hit")
    monitor = plan()
    if name is not None:
        monitor.name = name
    return monitor


def _build_plan(directive: Directive, engine: str) -> Callable[[], Monitor]:
    """Build the per-property monitor factory for one engine."""
    def interpreted_plan() -> Monitor:
        return build_monitor(directive)

    if engine == "interpreted":
        return interpreted_plan
    builder = _match_compiled(directive)
    if builder is None:
        # Transparent fallback: patterns (or SEREs) the table engine
        # cannot lower run on the interpreted engine instead.
        return interpreted_plan
    # Compile eagerly once so unsupported SEREs surface now (and fall
    # back) rather than mid-regression.
    try:
        builder()
    except PslUnsupportedError:
        return interpreted_plan
    return builder


def _match_compiled(directive: Directive) -> Optional[Callable[[], Monitor]]:
    """Mirror of ``build_monitor``'s pattern match, building table-driven
    monitors; ``None`` means no compiled lowering exists."""
    prop = directive.prop
    formula = prop.formula
    name = prop.name
    report = prop.report

    if directive.kind == DirectiveKind.COVER:
        target = formula
        if isinstance(target, FlEventually):
            target = target.operand
        if isinstance(target, FlSere):
            sere = target.sere
            return lambda: CompiledCover(sere, name=name, report=report)
        if isinstance(target, FlBool):
            sere = SereBool(target.expr)
            return lambda: CompiledCover(sere, name=name, report=report)
        return None

    if isinstance(formula, FlAlways):
        body = formula.operand
        if isinstance(body, FlBool):
            expr = body.expr
            return lambda: CompiledInvariant(expr, True, name, report)
        if isinstance(body, FlNot) and isinstance(body.operand, FlBool):
            expr = body.operand.expr
            return lambda: CompiledInvariant(expr, False, name, report)
        if isinstance(body, FlSuffixImpl):
            consequent = _as_sere(body.consequent)
            if consequent is not None:
                antecedent = body.antecedent
                overlapping = body.overlapping
                strong = _consequent_is_strong(body.consequent)
                return lambda: CompiledSuffixImplication(
                    antecedent,
                    consequent,
                    overlapping=overlapping,
                    strong_consequent=strong,
                    name=name,
                    report=report,
                )
        if isinstance(body, FlImplies) and isinstance(body.left, FlBool):
            consequent = _as_sere(body.right)
            if consequent is not None:
                antecedent = SereBool(body.left.expr)
                strong = _consequent_is_strong(body.right)
                return lambda: CompiledSuffixImplication(
                    antecedent,
                    consequent,
                    overlapping=True,
                    strong_consequent=strong,
                    name=name,
                    report=report,
                )
    if isinstance(formula, FlNever):
        body = formula.operand
        if isinstance(body, FlBool):
            expr = body.expr
            return lambda: CompiledInvariant(expr, False, name, report)
        if isinstance(body, FlSere):
            sere = body.sere
            return lambda: CompiledNeverSere(sere, name=name, report=report)
    if isinstance(formula, FlEventually) and isinstance(formula.operand, FlBool):
        expr = formula.operand.expr
        return lambda: CompiledEventually(expr, name=name, report=report)
    if isinstance(formula, FlUntil):
        if isinstance(formula.left, FlBool) and isinstance(formula.right, FlBool):
            left = formula.left.expr
            right = formula.right.expr
            strong = formula.strong
            inclusive = formula.inclusive
            return lambda: CompiledUntil(
                left,
                right,
                strong=strong,
                inclusive=inclusive,
                name=name,
                report=report,
            )
    return None

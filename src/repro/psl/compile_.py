"""Boolean-layer expression compilation.

The paper compiles PSL (via AsmL) to C# for execution speed; the
equivalent lever here is compiling Boolean-layer ASTs into Python
closures once per monitor instead of interpreting the AST every cycle.
A compiled expression is a function ``(history) -> bool`` where
``history`` is the monitor's letter window (current letter last).

Supported nodes: variables, constants, boolean connectives,
comparisons, arithmetic, and the built-ins ``prev`` (constant depth),
``rose``, ``fell``, ``stable``.  Anything else falls back to the AST
interpreter -- correctness never depends on the compiler.
"""

from __future__ import annotations

from typing import Any, Callable, List, Mapping, Sequence

from .ast_nodes import (
    And,
    Arith,
    Compare,
    Const,
    EvalContext,
    Expr,
    Func,
    Iff,
    Implies,
    Index,
    Not,
    Or,
    Var,
    Xor,
    as_bool,
)
from .errors import PslEvaluationError

History = Sequence[Mapping[str, Any]]
Compiled = Callable[[History], Any]


class _Fallback(Exception):
    """Raised during compilation when a node is unsupported."""


def compile_expr(expression: Expr) -> Compiled:
    """Compile to a closure; falls back to AST interpretation."""
    try:
        return _compile(expression, offset=0)
    except _Fallback:
        def interpret(history: History) -> Any:
            return expression.eval(EvalContext(history, len(history) - 1))

        return interpret


def compile_bool(expression: Expr) -> Callable[[History], bool]:
    """Like :func:`compile_expr` but coerced to bool, never raising on
    missing signals (False instead -- the monitor convention).  The
    unguarded :func:`compile_expr` closure stays reachable as
    ``__wrapped__`` for callers that guard many atoms at once."""
    inner = compile_expr(expression)

    def evaluate(history: History) -> bool:
        try:
            return as_bool(inner(history))
        except (KeyError, IndexError, PslEvaluationError):
            return False

    evaluate.__wrapped__ = inner
    return evaluate


def _compile(expression: Expr, offset: int) -> Compiled:
    """``offset`` = how many letters back from the end to read."""
    if isinstance(expression, Const):
        value = expression.value
        return lambda history: value
    if isinstance(expression, Var):
        name = expression.name
        if offset == 0:
            return lambda history: history[-1][name]
        back = offset + 1
        return lambda history: history[-back][name]
    if isinstance(expression, Not):
        operand = _compile(expression.operand, offset)
        return lambda history: not as_bool(operand(history))
    if isinstance(expression, And):
        left = _compile(expression.left, offset)
        right = _compile(expression.right, offset)
        return lambda history: as_bool(left(history)) and as_bool(right(history))
    if isinstance(expression, Or):
        left = _compile(expression.left, offset)
        right = _compile(expression.right, offset)
        return lambda history: as_bool(left(history)) or as_bool(right(history))
    if isinstance(expression, Xor):
        left = _compile(expression.left, offset)
        right = _compile(expression.right, offset)
        return lambda history: as_bool(left(history)) != as_bool(right(history))
    if isinstance(expression, Implies):
        left = _compile(expression.left, offset)
        right = _compile(expression.right, offset)
        return lambda history: (not as_bool(left(history))) or as_bool(right(history))
    if isinstance(expression, Iff):
        left = _compile(expression.left, offset)
        right = _compile(expression.right, offset)
        return lambda history: as_bool(left(history)) == as_bool(right(history))
    if isinstance(expression, Compare):
        left = _compile(expression.left, offset)
        right = _compile(expression.right, offset)
        op = expression.op
        if op == "==":
            return lambda history: left(history) == right(history)
        if op == "!=":
            return lambda history: left(history) != right(history)
        if op == "<":
            return lambda history: left(history) < right(history)
        if op == "<=":
            return lambda history: left(history) <= right(history)
        if op == ">":
            return lambda history: left(history) > right(history)
        return lambda history: left(history) >= right(history)
    if isinstance(expression, Arith):
        left = _compile(expression.left, offset)
        right = _compile(expression.right, offset)
        op = expression.op
        if op == "+":
            return lambda history: left(history) + right(history)
        if op == "-":
            return lambda history: left(history) - right(history)
        if op == "*":
            return lambda history: left(history) * right(history)
        if op == "%":
            return lambda history: left(history) % right(history)
        return lambda history: left(history) // right(history)
    if isinstance(expression, Func):
        return _compile_func(expression, offset)
    if isinstance(expression, Index):
        base = _compile(expression.base, offset)
        index = _compile(expression.index, offset)
        return lambda history: bool(int(base(history)[int(index(history))]))
    raise _Fallback


def _compile_func(expression: Func, offset: int) -> Compiled:
    name = expression.name
    if name == "prev":
        depth = 1
        if len(expression.args) == 2:
            if not isinstance(expression.args[1], Const):
                raise _Fallback
            depth = int(expression.args[1].value)
        return _compile(expression.args[0], offset + depth)
    if name in ("rose", "fell", "stable"):
        current = _compile(expression.args[0], offset)
        previous = _compile(expression.args[0], offset + 1)

        if name == "rose":
            def rose(history: History) -> bool:
                if len(history) < offset + 2:
                    return False
                return as_bool(current(history)) and not as_bool(previous(history))

            return rose
        if name == "fell":
            def fell(history: History) -> bool:
                if len(history) < offset + 2:
                    return False
                return (not as_bool(current(history))) and as_bool(previous(history))

            return fell

        def stable(history: History) -> bool:
            if len(history) < offset + 2:
                return False
            return current(history) == previous(history)

        return stable
    if name == "countones":
        inner = _compile(expression.args[0], offset)

        def countones(history: History) -> int:
            value = inner(history)
            if hasattr(value, "count_ones"):
                return value.count_ones()
            return bin(int(value)).count("1")

        return countones
    if name in ("onehot", "onehot0"):
        inner = _compile(expression.args[0], offset)
        limit_exact = name == "onehot"

        def onehot(history: History) -> bool:
            value = inner(history)
            ones = (
                value.count_ones()
                if hasattr(value, "count_ones")
                else bin(int(value)).count("1")
            )
            return ones == 1 if limit_exact else ones <= 1

        return onehot
    raise _Fallback

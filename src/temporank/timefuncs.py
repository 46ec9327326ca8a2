"""Closed-form time functions for continuous-network edge weights.

The expression vocabulary covers constants, affine terms, powers, sin/cos,
exponentials, and scaled sums/products of these, e.g.::

    0.5*(sin(2*pi*t)+1)
    (exp(t)-1)/e
    t^2

Grammar: the single variable ``t``, the constants ``pi`` and ``e``, the
functions ``sin``, ``cos``, ``exp``, the operators ``+ - * /`` and power
(``^`` or ``**``), and parentheses.  Expressions are parsed through the
Python ast with a strict node whitelist, so arbitrary code never runs.

Arbitrary evaluators plug in through :meth:`TimeFunction.from_callable`;
they must be pure (same t, same value), finite and nonnegative on the
network interval, and right-continuous at its left endpoint.  None of that
is checked mechanically for callables.
"""

from __future__ import annotations

import ast
import math
from typing import Callable

import numpy as np

from .errors import InvalidInputError

__all__ = ["TimeFunction", "parse"]

_ALLOWED_CALLS = ("sin", "cos", "exp")
_ALLOWED_NAMES = ("t", "pi", "e")

_ARRAY_NS = {"sin": np.sin, "cos": np.cos, "exp": np.exp,
             "pi": math.pi, "e": math.e}

_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
    ast.UnaryOp, ast.USub, ast.UAdd,
    ast.Constant, ast.Name, ast.Call, ast.Load,
)


def _check_tree(tree: ast.AST, source: str) -> None:
    # names in call position follow the function whitelist, not the name one
    call_names = {id(node.func) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise InvalidInputError(
                f"unsupported syntax {type(node).__name__!r} in {source!r}")
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise InvalidInputError(
                    f"non-numeric literal {node.value!r} in {source!r}")
        elif isinstance(node, ast.Name):
            if id(node) not in call_names and node.id not in _ALLOWED_NAMES:
                raise InvalidInputError(
                    f"unknown name {node.id!r} in {source!r} "
                    f"(allowed: {', '.join(_ALLOWED_NAMES)})")
        elif isinstance(node, ast.Call):
            if (not isinstance(node.func, ast.Name)
                    or node.func.id not in _ALLOWED_CALLS):
                raise InvalidInputError(
                    f"unknown function call in {source!r} "
                    f"(allowed: {', '.join(_ALLOWED_CALLS)})")
            if len(node.args) != 1 or node.keywords:
                raise InvalidInputError(
                    f"{node.func.id} takes exactly one argument in {source!r}")


class TimeFunction:
    """A pure scalar function of time, from the expression vocabulary or a callable.

    Evaluation accepts a float or an ndarray of times; both go through the
    one array evaluator, so a float gives the same bits as the same time
    inside an array.  Instances are immutable and safe to share.
    """

    __slots__ = ("source", "_array")

    def __init__(self, source: str | None, array_fn: Callable):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "_array", array_fn)

    def __setattr__(self, name, value):
        raise AttributeError("TimeFunction is immutable")

    @classmethod
    def parse(cls, expression: str) -> "TimeFunction":
        """Compile an expression such as ``0.5*(sin(2*pi*t)+1)``."""
        source = expression.strip()
        if not source:
            raise InvalidInputError("empty expression")
        normalized = source.replace("^", "**")
        try:
            tree = ast.parse(normalized, mode="eval")
        except SyntaxError as exc:
            raise InvalidInputError(f"cannot parse {source!r}: {exc.msg}") from None
        _check_tree(tree, source)
        # the namespace must be the lambda's globals: a lambda resolves
        # free names through __globals__, never through eval's locals
        array = eval(compile(ast.parse(f"lambda t: ({normalized})", mode="eval"),
                             "<timefunction>", "eval"),
                     {"__builtins__": {}, **_ARRAY_NS})
        return cls(source, array)

    @classmethod
    def constant(cls, value: float) -> "TimeFunction":
        value = float(value)
        return cls(repr(value), lambda t: np.full_like(t, value))

    @classmethod
    def from_callable(cls, fn: Callable[[float], float]) -> "TimeFunction":
        """Wrap an opaque evaluator.  Not serializable to network files."""
        return cls(None, np.vectorize(fn, otypes=[float]))

    def __call__(self, t):
        times = np.asarray(t, dtype=float)
        # constants in the expression collapse arrays, e.g. "0.5"
        out = np.broadcast_to(np.asarray(self._array(times), dtype=float), times.shape)
        return out.copy() if isinstance(t, np.ndarray) else float(out)

    def __repr__(self):
        if self.source is not None:
            return f"TimeFunction({self.source!r})"
        return "TimeFunction(<callable>)"


def parse(expression: str) -> TimeFunction:
    """Compile an expression over ``t`` (see :meth:`TimeFunction.parse`)."""
    return TimeFunction.parse(expression)

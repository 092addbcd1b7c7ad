"""Tiny arithmetic language for profile definitions in config files.

Supported: decimal literals, the variable ``x``, binary ``+ - * /``,
right-associative ``^`` (binding tighter than unary minus: ``-x^2`` is
``-(x^2)``), unary minus, parentheses, and the functions ``sin``, ``cos``,
``exp``.  This is Python's expression grammar cut down to those forms:
``ast.parse`` reads the text with ``^`` as ``**``, and a walk over a
whitelist of node types builds one closure per node.  Nothing is compiled
or run by Python.  Evaluation accepts a float or a numpy array and
broadcasts constants to the input shape.
"""

from __future__ import annotations

import ast
import operator
import re
import warnings
from typing import Callable, Union

import numpy as np

from .exceptions import ExpressionError

__all__ = ["Expression", "parse_expression"]

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_NAMES = ", ".join(sorted(_FUNCTIONS))
_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: np.power}
_ALPHABET = re.compile(r"[A-Za-z0-9 _.+\-*/^()]")
_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_LEADING_ZEROS = re.compile(r"(?<![\w.])(?<![eE][+-])0+(?=\d)")

_Node = Callable[[np.ndarray], Union[np.ndarray, float]]


class Expression:
    """Parsed expression; call with a float or numpy array."""

    def __init__(self, source: str, node: _Node) -> None:
        self.source = source
        self._node = node

    def __call__(self, x: object) -> Union[float, np.ndarray]:
        arr = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            out = self._node(arr)
        if arr.ndim == 0:
            return float(out)
        result = np.asarray(out, dtype=float)
        if result.shape != arr.shape:
            result = np.broadcast_to(result, arr.shape).copy()
        return result

    def __repr__(self) -> str:
        return f"Expression({self.source!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Expression):
            return self.source == other.source
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Expression", self.source))


def parse_expression(text: str) -> Expression:
    """Parse ``text`` into a callable Expression.

    Raises ExpressionError naming the offending name or a position in ``text``.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("expression must be a non-empty string")
    src, pos = "", []  # pos[i] is the position in text of src[i]
    for col, char in enumerate(text):
        # The language allows any whitespace (INI continuation lines too) and
        # any decimal digit; map them one for one to ASCII for Python's tokenizer.
        c = " " if char.isspace() else str(int(char)) if char.isdecimal() else char
        # Python reads characters the language lacks, and a typed '**' as power.
        if not _ALPHABET.fullmatch(c) or c + src[-1:] == "**":
            raise ExpressionError(f"unexpected character {char!r} at position {col} in {text!r}")
        c = "**" if c == "^" else c
        src += c
        pos += [col] * len(c)
    # Python rejects integer literals with leading zeros, such as '01'; blank
    # the zeros, since the literal's value is read from its remaining digits.
    src = _LEADING_ZEROS.sub(lambda m: " " * len(m[0]), src)
    body = src.lstrip()  # Python's eval mode rejects an indented first line
    pos = pos[len(src) - len(body) :] + [len(text)]

    def build(node: ast.expr) -> _Node:
        match node:
            case ast.BinOp(lhs, op, rhs) if type(op) in _OPERATORS:
                return lambda x, f=_OPERATORS[type(op)], a=build(lhs), b=build(rhs): f(a(x), b(x))
            case ast.UnaryOp(ast.USub(), operand):
                return lambda x, a=build(operand): -a(x)
            case ast.Constant() if _NUMBER.fullmatch(lit := ast.get_source_segment(body, node)):
                return lambda x, v=float(lit): v
            case ast.Name("x"):
                return lambda x: x
            case ast.Call(ast.Name(name), [arg], []) if name in _FUNCTIONS:
                return lambda x, f=_FUNCTIONS[name], a=build(arg): f(a(x))
            case ast.Name(name) | ast.Call(ast.Name(name)) if name not in {"x", *_FUNCTIONS}:
                raise ExpressionError(f"unknown name {name!r} in {text!r} (allowed: x, {_NAMES})")
        raise ExpressionError(f"unsupported syntax at position {pos[node.col_offset]} in {text!r}")

    try:
        # Python only warns on some text the language rejects, such as '1if x
        # else 2' ("invalid decimal literal"); the walk rejects it below.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tree = ast.parse(body, mode="eval")
    except SyntaxError as exc:
        col = pos[min((exc.offset or 1) - 1, len(body))]
        raise ExpressionError(f"invalid syntax at position {col} in {text!r}") from None
    return Expression(text.strip(), build(tree.body))

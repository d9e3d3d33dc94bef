"""Textual expressions for eventually periodic sets.

Grammar (whitespace insensitive)::

    expr   := term (('|' term) | ('\\' term))*     left associative
    term   := factor ('&' factor)*
    factor := atom | '(' expr ')'
    atom   := 'I' | 'O' | 'E' | 'N'
            | 'Y' '(' int ')'          argument -a with a >= 0
            | 'Q' '(' int ')'          argument -b with b >= 1
            | 'Ray' '(' int ',' int ')'    start, nonzero step (sign = direction)
            | 'Fin' '{' [int (',' int)*] '}'   a JSON list: no leading zeros, no '+'

``parse`` turns an expression into a canonical PeriodicSet and ``format_set``
prints any PeriodicSet as a parseable expression; the round trip is exact.

Cost model: one canonicalization per ``|`` run of lone ``Ray`` and ``Fin``
atoms (not followed by ``&``), settled together by ``algebra.ray_union``, and
one per other atom and operator (see ``algebra``).  So a printed set, as
traces store it, costs one canonicalization over its listed points.  A
``Fin`` body is read with one ``json.loads``.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache

from .algebra import (
    LimitError,
    PeriodicSet,
    all_integers,
    even_nonnegatives,
    negative_integers,
    odd_positives,
    q_set,
    ray_union,
    y_set,
)


class SetSpecError(ValueError):
    """Raised for malformed set expressions."""


# A Fin list and a Ray without spaces are each one token.  A Fin body that
# is not a JSON list of integers is lexed again by _FIN_FALLBACK: as one
# malformed Fin token if it holds only digits, signs, spaces and commas, else
# as the word Fin, so that a stray character in it is reported where it lies.
_TOKEN = re.compile(r"\s*(Fin\s*\{([^{}]*)\}|Ray\((-?\d+),(-?\d+)\)|-?\d+|[A-Za-z]+|[(){},|&\\])")
_FIN_FALLBACK = re.compile(r"\s*(Fin\s*\{[-\d\s,]*\}|Fin)")


def _tokenize(text: str) -> list[tuple[str, int, object]]:
    """Each token's text and position, and the integers of a Fin list or the
    two integer strings of a Ray without spaces."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise SetSpecError(f"unexpected character at position {pos}: {text[pos]!r}")
            break
        tok, body, start, step = m.groups()
        value = None
        if start is not None:
            tok, value = "Ray", (start, step)
        elif body is not None:
            try:
                value = json.loads("[" + body + "]")
            except (ValueError, RecursionError):
                pass
            # Every value must be an int, not a bool, a float or a list.
            if value is None or not set(map(type, value)) <= {int}:
                m = _FIN_FALLBACK.match(text, pos)
                tok, value = m.group(1), None
        tokens.append((tok, m.start(1), value))
        pos = m.end()
    return tokens


def _int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise SetSpecError(f"expected an integer, got {tok!r}") from None


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def take(self, expect: str | None = None) -> str:
        if self.i >= len(self.tokens):
            raise SetSpecError(f"unexpected end of expression: {self.text!r}")
        tok, at, _ = self.tokens[self.i]
        if expect is not None and tok != expect:
            raise SetSpecError(f"expected {expect!r} at position {at}, got {tok!r}")
        self.i += 1
        return tok

    def take_int(self) -> int:
        return _int(self.take())

    def parse(self) -> PeriodicSet:
        result = self.expr()
        if self.i < len(self.tokens):
            tok, at, _ = self.tokens[self.i]
            raise SetSpecError(f"trailing input at position {at}: {tok!r}")
        return result

    def expr(self) -> PeriodicSet:
        # term() returns a lone Ray or Fin atom raw, as (rays, points).  A |
        # run settles its raw atoms together, once, and joins other terms with
        # | as they come; a \ settles the run and subtracts the next term.
        acc, rays, points = None, [], []
        op = "|"
        while True:
            part = self.term()
            if op == "\\":
                acc, rays, points = _settled(acc, rays, points) - _built(part), [], []
            elif isinstance(part, PeriodicSet):
                acc = part if acc is None else acc | part
            else:
                rays += part[0]
                points += part[1]
            if self.peek() not in ("|", "\\"):
                return _settled(acc, rays, points)
            op = self.take()

    def term(self) -> PeriodicSet | tuple:
        acc = self.factor()
        while self.peek() == "&":
            self.take()
            acc = _built(acc) & _built(self.factor())
        return acc

    def factor(self) -> PeriodicSet | tuple:
        if self.peek() != "(":
            return self.atom()
        self.take()
        inner = self.expr()
        self.take(")")
        return inner

    def atom(self) -> PeriodicSet | tuple:
        tok = self.take()
        _, at, value = self.tokens[self.i - 1]
        if tok == "I":
            return all_integers()
        if tok == "O":
            return odd_positives()
        if tok == "E":
            return even_nonnegatives()
        if tok == "N":
            return negative_integers()
        if tok == "Y":
            self.take("(")
            arg = self.take_int()
            self.take(")")
            if arg > 0:
                raise SetSpecError("Y argument must be <= 0")
            return y_set(-arg)
        if tok == "Q":
            self.take("(")
            arg = self.take_int()
            self.take(")")
            if arg > -1:
                raise SetSpecError("Q argument must be <= -1")
            return q_set(-arg)
        if tok == "Ray":
            if value is not None:
                start, step = map(_int, value)
            else:
                self.take("(")
                start = self.take_int()
                self.take(",")
                step = self.take_int()
                self.take(")")
            if step == 0:
                raise SetSpecError("Ray step must be nonzero")
            return [(start, step)], []
        if tok == "Fin" or tok.startswith("Fin") and tok.endswith("}"):
            if value is None:
                raise SetSpecError(f"malformed Fin list at position {at}")
            return [], value
        raise SetSpecError(f"unknown atom {tok!r}")


def _built(part: PeriodicSet | tuple) -> PeriodicSet:
    return part if isinstance(part, PeriodicSet) else ray_union(*part)


def _settled(acc: PeriodicSet | None, rays: list[tuple[int, int]], points: list[int]) -> PeriodicSet:
    """The union of a | run: its settled terms ``acc`` and its raw atoms."""
    if acc is not None and not rays and not points:
        return acc
    run = ray_union(rays, points)
    return run if acc is None else acc | run


# A trap game's trace repeats one short pair string on every other pair row
# (the diagonal game's top pair, the phased game's I).
@lru_cache(maxsize=4)
def parse(text: str) -> PeriodicSet:
    """Parse a set expression into a canonical PeriodicSet.  An expression
    that needs a tail period, or an lcm of two, above ``algebra.MAX_PERIOD``,
    or a listing above ``algebra.MAX_LISTED``, or that nests too deeply for
    the parser, is malformed."""
    try:
        return _Parser(text).parse()
    except LimitError as exc:
        raise SetSpecError(str(exc)) from None
    except RecursionError:
        raise SetSpecError("expression nested too deeply") from None


def format_set(s: PeriodicSet) -> str:
    """Print a canonical expression for ``s``; parse(format_set(s)) == s."""
    parts: list[str] = []
    for r in sorted(s.neg_residues):
        # Highest value below the window with this residue, descending ray.
        v = s.lo - 1 - ((s.lo - 1 - r) % s.neg_period)
        parts.append(f"Ray({v},{-s.neg_period})")
    window = s.window
    if window:
        parts.append("Fin{" + ",".join(map(repr, window)) + "}")
    for r in sorted(s.pos_residues):
        v = s.hi + 1 + ((r - s.hi - 1) % s.pos_period)
        parts.append(f"Ray({v},{s.pos_period})")
    return " | ".join(parts) if parts else "Fin{}"

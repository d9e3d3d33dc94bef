"""Textual expressions for eventually periodic sets.

Grammar (whitespace insensitive)::

    expr   := term (('|' term) | ('\\' term))*     left associative
    term   := factor ('&' factor)*
    factor := atom | '(' expr ')'
    atom   := 'I' | 'O' | 'E' | 'N'
            | 'Y' '(' int ')'          argument -a with a >= 0
            | 'Q' '(' int ')'          argument -b with b >= 1
            | 'Ray' '(' int ',' int ')'    start, nonzero step (sign = direction)
            | 'Fin' '{' [int (',' int)*] '}'

``parse`` turns an expression into a canonical PeriodicSet and ``format_set``
prints any PeriodicSet as a parseable expression; the round trip is exact.

Cost model: the printed form (rays of one period per direction and one
``Fin`` list, as ``format_set`` writes them and traces store them) is read
without the grammar and costs one canonicalization over its listed points.
Any other expression goes through the grammar, one canonicalization per atom
and one combine per operator (see ``algebra``).  A printed ``Fin`` list is
read with one ``json.loads``, and the grammar's with one ``int`` per value.
"""

from __future__ import annotations

import json
import re

from .algebra import (
    _ABSENT,
    LimitError,
    PeriodicSet,
    _settle,
    all_integers,
    even_nonnegatives,
    negative_integers,
    odd_positives,
    q_set,
    y_set,
)


class SetSpecError(ValueError):
    """Raised for malformed set expressions."""


# A well-formed ``Fin`` list is one token, read by ``fin_values``: replayed
# traces carry lists of thousands of integers.
_TOKEN = re.compile(r"\s*(Fin\s*\{[-\d\s,]*\}|-?\d+|[A-Za-z]+|[(){},|&\\])")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise SetSpecError(f"unexpected character at position {pos}: {text[pos]!r}")
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


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
        tok, at = self.tokens[self.i]
        if expect is not None and tok != expect:
            raise SetSpecError(f"expected {expect!r} at position {at}, got {tok!r}")
        self.i += 1
        return tok

    def take_int(self) -> int:
        tok = self.take()
        try:
            return int(tok)
        except ValueError:
            raise SetSpecError(f"expected an integer, got {tok!r}") from None

    def fin_values(self, tok: str) -> list[int]:
        """The integers of a ``Fin{...}`` token.  A bare ``Fin`` token means
        the lexer found no well-formed list after it."""
        _, brace, body = tok[:-1].partition("{")
        try:
            if brace:
                return list(map(int, body.split(","))) if body.strip() else []
        except ValueError:
            pass
        raise SetSpecError(f"malformed Fin list at position {self.tokens[self.i - 1][1]}")

    def parse(self) -> PeriodicSet:
        result = self.expr()
        if self.i < len(self.tokens):
            tok, at = self.tokens[self.i]
            raise SetSpecError(f"trailing input at position {at}: {tok!r}")
        return result

    def expr(self) -> PeriodicSet:
        acc = self.term()
        while self.peek() in ("|", "\\"):
            op = self.take()
            rhs = self.term()
            acc = acc | rhs if op == "|" else acc - rhs
        return acc

    def term(self) -> PeriodicSet:
        acc = self.factor()
        while self.peek() == "&":
            self.take()
            acc = acc & self.factor()
        return acc

    def factor(self) -> PeriodicSet:
        tok = self.peek()
        if tok == "(":
            self.take()
            inner = self.expr()
            self.take(")")
            return inner
        return self.atom()

    def atom(self) -> PeriodicSet:
        tok = self.take()
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
            self.take("(")
            start = self.take_int()
            self.take(",")
            step = self.take_int()
            self.take(")")
            if step == 0:
                raise SetSpecError("Ray step must be nonzero")
            return PeriodicSet.ray(start, step)
        if tok == "Fin" or tok.startswith("Fin") and tok.endswith("}"):
            return PeriodicSet.finite(self.fin_values(tok))
        raise SetSpecError(f"unknown atom {tok!r}")


def parse(text: str) -> PeriodicSet:
    """Parse a set expression into a canonical PeriodicSet.  An expression
    that needs a tail period, or an lcm of two, above ``algebra.MAX_PERIOD``,
    or a listing above ``algebra.MAX_LISTED``, is malformed."""
    try:
        printed = _parse_printed(text)
        return printed if printed is not None else _Parser(text).parse()
    except LimitError as exc:
        raise SetSpecError(str(exc)) from None


_RAY = re.compile(r"Ray\((-?\d+),(-?\d+)\)")


def _parse_printed(text: str) -> PeriodicSet | None:
    """The set ``text`` denotes if it has the shape ``format_set`` prints,
    else None (and the general parser decides).

    The shape is rays and at most one ``Fin`` list, joined by `` | ``.  When
    the rays of each direction share one period, have distinct residues and
    start within one period of each other, they are exactly that direction's
    tail rule up to the innermost start.  With every ``Fin`` point strictly
    between the innermost starts, the string is then one piecewise
    description, settled once over the listed points.
    """
    sides: tuple[list[int], list[int]] = ([], [])  # descending, ascending starts
    periods: tuple[set[int], set[int]] = (set(), set())
    inside: frozenset[int] | None = None
    try:
        for part in text.split(" | "):
            if part.startswith("Fin{") and part.endswith("}"):
                values = json.loads("[" + part[4:-1] + "]")
                # Every value must be an int, not a bool or a float.
                if inside is not None or not set(map(type, values)) <= {int}:
                    return None
                inside = frozenset(values)
                continue
            m = _RAY.fullmatch(part)
            if m is None:
                return None
            start, step = int(m[1]), int(m[2])
            if step == 0:
                return None
            sides[step > 0].append(start)
            periods[step > 0].add(abs(step))
    except (ValueError, RecursionError):
        return None
    rules = []
    for starts, period_set in zip(sides, periods):
        if not starts:
            rules.append(_ABSENT)
            continue
        if len(period_set) != 1:
            return None
        (period,) = period_set
        residues = frozenset(x % period for x in starts)
        if len(residues) != len(starts) or max(starts) - min(starts) >= period:
            return None
        rules.append((period, residues))
    neg, pos = sides
    inside = inside or frozenset()
    points = sorted(inside)
    # The cuts: the descending rule holds below lo, the ascending one from hi
    # up.  A direction without rays takes its cut from the points, or else
    # from the other cut.
    lo = max(neg) + 1 if neg else points[0] if points else min(pos, default=0)
    hi = min(pos) if pos else points[-1] + 1 if points else lo
    if lo > hi or points and not (lo <= points[0] and points[-1] < hi):
        return None
    return _settle((lo, hi), (rules[0], _ABSENT, rules[1]), points, inside)


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

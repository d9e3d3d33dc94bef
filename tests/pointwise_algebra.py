"""Pointwise reference forms of the set-algebra operations.

These are the original width-proportional implementations: they test
membership one integer at a time over a window widened by both tail
periods.  They are slow but obviously correct, and the differential tests
compare the residue-arithmetic operations of ``limitgames.algebra`` with
them field for field: each returns the canonical form's field tuple.
The member walk (``prefix``, ``iter_universe_order``, ``first_not_in``) is
compared with scans that test one universe rank at a time.
"""

from __future__ import annotations

from itertools import count
from math import lcm
from typing import Callable, Container, Iterator

from limitgames.algebra import PeriodicSet, universe_elem


def minimal_rule(period: int, residues: frozenset[int]) -> tuple[int, frozenset[int]]:
    for cand in range(1, period + 1):
        if period % cand:
            continue
        if all(((r + cand) % period in residues) == (r in residues) for r in range(period)):
            return cand, frozenset(r for r in range(cand) if r in residues)
    return period, residues


ABSENT = (1, frozenset())
PRESENT = (1, frozenset({0}))


def describe_half(
    mem: Callable[[int], bool], first: int, last: int, tail: tuple[int, frozenset[int]]
) -> tuple[tuple[int, frozenset[int]], tuple[int, ...]]:
    """The rule among absent, present and ``tail`` that differs from ``mem``
    at the fewest points of [first, last], ties going to the earlier, with
    those points; every point is tested against every rule."""
    best = ABSENT, ()
    if first > last:
        return best
    fewest = None
    for period, residues in (ABSENT, PRESENT, tail):
        exceptions = tuple(
            x for x in range(first, last + 1) if mem(x) != (x % period in residues)
        )
        if fewest is None or len(exceptions) < fewest:
            best, fewest = ((period, residues), exceptions), len(exceptions)
    return best


def canonicalize(
    neg_period: int,
    neg_residues: frozenset[int],
    lo: int,
    hi: int,
    window: frozenset[int],
    pos_period: int,
    pos_residues: frozenset[int],
) -> tuple:
    """The canonical form's fields, in the order of the differential tests'
    ``fields``: the seven of the listed form (tails, bounds and the window's
    members in increasing order), then each half's rule and exceptions."""
    np_, nr = minimal_rule(neg_period, frozenset(neg_residues))
    pp, pr = minimal_rule(pos_period, frozenset(pos_residues))
    window = frozenset(window)

    def mem(x: int) -> bool:
        if x < lo:
            return x % np_ in nr
        if x > hi:
            return x % pp in pr
        return x in window

    def neg_rule(x: int) -> bool:
        return x % np_ in nr

    def pos_rule(x: int) -> bool:
        return x % pp in pr

    period = lcm(np_, pp)
    rules_differ = any(neg_rule(r) != pos_rule(r) for r in range(period))

    a: int | None = None
    for x in range(lo, hi + 1):
        if mem(x) != neg_rule(x):
            a = x
            break
    if a is None and rules_differ:
        for x in range(hi + 1, hi + 1 + period):
            if pos_rule(x) != neg_rule(x):
                a = x
                break

    b: int | None = None
    for x in range(hi, lo - 1, -1):
        if mem(x) != pos_rule(x):
            b = x
            break
    if b is None and rules_differ:
        for x in range(lo - 1, lo - 1 - period, -1):
            if neg_rule(x) != pos_rule(x):
                b = x
                break

    if a is not None and b is not None and a <= b:
        new_lo, new_hi = a, b
    else:
        c = min(a, 0) if a is not None else 0
        if b is not None:
            c = max(b, c)
        new_lo = new_hi = c

    new_window = tuple(x for x in range(new_lo, new_hi + 1) if mem(x))
    neg_half = describe_half(mem, new_lo, min(new_hi, 0), (np_, nr))
    pos_half = describe_half(mem, max(new_lo, 1), new_hi, (pp, pr))
    return (np_, nr, new_lo, new_hi, new_window, pp, pr, *neg_half, *pos_half)


def combine(a: PeriodicSet, b: PeriodicSet, op: Callable[[bool, bool], bool]) -> tuple:
    np_ = lcm(a.neg_period, b.neg_period)
    pp = lcm(a.pos_period, b.pos_period)
    nr = frozenset(
        r
        for r in range(np_)
        if op(r % a.neg_period in a.neg_residues, r % b.neg_period in b.neg_residues)
    )
    pr = frozenset(
        r
        for r in range(pp)
        if op(r % a.pos_period in a.pos_residues, r % b.pos_period in b.pos_residues)
    )
    lo = min(a.lo, b.lo) - np_
    hi = max(a.hi, b.hi) + pp
    win = frozenset(x for x in range(lo, hi + 1) if op(x in a, x in b))
    return canonicalize(np_, nr, lo, hi, win, pp, pr)


def union(a: PeriodicSet, b: PeriodicSet) -> tuple:
    return combine(a, b, lambda p, q: p or q)


def intersection(a: PeriodicSet, b: PeriodicSet) -> tuple:
    return combine(a, b, lambda p, q: p and q)


def difference(a: PeriodicSet, b: PeriodicSet) -> tuple:
    return combine(a, b, lambda p, q: p and not q)


def complement(s: PeriodicSet) -> tuple:
    nr = frozenset(r for r in range(s.neg_period) if r not in s.neg_residues)
    pr = frozenset(r for r in range(s.pos_period) if r not in s.pos_residues)
    win = frozenset(range(s.lo, s.hi + 1)).difference(s.window)
    return canonicalize(s.neg_period, nr, s.lo, s.hi, win, s.pos_period, pr)


def rank_mask_block(s: PeriodicSet, start_rank: int, count: int) -> int:
    """Membership bits over universe ranks [start_rank, start_rank + count),
    one rank at a time."""
    bits = 0
    for i in range(count):
        if universe_elem(start_rank + i) in s:
            bits |= 1 << i
    return bits


def iter_universe_order(s: PeriodicSet) -> Iterator[int]:
    """Every member in universe order, one rank at a time, stopping after
    the last member of a finite set (counted from the cardinality)."""
    card = s.cardinality()
    if card.is_empty:
        return
    remaining = card.count
    for rank in count(1):
        x = universe_elem(rank)
        if x in s:
            yield x
            if remaining is not None:
                remaining -= 1
                if remaining == 0:
                    return


def prefix(s: PeriodicSet, m: int) -> tuple[int, ...]:
    """Members among the first ``m`` universe elements, one rank at a time."""
    return tuple(x for x in map(universe_elem, range(1, m + 1)) if x in s)


def first_not_in(s: PeriodicSet, seen: Container[int]) -> int | None:
    """The first member, in universe order, outside ``seen``, one rank at a
    time; None if there is none."""
    return next((x for x in iter_universe_order(s) if x not in seen), None)

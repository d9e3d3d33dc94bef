"""Exact algebra of eventually periodic integer sets.

Every language in this package is a subset of the integers that, outside a
finite explicit window, coincides with fixed residue classes on each
unbounded tail.  The representation is canonical, so structural equality
decides set equality, and every query (membership, Boolean combination,
cardinality class, subset) is answered exactly with bounded arithmetic.

Cost model: canonicalization, ``|``, ``&``, ``-`` and ``complement`` do
residue arithmetic on the tails and visit only the listed window members,
so each costs O(listed members of the operands and the result + lcm of the
tail periods), however far apart the window bounds lie.  Reducing a tail to
its minimal period (``_minimal_rule``) costs O(prime factors * residues).
Rank masks (``rank_mask_block``) are built by residue arithmetic too: each
residue class of a tail is one bit progression, and each half of the window
(split at zero) is the progression of a rule chosen once per set XOR the
points it lists against that rule inside the requested range, so a mask
takes O(residues + listed points in range) Python steps plus big-integer
work linear in its width.  ``first_not_in`` over a revealed sample is a
mask scan: chunks of doubling width tested against the sample's rank bit
set, so finding rank r costs O(log r) masks.  ``prefix``,
``iter_universe_order`` and ``first_not_in`` over a predicate or a plain
container still test one rank at a time.

The lcm of the tail periods is bounded: no operation builds a rule whose
period, or the lcm of two periods it compares or combines, exceeds
``MAX_PERIOD``.  Each operation checks this before the work that grows with
the period and raises ``PeriodLimitError`` instead, so a 30-character
expression such as ``Ray(0,100003) | Ray(0,100019)`` fails at once rather
than canonicalizing over an lcm of about 10**10.

The universe is enumerated in zigzag order 0, 1, -1, 2, -2, ...;
``universe_elem`` and ``universe_index`` convert between 1-based ranks and
integers.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import chain
from math import inf, lcm
from typing import Callable, Container, Iterable, Iterator, Protocol, Sequence


# The largest tail period, or lcm of two periods, an operation may build.
MAX_PERIOD = 1 << 16


class PeriodLimitError(ValueError):
    """Raised when an operation would build a period above ``MAX_PERIOD``."""


def _check_period(period: int) -> int:
    if period > MAX_PERIOD:
        raise PeriodLimitError(
            f"a tail period (or lcm of two) of {period} exceeds the limit "
            f"MAX_PERIOD = {MAX_PERIOD}"
        )
    return period


def universe_elem(rank: int) -> int:
    """Return the integer at 1-based position ``rank`` of the zigzag order."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if rank == 1:
        return 0
    half, odd = divmod(rank, 2)
    return half if odd == 0 else -half


def universe_index(value: int) -> int:
    """Return the 1-based zigzag rank of ``value``; inverse of universe_elem."""
    if value == 0:
        return 1
    return 2 * value if value > 0 else 2 * (-value) + 1


class RankedSample(Protocol):
    """A sample that keeps the universe ranks of its members as one bit set:
    bit r - 1 is set when the member of rank r is in it."""

    @property
    def ranks(self) -> int: ...


@dataclass(frozen=True)
class Cardinality:
    """Exact cardinality class of a set: empty, finite with a count, or infinite."""

    kind: str  # "empty" | "finite" | "infinite"
    count: int | None = None

    @staticmethod
    def empty() -> "Cardinality":
        return Cardinality("empty")

    @staticmethod
    def infinite() -> "Cardinality":
        return Cardinality("infinite")

    @staticmethod
    def of_count(n: int) -> "Cardinality":
        if n < 0:
            raise ValueError("negative count")
        return Cardinality("empty") if n == 0 else Cardinality("finite", n)

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"

    @property
    def is_infinite(self) -> bool:
        return self.kind == "infinite"

    @property
    def is_bounded(self) -> bool:
        """True for empty or finite, the cases where no safe stream exists."""
        return self.kind != "infinite"


@dataclass(frozen=True)
class PeriodicSet:
    """An eventually periodic subset of the integers, in canonical form.

    Membership below ``lo`` follows ``neg_residues`` modulo ``neg_period``,
    membership above ``hi`` follows ``pos_residues`` modulo ``pos_period``,
    and inside ``[lo, hi]`` it is listed explicitly in ``window``.

    Instances must be canonical: build them with :meth:`build`, the factory
    helpers below, or Boolean operators, never with the raw constructor.
    Canonical form is unique, so ``==`` decides set equality and instances
    are hashable and safe to share.
    """

    neg_period: int
    neg_residues: frozenset[int]
    lo: int
    hi: int
    window: frozenset[int]
    pos_period: int
    pos_residues: frozenset[int]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def build(
        neg_period: int,
        neg_residues: Iterable[int],
        lo: int,
        hi: int,
        window: Iterable[int],
        pos_period: int,
        pos_residues: Iterable[int],
    ) -> "PeriodicSet":
        """Canonicalize an arbitrary description into a PeriodicSet."""
        nr = frozenset(neg_residues)
        pr = frozenset(pos_residues)
        win = frozenset(window)
        if neg_period < 1 or pos_period < 1:
            raise ValueError("periods must be positive")
        if lo > hi:
            raise ValueError(f"window bounds out of order: [{lo}, {hi}]")
        if nr and not (0 <= min(nr) and max(nr) < neg_period):
            raise ValueError("negative-tail residue out of range")
        if pr and not (0 <= min(pr) and max(pr) < pos_period):
            raise ValueError("positive-tail residue out of range")
        if win and not (lo <= min(win) and max(win) <= hi):
            raise ValueError("window member outside [lo, hi]")
        return _settle(
            (lo, hi + 1),
            ((neg_period, nr), (1, _NONE), (pos_period, pr)),
            sorted(win),
            win,
        )

    @staticmethod
    @cache
    def empty() -> "PeriodicSet":
        return PeriodicSet.build(1, (), 0, 0, (), 1, ())

    @staticmethod
    def finite(values: Iterable[int]) -> "PeriodicSet":
        vals = frozenset(values)
        if not vals:
            return PeriodicSet.empty()
        return PeriodicSet.build(1, (), min(vals), max(vals), vals, 1, ())

    @staticmethod
    def ray(start: int, step: int) -> "PeriodicSet":
        """The arithmetic ray start, start+step, start+2*step, ... (step != 0)."""
        if step == 0:
            raise ValueError("ray step must be nonzero")
        if step > 0:
            return PeriodicSet.build(1, (), start, start, {start}, step, {start % step})
        d = -step
        return PeriodicSet.build(d, {start % d}, start, start, {start}, 1, ())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __contains__(self, x: int) -> bool:
        if x < self.lo:
            return x % self.neg_period in self.neg_residues
        if x > self.hi:
            return x % self.pos_period in self.pos_residues
        return x in self.window

    def cardinality(self) -> Cardinality:
        if self.neg_residues or self.pos_residues:
            return Cardinality.infinite()
        return Cardinality.of_count(len(self.window))

    def issubset(self, other: "PeriodicSet") -> bool:
        return (self - other).cardinality().is_empty

    def __le__(self, other: "PeriodicSet") -> bool:
        return self.issubset(other)

    def __lt__(self, other: "PeriodicSet") -> bool:
        return self != other and self.issubset(other)

    def prefix(self, m: int) -> tuple[int, ...]:
        """Members among the first ``m`` universe elements, in universe order."""
        if m < 0:
            raise ValueError("prefix length must be >= 0")
        return tuple(
            x for x in (universe_elem(i) for i in range(1, m + 1)) if x in self
        )

    def iter_universe_order(self) -> Iterator[int]:
        """Yield every member exactly once, in zigzag universe order.

        Terminates for finite sets, runs forever for infinite ones.
        """
        card = self.cardinality()
        if card.is_empty:
            return
        remaining = card.count
        rank = 1
        while True:
            x = universe_elem(rank)
            if x in self:
                yield x
                if remaining is not None:
                    remaining -= 1
                    if remaining == 0:
                        return
            rank += 1

    def first_not_in(
        self, seen: Callable[[int], bool] | Container[int] | RankedSample
    ) -> int | None:
        """First member (universe order) outside ``seen``; None if exhausted.

        ``seen`` is a predicate, any container, or a sample that keeps its
        members' ranks as a bit set (``RevealedSet``).  A sample is scanned
        in ``rank_mask_block`` chunks of doubling width against that bit
        set, with no Python call per rank.
        """
        ranks = getattr(seen, "ranks", None)
        if ranks is None:
            check = seen if callable(seen) else seen.__contains__
            for x in self.iter_universe_order():
                if not check(x):
                    return x
            return None
        if self.cardinality().is_infinite:
            last: float = inf
        else:
            last = max(universe_index(self.lo), universe_index(self.hi)) if self.window else 0
        start, width = 1, 64
        while start <= last:
            free = self.rank_mask_block(start, width) & ~(ranks >> (start - 1))
            if free:
                return universe_elem(start + (free & -free).bit_length() - 1)
            start += width
            width *= 2
        return None

    def membership_range(self, lo: int, hi: int) -> list[bool]:
        """Membership table for every integer in [lo, hi], inclusive."""
        if lo > hi:
            return []
        np_, nr = self.neg_period, self.neg_residues
        pp, pr = self.pos_period, self.pos_residues
        win = self.window
        left_end = min(hi, self.lo - 1)
        mid_end = min(hi, self.hi)
        out = [x % np_ in nr for x in range(lo, left_end + 1)]
        out += [x in win for x in range(max(lo, self.lo), mid_end + 1)]
        out += [x % pp in pr for x in range(max(lo, self.hi + 1), hi + 1)]
        return out

    def rank_mask_block(self, start_rank: int, count: int) -> int:
        """Bitmask of membership over universe ranks [start_rank, start_rank+count).

        Bit ``i`` is set when universe_elem(start_rank + i) is a member.
        """
        if count <= 0:
            return 0
        end = start_rank + count - 1
        bits = 0
        # Positive x sits at rank 2x and x <= 0 at rank 1 - 2x, so each side
        # of zero is an integer interval whose members lie on one bit stride.
        for a, b, positive in (
            ((start_rank + 1) // 2, end // 2, True),
            (-((end - 1) // 2), -(start_rank // 2), False),
        ):
            if positive:
                a = max(a, 1)
            for first, last, rule, exceptions in self._pieces:
                lo, hi = max(a, first), min(b, last)
                if lo > hi:
                    continue
                bits |= _rule_bits(rule, lo, hi, positive, start_rank)
                for x in exceptions[bisect_left(exceptions, lo) : bisect_right(exceptions, hi)]:
                    bits ^= 1 << ((2 * x if positive else 1 - 2 * x) - start_rank)
        return bits

    @cached_property
    def _pieces(self) -> list[tuple[float, float, Rule, list[int]]]:
        """The line as consecutive intervals, each a rule plus the sorted
        points where membership differs from it: the two tails, and the
        window split at zero (each half described by the cheapest rule)."""
        lo, hi, window = self.lo, self.hi, self.window
        neg_half = pos_half = window
        if lo <= 0 < hi:
            # Split the window at zero, enumerating its narrower side.
            if 1 - lo <= hi:
                neg_half = _members_in(window, lo, 0)
                pos_half = window - neg_half
            else:
                pos_half = _members_in(window, 1, hi)
                neg_half = window - pos_half
        neg_tail = (self.neg_period, self.neg_residues)
        pos_tail = (self.pos_period, self.pos_residues)
        pieces = [(-inf, lo - 1, neg_tail, [])]
        if lo <= 0:
            end = min(hi, 0)
            pieces.append((lo, end, *_describe(neg_half, lo, end, neg_tail)))
        if hi >= 1:
            start = max(lo, 1)
            pieces.append((start, hi, *_describe(pos_half, start, hi, pos_tail)))
        pieces.append((hi + 1, inf, pos_tail, []))
        return pieces

    def span(self) -> int:
        """Crude size measure used for escalation bounds: window plus periods."""
        return (self.hi - self.lo + 1) + self.neg_period + self.pos_period

    # ------------------------------------------------------------------
    # Boolean algebra
    # ------------------------------------------------------------------

    def __or__(self, other: "PeriodicSet") -> "PeriodicSet":
        return _combine(self, other, operator.or_)

    def __and__(self, other: "PeriodicSet") -> "PeriodicSet":
        return _combine(self, other, operator.and_)

    def __sub__(self, other: "PeriodicSet") -> "PeriodicSet":
        return _combine(self, other, operator.sub)

    def complement(self) -> "PeriodicSet":
        """Complement within the full set of integers."""
        return _settle(
            (self.lo, self.hi + 1),
            (
                _negate(self.neg_period, self.neg_residues),
                (1, _ALL),
                _negate(self.pos_period, self.pos_residues),
            ),
            sorted(self.window),
            _NONE,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PeriodicSet(neg={self.neg_period}:{sorted(self.neg_residues)}, "
            f"[{self.lo},{self.hi}]={sorted(self.window)}, "
            f"pos={self.pos_period}:{sorted(self.pos_residues)})"
        )


# ----------------------------------------------------------------------
# Canonicalization
# ----------------------------------------------------------------------
#
# A rule is a pair (period, residues): x follows it when x % period is in
# residues.  The operations below describe their result piecewise: cut
# points split the integers into consecutive pieces, each following one
# rule, except at finitely many listed points whose membership is given
# explicitly.  A window is the rule "absent" with its members listed, so the
# work is proportional to the listed points, the periods and the result,
# never to the distance between the cut points.

_NONE: frozenset[int] = frozenset()
_ALL: frozenset[int] = frozenset({0})

Rule = tuple[int, frozenset[int]]


def _minimal_rule(period: int, residues: frozenset[int]) -> Rule:
    # The shifts that leave the residues invariant are the multiples of the
    # minimal period, so dividing out of the period one prime factor at a
    # time, while the quotient is still such a shift, ends at it.
    best = rest = _check_period(period)
    q = 2
    while rest > 1:
        if q * q > rest:
            q = rest
        if rest % q:
            q += 1
            continue
        while rest % q == 0:
            rest //= q
        while best % q == 0 and all((r + best // q) % period in residues for r in residues):
            best //= q
    return best, residues if best == period else frozenset(r for r in residues if r < best)


def _lift(residues: frozenset[int], period: int, to: int) -> frozenset[int]:
    """The same rule over ``to``, a multiple of ``period``."""
    if period == to:
        return residues
    return frozenset(r + k for k in range(0, to, period) for r in residues)


def _negate(period: int, residues: frozenset[int]) -> Rule:
    return period, frozenset(range(_check_period(period))) - residues


def _rule_at(s: PeriodicSet, x: int) -> Rule:
    """The rule ``s`` follows at ``x``; inside the window, absent."""
    if x < s.lo:
        return s.neg_period, s.neg_residues
    if x > s.hi:
        return s.pos_period, s.pos_residues
    return 1, _NONE


def _first_diff(
    start: int, stop: int | None, step: int, rule: Rule, tail: Rule, skip: list[int]
) -> int | None:
    """First x from ``start`` towards ``stop`` (inclusive, None for no end),
    moving by ``step`` (1 or -1) and passing over the sorted list ``skip``,
    where ``rule`` and ``tail`` disagree; None if there is no such x."""
    (p1, r1), (p2, r2) = rule, tail
    period = _check_period(lcm(p1, p2))
    # The first period is scanned lazily, up to ``stop``; the offsets of the
    # skipped disagreements serve the later periods.
    span = period if stop is None else min(period, (stop - start) * step + 1)
    offsets = []
    for d in range(0, span * step, step):
        x = start + d
        if (x % p1 in r1) != (x % p2 in r2):
            i = bisect_left(skip, x)
            if i == len(skip) or skip[i] != x:
                return x
            offsets.append(d)
    if not offsets:
        return None
    base = start + period * step
    while True:
        for d in offsets:
            x = base + d
            if stop is not None and (x - stop) * step > 0:
                return None
            i = bisect_left(skip, x)
            if i == len(skip) or skip[i] != x:
                return x
        base += period * step


def _rule_members(rule: Rule, lo: int, hi: int) -> Iterable[int]:
    """Members of ``rule`` in [lo, hi], one range per residue."""
    period, residues = rule
    return chain.from_iterable(range(lo + (r - lo) % period, hi + 1, period) for r in residues)


def _members_at(s: PeriodicSet, points: list[int]) -> frozenset[int]:
    """The members of ``s`` among the sorted ``points``."""
    tails: list[int] = []
    if s.neg_residues:
        p, r = s.neg_period, s.neg_residues
        tails += [x for x in points[: bisect_left(points, s.lo)] if x % p in r]
    if s.pos_residues:
        p, r = s.pos_period, s.pos_residues
        tails += [x for x in points[bisect_right(points, s.hi) :] if x % p in r]
    return s.window.union(tails) if tails else s.window


def _violation(
    cuts: Sequence[int],
    rules: Sequence[Rule],
    points: list[int],
    inside: frozenset[int],
    tail: Rule,
    step: int,
) -> int | None:
    """The first point, moving by ``step`` (1: upwards, for the negative
    tail; -1: downwards, for the positive one), whose membership breaks
    ``tail``; None if there is none.  The description is ``_settle``'s.

    Three phases, in this order: the pieces beyond the outermost listed
    point, the listed points from that end, and the pieces within the
    points' span up to the point found.  Beyond the outermost point no point
    needs passing over, so a violation there is found without visiting the
    listed points at all, however many there are."""
    last = len(cuts)
    period, residues = tail
    # The pieces are searched in order from ``begin`` (inclusive) to ``end``
    # (exclusive), None for no bound: first up to the outermost point, then
    # from it up to the first listed point that breaks the rule.
    order = range(1, last + 1) if step == 1 else range(last - 1, -1, -1)
    begin, end = None, (points[0] if step == 1 else points[-1]) if points else None
    while True:
        for i in order:
            # The piece's near end, and its far end (None for a tail).
            if step == 1:
                start, stop = cuts[i - 1], cuts[i] - 1 if i < last else None
            else:
                start, stop = cuts[i] - 1, cuts[i - 1] if i else None
            if end is not None:
                if (start - end) * step >= 0:
                    break
                if stop is None or (stop - end) * step >= 0:
                    stop = end - step
            if rules[i] == tail:
                continue
            if begin is not None and (start - begin) * step < 0:
                if stop is not None and (stop - begin) * step < 0:
                    continue
                start = begin
            x = _first_diff(start, stop, step, rules[i], tail, points)
            if x is not None:
                return x
        if begin is not None or end is None:
            return end
        begin, end = end, None
        for x in points if step == 1 else reversed(points):
            if (x in inside) != (x % period in residues):
                end = x
                break


def _settle(
    cuts: Sequence[int], rules: Sequence[Rule], points: list[int], inside: frozenset[int]
) -> PeriodicSet:
    """Canonical form of a piecewise description.

    ``cuts`` is increasing; piece 0 is everything below ``cuts[0]``, piece i
    is [cuts[i-1], cuts[i]) and the last piece everything from ``cuts[-1]``
    up.  Piece i follows ``rules[i]``, except at the sorted ``points`` (all
    inside [cuts[0], cuts[-1])), where x is a member exactly when it is in
    ``inside``.  Both tail rules are reduced to minimal period and the
    window is placed at the unique tightest position, so equal sets get
    identical field tuples.

    The window runs from the least point that breaks the negative tail's
    rule to the greatest that breaks the positive one's, each found by one
    ``_violation`` search: first beyond the outermost listed point, where no
    point needs passing over, then the points, then the pieces among them.
    """
    np_, nr = _minimal_rule(*rules[0])
    pp, pr = _minimal_rule(*rules[-1])
    a = _violation(cuts, rules, points, inside, (np_, nr), 1)
    b = _violation(cuts, rules, points, inside, (pp, pr), -1)

    if a is not None and b is not None and a <= b:
        lo, hi = a, b
    else:
        # Degenerate case: any single-cell window inside [b, a] works, so
        # anchor it at the point of [b, a] closest to zero.
        c = min(a, 0) if a is not None else 0
        if b is not None:
            c = max(b, c)
        lo = hi = c

    # ``inside`` is a subset of ``points``: keep the part within [lo, hi],
    # then add the rule members of the pieces there, minus the listed points.
    window = inside
    if points and (points[0] < lo or points[-1] > hi):
        window = inside.intersection(points[bisect_left(points, lo) : bisect_right(points, hi)])
    extra: set[int] = set()
    for i, rule in enumerate(rules):
        if rule[1]:
            start = max(cuts[i - 1], lo) if i else lo
            end = min(cuts[i] - 1, hi) if i < len(cuts) else hi
            if start <= end:
                extra.update(_rule_members(rule, start, end))
    if extra:
        extra.difference_update(points)
        window = window.union(extra)
    return PeriodicSet(np_, nr, lo, hi, window, pp, pr)


def _combine(
    a: PeriodicSet,
    b: PeriodicSet,
    op: Callable[[frozenset[int], frozenset[int]], frozenset[int]],
) -> PeriodicSet:
    # ``op`` is a pointwise set operation (|, & or -).  On each piece it
    # combines the operands' rules over the lcm of their periods; at the
    # listed members of either window it combines exact memberships.
    cuts = sorted({a.lo, a.hi + 1, b.lo, b.hi + 1})
    rules = []
    for x in (cuts[0] - 1, *cuts):
        pa, ra = _rule_at(a, x)
        pb, rb = _rule_at(b, x)
        if pa == pb:
            rules.append((pa, op(ra, rb)))
        else:
            period = _check_period(lcm(pa, pb))
            rules.append((period, op(_lift(ra, pa, period), _lift(rb, pb, period))))
    points = sorted(a.window | b.window)
    return _settle(cuts, rules, points, op(_members_at(a, points), _members_at(b, points)))


# One memo of pair differences (true minus harm) for a whole game: the
# scorer (``arena.score_step``, ``arena.judge``), ``reference_safe_generate``
# (so the probes of ``ProbeIdentifier``), ``TelltaleGenerator`` and
# ``ConservativePairGenerator`` all ask for the differences of the same few
# pairs step after step.  A repeated pair returns the same instance, with its
# ``_pieces`` already built.  ``arena.run_game`` and ``arena.rescore_trace``
# clear it when they start, so it holds one game's pairs, not a battery's.
@lru_cache(maxsize=None)
def difference(true_lang: PeriodicSet, harm_lang: PeriodicSet) -> PeriodicSet:
    return true_lang - harm_lang


# ----------------------------------------------------------------------
# Rank masks
# ----------------------------------------------------------------------
#
# In rank order the positive integers and the integers <= 0 interleave, so
# on each side of zero a residue class of a rule is one progression of bits.
# A mask is built from such progressions, one per residue of each piece of
# the line, plus the few points each window half lists against its rule.


def _members_in(members: frozenset[int], a: int, b: int) -> frozenset[int]:
    """The members in [a, b], from whichever of the two is smaller."""
    if b - a < len(members):
        return members.intersection(range(a, b + 1))
    return frozenset(x for x in members if a <= x <= b)


def _describe(members: frozenset[int], a: int, b: int, tail: Rule) -> tuple[Rule, list[int]]:
    """The rule among absent, present and ``tail`` that differs from
    ``members`` at the fewest points of [a, b], with those points sorted.
    Work is proportional to ``members``: a rule whose members in [a, b]
    outnumber them twice over cannot win and is never enumerated."""
    best: tuple[Rule, frozenset[int] | set[int]] = ((1, _NONE), members)
    width = b - a + 1
    if width < 2 * len(members):
        best = ((1, _ALL), set(range(a, b + 1)).difference(members))
    period, residues = tail
    if best[1] and residues and (width // period) * len(residues) <= 2 * len(members):
        exceptions = members.symmetric_difference(_rule_members(tail, a, b))
        if len(exceptions) < len(best[1]):
            best = (tail, exceptions)
    return best[0], sorted(best[1])


def _rule_bits(rule: Rule, a: int, b: int, positive: bool, start: int) -> int:
    """Rank bits, counted from rank ``start``, of the members of ``rule`` in
    [a, b], an interval on one side of zero: each residue class is one
    progression of bits 2 * period apart."""
    period, residues = rule
    step = 2 * period
    bits = 0
    for r in residues:
        if positive:
            x = a + (r - a) % period
            n = (b - x) // period + 1
            shift = 2 * x - start
        else:
            x = b - (b - r) % period
            n = (x - a) // period + 1
            shift = 1 - 2 * x - start
        if n > 0:
            bits |= ((1 << step * n) - 1) // ((1 << step) - 1) << shift
    return bits


# ----------------------------------------------------------------------
# Named languages used throughout the proof-construction scenarios
# ----------------------------------------------------------------------
# Instances are immutable, so each fixed language is built once per process.


@cache
def all_integers() -> PeriodicSet:
    """I: every integer."""
    return PeriodicSet.build(1, {0}, 0, 0, {0}, 1, {0})


@cache
def odd_positives() -> PeriodicSet:
    """O: 1, 3, 5, ..."""
    return PeriodicSet.ray(1, 2)


@cache
def even_nonnegatives() -> PeriodicSet:
    """E: 0, 2, 4, ..."""
    return PeriodicSet.ray(0, 2)


@cache
def negative_integers() -> PeriodicSet:
    """N: -1, -2, -3, ..."""
    return PeriodicSet.ray(-1, -1)


@cache
def naturals() -> PeriodicSet:
    """0, 1, 2, ..."""
    return PeriodicSet.ray(0, 1)


def y_set(a: int) -> PeriodicSet:
    """Grammar atom Y(-a): the block {-a, ..., 0} together with E (a >= 0)."""
    if a < 0:
        raise ValueError("Y parameter must be >= 0")
    return PeriodicSet.finite(range(-a, 1)) | even_nonnegatives()


def q_set(b: int) -> PeriodicSet:
    """Grammar atom Q(-b): every integer <= -b together with O (b >= 1)."""
    if b < 1:
        raise ValueError("Q parameter must be >= 1")
    return PeriodicSet.ray(-b, -1) | odd_positives()

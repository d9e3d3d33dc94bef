"""Exact algebra of eventually periodic integer sets.

Every language in this package is a subset of the integers that, outside a
finite explicit window, coincides with fixed residue classes on each
unbounded tail.  The representation is canonical, so structural equality
decides set equality, and every query (membership, Boolean combination,
cardinality class, subset) is answered exactly with bounded arithmetic.

Cost model: a set is stored as its two tails and, for each half of the
window (split at zero), one rule plus the sorted points that differ from it
(its exceptions), so its size is O(exceptions) however far apart the window
bounds lie.  Canonicalization, ``|``, ``&``, ``-`` and ``complement`` do
residue arithmetic on the pieces (tails and halves) and visit only the
exceptions, so each costs O(exceptions of the operands and the result +
pieces + lcm of the periods).  Membership bisects a half's exceptions and
cardinality counts from the halves.  Reducing a tail to its minimal period
(``_minimal_rule``) costs O(prime factors * residues).  Rank masks
(``rank_mask_block``) are built by residue arithmetic too: each residue
class of a rule is one bit progression, XORed with the exceptions inside
the requested range, so a mask takes O(residues + exceptions in range)
Python steps plus big-integer work linear in its width.  ``prefix``,
``iter_universe_order`` and ``first_not_in`` read one member walk
(``_chunks``): rank masks whose width doubles from 64 up to 2**16 ranks,
and after an empty one a jump, read off the pieces, to the next rank that
can hold a member.  A jump crosses a stretch with no member, by rule or by
exception, in one step, so a far-out member costs a few masks, not a scan
of the ranks before it.
Only ``window``, the listing that printing reads, costs O(members).

Each operation checks a declared limit before the work that grows with it
and raises ``LimitError`` instead:

* ``MAX_PERIOD`` bounds a rule's period, or the lcm of two periods an
  operation compares or combines (``PeriodLimitError``), so a 30-character
  expression such as ``Ray(0,100003) | Ray(0,100019)`` fails at once rather
  than canonicalizing over an lcm of about 10**10;
* ``MAX_LISTED`` bounds the exceptions a window half lists against its
  rule, and the members ``window`` lists: a bounded periodic run such as
  ``O & Ray(1000000000,-1)`` is stored point by point;
* ``MAX_RANK`` bounds the rank that a sample's or a learner's rank mask
  may reach (``check_rank``).

The universe is enumerated in zigzag order 0, 1, -1, 2, -2, ...;
``universe_elem`` and ``universe_index`` convert between 1-based ranks and
integers.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from itertools import accumulate, chain, islice
from math import inf, lcm
from typing import Callable, Iterable, Iterator, Protocol, Sequence


# The largest tail period, or lcm of two periods, an operation may build.
MAX_PERIOD = 1 << 16
# The most points a window half may list against its rule, and the most
# members ``window`` may list.
MAX_LISTED = 1 << 20
# The largest universe rank a rank mask may reach.
MAX_RANK = 1 << 24


class LimitError(ValueError):
    """Raised when an operation would exceed a declared limit."""


class PeriodLimitError(LimitError):
    """Raised when an operation would build a period above ``MAX_PERIOD``."""


def _check_period(period: int) -> int:
    if period > MAX_PERIOD:
        raise PeriodLimitError(
            f"a tail period (or lcm of two) of {period} exceeds the limit "
            f"MAX_PERIOD = {MAX_PERIOD}"
        )
    return period


def _check_listed(count: int) -> None:
    if count > MAX_LISTED:
        raise LimitError(
            f"listing {count} points exceeds the limit MAX_LISTED = {MAX_LISTED}"
        )


def check_rank(rank: int) -> int:
    """``rank``, once it is known to fit a rank mask of ``MAX_RANK`` bits."""
    if rank > MAX_RANK:
        raise LimitError(f"universe rank {rank} exceeds the limit MAX_RANK = {MAX_RANK}")
    return rank


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


# A rule is a pair (period, residues): x follows it when x % period is in
# residues.
Rule = tuple[int, frozenset[int]]

_NONE: frozenset[int] = frozenset()
_ABSENT: Rule = (1, _NONE)
_PRESENT: Rule = (1, frozenset({0}))


@dataclass(frozen=True)
class PeriodicSet:
    """An eventually periodic subset of the integers, in canonical form.

    Membership below ``lo`` follows ``neg_residues`` modulo ``neg_period``,
    and membership above ``hi`` follows ``pos_residues`` modulo
    ``pos_period``.  The window [lo, hi] is split at zero into two halves,
    [lo, min(hi, 0)] and [max(lo, 1), hi].  Each half follows one rule
    (``neg_rule``, ``pos_rule``), except at its sorted exceptions
    (``neg_exceptions``, ``pos_exceptions``), where membership is the
    opposite of the rule's.  An empty half has the rule absent and no
    exceptions.

    The form is canonical: each tail is at its minimal period, lo and hi
    are the outermost points that break the tails' rules, and each half's
    rule is whichever of absent, present and that half's own tail has the
    fewest exceptions, ties going to absent, then present, then the tail.
    Each choice depends only on the set, so ``==`` over these fields decides
    set equality, the hash agrees with it, and instances are safe to share.
    Build them with :meth:`build`, the factory helpers below, or Boolean
    operators, never with the raw constructor.
    """

    neg_period: int
    neg_residues: frozenset[int]
    lo: int
    hi: int
    neg_rule: Rule
    neg_exceptions: tuple[int, ...]
    pos_rule: Rule
    pos_exceptions: tuple[int, ...]
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
        if x <= 0:
            period, residues = self.neg_rule
            exceptions = self.neg_exceptions
        else:
            period, residues = self.pos_rule
            exceptions = self.pos_exceptions
        if exceptions:
            i = bisect_left(exceptions, x)
            if i < len(exceptions) and exceptions[i] == x:
                return x % period not in residues
        return x % period in residues

    def _halves(self) -> list[tuple[int, int, Rule, tuple[int, ...]]]:
        """The non-empty window halves, each as (first, last, rule, exceptions)."""
        halves = []
        if self.lo <= 0:
            halves.append((self.lo, min(self.hi, 0), self.neg_rule, self.neg_exceptions))
        if self.hi >= 1:
            halves.append((max(self.lo, 1), self.hi, self.pos_rule, self.pos_exceptions))
        return halves

    def _parts(self, lo: float, hi: float) -> Iterator[tuple[int, int, Rule, tuple[int, ...]]]:
        """The pieces of the line (the tails and the window halves) that
        meet [lo, hi], cut to it, each a rule plus the exceptions in it."""
        neg, pos = (self.neg_period, self.neg_residues), (self.pos_period, self.pos_residues)
        pieces = [(-inf, self.lo - 1, neg, ()), *self._halves(), (self.hi + 1, inf, pos, ())]
        for first, last, rule, exceptions in pieces:
            a, b = max(lo, first), min(hi, last)
            if a <= b:
                inner = exceptions[bisect_left(exceptions, a) : bisect_right(exceptions, b)]
                yield a, b, rule, inner

    @property
    def window(self) -> tuple[int, ...]:
        """The members in [lo, hi], in increasing order.  Derived on every
        read, at O(members + exceptions) cost, and never stored: printing
        and the canonical-form check read it, the algebra never does."""
        halves = self._halves()
        if self.hi - self.lo >= MAX_LISTED:
            # Wide enough to hold more members than may be listed: count
            # them from the halves first.
            count = 0
            for a, b, rule, exceptions in halves:
                period, residues = rule
                inside = sum(map(residues.__contains__, map(period.__rmod__, exceptions)))
                count += _rule_count(rule, a, b) + len(exceptions) - 2 * inside
            _check_listed(count)
        members: list[int] = []
        for a, b, rule, exceptions in halves:
            # The rule's members between consecutive exceptions, and each
            # exception the rule leaves out.
            for x in (*exceptions, b + 1):
                members += _rule_members(rule, a, x - 1)
                if x <= b and x % rule[0] not in rule[1]:
                    members.append(x)
                a = x + 1
        members.sort()  # a rule of several residues lists one run each
        return tuple(members)

    def cardinality(self) -> Cardinality:
        if self.neg_residues or self.pos_residues:
            return Cardinality.infinite()
        # With both tails empty, each half's rule is absent or present.
        return Cardinality.of_count(
            sum(b - a + 1 - len(e) if r[1] else len(e) for a, b, r, e in self._halves())
        )

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
        return tuple(self._members(m))

    def iter_universe_order(self) -> Iterator[int]:
        """Yield every member exactly once, in zigzag universe order.

        Terminates for finite sets, runs forever for infinite ones.
        """
        return self._members()

    def first_not_in(self, seen: RankedSample) -> int | None:
        """First member (universe order) outside ``seen``, each chunk of the
        walk tested against its rank bit set; None if exhausted."""
        ranks = seen.ranks
        for start, bits in self._chunks():
            free = bits & ~(ranks >> (start - 1))
            if free:
                return universe_elem(start + (free & -free).bit_length() - 1)
        return None

    def _members(self, stop: float = inf) -> Iterator[int]:
        """The members at ranks 1..``stop``, in universe order, read off the
        bits of each chunk of the walk."""
        for start, bits in self._chunks(stop):
            digits = format(bits, "b")[::-1]
            i = digits.find("1")
            while i >= 0:
                yield universe_elem(start + i)
                i = digits.find("1", i + 1)

    def _chunks(self, stop: float = inf) -> Iterator[tuple[int, int]]:
        """The member walk over ranks 1..``stop``: ``(start, rank mask)``
        chunks whose width doubles from 64 up to 2**16 (an 8 KB mask).  After
        an empty chunk it jumps to the next rank that can hold a member, and
        it ends when there is none."""
        start, width = 1, 64
        while start <= stop:
            count = min(start + width, stop + 1) - start
            bits = self.rank_mask_block(start, count)
            yield start, bits
            start += count
            width = min(2 * width, 1 << 16)
            if not bits:
                # On each side of zero, the near end of the first piece whose
                # rule has residues, or else the first exception (a member)
                # of one whose rule has none.
                up = (p for p in self._parts(max((start + 1) // 2, 1), inf) if p[2][1] or p[3])
                down = (p for p in reversed([*self._parts(-inf, -(start // 2))]) if p[2][1] or p[3])
                near = [universe_index(a if r[1] else e[0]) for a, _, r, e in islice(up, 1)]
                near += [universe_index(b if r[1] else e[-1]) for _, b, r, e in islice(down, 1)]
                if not near:
                    return
                start = min(near)

    def membership_range(self, lo: int, hi: int) -> list[bool]:
        """Membership table for every integer in [lo, hi], inclusive."""
        table: list[bool] = []
        for a, b, (period, residues), exceptions in self._parts(lo, hi):
            # One period of the rule from a, repeated over [a, b].
            cycle = [x % period in residues for x in range(a, min(a + period, b + 1))]
            part = (cycle * ((b - a) // period + 1))[: b - a + 1]
            for x in exceptions:
                part[x - a] = not part[x - a]
            table += part
        return table

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
            (max((start_rank + 1) // 2, 1), end // 2, True),
            (-((end - 1) // 2), -(start_rank // 2), False),
        ):
            for lo, hi, rule, exceptions in self._parts(a, b):
                bits |= _rule_bits(rule, lo, hi, positive, start_rank)
                for x in exceptions:
                    bits ^= 1 << ((2 * x if positive else 1 - 2 * x) - start_rank)
        return bits

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
        return _combine(all_integers(), self, operator.sub)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PeriodicSet(" + ", ".join(
            f"[{a},{b}]={p}:{sorted(r)} except {list(e)}"
            for a, b, (p, r), e in self._parts(-inf, inf)
        ) + ")"


# ----------------------------------------------------------------------
# Canonicalization
# ----------------------------------------------------------------------
#
# The operations below describe their result piecewise: cut points split
# the integers into consecutive pieces, each following one rule, except at
# finitely many listed points whose membership is given explicitly.  An
# operand contributes its tails and window halves as pieces and its
# exceptions as points, so the work is proportional to the listed points,
# the pieces and the periods, never to the distance between the cut points.


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
    return frozenset(chain.from_iterable(range(r, to, period) for r in residues))


def _pointwise(
    op: Callable[[frozenset[int], frozenset[int]], frozenset[int]], a: Rule, b: Rule
) -> Rule:
    """``op`` (|, &, - or ^) applied pointwise to two rules, over the lcm of
    their periods; a rule with no residue, or with all of them, comes back
    as absent or present."""
    (pa, ra), (pb, rb) = a, b
    if pa == pb:
        period, residues = pa, op(ra, rb)
    else:
        period = _check_period(lcm(pa, pb))
        residues = op(_lift(ra, pa, period), _lift(rb, pb, period))
    if not residues:
        return _ABSENT
    return _PRESENT if len(residues) == period else (period, residues)


def _rule_at(s: PeriodicSet, x: int) -> Rule:
    """The rule ``s`` follows at ``x``, but for its exceptions."""
    if x < s.lo:
        return s.neg_period, s.neg_residues
    if x > s.hi:
        return s.pos_period, s.pos_residues
    return s.neg_rule if x <= 0 else s.pos_rule


def _cuts(s: PeriodicSet) -> tuple[int, ...]:
    """Where ``s`` changes from one tail or half to the next."""
    return (s.lo, 1, s.hi + 1) if s.lo <= 0 < s.hi else (s.lo, s.hi + 1)


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


def _rule_count(rule: Rule, lo: int, hi: int) -> int:
    """The number of members of ``rule`` in [lo, hi]."""
    period, residues = rule
    return sum((hi - r) // period - (lo - 1 - r) // period for r in residues)


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
    ``inside``.  Both tail rules are reduced to minimal period, the window
    is placed at the unique tightest position and each half is described by
    ``_half``'s choice, so equal sets get identical field tuples.

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

    neg_rule, neg_exceptions = pos_rule, pos_exceptions = _ABSENT, ()
    if lo <= 0:
        neg_rule, neg_exceptions = _half(cuts, rules, points, inside, lo, min(hi, 0), (np_, nr))
    if hi >= 1:
        pos_rule, pos_exceptions = _half(cuts, rules, points, inside, max(lo, 1), hi, (pp, pr))
    return PeriodicSet(np_, nr, lo, hi, neg_rule, neg_exceptions, pos_rule, pos_exceptions, pp, pr)


def _half(
    cuts: Sequence[int],
    rules: Sequence[Rule],
    points: list[int],
    inside: frozenset[int],
    first: int,
    last: int,
    tail: Rule,
) -> tuple[Rule, tuple[int, ...]]:
    """The rule among absent, present and ``tail`` that differs from
    ``_settle``'s description at the fewest points of [first, last], ties
    going to the earlier, with those points sorted.

    Each rule's count is residue arithmetic per piece, corrected at the
    listed points, and only the winner's points are listed, so the work is
    O(pieces + lcm of the periods + listed points + the answer)."""
    # The pieces meeting [first, last], each with the listed points at
    # which membership differs from the piece's rule (its flips).  Absent
    # misstates the members and present the rest; a flip is a member
    # exactly when the piece's rule leaves it out.
    parts = []
    members = 0
    i = bisect_right(cuts, first)
    start = first
    while start <= last:
        end = last if i == len(cuts) else min(cuts[i] - 1, last)
        period, residues = rule = rules[i]
        listed = points[bisect_left(points, start) : bisect_right(points, end)]
        if residues:
            flips = {x for x in listed if (x in inside) != (x % period in residues)}
        else:
            # Absent flips at the listed members: a decoded listing, or
            # the window of ``build``, costs one set intersection.
            flips = inside.intersection(listed)
        members += _rule_count(rule, start, end) + len(flips) - 2 * len(flips - inside)
        parts.append((start, end, rule, flips))
        start, i = end + 1, i + 1
    width = last - first + 1
    best, fewest = (_ABSENT, members) if 2 * members <= width else (_PRESENT, width - members)
    if fewest and tail[0] > 1:
        # The tail misstates a part's points where it differs from the
        # piece's rule (their XOR), but for the flips.
        count = 0
        for start, end, piece, flips in parts:
            period, residues = diff = _pointwise(operator.xor, piece, tail)
            count += _rule_count(diff, start, end) + len(flips)
            count -= 2 * sum(map(residues.__contains__, map(period.__rmod__, flips)))
        if count < fewest:
            best, fewest = tail, count
    _check_listed(fewest)
    if not fewest:
        return best, ()
    exceptions: set[int] = set()
    for start, end, piece, flips in parts:
        diff = _pointwise(operator.xor, piece, best)
        exceptions.update(flips.symmetric_difference(_rule_members(diff, start, end)))
    return best, tuple(sorted(exceptions))


def _combine(
    a: PeriodicSet,
    b: PeriodicSet,
    op: Callable[[frozenset[int], frozenset[int]], frozenset[int]],
) -> PeriodicSet:
    # ``op`` is a pointwise set operation (|, & or -).  On each piece it
    # combines the operands' rules over the lcm of their periods; at the
    # exceptions of either operand it combines exact memberships.
    cuts = sorted({*_cuts(a), *_cuts(b)})
    rules = [_pointwise(op, _rule_at(a, x), _rule_at(b, x)) for x in (cuts[0] - 1, *cuts)]
    points = sorted({*a.neg_exceptions, *a.pos_exceptions, *b.neg_exceptions, *b.pos_exceptions})
    inside = op(_members_at(a, points), _members_at(b, points)) if points else _NONE
    return _settle(cuts, rules, points, inside)


def ray_union(rays: Sequence[tuple[int, int]], points: Iterable[int]) -> PeriodicSet:
    """The union of the rays ``(start, step)`` (as in ``PeriodicSet.ray``) and
    the finite set ``points``, canonicalized once.

    A ray up from s with period d is exactly its residue class from any cut
    in (s - d, s], and a ray down from s below any cut in (s, s + d].  So the
    rays of each direction share one cut while they start within one period
    of it (``_shared_cuts``), each cut's rays give one rule, and each piece
    follows the union of the rules of the cuts that cover it, swept in from
    each end.  The rays ``format_set`` prints share one cut per direction, so
    a printed set settles over at most four cuts in O(period)."""
    if not all(step for _, step in rays):
        raise ValueError("ray step must be nonzero")
    inside = frozenset(points)
    listed = sorted(inside)
    up = _shared_cuts(sorted((start, step, start % step) for start, step in rays if step > 0))
    # A descending ray is grouped as its mirror image, up from -start.
    mirrored = sorted((-start, -step, start % -step) for start, step in rays if step < 0)
    down = [(1 - at, rule) for at, rule in _shared_cuts(mirrored)]
    # The points lie between the outer cuts.
    cuts = {at for at, _ in up} | {at for at, _ in down}
    if listed:
        cuts |= {min([listed[0], *cuts]), max([listed[-1] + 1, *cuts])}
    cuts = sorted(cuts)
    ups, downs = [_ABSENT] * (len(cuts) + 1), [_ABSENT] * (len(cuts) + 1)
    for at, rule in up:
        ups[bisect_left(cuts, at) + 1] = rule
    for at, rule in down:
        downs[bisect_left(cuts, at)] = rule
    downs = [*accumulate(reversed(downs), _union)][::-1]
    return _settle(cuts, list(map(_union, accumulate(ups, _union), downs)), listed, inside)


def _shared_cuts(rays: list[tuple[int, int, int]]) -> list[tuple[int, Rule]]:
    """The ascending rays ``(start, period, residue)``, sorted by start,
    grouped from the lowest start up: a ray joins the group of the last cut
    when it starts less than one period above it, else it opens a cut at its
    start.  Each cut with the union of its rays' residue classes, gathered
    per period first."""
    groups: list[tuple[int, dict[int, set[int]]]] = []
    for start, period, residue in rays:
        if not groups or start - groups[-1][0] >= period:
            groups.append((start, {}))
        groups[-1][1].setdefault(period, set()).add(residue)
    return [
        (at, reduce(_union, [(_check_period(p), frozenset(r)) for p, r in sorted(by_period.items())]))
        for at, by_period in groups
    ]


def _union(a: Rule, b: Rule) -> Rule:
    return b if a is _ABSENT else a if b is _ABSENT else _pointwise(operator.or_, a, b)


def _members_at(s: PeriodicSet, points: list[int]) -> frozenset[int]:
    """The members of ``s`` among the sorted ``points``, which hold all of
    its exceptions: each piece's rule tested at the points, then XORed with
    its exceptions."""
    members: set[int] = set()
    for a, b, (period, residues), exceptions in s._parts(points[0], points[-1]):
        listed = points[bisect_left(points, a) : bisect_right(points, b)]
        members.update(x for x in listed if x % period in residues)
        members.symmetric_difference_update(exceptions)
    return frozenset(members)


# One memo of pair differences (true minus harm) for a whole game: the
# scorer (``arena.score_step``, ``arena.judge``), ``reference_safe_generate``
# (so the probes of ``ProbeIdentifier``), ``TelltaleGenerator``,
# ``ConservativePairGenerator`` and ``PhasedInjectionAdversary`` all ask for
# the differences of the same few pairs step after step.  A repeated pair
# returns the same instance.  The arena's referee clears it when a game or a
# replay starts, so it holds one game's pairs, not a battery's.
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
    return PeriodicSet.ray(-a, 1) - odd_positives()


def q_set(b: int) -> PeriodicSet:
    """Grammar atom Q(-b): every integer <= -b together with O (b >= 1)."""
    if b < 1:
        raise ValueError("Q parameter must be >= 1")
    return PeriodicSet.ray(-b, -1) | odd_positives()

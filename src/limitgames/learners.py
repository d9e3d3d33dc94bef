"""Learner algorithms for the generation and identification games.

Two families of learners live here:

* plain functions (``conservative_pair_generate``, ``identify_with_probes``,
  ...) that recompute everything from the revealed sample each step,
  written in the most direct form; they are the reference oracles; and
* the game-facing classes.  Every one that does more than constant work a
  step is stateful: it keeps its consistent candidates as rank masks from
  step to step (``_SideTracker``), so a step costs the new examples and the
  candidates they touch, not a pass over all t examples.
  ``ConservativePairGenerator`` escalates the cutoff over drop points (with
  no harm collection it is the critical-language generator);
  ``NaiveIdentifier`` reads the first live candidate; ``TelltaleGenerator``
  tests telltales as rank masks; ``ProbeIdentifier`` keeps every compared
  pair's probe sample and extends it by one word per side a step.  The
  classes produce the same outputs as the functions; tests pin that
  equivalence step by step.

Generation learners pick candidates by finite-prefix evidence: a candidate
is *critical* at cutoff m when its m-prefix is contained in the m-prefix of
every earlier consistent candidate (the "smallest" consistent guess), and
*dually critical* when its m-prefix contains all earlier consistent
prefixes (the "largest" guess, used for harm hypotheses).

Both properties are monotone in the cutoff.  Candidate i is critical at
cutoff m exactly when m < drop(i), where drop(i) is the rank of the first
member of i missing from some earlier consistent candidate (dually: the
first member of some earlier candidate that i lacks).  The stateful classes
keep the rank masks of their consistent candidates at one shared length,
each stored as its difference from the first one, the base: the base ranks
it misses and the ranks it has beyond the base.  A candidate is admitted
with one mask test against the side's sampled ranks.  A new example inside
the base kills the candidates that miss it, found among those whose
difference starts at or below its rank; one outside the base kills the
base, which costs one rebase.  The choice at cutoff m is the highest
candidate whose drop point exceeds it; as m grows it only moves down, and
only at drop points.  It is found from the candidates whose difference
starts at or below m, with the drop point read off the few that can set
it, and only the chosen candidate's full mask is built.  The escalation is
a walk over cutoffs: emit the choice's lowest unseen rank when that comes
before its drop point, else jump the cutoff to the drop point, and double
the masks' length when neither lies within them.  The doubling may take the
masks past the escalation bound, to less than twice it; the walk compares
every rank and drop point with the bound, so what lies beyond it is never
emitted.  A game whose chosen difference stays empty (the bound rising with
t) then lengthens its masks about log t times, not every step.  On the
diagonal trap almost every candidate equals the base within the masks, so
a step there visits a few candidates, not every live one.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import islice
from math import inf
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Protocol, TypeVar

from .algebra import (
    MAX_RANK, Cardinality, PeriodicSet, check_rank, difference, universe_elem, universe_index,
)
from .families import (
    LabeledExample,
    LanguageCollection,
    MissingTelltaleError,
    RevealedSet,
    consistent_indices,
    is_consistent_harm,
    is_consistent_true,
)


@dataclass(frozen=True)
class LearnerOutput:
    """One learner move: an unseen-word guess, bottom, or a collection index."""

    kind: str  # "generate" | "bottom" | "index"
    value: int | None = None

    @staticmethod
    def generate(word: int) -> "LearnerOutput":
        return LearnerOutput("generate", word)

    @staticmethod
    def bottom() -> "LearnerOutput":
        return LearnerOutput("bottom")

    @staticmethod
    def index(i: int) -> "LearnerOutput":
        return LearnerOutput("index", i)

    @property
    def is_generate(self) -> bool:
        return self.kind == "generate"

    @property
    def is_bottom(self) -> bool:
        return self.kind == "bottom"

    @property
    def is_index(self) -> bool:
        return self.kind == "index"


class Learner(Protocol):
    def step(self, revealed: RevealedSet, t: int) -> LearnerOutput: ...


# A pluggable safe-generation subroutine: explicit hypothesis pair plus a
# labeled sample in, one move out.  A probe's sample holds the first t
# members of each hypothesis in universe order (t the game step),
# interleaved true word then harm word.  ``ProbeIdentifier`` passes the same
# sample object again at later steps, extended in place, so ``sg`` must not
# mutate it.
SgSubroutine = Callable[[PeriodicSet, PeriodicSet, RevealedSet], LearnerOutput]


# ----------------------------------------------------------------------
# Reference generator (exact oracle backed)
# ----------------------------------------------------------------------


def reference_safe_generate(
    true_hyp: PeriodicSet,
    harm_hyp: PeriodicSet,
    revealed: RevealedSet,
    *,
    strict: bool = True,
) -> LearnerOutput:
    """Safe generation for an explicit hypothesis pair.

    Infinite difference: emit its first unseen element.  Otherwise emit
    bottom (strict mode) or an arbitrary fixed word (relaxed mode).
    """
    diff = difference(true_hyp, harm_hyp)
    if diff.cardinality().is_infinite:
        word = diff.first_not_in(revealed)
        if word is None:
            raise RuntimeError("an infinite difference has no unseen member")
        return LearnerOutput.generate(word)
    return LearnerOutput.bottom() if strict else LearnerOutput.generate(universe_elem(1))


def relaxed_reference_sg(
    true_hyp: PeriodicSet, harm_hyp: PeriodicSet, revealed: RevealedSet
) -> LearnerOutput:
    return reference_safe_generate(true_hyp, harm_hyp, revealed, strict=False)


class ReferenceGenerator:
    """Game-facing wrapper around reference_safe_generate with fixed hypotheses."""

    def __init__(self, true_hyp: PeriodicSet, harm_hyp: PeriodicSet, *, strict: bool = True):
        self.true_hyp = true_hyp
        self.harm_hyp = harm_hyp
        self.strict = strict

    def step(self, revealed: RevealedSet, t: int) -> LearnerOutput:
        return reference_safe_generate(
            self.true_hyp, self.harm_hyp, revealed, strict=self.strict
        )


# ----------------------------------------------------------------------
# Criticality on finite prefixes, functional forms
# ----------------------------------------------------------------------


def is_critical(
    coll: LanguageCollection, revealed: RevealedSet, n: int, t: int, m: int
) -> bool:
    """Is candidate n critical at cutoff m among the first t candidates?

    Requires true-side consistency plus prefix containment in every earlier
    consistent candidate.
    """
    if n > t:
        return False
    lang = coll.at(n)
    if not is_consistent_true(lang, revealed):
        return False
    pm = set(lang.prefix(m))
    for j in range(1, n):
        other = coll.at(j)
        if is_consistent_true(other, revealed) and not pm <= set(other.prefix(m)):
            return False
    return True


def _escalation_bound(m0: int, t: int, spans: Iterable[int]) -> int:
    span = max(spans, default=1)
    return m0 + (t + 4) * (span + 4) + 1024


def conservative_pair_generate(
    coll_true: LanguageCollection,
    coll_harm: LanguageCollection | None,
    revealed: RevealedSet,
    t: int,
    *,
    strict: bool = True,
    log: list[ChoiceRecord] | None = None,
) -> LearnerOutput:
    """Smallest consistent true candidate versus largest consistent harm one.

    Under the all-pairs-infinite-difference promise the escalation always
    finds an unseen element of the chosen difference.  Without the promise
    the chosen difference can be empty; the search then exhausts its bound
    and the learner gives up with bottom (or an arbitrary word when relaxed).
    With ``coll_harm`` None there is no harm side: the choice is the highest
    critical true candidate, the critical-language generator of plain
    generation in the limit.
    ``log``, when given, receives the step's record, as the ``choice_log``
    of ``ConservativePairGenerator`` does.  It exists only so differential
    tests can compare the two logs, and selects no behaviour.
    """
    cons_k = consistent_indices(coll_true, revealed, t, "true")
    cons_h = [] if coll_harm is None else consistent_indices(coll_harm, revealed, t, "harm")
    record = log.append if log is not None else lambda rec: None
    if not cons_k:
        record(ChoiceRecord(t, None, None, None, "generate"))
        return LearnerOutput.generate(universe_elem(1))
    seen = revealed.pos | revealed.neg
    spans = [coll_true.at(i).span() for i in cons_k] + [
        coll_harm.at(i).span() for i in cons_h
    ]
    m = max((universe_index(x) for x in seen), default=1)
    bound = _escalation_bound(m, t, spans)
    kc = hc = None
    while m <= bound:
        kc = _primal_best_sets(coll_true, cons_k, m)
        hc = _dual_best_sets(coll_harm, cons_h, m)
        k_lang = coll_true.at(kc)
        h_lang = coll_harm.at(hc) if hc is not None else None
        for rank in range(1, m + 1):
            x = universe_elem(rank)
            if x in k_lang and (h_lang is None or x not in h_lang) and x not in seen:
                record(ChoiceRecord(t, kc, hc, None, "generate"))
                return LearnerOutput.generate(x)
        m += 1
    if kc is None:
        raise RuntimeError("the cutoff escalation chose no true candidate")
    diff = coll_true.at(kc) - (
        coll_harm.at(hc) if hc is not None else PeriodicSet.empty()
    )
    if diff.cardinality().is_infinite:
        raise RuntimeError("escalation bound hit while the difference is infinite")
    record(ChoiceRecord(t, kc, hc, diff.cardinality(), "give_up"))
    return LearnerOutput.bottom() if strict else LearnerOutput.generate(universe_elem(1))


def _primal_best_sets(coll: LanguageCollection, cons: list[int], m: int) -> int | None:
    best = None
    inter: set[int] | None = None
    for i in cons:
        pm = set(coll.at(i).prefix(m))
        if inter is None or pm <= inter:
            best = i
        inter = pm if inter is None else inter & pm
    return best


def _dual_best_sets(coll: LanguageCollection, cons: list[int], m: int) -> int | None:
    best = None
    union: set[int] = set()
    for i in cons:
        pm = set(coll.at(i).prefix(m))
        if union <= pm:
            best = i
        union |= pm
    return best


# ----------------------------------------------------------------------
# Subset probing and ordered insertion
# ----------------------------------------------------------------------


def _probe_one(
    k_lang: PeriodicSet, h_lang: PeriodicSet, t: int, sg: SgSubroutine
) -> int:
    # Feed the subroutine a fresh labeled enumeration (t words per side,
    # true word then harm word).
    probe = RevealedSet()
    k_iter = k_lang.iter_universe_order()
    h_iter = h_lang.iter_universe_order()
    for _ in range(t):
        kx = next(k_iter, None)
        if kx is not None:
            probe.add(LabeledExample(kx, 1))
        hx = next(h_iter, None)
        if hx is not None:
            probe.add(LabeledExample(hx, 0))
    return _sg_hits(k_lang, h_lang, probe, sg)


def _sg_hits(
    k_lang: PeriodicSet, h_lang: PeriodicSet, probe: RevealedSet, sg: SgSubroutine
) -> int:
    # Check the subroutine's output with the membership oracles: did it
    # produce an element of k_lang \ h_lang?
    out = sg(k_lang, h_lang, probe)
    return 1 if out.is_generate and out.value in k_lang and out.value not in h_lang else 0


def subset_probe(
    left: PeriodicSet,
    right: PeriodicSet,
    revealed: RevealedSet,
    sg: SgSubroutine | None = None,
) -> tuple[int, int]:
    """Classify the pair by two generation attempts.

    Bit one: could the subroutine produce an element of left minus right?
    Bit two: of right minus left?  The four patterns separate proper subset
    (01 / 10), equality (00) and incomparability or disjointness (11).
    """
    sub = sg or relaxed_reference_sg
    t = revealed.step
    return (_probe_one(left, right, t, sub), _probe_one(right, left, t, sub))


def order_consistent(
    entries: list[tuple[int, PeriodicSet]],
    revealed: RevealedSet,
    sg: SgSubroutine | None = None,
) -> list[tuple[int, PeriodicSet]]:
    """Insertion-order the consistent list so subsets precede supersets.

    Entries are (collection index, language).  Each language is appended in
    ascending index order and bubbles left until the probe reports that its
    left neighbour cannot generate outside it, which means the neighbour is
    contained in it (or equal) and must stay left.
    """
    sub = sg or relaxed_reference_sg
    t = revealed.step
    return _insertion_order(
        sorted(entries, key=lambda e: e[0]),
        lambda left, right: _probe_one(left[1], right[1], t, sub),
    )


_E = TypeVar("_E")


def _insertion_order(entries: list[_E], left_generates: Callable[[_E, _E], int]) -> list[_E]:
    """Append each entry in turn and bubble it left while its left neighbour
    can generate outside it."""
    out: list[_E] = []
    for entry in entries:
        out.append(entry)
        j = len(out) - 1
        while j >= 1 and left_generates(out[j - 1], out[j]):
            out[j - 1], out[j] = out[j], out[j - 1]
            j -= 1
    return out


def identify_with_probes(
    coll: LanguageCollection,
    revealed: RevealedSet,
    t: int,
    sg: SgSubroutine | None = None,
) -> LearnerOutput:
    """Guess the index of the left-most consistent language after ordering.

    With a correct generation subroutine the ordered list keeps strict
    subsets left of their supersets and equal languages in index order, so
    in the limit the head is the smallest index of the enumerated language.
    """
    entries = [(i, coll.at(i)) for i in consistent_indices(coll, revealed, t, "true")]
    if not entries:
        return LearnerOutput.index(1)
    ordered = order_consistent(entries, revealed, sg)
    return LearnerOutput.index(ordered[0][0])


def naive_identify(
    coll: LanguageCollection, revealed: RevealedSet, t: int
) -> LearnerOutput:
    """Baseline: the first consistent index, which supersets keep forever."""
    limit = coll.candidate_count(t)
    for i in range(1, limit + 1):
        if is_consistent_true(coll.at(i), revealed):
            return LearnerOutput.index(i)
    return LearnerOutput.index(1)


# ----------------------------------------------------------------------
# Telltale-identification generator
# ----------------------------------------------------------------------


def telltale_safe_generate(
    coll_true: LanguageCollection,
    coll_harm: LanguageCollection,
    revealed: RevealedSet,
    t: int,
    *,
    strict: bool = True,
) -> LearnerOutput:
    """Identify both sides by covered telltales, then consult the difference.

    Identification picks the first consistent index whose telltale is fully
    revealed on its side.  Once both sides are identified the exact
    difference decides between generation and bottom.  While either side is
    unidentified the learner emits a conservative word, never bottom.
    """
    k_hat = _identify_by_telltale(coll_true, revealed, t, "true")
    h_hat = _identify_by_telltale(coll_harm, revealed, t, "harm")
    if k_hat is not None and h_hat is not None:
        return reference_safe_generate(
            coll_true.at(k_hat), coll_harm.at(h_hat), revealed, strict=strict
        )
    # Conservative fallback while identification is incomplete.
    cons_k = consistent_indices(coll_true, revealed, t, "true")
    if not cons_k:
        return LearnerOutput.generate(universe_elem(1))
    cons_h = consistent_indices(coll_harm, revealed, t, "harm")
    seen = revealed.pos | revealed.neg
    m = max((universe_index(x) for x in seen), default=1)
    kc = _primal_best_sets(coll_true, cons_k, m)
    hc = _dual_best_sets(coll_harm, cons_h, m)
    if kc is None:
        raise RuntimeError("no critical candidate among the consistent ones")
    k_lang = coll_true.at(kc)
    diff = k_lang - (coll_harm.at(hc) if hc is not None else PeriodicSet.empty())
    word = diff.first_not_in(revealed)
    if word is None:
        word = k_lang.first_not_in(revealed)
        if word is None:
            raise RuntimeError("an infinite candidate has no unseen member")
    return LearnerOutput.generate(word)


def _identify_by_telltale(
    coll: LanguageCollection, revealed: RevealedSet, t: int, side: str
) -> int | None:
    sample = revealed.pos if side == "true" else revealed.neg
    check = is_consistent_true if side == "true" else is_consistent_harm
    limit = coll.candidate_count(t)
    for i in range(1, limit + 1):
        try:
            tell = coll.telltale(i)
        except MissingTelltaleError:
            continue
        if tell <= sample and check(coll.at(i), revealed):
            return i
    return None


# ----------------------------------------------------------------------
# Drop-point escalation shared by the stateful generators
# ----------------------------------------------------------------------


def _lowest(bits: int) -> float:
    """The lowest rank in a rank bit set; inf when it is empty."""
    return (bits & -bits).bit_length() if bits else inf


_INDEX = attrgetter("index")
_MAX_SPAN = attrgetter("max_span")


class _Candidate:
    """A live candidate: its collection index and language, and its rank
    mask as a difference from its side's base (see ``_SideTracker``):
    ``need`` and ``bad`` with their lowest ranks (inf when empty)."""

    __slots__ = ("index", "lang", "need", "bad", "lo_need", "lo_bad")

    def __init__(self, index: int, lang: PeriodicSet):
        self.index = index
        self.lang = lang
        self.need = self.bad = 0
        self.lo_need = self.lo_bad = inf


class _SideTracker:
    """Live (consistent) candidates of one collection side, in index order,
    with their rank masks at the shared length ``length``.

    ``label`` is the side's example label: 1 for the true side, whose choice
    is the critical candidate, and 0 for the harm side, whose choice is the
    dually critical one.  ``sample`` holds the ranks of the side's revealed
    elements, so a new candidate is admitted with one mask test.

    Only the first live candidate, the base, keeps its mask (``base``);
    every other one keeps the ranks where it differs from the base.  On the
    true side ``need`` is the base ranks it misses and ``bad`` the ranks it
    has beyond the base; on the harm side the two swap.  A candidate is then
    critical (on the harm side, dually critical) at cutoff m exactly when
    its ``bad`` has no rank <= m and its ``need`` holds every rank <= m
    that the ``need`` of an earlier candidate holds.  The candidates
    with a nonempty ``need`` (``bad``) are also kept ordered by its lowest
    rank, so that a cutoff m or a new example of rank r reaches only those
    whose difference starts at or below it.
    """

    def __init__(self, coll: LanguageCollection, label: int):
        self.coll = coll
        self.label = label
        self.live: list[_Candidate] = []
        self.base = 0
        # (lowest rank, index, candidate), ascending.
        self._by_need: list[tuple[int, int, _Candidate]] = []
        self._by_bad: list[tuple[int, int, _Candidate]] = []
        # The last choice: (cutoff, candidate, drop point).  It stays the
        # choice up to its drop point until a candidate is admitted or
        # dies, or the masks grow past an infinite drop point.
        self._last: tuple[int, _Candidate, float] | None = None
        self.sample = 0
        self.admitted = 0
        self.max_span = 1
        self.length = 0

    def mask(self, c: _Candidate) -> int:
        """The full rank mask of a live candidate."""
        if self.label:
            return (self.base & ~c.need) | c.bad
        return (self.base & ~c.bad) | c.need

    def _extend(self, c: _Candidate, miss: int, extra: int, shift: int) -> None:
        """Add the base ranks ``c`` misses and the ranks it has beyond the
        base, both as bits from rank ``shift`` + 1 on, to its difference;
        file it in the orders where that difference was empty."""
        need, bad = (miss, extra) if self.label else (extra, miss)
        # The new ranks lie above the old ones, so a lowest rank changes
        # only when the difference was empty.
        if need:
            if not c.need:
                c.lo_need = shift + _lowest(need)
                insort(self._by_need, (c.lo_need, c.index, c))
            c.need |= need << shift
        if bad:
            if not c.bad:
                c.lo_bad = shift + _lowest(bad)
                insort(self._by_bad, (c.lo_bad, c.index, c))
            c.bad |= bad << shift

    def _remove(self, c: _Candidate) -> None:
        del self.live[bisect_left(self.live, c.index, key=_INDEX)]
        if c.need:
            del self._by_need[bisect_left(self._by_need, (c.lo_need, c.index))]
        if c.bad:
            del self._by_bad[bisect_left(self._by_bad, (c.lo_bad, c.index))]

    def kill(self, new: int) -> list[_Candidate]:
        """Remove the live candidates whose masks lack a rank in ``new`` (the
        masks must already cover every one); returns them."""
        if not new or not self.live:
            return []
        if new & self.base != new:
            # The base lacks a new rank, so it dies: rebase on the first
            # survivor, recomputing every difference.
            self._last = None
            masks = [(c, self.mask(c)) for c in self.live]
            keep = [(c, mask) for c, mask in masks if mask & new == new]
            self.live = [c for c, _ in keep]
            self.base = keep[0][1] if keep else 0
            self._by_need.clear()
            self._by_bad.clear()
            for c, mask in keep:
                c.need = c.bad = 0
                c.lo_need = c.lo_bad = inf
                self._extend(c, self.base & ~mask, mask & ~self.base, 0)
            return [c for c, mask in masks if mask & new != new]
        # A dead candidate misses a new rank, so its lowest miss is at most
        # the highest new rank.
        misses = self._by_need if self.label else self._by_bad
        reach = bisect_left(misses, (new.bit_length() + 1,))
        if not reach:
            return []
        dead = [c for _, _, c in misses[:reach] if (c.need if self.label else c.bad) & new]
        if dead:
            self._last = None
            for c in dead:
                self._remove(c)
        return dead

    def grow(self, length: int) -> None:
        if length > self.length:
            old, width = self.length, length - self.length
            self.length = length
            if self._last is not None and self._last[2] == inf:
                self._last = None
            if not self.live:
                return
            blocks = [c.lang.rank_mask_block(old + 1, width) for c in self.live]
            first = blocks[0]
            self.base |= first << old
            for c, block in zip(self.live, blocks):
                if block != first:
                    self._extend(c, first & ~block, block & ~first, old)

    def admit(self, upto: int) -> None:
        # The masks must already cover every sampled rank.
        while self.admitted < upto:
            self.admitted += 1
            lang = self.coll.at(self.admitted)
            self.max_span = max(self.max_span, lang.span())
            mask = lang.rank_mask_block(1, self.length)
            if self.sample & ~mask == 0:
                c = _Candidate(self.admitted, lang)
                if self.live:
                    self._extend(c, self.base & ~mask, mask & ~self.base, 0)
                else:
                    self.base = mask
                self.live.append(c)
                self._last = None

    def choice(self, m: int) -> tuple[_Candidate, float] | None:
        """The side's choice at cutoff ``m`` (within the masks), the highest
        live candidate critical (dually critical) at ``m``, with its drop
        point: the least cutoff at which it stops being critical, inf when
        that lies beyond the masks.  None when nothing is alive.

        Call a candidate active when its ``need`` has a rank <= m, and let
        q be the first active one.  A candidate above q must need those
        ranks too, so it is active itself; below q, only ``bad`` matters.

        The drop point is the lowest rank of the choice's own ``bad``, or of
        an earlier candidate's ``need`` that the choice's ``need`` lacks.
        The active ones are at hand; the others are found by walking the
        earlier candidates and the rest of the ``need`` order side by side.
        Either walk, once complete, has seen every ``need`` that can lower
        the answer: the order is complete at its first entry starting at or
        above the answer so far.
        """
        live = self.live
        if not live:
            return None
        last = self._last
        if last is not None and last[0] <= m < last[2]:
            return last[1], last[2]
        reach = bisect_left(self._by_need, (m + 1,))
        best, before = None, 0
        if reach:
            low = (1 << m) - 1
            active = sorted(self._by_need[:reach], key=itemgetter(1))
            union = 0  # the needs of the active ones so far
            for _, _, c in active:
                if c.lo_bad > m and union & ~c.need & low == 0:
                    best, before = c, union
                union |= c.need
        if best is None:
            # Below the first active one only ``bad`` matters; the base has
            # no ``bad`` ranks, so this ends.
            i = bisect_left(live, active[0][1], key=_INDEX) if reach else len(live)
            while True:
                i -= 1
                if live[i].lo_bad > m:
                    best = live[i]
                    break
        need = best.need
        drop = best.lo_bad
        if before:
            drop = min(drop, _lowest(before & ~need))
        rest = islice(self._by_need, reach, None)
        for direct in live:
            if direct is best:
                break
            if m < direct.lo_need < drop:
                drop = min(drop, _lowest(direct.need & ~need))
            entry = next(rest, None)
            if entry is None or entry[0] >= drop:
                break
            if entry[1] < best.index:
                drop = min(drop, _lowest(entry[2].need & ~need))
        self._last = (m, best, drop)
        return best, drop


class _DropWalker:
    """The state every stateful learner shares: one side tracker per
    collection, the largest seen rank, and the escalation walk over drop
    points."""

    def __init__(self, *sides: _SideTracker):
        self._sides = sides
        self._consumed = 0
        self._max_rank = 1

    def _observe(self, revealed: RevealedSet, t: int) -> list[_Candidate]:
        """Take in the new events: grow the masks, kill, admit.  Returns
        the candidates that died."""
        new = [0, 0]  # the new ranks of each label, as bit sets
        for ex in revealed.events[self._consumed :]:
            rank = check_rank(universe_index(ex.element))
            new[ex.label] |= 1 << (rank - 1)
            if rank > self._max_rank:
                self._max_rank = rank
        self._consumed = len(revealed.events)
        length = self._sides[0].length
        if self._max_rank > length:
            length = max(self._max_rank, min(2 * length, MAX_RANK), 64)
        dead: list[_Candidate] = []
        for side in self._sides:
            side.grow(length)
            dead.extend(side.kill(new[side.label]))
            side.sample |= new[side.label]
            side.admit(side.coll.candidate_count(t))
        return dead

    def _walk(
        self, m: int, bound: int, seen: int
    ) -> tuple[int | None, _Candidate, _Candidate | None]:
        """Escalate the cutoff from ``m`` over drop points, as the module
        docstring describes, emitting no rank set in ``seen``.  Returns the
        rank to emit (None when the walk passes ``bound`` first) with the
        true and harm candidates chosen at that cutoff (harm None when there
        is no harm side or no harm candidate is alive).  The true side must
        have a live candidate.

        When neither lies within the masks, their length doubles, even past
        ``bound`` (to less than twice it): ranks and drop points beyond the
        bound are read and refused like any other, and the longer masks
        serve the later steps, whose bound is higher.  The masks stop at
        ``MAX_RANK``; a walk that must read past it below ``bound`` raises
        LimitError.
        """
        true = self._sides[0]
        harm = self._sides[1] if len(self._sides) > 1 and self._sides[1].live else None
        while True:
            kc, drop = true.choice(m)
            avail = true.mask(kc) & ~seen
            hc = None
            if harm is not None:
                hc, harm_drop = harm.choice(m)
                avail &= ~harm.mask(hc)
                drop = min(drop, harm_drop)
            rank = _lowest(avail)
            first = min(rank, drop)
            if first == inf and true.length < bound:
                check_rank(true.length + 1)
                length = min(2 * true.length, MAX_RANK)
                for side in self._sides:
                    side.grow(length)
                continue
            if first > bound or rank < drop:
                return (rank if first <= bound else None), kc, hc
            m = drop


class ChoiceRecord(NamedTuple):
    """Per-step log entry of a pair generator's chosen hypotheses; a plain
    tuple, because every step of the learner builds one."""

    t: int
    true_index: int | None
    harm_index: int | None
    diff: Cardinality | None
    output_kind: str


class ConservativePairGenerator(_DropWalker):
    """Stateful smallest-true/largest-harm generator over two collections.

    Without the infinite-difference promise the chosen pair can have an
    empty or finite difference; the learner then gives up with bottom for
    the step and records the event in ``choice_log``, which is what the
    conservative-failure demo inspects.  With ``coll_harm`` None there is
    no harm side, and the learner is the critical-language generator.
    Outputs match :func:`conservative_pair_generate` step for step.
    """

    def __init__(
        self,
        coll_true: LanguageCollection,
        coll_harm: LanguageCollection | None = None,
        *,
        strict: bool = True,
    ):
        harm = () if coll_harm is None else (_SideTracker(coll_harm, 0),)
        super().__init__(_SideTracker(coll_true, 1), *harm)
        self.strict = strict
        self.choice_log: list[ChoiceRecord] = []

    def step(self, revealed: RevealedSet, t: int) -> LearnerOutput:
        self._observe(revealed, t)
        if not self._sides[0].live:
            self.choice_log.append(ChoiceRecord(t, None, None, None, "generate"))
            return LearnerOutput.generate(universe_elem(1))
        bound = _escalation_bound(self._max_rank, t, map(_MAX_SPAN, self._sides))
        rank, k_cand, h_cand = self._walk(self._max_rank, bound, revealed.ranks)
        kc = k_cand.index
        hc = h_cand.index if h_cand is not None else None
        if rank is not None:
            self.choice_log.append(ChoiceRecord(t, kc, hc, None, "generate"))
            return LearnerOutput.generate(universe_elem(rank))
        harm_lang = h_cand.lang if h_cand is not None else PeriodicSet.empty()
        card = difference(k_cand.lang, harm_lang).cardinality()
        if card.is_infinite:
            raise RuntimeError("escalation bound hit while the difference is infinite")
        self.choice_log.append(ChoiceRecord(t, kc, hc, card, "give_up"))
        return (
            LearnerOutput.bottom() if self.strict else LearnerOutput.generate(universe_elem(1))
        )


# ----------------------------------------------------------------------
# Small game-facing learners
# ----------------------------------------------------------------------


class ProbeIdentifier(_DropWalker):
    """Identification via ordered consistent lists and generation probes.

    Keeps the live candidates by masks, each live language's members in
    universe order, and each compared pair's probe sample, one word per
    side longer every step; outputs and subroutine calls match
    :func:`identify_with_probes` step for step.  Kills are permanent, so
    the members and probes of a dead candidate are dropped.
    """

    def __init__(self, coll: LanguageCollection, sg: SgSubroutine | None = None):
        super().__init__(_SideTracker(coll, 1))
        self.sg = sg or relaxed_reference_sg
        self._members: dict[int, tuple[list[int], Iterator[int]]] = {}
        self._probes: dict[tuple[int, int], RevealedSet] = {}

    def _words(self, c: _Candidate, t: int) -> list[int]:
        """The first ``t`` members of ``c`` in universe order (at least)."""
        entry = self._members.get(c.index)
        if entry is None:
            entry = self._members[c.index] = ([], c.lang.iter_universe_order())
        words, rest = entry
        while len(words) < t:
            words.append(next(rest))
        return words

    def _generates(self, left: _Candidate, right: _Candidate, t: int) -> int:
        """The probe of ``left`` minus ``right``: their sample, extended to
        ``t`` words per side, fed to the subroutine."""
        key = (left.index, right.index)
        probe = self._probes.get(key)
        if probe is None:
            probe = self._probes[key] = RevealedSet()
        k_words, h_words = self._words(left, t), self._words(right, t)
        for j in range(probe.step // 2, t):
            probe.add(LabeledExample(k_words[j], 1))
            probe.add(LabeledExample(h_words[j], 0))
        return _sg_hits(left.lang, right.lang, probe, self.sg)

    def step(self, revealed: RevealedSet, t: int) -> LearnerOutput:
        dead = {c.index for c in self._observe(revealed, t)}
        if dead:
            for i in dead:
                self._members.pop(i, None)
            self._probes = {
                key: probe
                for key, probe in self._probes.items()
                if key[0] not in dead and key[1] not in dead
            }
        live = self._sides[0].live
        if not live:
            return LearnerOutput.index(1)
        n = revealed.step
        ordered = _insertion_order(live, lambda left, right: self._generates(left, right, n))
        return LearnerOutput.index(ordered[0].index)


class NaiveIdentifier(_DropWalker):
    """Guesses the first live index; outputs match :func:`naive_identify`."""

    def __init__(self, coll: LanguageCollection):
        super().__init__(_SideTracker(coll, 1))

    def step(self, revealed: RevealedSet, t: int) -> LearnerOutput:
        self._observe(revealed, t)
        live = self._sides[0].live
        return LearnerOutput.index(live[0].index if live else 1)


class TelltaleGenerator(_DropWalker):
    """Identifies each side by its first live candidate whose telltale the
    side's sample covers, then consults the exact difference; until both
    are identified, generates from the choice at the largest seen rank.
    Outputs match :func:`telltale_safe_generate` step for step.
    """

    def __init__(
        self,
        coll_true: LanguageCollection,
        coll_harm: LanguageCollection,
        *,
        strict: bool = True,
    ):
        super().__init__(_SideTracker(coll_true, 1), _SideTracker(coll_harm, 0))
        self.strict = strict
        # Per side: index -> (highest telltale rank, rank mask).  A mask is
        # built once the side's sample reaches that rank; before then the
        # telltale cannot be covered.
        self._telltales = [
            {
                i: (max(map(universe_index, tell), default=0), None)
                for i, tell in (coll.telltales or {}).items()
            }
            for coll in (coll_true, coll_harm)
        ]

    def _identify(self, side: int) -> _Candidate | None:
        tracker, tells = self._sides[side], self._telltales[side]
        reach = tracker.sample.bit_length()
        for c in tracker.live:
            top, tell = tells.get(c.index, (inf, None))
            if top > reach:
                continue
            if tell is None:
                tell = sum(1 << (universe_index(x) - 1) for x in tracker.coll.telltale(c.index))
                tells[c.index] = (top, tell)
            if tell & ~tracker.sample == 0:
                return c
        return None

    def step(self, revealed: RevealedSet, t: int) -> LearnerOutput:
        self._observe(revealed, t)
        k_hat, h_hat = self._identify(0), self._identify(1)
        if k_hat is not None and h_hat is not None:
            return reference_safe_generate(k_hat.lang, h_hat.lang, revealed, strict=self.strict)
        true, harm = self._sides
        if not true.live:
            return LearnerOutput.generate(universe_elem(1))
        kc, _ = true.choice(self._max_rank)
        harm_lang = harm.choice(self._max_rank)[0].lang if harm.live else PeriodicSet.empty()
        word = difference(kc.lang, harm_lang).first_not_in(revealed)
        if word is None:
            word = kc.lang.first_not_in(revealed)
            if word is None:
                raise RuntimeError("an infinite candidate has no unseen member")
        return LearnerOutput.generate(word)


class EagerIdentifier:
    """Safe-language identifier that chases the deepest 0-labeled negative.

    Hypothesizes the tightest harm candidate consistent with the negatives
    seen so far and guesses the index of the corresponding safe language,
    which is exactly the behaviour the phased adversary punishes forever.
    """

    def __init__(self, coll_true: LanguageCollection):
        self.coll_true = coll_true
        self._consumed = 0
        self._depth = 0

    def step(self, revealed: RevealedSet, t: int) -> LearnerOutput:
        for ex in revealed.events[self._consumed :]:
            if ex.label == 0 and ex.element < 0:
                self._depth = max(self._depth, -ex.element)
        self._consumed = len(revealed.events)
        # Q(-(depth+1)) sits at index depth + 3 of the trap collection.
        return LearnerOutput.index(self._depth + 3)


class StubbornIdentifier:
    """Always guesses index 1, never a safe-language candidate."""

    def step(self, revealed: RevealedSet, t: int) -> LearnerOutput:
        return LearnerOutput.index(1)


class AlwaysBottom:
    def step(self, revealed: RevealedSet, t: int) -> LearnerOutput:
        return LearnerOutput.bottom()

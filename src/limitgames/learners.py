"""Learner algorithms for the generation and identification games.

Two families of learners live here:

* plain functions (``critical_generate``, ``conservative_pair_generate``,
  ``identify_with_probes``, ...) that recompute everything from the revealed
  sample each step, written in the most direct form; they are the reference
  oracles; and
* the game-facing classes.  Every one that does more than constant work a
  step is stateful: it keeps its consistent candidates as rank masks from
  step to step (``_SideTracker``), so a step costs the new examples and the
  live candidates, not a pass over all t examples.  ``CriticalGenerator``
  and ``ConservativePairGenerator`` escalate the cutoff over drop points;
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
keep the rank mask of every consistent candidate at one shared length, so
consistency is one mask test against the side's sampled ranks, both when a
candidate is admitted and when new examples arrive.  They compute every
drop point in one forward pass over the masks: the running
AND (dually OR) of the earlier masks against each candidate's own.  The
choice at cutoff m is the highest candidate whose drop point exceeds m; as
m grows it only moves down, and only at drop points.  So the escalation is
a walk down from the top candidate: emit its lowest unseen rank when that
comes before its drop point, else jump the cutoff to the drop point, and
lengthen the masks (doubling, up to the escalation bound) when neither lies
within them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Callable, Iterator, Protocol, TypeVar

from .algebra import Cardinality, PeriodicSet, universe_elem, universe_index
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
    diff = true_hyp - harm_hyp
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


def _escalation_bound(m0: int, t: int, spans: list[int]) -> int:
    span = max(spans, default=1)
    return m0 + (t + 4) * (span + 4) + 1024


def critical_generate(
    coll: LanguageCollection, revealed: RevealedSet, t: int
) -> LearnerOutput:
    """Generate from the highest-indexed critical candidate.

    The cutoff starts large enough to cover every string seen so far and
    grows until the chosen candidate offers an unseen element within range.
    Falls back to the first universe element when nothing is consistent.
    """
    consistent = consistent_indices(coll, revealed, t, "true")
    if not consistent:
        return LearnerOutput.generate(universe_elem(1))
    seen = revealed.pos | revealed.neg
    m = max((universe_index(x) for x in seen), default=1)
    bound = _escalation_bound(m, t, [coll.at(i).span() for i in consistent])
    while m <= bound:
        best = _primal_best_sets(coll, consistent, m)
        if best is None:
            raise RuntimeError("no critical candidate among the consistent ones")
        lang = coll.at(best)
        for rank in range(1, m + 1):
            x = universe_elem(rank)
            if x in lang and x not in seen:
                return LearnerOutput.generate(x)
        m += 1
    raise RuntimeError("prefix cutoff escalation exceeded its bound")


def conservative_pair_generate(
    coll_true: LanguageCollection,
    coll_harm: LanguageCollection,
    revealed: RevealedSet,
    t: int,
    *,
    strict: bool = True,
) -> LearnerOutput:
    """Smallest consistent true candidate versus largest consistent harm one.

    Under the all-pairs-infinite-difference promise the escalation always
    finds an unseen element of the chosen difference.  Without the promise
    the chosen difference can be empty; the search then exhausts its bound
    and the learner gives up with bottom (or an arbitrary word when relaxed).
    """
    cons_k = consistent_indices(coll_true, revealed, t, "true")
    cons_h = consistent_indices(coll_harm, revealed, t, "harm")
    if not cons_k:
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
                return LearnerOutput.generate(x)
        m += 1
    if kc is None:
        raise RuntimeError("the cutoff escalation chose no true candidate")
    diff = coll_true.at(kc) - (
        coll_harm.at(hc) if hc is not None else PeriodicSet.empty()
    )
    if diff.cardinality().is_infinite:
        raise RuntimeError("escalation bound hit while the difference is infinite")
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
    word = diff.first_not_in(seen)
    if word is None:
        word = k_lang.first_not_in(seen)
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


class _Candidate:
    """A live candidate: its collection index, language and rank mask."""

    __slots__ = ("index", "lang", "mask")

    def __init__(self, index: int, lang: PeriodicSet, mask: int):
        self.index = index
        self.lang = lang
        self.mask = mask


class _SideTracker:
    """Live (consistent) candidates of one collection side, in index order,
    with their rank masks at the shared length ``length``.

    ``label`` is the side's example label: 1 for the true side, whose choice
    is the critical candidate, and 0 for the harm side, whose choice is the
    dually critical one.  ``sample`` holds the ranks of the side's revealed
    elements, so a new candidate is admitted with one mask test.
    """

    def __init__(self, coll: LanguageCollection, label: int):
        self.coll = coll
        self.label = label
        self.live: list[_Candidate] = []
        self.sample = 0
        self.admitted = 0
        self.max_span = 1
        self.length = 0

    def kill(self, new: int) -> None:
        # The masks must already cover every rank in ``new``.
        if new:
            self.live = [c for c in self.live if c.mask & new == new]

    def grow(self, length: int) -> None:
        if length > self.length:
            old, width = self.length, length - self.length
            for c in self.live:
                c.mask |= c.lang.rank_mask_block(old + 1, width) << old
            self.length = length

    def admit(self, upto: int) -> None:
        # The masks must already cover every sampled rank.
        while self.admitted < upto:
            self.admitted += 1
            lang = self.coll.at(self.admitted)
            self.max_span = max(self.max_span, lang.span())
            mask = lang.rank_mask_block(1, self.length)
            if self.sample & ~mask == 0:
                self.live.append(_Candidate(self.admitted, lang, mask))

    def drops(self) -> list[float]:
        """The drop point of every live candidate, in one pass: the least
        cutoff at which it stops being this side's choice (inf when that
        lies beyond the masks).

        True side: the first rank in its mask missing from some earlier
        mask.  Harm side: the first rank in some earlier mask missing from
        its own.  The first candidate never drops.
        """
        out: list[float] = []
        if self.label:
            acc = -1
            for c in self.live:
                acc &= c.mask
                d = c.mask ^ acc
                out.append((d & -d).bit_length() if d else inf)
        else:
            acc = 0
            for c in self.live:
                acc |= c.mask
                d = acc ^ c.mask
                out.append((d & -d).bit_length() if d else inf)
        return out

    def choice(self, m: int) -> _Candidate | None:
        """The side's choice at cutoff ``m`` (within the masks): the highest
        live candidate whose drop point exceeds it."""
        for c, drop in zip(reversed(self.live), reversed(self.drops())):
            if drop > m:
                return c
        return None


class _DropWalker:
    """The state every stateful learner shares: one side tracker per
    collection, the largest seen rank, and the escalation walk over drop
    points."""

    def __init__(self, *sides: _SideTracker):
        self._sides = sides
        self._consumed = 0
        self._max_rank = 1

    def _observe(self, revealed: RevealedSet, t: int) -> None:
        """Take in the new events: grow the masks, kill, admit."""
        new = [0, 0]  # the new ranks of each label, as bit sets
        for ex in revealed.events[self._consumed :]:
            rank = universe_index(ex.element)
            new[ex.label] |= 1 << (rank - 1)
            if rank > self._max_rank:
                self._max_rank = rank
        self._consumed = len(revealed.events)
        length = self._sides[0].length
        if self._max_rank > length:
            length = max(self._max_rank, 2 * length, 64)
        for side in self._sides:
            side.grow(length)
            side.kill(new[side.label])
            side.sample |= new[side.label]
            side.admit(side.coll.candidate_count(t))

    def _walk(self, m: int, bound: int, seen: int) -> tuple[int | None, int, int | None]:
        """Escalate the cutoff from ``m`` over drop points, as the module
        docstring describes, emitting no rank set in ``seen``.  Returns the
        rank to emit (None when the walk passes ``bound`` first) with the
        true and harm positions chosen at that cutoff (harm None when no
        harm candidate is alive).  The true side must have a live candidate.
        """
        true, harm = self._sides[0], self._sides[1] if len(self._sides) > 1 else None
        drops = [side.drops() for side in self._sides]
        ki = len(true.live) - 1
        hi = len(harm.live) - 1 if harm is not None else -1
        while True:
            while drops[0][ki] <= m:
                ki -= 1
            avail = true.live[ki].mask & ~seen
            drop = drops[0][ki]
            if hi >= 0:
                while drops[1][hi] <= m:
                    hi -= 1
                avail &= ~harm.live[hi].mask
                drop = min(drop, drops[1][hi])
            rank = (avail & -avail).bit_length() if avail else inf
            first = min(rank, drop)
            if first == inf and true.length < bound:
                length = min(2 * true.length, bound)
                for side in self._sides:
                    side.grow(length)
                drops = [side.drops() for side in self._sides]
                continue
            if first > bound or rank < drop:
                emit = rank if first <= bound else None
                return emit, ki, (hi if hi >= 0 else None)
            m = drop


@dataclass(frozen=True)
class ChoiceRecord:
    """Per-step log entry of a pair generator's chosen hypotheses."""

    t: int
    true_index: int | None
    harm_index: int | None
    diff: Cardinality | None
    output_kind: str


class CriticalGenerator(_DropWalker):
    """Stateful generation learner over one collection (true side only).

    Keeps consistency and rank masks incrementally and escalates over drop
    points; outputs match :func:`critical_generate` step for step.  Strings carrying either label
    count as seen and are never emitted.
    """

    def __init__(self, coll: LanguageCollection):
        super().__init__(_SideTracker(coll, 1))
        self.coll = coll

    def step(self, revealed: RevealedSet, t: int) -> LearnerOutput:
        self._observe(revealed, t)
        side = self._sides[0]
        if not side.live:
            return LearnerOutput.generate(universe_elem(1))
        bound = _escalation_bound(self._max_rank, t, [side.max_span])
        rank, _, _ = self._walk(self._max_rank, bound, revealed.ranks)
        if rank is None:
            raise RuntimeError("prefix cutoff escalation exceeded its bound")
        return LearnerOutput.generate(universe_elem(rank))


class ConservativePairGenerator(_DropWalker):
    """Stateful smallest-true/largest-harm generator over two collections.

    Without the infinite-difference promise the chosen pair can have an
    empty or finite difference; the learner then gives up with bottom for
    the step and records the event in ``choice_log``, which is what the
    conservative-failure demo inspects.
    """

    def __init__(
        self,
        coll_true: LanguageCollection,
        coll_harm: LanguageCollection,
        *,
        strict: bool = True,
    ):
        super().__init__(_SideTracker(coll_true, 1), _SideTracker(coll_harm, 0))
        self.coll_true = coll_true
        self.coll_harm = coll_harm
        self.strict = strict
        self._diff_cache: dict[tuple[int, int | None], Cardinality] = {}
        self.choice_log: list[ChoiceRecord] = []

    def _diff_cardinality(self, kc: int, hc: int | None) -> Cardinality:
        key = (kc, hc)
        card = self._diff_cache.get(key)
        if card is None:
            harm = self.coll_harm.at(hc) if hc is not None else PeriodicSet.empty()
            card = (self.coll_true.at(kc) - harm).cardinality()
            self._diff_cache[key] = card
        return card

    def step(self, revealed: RevealedSet, t: int) -> LearnerOutput:
        self._observe(revealed, t)
        true, harm = self._sides
        if not true.live:
            self.choice_log.append(ChoiceRecord(t, None, None, None, "generate"))
            return LearnerOutput.generate(universe_elem(1))
        span = max(true.max_span, harm.max_span)
        bound = _escalation_bound(self._max_rank, t, [span])
        rank, ki, hi = self._walk(self._max_rank, bound, revealed.ranks)
        kc = true.live[ki].index
        hc = harm.live[hi].index if hi is not None else None
        if rank is not None:
            self.choice_log.append(ChoiceRecord(t, kc, hc, None, "generate"))
            return LearnerOutput.generate(universe_elem(rank))
        card = self._diff_cardinality(kc, hc)
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
    :func:`identify_with_probes` step for step.
    """

    def __init__(self, coll: LanguageCollection, sg: SgSubroutine | None = None):
        super().__init__(_SideTracker(coll, 1))
        self.coll = coll
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
        self._observe(revealed, t)
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
        self.coll = coll

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
        self.coll_true = coll_true
        self.coll_harm = coll_harm
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
        kc = true.choice(self._max_rank)
        if kc is None:
            return LearnerOutput.generate(universe_elem(1))
        hc = harm.choice(self._max_rank)
        diff = kc.lang - (hc.lang if hc is not None else PeriodicSet.empty())
        word = diff.first_not_in(revealed)
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

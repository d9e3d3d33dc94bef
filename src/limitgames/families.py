"""Ordered countable language collections and labeled-sample bookkeeping.

A :class:`LanguageCollection` is a total map from 1-based indices to
infinite :class:`~limitgames.algebra.PeriodicSet` languages, possibly with
repetitions.  Collections may carry finite telltale sets per index; the
telltale property (no declared telltale may fit inside a proper subset that
is also in the collection) is verified exactly at construction time.

The module also builds the two adversarial collection pairs used by the
built-in game scenarios: one that defeats safe-language identification and
one with vanishing differences that defeats oracle-equipped generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, Sequence

from .algebra import (
    PeriodicSet,
    all_integers,
    check_rank,
    even_nonnegatives,
    naturals,
    negative_integers,
    odd_positives,
    q_set,
    universe_index,
    y_set,
)


class CollectionError(ValueError):
    """Raised for invalid collection definitions."""


class MissingTelltaleError(KeyError):
    """Raised when a telltale is requested for an index that declared none."""


@dataclass(frozen=True)
class LabeledExample:
    """One adversary move: an element labeled 1 (true side) or 0 (harm side)."""

    element: int
    label: int

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


class RevealedSet:
    """The accumulated labeled sample after t steps.

    ``pos`` and ``neg`` hold the elements seen with label 1 and 0; ``events``
    keeps the arrival order so incremental consumers can read deltas.
    ``ranks`` is the bit set of the universe ranks seen with either label
    (bit r - 1 for rank r).  It takes one OR per event, made when it is next
    read, so scoring a stored trace, which never reads it, builds no mask
    for a far-out element.
    """

    __slots__ = ("events", "pos", "neg", "step", "_ranks", "_ranked")

    def __init__(self) -> None:
        self.events: list[LabeledExample] = []
        self.pos: set[int] = set()
        self.neg: set[int] = set()
        self.step = 0
        self._ranks = 0
        self._ranked = 0

    def add(self, example: LabeledExample) -> None:
        self.events.append(example)
        self.step += 1
        if example.label == 1:
            self.pos.add(example.element)
        else:
            self.neg.add(example.element)

    @property
    def ranks(self) -> int:
        for ex in self.events[self._ranked :]:
            self._ranks |= 1 << (check_rank(universe_index(ex.element)) - 1)
        self._ranked = len(self.events)
        return self._ranks

    def contains(self, x: int) -> bool:
        return x in self.pos or x in self.neg

    def __repr__(self) -> str:  # pragma: no cover
        return f"RevealedSet(step={self.step}, pos={sorted(self.pos)}, neg={sorted(self.neg)})"


Side = Literal["true", "harm"]


class LanguageCollection:
    """An ordered countable family of infinite languages.

    ``rule`` maps any index >= 1 to a language; repetitions are allowed.
    ``length`` bounds the indices a scenario will ever touch (always set for
    explicit lists); learners cap their candidate range with it.
    """

    def __init__(
        self,
        name: str,
        rule: Callable[[int], PeriodicSet],
        *,
        length: int | None = None,
        telltales: dict[int, frozenset[int]] | None = None,
    ) -> None:
        self.name = name
        self._rule = rule
        self.length = length
        self.telltales = dict(telltales) if telltales else None
        self._memo: dict[int, PeriodicSet] = {}
        if self.telltales is not None:
            if length is None:
                raise CollectionError("telltale validation requires a declared length")
            self._validate_telltales()

    @classmethod
    def explicit(
        cls,
        name: str,
        sets: Sequence[PeriodicSet],
        *,
        telltales: dict[int, frozenset[int]] | None = None,
    ) -> "LanguageCollection":
        if not sets:
            raise CollectionError("explicit collection needs at least one language")
        items = list(sets)
        for pos, lang in enumerate(items, start=1):
            if not lang.cardinality().is_infinite:
                raise CollectionError(
                    f"collection {name!r} index {pos} is not an infinite language"
                )

        def rule(i: int) -> PeriodicSet:
            # Indices past the declared list repeat the final language.
            return items[min(i, len(items)) - 1]

        return cls(name, rule, length=len(items), telltales=telltales)

    def at(self, i: int) -> PeriodicSet:
        if i < 1:
            raise IndexError(f"collection index must be >= 1, got {i}")
        lang = self._memo.get(i)
        if lang is None:
            lang = self._rule(i)
            if not lang.cardinality().is_infinite:
                raise CollectionError(
                    f"collection {self.name!r} index {i} is not an infinite language"
                )
            self._memo[i] = lang
        return lang

    def candidate_count(self, t: int) -> int:
        """How many leading indices a learner considers at step t."""
        return min(t, self.length) if self.length is not None else t

    def telltale(self, i: int) -> frozenset[int]:
        if self.telltales is None or i not in self.telltales:
            raise MissingTelltaleError(f"no telltale declared for index {i}")
        return self.telltales[i]

    def _validate_telltales(self) -> None:
        assert self.telltales is not None and self.length is not None
        for i, tell in self.telltales.items():
            if not 1 <= i <= self.length:
                raise CollectionError(f"telltale key {i} is not an index in 1..{self.length}")
            lang = self.at(i)
            if not all(x in lang for x in tell):
                raise CollectionError(
                    f"telltale for index {i} is not a subset of its language"
                )
            for j in range(1, self.length + 1):
                other = self.at(j)
                if all(x in other for x in tell) and other < lang:
                    raise CollectionError(
                        f"telltale for index {i} also fits the proper subset at index {j}"
                    )

    def __repr__(self) -> str:  # pragma: no cover
        return f"LanguageCollection({self.name!r}, length={self.length})"


# ----------------------------------------------------------------------
# Consistency with a labeled sample
# ----------------------------------------------------------------------


def is_consistent_true(lang: PeriodicSet, revealed: RevealedSet) -> bool:
    """True-side consistency: all 1-labeled elements lie in ``lang``.

    0-labeled elements are deliberately ignored; an element carrying both
    labels over time is legal (it sits in the overlap of the two hidden
    languages), so it must not disqualify true-side candidates.
    """
    return all(x in lang for x in revealed.pos)


def is_consistent_harm(lang: PeriodicSet, revealed: RevealedSet) -> bool:
    """Harm-side consistency: all 0-labeled elements lie in ``lang``."""
    return all(x in lang for x in revealed.neg)


def consistent_indices(
    coll: LanguageCollection, revealed: RevealedSet, t: int, side: Side
) -> list[int]:
    """The indices among the first ``coll.candidate_count(t)`` whose language
    is consistent on the given side, ascending."""
    check = is_consistent_true if side == "true" else is_consistent_harm
    return [
        i for i in range(1, coll.candidate_count(t) + 1) if check(coll.at(i), revealed)
    ]


# ----------------------------------------------------------------------
# Built-in adversarial families
# ----------------------------------------------------------------------


def identification_trap_collections() -> tuple[LanguageCollection, LanguageCollection]:
    """Collection pair on which no learner can pin down the safe language.

    True side: index 1 is I, index 2 is O, index b+2 is Q(-b).
    Harm side: index 1 is N | E, index a+2 is Y(-a).
    """

    def true_rule(i: int) -> PeriodicSet:
        if i == 1:
            return all_integers()
        if i == 2:
            return odd_positives()
        return q_set(i - 2)

    def harm_rule(i: int) -> PeriodicSet:
        if i == 1:
            return negative_integers() | even_nonnegatives()
        return y_set(i - 2)

    return (
        LanguageCollection("id-trap-true", true_rule),
        LanguageCollection("id-trap-harm", harm_rule),
    )


def diagonal_trap_collections() -> tuple[LanguageCollection, LanguageCollection]:
    """Collection pair with vanishing differences, over the nonnegatives.

    The top pair (index 1) is E inside the naturals: its difference is empty.
    For every even hole M = 2(i-1), index i >= 2 carries a proper refinement
    of the top pair whose difference is the infinite set of evens above M:

      true side:  E minus {M}
      harm side:  naturals minus the even ray starting at M+2

    Every finite sample from the top pair fits some refinement pair, which is
    what lets the diagonal adversary keep revising forever.
    """

    def true_rule(i: int) -> PeriodicSet:
        if i == 1:
            return even_nonnegatives()
        hole = 2 * (i - 1)
        return even_nonnegatives() - PeriodicSet.finite({hole})

    def harm_rule(i: int) -> PeriodicSet:
        if i == 1:
            return naturals()
        hole = 2 * (i - 1)
        return naturals() - PeriodicSet.ray(hole + 2, 2)

    return (
        LanguageCollection("diag-trap-true", true_rule),
        LanguageCollection("diag-trap-harm", harm_rule),
    )


def diagonal_trap_witness(max_value: int) -> tuple[int, int, int]:
    """Pick the refinement pair for samples bounded by ``max_value``.

    Returns (true_index, harm_index, hole) where hole is the smallest even
    integer above every sampled value; both languages at that index contain
    the whole sample and their difference is infinite.
    """
    hole = (max(max_value, 0) // 2 + 1) * 2
    index = hole // 2 + 1
    return index, index, hole


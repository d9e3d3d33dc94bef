"""Labeled-stream producers: one fair enumerator and adaptive adversaries.

The game protocol is: the adversary emits one labeled example, the learner
observes the grown sample and answers, then the adversary observes that
answer before choosing its next emission.  Every adversary exposes the
(true, harm) pair it is currently committed to, so a finite trace can be
scored even when the committed pair keeps moving.

All emissions are truthfully labeled against the committed pair in force at
the moment of emission; the arena's referee checks this every step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import cycle
from typing import Protocol

from .algebra import (
    PeriodicSet,
    all_integers,
    difference,
    even_nonnegatives,
    negative_integers,
    y_set,
)
from .families import LabeledExample, LanguageCollection, diagonal_trap_witness, is_diagonal_trap
from .learners import LearnerOutput


class AdversaryError(ValueError):
    """Raised for invalid adversary configuration."""


@dataclass(frozen=True)
class Emission:
    example: LabeledExample
    injected: bool = False


class Adversary(Protocol):
    def emit(self, t: int) -> Emission: ...

    def observe(self, output: LearnerOutput) -> None: ...

    def current_pair(self) -> tuple[PeriodicSet, PeriodicSet]: ...

    @property
    def phase(self) -> int: ...


class FairInterleaver:
    """Alternates the canonical enumerations of a fixed (true, harm) pair.

    Emissions cycle through the sides in the order they were drawn: the next
    true element labeled 1, then the next harm element labeled 0, so every
    element of both languages appears by a step linear in its universe rank.
    With no harm side (plain generation) every emission is the next true
    element, and the committed pair is (true, empty).
    """

    def __init__(self, true_lang: PeriodicSet, harm_lang: PeriodicSet | None = None):
        sides = [("true", true_lang, 1)]
        if harm_lang is not None:
            sides.append(("harm", harm_lang, 0))
        for side, lang, _ in sides:
            if not lang.cardinality().is_infinite:
                raise AdversaryError(f"fair interleaver needs an infinite {side} language")
        self.true_lang = true_lang
        self.harm_lang = PeriodicSet.empty() if harm_lang is None else harm_lang
        self._draws = cycle([(lang.iter_universe_order(), label) for _, lang, label in sides])
        self.phase = 1

    def emit(self, t: int) -> Emission:
        enumeration, label = next(self._draws)
        return Emission(LabeledExample(next(enumeration), label))

    def observe(self, output: LearnerOutput) -> None:
        pass

    def current_pair(self) -> tuple[PeriodicSet, PeriodicSet]:
        return self.true_lang, self.harm_lang


class PhasedInjectionAdversary:
    """Adaptive stream that punishes every correct safe-language guess.

    Runs over the identification-trap collections.  The master sequence is
    the fair interleaving of I (label 1) with E (label 0); those 0-labeled
    evens are consistent with every harm candidate.  Whenever the learner
    guesses the safe language of the currently committed pair, the
    adversary queues the injection (-l, 0), which invalidates the harm
    hypothesis the learner just settled on, and moves to the next phase.
    Injections alternate with master progress so enumeration fairness
    survives even a learner that triggers every step.

    Mid-phase l the committed pair is (I, Y(-(l-1))); if the learner never
    advances again, that pair stands for the rest of the game.
    """

    def __init__(self, coll_true: LanguageCollection):
        self.coll_true = coll_true
        self.phase = 1
        self._master = FairInterleaver(all_integers(), even_nonnegatives())
        self._pending: deque[int] = deque()
        self._last_was_injection = False
        self._true = all_integers()
        # The committed harm language Y(-(phase-1)), rebuilt by the first
        # current_pair after the phase advances.
        self._harm: PeriodicSet | None = None
        self.injections: list[tuple[int, int]] = []  # (step, depth)

    def emit(self, t: int) -> Emission:
        if self._pending and not self._last_was_injection:
            depth = self._pending.popleft()
            self._last_was_injection = True
            self.injections.append((t, depth))
            return Emission(LabeledExample(-depth, 0), injected=True)
        self._last_was_injection = False
        return self._master.emit(t)

    def observe(self, output: LearnerOutput) -> None:
        if not output.is_index:
            return
        # The safe language I - Y(-(phase-1)) is Q(-phase); in an si game the
        # referee's scoring has already put it in the pair-difference memo.
        if self.coll_true.at(output.value) == difference(*self.current_pair()):
            self._pending.append(self.phase)
            self.phase += 1
            self._harm = None

    def current_pair(self) -> tuple[PeriodicSet, PeriodicSet]:
        if self._harm is None:
            self._harm = y_set(self.phase - 1)
        return self._true, self._harm

    def limit_pair(self) -> tuple[PeriodicSet, PeriodicSet]:
        """The pair the construction converges to over infinitely many phases."""
        return self._true, negative_integers() | even_nonnegatives()


@dataclass(frozen=True)
class BoundaryRecord:
    """Snapshot taken at a diagonal phase change."""

    step: int
    new_phase: int
    skipped_true: int
    skipped_harm: int
    cursor_true: int
    cursor_harm: int


def check_diagonal_pair(
    coll_true: LanguageCollection | None, coll_harm: LanguageCollection | None
) -> None:
    """Raise AdversaryError unless the pair is the built-in diagonal trap,
    built on the rules of ``diagonal_trap_collections`` whatever its names:
    the diagonal adversary picks its refinements by that pair's index
    formula, so on another pair its next member may lie arbitrarily far out."""
    if coll_true is None or coll_harm is None or not is_diagonal_trap(coll_true, coll_harm):
        raise AdversaryError(
            "diagonal plays only the diagonal_trap_true / diagonal_trap_harm collection pair"
        )


class DiagonalAdversary:
    """Diagonalizing stream over the vanishing-difference collections.

    Each phase pretends the committed pair is a proper refinement of the top
    pair (chosen so it contains everything revealed so far and still has an
    infinite difference).  Odd steps advance a filtered enumeration of the
    refinement's true side, even steps of its harm side; elements of the top
    enumerations that the filter skips are queued.  When the learner emits
    an element inside the refinement's difference, the adversary flushes the
    skipped queues, then catches the true-side master enumeration up to the
    element that contradicts the refinement, and opens the next phase.

    Both sides follow that one rule, so each piece of state is a pair indexed
    by side, 0 true and 1 harm: the top and refinement languages, the master
    enumerations, the count drawn from each and the skipped queues.  Only the
    true side holds the refinement's hole, so only it ends a catch-up.

    During flush and catch-up the committed pair is the top pair (whose
    difference is empty); during mimicry it is the refinement pair.
    """

    def __init__(self, coll_true: LanguageCollection, coll_harm: LanguageCollection):
        check_diagonal_pair(coll_true, coll_harm)
        self._colls = (coll_true, coll_harm)
        self._top = (coll_true.at(1), coll_harm.at(1))
        self._masters = tuple(lang.iter_universe_order() for lang in self._top)
        self._cursors = [0, 0]  # master elements drawn so far
        self._skipped: tuple[deque[int], deque[int]] = (deque(), deque())
        self._max_value = 0
        self._mode = "mimic"  # "mimic" | "flush" | "catchup"
        self.phase = 1
        self._step = 0
        self.boundaries: list[BoundaryRecord] = []
        self.detection_steps: list[int] = []
        self._choose_refinement()

    # -- phase bookkeeping ------------------------------------------------

    def _choose_refinement(self) -> None:
        i_true, i_harm, hole = diagonal_trap_witness(self._max_value)
        self._ref = (self._colls[0].at(i_true), self._colls[1].at(i_harm))
        # The hole lies above every value emitted so far, so only this
        # phase can emit it.
        self._hole = hole
        self._hole_emitted = False

    def _advance_phase(self) -> None:
        self.phase += 1
        self.boundaries.append(
            BoundaryRecord(self._step, self.phase, *map(len, self._skipped), *self._cursors)
        )
        self._choose_refinement()
        self._mode = "mimic"

    # -- emission ---------------------------------------------------------

    def _draw(self, side: int) -> int:
        self._cursors[side] += 1
        return next(self._masters[side])

    def emit(self, t: int) -> Emission:
        self._step = t
        if self._mode == "flush" and not any(self._skipped):
            # Everything skipped has been replayed; catch the true-side master
            # up to the contradicting element unless it already went out.
            if self._hole_emitted:
                self._advance_phase()
            else:
                self._mode = "catchup"
        side = 1 - t % 2  # odd steps draw the true side, even steps the harm side
        skipped = self._skipped[side]
        if self._mode == "flush" and skipped:
            value = skipped.popleft()
        elif self._mode == "mimic":
            refinement = self._ref[side]
            value = self._draw(side)
            while value not in refinement:
                skipped.append(value)
                value = self._draw(side)
        else:  # flush with an empty queue, or catchup: raw master
            value = self._draw(side)
        self._max_value = max(self._max_value, value)
        if side == 0 and value == self._hole:
            if self._mode == "catchup":
                self._advance_phase()
            else:
                self._hole_emitted = True
        return Emission(LabeledExample(value, 1 - side))

    # -- observation ------------------------------------------------------

    def observe(self, output: LearnerOutput) -> None:
        if self._mode != "mimic" or not output.is_generate:
            return
        word = output.value
        if word in self._ref[0] and word not in self._ref[1]:
            # The learner produced a safe word for the pretended pair; stop
            # pretending and prepare the next refinement.
            self.detection_steps.append(self._step)
            self._mode = "flush"

    def current_pair(self) -> tuple[PeriodicSet, PeriodicSet]:
        return self._ref if self._mode == "mimic" else self._top

    def limit_pair(self) -> tuple[PeriodicSet, PeriodicSet]:
        return self._top

"""The stateful learners against their functional forms, step by step.

``ConservativePairGenerator`` escalates the prefix cutoff over drop points
and rank masks, with a harm collection or without one (the critical
learner); ``conservative_pair_generate`` recomputes every cutoff from the
revealed sample.  ``NaiveIdentifier``, ``ProbeIdentifier`` and
``TelltaleGenerator`` keep consistency (and probe samples) across steps;
``naive_identify``, ``identify_with_probes`` and ``telltale_safe_generate``
start over every step.  Every step must give the same move, or both must raise.  The side
trackers under them are checked on their own against the definition of
criticality over random rank masks.
"""

import json
import random
from contextlib import contextmanager
from math import inf

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from limitgames import learners
from limitgames.adversaries import DiagonalAdversary, FairInterleaver
from limitgames.cli import CATALOGUE
from limitgames.families import (
    CollectionError,
    LabeledExample,
    LanguageCollection,
    RevealedSet,
    diagonal_trap_collections,
)
from limitgames.fuzz import random_set
from limitgames.learners import (
    ConservativePairGenerator,
    NaiveIdentifier,
    ProbeIdentifier,
    TelltaleGenerator,
    conservative_pair_generate,
    identify_with_probes,
    naive_identify,
    relaxed_reference_sg,
    telltale_safe_generate,
)
from limitgames.setspec import parse


@st.composite
def languages(draw):
    """An infinite ``fuzz.random_set`` language."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    s = random_set(rng)
    while not s.cardinality().is_infinite:
        s = random_set(rng)
    return s


def collections(max_size):
    return st.lists(languages(), min_size=1, max_size=max_size).map(
        lambda sets: LanguageCollection.explicit("c", sets)
    )


def move(step, *args, **kw):
    """A learner's move, or the error it raised."""
    try:
        return step(*args, **kw)
    except RuntimeError as err:
        return RuntimeError, str(err)


def play(adversary, generator, reference, steps):
    revealed = RevealedSet()
    for t in range(1, steps + 1):
        revealed.add(adversary.emit(t).example)
        out = move(generator.step, revealed, t)
        assert out == move(reference, revealed, t), t
        if isinstance(out, tuple):
            return
        adversary.observe(out)


@contextmanager
def bounded(slack):
    """Give both learners the escalation bound m + ``slack`` (None keeps the
    real one), so that runs reach the bound while the functional forms,
    which try every cutoff up to it, stay fast."""
    with pytest.MonkeyPatch.context() as patch:
        if slack is not None:
            patch.setattr(learners, "_escalation_bound", lambda m, t, spans: m + slack)
        yield


@settings(max_examples=16, deadline=None)
@given(collections(4), languages(), st.integers(0, 4), st.booleans(), st.none() | st.integers(0, 64))
def test_critical_generator_matches_function(coll, other, pick, fair, slack):
    # The stream enumerates a collection member or, when ``pick`` points
    # past the list, a language that may sit outside the collection.
    target = coll.at(pick + 1) if pick < coll.length else other
    adversary = FairInterleaver(target, other if fair else None)
    with bounded(slack):
        play(
            adversary,
            ConservativePairGenerator(coll),
            lambda r, t: conservative_pair_generate(coll, None, r, t),
            200,
        )


@st.composite
def promise_pairs(draw):
    """True and harm collections whose every cross difference is infinite,
    the promise under which the pair learner never gives up."""
    true_coll, harm_coll = draw(collections(3)), draw(collections(3))
    assume(
        all(
            (true_coll.at(k) - harm_coll.at(h)).cardinality().is_infinite
            for k in range(1, true_coll.length + 1)
            for h in range(1, harm_coll.length + 1)
        )
    )
    return true_coll, harm_coll


@settings(max_examples=8, deadline=None)
@given(promise_pairs(), st.integers(0, 2), st.integers(0, 2))
def test_pair_generator_matches_function(pair, pick_true, pick_harm):
    true_coll, harm_coll = pair
    true_lang = true_coll.at(min(pick_true + 1, true_coll.length))
    harm_lang = harm_coll.at(min(pick_harm + 1, harm_coll.length))
    play(
        FairInterleaver(true_lang, harm_lang),
        ConservativePairGenerator(true_coll, harm_coll),
        lambda r, t: conservative_pair_generate(true_coll, harm_coll, r, t),
        200,
    )


@settings(max_examples=10, deadline=None)
@given(collections(3), collections(2), st.booleans(), st.integers(0, 96))
def test_pair_generator_gives_up_like_function(true_coll, harm_coll, strict, slack):
    # The last harm candidate contains the true language, which breaks the
    # infinite-difference promise: the learners give up with bottom (or a
    # fixed word when relaxed) whenever it is the chosen harm hypothesis.
    true_lang = true_coll.at(1)
    harm_lang = harm_coll.at(1)
    swallow = LanguageCollection.explicit(
        "h", [harm_coll.at(i) for i in range(1, harm_coll.length + 1)] + [true_lang | harm_lang]
    )
    generator = ConservativePairGenerator(true_coll, swallow, strict=strict)
    log: list = []
    with bounded(slack):
        play(
            FairInterleaver(true_lang, harm_lang),
            generator,
            lambda r, t: conservative_pair_generate(
                true_coll, swallow, r, t, strict=strict, log=log
            ),
            16,
        )
    assert generator.choice_log == log


@contextmanager
def walks_past_bound():
    """Record, for every escalation walk, whether it doubled the masks from
    below its bound to beyond it."""
    passed: list[bool] = []
    walk = learners._DropWalker._walk

    def spy(self, m, bound, seen):
        before = self._sides[0].length
        out = walk(self, m, bound, seen)
        passed.append(before < bound < self._sides[0].length)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(learners._DropWalker, "_walk", spy)
        yield passed


@pytest.mark.parametrize("low, far, slack", [(20, 45, 40), (20, 45, 80), (30, 100, 100)])
def test_critical_generator_past_the_bound_matches_function(low, far, slack):
    # The stream reveals 0..low, then jumps to far: the walk that looks for
    # far doubles the masks past the bound m + slack.  Far's rank may lie
    # between the bound and the mask length, where it must not be emitted.
    lang = parse("Fin{" + ",".join(map(str, range(low + 1))) + f"}} | Ray({far},1)")
    coll = LanguageCollection.explicit("c", [parse("I"), lang])
    with bounded(slack), walks_past_bound() as passed:
        play(
            FairInterleaver(lang),
            ConservativePairGenerator(coll),
            lambda r, t: conservative_pair_generate(coll, None, r, t),
            200,
        )
    assert any(passed)


@pytest.mark.parametrize("hole, slack, strict", [(40, 10, True), (60, 20, False)])
def test_pair_generator_past_the_bound_matches_function(hole, slack, strict):
    # The chosen difference is {hole}, at rank 2 * hole.  While the bound
    # lies below that rank the learners give up, though the doubled masks
    # may already hold it; once the bound passes it, they generate it.
    everything = parse("I")
    harm_lang = everything - parse(f"Fin{{{hole}}}")
    true_coll = LanguageCollection.explicit("t", [everything])
    harm_coll = LanguageCollection.explicit("h", [parse("E"), harm_lang])
    generator = ConservativePairGenerator(true_coll, harm_coll, strict=strict)
    log: list = []
    with bounded(slack), walks_past_bound() as passed:
        play(
            FairInterleaver(everything, harm_lang),
            generator,
            lambda r, t: conservative_pair_generate(
                true_coll, harm_coll, r, t, strict=strict, log=log
            ),
            200,
        )
    assert any(passed)
    assert generator.choice_log == log
    assert {rec.output_kind for rec in log} == {"generate", "give_up"}


def test_critical_generator_matches_function_on_diagonal_trap():
    true_coll, harm_coll = diagonal_trap_collections()
    play(
        DiagonalAdversary(true_coll, harm_coll),
        ConservativePairGenerator(true_coll),
        lambda r, t: conservative_pair_generate(true_coll, None, r, t),
        60,
    )


@st.composite
def around_target(draw, max_others):
    """A target language and a collection of supersets of it (its unions
    with random languages, which stay consistent with its stream) and
    random languages (which the stream may rule out), usually with the
    target itself among them."""
    target = draw(languages())
    others = draw(st.lists(languages(), min_size=1, max_size=max_others))
    unions = draw(st.lists(st.booleans(), min_size=len(others), max_size=len(others)))
    sets = [target | o if union else o for o, union in zip(others, unions)]
    if draw(st.integers(0, 3)):
        sets.insert(draw(st.integers(0, len(sets))), target)
    return target, LanguageCollection.explicit("c", sets)


@settings(max_examples=16, deadline=None)
@given(around_target(4), languages(), st.booleans())
def test_naive_identifier_matches_function(game, other, fair):
    target, coll = game
    play(
        FairInterleaver(target, other if fair else None),
        NaiveIdentifier(coll),
        lambda r, t: naive_identify(coll, r, t),
        200,
    )


@settings(max_examples=6, deadline=None)
@given(around_target(4), languages(), st.booleans())
def test_probe_identifier_matches_function(game, other, fair):
    target, coll = game
    play(
        FairInterleaver(target, other if fair else None),
        ProbeIdentifier(coll),
        lambda r, t: identify_with_probes(coll, r, t),
        200,
    )


def recording(log):
    """The relaxed reference subroutine, logging the hypotheses and the
    sample's events of every call."""

    def sg(k_lang, h_lang, sample):
        log.append((k_lang, h_lang, tuple(sample.events)))
        return relaxed_reference_sg(k_lang, h_lang, sample)

    return sg


@settings(max_examples=4, deadline=None)
@given(around_target(3))
def test_probe_identifier_feeds_sg_what_a_fresh_probe_holds(game):
    # The identifier extends one sample per compared pair across steps; the
    # functional form builds each probe afresh (``_probe_one``).  Every call
    # must see the same hypotheses and the same events, in the same order.
    target, coll = game
    kept, fresh = [], []
    learner = ProbeIdentifier(coll, recording(kept))
    adversary = FairInterleaver(target)
    revealed = RevealedSet()
    for t in range(1, 61):
        revealed.add(adversary.emit(t).example)
        out = learner.step(revealed, t)
        assert out == identify_with_probes(coll, revealed, t, recording(fresh)), t
        assert kept == fresh, t
        kept.clear()
        fresh.clear()


TELLTALE_GAME = json.loads((CATALOGUE / "telltale_bottom.json").read_text())


def telltale_collection(name, side, decoys, tells):
    """The ``telltale_bottom.json`` collection of ``side`` plus ``decoys``,
    the decoy at position j declaring its first ``tells[j]`` members as its
    telltale when that is not None; None when the telltales do not validate."""
    spec = TELLTALE_GAME[side]
    sets = [parse(x) for x in spec["sets"]] + decoys
    telltales = {int(i): frozenset(xs) for i, xs in spec["telltales"].items()}
    for j, (decoy, size) in enumerate(zip(decoys, tells), start=len(spec["sets"]) + 1):
        if size is not None:
            telltales[j] = frozenset(decoy.prefix(8 * size)[:size])
    try:
        return LanguageCollection.explicit(name, sets, telltales=telltales)
    except CollectionError:
        return None


@st.composite
def telltale_pairs(draw):
    sides = []
    for name, side in (("k", "true_collection"), ("h", "harm_collection")):
        decoys = draw(st.lists(languages(), max_size=3))
        tells = draw(st.lists(st.none() | st.integers(0, 3), min_size=3, max_size=3))
        coll = telltale_collection(name, side, decoys, tells)
        assume(coll is not None)
        sides.append(coll)
    return tuple(sides)


@settings(max_examples=12, deadline=None)
@given(telltale_pairs(), st.integers(0, 5), st.integers(0, 5), languages(), st.booleans())
def test_telltale_generator_matches_function(pair, pick_true, pick_harm, other, strict):
    # Each side streams a collection member or, when its pick points past
    # the list, a language that may sit outside the collection.
    true_coll, harm_coll = pair
    true_lang = true_coll.at(pick_true + 1) if pick_true < true_coll.length else other
    harm_lang = harm_coll.at(pick_harm + 1) if pick_harm < harm_coll.length else other
    play(
        FairInterleaver(true_lang, harm_lang),
        TelltaleGenerator(true_coll, harm_coll, strict=strict),
        lambda r, t: telltale_safe_generate(true_coll, harm_coll, r, t, strict=strict),
        200,
    )


def test_telltale_fallback_takes_the_harm_choice_at_the_largest_seen_rank():
    # No telltales, so every move is the fallback.  The second harm candidate
    # lacks 5 (rank 10), which the first has, so it drops at cutoff 10: after
    # a harm example of rank 9 it is still the choice, and the word is 5, the
    # first member of I outside it.  A choice at any larger cutoff gives 7.
    true_coll = LanguageCollection.explicit("k", [parse("I")])
    harm_coll = LanguageCollection.explicit(
        "h", [parse("N | E | Fin{1,3,5}"), parse("N | E | Fin{1,3}")]
    )
    generator = TelltaleGenerator(true_coll, harm_coll)
    revealed = RevealedSet()
    words = []
    for t, (x, label) in enumerate([(-4, 0), (0, 1), (-2, 0), (7, 1)], start=1):
        revealed.add(LabeledExample(x, label))
        out = generator.step(revealed, t)
        assert out == telltale_safe_generate(true_coll, harm_coll, revealed, t), t
        words.append(out.value)
    # Step 1 considers only the first harm candidate; step 4 has seen rank 14.
    assert words == [7, 5, 5, 9]


MAX_RANK = 40


class MaskLanguage:
    """A stand-in language for a side tracker: the ranks set in ``bits``
    (bit r - 1 for rank r) and nothing beyond them."""

    def __init__(self, bits):
        self.bits = bits

    def rank_mask_block(self, start, width):
        return (self.bits >> (start - 1)) & ((1 << width) - 1)

    def span(self):
        return 1


class MaskCollection:
    def __init__(self, masks):
        self.langs = [MaskLanguage(bits) for bits in masks]

    def at(self, i):
        return self.langs[i - 1]


@st.composite
def rank_masks(draw):
    """1 to 24 rank masks over ranks 1..MAX_RANK.  Each is a random mask or
    the first one with a few ranks flipped, so that the differences from
    the base range from sparse to dense."""
    first = draw(st.integers(0, 2**MAX_RANK - 1))
    masks = [first]
    for _ in range(draw(st.integers(0, 23))):
        if draw(st.booleans()):
            masks.append(draw(st.integers(0, 2**MAX_RANK - 1)))
        else:
            flips = draw(st.lists(st.integers(0, MAX_RANK - 1), max_size=3))
            masks.append(first ^ sum(1 << r for r in set(flips)))
    return masks


tracker_ops = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), st.integers(1, 24)),
        st.tuples(st.just("grow"), st.integers(1, MAX_RANK // 2)),
        # A rank of the masks: any one, one the base lacks (which kills the
        # base and forces a rebase), or one the base has and some live
        # candidate lacks.
        st.tuples(st.just("kill"), st.integers(0, 10**6), st.sampled_from(["any", "out", "in"])),
    ),
    max_size=40,
)


def expected_choices(masks, label, length):
    """Per cutoff m from 1 to ``length``, the position of the side's choice
    among ``masks``, by the definition: the last mask whose m-prefix is in
    the prefix-AND of the earlier m-prefixes (dually, contains their
    prefix-OR)."""
    out = {}
    for m in range(1, length + 1):
        low = (1 << m) - 1
        acc = -1 if label else 0
        for p, mask in enumerate(masks):
            mask &= low
            if (mask & ~acc if label else acc & ~mask) == 0:
                out[m] = p
            acc = acc & mask if label else acc | mask
    return out


def expected_drop(masks, p, label):
    """The least cutoff at which position p is no longer the choice material
    of its side: the lowest rank of its mask missing from an earlier mask
    (dually, of an earlier mask missing from its own); inf if none."""
    acc = -1 if label else 0
    for mask in masks[:p]:
        acc = acc & mask if label else acc | mask
    diff = masks[p] & ~acc if label else acc & ~masks[p]
    return (diff & -diff).bit_length() if diff else inf


@settings(max_examples=200, deadline=None)
@given(rank_masks(), tracker_ops, st.integers(1, MAX_RANK // 2), st.sampled_from([0, 1]))
def test_side_tracker_matches_definition(masks, ops, initial, label):
    # The tracker keeps its candidates as differences from the first live
    # one; after every admission, growth and kill, its live list, its full
    # masks, and its choice and drop point at every cutoff (asked in rising
    # order, which reuses the last choice, and in falling order, which
    # recomputes it) must match the definition over the full masks.
    coll = MaskCollection(masks)
    tracker = learners._SideTracker(coll, label)
    tracker.grow(initial)
    length, sample, admitted = initial, 0, 0
    for op in [("admit", 1), *ops]:
        if op[0] == "admit":
            admitted = min(len(masks), admitted + op[1])
            tracker.admit(admitted)
        elif op[0] == "grow":
            length += op[1]
            tracker.grow(length)
        else:
            full = (1 << length) - 1
            live = [m & full for m in masks[:admitted] if sample & ~m == 0]
            base = live[0] if live else full
            missed = 0
            for m in live:
                missed |= base & ~m
            pick = {"any": full, "out": full & ~base, "in": missed}[op[2]] or full
            ranks = [r for r in range(1, length + 1) if pick >> (r - 1) & 1]
            rank = ranks[op[1] % len(ranks)]
            before = [c.index for c in tracker.live]
            dead = tracker.kill(1 << (rank - 1))
            tracker.sample |= 1 << (rank - 1)
            sample |= 1 << (rank - 1)
            alive = {c.index for c in tracker.live}
            assert sorted(c.index for c in dead) == [i for i in before if i not in alive]
        full = (1 << length) - 1
        live = [i for i in range(1, admitted + 1) if sample & ~masks[i - 1] == 0]
        assert [c.index for c in tracker.live] == live
        live_masks = [masks[i - 1] & full for i in live]
        assert [tracker.mask(c) for c in tracker.live] == live_masks
        if not live:
            assert tracker.choice(1) is None
            continue
        choices = expected_choices(live_masks, label, length)
        for m in [*range(1, length + 1), *range(length, 0, -1)]:
            chosen, drop = tracker.choice(m)
            assert chosen.index == live[choices[m]], (m, label)
            assert drop == expected_drop(live_masks, choices[m], label), (m, label)


def test_probe_identifier_forgets_dead_candidates():
    # The first candidate holds the first two words of E's stream, 0 and 2,
    # and is compared with the second at step 2; it dies at the third word,
    # 4, and from then on no probe or member list names it.
    coll = LanguageCollection.explicit(
        "c", [parse("Fin{0, 2} | Ray(6, 2)"), parse("I"), parse("N"), parse("E")]
    )
    learner = ProbeIdentifier(coll)
    adversary = FairInterleaver(parse("E"))
    revealed = RevealedSet()
    for t in range(1, 9):
        revealed.add(adversary.emit(t).example)
        out = learner.step(revealed, t)
        assert out == identify_with_probes(coll, revealed, t), t
        live = {c.index for c in learner._sides[0].live}
        if t == 2:
            assert live == {1, 2} and (1, 2) in learner._probes and 1 in learner._members
        if t >= 3:
            assert 1 not in live
        assert all(i in live for key in learner._probes for i in key), t
        assert set(learner._members) <= live, t

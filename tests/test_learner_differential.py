"""The stateful generators against their functional forms, step by step.

``CriticalGenerator`` and ``ConservativePairGenerator`` escalate the prefix
cutoff over drop points and rank masks; ``critical_generate`` and
``conservative_pair_generate`` recompute every cutoff from the revealed
sample.  Every step must give the same move, or both must raise.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from limitgames import learners
from limitgames.adversaries import DiagonalAdversary, FairInterleaver, PositiveStream
from limitgames.families import LanguageCollection, RevealedSet, diagonal_trap_collections
from limitgames.fuzz import random_set
from limitgames.learners import (
    ConservativePairGenerator,
    CriticalGenerator,
    conservative_pair_generate,
    critical_generate,
)


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
    adversary = FairInterleaver(target, other) if fair else PositiveStream(target)
    with bounded(slack):
        play(
            adversary,
            CriticalGenerator(coll),
            lambda r, t: critical_generate(coll, r, t),
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
    with bounded(slack):
        play(
            FairInterleaver(true_lang, harm_lang),
            ConservativePairGenerator(true_coll, swallow, strict=strict),
            lambda r, t: conservative_pair_generate(true_coll, swallow, r, t, strict=strict),
            16,
        )


def test_critical_generator_matches_function_on_diagonal_trap():
    true_coll, harm_coll = diagonal_trap_collections()
    play(
        DiagonalAdversary(true_coll, harm_coll),
        CriticalGenerator(true_coll),
        lambda r, t: critical_generate(true_coll, r, t),
        60,
    )

import hashlib
from dataclasses import astuple
from itertools import islice

import pytest

from limitgames.adversaries import (
    AdversaryError,
    DiagonalAdversary,
    FairInterleaver,
    PhasedInjectionAdversary,
)
from limitgames.algebra import (
    PeriodicSet,
    all_integers,
    even_nonnegatives,
    negative_integers,
    odd_positives,
    y_set,
)
from limitgames.families import (
    LanguageCollection,
    RevealedSet,
    diagonal_trap_collections,
    identification_trap_collections,
)
from limitgames.learners import LearnerOutput, reference_safe_generate
from limitgames.setspec import format_set, parse
from test_scenario_cli import GAP_TRAP

I, O, E, N = all_integers(), odd_positives(), even_nonnegatives(), negative_integers()


def drain(adv, steps, respond=lambda t, em: None):
    """Run the emit/observe loop without a real learner; respond may return
    a LearnerOutput to feed back."""
    emitted = []
    for t in range(1, steps + 1):
        em = adv.emit(t)
        true_lang, harm_lang = adv.current_pair()
        side = true_lang if em.example.label == 1 else harm_lang
        assert em.example.element in side, (t, em)
        emitted.append(em)
        out = respond(t, em)
        if out is not None:
            adv.observe(out)
    return emitted


def test_positive_stream():
    adv = FairInterleaver(O)
    ems = drain(adv, 5)
    assert [(e.example.element, e.example.label) for e in ems] == [
        (1, 1), (3, 1), (5, 1), (7, 1), (9, 1)
    ]
    with pytest.raises(AdversaryError):
        FairInterleaver(PeriodicSet.finite({1}))


def test_fair_interleaver_examples():
    ems = drain(FairInterleaver(I, y_set(0)), 4)
    assert [(e.example.element, e.example.label) for e in ems] == [
        (0, 1), (0, 0), (1, 1), (2, 0)
    ]
    ems = drain(FairInterleaver(O, E), 4)
    assert [(e.example.element, e.example.label) for e in ems] == [
        (1, 1), (0, 0), (3, 1), (2, 0)
    ]


def test_fair_interleaver_covers_both_languages():
    adv = FairInterleaver(O, E)
    ems = drain(adv, 80)
    seen = {(e.example.element, e.example.label) for e in ems}
    # Every element of rank <= r appears within about 2r steps per side.
    for x in O.prefix(20):
        assert (x, 1) in seen
    for x in E.prefix(20):
        assert (x, 0) in seen


def test_fair_interleaver_without_harm_side_enumerates_true_side():
    adv = FairInterleaver(I)
    ems = drain(adv, 12)
    assert [(e.example.element, e.example.label) for e in ems] == [(x, 1) for x in I.prefix(12)]
    assert adv.current_pair() == (I, PeriodicSet.empty())
    with pytest.raises(AdversaryError, match="infinite"):
        FairInterleaver(PeriodicSet.finite({1, 2}))


def test_fair_interleaver_rejects_finite_sides():
    with pytest.raises(AdversaryError):
        FairInterleaver(PeriodicSet.finite({1}), E)
    with pytest.raises(AdversaryError):
        FairInterleaver(O, PeriodicSet.empty())


# ----------------------------------------------------------------------
# phased injections
# ----------------------------------------------------------------------


def test_phased_triggers_injection_on_correct_guess():
    true_coll, _ = identification_trap_collections()
    adv = PhasedInjectionAdversary(true_coll)
    em1 = adv.emit(1)
    assert (em1.example.element, em1.example.label) == (0, 1)
    adv.observe(LearnerOutput.index(3))  # q_set(1), the current safe language
    assert adv.phase == 2
    em2 = adv.emit(2)
    assert em2.injected and (em2.example.element, em2.example.label) == (-1, 0)


def test_phased_stream_without_triggers_is_pure_interleave():
    true_coll, _ = identification_trap_collections()
    adv = PhasedInjectionAdversary(true_coll)
    ems = drain(adv, 6, respond=lambda t, em: LearnerOutput.index(1))
    assert [(e.example.element, e.example.label) for e in ems] == [
        (0, 1), (0, 0), (1, 1), (2, 0), (-1, 1), (4, 0)
    ]
    assert adv.phase == 1
    assert adv.current_pair() == (I, y_set(0))


def test_phased_eager_guessing_interleaves_injections():
    true_coll, _ = identification_trap_collections()
    adv = PhasedInjectionAdversary(true_coll)
    depth = 0

    def eager(t, em):
        nonlocal depth
        if em.example.label == 0 and em.example.element < 0:
            depth = max(depth, -em.example.element)
        return LearnerOutput.index(depth + 3)

    ems = drain(adv, 10, respond=eager)
    injected = [e.example.element for e in ems if e.injected]
    assert injected == [-1, -2, -3, -4, -5]
    # Injections alternate with master progress, never twice in a row.
    flags = [e.injected for e in ems]
    assert all(not (flags[i] and flags[i + 1]) for i in range(len(flags) - 1))


def test_phased_injections_break_prior_harm_hypothesis():
    true_coll, _ = identification_trap_collections()
    adv = PhasedInjectionAdversary(true_coll)
    depth = 0

    def eager(t, em):
        nonlocal depth
        if em.example.label == 0 and em.example.element < 0:
            depth = max(depth, -em.example.element)
        return LearnerOutput.index(depth + 3)

    drain(adv, 40, respond=eager)
    assert len(adv.injections) >= 5
    for _step, l in adv.injections:
        assert -l not in y_set(l - 1)
        assert -l in y_set(l)
        assert -l in N | E


def test_phased_limit_pair():
    true_coll, _ = identification_trap_collections()
    adv = PhasedInjectionAdversary(true_coll)
    assert adv.limit_pair() == (I, N | E)


# ----------------------------------------------------------------------
# diagonal
# ----------------------------------------------------------------------


def test_diagonal_advances_against_correct_generator():
    # A generator that safely generates for the currently committed pair
    # (oracle view) is detected and punished within a few steps.
    true_coll, harm_coll = diagonal_trap_collections()
    adv = DiagonalAdversary(true_coll, harm_coll)
    revealed = RevealedSet()
    for t in range(1, 201):
        em = adv.emit(t)
        revealed.add(em.example)
        adv.observe(reference_safe_generate(*adv.current_pair(), revealed, strict=True))
    assert adv.phase - 1 >= 1


def test_diagonal_never_advances_against_bottom():
    true_coll, harm_coll = diagonal_trap_collections()
    adv = DiagonalAdversary(true_coll, harm_coll)
    drain(adv, 200, respond=lambda t, em: LearnerOutput.bottom())
    assert adv.phase == 1
    committed = adv.current_pair()
    assert (committed[0] - committed[1]).cardinality().is_infinite


def delayed_game(k, steps):
    """Play the diagonal adversary against a learner that answers only at
    steps divisible by ``k``, with the first unseen word of the committed
    pair's difference (bottom when there is none), and bottom otherwise.
    Its late answers let the refinement skip elements, so the queues fill
    and flush.  Returns the adversary and, per step, the element, its label,
    the phase and the printed pair where it changed."""
    adv = DiagonalAdversary(*diagonal_trap_collections())
    revealed = RevealedSet()
    log, pair = [], None
    for t in range(1, steps + 1):
        em = adv.emit(t)
        new_pair = adv.current_pair()
        changed, pair = new_pair != pair, new_pair
        assert em.example.element in pair[1 - em.example.label], (t, em)
        revealed.add(em.example)
        word = (pair[0] - pair[1]).first_not_in(revealed) if t % k == 0 else None
        log.append((em.example.element, em.example.label, adv.phase,
                    tuple(map(format_set, pair)) if changed else None))
        adv.observe(LearnerOutput.bottom() if word is None else LearnerOutput.generate(word))
    return adv, log


# The sha256 of ``delayed_game(k, 800)``'s per-step log, boundaries and
# detection steps.  At k = 1 every phase ends by catch-up; at k = 17 and 40
# the true queue (and at 40 the harm queue) pops elements, and phases end
# from flush.
DELAYED_DIGESTS = {
    1: "0de4fa7d6d2cbac4892608ab0b0dd88d0e9ee4eef3d205ec35d38f007813cb32",
    17: "3c302b8867d4d1a52a6d8b8c6f6f4d00b391c10f28b1cd47b5f3b7f8047a5ffa",
    40: "a2d15dc05bfc797678d0a719631f1698c213318cca48abbd4308982228ac20d2",
}


@pytest.mark.parametrize("k", sorted(DELAYED_DIGESTS))
def test_diagonal_delayed_learner_digest(k):
    adv, log = delayed_game(k, 800)
    record = (log, [astuple(b) for b in adv.boundaries], adv.detection_steps)
    assert hashlib.sha256(repr(record).encode()).hexdigest() == DELAYED_DIGESTS[k]


def test_diagonal_flush_covers_skipped_prefix():
    adv, log = delayed_game(40, 800)
    assert adv.phase >= 2
    # The queues really flushed: on each side some element went out after a
    # larger one, which the top enumerations (E and the naturals, both in
    # increasing order) reach later.
    for label in (0, 1):
        side = [element for element, lab, _, _ in log if lab == label]
        assert any(x < max(side[:i]) for i, x in enumerate(side) if i), label
    for boundary in adv.boundaries:
        assert boundary.skipped_true == 0
        assert boundary.skipped_harm == 0
    # Everything the master enumerations passed over has been emitted by the
    # last boundary: positions 1..cursor of each top enumeration.
    last = adv.boundaries[-1]
    emitted = {(element, label) for element, label, _, _ in log[: last.step]}
    top_true, top_harm = adv.limit_pair()
    assert all((x, 1) in emitted for x in islice(top_true.iter_universe_order(), last.cursor_true))
    assert all((x, 0) in emitted for x in islice(top_harm.iter_universe_order(), last.cursor_harm))


def test_diagonal_rejects_bad_collections():
    true_coll, harm_coll = diagonal_trap_collections()
    with pytest.raises(AdversaryError):
        DiagonalAdversary(harm_coll, true_coll)
    with pytest.raises(AdversaryError):
        DiagonalAdversary(true_coll, None)
    # The explicit gap pair: it looks like the trap over the first 64 ranks,
    # but its refinements jump to 10**9, and an adversary built on it would
    # scan the whole gap.
    gap = [
        LanguageCollection.explicit(side, [parse(x) for x in GAP_TRAP[f"{side}_collection"]["sets"]])
        for side in ("true", "harm")
    ]
    with pytest.raises(AdversaryError, match="diagonal_trap_true"):
        DiagonalAdversary(*gap)

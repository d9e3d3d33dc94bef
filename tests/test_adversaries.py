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
    RevealedSet,
    diagonal_trap_collections,
    identification_trap_collections,
)
from limitgames.learners import LearnerOutput, reference_safe_generate

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


def test_diagonal_flush_covers_skipped_prefix():
    true_coll, harm_coll = diagonal_trap_collections()
    adv = DiagonalAdversary(true_coll, harm_coll)
    revealed = RevealedSet()
    emitted = set()

    def learner(t, em):
        emitted.add((em.example.element, em.example.label))
        revealed.add(em.example)
        k, h = adv.current_pair()
        word = (k - h).first_not_in(revealed)
        return LearnerOutput.generate(word) if word is not None else LearnerOutput.bottom()

    drain(adv, 400, respond=learner)
    assert adv.phase >= 2
    for boundary in adv.boundaries:
        assert boundary.skipped_true == 0
        assert boundary.skipped_harm == 0
    # Everything the master enumerations passed over has been emitted by the
    # last boundary: positions 1..cursor of each top enumeration.
    last = adv.boundaries[-1]
    top_true, top_harm = adv.limit_pair()
    for pos, x in enumerate(top_true.iter_universe_order(), start=1):
        if pos > last.cursor_true:
            break
        assert (x, 1) in emitted, (pos, x)
    for pos, x in enumerate(top_harm.iter_universe_order(), start=1):
        if pos > last.cursor_harm:
            break
        assert (x, 0) in emitted, (pos, x)


def test_diagonal_rejects_bad_collections():
    true_coll, harm_coll = diagonal_trap_collections()
    with pytest.raises(AdversaryError):
        DiagonalAdversary(harm_coll, true_coll)

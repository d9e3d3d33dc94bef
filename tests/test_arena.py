import dataclasses
import json
from enum import Enum
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitgames.adversaries import Emission, FairInterleaver
from limitgames.algebra import (
    PeriodicSet,
    all_integers,
    difference,
    even_nonnegatives,
    negative_integers,
    odd_positives,
    q_set,
    y_set,
)
from limitgames.arena import (
    GameKind,
    ScenarioError,
    ScenarioSpec,
    StepRecord,
    Trace,
    TraceRuleError,
    rescore_trace,
    run_game,
    score_against_pair,
    score_step,
)
from limitgames.cli import CATALOGUE
from limitgames.families import LabeledExample, LanguageCollection, RevealedSet
from limitgames.learners import ConservativePairGenerator, LearnerOutput, StubbornIdentifier
from limitgames.scenario import load_file
from limitgames.setspec import format_set

I, O, E, N = all_integers(), odd_positives(), even_nonnegatives(), negative_integers()


def revealed(pos=(), neg=()):
    r = RevealedSet()
    for x in pos:
        r.add(LabeledExample(x, 1))
    for x in neg:
        r.add(LabeledExample(x, 0))
    return r


def test_score_generation():
    harm = N | E
    assert score_step(GameKind.SG, LearnerOutput.generate(7), I, harm, revealed())
    assert not score_step(GameKind.SG, LearnerOutput.generate(4), I, harm, revealed())
    assert not score_step(
        GameKind.SG, LearnerOutput.generate(7), I, harm, revealed(pos=[7])
    )
    assert score_step(GameKind.SG, LearnerOutput.bottom(), E, I, revealed())
    # Finite nonempty difference also licenses bottom.
    assert score_step(GameKind.SG, LearnerOutput.bottom(), y_set(2), E, revealed())
    assert not score_step(GameKind.SG, LearnerOutput.bottom(), I, harm, revealed())
    # Wrong output species is simply wrong.
    assert not score_step(GameKind.SG, LearnerOutput.index(1), I, harm, revealed())


def test_score_relaxed():
    assert score_step(GameKind.SG_RELAXED, LearnerOutput.generate(0), E, I, revealed())
    assert not score_step(GameKind.SG_RELAXED, LearnerOutput.bottom(), E, I, revealed())
    assert score_step(
        GameKind.SG_RELAXED, LearnerOutput.generate(7), I, N | E, revealed()
    )
    assert not score_step(
        GameKind.SG_RELAXED, LearnerOutput.generate(4), I, N | E, revealed()
    )


def test_score_identification():
    coll = LanguageCollection.explicit("c", [I, O, q_set(1)])
    assert score_step(
        GameKind.SI, LearnerOutput.index(3), I, y_set(0), revealed(), coll
    )
    assert not score_step(
        GameKind.SI, LearnerOutput.index(1), I, y_set(0), revealed(), coll
    )
    assert score_step(GameKind.LI, LearnerOutput.index(2), O, E, revealed(), coll)
    assert not score_step(GameKind.LI, LearnerOutput.index(1), O, E, revealed(), coll)


def _catalogue_game(file, horizon, window):
    spec = load_file(CATALOGUE / file)
    spec.horizon, spec.window = horizon, window
    return spec


def _gen_spec():
    return _catalogue_game("generation.json", 120, 30)


def test_run_game_is_deterministic():
    a = run_game(_gen_spec())
    b = run_game(_gen_spec())
    assert a.trace.to_jsonl() == b.trace.to_jsonl()
    assert a.verdict == b.verdict


SINGLE_GAMES = sorted(
    p.name for p in CATALOGUE.glob("*.json") if "battery" not in json.loads(p.read_text())
)


@pytest.mark.parametrize(
    "file,horizon,window",
    [
        ("generation.json", 120, 30),
        # Every single-game catalogue file at its own horizon.
        *[(file, None, None) for file in SINGLE_GAMES],
        # Short games of the diagonal and the phased adversary.
        ("oracle_not_enough.json", 60, 15),
        ("safe_id_impossible_eager.json", 60, 15),
    ],
)
def test_trace_roundtrip_and_rescore(play, file, horizon, window):
    if horizon is None:
        spec, result, _ = play(file)
    else:
        spec = _catalogue_game(file, horizon, window)
        result = run_game(spec)
    text = result.trace.to_jsonl()
    back = Trace.from_jsonl(text)
    assert "".join(back.lines()) == text
    assert rescore_trace(back, spec.true_coll) == [s.correct for s in result.trace.steps]


def _dumps_row(s: StepRecord) -> str:
    """A step row as a dict through ``json.dumps``: the oracle for the bytes
    of ``Trace.lines``."""
    row = {
        "t": s.t,
        "element": s.element,
        "label": s.label,
        "injected": s.injected,
        "output": s.output.kind,
        "value": s.output.value,
        "correct": s.correct,
        "phase": s.phase,
    }
    if s.pair is not None:
        row["pair"] = [format_set(s.pair[0]), format_set(s.pair[1])]
    return json.dumps(row, sort_keys=True) + "\n"


_row_ints = st.integers(-5, 5) | st.integers(-(10**30), 10**30)
_row_sets = st.one_of(
    st.just(PeriodicSet.finite([])),
    st.sampled_from([I, O, E, N, y_set(3), q_set(2)]),
    st.lists(_row_ints, max_size=300).map(PeriodicSet.finite),
    st.integers(-40, 40).map(lambda a: PeriodicSet.finite(range(a, a + 200))),
    st.builds(PeriodicSet.ray, st.integers(-50, 50), st.sampled_from([-3, -2, -1, 1, 2, 3])),
)
_rows = st.builds(
    StepRecord,
    t=_row_ints,
    element=_row_ints,
    label=st.sampled_from([0, 1]),
    injected=st.booleans(),
    output=st.one_of(
        st.just(LearnerOutput.bottom()),
        st.builds(LearnerOutput.generate, _row_ints),
        st.builds(LearnerOutput.index, st.integers(1, 10**30)),
    ),
    correct=st.booleans(),
    phase=_row_ints,
    pair=st.none() | st.tuples(_row_sets, _row_sets),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_rows, max_size=4))
def test_trace_rows_match_json_dumps(steps):
    trace = Trace("rows", GameKind.SG, 10, 5, steps)
    assert list(trace.lines())[1:] == [_dumps_row(s) for s in steps]


class _Kind(str, Enum):
    GENERATE = "generate"


@pytest.mark.parametrize(
    "fault,message",
    [
        ({"output": LearnerOutput("generate", 1.5)}, "field 'value' must be an integer"),
        ({"output": LearnerOutput("index", True)}, "field 'value' must be an integer"),
        ({"output": LearnerOutput("shout", 3)}, "field 'output': unknown output kind 'shout'"),
        ({"output": LearnerOutput(_Kind.GENERATE, 3)}, "field 'output': unknown output kind"),
        ({"element": True}, "field 'element' must be an integer"),
        ({"t": 5.0}, "field 't' must be an integer"),
        ({"injected": 0}, "field 'injected' must be a boolean"),
        ({"label": 2}, "field 'label' must be 0 or 1"),
        ({"output": LearnerOutput("generate", None)}, "field 'value' must be an integer"),
        ({"output": LearnerOutput("index", 0)}, "field 'value': an index must be >= 1"),
    ],
)
def test_trace_rows_refuse_what_replay_refuses(fault, message):
    # Step 5 is the trace's line 6.  The decoder refuses each of these rows,
    # and the format string would write some of them in a form json.dumps
    # never gives: 5 for 5.0, 1 for true, True for true.
    trace = run_game(_gen_spec()).trace
    trace.steps[4] = dataclasses.replace(trace.steps[4], **fault)
    with pytest.raises(ScenarioError) as raised:
        trace.to_jsonl()
    assert str(raised.value).startswith(f"trace line 6: {message}")


def test_score_against_pair_post_hoc():
    result = run_game(_gen_spec())
    # Against a harm language equal to the true language nothing is safe.
    flags = score_against_pair(result.trace, O, O)
    assert not any(flags)


def test_verdict_fields():
    result = run_game(_gen_spec())
    v = result.verdict
    assert v.converged
    assert v.convergence_step == 2  # step 1 guesses before evidence arrives
    assert v.correct_in_final_window == 30
    assert v.phase_transitions == 0


def test_window_validation():
    spec = _gen_spec()
    spec.window = spec.horizon
    with pytest.raises(ScenarioError):
        run_game(spec)


def test_identification_needs_collection():
    spec = _gen_spec()
    spec.game = GameKind.LI
    spec.true_coll = None
    with pytest.raises(ScenarioError):
        spec.validate()


def test_sg_inf_promise_validation():
    ct = LanguageCollection.explicit("k", [I, O])
    ch = LanguageCollection.explicit("h", [E, I])  # I swallows everything
    spec = ScenarioSpec(
        name="bad",
        game=GameKind.SG_INF,
        adversary_factory=lambda: FairInterleaver(O, E),
        learner_factory=lambda: ConservativePairGenerator(ct, ch),
        horizon=50,
        window=10,
        true_coll=ct,
        harm_coll=ch,
    )
    with pytest.raises(ScenarioError):
        spec.validate()


def test_sg_inf_promise_accepts_valid_pairing():
    ct = LanguageCollection.explicit("k", [I, O, q_set(1)])
    ch = LanguageCollection.explicit("h", [E, y_set(0)])
    spec = ScenarioSpec(
        name="ok",
        game=GameKind.SG_INF,
        adversary_factory=lambda: FairInterleaver(O, E),
        learner_factory=lambda: ConservativePairGenerator(ct, ch),
        horizon=60,
        window=20,
        true_coll=ct,
        harm_coll=ch,
    )
    result = run_game(spec)
    assert result.verdict.converged


def test_li_target_index():
    result = run_game(_catalogue_game("identify_naive.json", 40, 10))
    assert result.verdict.target_index == 2
    assert result.verdict.correct_in_final_window == 0


def test_difference_memo_holds_only_the_latest_game():
    coll = LanguageCollection.explicit("si", [I, O, q_set(1)])
    for pair in ((I, y_set(0)), (O, E)):
        adversary = partial(FairInterleaver, *pair)
        run_game(ScenarioSpec("si", GameKind.SI, adversary, StubbornIdentifier, 20, 5, coll))
    info = difference.cache_info()
    assert info.currsize == 1
    difference(O, E)
    assert difference.cache_info().hits == info.hits + 1


def _faulty_game(step, **fault):
    """The shortened generation game, whose adversary at ``step`` emits
    ``element`` (labelled 1) or reports ``phase`` from then on."""
    spec = _gen_spec()
    make = spec.adversary_factory

    def factory():
        adversary = make()
        emit = adversary.emit

        def faulty_emit(t):
            emission = emit(t)
            if t < step:
                return emission
            if "phase" in fault:
                adversary.phase = fault["phase"]
            if t == step and "element" in fault:
                return Emission(LabeledExample(fault["element"], 1))
            return emission

        adversary.emit = faulty_emit
        return adversary

    spec.adversary_factory = factory
    return spec


@pytest.mark.parametrize(
    "fault,message",
    [
        # The generation game's true language is O, the odd positives.
        ({"element": -7}, "step 5: element -7 is labelled 1 but is not in the committed true language"),
        ({"phase": 0}, "step 5: phase falls from 1 to 0"),
    ],
)
def test_play_breaks_a_rule_as_replay_does(fault, message):
    with pytest.raises(TraceRuleError) as played:
        run_game(_faulty_game(5, **fault))
    assert str(played.value) == message
    # The same edit of a stored trace's step 5 fails replay with the same message.
    trace = run_game(_gen_spec()).trace
    trace.steps[4] = dataclasses.replace(trace.steps[4], **fault)
    with pytest.raises(TraceRuleError) as replayed:
        rescore_trace(Trace.from_jsonl(trace.to_jsonl()))
    assert str(replayed.value) == message

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every game comes from the scenario catalogue (``demos/scenarios/``)
through the ``play`` fixture, which runs each file once per session, so the
byte-determinism criterion can re-run them for comparison without repeating
every check.
"""

import time

from limitgames.algebra import (
    all_integers,
    even_nonnegatives,
    negative_integers,
    odd_positives,
    q_set,
    y_set,
)
from limitgames.arena import rescore_trace, run_game, score_against_pair
from limitgames.cli import CATALOGUE, DEMOS
from limitgames.families import LabeledExample, RevealedSet
from limitgames.fuzz import run_suite
from limitgames.learners import subset_probe
from limitgames.scenario import Battery, load_file

I, O, E, N = all_integers(), odd_positives(), even_nonnegatives(), negative_integers()

# The catalogue files the criteria play; criterion 11 re-runs each of them.
GAMES = (
    "generation.json",
    "sg_inf.json",
    "identify_probe.json",
    "identify_naive.json",
    "safe_id_impossible_eager.json",
    "safe_id_impossible_stubborn.json",
    "oracle_not_enough.json",
    "telltale_bottom.json",
    "conservative_fails.json",
)


def _replay_seen(trace):
    """Yield (step, seen_through_step) pairs while replaying a trace."""
    seen = set()
    for s in trace.steps:
        seen.add(s.element)
        yield s, seen


def test_criterion_01_algebra_oracle_equivalence():
    start = time.monotonic()
    report = run_suite(seed=1, count=1000)
    elapsed = time.monotonic() - start
    assert report.ok, report.describe()
    assert elapsed < 10.0, f"fuzz suite took {elapsed:.2f}s"
    print(f"criterion 1 PASS: 1000 random triples, pointwise agreement ({elapsed:.2f}s)")


def test_criterion_02_proof_construction_identities():
    start = time.monotonic()
    for a in range(21):
        assert I - y_set(a) == q_set(a + 1)
    assert I - (N | E) == O
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"criterion 2 PASS: difference identities exact ({elapsed:.3f}s)")


def test_criterion_03_generation_convergence(play):
    _, result, elapsed = play("generation.json")
    assert elapsed < 5.0, f"run took {elapsed:.2f}s"
    assert result.verdict.converged
    for step, seen in _replay_seen(result.trace):
        assert step.output.is_generate
        assert step.output.value not in seen, f"repeated seen string at t={step.t}"
    print(
        "criterion 3 PASS: generation converged at step "
        f"{result.verdict.convergence_step}, no seen string repeated ({elapsed:.2f}s)"
    )


def test_criterion_04_infinite_difference_convergence(play):
    _, result, elapsed = play("sg_inf.json")
    assert elapsed < 5.0
    assert result.verdict.converged
    window_start = result.trace.horizon - result.trace.window
    safe = O - E
    for step, seen in _replay_seen(result.trace):
        if step.t > window_start:
            assert step.output.is_generate
            assert step.output.value in safe
            assert step.output.value not in seen
    print(
        "criterion 4 PASS: infinite-difference run converged, final window all "
        f"safe unseen words ({elapsed:.2f}s)"
    )


def test_criterion_05_identification_separation(play):
    _, probe_result, probe_elapsed = play("identify_probe.json")
    _, naive_result, naive_elapsed = play("identify_naive.json")
    assert probe_elapsed + naive_elapsed < 5.0
    assert naive_result.verdict.correct_in_final_window == 0
    assert probe_result.verdict.converged
    window_start = probe_result.trace.horizon - probe_result.trace.window
    for step in probe_result.trace.steps[window_start:]:
        assert step.output.is_index and step.output.value == 2
    print(
        "criterion 5 PASS: naive identifier scored 0 in the final window, "
        f"probe identifier settled on index 2 ({probe_elapsed + naive_elapsed:.2f}s)"
    )


def test_criterion_06_probe_bitstrings():
    start = time.monotonic()
    r = RevealedSet()
    for x in (1, 3, 5):
        r.add(LabeledExample(x, 1))
    assert subset_probe(O, I, r) == (0, 1)
    assert subset_probe(I, O, r) == (1, 0)
    assert subset_probe(O, O, r) == (0, 0)
    assert subset_probe(O, E, r) == (1, 1)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"criterion 6 PASS: probe bitstrings 01, 10, 00, 11 ({elapsed:.3f}s)")


def test_criterion_07_phased_adversary(play):
    _, eager_result, eager_elapsed = play("safe_id_impossible_eager.json")
    _, stubborn_result, stubborn_elapsed = play("safe_id_impossible_stubborn.json")
    assert eager_elapsed + stubborn_elapsed < 10.0
    assert eager_result.verdict.phase_transitions >= 5
    adversary = eager_result.adversary
    assert adversary.injections
    for _step, depth in adversary.injections:
        assert -depth not in y_set(depth - 1)
        assert -depth in y_set(depth)
        assert -depth in N | E
    assert sum(s.correct for s in stubborn_result.trace.steps) == 0
    assert stubborn_result.adversary.current_pair() == (I, y_set(0))
    print(
        f"criterion 7 PASS: {eager_result.verdict.phase_transitions} phase "
        "transitions against the eager identifier, every injection breaks the "
        "prior harm hypothesis, stubborn identifier scored 0 "
        f"({eager_elapsed + stubborn_elapsed:.2f}s)"
    )


def test_criterion_08_diagonal_adversary(play):
    _, result, elapsed = play("oracle_not_enough.json")
    assert elapsed < 10.0, f"run took {elapsed:.2f}s"
    assert result.verdict.phase_transitions >= 3
    adversary = result.adversary
    for boundary in adversary.boundaries:
        assert boundary.skipped_true == 0 and boundary.skipped_harm == 0
    top_flags = score_against_pair(result.trace, *adversary.limit_pair())
    assert adversary.detection_steps
    for t in adversary.detection_steps:
        step = result.trace.steps[t - 1]
        assert not step.output.is_bottom
        assert not top_flags[t - 1]
    print(
        f"criterion 8 PASS: {result.verdict.phase_transitions} diagonal phase "
        "transitions, skipped queues empty at every boundary, every detection "
        f"output unsafe against the limit pair ({elapsed:.2f}s)"
    )


def test_criterion_09_bottom_semantics(play):
    _, result, elapsed = play("telltale_bottom.json")
    assert elapsed < 2.0
    assert result.verdict.converged
    window_start = result.trace.horizon - result.trace.window
    for step in result.trace.steps[window_start:]:
        assert step.output.is_bottom and step.correct
    print(
        "criterion 9 PASS: telltale generator settled on bottom by step "
        f"{result.verdict.convergence_step}, final window scored correct ({elapsed:.2f}s)"
    )


def test_criterion_10_conservative_failure_exhibit(play):
    _, result, elapsed = play("conservative_fails.json")
    assert elapsed < 2.0
    learner = result.learner
    true_diff = (I - y_set(0)).cardinality()
    assert true_diff.is_infinite
    stuck = [
        rec for rec in learner.choice_log if rec.diff is not None and rec.diff.is_bounded
    ]
    assert stuck, "no step exhibited an empty chosen difference"
    assert stuck[0].diff.is_empty
    print(
        f"criterion 10 PASS: chosen pair difference empty on {len(stuck)} steps "
        f"while the true difference is infinite ({elapsed:.2f}s)"
    )


def test_criterion_11_determinism(play):
    for file in GAMES:
        _, first, _ = play(file)
        again = run_game(load_file(CATALOGUE / file))
        assert again.trace.to_jsonl() == first.trace.to_jsonl(), file
        assert again.verdict == first.verdict, file
    print(f"criterion 11 PASS: {len(GAMES)} scenarios re-ran byte-identically")


def test_traces_replay_to_stored_flags(play):
    # Replay safety net on top of the determinism criterion: stored traces
    # re-score to their recorded correctness flags.
    for file in (
        "generation.json",
        "sg_inf.json",
        "safe_id_impossible_eager.json",
        "conservative_fails.json",
    ):
        spec, result, _ = play(file)
        flags = rescore_trace(result.trace, spec.true_coll)
        assert flags == [s.correct for s in result.trace.steps], file


def test_catalogue_files_all_used():
    used = set(GAMES)
    for files, _check in DEMOS.values():
        assert all((CATALOGUE / f).is_file() for f in files), files
        used.update(files)
    games = set()
    for path in CATALOGUE.glob("*.json"):
        loaded = load_file(path)
        if isinstance(loaded, Battery):
            used.update(p.name for p in loaded.paths)
        else:
            games.add(path.name)
    assert used == games

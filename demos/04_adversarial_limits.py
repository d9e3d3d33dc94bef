"""
Why the safety variants are hard: three adversarial experiments
===============================================================

Each experiment is a finite, deterministic rendition of a limit-behaviour
argument.  The adversaries adapt to the learner's answers, and their
currently committed language pair makes every finite trace scoreable.

1. Safe-language identification: an adversary that punishes every correct
   guess with a consistency-breaking injection, forever.
2. Emptiness oracles are not enough: a diagonalizing adversary that keeps
   revising the hidden pair toward a limit with no safe words at all.
3. Conservative pairing fails without the infinite-difference promise: the
   smallest-true / largest-harm choice can have an empty difference even
   though the hidden pair leaves infinitely many safe words.
"""

from pathlib import Path

from limitgames import run_game
from limitgames.arena import score_against_pair
from limitgames.scenario import load_file

CATALOGUE = Path(__file__).resolve().parent / "scenarios"


def play(file, horizon, window):
    """Play a catalogue game at a shorter horizon and window than its file's."""
    spec = load_file(CATALOGUE / file)
    spec.horizon, spec.window = horizon, window
    return run_game(spec)


# ----------------------------------------------------------------------
# 1. The identification trap
# ----------------------------------------------------------------------

# The phased injection adversary against EagerIdentifier.
result = play("safe_id_impossible_eager.json", 400, 50)
print("identification trap:")
print("  every correct guess triggers an injection; phase transitions =",
      result.verdict.phase_transitions)
injected = [(s.t, s.element) for s in result.trace.steps if s.injected][:5]
print("  first injections (step, element):", injected)

# ----------------------------------------------------------------------
# 2. The diagonal trap
# ----------------------------------------------------------------------

# The diagonal adversary against the prefix-critical learner.
result = play("oracle_not_enough.json", 400, 50)
adv = result.adversary
print("diagonal trap:")
print("  phase transitions =", result.verdict.phase_transitions)
top_flags = score_against_pair(result.trace, *adv.limit_pair())
unsafe = sum(1 for t in adv.detection_steps if not top_flags[t - 1])
print(f"  of {len(adv.detection_steps)} detected generations, {unsafe} are unsafe "
      "against the limit pair (whose difference is empty)")

# ----------------------------------------------------------------------
# 3. Conservative pairing without the promise
# ----------------------------------------------------------------------

# True side [I], harm side [Y(0), I], and a fair interleaving of I with Y(0).
result = play("conservative_fails.json", 120, 30)
learner = result.learner
stuck = [r for r in learner.choice_log if r.diff is not None and r.diff.is_bounded]
print("conservative pairing without the promise:")
print(f"  true difference is infinite, yet the chosen pair's difference was "
      f"empty on {len(stuck)} of {result.trace.horizon} steps, forcing bottom")

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

from limitgames import GameKind, LanguageCollection, ScenarioSpec, run_game
from limitgames.adversaries import DiagonalAdversary, FairInterleaver, PhasedInjectionAdversary
from limitgames.algebra import all_integers, y_set
from limitgames.arena import score_against_pair
from limitgames.families import diagonal_trap_collections, identification_trap_collections
from limitgames.learners import ConservativePairGenerator, EagerIdentifier

# ----------------------------------------------------------------------
# 1. The identification trap
# ----------------------------------------------------------------------

true_coll, harm_coll = identification_trap_collections()
spec = ScenarioSpec(
    name="identification-trap",
    game=GameKind.SI,
    adversary_factory=lambda: PhasedInjectionAdversary(true_coll),
    learner_factory=lambda: EagerIdentifier(true_coll),
    horizon=400,
    window=50,
    true_coll=true_coll,
    harm_coll=harm_coll,
)
result = run_game(spec)
print("identification trap:")
print("  every correct guess triggers an injection; phase transitions =",
      result.verdict.phase_transitions)
injected = [(s.t, s.element) for s in result.trace.steps if s.injected][:5]
print("  first injections (step, element):", injected)

# ----------------------------------------------------------------------
# 2. The diagonal trap
# ----------------------------------------------------------------------

dt_true, dt_harm = diagonal_trap_collections()
spec = ScenarioSpec(
    name="diagonal-trap",
    game=GameKind.SG,
    adversary_factory=lambda: DiagonalAdversary(dt_true, dt_harm),
    learner_factory=lambda: ConservativePairGenerator(dt_true),
    horizon=400,
    window=50,
    true_coll=dt_true,
    harm_coll=dt_harm,
)
result = run_game(spec)
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

I = all_integers()
cf_true = LanguageCollection.explicit("cf-true", [I])
cf_harm = LanguageCollection.explicit("cf-harm", [y_set(0), I])
spec = ScenarioSpec(
    name="conservative-fails",
    game=GameKind.SG,
    adversary_factory=lambda: FairInterleaver(I, y_set(0)),
    learner_factory=lambda: ConservativePairGenerator(cf_true, cf_harm),
    horizon=120,
    window=30,
    true_coll=cf_true,
    harm_coll=cf_harm,
)
result = run_game(spec)
learner = result.learner
stuck = [r for r in learner.choice_log if r.diff is not None and r.diff.is_bounded]
print("conservative pairing without the promise:")
print(f"  true difference is infinite, yet the chosen pair's difference was "
      f"empty on {len(stuck)} of {spec.horizon} steps, forcing bottom")

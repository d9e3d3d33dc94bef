"""Algebra work of catalogue games, counted, not timed.

Each game is played at its own horizon through ``run_game`` with counting
wrappers on the ``PeriodicSet`` operations that a learner or adversary step
could repeat every step: growing rank masks, taking pair differences, unions,
and building the empty set.  Each bound sits far below once per step (the
phased game's, once per phase, at half of it), so work that comes back every
step fails it, however fast the machine.
"""

from collections import Counter

import pytest

from limitgames.algebra import PeriodicSet
from limitgames.arena import run_game
from limitgames.cli import CATALOGUE
from limitgames.scenario import load_file


@pytest.fixture
def counts(monkeypatch):
    calls: Counter[str] = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    mask, sub, union = PeriodicSet.rank_mask_block, PeriodicSet.__sub__, PeriodicSet.__or__
    build = PeriodicSet.__dict__["build"].__func__
    monkeypatch.setattr(PeriodicSet, "rank_mask_block", counting("mask", mask))
    monkeypatch.setattr(PeriodicSet, "__sub__", counting("difference", sub))
    monkeypatch.setattr(PeriodicSet, "__or__", counting("union", union))
    monkeypatch.setattr(PeriodicSet, "build", staticmethod(counting("build", build)))
    return calls


@pytest.mark.parametrize(
    "file, operation, bound",
    [
        # The chosen harm hypothesis swallows the true one, so no step finds
        # a word and the escalation bound rises every step: the masks double
        # past it a few times instead of growing every step.
        ("conservative_fails.json", "mask", 64),
        # The probes ask for the difference of the same pairs every step.
        ("identify_probe.json", "difference", 8),
        # The telltale fallback asks for the difference of the chosen pair.
        ("telltale_bottom.json", "difference", 16),
        # A positive stream's committed pair holds the empty set.
        ("generation.json", "build", 8),
        # Each of the 1001 phases' safe language Q(-phase) is one union,
        # built by the learner's collection; the adversary reads it from the
        # pair-difference memo instead of building it again.
        ("safe_id_impossible_eager.json", "union", 1001 + 8),
    ],
)
def test_repeated_work_is_done_once(counts, file, operation, bound):
    spec = load_file(CATALOGUE / file)
    run_game(spec)
    assert spec.horizon >= 200
    assert counts[operation] <= bound, (file, dict(counts))

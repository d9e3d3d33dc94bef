"""The benchmark's workloads, built as scenario objects from ``--seed``.

Every game goes through the public loader (``scenario.parse_scenario``),
exactly as ``limitgames run`` loads a scenario file.

* ``diagonal``: the ``oracle-not-enough`` exhibit; the diagonal adversary
  against the prefix-critical learner on the vanishing-difference trap.
* ``phased``: the ``safe-id-impossible`` exhibit; phased injections
  against the eager safe-language identifier.
* ``fair-battery``: the single-game files of ``demos/scenarios/`` plus a
  ``conservative-fails`` game, back to back, against fair adversaries.

The two trap workloads are fixed constructions and ignore the seed.  For
``fair-battery`` the seed picks one of ``VARIANTS`` decoy draws: a few
bounded set-grammar atoms appended to each explicit collection, each kept
only if the loader still accepts the scenario, so the ``sg_inf`` promise
and the telltales stay valid.  The variants are finite so that the trace
bytes of every one can be recorded in ``golden.json``.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 64
DECOY_KINDS = ("Q", "Y", "Ray", "N | E")
DRAWS_PER_DECOY = 8
WINDOW = 50

DIAGONAL = {
    "version": 1,
    "name": "oracle-not-enough",
    "game": "sg",
    "true_collection": {"kind": "diagonal_trap_true"},
    "harm_collection": {"kind": "diagonal_trap_harm"},
    "adversary": {"kind": "diagonal"},
    "learner": {"kind": "critical"},
    "window": WINDOW,
}

PHASED = {
    "version": 1,
    "name": "safe-id-impossible",
    "game": "si",
    "true_collection": {"kind": "identification_trap_true"},
    "harm_collection": {"kind": "identification_trap_harm"},
    "adversary": {"kind": "phased_injection"},
    "learner": {"kind": "eager_identifier"},
    "window": WINDOW,
}

# The game of ``limitgames demo conservative-fails``, which has no file.
CONSERVATIVE_FAILS = {
    "version": 1,
    "name": "conservative-fails",
    "game": "sg",
    "true_collection": {"kind": "explicit", "sets": ["I"]},
    "harm_collection": {"kind": "explicit", "sets": ["Y(0)", "I"]},
    "adversary": {"kind": "fair_interleaver", "true": "I", "harm": "Y(0)"},
    "learner": {"kind": "conservative"},
    "window": WINDOW,
}

# Horizons chosen so that no game takes much more than a third of the
# battery; keyed by demo file, or by name for the game written here.
BATTERY_HORIZONS = {
    "generation.json": 2000,
    "sg_inf.json": 2000,
    "identify_probe.json": 240,
    "identify_naive.json": 1000,
    "telltale_bottom.json": 1000,
    "conservative-fails": 2000,
}

TRAP_HORIZONS = {"diagonal": 800, "phased": 1200}

WORKLOADS = ("diagonal", "phased", "fair-battery")


@dataclass
class Game:
    """One game of a workload; ``scenario`` lacks only the horizon."""

    name: str
    scenario: dict
    horizon: int
    exhibit: str | None

    def at(self, horizon: int) -> dict:
        return dict(self.scenario, horizon=horizon)


def golden_key(workload: str, seed: int) -> str:
    """The key of a workload's recorded trace digests in ``golden.json``."""
    if workload == "fair-battery":
        return f"fair-battery/{seed % VARIANTS}"
    return workload


def build(workload: str, seed: int, root: Path) -> list[Game]:
    """The games of ``workload`` for ``seed``, read from the checkout at ``root``."""
    if workload == "diagonal":
        return [Game(DIAGONAL["name"], DIAGONAL, TRAP_HORIZONS[workload], "diagonal")]
    if workload == "phased":
        return [Game(PHASED["name"], PHASED, TRAP_HORIZONS[workload], "phased")]
    if workload != "fair-battery":
        raise ValueError(f"unknown workload {workload!r}")
    from limitgames.scenario import parse_scenario

    def accepted(obj: dict) -> bool:
        try:
            parse_scenario(dict(obj, horizon=2 * WINDOW))
        except ValueError:
            return False
        return True

    rng = random.Random(seed % VARIANTS)
    games = []
    for key, horizon in BATTERY_HORIZONS.items():
        if key.endswith(".json"):
            obj = json.loads((root / "demos" / "scenarios" / key).read_text())
        else:
            obj = CONSERVATIVE_FAILS
        obj = copy.deepcopy(obj)
        for side in ("true_collection", "harm_collection"):
            coll = obj.get(side)
            if coll is None or coll["kind"] != "explicit":
                continue
            for kind in DECOY_KINDS:
                for _ in range(DRAWS_PER_DECOY):
                    coll["sets"].append(_decoy(rng, kind))
                    if accepted(obj):
                        break
                    coll["sets"].pop()
        obj.pop("horizon", None)
        games.append(Game(obj["name"], obj, horizon, None))
    return games


def _decoy(rng: random.Random, kind: str) -> str:
    if kind == "Q":
        return f"Q({-rng.randint(1, 8)})"
    if kind == "Y":
        return f"Y({-rng.randint(0, 8)})"
    if kind == "Ray":
        return f"Ray({rng.randint(-8, 8)},{-rng.randint(1, 3)})"
    return "N | E"

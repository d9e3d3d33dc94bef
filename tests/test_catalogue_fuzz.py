"""A fuzz over the scenario catalogue: hostile files end in an exit code.

Each single-game catalogue file is mutated one field path at a time (the
field deleted, or replaced by a value of another type or size), set
expressions with far-out integers are generated from the grammar and placed
in the collections and adversary sets, and the far-out files the CI runs are
fixed cases.  Every case runs in-process through ``cli.main(["run", ...])``
under a 10 s alarm and must exit 0, 2 or 3 (3 is an unmet ``--expect``),
never raise and never hang.
"""

import json
import random
import signal

import pytest

from limitgames.cli import CATALOGUE, main
from test_scenario_cli import BIG_RAY, GAP_TRAP, HUGE_PERIODS

SECONDS = 10
# What a field is replaced by; DELETE removes it instead.
DELETE = object()
VALUES = (DELETE, None, True, 0, -1, 10**30, "x", "", [], {})


class _Alarm(BaseException):
    """Raised in the main thread when a case outlives its alarm."""


def _ring(signum, frame):
    raise _Alarm


@pytest.fixture
def run_case(tmp_path, capsys):
    """``run_case(scenario)`` writes the scenario, runs it under the alarm and
    returns the exit code and stderr."""
    previous = signal.signal(signal.SIGALRM, _ring)
    path, out = tmp_path / "case.json", tmp_path / "out"

    def run(scenario):
        path.write_text(json.dumps(scenario))
        signal.alarm(SECONDS)
        try:
            code = main(["run", str(path), "--out", str(out), "--expect", "converged"])
        except _Alarm:
            pytest.fail(f"still running after {SECONDS} s: {json.dumps(scenario)}")
        finally:
            signal.alarm(0)
        return code, capsys.readouterr().err

    yield run
    signal.signal(signal.SIGALRM, previous)


def _game(file):
    """A single-game catalogue file, cut to horizon 120 and window 20."""
    obj = json.loads((CATALOGUE / file).read_text())
    return {**obj, "horizon": min(obj["horizon"], 120), "window": min(obj["window"], 20)}


GAMES = sorted(
    p.name for p in CATALOGUE.glob("*.json") if "battery" not in json.loads(p.read_text())
)


def _paths(obj, prefix=()):
    """Every field path in ``obj``: object keys and list positions."""
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutated(obj, path, value):
    copy = json.loads(json.dumps(obj))
    *head, last = path
    parent = copy
    for key in head:
        parent = parent[key]
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    return copy


@pytest.mark.parametrize("file", GAMES)
def test_field_mutations_exit_0_2_or_3(run_case, file):
    base = _game(file)
    for path in _paths(base):
        for value in VALUES:
            code, err = run_case(_mutated(base, path, value))
            assert code in (0, 2, 3), (file, path, value, err)


# Integers near the declared limits and far past them, and ray steps up to
# just past MAX_PERIOD.
FAR = (0, 1, 2, 3, 64, 300, 301, 65536, 65537, 100003, 10**9, 10**9 + 1, 10**15, 10**30)
STEPS = (1, 2, 3, 64, 300, 301, 65536, 65537)


def _int(rng, values=FAR):
    n = rng.choice(values)
    return -n if rng.random() < 0.5 else n


def _atom(rng):
    kind = rng.randrange(8)
    if kind < 4:
        return "IOEN"[kind]
    if kind == 4:
        return f"Y(-{abs(_int(rng))})"
    if kind == 5:
        return f"Q(-{max(abs(_int(rng)), 1)})"
    if kind == 6:
        return f"Ray({_int(rng)},{_int(rng, STEPS)})"
    return "Fin{" + ",".join(str(_int(rng)) for _ in range(rng.randrange(4))) + "}"


def _expr(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return _atom(rng)
    op = rng.choice((" | ", " & ", " \\ "))
    text = _expr(rng, depth - 1) + op + _expr(rng, depth - 1)
    return f"({text})" if rng.random() < 0.5 else text


def _placed(case, a, b):
    """Expressions ``a`` and ``b`` in a catalogue game's collections and
    adversary sets; ``case`` picks the game."""
    kind = case % 4
    if kind == 0:  # the critical learner against a stream of a
        return {**_game("generation.json"),
                "true_collection": {"kind": "explicit", "sets": ["I", a]},
                "adversary": {"kind": "positive_stream", "lang": a}}
    if kind == 1:  # the conservative pair learner against (a, b)
        return {**_game("conservative_fails.json"),
                "true_collection": {"kind": "explicit", "sets": [a, "I"]},
                "harm_collection": {"kind": "explicit", "sets": ["Y(0)", b]},
                "adversary": {"kind": "fair_interleaver", "true": a, "harm": b}}
    if kind == 2:  # probe identification of a among (I, a, b)
        return {**_game("identify_probe.json"),
                "true_collection": {"kind": "explicit", "sets": ["I", a, b]},
                "adversary": {"kind": "positive_stream", "lang": a}}
    return {**_game("sg_inf.json"),  # the infinite-difference promise over (a, b)
            "true_collection": {"kind": "explicit", "sets": [a, "O"]},
            "harm_collection": {"kind": "explicit", "sets": [b]},
            "adversary": {"kind": "fair_interleaver", "true": a, "harm": b},
            "learner": {"kind": "reference", "true": a, "harm": b}}


@pytest.mark.parametrize("block", range(4))
def test_generated_expressions_exit_0_2_or_3(run_case, block):
    for case in range(25 * block, 25 * (block + 1)):
        rng = random.Random(case)
        a, b = _expr(rng), _expr(rng)
        code, err = run_case(_placed(case, a, b))
        assert code in (0, 2, 3), (case, a, b, err)


_GAP = "(E & Ray(64,-1)) | Ray(1000000000000000,2)"

# Each fixed case: the scenario, its exit code, and what its error names.
FIXED = {
    **{
        f"period_{n}": (
            {**_game("generation.json"), "adversary": {"kind": "positive_stream", "lang": text}},
            2,
            "error: bad set expression in adversary.lang:",
        )
        for n, text in enumerate(HUGE_PERIODS)
    },
    # Four steps of bottom against an infinite language: no convergence.
    "bigray_bottom": (
        {**_game("generation.json"), **BIG_RAY, "learner": {"kind": "always_bottom"}}, 3, ""
    ),
    "bigray_critical": ({**_game("generation.json"), **BIG_RAY}, 2, "error: learner:"),
    "sets": (
        {**_game("generation.json"),
         "true_collection": {"kind": "explicit", "sets": ["I", "O & Ray(1000000000,-1)"]}},
        2,
        "error: bad set expression in true_collection.sets:",
    ),
    "lang": (
        {**_game("generation.json"),
         "adversary": {"kind": "positive_stream", "lang": "Ray(-1000000000,1) \\ Fin{5}"}},
        2,
        "error: trace line 2: field 'pair':",
    ),
    "gap": (
        {**_game("generation.json"), "true_collection": {"kind": "explicit", "sets": ["I", _GAP]},
         "adversary": {"kind": "positive_stream", "lang": _GAP}},
        2,
        "error: learner:",
    ),
    "diagonal_pair": ({**_game("oracle_not_enough.json"), **GAP_TRAP}, 2, "error: adversary:"),
}


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_far_out_cases(run_case, name):
    scenario, want, where = FIXED[name]
    code, err = run_case(scenario)
    assert code == want, err
    assert where in err

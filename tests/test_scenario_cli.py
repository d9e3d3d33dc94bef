import hashlib
import json
import os
import subprocess
import sys

import pytest

from limitgames.arena import MAX_HORIZON, ScenarioError, run_game
from limitgames.cli import CATALOGUE, DEMOS, main
from limitgames.scenario import Battery, load_file, parse_scenario


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2))
    return path


def catalogue_scenario(file, **fields):
    return {**json.loads((CATALOGUE / file).read_text()), **fields}


def gen_scenario(**fields):
    """The catalogue's generation game, shortened, with ``fields`` replaced."""
    return catalogue_scenario(
        "generation.json", **{"name": "gen-demo", "horizon": 120, "window": 30, **fields}
    )


def test_parse_scenario_roundtrip(tmp_path):
    path = write_json(tmp_path / "gen.json", gen_scenario())
    spec = load_file(path)
    result = run_game(spec)
    assert result.verdict.converged


def test_unknown_fields_rejected():
    bad = gen_scenario()
    bad["mystery"] = 1
    with pytest.raises(ScenarioError):
        parse_scenario(bad)


# Each learner kind in a game it does not fit: identifiers play only the
# identification games and generators only the generation games.
MISFITS = {
    "probe_identifier": ("telltale_bottom.json", "sg"),
    "naive_identifier": ("telltale_bottom.json", "sg_relaxed"),
    "eager_identifier": ("sg_inf.json", "sg_inf"),
    "stubborn_identifier": ("telltale_bottom.json", "sg"),
    "critical": ("safe_id_impossible_eager.json", "si"),
    "conservative": ("safe_id_impossible_eager.json", "li"),
    "reference": ("safe_id_impossible_eager.json", "si"),
    "telltale": ("safe_id_impossible_eager.json", "li"),
    "always_bottom": ("safe_id_impossible_eager.json", "si"),
}


@pytest.mark.parametrize("kind", sorted(MISFITS))
def test_cli_learner_that_does_not_fit_the_game_exits_2(tmp_path, capsys, kind):
    file, game = MISFITS[kind]
    learner = {"kind": kind, **({"true": "I", "harm": "E"} if kind == "reference" else {})}
    scenario = catalogue_scenario(file, game=game, learner=learner, horizon=60, window=10)
    err = _run_bad(tmp_path, capsys, scenario)
    assert f"error: learner.kind {kind!r} does not fit game {game!r}" in err


def test_learner_strict_is_not_a_field(tmp_path, capsys):
    bad = catalogue_scenario("conservative_fails.json", learner={"kind": "conservative", "strict": False})
    assert "error: unknown fields in learner: ['strict']" in _run_bad(tmp_path, capsys, bad)


def test_relaxed_game_plays_a_word_where_sg_plays_bottom(tmp_path):
    # The conservative learner's chosen difference, I minus I, is empty: in
    # ``sg`` it gives up with bottom, in ``sg_relaxed`` with the word 0.
    outputs = {}
    for game in ("sg", "sg_relaxed"):
        path = write_json(tmp_path / f"{game}.json", catalogue_scenario(
            "conservative_fails.json", name=game, game=game, horizon=60, window=10
        ))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / f"{game}.trace.jsonl").read_text().splitlines()[1:]
        outputs[game] = [(row["output"], row["value"]) for row in map(json.loads, rows)]
    bottoms = [t for t, out in enumerate(outputs["sg"]) if out == ("bottom", None)]
    assert bottoms
    for t, (sg, relaxed) in enumerate(zip(outputs["sg"], outputs["sg_relaxed"])):
        assert relaxed == (("generate", 0) if t in bottoms else sg), t


def test_version_mismatch_rejected(tmp_path):
    bad = gen_scenario()
    bad["version"] = 2
    path = write_json(tmp_path / "bad.json", bad)
    with pytest.raises(ScenarioError):
        load_file(path)


def test_malformed_set_spec_rejected():
    bad = gen_scenario()
    bad["adversary"] = {"kind": "positive_stream", "lang": "Y("}
    with pytest.raises(ScenarioError):
        parse_scenario(bad)


def test_unknown_kinds_rejected():
    bad = gen_scenario()
    bad["learner"] = {"kind": "wizard"}
    with pytest.raises(ScenarioError):
        parse_scenario(bad)
    bad = gen_scenario()
    bad["adversary"] = {"kind": "mirror"}
    with pytest.raises(ScenarioError):
        parse_scenario(bad)


# An explicit pair that looks like the built-in trap over the first 64 ranks,
# but whose refinements then jump from 64 to 10**9: the adversary would scan
# the whole gap for the next member of a refinement.
GAP_TRAP = {
    "true_collection": {"kind": "explicit", "sets": ["E", "(E & Ray(64,-1)) | Ray(1000000000,2)"]},
    "harm_collection": {
        "kind": "explicit",
        "sets": ["Ray(0,1)", "(Ray(0,1) & Ray(64,-1)) | Ray(1000000001,2)"],
    },
    "learner": {"kind": "always_bottom"},
    "horizon": 200,
}


def test_diagonal_adversary_rejects_a_pair_that_is_not_a_trap():
    # The diagonal adversary picks its refinements by the built-in trap's
    # index formula, so only that pair loads: swapped, with another or no
    # collection, or as explicit sets, the pair is refused at load.
    parse_scenario(catalogue_scenario("oracle_not_enough.json"))
    for fields in (
        {"harm_collection": None},
        {"true_collection": {"kind": "diagonal_trap_harm"},
         "harm_collection": {"kind": "diagonal_trap_true"}},
        {"true_collection": {"kind": "identification_trap_true"},
         "harm_collection": {"kind": "diagonal_trap_harm"}},
        GAP_TRAP,
    ):
        bad = catalogue_scenario("oracle_not_enough.json", **fields)
        with pytest.raises(ScenarioError, match="^adversary: diagonal plays only"):
            parse_scenario(bad)


def test_telltale_collection_config(play):
    spec, result, _ = play("telltale_bottom.json")
    assert spec.true_coll.telltales == {1: frozenset({1}), 2: frozenset({0})}
    assert spec.harm_coll.telltales == {1: frozenset({-2}), 2: frozenset({1})}
    assert result.verdict.converged


def test_builtin_collection_kinds():
    obj = catalogue_scenario("safe_id_impossible_eager.json", horizon=40, window=10)
    result = run_game(parse_scenario(obj))
    assert result.verdict.phase_transitions >= 5


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_run_writes_trace_and_verdict(tmp_path, capsys):
    path = write_json(tmp_path / "gen.json", gen_scenario())
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--expect", "converged"]) == 0
    trace = (out / "gen-demo.trace.jsonl").read_text()
    verdict = json.loads((out / "gen-demo.verdict.json").read_text())
    assert verdict["converged"] is True
    assert trace.splitlines()[0].startswith('{"game": "sg"')
    assert main(["run", str(path), "--out", str(out), "--expect", "failed"]) == 3


def test_cli_run_is_byte_deterministic(tmp_path):
    path = write_json(tmp_path / "gen.json", gen_scenario())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(path), "--out", str(out1)]) == 0
    assert main(["run", str(path), "--out", str(out2)]) == 0
    t1 = (out1 / "gen-demo.trace.jsonl").read_bytes()
    t2 = (out2 / "gen-demo.trace.jsonl").read_bytes()
    assert t1 == t2


def test_cli_run_overrides(tmp_path, capsys):
    path = write_json(tmp_path / "gen.json", gen_scenario())
    out = tmp_path / "out"
    assert main([
        "run", str(path), "--out", str(out),
        "--horizon-override", "60", "--window-override", "15",
    ]) == 0
    verdict = json.loads((out / "gen-demo.verdict.json").read_text())
    assert verdict["horizon"] == 60 and verdict["window"] == 15


@pytest.mark.parametrize(
    "flag,field", [("--horizon-override", "horizon"), ("--window-override", "window")]
)
def test_cli_zero_override_exits_2(tmp_path, capsys, flag, field):
    path = CATALOGUE / "generation.json"
    assert main(["run", str(path), "--out", str(tmp_path / "out"), flag, "0"]) == 2
    assert f"error: {field} must" in capsys.readouterr().err


def test_cli_rejects_malformed_scenario(tmp_path, capsys):
    bad = gen_scenario()
    bad["adversary"] = {"kind": "positive_stream", "lang": "Y("}
    path = write_json(tmp_path / "bad.json", bad)
    assert main(["run", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_battery(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", gen_scenario(name="run-a"))
    b = write_json(tmp_path / "b.json", gen_scenario(name="run-b", horizon=80, window=20))
    battery = write_json(
        tmp_path / "both.json",
        {"version": 1, "name": "both", "battery": ["a.json", "b.json"]},
    )
    out = tmp_path / "out"
    assert main(["run", str(battery), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "run-a" in printed and "run-b" in printed
    assert (out / "run-a.trace.jsonl").exists()
    assert (out / "run-b.verdict.json").exists()


def test_cli_replay(tmp_path, capsys):
    path = write_json(tmp_path / "gen.json", gen_scenario())
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    trace_path = out / "gen-demo.trace.jsonl"
    assert main(["replay", str(path), str(trace_path)]) == 0
    assert "all correctness flags match" in capsys.readouterr().out


def test_cli_replay_detects_tampering(tmp_path, capsys):
    path = write_json(tmp_path / "gen.json", gen_scenario())
    out = tmp_path / "out"
    main(["run", str(path), "--out", str(out)])
    trace_path = out / "gen-demo.trace.jsonl"
    lines = trace_path.read_text().splitlines()
    row = json.loads(lines[-1])
    row["correct"] = not row["correct"]
    lines[-1] = json.dumps(row, sort_keys=True)
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(path), str(trace_path)]) == 1


def _edit_step(step, **fields):
    """Replace fields of the row of step ``step`` (line step + 1 of the trace)."""

    def edit(lines):
        lines[step] = json.dumps({**json.loads(lines[step]), **fields}, sort_keys=True)

    return edit


@pytest.mark.parametrize(
    "edit,message",
    [
        # The generation game's true language is Ray(1,2), the odd positives.
        (_edit_step(5, element=-7, label=1), "step 5: element -7 is labelled 1 but is not in"),
        (lambda lines: lines.pop(5), "step 5: t is 6; t must run 1, 2, ... without gaps"),
        (_edit_step(5, t=4), "step 5: t is 4; t must run"),
        (_edit_step(5, phase=0), "step 5: phase falls from 1 to 0"),
        (lambda lines: lines.pop(), "step 120: the trace has 119 steps, but its header's"),
        (lambda lines: lines.append(lines[-1]), "step 121: the trace runs past its header's horizon"),
    ],
)
def test_cli_replay_broken_rule_exits_1(tmp_path, capsys, edit, message):
    # Every stored flag still matches its re-scored value, so a replay that
    # compared only the flags would pass each of these traces.
    path = write_json(tmp_path / "gen.json", gen_scenario())
    out = tmp_path / "out"
    main(["run", str(path), "--out", str(out)])
    trace_path = out / "gen-demo.trace.jsonl"
    lines = trace_path.read_text().splitlines()
    edit(lines)
    trace_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", str(path), str(trace_path)]) == 1
    assert f"replay: RULE BROKEN at {message}" in capsys.readouterr().out


def test_cli_replay_reports_the_first_fault_in_file_order(tmp_path, capsys):
    # A flipped flag at step 3 comes before a broken rule at step 7.
    path = write_json(tmp_path / "gen.json", gen_scenario())
    out = tmp_path / "out"
    main(["run", str(path), "--out", str(out)])
    trace_path = out / "gen-demo.trace.jsonl"
    lines = trace_path.read_text().splitlines()
    stored = json.loads(lines[3])["correct"]
    _edit_step(3, correct=not stored)(lines)
    _edit_step(7, element=-7, label=1)(lines)
    trace_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", str(path), str(trace_path)]) == 1
    printed = capsys.readouterr().out
    assert f"replay: MISMATCH at step 3: stored={not stored}" in printed
    assert "RULE BROKEN" not in printed


# Each needs a tail period, or an lcm of two, far above algebra.MAX_PERIOD;
# before the limit, loading any of them did not end.
HUGE_PERIODS = [
    "Ray(0,1000000007)",
    "Ray(0,100003) | Ray(0,100019)",
    "Ray(-1,-100003) | Ray(0,100019)",
]


def _without(key):
    return lambda row: {k: v for k, v in row.items() if k != key}


# An integer past Python's 4300-digit limit for converting to and from text,
# which json.loads refuses with a plain ValueError.
HUGE_INT = "7" * 5000

# A set expression nested 5000 levels deep, past the parser's recursion.
DEEP = "(" * 5000 + "O" + ")" * 5000


def _huge(key):
    return lambda row: json.dumps({**row, key: 0}).replace(f'"{key}": 0', f'"{key}": {HUGE_INT}')


@pytest.mark.parametrize(
    "line,edit,message",
    [
        (4, lambda row: json.dumps(row)[:40], "trace line 4: not valid JSON"),
        (4, lambda row: [row], "trace line 4: a row must be a JSON object"),
        (4, _without("element"), "trace line 4: missing field 'element'"),
        (1, _without("game"), "trace line 1: missing field 'game'"),
        (2, lambda row: {**row, "pair": ["Fin{1,x}", "O"]}, "trace line 2: field 'pair':"),
        (2, lambda row: {**row, "pair": "O"}, "trace line 2: field 'pair' must be"),
        (4, lambda row: {**row, "output": "shout"}, "trace line 4: field 'output':"),
        (1, lambda row: {**row, "game": "chess"}, "trace line 1: field 'game':"),
        (4, lambda row: {**row, "element": "7"}, "trace line 4: field 'element' must be"),
        (4, lambda row: {**row, "injected": 0}, "trace line 4: field 'injected' must be"),
        (4, lambda row: {**row, "label": 2}, "trace line 4: field 'label' must be 0 or 1"),
        (1, lambda row: {**row, "horizon": "300"}, "trace line 1: field 'horizon' must be"),
        (4, lambda row: {**row, "output": "generate", "value": None}, "trace line 4: field 'value'"),
        (4, _huge("element"), "trace line 4: not valid JSON (Exceeds the limit"),
        (1, _huge("horizon"), "trace line 1: not valid JSON (Exceeds the limit"),
        (
            2,
            lambda row: {**row, "pair": [DEEP, "O"]},
            "trace line 2: field 'pair': expression nested too deeply",
        ),
        *[
            (
                2,
                lambda row, text=text: {**row, "pair": [text, "O"]},
                "trace line 2: field 'pair': a tail period",
            )
            for text in HUGE_PERIODS
        ],
        # The pair parses and holds step 1's element, 1, but scoring a bottom
        # needs its difference, whose lcm is 300 * 301.
        (
            2,
            lambda row: {
                **row, "pair": ["Ray(1,300)", "Ray(0,301)"], "output": "bottom", "value": None
            },
            "a tail period (or lcm of two) of 90300",
        ),
    ],
)
def test_cli_replay_malformed_trace_exits_2(tmp_path, capsys, play, line, edit, message):
    _, result, _ = play("sg_inf.json")
    lines = result.trace.to_jsonl().splitlines()
    edited = edit(json.loads(lines[line - 1]))
    lines[line - 1] = edited if isinstance(edited, str) else json.dumps(edited)
    trace_path = tmp_path / "sg-inf.trace.jsonl"
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(CATALOGUE / "sg_inf.json"), str(trace_path)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_cli_run_oversized_horizon_exits_2(tmp_path, capsys):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(gen_scenario(horizon=0)).replace('"horizon": 0', f'"horizon": {HUGE_INT}'))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {path}: not valid JSON (Exceeds the limit" in capsys.readouterr().err


def test_cli_replay_index_below_one_exits_2(tmp_path, capsys, play):
    _, result, _ = play("identify_naive.json")
    lines = result.trace.to_jsonl().splitlines()
    row = json.loads(lines[5])
    assert row["output"] == "index"
    lines[5] = json.dumps({**row, "value": 0})
    trace_path = tmp_path / "identify-naive.trace.jsonl"
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(CATALOGUE / "identify_naive.json"), str(trace_path)]) == 2
    assert "error: trace line 6: field 'value': an index must be >= 1" in capsys.readouterr().err


def test_cli_check_algebra(capsys):
    assert main(["check-algebra", "--seed", "7", "--count", "25"]) == 0
    assert "25 random triples" in capsys.readouterr().out
    assert main(["check-algebra", "--seed", "7", "--count", "0"]) == 0


def test_cli_demo_names():
    with pytest.raises(SystemExit):
        main(["demo", "no-such-demo"])


def test_load_battery_type(tmp_path):
    battery = write_json(
        tmp_path / "b.json", {"version": 1, "battery": ["x.json"]}
    )
    loaded = load_file(battery)
    assert isinstance(loaded, Battery)


def test_shipped_scenarios_run(play):
    paths = sorted(CATALOGUE.glob("*.json"))
    assert paths, "no shipped scenario files found"
    expected_converged = {
        "generation.json": True,
        "sg_inf.json": True,
        "telltale_bottom.json": True,
        "identify_probe.json": True,
        "identify_naive.json": False,
        "reduction_probe.json": True,
        "reduction_naive.json": False,
        "safe_id_impossible_eager.json": False,
        "safe_id_impossible_stubborn.json": False,
        "oracle_not_enough.json": False,
        "conservative_fails.json": False,
    }
    for path in paths:
        loaded = load_file(path)
        if isinstance(loaded, Battery):
            assert all(p.exists() for p in loaded.paths)
            continue
        _, result, _ = play(path.name)
        assert result.verdict.converged == expected_converged[path.name], path.name


# The sha256 of ``Trace.to_jsonl()`` of every single-game catalogue file at
# its own horizon.  The trace bytes are a contract: a faster learner or
# adversary must reproduce them exactly.
TRACE_DIGESTS = {
    "conservative_fails.json": "bc075cf082b8bdea0386cbd6a537b9e10fd1c3fa131920f6a1ee3b3159b3e6bd",
    "generation.json": "529e3e18ff3ea47c8d8d94d669d29dc2b965cc0413c3cbe7ae9ec7ad4aa7dc85",
    "identify_naive.json": "da8e58a8263d5a702703eedd28b4f74f359941ffcc9b71c14ce77e92763a286d",
    "identify_probe.json": "0d694bd7aac8344c741d814e180a528142790c9f958a1f3442450334158563e5",
    "oracle_not_enough.json": "0ef8951e86f1510a21da5c325655ba8bb5bdd632229eb8e61b03c7ce15999390",
    "reduction_naive.json": "62266fc3f7258a9c2c091452245afb2b9af499f7c0ecfdef5ec9e6195d476b98",
    "reduction_probe.json": "0c3b52b484aae95c946f87fbb22652bf0b9040a66e2aee508c0363e844997dcd",
    "safe_id_impossible_eager.json": "a74a10c75b934c81ce98f2f3a5ec47cf3894a6ba93db70de9a8a5040530ebc78",
    "safe_id_impossible_stubborn.json": "a2c2299abf22f92b5b71f2739ff51c7d8d9bcb189c7f45df8843ed6bb8c67626",
    "sg_inf.json": "8e7f6b274ced6320acf8ce72eb4685df5a9abb6feb801bd27a33d19c9e760470",
    "telltale_bottom.json": "3f37493463b4651692d3c6495478a9836c308c5f294e7a45b8132f63660cf903",
}


def test_catalogue_trace_digests(tmp_path, play):
    games = sorted(
        p.name for p in CATALOGUE.glob("*.json") if not isinstance(load_file(p), Battery)
    )
    assert games == sorted(TRACE_DIGESTS)
    for file in games:
        spec, result, _ = play(file)
        digest = hashlib.sha256(result.trace.to_jsonl().encode()).hexdigest()
        assert digest == TRACE_DIGESTS[file], file
        # ``run --out`` writes the same bytes.
        assert main(["run", str(CATALOGUE / file), "--out", str(tmp_path)]) == 0
        written = (tmp_path / f"{spec.name}.trace.jsonl").read_bytes()
        assert hashlib.sha256(written).hexdigest() == TRACE_DIGESTS[file], file


@pytest.mark.parametrize("demo", ["sg-inf", "reduction", "conservative-fails"])
def test_demo_writes_what_run_writes(tmp_path, capsys, demo):
    files, _check = DEMOS[demo]
    assert main(["demo", demo, "--out", str(tmp_path / "demo")]) == 0
    for file in files:
        assert main(["run", str(CATALOGUE / file), "--out", str(tmp_path / "run")]) == 0
    written = sorted(p.name for p in (tmp_path / "demo").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "run").iterdir())
    assert len(written) == 2 * len(files)
    for name in written:
        assert (tmp_path / "demo" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()


def _run_bad(tmp_path, capsys, scenario):
    path = write_json(tmp_path / "bad.json", scenario)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    return capsys.readouterr().err


def test_cli_finite_collection_language_exits_2(tmp_path, capsys):
    bad = gen_scenario()
    bad["true_collection"]["sets"] = ["I", "Fin{1,2}"]
    err = _run_bad(tmp_path, capsys, bad)
    assert "error: true_collection:" in err and "index 2" in err


def test_cli_finite_stream_language_exits_2(tmp_path, capsys):
    bad = gen_scenario()
    bad["adversary"] = {"kind": "positive_stream", "lang": "Fin{1}"}
    err = _run_bad(tmp_path, capsys, bad)
    assert "error: adversary.lang:" in err and "infinite" in err


def test_cli_non_integer_telltale_key_exits_2(tmp_path, capsys):
    bad = gen_scenario()
    bad["true_collection"]["telltales"] = {"first": [1]}
    err = _run_bad(tmp_path, capsys, bad)
    assert "error: true_collection.telltales:" in err and "'first'" in err


@pytest.mark.parametrize(
    "scenario,field",
    [
        (gen_scenario(true_collection={"kind": "explicit", "sets": "I"}), "true_collection.sets"),
        (
            gen_scenario(true_collection={"kind": "explicit", "sets": ["I"], "telltales": [1]}),
            "true_collection.telltales",
        ),
        (
            gen_scenario(true_collection={"kind": "explicit", "sets": ["I"], "telltales": {"1": 5}}),
            "true_collection.telltales",
        ),
        (gen_scenario(true_collection=["I", "O"]), "true_collection"),
        (gen_scenario(adversary="positive_stream"), "adversary"),
        (gen_scenario(adversary={"kind": "positive_stream", "lang": 5}), "adversary.lang"),
        (
            gen_scenario(adversary={"kind": "fair_interleaver", "true": True, "harm": "E"}),
            "adversary.true",
        ),
        (
            gen_scenario(adversary={"kind": "fair_interleaver", "true": "O", "harm": 0}),
            "adversary.harm",
        ),
        (
            gen_scenario(learner={"kind": "reference", "true": "O", "harm": ["E"]}),
            "learner.harm",
        ),
        (gen_scenario(name=7), "name"),
        (gen_scenario(name="../escaped"), "name"),
        ({"version": 1, "battery": [3]}, "battery"),
        ({"version": 1, "battery": "ab"}, "battery"),
        # Telltale keys outside the collection's indices 1..2.
        *(
            (
                catalogue_scenario(
                    "telltale_bottom.json",
                    true_collection={
                        "kind": "explicit",
                        "sets": ["I", "E"],
                        "telltales": {key: [0]},
                    },
                ),
                f"true_collection.telltales: key '{key}'",
            )
            for key in ("0", "-3", "99")
        ),
        (
            gen_scenario(adversary={"kind": "positive_stream", "lang": DEEP}),
            "bad set expression in adversary.lang: expression nested too deeply",
        ),
    ],
)
def test_cli_malformed_fields_exit_2(tmp_path, capsys, scenario, field):
    assert f"error: {field}" in _run_bad(tmp_path, capsys, scenario)


def test_cli_failed_run_keeps_earlier_result_files(tmp_path, capsys):
    # The second run fails while printing its trace (listing the committed
    # pair's window would pass MAX_LISTED); the first run's two files stay
    # byte for byte, and no temporary file is left beside them.
    out = tmp_path / "out"
    path = write_json(tmp_path / "gen.json", gen_scenario())
    assert main(["run", str(path), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["gen-demo.trace.jsonl", "gen-demo.verdict.json"]
    lang = "Ray(-1000000000,1) \\ Fin{5}"
    write_json(path, gen_scenario(adversary={"kind": "positive_stream", "lang": lang}))
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert "MAX_LISTED" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("text", HUGE_PERIODS)
def test_cli_period_limit_at_load_exits_2(tmp_path, capsys, text):
    bad = gen_scenario(adversary={"kind": "positive_stream", "lang": text})
    err = _run_bad(tmp_path, capsys, bad)
    assert "error: bad set expression in adversary.lang:" in err and "MAX_PERIOD" in err


def test_cli_period_limit_during_play_exits_2(tmp_path, capsys):
    # Each language loads, but their difference needs the lcm 300 * 301.
    pair = {"true": "Ray(0,300)", "harm": "Ray(0,301)"}
    bad = gen_scenario(
        adversary={"kind": "fair_interleaver", **pair}, learner={"kind": "reference", **pair}
    )
    err = _run_bad(tmp_path, capsys, bad)
    assert "error: learner: a tail period (or lcm of two) of 90300" in err and "MAX_PERIOD" in err


# The same pair against a learner that plays bottom: scoring bottom builds
# the pair's difference, so the limit is met in the adversary's pair.
LCM_SCORING = {
    "horizon": 20,
    "window": 2,
    "adversary": {"kind": "fair_interleaver", "true": "Ray(0,300)", "harm": "Ray(0,301)"},
    "learner": {"kind": "always_bottom"},
}


def test_cli_period_limit_while_scoring_exits_2(tmp_path, capsys):
    err = _run_bad(tmp_path, capsys, gen_scenario(**LCM_SCORING))
    assert "error: adversary: a tail period (or lcm of two) of 90300" in err and "MAX_PERIOD" in err


# Each set parses, but validating the collections at load compares or
# subtracts two of them, which needs the lcm 300 * 301.
@pytest.mark.parametrize(
    "fields",
    [
        {
            "game": "sg_inf",
            "true_collection": {"kind": "explicit", "sets": ["Ray(0,300)"]},
            "harm_collection": {"kind": "explicit", "sets": ["Ray(0,301)"]},
        },
        {
            "true_collection": {
                "kind": "explicit",
                "sets": ["Ray(0,300)", "Ray(0,301)"],
                "telltales": {"1": [0], "2": [0]},
            },
        },
    ],
    ids=["sg_inf_difference", "telltale_subset"],
)
def test_cli_period_limit_in_validation_exits_2(tmp_path, capsys, fields):
    bad = gen_scenario(**fields)
    err = _run_bad(tmp_path, capsys, bad)
    assert "error: a tail period (or lcm of two) of 90300" in err and "MAX_PERIOD" in err


# A four-step stream of a ray that starts at 10**9: its first member lies at
# rank 2 * 10**9, which the member walk reaches by one jump.
BIG_RAY = {
    "horizon": 4,
    "window": 2,
    "adversary": {"kind": "positive_stream", "lang": "Ray(1000000000,1)"},
}


def test_cli_big_ray_game_exits_0(tmp_path, capsys):
    scenario = gen_scenario(**BIG_RAY, learner={"kind": "always_bottom"})
    path = write_json(tmp_path / "big.json", scenario)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "gen-demo.trace.jsonl").read_text().splitlines()
    assert [json.loads(row)["element"] for row in rows[1:5]] == [10**9 + i for i in range(4)]


def test_cli_rank_limit_exits_2(tmp_path, capsys):
    # The critical learner's masks would reach rank 2 * 10**9.
    err = _run_bad(tmp_path, capsys, gen_scenario(**BIG_RAY))
    assert "error: learner: universe rank 2000000000 exceeds the limit MAX_RANK" in err


_LIMITED_RUN_SCRIPT = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from limitgames.cli import main
start = time.perf_counter()
code = main(["run", sys.argv[1], "--out", sys.argv[2]])
print(time.perf_counter() - start)
sys.exit(code)
"""


@pytest.mark.parametrize("gap", [10**9, 10**15])
def test_cli_walk_past_rank_limit_exits_2(tmp_path, gap):
    # The second language's members jump from 64 to ``gap``, so the critical
    # learner's escalation bound, which grows with a candidate's span, lies
    # far past MAX_RANK: its walk's masks stop there, within 10 s and a
    # 1 GB address space.
    lang = f"(E & Ray(64,-1)) | Ray({gap},2)"
    scenario = gen_scenario(
        true_collection={"kind": "explicit", "sets": ["I", lang]},
        adversary={"kind": "positive_stream", "lang": lang},
    )
    path = write_json(tmp_path / "gap.json", scenario)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_RUN_SCRIPT, str(path), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert "error: learner: universe rank 16777217 exceeds the limit MAX_RANK" in proc.stderr
    assert float(proc.stdout) < 10.0


@pytest.mark.parametrize(
    "fields,where",
    [
        (
            {"true_collection": {"kind": "explicit", "sets": ["I", "O & Ray(1000000000,-1)"]}},
            "error: bad set expression in true_collection.sets:",
        ),
        (
            {"adversary": {"kind": "positive_stream", "lang": "Ray(-1000000000,1) \\ Fin{5}"}},
            "error: trace line 2: field 'pair': listing 1000000005 points",
        ),
    ],
    ids=["half", "window"],
)
def test_cli_listed_limit_exits_2(tmp_path, capsys, fields, where):
    # The first set's window half lists 5 * 10**8 points against its rule;
    # the second is stored in a few fields, but printing the committed pair
    # would list 10**9 window members.
    err = _run_bad(tmp_path, capsys, gen_scenario(**fields))
    assert where in err and "MAX_LISTED" in err


def test_cli_horizon_limit_exits_2(tmp_path, capsys):
    err = _run_bad(tmp_path, capsys, gen_scenario(horizon=MAX_HORIZON + 1))
    assert "error: horizon must be in 1..MAX_HORIZON" in err
    path = write_json(tmp_path / "gen.json", gen_scenario())
    override = ["--horizon-override", str(MAX_HORIZON + 1)]
    assert main(["run", str(path), "--out", str(tmp_path / "out"), *override]) == 2
    assert "error: horizon must be in 1..MAX_HORIZON" in capsys.readouterr().err

"""Command line front end.

Subcommands:

* ``run PATH``: execute a scenario file (or battery) and write trace/verdict
  files; ``--expect converged|failed`` turns the verdict into the exit code.
* ``demo NAME``: play a named experiment's games from the scenario catalogue
  (``demos/scenarios/``) and print its exhibit check.
* ``check-algebra``: run the randomized algebra property suite.
* ``replay SCENARIO TRACE``: check a stored trace against the game's rules,
  re-score it and compare the correctness flags.

Runs are deterministic: the same scenario file always produces byte
identical trace files.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .algebra import LimitError
from .arena import (
    RunResult,
    ScenarioError,
    ScenarioSpec,
    TraceRuleError,
    read_trace,
    rescored,
    run_game,
    score_against_pair,
)
from .fuzz import run_suite
from .scenario import Battery, load_file


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="limitgames",
        description="Deterministic learner-versus-adversary games over exact integer languages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario or battery file")
    p_run.add_argument("path", type=Path)
    p_run.add_argument("--out", type=Path, default=Path("runs"), help="output directory")
    p_run.add_argument("--expect", choices=("converged", "failed"))
    p_run.add_argument("--horizon-override", type=int)
    p_run.add_argument("--window-override", type=int)

    p_demo = sub.add_parser("demo", help="run a built-in experiment")
    p_demo.add_argument("name", choices=sorted(DEMOS))
    p_demo.add_argument("--out", type=Path, help="also write trace/verdict files here")

    p_chk = sub.add_parser("check-algebra", help="randomized algebra property suite")
    p_chk.add_argument("--seed", type=int, default=1)
    p_chk.add_argument("--count", type=int, default=1000)

    p_rep = sub.add_parser("replay", help="re-score a stored trace against its scenario")
    p_rep.add_argument("scenario", type=Path)
    p_rep.add_argument("trace", type=Path)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "demo":
            return _cmd_demo(args)
        if args.command == "check-algebra":
            return _cmd_check_algebra(args)
        if args.command == "replay":
            return _cmd_replay(args)
    except (ScenarioError, LimitError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------


def _write_result(result: RunResult, out_dir: Path) -> None:
    """Write both files under temporary names, then move them into place, so
    a failed run leaves the files of an earlier run as they were."""
    out_dir.mkdir(parents=True, exist_ok=True)
    name = result.trace.scenario
    trace, verdict = out_dir / f"{name}.trace.jsonl", out_dir / f"{name}.verdict.json"
    temps = [path.with_name(path.name + ".tmp") for path in (trace, verdict)]
    try:
        with open(temps[0], "w") as f:
            f.writelines(result.trace.lines())
        temps[1].write_text(result.verdict.to_json(name) + "\n")
        os.replace(temps[0], trace)
        os.replace(temps[1], verdict)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def _cmd_run(args) -> int:
    loaded = load_file(args.path)
    if isinstance(loaded, Battery):
        rows = []
        for path in loaded.paths:
            spec = _apply_overrides(_load_game(path), args)
            result = run_game(spec)
            _write_result(result, args.out)
            rows.append((spec.name, result.verdict))
        _print_battery_table(rows)
        if args.expect:
            ok = all(v.converged for _, v in rows)
            return _expectation_exit(ok, args.expect)
        return 0
    spec = _apply_overrides(loaded, args)
    result = run_game(spec)
    _write_result(result, args.out)
    v = result.verdict
    print(
        f"{spec.name}: converged={v.converged} convergence_step={v.convergence_step} "
        f"correct_in_final_window={v.correct_in_final_window}/{v.window} "
        f"phase_transitions={v.phase_transitions}"
    )
    if args.expect:
        return _expectation_exit(v.converged, args.expect)
    return 0


def _load_game(path: Path) -> ScenarioSpec:
    loaded = load_file(path)
    if isinstance(loaded, Battery):
        raise ScenarioError(f"{path}: expected a single scenario, found a battery")
    return loaded


def _apply_overrides(spec: ScenarioSpec, args) -> ScenarioSpec:
    if args.horizon_override is not None:
        spec.horizon = args.horizon_override
    if args.window_override is not None:
        spec.window = args.window_override
    return spec


def _expectation_exit(converged: bool, expect: str) -> int:
    if expect == "converged":
        return 0 if converged else 3
    return 0 if not converged else 3


def _print_battery_table(rows) -> None:
    print(f"{'scenario':<28} {'converged':<10} {'conv.step':<10} {'window':<10} {'phases':<7}")
    for name, v in rows:
        step = v.convergence_step if v.convergence_step is not None else "-"
        print(
            f"{name:<28} {str(v.converged):<10} {str(step):<10} "
            f"{f'{v.correct_in_final_window}/{v.window}':<10} {v.phase_transitions:<7}"
        )


# ----------------------------------------------------------------------
# demos
# ----------------------------------------------------------------------


def _check_sg_inf(result: RunResult) -> int:
    """Infinite-difference promise: the conservative pair learner converges."""
    v = result.verdict
    print(f"sg-inf: converged={v.converged} at step {v.convergence_step} of {v.horizon}")
    print(f"sg-inf: final window correct {v.correct_in_final_window}/{v.window}")
    return 0 if v.converged else 1


def _check_safe_id_impossible(eager: RunResult, stubborn: RunResult) -> int:
    """Adaptive injections defeat safe-language identification."""
    phases = eager.verdict.phase_transitions
    stubborn_correct = sum(s.correct for s in stubborn.trace.steps)
    print(f"safe-id-impossible: eager learner forced through {phases} phase transitions")
    print(
        "safe-id-impossible: stubborn learner correct steps "
        f"{stubborn_correct}/{stubborn.verdict.horizon} (committed harm language stays Y(0))"
    )
    return 0 if phases >= 5 and stubborn_correct == 0 else 1


def _check_oracle_not_enough(result: RunResult) -> int:
    """Exact emptiness answers still cannot rescue a prefix-critical generator."""
    adversary = result.adversary
    phases = result.verdict.phase_transitions
    clean = all(b.skipped_true == 0 and b.skipped_harm == 0 for b in adversary.boundaries)
    top_scores = score_against_pair(result.trace, *adversary.limit_pair())
    detection_ok = all(
        result.trace.steps[t - 1].output.is_generate and not top_scores[t - 1]
        for t in adversary.detection_steps
    )
    print(f"oracle-not-enough: {phases} phase transitions in {result.verdict.horizon} steps")
    print(f"oracle-not-enough: skipped queues empty at every boundary: {clean}")
    print(
        "oracle-not-enough: every detection-step output is unsafe against the "
        f"limit pair: {detection_ok}"
    )
    return 0 if phases >= 3 and clean and detection_ok else 1


def _check_reduction(probe: RunResult, naive: RunResult) -> int:
    """Ordering consistent candidates with generation probes identifies; naive fails."""
    pv, nv = probe.verdict, naive.verdict
    print(
        f"reduction: probe-ordered identifier converged={pv.converged} "
        f"to index {probe.trace.steps[-1].output.value} "
        f"(target {pv.target_index})"
    )
    print(
        f"reduction: naive identifier final-window correct "
        f"{nv.correct_in_final_window}/{nv.window}"
    )
    ok = pv.converged and probe.trace.steps[-1].output.value == pv.target_index
    return 0 if ok and nv.correct_in_final_window == 0 else 1


def _check_conservative_fails(result: RunResult) -> int:
    """Smallest-true/largest-harm guessing can zero out a difference that is infinite."""
    true_lang, harm_lang = result.adversary.current_pair()
    true_diff = (true_lang - harm_lang).cardinality()
    stuck = [
        rec
        for rec in result.learner.choice_log
        if rec.diff is not None and rec.diff.is_bounded
    ]
    print(
        f"conservative-fails: true difference is {true_diff.kind}; "
        f"chosen-pair difference empty or finite on {len(stuck)} steps"
    )
    if stuck:
        first = stuck[0]
        print(
            f"conservative-fails: first stuck step t={first.t} chose true index "
            f"{first.true_index} against harm index {first.harm_index} "
            f"({first.diff.kind} difference), output bottom"
        )
    return 0 if stuck and true_diff.is_infinite else 1


# The game catalogue, read from the source checkout (an editable install).
CATALOGUE = Path(__file__).resolve().parents[2] / "demos" / "scenarios"

# Each demo plays its catalogue files in order and passes their results to
# its exhibit check, which prints the report and returns the exit code.
DEMOS = {
    "sg-inf": (("sg_inf.json",), _check_sg_inf),
    "safe-id-impossible": (
        ("safe_id_impossible_eager.json", "safe_id_impossible_stubborn.json"),
        _check_safe_id_impossible,
    ),
    "oracle-not-enough": (("oracle_not_enough.json",), _check_oracle_not_enough),
    "reduction": (("reduction_probe.json", "reduction_naive.json"), _check_reduction),
    "conservative-fails": (("conservative_fails.json",), _check_conservative_fails),
}


def _cmd_demo(args) -> int:
    files, check = DEMOS[args.name]
    results = []
    for file in files:
        result = run_game(_load_game(CATALOGUE / file))
        if args.out is not None:
            _write_result(result, args.out)
        results.append(result)
    return check(*results)


# ----------------------------------------------------------------------
# check-algebra and replay
# ----------------------------------------------------------------------


def _cmd_check_algebra(args) -> int:
    report = run_suite(args.seed, args.count)
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_replay(args) -> int:
    # Row by row, so the first fault in file order decides the exit code.
    spec = _load_game(args.scenario)
    with open(args.trace) as lines:
        head, rows = read_trace(lines)
        try:
            for step, correct in rescored(head, rows, spec.true_coll):
                if correct != step.correct:
                    print(f"replay: MISMATCH at step {step.t}: stored={step.correct} recomputed={correct}")
                    return 1
        except TraceRuleError as exc:
            print(f"replay: RULE BROKEN at {exc}")
            return 1
    print(f"replay: {head.horizon} steps re-scored, all correctness flags match")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Play or replay one limitgames game in a fresh interpreter.

Run as ``python3 perfbench/worker.py`` from the root of a checkout, with
one JSON request on standard input; one JSON result goes to standard
output.  ``run.py`` starts one worker per timed game, so every game starts
cold, as a ``limitgames run`` or ``limitgames replay`` user would see it.

Request fields:

* ``game_id``: the name traced spans are filed under;
* ``mode``: ``"play"`` (load, run, encode the trace and verdict) or
  ``"replay"`` (load, decode ``trace_text`` and re-score it);
* ``scenario``: the scenario object, passed to ``scenario.parse_scenario``;
* ``exhibit``: ``"diagonal"``, ``"phased"`` or null, the exhibit to check;
* ``traced``: wrap the package layers with ``tracer`` and report sums;
* ``spans_path``: where a traced worker writes its spans, or null;
* ``return_trace``: include the trace text in a play result.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from limitgames import arena, scenario  # noqa: E402


def main() -> None:
    request = json.loads(sys.stdin.read())
    tracer = None
    if request["traced"]:
        import tracer as tracing

        tracer = tracing.Tracer(request["game_id"])
        tracing.install(tracer)
    play = request["mode"] == "play"
    result = (_play if play else _replay)(request, tracer)
    if tracer is not None:
        result["layers"] = tracer.totals()
        result["step_durations_s"] = tracer.step_durations
        if request.get("spans_path"):
            tracer.write_spans(request["spans_path"])
    if play:
        result.update(_check(result.pop("_run"), request["exhibit"]))
    print(json.dumps(result))


# Every time is this thread's CPU time, which equals wall time on an idle
# machine.  On a shared VM, wall time also counts the spells in which the
# hypervisor runs another guest, and those set the tail of the step times.
clock = time.thread_time


def _play(request: dict, tracer) -> dict:
    t0 = clock()
    spec = scenario.parse_scenario(request["scenario"])
    t1 = clock()
    # One timestamp per step, taken when the arena asks for the emission.
    stamps: list[float] = []
    make_adversary = spec.adversary_factory

    def stamped_adversary():
        adversary = make_adversary()
        emit = adversary.emit

        def timed_emit(t):
            stamps.append(clock())
            return emit(t)

        adversary.emit = timed_emit
        return adversary

    if tracer is None:
        spec.adversary_factory = stamped_adversary
    t2 = clock()
    run = arena.run_game(spec)
    t3 = clock()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    text = run.trace.to_jsonl()
    run.verdict.to_json(spec.name)
    t4 = clock()
    if tracer is not None:
        tracer.count["trace_bytes"] += len(text.encode())
    stamps.append(t3)
    result = {
        "setup_s": t1 - t0,
        "game_s": t3 - t2,
        "write_s": t4 - t3,
        "rss_mb": rss_mb,
        "step_s": [b - a for a, b in zip(stamps, stamps[1:])],
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "_run": run,
    }
    if request.get("return_trace"):
        result["trace_text"] = text
    return result


def _replay(request: dict, tracer) -> dict:
    t0 = clock()
    spec = scenario.parse_scenario(request["scenario"])
    t1 = clock()
    trace = arena.Trace.from_jsonl(request["trace_text"])
    flags = arena.rescore_trace(trace, spec.true_coll)
    t2 = clock()
    stored = [s.correct for s in trace.steps]
    return {
        "setup_s": t1 - t0,
        "replay_s": t2 - t1,
        "mismatches": sum(a != b for a, b in zip(flags, stored))
        + abs(len(flags) - len(stored)),
    }


def _check(run, exhibit: str | None) -> dict:
    """The exhibit checks of ``limitgames demo``, on public attributes only."""
    phases = run.verdict.phase_transitions
    if exhibit == "diagonal":
        adversary = run.adversary
        clean = all(
            b.skipped_true == 0 and b.skipped_harm == 0 for b in adversary.boundaries
        )
        top = arena.score_against_pair(run.trace, *adversary.limit_pair())
        unsafe = all(
            run.trace.steps[t - 1].output.is_generate and not top[t - 1]
            for t in adversary.detection_steps
        )
        problems = [
            msg
            for ok, msg in (
                (phases >= 3, f"only {phases} phase transitions"),
                (clean, "a skipped queue was not empty at a boundary"),
                (unsafe, "a detection-step output is safe against the limit pair"),
            )
            if not ok
        ]
    elif exhibit == "phased":
        problems = [] if phases >= 5 else [f"only {phases} phase transitions"]
    else:
        problems = []
    return {"exhibit_problems": problems}


if __name__ == "__main__":
    main()

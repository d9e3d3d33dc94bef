"""limitgames benchmark: end-to-end and per-layer metrics of whole games.

Usage, from the root of a limitgames checkout::

    python3 perfbench/run.py --workload diagonal --seed 1 --seconds 40 --trace 0

One client plays one game to completion and then starts the next: a closed
loop in one thread, with every timed game in a fresh interpreter
(``worker.py``).  A run repeats rounds until ``--seconds`` would be
exceeded.  In a round each game of the workload is played at its horizon H
and at H/2, in alternating order, and the H trace is replayed.  With
``--trace 1`` a round plays each game untraced and traced at H and replays
the traced trace, and the run reports per-layer metrics instead.

Every game is checked: the trace bytes must hash to the digest recorded in
``golden.json``, the replayed flags must equal the stored ones, and the trap
workloads must show their exhibit.  Failed games are counted in
``failed``; ``correct`` is false when any game failed.

Output: a summary with run metadata and every metric's unit and sample
count, then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

import workloads  # noqa: E402  (beside this script, so on sys.path)

WORKER_TIMEOUT_S = 120
DEADLINE_S = 165  # a run must end well inside three minutes, whatever --seconds says

E2E_UNITS = {
    "setup_s": "s",
    "game_s": "s",
    "growth_exp": "1",
    "step_p50_us": "us",
    "step_p99_us": "us",
    "trace_write_s": "s",
    "replay_s": "s",
    "peak_rss_mb": "MiB",
}

LAYER_UNITS = {
    "algebra.combine_calls": "count",
    "algebra.combine_cells": "count",
    "algebra.combine_s": "s",
    "algebra.combine_repeat_ratio": "ratio",
    "algebra.scan_calls": "count",
    "algebra.scan_ranks": "count",
    "algebra.scan_s": "s",
    "algebra.mask_calls": "count",
    "algebra.mask_bits": "count",
    "algebra.mask_s": "s",
    "algebra.build_calls": "count",
    "algebra.build_s": "s",
    "setspec.parse_calls": "count",
    "setspec.parse_chars": "count",
    "setspec.parse_s": "s",
    "setspec.format_calls": "count",
    "setspec.format_s": "s",
    "families.at_calls": "count",
    "families.at_hit_ratio": "ratio",
    "families.at_s": "s",
    "families.consistency_calls": "count",
    "families.consistency_s": "s",
    "learners.step_calls": "count",
    "learners.step_s": "s",
    "learners.step_p50_us": "us",
    "learners.step_p99_us": "us",
    "adversaries.emit_s": "s",
    "adversaries.observe_s": "s",
    "adversaries.pair_s": "s",
    "adversaries.phase_changes": "count",
    "arena.score_calls": "count",
    "arena.score_s": "s",
    "arena.loop_self_s": "s",
    "arena.encode_s": "s",
    "arena.decode_s": "s",
    "arena.rescore_s": "s",
    "arena.trace_bytes": "B",
    "scenario.load_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Layer sums that must repeat exactly from round to round and run to run.
EXACT_LAYER_SUMS = [name for name, unit in LAYER_UNITS.items() if unit in ("count", "B")]
EXACT_LAYER_SUMS += ["algebra.combine_repeats", "families.at_hits"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "limitgames" / "__init__.py").is_file():
        print("perfbench: src/limitgames not found; run from the root of a "
              "limitgames checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2

    started = time.monotonic()
    meta = _metadata(root, args)
    games = workloads.build(args.workload, args.seed, root)
    golden = json.loads((HERE / "golden.json").read_text())
    bench = Bench(root, games, golden.get(workloads.golden_key(args.workload, args.seed), {}),
                  args.workload, started)
    play_round = bench.traced_round if args.trace else bench.timed_round
    budget = min(args.seconds, DEADLINE_S)
    round_times: list[float] = []
    while not round_times or time.monotonic() - started + max(round_times) <= budget:
        t0 = time.monotonic()
        if not play_round(len(round_times)):
            break
        round_times.append(time.monotonic() - t0)

    metrics, samples = bench.traced_metrics() if args.trace else bench.timed_metrics()
    meta["rounds"] = len(round_times)
    meta["steps_timed"] = bench.steps
    meta["samples"] = samples
    meta["horizons"] = {g.name: g.horizon for g in games}
    print("# meta " + json.dumps(meta, sort_keys=True))
    for i, r in enumerate(bench.rounds):
        print(f"# round {i} " + json.dumps({k: v for k, v in r.items() if k != "layers"}))
    for failure in bench.failures:
        print("# FAIL " + failure)
    units = LAYER_UNITS if args.trace else E2E_UNITS
    missing = [name for name in units if name not in metrics]
    for name in units:
        if name in metrics:
            print(f"# {name:<30} {metrics[name]:>16.6g} {units[name]:<6} n={samples[name]}")
    fail_ratio = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"# {'fail_ratio':<30} {fail_ratio:>16.6g} {'ratio':<6} "
          f"n={bench.attempted} ({bench.failed} failed)")
    if missing:
        print(f"perfbench: no samples for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


class Bench:
    """Runs the rounds of one workload and keeps their samples."""

    def __init__(self, root: Path, games, golden: dict, workload: str, started: float):
        self.root = root
        self.games = games
        self.golden = golden
        self.workload = workload
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rounds: list[dict] = []
        self.steps = 0  # steps timed, over all rounds
        self.setup_samples: list[float] = []
        self.spans_dir = root / ".perfbench" / "spans"

    # -- workers ----------------------------------------------------------

    def _worker(self, request: dict) -> dict | None:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 1:
            return None
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py")],
                input=json.dumps(request),
                capture_output=True,
                text=True,
                cwd=self.root,
                timeout=min(WORKER_TIMEOUT_S, remaining),
            )
        except subprocess.TimeoutExpired:
            return {"error": "timed out"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no result"]
            return {"error": f"exit code {proc.returncode}: {tail[0]}"}
        return json.loads(lines[-1])

    def _fail(self, game, horizon: int, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{self.workload}/{game.name}@{horizon}: {why}")

    def play(self, game, horizon: int, *, traced=False, replay=False):
        """Play one game; check it, and replay it when asked.

        Returns (play result, replay result); either is None when that part
        failed, and the game is then counted as failed once.
        """
        self.attempted += 1
        request = {
            "mode": "play",
            "game_id": f"{self.workload}/{game.name}@{horizon}",
            "scenario": game.at(horizon),
            "exhibit": game.exhibit,
            "traced": traced,
            "spans_path": self._spans_path(game, "play") if traced else None,
            "return_trace": replay,
        }
        result = self._worker(request)
        if result is None:
            self._fail(game, horizon, "not started: the run's deadline passed")
            return None, None
        if "error" in result:
            self._fail(game, horizon, result["error"])
            return None, None
        problems = list(result["exhibit_problems"])
        expected = self.golden.get(game.name, {}).get(str(horizon))
        if expected is None:
            problems.append("no recorded trace digest for this game and horizon")
        elif result["sha256"] != expected:
            problems.append(f"trace sha256 {result['sha256'][:16]}... differs from "
                            f"the recorded {expected[:16]}...")
        replayed = None
        if replay:
            replayed = self._worker({
                "mode": "replay",
                "game_id": request["game_id"],
                "scenario": game.at(horizon),
                "traced": traced,
                "spans_path": self._spans_path(game, "replay") if traced else None,
                "trace_text": result["trace_text"],
            })
            if replayed is None:
                problems.append("replay not started: the run's deadline passed")
            elif "error" in replayed:
                problems.append(f"replay {replayed['error']}")
                replayed = None
            elif replayed["mismatches"]:
                problems.append(f"{replayed['mismatches']} replayed flags differ")
        if problems:
            self._fail(game, horizon, "; ".join(problems))
        return result, replayed

    def _spans_path(self, game, mode: str) -> str:
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        return str(self.spans_dir / f"{self.workload}.{game.name}.{mode}.tsv")

    # -- untraced rounds: end-to-end metrics -----------------------------

    def timed_round(self, index: int) -> bool:
        sums = dict.fromkeys(("game_h", "game_half", "write", "replay"), 0.0)
        setups = dict.fromkeys(("full", "half", "replay"), 0.0)
        rss = 0.0
        steps: list[list[float]] = []  # one list per game
        for game in self.games:
            half = game.horizon // 2
            order = (half, game.horizon) if index % 2 == 0 else (game.horizon, half)
            for horizon in order:
                full = horizon == game.horizon
                played, replayed = self.play(game, horizon, replay=full)
                if played is None or (full and replayed is None):
                    return False
                if full:
                    sums["game_h"] += played["game_s"]
                    sums["write"] += played["write_s"]
                    sums["replay"] += replayed["replay_s"]
                    setups["full"] += played["setup_s"]
                    setups["replay"] += replayed["setup_s"]
                    rss = max(rss, played["rss_mb"])
                    steps.append(played["step_s"])
                else:
                    sums["game_half"] += played["game_s"]
                    setups["half"] += played["setup_s"]
        sums["rss"] = rss
        sums["step_p50_us"], sums["step_p99_us"] = _step_percentiles(steps)
        self.rounds.append(sums)
        self.setup_samples += setups.values()
        self.steps += sum(map(len, steps))
        return True

    def timed_metrics(self):
        rounds = self.rounds
        if not rounds:
            return {}, {}

        def median_of(key):
            return statistics.median(r[key] for r in rounds)

        metrics = {
            "setup_s": statistics.median(self.setup_samples),
            "game_s": median_of("game_h"),
            "growth_exp": statistics.median(
                math.log(r["game_h"] / r["game_half"]) / math.log(2) for r in rounds
            ),
            "step_p50_us": median_of("step_p50_us"),
            "step_p99_us": median_of("step_p99_us"),
            "trace_write_s": median_of("write"),
            "replay_s": median_of("replay"),
            "peak_rss_mb": median_of("rss"),
        }
        samples = dict.fromkeys(metrics, len(rounds))
        samples["setup_s"] = len(self.setup_samples)
        return metrics, samples

    # -- traced rounds: per-layer metrics --------------------------------

    def traced_round(self, index: int) -> bool:
        layers: dict[str, float] = {}
        plain = traced_game = 0.0
        steps: list[list[float]] = []
        for game in self.games:
            untraced, _ = self.play(game, game.horizon)
            traced, replayed = self.play(game, game.horizon, traced=True, replay=True)
            if untraced is None or traced is None or replayed is None:
                return False
            plain += untraced["game_s"]
            traced_game += traced["game_s"]
            steps.append(traced["step_durations_s"])
            for part in (traced, replayed):
                for key, value in part["layers"].items():
                    layers[key] = layers.get(key, 0) + value
        if self.rounds:
            first = self.rounds[0]["layers"]
            drifted = [k for k in EXACT_LAYER_SUMS if layers[k] != first[k]]
            if drifted:
                self.failed += 1
                self.failures.append(
                    f"{self.workload}: per-layer counts differ between rounds: {drifted}")
        p50, p99 = _step_percentiles(steps)
        self.rounds.append({"layers": layers, "overhead": traced_game / plain,
                            "step_p50_us": p50, "step_p99_us": p99})
        self.steps += sum(map(len, steps))
        return True

    def traced_metrics(self):
        rounds = self.rounds
        if not rounds:
            return {}, {}
        first = rounds[0]["layers"]
        metrics: dict[str, float] = {}
        for name, unit in LAYER_UNITS.items():
            if name in EXACT_LAYER_SUMS:
                metrics[name] = first[name]
            elif unit == "s":
                metrics[name] = statistics.median(r["layers"][name] for r in rounds)
        metrics["algebra.combine_repeat_ratio"] = _ratio(
            first["algebra.combine_repeats"], first["algebra.combine_calls"])
        metrics["families.at_hit_ratio"] = _ratio(
            first["families.at_hits"], first["families.at_calls"])
        for q in ("p50", "p99"):
            metrics[f"learners.step_{q}_us"] = statistics.median(
                r[f"step_{q}_us"] for r in rounds)
        metrics["trace.overhead_ratio"] = statistics.median(r["overhead"] for r in rounds)
        return metrics, dict.fromkeys(LAYER_UNITS, len(rounds))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _step_percentiles(games_steps_s: list[list[float]]) -> tuple[float, float]:
    """The 50th and 99th step percentiles of one round, in us.

    Each game's percentile is the nearest rank over its own steps; a
    round's value is the geometric mean over its games.  Pooling the steps
    of a battery instead would let its slowest game set the 99th
    percentile alone and hide the tails of the others.
    """
    games = [sorted(steps) for steps in games_steps_s]
    return tuple(
        statistics.geometric_mean(
            ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1] for ordered in games
        ) * 1e6
        for q in (50, 99)
    )


def _metadata(root: Path, args) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src" / "limitgames").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload == "fair-battery",
        "trace": args.trace,
        "run_seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "src_sha256": src.hexdigest(),
        "git_rev": None,
        "git_dirty": None,
    }
    if (root / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=30)
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=root, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return meta
        if rev.returncode == 0:
            meta["git_rev"] = rev.stdout.strip()
            meta["git_dirty"] = bool(status.stdout.strip())
    return meta


if __name__ == "__main__":
    sys.exit(main())

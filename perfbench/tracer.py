"""Span tracing of limitgames from outside the package.

``install`` replaces the public functions and methods of the package's
modules with wrappers that record one span per call: name, start, end and
parent span.  Spans stay in memory; ``Tracer.totals`` folds them into
per-layer sums and ``Tracer.write_spans`` writes them out at the end of
the game.  Nothing under ``src/`` changes: the wrappers are set on the
module and class attributes, and on every module attribute that imported
the same function by name.

Self time of a span is its duration minus the part its child spans cover,
so ``learners.step`` self time excludes the algebra and families work it
calls.  ``PeriodicSet.__contains__`` and the universe rank helpers are not
wrapped: they run millions of times per game and would swamp the trace.
"""

from __future__ import annotations

import math
import sys
import time
from array import array

SPAN_NAMES = (
    "root",
    "scenario.load",
    "arena.game",
    "arena.score",
    "arena.encode",
    "arena.decode",
    "arena.rescore",
    "learners.step",
    "adversaries.emit",
    "adversaries.observe",
    "adversaries.pair",
    "families.at",
    "families.consistency",
    "setspec.parse",
    "setspec.format",
    "algebra.combine",
    "algebra.scan",
    "algebra.mask",
    "algebra.build",
)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}

# Counters kept at the wrapped boundaries, beside the per-span call counts.
COUNTERS = (
    "combine_cells",
    "combine_repeats",
    "scan_calls",
    "scan_ranks",
    "mask_bits",
    "parse_chars",
    "at_hits",
    "phase_changes",
    "trace_bytes",
)


class Tracer:
    def __init__(self, game_id: str):
        self.game_id = game_id
        self.clock = time.perf_counter
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.count = dict.fromkeys(COUNTERS, 0)
        self.step_durations: list[float] = []
        # Stack frames are [span id, child time]; frame 0 is the root.
        self.stack: list[list] = [[0, 0.0]]
        self.next_id = 1
        self.sp_id = array("q")
        self.sp_parent = array("q")
        self.sp_name = array("B")
        self.sp_start = array("d")
        self.sp_end = array("d")

    def span(self, name: str, fn, before=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``before(args)`` runs ahead of the call to update counters; its time
        is charged to the caller, not to the span.
        """
        nid = _ID[name]
        stack, clock = self.stack, self.clock
        calls, self_s = self.calls, self.self_s
        sp_id, sp_parent, sp_name = self.sp_id, self.sp_parent, self.sp_name
        sp_start, sp_end = self.sp_start, self.sp_end
        durations = self.step_durations if name == "learners.step" else None
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid = tracer.next_id
            tracer.next_id = sid + 1
            frame = [sid, 0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                parent[1] += d
                self_s[nid] += d - frame[1]
                calls[nid] += 1
                if durations is not None:
                    durations.append(d)
                sp_id.append(sid)
                sp_parent.append(parent[0])
                sp_name.append(nid)
                sp_start.append(t0)
                sp_end.append(t1)

        wrapper.__wrapped__ = fn
        return wrapper

    def totals(self) -> dict[str, float]:
        """Calls, self times and counters of this game, summed per layer."""
        c, s, k = self.calls, self.self_s, self.count

        def calls_of(name):
            return c[_ID[name]]

        def self_of(name):
            return s[_ID[name]]

        return {
            "algebra.combine_calls": calls_of("algebra.combine"),
            "algebra.combine_cells": k["combine_cells"],
            "algebra.combine_s": self_of("algebra.combine"),
            "algebra.combine_repeats": k["combine_repeats"],
            "algebra.scan_calls": k["scan_calls"],
            "algebra.scan_ranks": k["scan_ranks"],
            "algebra.scan_s": self_of("algebra.scan"),
            "algebra.mask_calls": calls_of("algebra.mask"),
            "algebra.mask_bits": k["mask_bits"],
            "algebra.mask_s": self_of("algebra.mask"),
            "algebra.build_calls": calls_of("algebra.build"),
            "algebra.build_s": self_of("algebra.build"),
            "setspec.parse_calls": calls_of("setspec.parse"),
            "setspec.parse_chars": k["parse_chars"],
            "setspec.parse_s": self_of("setspec.parse"),
            "setspec.format_calls": calls_of("setspec.format"),
            "setspec.format_s": self_of("setspec.format"),
            "families.at_calls": calls_of("families.at"),
            "families.at_hits": k["at_hits"],
            "families.at_s": self_of("families.at"),
            "families.consistency_calls": calls_of("families.consistency"),
            "families.consistency_s": self_of("families.consistency"),
            "learners.step_calls": calls_of("learners.step"),
            "learners.step_s": self_of("learners.step"),
            "adversaries.emit_s": self_of("adversaries.emit"),
            "adversaries.observe_s": self_of("adversaries.observe"),
            "adversaries.pair_s": self_of("adversaries.pair"),
            "adversaries.phase_changes": k["phase_changes"],
            "arena.score_calls": calls_of("arena.score"),
            "arena.score_s": self_of("arena.score"),
            "arena.loop_self_s": self_of("arena.game"),
            "arena.encode_s": self_of("arena.encode"),
            "arena.decode_s": self_of("arena.decode"),
            "arena.rescore_s": self_of("arena.rescore"),
            "arena.trace_bytes": k["trace_bytes"],
            "scenario.load_s": self_of("scenario.load"),
        }

    def write_spans(self, path) -> None:
        """Write every span as a tab-separated row: id, parent, name, start, end."""
        with open(path, "w") as out:
            out.write(f"# game {self.game_id}\nid\tparent\tname\tstart\tend\n")
            for sid, parent, nid, t0, t1 in zip(
                self.sp_id, self.sp_parent, self.sp_name, self.sp_start, self.sp_end
            ):
                out.write(f"{sid}\t{parent}\t{SPAN_NAMES[nid]}\t{t0:.9f}\t{t1:.9f}\n")


def _replace_everywhere(modules, original, wrapped) -> None:
    # Modules that did ``from .x import name`` hold their own reference.
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def _classes(mod):
    return [
        cls
        for cls in vars(mod).values()
        if isinstance(cls, type)
        and cls.__module__ == mod.__name__
        and not getattr(cls, "_is_protocol", False)
    ]


def install(tracer: Tracer) -> None:
    """Wrap the limitgames layers; the package must already be imported."""
    from limitgames import adversaries, algebra, arena, families, learners, scenario, setspec

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "limitgames"]
    count = tracer.count

    def repeat(seen: set, key) -> bool:
        if key in seen:
            return True
        seen.add(key)
        return False

    def wrap_function(mod, attr, name, before=None):
        original = getattr(mod, attr)
        _replace_everywhere(modules, original, tracer.span(name, original, before))

    def wrap_method(cls, attr, name, before=None, static=False):
        original = cls.__dict__[attr]
        if static:
            setattr(cls, attr, staticmethod(tracer.span(name, original.__func__, before)))
        else:
            setattr(cls, attr, tracer.span(name, original, before))

    # scenario and setspec
    wrap_function(scenario, "parse_scenario", "scenario.load")

    def count_parse(args):
        count["parse_chars"] += len(args[0])

    wrap_function(setspec, "parse", "setspec.parse", count_parse)
    wrap_function(setspec, "format_set", "setspec.format")

    # arena
    wrap_function(arena, "run_game", "arena.game")
    wrap_function(arena, "score_step", "arena.score")
    wrap_function(arena, "rescore_trace", "arena.rescore")
    wrap_method(arena.Trace, "to_jsonl", "arena.encode")
    wrap_method(arena.Verdict, "to_json", "arena.encode")
    wrap_method(arena.Trace, "from_jsonl", "arena.decode", static=True)

    # learners: every concrete class with a step method
    for cls in _classes(learners):
        if "step" in cls.__dict__:
            wrap_method(cls, "step", "learners.step")

    # adversaries: emit, observe and current_pair, counting phase changes
    for cls in _classes(adversaries):
        if "emit" not in cls.__dict__:
            continue
        for attr, name in (
            ("emit", "adversaries.emit"),
            ("observe", "adversaries.observe"),
            ("current_pair", "adversaries.pair"),
        ):
            inner = tracer.span(name, cls.__dict__[attr])
            if attr == "current_pair":
                setattr(cls, attr, inner)
                continue

            def phased(self, *args, _inner=inner):
                before = self.phase
                try:
                    return _inner(self, *args)
                finally:
                    count["phase_changes"] += self.phase - before

            setattr(cls, attr, phased)

    # families
    asked: set = set()

    def count_at(args):
        count["at_hits"] += repeat(asked, (id(args[0]), args[1]))

    wrap_method(families.LanguageCollection, "at", "families.at", count_at)
    wrap_function(families, "is_consistent_true", "families.consistency")
    wrap_function(families, "is_consistent_harm", "families.consistency")

    # algebra
    PS = algebra.PeriodicSet
    combined: set = set()

    def binary(op):
        def before(args):
            a, b = args
            np_ = math.lcm(a.neg_period, b.neg_period)
            pp = math.lcm(a.pos_period, b.pos_period)
            # The window a pointwise combine scans is widened by both tail
            # periods; the residue scans add both periods once more.
            count["combine_cells"] += max(a.hi, b.hi) - min(a.lo, b.lo) + 1 + 2 * (np_ + pp)
            count["combine_repeats"] += repeat(combined, (op, a, b))

        return before

    def unary(args):
        (a,) = args
        count["combine_cells"] += a.hi - a.lo + 1 + a.neg_period + a.pos_period
        count["combine_repeats"] += repeat(combined, ("complement", a))

    for attr in ("__or__", "__and__", "__sub__"):
        wrap_method(PS, attr, "algebra.combine", binary(attr))
    wrap_method(PS, "complement", "algebra.combine", unary)
    wrap_method(PS, "build", "algebra.build", static=True)

    def count_mask(args):
        count["mask_bits"] += args[2]

    wrap_method(PS, "rank_mask_block", "algebra.mask", count_mask)

    def count_prefix(args):
        count["scan_calls"] += 1
        count["scan_ranks"] += args[1]

    wrap_method(PS, "prefix", "algebra.scan", count_prefix)
    wrap_method(PS, "first_not_in", "algebra.scan")

    # The universe-order iterator is lazy: each resumption is its own scan
    # span, and the ranks covered are counted as the iterator advances.
    iter_order = PS.__dict__["iter_universe_order"]
    resume = tracer.span("algebra.scan", next)
    universe_index = algebra.universe_index

    def traced_iter(self):
        count["scan_calls"] += 1
        it = iter_order(self)
        covered = 0
        while True:
            try:
                x = resume(it)
            except StopIteration:
                return
            rank = universe_index(x)
            count["scan_ranks"] += rank - covered
            covered = rank
            yield x

    PS.iter_universe_order = traced_iter


"""Game loop, per-step scoring, JSONL traces and finite-horizon verdicts.

A game binds one adversary to one learner for a fixed horizon.  Each step:
the adversary emits a labeled example, the learner observes the grown
sample and answers, the answer is scored against the adversary's currently
committed pair, and only then does the adversary observe the answer.

One referee (``_Referee``) checks each step's row against the rules of the
game and scores it, in play (``run_game``) and in replay (``rescored``) alike.

"In the limit" is finitized as a trailing window: a run converges when its
final ``window`` steps are all correct.  Runs are fully deterministic, so a
trace serializes to byte-stable JSONL and can be re-scored offline.  It
streams one line at a time both ways: ``Trace.lines`` is the one encoder and
``read_trace`` the one decoder.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from enum import Enum
from math import inf
from typing import Callable, Iterable, Iterator

from .adversaries import Adversary
from .algebra import LimitError, PeriodicSet, difference
from .families import LabeledExample, LanguageCollection, RevealedSet
from .learners import Learner, LearnerOutput
from .setspec import SetSpecError, format_set, parse

TRACE_SCHEMA = "limitgames.trace.v1"
VERDICT_SCHEMA = "limitgames.verdict.v1"
# The longest game a scenario may ask for.
MAX_HORIZON = 1 << 20


class GameKind(str, Enum):
    SG = "sg"
    SG_INF = "sg_inf"
    SG_RELAXED = "sg_relaxed"
    SI = "si"
    LI = "li"


class ScenarioError(ValueError):
    """Raised when a scenario fails validation before step 1."""


class TraceRuleError(ValueError):
    """Raised when a well-formed trace breaks a rule of the game."""


def score_step(
    kind: GameKind,
    output: LearnerOutput,
    true_lang: PeriodicSet,
    harm_lang: PeriodicSet,
    seen: RevealedSet,
    true_coll: LanguageCollection | None = None,
) -> bool:
    """Per-step correctness under the game's success rule.

    Generation games accept an unseen element of the difference, or bottom
    exactly when the difference is empty or finite (relaxed games accept any
    word in that case instead of bottom).  Identification games compare the
    guessed index's language with the safe language (difference) or the true
    language.
    """
    if kind in (GameKind.SG, GameKind.SG_INF):
        if output.is_generate:
            w = output.value
            return w in true_lang and w not in harm_lang and not seen.contains(w)
        if output.is_bottom:
            return difference(true_lang, harm_lang).cardinality().is_bounded
        return False
    if kind is GameKind.SG_RELAXED:
        if output.is_generate:
            w = output.value
            if difference(true_lang, harm_lang).cardinality().is_bounded:
                return True
            return w in true_lang and w not in harm_lang and not seen.contains(w)
        return False
    if kind in (GameKind.SI, GameKind.LI):
        if not output.is_index or true_coll is None:
            return False
        return true_coll.at(output.value) == _identification_target(kind, true_lang, harm_lang)
    raise ScenarioError(f"unknown game kind {kind!r}")


def _identification_target(kind: GameKind, true_lang: PeriodicSet, harm_lang: PeriodicSet):
    """The language an identification game asks for: true minus harm in ``si``, true in ``li``."""
    return difference(true_lang, harm_lang) if kind is GameKind.SI else true_lang


@dataclass(frozen=True)
class StepRecord:
    t: int
    element: int
    label: int
    injected: bool
    output: LearnerOutput
    correct: bool
    phase: int
    # Committed pair, present on the steps where it changed; serialized as
    # set-spec strings.
    pair: tuple[PeriodicSet, PeriodicSet] | None


@dataclass(frozen=True)
class Verdict:
    converged: bool
    convergence_step: int | None
    correct_in_final_window: int
    phase_transitions: int
    target_index: int | None
    horizon: int
    window: int

    def to_json(self, scenario: str) -> str:
        return json.dumps({"schema": VERDICT_SCHEMA, "scenario": scenario, **vars(self)}, sort_keys=True)


@dataclass
class Trace:
    scenario: str
    game: GameKind
    horizon: int
    window: int
    steps: list[StepRecord] = field(default_factory=list)

    def to_jsonl(self) -> str:
        return "".join(self.lines())

    def lines(self) -> Iterator[str]:
        """The JSONL encoding one line at a time, each ending in a newline:
        the header, then each step's row.  ``_ROW`` writes the bytes of
        ``json.dumps(row, sort_keys=True)`` because ``_check_step`` holds each
        integer field to an exact ``int``, each flag to an exact ``bool`` and
        ``output`` to one of ``_OUTPUT_KINDS``, and the pair strings are
        ``format_set`` output, which JSON never escapes.  A row the decoder
        would refuse raises ScenarioError instead, and a pair too wide to print
        raises LimitError; both name the row's line."""
        head = {"schema": TRACE_SCHEMA, "scenario": self.scenario, "game": self.game.value,
                "horizon": self.horizon, "window": self.window}
        yield json.dumps(head, sort_keys=True) + "\n"
        for n, s in enumerate(self.steps, start=2):
            out = s.output
            try:
                _check_step(s.t, s.element, s.label, s.injected, s.correct, s.phase, out.kind, out.value)
                pair = "" if s.pair is None else _PAIR % (format_set(s.pair[0]), format_set(s.pair[1]))
            except ScenarioError as exc:
                raise ScenarioError(f"trace line {n}: {exc}") from None
            except LimitError as exc:
                raise type(exc)(f"trace line {n}: field 'pair': {exc}") from None
            yield _ROW % (
                "true" if s.correct else "false", s.element, "true" if s.injected else "false",
                s.label, out.kind, pair, s.phase, s.t, "null" if out.value is None else out.value,
            )

    @staticmethod
    def from_jsonl(text: str) -> "Trace":
        """Decode a whole trace (see ``read_trace``)."""
        trace, rows = read_trace(text.splitlines())
        trace.steps.extend(rows)
        return trace


def read_trace(lines: Iterable[str]) -> tuple[Trace, Iterator[StepRecord]]:
    """The header, decoded at once with no steps, and the step rows, decoded
    lazily.  Blank lines are skipped; a malformed line raises ScenarioError
    naming its line number and field when it is reached."""
    numbered = ((n, ln) for n, ln in enumerate(lines, start=1) if ln.strip())
    first = next(numbered, None)
    if first is None:
        raise ScenarioError("empty trace file")
    trace = _decode_line(*first, _decode_head)
    return trace, (_decode_line(n, ln, _decode_step) for n, ln in numbered)


def _decode_line(n: int, line: str, decode: Callable[[dict], object]):
    try:
        row = json.loads(line)
    except ValueError as exc:  # not JSON, or an integer past Python's digit limit
        raise ScenarioError(f"trace line {n}: not valid JSON ({getattr(exc, 'msg', exc)})") from None
    try:
        if not isinstance(row, dict):
            raise ScenarioError("a row must be a JSON object")
        return decode(row)
    except KeyError as exc:
        raise ScenarioError(f"trace line {n}: missing field {exc.args[0]!r}") from None
    except ScenarioError as exc:
        raise ScenarioError(f"trace line {n}: {exc}") from None


_OUTPUT_KINDS = ("generate", "bottom", "index")
# A step row's scalar fields and their types, checked exactly: a bool is an int.
_STEP_TYPES = {"t": int, "element": int, "label": int, "injected": bool, "correct": bool, "phase": int}
_step_fields = operator.itemgetter(*_STEP_TYPES, "output", "value")
# A step row as json.dumps(row, sort_keys=True) writes it (see Trace.lines).
_ROW = ('{"correct": %s, "element": %d, "injected": %s, "label": %d, "output": "%s", '
        '%s"phase": %d, "t": %d, "value": %s}\n')
_PAIR = '"pair": ["%s", "%s"], '


def _decode_head(row: dict) -> Trace:
    if row.get("schema") != TRACE_SCHEMA:
        raise ScenarioError(f"unsupported trace schema: {row.get('schema')!r}")
    try:
        game = GameKind(row["game"])
    except ValueError:
        raise ScenarioError(f"field 'game': unknown game {row['game']!r}") from None
    key = next((k for k in ("horizon", "window") if type(row[k]) is not int), None)
    if key is not None:
        raise ScenarioError(f"field {key!r} must be an integer")
    return Trace(scenario=row["scenario"], game=game, horizon=row["horizon"], window=row["window"])


def _check_step(t, element, label, injected, correct, phase, kind, value) -> None:
    """Raise ScenarioError naming the first field of a step row that a trace
    may not hold."""
    if not (
        type(t) is type(element) is type(label) is type(phase) is int
        and type(injected) is type(correct) is bool
    ):
        values = (t, element, label, injected, correct, phase)
        key, want = next((k, w) for (k, w), x in zip(_STEP_TYPES.items(), values) if type(x) is not w)
        raise ScenarioError(f"field {key!r} must be {'a boolean' if want is bool else 'an integer'}")
    if label not in (0, 1):
        raise ScenarioError(f"field 'label' must be 0 or 1, got {label}")
    if type(kind) is not str or kind not in _OUTPUT_KINDS:
        raise ScenarioError(f"field 'output': unknown output kind {kind!r}")
    if (value is None) != (kind == "bottom") or value is not None and type(value) is not int:
        raise ScenarioError(f"field 'value' must be an integer, or null for bottom, got {value!r}")
    if kind == "index" and value < 1:
        raise ScenarioError(f"field 'value': an index must be >= 1, got {value}")


def _decode_step(row: dict) -> StepRecord:
    t, element, label, injected, correct, phase, kind, value = fields = _step_fields(row)
    _check_step(*fields)
    pair = None
    if "pair" in row:
        texts = row["pair"]
        if not (isinstance(texts, list) and len(texts) == 2 and all(isinstance(x, str) for x in texts)):
            raise ScenarioError("field 'pair' must be a list of two set expressions")
        try:
            pair = (parse(texts[0]), parse(texts[1]))
        except SetSpecError as exc:
            raise ScenarioError(f"field 'pair': {exc}") from None
    return StepRecord(t, element, label, injected, LearnerOutput(kind, value), correct, phase, pair)


@dataclass
class ScenarioSpec:
    """Everything needed to run one deterministic game."""

    name: str
    game: GameKind
    adversary_factory: Callable[[], Adversary]
    learner_factory: Callable[[], Learner]
    horizon: int
    window: int
    true_coll: LanguageCollection | None = None
    harm_coll: LanguageCollection | None = None

    def validate(self) -> None:
        if not 1 <= self.horizon <= MAX_HORIZON:
            raise ScenarioError(f"horizon must be in 1..MAX_HORIZON = {MAX_HORIZON}")
        if not 1 <= self.window < self.horizon:
            raise ScenarioError("window must satisfy 1 <= window < horizon")
        if self.game in (GameKind.SI, GameKind.LI) and self.true_coll is None:
            raise ScenarioError("identification games need a true-side collection")
        if self.game is GameKind.SG_INF:
            self._validate_infinite_differences()

    def _validate_infinite_differences(self) -> None:
        if self.true_coll is None or self.harm_coll is None:
            raise ScenarioError("sg_inf games need both collections")
        if self.true_coll.length is None or self.harm_coll.length is None:
            raise ScenarioError(
                "sg_inf games need collections with a declared finite length"
            )
        for i in range(1, self.true_coll.length + 1):
            for j in range(1, self.harm_coll.length + 1):
                diff = self.true_coll.at(i) - self.harm_coll.at(j)
                if not diff.cardinality().is_infinite:
                    raise ScenarioError(
                        f"sg_inf promise violated: difference of true index {i} "
                        f"and harm index {j} is not infinite"
                    )


@dataclass
class RunResult:
    trace: Trace
    verdict: Verdict
    learner: Learner
    adversary: Adversary


def run_game(spec: ScenarioSpec) -> RunResult:
    """Play the game to the horizon and judge the trailing window."""
    spec.validate()
    referee = _Referee(spec.game, spec.horizon, spec.true_coll)
    adversary = spec.adversary_factory()
    learner = spec.learner_factory()
    trace = Trace(spec.name, spec.game, spec.horizon, spec.window)
    for t in range(1, spec.horizon + 1):
        emission = adversary.emit(t)
        pair = adversary.current_pair()
        new_pair = pair if pair != referee.pair else None
        example, phase = emission.example, adversary.phase
        revealed = referee.reveal(t, example, phase, new_pair)
        try:
            output = learner.step(revealed, t)
        except LimitError as exc:
            raise type(exc)(f"learner: {exc}") from None
        correct = referee.score(output)
        adversary.observe(output)
        trace.steps.append(
            StepRecord(t, example.element, example.label, emission.injected,
                       output, correct, phase, new_pair)
        )
    verdict = judge(trace, adversary, spec)
    return RunResult(trace, verdict, learner, adversary)


def judge(trace: Trace, adversary: Adversary, spec: ScenarioSpec) -> Verdict:
    flags = [s.correct for s in trace.steps]
    tail = flags[-spec.window :]
    converged = all(tail)
    # A converged run's all-correct suffix starts just after its last wrong step.
    last_bad = max((t for t, ok in enumerate(flags, start=1) if not ok), default=0)
    target_index = None
    if spec.game in (GameKind.SI, GameKind.LI) and (coll := spec.true_coll) is not None:
        target = _identification_target(spec.game, *adversary.current_pair())
        count = coll.candidate_count(spec.horizon)
        target_index = next((i for i in range(1, count + 1) if coll.at(i) == target), None)
    return Verdict(
        converged=converged,
        convergence_step=last_bad + 1 if converged else None,
        correct_in_final_window=sum(tail),
        phase_transitions=adversary.phase - 1,
        target_index=target_index,
        horizon=spec.horizon,
        window=spec.window,
    )


class _Referee:
    """One game's rules for its rows, and its scoring against the pair in
    force.  Building one clears the pair-difference memo, so that the memo
    holds one game's pairs."""

    def __init__(self, kind: GameKind, horizon: int, true_coll: LanguageCollection | None):
        difference.cache_clear()
        self.kind, self.horizon, self.true_coll = kind, horizon, true_coll
        self.revealed = RevealedSet()
        self.pair: tuple[PeriodicSet, PeriodicSet] | None = None
        self.phase: float = -inf

    def reveal(self, t: int, example: LabeledExample, phase: int, pair=None) -> RevealedSet:
        """Check the next step's row, which commits to ``pair`` if that
        changed, and reveal its example.  A broken rule raises TraceRuleError:
        ``t`` out of sequence or past the horizon, a falling ``phase``, or an
        element outside the side of the pair in force that its label names."""
        if pair is not None:
            self.pair = pair
        if self.pair is None:
            raise ScenarioError("trace does not declare the committed pair")
        step = self.revealed.step + 1
        if step > self.horizon:
            raise TraceRuleError(f"step {step}: the trace runs past its header's horizon")
        if t != step:
            raise TraceRuleError(f"step {step}: t is {t}; t must run 1, 2, ... without gaps")
        if phase < self.phase:
            raise TraceRuleError(f"step {step}: phase falls from {self.phase} to {phase}")
        if example.element not in self.pair[0 if example.label == 1 else 1]:
            side = "true" if example.label == 1 else "harm"
            raise TraceRuleError(
                f"step {step}: element {example.element} is labelled {example.label} "
                f"but is not in the committed {side} language"
            )
        self.phase = phase
        self.revealed.add(example)
        return self.revealed

    def score(self, output: LearnerOutput) -> bool:
        """Is ``output`` correct for the step just revealed?"""
        return score_step(self.kind, output, *self.pair, self.revealed, self.true_coll)


def rescored(
    trace: Trace, steps: Iterable[StepRecord], true_coll: LanguageCollection | None = None
) -> Iterator[tuple[StepRecord, bool]]:
    """Each of ``steps``, the rows of the trace headed by ``trace``, with its
    correctness recomputed, once the referee has checked the row."""
    referee = _Referee(trace.game, trace.horizon, true_coll)
    for s in steps:
        referee.reveal(s.t, LabeledExample(s.element, s.label), s.phase, s.pair)
        yield s, referee.score(s.output)
    count = referee.revealed.step
    if count != trace.horizon:
        raise TraceRuleError(f"step {count + 1}: the trace has {count} steps, "
                             f"but its header's horizon is {trace.horizon}")


def rescore_trace(trace: Trace, true_coll: LanguageCollection | None = None) -> list[bool]:
    """Recompute per-step correctness of a stored trace from its own records,
    raising TraceRuleError at the first step that breaks a rule of the game."""
    return [correct for _, correct in rescored(trace, trace.steps, true_coll)]


def score_against_pair(
    trace: Trace, true_lang: PeriodicSet, harm_lang: PeriodicSet
) -> list[bool]:
    """Score a stored trace's outputs as safe generations against one fixed
    pair (post-hoc analysis)."""
    revealed = RevealedSet()
    out: list[bool] = []
    for s in trace.steps:
        revealed.add(LabeledExample(s.element, s.label))
        out.append(score_step(GameKind.SG, s.output, true_lang, harm_lang, revealed))
    return out

"""Scenario files: strict JSON descriptions of a single game or a battery.

A scenario file looks like::

    {
      "version": 1,
      "name": "sg-inf-demo",
      "game": "sg_inf",
      "true_collection": {"kind": "explicit", "sets": ["I", "O", "Q(-1)"]},
      "harm_collection": {"kind": "explicit", "sets": ["E", "Y(0)"]},
      "adversary": {"kind": "fair_interleaver", "true": "O", "harm": "E"},
      "learner": {"kind": "conservative"},
      "horizon": 300,
      "window": 50
    }

A battery file lists scenario paths::

    {"version": 1, "name": "night-run", "battery": ["a.json", "b.json"]}

Unknown fields and version mismatches are rejected.  Set expressions use
the grammar documented in :mod:`limitgames.setspec`; collection kinds
``identification_trap_{true,harm}`` and ``diagonal_trap_{true,harm}`` name
the built-in adversarial families.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from . import learners
from .adversaries import (
    AdversaryError,
    DiagonalAdversary,
    FairInterleaver,
    PhasedInjectionAdversary,
    check_diagonal_pair,
)
from .arena import GameKind, ScenarioError, ScenarioSpec
from .families import (
    CollectionError,
    LanguageCollection,
    diagonal_trap_collections,
    identification_trap_collections,
)
from .setspec import SetSpecError, parse

SCENARIO_VERSION = 1


def _parse_set(text: object, what: str):
    if not isinstance(text, str):
        raise ScenarioError(f"{what} must be a set expression string")
    try:
        return parse(text)
    except SetSpecError as exc:
        raise ScenarioError(f"bad set expression in {what}: {exc}") from None


@contextmanager
def _field(what: str) -> Iterator[None]:
    """Report a collection or adversary rejected at load time as a
    ScenarioError naming the scenario field it came from."""
    try:
        yield
    except (CollectionError, AdversaryError) as exc:
        raise ScenarioError(f"{what}: {exc}") from None


@dataclass
class Battery:
    name: str
    paths: list[Path]


def _require_keys(obj: dict, allowed: set[str], required: set[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{what} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"unknown fields in {what}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ScenarioError(f"missing fields in {what}: {sorted(missing)}")


def load_file(path: str | Path) -> ScenarioSpec | Battery:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc.strerror or exc}") from None
    try:
        obj = json.loads(text)
    except ValueError as exc:  # not JSON, or an integer past Python's digit limit
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    if obj.get("version") != SCENARIO_VERSION:
        raise ScenarioError(
            f"{path}: unsupported version {obj.get('version')!r}, expected {SCENARIO_VERSION}"
        )
    if "battery" in obj:
        _require_keys(obj, {"version", "name", "battery"}, {"version", "battery"}, "battery file")
        entries = obj["battery"]
        if not isinstance(entries, list) or not all(isinstance(p, str) for p in entries):
            raise ScenarioError("battery must be a list of scenario file paths")
        return Battery(
            name=_name(obj, path.stem),
            paths=[path.parent / p for p in entries],
        )
    return parse_scenario(obj, default_name=path.stem)


def parse_scenario(obj: dict, default_name: str = "scenario") -> ScenarioSpec:
    allowed = {
        "version",
        "name",
        "game",
        "true_collection",
        "harm_collection",
        "adversary",
        "learner",
        "horizon",
        "window",
    }
    required = {"version", "game", "adversary", "learner", "horizon", "window"}
    _require_keys(obj, allowed, required, "scenario")
    try:
        game = GameKind(obj["game"])
    except ValueError:
        raise ScenarioError(f"unknown game kind {obj['game']!r}") from None
    true_coll = _build_collection(obj.get("true_collection"), "true")
    harm_coll = _build_collection(obj.get("harm_collection"), "harm")
    adversary_factory = _build_adversary(obj["adversary"], true_coll, harm_coll)
    learner_factory = _build_learner(obj["learner"], true_coll, harm_coll)
    spec = ScenarioSpec(
        name=_name(obj, default_name),
        game=game,
        adversary_factory=adversary_factory,
        learner_factory=learner_factory,
        horizon=_int_field(obj, "horizon"),
        window=_int_field(obj, "window"),
        true_coll=true_coll,
        harm_coll=harm_coll,
    )
    spec.validate()
    return spec


def _name(obj: dict, default: str) -> str:
    # The name becomes the stem of the trace and verdict file names.
    name = obj.get("name", default)
    if not isinstance(name, str) or not name or "/" in name or "\\" in name:
        raise ScenarioError("name must be a non-empty string without path separators")
    return name


def _int_field(obj: dict, key: str) -> int:
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"{key} must be an integer")
    return value


def _build_collection(cfg: dict | None, side: str) -> LanguageCollection | None:
    if cfg is None:
        return None
    _require_keys(cfg, {"kind", "sets", "telltales"}, {"kind"}, f"{side}_collection")
    kind = cfg["kind"]
    if kind == "explicit":
        if "sets" not in cfg:
            raise ScenarioError("explicit collection needs a 'sets' list")
        texts = cfg["sets"]
        if not isinstance(texts, list) or not all(isinstance(s, str) for s in texts):
            raise ScenarioError(f"{side}_collection.sets must be a list of set expressions")
        sets = [_parse_set(s, f"{side}_collection.sets") for s in texts]
        telltales = _telltales(cfg["telltales"], side, len(sets)) if "telltales" in cfg else None
        with _field(f"{side}_collection"):
            return LanguageCollection.explicit(f"{side}-explicit", sets, telltales=telltales)
    if "sets" in cfg or "telltales" in cfg:
        raise ScenarioError(f"collection kind {kind!r} takes no sets or telltales")
    if kind == "identification_trap_true":
        return identification_trap_collections()[0]
    if kind == "identification_trap_harm":
        return identification_trap_collections()[1]
    if kind == "diagonal_trap_true":
        return diagonal_trap_collections()[0]
    if kind == "diagonal_trap_harm":
        return diagonal_trap_collections()[1]
    raise ScenarioError(f"unknown collection kind {kind!r}")


def _telltales(obj, side: str, count: int) -> dict[int, frozenset[int]]:
    where = f"{side}_collection.telltales"
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must map indices to lists of integers")
    out: dict[int, frozenset[int]] = {}
    for key, values in obj.items():
        try:
            index = int(key)
        except ValueError:
            raise ScenarioError(f"{where}: key {key!r} is not an integer index") from None
        if not 1 <= index <= count:
            raise ScenarioError(f"{where}: key {key!r} is not an index in 1..{count}")
        if not isinstance(values, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in values
        ):
            raise ScenarioError(f"{where}[{key!r}] must be a list of integers")
        out[index] = frozenset(values)
    return out


def _build_adversary(cfg: dict, true_coll, harm_coll):
    _require_keys(cfg, {"kind", "lang", "true", "harm"}, {"kind"}, "adversary")
    kind = cfg["kind"]
    if kind == "positive_stream":
        if "lang" not in cfg:
            raise ScenarioError("positive_stream needs a 'lang' set expression")
        lang = _parse_set(cfg["lang"], "adversary.lang")
        with _field("adversary.lang"):
            FairInterleaver(lang)
        return lambda: FairInterleaver(lang)
    if kind == "fair_interleaver":
        if "true" not in cfg or "harm" not in cfg:
            raise ScenarioError("fair_interleaver needs 'true' and 'harm' expressions")
        true_lang = _parse_set(cfg["true"], "adversary.true")
        harm_lang = _parse_set(cfg["harm"], "adversary.harm")
        with _field("adversary"):
            FairInterleaver(true_lang, harm_lang)
        return lambda: FairInterleaver(true_lang, harm_lang)
    if kind == "phased_injection":
        if true_coll is None:
            raise ScenarioError("phased_injection needs the true-side collection")
        return lambda: PhasedInjectionAdversary(true_coll)
    if kind == "diagonal":
        try:
            check_diagonal_pair(true_coll, harm_coll)
        except AdversaryError as exc:
            raise ScenarioError(f"adversary: {exc}") from None
        return lambda: DiagonalAdversary(true_coll, harm_coll)
    raise ScenarioError(f"unknown adversary kind {kind!r}")


def _build_learner(cfg: dict, true_coll, harm_coll):
    _require_keys(cfg, {"kind", "true", "harm", "strict"}, {"kind"}, "learner")
    kind = cfg["kind"]
    strict = cfg.get("strict", True)
    if not isinstance(strict, bool):
        raise ScenarioError("'strict' must be a boolean")

    def need_true() -> LanguageCollection:
        if true_coll is None:
            raise ScenarioError(f"learner {kind!r} needs the true-side collection")
        return true_coll

    def need_harm() -> LanguageCollection:
        if harm_coll is None:
            raise ScenarioError(f"learner {kind!r} needs the harm-side collection")
        return harm_coll

    if kind == "critical":
        # The pair learner with no harm side; a declared harm collection
        # is left to the adversary and the scoring.
        coll = need_true()
        return lambda: learners.ConservativePairGenerator(coll)
    if kind == "conservative":
        ct, ch = need_true(), need_harm()
        return lambda: learners.ConservativePairGenerator(ct, ch, strict=strict)
    if kind == "reference":
        if "true" not in cfg or "harm" not in cfg:
            raise ScenarioError("reference learner needs 'true' and 'harm' expressions")
        true_hyp = _parse_set(cfg["true"], "learner.true")
        harm_hyp = _parse_set(cfg["harm"], "learner.harm")
        return lambda: learners.ReferenceGenerator(true_hyp, harm_hyp, strict=strict)
    if kind == "telltale":
        ct, ch = need_true(), need_harm()
        return lambda: learners.TelltaleGenerator(ct, ch, strict=strict)
    if kind == "probe_identifier":
        coll = need_true()
        return lambda: learners.ProbeIdentifier(coll)
    if kind == "naive_identifier":
        coll = need_true()
        return lambda: learners.NaiveIdentifier(coll)
    if kind == "eager_identifier":
        coll = need_true()
        return lambda: learners.EagerIdentifier(coll)
    if kind == "stubborn_identifier":
        return lambda: learners.StubbornIdentifier()
    if kind == "always_bottom":
        return lambda: learners.AlwaysBottom()
    raise ScenarioError(f"unknown learner kind {kind!r}")

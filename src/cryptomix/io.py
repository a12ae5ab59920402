"""Scenario file I/O.

The on-disk format is versioned JSON mirroring the model types field for
field: the parser and the serialiser both walk the dataclass fields and
their type hints, so the model types are the schema. Parsing is strict:
unknown, missing or repeated fields and values of the wrong type raise
ParseError with the JSON path, and the parsed instance must pass
validate_instance. A field may be left out exactly when its dataclass
gives it a default.
"""

from __future__ import annotations

import json
import math
from collections.abc import Collection, Mapping
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Any, Optional, get_args, get_origin, get_type_hints

from .errors import ParseError, ValidationError
from .model import GameInstance, ScenarioSet, validate_instance

SCHEMA_VERSION = "1"
_BUNDLED_NAME = "reference_scenario.json"
# root keys of the file that are not GameInstance fields
_ROOT_EXTRAS = ("schema_version", "scenario_budgets")


class _Repeated(dict):
    """A decoded JSON object that gives `key` twice. json would keep the
    last value without a word, so the parser reports the key when it
    reaches the object and knows its path."""

    def __init__(self, obj: dict, key: str):
        super().__init__(obj)
        self.key = key


def _object_pairs(pairs: list) -> dict:
    """object_pairs_hook for scenario files: the object, as a _Repeated
    naming the first key it gives twice if there is one."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            return _Repeated(dict(pairs), key)
        obj[key] = value
    return obj


def _mapping(raw: Any, path: str) -> dict:
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: expected an object, got {type(raw).__name__}")
    if isinstance(raw, _Repeated):
        raise ParseError(f"{path}: duplicate field {raw.key!r}")
    return raw


def _sequence(raw: Any, path: str) -> list:
    if not isinstance(raw, list):
        raise ParseError(f"{path}: expected an array, got {type(raw).__name__}")
    return raw


def _reject_unknown(mapping: dict, allowed: Collection[str], path: str) -> None:
    unknown = [key for key in mapping if key not in allowed]
    if unknown:
        raise ParseError(f"{path}: unknown field {unknown[0]!r}")


def _require(mapping: dict, key: str, path: str) -> Any:
    if key not in mapping:
        raise ParseError(f"{path}: missing field {key!r}")
    return mapping[key]


def _real(raw: Any, path: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ParseError(f"{path}: expected a number, got {raw!r}")
    # json accepts NaN and Infinity, and an integer literal can exceed any float
    try:
        number = float(raw)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"{path}: expected a finite number, got {number}")
    return number


def _integer(raw: Any, path: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ParseError(f"{path}: expected an integer, got {raw!r}")
    return raw


def _string(raw: Any, path: str) -> str:
    if not isinstance(raw, str):
        raise ParseError(f"{path}: expected a string, got {raw!r}")
    return raw


_SCALARS = {float: _real, int: _integer, str: _string}


@cache
def _schema(cls: type) -> Mapping[str, tuple[Any, bool]]:
    """Field name -> (resolved type, required) for a model dataclass, in
    field order. A field is required unless the dataclass gives it a
    default."""
    hints = get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    }


def _object(cls: type, obj: dict, path: str) -> Any:
    """Build cls from a JSON object whose unknown keys are already rejected;
    a field left out keeps its dataclass default."""
    values = {}
    for name, (kind, required) in _schema(cls).items():
        if required or name in obj:
            raw = _require(obj, name, path)
            values[name] = _value(kind, raw, name if path == "$" else f"{path}.{name}")
    return cls(**values)


def _value(kind: Any, raw: Any, path: str) -> Any:
    """Parse raw as the resolved field type kind, reporting faults at path."""
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return scalar(raw, path)
    if is_dataclass(kind):
        obj = _mapping(raw, path)
        _reject_unknown(obj, _schema(kind), path)
        return _object(kind, obj, path)
    origin, args = get_origin(kind), get_args(kind)
    if origin is tuple:
        return tuple(
            _value(args[0], item, f"{path}[{i}]") for i, item in enumerate(_sequence(raw, path))
        )
    # what is left is the model's one Mapping[int, float]; JSON keys are strings
    parsed, keys = {}, {}
    for key, item in _mapping(raw, path).items():
        # int() would also take " +1_0 "; a family id is ASCII digits only
        if not (key.isascii() and key.isdigit()):
            raise ParseError(f"{path}: key {key!r} is not an integer family id")
        number = int(key)
        if number in keys:
            raise ParseError(
                f"{path}: keys {keys[number]!r} and {key!r} both name family {number}"
            )
        keys[number] = key
        parsed[number] = _value(args[1], item, f"{path}[{key!r}]")
    return parsed


def parse_scenario(payload: Any) -> tuple[GameInstance, Optional[ScenarioSet]]:
    """Parse an already-decoded JSON document. Raises ParseError on any
    structural problem; performs no semantic validation. At each level, a
    repeated key is reported first (only a document decoded with
    _object_pairs, as load_scenario does, can show one), then unknown
    keys, then the fields in model order."""
    root = _mapping(payload, "$")
    _reject_unknown(root, (*_schema(GameInstance), *_ROOT_EXTRAS), "$")
    version = _string(_require(root, "schema_version", "$"), "schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(f"schema_version: expected {SCHEMA_VERSION!r}, got {version!r}")
    instance = _object(GameInstance, root, "$")
    scenarios = None
    if "scenario_budgets" in root:
        budgets = _value(tuple[float, ...], root["scenario_budgets"], "scenario_budgets")
        try:
            scenarios = ScenarioSet(budgets=budgets)
        except ValueError as exc:
            raise ValidationError(f"scenario_budgets: {exc}") from None
    return instance, scenarios


def _validated(
    instance: GameInstance, scenarios: Optional[ScenarioSet]
) -> tuple[GameInstance, Optional[ScenarioSet]]:
    report = validate_instance(instance)
    if not report.ok:
        raise ValidationError("; ".join(report.violations))
    return instance, scenarios


def load_scenario(path) -> tuple[GameInstance, Optional[ScenarioSet]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh, object_pairs_hook=_object_pairs)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    return _validated(*parse_scenario(payload))


def bundled_scenario_path() -> Path:
    return Path(str(resources.files("cryptomix").joinpath("data", _BUNDLED_NAME)))


def load_bundled_scenario() -> tuple[GameInstance, Optional[ScenarioSet]]:
    text = resources.files("cryptomix").joinpath("data", _BUNDLED_NAME).read_text("utf-8")
    return _validated(*parse_scenario(json.loads(text, object_pairs_hook=_object_pairs)))


def to_payload(data: Any) -> Any:
    """JSON-ready form of model data: a dataclass becomes an object in field
    order, a tuple a list, and a mapping an object with string keys in
    sorted key order."""
    if is_dataclass(data):
        return {f.name: to_payload(getattr(data, f.name)) for f in fields(data)}
    if isinstance(data, tuple):
        return [to_payload(item) for item in data]
    if isinstance(data, Mapping):
        return {str(key): to_payload(item) for key, item in sorted(data.items())}
    return data


def scenario_payload(instance: GameInstance, scenarios: Optional[ScenarioSet] = None) -> dict:
    """Schema-shaped dict for an instance, suitable for json.dump."""
    payload = {"schema_version": SCHEMA_VERSION, **to_payload(instance)}
    if scenarios is not None:
        payload["scenario_budgets"] = to_payload(scenarios.budgets)
    return payload


def save_scenario(instance: GameInstance, path, scenarios: Optional[ScenarioSet] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_payload(instance, scenarios), fh, indent=2)
        fh.write("\n")

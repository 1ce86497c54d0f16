"""The codec and type check of the config dataclasses. A config document is a
JSON object of a config's fields: a nested config is an object, a tuple an array."""

from __future__ import annotations

from dataclasses import MISSING, asdict, fields
from functools import cache
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigurationError


# get_type_hints evaluates every annotation, 0.1 ms for ExperimentConfig
_hints = cache(get_type_hints)


def _conforms(value, hint) -> bool:
    """Whether `value` has the declared type `hint`. A bool is not an int,
    and an int is accepted where a float is declared."""
    if get_origin(hint) is tuple:
        items = get_args(hint)
        if items[1:] == (...,) and isinstance(value, tuple):
            items = items[:1] * len(value)
        return (isinstance(value, tuple) and len(value) == len(items)
                and all(map(_conforms, value, items)))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


class Config:
    """Base of the config dataclasses: each field is checked against its
    declared type when a config is built. `KEYS` maps a field to its
    document key where the two differ."""

    KEYS: dict[str, str] = {}

    def __post_init__(self):
        hints = _hints(type(self))
        for f in fields(self):
            if not _conforms(value := getattr(self, f.name), hints[f.name]):
                raise ConfigurationError(
                    f"{type(self).__name__}.{f.name} must be {f.type}, got {value!r}")

    def to_dict(self) -> dict:
        return {self.KEYS.get(name, name): value for name, value in asdict(self).items()}

    @classmethod
    def from_dict(cls, doc: dict):
        """A field with a default may be left out of `doc`."""
        if not isinstance(doc, dict):
            raise ConfigurationError(f"{cls.__name__} document must be an object, not {doc!r:.40}")
        by_key = {cls.KEYS.get(f.name, f.name): f for f in fields(cls)}
        problems = [f"unknown key {key!r}" for key in doc if key not in by_key] + [
            f"missing key {key!r}" for key, f in by_key.items()
            if key not in doc and f.default is MISSING and f.default_factory is MISSING]
        if problems:
            raise ConfigurationError(f"{cls.__name__} document: {', '.join(problems)}")
        hints = _hints(cls)
        args = {}
        for key, value in doc.items():
            hint = hints[name := by_key[key].name]
            if isinstance(hint, type) and issubclass(hint, Config):
                value = hint.from_dict(value)
            args[name] = tuple(value) if isinstance(value, list) else value
        return cls(**args)

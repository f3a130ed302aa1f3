"""Plain key=value config files shared by the CLI and the library.

One flat namespace; each consumer dataclass picks the keys matching its field
names (optionally behind a prefix, e.g. ``corpus_seq_len`` -> CorpusSpec.seq_len),
except fields marked ``metadata={"file_key": False}`` (``file_keys``).
Lines starting with '#' and blank lines are ignored.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from pathlib import Path


class ConfigError(ValueError):
    pass


def check_positive(config, *names: str) -> None:
    """For a dataclass's ``__post_init__``: each named count must be >= 1."""
    for name in names:
        if getattr(config, name) < 1:
            raise ValueError(f"{name} must be >= 1, got {getattr(config, name)}")


def parse_config(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def load_config(path: str | Path) -> dict[str, str]:
    return parse_config(Path(path).read_text())


def _coerce_value(raw: str, hint) -> object:
    origin = typing.get_origin(hint)
    if origin is typing.Union or origin is types.UnionType:
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if int in args and str in args:
            try:
                return int(raw)
            except ValueError:
                return raw
        hint = args[0]
        origin = typing.get_origin(hint)
    if origin is tuple:
        item = typing.get_args(hint)[0]
        return tuple(_coerce_value(part.strip(), item) for part in raw.split(",") if part.strip())
    if hint is int:
        return int(raw)
    if hint is float:
        return float(raw)
    if hint is str:
        return raw
    raise ConfigError(f"unsupported config field type {hint!r}")


def file_keys(cls, prefix: str = "") -> dict[str, str]:
    """The config file keys of dataclass ``cls`` (or an instance), each mapped
    to its field name: every field but those marked
    ``metadata={"file_key": False}``."""
    return {
        prefix + f.name: f.name
        for f in dataclasses.fields(cls)
        if f.metadata.get("file_key", True)
    }


def coerce_dataclass(cls, mapping: dict[str, str], prefix: str = "", **overrides):
    """Build ``cls`` from matching config keys; overrides win over the file.
    A value that does not parse, or that the class rejects, raises
    ``ConfigError`` naming the class."""
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, name in file_keys(cls, prefix).items():
        if key in mapping:
            try:
                kwargs[name] = _coerce_value(mapping[key], hints[name])
            except ValueError as err:
                raise ConfigError(f"{cls.__name__}: {key}={mapping[key]!r}: {err}") from err
    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{cls.__name__}: {err}") from err


def dump_config(sections: list[tuple[str, object]], path: str | Path) -> None:
    """Write resolved dataclass configs back out as (prefix, dataclass) pairs."""
    lines = []
    seen = set()
    for prefix, cfg in sections:
        for key, name in file_keys(cfg, prefix).items():
            if key in seen:
                continue
            seen.add(key)
            val = getattr(cfg, name)
            if isinstance(val, tuple):
                val = ",".join(str(v) for v in val)
            lines.append(f"{key}={val}")
    Path(path).write_text("\n".join(lines) + "\n")

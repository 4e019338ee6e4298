"""Flat key-value experiment config files with section prefixes.

Grammar: one `key = value` pair per line, `#` starts a comment, blank
lines ignored. The keys are the fields of `ExperimentConfig`, in field
order; the fields of its `agent` and `reward` sections take a dotted
prefix (`agent.gamma = 0.99`). Each value is parsed by its field's
annotation. Unknown keys are rejected; missing keys take the dataclass
defaults.
"""

from __future__ import annotations

import dataclasses
import math

from .orchestrator import ExperimentConfig


class ConfigError(Exception):
    pass


# File spellings of fields whose name cannot be used (`lambda` is a keyword).
_SPELLING = {"lam": "lambda"}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


# Annotation text -> parser; `X | None` also accepts `none` (see `_parser`).
_PARSERS = {
    "int": int,
    "float": _finite,
    "str": str,
    "list[int]": lambda text: [int(v) for v in text.split(",") if v.strip()],
}


def _parser(annotation: str):
    base = annotation.removesuffix(" | None")
    parse = _PARSERS[base]
    if base == annotation:
        return parse
    return lambda text: None if text.lower() == "none" else parse(text)


def _keys(cfg, prefix: str = ""):
    """(key, owner, field) for every config key, recursing into sections."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            yield from _keys(value, f"{prefix}{f.name}.")
        else:
            yield prefix + _SPELLING.get(f.name, f.name), cfg, f


def parse_config(path: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    schema = {key: (owner, f) for key, owner, f in _keys(cfg)}
    with open(path) as fh:
        lines = fh.readlines()
    for i, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {i}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in schema:
            raise ConfigError(f"line {i}: unknown key {key!r}")
        owner, f = schema[key]
        try:
            setattr(owner, f.name, _parser(f.type)(value))
        except ValueError:
            raise ConfigError(f"line {i}: invalid value {value!r} for key {key!r}") from None
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return str(value)


def emit_config(cfg: ExperimentConfig) -> str:
    """Serialize a fully resolved config; parse(emit(cfg)) == cfg."""
    return "".join(f"{key} = {_fmt(getattr(owner, f.name))}\n" for key, owner, f in _keys(cfg))

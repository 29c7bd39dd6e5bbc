"""Line-oriented configuration files for the command-line harness.

Files use bracketed section headers and key = value pairs::

    [problem]
    n = 480
    penalty = entropy

    [sweep]
    delta_max = 1e-1
    delta_min = 1e-4
    delta_count = 12

Each section is a field of ``ExperimentConfig`` and its keys are the fields
of that field's dataclass, parsed by their annotations. ``[sweep]`` also
takes the geometric delta grid shorthand and the ``NoiseModel`` fields, with
``kind`` spelled ``noise``. Unknown sections or keys are errors. Every key
has a default; docs/config.md documents them.
"""

from __future__ import annotations

import configparser
from dataclasses import is_dataclass

from .errors import ConfigError, field_types
from .harness import ExperimentConfig, NoiseModel, SweepConfig, geometric_grid

__all__ = ["load_config", "default_config"]


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _parse_optional_float(text: str) -> float | None:
    return None if text.strip().lower() in ("", "none", "auto") else float(text)


# field annotation -> parser of the raw value
_PARSERS = {
    int: int,
    float: float,
    str: str,
    bool: _parse_bool,
    float | None: _parse_optional_float,
    tuple[float, ...]: _parse_float_list,
    tuple[float, ...] | None: _parse_float_list,
}

_GRID_KEYS = {"delta_max": float, "delta_min": float, "delta_count": int}


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def _keys(cls) -> dict:
    """Key -> parser for each field of ``cls``; nested dataclasses are left out."""
    return {name: _PARSERS[hint] for name, hint in field_types(cls).items() if not is_dataclass(hint)}


def _section_values(parser: configparser.ConfigParser, section: str, keys: dict) -> dict:
    if not parser.has_section(section):
        return {}
    values = {}
    for key, raw in parser.items(section):
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        try:
            values[key] = keys[key](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
    return values


def _build_sweep(parser: configparser.ConfigParser) -> SweepConfig:
    noise_keys = {"noise" if k == "kind" else k: p for k, p in _keys(NoiseModel).items()}
    values = _section_values(parser, "sweep", {**_keys(SweepConfig), **_GRID_KEYS, **noise_keys})
    grid = {k: values.pop(k) for k in _GRID_KEYS if k in values}
    if grid and "deltas" not in values:
        if len(grid) < len(_GRID_KEYS):
            raise ConfigError("delta_max, delta_min and delta_count must be given together")
        values["deltas"] = geometric_grid(grid["delta_max"], grid["delta_min"], grid["delta_count"])
    noise = {"kind" if k == "noise" else k: values.pop(k) for k in noise_keys if k in values}
    if noise:
        values["noise"] = NoiseModel(**noise)
    return SweepConfig(**values)


def load_config(path: str) -> ExperimentConfig:
    """Parse a config file, falling back to defaults for missing keys."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:  # its message names the file and the line
        raise ConfigError(" ".join(str(exc).split())) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not UTF-8 text: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    defaults = parser.defaults()  # configparser copies these keys into every section
    if defaults:
        keys = ", ".join(map(repr, defaults))
        raise ConfigError(f"config file {path!r}: [DEFAULT] is not supported; it holds {keys}")
    sections = field_types(ExperimentConfig)
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]")
    config = ExperimentConfig(**{
        name: _build_sweep(parser) if cls is SweepConfig
        else cls(**_section_values(parser, name, _keys(cls)))
        for name, cls in sections.items()
    })
    # a file names its problem's penalty; a library caller may pair a spectral
    # solver with a quadratic Problem of its own, so ExperimentConfig cannot check this
    penalty = config.problem.penalty
    if config.solver.method == "spectral" and penalty != "quadratic":
        raise ConfigError(
            f"[solver] method = spectral needs [problem] penalty = quadratic, got penalty = {penalty!r}")
    return config

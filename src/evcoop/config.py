"""Run configuration: schema-checked JSON with every default resolved.

An empty document is a complete configuration: it trains on the bundled
two-station sample scenario.  Every default lives in one place, the field
default of its dataclass (``ScenarioConfig`` and ``RunConfig`` here,
``Multipliers``, ``DemandModel``, ``EssParams``, ``ActionGrid``,
``ObsScales``, ``TrainConfig``), and the JSON schema is the only
hand-written contract.  A load checks the document as given, then builds
the config from it: a field the document omits takes its field default,
and a section it omits is built from ``{}``.  The schema is checked once
against the defaults when it is first read.  Every JSON object's keys are
its dataclass's field names, and an error a dataclass raises names the
object's path.  ``resolved_dict`` echoes the fully-resolved form; loading
that echo reproduces the identical RunConfig.

``schema_error`` checks a document against ``config_schema.json`` itself,
with the Draft-7 meaning of exactly the keywords that schema uses, and
needs only the standard library.  It also rejects NaN and infinities,
which ``json.loads`` accepts, and it raises on any other keyword, so a
schema edit is never skipped silently.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from importlib import resources
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .core import ActionGrid, EssParams, Multipliers
from .data import (
    DemandModel,
    PriceSeries,
    PvSeries,
    ScenarioDataError,
    load_price_csv,
    load_pv_csv,
    sample_data_path,
    synth_price_series,
    synth_pv_series,
)
from .marl.encoding import ObsScales
from .marl.trainer import TrainConfig


class ConfigError(ValueError):
    """Invalid configuration document; message names the offending field."""


# (price, PV) file names of the bundled sample, read as csv mode reads a user's files
SAMPLE_CSVS = ("two_station_48h_price.csv", "two_station_48h_pv.csv")


@dataclass(frozen=True)
class ScenarioConfig:
    mode: str = "sample"
    price_csv: str | None = None
    pv_csv: str | None = None
    station_count: int = 2
    horizon: int = 48
    price_base: float = 0.10
    price_swing: float = 0.06
    price_noise_sigma: float = 0.004
    pv_peak_kwh: float = 40.0
    series_seed: int = 2024
    multipliers: Multipliers = field(default_factory=Multipliers)
    demand: DemandModel = field(default_factory=DemandModel)
    initial_soc: float = 0.5


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    ess: EssParams = field(default_factory=EssParams)
    grid: ActionGrid = field(default_factory=ActionGrid)
    scales: ObsScales = field(default_factory=ObsScales)
    train: TrainConfig = field(default_factory=TrainConfig)
    algorithms: tuple[str, ...] = ("double_qmix",)
    seeds: tuple[int, ...] = (0,)
    out_dir: str = "runs"


def _to_json(value):
    """Tuples become lists, recursively: a Draft-7 ``array`` rejects tuples."""
    if isinstance(value, dict):
        return {k: _to_json(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def _coerce(tp, value):
    """``value`` as the field type ``tp``: numbers cast, arrays become tuples."""
    if value is None:
        return None
    args = [a for a in get_args(tp) if a is not type(None)]
    if get_origin(tp) is tuple:
        return tuple(_coerce(args[0], v) for v in value)
    if args:  # ``X | None``
        return _coerce(args[0], value)
    return tp(value) if tp in (bool, int, float, str) else value


_field_types = functools.cache(get_type_hints)


def _build(cls, values: dict, path: tuple[str, ...] = ()):
    """Construct the dataclass ``cls`` from ``values``, nested sections recursively.

    A field ``values`` omits takes its field default; a section it omits is
    built from ``{}``.  A ``ValueError`` the dataclass raises becomes a
    ``ConfigError`` naming ``path``.
    """
    hints = _field_types(cls)
    kwargs = {}
    for f in fields(cls):
        tp = hints[f.name]
        if is_dataclass(tp):
            kwargs[f.name] = _build(tp, values.get(f.name, {}), (*path, f.name))
        elif f.name in values:
            kwargs[f.name] = _coerce(tp, values[f.name])
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{'.'.join(path) or '(root)'}: {exc}") from exc


@functools.cache
def _schema() -> dict:
    """config_schema.json, once checked against the resolved defaults.

    A load checks only the fields its document sets, so this check is what
    shows the defaults pass and what raises on an unsupported keyword of a
    field no document sets.
    """
    text = resources.files("evcoop").joinpath("config_schema.json").read_text()
    schema = json.loads(text)
    error = schema_error(schema, resolved_dict(RunConfig()))
    if error:
        path, message = error
        raise ValueError(f"the defaults fail config_schema.json at {'.'.join(map(str, path))}: "
                         f"{message}")
    return schema


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Draft 7's types: a bool is no number, and an integral float is an integer.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}

# keyword: (fails, message) for the numeric bounds, which pass any non-number
_BOUNDS = {
    "minimum": (lambda v, b: v < b, "is less than the minimum of"),
    "maximum": (lambda v, b: v > b, "is greater than the maximum of"),
    "exclusiveMinimum": (lambda v, b: v <= b, "is less than or equal to the minimum of"),
    "exclusiveMaximum": (lambda v, b: v >= b, "is greater than or equal to the maximum of"),
}


def schema_error(schema: dict, value, path: tuple = ()) -> tuple[tuple, str] | None:
    """The first error of ``value`` against ``schema`` in field-path order, or None.

    The error is ``(path, message)``; a path orders as jsonschema's
    ``absolute_path`` does, so this is the error a Draft-7 validator sorts
    first.  A float that is not finite fails ``number`` and ``integer``.
    Raises ``ValueError`` on a keyword outside the ones config_schema.json uses.
    """
    for key, arg in schema.items():
        message = None
        if key == "type":
            names = [arg] if isinstance(arg, str) else arg
            if not any(_TYPES[name](value) for name in names):
                message = f"{value!r} is not of type {', '.join(map(repr, names))}"
            elif isinstance(value, float) and not math.isfinite(value):
                message = f"{value!r} is not a finite number"
        elif key == "enum":
            if value not in arg:
                message = f"{value!r} is not one of {arg!r}"
        elif key in _BOUNDS:
            fails, text = _BOUNDS[key]
            if _is_number(value) and fails(value, arg):
                message = f"{value!r} {text} {arg!r}"
        elif key == "minItems":
            if isinstance(value, list) and len(value) < arg:
                message = f"{value!r} is too short"
        elif key == "maxItems":
            if isinstance(value, list) and len(value) > arg:
                message = f"{value!r} is too long"
        elif key == "additionalProperties" and arg is False:
            extras = sorted(value.keys() - schema.get("properties", {})) \
                if isinstance(value, dict) else []
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                message = (f"Additional properties are not allowed "
                           f"({', '.join(map(repr, extras))} {verb} unexpected)")
        elif key not in ("$schema", "title", "properties", "items"):  # last two: see below
            raise ValueError(f"unsupported schema keyword {key!r}: {arg!r}")
        if message:
            return path, message
    if isinstance(value, dict) and "properties" in schema:
        children = [(k, schema["properties"][k], value[k])
                    for k in sorted(value) if k in schema["properties"]]
    elif isinstance(value, list) and "items" in schema:
        children = [(i, schema["items"], v) for i, v in enumerate(value)]
    else:
        children = []
    for step, sub, item in children:
        error = schema_error(sub, item, (*path, step))
        if error:
            return error
    return None


def load_config_dict(document: dict) -> RunConfig:
    """Validate a parsed JSON document and resolve every default."""
    if not isinstance(document, dict):
        raise ConfigError(f"configuration must be a JSON object, got {type(document).__name__}")
    error = schema_error(_schema(), document)
    if error:
        path, message = error
        raise ConfigError(f"{'.'.join(map(str, path)) or '(root)'}: {message}")
    config = _build(RunConfig, document)
    sc = config.scenario
    if sc.mode == "csv":
        for key in ("price_csv", "pv_csv"):
            value = getattr(sc, key)
            if not value:
                raise ConfigError(f"scenario.{key}: required when scenario.mode is 'csv'")
            if not Path(value).exists():
                raise ConfigError(f"scenario.{key}: file not found: {value}")
    ess = config.ess
    if not (ess.soc_min <= sc.initial_soc <= ess.soc_max):
        raise ConfigError(
            f"scenario.initial_soc: {sc.initial_soc} outside the SOC window "
            f"[{ess.soc_min}, {ess.soc_max}]")
    return config


def load_config(path: str | Path) -> RunConfig:
    """Read, parse, and validate a JSON configuration file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return load_config_dict(document)


def resolved_dict(config: RunConfig) -> dict:
    """The full configuration as a plain dict; reloading it is the identity."""
    return _to_json(asdict(config))


def build_scenario(config: RunConfig) -> tuple[PriceSeries, PvSeries, DemandModel, int]:
    """Materialize the price/PV series and demand model a config describes."""
    sc = config.scenario
    mult = sc.multipliers
    try:
        if sc.mode == "synthetic":
            price = synth_price_series(
                sc.horizon, sc.series_seed, base=sc.price_base, swing=sc.price_swing,
                noise_sigma=sc.price_noise_sigma, multipliers=mult)
            pv = synth_pv_series(sc.horizon, sc.station_count, sc.series_seed + 1,
                                 peak_kwh=sc.pv_peak_kwh)
        else:
            if sc.mode == "csv":
                price_path, pv_path = sc.price_csv, sc.pv_csv
            else:
                price_path, pv_path = map(sample_data_path, SAMPLE_CSVS)
            price = load_price_csv(price_path, mult)
            pv = load_pv_csv(pv_path, sc.station_count)
    except ScenarioDataError as exc:
        raise ConfigError(str(exc)) from exc
    if len(price) != len(pv):
        raise ConfigError(
            f"price series has {len(price)} slots but PV series has {len(pv)}")
    if price.timestamps[0] != pv.timestamps[0]:
        raise ConfigError(f"price series starts at {price.timestamps[0].isoformat()} "
                          f"but PV series starts at {pv.timestamps[0].isoformat()}")
    return price, pv, sc.demand, sc.station_count

"""Run configuration: schema-validated JSON with every default resolved.

An empty document is a complete configuration: it trains on the bundled
two-station sample scenario.  Every default lives in one place, the field
default of its dataclass (``ScenarioConfig`` and ``RunConfig`` here,
``EssParams``, ``ActionGrid``, ``ObsScales``, ``TrainConfig``); ``DEFAULTS``
and ``resolved_dict`` are derived from them, and the JSON schema is the only
hand-written contract.  A section's JSON keys are its dataclass's field
names, except the scenario's nested ``multipliers`` and ``demand`` objects.
``resolved_dict`` echoes the fully-resolved form; loading that echo
reproduces the identical RunConfig.
"""

from __future__ import annotations

import copy
import functools
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from importlib import resources
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import jsonschema

from .core import EssParams
from .data import (
    DEFAULT_MULTIPLIERS,
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
from .marl.encoding import ActionGrid, ObsScales
from .marl.trainer import TrainConfig


class ConfigError(ValueError):
    """Invalid configuration document; message names the offending field."""


SAMPLE_SCENARIOS = {
    "two_station_48h": {
        "price": "two_station_48h_price.csv",
        "pv": "two_station_48h_pv.csv",
        "station_count": 2,
    },
}

# evening-shifted charging demand, station 1 runs lighter than station 0
_DEFAULT_PROFILE = (
    8.0, 6.0, 5.0, 5.0, 6.0, 8.0, 12.0, 18.0, 22.0, 20.0, 16.0, 14.0,
    13.0, 13.0, 14.0, 16.0, 20.0, 26.0, 30.0, 28.0, 22.0, 16.0, 12.0, 9.0,
)


@dataclass(frozen=True)
class ScenarioConfig:
    mode: str = "sample"
    sample_name: str = "two_station_48h"
    price_csv: str | None = None
    pv_csv: str | None = None
    station_count: int = 2
    horizon: int = 48
    price_base: float = 0.10
    price_swing: float = 0.06
    price_noise_sigma: float = 0.004
    pv_peak_kwh: float = 40.0
    series_seed: int = 2024
    multipliers: tuple[float, float, float] = DEFAULT_MULTIPLIERS  # (ev, trade, buyback)
    demand_profiles: tuple[tuple[float, ...], ...] = (
        _DEFAULT_PROFILE, tuple(round(0.75 * v, 4) for v in _DEFAULT_PROFILE))
    demand_noise_sigma: float = 3.0
    urgent_fraction: float = 0.2
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


# The one hand-written mapping: the scenario's nested JSON objects and the
# flat ScenarioConfig fields they hold.  Every other JSON key is a field name.
_MULTIPLIER_KEYS = ("ev", "trade", "buyback")
_DEMAND_FIELDS = {"profiles": "demand_profiles", "noise_sigma": "demand_noise_sigma",
                  "urgent_fraction": "urgent_fraction"}


def _scenario_to_json(flat: dict) -> dict:
    out = dict(flat)
    out["multipliers"] = dict(zip(_MULTIPLIER_KEYS, out["multipliers"]))
    out["demand"] = {key: out.pop(name) for key, name in _DEMAND_FIELDS.items()}
    return out


def _scenario_from_json(doc: dict) -> dict:
    flat = dict(doc)
    flat["multipliers"] = tuple(flat["multipliers"][key] for key in _MULTIPLIER_KEYS)
    demand = flat.pop("demand")
    flat.update({name: demand[key] for key, name in _DEMAND_FIELDS.items()})
    return flat


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


def _build(cls, values: dict):
    """Construct the dataclass ``cls`` from ``values``, one coerced entry per field."""
    hints = _field_types(cls)
    return cls(**{f.name: _coerce(hints[f.name], values[f.name]) for f in fields(cls)})


def _defaults(cls) -> dict:
    """The JSON form of the field defaults of ``cls``, sections expanded.

    Field defaults, not ``asdict`` of a default instance: EssParams turns its
    None caps into 10x capacity, and a capacity override must still move them.
    """
    hints = _field_types(cls)
    return {f.name: _defaults(hints[f.name]) if is_dataclass(hints[f.name])
            else _to_json(f.default) for f in fields(cls)}


# Section name -> dataclass, in RunConfig order.
_SECTIONS = {name: tp for name, tp in _field_types(RunConfig).items() if is_dataclass(tp)}
DEFAULTS: dict = _defaults(RunConfig)
DEFAULTS["scenario"] = _scenario_to_json(DEFAULTS["scenario"])


def _schema() -> dict:
    text = resources.files("evcoop").joinpath("config_schema.json").read_text()
    return json.loads(text)


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config_dict(document: dict) -> RunConfig:
    """Validate a parsed JSON document and resolve every default."""
    if not isinstance(document, dict):
        raise ConfigError(f"configuration must be a JSON object, got {type(document).__name__}")
    validator = jsonschema.Draft7Validator(_schema())
    errors = sorted(validator.iter_errors(document), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = ".".join(str(p) for p in err.absolute_path) or "(root)"
        raise ConfigError(f"{path}: {err.message}")

    doc = _deep_merge(DEFAULTS, document)
    sc = doc["scenario"]
    mult = sc["multipliers"]
    if not (0.0 < mult["buyback"] < mult["trade"] < 1.0 < mult["ev"]):
        raise ConfigError(
            "scenario.multipliers: ordering must satisfy 0 < buyback < trade < 1 < ev, "
            f"got buyback={mult['buyback']}, trade={mult['trade']}, ev={mult['ev']}")

    if sc["mode"] == "csv":
        for key in ("price_csv", "pv_csv"):
            if not sc[key]:
                raise ConfigError(f"scenario.{key}: required when scenario.mode is 'csv'")
            if not Path(sc[key]).exists():
                raise ConfigError(f"scenario.{key}: file not found: {sc[key]}")
    if sc["mode"] == "sample" and sc["sample_name"] not in SAMPLE_SCENARIOS:
        known = ", ".join(sorted(SAMPLE_SCENARIOS))
        raise ConfigError(f"scenario.sample_name: unknown sample {sc['sample_name']!r} "
                          f"(available: {known})")

    doc["scenario"] = _scenario_from_json(sc)
    try:
        sections = {name: _build(cls, doc[name]) for name, cls in _SECTIONS.items()}
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    ess, initial_soc = sections["ess"], sections["scenario"].initial_soc
    if not (ess.soc_min <= initial_soc <= ess.soc_max):
        raise ConfigError(
            f"scenario.initial_soc: {initial_soc} outside the SOC window "
            f"[{ess.soc_min}, {ess.soc_max}]")
    return _build(RunConfig, {**doc, **sections})


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
    out = _to_json(asdict(config))
    out["scenario"] = _scenario_to_json(out["scenario"])
    return out


def build_scenario(config: RunConfig) -> tuple[PriceSeries, PvSeries, DemandModel, int]:
    """Materialize the price/PV series and demand model a config describes."""
    sc = config.scenario
    mult = sc.multipliers
    try:
        if sc.mode == "csv":
            price = load_price_csv(sc.price_csv, mult)
            pv = load_pv_csv(sc.pv_csv, sc.station_count)
            stations = sc.station_count
        elif sc.mode == "sample":
            entry = SAMPLE_SCENARIOS[sc.sample_name]
            stations = entry["station_count"]
            price = load_price_csv(sample_data_path(entry["price"]), mult)
            pv = load_pv_csv(sample_data_path(entry["pv"]), stations)
        else:
            stations = sc.station_count
            price = synth_price_series(
                sc.horizon, sc.series_seed, base=sc.price_base, swing=sc.price_swing,
                noise_sigma=sc.price_noise_sigma, multipliers=mult)
            pv = synth_pv_series(sc.horizon, stations, sc.series_seed + 1,
                                 peak_kwh=sc.pv_peak_kwh)
    except ScenarioDataError as exc:
        raise ConfigError(str(exc)) from exc
    if len(price) != len(pv):
        raise ConfigError(
            f"price series has {len(price)} slots but PV series has {len(pv)}")
    demand = DemandModel(
        profiles=sc.demand_profiles,
        noise_sigma=sc.demand_noise_sigma,
        urgent_fraction=sc.urgent_fraction,
    )
    return price, pv, demand, stations

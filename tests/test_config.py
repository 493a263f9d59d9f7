"""Configuration loading: schema, defaults, merging, scenario building."""

import json
from dataclasses import fields, is_dataclass
from importlib import resources
from typing import get_type_hints

import jsonschema
import pytest

from evcoop.config import (
    DEFAULTS,
    ConfigError,
    RunConfig,
    build_scenario,
    load_config,
    load_config_dict,
    resolved_dict,
)


def test_empty_document_resolves_defaults():
    cfg = load_config_dict({})
    assert cfg.train.gamma == pytest.approx(0.99)
    assert cfg.train.episodes == 300
    assert cfg.ess.capacity_max == pytest.approx(200.0)
    assert cfg.scenario.mode == "sample"
    assert cfg.algorithms == ("double_qmix",)
    assert cfg.seeds == (0,)


def test_schema_names_exactly_the_dataclass_fields():
    schema = json.loads(resources.files("evcoop").joinpath("config_schema.json").read_text())
    props = schema["properties"]
    assert set(props) == {f.name for f in fields(RunConfig)}
    for name, cls in get_type_hints(RunConfig).items():
        if not is_dataclass(cls):
            continue
        expected = {f.name for f in fields(cls)}
        if name == "scenario":
            # two nested JSON objects hold four flat fields
            demand = {"profiles": "demand_profiles", "noise_sigma": "demand_noise_sigma",
                      "urgent_fraction": "urgent_fraction"}
            nested = props["scenario"]["properties"]
            assert list(nested["multipliers"]["properties"]) == ["ev", "trade", "buyback"]
            assert set(nested["demand"]["properties"]) == set(demand)
            expected = expected - set(demand.values()) | {"demand"}
        assert set(props[name]["properties"]) == expected, name
        assert set(DEFAULTS[name]) == expected, name
    jsonschema.Draft7Validator(schema).validate(DEFAULTS)


def test_capacity_override_still_moves_the_default_caps():
    assert DEFAULTS["ess"]["export_cap"] is None
    cfg = load_config_dict({"ess": {"capacity_max": 150}})
    assert cfg.ess.capacity_max == 150.0
    assert (cfg.ess.export_cap, cfg.ess.import_cap) == (1500.0, 1500.0)


def test_values_take_their_field_types():
    cfg = load_config_dict({"train": {"episodes": 12.0, "lr_agent": 1},
                            "grid": {"ev_fractions": [0, 1]}, "seeds": [3.0]})
    assert type(cfg.train.episodes) is int and type(cfg.train.lr_agent) is float
    assert cfg.grid.ev_fractions == (0.0, 1.0)
    assert all(type(f) is float for f in cfg.grid.ev_fractions)
    assert cfg.seeds == (3,) and type(cfg.seeds[0]) is int


def test_resolved_dict_roundtrip_is_identity():
    cfg = load_config_dict({"train": {"episodes": 7}, "seeds": [3, 4]})
    again = load_config_dict(resolved_dict(cfg))
    assert resolved_dict(again) == resolved_dict(cfg)
    assert again.train.episodes == 7
    assert again.seeds == (3, 4)


def test_schema_error_names_the_field():
    with pytest.raises(ConfigError, match=r"train\.gamma"):
        load_config_dict({"train": {"gamma": 1.5}})
    with pytest.raises(ConfigError, match="Additional properties"):
        load_config_dict({"train": {"learning_rate": 0.1}})


def test_multiplier_ordering_rejected():
    with pytest.raises(ConfigError, match="multiplier"):
        load_config_dict({"scenario": {"multipliers": {"trade": 1.3}}})


def test_initial_soc_must_fit_the_battery_window():
    with pytest.raises(ConfigError, match="initial_soc"):
        load_config_dict({"scenario": {"initial_soc": 0.99}})


def test_csv_mode_requires_existing_files(tmp_path):
    with pytest.raises(ConfigError, match="price_csv"):
        load_config_dict({"scenario": {"mode": "csv", "price_csv": str(tmp_path / "no.csv"),
                                       "pv_csv": str(tmp_path / "no2.csv")}})


def test_unknown_sample_name_rejected():
    with pytest.raises(ConfigError, match="sample"):
        load_config_dict({"scenario": {"sample_name": "mystery"}})


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seeds": [9]}))
    cfg = load_config(path)
    assert cfg.seeds == (9,)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_build_scenario_sample_mode():
    cfg = load_config_dict({})
    price, pv, demand, stations = build_scenario(cfg)
    assert stations == 2
    assert len(price) == 48
    assert len(pv) == 48
    assert len(demand.profiles[0]) == 24


def test_build_scenario_synthetic_mode():
    cfg = load_config_dict({"scenario": {"mode": "synthetic", "station_count": 3,
                                         "horizon": 24}})
    price, pv, demand, stations = build_scenario(cfg)
    assert stations == 3
    assert len(price) == 24
    assert pv.station_count == 3
    # The same config builds the same series every time.
    price2, pv2, _, _ = build_scenario(cfg)
    assert price.utility == price2.utility
    assert pv.generation == pv2.generation

"""Configuration loading: schema, defaults, merging, scenario building."""

import json
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass
from importlib import resources
from pathlib import Path
from typing import get_type_hints

import jsonschema
import pytest

import evcoop

from evcoop.cli import build_parser
from evcoop.config import (
    DEFAULTS,
    ConfigError,
    RunConfig,
    build_scenario,
    load_config,
    load_config_dict,
    resolved_dict,
)
from evcoop.marl import ALGORITHMS


def test_empty_document_resolves_defaults():
    cfg = load_config_dict({})
    assert cfg.train.gamma == pytest.approx(0.99)
    assert cfg.train.episodes == 300
    assert cfg.ess.capacity_max == pytest.approx(200.0)
    assert cfg.scenario.mode == "sample"
    assert cfg.algorithms == ("double_qmix",)
    assert cfg.seeds == (0,)


def _assert_schema_matches(cls, schema: dict, defaults: dict, path: str) -> None:
    """Every dataclass section, nested ones too, has exactly its field names as JSON keys."""
    expected = {f.name for f in fields(cls)}
    assert set(schema["properties"]) == expected, path
    assert set(defaults) == expected, path
    for name, tp in get_type_hints(cls).items():
        if is_dataclass(tp):
            _assert_schema_matches(tp, schema["properties"][name], defaults[name],
                                   f"{path}.{name}")


def test_schema_names_exactly_the_dataclass_fields():
    schema = json.loads(resources.files("evcoop").joinpath("config_schema.json").read_text())
    _assert_schema_matches(RunConfig, schema, DEFAULTS, "(root)")
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


def test_algorithm_lists_are_one_tuple():
    schema = json.loads(resources.files("evcoop").joinpath("config_schema.json").read_text())
    train = build_parser()._subparsers._group_actions[0].choices["train"]
    choices = next(a.choices for a in train._actions if a.dest == "algorithm")
    assert tuple(schema["properties"]["algorithms"]["items"]["enum"]) == ALGORITHMS
    assert choices is ALGORITHMS


def test_schema_error_names_the_field():
    cases = [
        ({"train": {"gamma": 1.5}}, r"^train\.gamma: "),
        ({"train": {"learning_rate": 0.1}}, "Additional properties"),
        # errors the dataclasses raise themselves name their section
        ({"train": {"capacity": 4, "batch_episodes": 8}}, r"^train: capacity"),
        ({"ess": {"soc_min": 0.9, "soc_max": 0.5}}, r"^ess: need 0 < soc_min"),
        ({"scenario": {"multipliers": {"ev": 0.95}}}, r"^scenario\.multipliers: need"),
    ]
    for document, needle in cases:
        with pytest.raises(ConfigError, match=needle):
            load_config_dict(document)


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


def test_only_validation_imports_jsonschema():
    # In a fresh interpreter: this session has imported jsonschema already.
    src = str(Path(evcoop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys, evcoop.cli, evcoop.fuzz, evcoop.oracle\n"
            "print('jsonschema' in sys.modules)\n"
            "evcoop.config.load_config_dict({})\n"
            "print('jsonschema' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]

"""Configuration loading: schema, defaults, overrides, scenario building."""

import copy
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass
from importlib import resources
from pathlib import Path
from typing import get_type_hints

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evcoop

from evcoop import config
from evcoop.cli import build_parser, main
from evcoop.config import (
    ConfigError,
    RunConfig,
    build_scenario,
    load_config,
    load_config_dict,
    resolved_dict,
    schema_error,
)
from evcoop.data import DemandModel, sample_data_path
from evcoop.marl import ALGORITHMS

SCHEMA = json.loads(resources.files("evcoop").joinpath("config_schema.json").read_text())


def test_empty_document_resolves_defaults():
    cfg = load_config_dict({})
    assert cfg.train.gamma == pytest.approx(0.99)
    assert cfg.train.episodes == 300
    assert cfg.ess.capacity_max == pytest.approx(200.0)
    assert cfg.scenario.mode == "sample"
    assert cfg.algorithms == ("double_qmix",)
    assert cfg.seeds == (0,)
    assert cfg == RunConfig()
    # A section the document names keeps the field defaults it leaves out.
    demand = load_config_dict({"scenario": {"demand": {"noise_sigma": 1.0}}}).scenario.demand
    assert demand.noise_sigma == 1.0
    assert (demand.profiles, demand.urgent_fraction) == \
        (DemandModel().profiles, DemandModel().urgent_fraction)


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
    defaults = resolved_dict(RunConfig())
    _assert_schema_matches(RunConfig, SCHEMA, defaults, "(root)")
    jsonschema.Draft7Validator(SCHEMA).validate(defaults)
    assert schema_error(SCHEMA, defaults) is None


def test_capacity_override_still_moves_the_default_caps():
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
    train = build_parser()._subparsers._group_actions[0].choices["train"]
    choices = next(a.choices for a in train._actions if a.dest == "algorithm")
    assert tuple(SCHEMA["properties"]["algorithms"]["items"]["enum"]) == ALGORITHMS
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


def test_a_dataclass_error_comes_before_the_csv_mode_checks():
    with pytest.raises(ConfigError, match=r"^ess: need 0 < soc_min"):
        load_config_dict({"scenario": {"mode": "csv"}, "ess": {"soc_min": 0.9, "soc_max": 0.5}})


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


@pytest.mark.parametrize("stations, needle", [
    pytest.param(6, r"missing stations \[2, 3, 4, 5\]", id="six"),
    pytest.param(1, r"station_id 1 outside \[0, 1\)", id="one"),
])
def test_sample_mode_reads_the_configured_station_count(stations, needle):
    # The bundled sample has two stations; any other count is the caller's
    # error, not a silent two-station run under a config that says otherwise.
    cfg = load_config_dict({"scenario": {"station_count": stations}})
    assert cfg.scenario.mode == "sample"
    with pytest.raises(ConfigError, match=needle):
        build_scenario(cfg)


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


def test_build_scenario_rejects_series_that_cover_different_hours(tmp_path):
    # The sample PV file shifted by one day: as many slots as the price file,
    # but the next day's hours.
    price_csv = sample_data_path("two_station_48h_price.csv")
    lines = sample_data_path("two_station_48h_pv.csv").read_text().splitlines()
    shifted = [lines[0]] + [line.replace("2024-06-02T", "2024-06-03T")
                            .replace("2024-06-01T", "2024-06-02T") for line in lines[1:]]
    pv_csv = tmp_path / "pv.csv"
    pv_csv.write_text("\n".join(shifted) + "\n")
    cfg = load_config_dict({"scenario": {"mode": "csv", "price_csv": str(price_csv),
                                         "pv_csv": str(pv_csv), "station_count": 2}})
    with pytest.raises(ConfigError, match="2024-06-01T00:00:00 but PV series starts at "
                                          "2024-06-02T00:00:00"):
        build_scenario(cfg)
    pv_csv.write_text("\n".join(lines) + "\n")
    assert len(build_scenario(cfg)[1]) == 48


def _valid(schema: dict):
    """Documents ``schema`` accepts, with finite numbers and every key present."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kinds = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
    return st.one_of([_valid_of(kind, schema) for kind in kinds])


def _valid_of(kind: str, schema: dict):
    if kind == "object":
        return st.fixed_dictionaries({k: _valid(sub) for k, sub in schema["properties"].items()})
    if kind == "array":
        low = schema.get("minItems", 0)
        return st.lists(_valid(schema["items"]), min_size=low,
                        max_size=schema.get("maxItems", low + 2))
    if kind == "string":
        return st.text(max_size=4)
    if kind == "null":
        return st.none()
    low = schema.get("minimum", schema.get("exclusiveMinimum"))
    high = schema.get("maximum", schema.get("exclusiveMaximum"))
    int_low = None if low is None else \
        math.floor(low) + 1 if "exclusiveMinimum" in schema else math.ceil(low)
    int_high = None if high is None else \
        math.ceil(high) - 1 if "exclusiveMaximum" in schema else math.floor(high)
    ints = st.integers(int_low, int_high)
    if kind == "integer":
        return ints
    floats = st.floats(low, high, exclude_min="exclusiveMinimum" in schema,
                       exclude_max="exclusiveMaximum" in schema,
                       allow_nan=False, allow_infinity=False)
    return floats if int_low is not None and int_high is not None and int_low > int_high \
        else floats | ints


def _nodes(schema: dict, value, path: tuple = ()):
    """(path, subschema, value) of every node of ``value`` that ``schema`` describes."""
    yield path, schema, value
    if isinstance(value, dict) and "properties" in schema:
        for key in sorted(value.keys() & schema["properties"].keys()):
            yield from _nodes(schema["properties"][key], value[key], (*path, key))
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            yield from _nodes(schema["items"], item, (*path, i))


def _mutations(schema: dict, value, path: tuple):
    """(kind, replacement) of each mutation that applies at one node; some are valid.

    The root stays an object, since ``load_config_dict`` checks that itself.
    """
    types = schema.get("type", [])
    if path:
        yield from ((f"wrong type for {types or 'enum'}", v)
                    for v in ("text", None, [], {}, 2.5))
    if "number" in types or "integer" in types:
        yield from (("bool for a number", v) for v in (True, False))
    if "integer" in types:
        yield from (("integral float", v) for v in (0.0, 1.0, 3.0))
    if "enum" in schema:
        yield "enum miss", "not-in-enum"
    for key in ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"):
        if key in schema:
            bound = schema[key]
            yield from ((f"at or near {key}", near) for near in (
                bound, float(bound), bound - 1, bound + 1, bound - 0.5, bound + 0.5,
                math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)))
    if isinstance(value, dict):
        yield "unknown key", {**value, "unknown_key": 1}
        yield from (("missing key", {k: v for k, v in value.items() if k != key})
                    for key in value)
    if isinstance(value, list) and "minItems" in schema:
        yield "too short", value[:schema["minItems"] - 1]
    if isinstance(value, list) and "maxItems" in schema:
        yield "too long", value + value[:1] * (schema["maxItems"] + 1 - len(value))


def _replaced(document, path: tuple, value):
    if not path:
        return value
    out = copy.deepcopy(document)
    node = out
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return out


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_schema_error_agrees_with_draft7(data):
    document = data.draw(_valid(SCHEMA), label="valid document")
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        # A kind of mutation, then a schema node it applies to, then one place of that
        # node, so rare kinds and nodes are not crowded out by 24-value profiles.
        options: dict = {}
        for path, schema, value in _nodes(SCHEMA, document):
            for kind, replacement in _mutations(schema, value, path):
                options.setdefault(kind, {}).setdefault(id(schema), []).append(
                    (path, replacement))
        kind = data.draw(st.sampled_from(sorted(options)), label="kind")
        places = data.draw(st.sampled_from(list(options[kind].values())))
        path, replacement = data.draw(st.sampled_from(places))
        document = _replaced(document, path, replacement)
    errors = sorted(jsonschema.Draft7Validator(SCHEMA).iter_errors(document),
                    key=lambda e: list(e.absolute_path))
    mine = schema_error(SCHEMA, document)
    assert (mine is None) == (not errors), (mine, [e.message for e in errors])
    if errors:
        assert mine[0] == tuple(errors[0].absolute_path), (mine, errors[0].message)


def test_schema_error_raises_on_a_keyword_it_does_not_support(monkeypatch, tmp_path):
    for schema, value in (({"type": "string", "pattern": "^a"}, "abc"),
                          ({"type": "object", "additionalProperties": {"type": "string"}},
                           {"key": "value"}),
                          ({"properties": {"a": {"type": "integer", "multipleOf": 2}}},
                           {"a": 4})):
        with pytest.raises(ValueError, match="unsupported schema keyword"):
            schema_error(schema, value)
    # A keyword on a field the document leaves out is still met: the schema is
    # checked against the defaults when it is first read.
    edited = copy.deepcopy(SCHEMA)
    edited["properties"]["train"]["properties"]["hidden_dim"]["multipleOf"] = 2
    (tmp_path / "config_schema.json").write_text(json.dumps(edited))
    monkeypatch.setattr(config.resources, "files", lambda package: tmp_path)
    config._schema.cache_clear()
    try:
        with pytest.raises(ValueError, match="'multipleOf'"):
            load_config_dict({})
    finally:
        config._schema.cache_clear()


@pytest.mark.parametrize("document, field", [
    ({"train": {"lr_agent": math.nan}}, "train.lr_agent"),
    ({"ess": {"capacity_max": math.inf}}, "ess.capacity_max"),
    ({"scales": {"price": math.inf}}, "scales.price"),
    ({"scenario": {"demand": {"noise_sigma": math.nan}}}, "scenario.demand.noise_sigma"),
])
def test_non_finite_number_exits_one_naming_the_field(tmp_path, capsys, document, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(document))  # NaN and Infinity, which json.loads reads back
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not (tmp_path / "out").exists()


def test_train_runs_on_the_standard_library_and_numpy_alone(tmp_path):
    # In a fresh interpreter where jsonschema cannot be imported.  The modules
    # site's .pth hooks load at start-up belong to the environment, not to evcoop;
    # a module without a spec was imported from nowhere (numpy.random's compiled
    # extensions register ``cython_runtime`` and ``_cython_<version>`` in memory).
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"episodes": 3, "batch_episodes": 2, "capacity": 4,
                                         "hidden_dim": 2, "embed_dim": 2, "hyper_hidden": 2},
                               "out_dir": str(tmp_path / "out")}))
    src = str(Path(evcoop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys\n"
            "start = set(sys.modules)\n"
            "sys.modules['jsonschema'] = None\n"
            "import numpy as np\n"
            "from evcoop.cli import main\n"
            "from evcoop.config import build_scenario, load_config_dict\n"
            "from evcoop.marl import build_learner\n"
            "cfg = load_config_dict({})\n"
            "stations = build_scenario(cfg)[3]\n"
            "build_learner('double_qmix', stations, cfg.ess, cfg.grid, cfg.scales, cfg.train,\n"
            "              np.random.default_rng(0))\n"
            f"assert main(['train', '--config', {str(cfg)!r}]) == 0\n"
            "allowed = {*sys.stdlib_module_names, 'numpy', 'evcoop'}\n"
            "print(sorted(name for name, module in sys.modules.items()\n"
            "             if getattr(module, '__spec__', None) is not None\n"
            "             and name not in start and name.partition('.')[0] not in allowed))\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"

"""Scenario ingestion: CSV loaders, synthesis, episode assembly."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from evcoop.config import SAMPLE_CSVS, ScenarioConfig
from evcoop.core import (ConstraintViolation, EssParams, Multipliers, PriceOrderingError,
                         StationState)
from evcoop.data import (
    DemandModel,
    Episode,
    PriceSeries,
    ScenarioDataError,
    build_episode,
    load_price_csv,
    load_pv_csv,
    sample_data_path,
    synth_demand,
    synth_price_series,
    synth_pv_series,
)

PRICE_OK = """timestamp,price_usd_per_kwh
2024-06-01T00:00:00,0.10
2024-06-01T01:00:00,0.12
2024-06-01T02:00:00,0.08
"""

PV_OK = """timestamp,station_id,kwh
2024-06-01T00:00:00,0,0.0
2024-06-01T00:00:00,1,1.5
2024-06-01T01:00:00,0,2.0
2024-06-01T01:00:00,1,3.5
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_price_csv_roundtrip(tmp_path):
    series = load_price_csv(_write(tmp_path, "p.csv", PRICE_OK))
    assert len(series) == 3
    assert series.utility == pytest.approx((0.10, 0.12, 0.08))
    q = series.quote(1)
    assert q.ev == pytest.approx(1.2 * 0.12)
    assert q.trade == pytest.approx(0.9 * 0.12)
    assert q.buyback == pytest.approx(0.8 * 0.12)


@pytest.mark.parametrize("mutation,needle", [
    ("2024-06-01T01:00:00,0.12\n", "missing hour"),          # drop an hour
    ("header", "expected header"),
    ("dup", "duplicated hour"),
    ("neg", "positive"),
    ("badts", "bad timestamp"),
])
def test_price_csv_rejects_malformed(tmp_path, mutation, needle):
    if mutation == "header":
        text = PRICE_OK.replace("price_usd_per_kwh", "price")
    elif mutation == "dup":
        text = PRICE_OK + "2024-06-01T02:00:00,0.09\n"
    elif mutation == "neg":
        text = PRICE_OK.replace("0.08", "-0.08")
    elif mutation == "badts":
        text = PRICE_OK.replace("2024-06-01T02:00:00", "yesterday")
    else:
        text = PRICE_OK.replace(mutation, "")
    with pytest.raises(ScenarioDataError, match=needle):
        load_price_csv(_write(tmp_path, "p.csv", text))


def test_price_multiplier_ordering_rejected(tmp_path):
    with pytest.raises(PriceOrderingError, match="buyback < trade < 1 < ev"):
        Multipliers(ev=1.2, trade=1.1, buyback=0.8)
    series = load_price_csv(_write(tmp_path, "p.csv", PRICE_OK), Multipliers(ev=1.5))
    assert series.quote(1).ev == 1.5 * 0.12


def test_pv_csv_roundtrip(tmp_path):
    series = load_pv_csv(_write(tmp_path, "pv.csv", PV_OK), station_count=2)
    assert len(series) == 2
    assert series.station_count == 2
    assert series.generation[1] == pytest.approx((2.0, 3.5))


def test_pv_csv_rejects_missing_station(tmp_path):
    text = PV_OK.replace("2024-06-01T01:00:00,1,3.5\n", "")
    with pytest.raises(ScenarioDataError, match="missing stations"):
        load_pv_csv(_write(tmp_path, "pv.csv", text), station_count=2)


def test_pv_csv_rejects_duplicate_cell(tmp_path):
    text = PV_OK + "2024-06-01T01:00:00,1,9.9\n"
    with pytest.raises(ScenarioDataError, match="duplicate"):
        load_pv_csv(_write(tmp_path, "pv.csv", text), station_count=2)


def test_synth_series_deterministic():
    a = synth_price_series(48, seed=7)
    b = synth_price_series(48, seed=7)
    assert a.utility == b.utility
    assert all(p > 0 for p in a.utility)
    pa = synth_pv_series(48, 2, seed=7)
    pb = synth_pv_series(48, 2, seed=7)
    assert pa.generation == pb.generation
    assert all(v >= 0 for row in pa.generation for v in row)
    # Night hours generate nothing.
    assert pa.generation[0] == pytest.approx((0.0, 0.0))


SYNTH_SERIES = {"price": lambda **kw: synth_price_series(24, seed=0, **kw),
                "pv": lambda **kw: synth_pv_series(24, 2, seed=0, **kw)}
SYNTH_ARGUMENTS = (("price", "base"), ("price", "swing"), ("price", "noise_sigma"),
                   ("pv", "peak_kwh"))


@pytest.mark.parametrize("series, argument, bad", [
    *[(series, argument, bad) for series, argument in SYNTH_ARGUMENTS
      for bad in (float("nan"), float("inf"), -1.0)],
    ("price", "base", 0.0)])
def test_synth_series_reject_bad_arguments(series, argument, bad):
    # The bounds of the schema's price_base, price_swing, price_noise_sigma
    # and pv_peak_kwh, for a generator called directly.
    with pytest.raises(ScenarioDataError, match=f"^{argument} must be finite and >=? 0, got"):
        SYNTH_SERIES[series](**{argument: bad})


def test_synth_series_accept_the_zero_the_schema_accepts():
    SYNTH_SERIES["price"](swing=0.0, noise_sigma=0.0)
    SYNTH_SERIES["pv"](peak_kwh=0.0)


def test_demand_model_validation():
    # synth_demand used to divide by len(profiles) == 0 and then index past it
    with pytest.raises(ScenarioDataError, match="^profiles must hold at least one profile$"):
        DemandModel(profiles=())
    with pytest.raises(ScenarioDataError):
        DemandModel(profiles=((1.0,) * 23,))
    with pytest.raises(ScenarioDataError):
        DemandModel(profiles=((-1.0,) + (1.0,) * 23,))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ScenarioDataError, match="finite"):
            DemandModel(profiles=((1.0,) * 23 + (bad,),))
    with pytest.raises(ScenarioDataError):
        DemandModel(profiles=((1.0,) * 24,), urgent_fraction=1.5)
    # a NaN noise_sigma used to pass, and synth_demand then drew noise_sigma=0's arrivals
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ScenarioDataError, match="^noise_sigma must be finite and >= 0, got"):
            DemandModel(noise_sigma=bad)


def test_synth_demand_split_and_streams():
    model = DemandModel(profiles=((10.0,) * 24,), noise_sigma=0.0, urgent_fraction=0.25)
    arrivals = synth_demand(model, 5, 2, np.random.default_rng(0))
    for row in arrivals:
        for urgent, regular in row:
            assert urgent == pytest.approx(2.5)
            assert regular == pytest.approx(7.5)
    noisy = DemandModel(profiles=((10.0,) * 24,), noise_sigma=2.0)
    # The same seed gives the same draw.
    assert synth_demand(noisy, 5, 2, np.random.default_rng(3)) == \
        synth_demand(noisy, 5, 2, np.random.default_rng(3))
    # A shared generator is consumed, so consecutive draws differ.
    rng = np.random.default_rng(0)
    first = synth_demand(noisy, 5, 2, rng=rng)
    second = synth_demand(noisy, 5, 2, rng=rng)
    assert first != second
    for T, stations in ((0, 2), (5, 0)):
        with pytest.raises(ScenarioDataError, match="must be >= 1"):
            synth_demand(noisy, T, stations, rng)


def test_build_episode_shifts_arrivals():
    price = synth_price_series(3, seed=1)
    pv = synth_pv_series(3, 1, seed=1)
    arrivals = (((1.0, 2.0),), ((3.0, 4.0),), ((5.0, 6.0),))
    ep = build_episode(price, pv, arrivals, initial_soc=0.5, params=EssParams())
    # Slot-0 arrivals become the initial pending demand.
    assert ep.initial_states[0].urgent_demand == pytest.approx(1.0)
    assert ep.initial_states[0].regular_demand == pytest.approx(2.0)
    assert ep.initial_states[0].battery_kwh == pytest.approx(100.0)
    # What lands during slot t is the next recorded arrival; the final slot
    # sees none.
    assert ep.arrivals[0][0] == pytest.approx((3.0, 4.0))
    assert ep.arrivals[1][0] == pytest.approx((5.0, 6.0))
    assert ep.arrivals[2][0] == pytest.approx((0.0, 0.0))


def test_build_episode_validation():
    price = synth_price_series(3, seed=1)
    pv = synth_pv_series(2, 1, seed=1)
    arrivals = (((1.0, 2.0),),) * 3
    with pytest.raises(ScenarioDataError, match="misaligned"):
        build_episode(price, pv, arrivals, 0.5, EssParams())
    pv3 = synth_pv_series(3, 1, seed=1)
    with pytest.raises(ScenarioDataError, match="initial_soc"):
        build_episode(price, pv3, arrivals, 0.99, EssParams())


def test_episode_rejects_station_mismatch():
    price = synth_price_series(2, seed=1)
    quotes = tuple(price.quote(t) for t in range(2))
    from evcoop.core import StationState
    with pytest.raises(ScenarioDataError):
        Episode(
            quotes=quotes,
            renewables=((0.0,), (0.0, 0.0)),
            arrivals=(((0.0, 0.0),), ((0.0, 0.0),)),
            initial_states=(StationState(100.0, 0.0, 0.0),),
        )


def _episode_with_arrival(t, arrival, T=5):
    """A 2-station, ``T``-slot episode whose station 1 gets ``arrival`` at slot ``t``."""
    arrivals = [[(1.0, 2.0), (1.0, 2.0)] for _ in range(T)]
    arrivals[t][1] = arrival
    return Episode(quotes=tuple(synth_price_series(T, seed=1).quote(s) for s in range(T)),
                   renewables=((0.0, 0.0),) * T, arrivals=tuple(map(tuple, arrivals)),
                   initial_states=(StationState(100.0, 0.0, 0.0),) * 2)


@pytest.mark.parametrize("t", [0, 2, 4])
@pytest.mark.parametrize("field", [0, 1])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_episode_rejects_a_bad_arrival_naming_its_slot(t, field, bad):
    arrival = [1.0, 2.0]
    arrival[field] = bad
    name = ("arrival_urgent", "arrival_regular")[field]
    want = (f"slot {t}: station 1: negative arrivals ({arrival[0]}, {arrival[1]})" if bad < 0.0
            else f"slot {t}: station 1: {name} {bad} is not finite")
    with pytest.raises(ConstraintViolation) as raised:
        _episode_with_arrival(t, tuple(arrival))
    assert str(raised.value) == want
    _episode_with_arrival(t, (-0.0, -0.0))   # -0.0 is a valid arrival


def test_episode_rejects_an_arrival_that_is_not_a_pair():
    with pytest.raises(ScenarioDataError) as raised:
        _episode_with_arrival(2, (1.0, 2.0, 3.0))
    assert str(raised.value).startswith("slot 2: station 1: arrival (1.0, 2.0, 3.0) is not")


def test_bundled_sample_data_loads():
    price = load_price_csv(sample_data_path("two_station_48h_price.csv"))
    pv = load_pv_csv(sample_data_path("two_station_48h_pv.csv"), station_count=2)
    assert len(price) == 48
    assert len(pv) == 48
    assert pv.station_count == 2
    with pytest.raises(ScenarioDataError):
        sample_data_path("nope.csv")


def test_bundled_sample_is_what_its_generator_writes(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "gen_sample_data.py"
    spec = importlib.util.spec_from_file_location("gen_sample_data", script)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.OUT = tmp_path
    gen.main()
    for name in SAMPLE_CSVS:
        assert (tmp_path / name).read_bytes() == sample_data_path(name).read_bytes(), name
    # sample mode loads the files with the configured count, so the default must match
    assert gen.STATIONS == ScenarioConfig().station_count

"""Scenario ingestion and synthesis: prices, PV generation, EV demand, episodes.

CSV formats (UTF-8, decimal point, ISO-8601 local hour timestamps):

* price:  header ``timestamp,price_usd_per_kwh``, one row per hour,
  strictly consecutive hours, positive prices.
* PV:     header ``timestamp,station_id,kwh``, one row per station per hour,
  nonnegative generation, dense in both dimensions.

The bundled ``sample_data/*.csv`` files are synthetic stand-ins for regional
market feeds, generated from smooth daily shapes; they exist so the package
runs out of the box and carry no claim of matching any real market.

The ``synth_*`` generators draw each random field with one RNG call of its
full shape, compute each series as one array expression, and return it as
nested tuples of Python floats (``as_tuples``), so no numpy scalar reaches
the scalar market.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from importlib import resources
from pathlib import Path

import numpy as np

from .core import DEFAULT_MULTIPLIERS, EssParams, Multipliers, PriceQuote, StationState


class ScenarioDataError(ValueError):
    """Malformed or inconsistent scenario input."""


_START = np.datetime64("2024-06-01T00", "h")  # the first hour of a synthetic series, a midnight


@dataclass(frozen=True)
class PriceSeries:
    """Hourly utility prices plus the multipliers that derive the other three prices."""

    timestamps: tuple[datetime, ...]
    utility: tuple[float, ...]
    multipliers: Multipliers = DEFAULT_MULTIPLIERS

    def __len__(self) -> int:
        return len(self.utility)

    def quote(self, t: int) -> PriceQuote:
        return self.multipliers.quote(self.utility[t])


@dataclass(frozen=True)
class PvSeries:
    """Per-station hourly PV generation, stations in columns."""

    timestamps: tuple[datetime, ...]
    generation: tuple[tuple[float, ...], ...]  # [t][station] kWh

    def __len__(self) -> int:
        return len(self.generation)

    @property
    def station_count(self) -> int:
        return len(self.generation[0]) if self.generation else 0


# evening-shifted charging demand, station 1 runs lighter than station 0
_DEFAULT_PROFILE = (
    8.0, 6.0, 5.0, 5.0, 6.0, 8.0, 12.0, 18.0, 22.0, 20.0, 16.0, 14.0,
    13.0, 13.0, 14.0, 16.0, 20.0, 26.0, 30.0, 28.0, 22.0, 16.0, 12.0, 9.0,
)


@dataclass(frozen=True)
class DemandModel:
    """Urgent/regular EV arrivals around a daily profile.

    ``profiles`` holds 24-value mean hourly profiles (kWh) that cycle over
    the stations: station i draws around profile ``i % len(profiles)``.
    Hourly totals are the profile value plus Gaussian noise, truncated at
    zero, and split by a fixed urgent fraction.
    """

    profiles: tuple[tuple[float, ...], ...] = (
        _DEFAULT_PROFILE, tuple(round(0.75 * v, 4) for v in _DEFAULT_PROFILE))
    noise_sigma: float = 3.0
    urgent_fraction: float = 0.2

    def __post_init__(self) -> None:
        for prof in self.profiles:
            if len(prof) != 24:
                raise ScenarioDataError(f"profile must have 24 values, got {len(prof)}")
            if not all(0.0 <= v < math.inf for v in prof):
                raise ScenarioDataError("profile values must be finite and nonnegative")
        if not (0.0 <= self.urgent_fraction <= 1.0):
            raise ScenarioDataError(f"urgent_fraction must be in [0, 1], got {self.urgent_fraction}")
        _check_generator_arg("noise_sigma", self.noise_sigma)


@dataclass(frozen=True)
class Episode:
    """Aligned per-slot scenario data plus initial station states."""

    quotes: tuple[PriceQuote, ...]
    renewables: tuple[tuple[float, ...], ...]  # [t][station]
    arrivals: tuple[tuple[tuple[float, float], ...], ...]  # [t][station] -> (urgent, regular)
    initial_states: tuple[StationState, ...]

    def __post_init__(self) -> None:
        T = len(self.quotes)
        if T < 1:
            raise ScenarioDataError("episode must have at least one slot")
        if len(self.renewables) != T or len(self.arrivals) != T:
            raise ScenarioDataError(
                f"misaligned episode: {T} quotes, {len(self.renewables)} renewable slots, "
                f"{len(self.arrivals)} arrival slots"
            )
        n = len(self.initial_states)
        for t in range(T):
            if len(self.renewables[t]) != n or len(self.arrivals[t]) != n:
                raise ScenarioDataError(f"slot {t}: station count differs from {n}")

    @property
    def length(self) -> int:
        return len(self.quotes)

    @property
    def station_count(self) -> int:
        return len(self.initial_states)


def _parse_hour(text: str, path: str, line: int) -> datetime:
    try:
        ts = datetime.fromisoformat(text)
    except ValueError as exc:
        raise ScenarioDataError(f"{path}:{line}: bad timestamp {text!r}: {exc}") from None
    if ts.minute or ts.second or ts.microsecond:
        raise ScenarioDataError(f"{path}:{line}: timestamp {text!r} is not on the hour")
    return ts


def _csv_rows(path: Path, columns: tuple[str, ...]):
    """Yield ``(line, timestamp, other fields)`` for each non-blank row of an hourly CSV."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ScenarioDataError(f"{path}: empty file")
        if [h.strip() for h in header] != list(columns):
            raise ScenarioDataError(f"{path}:1: expected header '{','.join(columns)}'")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(columns):
                raise ScenarioDataError(f"{path}:{line}: expected {len(columns)} columns, got {len(row)}")
            yield line, _parse_hour(row[0].strip(), str(path), line), row[1:]


def load_price_csv(path: str | Path, multipliers: Multipliers = DEFAULT_MULTIPLIERS) -> PriceSeries:
    """Load and gap-check an hourly utility price series."""
    path = Path(path)
    timestamps: list[datetime] = []
    prices: list[float] = []
    for line, ts, (text,) in _csv_rows(path, ("timestamp", "price_usd_per_kwh")):
        try:
            price = float(text)
        except ValueError:
            raise ScenarioDataError(f"{path}:{line}: bad price {text!r}") from None
        if not math.isfinite(price) or price <= 0.0:
            raise ScenarioDataError(f"{path}:{line}: price must be positive and finite, got {price}")
        if timestamps:
            expected = timestamps[-1] + timedelta(hours=1)
            if ts == timestamps[-1]:
                raise ScenarioDataError(f"{path}:{line}: duplicated hour {ts.isoformat()}")
            if ts != expected:
                raise ScenarioDataError(
                    f"{path}:{line}: missing hour {expected.isoformat()} (got {ts.isoformat()})"
                )
        timestamps.append(ts)
        prices.append(price)
    if not prices:
        raise ScenarioDataError(f"{path}: no data rows")
    return PriceSeries(tuple(timestamps), tuple(prices), multipliers)


def load_pv_csv(path: str | Path, station_count: int) -> PvSeries:
    """Load per-station hourly PV generation; every station-hour must be present."""
    path = Path(path)
    if station_count < 1:
        raise ScenarioDataError(f"station_count must be >= 1, got {station_count}")
    cells: dict[datetime, dict[int, float]] = {}
    order: list[datetime] = []
    for line, ts, (sid_text, kwh_text) in _csv_rows(path, ("timestamp", "station_id", "kwh")):
        try:
            sid = int(sid_text)
            kwh = float(kwh_text)
        except ValueError:
            raise ScenarioDataError(f"{path}:{line}: bad station_id or kwh") from None
        if not 0 <= sid < station_count:
            raise ScenarioDataError(
                f"{path}:{line}: station_id {sid} outside [0, {station_count})"
            )
        if not math.isfinite(kwh) or kwh < 0.0:
            raise ScenarioDataError(f"{path}:{line}: kwh must be nonnegative, got {kwh}")
        per_hour = cells.setdefault(ts, {})
        if not per_hour:
            order.append(ts)
        if sid in per_hour:
            raise ScenarioDataError(f"{path}:{line}: duplicate ({ts.isoformat()}, station {sid})")
        per_hour[sid] = kwh
    if not order:
        raise ScenarioDataError(f"{path}: no data rows")
    order.sort()
    for prev, cur in zip(order, order[1:]):
        if cur != prev + timedelta(hours=1):
            raise ScenarioDataError(f"{path}: missing hour {(prev + timedelta(hours=1)).isoformat()}")
    generation = []
    for ts in order:
        per_hour = cells[ts]
        missing = [i for i in range(station_count) if i not in per_hour]
        if missing:
            raise ScenarioDataError(f"{path}: hour {ts.isoformat()} missing stations {missing}")
        generation.append(tuple(per_hour[i] for i in range(station_count)))
    return PvSeries(tuple(order), tuple(generation))


def synth_demand(
    model: DemandModel, T: int, station_count: int, rng: np.random.Generator,
) -> tuple[tuple[tuple[float, float], ...], ...]:
    """Draw an arrivals sequence: ``[t][station] -> (urgent, regular)``.

    The draw consumes ``rng``, so successive calls give fresh episodes.
    """
    if T < 1 or station_count < 1:
        raise ScenarioDataError(f"T and station_count must be >= 1, got {T} and {station_count}")
    noise = rng.normal(0.0, model.noise_sigma, size=(T, station_count)) if model.noise_sigma > 0.0 \
        else np.zeros((T, station_count))
    # [t, i] -> slot t's hour in station i's profile; the profiles cycle over the stations
    mean = np.asarray(model.profiles).T[np.arange(T)[:, None] % 24,
                                        np.arange(station_count) % len(model.profiles)]
    total = np.maximum(mean + noise, 0.0)
    urgent = model.urgent_fraction * total
    return as_tuples(np.stack((urgent, total - urgent), axis=-1))


def build_episode(
    price: PriceSeries,
    pv: PvSeries,
    arrivals: tuple[tuple[tuple[float, float], ...], ...],
    initial_soc: float,
    params: EssParams,
) -> Episode:
    """Assemble one aligned episode; all series must have equal length."""
    T = len(price)
    if len(pv) != T or len(arrivals) != T:
        raise ScenarioDataError(
            f"misaligned series: {T} price slots, {len(pv)} PV slots, {len(arrivals)} arrival slots"
        )
    if not (params.soc_min <= initial_soc <= params.soc_max):
        raise ScenarioDataError(
            f"initial_soc {initial_soc} outside [{params.soc_min}, {params.soc_max}]"
        )
    n = pv.station_count
    battery = initial_soc * params.capacity_max
    # Slot 0 arrivals seed the initial pending demand; the stored arrival
    # stream is what lands during each slot, consumed at slot end.
    initial_states = tuple(StationState(battery, *pending) for pending in arrivals[0])
    # Shift: slot t consumes arrivals[t + 1]; the final slot sees none.
    shifted = tuple(arrivals[1:]) + (tuple((0.0, 0.0) for _ in range(n)),)
    quotes = tuple(price.quote(t) for t in range(T))
    return Episode(quotes=quotes, renewables=pv.generation, arrivals=shifted, initial_states=initial_states)


def _check_generator_arg(name: str, value: float, positive: bool = False) -> None:
    """Raise ScenarioDataError naming argument ``name`` unless ``value`` is finite and
    nonnegative, or positive if ``positive``: the bounds the config schema sets."""
    if not math.isfinite(value) or value < 0.0 or (positive and value == 0.0):
        raise ScenarioDataError(
            f"{name} must be finite and {'> 0' if positive else '>= 0'}, got {value}")


def synth_price_series(
    T: int,
    seed: int,
    base: float = 0.10,
    swing: float = 0.06,
    noise_sigma: float = 0.004,
    multipliers: Multipliers = DEFAULT_MULTIPLIERS,
) -> PriceSeries:
    """Generate a smooth synthetic daily price curve: cheap overnight, evening peak."""
    if T < 1:
        raise ScenarioDataError(f"T must be >= 1, got {T}")
    _check_generator_arg("base", base, positive=True)
    _check_generator_arg("swing", swing)
    _check_generator_arg("noise_sigma", noise_sigma)
    rng = np.random.default_rng(seed)
    hours = np.arange(T)  # since _START
    # per hour of day: trough ~03:00, peak ~15:00-18:00
    shape = np.array([math.sin((hour - 9.0) * math.pi / 12.0) for hour in range(24)])
    prices = base + swing * shape[hours % 24] + rng.normal(0.0, noise_sigma, T)
    return PriceSeries(as_tuples(_START + hours), as_tuples(np.maximum(prices, 0.02)), multipliers)


def synth_pv_series(
    T: int,
    station_count: int,
    seed: int,
    peak_kwh: float = 40.0,
) -> PvSeries:
    """Generate a synthetic solar bell curve per station with mild noise."""
    if T < 1 or station_count < 1:
        raise ScenarioDataError("T and station_count must be >= 1")
    _check_generator_arg("peak_kwh", peak_kwh)
    rng = np.random.default_rng(seed)
    hours = np.arange(T)  # since _START
    scale = 1.0 + 0.2 * rng.standard_normal(station_count)
    bell = np.array([max(0.0, math.sin((hour - 6.0) * math.pi / 12.0)) if 6 <= hour <= 18
                     else 0.0 for hour in range(24)])
    kwh = (peak_kwh * np.abs(scale) * bell[hours % 24, None]
           * (1.0 + 0.1 * rng.standard_normal((T, station_count))))
    return PvSeries(as_tuples(_START + hours), as_tuples(np.maximum(kwh, 0.0)))


def as_tuples(array: np.ndarray) -> tuple:
    """``array`` as nested tuples of the Python scalars (floats, datetimes) of one ``tolist``."""
    items = array.ravel().tolist()
    for size in reversed(array.shape[1:]):
        items = zip(*[iter(items)] * size)  # consecutive runs of ``size`` as tuples
    return tuple(items)


def sample_data_path(name: str) -> Path:
    """Path of a bundled sample CSV, e.g. ``two_station_48h_price.csv``."""
    with resources.as_file(resources.files("evcoop") / "sample_data" / name) as p:
        if not p.exists():
            raise ScenarioDataError(f"no bundled sample file named {name!r}")
        return p

"""Deterministic scenario simulator standing in for a fleet of RF sensors.

Each emitter radiates its power spread flat over a 22 MHz channel mask;
sensors receive it over free space plus one log-normal shadowing draw per
sensor-emitter link. Sweeps cover 2400-2500 MHz in 1 MHz bins.

Seeding contract: the draw of sensor s and emitter e (both 0-based) equals
numpy.random.default_rng([seed, s, e]).normal(0.0, shadowing_sigma_db), and
nothing is drawn when sigma is 0, so a scenario always produces
byte-identical sweeps. shadowing.py draws every link at once as array code,
and through numpy's own generator only the links its ziggurat fast path
refuses.

Bounds: every real field is stored as a float, coordinates lie within
+-MAX_LENGTH_M, |tx_power_dbm| is at most MAX_DB (errors.py's dB bound,
1000 dBm) and shadowing_sigma_db at most MAX_SHADOWING_SIGMA_DB. numpy's ziggurat draws a
tail normal as r + x with x <= 36.74 / r for 53-bit uniforms, so |z| < 13.7
and a draw lies within +-1370 dB. With the 13.4 dB spread and a loss from
22 dB at the one-wavelength clamp to 289.4 dB over 2*sqrt(2)*MAX_LENGTH_M at
channel 14, a link puts between -1000 - 1370 - 289.4 - 13.4 > -2673 dBm
(1e-267 mW, which cannot underflow) and 1000 + 1370 - 22 - 13.4 < 2400 dBm
(1e240 mW) in a bin, and a bin adds at most one term per emitter.

Arithmetic: the links form one sensors x emitters array, and every step is
one numpy vector routine: np.hypot of the sensor-emitter differences, the
clamp to one wavelength, 20 * np.log10(4*pi*R/lambda), tx - loss - spread +
shadow and np.power(10, x / 10). np.add.at sums each channel's links, and
each channel's mask, a block of whole rows of a bins x sensors array, adds
its sum in place; each bin total's dB is np.log10. These routines may
differ from the C library's, which the scalar formula calls, in the last
bits, by SIMD code that follows the CPU, and the adds run in another order
than the formula's; that can move a bin's int8 level only next to a
half-integer. So a bin whose unclamped vector dB lies within _HALF_GUARD_DB
(1e-6 dB) of a half-integer, and not more than that below the noise floor,
is redone with the exact scalar chain: each covering link's math.dist,
fspl_db's formula (R may exceed the lengths fspl_db takes) and 10.0 ** x,
added from 0.0 in emitter order, then _level. Every level then equals the
per-link formula's. Over 150 seed-1 site-survey scenarios of the benchmark,
the worst |vector dB - exact dB| of a bin was 2.8e-14 dB with AVX-512 on and
off (numpy 2.4.6, Xeon), about 3e7 times below the guard; the tests measure
it again on the installed numpy.

Every sensor position must be an (x, y) pair of coordinates, as the AP's
is; it is checked before any work. The sweeps are checked once per call, not
once per sweep: they share t_ms and the grid, and their levels are clipped
ints, so only t_ms and the first id past 16 bits can fail SensorSweep's
checks, and both are checked, with its messages, before any link is formed
or bin summed. Every sweep is built carrying its payload, as parse_frame
builds its sweeps; the first read of its bins builds them from it.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from ..errors import (
    MAX_DB, MAX_LENGTH_M, DomainError, _finite, _length, _shown, _uint64, _unsigned,
    check_channel, check_items, check_pair, read_text,
)
from ..linkbudget import Frequency
from .aggregate import _json_record
from .frames import BinGrid, SensorSweep, _sweep
from .plan import ALL_CHANNELS, AP_ID, CHANNEL_HALF_WIDTH_KHZ, channel_center_khz

SWEEP_GRID = BinGrid(start_khz=2_400_000, bin_khz=1_000, n_bins=100)

# power spread evenly over the 22 one-MHz bins of the mask
_MASK_BINS = 2 * CHANNEL_HALF_WIDTH_KHZ // SWEEP_GRID.bin_khz
_SPREAD_DB = 10.0 * math.log10(_MASK_BINS)
# a bin whose vector dB is this close to a half-integer is redone with the scalar chain
_HALF_GUARD_DB = 1e-6
# loose enough for any Wi-Fi floor plan, whose sigmas are a few dB
MAX_SHADOWING_SIGMA_DB = 100.0


def _sensor_coordinates(positions: Sequence[tuple[float, float]]) -> Iterator[float]:
    """Each sensor position's x, then its y, as floats, checked as the AP's is."""
    positions = check_items("sensor_positions", positions, "a sequence of (x, y) pairs")
    for k, position in enumerate(positions):
        try:  # named only on failure, so that a sensor's check builds no string
            x, y = check_pair("position", position, "(x, y)")
            point = _length("x", x, -MAX_LENGTH_M), _length("y", y, -MAX_LENGTH_M)
        except DomainError as exc:
            raise DomainError(f"sensor {k} {exc}") from None
        yield from point


@lru_cache(maxsize=len(ALL_CHANNELS))
def _channel_facts(channel: int) -> tuple[float, slice]:
    """An emitter channel's wavelength at its centre frequency and its mask's bins."""
    center = channel_center_khz(channel)
    mask = SWEEP_GRID.span(center - CHANNEL_HALF_WIDTH_KHZ, center + CHANNEL_HALF_WIDTH_KHZ)
    return Frequency(center * 1e3).wavelength_m, mask


@dataclass(frozen=True)
class Client:
    id: str
    x: float
    y: float

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise DomainError(f"client id must be a string, got {_shown(self.id)}")
        object.__setattr__(self, "x", _length("client x", self.x, -MAX_LENGTH_M))
        object.__setattr__(self, "y", _length("client y", self.y, -MAX_LENGTH_M))


@dataclass(frozen=True)
class Emitter:
    channel: int
    tx_power_dbm: float
    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "channel", check_channel("emitter channel", self.channel))
        tx_dbm = _finite("emitter tx_power_dbm", self.tx_power_dbm, -MAX_DB, MAX_DB)
        object.__setattr__(self, "tx_power_dbm", tx_dbm)
        object.__setattr__(self, "x", _length("emitter x", self.x, -MAX_LENGTH_M))
        object.__setattr__(self, "y", _length("emitter y", self.y, -MAX_LENGTH_M))


@dataclass(frozen=True)
class Scenario:
    """One floor plan: an AP, clients, emitters, noise and a seed in [0, 2**64 - 1]."""

    ap_position: tuple[float, float]
    clients: tuple[Client, ...] = ()
    emitters: tuple[Emitter, ...] = ()
    noise_floor_dbm: float = -95.0
    shadowing_sigma_db: float = 4.0
    seed: int = 0

    def __post_init__(self):
        ap_xy = check_pair("ap_position", self.ap_position, "(x, y)")
        ap_xy = tuple(_length("ap_position", v, -MAX_LENGTH_M) for v in ap_xy)
        object.__setattr__(self, "ap_position", ap_xy)
        for name, record, kind in (("clients", Client, "a Client"),
                                   ("emitters", Emitter, "an Emitter")):
            items = check_items(name, getattr(self, name), f"a sequence of {record.__name__}s")
            for k, item in enumerate(items):
                if not isinstance(item, record):
                    raise DomainError(f"{name}[{k}] must be {kind}, got {_shown(item)}")
            object.__setattr__(self, name, items)
        taken = {AP_ID}  # a client's id names its position, as AP_ID names the AP's
        for c in self.clients:
            if c.id in taken:
                owner = "the access point" if c.id == AP_ID else "another client"
                raise DomainError(f"client id {c.id!r} is already {owner}'s position id")
            taken.add(c.id)
        floor_dbm = _finite("noise_floor_dbm", self.noise_floor_dbm)
        object.__setattr__(self, "noise_floor_dbm", floor_dbm)
        sigma_db = _finite(
            "shadowing_sigma_db", self.shadowing_sigma_db, 0.0, MAX_SHADOWING_SIGMA_DB
        )
        object.__setattr__(self, "shadowing_sigma_db", sigma_db)
        object.__setattr__(self, "seed", _uint64("seed", self.seed))


def default_sensor_layout(scenario: Scenario) -> tuple[list[str], list[tuple[float, float]]]:
    """Sensors at the AP and at every client, the deployment worth arguing for."""
    ids = [AP_ID] + [c.id for c in scenario.clients]
    positions = [scenario.ap_position] + [(c.x, c.y) for c in scenario.clients]
    return ids, positions


def simulate_sweeps(
    scenario: Scenario,
    sensor_positions: Sequence[tuple[float, float]],
    t_ms: int = 0,
) -> list[SensorSweep]:
    """One sweep per sensor position at time t_ms.

    Per sensor-emitter link: received power = tx - FSPL(distance, emitter
    center) + one shadowing draw, spread flat over the emitter's mask bins.
    Distances are clamped up to one wavelength so co-located gear stays in
    the free-space formula's domain. Bin powers add in mW, emitter by emitter
    in scenario order, are floored at the scenario noise floor, and quantize
    to signed 8-bit dBm. The module docstring says how the array steps give
    the scalar formula's levels.
    """
    # checked before any work, and held as floats, not as a tuple per sensor
    sensor_xy = np.fromiter(_sensor_coordinates(sensor_positions), float).reshape(-1, 2)
    shape = (len(sensor_xy), len(scenario.emitters))
    facts = [_channel_facts(e.channel) for e in scenario.emitters]
    # only t_ms and the id bound can fail SensorSweep's checks (see the module
    # docstring); with no sensor there is no sweep to check
    if shape[0]:
        t_ms = _uint64("timestamp_ms", t_ms)  # an int, as SensorSweep makes it
        # the last sensor's id, or the first past the bound, as SensorSweep names it
        _unsigned(16, "sensor_id", min(shape[0] - 1, 0x10000))
    emitter_x, emitter_y, tx_dbm, wavelength_m = np.array(
        [(e.x, e.y, e.tx_power_dbm, fact[0]) for e, fact in zip(scenario.emitters, facts)]
    ).reshape(-1, 4).T
    distance_m = np.hypot(emitter_x - sensor_xy[:, :1], emitter_y - sensor_xy[:, 1:])
    ratio = 4.0 * math.pi * np.maximum(distance_m, wavelength_m) / wavelength_m
    draws = np.zeros(shape)
    if scenario.shadowing_sigma_db != 0.0:
        # imported here: numpy.random costs several ms, and only drawing needs it
        from .shadowing import shadowing_draws

        draws = shadowing_draws(scenario.seed, scenario.shadowing_sigma_db, *shape)
    per_bin_dbm = tx_dbm - 20.0 * np.log10(ratio) - _SPREAD_DB + draws
    per_bin_mw = np.power(10.0, per_bin_dbm / 10.0)

    def exact_total(s: int, b: int) -> float:
        """Bin b's mW at sensor s by the scalar formula, added in emitter order."""
        total, sensor = 0.0, sensor_xy[s].tolist()
        for e, (emitter, (wavelength, mask)) in enumerate(zip(scenario.emitters, facts)):
            if mask.start <= b < mask.stop:
                distance = max(math.dist(sensor, (emitter.x, emitter.y)), wavelength)
                loss = 20.0 * math.log10(4.0 * math.pi * distance / wavelength)
                dbm = emitter.tx_power_dbm - loss - _SPREAD_DB + draws[s, e].item()
                total += 10.0 ** (dbm / 10.0)
        return total

    # each channel's links summed first, then its mask added in place as a
    # block of whole rows of a bins x sensors array
    channels = [e.channel for e in scenario.emitters]
    per_channel_mw = np.zeros((ALL_CHANNELS[-1] + 1, shape[0]))
    np.add.at(per_channel_mw, channels, per_bin_mw.T)
    bin_major = np.zeros((SWEEP_GRID.n_bins, shape[0]))
    for channel in sorted(set(channels)):
        rows = bin_major[_channel_facts(channel)[1]]
        np.add(rows, per_channel_mw[channel], out=rows)
    # the int8 bytes of the levels are the frame payload
    payload = _quantize(bin_major.T, scenario.noise_floor_dbm, exact_total).tobytes()
    n = SWEEP_GRID.n_bins
    start_khz, bin_khz = SWEEP_GRID.start_khz, SWEEP_GRID.bin_khz
    return [
        _sweep(sensor, t_ms, start_khz, bin_khz, payload[at : at + n])
        for sensor, at in enumerate(range(0, len(payload), n))
    ]


def _level(mw: float, floor_dbm: float) -> int:
    """One total in mW as a signed 8-bit dBm level: the scalar formula."""
    dbm = floor_dbm if mw <= 0 else max(10.0 * math.log10(mw), floor_dbm)
    return int(min(127, max(-128, round(dbm))))


def _quantize(total_mw: np.ndarray, floor_dbm: float, exact_total: Callable) -> np.ndarray:
    """_level of every total, as an int8 array of the same shape: by np.log10,
    but for a total in doubt (see the module docstring), whose level is _level
    of exact_total(*index), that total summed by the scalar formula."""
    with np.errstate(divide="ignore", invalid="ignore"):  # log10(0) is -inf, never in doubt
        dbm = 10.0 * np.log10(total_mw)
        near_half = np.abs(dbm - np.floor(dbm) - 0.5) <= _HALF_GUARD_DB
        in_doubt = near_half & (dbm >= floor_dbm - _HALF_GUARD_DB)
    levels = np.clip(np.rint(np.maximum(dbm, floor_dbm)), -128, 127).astype(np.int8)
    for index in np.argwhere(in_doubt).tolist():
        levels[tuple(index)] = _level(exact_total(*index), floor_dbm)
    return levels


def scenario_to_json(scenario: Scenario) -> str:
    """Scenario as a JSON document mirroring the type field-for-field."""
    return json.dumps(asdict(scenario), indent=2) + "\n"


def scenario_from_json(text: str) -> Scenario:
    """Inverse of scenario_to_json; omitted fields take the Scenario defaults,
    and a key that is no field of its record is refused."""
    try:
        arrays = (("clients", Client), ("emitters", Emitter))
        return Scenario(**_json_record(json.loads(text), Scenario, arrays=arrays))
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise DomainError(f"bad scenario document: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_json(read_text(path))

"""Deterministic scenario simulator standing in for a fleet of RF sensors.

Each emitter radiates its power spread flat over a 22 MHz channel mask;
sensors receive it over free space plus one log-normal shadowing draw per
sensor-emitter link (drawn from the scenario seed, so a scenario always
produces byte-identical sweeps). Sweeps cover 2400-2500 MHz in 1 MHz bins.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..errors import DomainError
from ..linkbudget import Frequency, LinkGeometry, fspl_db
from .frames import BinGrid, SensorSweep, _index
from .plan import AP_ID, CHANNEL_HALF_WIDTH_KHZ, channel_center_khz

SWEEP_GRID = BinGrid(start_khz=2_400_000, bin_khz=1_000, n_bins=100)

# power spread evenly over the 22 one-MHz bins of the mask
_MASK_BINS = 2 * CHANNEL_HALF_WIDTH_KHZ // SWEEP_GRID.bin_khz
_SPREAD_DB = 10.0 * math.log10(_MASK_BINS)


def _finite(name: str, value) -> None:
    # a float skips the numbers.Real ABC check, which costs about 1 us a call
    real = isinstance(value, float) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    )
    if not (real and math.isfinite(value)):
        raise DomainError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class Client:
    id: str
    x: float
    y: float

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise DomainError(f"client id must be a string, got {self.id!r}")
        _finite("client x", self.x)
        _finite("client y", self.y)


@dataclass(frozen=True)
class Emitter:
    channel: int
    tx_power_dbm: float
    x: float
    y: float

    def __post_init__(self):
        channel_center_khz(_index("emitter channel", self.channel))  # validates 1..14
        _finite("emitter tx_power_dbm", self.tx_power_dbm)
        _finite("emitter x", self.x)
        _finite("emitter y", self.y)


@dataclass(frozen=True)
class Scenario:
    """One floor plan: an AP, clients, interference emitters, and noise."""

    ap_position: tuple[float, float]
    clients: tuple[Client, ...] = ()
    emitters: tuple[Emitter, ...] = ()
    noise_floor_dbm: float = -95.0
    shadowing_sigma_db: float = 4.0
    seed: int = 0

    def __post_init__(self):
        if len(self.ap_position) != 2:
            raise DomainError(f"ap_position must be an (x, y) pair, got {self.ap_position!r}")
        for v in self.ap_position:
            _finite("ap_position", v)
        object.__setattr__(self, "ap_position", tuple(float(v) for v in self.ap_position))
        object.__setattr__(self, "clients", tuple(self.clients))
        object.__setattr__(self, "emitters", tuple(self.emitters))
        _finite("noise_floor_dbm", self.noise_floor_dbm)
        _finite("shadowing_sigma_db", self.shadowing_sigma_db)
        _index("seed", self.seed)
        if self.shadowing_sigma_db < 0:
            raise DomainError(f"shadowing sigma must be non-negative, got {self.shadowing_sigma_db}")
        if not 0 <= self.seed <= 0xFFFFFFFFFFFFFFFF:
            raise DomainError(f"seed must fit 64 bits, got {self.seed}")


def default_sensor_layout(scenario: Scenario) -> tuple[list[str], list[tuple[float, float]]]:
    """Sensors at the AP and at every client, the deployment worth arguing for."""
    ids = [AP_ID] + [c.id for c in scenario.clients]
    positions = [scenario.ap_position] + [(c.x, c.y) for c in scenario.clients]
    return ids, positions


def _shadowing_db(scenario: Scenario, sensor_index: int, emitter_index: int) -> float:
    if scenario.shadowing_sigma_db == 0.0:
        return 0.0
    rng = np.random.default_rng([scenario.seed, sensor_index, emitter_index])
    return float(rng.normal(0.0, scenario.shadowing_sigma_db))


def simulate_sweeps(
    scenario: Scenario,
    sensor_positions: Sequence[tuple[float, float]],
    t_ms: int = 0,
) -> list[SensorSweep]:
    """One sweep per sensor position at time t_ms.

    Per sensor-emitter link: received power = tx - FSPL(distance, emitter
    center) + one shadowing draw, spread flat over the emitter's mask bins.
    Distances are clamped up to one wavelength so co-located gear stays in
    the free-space formula's domain. Bin powers add in mW, are floored at the
    scenario noise floor, and quantize to signed 8-bit dBm.
    """
    sweeps = []
    for sensor_index, (sx, sy) in enumerate(sensor_positions):
        total_mw = np.zeros(SWEEP_GRID.n_bins)
        for emitter_index, emitter in enumerate(scenario.emitters):
            center_khz = channel_center_khz(emitter.channel)
            freq = Frequency(center_khz * 1e3)
            distance = math.hypot(emitter.x - sx, emitter.y - sy)
            distance = max(distance, freq.wavelength_m)
            loss_db = fspl_db(LinkGeometry(distance, freq))
            per_bin_dbm = (
                emitter.tx_power_dbm
                - loss_db
                - _SPREAD_DB
                + _shadowing_db(scenario, sensor_index, emitter_index)
            )
            mask = SWEEP_GRID.span(
                center_khz - CHANNEL_HALF_WIDTH_KHZ, center_khz + CHANNEL_HALF_WIDTH_KHZ
            )
            total_mw[mask] += 10.0 ** (per_bin_dbm / 10.0)
        bins = []
        for mw in total_mw:
            dbm = scenario.noise_floor_dbm if mw <= 0 else max(
                10.0 * math.log10(mw), scenario.noise_floor_dbm
            )
            bins.append(int(min(127, max(-128, round(dbm)))))
        sweeps.append(
            SensorSweep(
                sensor_id=sensor_index,
                timestamp_ms=t_ms,
                start_khz=SWEEP_GRID.start_khz,
                bin_khz=SWEEP_GRID.bin_khz,
                bins=tuple(bins),
            )
        )
    return sweeps


def scenario_to_json(scenario: Scenario, indent: int = 2) -> str:
    """Scenario as a JSON document mirroring the type field-for-field."""
    return json.dumps(asdict(scenario), indent=indent) + "\n"


def scenario_from_json(text: str) -> Scenario:
    """Inverse of scenario_to_json; omitted fields take the Scenario defaults."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
        for key, record in (("clients", Client), ("emitters", Emitter)):
            if key in doc:
                doc[key] = tuple(record(**fields) for fields in doc[key])
        return Scenario(**doc)
    except (ValueError, TypeError) as exc:
        raise DomainError(f"bad scenario document: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_json(Path(path).read_text())

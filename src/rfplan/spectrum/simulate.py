"""Deterministic scenario simulator standing in for a fleet of RF sensors.

Each emitter radiates its power spread flat over a 22 MHz channel mask;
sensors receive it over free space plus one log-normal shadowing draw per
sensor-emitter link. Sweeps cover 2400-2500 MHz in 1 MHz bins.

Seeding contract: the draw of sensor s and emitter e (both 0-based) equals
numpy.random.default_rng([seed, s, e]).normal(0.0, shadowing_sigma_db), and
nothing is drawn when sigma is 0, so a scenario always produces
byte-identical sweeps.
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
    to signed 8-bit dBm. The link arithmetic stays scalar: a vectorized
    log10 or power may differ in the last ulp, enough to cross a rounding
    edge.
    """
    shape = (len(sensor_positions), len(scenario.emitters))
    draws = np.zeros(shape)
    if scenario.shadowing_sigma_db != 0.0:
        # imported here: numpy.random costs several ms, and only drawing needs it
        from .shadowing import shadowing_draws

        draws = shadowing_draws(scenario.seed, scenario.shadowing_sigma_db, *shape)
    total_mw = np.zeros((shape[0], SWEEP_GRID.n_bins))
    for emitter, shadow_db in zip(scenario.emitters, draws.T.tolist()):
        center_khz = channel_center_khz(emitter.channel)
        freq = Frequency(center_khz * 1e3)
        wavelength_m = freq.wavelength_m
        per_bin_mw = []
        for (sx, sy), shadow in zip(sensor_positions, shadow_db):
            distance = max(math.hypot(emitter.x - sx, emitter.y - sy), wavelength_m)
            loss_db = fspl_db(LinkGeometry(distance, freq))
            per_bin_dbm = emitter.tx_power_dbm - loss_db - _SPREAD_DB + shadow
            per_bin_mw.append(10.0 ** (per_bin_dbm / 10.0))
        mask = SWEEP_GRID.span(
            center_khz - CHANNEL_HALF_WIDTH_KHZ, center_khz + CHANNEL_HALF_WIDTH_KHZ
        )
        total_mw[:, mask] += np.array(per_bin_mw)[:, None]
    # bins covered by the same emitters hold the same total, so each distinct
    # total is quantized once
    totals, where = np.unique(total_mw, return_inverse=True)
    floor = scenario.noise_floor_dbm
    levels = [
        int(min(127, max(-128, round(floor if mw <= 0 else max(10.0 * math.log10(mw), floor)))))
        for mw in totals.tolist()
    ]
    rows = np.array(levels, dtype=np.int64)[where].reshape(total_mw.shape).tolist()
    return [
        SensorSweep(
            sensor_id=sensor_index,
            timestamp_ms=t_ms,
            start_khz=SWEEP_GRID.start_khz,
            bin_khz=SWEEP_GRID.bin_khz,
            bins=tuple(bins),
        )
        for sensor_index, bins in enumerate(rows)
    ]


def scenario_to_json(scenario: Scenario) -> str:
    """Scenario as a JSON document mirroring the type field-for-field."""
    return json.dumps(asdict(scenario), indent=2) + "\n"


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

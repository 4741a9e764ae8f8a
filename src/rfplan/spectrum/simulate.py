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

Arithmetic: the links form one sensors x emitters array, a column per
emitter, and every step rounds exactly as the scalar per-link formula does.
The IEEE-exact steps run as numpy array operations in the scalar evaluation
order: the clamp to one wavelength, 4*pi*R/lambda, 20 times its log10,
tx - loss - spread + shadow, and the division by 10. 10.0 ** x runs as
np.float_power, whose float64 loop calls the C library's pow, the function
Python's float ** calls. Two steps stay scalar list comprehensions:
math.hypot, which CPython computes by its own algorithm, and math.log10, for
which numpy has no loop that calls the C library. Measured with numpy 2.4.6
on an AVX-512 Xeon, over 2M random inputs each, by one or two ulp: np.hypot
differs from math.hypot on about 12,000 (coordinates uniform in +-160 m),
np.log10 from math.log10 on about 24,000 (10**U(-15, 3)), and
np.power(10.0, x), SIMD code, from 10.0 ** x on about 106,000 (x uniform in
[-15, 3]); np.float_power on none.

A bin total past the float range, from finite mW that add up past it or
from a +inf draw, is a DomainError naming the first emitter, in scenario
order, that took the sum there. Quantization takes np.log10 of every bin
total. A level within _HALF_GUARD_DB (1e-6 dB) of a half-integer is redone
with the scalar formula: an error of a few ulp can change round(), the floor
clamp or the 8-bit clip only there.

The sweeps are checked once per call, not once per sweep: they share t_ms and
the grid, and their levels are clipped ints, so SensorSweep checks sensor 0
and the first id past 16 bits before any bin is summed. Every sweep is built
carrying its payload, its bins the shared ints that parse_frame gives.
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
from ..linkbudget import Frequency, fspl_db_columns
from .frames import _LEVELS, BinGrid, SensorSweep, _index, _lookup, _prebuilt
from .plan import AP_ID, CHANNEL_HALF_WIDTH_KHZ, channel_center_khz

SWEEP_GRID = BinGrid(start_khz=2_400_000, bin_khz=1_000, n_bins=100)

# power spread evenly over the 22 one-MHz bins of the mask
_MASK_BINS = 2 * CHANNEL_HALF_WIDTH_KHZ // SWEEP_GRID.bin_khz
_SPREAD_DB = 10.0 * math.log10(_MASK_BINS)
# a vector level this close to a half-integer is redone with the scalar formula
_HALF_GUARD_DB = 1e-6


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
    in scenario order, must stay finite, are floored at the scenario noise
    floor, and quantize to signed 8-bit dBm. The module docstring says which
    steps run as array operations and which stay scalar.
    """
    shape = (len(sensor_positions), len(scenario.emitters))
    draws = np.zeros(shape)
    if scenario.shadowing_sigma_db != 0.0:
        # imported here: numpy.random costs several ms, and only drawing needs it
        from .shadowing import shadowing_draws

        draws = shadowing_draws(scenario.seed, scenario.shadowing_sigma_db, *shape)
    centers_khz = [channel_center_khz(e.channel) for e in scenario.emitters]
    freqs = [Frequency(c * 1e3) for c in centers_khz]
    emitter_xy = [(e.x, e.y) for e in scenario.emitters]
    distance_m = np.array(
        [math.hypot(ex - sx, ey - sy) for sx, sy in sensor_positions for ex, ey in emitter_xy]
    ).reshape(shape)
    # overflow to inf is what the scalar steps give, without a warning
    with np.errstate(all="ignore"):
        distance_m = np.maximum(distance_m, [f.wavelength_m for f in freqs])
        loss_db = fspl_db_columns(distance_m, freqs)
        tx_dbm = np.array([e.tx_power_dbm for e in scenario.emitters], dtype=float)
        per_bin_dbm = tx_dbm - loss_db - _SPREAD_DB + draws
        exponents = per_bin_dbm / 10.0
        per_bin_mw = np.float_power(10.0, exponents)
        # 10.0 ** x raises where a finite x overflows; at x = inf it gives inf
        overflow = np.isinf(per_bin_mw) & np.isfinite(exponents)
        if overflow.any():
            e, s = np.argwhere(overflow.T)[0].tolist()  # the first link, emitter by emitter
            raise DomainError(
                f"emitter {e} with tx_power_dbm {scenario.emitters[e].tx_power_dbm!r} puts "
                f"{float(per_bin_dbm[s, e])!r} dBm in each bin at sensor {s}, "
                "whose mW leaves the float range"
            )
        # The levels will be clipped ints and the grid fields are constants, so
        # only the id bound and t_ms can fail SensorSweep's checks: check sensor
        # 0, whose id always fits, and the first id that does not, if there are
        # that many, before any bin is summed.
        for sensor_index in (0, 0x10000):
            if sensor_index >= shape[0]:
                break
            checked = SensorSweep(
                sensor_id=sensor_index,
                timestamp_ms=t_ms,
                start_khz=SWEEP_GRID.start_khz,
                bin_khz=SWEEP_GRID.bin_khz,
                bins=(0,),
            )
            t_ms = checked.timestamp_ms  # an int, as SensorSweep makes it
        masks = [
            SWEEP_GRID.span(c - CHANNEL_HALF_WIDTH_KHZ, c + CHANNEL_HALF_WIDTH_KHZ)
            for c in centers_khz
        ]
        total_mw = np.zeros((shape[0], SWEEP_GRID.n_bins))
        for mask, column in zip(masks, per_bin_mw.T):
            total_mw[:, mask] += column[:, None]
        if not np.isfinite(total_mw).all():
            raise _summed_overflow(scenario.emitters, per_bin_dbm, per_bin_mw, masks, total_mw)
        levels = _quantize(total_mw, scenario.noise_floor_dbm)
    # every level lies in [-128, 127], so its int8 bytes are the frame payload
    payload = levels.astype(np.int8).tobytes()
    bins = _lookup(_LEVELS, payload)  # one call for every sensor's bins, sliced per sweep
    n = SWEEP_GRID.n_bins
    return [
        _prebuilt(
            SensorSweep,
            sensor_id=sensor_index,
            timestamp_ms=t_ms,
            start_khz=SWEEP_GRID.start_khz,
            bin_khz=SWEEP_GRID.bin_khz,
            bins=bins[start : start + n],
            _payload=payload[start : start + n],
        )
        for sensor_index, start in enumerate(range(0, len(payload), n))
    ]


def _summed_overflow(emitters, per_bin_dbm, per_bin_mw, masks, total_mw) -> DomainError:
    """The error for the first bin, sensor by sensor, whose total is not finite.

    It names the first emitter, in scenario order, whose mW takes that sum
    past the float range: one with a +inf draw, or one whose finite mW adds
    up with the others' past it.
    """
    s, b = np.argwhere(~np.isfinite(total_mw))[0].tolist()
    total = 0.0
    for e, mask in enumerate(masks):
        if mask.start <= b < mask.stop:
            total += float(per_bin_mw[s, e])  # the same adds, in the same order
            if not math.isfinite(total):
                break
    return DomainError(
        f"emitter {e} with tx_power_dbm {emitters[e].tx_power_dbm!r} puts "
        f"{float(per_bin_dbm[s, e])!r} dBm in each bin at sensor {s}, which takes the sum "
        f"in the bin at {SWEEP_GRID.centers_khz()[b]} kHz past the float range"
    )


def _level(mw: float, floor_dbm: float) -> int:
    """One total in mW as a signed 8-bit dBm level: the scalar formula."""
    dbm = floor_dbm if mw <= 0 else max(10.0 * math.log10(mw), floor_dbm)
    return int(min(127, max(-128, round(dbm))))


def _quantize(total_mw: np.ndarray, floor_dbm: float) -> np.ndarray:
    """_level of every entry, bit for bit, as an int64 array of the same shape.

    numpy's log10 is within a few ulp of math.log10, which can move round(),
    the floor clamp or the 8-bit clip only for a level near a half-integer;
    those totals take the scalar formula, once per distinct total: at a
    half-integer floor every floor bin is one. Every total must be finite:
    round() refuses an infinite level.
    """
    with np.errstate(all="ignore"):  # log10(0) is -inf, which the floor replaces
        dbm = np.maximum(10.0 * np.log10(total_mw), floor_dbm)
        levels = np.clip(np.rint(dbm), -128, 127).astype(np.int64)
        near_half = ~(np.abs(dbm - np.floor(dbm) - 0.5) > _HALF_GUARD_DB)
    if near_half.any():
        totals, where = np.unique(total_mw[near_half], return_inverse=True)
        levels[near_half] = np.array([_level(mw, floor_dbm) for mw in totals.tolist()])[where]
    return levels


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

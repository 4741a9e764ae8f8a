"""Merging sweeps from several sensors into one spectrum.

Two modes:

* max-hold: bin-wise maximum over every sweep seen. Commutative and
  idempotent, so sensor streams may interleave arbitrarily.
* ewma: exponential smoothing per sensor in the mW domain (energies
  average, dB values do not), then a bin-wise max across sensors. Per-sensor
  sweeps must arrive in timestamp order; a sweep older than its sensor's
  previous one is a DomainError.

Both modes read each sweep's frame payload (SensorSweep.payload) as one
numpy buffer of signed bytes, never the bins as Python ints.

Sweeps also travel as JSON lines for logging and replay, written from the payload too.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import DomainError
from ..modes import DEFAULT_EWMA_ALPHA, EWMA, MAX_HOLD
from .frames import _LEVELS, BinGrid, SensorSweep, _lookup, _prebuilt

# mW of every dBm a bin can hold, indexed by the bin's byte as unsigned. EWMA
# output carries np.power's bits, and those follow the CPU: numpy sends
# np.power's float64 loop to SIMD code, which with AVX-512 differs from the
# scalar pow in the last bit on 14 of these entries and without it on none.
# The pinned EWMA bytes are this table's on AVX-512; np.float_power would give
# the same bits on every CPU, but other bytes there.
_MW_TABLE = 10.0 ** (np.asarray(_LEVELS, dtype=float) / 10.0)
_LEVEL_TEXT = tuple(map(str, _LEVELS))  # the JSON text of every level, indexed alike
# A sweep's line: json.dumps(sweep_record(s)) + "\n" byte for byte, since it keeps json's
# default separators and sweep_record's key order, and SensorSweep makes each field an exact int
_RECORD = '{"sensor_id": %d, "timestamp_ms": %d, "start_khz": %d, "bin_khz": %d, "bins": [%s]}\n'


@dataclass(frozen=True)
class AggregatedSpectrum:
    """Merged view of one position's RF environment on a fixed bin grid."""

    position_id: str
    mode: str
    start_khz: int
    bin_khz: int
    bins: tuple[float, ...]
    last_update_ms: Mapping[int, int]

    # A max-hold spectrum's merged levels as int8 bytes, which channel scoring
    # reads through a table. Not a field: equality, repr and dataclasses.replace
    # never see it, and a replaced spectrum is scored from its bins.
    _levels = None

    @property
    def grid(self) -> BinGrid:
        return BinGrid(self.start_khz, self.bin_khz, len(self.bins))


def aggregate(
    sweeps: Sequence[SensorSweep],
    mode: str = MAX_HOLD,
    *,
    alpha: float = DEFAULT_EWMA_ALPHA,
    position_id: str = "all",
) -> AggregatedSpectrum:
    """Merge sweeps sharing one grid into a single spectrum."""
    if not sweeps:
        raise DomainError("nothing to aggregate")
    first = sweeps[0]
    shape = (first.start_khz, first.bin_khz, len(first.bins))
    # One pass checks the grid and groups each sensor's payloads. A sensor's
    # latest timestamp is its last while its sweeps are in order; the first one
    # that is not is reported only for ewma, after the grid check and alpha.
    histories: dict[int, list[bytes]] = {}
    last_update: dict[int, int] = {}
    late = None
    for s in sweeps:
        payload = s.payload
        if (s.start_khz, s.bin_khz, len(payload)) != shape:
            raise DomainError(
                f"sweeps disagree on the bin grid ({s.grid} vs {first.grid}); "
                "resampling is not supported"
            )
        sensor, t_ms = s.sensor_id, s.timestamp_ms
        histories.setdefault(sensor, []).append(payload)
        prev_ms = last_update.setdefault(sensor, t_ms)
        if t_ms >= prev_ms:
            last_update[sensor] = t_ms
        elif late is None:
            late = (
                f"ewma needs each sensor's sweeps in timestamp order: sensor "
                f"{sensor} went from {prev_ms} ms back to {t_ms} ms"
            )

    if mode == MAX_HOLD:
        levels = np.frombuffer(b"".join(map(b"".join, histories.values())), np.int8)
        peak = levels.reshape(len(sweeps), -1).max(axis=0)
        merged = peak.astype(float)
    elif mode == EWMA:
        if not 0.0 < alpha <= 1.0:
            raise DomainError(f"ewma alpha must lie in (0, 1], got {alpha}")
        if late is not None:
            raise DomainError(late)
        smoothed_dbm = 10.0 * np.log10(_ewma_mw(list(histories.values()), alpha))
        merged = smoothed_dbm[0] if len(histories) == 1 else smoothed_dbm.max(axis=0)
    else:
        raise DomainError(f"unknown aggregation mode {mode!r}")

    fields = dict(
        position_id=position_id,
        mode=mode,
        start_khz=first.start_khz,
        bin_khz=first.bin_khz,
        bins=tuple(merged.tolist()),
        last_update_ms=last_update,
    )
    if mode != MAX_HOLD:
        return AggregatedSpectrum(**fields)
    return _prebuilt(AggregatedSpectrum, **fields, _levels=peak.tobytes())


def _ewma_mw(histories: list[list[bytes]], alpha: float) -> np.ndarray:
    """Smoothed mW per sensor, one row per history of in-order sweep payloads.

    When every history has the same length, step r updates every sensor at
    once, from row r of one steps x sensors x bins array. Otherwise sensors
    ranked by sweep count, most first, make the sensors with an r-th sweep a
    prefix, so step r is one update of that prefix. Each bin still gets
    alpha*p + (1-alpha)*prev exactly: IEEE + and * are commutative.
    """
    histories.sort(key=len, reverse=True)
    n_steps, n_sensors = len(histories[0]), len(histories)
    keep = np.array(1.0 - alpha)  # a ufunc takes an array operand faster than a float
    if len(histories[-1]) == n_steps:
        rows = histories[0] if n_sensors == 1 else [p for step in zip(*histories) for p in step]
        codes = np.frombuffer(b"".join(rows), np.uint8)
        power = _MW_TABLE.take(codes).reshape(n_steps, n_sensors, -1)
        smoothed = power[0]  # updated in place: the later rows are scaled first
        for scaled in alpha * power[1:]:
            smoothed *= keep
            smoothed += scaled
        return smoothed
    widths = []  # widths[r]: how many sensors have an r-th sweep
    width = n_sensors
    for r in range(n_steps):
        while len(histories[width - 1]) <= r:
            width -= 1
        widths.append(width)
    rows = [h[r] for r, width in enumerate(widths) for h in histories[:width]]
    codes = np.frombuffer(b"".join(rows), np.uint8)
    power = _MW_TABLE.take(codes).reshape(len(rows), -1)
    smoothed = power[: widths[0]].copy()
    scaled = alpha * power
    start = widths[0]
    prefix = smoothed
    for width in widths[1:]:
        if width != len(prefix):
            prefix = smoothed[:width]
        prefix *= keep
        prefix += scaled[start : start + width]
        start += width
    return smoothed


def sweep_record(sweep: SensorSweep) -> dict:
    return {
        "sensor_id": sweep.sensor_id,
        "timestamp_ms": sweep.timestamp_ms,
        "start_khz": sweep.start_khz,
        "bin_khz": sweep.bin_khz,
        "bins": list(sweep.bins),
    }


def sweeps_to_jsonl(sweeps: Iterable[SensorSweep]) -> str:
    """One JSON record per line; the interchange format for sweep logs."""
    text = _LEVEL_TEXT
    return "".join(
        _RECORD
        % (s.sensor_id, s.timestamp_ms, s.start_khz, s.bin_khz, ", ".join(_lookup(text, s.payload)))
        for s in sweeps
    )


def sweeps_from_jsonl(text: str) -> list[SensorSweep]:
    sweeps = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            sweeps.append(
                SensorSweep(
                    sensor_id=rec["sensor_id"],
                    timestamp_ms=rec["timestamp_ms"],
                    start_khz=rec["start_khz"],
                    bin_khz=rec["bin_khz"],
                    bins=tuple(rec["bins"]),
                )
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise DomainError(f"bad sweep record on line {lineno}: {exc}") from exc
    return sweeps

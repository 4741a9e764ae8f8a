"""Sensor sweeps on a regular bin grid, and their binary frame codec.

One frame carries one full sweep from one sensor. Layout, all multi-byte
integers little-endian:

    offset  size  field
    0       2     magic 0x57 0x58 ("WX")
    2       1     version (currently 1)
    3       2     sensor_id
    5       8     timestamp_ms
    13      4     start_khz
    17      2     bin_khz
    19      2     n_bins
    21      n     bins, one signed byte of dBm each
    21+n    4     CRC-32 over bytes [0, 21+n)

The CRC is the ubiquitous reflected-0xEDB88320 variant (init and final xor
0xFFFFFFFF), i.e. exactly zlib.crc32. Parse errors are split three ways so a
collector can count framing noise, short reads and corruption separately.

A sweep from parse_frame or the simulator carries its frame payload, the
bins as signed bytes, next to the bins tuple: encode_frame appends it, and
the aggregation and the JSONL writer read it, so no producer-to-consumer
path unpacks bins into ints only to pack them again. Any other sweep packs
its payload on demand.
"""
from __future__ import annotations

import operator
import struct
import zlib
from dataclasses import dataclass

from ..errors import DomainError

MAGIC = b"WX"
VERSION = 1

_HEADER = struct.Struct("<2sBHQIHH")
_CRC = struct.Struct("<I")
# Each bin byte's level, indexed by the byte as unsigned; parsed and simulated
# sweeps share these ints.
_LEVELS = tuple(b - 256 if b > 127 else b for b in range(256))


class FrameError(DomainError):
    """Base for everything that can go wrong with a wire frame."""


class FrameFormatError(FrameError):
    """Bad magic, unknown version, or trailing bytes."""


class FrameTruncationError(FrameError):
    """The byte sequence ends before the declared frame does."""


class FrameIntegrityError(FrameError):
    """Checksum mismatch: the frame was damaged in transit."""


@dataclass(frozen=True)
class BinGrid:
    """A regular frequency grid: n_bins bins of bin_khz each from start_khz."""

    start_khz: int
    bin_khz: int
    n_bins: int

    @property
    def stop_khz(self) -> int:
        return self.start_khz + self.n_bins * self.bin_khz

    def centers_khz(self) -> list[float]:
        return [self.start_khz + (i + 0.5) * self.bin_khz for i in range(self.n_bins)]

    def span(self, lo_khz: int, hi_khz: int) -> slice:
        """The bins whose centers lie in [lo_khz, hi_khz]; the grid must cover it."""
        if lo_khz < self.start_khz or hi_khz > self.stop_khz:
            raise DomainError(
                f"spectrum [{self.start_khz}, {self.stop_khz}] kHz does not cover "
                f"[{lo_khz}, {hi_khz}] kHz"
            )
        # bin i is inside iff 2*(lo - start) <= (2i + 1)*bin <= 2*(hi - start)
        width = 2 * self.bin_khz
        first = -((self.bin_khz - 2 * (lo_khz - self.start_khz)) // width)
        stop = (2 * (hi_khz - self.start_khz) + self.bin_khz) // width
        return slice(first, stop)


def _index(name: str, value) -> int:
    """value as an int; a bool, float or string is rejected, never truncated."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SensorSweep:
    """One spectrum sweep: dBm per frequency bin on a regular grid."""

    sensor_id: int
    timestamp_ms: int
    start_khz: int
    bin_khz: int
    bins: tuple[int, ...]

    # The bins' frame bytes when a producer already holds them (see payload).
    # Not a field: equality, repr and dataclasses.replace never see it, and a
    # replaced sweep packs its own bins again.
    _payload = None

    def __post_init__(self):
        for name in ("sensor_id", "timestamp_ms", "start_khz", "bin_khz"):
            object.__setattr__(self, name, _index(name, getattr(self, name)))
        bins = tuple(self.bins)
        if {*map(type, bins)} != {int}:  # plain ints, as the simulator and JSON give, pass as is
            bins = tuple(_index("bin value", b) for b in bins)
        object.__setattr__(self, "bins", bins)
        if not 0 <= self.sensor_id <= 0xFFFF:
            raise DomainError(f"sensor_id must fit 16 bits, got {self.sensor_id}")
        if not 0 <= self.timestamp_ms <= 0xFFFFFFFFFFFFFFFF:
            raise DomainError(f"timestamp_ms must fit 64 bits, got {self.timestamp_ms}")
        if not 0 <= self.start_khz <= 0xFFFFFFFF:
            raise DomainError(f"start_khz must fit 32 bits, got {self.start_khz}")
        if not 0 < self.bin_khz <= 0xFFFF:
            raise DomainError(f"bin_khz must be a positive 16-bit value, got {self.bin_khz}")
        if not self.bins:
            raise DomainError("sweep must contain at least one bin")
        if not (-128 <= min(self.bins) and max(self.bins) <= 127):
            bad = next(b for b in self.bins if not -128 <= b <= 127)
            raise DomainError(f"bin value {bad} outside signed 8-bit range")

    @property
    def grid(self) -> BinGrid:
        return BinGrid(self.start_khz, self.bin_khz, len(self.bins))

    @property
    def payload(self) -> bytes:
        """The bins as a frame carries them: one signed byte each."""
        if self._payload is not None:
            return self._payload
        return struct.pack(f"<{len(self.bins)}b", *self.bins)


def _prebuilt(cls, **attrs):
    """A frozen dataclass cls of fields that pass its checks, plus one hidden attr.

    It gets a dict of its own: adding the hidden attribute to the shared-key
    instance dict would widen the layout every instance of cls shares, by 16
    bytes each, whether it carries the attribute or not.
    """
    instance = object.__new__(cls)
    object.__setattr__(instance, "__dict__", attrs)
    return instance


def encode_frame(sweep: SensorSweep) -> bytes:
    """Serialize one sweep; raises DomainError if it cannot fit a frame."""
    n = len(sweep.bins)
    if n > 0xFFFF:
        raise DomainError(f"{n} bins do not fit the 16-bit frame length field")
    body = _HEADER.pack(
        MAGIC,
        VERSION,
        sweep.sensor_id,
        sweep.timestamp_ms,
        sweep.start_khz,
        sweep.bin_khz,
        n,
    ) + sweep.payload
    return body + _CRC.pack(zlib.crc32(body))


def parse_frame(data: bytes) -> SensorSweep:
    """Decode and verify one frame; the input must be exactly one frame."""
    if len(data) < len(MAGIC):
        raise FrameTruncationError(f"frame cut off after {len(data)} bytes")
    if data[:2] != MAGIC:
        raise FrameFormatError(f"bad magic {data[:2]!r}")
    if len(data) < _HEADER.size:
        raise FrameTruncationError(
            f"header needs {_HEADER.size} bytes, got {len(data)}"
        )
    magic, version, sensor_id, timestamp_ms, start_khz, bin_khz, n = _HEADER.unpack_from(
        data, 0
    )
    if version != VERSION:
        raise FrameFormatError(f"unsupported frame version {version}")
    expected = _HEADER.size + n + _CRC.size
    if len(data) < expected:
        raise FrameTruncationError(
            f"frame declares {expected} bytes, got {len(data)}"
        )
    if len(data) > expected:
        raise FrameFormatError(
            f"{len(data) - expected} trailing bytes after a {expected}-byte frame"
        )
    body = data[: _HEADER.size + n]
    (crc_received,) = _CRC.unpack_from(data, _HEADER.size + n)
    if zlib.crc32(body) != crc_received:
        raise FrameIntegrityError("CRC mismatch")
    if n == 0:
        raise FrameFormatError("frame field n_bins is 0; a sweep needs at least one bin")
    if bin_khz == 0:
        raise FrameFormatError("frame field bin_khz is 0; it must be positive")
    # The header's field widths and the bins' signed bytes keep every other
    # value in SensorSweep's ranges.
    payload = bytes(body[_HEADER.size :])  # bytes, for a bytearray or memoryview too
    return _prebuilt(
        SensorSweep,
        sensor_id=sensor_id,
        timestamp_ms=timestamp_ms,
        start_khz=start_khz,
        bin_khz=bin_khz,
        bins=_lookup(_LEVELS, payload),
        _payload=payload,
    )


def _lookup(table: tuple, payload: bytes) -> tuple:
    """table's entry for each byte of payload, in one itemgetter call."""
    if len(payload) > 1:
        return operator.itemgetter(*payload)(table)
    return tuple(table[b] for b in payload)  # itemgetter of one index gives the bare item

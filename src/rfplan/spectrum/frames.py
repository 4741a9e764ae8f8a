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

Every sweep carries its frame payload, the bins as signed bytes:
encode_frame appends it and takes the bin count from it, and the
aggregation and the JSONL writer read it. A sweep built by hand packs it
once, after its checks. A sweep from parse_frame or the simulator builds
its bins tuple from it on the first read of bins, so no
producer-to-consumer path unpacks bins into ints at all.

SensorSweep is slotted: every sweep has one instance layout and no
__dict__, however it was built. parse_frame and the simulator build theirs
through _sweep, which sets each slot positionally, skips the checks and
leaves the bins slot unset.
"""
from __future__ import annotations

import operator
import struct
import zlib
from dataclasses import dataclass

from ..errors import DomainError, _index, _shown, _uint64, _unsigned, check_items

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


class _SweepHidden:
    # The bins' frame bytes (see payload), which every sweep carries. A slot
    # of this base, not a field: equality, repr and dataclasses.replace never
    # see it, and a replaced sweep packs its own bins again. A sweep from
    # _sweep leaves its bins slot unset until the first read of bins builds
    # the tuple from them (_BuiltOnFirstRead).
    __slots__ = ("_payload",)


@dataclass(frozen=True, slots=True)
class SensorSweep(_SweepHidden):
    """One spectrum sweep: dBm per frequency bin on a regular grid."""

    sensor_id: int
    timestamp_ms: int
    start_khz: int
    bin_khz: int
    bins: tuple[int, ...]

    def __post_init__(self):
        for name in ("sensor_id", "timestamp_ms", "start_khz", "bin_khz"):
            object.__setattr__(self, name, _index(name, getattr(self, name)))
        bins = check_items("sweep bins", self.bins, "a sequence of integers")
        if {*map(type, bins)} != {int}:  # plain ints, as the simulator and JSON give, pass as is
            bins = tuple(_index("bin value", b) for b in bins)
        _SET_BINS(self, bins)
        _unsigned(16, "sensor_id", self.sensor_id)
        _uint64("timestamp_ms", self.timestamp_ms)
        _unsigned(32, "start_khz", self.start_khz)
        if not 0 < self.bin_khz <= 0xFFFF:
            shown = _shown(self.bin_khz)
            raise DomainError(f"bin_khz must be a positive 16-bit value, got {shown}")
        if not bins:
            raise DomainError("sweep must contain at least one bin")
        if not (-128 <= min(bins) and max(bins) <= 127):
            bad = next(b for b in bins if not -128 <= b <= 127)
            raise DomainError(f"bin value {_shown(bad)} outside signed 8-bit range")
        _SET_PAYLOAD(self, struct.pack(f"<{len(bins)}b", *bins))

    def _n_bins(self) -> int:
        """len(self.bins), read from the payload without building the bins."""
        return len(self._payload)

    @property
    def grid(self) -> BinGrid:
        return BinGrid(self.start_khz, self.bin_khz, self._n_bins())

    @property
    def payload(self) -> bytes:
        """The bins as a frame carries them: one signed byte each."""
        return self._payload

    def __reduce__(self):
        # pickle and copy keep the payload, from which a copy builds its bins
        # on their first read: a slotted frozen dataclass would carry its fields alone
        fields = self.sensor_id, self.timestamp_ms, self.start_khz, self.bin_khz
        return _sweep, (*fields, self._payload)


class _BuiltOnFirstRead:
    """A slot that, while unset, build(instance) fills on its first read.

    It stands in for the slot's own descriptor, kept as .slot, which reads
    without building. A __getattr__ would do the same, but a class with one
    loses the interpreter's specialised attribute reads: on Python 3.11.7 a
    sweep's field read took 30 ns with it against 6 ns without. Two threads
    reading an unset slot at once each build an equal value.
    """

    def __init__(self, slot, build):
        self.slot, self._build = slot, build
        self._get, self._set = slot.__get__, slot.__set__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        try:
            return self._get(instance)
        except AttributeError:
            value = self._build(instance)
            self._set(instance, value)
            return value

    def __set__(self, instance, value):
        self._set(instance, value)


def _setters(cls, *names):
    """Each named slot's own setter: it skips the frozen __setattr__, as
    object.__setattr__ does, at about 40% less per call."""
    return (getattr(cls, name).__set__ for name in names)


_new = object.__new__
# the slots' own setters, _SET_BINS taken before bins becomes _BuiltOnFirstRead
(_SET_SENSOR_ID, _SET_TIMESTAMP_MS, _SET_START_KHZ, _SET_BIN_KHZ, _SET_BINS, _SET_PAYLOAD) = (
    _setters(SensorSweep, "sensor_id", "timestamp_ms", "start_khz", "bin_khz", "bins", "_payload")
)
SensorSweep.bins = _BuiltOnFirstRead(SensorSweep.bins, lambda s: _lookup(_LEVELS, s._payload))


def _sweep(sensor_id, timestamp_ms, start_khz, bin_khz, payload) -> SensorSweep:
    """A SensorSweep of values that pass its checks, carrying payload, the
    bins' bytes: one positional set per slot, no keyword dict; its bins slot
    stays unset until the first read of bins."""
    sweep = _new(SensorSweep)
    _SET_SENSOR_ID(sweep, sensor_id)
    _SET_TIMESTAMP_MS(sweep, timestamp_ms)
    _SET_START_KHZ(sweep, start_khz)
    _SET_BIN_KHZ(sweep, bin_khz)
    _SET_PAYLOAD(sweep, payload)
    return sweep


def encode_frame(sweep: SensorSweep) -> bytes:
    """Serialize one sweep; raises DomainError if it cannot fit a frame."""
    payload = sweep.payload
    n = len(payload)
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
    ) + payload
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
    crc_computed = zlib.crc32(body)
    if crc_computed != crc_received:
        raise FrameIntegrityError(
            f"frame carries CRC 0x{crc_received:08x}, its bytes give 0x{crc_computed:08x}"
        )
    if n == 0:
        raise FrameFormatError("frame field n_bins is 0; a sweep needs at least one bin")
    if bin_khz == 0:
        raise FrameFormatError("frame field bin_khz is 0; it must be positive")
    # The header's field widths and the bins' signed bytes keep every other
    # value in SensorSweep's ranges.
    payload = bytes(body[_HEADER.size :])  # bytes, for a bytearray or memoryview too
    return _sweep(sensor_id, timestamp_ms, start_khz, bin_khz, payload)


def _lookup(table: tuple, payload: bytes) -> tuple:
    """table's entry for each byte of payload, in one itemgetter call."""
    if len(payload) > 1:
        return operator.itemgetter(*payload)(table)
    return tuple(table[b] for b in payload)  # itemgetter of one index gives the bare item

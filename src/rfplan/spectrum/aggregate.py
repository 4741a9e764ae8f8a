"""Merging sweeps from several sensors into one spectrum.

Two modes:

* max-hold: bin-wise maximum over every sweep seen. Commutative and
  idempotent, so sensor streams may interleave arbitrarily.
* ewma: exponential smoothing per sensor in the mW domain (energies
  average, dB values do not), then a bin-wise max across sensors. Per-sensor
  sweeps must arrive in timestamp order; a sweep older than its sensor's
  previous one is a DomainError.

Both modes read each sweep's frame payload (SensorSweep.payload), the bins
as signed bytes, never the bins as Python ints. Max-hold uses a lone sweep's
payload as it stands and takes numpy's max over two or more sweeps; the
first read of its bins builds them from those bytes through a 256-entry
table of float levels.

aggregate checks every sweep and alpha when it is called, in both modes, but
an EWMA spectrum's levels are computed later, as float64 bytes: on the first
read of its bins, which then builds them from those bytes, or when channel
scoring is handed the spectrum. A spectrum built by hand carries its bins as
float64 bytes from the start. Scoring reads the bytes, so a tick that
aggregates and scores builds no bins tuple. Any real alpha smooths as its float.
select_channel completes every pending spectrum of its mapping in one batch,
in either mode: one recurrence over all their sensors per alpha and bin
count, so the positions of one tick share each numpy step. A lone spectrum
is a batch of one, and the bits do not depend on the batch.

Sweeps also travel as JSON lines for logging and replay, written from the payload too:
one gather of a byte table gives the bins' text of a chunk of sweeps.
"""
from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import MAX_DB, DomainError, _index, _real, _shown, check_alpha, check_items
from ..modes import DEFAULT_EWMA_ALPHA, EWMA, MAX_HOLD
from .frames import _LEVELS, BinGrid, SensorSweep, _BuiltOnFirstRead, _lookup, _new, _setters

# mW of every dBm a bin can hold, indexed by the bin's byte as unsigned. EWMA
# output carries np.power's bits, and those follow the CPU: numpy sends
# np.power's float64 loop to SIMD code, which with AVX-512 differs from the
# scalar pow in the last bit on 14 of these entries and without it on none.
# The pinned EWMA bytes are this table's on AVX-512; np.float_power would give
# the same bits on every CPU, but other bytes there.
_MW_TABLE = 10.0 ** (np.asarray(_LEVELS, dtype=float) / 10.0)
_LEVEL_FLOAT = tuple(map(float, _LEVELS))  # every level as a max-hold bin, indexed alike
# A sweep's line: json.dumps(sweep_record(s)) + "\n" byte for byte, since it keeps json's
# default separators and sweep_record's key order, and SensorSweep makes each field an exact int
_RECORD = '{"sensor_id": %d, "timestamp_ms": %d, "start_khz": %d, "bin_khz": %d, "bins": [%s]}\n'
# A bin's text in a line, indexed alike: ", " and the level's JSON text, NUL-padded
# to 8 bytes; row 256, a newline, ends a sweep. ", -128" needs 6, but numpy's take
# copies an 8-byte row as one word, about three times as fast.
_BIN_TEXT = np.frombuffer(  # read-only, a view of bytes
    b"".join(text.encode().ljust(8, b"\0") for text in [*(f", {b}" for b in _LEVELS), "\n"]),
    np.uint8,
).reshape(257, 8)
_SWEEP_FIELDS = tuple(f.name for f in fields(SensorSweep))  # a record's keys, in order
# the kind of each value json.loads gives, as a document names it
_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}
_CHUNK_BINS = 8192  # bins per gather of _BIN_TEXT; a longer sweep is a chunk alone


class _SpectrumHidden:
    # Slots of this base, not fields: equality, repr and dataclasses.replace
    # never see them. Every spectrum sets all three, None where it has nothing.
    # _levels: a max-hold spectrum's merged levels as int8 bytes (a lone
    # sweep's payload as it stands), which channel scoring reads through its
    # mW table and the first read of bins turns into them through _LEVEL_FLOAT.
    # _pending: an EWMA spectrum's per-sensor payload histories and alpha,
    # until _complete computes its levels and sets it to None. _dbm: the
    # levels of an EWMA spectrum, or the bins of one built by hand, as float64
    # bytes, which scoring reads and the first read of bins turns into them.
    # aggregate leaves the bins slot unset in both modes.
    __slots__ = ("_levels", "_pending", "_dbm")


@dataclass(frozen=True, slots=True)
class AggregatedSpectrum(_SpectrumHidden):
    """Merged view of one position's RF environment on a fixed bin grid.

    A spectrum built by hand is checked: start_khz and bin_khz must be
    integers and are kept as ints, its bins as a tuple and float64 bytes, and every
    bin must be a real number in [-MAX_DB, MAX_DB] dBm, errors.py's dB
    bound, or the DomainError names it. A bin then holds at most 1e100 mW
    and a channel's mask at most 22,000 bins, so an in-channel total stays
    below 2.2e104 mW and a sum of totals over positions stays finite.
    aggregate's bins lie in [-128, 127] dBm; it skips the check.
    """

    position_id: str
    mode: str
    start_khz: int
    bin_khz: int
    bins: tuple[float, ...]
    last_update_ms: Mapping[int, int]

    def __post_init__(self):
        _SET_LEVELS(self, None)
        _SET_PENDING(self, None)
        for name in ("start_khz", "bin_khz"):
            object.__setattr__(self, name, _index(f"spectrum {name}", getattr(self, name)))
        bins = check_items(f"bins at position {self.position_id!r}", self.bins,
                           "a sequence of real numbers")
        _SET_BINS(self, bins)
        for dbm in bins:
            if not (_real(dbm) and -MAX_DB <= dbm <= MAX_DB):
                raise DomainError(
                    f"bin value {_shown(dbm)} at position {self.position_id!r} must be "
                    f"a real number in [{-MAX_DB}, {MAX_DB}] dBm"
                )
        _SET_DBM(self, np.fromiter(bins, float, len(bins)).tobytes())

    def _n_bins(self) -> int:
        """len(self.bins), read from the bytes a spectrum carries without building the bins."""
        if self._levels is not None:
            return len(self._levels)
        if self._dbm is not None:
            return len(self._dbm) // 8  # float64s
        return len(self.bins)  # a pending spectrum completes

    def __reduce__(self):
        # pickle and copy keep the hidden slots, and take a pending spectrum complete
        fields = self.position_id, self.mode, self.start_khz, self.bin_khz, self.last_update_ms
        return _spectrum, (*fields, self.bins, self._levels, None, self._dbm)

    @property
    def grid(self) -> BinGrid:
        return BinGrid(self.start_khz, self.bin_khz, self._n_bins())


(_SET_POSITION_ID, _SET_MODE, _SET_START_KHZ, _SET_BIN_KHZ, _SET_LAST_UPDATE_MS, _SET_BINS,
 _SET_LEVELS, _SET_PENDING, _SET_DBM) = _setters(
    AggregatedSpectrum, "position_id", "mode", "start_khz", "bin_khz", "last_update_ms", "bins",
    "_levels", "_pending", "_dbm",
)


def _built_bins(spectrum: AggregatedSpectrum) -> tuple[float, ...]:
    """The bins from the bytes a spectrum carries, completing a pending one
    first. _complete sets _dbm before it clears _pending, so a thread that
    finds _pending None finds _dbm set."""
    if spectrum._pending is not None:
        _complete((spectrum,))
    if spectrum._levels is not None:
        return _lookup(_LEVEL_FLOAT, spectrum._levels)
    return tuple(np.frombuffer(spectrum._dbm).tolist())


AggregatedSpectrum.bins = _BuiltOnFirstRead(AggregatedSpectrum.bins, _built_bins)


def _spectrum(position_id, mode, start_khz, bin_khz, last_update_ms, bins, levels, pending, dbm):
    """An AggregatedSpectrum of values that pass its checks, one positional set
    per slot, no keyword dict; its bins slot stays unset while bins is None."""
    spectrum = _new(AggregatedSpectrum)
    _SET_POSITION_ID(spectrum, position_id)
    _SET_MODE(spectrum, mode)
    _SET_START_KHZ(spectrum, start_khz)
    _SET_BIN_KHZ(spectrum, bin_khz)
    _SET_LAST_UPDATE_MS(spectrum, last_update_ms)
    if bins is not None:
        _SET_BINS(spectrum, bins)
    _SET_LEVELS(spectrum, levels)
    _SET_PENDING(spectrum, pending)
    _SET_DBM(spectrum, dbm)
    return spectrum


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
    shape = (first.start_khz, first.bin_khz, first._n_bins())
    # One pass checks the grid and groups each sensor's payloads. A sensor's
    # latest timestamp is its last while its sweeps are in order; the first one
    # that is not is reported only for ewma, after the grid check and alpha.
    histories: dict[int, list[bytes]] = {}
    last_update: dict[int, int] = {}
    late = None
    for s in sweeps:
        payload = s._payload  # without the property's call
        if (s.start_khz, s.bin_khz, len(payload)) != shape:
            raise DomainError(
                f"sweeps disagree on the bin grid ({s.grid} vs {first.grid}); "
                "resampling is not supported"
            )
        sensor, t_ms = s.sensor_id, s.timestamp_ms
        prev_ms = last_update.get(sensor, -1)  # -1 precedes every uint64 timestamp
        if prev_ms < 0:
            histories[sensor] = []
        histories[sensor].append(payload)
        if t_ms >= prev_ms:
            last_update[sensor] = t_ms
        elif late is None:
            late = (
                f"ewma needs each sensor's sweeps in timestamp order: sensor "
                f"{sensor} went from {prev_ms} ms back to {t_ms} ms"
            )

    if mode not in (MAX_HOLD, EWMA):
        raise DomainError(f"unknown aggregation mode {mode!r}")
    check_alpha("ewma alpha", alpha)
    if mode == EWMA and late is not None:
        raise DomainError(late)
    start_khz, bin_khz = first.start_khz, first.bin_khz
    if mode == MAX_HOLD:
        peak = payload  # a lone sweep's payload is its peak as it stands
        if len(sweeps) > 1:
            levels = np.frombuffer(b"".join(map(b"".join, histories.values())), np.int8)
            peak = levels.reshape(len(sweeps), -1).max(axis=0).tobytes()
        return _spectrum(position_id, mode, start_khz, bin_khz, last_update, None, peak, None, None)
    # a Fraction or a numpy scalar alpha smooths as its float
    pending = list(histories.values()), float(alpha)
    return _spectrum(position_id, mode, start_khz, bin_khz, last_update, None, None, pending, None)


def _complete(spectra: Iterable[AggregatedSpectrum]) -> None:
    """Compute the levels of every pending spectrum in spectra as its float64
    bytes, _dbm; complete ones are left alone, and no bins tuple is built.

    Per alpha and bin count, one _ewma_mw recurrence runs over every sensor
    of those spectra (select_channel hands it a whole tick) and one log10 over
    all their rows; each spectrum takes the max over its own sensors' rows and
    slices its float64 bytes from the batch's. aggregate made alpha a float.
    """
    batches: dict[tuple[float, int], dict[int, tuple[AggregatedSpectrum, list]]] = {}
    for s in spectra:
        pending = s._pending
        if pending is not None:
            histories, alpha = pending
            key = (alpha, len(histories[0][0]))
            # a spectrum handed twice is computed once
            batches.setdefault(key, {})[id(s)] = s, histories
    for (alpha, _), batch in batches.items():
        members, histories = zip(*batch.values())
        starts = np.cumsum([0, *map(len, histories[:-1])])  # each spectrum's first sensor row
        smoothed_dbm = 10.0 * np.log10(_ewma_mw(list(chain.from_iterable(histories)), alpha))
        merged = np.maximum.reduceat(smoothed_dbm, starts)
        raw, size = merged.tobytes(), merged[0].nbytes  # one copy, sliced per spectrum
        for s, at in zip(members, range(0, len(raw), size)):
            _SET_DBM(s, raw[at : at + size])
            # last: a thread reading the bins meanwhile computes the same bytes itself
            _SET_PENDING(s, None)


def _ewma_mw(histories: list[list[bytes]], alpha: float) -> np.ndarray:
    """Smoothed mW of each history of in-order sweep payloads, one row each, in input order.

    Histories of equal length step together: step r updates all of them at
    once, gathering its mW from _MW_TABLE pre-scaled by alpha into one reused
    buffer. Each bin still gets alpha*p + (1-alpha)*prev exactly.
    """
    by_length: dict[int, list[int]] = {}
    for k, history in enumerate(histories):
        by_length.setdefault(len(history), []).append(k)
    keep = np.array(1.0 - alpha)  # a ufunc takes an array operand faster than a float
    scaled = alpha * _MW_TABLE  # alpha * p of every level, as alpha * each p gives it
    smoothed = np.empty((len(histories), len(histories[0][0])))
    for n_steps, rows in by_length.items():
        group = [histories[k] for k in rows]
        codes = np.frombuffer(b"".join(chain.from_iterable(zip(*group))), np.uint8)
        codes = codes.reshape(n_steps, -1)
        mw = _MW_TABLE.take(codes[0])
        step_mw = np.empty_like(mw)
        for step in codes[1:]:
            mw *= keep
            mw += scaled.take(step, out=step_mw, mode="clip")  # clip: out is not buffered
        smoothed[rows] = mw.reshape(len(rows), -1)
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
    """One JSON record per line; the interchange format for sweep logs.

    Each line is json.dumps(sweep_record(s)) + "\n" byte for byte, its bins
    written from the payload. The sweeps go in chunks of whole sweeps of about
    _CHUNK_BINS bins, so no temporary grows with the log.
    """
    lines: list[str] = []
    chunk: list[SensorSweep] = []
    n_bins = 0
    for s in sweeps:
        chunk.append(s)
        n_bins += s._n_bins()
        if n_bins >= _CHUNK_BINS:
            lines += _record_lines(chunk)
            chunk, n_bins = [], 0
    if chunk:
        lines += _record_lines(chunk)
    return "".join(lines)


def _record_lines(chunk: list[SensorSweep]) -> list[str]:
    """The lines of a chunk of sweeps.

    One take gathers the _BIN_TEXT row of every bin and of every sweep's end;
    dropping the NULs and splitting at the ends leaves each sweep's bins text
    after a ", ".
    """
    payloads = [s._payload for s in chunk]  # without the property's call
    codes = np.frombuffer(b"\0".join([*payloads, b""]), np.uint8).astype(np.intp)
    codes[np.cumsum([len(p) + 1 for p in payloads]) - 1] = 256
    text = _BIN_TEXT.take(codes, axis=0).tobytes().translate(None, b"\0").decode()
    return [
        _RECORD % (s.sensor_id, s.timestamp_ms, s.start_khz, s.bin_khz, bins[2:])
        for s, bins in zip(chunk, text.split("\n"))
    ]


def _json_record(value, record, strict: bool = True, arrays: Sequence[tuple] = ()) -> dict:
    """value, a JSON object, as a dict of the dataclass record's fields, the
    items of each (key, record) of arrays built; a DomainError names what is
    wrong, after key[index] for an item's."""
    if type(value) is not dict:
        raise DomainError(f"expected a JSON object, got {_JSON_KINDS[type(value)]}")
    required = {f.name: f.default is MISSING for f in fields(record)}
    if missing := [name for name, needed in required.items() if needed and name not in value]:
        raise DomainError(f"missing field {missing[0]!r}")
    if strict and (unknown := [key for key in value if key not in required]):
        raise DomainError(f"unknown field {unknown[0]!r}")
    for key, item in arrays:  # an omitted array is empty
        if type(items := value.get(key, [])) is not list:
            raise DomainError(f"{key} must be an array, got {_JSON_KINDS[type(items)]}")
        built = []
        for index, v in enumerate(items):
            try:
                built.append(item(**_json_record(v, item)))
            except DomainError as exc:
                raise DomainError(f"{key}[{index}]: {exc}") from exc
        value[key] = tuple(built)
    return value


def sweeps_from_jsonl(text: str) -> list[SensorSweep]:
    sweeps = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = _json_record(json.loads(line), SensorSweep, strict=False)
            sweeps.append(SensorSweep(*(rec[name] for name in _SWEEP_FIELDS)))
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            raise DomainError(f"bad sweep record on line {lineno}: {exc}") from exc
    return sweeps

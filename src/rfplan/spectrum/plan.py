"""Channel scoring and selection over aggregated spectra.

Built-in channel selectors on consumer access points score the air only
where the AP sits. The selector here can also fold in spectra measured at
the client positions, so an emitter audible only near one client still
steers the decision: ap-only mode reproduces the AP-local baseline,
client-aware mode the proposed improvement.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import ALL_CHANNELS, DomainError, check_channel
from ..modes import AP_ONLY, CLIENT_AWARE, MINIMAX, WEIGHTED_SUM
from .aggregate import AggregatedSpectrum, _complete
from .frames import _LEVELS, BinGrid, _BuiltOnFirstRead, _new, _setters

# position id of the access point's own spectrum
AP_ID = "ap"

# 2.4 GHz (802.11b/g) channel plan; channel energy is approximated by a flat
# +-11 MHz mask around the center, deliberately a touch conservative.
CHANNEL_HALF_WIDTH_KHZ = 11_000
PREFERRED_CHANNELS = frozenset({1, 6, 11})

# mW of every level a max-hold bin can hold, indexed by the bin's byte as
# unsigned: the scalar 10.0 ** (dbm / 10.0) of each. np.float_power's float64
# loop calls the C library's pow, as 10.0 ** x does; np.power's need not.
_SCALAR_MW = np.float_power(10.0, np.array(_LEVELS, dtype=float) / 10.0)


def channel_center_khz(channel: int) -> int:
    """Center frequency of a 2.4 GHz channel: 2407 + 5*ch MHz, ch 14 at 2484."""
    channel = check_channel("channel", channel)
    return 2_484_000 if channel == 14 else (2407 + 5 * channel) * 1000


def channel_power_mw(spectrum: AggregatedSpectrum, channel: int) -> float:
    """Total in-channel power: sum of bin powers whose centers fall in the mask."""
    if not isinstance(spectrum, AggregatedSpectrum):
        raise DomainError(f"channel power needs a spectrum, got {type(spectrum).__name__}")
    return float(_in_channel_mw([spectrum], [channel])[0, 0])


def _in_channel_mw(spectra: Sequence[AggregatedSpectrum], channels: Sequence[int]) -> np.ndarray:
    """In-channel power of each channel (rows) at each spectrum (columns).

    It first completes every pending EWMA spectrum it is handed, in one batch
    (aggregate._complete; select_channel has already completed its whole
    mapping), then refuses spectra on two bin grids, as aggregate refuses
    sweeps on two. Each total adds its bins' scalar 10.0 ** (dbm / 10.0) left
    to right: numpy sums pairwise and sum() is compensated from Python 3.12, so
    either would change the last bits of a total. The powers come from
    np.float_power, which calls the C library's pow as 10.0 ** x does, bit for
    bit; np.power dispatches to SIMD code that can differ in the last bit.
    Spectra that all carry max-hold levels read those powers from _SCALAR_MW,
    which is faster than computing them. Otherwise every spectrum gives a row
    of float64 dBm: its carried bytes, or a max-hold spectrum's int8 levels as
    floats, which equal its bins bit for bit. Neither path builds a bins
    tuple, nor does the grid check, which reads each bin count from the
    bytes. _scoring_index, cached by the grid and channel centres, gives the
    bins each mask adds.
    Every total is finite: AggregatedSpectrum bounds its bins.
    """
    centers = tuple(channel_center_khz(ch) for ch in channels)
    _complete(spectra)
    first = spectra[0]
    # ints only, as AggregatedSpectrum keeps them: lru_cache takes 2400000.0 for 2400000
    shape = (first.start_khz, first.bin_khz, first._n_bins())
    for s in spectra:
        if (s.start_khz, s.bin_khz, s._n_bins()) != shape:
            raise DomainError(
                f"spectra disagree on the bin grid ({s.position_id!r} on {s.grid} vs "
                f"{first.position_id!r} on {first.grid}); resampling is not supported"
            )
    lo, hi, index = _scoring_index(shape, centers)
    # every bin any mask holds, then a zero column: padding a short mask
    # with it adds 0.0 after its last term, which changes nothing
    mw = np.zeros((len(spectra), hi - lo + 1))
    levels = [s._levels for s in spectra]
    if None not in levels:
        codes = np.frombuffer(b"".join(levels), np.uint8).reshape(len(spectra), -1)
        mw[:, :-1] = _SCALAR_MW[codes[:, lo:hi]]
    else:
        rows = [s._dbm if s._dbm is not None else np.frombuffer(s._levels, np.int8).astype(float)
                for s in spectra]
        dbm = np.frombuffer(b"".join(rows)).reshape(len(spectra), -1)
        mw[:, :-1] = np.float_power(10.0, dbm[:, lo:hi] / 10.0)
    totals = np.zeros((len(centers), len(spectra)))
    for term in mw.T[index]:
        totals += term
    return totals


@lru_cache(maxsize=16)
def _scoring_index(shape: tuple[int, int, int], centers: tuple[int, ...]):
    """(lo, hi, index) on the grid (start_khz, bin_khz, n_bins): the bins lo:hi
    that any channel's mask holds, and the read-only step x channel array of
    each mask's bins, counted from lo, padded with hi - lo, the zero column
    past them.

    The masks are formed in channel order, so the first channel the grid
    does not cover is the one named. An uncovered grid raises, which
    lru_cache does not cache, so every call that meets it raises again.
    """
    grid = BinGrid(*shape)
    masks = [grid.span(c - CHANNEL_HALF_WIDTH_KHZ, c + CHANNEL_HALF_WIDTH_KHZ) for c in centers]
    starts = np.array([mask.start for mask in masks])
    lengths = np.array([max(0, mask.stop - mask.start) for mask in masks])
    lo = int(starts.min())
    hi = max(lo, max(mask.stop for mask in masks))
    steps = np.arange(lengths.max())[:, None]
    index = np.where(steps < lengths, starts - lo + steps, hi - lo)
    index.flags.writeable = False
    return lo, hi, index


class _ScoreHidden:
    # Slots of this base, not fields: equality, repr and dataclasses.replace
    # never see them. A score of select_channel carries its positions and its
    # numpy row of in-channel powers, and the first read of per_position_mw
    # builds the map from them (_BuiltOnFirstRead); any other score sets both
    # to None and holds its map from the start.
    __slots__ = ("_positions", "_row")


@dataclass(frozen=True, slots=True)
class ChannelScore(_ScoreHidden):
    per_position_mw: Mapping[str, float]
    objective: float

    def __post_init__(self):
        _SET_POSITIONS(self, None)
        _SET_ROW(self, None)

    def __reduce__(self):
        # pickle and copy carry the map, built, and no row
        return ChannelScore, (self.per_position_mw, self.objective)


_SET_OBJECTIVE, _SET_POSITIONS, _SET_ROW = _setters(ChannelScore, "objective", "_positions", "_row")
ChannelScore.per_position_mw = _BuiltOnFirstRead(
    ChannelScore.per_position_mw, lambda score: dict(zip(score._positions, score._row.tolist()))
)


def _score(objective, positions, row) -> ChannelScore:
    """A score of select_channel, one positional set per slot, no keyword
    dict; its per_position_mw slot stays unset until its first read."""
    score = _new(ChannelScore)
    _SET_OBJECTIVE(score, objective)
    _SET_POSITIONS(score, positions)
    _SET_ROW(score, row)
    return score


@dataclass(frozen=True)
class ChannelPlan:
    chosen_channel: int
    per_channel_scores: Mapping[int, ChannelScore]
    mode: str


def select_channel(
    spectra: Mapping[str, AggregatedSpectrum],
    mode: str = CLIENT_AWARE,
    candidates: Iterable[int] | None = None,
    objective: str = MINIMAX,
) -> ChannelPlan:
    """Pick the channel minimizing in-channel interference over positions.

    ap-only scores only the spectrum at AP_ID; client-aware scores the AP
    plus every client position. In either mode, every pending spectrum of
    the mapping is completed first, in one batch: callers score a tick
    ap-only and then client-aware. The objective is the worst position's
    in-channel power (minimax) or the plain, unweighted sum over positions
    (weighted-sum). Every candidate is scored exhaustively; ties fall to the
    lower AP-local power, then to channels {1, 6, 11}, then to the lowest number.
    Each score builds its per_position_mw map on the map's first read.
    """
    channels = tuple(candidates) if candidates is not None else ALL_CHANNELS
    if not channels:
        raise DomainError("no candidate channels to choose from")
    for ch in channels:
        channel_center_khz(ch)  # validates the range
    if AP_ID not in spectra:
        raise DomainError(f"no spectrum for the access-point position {AP_ID!r}")
    if mode == AP_ONLY:
        positions: Sequence[str] = (AP_ID,)
    elif mode == CLIENT_AWARE:
        if len(spectra) < 2:
            raise DomainError("client-aware selection needs at least one client spectrum")
        positions = tuple(spectra)
    else:
        raise DomainError(f"unknown selection mode {mode!r}")
    if objective not in (MINIMAX, WEIGHTED_SUM):
        raise DomainError(f"unknown objective {objective!r}")
    for pos, spectrum in spectra.items():
        if not isinstance(spectrum, AggregatedSpectrum):
            raise DomainError(f"position {pos!r} holds {type(spectrum).__name__}, not a spectrum")
    _complete(spectra.values())

    in_channel = _in_channel_mw([spectra[pos] for pos in positions], channels)
    if objective == MINIMAX:
        values = in_channel.max(axis=1).tolist()  # a max is exact
    else:
        # left to right, as sum() did before Python 3.12 compensated it
        values = [reduce(add, row, 0.0) for row in in_channel.tolist()]
    scores = {
        ch: _score(value, positions, row) for ch, value, row in zip(channels, values, in_channel)
    }
    ap_mw = in_channel[:, positions.index(AP_ID)].tolist()
    preference = [0 if ch in PREFERRED_CHANNELS else 1 for ch in channels]
    chosen = min(zip(values, ap_mw, preference, channels))[3]
    return ChannelPlan(chosen_channel=chosen, per_channel_scores=scores, mode=mode)

"""Channel scoring and selection over aggregated spectra.

Built-in channel selectors on consumer access points score the air only
where the AP sits. The selector here can also fold in spectra measured at
the client positions, so an emitter audible only near one client still
steers the decision: ap-only mode reproduces the AP-local baseline,
client-aware mode the proposed improvement.
"""
from __future__ import annotations

import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import DomainError
from ..modes import AP_ONLY, CLIENT_AWARE, MINIMAX, WEIGHTED_SUM
from .aggregate import AggregatedSpectrum
from .frames import _LEVELS, BinGrid, _index

# position id of the access point's own spectrum
AP_ID = "ap"

# 2.4 GHz (802.11b/g) channel plan; channel energy is approximated by a flat
# +-11 MHz mask around the center, deliberately a touch conservative.
CHANNEL_HALF_WIDTH_KHZ = 11_000
CHANNEL_MASK_KHZ = 22_000
CHANNEL_STEP_KHZ = 5_000
ALL_CHANNELS: tuple[int, ...] = tuple(range(1, 15))
PREFERRED_CHANNELS = frozenset({1, 6, 11})

# mW of every level a max-hold bin can hold, indexed by the bin's byte as
# unsigned: the scalar 10.0 ** (dbm / 10.0) of each. np.float_power's float64
# loop calls the C library's pow, as 10.0 ** x does; np.power's need not.
_SCALAR_MW = np.float_power(10.0, np.array(_LEVELS, dtype=float) / 10.0)


def channel_center_khz(channel: int) -> int:
    """Center frequency of a 2.4 GHz channel: 2407 + 5*ch MHz, ch 14 at 2484."""
    channel = _index("channel", channel)
    if channel == 14:
        return 2_484_000
    if 1 <= channel <= 13:
        return (2407 + 5 * channel) * 1000
    raise DomainError(f"channel must lie in 1..14, got {channel}")


def channel_power_mw(spectrum: AggregatedSpectrum, channel: int) -> float:
    """Total in-channel power: sum of bin powers whose centers fall in the mask."""
    return float(_in_channel_mw([spectrum], [channel])[0, 0])


def _in_channel_mw(spectra: Sequence[AggregatedSpectrum], channels: Sequence[int]) -> np.ndarray:
    """In-channel power of each channel (rows) at each spectrum (columns).

    Each total adds its bins' scalar 10.0 ** (dbm / 10.0) left to right:
    numpy sums pairwise and sum() is compensated from Python 3.12, so either
    would change the last bits of a total. The powers come from
    np.float_power, which calls the C library's pow as 10.0 ** x does, bit
    for bit; np.power dispatches to SIMD code that can differ in the last
    bit. A grid's spectra that all carry max-hold levels read those powers
    from _SCALAR_MW, which is faster than computing them.
    """
    centers = [channel_center_khz(ch) for ch in channels]
    shapes: dict[tuple[int, int, int], list[int]] = {}  # the spectra on each grid, by first use
    for k, s in enumerate(spectra):
        shapes.setdefault((s.start_khz, s.bin_khz, len(s.bins)), []).append(k)
    members = {BinGrid(*shape): on_grid for shape, on_grid in shapes.items()}
    # channel by channel, then grid by first use, so the first grid that does
    # not cover a channel is the one the spectrum-by-spectrum order meets first
    masks: dict[BinGrid, list[slice]] = {grid: [] for grid in members}
    for center in centers:
        for grid, grid_masks in masks.items():
            grid_masks.append(
                grid.span(center - CHANNEL_HALF_WIDTH_KHZ, center + CHANNEL_HALF_WIDTH_KHZ)
            )
    totals = np.empty((len(channels), len(spectra)))
    for grid, on_grid in members.items():
        starts = np.array([mask.start for mask in masks[grid]])
        lengths = np.array([max(0, mask.stop - mask.start) for mask in masks[grid]])
        lo = int(starts.min())
        hi = max(lo, max(mask.stop for mask in masks[grid]))
        # every bin any mask holds, then a zero column: padding a short mask
        # with it adds 0.0 after its last term, which changes nothing
        mw = np.zeros((len(on_grid), hi - lo + 1))
        levels = [spectra[k]._levels for k in on_grid]
        if None not in levels:
            codes = np.frombuffer(b"".join(levels), np.uint8).reshape(len(on_grid), -1)
            mw[:, :-1] = _SCALAR_MW[codes[:, lo:hi]]
        else:
            dbms = [spectra[k].bins[lo:hi] for k in on_grid]
            try:
                dbm = np.fromiter(chain.from_iterable(dbms), float, len(on_grid) * (hi - lo))
                with np.errstate(over="ignore"):  # past about 3083 dBm: the check below names it
                    scalar = np.float_power(10.0, dbm / 10.0)
            except OverflowError:  # an int bin past the float range, whatever its sign: inf
                scalar = np.fromiter(map(_mw_or_inf, chain.from_iterable(dbms)), float)
            mw[:, :-1] = scalar.reshape(len(on_grid), hi - lo)
        steps = np.arange(lengths.max())[:, None]
        index = np.where(steps < lengths, starts - lo + steps, hi - lo)  # step x channel
        total = np.zeros((len(centers), len(on_grid)))
        # while every term stays under half of float_max / terms per total, no
        # total can round past the float range; past that, or at nan, the sums
        # are guarded and checked
        bounded = mw.max() < sys.float_info.max / (2 * max(1, len(steps)))
        with nullcontext() if bounded else np.errstate(over="ignore"):
            for term in mw.T[index]:
                total += term
        if not (bounded or np.isfinite(total).all()):
            raise _non_finite_total([spectra[k] for k in on_grid], channels, total)
        totals[:, on_grid] = total
    return totals


def _mw_or_inf(dbm: float) -> float:
    try:
        return 10.0 ** (dbm / 10.0)
    except OverflowError:
        return math.inf


def _non_finite_total(
    spectra: Sequence[AggregatedSpectrum], channels: Sequence[int], totals: np.ndarray
) -> DomainError:
    """The first non-finite total, channel by channel, named by the bin that makes it so."""
    row, column = np.argwhere(~np.isfinite(totals))[0].tolist()  # row-major: channel first
    spectrum, channel = spectra[column], channels[row]
    center = channel_center_khz(channel)
    mask = spectrum.grid.span(center - CHANNEL_HALF_WIDTH_KHZ, center + CHANNEL_HALF_WIDTH_KHZ)
    total = 0.0
    for dbm in spectrum.bins[mask]:
        total += _mw_or_inf(dbm)
        if not math.isfinite(total):
            return DomainError(
                f"bin value {dbm!r} at position {spectrum.position_id!r} makes the "
                f"in-channel power of channel {channel} non-finite"
            )
    raise AssertionError("every in-channel total is finite")


def overlap_weight(channel_distance: int) -> float:
    """Fraction of the 22 MHz mask shared by channels this many steps apart.

    Triangular falloff on the 5 MHz grid; zero from distance 5 up, the
    classic non-overlapping spacing.
    """
    if channel_distance < 0:
        raise DomainError(f"channel distance must be non-negative, got {channel_distance}")
    return max(0.0, (CHANNEL_MASK_KHZ - CHANNEL_STEP_KHZ * channel_distance) / CHANNEL_MASK_KHZ)


@dataclass(frozen=True)
class ChannelScore:
    per_position_mw: Mapping[str, float]
    objective: float


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
    plus every client position. The objective is the worst position's
    in-channel power (minimax) or the plain, unweighted sum over positions
    (weighted-sum). Every candidate is scored
    exhaustively; ties fall to the lower AP-local power, then to channels
    {1, 6, 11}, then to the lowest number.
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

    in_channel = _in_channel_mw([spectra[pos] for pos in positions], channels)
    scores: dict[int, ChannelScore] = {}
    ranking = []
    for ch, row in zip(channels, in_channel.tolist()):
        per_position = dict(zip(positions, row))
        if objective == MINIMAX:
            value = max(row)
        else:
            # left to right, as sum() did before Python 3.12 compensated it
            value = reduce(add, row, 0.0)
            if not math.isfinite(value):
                raise DomainError(
                    f"the sum of channel {ch}'s in-channel powers over {len(row)} "
                    "positions leaves the float range"
                )
        scores[ch] = ChannelScore(per_position_mw=per_position, objective=value)
        ranking.append(
            (value, per_position[AP_ID], 0 if ch in PREFERRED_CHANNELS else 1, ch)
        )

    chosen = min(ranking)[3]
    return ChannelPlan(chosen_channel=chosen, per_channel_scores=scores, mode=mode)

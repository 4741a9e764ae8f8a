import random
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfplan.errors import DomainError
from rfplan.spectrum import (
    BinGrid,
    FrameError,
    FrameFormatError,
    FrameIntegrityError,
    FrameTruncationError,
    SensorSweep,
    encode_frame,
    parse_frame,
)

GOLDEN_SWEEP = SensorSweep(
    sensor_id=1, timestamp_ms=0, start_khz=2_400_000, bin_khz=1000, bins=(-90,)
)

grids = st.builds(
    BinGrid,
    start_khz=st.integers(min_value=0, max_value=2**32 - 1),
    bin_khz=st.integers(min_value=1, max_value=2**16 - 1),
    n_bins=st.integers(min_value=1, max_value=2**16 - 1),
)


@st.composite
def covered_windows(draw):
    grid = draw(grids)

    def edge():
        # anywhere on the grid, or within 1 kHz of a bin center
        i = draw(st.integers(min_value=0, max_value=grid.n_bins - 1))
        near = grid.start_khz + (2 * i + 1) * grid.bin_khz // 2 + draw(st.integers(-1, 1))
        anywhere = draw(st.integers(min_value=grid.start_khz, max_value=grid.stop_khz))
        return min(max(draw(st.sampled_from((near, anywhere))), grid.start_khz), grid.stop_khz)

    lo, hi = sorted((edge(), edge()))
    return grid, lo, hi


@given(covered_windows())
def test_bin_grid_span_matches_center_predicate(case):
    grid, lo, hi = case
    inside = [
        i for i in range(grid.n_bins)
        if lo <= grid.start_khz + (i + 0.5) * grid.bin_khz <= hi
    ]
    assert list(range(grid.n_bins))[grid.span(lo, hi)] == inside


@given(grids, st.integers(min_value=1, max_value=2**20), st.booleans())
def test_bin_grid_span_rejects_uncovered_windows(grid, overshoot, below):
    lo = grid.start_khz - overshoot if below else grid.start_khz
    hi = grid.stop_khz if below else grid.stop_khz + overshoot
    with pytest.raises(DomainError, match="does not cover") as info:
        grid.span(lo, hi)
    assert f"[{grid.start_khz}, {grid.stop_khz}]" in str(info.value)
    assert f"[{lo}, {hi}]" in str(info.value)


# frozen at build time from the layout: magic "WX", version 1, id 1,
# t 0, start 2400000, bin 1000, n 1, payload 0xA6 (-90), crc32
GOLDEN_FRAME = bytes.fromhex("57580101000000000000000000009f2400e8030100a69bff0f7f")


def test_golden_frame_bytes():
    frame = encode_frame(GOLDEN_SWEEP)
    assert frame == GOLDEN_FRAME
    assert len(frame) == 26
    assert frame[:5] == bytes.fromhex("5758010100")


def test_golden_frame_round_trip():
    assert parse_frame(GOLDEN_FRAME) == GOLDEN_SWEEP


def test_parse_rejects_bad_magic():
    frame = bytearray(GOLDEN_FRAME)
    frame[0] = 0x00
    with pytest.raises(FrameFormatError):
        parse_frame(bytes(frame))


def test_parse_rejects_bad_version():
    frame = bytearray(GOLDEN_FRAME)
    frame[2] = 2
    with pytest.raises(FrameFormatError):
        parse_frame(bytes(frame))


def test_parse_rejects_truncation():
    with pytest.raises(FrameTruncationError):
        parse_frame(GOLDEN_FRAME[:5])
    with pytest.raises(FrameTruncationError):
        parse_frame(GOLDEN_FRAME[:-1])
    with pytest.raises(FrameTruncationError):
        parse_frame(b"")


def test_parse_rejects_trailing_bytes():
    with pytest.raises(FrameFormatError):
        parse_frame(GOLDEN_FRAME + b"\x00")


def test_parse_rejects_payload_corruption():
    frame = bytearray(GOLDEN_FRAME)
    frame[21] ^= 0xFF  # the single dBm byte
    with pytest.raises(FrameIntegrityError):
        parse_frame(bytes(frame))


def test_error_types_are_distinguishable_and_domain_errors():
    for exc in (FrameFormatError, FrameTruncationError, FrameIntegrityError):
        assert issubclass(exc, FrameError)
        assert issubclass(exc, DomainError)
    assert not issubclass(FrameFormatError, FrameIntegrityError)


def test_single_bit_corruption_always_rejected():
    # every bit of every byte, exhaustively
    for position in range(len(GOLDEN_FRAME)):
        for bit in range(8):
            frame = bytearray(GOLDEN_FRAME)
            frame[position] ^= 1 << bit
            with pytest.raises(FrameError):
                parse_frame(bytes(frame))


def test_sweep_validation():
    with pytest.raises(DomainError):
        SensorSweep(1, 0, 2_400_000, 1000, bins=())
    with pytest.raises(DomainError):
        SensorSweep(1, 0, 2_400_000, 1000, bins=(-200,))
    with pytest.raises(DomainError):
        SensorSweep(1, 0, 2_400_000, 0, bins=(-90,))
    with pytest.raises(DomainError):
        SensorSweep(-1, 0, 2_400_000, 1000, bins=(-90,))
    with pytest.raises(DomainError):
        SensorSweep(1 << 16, 0, 2_400_000, 1000, bins=(-90,))


def test_sweep_names_the_first_bin_out_of_range():
    with pytest.raises(DomainError, match=r"^bin value 128 outside signed 8-bit range$"):
        SensorSweep(1, 0, 2_400_000, 1000, bins=(-90, 128, 0, -129))
    with pytest.raises(DomainError, match=r"^bin value -129 outside signed 8-bit range$"):
        SensorSweep(1, 0, 2_400_000, 1000, bins=(-90, -129, 0, 128))


def test_encode_rejects_oversized_sweep():
    sweep = SensorSweep(1, 0, 2_400_000, 1, bins=(0,) * 70_000)
    with pytest.raises(DomainError):
        encode_frame(sweep)


sweeps = st.builds(
    SensorSweep,
    sensor_id=st.integers(min_value=0, max_value=0xFFFF),
    timestamp_ms=st.integers(min_value=0, max_value=2**64 - 1),
    start_khz=st.integers(min_value=0, max_value=2**32 - 1),
    bin_khz=st.integers(min_value=1, max_value=0xFFFF),
    bins=st.lists(
        st.integers(min_value=-128, max_value=127), min_size=1, max_size=300
    ).map(tuple),
)


@given(sweeps)
def test_round_trip_any_sweep(sweep):
    assert parse_frame(encode_frame(sweep)) == sweep


@given(sweeps)
def test_encode_after_parse_is_identity_on_frames(sweep):
    frame = encode_frame(sweep)
    assert encode_frame(parse_frame(frame)) == frame


def test_bulk_random_round_trips():
    rng = random.Random(20240229)
    for _ in range(2_000):
        sweep = SensorSweep(
            sensor_id=rng.randrange(0, 1 << 16),
            timestamp_ms=rng.randrange(0, 1 << 64),
            start_khz=rng.randrange(0, 1 << 32),
            bin_khz=rng.randrange(1, 1 << 16),
            bins=tuple(rng.randrange(-128, 128) for _ in range(rng.randrange(1, 40))),
        )
        assert parse_frame(encode_frame(sweep)) == sweep


@pytest.mark.parametrize(
    ("field", "value", "named"),
    [
        ("sensor_id", 1.5, "sensor_id"),
        ("timestamp_ms", 0.5, "timestamp_ms"),
        ("start_khz", "2400000", "start_khz"),
        ("bin_khz", None, "bin_khz"),
        ("bins", (-60.7, -50), "bin value"),
        ("bins", (-60.0,), "bin value"),
        ("bins", "ab", "bin value"),
        ("bins", (float("inf"),), "bin value"),
        ("bins", (True, -50), "bin value"),
        ("sensor_id", True, "sensor_id"),
        ("timestamp_ms", False, "timestamp_ms"),
    ],
)
def test_sweep_rejects_non_integer_fields(field, value, named):
    fields = dict(sensor_id=1, timestamp_ms=0, start_khz=2_400_000, bin_khz=1000, bins=(-60,))
    fields[field] = value
    bad = value[0] if field == "bins" else value
    with pytest.raises(DomainError, match=re.escape(f"{named} must be an integer, got {bad!r}")):
        SensorSweep(**fields)


def test_sweep_stores_numpy_integers_as_int():
    sweep = SensorSweep(
        sensor_id=np.uint16(1),
        timestamp_ms=np.int64(0),
        start_khz=np.uint32(2_400_000),
        bin_khz=np.int32(1000),
        bins=np.array([-60, -50], dtype=np.int8),
    )
    values = (sweep.sensor_id, sweep.timestamp_ms, sweep.start_khz, sweep.bin_khz, *sweep.bins)
    assert all(type(v) is int for v in values)
    assert sweep == SensorSweep(1, 0, 2_400_000, 1000, (-60, -50))
    assert parse_frame(encode_frame(sweep)) == sweep

import copy
import dataclasses
import json
import operator
import random
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli import float_scenario_documents

from rfplan.errors import DomainError
from rfplan.spectrum import (
    BinGrid,
    FrameError,
    FrameFormatError,
    FrameIntegrityError,
    FrameTruncationError,
    Emitter,
    Scenario,
    SensorSweep,
    default_sensor_layout,
    encode_frame,
    parse_frame,
    scenario_from_json,
    simulate_sweeps,
    sweep_record,
    sweeps_from_jsonl,
    sweeps_to_jsonl,
)
from rfplan.spectrum.aggregate import _CHUNK_BINS

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


def crc_framed(sensor_id, timestamp_ms, start_khz, bin_khz, n_bins, payload):
    """A frame with any header values and a valid CRC."""
    body = struct.pack(
        "<2sBHQIHH", b"WX", 1, sensor_id, timestamp_ms, start_khz, bin_khz, n_bins
    ) + payload
    return body + struct.pack("<I", zlib.crc32(body))


def test_parse_names_a_zero_bin_count():
    with pytest.raises(FrameFormatError, match=r"^frame field n_bins is 0; "):
        parse_frame(crc_framed(1, 0, 2_400_000, 1000, 0, b""))


def test_parse_names_a_zero_bin_width():
    with pytest.raises(FrameFormatError, match=r"^frame field bin_khz is 0; "):
        parse_frame(crc_framed(1, 0, 2_400_000, 0, 1, b"\xa6"))


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


@pytest.mark.parametrize("bins", [5, None, 1.5])
def test_sweep_names_bins_that_are_not_a_sequence(bins):
    message = f"sweep bins must be a sequence of integers, got {bins!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        SensorSweep(0, 0, 1, 1, bins)


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


def packed(sweep):
    return struct.pack(f"<{len(sweep.bins)}b", *sweep.bins)


def by_value(sweep):
    """The same sweep built field by field from a tuple of ints."""
    return SensorSweep(
        sweep.sensor_id, sweep.timestamp_ms, sweep.start_khz, sweep.bin_khz, tuple(sweep.bins)
    )


@given(sweeps, st.lists(st.integers(-128, 127), min_size=1, max_size=300).map(tuple))
def test_payload_is_the_packed_bins_from_every_source(sweep, other_bins):
    parsed = parse_frame(encode_frame(sweep))
    sources = [
        sweep,
        parsed,
        *sweeps_from_jsonl(sweeps_to_jsonl([sweep])),
        dataclasses.replace(sweep, timestamp_ms=0),
        dataclasses.replace(parsed, timestamp_ms=0),
        dataclasses.replace(parsed, bins=other_bins),
        dataclasses.replace(sweep, bins=other_bins),
    ]
    for source in sources:
        assert type(source.payload) is bytes
        assert source.payload == packed(source)
        assert encode_frame(source) == encode_frame(by_value(source))


def test_encode_leaves_a_hand_built_sweep_as_it_was():
    # a sweep from ints packs its payload once, when built, and encoding
    # reads that payload without touching any slot
    sweep = SensorSweep(1, 0, 2_400_000, 1000, bins=(-90, -40, 7))
    assert sweep._payload == packed(sweep) == b"\xa6\xd8\x07"
    slots = ("_payload", *(f.name for f in dataclasses.fields(sweep)))
    before = [getattr(sweep, name) for name in slots]
    encode_frame(sweep)
    assert all(getattr(sweep, name) is value for name, value in zip(slots, before))


@given(
    seed=st.integers(0, 2**64 - 1),
    sigma=st.floats(0.0, 30.0),
    floor=st.floats(-140.0, 140.0),
    emitters=st.lists(
        st.builds(
            Emitter,
            channel=st.integers(1, 14),
            tx_power_dbm=st.floats(-100.0, 200.0),
            x=st.floats(-100.0, 100.0),
            y=st.floats(-100.0, 100.0),
        ),
        max_size=4,
    ),
    positions=st.lists(
        st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)), min_size=1, max_size=4
    ),
)
def test_simulated_payload_is_the_packed_bins(seed, sigma, floor, emitters, positions):
    scenario = Scenario(
        ap_position=(0.0, 0.0),
        emitters=tuple(emitters),
        noise_floor_dbm=floor,
        shadowing_sigma_db=sigma,
        seed=seed,
    )
    for sweep in simulate_sweeps(scenario, positions, t_ms=5):
        assert type(sweep.payload) is bytes
        assert sweep.payload == packed(sweep)
        assert encode_frame(sweep) == encode_frame(by_value(sweep))
        replaced = dataclasses.replace(sweep, bins=sweep.bins[::-1])
        assert replaced.payload == packed(replaced)


def json_line(sweep):
    # as bytes, since pytest's diff of two long lines of text takes minutes
    return (json.dumps(sweep_record(sweep)) + "\n").encode()


@given(sweeps)
@example(SensorSweep(0, 0, 0, 1, (0,)))
@example(SensorSweep(0xFFFF, 2**64 - 1, 2**32 - 1, 0xFFFF, (-128,)))
@example(SensorSweep(0xFFFF, 2**64 - 1, 2**32 - 1, 0xFFFF, (127, -128)))
# the largest frame, every level in it
@example(SensorSweep(1, 2, 3, 4, tuple(i % 256 - 128 for i in range(0xFFFF))))
def test_jsonl_writer_is_json_dumps_of_the_record(sweep):
    parsed = parse_frame(encode_frame(sweep))
    for source in (sweep, parsed, *sweeps_from_jsonl(json_line(sweep).decode())):
        assert sweeps_to_jsonl([source]).encode() == json_line(source)
    # parsed sweeps share their bin ints
    assert all(map(operator.is_, parsed.bins, parse_frame(encode_frame(sweep)).bins))


def test_jsonl_writer_takes_one_and_two_bin_payloads_whole():
    # every level in one-bin and two-bin sweeps, parsed so that they carry
    # their payload: each bin's text lies next to a sweep's end in the text
    # the writer gathers and splits
    levels = range(-128, 128)
    sweeps = [SensorSweep(7, 9, 2_400_000, 1_000, (b,)) for b in levels] + [
        SensorSweep(7, 9, 2_400_000, 1_000, (b, -1 - b)) for b in levels
    ]
    parsed = [parse_frame(encode_frame(s)) for s in sweeps]
    assert sweeps_to_jsonl(parsed) == "".join(json.dumps(sweep_record(s)) + "\n" for s in sweeps)


@settings(deadline=None)
@given(document=float_scenario_documents, t_ms=st.integers(0, 2**64 - 1))
def test_jsonl_writer_is_json_dumps_of_simulated_records(document, t_ms):
    try:
        scenario = scenario_from_json(json.dumps(document))
        simulated = simulate_sweeps(scenario, default_sensor_layout(scenario)[1], t_ms=t_ms)
    except DomainError:
        return  # the CLI tests cover the documents the simulator refuses
    assert sweeps_to_jsonl(simulated).encode() == b"".join(map(json_line, simulated))


def sweep_of(kind, sensor_id, n_bins, seed):
    """A sweep of n_bins seeded levels, built by hand or parsed from its frame."""
    bins = tuple(np.random.default_rng(seed).integers(-128, 128, n_bins).tolist())
    sweep = SensorSweep(sensor_id, seed, 2_400_000 + seed % 1000, 1 + seed % 0xFFFF, bins)
    return parse_frame(encode_frame(sweep)) if kind == "parsed" else sweep


@st.composite
def mixed_logs(draw):
    """A log of parsed, simulated and hand-built sweeps of 1 to 0xFFFF bins."""
    log = []
    for k in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["hand", "parsed", "simulated"]))
        seed = draw(st.integers(0, 2**32 - 1))
        if kind == "simulated":
            scenario = Scenario(
                ap_position=(0.0, 0.0), emitters=(Emitter(6, 20.0, 3.0, 4.0),),
                shadowing_sigma_db=6.0, seed=seed,
            )
            log += simulate_sweeps(scenario, [(0.0, 0.0), (30.0, 40.0)], t_ms=seed)
        else:
            # mostly under a chunk's bins, but any count a frame holds
            n_bins = draw(st.one_of(st.integers(1, 300), st.integers(1, 0xFFFF)))
            log.append(sweep_of(kind, k, n_bins, seed))
    return log


# sweeps that fill a chunk exactly, end one bin short of it or one past it,
# and one that is a chunk alone
CHUNK_EDGE_LOG = [
    sweep_of(kind, k, n_bins, k)
    for k, (kind, n_bins) in enumerate(
        [("parsed", _CHUNK_BINS - 1), ("hand", 1), ("parsed", _CHUNK_BINS - 2), ("parsed", 1),
         ("hand", 2), ("parsed", _CHUNK_BINS + 1), ("hand", 0xFFFF), ("parsed", 3)]
    )
]


# the deep-fuzz CI step runs the property at 1,000 logs (tests/conftest.py)
@pytest.mark.deep_fuzz
@settings.get_profile("fuzz")
@given(log=mixed_logs(), as_generator=st.booleans())
@example(log=[], as_generator=False)
@example(log=[], as_generator=True)
@example(log=CHUNK_EDGE_LOG, as_generator=False)
@example(log=CHUNK_EDGE_LOG, as_generator=True)
def test_jsonl_writer_is_json_dumps_of_any_log(log, as_generator):
    got = sweeps_to_jsonl((s for s in log) if as_generator else log)
    assert got.encode() == b"".join(map(json_line, log))


def test_jsonl_writer_peak_memory_stays_near_its_output():
    # chunks keep every temporary bounded: the peak is the finished lines and
    # their join, about twice the output, on a log of 2M bins
    pool = [sweep_of("parsed", k, n_bins, k) for k, n_bins in enumerate([100] * 30 + [0xFFFF])]
    log = pool * 30
    assert sum(len(s.payload) for s in log) > 2_000_000
    tracemalloc.start()
    try:
        text = sweeps_to_jsonl(log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)


@pytest.mark.parametrize(
    ("line", "message"),
    [
        ('{"sensor_id": 1, "timestamp_ms": 0, "start_khz": 1, "bin_khz": 1}',
         "missing field 'bins'"),
        ('{"timestamp_ms": 0, "bins": [1]}', "missing field 'sensor_id'"),
        ("[1, 2]", "expected a JSON object, got an array"),
        ('"sweep"', "expected a JSON object, got a string"),
        ("7", "expected a JSON object, got a number"),
        ("-7.5", "expected a JSON object, got a number"),
        ("true", "expected a JSON object, got a boolean"),
        ("null", "expected a JSON object, got null"),
        ('{"sensor_id": 1, "timestamp_ms": 0, "start_khz": 1, "bin_khz": 1, "bins": 5}',
         "sweep bins must be a sequence of integers, got 5"),
        ('{"sensor_id": 1, "timestamp_ms": 0, "start_khz": 1, "bin_khz": 1, "bins": null}',
         "sweep bins must be a sequence of integers, got None"),
    ],
)
def test_jsonl_reader_names_what_a_record_lacks(line, message):
    text = json_line(GOLDEN_SWEEP).decode() + line + "\n"
    with pytest.raises(DomainError) as info:
        sweeps_from_jsonl(text)
    assert str(info.value) == f"bad sweep record on line 2: {message}"


def test_jsonl_reader_names_a_line_nested_too_deep():
    # json.loads raises RecursionError, which the CLI used to print as a traceback
    with pytest.raises(DomainError, match=r"^bad sweep record on line 2: .*recursion"):
        sweeps_from_jsonl(json_line(GOLDEN_SWEEP).decode() + "[" * 100_000 + "]" * 100_000)


SCENARIO_DOCUMENT = {
    "ap_position": [0, 0],
    "clients": [{"id": "c0", "x": 5.0, "y": 0.0}],
    "emitters": [{"channel": 6, "tx_power_dbm": 10.0, "x": 1.0, "y": 0.0}],
    "noise_floor_dbm": -95.0,
    "shadowing_sigma_db": 0.0,
    "seed": 3,
}
# a JSON value of every kind, each a wrong type somewhere in a document
WRONG_VALUES = [None, True, 7, -7.5, "ab", [], [1, 2], {}, {"id": 1}]
# what a refusal printed before one reader served both documents: a Python
# class, a constructor's or **'s TypeError, a bare KeyError
PYTHON_WORDS = re.compile(r"\b(list|dict|str|int|float|bool|tuple|NoneType|Client|Emitter|"
                          r"Scenario|SensorSweep)\b|__init__|argument after \*\*|object is not|^'")


def containers(value):
    """value and every object and array inside it."""
    if isinstance(value, (dict, list)):
        yield value
        for item in value.values() if isinstance(value, dict) else value:
            yield from containers(item)


@st.composite
def mutated_documents(draw, document):
    """(document with one key or item dropped, one key added, or one value, or
    the whole document, put to a wrong type; the mutation's name)."""
    document = copy.deepcopy(document)
    mutation = draw(st.sampled_from(["drop", "add", "retype", "retype-document"]))
    if mutation == "retype-document":
        return draw(st.sampled_from(WRONG_VALUES)), mutation
    container = draw(st.sampled_from(list(containers(document))))
    keys = list(container) if isinstance(container, dict) else list(range(len(container)))
    if mutation == "add" or not keys:
        wrong = copy.deepcopy(draw(st.sampled_from(WRONG_VALUES)))
        if isinstance(container, dict):
            container[draw(st.sampled_from(["bogus", "z", ""]))] = wrong
        else:
            container.append(wrong)
        return document, "add"
    key = draw(st.sampled_from(keys))
    if mutation == "drop":
        del container[key]
    else:
        container[key] = copy.deepcopy(draw(st.sampled_from(WRONG_VALUES)))
    return document, mutation


def assert_named(error, prefix):
    message = str(error)
    assert message.startswith(prefix), message
    assert not PYTHON_WORDS.search(message.removeprefix(prefix)), message


def changed_item(document):
    """'key[index]: ' of the first array item of document that is not SCENARIO_DOCUMENT's, or ''."""
    for key in ("clients", "emitters"):
        items = document.get(key) if isinstance(document, dict) else None
        for index, item in enumerate(items if isinstance(items, list) else []):
            if index >= len(SCENARIO_DOCUMENT[key]) or item != SCENARIO_DOCUMENT[key][index]:
                return f"{key}[{index}]: "
    return ""


# the deep-fuzz CI step runs the property at 1,000 examples (tests/conftest.py)
@pytest.mark.deep_fuzz
@settings.get_profile("fuzz")
@given(case=mutated_documents(SCENARIO_DOCUMENT))
@example(({"ap_position": [0, 0], "clients": "ab"}, "retype"))
@example(({"ap_position": [0, 0], "clients": 5}, "retype"))
@example(({"ap_position": [0, 0], "clients": ["ab"]}, "retype"))
@example(({"ap_position": [0, 0], "clients": [{"id": "c", "x": 0}]}, "drop"))
def test_a_mutated_scenario_document_loads_or_is_refused_by_name(case):
    document, mutation = case
    try:
        scenario_from_json(json.dumps(document))
    except DomainError as exc:
        # a failure inside an array item names the item first
        assert_named(exc, "bad scenario document: " + changed_item(document))
    else:
        # the reader refuses a key that is no field, at every level
        assert mutation != "add" or isinstance(document, list), document


# the deep-fuzz CI step runs the property at 1,000 examples (tests/conftest.py)
@pytest.mark.deep_fuzz
@settings.get_profile("fuzz")
@given(case=mutated_documents(sweep_record(GOLDEN_SWEEP)))
def test_a_mutated_sweep_record_loads_or_is_refused_by_name(case):
    record, mutation = case
    try:
        sweeps = sweeps_from_jsonl(json_line(GOLDEN_SWEEP).decode() + json.dumps(record) + "\n")
    except DomainError as exc:
        assert_named(exc, "bad sweep record on line 2: ")
    else:
        # the reader ignores a key that is no field of a sweep
        assert mutation != "drop" or record.get("bins") == [], record
        assert len(sweeps) == 2

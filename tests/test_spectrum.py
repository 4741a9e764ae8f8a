import copy
import dataclasses
import functools
import hashlib
import json
import math
import operator
import os
import pickle
import random
import re
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rfplan
from rfplan.errors import MAX_DB, MAX_LENGTH_M, DomainError
from rfplan.linkbudget import Frequency, LinkGeometry, fspl_db
from rfplan.spectrum import (
    ALL_CHANNELS,
    AP_ONLY,
    CLIENT_AWARE,
    EWMA,
    MAX_HOLD,
    MAX_SHADOWING_SIGMA_DB,
    MINIMAX,
    SWEEP_GRID,
    WEIGHTED_SUM,
    AggregatedSpectrum,
    ChannelScore,
    Client,
    Emitter,
    Scenario,
    SensorSweep,
    aggregate,
    channel_center_khz,
    channel_power_mw,
    default_sensor_layout,
    encode_frame,
    load_scenario,
    parse_frame,
    scenario_from_json,
    scenario_to_json,
    select_channel,
    simulate_sweeps,
    sweeps_from_jsonl,
    sweeps_to_jsonl,
)
from rfplan.spectrum.aggregate import _MW_TABLE, _complete, _spectrum
from rfplan.spectrum import plan, shadowing, simulate
from rfplan.spectrum.frames import _LEVELS
from rfplan.spectrum.plan import _SCALAR_MW, CHANNEL_HALF_WIDTH_KHZ
from rfplan.spectrum.shadowing import (
    _fast_normals,
    _first_outputs,
    _LinkSeed,
    _pcg64_seeds,
    shadowing_draws,
)
from rfplan.spectrum.simulate import _HALF_GUARD_DB, _quantize
from rfplan import fixtures
from tests.test_errors import PAST_FLOAT_RANGE, SPECTRUM_INPUTS


def sweep(bins, sensor_id=0, t=0, start=SWEEP_GRID.start_khz, width=SWEEP_GRID.bin_khz):
    return SensorSweep(
        sensor_id=sensor_id, timestamp_ms=t, start_khz=start, bin_khz=width, bins=tuple(bins)
    )


def flat_spectrum(dbm, position_id="p"):
    return AggregatedSpectrum(
        position_id=position_id,
        mode=MAX_HOLD,
        start_khz=SWEEP_GRID.start_khz,
        bin_khz=SWEEP_GRID.bin_khz,
        bins=tuple(float(dbm) for _ in range(SWEEP_GRID.n_bins)),
        last_update_ms={},
    )


# --- aggregation -------------------------------------------------------------

def test_single_sweep_max_hold_is_identity():
    s = sweep([-90, -40, -77])
    merged = aggregate([s], MAX_HOLD)
    assert merged.bins == (-90.0, -40.0, -77.0)
    assert all(type(b) is float for b in merged.bins)
    assert merged._levels == s.payload
    assert merged.start_khz == s.start_khz
    assert merged.last_update_ms == {0: 0}


def test_max_hold_binwise_maximum():
    merged = aggregate([sweep([-90, -40]), sweep([-50, -60], sensor_id=1)], MAX_HOLD)
    assert merged.bins == (-50.0, -40.0)


def test_max_hold_order_independent():
    sweeps = [
        sweep([-90, -40], sensor_id=0, t=1),
        sweep([-50, -60], sensor_id=1, t=2),
        sweep([-70, -30], sensor_id=2, t=3),
    ]
    forward = aggregate(sweeps, MAX_HOLD)
    backward = aggregate(list(reversed(sweeps)), MAX_HOLD)
    assert forward.bins == backward.bins


def test_grid_mismatch_rejected():
    with pytest.raises(DomainError):
        aggregate([sweep([-90, -40]), sweep([-50, -60], start=SWEEP_GRID.start_khz + 1000)])
    with pytest.raises(DomainError):
        aggregate([sweep([-90, -40]), sweep([-50, -60], width=2000)])
    with pytest.raises(DomainError):
        aggregate([sweep([-90, -40]), sweep([-50])])
    with pytest.raises(DomainError):
        aggregate([])


@given(
    rows=st.lists(
        st.lists(st.integers(min_value=-128, max_value=127), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    ),
    seed=st.integers(min_value=0, max_value=999),
)
def test_max_hold_commutative_idempotent_dominating(rows, seed):
    sweeps = [sweep(bins, sensor_id=i) for i, bins in enumerate(rows)]
    merged = aggregate(sweeps, MAX_HOLD)
    shuffled = sweeps[:]
    random.Random(seed).shuffle(shuffled)
    assert aggregate(shuffled, MAX_HOLD).bins == merged.bins
    assert aggregate(sweeps + sweeps, MAX_HOLD).bins == merged.bins  # idempotent
    for s in sweeps:  # dominates every contribution
        assert all(m >= b for m, b in zip(merged.bins, s.bins))


def test_ewma_smooths_in_mw_domain():
    first = sweep([-90, -40], t=0)
    second = sweep([-50, -60], t=1)
    merged = aggregate([first, second], EWMA, alpha=0.3)
    expected0 = 10 * math.log10(0.3 * 10 ** (-5.0) + 0.7 * 10 ** (-9.0))
    expected1 = 10 * math.log10(0.3 * 10 ** (-6.0) + 0.7 * 10 ** (-4.0))
    assert merged.bins[0] == pytest.approx(expected0, abs=1e-12)
    assert merged.bins[1] == pytest.approx(expected1, abs=1e-12)


def test_ewma_rejects_sweeps_out_of_timestamp_order():
    first = sweep([-90, -40], sensor_id=3, t=1000)
    second = sweep([-50, -60], sensor_id=3, t=2000)
    with pytest.raises(DomainError, match=r"sensor 3 .*2000 ms .*1000 ms"):
        aggregate([second, first], EWMA)
    # equal timestamps, and other sensors' older sweeps, stay allowed
    other = sweep([-70, -70], sensor_id=4, t=0)
    aggregate([first, second, other, sweep([-80, -80], sensor_id=3, t=2000)], EWMA)
    # max-hold is order-free
    aggregate([second, first], MAX_HOLD)


def test_ewma_then_max_across_sensors():
    merged = aggregate(
        [sweep([-90], sensor_id=0), sweep([-40], sensor_id=1)], EWMA, alpha=0.5
    )
    assert merged.bins[0] == pytest.approx(-40.0, abs=1e-12)


def test_ewma_alpha_validation():
    # a bool, a non-real or an out-of-range alpha, each named with one text in
    # either mode, after an unknown mode
    log = [sweep([-90]), sweep([-80], t=1)]
    for alpha, shown in [
        (0.0, "0.0"),
        (1.5, "1.5"),
        (2, "2"),
        (math.nan, "nan"),
        (math.inf, "inf"),
        (True, "True"),
        (False, "False"),
        ("0.3", "'0.3'"),
        (None, "None"),
        (0.3 + 0j, "(0.3+0j)"),
        (np.array(0.3), "array(0.3)"),
        (10**5000, "an overlong int"),
    ]:
        message = f"ewma alpha must be a real number in (0, 1], got {shown}"
        for mode in (MAX_HOLD, EWMA):
            with pytest.raises(DomainError, match=re.escape(message) + "$"):
                aggregate(log, mode, alpha=alpha)
        with pytest.raises(DomainError, match="^unknown aggregation mode 'median'$"):
            aggregate(log, "median", alpha=alpha)
    # any other real is taken and smooths as its float: a Fraction, an int, a numpy scalar
    log = count_log([3, 2])
    assert aggregate(log, EWMA, alpha=Fraction(3, 10)) == aggregate(log, EWMA, alpha=0.3)
    assert aggregate(log, EWMA, alpha=1) == aggregate(log, EWMA, alpha=1.0)
    narrow = np.float32(0.3)
    assert bits(aggregate(log, EWMA, alpha=narrow).bins) == bits(
        ewma_per_sweep(log, float(narrow))
    )


def test_last_update_tracks_per_sensor():
    merged = aggregate(
        [sweep([-90], sensor_id=0, t=5), sweep([-80], sensor_id=0, t=9),
         sweep([-70], sensor_id=3, t=2)],
        MAX_HOLD,
    )
    assert merged.last_update_ms == {0: 9, 3: 2}


def test_jsonl_round_trip():
    sweeps = [sweep([-90, -40], sensor_id=4, t=17), sweep([-50, -60], sensor_id=5, t=18)]
    text = sweeps_to_jsonl(sweeps)
    assert text.count("\n") == 2
    assert sweeps_from_jsonl(text) == sweeps
    with pytest.raises(DomainError):
        sweeps_from_jsonl("{not json}\n")


def bits(values):
    """The exact bit patterns of a float sequence, so 0.0 and -0.0 differ."""
    return [float(v).hex() for v in values]


def outcome(function, *args, **kwargs):
    """The call's result, or the message of the DomainError it raised."""
    try:
        return function(*args, **kwargs)
    except DomainError as exc:
        return f"DomainError: {exc}"


def ewma_per_sweep(sweeps, alpha):
    """EWMA aggregation written sweep by sweep, one numpy round trip each."""
    grid = sweeps[0].grid
    for s in sweeps[1:]:
        if s.grid != grid:
            raise DomainError(
                f"sweeps disagree on the bin grid ({s.grid} vs {grid}); "
                "resampling is not supported"
            )
    per_sensor = {}
    seen_ms = {}
    for s in sweeps:
        prev_ms = seen_ms.setdefault(s.sensor_id, s.timestamp_ms)
        if s.timestamp_ms < prev_ms:
            raise DomainError(
                f"ewma needs each sensor's sweeps in timestamp order: sensor "
                f"{s.sensor_id} went from {prev_ms} ms back to {s.timestamp_ms} ms"
            )
        seen_ms[s.sensor_id] = s.timestamp_ms
        power_mw = 10.0 ** (np.asarray(s.bins, dtype=float) / 10.0)
        prev = per_sensor.get(s.sensor_id)
        per_sensor[s.sensor_id] = (
            power_mw if prev is None else alpha * power_mw + (1.0 - alpha) * prev
        )
    smoothed_dbm = [10.0 * np.log10(mw) for mw in per_sensor.values()]
    return tuple(float(v) for v in np.max(np.array(smoothed_dbm), axis=0))


@st.composite
def sweep_logs(draw):
    """1-8 sensors with uneven sweep counts, interleaved; timestamps may tie,
    and in some logs a sensor goes back in time or one sweep is off the grid."""
    n_bins = draw(st.integers(1, 100))
    sensor_ids = draw(st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=8, unique=True))
    counts = [draw(st.integers(1, 13)) for _ in sensor_ids]
    order = draw(st.permutations([k for k, c in enumerate(counts) for _ in range(c)]))
    ordered = draw(st.integers(0, 9)) > 0
    clock = [0] * len(sensor_ids)
    sweeps = []
    for k in order:
        if ordered:
            clock[k] += draw(st.sampled_from([0, 0, 1, 1000]))
        else:
            clock[k] = draw(st.integers(0, 3))
        bins = np.frombuffer(draw(st.binary(min_size=n_bins, max_size=n_bins)), np.int8).tolist()
        sweeps.append(sweep(bins, sensor_id=sensor_ids[k], t=clock[k]))
    if draw(st.integers(0, 19)) == 0:
        i = draw(st.integers(0, len(sweeps) - 1))
        off_grid = draw(st.sampled_from(["start", "width", "bins"]))
        s = sweeps[i]
        sweeps[i] = sweep(
            s.bins + ((-90,) if off_grid == "bins" else ()),
            sensor_id=s.sensor_id,
            t=s.timestamp_ms,
            start=s.start_khz + (1000 if off_grid == "start" else 0),
            width=s.bin_khz * (2 if off_grid == "width" else 1),
        )
    return sweeps


alphas = st.one_of(
    st.sampled_from([0.3, 1.0]), st.floats(0.0, 1.0, exclude_min=True)
)


def count_log(counts, n_bins=7):
    """Sensor k with counts[k] in-order sweeps, interleaved, levels spread over int8."""
    order = [(t, k) for t in range(max(counts)) for k, n in enumerate(counts) if t < n]
    return [
        sweep(
            [(37 * i + 11 * b) % 256 - 128 for b in range(n_bins)],
            sensor_id=3 * k + 1,
            t=100 * t,
        )
        for i, (t, k) in enumerate(order)
    ]


# equal sweep counts step every sensor from one array, a rare draw of
# sweep_logs; a lone one-sweep sensor has no step at all. Uneven counts are
# smoothed a group of equal counts at a time: [4, 4, 2] puts a group of two
# sensors next to a group of one, [1, 3, 3, 3] a group of three next to a
# sensor with no step
@example(count_log([5, 5]), 0.3)
@example(count_log([4, 4, 4]), 0.6180339887498949)
@example(count_log([1]), 0.3)
@example(count_log([4, 4, 2]), 0.3)
@example(count_log([1, 3, 3, 3]), 0.6180339887498949)
@given(sweep_logs(), alphas)
def test_ewma_matches_per_sweep_oracle(sweeps, alpha):
    got = outcome(aggregate, sweeps, EWMA, alpha=alpha)
    want = outcome(ewma_per_sweep, sweeps, alpha)
    if isinstance(want, str):
        assert got == want
    else:
        assert bits(got.bins) == bits(want)


# any real alpha smooths as its float: numpy 2 keeps a float32 or longdouble
# scalar's type through 1.0 - alpha, numpy 1.24 makes it a float64, and either
# way the bins are alpha=float(alpha)'s
typed_alphas = st.one_of(
    st.just(1),
    alphas.flatmap(
        lambda alpha: st.sampled_from(
            [alpha, Fraction(alpha), np.float32(alpha), np.float64(alpha), np.longdouble(alpha)]
        )
    ),
).filter(lambda alpha: alpha > 0)  # a float32 rounds the least floats to 0


@example(count_log([4, 4, 2]), np.float32(0.3))
@example(count_log([4, 4, 2]), np.longdouble(0.7))
@given(sweep_logs(), typed_alphas)
def test_any_real_alpha_smooths_as_its_float(sweeps, alpha):
    got = outcome(aggregate, sweeps, EWMA, alpha=alpha)
    want = outcome(aggregate, sweeps, EWMA, alpha=float(alpha))
    if isinstance(want, str):
        assert got == want
    else:
        assert bits(got.bins) == bits(want.bins)


@example(count_log([4, 4, 2]), 0.3, EWMA)
@example(count_log([1, 3, 3, 3]), 0.6180339887498949, EWMA)
@given(sweep_logs(), alphas, st.sampled_from([MAX_HOLD, EWMA]))
def test_aggregate_of_parsed_frames_matches_tuple_sweeps(sweeps, alpha, mode):
    # parsed sweeps carry their frame payload, tuple-built ones pack it when built
    parsed = [parse_frame(encode_frame(s)) for s in sweeps]
    got = outcome(aggregate, parsed, mode, alpha=alpha)
    want = outcome(aggregate, sweeps, mode, alpha=alpha)
    if isinstance(want, str):
        assert got == want
    else:
        assert bits(got.bins) == bits(want.bins)
        assert list(got.last_update_ms.items()) == list(want.last_update_ms.items())
        assert got == want


def test_mw_table_entries_match_the_per_sweep_expression():
    # np.power is not the scalar pow, so each entry must come from the array
    # expression every sweep went through; check it at every position of
    # sweeps of 1-17, 100 and 256 bins
    for n in (*range(1, 18), 100, 256):
        for offset in range(256):
            codes = [(offset + k) % 256 - 128 for k in range(n)]
            expected = 10.0 ** (np.asarray(codes, dtype=float) / 10.0)
            got = _MW_TABLE[np.asarray(codes, dtype=np.int8).view(np.uint8)]
            assert bits(got) == bits(expected)


# --- deferred EWMA -----------------------------------------------------------

# a grid of each bin count that every channel's mask falls on
DEFERRAL_GRIDS = {
    7: (2_400_000, 14_285),
    100: (2_400_000, 1_000),
    101: (2_400_000, 990),
    256: (2_400_000, 390),
}

# the deep-fuzz CI step runs the deferral property, the late-bins property,
# the scalar-pow property of hand-built bins, max-hold's byte-table property,
# the simulator's property at the scenario bounds and its per-link oracle, on
# which the half-level guard's soundness rests, at 1,000 examples
# (tests/conftest.py); otherwise each runs hypothesis's default 100
DEFERRAL = LATE_BINS = BOUNDS = BYTE_TABLE = settings.get_profile("fuzz")
SCALAR_POW = ORACLE = settings.get_profile("fuzz-timed")


def deferral_logs(positions, seed):
    """Each position's sweep log: (n_bins, counts, _) gives sensor k counts[k]
    in-order sweeps, interleaved, on the bin count's grid, with random levels."""
    rng = np.random.default_rng(seed)
    logs = []
    for n_bins, counts, _ in positions:
        start, width = DEFERRAL_GRIDS[n_bins]
        sensors = rng.choice(0x10000, len(counts), replace=False).tolist()
        order = [(t, k) for t in range(max(counts)) for k, n in enumerate(counts) if t < n]
        logs.append([
            sweep(rng.integers(-128, 128, n_bins).tolist(), sensor_id=sensors[k], t=1000 * t,
                  start=start, width=width)
            for t, k in order
        ])
    return logs


def bins_slot_set(record, name="bins"):
    """Whether the sweep or spectrum holds its bins, or a record the named
    field built on first read, read from the slot itself, without building
    it or completing a pending spectrum."""
    slot = getattr(type(record), name).slot
    try:
        slot.__get__(record)
    except AttributeError:
        return False
    return True


def eager_twin(log, alpha, position_id):
    """The spectrum aggregate should give, built from the per-sweep oracle."""
    last_update = {s.sensor_id: s.timestamp_ms for s in log}  # in first-seen order
    first = log[0]
    bins = ewma_per_sweep(log, alpha)
    return AggregatedSpectrum(position_id, EWMA, first.start_khz, first.bin_khz, bins, last_update)


def score_all(spectra):
    """select_channel over every position, or channel_power_mw of a lone one."""
    if len(spectra) > 1:
        return select_channel(spectra, CLIENT_AWARE)
    return [channel_power_mw(spectra[plan.AP_ID], ch) for ch in ALL_CHANNELS]


# the benchmark's tick: 51 positions of one sensor and 13 sweeps; then one
# with some 12-sweep windows, as when frames were lost while windows filled
@pytest.mark.deep_fuzz
@example(positions=[(100, [13], 0)] * 51, pair=(0.3, 0.3), seed=1)
@example(
    positions=[(100, [12 if k % 7 == 3 else 13], 0) for k in range(51)], pair=(0.3, 0.3), seed=2
)
@given(
    # one grid per scoring call, as scoring takes
    positions=st.sampled_from(sorted(DEFERRAL_GRIDS)).flatmap(
        lambda n_bins: st.lists(
            st.tuples(
                st.just(n_bins),
                st.lists(st.integers(1, 13), min_size=1, max_size=3),
                st.integers(0, 1),
            ),
            min_size=1,
            max_size=12,
        )
    ),
    pair=st.tuples(alphas, alphas),
    seed=st.integers(0, 2**32 - 1),
)
@DEFERRAL
def test_pending_spectra_complete_alike_one_at_a_time_or_in_a_batch(positions, pair, seed):
    ids = [plan.AP_ID, *(f"c{k}" for k in range(1, len(positions)))]
    logs = deferral_logs(positions, seed)
    chosen = [pair[pick] for _, _, pick in positions]
    want = {pos: eager_twin(log, alpha, pos) for pos, log, alpha in zip(ids, logs, chosen)}

    def pending():
        return {
            pos: aggregate(log, EWMA, alpha=alpha, position_id=pos)
            for pos, log, alpha in zip(ids, logs, chosen)
        }

    one_at_a_time = pending()
    for spectrum in one_at_a_time.values():
        spectrum.bins
    batched = pending()
    scores = score_all(batched)
    subset_first = pending()
    pick = random.Random(seed)
    read = [one_at_a_time[pos] for pos in ids]
    for pos in pick.sample(ids, pick.randint(0, len(ids))):
        subset_first[pos].bins
        read.append(subset_first[pos])
    score_all(subset_first)
    # ap-only first completes the whole mapping, then client-aware finds it complete
    ap_first = pending()
    plans = [select_channel(ap_first, AP_ONLY)]
    assert all(spectrum._pending is None for spectrum in ap_first.values())
    if len(ids) > 1:
        plans.append(select_channel(ap_first, CLIENT_AWARE))
    assert repr(plans) == repr([select_channel(want, made.mode) for made in plans])
    for done in (one_at_a_time, batched, subset_first, ap_first):
        for pos, spectrum in done.items():
            # scoring reads the carried float64 bytes: only a spectrum whose
            # bins were read holds them, and the first read builds them
            assert spectrum._pending is None
            assert bins_slot_set(spectrum) is any(spectrum is r for r in read)
            assert bits(spectrum.bins) == bits(want[pos].bins)
            assert bins_slot_set(spectrum)
            assert spectrum._dbm == np.array(want[pos].bins).tobytes()
            assert list(spectrum.last_update_ms.items()) == list(want[pos].last_update_ms.items())
            assert spectrum == want[pos]
    # scored from the float64 bytes the batch computed, from those a replaced
    # spectrum packs from its bins, and from the oracle's: the same bits
    replaced = {pos: dataclasses.replace(spectrum) for pos, spectrum in batched.items()}
    for pos, spectrum in replaced.items():
        assert spectrum._dbm == np.array(spectrum.bins).tobytes() == batched[pos]._dbm
    assert repr(score_all(replaced)) == repr(scores)
    assert repr(score_all(want)) == repr(scores)


COPIES = [
    *(functools.partial(lambda p, r: pickle.loads(pickle.dumps(r, p)), p)
      for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    copy.copy,
    copy.deepcopy,
]


def test_a_pending_spectrum_completes_wherever_its_bins_are_read():
    log = count_log([4, 4, 2], n_bins=100)
    twin = aggregate(log, EWMA, position_id="p")
    twin.bins
    reads = [
        *COPIES,
        dataclasses.replace,
        dataclasses.asdict,
        repr,
        lambda s: s.grid,
        lambda s: s == twin,
    ]
    for read in reads:
        spectrum = aggregate(log, EWMA, position_id="p")
        assert spectrum._pending is not None and not bins_slot_set(spectrum)
        got = read(spectrum)
        assert spectrum._pending is None and bins_slot_set(spectrum)
        assert bits(spectrum.bins) == bits(twin.bins)
        if isinstance(got, AggregatedSpectrum):
            assert got._pending is None
            assert got == twin
        else:
            assert got == read(twin)


def hidden(record):
    """A record's hidden slots as scoring and the codec read them."""
    if isinstance(record, SensorSweep):
        return record._payload, record.payload
    return record._levels, record._pending, record._dbm


@given(
    logs=st.lists(st.lists(st.integers(-128, 127), min_size=3, max_size=3), min_size=1, max_size=4),
    seed=st.integers(0, 2**64 - 1),
    t_ms=st.integers(0, 2**64 - 1),
    alpha=alphas,
)
def test_pickle_and_copy_keep_every_hidden_slot(logs, seed, t_ms, alpha):
    hand = [sweep(bins, sensor_id=k % 2, t=k) for k, bins in enumerate(logs)]
    parsed = [parse_frame(encode_frame(s)) for s in hand]
    scenario = Scenario(
        ap_position=(0.0, 0.0), emitters=(Emitter(6, 20.0, 3.0, 4.0),), shadowing_sigma_db=6.0,
        seed=seed,
    )
    simulated = simulate_sweeps(scenario, [(0.0, 0.0), (30.0, 40.0)], t_ms)
    replaced = [dataclasses.replace(s, timestamp_ms=t_ms) for s in parsed + simulated]
    sweeps = hand + parsed + simulated + replaced
    completed = aggregate(parsed, EWMA, alpha=alpha)
    completed.bins
    spectra = [
        aggregate(parsed[:1], MAX_HOLD), aggregate(parsed, MAX_HOLD), completed,
        eager_twin(parsed, alpha, "p"), dataclasses.replace(completed),
    ]
    for record in sweeps + spectra:
        for make_copy in COPIES:
            got = make_copy(record)
            assert type(got) is type(record) and got == record
            assert hidden(got) == hidden(record)
    # a pending spectrum's copy is complete, and completes the original
    for make_copy in COPIES:
        pending = aggregate(parsed, EWMA, alpha=alpha)
        got = make_copy(pending)
        assert got == pending == completed
        assert hidden(got) == hidden(pending) == hidden(completed)
        assert got._pending is None and got._dbm is not None


def test_a_tick_through_the_library_builds_no_bins_tuple():
    # the codec, the JSONL writer, aggregation and scoring read the carried
    # bytes, so no record of a tick builds its bins, and no score of its plans
    # builds its per_position_mw map
    scenario = Scenario(
        ap_position=(0.0, 0.0),
        clients=(Client("c1", 30.0, 0.0), Client("c2", 0.0, 40.0)),
        emitters=(Emitter(6, 20.0, 3.0, 4.0), Emitter(1, 10.0, 40.0, 5.0)),
        shadowing_sigma_db=6.0,
        seed=7,
    )
    ids, positions = default_sensor_layout(scenario)
    # a site survey: simulated, encoded, logged, max-hold of each position's
    # sweep and of all of them, scored both ways
    simulated = simulate_sweeps(scenario, positions)
    for s in simulated:
        encode_frame(s)
    sweeps_to_jsonl(simulated)
    survey = {pos: aggregate([s], MAX_HOLD, position_id=pos) for pos, s in zip(ids, simulated)}
    held = aggregate(simulated, MAX_HOLD, position_id=plan.AP_ID)
    records = [*simulated, *survey.values(), held]
    scores = []
    for spectra in (survey, {**survey, plan.AP_ID: held}):
        for mode in (AP_ONLY, CLIENT_AWARE):
            scores += select_channel(spectra, mode).per_channel_scores.values()
    # sensor-ingest ticks: frames parsed, re-encoded, logged, EWMA over each
    # position's window, scored both ways
    windows = {pos: [] for pos in ids}
    for tick in range(4):
        ticked = simulate_sweeps(scenario, positions, t_ms=1000 * tick)
        parsed = [parse_frame(encode_frame(s)) for s in ticked]
        for s in parsed:
            encode_frame(s)
        sweeps_to_jsonl(parsed)
        for pos, s in zip(ids, parsed):
            windows[pos].append(s)
        spectra = {pos: aggregate(log, EWMA, position_id=pos) for pos, log in windows.items()}
        for mode in (AP_ONLY, CLIENT_AWARE):
            scores += select_channel(spectra, mode).per_channel_scores.values()
        records += [*ticked, *parsed, *spectra.values()]
    assert [r for r in records if bins_slot_set(r)] == []
    assert [s for s in scores if bins_slot_set(s, "per_position_mw")] == []


def hashed(record):
    """hash(record), or the TypeError's message: a spectrum's last_update_ms is a dict."""
    try:
        return hash(record)
    except TypeError as exc:
        return str(exc)


@st.composite
def late_logs(draw):
    """An in-order log of 1-6 sweeps from 1-3 sensors on one grid of 1-100 bins."""
    n_bins = draw(st.integers(1, 100))
    sensors = draw(st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=3, unique=True))
    order = draw(st.lists(st.sampled_from(sensors), min_size=1, max_size=6))
    return [
        sweep(
            np.frombuffer(draw(st.binary(min_size=n_bins, max_size=n_bins)), np.int8).tolist(),
            sensor_id=k,
            t=t,
        )
        for t, k in enumerate(order)
    ]


@pytest.mark.deep_fuzz
@example(count_log([1]), 0, 0.3)  # one sweep of 7 bins
@example([sweep([-128])], 1, 1.0)  # one bin: _lookup's single-byte branch
@given(late_logs(), st.integers(0, 2**16), alphas)
@LATE_BINS
def test_a_late_bins_equals_the_eager_one_bit_for_bit(log, seed, alpha):
    scenario = random_scenario(seed)
    positions = default_sensor_layout(scenario)[1]
    first = log[0]

    def held_twin(sweeps):
        """The max-hold spectrum of hand-built sweeps, built by hand."""
        peak = np.array([s.bins for s in sweeps], np.int8).max(axis=0)
        last_update = {s.sensor_id: s.timestamp_ms for s in sweeps}
        bins = tuple(peak.astype(float).tolist())
        return AggregatedSpectrum("p", MAX_HOLD, first.start_khz, first.bin_khz, bins, last_update)

    def made():
        """Fresh records whose bins are unread, in the order of twins: parsed
        and simulated sweeps, max-hold of one sweep and of all, an EWMA
        spectrum pending, one completed alone and two completed in a batch."""
        parsed = [parse_frame(encode_frame(s)) for s in log]
        alone = aggregate(parsed, EWMA, alpha=alpha, position_id="p")
        _complete([alone])
        batch = [
            aggregate(parsed, EWMA, alpha=alpha, position_id="p"),
            aggregate(parsed[:1], EWMA, alpha=alpha, position_id="q"),
        ]
        _complete(batch)
        return [
            *parsed,
            *simulate_sweeps(scenario, positions, t_ms=9),
            aggregate(parsed[:1], MAX_HOLD, position_id="p"),
            aggregate(parsed, MAX_HOLD, position_id="p"),
            aggregate(parsed, EWMA, alpha=alpha, position_id="p"),
            alone,
            *batch,
        ]

    twins = [
        *log,
        *(
            SensorSweep(s.sensor_id, s.timestamp_ms, s.start_khz, s.bin_khz,
                        tuple(np.frombuffer(s.payload, np.int8).tolist()))
            for s in simulate_sweeps(scenario, positions, t_ms=9)
        ),
        held_twin(log[:1]),
        held_twin(log),
        *[eager_twin(log, alpha, "p")] * 3,
        eager_twin(log[:1], alpha, "q"),
    ]
    reads = [operator.attrgetter("bins"), hashed, repr, dataclasses.replace, dataclasses.asdict]
    # each read but a sweep's copy makes the first read of fresh records'
    # bins; None stands for ==
    for read in [*reads, *COPIES, None]:
        records = made()
        assert len(records) == len(twins)
        for record, twin in zip(records, twins):
            assert not bins_slot_set(record)
            if read is None:
                assert record == twin
            else:
                got, want = read(record), read(twin)
                assert type(got) is type(want) and repr(got) == repr(want)
            # a sweep's copy carries its payload alone, so copying reads no bins
            copied_sweep = read in COPIES and isinstance(record, SensorSweep)
            assert bins_slot_set(record) is not copied_sweep
            assert bits(record.bins) == bits(twin.bins)
            assert list(map(type, record.bins)) == list(map(type, twin.bins))


# each constructor runs first in a fresh process, then every other one
LAYOUT_PROBE = """

import dataclasses, json, sys
from rfplan.spectrum import (
    EWMA, AggregatedSpectrum, Scenario, SensorSweep, aggregate, encode_frame, parse_frame,
    simulate_sweeps,
)

def built(kind):
    if kind == "init":
        return SensorSweep(1, 0, 2_400_000, 1000, bins=(-90,) * 100)  # the simulator's grid
    if kind == "parse":
        return parse_frame(encode_frame(built("init")))
    if kind == "simulate":
        return simulate_sweeps(Scenario(ap_position=(0.0, 0.0)), [(0.0, 0.0)])[0]
    return dataclasses.replace(simulate_sweeps(Scenario(ap_position=(0.0, 0.0)), [(0.0, 0.0)])[0])

first = sys.argv[1]
sweeps = {first: built(first)}
sweeps.update((kind, built(kind)) for kind in ("init", "parse", "simulate", "replace"))
log = list(sweeps.values())
pending = aggregate(log, EWMA)
spectra = {
    "max-hold": aggregate(log), "pending": pending, "completed": aggregate(log, EWMA),
    "by hand": AggregatedSpectrum("p", EWMA, 2_400_000, 1000, (1.0,), {}),
}
spectra["completed"].bins
spectra["replace"] = dataclasses.replace(spectra["completed"])
print(json.dumps({
    "sweep": {k: [hasattr(s, "__dict__"), sys.getsizeof(s)] for k, s in sweeps.items()},
    "spectrum": {k: [hasattr(s, "__dict__"), sys.getsizeof(s)] for k, s in spectra.items()},
}))
"""


@pytest.mark.parametrize("first", ["init", "parse", "simulate", "replace"])
def test_every_sweep_and_spectrum_has_one_layout_whichever_constructor_runs_first(first):
    src = Path(rfplan.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", LAYOUT_PROBE, first], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)), check=True,
    )
    layouts = json.loads(proc.stdout)
    for kinds in layouts.values():
        (has_dict,), sizes = {has for has, _ in kinds.values()}, {size for _, size in kinds.values()}
        assert has_dict is False and len(sizes) == 1, kinds


def test_completing_a_complete_spectrum_changes_nothing():
    log = count_log([5, 5], n_bins=100)
    spectrum = aggregate(log, EWMA, position_id=plan.AP_ID)
    # handed twice in one batch, it is computed once and scored twice
    totals = plan._in_channel_mw([spectrum, spectrum], centers_of((1, 6)))
    assert totals[:, 0].tobytes() == totals[:, 1].tobytes()
    bins, carried = spectrum.bins, spectrum._dbm
    again = plan._in_channel_mw([spectrum], centers_of((1, 6)))
    assert spectrum.bins is bins and spectrum._dbm is carried
    assert again.tobytes() == totals[:, :1].tobytes()


def test_threads_completing_the_same_spectra_agree():
    log = count_log([7, 7, 3], n_bins=100)
    want = eager_twin(log, 0.3, "p")
    frames = [encode_frame(s) for s in log]
    want_sweeps = [s.bins for s in log]
    want_held = [
        tuple(map(float, log[0].bins)), tuple(float(max(col)) for col in zip(*want_sweeps))
    ]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            spectra = [aggregate(log, EWMA, alpha=0.3, position_id="p") for _ in range(3)]
            # shared records whose bins no thread has read yet
            parsed = [parse_frame(frame) for frame in frames]
            held = [aggregate(parsed[:1], MAX_HOLD), aggregate(parsed, MAX_HOLD)]
            got, got_records, errors = [], [], []

            def complete(k):
                # odd threads complete the EWMA spectra while even ones make
                # the first reads of the parsed sweeps' and max-hold bins
                try:
                    if k % 2:
                        plan._in_channel_mw(spectra, centers_of((6,)))
                    else:
                        got_records.append(([s.bins for s in parsed], [h.bins for h in held]))
                    got.append([spectrum.bins for spectrum in spectra])
                    if k % 2:
                        got_records.append(([s.bins for s in parsed], [h.bins for h in held]))
                except Exception as exc:  # collected for the assertion below
                    errors.append(exc)

            threads = [threading.Thread(target=complete, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert errors == []
            assert got == [[want.bins] * 3] * 6
            assert got_records == [(want_sweeps, want_held)] * 6
            assert all(spectrum == want and spectrum._pending is None for spectrum in spectra)
            assert parsed == log
    finally:
        sys.setswitchinterval(switch)


def test_equal_alphas_of_any_type_complete_in_one_batch(monkeypatch):
    # a float32 alpha whose float is not its float32 rounding of 0.3, and that
    # float as a longdouble and a Fraction: each smooths as the float, so the
    # four positions share one recurrence, and 1 - alpha rounds in float64
    narrow = np.nextafter(np.float32(0.3), np.float32(1.0))
    wide = float(narrow)
    log = count_log([6], n_bins=100)
    chosen = {plan.AP_ID: narrow, "c1": wide, "c2": np.longdouble(wide), "c3": Fraction(wide)}
    spectra = {
        pos: aggregate(log, EWMA, alpha=alpha, position_id=pos) for pos, alpha in chosen.items()
    }
    module = sys.modules[AggregatedSpectrum.__module__]  # the package's aggregate is the function
    ewma_mw, smoothed = module._ewma_mw, []
    monkeypatch.setattr(
        module, "_ewma_mw", lambda rows, alpha: smoothed.append(alpha) or ewma_mw(rows, alpha)
    )
    select_channel(spectra, CLIENT_AWARE)
    assert smoothed == [wide] and type(smoothed[0]) is float
    for spectrum in spectra.values():
        assert bits(spectrum.bins) == bits(ewma_per_sweep(log, wide))


# --- channel scoring ---------------------------------------------------------

def test_channel_centers():
    assert channel_center_khz(1) == 2_412_000
    assert channel_center_khz(6) == 2_437_000
    assert channel_center_khz(13) == 2_472_000
    assert channel_center_khz(14) == 2_484_000
    for bad in (0, 15, -3):
        with pytest.raises(DomainError):
            channel_center_khz(bad)


@pytest.mark.parametrize(
    "score",
    [
        channel_center_khz,
        lambda channel: channel_power_mw(flat_spectrum(-90.0), channel),
        lambda channel: select_channel({"ap": flat_spectrum(-90.0, "ap")}, AP_ONLY, [channel]),
    ],
    ids=["center", "power", "select"],
)
@pytest.mark.parametrize(
    ("channel", "message"),
    [
        (6.5, "channel must be an integer, got 6.5"),
        (True, "channel must be an integer, got True"),
        ("6", "channel must be an integer, got '6'"),
    ],
    ids=["float", "bool", "str"],
)
def test_a_channel_that_is_not_an_integer_is_named(score, channel, message):
    # 6.5 had a center between channels, True passed as channel 1, and
    # scoring 6.5 or "6" raised a bare TypeError
    with pytest.raises(DomainError, match=re.escape(message)):
        score(channel)


def test_channel_power_flat_minus_40():
    # 22 one-MHz bins inside the mask at -40 dBm
    power = channel_power_mw(flat_spectrum(-40.0), 6)
    assert power == pytest.approx(2.2e-3, rel=1e-12)
    assert 10 * math.log10(power) == pytest.approx(-26.575773191777937, abs=1e-9)


def test_channel_power_noise_floor_representation():
    power = channel_power_mw(flat_spectrum(-128.0), 6)
    assert power == pytest.approx(3.486765023414444e-12, rel=1e-12)


def test_channel_power_mask_coverage_required():
    narrow = AggregatedSpectrum(
        position_id="p", mode=MAX_HOLD, start_khz=2_430_000, bin_khz=1000,
        bins=tuple([-90.0] * 10), last_update_ms={},
    )
    with pytest.raises(DomainError):
        channel_power_mw(narrow, 6)
    with pytest.raises(DomainError):
        channel_power_mw(flat_spectrum(-90.0), 0)


@given(
    bin_index=st.integers(min_value=26, max_value=47),
    bump=st.integers(min_value=1, max_value=60),
)
def test_channel_power_monotone_in_bins(bin_index, bump):
    base = list(flat_spectrum(-90.0).bins)
    raised = base[:]
    raised[bin_index] = -90.0 + bump
    spec_lo = flat_spectrum(-90.0)
    spec_hi = AggregatedSpectrum(
        position_id="p", mode=MAX_HOLD, start_khz=SWEEP_GRID.start_khz,
        bin_khz=SWEEP_GRID.bin_khz,
        bins=tuple(raised), last_update_ms={},
    )
    assert channel_power_mw(spec_hi, 6) > channel_power_mw(spec_lo, 6)


# --- selection ---------------------------------------------------------------

def brute_force_choice(spectra, mode, candidates=range(1, 15), ap_id="ap"):
    """Deliberately independent rescoring: inline mask arithmetic, no library calls."""
    positions = [ap_id] if mode == AP_ONLY else list(spectra)

    def ch_power(spec, ch):
        center = 2_484_000 if ch == 14 else (2407 + 5 * ch) * 1000
        total = 0.0
        for i, dbm in enumerate(spec.bins):
            f = spec.start_khz + (i + 0.5) * spec.bin_khz
            if center - 11_000 <= f <= center + 11_000:
                total += 10.0 ** (dbm / 10.0)
        return total

    best = None
    for ch in candidates:
        worst = max(ch_power(spectra[p], ch) for p in positions)
        key = (worst, ch_power(spectra[ap_id], ch), 0 if ch in {1, 6, 11} else 1, ch)
        if best is None or key < best:
            best = key
    return best[3]


def test_all_noise_floor_picks_channel_one():
    spectra = {"ap": flat_spectrum(-95.0, "ap"), "c1": flat_spectrum(-95.0, "c1")}
    plan = select_channel(spectra, CLIENT_AWARE)
    assert plan.chosen_channel == 1
    assert select_channel(spectra, AP_ONLY).chosen_channel == 1


def test_selection_validation():
    spectra = {"ap": flat_spectrum(-95.0, "ap")}
    with pytest.raises(DomainError):
        select_channel(spectra, CLIENT_AWARE)  # no client spectrum
    with pytest.raises(DomainError):
        select_channel({"c1": flat_spectrum(-95.0)}, AP_ONLY)  # no AP spectrum
    with pytest.raises(DomainError):
        select_channel(spectra, AP_ONLY, candidates=())
    with pytest.raises(DomainError):
        select_channel(spectra, AP_ONLY, candidates=(0,))
    with pytest.raises(DomainError):
        select_channel(spectra, "psychic")
    with pytest.raises(DomainError):
        select_channel(spectra, AP_ONLY, objective="mean-square")


@pytest.mark.parametrize("mode", [AP_ONLY, CLIENT_AWARE])
def test_selection_refuses_a_value_that_is_not_a_spectrum(mode):
    log = count_log([3], n_bins=100)
    spectra = {"ap": aggregate(log, EWMA, position_id="ap"), "c": 5}
    with pytest.raises(DomainError) as info:
        select_channel(spectra, mode)
    assert str(info.value) == "position 'c' holds int, not a spectrum"


def test_channel_power_refuses_a_value_that_is_not_a_spectrum():
    with pytest.raises(DomainError) as info:
        channel_power_mw(5, 1)
    assert str(info.value) == "channel power needs a spectrum, got int"


def test_divergence_fixture_modes_differ():
    scenario = load_scenario(fixtures.divergence_scenario_path())
    ids, positions = default_sensor_layout(scenario)
    sweeps = simulate_sweeps(scenario, positions)
    spectra = {
        pid: aggregate([s], MAX_HOLD, position_id=pid) for pid, s in zip(ids, sweeps)
    }
    ap_plan = select_channel(spectra, AP_ONLY)
    client_plan = select_channel(spectra, CLIENT_AWARE)
    # the emitter parked next to c1 is invisible at the AP
    assert ap_plan.chosen_channel == 6
    assert client_plan.chosen_channel == 11
    assert ap_plan.chosen_channel != client_plan.chosen_channel
    assert ap_plan.chosen_channel == brute_force_choice(spectra, AP_ONLY)
    assert client_plan.chosen_channel == brute_force_choice(spectra, CLIENT_AWARE)


def random_scenario(seed):
    rng = random.Random(seed)
    clients = tuple(
        Client(id=f"c{i}", x=rng.uniform(-50, 50), y=rng.uniform(-50, 50))
        for i in range(rng.randint(1, 3))
    )
    emitters = tuple(
        Emitter(
            channel=rng.randint(1, 14),
            tx_power_dbm=rng.uniform(-20, 20),
            x=rng.uniform(-60, 60),
            y=rng.uniform(-60, 60),
        )
        for _ in range(rng.randint(1, 4))
    )
    return Scenario(
        ap_position=(0.0, 0.0),
        clients=clients,
        emitters=emitters,
        shadowing_sigma_db=rng.choice([0.0, 2.0, 4.0]),
        seed=seed,
    )


def test_selector_matches_brute_force_on_seeded_scenarios():
    for seed in range(100):
        scenario = random_scenario(seed)
        ids, positions = default_sensor_layout(scenario)
        sweeps = simulate_sweeps(scenario, positions)
        spectra = {
            pid: aggregate([s], MAX_HOLD, position_id=pid) for pid, s in zip(ids, sweeps)
        }
        for mode in (AP_ONLY, CLIENT_AWARE):
            plan = select_channel(spectra, mode)
            assert plan.chosen_channel == brute_force_choice(spectra, mode), (seed, mode)


def test_weighted_sum_objective_scores_add_up():
    spectra = {"ap": flat_spectrum(-40.0, "ap"), "c1": flat_spectrum(-50.0, "c1")}
    plan = select_channel(spectra, CLIENT_AWARE, objective=WEIGHTED_SUM)
    score = plan.per_channel_scores[plan.chosen_channel]
    assert score.objective == pytest.approx(sum(score.per_position_mw.values()), rel=1e-12)
    minimax_plan = select_channel(spectra, CLIENT_AWARE, objective=MINIMAX)
    worst = max(minimax_plan.per_channel_scores[1].per_position_mw.values())
    assert minimax_plan.per_channel_scores[1].objective == pytest.approx(worst, rel=1e-12)


def channel_power_per_bin(spectrum, channel):
    """In-channel power added bin by bin, left to right."""
    center = channel_center_khz(channel)
    mask = spectrum.grid.span(center - CHANNEL_HALF_WIDTH_KHZ, center + CHANNEL_HALF_WIDTH_KHZ)
    total = 0.0
    for dbm in spectrum.bins[mask]:
        total += 10.0 ** (dbm / 10.0)
    return total


def select_channel_per_bin(spectra, mode, candidates, objective):
    """select_channel scored one channel, position and bin at a time."""
    channels = tuple(candidates) if candidates is not None else tuple(range(1, 15))
    if not channels:
        raise DomainError("no candidate channels to choose from")
    for ch in channels:
        channel_center_khz(ch)
    if "ap" not in spectra:
        raise DomainError("no spectrum for the access-point position 'ap'")
    if mode == AP_ONLY:
        positions = ("ap",)
    elif mode == CLIENT_AWARE:
        if len(spectra) < 2:
            raise DomainError("client-aware selection needs at least one client spectrum")
        positions = tuple(spectra)
    else:
        raise DomainError(f"unknown selection mode {mode!r}")
    if objective not in (MINIMAX, WEIGHTED_SUM):
        raise DomainError(f"unknown objective {objective!r}")
    scores, ranking = {}, []
    for ch in channels:
        per_position = {pos: channel_power_per_bin(spectra[pos], ch) for pos in positions}
        if objective == MINIMAX:
            value = max(per_position.values())
        else:
            value = functools.reduce(operator.add, per_position.values())
        scores[ch] = (list(per_position), bits(per_position.values()), value.hex())
        ranking.append((value, per_position["ap"], 0 if ch in (1, 6, 11) else 1, ch))
    return min(ranking)[3], scores


def plan_bits(plan):
    return plan.chosen_channel, {
        ch: (list(score.per_position_mw), bits(score.per_position_mw.values()),
             score.objective.hex())
        for ch, score in plan.per_channel_scores.items()
    }


# the sweep grid, a narrower one that misses the top channels, coarser and
# finer bins whose masks hold different bin counts per channel, bins so wide
# that some masks hold none, and a grid that covers nothing
SCORING_GRIDS = (
    (SWEEP_GRID.start_khz, SWEEP_GRID.bin_khz, SWEEP_GRID.n_bins),
    (2_400_000, 1_000, 80),
    (2_399_500, 3_000, 34),
    (2_400_000, 700, 130),
    (2_390_000, 30_000, 4),
    (2_300_000, 1_000, 40),
)


@st.composite
def scored_spectra(draw):
    n_clients = draw(st.integers(0, 5))
    ids = draw(st.permutations(["ap", *(f"c{i}" for i in range(n_clients))]))
    start, width, n = draw(st.sampled_from(SCORING_GRIDS))  # one grid per scoring call
    rng = random.Random(draw(st.integers(0, 2**32)))
    spectra = {}
    for pos in ids:
        bins = tuple(
            rng.choice([float(rng.randint(-128, 127)), rng.uniform(-130.0, 20.0), -0.0])
            for _ in range(n)
        )
        spectra[pos] = AggregatedSpectrum(pos, MAX_HOLD, start, width, bins, {})
    return spectra


candidate_lists = st.one_of(
    st.none(),
    st.lists(st.integers(1, 14), min_size=1, max_size=20),
    st.lists(st.integers(0, 15), max_size=4),
)


@given(
    scored_spectra(),
    st.sampled_from([AP_ONLY, CLIENT_AWARE]),
    candidate_lists,
    st.sampled_from([MINIMAX, WEIGHTED_SUM]),
)
def test_select_channel_matches_per_bin_oracle(spectra, mode, candidates, objective):
    got = outcome(select_channel, spectra, mode, candidates, objective)
    want = outcome(select_channel_per_bin, spectra, mode, candidates, objective)
    assert (got if isinstance(want, str) else plan_bits(got)) == want
    for spectrum in spectra.values():
        for ch in candidates or (1, 14):
            got = outcome(channel_power_mw, spectrum, ch)
            want = outcome(channel_power_per_bin, spectrum, ch)
            assert got == want if isinstance(want, str) else got.hex() == want.hex()


def eager_scores(spectra, mode, candidates, objective):
    """select_channel's scores, each map built whole, as ChannelScore by hand."""
    positions = (plan.AP_ID,) if mode == AP_ONLY else tuple(spectra)
    scores = {}
    for ch in candidates or ALL_CHANNELS:
        per_position = {pos: channel_power_mw(spectra[pos], ch) for pos in positions}
        if objective == MINIMAX:
            value = max(per_position.values())
        else:
            value = functools.reduce(operator.add, per_position.values(), 0.0)
        scores[ch] = ChannelScore(per_position_mw=per_position, objective=value)
    return scores


@given(
    scored_spectra().filter(lambda spectra: len(spectra) > 1),
    st.sampled_from([AP_ONLY, CLIENT_AWARE]),
    st.one_of(st.none(), st.lists(st.integers(1, 14), min_size=1, max_size=20)),
    st.sampled_from([MINIMAX, WEIGHTED_SUM]),
)
def test_plan_scores_read_like_scores_built_by_hand(spectra, mode, candidates, objective):
    map_set = functools.partial(bins_slot_set, name="per_position_mw")
    # scored_spectra permutes the positions, so the AP is not always first
    twins = outcome(eager_scores, spectra, mode, candidates, objective)
    if isinstance(twins, str):  # a grid that does not cover a candidate
        assert isinstance(outcome(select_channel, spectra, mode, candidates, objective), str)
        return
    for twin in twins.values():
        assert twin._positions is None and twin._row is None and map_set(twin)
    reads = [
        operator.attrgetter("per_position_mw"),
        repr,
        dataclasses.replace,
        dataclasses.asdict,
        lambda score: dataclasses.replace(score, objective=-1.0),
        *COPIES,
    ]
    # each read makes the first read of fresh scores' maps; None stands for ==
    for read in [*reads, None]:
        scores = select_channel(spectra, mode, candidates, objective).per_channel_scores
        assert list(scores) == list(twins)
        for score, twin in zip(scores.values(), twins.values()):
            assert not map_set(score)
            if read is None:
                assert score == twin
            else:
                got, want = read(score), read(twin)
                assert type(got) is type(want) and repr(got) == repr(want)
                if isinstance(got, ChannelScore):
                    # a copy or a replaced score carries the map, built
                    assert got._positions is None and got._row is None and map_set(got)
                    assert got == want
            assert map_set(score)
            assert list(score.per_position_mw) == list(twin.per_position_mw)
            assert bits(score.per_position_mw.values()) == bits(twin.per_position_mw.values())
            assert all(type(mw) is float for mw in score.per_position_mw.values())
            assert score.objective.hex() == twin.objective.hex()


# bins wider than the 22 MHz mask: on the first grid some channels' masks hold
# no bin; on the second, whose centers are 2410 and 2470 MHz, the masks of
# channels 3, 9 and 10 hold none
WIDE_BIN_GRIDS = ((2_390_000, 30_000, 4), (2_380_000, 60_000, 2))


@pytest.mark.parametrize("grid", WIDE_BIN_GRIDS)
@pytest.mark.parametrize("candidates", [None, (3, 9, 10)])
def test_empty_masks_score_like_the_per_bin_oracle(grid, candidates):
    start, width, n = grid
    rng = random.Random(7)
    spectra = {}
    for pos in ("ap", "c0", "c1"):
        sweeps = [sweep([rng.randint(-128, 127) for _ in range(n)], sensor_id=k, t=k,
                        start=start, width=width) for k in range(3)]
        spectra[pos] = aggregate(sweeps, EWMA, position_id=pos)  # float bins: the scalar pow
        spectra[f"{pos}-max"] = aggregate(sweeps, MAX_HOLD, position_id=pos)  # the level table
    for mode in (AP_ONLY, CLIENT_AWARE):
        for objective in (MINIMAX, WEIGHTED_SUM):
            got = select_channel(spectra, mode, candidates, objective)
            assert plan_bits(got) == select_channel_per_bin(spectra, mode, candidates, objective)
    for spectrum in spectra.values():
        for ch in candidates or ALL_CHANNELS:
            assert channel_power_mw(spectrum, ch).hex() == channel_power_per_bin(spectrum, ch).hex()
    if candidates is not None and n == 2:
        plan = select_channel(spectra, CLIENT_AWARE, candidates)
        assert {value for score in plan.per_channel_scores.values()
                for value in score.per_position_mw.values()} == {0.0}


def test_scalar_mw_table_entries_match_the_scalar_expression():
    # max-hold scoring reads a bin's mW from this table, so each entry must be
    # the scalar pow that scores any other bin, bit for bit
    expected = np.array([10.0 ** (float(level) / 10.0) for level in _LEVELS])
    assert _SCALAR_MW.tobytes() == expected.tobytes()


# the sweep grid; channel 1's mask edge on the first bin and channel 14's on
# the last; one bin in a single mask, or in the masks of channels 1-5 and in
# none of 6-7; 256 bins, so a rotated sweep holds every level from -128 to 127
MAX_HOLD_GRIDS = (
    (SWEEP_GRID.start_khz, SWEEP_GRID.bin_khz, SWEEP_GRID.n_bins),
    (2_401_000, 1_000, 94),
    (2_401_000, 22_000, 1),
    (2_390_000, 65_000, 1),
    (2_390_000, 500, 256),
)


@st.composite
def max_hold_spectra(draw):
    """Spectra that aggregate max-holds from 1-3 random sweeps per position."""
    n_clients = draw(st.integers(0, 5))
    ids = draw(st.permutations(["ap", *(f"c{i}" for i in range(n_clients))]))
    shared = draw(st.sampled_from(MAX_HOLD_GRIDS))
    single = draw(st.booleans())
    spectra = {}
    for pos in ids:
        start, width, n = shared if single else draw(st.sampled_from(MAX_HOLD_GRIDS))
        sweeps = []
        for k in range(draw(st.integers(1, 3))):
            if draw(st.booleans()):
                shift = draw(st.integers(0, 255))
                bins = [(shift + i) % 256 - 128 for i in range(n)]
            else:
                bins = np.frombuffer(draw(st.binary(min_size=n, max_size=n)), np.int8).tolist()
            sweeps.append(sweep(bins, sensor_id=k, start=start, width=width))
        spectra[pos] = aggregate(sweeps, MAX_HOLD, position_id=pos)
    return spectra


@given(
    max_hold_spectra(),
    st.sampled_from([AP_ONLY, CLIENT_AWARE]),
    st.one_of(st.none(), st.lists(st.integers(1, 14), min_size=1, max_size=14, unique=True)),
    st.sampled_from([MINIMAX, WEIGHTED_SUM]),
    st.integers(0, 2**32 - 1),
)
def test_max_hold_levels_score_like_the_bins(spectra, mode, candidates, objective, seed):
    # dataclasses.replace drops the carried levels, so the copies are scored
    # from their bins as float64 dBm; a mapping with a drawn subset replaced
    # reads the others' levels as dBm rows too
    scalar = {pos: dataclasses.replace(spectrum) for pos, spectrum in spectra.items()}
    assert all(spectrum._levels is not None for spectrum in spectra.values())
    assert all(spectrum._levels is None for spectrum in scalar.values())
    pick = random.Random(seed)
    chosen = set(pick.sample(sorted(spectra), pick.randint(0, len(spectra))))
    mixed = {pos: scalar[pos] if pos in chosen else s for pos, s in spectra.items()}
    got = outcome(select_channel, spectra, mode, candidates, objective)
    for other in (scalar, mixed):
        want = outcome(select_channel, other, mode, candidates, objective)
        assert repr(got) == repr(want)
    listed, channels = list(mixed.values()), tuple(candidates or ALL_CHANNELS)
    if len({s.grid for s in listed}) == 1:  # the oracle scores two grids side by side
        # a bad candidate is refused by its centre, before either is called
        got = outcome(lambda: plan._in_channel_mw(listed, centers_of(channels)))
        want = outcome(lambda: in_channel_mw_scalar_pow(listed, centers_of(channels)))
        assert got == want if isinstance(want, str) else got.tobytes() == want.tobytes()
    for pos, spectrum in spectra.items():
        for ch in candidates or ALL_CHANNELS:
            got = outcome(channel_power_mw, spectrum, ch)
            want = outcome(channel_power_mw, scalar[pos], ch)
            assert repr(got) == repr(want)


@functools.cache
def simulated_sweep_pool():
    """Sweeps on SWEEP_GRID that carry their slice of the simulator's payload."""
    pool = []
    for seed in range(4):
        scenario = random_scenario(seed)
        pool += simulate_sweeps(scenario, default_sensor_layout(scenario)[1], t_ms=seed)
    return tuple(pool)


@st.composite
def max_hold_logs(draw):
    """1-3 positions on one grid, each with 1-8 sweeps: hand-built ones, which
    pack their payload when built, and parsed, simulated and JSONL-read ones."""
    start, width, n = draw(st.one_of(
        st.sampled_from(MAX_HOLD_GRIDS),
        st.tuples(st.integers(2_300_000, 2_500_000), st.integers(1, 30_000), st.integers(1, 8)),
    ))
    sources = ["tuple", "frame", "jsonl"]
    if (start, width, n) == (SWEEP_GRID.start_khz, SWEEP_GRID.bin_khz, SWEEP_GRID.n_bins):
        sources.append("simulated")
    logs = {}
    for pos in ["ap", "c0", "c1"][: draw(st.integers(1, 3))]:
        log = []
        for _ in range(draw(st.integers(1, 8))):
            source = draw(st.sampled_from(sources))
            if source == "simulated":
                log.append(draw(st.sampled_from(simulated_sweep_pool())))
                continue
            if draw(st.booleans()):
                shift = draw(st.integers(0, 255))
                bins = [(shift + i) % 256 - 128 for i in range(n)]
            else:
                bins = np.frombuffer(draw(st.binary(min_size=n, max_size=n)), np.int8).tolist()
            s = sweep(bins, draw(st.integers(0, 3)), draw(st.integers(0, 3)), start, width)
            if source == "frame":
                s = parse_frame(encode_frame(s))
            elif source == "jsonl":
                (s,) = sweeps_from_jsonl(sweeps_to_jsonl([s]))
            log.append(s)
        logs[pos] = log
    return logs


def max_hold_numpy(sweeps, position_id):
    """Max-hold by numpy's max over every sweep, converted back to floats."""
    peak = np.array([s.bins for s in sweeps], np.int8).max(axis=0)
    last_update = {}
    for s in sweeps:
        last_update[s.sensor_id] = max(last_update.get(s.sensor_id, s.timestamp_ms), s.timestamp_ms)
    first = sweeps[0]
    bins = tuple(peak.astype(float).tolist())
    return _spectrum(
        position_id, MAX_HOLD, first.start_khz, first.bin_khz, last_update, bins, peak.tobytes(),
        None, None,
    )


# a lone one-bin sweep takes _lookup's single-byte branch
@pytest.mark.deep_fuzz
@example({"ap": [sweep([-128], start=2_401_000, width=22_000)]})
@given(max_hold_logs())
@BYTE_TABLE
def test_max_hold_byte_table_matches_the_numpy_max(logs):
    got = {pos: aggregate(log, MAX_HOLD, position_id=pos) for pos, log in logs.items()}
    want = {pos: max_hold_numpy(log, pos) for pos, log in logs.items()}
    for pos, spectrum in got.items():
        assert spectrum == want[pos]
        assert bits(spectrum.bins) == bits(want[pos].bins)
        assert all(type(b) is float for b in spectrum.bins)
        assert list(spectrum.last_update_ms.items()) == list(want[pos].last_update_ms.items())
        assert spectrum._levels == want[pos]._levels
    for mode in (AP_ONLY, CLIENT_AWARE):
        for objective in (MINIMAX, WEIGHTED_SUM):
            plan_got = outcome(select_channel, got, mode, None, objective)
            plan_want = outcome(select_channel, want, mode, None, objective)
            assert repr(plan_got) == repr(plan_want)


# --- spectrum construction ---------------------------------------------------

OVERLONG = 10**5000  # past sys.get_int_max_str_digits(): repr raises

# every kind of value a hand-built bin might be, and the edges of the bound
bin_values = st.one_of(
    st.floats(),
    st.floats(-1100.0, 1100.0),
    st.sampled_from([1000, -1000, 1001, 1000.0, -1000.0, math.nextafter(1000.0, math.inf),
                     math.nextafter(-1000.0, -math.inf), Fraction(10001, 10), OVERLONG,
                     -OVERLONG, None]),
    st.integers(-2000, 2000),
    st.integers(2**1024, 10**400),  # ints past the float range, on both sides
    st.integers(2**1024, 10**400).map(operator.neg),
    st.fractions(),
    st.booleans(),
    st.text(max_size=4),
    st.complex_numbers(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)


def within_bound(value):
    """Whether a spectrum may hold value as a bin: a real number other than a
    bool, in [-1000, 1000] dBm, compared exactly."""
    if isinstance(value, np.generic):
        value = value.item()
    if not isinstance(value, (int, float, Fraction)) or isinstance(value, bool):
        return False
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return abs(Fraction(value)) <= 1000


def shown(value):
    try:
        return repr(value)
    except ValueError:
        return f"an overlong {type(value).__name__}"


@given(bin_values, st.integers(0, 99), st.sampled_from(["ap", "c3"]))
# the bins scoring used to refuse as it met them: pow overflow, nan, +inf,
# a total past the float range from finite terms, a bin no channel-1 mask
# holds, -inf dBm (0 mW), the positions of a weighted sum past the float
# range, and ints past the float range on either side
@example(4000.0, 0, "ap")
@example(math.nan, 0, "ap")
@example(math.inf, 30, "ap")
@example(3080.0, 0, "ap")
@example(4000.0, 50, "ap")
@example(-math.inf, 0, "ap")
@example(3060.0, 0, "c3")
@example(10**400, 0, "ap")
@example(-(10**400), 0, "ap")
@example(OVERLONG, 99, "ap")
def test_a_spectrum_holds_only_real_bins_within_the_bound(value, at, position):
    bins = [-90.0] * 100
    bins[at] = value
    if within_bound(value):
        spectrum = AggregatedSpectrum(position, MAX_HOLD, 2_400_000, 1_000, tuple(bins), {})
        assert spectrum.bins[at] is value
    else:
        with pytest.raises(DomainError) as info:
            AggregatedSpectrum(position, MAX_HOLD, 2_400_000, 1_000, tuple(bins), {})
        assert str(info.value) == (
            f"bin value {shown(value)} at position {position!r} must be a real number "
            "in [-1000.0, 1000.0] dBm"
        )


@pytest.mark.parametrize("bins", [5, None, -90.0])
def test_a_spectrum_names_bins_that_are_not_a_sequence(bins):
    message = f"bins at position 'c1' must be a sequence of real numbers, got {bins!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        AggregatedSpectrum("c1", MAX_HOLD, 2_400_000, 1_000, bins, {})


@pytest.mark.parametrize("make", [list, iter, np.array])
def test_a_spectrum_keeps_its_bins_as_a_tuple(make):
    # an iterator's bins were spent by the check, and scoring then raised a bare TypeError
    bins = [-90.0 + k for k in range(100)]
    spectrum = AggregatedSpectrum("ap", MAX_HOLD, 2_400_000, 1_000, make(bins), {})
    twin = AggregatedSpectrum("ap", MAX_HOLD, 2_400_000, 1_000, tuple(bins), {})
    assert type(spectrum.bins) is tuple and spectrum == twin
    plans = [select_channel({"ap": record}, AP_ONLY) for record in (spectrum, twin)]
    assert repr(plans[0]) == repr(plans[1])


def test_bins_at_the_bound_score_finite_under_both_objectives():
    # the worst case the bound allows: every bin at MAX_DB, 1e100 mW, on a
    # 1-kHz grid, where channel 6's mask holds 22,000 bins, at 21 positions
    assert MAX_DB == 1000.0
    bins = (MAX_DB,) * 22_000
    spectra = {
        pos: AggregatedSpectrum(pos, EWMA, 2_426_000, 1, bins, {})
        for pos in ("ap", *(f"c{i}" for i in range(20)))
    }
    center = channel_center_khz(6)
    mask = spectra["ap"].grid.span(center - CHANNEL_HALF_WIDTH_KHZ, center + CHANNEL_HALF_WIDTH_KHZ)
    assert mask == slice(0, 22_000)
    for objective, want in [(MINIMAX, 2.2e104), (WEIGHTED_SUM, 21 * 2.2e104)]:
        score = select_channel(spectra, CLIENT_AWARE, [6], objective).per_channel_scores[6]
        assert score.objective == pytest.approx(want, rel=1e-9)
        assert all(value == pytest.approx(2.2e104, rel=1e-9)
                   for value in score.per_position_mw.values())
    # the ten 3060-dBm positions whose weighted sum passed the float range
    # cannot be built
    with pytest.raises(DomainError, match=re.escape("bin value 3060.0 at position 'ap'")):
        AggregatedSpectrum("ap", MAX_HOLD, 2_400_000, 1_000, (3060.0,) * 100, {})


@given(
    st.lists(st.floats(), min_size=2, max_size=4).flatmap(
        lambda values: st.lists(st.sampled_from(values), min_size=100, max_size=100)
    ),
    st.integers(0, 3),
    st.sampled_from([AP_ONLY, CLIENT_AWARE]),
    st.sampled_from([MINIMAX, WEIGHTED_SUM]),
)
@example([math.nan] * 100, 0, AP_ONLY, MINIMAX)
@example([math.inf] * 100, 0, AP_ONLY, MINIMAX)
@example([-math.inf] * 100, 0, AP_ONLY, MINIMAX)
@example([4000.0] * 100, 0, AP_ONLY, MINIMAX)
@example([3080.0] * 100, 0, AP_ONLY, MINIMAX)
@example([3060.0] * 100, 9, CLIENT_AWARE, WEIGHTED_SUM)
@example([1000.0] * 100, 3, CLIENT_AWARE, WEIGHTED_SUM)
@example([-1000.0, 5e-324] * 50, 3, CLIENT_AWARE, MINIMAX)
def test_any_float_bins_give_finite_scores_or_raise_domain_error(bins, n_clients, mode, objective):
    # bins within the bound always score finite; any other is refused when
    # the spectrum is built
    if not all(-MAX_DB <= dbm <= MAX_DB for dbm in bins):  # nan fails both sides
        with pytest.raises(DomainError):
            AggregatedSpectrum("ap", MAX_HOLD, 2_400_000, 1_000, tuple(bins), {})
        return
    ids = ("ap", *(f"c{i}" for i in range(n_clients)))
    spectra = {
        pos: AggregatedSpectrum(pos, MAX_HOLD, 2_400_000, 1_000, tuple(bins[k:] + bins[:k]), {})
        for k, pos in enumerate(ids)
    }
    if mode == CLIENT_AWARE and n_clients == 0:
        with pytest.raises(DomainError, match="needs at least one client"):
            select_channel(spectra, mode, objective=objective)
        return
    plan = select_channel(spectra, mode, objective=objective)
    for score in plan.per_channel_scores.values():
        assert math.isfinite(score.objective)
        assert all(map(math.isfinite, score.per_position_mw.values()))


# --- the C library's pow ------------------------------------------------------

def scalar_pow10(x):
    """10.0 ** x, the OverflowError of a finite x read as inf."""
    try:
        return 10.0 ** x
    except OverflowError:
        return math.inf


# 10.0 ** x is finite at this x and overflows at the next float
LAST_FINITE_EXPONENT = 308.2547155599167


@given(st.lists(st.floats(), min_size=1, max_size=24))  # any float, nan and +-inf included
@example([LAST_FINITE_EXPONENT])
@example([math.nextafter(LAST_FINITE_EXPONENT, math.inf)])
@example([-307.66, -310.0, -320.5, -323.3, -324.0])  # subnormal results, 5e-324, then 0
@example([0.0, -0.0])
@example([math.inf, -math.inf, math.nan])
def test_float_power_is_the_scalar_pow(xs):
    # scoring and the simulator rely on np.float_power calling the C library's
    # pow, as float ** does; np.power's SIMD loop need not give the same bits
    # (nan compares as nan, whatever its sign and payload)
    want = bits(map(scalar_pow10, xs))
    with np.errstate(over="ignore"):
        assert bits(np.float_power(10.0, np.array(x))[()] for x in xs) == want
        assert bits([np.float_power(10.0, np.array([x]))[0] for x in xs]) == want
        assert bits(np.float_power(10.0, np.array(xs))) == want
        assert bits(np.float_power(10.0, np.array(xs * 2).reshape(2, -1)).ravel()) == want * 2
        assert bits(np.float_power(10.0, np.repeat(xs, 3)[::3])) == want  # strided
        assert bits(np.float_power(10.0, np.array(xs[::-1]))[::-1]) == want


def centers_of(channels):
    """The channels' centres, as select_channel hands them to plan._in_channel_mw."""
    return tuple(map(channel_center_khz, channels))


def in_channel_mw_scalar_pow(spectra, centers):
    """plan._in_channel_mw with every power the scalar pow, added bin by bin.

    Masks are formed channel by channel, then grid by first use.
    """
    members = {}
    for k, spectrum in enumerate(spectra):
        members.setdefault(spectrum.grid, []).append(k)
    masks = {grid: [] for grid in members}
    for center in centers:
        for grid, grid_masks in masks.items():
            grid_masks.append(
                grid.span(center - CHANNEL_HALF_WIDTH_KHZ, center + CHANNEL_HALF_WIDTH_KHZ)
            )
    totals = np.empty((len(centers), len(spectra)))
    for grid, on_grid in members.items():
        for k in on_grid:
            for row, mask in enumerate(masks[grid]):
                total = 0.0
                for dbm in spectra[k].bins[mask]:
                    total += 10.0 ** (dbm / 10.0)
                totals[row, k] = total
    return totals


# the bound on either side, a signed zero, the least subnormal, and an int and
# a Fraction, which a spectrum carries as their floats
DBM_EXTREMES = (MAX_DB, -MAX_DB, -0.0, 5e-324, 999, Fraction(-181, 2))


@st.composite
def float_bin_spectra(draw):
    """Hand-built spectra: dBm on a plan's scale, a drawn share from a small
    pool of any floats within the bound and extremes, on one grid."""
    n_clients = draw(st.integers(0, 4))
    ids = draw(st.permutations(["ap", *(f"c{i}" for i in range(n_clients))]))
    values = st.one_of(st.floats(-MAX_DB, MAX_DB), st.sampled_from(DBM_EXTREMES))
    pool = draw(st.lists(values, min_size=1, max_size=4))
    share = draw(st.sampled_from([0.0, 0.02, 0.2, 1.0]))
    start, width, n = draw(st.sampled_from(SCORING_GRIDS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    spectra = {}
    for pos in ids:
        bins = tuple(
            rng.choice(pool) if rng.random() < share else rng.uniform(-130.0, 20.0)
            for _ in range(n)
        )
        spectra[pos] = AggregatedSpectrum(pos, EWMA, start, width, bins, {})
    return spectra


def uniform_spectra(dbm, n_clients=1):
    return {
        pos: AggregatedSpectrum(pos, EWMA, 2_400_000, 1_000, (-90.0,) * 50 + (dbm,) * 50, {})
        for pos in ("ap", *(f"c{i}" for i in range(n_clients)))
    }


@pytest.mark.deep_fuzz
@given(
    float_bin_spectra(),
    st.sampled_from([AP_ONLY, CLIENT_AWARE]),
    candidate_lists,
    st.sampled_from([MINIMAX, WEIGHTED_SUM]),
)
@example(uniform_spectra(MAX_DB), CLIENT_AWARE, None, MINIMAX)
@example(uniform_spectra(-MAX_DB), CLIENT_AWARE, None, WEIGHTED_SUM)
@example(uniform_spectra(5e-324), AP_ONLY, None, MINIMAX)
@example(uniform_spectra(MAX_DB, 20), CLIENT_AWARE, None, WEIGHTED_SUM)
@SCALAR_POW
def test_float_bins_score_like_the_scalar_pow(spectra, mode, candidates, objective):
    listed = list(spectra.values())
    channels = tuple(candidates or ALL_CHANNELS)
    # a bad candidate is refused by its centre, before either is called
    got = outcome(lambda: plan._in_channel_mw(listed, centers_of(channels)))
    want = outcome(lambda: in_channel_mw_scalar_pow(listed, centers_of(channels)))
    assert got == want if isinstance(want, str) else got.tobytes() == want.tobytes()
    got = outcome(select_channel, spectra, mode, candidates, objective)
    with mock.patch.object(plan, "_in_channel_mw", in_channel_mw_scalar_pow):
        want = outcome(select_channel, spectra, mode, candidates, objective)
    assert repr(got) == repr(want)


def test_select_channel_takes_each_centre_once():
    with mock.patch.object(plan, "channel_center_khz", wraps=plan.channel_center_khz) as center:
        select_channel(uniform_spectra(-60.0), CLIENT_AWARE, (1, 6, 11, 6))
    assert [call.args for call in center.call_args_list] == [(1,), (6,), (11,), (6,)]


def mixed_grid_message(spectrum, first):
    return (
        f"spectra disagree on the bin grid ({spectrum.position_id!r} on {spectrum.grid} vs "
        f"{first.position_id!r} on {first.grid}); resampling is not supported"
    )


def test_uncovered_grid_names_the_first_channel_and_position():
    # one grid over [2400, 2480] MHz, which misses channels 13 and 14: the
    # first of them in candidate order is named. Twice each: the scoring
    # index is cached, a failure is not
    spectra = {
        pos: AggregatedSpectrum(pos, MAX_HOLD, 2_400_000, 1_000, (-90.0,) * 80, {})
        for pos in ("ap", "c1")
    }
    for _ in range(2):
        for candidates, uncovered in (((13, 1, 14), "[2461000, 2483000]"),
                                      ((1, 14, 13), "[2473000, 2495000]")):
            with pytest.raises(DomainError) as info:
                select_channel(spectra, CLIENT_AWARE, candidates)
            assert str(info.value) == (
                f"spectrum [2400000, 2480000] kHz does not cover {uncovered} kHz"
            )
    # a second grid, which misses every candidate, is refused before any mask is formed
    spectra["c2"] = AggregatedSpectrum("c2", MAX_HOLD, 2_430_000, 1_000, (-90.0,) * 30, {})
    with pytest.raises(DomainError) as info:
        select_channel(spectra, CLIENT_AWARE, candidates=(13, 1))
    assert str(info.value) == mixed_grid_message(spectra["c2"], spectra["ap"])


def test_mixed_grids_are_refused_in_either_order():
    fine = flat_spectrum(-60.0, "fine")
    coarse = AggregatedSpectrum(
        "coarse", MAX_HOLD, 2_400_000, 2_000, tuple(-70.0 + 0.5 * k for k in range(45)), {}
    )
    # a pending EWMA spectrum on the sweep grid's start and width but with 7
    # bins is completed before its grid is compared
    pending = aggregate(count_log([2, 1]), EWMA, position_id="pending")
    for first, second in ((fine, coarse), (coarse, fine), (fine, pending), (pending, coarse)):
        for _ in range(2):
            with pytest.raises(DomainError) as info:
                plan._in_channel_mw([first, second], centers_of((3, 6, 1, 6)))
            assert str(info.value) == mixed_grid_message(second, first)
        with pytest.raises(DomainError) as info:
            select_channel({"ap": first, "c": second}, CLIENT_AWARE)
        assert str(info.value) == mixed_grid_message(second, first)
    # each grid on its own scores as the oracle does
    centers = centers_of((3, 6, 1, 6))
    for spectrum in (fine, coarse):
        got = plan._in_channel_mw([spectrum, spectrum], centers)
        assert got.tobytes() == in_channel_mw_scalar_pow([spectrum] * 2, centers).tobytes()


def test_a_float_grid_leaves_the_scoring_index_cache_alone():
    # lru_cache takes 2400000.0 for 2400000: a float grid is refused when the
    # spectrum is built, so it never reaches the cache, and a numpy int grid
    # is kept as ints
    plan._scoring_index.cache_clear()
    ints = flat_spectrum(-60.0, "ints")
    for name in ("start_khz", "bin_khz"):
        value = float(getattr(ints, name))
        with pytest.raises(DomainError, match=f"^spectrum {name} must be an integer, got {value}$"):
            dataclasses.replace(ints, **{name: value})
    numpy_ints = dataclasses.replace(
        ints, start_khz=np.int64(ints.start_khz), bin_khz=np.int64(ints.bin_khz)
    )
    assert type(numpy_ints.start_khz) is int and type(numpy_ints.bin_khz) is int
    for spectra in ([ints], [numpy_ints, ints]):
        got = plan._in_channel_mw(spectra, centers_of((1, 6)))
        assert got.tobytes() == in_channel_mw_scalar_pow(spectra, centers_of((1, 6))).tobytes()
    assert plan._scoring_index.cache_info().currsize == 1  # both calls met one grid


def survey_spectra(seed):
    scenario = survey_scenario(seed)
    ids, positions = default_sensor_layout(scenario)
    sweeps = simulate_sweeps(scenario, positions)
    return {pid: aggregate([s], MAX_HOLD, position_id=pid) for pid, s in zip(ids, sweeps)}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_weighted_sum_adds_positions_left_to_right(seed):
    # sum() of floats is compensated from Python 3.12 on, so it would give
    # other last bits than this order on a 51-position survey
    plan = select_channel(survey_spectra(seed), CLIENT_AWARE, objective=WEIGHTED_SUM)
    for score in plan.per_channel_scores.values():
        per_position = list(score.per_position_mw.values())
        assert len(per_position) == 51
        assert score.objective.hex() == functools.reduce(operator.add, per_position).hex()


def test_candidate_restriction_respected():
    spectra = {"ap": flat_spectrum(-95.0, "ap"), "c1": flat_spectrum(-95.0, "c1")}
    plan = select_channel(spectra, CLIENT_AWARE, candidates=(13, 9))
    assert plan.chosen_channel == 9  # lowest index on a flat tie, no preferred in set
    assert set(plan.per_channel_scores) == {13, 9}


# --- simulator ---------------------------------------------------------------

def test_simulate_empty_scenario_is_noise_floor():
    scenario = Scenario(ap_position=(0.0, 0.0))
    (s,) = simulate_sweeps(scenario, [(0.0, 0.0)])
    assert s.bins == tuple([-95] * SWEEP_GRID.n_bins)
    assert s.start_khz == SWEEP_GRID.start_khz
    assert s.grid.n_bins == SWEEP_GRID.n_bins


def test_simulate_single_emitter_reference_level():
    # 20 dBm on channel 6 at 10 m, no shadowing:
    # 20 - fspl(10 m, 2437 MHz) - 10log10(22) = -53.609 -> -54 as int8
    scenario = Scenario(
        ap_position=(0.0, 0.0),
        emitters=(Emitter(channel=6, tx_power_dbm=20.0, x=10.0, y=0.0),),
        shadowing_sigma_db=0.0,
    )
    (s,) = simulate_sweeps(scenario, [(0.0, 0.0)])
    in_mask = [b for i, b in enumerate(s.bins) if 26 <= i <= 47]
    out_mask = [b for i, b in enumerate(s.bins) if not 26 <= i <= 47]
    assert len(in_mask) == 22
    assert all(b == -54 for b in in_mask)
    assert all(b == -95 for b in out_mask)


def test_simulate_rejects_an_emitter_beyond_float_range():
    # a coordinate past the length domain is refused when the emitter is built
    with pytest.raises(DomainError, match="^emitter x must lie in .*, got 1e\\+307$"):
        Emitter(channel=6, tx_power_dbm=20.0, x=1e307, y=0.0)


TX_BOUND = "emitter tx_power_dbm must lie in [-1000.0, 1000.0], got "
SIGMA_BOUND = "shadowing_sigma_db must lie in [0.0, 100.0], got "


@pytest.mark.parametrize(
    ("emitters", "sigma", "named"),
    [
        (((6, 4000.0),), 0.0, TX_BOUND + "4000.0"),
        # the first emitter past the bound, in scenario order, is the one named
        (((6, 10.0), (1, 3130.0), (11, 4000.0)), 0.0, TX_BOUND + "3130.0"),
        (((6, 20.0),), 1e300, SIGMA_BOUND + "1e+300"),
        # the next float past either bound
        (((6, math.nextafter(1000.0, math.inf)),), 0.0, TX_BOUND + "1000.0000000000001"),
        (((6, math.nextafter(-1000.0, -math.inf)),), 0.0, TX_BOUND + "-1000.0000000000001"),
        (((6, 20.0),), math.nextafter(100.0, math.inf), SIGMA_BOUND + "100.00000000000001"),
        (((6, 20.0),), -5e-324, SIGMA_BOUND + "-5e-324"),
    ],
    ids=["tx-power", "first-emitter", "shadowing", "next-tx-up", "next-tx-down", "next-sigma-up",
         "next-sigma-down"],
)
def test_simulate_names_an_emitter_whose_power_leaves_float_range(emitters, sigma, named):
    # a scenario is refused when it is built if it may put a link's mW past
    # the float range: the tx power or the sigma past its bound is named
    with pytest.raises(DomainError) as info:
        Scenario(
            ap_position=(0.0, 0.0),
            emitters=tuple(Emitter(ch, tx, 10.0, 0.0) for ch, tx in emitters),
            shadowing_sigma_db=sigma,
            seed=3,
        )
    assert str(info.value) == named


def test_simulate_deterministic_bytes():
    scenario = random_scenario(1234)
    positions = [(0.0, 0.0), (10.0, 5.0)]
    one = simulate_sweeps(scenario, positions, t_ms=7)
    two = simulate_sweeps(scenario, positions, t_ms=7)
    assert [encode_frame(s) for s in one] == [encode_frame(s) for s in two]
    # different seed, different shadowing draws
    reseeded = Scenario(
        ap_position=scenario.ap_position,
        clients=scenario.clients,
        emitters=scenario.emitters,
        shadowing_sigma_db=4.0,
        seed=scenario.seed + 1,
    )
    assert simulate_sweeps(reseeded, positions) != simulate_sweeps(
        Scenario(
            ap_position=scenario.ap_position,
            clients=scenario.clients,
            emitters=scenario.emitters,
            shadowing_sigma_db=4.0,
            seed=scenario.seed,
        ),
        positions,
    )


def survey_scenario(seed, n_clients=50, n_emitters=50):
    rng = random.Random(seed)

    def xy():
        return rng.uniform(-80.0, 80.0), rng.uniform(-80.0, 80.0)

    clients = tuple(Client(f"c{i}", *xy()) for i in range(n_clients))
    emitters = tuple(
        Emitter(rng.randint(1, 14), rng.uniform(-10.0, 23.0), *xy()) for _ in range(n_emitters)
    )
    return Scenario(ap_position=(0.0, 0.0), clients=clients, emitters=emitters, seed=seed)


def test_simulated_frames_match_pinned_bytes():
    # recorded before the simulator used BinGrid spans; any change to the
    # per-link draws, the summation order or the quantization shows here
    scenario = survey_scenario(2024)
    _, positions = default_sensor_layout(scenario)
    sweeps = simulate_sweeps(scenario, positions, t_ms=1500)
    assert len(sweeps) == 51
    digest = hashlib.sha256(b"".join(encode_frame(s) for s in sweeps)).hexdigest()
    assert digest == "033c5df7aa55b0203c1fb1d3b5663b3711aebe6da97b030cae526e1215107785"


# seeds whose SeedSequence entropy is one word, or two (2^32 and above)
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**32 + 5, 2**64 - 1)
seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1))
sigmas = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 1e3))


def default_rng_draws(seed, sigma, n_sensors, n_emitters):
    # sigma 0 draws nothing (numpy's normal refuses a scale of -0.0)
    return [
        [
            np.random.default_rng([seed, s, e]).normal(0.0, sigma) if sigma != 0.0 else 0.0
            for e in range(n_emitters)
        ]
        for s in range(n_sensors)
    ]


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("sigma", [4.0, 0.0, -0.0])
def test_shadowing_draws_match_default_rng_at_edge_seeds(seed, sigma):
    draws = shadowing_draws(seed, sigma, 8, 8)
    assert draws.shape == (8, 8)
    assert draws.tolist() == default_rng_draws(seed, sigma, 8, 8)


@given(seeds, sigmas, st.integers(0, 8), st.integers(0, 8))
def test_shadowing_draws_match_default_rng(seed, sigma, n_sensors, n_emitters):
    # fails, rather than letting sweeps drift, if numpy ever changes SeedSequence
    draws = shadowing_draws(seed, sigma, n_sensors, n_emitters)
    assert draws.shape == (n_sensors, n_emitters)
    assert draws.tolist() == default_rng_draws(seed, sigma, n_sensors, n_emitters)


@given(seeds, st.integers(0, 6), st.integers(0, 6))
@example(2**64 - 1, 0, 3)
@example(2**32 + 5, 3, 0)
def test_pcg64_seeds_are_seed_sequence_states(seed, n_sensors, n_emitters):
    words = _pcg64_seeds(seed, n_sensors, n_emitters)
    assert words.shape == (n_sensors, n_emitters, 4)
    assert words.dtype == np.uint64
    assert words.flags.c_contiguous  # PCG64 reads a seed's words from its buffer
    for s in range(n_sensors):
        for e in range(n_emitters):
            want = np.random.SeedSequence([seed, s, e]).generate_state(4, np.uint64)
            assert words[s, e].tolist() == want.tolist()


@pytest.mark.parametrize(("n_words", "dtype"), [(2, np.uint64), (4, np.uint32), (8, np.uint32)])
def test_link_seed_refuses_any_request_but_the_links_words(monkeypatch, n_words, dtype):
    # a numpy whose PCG64 seeded itself from another request would draw the
    # link from words that are not its SeedSequence state; the seed raises
    # instead. Only a link that leaves the ziggurat's fast path draws through
    # numpy's PCG64: seed 15's link [0, 0] does
    accepted = _fast_normals(_first_outputs(_pcg64_seeds(15, 2, 2).reshape(-1, 4)))[1]
    assert accepted.tolist() == [False, True, True, True]
    words = _pcg64_seeds(15, 1, 1)[0, 0]
    assert _LinkSeed(words).generate_state(4, np.uint64) is words
    message = f"PCG64 asked for {n_words} {np.dtype(dtype)} words, not 4 uint64"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        _LinkSeed(words).generate_state(n_words, dtype)

    def pcg64(seed):
        seed.generate_state(n_words, dtype)
        return np.random.PCG64(seed)

    monkeypatch.setattr(shadowing, "PCG64", pcg64)
    with pytest.raises(RuntimeError, match=re.escape(message)):
        shadowing_draws(15, 4.0, 2, 2)


def test_link_seed_draws_from_its_words_whatever_their_strides():
    words = _pcg64_seeds(15, 2, 2).reshape(-1, 4)
    strided = np.asfortranarray(words)[0]  # link [0, 0]'s words, 32 bytes apart

    def draw(link_words):
        return np.random.Generator(np.random.PCG64(_LinkSeed(link_words))).standard_normal()

    assert draw(strided) == draw(words[0]) == np.random.default_rng([15, 0, 0]).standard_normal()


@given(seeds, st.integers(0, 60), st.integers(0, 60))
@example(15, 2, 2)  # link [0, 0] leaves the fast path
@example(1, 51, 50)  # the benchmark's survey shape: 43 links leave it
def test_shadowing_draws_equal_the_per_link_loop(seed, n_sensors, n_emitters):
    # the per-link loop, numpy's own Generator for every link, is the oracle
    words = _pcg64_seeds(seed, n_sensors, n_emitters).reshape(-1, 4)
    z = [np.random.Generator(np.random.PCG64(_LinkSeed(w))).standard_normal() for w in words]
    want = 0.0 + 1.0 * np.array(z)
    draws = shadowing_draws(seed, 1.0, n_sensors, n_emitters)
    assert draws.tobytes() == want.tobytes()


# numpy/random/src/pcg64/pcg64.h
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def numpy_normal(word):
    """(standard_normal(), outputs taken) of a Generator whose first output is word.

    Its PCG64 is set so that the next step lands on state high 0, low word:
    XSL-RR then rotates by 0 and outputs word itself. Counting steps to the
    state after the draw tells how many outputs the sampler took.
    """
    inc = 1
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": (word - inc) * pow(PCG64_MULT, -1, 2**128) % 2**128, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    x = np.random.Generator(bit_generator).standard_normal()
    state, outputs = word, 1
    while state != bit_generator.state["state"]["state"]:
        state, outputs = (state * PCG64_MULT + inc) % 2**128, outputs + 1
    return x, outputs


def ziggurat_word(idx, rabs, sign=0, top=0):
    """The raw word random_standard_normal reads as layer idx, sign and rabs;
    its top 3 bits go unread."""
    return top << 61 | rabs << 9 | sign << 8 | idx


def calibrate_ziggurat():
    """wi_double and ki_double of the installed numpy, read off its own draws."""
    wi, ki = np.empty(256), np.empty(256, dtype=np.uint64)
    for idx in range(256):
        # rabs 1 draws 1.0 * wi[idx]. Layer 1 never takes the fast path, but
        # its wedge accepts so small an x, taking one output more; a tail
        # draw or a retry takes more still
        x, outputs = numpy_normal(ziggurat_word(idx, 1))
        assert outputs <= 2
        wi[idx] = x
        # the fast path takes exactly rabs < ki[idx]; bisect for the least
        # rabs that leaves it
        lo, hi = 0, 2**52 - 1
        assert numpy_normal(ziggurat_word(idx, hi))[1] > 1
        while lo < hi:
            mid = (lo + hi) // 2
            if numpy_normal(ziggurat_word(idx, mid))[1] == 1:
                lo = mid + 1
            else:
                hi = mid
        ki[idx] = lo
    return wi, ki


def test_pinned_ziggurat_tables_are_the_installed_numpys():
    wi, ki = calibrate_ziggurat()
    assert wi.astype("<f8").tobytes() == shadowing._WI.tobytes()
    assert ki.astype("<u8").tobytes() == shadowing._KI.tobytes()
    assert ki[1] == 0


seed_words = st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))
seed_rows = st.one_of(
    st.lists(seed_words, min_size=4, max_size=4),
    # the words SeedSequence hands PCG64
    st.integers(0, 2**128).map(
        lambda entropy: np.random.SeedSequence(entropy).generate_state(4, np.uint64).tolist()
    ),
)


@given(st.lists(seed_rows, max_size=16))
def test_first_outputs_are_pcg64_random_raw(rows):
    words = np.array(rows, dtype=np.uint64).reshape(-1, 4)
    want = [np.random.PCG64(_LinkSeed(row)).random_raw() for row in words]
    assert _first_outputs(words).tolist() == want


@st.composite
def ziggurat_words(draw):
    """Raw words at any layer, with rabs anywhere or next to the layer's ki."""
    idx = draw(st.integers(0, 255))
    ki = int(shadowing._KI[idx])
    near_ki = st.integers(max(ki - 2, 0), min(ki + 1, 2**52 - 1))
    rabs = draw(st.one_of(st.integers(0, 2**52 - 1), near_ki))
    return ziggurat_word(idx, rabs, draw(st.integers(0, 1)), draw(st.integers(0, 7)))


KI = [int(k) for k in shadowing._KI]


@given(ziggurat_words())
@example(ziggurat_word(0, 1))  # layer 0: fast below ki, the tail from it on
@example(ziggurat_word(0, KI[0]))
@example(ziggurat_word(1, 0))  # layer 1: ki is 0, so always a wedge
@example(ziggurat_word(1, 1))
@example(ziggurat_word(7, KI[7] - 1))
@example(ziggurat_word(7, KI[7]))
@example(ziggurat_word(9, 0, sign=1))  # -0.0
@example(ziggurat_word(255, KI[255] - 1, sign=1, top=7))
@example(ziggurat_word(255, KI[255]))
def test_fast_normals_are_numpy_draws_where_they_accept(word):
    x, accepted = _fast_normals(np.array([word], dtype=np.uint64))
    draw, outputs = numpy_normal(word)
    assert accepted.tolist() == [outputs == 1]
    if outputs == 1:
        assert float(x[0]).hex() == draw.hex()  # bit for bit, -0.0 included


def per_link_dbm(scenario, sensor_index, sx, sy, emitter_index):
    """One link's per-bin dBm by the scalar formula, with a fresh default_rng."""
    emitter = scenario.emitters[emitter_index]
    freq = Frequency(channel_center_khz(emitter.channel) * 1e3)
    distance = max(math.hypot(emitter.x - sx, emitter.y - sy), freq.wavelength_m)
    # fspl_db's formula: fspl_db takes only a length, and two coordinates in
    # the domain may lie up to 2*sqrt(2) of MAX_LENGTH_M apart
    loss = 20.0 * math.log10(4.0 * math.pi * distance / freq.wavelength_m)
    if distance <= MAX_LENGTH_M:
        assert loss == fspl_db(LinkGeometry(distance, freq))
    shadow = 0.0
    if scenario.shadowing_sigma_db != 0.0:
        rng = np.random.default_rng([scenario.seed, sensor_index, emitter_index])
        shadow = float(rng.normal(0.0, scenario.shadowing_sigma_db))
    spread_db = 10.0 * math.log10(2 * CHANNEL_HALF_WIDTH_KHZ // SWEEP_GRID.bin_khz)
    return emitter.tx_power_dbm - loss - spread_db + shadow


def per_link_sweeps(scenario, positions, t_ms):
    """The simulator written link by link with a fresh default_rng per link."""
    sweeps = []
    for sensor_index, (sx, sy) in enumerate(positions):
        total_mw = np.zeros(SWEEP_GRID.n_bins)
        for emitter_index, emitter in enumerate(scenario.emitters):
            per_bin_dbm = per_link_dbm(scenario, sensor_index, sx, sy, emitter_index)
            center_khz = channel_center_khz(emitter.channel)
            mask = SWEEP_GRID.span(
                center_khz - CHANNEL_HALF_WIDTH_KHZ, center_khz + CHANNEL_HALF_WIDTH_KHZ
            )
            total_mw[mask] += 10.0 ** (per_bin_dbm / 10.0)
        bins = []
        for mw in total_mw:
            floor = scenario.noise_floor_dbm
            dbm = floor if mw <= 0 else max(10.0 * math.log10(mw), floor)
            bins.append(int(min(127, max(-128, round(dbm)))))
        sweeps.append(sweep(bins, sensor_id=sensor_index, t=t_ms))
    return sweeps


coordinates = st.floats(-80.0, 80.0)


@pytest.mark.deep_fuzz
@ORACLE
@given(
    seed=seeds,
    sigma=st.one_of(st.sampled_from([0.0, 4.0]), st.floats(0.0, 20.0)),
    noise_floor=st.floats(-110.0, -40.0),
    clients=st.lists(st.tuples(coordinates, coordinates), max_size=6),
    emitters=st.lists(
        st.tuples(st.integers(1, 14), st.floats(-20.0, 30.0), coordinates, coordinates),
        max_size=8,
    ),
    t_ms=st.integers(0, 2**64 - 1),
)
@example(1, 4.0, -95.0, [(3.0, 4.0), (-10.0, 2.5)], [], 0)  # no emitters
@example(1, 4.0, -95.0, [], [(6, 20.0, 10.0, 0.0), (1, 5.0, -3.0, 7.0)], 5)  # one sensor
@example(  # channels unsorted, repeated and overlapping
    7,
    4.0,
    -95.0,
    [(12.0, -4.0), (-30.0, 18.0)],
    [(ch, 10.0, 6.0 * k - 20.0, 3.0 - k) for k, ch in enumerate([14, 1, 13, 2, 6, 6, 11, 7])],
    0,
)
@example(2**32 + 7, 4.0, -95.0, [(12.0, -4.0)], [(6, 20.0, 1.0, 1.0), (11, 0.0, -5.0, 9.0)], 0)
def test_simulate_matches_per_link_oracle(seed, sigma, noise_floor, clients, emitters, t_ms):
    scenario = Scenario(
        ap_position=(0.0, 0.0),
        clients=tuple(Client(f"c{i}", x, y) for i, (x, y) in enumerate(clients)),
        emitters=tuple(Emitter(*fields) for fields in emitters),
        noise_floor_dbm=noise_floor,
        shadowing_sigma_db=sigma,
        seed=seed,
    )
    _, positions = default_sensor_layout(scenario)
    assert simulate_sweeps(scenario, positions, t_ms) == per_link_sweeps(
        scenario, positions, t_ms
    )


# either end of each bound is drawn as often as a value between them
bounded_tx = st.one_of(
    st.sampled_from([-MAX_DB, MAX_DB]),
    st.floats(-MAX_DB, MAX_DB),
)
bounded_sigma = st.one_of(
    st.sampled_from([0.0, MAX_SHADOWING_SIGMA_DB]), st.floats(0.0, MAX_SHADOWING_SIGMA_DB)
)


@pytest.mark.deep_fuzz
@BOUNDS
@given(
    seed=st.integers(0, 2**64 - 1),
    sigma=bounded_sigma,
    channel=st.integers(1, 14),
    tx_dbm=st.lists(bounded_tx, min_size=2, max_size=20),
)
@example(0, MAX_SHADOWING_SIGMA_DB, 6, [MAX_DB] * 20)
def test_emitters_stacked_on_a_sensor_at_the_bounds_stay_in_the_float_range(
    seed, sigma, channel, tx_dbm
):
    # the bounds are what let the simulator go without an overflow path: the
    # loudest links they allow, co-channel at one wavelength from a sensor,
    # sum finite in every bin, and numpy warns of nothing on the way
    scenario = Scenario(
        ap_position=(0.0, 0.0),
        emitters=tuple(Emitter(channel, tx, 0.0, 0.0) for tx in tx_dbm),
        shadowing_sigma_db=sigma,
        seed=seed,
    )
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        (swept,) = simulate_sweeps(scenario, [(0.0, 0.0)])
    assert all(-128 <= b <= 127 for b in swept.bins)
    assert [swept] == per_link_sweeps(scenario, [(0.0, 0.0)], 0)


corner_coordinates = st.sampled_from([-MAX_LENGTH_M, MAX_LENGTH_M])
corner_points = st.tuples(corner_coordinates, corner_coordinates)


@pytest.mark.deep_fuzz
@BOUNDS
@given(
    seed=st.integers(0, 2**64 - 1),
    # a subnormal sigma underflows in the draws' multiply, harmlessly to a
    # draw of about 0, which numpy does not warn of by default
    sigma=st.sampled_from([0.0, MAX_SHADOWING_SIGMA_DB]) | st.floats(1e-3, MAX_SHADOWING_SIGMA_DB),
    emitters=st.lists(
        st.tuples(st.integers(1, 14), bounded_tx, corner_coordinates, corner_coordinates),
        min_size=1,
        max_size=8,
    ),
    positions=st.lists(corner_points, min_size=1, max_size=4),
)
@example(  # the weakest link the bounds allow, and the loudest, at once
    0,
    MAX_SHADOWING_SIGMA_DB,
    [(14, -MAX_DB, MAX_LENGTH_M, MAX_LENGTH_M),
     (6, MAX_DB, -MAX_LENGTH_M, -MAX_LENGTH_M)],
    [(-MAX_LENGTH_M, -MAX_LENGTH_M), (MAX_LENGTH_M, MAX_LENGTH_M)],
)
def test_links_between_the_coordinate_corners_stay_in_the_float_range(
    seed, sigma, emitters, positions
):
    # the coordinate domain is what lets the simulator go without a scalar
    # pre-pass for far links: sensors and emitters at the corners, up to
    # 2*sqrt(2)*MAX_LENGTH_M apart, at the tx and sigma bounds, give links
    # inside the bound simulate.py states, and numpy warns of nothing
    scenario = Scenario(
        ap_position=(0.0, 0.0),
        emitters=tuple(Emitter(*fields) for fields in emitters),
        shadowing_sigma_db=sigma,
        seed=seed,
    )
    with np.errstate(over="raise", invalid="raise", divide="raise", under="raise"):
        swept = simulate_sweeps(scenario, positions)
    assert swept == per_link_sweeps(scenario, positions, 0)
    for s, (sx, sy) in enumerate(positions):
        for e in range(len(emitters)):
            assert -2673.0 < per_link_dbm(scenario, s, sx, sy, e) < 2400.0


def test_the_weakest_link_the_bounds_allow_stays_a_normal_float():
    # the farthest link on the longest wavelength, at the least tx power and
    # the most negative draw numpy's ziggurat gives (|z| < 13.7)
    wavelength = Frequency(channel_center_khz(14) * 1e3).wavelength_m
    farthest = math.hypot(2 * MAX_LENGTH_M, 2 * MAX_LENGTH_M)
    loss = 20.0 * math.log10(4.0 * math.pi * farthest / wavelength)
    spread = 10.0 * math.log10(2 * CHANNEL_HALF_WIDTH_KHZ // SWEEP_GRID.bin_khz)
    weakest = -MAX_DB - loss - spread - 13.7 * MAX_SHADOWING_SIGMA_DB
    assert -2673.0 < weakest < -2672.0
    assert 10.0 ** (weakest / 10.0) > sys.float_info.min


def test_survey_shape_matches_per_link_oracle():
    # 51 sensors x 50 emitters, the shape a site survey simulates
    rng = random.Random(24)
    scenario = Scenario(
        ap_position=(0.0, 0.0),
        clients=tuple(
            Client(f"c{k}", rng.uniform(-80.0, 80.0), rng.uniform(-80.0, 80.0)) for k in range(50)
        ),
        emitters=tuple(
            Emitter(rng.randint(1, 14), rng.uniform(-20.0, 30.0), *rng.choices(range(-80, 81), k=2))
            for _ in range(50)
        ),
        seed=3,
    )
    _, positions = default_sensor_layout(scenario)
    assert simulate_sweeps(scenario, positions) == per_link_sweeps(scenario, positions, 0)


def test_a_numpy_int_channel_simulates_like_an_int():
    def payloads(channel):
        scenario = Scenario(
            ap_position=(0.0, 0.0),
            clients=(Client("c0", 4.0, -3.0),),
            emitters=(Emitter(channel, 20.0, 10.0, 0.0),),
        )
        return [s.payload for s in simulate_sweeps(scenario, default_sensor_layout(scenario)[1])]

    simulate._channel_facts.cache_clear()  # the numpy int is the first to reach the cache
    assert payloads(np.int64(6)) == payloads(6)


@pytest.mark.parametrize(
    ("coordinate", "real"),
    [
        (10**12, int),
        (Fraction(1, 3), Fraction),
        (np.float32(0.1), np.float32),
        (np.int64(-7), np.int64),
    ],
    ids=["ints", "fractions", "float32", "numpy-ints"],
)
def test_real_fields_are_stored_written_and_simulated_as_floats(coordinate, real):
    # an int, even the largest coordinate the domain takes, is stored exactly
    # as a float, and Fraction(1, 3) and float32(0.1) as their nearest floats;
    # a numpy int channel and seed are stored as ints
    def build(x, real, index):
        return Scenario(
            ap_position=(x, 0.0),
            clients=(Client("c0", x, 1.0),),
            emitters=(Emitter(index(6), real(20), x, 3.0), Emitter(11, real(5), 0.0, x)),
            noise_floor_dbm=real(-95),
            shadowing_sigma_db=real(4),
            seed=index(3),
        )

    scenario = build(coordinate, real, np.uint64)
    floats = build(float(coordinate), float, int)
    (client,), (e0, e1) = scenario.clients, scenario.emitters
    reals = [*scenario.ap_position, client.x, client.y, e0.tx_power_dbm, e0.x, e0.y,
             e1.tx_power_dbm, scenario.noise_floor_dbm, scenario.shadowing_sigma_db]
    assert {type(v) for v in reals} == {float}
    assert type(e0.channel) is int and type(scenario.seed) is int
    assert scenario == floats
    # an int, a Fraction or a numpy number is written as its float, and so
    # is a JSON int read back
    text = scenario_to_json(scenario)
    assert text == scenario_to_json(floats)
    assert scenario_from_json(text) == scenario
    document = scenario_to_json(scenario_from_json('{"ap_position": [3, 0]}'))
    assert json.loads(document, parse_float=str)["ap_position"] == ["3.0", "0.0"]
    # a sensor position is taken as its floats too
    positions = [(coordinate, coordinate), (0.0, 1.0)]
    as_floats = [(float(coordinate), float(coordinate)), (0.0, 1.0)]
    assert simulate_sweeps(scenario, positions) == simulate_sweeps(floats, as_floats)


@pytest.mark.parametrize(
    ("position", "message"),
    [
        ((1.0, 2.0, 3.0), "sensor 1 position must be an (x, y) pair, got (1.0, 2.0, 3.0)"),
        (5.0, "sensor 1 position must be an (x, y) pair, got 5.0"),
        (("1", 2.0), "sensor 1 x must be a finite number, got '1'"),
        ((True, 0.0), "sensor 1 x must be a finite number, got True"),
        ((math.nan, 0.0), "sensor 1 x must be a finite number, got nan"),
        ((0.0, -math.inf), "sensor 1 y must be a finite number, got -inf"),
        ((10**400, 0.0), f"sensor 1 x must be a finite number, got {10**400}"),
        ((0.0, -1e16), f"sensor 1 y must lie in [{-MAX_LENGTH_M}, {MAX_LENGTH_M}], got -1e+16"),
    ],
    ids=["triple", "scalar", "str", "bool", "nan", "inf", "int-past-float-range",
         "past-the-length-domain"],
)
@pytest.mark.parametrize("emitters", [(), (Emitter(6, 20.0, 10.0, 0.0),)])
def test_simulate_names_a_sensor_position_that_is_not_a_finite_pair(position, message, emitters):
    scenario = Scenario(ap_position=(0.0, 0.0), emitters=emitters)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        simulate_sweeps(scenario, [(0.0, 0.0), position])


def test_simulate_colocated_sensor_does_not_blow_up():
    scenario = Scenario(
        ap_position=(0.0, 0.0),
        emitters=(Emitter(channel=6, tx_power_dbm=20.0, x=0.0, y=0.0),),
        shadowing_sigma_db=0.0,
    )
    (s,) = simulate_sweeps(scenario, [(0.0, 0.0)])
    assert all(-128 <= b <= 127 for b in s.bins)
    # clamped to one wavelength: 20 - 20log10(4*pi) - 10log10(22) = -15.4 dBm/bin
    assert max(s.bins) == -15


def test_colocated_links_match_the_per_link_oracle():
    # every sensor sits on an emitter, or within a wavelength of one
    emitters = tuple(Emitter(ch, 20.0, 3.0, -2.0) for ch in (1, 6, 14)) + (
        Emitter(11, 5.0, 0.0, 0.0),
    )
    scenario = Scenario(
        ap_position=(3.0, -2.0),
        clients=(Client("c0", 0.0, 0.0), Client("c1", 3.0, -1.99)),
        emitters=emitters,
        seed=7,
    )
    _, positions = default_sensor_layout(scenario)
    assert simulate_sweeps(scenario, positions) == per_link_sweeps(scenario, positions, 0)


def scalar_level(mw, floor):
    dbm = floor if mw <= 0 else max(10.0 * math.log10(mw), floor)
    return int(min(127, max(-128, round(dbm))))


def near_half_level_totals(floor):
    """The totals at each half-integer level of the 8-bit range and one ulp either side."""
    levels = [k + 0.5 for k in range(-140, 140)] + [floor]
    totals = []
    for level in levels:
        mw = 10.0 ** (level / 10.0)
        totals += [math.nextafter(mw, 0.0), mw, math.nextafter(mw, math.inf)]
    return totals + [0.0]


@pytest.mark.parametrize("floor", [-1e9, -95.0, -95.5, -128.5, 126.5])
def test_quantize_matches_the_scalar_formula_next_to_half_levels(floor):
    # with numpy 2.4.6 on AVX-512, 10*log10 of 1.778279410038923 is 2.5 with
    # math.log10 but 2.5000000000000004 with np.log10, and of 35.48133892335754
    # 15.499999999999998 against 15.5: round() differs for both, so both are in
    # doubt and take the scalar formula on the exact total, here the total itself
    totals = np.array(near_half_level_totals(floor)).reshape(-1, 1)
    levels = _quantize(totals, floor, lambda s, b: totals[s, b].item())
    assert levels.shape == totals.shape
    assert levels.ravel().tolist() == [scalar_level(mw, floor) for mw in totals.ravel().tolist()]


def in_doubt(mw, floor):
    """Whether a total's scalar dB lies within the guard of a half-integer, and
    not more than the guard below the floor."""
    if mw <= 0:
        return False
    dbm = 10.0 * math.log10(mw)
    return abs(dbm - math.floor(dbm) - 0.5) <= _HALF_GUARD_DB and dbm >= floor - _HALF_GUARD_DB


def test_quantize_redoes_only_the_totals_within_the_guard_at_a_half_integer_floor():
    # at a half-integer floor a total far below it is decided by the floor: of
    # a survey-sized array that sits mostly there, the totals at the floor and
    # those next to a half level above it are redone, each once, and no other
    floor = -95.5
    rng = np.random.default_rng(22)
    totals = rng.choice([0.0, 1e-12, 10.0 ** (floor / 10.0)], size=(51, 100))
    loud = rng.random((51, 100)) < 0.2
    totals[loud] = 10.0 ** rng.uniform(-9.5, 2.0, loud.sum())
    near_half = near_half_level_totals(floor)
    totals.flat[rng.choice(totals.size, len(near_half), replace=False)] = near_half
    redone = []

    def exact_total(s, b):
        redone.append((s, b))
        return totals[s, b].item()

    levels = _quantize(totals, floor, exact_total)
    assert levels.tolist() == [[scalar_level(mw, floor) for mw in row] for row in totals.tolist()]
    assert len(redone) == len(set(redone))
    assert set(redone) == {
        (s, b) for (s, b), mw in np.ndenumerate(totals) if in_doubt(mw.item(), floor)
    }
    assert (totals == 10.0 ** (floor / 10.0)).sum() > 1000  # at the floor, so redone
    assert not {totals[index] for index in redone} & {0.0, 1e-12}


def redone_bins(monkeypatch):
    """The (sensor, bin) of each bin simulate_sweeps redoes with the scalar
    chain, listed as it redoes them."""
    redone, quantize = [], simulate._quantize

    def counted(total_mw, floor_dbm, exact_total):
        def exact(s, b):
            redone.append((s, b))
            return exact_total(s, b)

        return quantize(total_mw, floor_dbm, exact)

    monkeypatch.setattr(simulate, "_quantize", counted)
    return redone


def mask_bins(channel):
    center = channel_center_khz(channel)
    mask = SWEEP_GRID.span(center - CHANNEL_HALF_WIDTH_KHZ, center + CHANNEL_HALF_WIDTH_KHZ)
    return range(mask.start, mask.stop)


def test_simulate_redoes_a_bin_next_to_a_half_level_with_the_scalar_chain(monkeypatch):
    # each tx is set so that its link puts -50.5 dBm, or the half-integer
    # floor, in each bin of its mask at sensor 0, give or take an ulp: those
    # bins are in doubt. Sensor 1 hears them 6 dB lower, and a bin no mask
    # covers holds nothing: neither is redone
    floor = -95.5
    spread_db = 10.0 * math.log10(len(mask_bins(6)))

    def tx_for(channel, distance, dbm):
        freq = Frequency(channel_center_khz(channel) * 1e3)
        return fspl_db(LinkGeometry(distance, freq)) + spread_db + dbm

    scenario = Scenario(
        ap_position=(0.0, 0.0),
        clients=(Client("c0", 30.0, 0.0),),
        emitters=(Emitter(6, tx_for(6, 10.0, -50.5), 10.0, 0.0),
                  Emitter(1, tx_for(1, 10.0, floor), -10.0, 0.0)),
        noise_floor_dbm=floor,
        shadowing_sigma_db=0.0,
    )
    redone = redone_bins(monkeypatch)
    positions = default_sensor_layout(scenario)[1]
    assert simulate_sweeps(scenario, positions) == per_link_sweeps(scenario, positions, 0)
    assert sorted(redone) == [(0, b) for b in sorted({*mask_bins(1), *mask_bins(6)})]


def test_simulate_with_every_bin_in_doubt_matches_the_per_link_oracle(monkeypatch):
    # a guard past 0.5 dB puts every bin with a nonzero total in doubt, so
    # every such level comes from the scalar chain alone
    monkeypatch.setattr(simulate, "_HALF_GUARD_DB", 1e9)
    redone = redone_bins(monkeypatch)
    scenario = survey_scenario(2024)
    positions = default_sensor_layout(scenario)[1]
    assert simulate_sweeps(scenario, positions) == per_link_sweeps(scenario, positions, 0)
    covered = {b for e in scenario.emitters for b in mask_bins(e.channel)}
    assert sorted(redone) == [(s, b) for s in range(len(positions)) for b in sorted(covered)]


def test_vector_link_chain_stays_far_inside_the_guard(monkeypatch):
    # The guard is sound while no bin's vector dB is near 1e-6 dB off the
    # scalar chain's. Measured here on the installed numpy, from the path
    # ratio to the bin's dB, over 100k random links within the scenario
    # bounds, clamped ones included: the busiest bin of each sensor, which
    # holds several links summed in another order than the scalar chain's.
    # numpy 2.4.6 on an AVX-512 Xeon measured 1.1e-13 dB here, and 2.8e-14 dB
    # with AVX-512 off: a loud link's dB has the coarsest ulp
    totals = []
    quantize = simulate._quantize

    def captured(total_mw, floor_dbm, exact_total):
        totals.append((total_mw.copy(), exact_total))
        return quantize(total_mw, floor_dbm, exact_total)

    monkeypatch.setattr(simulate, "_quantize", captured)
    rng = random.Random(29)
    worst, n_links = 0.0, 0
    for seed in range(4):
        emitters = tuple(
            Emitter(
                rng.randint(1, 14),
                rng.uniform(-MAX_DB, MAX_DB),
                rng.uniform(-1e4, 1e4),
                rng.uniform(-1e4, 1e4),
            )
            for _ in range(8)
        )
        near = rng.choice(emitters)
        positions = [
            (near.x + rng.uniform(-r, r), near.y + rng.uniform(-r, r))
            for r in (0.1, 10.0, 1e3, 2e4)
            for _ in range(1_500)
        ]
        scenario = Scenario(
            ap_position=(0.0, 0.0),
            emitters=emitters,
            shadowing_sigma_db=rng.uniform(0.0, MAX_SHADOWING_SIGMA_DB),
            seed=seed,
        )
        simulate_sweeps(scenario, positions)
        (total_mw, exact_total), = totals
        totals.clear()
        covering = [sum(b in mask_bins(e.channel) for e in emitters) for b in range(100)]
        b = covering.index(max(covering))
        exact_db = [10.0 * math.log10(exact_total(s, b)) for s in range(len(positions))]
        worst = max(worst, float(np.max(np.abs(10.0 * np.log10(total_mw[:, b]) - exact_db))))
        n_links += len(positions) * max(covering)
    assert n_links >= 100_000
    assert worst < 1e-3 * _HALF_GUARD_DB


def test_simulate_timestamps_and_ids():
    scenario = Scenario(ap_position=(0.0, 0.0), clients=(Client("c1", 5.0, 5.0),))
    ids, positions = default_sensor_layout(scenario)
    assert ids == ["ap", "c1"]
    sweeps = simulate_sweeps(scenario, positions, t_ms=99)
    assert [s.sensor_id for s in sweeps] == [0, 1]
    assert all(s.timestamp_ms == 99 for s in sweeps)


@pytest.mark.parametrize(
    ("t_ms", "message"),
    [
        (-1, "timestamp_ms must fit 64 bits, got -1"),
        (2**64, "timestamp_ms must fit 64 bits, got 18446744073709551616"),
        (1.5, "timestamp_ms must be an integer, got 1.5"),
        (True, "timestamp_ms must be an integer, got True"),
    ],
)
def test_simulate_names_a_bad_timestamp(t_ms, message):
    scenario = Scenario(
        ap_position=(0.0, 0.0), clients=(Client("c1", 5.0, 5.0),), emitters=(Emitter(6, 20.0, 1.0, 1.0),)
    )
    with pytest.raises(DomainError) as info:
        simulate_sweeps(scenario, default_sensor_layout(scenario)[1], t_ms)
    assert str(info.value) == message
    # with no sensor there is no sweep to check
    assert simulate_sweeps(scenario, [], t_ms) == []


def test_simulated_bins_are_the_shared_level_ints():
    scenario = survey_scenario(2024)
    sweeps = simulate_sweeps(scenario, default_sensor_layout(scenario)[1])
    assert all(
        b is _LEVELS[code] for s in sweeps for b, code in zip(s.bins, s.payload, strict=True)
    )


def test_simulate_refuses_too_many_sensors_before_summing_bins():
    # 65,537 sensors would sum, quantize and unpack 6.5M bins (about 285 MB)
    # before the id check; checked first, the call stays far below that
    positions = [(0.0, 0.0)] * 0x10001
    tracemalloc.start()
    try:
        with pytest.raises(DomainError) as info:
            simulate_sweeps(Scenario(ap_position=(0.0, 0.0)), positions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "sensor_id must fit 16 bits, got 65536"
    assert peak < 8 * 2**20
    # a bad timestamp still wins over the id, and sums no bin either
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="^timestamp_ms must fit 64 bits, got -1$"):
            simulate_sweeps(Scenario(ap_position=(0.0, 0.0)), positions, -1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_simulate_makes_an_integer_timestamp_an_int():
    scenario = Scenario(ap_position=(0.0, 0.0), clients=(Client("c1", 5.0, 5.0),))
    sweeps = simulate_sweeps(scenario, default_sensor_layout(scenario)[1], np.int64(7))
    assert [type(s.timestamp_ms) for s in sweeps] == [int, int]
    assert sweeps == simulate_sweeps(scenario, default_sensor_layout(scenario)[1], 7)


def test_scenario_validation():
    with pytest.raises(DomainError):
        Emitter(channel=15, tx_power_dbm=0.0, x=0.0, y=0.0)
    with pytest.raises(DomainError):
        Scenario(ap_position=(math.nan, 0.0))
    with pytest.raises(DomainError):
        Scenario(ap_position=(0.0, 0.0), shadowing_sigma_db=-1.0)
    with pytest.raises(DomainError):
        Scenario(ap_position=(0.0, 0.0), seed=-1)
    with pytest.raises(DomainError, match="client id must be a string, got 1"):
        Client(1, 0.0, 0.0)
    with pytest.raises(DomainError, match="client x must be a finite number, got '1'"):
        Client("c1", "1", 0.0)
    with pytest.raises(DomainError, match="client y must be a finite number, got inf"):
        Client("c1", 0.0, math.inf)
    with pytest.raises(DomainError, match="emitter tx_power_dbm must be a finite number, got True"):
        Emitter(channel=6, tx_power_dbm=True, x=0.0, y=0.0)


# the whole text for the spectrum rows of the table in tests/test_errors.py,
# which checks every real input against more kinds of value
@pytest.mark.parametrize(("build", "field"), [(call, name) for _, name, call in SPECTRUM_INPUTS])
@pytest.mark.parametrize("sign", [1, -1])
def test_an_int_past_the_float_range_is_named(build, field, sign):
    value = sign * PAST_FLOAT_RANGE
    with pytest.raises(DomainError, match=f"^{field} must be a finite number, got {value}$"):
        build(value)


@pytest.mark.parametrize(
    ("build", "value", "message"),
    [
        (lambda v: SensorSweep(0, v, 2_400_000, 1_000, (0,)), Fraction(OVERLONG),
         "timestamp_ms must be an integer, got "),
        (lambda v: SensorSweep(0, v, 2_400_000, 1_000, (0,)), OVERLONG,
         "timestamp_ms must fit 64 bits, got "),
        (lambda v: SensorSweep(0, 0, 2_400_000, 1_000, (v,)), OVERLONG, "bin value "),
        (lambda v: AggregatedSpectrum("p", MAX_HOLD, v, 1_000, (0.0,), {}), Fraction(OVERLONG),
         "spectrum start_khz must be an integer, got "),
        (lambda v: Client(v, 0.0, 0.0), OVERLONG, "client id must be a string, got "),
        (lambda v: Emitter(v, 0.0, 0.0, 0.0), Fraction(OVERLONG),
         "emitter channel must be an integer, got "),
        (lambda v: Emitter(v, 0.0, 0.0, 0.0), OVERLONG,
         "emitter channel must lie in 1..14, got "),
        (lambda v: Scenario(ap_position=v), (OVERLONG,),
         "ap_position must be an (x, y) pair, got "),
        (lambda v: Scenario(ap_position=(0.0, 0.0), seed=v), Fraction(OVERLONG),
         "seed must be an integer, got "),
        (lambda v: Scenario(ap_position=(0.0, 0.0), seed=v), OVERLONG,
         "seed must fit 64 bits, got "),
    ],
    ids=["sweep-timestamp", "sweep-timestamp-range", "sweep-bin", "spectrum-start", "client-id",
         "emitter-channel", "emitter-channel-range", "ap-position", "seed", "seed-range"],
)
def test_a_value_too_long_to_print_is_named_by_its_type(build, value, message):
    # repr of an int past sys.get_int_max_str_digits() raises ValueError, and so
    # does repr of a Fraction or a tuple that holds one
    with pytest.raises(DomainError) as info:
        build(value)
    named = str(info.value)
    assert named.startswith(message) and shown(value) in named


def test_an_int_too_long_to_print_is_named_by_its_type():
    value = 10**5000
    try:
        shown = repr(value)
    except ValueError:  # past sys.get_int_max_str_digits(), as by default
        shown = "an overlong int"
    with pytest.raises(DomainError) as info:
        Client("c0", value, 0.0)
    assert str(info.value) == f"client x must be a finite number, got {shown}"


@pytest.mark.parametrize(
    ("ids", "named"),
    [
        (("c", "c"), "client id 'c' is already another client's position id"),
        (("c0", "c1", "c0"), "client id 'c0' is already another client's position id"),
        (("ap",), "client id 'ap' is already the access point's position id"),
        (("c0", "ap"), "client id 'ap' is already the access point's position id"),
    ],
)
def test_a_client_id_that_collides_is_named(ids, named):
    clients = tuple(Client(id_, float(k), 0.0) for k, id_ in enumerate(ids))
    with pytest.raises(DomainError, match=re.escape(named)):
        Scenario(ap_position=(0.0, 0.0), clients=clients)
    distinct = tuple(Client(f"{c.id}{k}", c.x, c.y) for k, c in enumerate(clients))
    assert Scenario(ap_position=(0.0, 0.0), clients=distinct).clients == distinct


def test_scenario_json_round_trip():
    scenario = random_scenario(5)
    text = scenario_to_json(scenario)
    assert scenario_from_json(text) == scenario
    with pytest.raises(DomainError):
        scenario_from_json("{\"clients\": []}")  # ap_position missing


def test_scenario_json_matches_pinned_bytes():
    # recorded from the field-by-field serializer that json.dumps(asdict(...))
    # replaced; the scenario file format is part of the output contract
    cases = [
        (
            load_scenario(fixtures.divergence_scenario_path()),
            "2277dd1e7e2d43dd973705dcd800f7d521bcbc253ad722f08cb5a2007f174f5a",
        ),
        (
            survey_scenario(2024),
            "d99382da00e385cd275db46b49a4142a0f87d6d0c2b9f4a5d95504517c203ea2",
        ),
    ]
    for scenario, digest in cases:
        text = scenario_to_json(scenario)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert scenario_from_json(text) == scenario


def test_scenario_json_rejects_unknown_keys():
    with pytest.raises(DomainError, match="noise_floor_dbn"):
        scenario_from_json('{"ap_position": [0, 0], "noise_floor_dbn": -60}')
    with pytest.raises(DomainError, match="'z'"):
        scenario_from_json(
            '{"ap_position": [0, 0], "clients": [{"id": "a", "x": 1, "y": 2, "z": 3}]}'
        )


def test_bundled_divergence_scenario_loads():
    scenario = load_scenario(fixtures.divergence_scenario_path())
    assert scenario.shadowing_sigma_db == 0.0
    assert [e.channel for e in scenario.emitters] == [1, 6]

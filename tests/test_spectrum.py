import dataclasses
import functools
import hashlib
import math
import operator
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rfplan.errors import DomainError
from rfplan.linkbudget import Frequency, LinkGeometry, fspl_db
from rfplan.spectrum import (
    ALL_CHANNELS,
    AP_ONLY,
    CLIENT_AWARE,
    EWMA,
    MAX_HOLD,
    MINIMAX,
    SWEEP_GRID,
    WEIGHTED_SUM,
    AggregatedSpectrum,
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
    overlap_weight,
    parse_frame,
    scenario_from_json,
    scenario_to_json,
    select_channel,
    simulate_sweeps,
    sweeps_from_jsonl,
    sweeps_to_jsonl,
)
from rfplan.spectrum.aggregate import _MW_TABLE
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
from rfplan.spectrum.simulate import _quantize
from rfplan import fixtures


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
    with pytest.raises(DomainError):
        aggregate([sweep([-90])], EWMA, alpha=0.0)
    with pytest.raises(DomainError):
        aggregate([sweep([-90])], "median")


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


def equal_count_log(n_sensors, n_sweeps, n_bins=7):
    """Sensors with n_sweeps in-order sweeps each, interleaved, levels spread over int8."""
    return [
        sweep(
            [(37 * (t * n_sensors + k) + 11 * b) % 256 - 128 for b in range(n_bins)],
            sensor_id=3 * k + 1,
            t=100 * t,
        )
        for t in range(n_sweeps)
        for k in range(n_sensors)
    ]


# equal sweep counts step every sensor from one array, a rare draw of
# sweep_logs; a lone one-sweep sensor has no step at all
@example(equal_count_log(2, 5), 0.3)
@example(equal_count_log(3, 4), 0.6180339887498949)
@example(equal_count_log(1, 1), 0.3)
@given(sweep_logs(), alphas)
def test_ewma_matches_per_sweep_oracle(sweeps, alpha):
    got = outcome(aggregate, sweeps, EWMA, alpha=alpha)
    want = outcome(ewma_per_sweep, sweeps, alpha)
    if isinstance(want, str):
        assert got == want
    else:
        assert bits(got.bins) == bits(want)


@given(sweep_logs(), alphas, st.sampled_from([MAX_HOLD, EWMA]))
def test_aggregate_of_parsed_frames_matches_tuple_sweeps(sweeps, alpha, mode):
    # parsed sweeps carry their frame payload, tuple-built ones pack it on demand
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


def test_overlap_weight_profile():
    assert overlap_weight(0) == 1.0
    assert overlap_weight(1) == pytest.approx(0.7727272727272727, rel=1e-12)
    assert overlap_weight(4) == pytest.approx(2 / 22, rel=1e-12)
    assert overlap_weight(5) == 0.0
    assert overlap_weight(9) == 0.0
    with pytest.raises(DomainError):
        overlap_weight(-1)


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
    single = draw(st.booleans())
    grids = [SCORING_GRIDS[0] if single else draw(st.sampled_from(SCORING_GRIDS)) for _ in ids]
    rng = random.Random(draw(st.integers(0, 2**32)))
    spectra = {}
    for pos, (start, width, n) in zip(ids, grids):
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
)
def test_max_hold_levels_score_like_the_bins(spectra, mode, candidates, objective):
    # dataclasses.replace drops the carried levels, so the copies take the scalar pow
    scalar = {pos: dataclasses.replace(spectrum) for pos, spectrum in spectra.items()}
    assert all(spectrum._levels is not None for spectrum in spectra.values())
    assert all(spectrum._levels is None for spectrum in scalar.values())
    got = outcome(select_channel, spectra, mode, candidates, objective)
    want = outcome(select_channel, scalar, mode, candidates, objective)
    assert repr(got) == repr(want)
    assert "non-finite" not in repr(got)  # aggregated levels always score finite
    for pos, spectrum in spectra.items():
        for ch in candidates or ALL_CHANNELS:
            got = outcome(channel_power_mw, spectrum, ch)
            want = outcome(channel_power_mw, scalar[pos], ch)
            assert repr(got) == repr(want)


def test_channel_power_names_a_bin_it_cannot_score():
    def spectrum(bins):
        return AggregatedSpectrum("ap", MAX_HOLD, 2_400_000, 1_000, tuple(bins), {})

    # pow overflow, nan, +inf, and a sum past the float range from finite terms
    for bins, bad in [
        ((4000.0,) * 100, "4000.0"),
        ((math.nan,) * 100, "nan"),
        ([-90.0] * 30 + [math.inf] + [-90.0] * 69, "inf"),
        ((3080.0,) * 100, "3080.0"),
    ]:
        with pytest.raises(DomainError) as info:
            channel_power_mw(spectrum(bins), 6)
        assert str(info.value) == (
            f"bin value {bad} at position 'ap' makes the in-channel power of channel 6 "
            "non-finite"
        )
    # a bin no mask holds is never scored, and -inf dBm is 0 mW
    outside = [-90.0] * 100
    outside[50] = 4000.0
    assert channel_power_mw(spectrum(outside), 1) == channel_power_mw(flat_spectrum(-90.0), 1)
    assert channel_power_mw(spectrum((-math.inf,) * 100), 6) == 0.0


def test_weighted_sum_refuses_a_sum_past_the_float_range():
    # each position's channel power is 2.2e307 mW; ten of them overflow
    spectra = {
        pos: AggregatedSpectrum(pos, MAX_HOLD, 2_400_000, 1_000, (3060.0,) * 100, {})
        for pos in ("ap", *(f"c{i}" for i in range(9)))
    }
    assert select_channel(spectra, CLIENT_AWARE, objective=MINIMAX).chosen_channel == 1
    with pytest.raises(DomainError, match=re.escape(
        "the sum of channel 1's in-channel powers over 10 positions leaves the float range"
    )):
        select_channel(spectra, CLIENT_AWARE, objective=WEIGHTED_SUM)


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
def test_any_float_bins_give_finite_scores_or_raise_domain_error(bins, n_clients, mode, objective):
    ids = ("ap", *(f"c{i}" for i in range(n_clients)))
    spectra = {
        pos: AggregatedSpectrum(pos, MAX_HOLD, 2_400_000, 1_000, tuple(bins[k:] + bins[:k]), {})
        for k, pos in enumerate(ids)
    }
    try:
        plan = select_channel(spectra, mode, objective=objective)
    except DomainError:
        return
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


def scalar_mw(dbm):
    """The scalar 10.0 ** (dbm / 10.0); inf where either step overflows."""
    try:
        return 10.0 ** (dbm / 10.0)
    except OverflowError:
        return math.inf


def in_channel_mw_scalar_pow(spectra, channels):
    """plan._in_channel_mw with every power the scalar pow, added bin by bin.

    Masks are formed channel by channel, then grid by first use; grid by grid,
    the first non-finite total, channel by channel, is named.
    """
    centers = [channel_center_khz(ch) for ch in channels]
    members = {}
    for k, spectrum in enumerate(spectra):
        members.setdefault(spectrum.grid, []).append(k)
    masks = {grid: [] for grid in members}
    for center in centers:
        for grid, grid_masks in masks.items():
            grid_masks.append(
                grid.span(center - CHANNEL_HALF_WIDTH_KHZ, center + CHANNEL_HALF_WIDTH_KHZ)
            )
    totals = np.empty((len(channels), len(spectra)))
    for grid, on_grid in members.items():
        for k in on_grid:
            for row, mask in enumerate(masks[grid]):
                total = 0.0
                for dbm in spectra[k].bins[mask]:
                    total += scalar_mw(dbm)
                totals[row, k] = total
        if not np.isfinite(totals[:, on_grid]).all():
            raise plan._non_finite_total(
                [spectra[k] for k in on_grid], channels, totals[:, on_grid]
            )
    return totals


# past 3082.5 dBm the power overflows; an int past the float range overflows
# the division too, whatever its sign
DBM_EXTREMES = (
    math.nan, math.inf, -math.inf, 3082.0, 3083.0, 3100.0, -3100.0,
    10**400, -(10**400), 2**1023, -0.0, 5e-324,
)


@st.composite
def float_bin_spectra(draw):
    """Hand-built spectra: dBm on a plan's scale, a drawn share from a small
    pool of any floats and extremes, on one grid or on several."""
    n_clients = draw(st.integers(0, 4))
    ids = draw(st.permutations(["ap", *(f"c{i}" for i in range(n_clients))]))
    values = st.one_of(st.floats(), st.sampled_from(DBM_EXTREMES))
    pool = draw(st.lists(values, min_size=1, max_size=4))
    share = draw(st.sampled_from([0.0, 0.02, 0.2, 1.0]))
    single = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))
    spectra = {}
    for pos in ids:
        start, width, n = SCORING_GRIDS[0] if single else draw(st.sampled_from(SCORING_GRIDS))
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


@given(
    float_bin_spectra(),
    st.sampled_from([AP_ONLY, CLIENT_AWARE]),
    candidate_lists,
    st.sampled_from([MINIMAX, WEIGHTED_SUM]),
)
@example(uniform_spectra(10**400), CLIENT_AWARE, None, MINIMAX)
@example(uniform_spectra(-(10**400)), CLIENT_AWARE, None, WEIGHTED_SUM)
@example(uniform_spectra(math.nan), AP_ONLY, None, MINIMAX)
@example(uniform_spectra(3060.0, 9), CLIENT_AWARE, None, WEIGHTED_SUM)
def test_float_bins_score_like_the_scalar_pow(spectra, mode, candidates, objective):
    listed = list(spectra.values())
    channels = tuple(candidates or ALL_CHANNELS)
    got = outcome(plan._in_channel_mw, listed, channels)
    want = outcome(in_channel_mw_scalar_pow, listed, channels)
    assert got == want if isinstance(want, str) else got.tobytes() == want.tobytes()
    got = outcome(select_channel, spectra, mode, candidates, objective)
    with mock.patch.object(plan, "_in_channel_mw", in_channel_mw_scalar_pow):
        want = outcome(select_channel, spectra, mode, candidates, objective)
    assert repr(got) == repr(want)


def test_uncovered_grid_names_the_first_channel_and_position():
    spectra = {
        "ap": flat_spectrum(-95.0, "ap"),
        "c1": AggregatedSpectrum("c1", MAX_HOLD, 2_400_000, 1_000, (-90.0,) * 80, {}),
        "c2": AggregatedSpectrum("c2", MAX_HOLD, 2_430_000, 1_000, (-90.0,) * 30, {}),
    }
    # channel by channel, then position by position: with 13 first, c1 fails
    # before c2 (which misses both channels) is looked at
    with pytest.raises(DomainError) as info:
        select_channel(spectra, CLIENT_AWARE, candidates=(13, 1))
    assert str(info.value) == (
        "spectrum [2400000, 2480000] kHz does not cover [2461000, 2483000] kHz"
    )
    with pytest.raises(DomainError) as info:
        select_channel(spectra, CLIENT_AWARE, candidates=(1, 13))
    assert str(info.value) == (
        "spectrum [2430000, 2460000] kHz does not cover [2401000, 2423000] kHz"
    )


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
    scenario = Scenario(
        ap_position=(0.0, 0.0),
        emitters=(Emitter(channel=6, tx_power_dbm=20.0, x=1e307, y=0.0),),
    )
    with pytest.raises(DomainError, match="distance 1e\\+307 m and wavelength"):
        simulate_sweeps(scenario, [(0.0, 0.0)])


@pytest.mark.parametrize(
    ("emitters", "sigma", "named"),
    [
        (((6, 4000.0),), 0.0, "emitter 0 with tx_power_dbm 4000.0 puts "),
        # emitter 1 overflows at sensor 1 only, emitter 2 at both sensors: the
        # simulator goes emitter by emitter, so the first is reported
        (((6, 10.0), (1, 3130.0), (11, 4000.0)), 0.0, "emitter 1 with tx_power_dbm 3130.0 "),
        (((6, 20.0),), 1e300, "emitter 0 with tx_power_dbm 20.0 puts "),
    ],
    ids=["tx-power", "first-emitter", "shadowing"],
)
def test_simulate_names_an_emitter_whose_power_leaves_float_range(emitters, sigma, named):
    scenario = Scenario(
        ap_position=(0.0, 0.0),
        emitters=tuple(Emitter(ch, tx, 10.0, 0.0) for ch, tx in emitters),
        shadowing_sigma_db=sigma,
        seed=3,
    )
    with pytest.raises(DomainError, match=re.escape(named)) as info:
        simulate_sweeps(scenario, [(0.0, 0.0), (10.0, 0.0)])
    assert str(info.value).endswith("whose mW leaves the float range")


def test_simulate_names_the_first_overflowing_link_emitter_by_emitter():
    # emitter 0 overflows only at sensor 2, on it, and emitter 1 only at
    # sensor 0: link by link, sensor first, would name emitter 1
    scenario = Scenario(
        ap_position=(0.0, 0.0),
        clients=(Client("c0", 50.0, 0.0), Client("c1", 100.0, 0.0)),
        emitters=(Emitter(6, 3140.0, 100.0, 0.0), Emitter(11, 3140.0, 0.0, 0.0)),
        shadowing_sigma_db=0.0,
    )
    with pytest.raises(DomainError) as info:
        simulate_sweeps(scenario, default_sensor_layout(scenario)[1])
    assert str(info.value) == (
        "emitter 0 with tx_power_dbm 3140.0 puts 3104.591575911336 dBm in each bin at "
        "sensor 2, whose mW leaves the float range"
    )


def test_simulate_reads_infinite_draws_as_the_scalar_pow_does():
    # sigma 1e308 scales every draw past the float range or near it
    scenario = Scenario(
        ap_position=(0.0, 0.0),
        clients=(Client("c0", 5.0, 0.0), Client("c1", 10.0, 0.0)),
        emitters=(Emitter(6, 20.0, 10.0, 0.0), Emitter(1, 20.0, 10.0, 0.0)),
        shadowing_sigma_db=1e308,
        seed=770,
    )
    positions = default_sensor_layout(scenario)[1]
    draws = shadowing_draws(scenario.seed, scenario.shadowing_sigma_db, 3, 2)
    assert -math.inf in draws and (draws <= 0).all()
    # 10.0 ** -inf is 0.0, so every bin sits at the floor
    sweeps = simulate_sweeps(scenario, positions, t_ms=5)
    digest = hashlib.sha256(b"".join(encode_frame(s) for s in sweeps)).hexdigest()
    assert digest == "76dedddace8ac07713e2b58be463800f95b7a258917408a49d659d0457088651"
    # 10.0 ** inf is inf without an error, so the link with the +inf draw
    # (sensor 0, emitter 0) is not the overflow named; the finite one after it is
    seeded = dataclasses.replace(scenario, clients=scenario.clients[:1], seed=3)
    draws = shadowing_draws(seeded.seed, seeded.shadowing_sigma_db, 2, 2)
    assert draws[0, 0] == math.inf and 0 < draws[1, 0] < math.inf
    with pytest.raises(DomainError) as info:
        simulate_sweeps(seeded, positions[:2])
    assert str(info.value) == (
        "emitter 0 with tx_power_dbm 20.0 puts 1.755360346943547e+306 dBm in each bin at "
        "sensor 1, whose mW leaves the float range"
    )


@pytest.mark.parametrize(
    "channels, named",
    [
        # each link's mW is finite at 10 m, the sum of two is not
        ((6, 6), "emitter 1 with tx_power_dbm 3155.0 puts 3081.3908793862 dBm in each bin at "
                 "sensor 0, which takes the sum in the bin at 2426500.0 kHz past the float range"),
        # the first bin past the range holds channels 1 and 3; channel 6,
        # between them in scenario order, does not cover it
        ((1, 6, 3), "emitter 2 with tx_power_dbm 3155.0 puts 3081.444507193754 dBm in each bin "
                    "at sensor 0, which takes the sum in the bin at 2411500.0 kHz past the "
                    "float range"),
    ],
    ids=["co-channel", "scenario-order"],
)
def test_simulate_names_the_emitter_that_takes_a_bin_sum_past_the_float_range(channels, named):
    scenario = Scenario(
        ap_position=(0.0, 0.0),
        emitters=tuple(Emitter(ch, 3155.0, 10.0, 0.0) for ch in channels),
        shadowing_sigma_db=0.0,
    )
    with pytest.raises(DomainError) as info:
        simulate_sweeps(scenario, default_sensor_layout(scenario)[1])
    assert str(info.value) == named


def test_simulate_names_the_emitter_whose_infinite_draw_takes_a_bin_sum_past_the_float_range():
    # seed 4's draw [0, 1] is +inf, and the ziggurat's fast path drew it;
    # 10.0 ** inf is inf without an error, so no single link overflows
    scenario = Scenario(
        ap_position=(0.0, 0.0),
        clients=(Client("c0", 5.0, 0.0),),
        emitters=(Emitter(6, 20.0, 10.0, 0.0), Emitter(1, 20.0, 10.0, 0.0)),
        shadowing_sigma_db=1e308,
        seed=4,
    )
    assert _fast_normals(_first_outputs(_pcg64_seeds(4, 2, 2).reshape(-1, 4)))[1].all()
    draws = shadowing_draws(scenario.seed, scenario.shadowing_sigma_db, 2, 2)
    assert draws[0, 1] == math.inf and np.isfinite(np.delete(draws.ravel(), 1)).all()
    with pytest.raises(DomainError) as info:
        simulate_sweeps(scenario, default_sensor_layout(scenario)[1])
    assert str(info.value) == (
        "emitter 1 with tx_power_dbm 20.0 puts inf dBm in each bin at sensor 0, which takes "
        "the sum in the bin at 2401500.0 kHz past the float range"
    )


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


@pytest.mark.parametrize("sigma", [-1.0, -math.inf, math.inf, math.nan])
def test_shadowing_draws_refuse_a_negative_or_non_finite_sigma(sigma):
    message = f"sigma must be a non-negative finite number, got {sigma}"
    with pytest.raises(DomainError, match=re.escape(message)):
        shadowing_draws(1, sigma, 2, 2)


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


def per_link_sweeps(scenario, positions, t_ms):
    """The simulator written link by link with a fresh default_rng per link."""
    spread_db = 10.0 * math.log10(2 * CHANNEL_HALF_WIDTH_KHZ // SWEEP_GRID.bin_khz)
    sweeps = []
    for sensor_index, (sx, sy) in enumerate(positions):
        total_mw = np.zeros(SWEEP_GRID.n_bins)
        for emitter_index, emitter in enumerate(scenario.emitters):
            center_khz = channel_center_khz(emitter.channel)
            freq = Frequency(center_khz * 1e3)
            distance = max(math.hypot(emitter.x - sx, emitter.y - sy), freq.wavelength_m)
            shadow = 0.0
            if scenario.shadowing_sigma_db != 0.0:
                rng = np.random.default_rng([scenario.seed, sensor_index, emitter_index])
                shadow = float(rng.normal(0.0, scenario.shadowing_sigma_db))
            per_bin_dbm = (
                emitter.tx_power_dbm - fspl_db(LinkGeometry(distance, freq)) - spread_db + shadow
            )
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


@pytest.mark.parametrize(
    ("emitter_xs", "positions", "message"),
    [
        # the distance itself overflows
        ((1.7e308,), [(-1.7e308, 0.0)], "distance must be positive and finite, got inf"),
        # links fail at (sensor 1, emitter 0) and at (sensor 0, emitter 1);
        # the simulator goes emitter by emitter, so the first is reported
        ((1.0, 1e307), [(0.0, 0.0), (-1.7e308, 0.0)], "for distance 1.7e+308 m and wavelength"),
    ],
    ids=["distance", "first-link-by-emitter"],
)
def test_simulate_names_the_first_failing_link(emitter_xs, positions, message):
    scenario = Scenario(
        ap_position=(0.0, 0.0), emitters=tuple(Emitter(6, 20.0, x, 0.0) for x in emitter_xs)
    )
    with pytest.raises(DomainError, match=re.escape(message)):
        simulate_sweeps(scenario, positions)


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
    # 15.499999999999998 against 15.5: round() differs for both
    totals = near_half_level_totals(floor)
    levels = _quantize(np.array(totals).reshape(-1, 1), floor)
    assert levels.shape == (len(totals), 1)
    assert levels.ravel().tolist() == [scalar_level(mw, floor) for mw in totals]


def test_quantize_takes_the_scalar_formula_once_per_distinct_near_half_total(monkeypatch):
    # at a half-integer floor every bin at the floor is near a half-integer:
    # a survey-sized array that sits mostly there must not take the scalar
    # formula bin by bin
    floor = -95.5
    rng = np.random.default_rng(22)
    totals = rng.choice([0.0, 1e-12, 10.0 ** (floor / 10.0)], size=(51, 100))
    loud = rng.random((51, 100)) < 0.2
    totals[loud] = 10.0 ** rng.uniform(-9.5, 2.0, loud.sum())
    near_half = near_half_level_totals(floor)
    totals.flat[rng.choice(totals.size, len(near_half), replace=False)] = near_half
    calls, level = [], simulate._level

    def counted_level(mw, floor_dbm):
        calls.append(mw)
        return level(mw, floor_dbm)

    monkeypatch.setattr(simulate, "_level", counted_level)
    levels = _quantize(totals, floor)
    assert levels.tolist() == [[scalar_level(mw, floor) for mw in row] for row in totals.tolist()]
    assert len(calls) == len(set(calls))
    assert {0.0, 1e-12} <= set(calls)


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
    # an overflowing emitter is still the one named, and a bad timestamp
    # still wins over the id
    loud = Scenario(ap_position=(0.0, 0.0), emitters=(Emitter(6, 4000.0, 10.0, 0.0),),
                    shadowing_sigma_db=0.0)
    with pytest.raises(DomainError, match="^emitter 0 with tx_power_dbm 4000.0 puts "):
        simulate_sweeps(loud, positions)
    with pytest.raises(DomainError, match="^timestamp_ms must fit 64 bits, got -1$"):
        simulate_sweeps(Scenario(ap_position=(0.0, 0.0)), positions, -1)


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

"""sensor-ingest: the consumer side, one tick of 51 sensor frames per op.

Set-up simulates a small pool of spectrum states for one seeded 51 x 50
scenario and encodes every tick's frames, so simulation cost lands in
setup_s and never on the timed path. A seeded share of frames is damaged
three ways (bad magic, truncation, a flipped CRC byte). One op parses the
tick's frames, writes the accepted sweeps as JSONL, EWMA-aggregates each
position over a sliding window and picks a channel ap-only and client-aware.
"""
from __future__ import annotations

import hashlib
from collections import defaultdict, deque
from dataclasses import dataclass, replace

import numpy as np
from rfplan.spectrum import (
    AP_ONLY,
    CLIENT_AWARE,
    DEFAULT_EWMA_ALPHA,
    EWMA,
    FrameFormatError,
    FrameIntegrityError,
    FrameTruncationError,
    aggregate,
    default_sensor_layout,
    encode_frame,
    parse_frame,
    select_channel,
    simulate_sweeps,
    sweeps_from_jsonl,
    sweeps_to_jsonl,
)

import reference
from scenarios import survey_scenario
from workloads import Workload

POOL_STATES = 4  # distinct spectrum states the ticks cycle through
POWER_JITTER_DB = 3.0  # per-state emitter power spread around the scenario's
# Sweeps per sensor in the EWMA window, one sweep per tick: at rfplan's
# default alpha of 0.3, the sweeps older than the 13 newest carry
# 0.7**13 < 1% of the EWMA weight, so a longer window would barely change it.
WINDOW = 13
DAMAGE_RATE = 0.06
TICK_MS = 1000
DAMAGE_KINDS = ("format", "truncation", "integrity")


def _damage(frame: bytes, kind: str, rng: np.random.Generator) -> bytes:
    if kind == "format":
        return b"\x00\x00" + frame[2:]
    if kind == "truncation":
        # keep the magic so the parser gets as far as the length check
        return frame[: int(rng.integers(2, len(frame)))]
    damaged = bytearray(frame)
    damaged[len(frame) - 1 - int(rng.integers(4))] ^= 0xFF  # one byte of the CRC
    return bytes(damaged)


@dataclass
class Output:
    frames: list[bytes]
    outcomes: list  # per frame: the parsed sweep, or the rejection kind
    jsonl: str
    spectra: dict
    plans: dict


class SensorIngest(Workload):
    def __init__(self, seed: int, n_ops: int, workdir) -> None:
        base = survey_scenario(np.random.default_rng([seed, 0]))
        self.ids, positions = default_sensor_layout(base)
        states = []
        for k in range(POOL_STATES):
            rng = np.random.default_rng([seed, 1, k])
            emitters = tuple(
                replace(e, tx_power_dbm=e.tx_power_dbm + float(rng.normal(0.0, POWER_JITTER_DB)))
                for e in base.emitters
            )
            variant = replace(base, emitters=emitters, seed=int(rng.integers(0, 2**32)))
            states.append(simulate_sweeps(variant, positions))
        # per tick: the wire frames and, per frame, the sweep or rejection expected
        self.ticks: list[tuple[list[bytes], list]] = []
        for i in range(n_ops):
            rng = np.random.default_rng([seed, 2, i])
            frames, expected = [], []
            for sweep in states[int(rng.integers(POOL_STATES))]:
                stamped = replace(sweep, timestamp_ms=i * TICK_MS)
                frame = encode_frame(stamped)
                # tick 0 stays clean so every position has a window from the start
                if i > 0 and rng.random() < DAMAGE_RATE:
                    kind = DAMAGE_KINDS[int(rng.integers(len(DAMAGE_KINDS)))]
                    frames.append(_damage(frame, kind, rng))
                    expected.append(kind)
                else:
                    frames.append(frame)
                    expected.append(stamped)
            self.ticks.append((frames, expected))

    def start_pass(self) -> None:
        self.windows = [deque(maxlen=WINDOW) for _ in self.ids]
        self.expected_windows = [deque(maxlen=WINDOW) for _ in self.ids]

    def op(self, i: int, tr) -> Output:
        frames = self.ticks[i][0]
        outcomes = []
        for frame in frames:
            try:
                with tr.span("spectrum.frames.parse_frame"):
                    outcome = parse_frame(frame)
            except FrameFormatError:
                outcome = "format"
            except FrameTruncationError:
                outcome = "truncation"
            except FrameIntegrityError:
                outcome = "integrity"
            if isinstance(outcome, str):
                tr.count(f"spectrum.frames.parse_frame.rejected.{outcome}")
            outcomes.append(outcome)
        accepted = [o for o in outcomes if not isinstance(o, str)]
        with tr.span("spectrum.aggregate.sweeps_to_jsonl"):
            jsonl = sweeps_to_jsonl(accepted)
        tr.count("spectrum.aggregate.sweeps_to_jsonl.bytes", len(jsonl))
        for sweep in accepted:
            self.windows[sweep.sensor_id].append(sweep)
        spectra = {}
        for pos_id, window in zip(self.ids, self.windows):
            with tr.span("spectrum.aggregate.aggregate.ewma"):
                spectra[pos_id] = aggregate(list(window), EWMA, position_id=pos_id)
            tr.count("spectrum.aggregate.aggregate.sweeps", len(window))
        plans = {}
        for mode in (AP_ONLY, CLIENT_AWARE):
            with tr.span(f"spectrum.plan.select_channel.{mode}"):
                plans[mode] = select_channel(spectra, mode)
        # positions x candidate channels, over both modes
        n_channels = len(plans[AP_ONLY].per_channel_scores)
        tr.count("spectrum.plan.select_channel.evaluations", (1 + len(spectra)) * n_channels)
        return Output(frames, outcomes, jsonl, spectra, plans)

    def check(self, i: int, out: Output, tr) -> list[str]:
        errors = []
        expected = self.ticks[i][1]
        wrong = [k for k, (got, want) in enumerate(zip(out.outcomes, expected)) if got != want]
        if wrong or len(out.outcomes) != len(expected):
            errors.append(f"frames {wrong[:5]} decoded or rejected wrongly")
        accepted = [s for s in expected if not isinstance(s, str)]
        if sweeps_from_jsonl(out.jsonl) != accepted:
            errors.append("JSONL round trip changed a sweep")
        for sweep in accepted:
            self.expected_windows[sweep.sensor_id].append(sweep)
        got = np.array([out.spectra[pos_id].bins for pos_id in self.ids])
        ref = np.empty_like(got)
        by_length = defaultdict(list)  # windows fill at different ticks when frames are lost
        for k, window in enumerate(self.expected_windows):
            by_length[len(window)].append(k)
        for positions in by_length.values():
            stack = np.array([[s.bins for s in self.expected_windows[k]] for k in positions], dtype=float)
            ref[positions] = reference.ewma_dbm(stack, DEFAULT_EWMA_ALPHA)
        bad = np.flatnonzero(~np.all(np.abs(got - ref) <= 1e-9, axis=1))
        if bad.size:
            errors.append(f"EWMA at {[self.ids[k] for k in bad[:5]]} differs from the numpy reference")
        errors += reference.check_plan(out.plans[AP_ONLY], out.spectra, ("ap",))
        errors += reference.check_plan(out.plans[CLIENT_AWARE], out.spectra, tuple(out.spectra))
        return errors

    def digest(self, i: int, out: Output) -> str:
        h = hashlib.sha256(b"".join(out.frames))
        h.update(out.jsonl.encode())
        h.update(",".join(o if isinstance(o, str) else "ok" for o in out.outcomes).encode())
        h.update(f"{out.plans[AP_ONLY].chosen_channel},{out.plans[CLIENT_AWARE].chosen_channel}".encode())
        return h.hexdigest()


WORKLOAD = SensorIngest

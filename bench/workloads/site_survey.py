"""site-survey: the producer side, one fresh 51 x 50 scenario per op.

Simulate one sweep per sensor, encode every sweep as a wire frame, write the
JSONL sweep log, max-hold each position, then pick a channel ap-only and
client-aware. The per-link Python loop in simulate_sweeps is about 90% of the
op, so a faster simulator shows here and nowhere else on the timed path.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from rfplan.spectrum import (
    AP_ONLY,
    CLIENT_AWARE,
    MAX_HOLD,
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


@dataclass
class Output:
    sweeps: list
    frames: list[bytes]
    jsonl: str
    spectra: dict
    plans: dict


class SiteSurvey(Workload):
    def __init__(self, seed: int, n_ops: int, workdir) -> None:
        self.scenarios = [survey_scenario(np.random.default_rng([seed, i])) for i in range(n_ops)]

    def op(self, i: int, tr) -> Output:
        scenario = self.scenarios[i]
        ids, positions = default_sensor_layout(scenario)
        with tr.span("spectrum.simulate.simulate_sweeps"):
            sweeps = simulate_sweeps(scenario, positions, t_ms=i * 1000)
        tr.count("spectrum.simulate.simulate_sweeps.links", len(positions) * len(scenario.emitters))
        frames = []
        for sweep in sweeps:
            with tr.span("spectrum.frames.encode_frame"):
                frames.append(encode_frame(sweep))
        tr.count("spectrum.frames.encode_frame.bytes", sum(map(len, frames)))
        with tr.span("spectrum.aggregate.sweeps_to_jsonl"):
            jsonl = sweeps_to_jsonl(sweeps)
        tr.count("spectrum.aggregate.sweeps_to_jsonl.bytes", len(jsonl))
        spectra = {}
        for pos_id, sweep in zip(ids, sweeps):
            with tr.span("spectrum.aggregate.aggregate.max-hold"):
                spectra[pos_id] = aggregate([sweep], MAX_HOLD, position_id=pos_id)
        tr.count("spectrum.aggregate.aggregate.sweeps", len(sweeps))
        plans = {}
        for mode in (AP_ONLY, CLIENT_AWARE):
            with tr.span(f"spectrum.plan.select_channel.{mode}"):
                plans[mode] = select_channel(spectra, mode)
        # positions x candidate channels, over both modes
        n_channels = len(plans[AP_ONLY].per_channel_scores)
        tr.count("spectrum.plan.select_channel.evaluations", (1 + len(spectra)) * n_channels)
        return Output(sweeps, frames, jsonl, spectra, plans)

    def check(self, i: int, out: Output, tr) -> list[str]:
        errors = []
        if len(out.sweeps) != 1 + len(self.scenarios[i].clients):
            errors.append(f"{len(out.sweeps)} sweeps for {1 + len(self.scenarios[i].clients)} sensors")
        if any(parse_frame(f) != s for f, s in zip(out.frames, out.sweeps)):
            errors.append("frame round trip changed a sweep")
        if sweeps_from_jsonl(out.jsonl) != out.sweeps:
            errors.append("JSONL round trip changed a sweep")
        if any(out.spectra[p].bins != tuple(map(float, s.bins)) for p, s in zip(out.spectra, out.sweeps)):
            errors.append("max-hold of a single sweep differs from the sweep")
        errors += reference.check_plan(out.plans[AP_ONLY], out.spectra, ("ap",))
        errors += reference.check_plan(out.plans[CLIENT_AWARE], out.spectra, tuple(out.spectra))
        return errors

    def digest(self, i: int, out: Output) -> str:
        h = hashlib.sha256()
        for frame in out.frames:
            h.update(frame)
        h.update(out.jsonl.encode())
        h.update(f"{out.plans[AP_ONLY].chosen_channel},{out.plans[CLIENT_AWARE].chosen_channel}".encode())
        return h.hexdigest()


WORKLOAD = SiteSurvey

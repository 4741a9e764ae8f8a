"""Metric names and units, and the per-layer values derived from a trace.

BENCHMARK.json lists the same names and units; the smoke test keeps the two
in step. Busy times are "ms/op": wall-clock time summed over the traced
pass and divided by its op count; cli timings are medians per command.
Counts are totals over the traced pass. No layer queues work, so there are
no wait-time metrics.
"""
from __future__ import annotations

import statistics

from commands import COMMAND_NAMES

END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_per_s", "1/ref-s"),
    ("op_p50_ms", "ref-ms"),
    ("op_tail_ms", "ref-ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("cli.interp_ms", "ms"),
    ("cli.import_ms", "ms"),
    *((f"cli.wall_ms.{c}", "ms") for c in COMMAND_NAMES),
    *((f"cli.run_ms.{c}", "ms") for c in COMMAND_NAMES),
    ("cli.stderr_lines", "count"),
    ("fresnel.field_ratio.calls", "count"),
    ("fresnel.field_ratio.busy_ms", "ms/op"),
    ("fresnel.partial_field_curve.calls", "count"),
    ("fresnel.partial_field_curve.busy_ms", "ms/op"),
    ("fresnel.partial_field_curve.samples", "count"),
    ("fresnel.panels", "count"),
    ("fresnel.integration_warnings", "count"),
    ("fresnel.max_rel_err", "ratio"),
    ("spectrum.simulate.simulate_sweeps.calls", "count"),
    ("spectrum.simulate.simulate_sweeps.busy_ms", "ms/op"),
    ("spectrum.simulate.simulate_sweeps.links", "count"),
    ("spectrum.simulate.simulate_sweeps.us_per_link", "us"),
    ("spectrum.frames.encode_frame.busy_ms", "ms/op"),
    ("spectrum.frames.encode_frame.count", "count"),
    ("spectrum.frames.encode_frame.bytes", "B"),
    ("spectrum.frames.parse_frame.busy_ms", "ms/op"),
    ("spectrum.frames.parse_frame.count", "count"),
    ("spectrum.frames.parse_frame.rejected.format", "count"),
    ("spectrum.frames.parse_frame.rejected.truncation", "count"),
    ("spectrum.frames.parse_frame.rejected.integrity", "count"),
    ("spectrum.frames.parse_frame.accept_ratio", "ratio"),
    ("spectrum.aggregate.aggregate.busy_ms.max-hold", "ms/op"),
    ("spectrum.aggregate.aggregate.busy_ms.ewma", "ms/op"),
    ("spectrum.aggregate.aggregate.sweeps", "count"),
    ("spectrum.aggregate.sweeps_to_jsonl.busy_ms", "ms/op"),
    ("spectrum.aggregate.sweeps_to_jsonl.bytes", "B"),
    ("spectrum.aggregate.sweeps_from_jsonl.busy_ms", "ms/op"),
    ("spectrum.aggregate.sweeps_from_jsonl.records", "count"),
    ("spectrum.plan.select_channel.busy_ms.ap-only", "ms/op"),
    ("spectrum.plan.select_channel.busy_ms.client-aware", "ms/op"),
    ("spectrum.plan.select_channel.evaluations", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.uncovered_frac", "ratio"),
)

# span name -> busy-time metric (ms/op)
_BUSY = {
    "fresnel.field_ratio": "fresnel.field_ratio.busy_ms",
    "fresnel.partial_field_curve": "fresnel.partial_field_curve.busy_ms",
    "spectrum.simulate.simulate_sweeps": "spectrum.simulate.simulate_sweeps.busy_ms",
    "spectrum.frames.encode_frame": "spectrum.frames.encode_frame.busy_ms",
    "spectrum.frames.parse_frame": "spectrum.frames.parse_frame.busy_ms",
    "spectrum.aggregate.aggregate.max-hold": "spectrum.aggregate.aggregate.busy_ms.max-hold",
    "spectrum.aggregate.aggregate.ewma": "spectrum.aggregate.aggregate.busy_ms.ewma",
    "spectrum.aggregate.sweeps_to_jsonl": "spectrum.aggregate.sweeps_to_jsonl.busy_ms",
    "spectrum.aggregate.sweeps_from_jsonl": "spectrum.aggregate.sweeps_from_jsonl.busy_ms",
    "spectrum.plan.select_channel.ap-only": "spectrum.plan.select_channel.busy_ms.ap-only",
    "spectrum.plan.select_channel.client-aware":
        "spectrum.plan.select_channel.busy_ms.client-aware",
}

# span name -> call-count metric
_CALLS = {
    "fresnel.field_ratio": "fresnel.field_ratio.calls",
    "fresnel.partial_field_curve": "fresnel.partial_field_curve.calls",
    "spectrum.simulate.simulate_sweeps": "spectrum.simulate.simulate_sweeps.calls",
    "spectrum.frames.encode_frame": "spectrum.frames.encode_frame.count",
    "spectrum.frames.parse_frame": "spectrum.frames.parse_frame.count",
}


def layer_values(tracer, n_ops: int, overhead_frac: float) -> dict[str, float]:
    """Every PER_LAYER metric from one traced pass; layers it never called read 0."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    durations = tracer.durations()
    for span, metric in _BUSY.items():
        values[metric] = sum(durations.get(span, ())) * 1e3 / n_ops
    for span, metric in _CALLS.items():
        values[metric] = float(len(durations.get(span, ())))
    for name in COMMAND_NAMES:
        for kind in ("wall", "run"):
            samples = durations.get(f"cli.{kind}.{name}")
            if samples:
                values[f"cli.{kind}_ms.{name}"] = statistics.median(samples) * 1e3
    interp = durations.get("cli.interp")
    imported = durations.get("cli.import")
    if interp and imported:
        values["cli.interp_ms"] = statistics.median(interp) * 1e3
        values["cli.import_ms"] = (statistics.median(imported) - statistics.median(interp)) * 1e3
    for name, v in [*tracer.counts.items(), *tracer.peaks.items()]:
        if name not in values:
            raise KeyError(f"trace recorded {name!r}, which is not a per-layer metric")
        values[name] = float(v)

    links = values["spectrum.simulate.simulate_sweeps.links"]
    if links:
        busy_us = sum(durations.get("spectrum.simulate.simulate_sweeps", ())) * 1e6
        values["spectrum.simulate.simulate_sweeps.us_per_link"] = busy_us / links
    parsed = values["spectrum.frames.parse_frame.count"]
    if parsed:
        rejected = sum(
            values[f"spectrum.frames.parse_frame.rejected.{kind}"]
            for kind in ("format", "truncation", "integrity")
        )
        values["spectrum.frames.parse_frame.accept_ratio"] = (parsed - rejected) / parsed
    values["trace.overhead_frac"] = overhead_frac
    values["trace.uncovered_frac"] = tracer.coverage()["uncovered_frac"]
    return values

"""The benchmark's workloads and the interface the harness drives.

Each workload is a closed loop with one client: the harness calls op(i)
for i = 0, 1, ... and starts op i+1 only when op i has returned. Inputs come
from the workload seed alone and are built in the constructor, which is the
timed set-up together with importing the workload's module.
"""
from __future__ import annotations

# Nominal ops per second, near the seed commit's rates on a 2-CPU Xeon. They
# turn --seconds into a fixed op count, so every commit runs the same ops and
# its tail percentile rests on the same number of samples.
WORKLOADS: dict[str, tuple[str, float]] = {
    "cli-session": ("workloads.cli_session", 1.15),
    "site-survey": ("workloads.site_survey", 6.0),
    "sensor-ingest": ("workloads.sensor_ingest", 20.0),
    "fresnel-study": ("workloads.fresnel_study", 11.0),
}


class Workload:
    """Set-up happens in the constructor; op() is the timed path."""

    # peak_rss_mb is read from the CLI child processes instead of this one
    runs_in_children = False
    # kernel samples this close to an op set its speed factor (see speed.py)
    speed_window_s = 0.5

    def start_pass(self) -> None:
        """Reset state carried from op to op, before each pass over the ops."""

    def op(self, i: int, tr):
        raise NotImplementedError

    def check(self, i: int, out, tr) -> list[str]:
        """Correctness problems with op i's output; empty when it is right."""
        raise NotImplementedError

    def digest(self, i: int, out) -> str:
        """sha256 hex of the op's output bytes, compared against the goldens."""
        raise NotImplementedError

    def probes(self, tr) -> None:
        """Extra traced measurements made once after the traced pass."""

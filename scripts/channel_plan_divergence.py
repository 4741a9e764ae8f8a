#!/usr/bin/env python3
"""Show ap-only and client-aware channel selection disagreeing.

Runs the bundled divergence scenario: a strong channel-1 emitter next to the
AP and a weak channel-6 emitter parked next to the client, invisible from
the AP. The AP-local selector happily lands on channel 6; folding in the
client's spectrum steers the choice away.
"""
import math

from rfplan import fixtures
from rfplan.spectrum import (
    AP_ID,
    AP_ONLY,
    CLIENT_AWARE,
    MAX_HOLD,
    aggregate,
    default_sensor_layout,
    load_scenario,
    select_channel,
    simulate_sweeps,
)


def dbm(mw: float) -> float:
    return 10 * math.log10(mw) if mw > 0 else float("-inf")


def main():
    scenario = load_scenario(fixtures.divergence_scenario_path())
    ids, positions = default_sensor_layout(scenario)
    sweeps = simulate_sweeps(scenario, positions)
    spectra = {
        pid: aggregate([s], MAX_HOLD, position_id=pid) for pid, s in zip(ids, sweeps)
    }

    ap_plan = select_channel(spectra, AP_ONLY)
    client_plan = select_channel(spectra, CLIENT_AWARE)

    print(f"{'ch':>3} {'at AP (dBm)':>12} {'worst (dBm)':>12}")
    for ch, score in sorted(client_plan.per_channel_scores.items()):
        ap_mw = score.per_position_mw[AP_ID]
        print(f"{ch:>3} {dbm(ap_mw):>12.1f} {dbm(score.objective):>12.1f}")

    print(f"\nap-only choice      : channel {ap_plan.chosen_channel}")
    print(f"client-aware choice : channel {client_plan.chosen_channel}")


if __name__ == "__main__":
    main()

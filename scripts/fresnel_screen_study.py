#!/usr/bin/env python3
"""Size zone-2 screens across placements and export partial-field curves.

For a 50 m 2.4 GHz link, sweeps the screen plane from near the AP to the
midpoint: the screen shrinks and its shadow cone narrows as it approaches
one end. Also dumps (u, |field|) curves with and without obliquity
weighting to out/, written by the CLI.
"""
from pathlib import Path

from rfplan.cli import run
from rfplan.fresnel import PathGeometry, field_ratio, screen_for_zone, shading_cone_deg

LINK_M = 50.0
LAMBDA_M = 0.125

OUT = Path(__file__).resolve().parent.parent / "out"


def main():
    OUT.mkdir(exist_ok=True)

    print(f"{'d1 (m)':>8} {'outer d (m)':>12} {'cone@link (deg)':>16} {'cone@AP (deg)':>14}")
    for d1 in (2.5, 5.0, 10.0, 15.0, 25.0):
        geom = PathGeometry(d1, LINK_M - d1, LAMBDA_M)
        screen = screen_for_zone(2, geom)
        print(
            f"{d1:>8.1f} {screen.outer_diameter_m:>12.3f} "
            f"{shading_cone_deg(screen.r_outer_m, LINK_M):>16.2f} "
            f"{shading_cone_deg(screen.r_outer_m, d1):>14.2f}"
        )

    geom = PathGeometry(25.0, 25.0, LAMBDA_M)
    plain = field_ratio([(1.0, 2.0)])
    weighted = field_ratio([(1.0, 2.0)], obliquity=True, geometry=geom)
    print(f"\nzone-2 screen field ratio: {plain.magnitude:.4f} ideal, "
          f"{weighted.magnitude:.4f} with obliquity "
          f"({weighted.power_gain_db:.2f} dB power gain)")

    curve = ["fresnel", "field", "--curve-max", "12", "--curve-step", "0.05", "--format", "csv"]
    obliquity = ["--obliquity", "--lambda", str(LAMBDA_M), "--d1", "25", "--d2", "25"]
    for name, flags in (("field_curve_ideal.csv", []), ("field_curve_obliquity.csv", obliquity)):
        if run([*curve, *flags, "--out", str(OUT / name)]) != 0:
            raise SystemExit(1)
        print(f"wrote {OUT / name}")


if __name__ == "__main__":
    main()

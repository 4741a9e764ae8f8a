#!/usr/bin/env python3
"""Design a metal-plate lens for channel 6 and export its plate-edge profile.

Writes out/lens_profile.csv through the CLI and prints the link-level
numbers a 6 dB lens buys on a 10 m stock link.
"""
from pathlib import Path

from rfplan.cli import run
from rfplan.lens import LensEffect, LensSpec, boost_rx_power, lens_profile
from rfplan.linkbudget import Frequency

OUT = Path(__file__).resolve().parent.parent / "out"


def main():
    freq = Frequency(2.437e9)
    spec = LensSpec(
        plate_spacing_m=0.625 * freq.wavelength_m,  # n = 0.6
        design_frequency=freq,
        focal_length_m=0.3,
        aperture_half_angle_deg=40.0,
    )
    profile = lens_profile(spec, step_deg=1.0)

    OUT.mkdir(exist_ok=True)
    target = OUT / "lens_profile.csv"
    design = ["lens", "design", "--freq", "2.437e9", "--focal", "0.3", "--aperture", "40"]
    if run([*design, "--step", "1", "--format", "csv", "--out", str(target)]) != 0:
        raise SystemExit(1)

    edge = profile.samples[-1]
    print(f"wavelength        {freq.wavelength_m:.5f} m")
    print(f"plate spacing     {spec.plate_spacing_m:.5f} m")
    print(f"effective index   {spec.index:.4f}")
    print(f"aperture height   {edge.y_m:.4f} m, rim depth {edge.depth_m:.4f} m")
    print(f"profile           {len(profile.samples)} samples -> {target}")

    report = boost_rx_power(-60.0, LensEffect())
    print(
        f"with the lens     {report.rx_before_dbm:.0f} -> {report.rx_after_dbm:.0f} dBm, "
        f"range x{report.range_ratio:.2f}, throughput x{report.throughput_multiplier:.2f}"
    )


if __name__ == "__main__":
    main()

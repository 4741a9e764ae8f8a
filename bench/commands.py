"""The CLI commands the cli-session workload cycles through.

The README's command list, in its order, plus the two heavy commands users
run on real inputs: the obliquity field curve out to u = 200 and a channel
plan on a seeded 51-sensor x 50-emitter scenario file. The survey scenario
is simulated into a JSONL sweep log, which the next command aggregates.
Placeholders in braces are filled in by the workload.
"""

COMMANDS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("linkbudget", ("linkbudget", "--pt", "20", "--gt", "3", "--gr", "3",
                    "--freq", "2.437e9", "--dist", "10")),
    ("lens-design", ("lens", "design", "--freq", "2.437e9", "--focal", "0.3",
                     "--aperture", "40", "--format", "csv")),
    ("lens-apply", ("lens", "apply", "--rx-dbm", "-60")),
    ("fresnel-zones", ("fresnel", "zones", "--lambda", "0.125", "--d1", "25", "--d2", "25",
                       "--max-zone", "5")),
    ("fresnel-screen", ("fresnel", "screen", "--zone", "2", "--lambda", "0.125",
                        "--d1", "25", "--d2", "25")),
    ("fresnel-field", ("fresnel", "field", "--block", "1:2")),
    ("fresnel-field-obliquity", ("fresnel", "field", "--block", "1:2", "--obliquity",
                                 "--lambda", "0.125", "--d1", "25", "--d2", "25")),
    ("fresnel-field-curve", ("fresnel", "field", "--block", "1:2", "--obliquity",
                             "--lambda", "0.125", "--d1", "25", "--d2", "25",
                             "--curve-max", "200")),
    ("polar-loss", ("polar", "loss", "--delta-psi", "90", "--env", "metal-rich")),
    ("polar-capacity", ("polar", "capacity", "--xpd", "0.25", "--snr-linear", "100")),
    ("spectrum-simulate", ("spectrum", "simulate", "--scenario", "{survey}", "--jsonl")),
    ("spectrum-aggregate", ("spectrum", "aggregate", "--sweeps", "{sweeps}",
                            "--mode", "max-hold")),
    ("spectrum-plan-divergence", ("spectrum", "plan", "--scenario", "divergence")),
    ("spectrum-plan-survey", ("spectrum", "plan", "--scenario", "{survey}")),
    ("growth-fit", ("growth", "fit", "--input", "{ap_counts}")),
)

COMMAND_NAMES = tuple(name for name, _ in COMMANDS)

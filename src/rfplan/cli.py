"""Command-line front end.

One executable, one subcommand per planning task, three output formats:
a human table (default), a single JSON document, or CSV rows for plotting.
Exit codes: 0 success, 1 usage error, 2 domain error (bad physics/inputs).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, astuple, dataclass, fields, replace
from operator import itemgetter
from pathlib import Path
from typing import Callable, Sequence

from . import modes
from .errors import (
    MAX_LENGTH_M, DomainError, _decibels, _finite, _length, _positive, _uint64, check_alpha,
    check_aperture, check_channel, check_fraction, check_frequency, check_gain_uplift,
    check_interval, check_sample_count, check_snr, check_throughput, check_tilt_deg, check_u_max,
    check_zone_number, read_text,
)

# Each handler imports the library module it runs, so a command loads and
# compiles that module alone; the parser needs only the names in modes.


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting with code 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


@dataclass
class Rows:
    name: str
    header: list[str]
    data: list[tuple]


@dataclass
class Result:
    scalars: dict
    rows: Rows | None = None
    raw: str | None = None  # printed verbatim instead of in --format


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _render_table(command: str, result: Result) -> str:
    lines = []
    width = max((len(k) for k in result.scalars), default=0)
    for key, value in result.scalars.items():
        lines.append(f"{key:<{width}}  {_fmt_cell(value)}")
    if result.rows is not None:
        if lines:
            lines.append("")
        cells = [result.rows.header] + [
            [_fmt_cell(v) for v in row] for row in result.rows.data
        ]
        widths = [max(len(r[i]) for r in cells) for i in range(len(result.rows.header))]
        for r in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _render_json(command: str, result: Result) -> str:
    doc: dict = {"command": command}
    doc.update(result.scalars)
    if result.rows is not None:
        doc[result.rows.name] = [
            dict(zip(result.rows.header, row)) for row in result.rows.data
        ]
    return json.dumps(doc, indent=2) + "\n"


def _render_csv(command: str, result: Result) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if result.rows is not None:
        writer.writerow(result.rows.header)
        for row in result.rows.data:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    else:
        writer.writerow(result.scalars.keys())
        writer.writerow(
            [repr(v) if isinstance(v, float) else v for v in result.scalars.values()]
        )
    return buf.getvalue()


_RENDERERS: dict[str, Callable[[str, Result], str]] = {
    "table": _render_table,
    "json": _render_json,
    "csv": _render_csv,
}


def _parse_interval(text: str) -> tuple[float, float]:
    a, _, b = text.partition(":")
    try:
        return float(a), float(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid interval value: {text!r}") from None


def _parse_channels(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid channel list value: {text!r}") from None


def _reject_non_finite_result(result: Result) -> None:
    """nan or inf in a result would print as NaN/Infinity, or as nan/inf in a table or CSV."""
    columns = [(key, (value,)) for key, value in result.scalars.items()]
    if result.rows is not None:
        data = result.rows.data
        columns += [(name, [*map(itemgetter(i), data)]) for i, name in enumerate(result.rows.header)]
    for name, values in columns:
        for value in values:
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"result {name} is {value!r}, not a finite number")


# --- command handlers -------------------------------------------------------

def _cmd_linkbudget(args) -> Result:
    from .linkbudget import (
        AntennaGain, Frequency, LinkBudget, LinkGeometry, fspl_db, power_utilization,
    )

    geometry = LinkGeometry(args.dist, Frequency(args.freq))
    gt, gr = AntennaGain.from_dbi(args.gt), AntennaGain.from_dbi(args.gr)
    budget = LinkBudget(args.pt, gt, gr, geometry)
    utilization = power_utilization(budget.tx_gain, budget.rx_gain, geometry)
    return Result(
        {
            "wavelength_m": geometry.wavelength_m,
            "fspl_db": fspl_db(geometry),
            "rx_power_dbm": budget.rx_power_dbm,
            "power_utilization": utilization,
        },
    )


def _cmd_lens_design(args) -> Result:
    from . import lens
    from .linkbudget import Frequency

    freq = Frequency(args.freq)
    spacing = args.spacing if args.spacing is not None else 0.625 * freq.wavelength_m
    spec = lens.LensSpec(spacing, freq, args.focal, args.aperture)
    check_sample_count(args.step, args.aperture, "--step", "--aperture")
    profile = lens.lens_profile(spec, step_deg=args.step)
    return Result(
        {
            "wavelength_m": freq.wavelength_m,
            "plate_spacing_m": spacing,
            "effective_index": spec.index,
            "focal_length_m": spec.focal_length_m,
            "aperture_half_angle_deg": spec.aperture_half_angle_deg,
        },
        Rows("profile", [f.name for f in fields(lens.ProfileSample)],
             [astuple(s) for s in profile.samples]),
    )


def _cmd_lens_apply(args) -> Result:
    from . import lens

    effect = lens.LensEffect(args.uplift_db, args.throughput_frac)
    return Result(asdict(lens.boost_rx_power(args.rx_dbm, effect)))


def _fresnel_geometry(args):
    from .fresnel import PathGeometry

    lam = args.lambda_m
    if lam is None:
        if args.freq is None:
            raise DomainError("give either --lambda or --freq")
        from .linkbudget import Frequency
        lam = Frequency(args.freq).wavelength_m
    if args.d1 is None or args.d2 is None:
        raise DomainError("this computation needs --d1 and --d2")
    return PathGeometry(d1_m=args.d1, d2_m=args.d2, lambda_m=lam)


def _cmd_fresnel_zones(args) -> Result:
    from . import fresnel

    geometry = _fresnel_geometry(args)
    return Result(
        {"lambda_m": geometry.lambda_m, "d1_m": geometry.d1_m, "d2_m": geometry.d2_m},
        Rows("zones", ["r_m", "zone_index"], fresnel.zone_table(geometry, args.max_zone)),
    )


def _cmd_fresnel_screen(args) -> Result:
    from . import fresnel

    geometry = _fresnel_geometry(args)
    # the screen's radius and d1 + d2 are lengths too, derived from the flags
    wave = f"--freq {args.freq!r}" if args.lambda_m is None else f"--lambda {args.lambda_m!r}"
    d1_d2, past = f"--d1 {args.d1!r} and --d2 {args.d2!r}", f" m, past {MAX_LENGTH_M} m"
    if (r_outer := fresnel.zone_radius(args.zone, geometry)) > MAX_LENGTH_M:
        raise DomainError(f"--zone {args.zone} with {wave}, {d1_d2} gives a screen radius of "
                          f"{r_outer!r}{past}")
    if (total := geometry.d1_m + geometry.d2_m) > MAX_LENGTH_M:
        raise DomainError(f"{d1_d2} add up to {total!r}{past}")
    screen = fresnel.screen_for_zone(args.zone, geometry)
    return Result(
        {
            "blocked_zone": screen.blocked_zone,
            "r_inner_m": screen.r_inner_m,
            "r_outer_m": screen.r_outer_m,
            "outer_diameter_m": screen.outer_diameter_m,
            "shading_cone_total_deg": fresnel.shading_cone_deg(screen.r_outer_m, total),
            "shading_cone_ap_deg": fresnel.shading_cone_deg(screen.r_outer_m, geometry.d1_m),
        },
    )


def _cmd_fresnel_field(args) -> Result:
    from . import fresnel

    geometry = _fresnel_geometry(args) if args.obliquity else None
    blocked = args.block or []
    ratio = fresnel.field_ratio(blocked, obliquity=args.obliquity, geometry=geometry,
                                force_quadrature=args.quadrature)
    rows = None
    if args.curve_max is not None:
        check_sample_count(args.curve_step, args.curve_max, "--curve-step", "--curve-max")
        curve = fresnel.partial_field_curve(args.curve_max, args.curve_step,
                                            obliquity=args.obliquity, geometry=geometry)
        rows = Rows("partial_field", ["u", "partial_field_magnitude"], curve)
    return Result(
        {
            "blocked": ",".join(f"{a:g}:{b:g}" for a, b in blocked) or "none",
            "ratio_real": ratio.complex_ratio.real,
            "ratio_imag": ratio.complex_ratio.imag,
            "magnitude": ratio.magnitude,
            "power_gain_db": ratio.power_gain_db,
        },
        rows,
    )


def _cmd_polar_loss(args) -> Result:
    from . import polarization

    if args.epsilon is not None:
        env = polarization.EnvironmentModel(diffuse_fraction=args.epsilon)
    else:
        env = polarization.environment_preset(args.env)
    scalars = {
        "delta_psi_deg": args.delta_psi,
        "diffuse_fraction": env.diffuse_fraction,
        "mismatch_loss_db": polarization.mismatch_loss_db(args.delta_psi, env),
    }
    if args.tilt_deg is not None:
        tilt = polarization.tilt_effect_db(math.radians(args.tilt_deg), env)
        scalars["tilt_deg"] = args.tilt_deg
        scalars["tilt_effect_db"] = tilt
        scalars["total_effect_db"] = scalars["mismatch_loss_db"] + tilt
    return Result(scalars)


def _cmd_polar_capacity(args) -> Result:
    from . import polarization

    channel = polarization.dual_polarized_channel(args.xpd, args.snr_linear, args.seed)
    return Result(
        {
            "xpd": args.xpd,
            "snr_linear": args.snr_linear,
            "perturbed": args.seed is not None,
            "capacity_bps_hz": polarization.mimo_capacity_bps_hz(channel),
        },
    )


def _scenario_from_args(args):
    from . import fixtures
    from .spectrum import load_scenario

    path = Path(args.scenario)
    if not path.exists():
        if args.scenario not in fixtures.BUNDLED_SCENARIOS:
            raise DomainError(f"no scenario file or bundled scenario named {args.scenario!r}")
        path = fixtures.BUNDLED_SCENARIOS[args.scenario]()
    scenario = load_scenario(path)
    return scenario if args.seed is None else replace(scenario, seed=args.seed)


def _cmd_spectrum_simulate(args) -> Result:
    from .spectrum import default_sensor_layout, simulate_sweeps, sweeps_to_jsonl

    scenario = _scenario_from_args(args)
    ids, positions = default_sensor_layout(scenario)
    sweeps = simulate_sweeps(scenario, positions, t_ms=args.t_ms)
    if args.jsonl:
        # the interchange stream, one record per line, for piping into aggregate
        return Result({}, raw=sweeps_to_jsonl(sweeps))
    rows = [(sweep.sensor_id, pos_id, center_khz, dbm) for pos_id, sweep in zip(ids, sweeps)
            for center_khz, dbm in zip(sweep.grid.centers_khz(), sweep.bins)]
    return Result(
        {
            "sensors": len(sweeps),
            "t_ms": args.t_ms,
            "seed": scenario.seed,
            "noise_floor_dbm": scenario.noise_floor_dbm,
        },
        Rows("bins", ["sensor_id", "position_id", "bin_center_khz", "dbm"], rows),
    )


def _cmd_spectrum_aggregate(args) -> Result:
    from .spectrum import aggregate, sweeps_from_jsonl

    sweeps = sweeps_from_jsonl(read_text(args.sweeps))
    spectrum = aggregate(sweeps, args.mode, alpha=args.alpha, position_id=args.position_id)
    rows = list(zip(spectrum.grid.centers_khz(), spectrum.bins))
    return Result(
        {
            "position_id": spectrum.position_id,
            "mode": spectrum.mode,
            "n_sweeps": len(sweeps),
            "start_khz": spectrum.start_khz,
            "bin_khz": spectrum.bin_khz,
        },
        Rows("bins", ["bin_center_khz", "dbm"], rows),
    )


def _cmd_spectrum_plan(args) -> Result:
    from .spectrum import aggregate, default_sensor_layout, select_channel, simulate_sweeps

    scenario = _scenario_from_args(args)
    ids, positions = default_sensor_layout(scenario)
    sweeps = simulate_sweeps(scenario, positions, t_ms=args.t_ms)
    spectra = {
        pos_id: aggregate([sweep], modes.MAX_HOLD, position_id=pos_id)
        for pos_id, sweep in zip(ids, sweeps)
    }
    ap_plan = select_channel(spectra, modes.AP_ONLY, args.candidates, args.objective)
    client_plan = select_channel(spectra, modes.CLIENT_AWARE, args.candidates, args.objective)
    rows = [(ch, ap_plan.per_channel_scores[ch].objective, score.objective)
            for ch, score in sorted(client_plan.per_channel_scores.items())]
    return Result(
        {
            "ap_only_channel": ap_plan.chosen_channel,
            "client_aware_channel": client_plan.chosen_channel,
            "modes_agree": ap_plan.chosen_channel == client_plan.chosen_channel,
            "objective": args.objective,
        },
        Rows("scores", ["channel", "ap_only_mw", "client_aware_mw"], rows),
    )


def _cmd_growth_fit(args) -> Result:
    from . import growth

    series = growth.read_count_series(args.input)
    fit = growth.fit_doubling(series)
    scalars = {
        "points": len(series.points),
        "doubling_days": fit.doubling_days,
        "intercept_log2": fit.intercept_log2,
        "r_squared": fit.r_squared,
    }
    if fit.doubling_days > 0:
        last_t = series.points[-1][0]
        scalars["next_doubling_t_days"] = growth.predict_doubling_date(fit, last_t)
    return Result(scalars)


# --- parser assembly ---------------------------------------------------------

# Each numeric flag's domain, the errors.py rule the library applies to its
# value: run checks each given value, in declaration order, before the handler.
_DOMAINS = {
    **dict.fromkeys(("--pt", "--rx-dbm", "--delta-psi"), _finite),
    **dict.fromkeys(("--gt", "--gr"), _decibels),
    "--freq": check_frequency,
    **dict.fromkeys(("--dist", "--spacing", "--focal", "--lambda", "--d1", "--d2"), _length),
    "--aperture": check_aperture,
    **dict.fromkeys(("--step", "--curve-step"), _positive),
    "--uplift-db": check_gain_uplift,
    "--throughput-frac": check_throughput,
    **dict.fromkeys(("--max-zone", "--zone"), check_zone_number),
    "--block": check_interval,  # each A:B
    "--curve-max": check_u_max,
    **dict.fromkeys(("--epsilon", "--xpd"), check_fraction),
    "--tilt-deg": check_tilt_deg,
    "--snr-linear": check_snr,
    **dict.fromkeys(("--seed", "--t-ms"), _uint64),
    "--alpha": check_alpha,
    "--candidates": check_channel,  # each channel
}

_GROUPS = {
    "lens": "accelerating metal-plate lens",
    "fresnel": "Fresnel zones, screens, field ratios",
    "polar": "polarization mismatch and MIMO capacity",
    "spectrum": "sweep simulation, aggregation, channel plan",
    "growth": "AP count growth trends",
}


def build_parser() -> _Parser:
    parser = _Parser(prog="rfplan", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    groups = {"": top}
    leaves = []

    def command(name: str, help: str, handler: Callable[..., Result]) -> _Parser:
        """Register `rfplan <name>`; a two-word name lands in its group's parser."""
        group, _, leaf = name.rpartition(" ")
        if group not in groups:
            groups[group] = top.add_parser(group, help=_GROUPS[group]).add_subparsers(
                dest="subcommand", required=True, parser_class=_Parser
            )
        p = groups[group].add_parser(leaf, help=help)
        p.set_defaults(handler=handler, name=name)
        leaves.append(p)
        return p

    def fresnel_geometry_flags(q, d_required=True):
        q.add_argument("--lambda", dest="lambda_m", type=float, default=None,
                       help="wavelength, m")
        q.add_argument("--freq", type=float, default=None,
                       help="carrier frequency, Hz (alternative to --lambda)")
        q.add_argument("--d1", type=float, required=d_required,
                       help="transmitter to screen plane, m")
        q.add_argument("--d2", type=float, required=d_required,
                       help="screen plane to receiver, m")

    def scenario_flags(q):
        q.add_argument("--scenario", required=True,
                       help="scenario JSON file or bundled name (e.g. 'divergence')")
        q.add_argument("--t-ms", type=int, default=0, help="sweep timestamp, ms")
        q.add_argument("--seed", type=int, default=None, help="override the scenario's seed")

    p = command("linkbudget", "free-space link budget and power utilization", _cmd_linkbudget)
    p.add_argument("--pt", type=float, required=True, help="transmit power, dBm")
    p.add_argument("--gt", type=float, required=True, help="transmit antenna gain, dBi")
    p.add_argument("--gr", type=float, required=True, help="receive antenna gain, dBi")
    p.add_argument("--freq", type=float, required=True, help="carrier frequency, Hz")
    p.add_argument("--dist", type=float, required=True, help="link distance, m")

    p = command("lens design", "effective index and plate-edge profile", _cmd_lens_design)
    p.add_argument("--freq", type=float, default=2.437e9, help="design frequency, Hz")
    p.add_argument("--spacing", type=float, default=None,
                   help="plate spacing, m (default: 0.625 wavelengths)")
    p.add_argument("--focal", type=float, default=0.3, help="focal length, m")
    p.add_argument("--aperture", type=float, default=40.0, help="aperture half angle, deg")
    p.add_argument("--step", type=float, default=1.0, help="profile sample step, deg")

    p = command("lens apply", "apply the lens gain uplift to a link", _cmd_lens_apply)
    p.add_argument("--rx-dbm", type=float, required=True, help="received power without lens, dBm")
    p.add_argument("--uplift-db", type=float, default=6.0, help="lens gain uplift, dB")
    p.add_argument("--throughput-frac", type=float, default=0.04,
                   help="fractional throughput gain at fixed range")

    p = command("fresnel zones", "zone radius table", _cmd_fresnel_zones)
    fresnel_geometry_flags(p)
    p.add_argument("--max-zone", type=int, default=5, help="largest zone to tabulate")

    p = command("fresnel screen", "annular screen for one zone", _cmd_fresnel_screen)
    fresnel_geometry_flags(p)
    p.add_argument("--zone", type=int, required=True, help="zone to block")

    p = command("fresnel field", "on-axis field ratio with zones blocked", _cmd_fresnel_field)
    fresnel_geometry_flags(p, d_required=False)
    p.add_argument("--block", type=_parse_interval, action="append", default=None,
                   metavar="A:B", help="blocked zone-coordinate interval, repeatable")
    p.add_argument("--obliquity", action="store_true",
                   help="weight by the obliquity factor (needs geometry)")
    p.add_argument("--quadrature", action="store_true",
                   help="force numerical quadrature instead of the closed form")
    p.add_argument("--curve-max", type=float, default=None,
                   help="also emit the partial-field curve up to this u")
    p.add_argument("--curve-step", type=float, default=0.05, help="curve sample step in u")

    p = command("polar loss", "polarization mismatch loss", _cmd_polar_loss)
    p.add_argument("--delta-psi", type=float, required=True,
                   help="polarization misalignment, deg")
    p.add_argument("--env", choices=sorted(modes.PRESET_ISOLATION_DB),
                   default="sparse-room", help="environment preset")
    p.add_argument("--epsilon", type=float, default=None,
                   help="diffuse fraction, overrides --env")
    p.add_argument("--tilt-deg", type=float, default=None,
                   help="also report the tilt effect at this forward lean")

    p = command("polar capacity", "2x2 polarization-diversity capacity", _cmd_polar_capacity)
    p.add_argument("--xpd", type=float, required=True, help="cross-polar leakage in [0, 1]")
    p.add_argument("--snr-linear", type=float, default=100.0, help="mean branch SNR, linear")
    p.add_argument("--seed", type=int, default=None, help="perturb the channel by this seed")

    p = command("spectrum simulate", "simulate sweeps at the AP and clients",
                _cmd_spectrum_simulate)
    scenario_flags(p)
    p.add_argument("--jsonl", action="store_true",
                   help="emit raw line-delimited sweep records instead of --format")

    p = command("spectrum aggregate", "merge a sweep log into one spectrum",
                _cmd_spectrum_aggregate)
    p.add_argument("--sweeps", required=True, help="JSONL sweep log file")
    p.add_argument("--mode", choices=(modes.MAX_HOLD, modes.EWMA), default=modes.MAX_HOLD)
    p.add_argument("--alpha", type=float, default=modes.DEFAULT_EWMA_ALPHA,
                   help="ewma smoothing factor")
    p.add_argument("--position-id", default="all", help="label for the merged spectrum")

    p = command("spectrum plan", "pick a channel, ap-only vs client-aware", _cmd_spectrum_plan)
    scenario_flags(p)
    p.add_argument("--candidates", type=_parse_channels, default=None,
                   metavar="1,6,11", help="candidate channels (default: 1-14)")
    p.add_argument("--objective", choices=(modes.MINIMAX, modes.WEIGHTED_SUM),
                   default=modes.MINIMAX)

    p = command("growth fit", "fit a doubling period to a count series", _cmd_growth_fit)
    p.add_argument("--input", required=True, help="two-column text file: t_days count")

    for p in leaves:  # the common flags come last in every command's usage and help
        p.add_argument("--format", choices=_RENDERERS, default="table",
                       help="output format (default: table)")
        p.add_argument("--out", type=Path, default=None, help="write output to a file")
        p.set_defaults(domains=[a for a in p._actions if a.option_strings[0] in _DOMAINS])
    return parser


def run(argv: Sequence[str] | None = None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=stderr)
        return 1
    try:
        for action in args.domains:
            flag, value = action.option_strings[0], getattr(args, action.dest)
            for item in value if isinstance(value, (list, tuple)) else [value]:
                if item is not None:  # a flag not given and without a default
                    _DOMAINS[flag](flag, item)
        result = args.handler(args)
        if result.raw is None:
            _reject_non_finite_result(result)
        render = _RENDERERS[args.format]
        text = result.raw if result.raw is not None else render(args.name, result)
        if args.out is not None:
            Path(args.out).write_text(text)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=stderr)
        return 2
    if args.out is None:
        stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

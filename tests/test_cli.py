import argparse
import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfplan import cli, fixtures
from rfplan.cli import build_parser, run
from rfplan.errors import MAX_DB, SPEED_OF_LIGHT_M_S, U_MAX, DomainError
from rfplan.fresnel import (
    PathGeometry,
    field_ratio,
    partial_field_curve,
    screen_for_zone,
    shading_cone_deg,
    zone_radius,
    zone_table,
)
from rfplan.lens import LensEffect, LensSpec, boost_rx_power, lens_profile
from rfplan.linkbudget import (
    AntennaGain,
    Frequency,
    LinkBudget,
    LinkGeometry,
    friis_received_dbm,
    fspl_db,
    power_utilization,
)
from rfplan.polarization import (
    ENVIRONMENT_PRESETS,
    EnvironmentModel,
    dual_polarized_channel,
    mimo_capacity_bps_hz,
    mismatch_loss_db,
    tilt_effect_db,
)
from rfplan.spectrum import (
    MAX_SHADOWING_SIGMA_DB,
    Client,
    Emitter,
    Scenario,
    SensorSweep,
    aggregate,
    scenario_to_json,
    select_channel,
    simulate_sweeps,
    sweeps_from_jsonl,
)


ROOT = Path(__file__).resolve().parents[1]


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_linkbudget_reference(capsys):
    code, out, _ = invoke(
        capsys, "linkbudget", "--pt", "20", "--gt", "3", "--gr", "3",
        "--freq", "2.437e9", "--dist", "10", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rx_power_dbm"] == pytest.approx(-34.18489380557786, abs=1e-9)
    assert doc["fspl_db"] == pytest.approx(60.18489380557786, abs=1e-9)


def test_json_numbers_round_trip_to_library_values(capsys):
    code, out, _ = invoke(
        capsys, "linkbudget", "--pt", "20", "--gt", "3", "--gr", "3",
        "--freq", "2.437e9", "--dist", "10", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    geometry = LinkGeometry(10.0, Frequency(2.437e9))
    loss = fspl_db(geometry)
    k = power_utilization(AntennaGain.from_dbi(3.0), AntennaGain.from_dbi(3.0), geometry)
    assert doc["fspl_db"] == loss  # repr round trip is exact
    assert doc["rx_power_dbm"] == 26.0 - loss
    assert doc["power_utilization"] == k
    assert doc["wavelength_m"] == Frequency(2.437e9).wavelength_m


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_linkbudget_rx_power_is_the_library_value(capsys, fmt):
    # -1.3 dBi does not survive the dBi -> linear -> dBi round trip exactly,
    # so retyping Pt + Gt + Gr - FSPL in the CLI would differ in the last bit
    code, out, _ = invoke(
        capsys, "linkbudget", "--pt", "0", "--gt", "-1.3", "--gr", "3",
        "--freq", "2.437e9", "--dist", "10", "--format", fmt,
    )
    assert code == 0
    budget = LinkBudget(
        0.0, AntennaGain.from_dbi(-1.3), AntennaGain.from_dbi(3.0),
        LinkGeometry(10.0, Frequency(2.437e9)),
    )
    if fmt == "json":
        rx = json.loads(out)["rx_power_dbm"]
    else:
        header, row = out.splitlines()
        rx = float(dict(zip(header.split(","), row.split(",")))["rx_power_dbm"])
    assert rx == friis_received_dbm(budget)


def test_fresnel_screen_reference(capsys):
    code, out, _ = invoke(
        capsys, "fresnel", "screen", "--zone", "2", "--lambda", "0.125",
        "--d1", "25", "--d2", "25", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outer_diameter_m"] == pytest.approx(3.5355339059327378, abs=1e-3)
    assert doc["shading_cone_total_deg"] == pytest.approx(4.04973659455468, abs=0.05)
    geometry = PathGeometry(25.0, 25.0, 0.125)
    assert doc["r_outer_m"] == zone_radius(2, geometry)
    assert doc["shading_cone_total_deg"] == shading_cone_deg(zone_radius(2, geometry), 50.0)


def test_fresnel_field_closed_form(capsys):
    code, out, _ = invoke(
        capsys, "fresnel", "field", "--block", "1:2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["magnitude"] == pytest.approx(3.0, abs=1e-9)
    assert doc["power_gain_db"] == pytest.approx(9.542425094393248, abs=1e-9)


def test_fresnel_field_obliquity_needs_geometry(capsys):
    code, _, err = invoke(capsys, "fresnel", "field", "--block", "1:2", "--obliquity")
    assert code == 2
    assert "error" in err


def test_fresnel_field_curve_to_u_max_200_has_4001_rows(capsys):
    code, out, _ = invoke(
        capsys, "fresnel", "field", "--block", "1:2", "--obliquity", "--lambda", "0.125",
        "--d1", "25", "--d2", "25", "--curve-max", "200", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "u,partial_field_magnitude"
    assert len(lines) == 1 + 4001
    assert lines[-1].startswith("200.0,")


# sha256 of stdout of the quadrature's ratios and curve, recorded when every
# quadrature sum became elementwise IEEE arithmetic in a fixed order, so the
# bytes are the same on any CPU. --quadrature's ratio_imag is rounding residue
FRESNEL_FIELD_STDOUT_SHA256 = {
    ("curve", "json"): "7b55a1bc55740927621d5ed242d89504829e8b9cd24283bb9ae94d14c9e634fa",
    ("curve", "csv"): "2f9679f487e6561f1537dfbf26d49aa6fdd5aa9ffc767e5db90d1e649cb889bc",
    ("quadrature", "table"): "7515f9aca1618dd2dff2f25b6f45ffccd0db7ec37317108157b3b6b9575acbac",
    ("quadrature", "json"): "61e95ea213a4034a3309fc48a730536341a0f90be7e94f982037c917affce542",
    ("quadrature", "csv"): "9082069ef0d30f7d0ac725366f955e940c1463762db9c13dd20c70e238505f36",
}


@pytest.mark.parametrize(("command", "fmt"), sorted(FRESNEL_FIELD_STDOUT_SHA256))
def test_fresnel_field_stdout_matches_pinned_bytes(capsys, command, fmt):
    flags = {
        "curve": ["--obliquity", "--lambda", "0.125", "--d1", "25", "--d2", "25",
                  "--curve-max", "200"],
        "quadrature": ["--quadrature"],
    }[command]
    code, out, _ = invoke(capsys, "fresnel", "field", "--block", "1:2", *flags, "--format", fmt)
    assert code == 0
    assert sha256(out) == FRESNEL_FIELD_STDOUT_SHA256[command, fmt]


def test_fresnel_zones_csv(capsys):
    code, out, _ = invoke(
        capsys, "fresnel", "zones", "--lambda", "0.125", "--d1", "25", "--d2", "25",
        "--max-zone", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r_m,zone_index"
    assert len(lines) == 4
    assert lines[2] == f"{zone_radius(2, PathGeometry(25.0, 25.0, 0.125))!r},2"


def test_cli_import_does_not_load_scipy():
    src = ROOT / "src"
    code = (
        "import sys, rfplan.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)), check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_commands_that_draw_nothing_leave_numpy_random_unloaded():
    # numpy.random costs several ms to import; only shadowing draws need it,
    # and the bundled divergence scenario has no shadowing
    code = (
        "import io, sys, rfplan.cli as cli, rfplan.spectrum as sp; "
        "loaded = lambda: print('numpy.random' in sys.modules); "
        "loaded(); "
        "cli.run(['linkbudget', '--pt', '20', '--gt', '3', '--gr', '3', "
        "'--freq', '2.437e9', '--dist', '10'], io.StringIO()); "
        "cli.run(['spectrum', 'plan', '--scenario', 'divergence'], io.StringIO()); "
        "loaded(); "
        "sp.simulate_sweeps(sp.Scenario((0, 0), emitters=(sp.Emitter(6, 10.0, 1.0, 0.0),), "
        "shadowing_sigma_db=4.0), [(0.0, 0.0)]); "
        "loaded()"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True,
    )
    assert proc.stdout.split() == ["False", "False", "True"]


def test_lens_design_csv_profile(capsys):
    code, out, _ = invoke(
        capsys, "lens", "design", "--focal", "0.3", "--aperture", "40",
        "--step", "10", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta_deg,r_m,y_m,depth_m"
    assert len(lines) == 6  # 0,10,20,30,40 degrees
    vertex = lines[1].split(",")
    assert float(vertex[1]) == pytest.approx(0.3)
    assert float(vertex[3]) == pytest.approx(0.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["fresnel", "field", "--curve-max", "1e-13"],
        ["fresnel", "field", "--curve-max", "1e-13", "--obliquity", "--lambda", "0.125",
         "--d1", "25", "--d2", "25"],
        ["lens", "design", "--aperture", "1e-13"],
    ],
    ids=["curve", "obliquity-curve", "lens"],
)
def test_range_inside_the_sliver_keeps_both_ends(capsys, argv):
    # a range shorter than the sliver once printed only one of its two rows
    code, out, _ = invoke(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0.0", "1e-13"]


def test_lens_apply_reference(capsys):
    code, out, _ = invoke(
        capsys, "lens", "apply", "--rx-dbm", "-60", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rx_after_dbm"] == -54.0
    assert doc["throughput_multiplier"] == 1.04
    assert doc["range_ratio"] == pytest.approx(1.9952623149688795, rel=1e-12)


def test_polar_loss_presets(capsys):
    code, out, _ = invoke(
        capsys, "polar", "loss", "--delta-psi", "90", "--env", "metal-rich",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mismatch_loss_db"] == pytest.approx(-4.0, abs=1e-6)


def test_polar_capacity_matches_library(capsys):
    code, out, _ = invoke(
        capsys, "polar", "capacity", "--xpd", "0.25", "--snr-linear", "100",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    expected = mimo_capacity_bps_hz(dual_polarized_channel(0.25, snr_linear=100.0))
    assert doc["capacity_bps_hz"] == expected
    assert doc["perturbed"] is False


def test_spectrum_plan_divergence_fixture(capsys):
    code, out, _ = invoke(
        capsys, "spectrum", "plan", "--scenario", "divergence", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ap_only_channel"] == 6
    assert doc["client_aware_channel"] == 11
    assert doc["modes_agree"] is False
    assert len(doc["scores"]) == 14


def test_spectrum_plan_accepts_path(capsys):
    code, out, _ = invoke(
        capsys, "spectrum", "plan", "--scenario",
        str(fixtures.divergence_scenario_path()), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["ap_only_channel"] == 6


def test_spectrum_simulate_jsonl_interchange(capsys, tmp_path):
    code, out, _ = invoke(capsys, "spectrum", "simulate", "--scenario", "divergence", "--jsonl")
    assert code == 0
    sweeps = sweeps_from_jsonl(out)
    assert len(sweeps) == 2  # ap + one client
    assert all(s.grid.n_bins == 100 for s in sweeps)

    # feed the stream through aggregate
    log = tmp_path / "sweeps.jsonl"
    log.write_text(out)
    code, out2, _ = invoke(
        capsys, "spectrum", "aggregate", "--sweeps", str(log), "--format", "json",
    )
    assert code == 0
    doc = json.loads(out2)
    assert doc["n_sweeps"] == 2
    assert len(doc["bins"]) == 100


# sha256 of stdout on the bundled divergence scenario, recorded before the
# spectrum path moved onto BinGrid; the output contract is byte-identical
SPECTRUM_STDOUT_SHA256 = {
    ("simulate", "table"): "e2205495d72364447a07e566428518a7c831a3ddcec7607af166ddefe841b1d2",
    ("simulate", "json"): "1bed3c706f309010aaa1d80bddbca9e1c7aee4ae39a08c6422c39b0398e8cc7f",
    ("simulate", "csv"): "5972452514b7f402bf0ba394da73ff24ae597d9c63d75ffc9792f7e1204400c6",
    # recorded before sweeps_to_jsonl formatted records from the payload
    ("simulate", "jsonl"): "568347b4f644d49c94c4917df2241a131ab852b75bb7f3cd5ab060dd14462ed2",
    ("minimax", "table"): "e45bb0ebc3be484ede8ff9fa27630bfef6479777042d7cfadbd6c5c0736764dd",
    ("minimax", "json"): "445b1487cb66fe51fae99d32ef868b2afd5dcab83c2ef54b0dd10f44963fe9ae",
    ("minimax", "csv"): "5d12b6b02bc3226232471c915a7baf0228cd1886fcd00e9510460bda58523b85",
    ("weighted-sum", "table"): "60e9e56877fc89cb502f33d2b8fad218fa9c221540b6f70310e59ab3803526f8",
    ("weighted-sum", "json"): "53c2334ef10798cbf9c22fc108c27bc1173457aa272393d31219ee679b1c52ba",
    ("weighted-sum", "csv"): "148ce0c63de0f69d89f597d2d438a30903f8c4afdf2d15fa8e8fd1b5ca5acbd2",
}


@pytest.mark.parametrize(("command", "fmt"), sorted(SPECTRUM_STDOUT_SHA256))
def test_spectrum_stdout_matches_pinned_bytes(capsys, command, fmt):
    if command == "simulate":
        argv = ["spectrum", "simulate", "--scenario", "divergence"]
    else:
        argv = ["spectrum", "plan", "--scenario", "divergence", "--objective", command]
    code, out, _ = invoke(capsys, *argv, *(["--jsonl"] if fmt == "jsonl" else ["--format", fmt]))
    assert code == 0
    assert sha256(out) == SPECTRUM_STDOUT_SHA256[command, fmt]


def seeded_sweep_log(seed, sensors=6, ticks=12):
    """A multi-sensor sweep log, one tick per second, with some sweeps lost."""
    rng = random.Random(seed)
    records = []
    for tick in range(ticks):
        for sensor_id in rng.sample(range(sensors), sensors):
            if tick and rng.random() < 0.2:
                continue
            bins = [rng.randint(-110, -15) for _ in range(100)]
            records.append(
                {"sensor_id": sensor_id, "timestamp_ms": 1000 * tick,
                 "start_khz": 2_400_000, "bin_khz": 1_000, "bins": bins}
            )
    return "".join(json.dumps(r) + "\n" for r in records)


def seeded_survey_scenario(seed, n_clients=50, n_emitters=50):
    rng = random.Random(seed)

    def xy():
        return rng.uniform(-80.0, 80.0), rng.uniform(-80.0, 80.0)

    clients = tuple(Client(f"c{i}", *xy()) for i in range(n_clients))
    emitters = tuple(
        Emitter(rng.randint(1, 14), rng.uniform(-10.0, 23.0), *xy()) for _ in range(n_emitters)
    )
    return Scenario(ap_position=(0.0, 0.0), clients=clients, emitters=emitters, seed=seed)


# sha256 of stdout of EWMA aggregation over a seeded log and of the
# weighted-sum plan of a seeded 51-position survey, recorded before EWMA ran
# rank by rank and channel scores became one gather; the sum over 51
# positions would change in the last bits if it were not taken left to right
CONSUMER_STDOUT_SHA256 = {
    ("aggregate", "table"): "39748f1f5964b3d6f569cc5d40861f688a8b7f542f904141d9243ec1a790bdea",
    ("aggregate", "json"): "fa6a09b928015ce6406b5da0c8f541825e3bf2beae11dee2097929ff9439a06a",
    ("aggregate", "csv"): "3f236290ca14c41947e2b46b713a6ceba4e4eb3c5b4ec8ff664de3c702dc902a",
    ("weighted-sum", "table"): "1efa44b9429fb824a263a89a75fb8ff39a9dc95c8905b8788b1df7e902a9de1d",
    ("weighted-sum", "json"): "62584d5461af38efff91b27fd16336b673a0dcc217732bce4f1b377234baf606",
    ("weighted-sum", "csv"): "926ca679a8af7f5307d1b87c8f4abcd87c0b0898e0a618315b3e56e5823b699f",
}


@pytest.mark.parametrize(("command", "fmt"), sorted(CONSUMER_STDOUT_SHA256))
def test_consumer_stdout_matches_pinned_bytes(capsys, tmp_path, command, fmt):
    if command == "aggregate":
        log = tmp_path / "sweeps.jsonl"
        log.write_text(seeded_sweep_log(7))
        argv = ["spectrum", "aggregate", "--sweeps", str(log), "--mode", "ewma"]
    else:
        path = tmp_path / "survey.json"
        path.write_text(scenario_to_json(seeded_survey_scenario(1)))
        argv = ["spectrum", "plan", "--scenario", str(path), "--objective", command]
    code, out, _ = invoke(capsys, *argv, "--format", fmt)
    assert code == 0
    assert sha256(out) == CONSUMER_STDOUT_SHA256[command, fmt]


def test_growth_fit_bundled_series(capsys):
    code, out, _ = invoke(
        capsys, "growth", "fit", "--input", str(fixtures.ap_counts_path()),
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["doubling_days"] == pytest.approx(700.0, rel=1e-6)
    assert doc["r_squared"] == pytest.approx(1.0, abs=1e-9)
    assert doc["next_doubling_t_days"] == pytest.approx(5600.0, rel=1e-6)


def test_usage_errors_exit_one(capsys):
    code, _, err = invoke(capsys, "no-such-command")
    assert code == 1
    assert "usage" in err.lower()

    code, _, err = invoke(capsys, "linkbudget", "--pt", "20")  # missing flags
    assert code == 1

    code, _, err = invoke(capsys, "lens", "design", "--step", "fast")
    assert code == 1


# sha256 of `--help` stdout for every parser and of the stderr of one usage
# error per command. The group pins were recorded before the parser was
# declared command by command, the leaf pins when --seed moved to the three
# commands that draw from it. argparse lays help out differently from one
# Python minor version to the next, so the pins hold for the version they
# were recorded on.
HELP_PYTHON = (3, 11)
HELP_SHA256 = {
    (): "a4c7879de5d98208d239170de18723f033f7dde15aaaeed2b2b3c914ca762216",
    ("lens",): "4dafaa2097f69299cbc8f0860e11029370ab80d6b466b0542bacbb9a6db4b63f",
    ("fresnel",): "9f02d0c81415d91d855458f4cb6d8b191e1a765eb4f0d98236f99b7f6e876dda",
    ("polar",): "c707f234ede57510fe3855cb4eb435a7953aaef8b1356e560af91090507491be",
    ("spectrum",): "16039ff79ada851d6b0d81fe8187ab2cd485ea247ceb9eff3578132f8e60d89f",
    ("growth",): "8f4b982e1e3a801fcb4db986ef7a043ba77518ebcf6f6fbb70ce7c766970409f",
    ("linkbudget",): "ef7fa58514143740765e3d0bf1094549276edc4c1b98495c96a4ce9539fa5d67",
    ("lens", "design"): "391dd59fb3a41661f884185ab80724cbc9ab54281835daa1a77393af825f021d",
    ("lens", "apply"): "700268e8d3077dc8bd463055ad44d67947005d22ef9a8c9a737adaa6cbac457e",
    ("fresnel", "zones"): "4942c0ef3f56027c787e10a517ed50866724686e1c0fe74a968a4d664c95fad8",
    ("fresnel", "screen"): "e90add2be53e30a1ab2aa369d53a7105a51d6e3ff4294759d18378f0f1d7e041",
    ("fresnel", "field"): "3e35c8971e8fa03b285cd032de5b1894a900f43d1575d790adc0c11f21d023c0",
    ("polar", "loss"): "7dae7716fc149322a2fcee56989ec8edb7bf074f6fe11de159465d4f8ad039af",
    ("polar", "capacity"): "33f7d57bb6998e165115e9f8e6d888dacdbdcedae536dfddc9aee333bd2bf5e0",
    ("spectrum", "simulate"): "baeb2e877cbadbe1e9b2cdeb77b9b9db29c2100b7a15710e86a89777dc704bba",
    ("spectrum", "aggregate"): "541682f7256710fe274b3282da95c0639e108acaed601cedc2370485572bd6db",
    ("spectrum", "plan"): "63f00f9deb99497ab958ba0d8e8a682fcad892c4c6d143759ef363e82dedf0b0",
    ("growth", "fit"): "c0f8e3ea90cfe320916d7173ca42f16d2bfc0e7c3acb6d5db8b74fcb5bda5abd",
}
# stderr of `<command> --format xml`, which prints the command's full usage
USAGE_ERROR_SHA256 = {
    ("linkbudget",): "0c76459a80e3e8577136793da2270ae1e5f2b6c9be33452dfb328b848d122701",
    ("lens", "design"): "9ced0c6b4a07b05b0411d356d43789c7188add1255a27bf5592218ff18982dba",
    ("lens", "apply"): "051cdb66bebbad8b5eef1afad8ea31f04db74686ec7c1567ecadf764164cb01d",
    ("fresnel", "zones"): "7a8bbcc26c03da9875963376a920e82053d2f48988528c58d42435b1933bf9bf",
    ("fresnel", "screen"): "96515a02f1993c1f476a48b31bdb29e16f9160a4b8a8c0524552f58e1ccfba87",
    ("fresnel", "field"): "796dbe94bf174d41d3f1d9905461bd8bb147d3cb408cf808f4e80b42f01693e1",
    ("polar", "loss"): "b35afc2012ff6bce9b03157e63c0822f3dd058fdb0d4b6947dd2efcda61cb511",
    ("polar", "capacity"): "b60c0b7e3af11ae87159ade2ef546adb050ac370eb21bd891cdb5cbbddcf7228",
    ("spectrum", "simulate"): "cdf9d5ab36458f4a2e175acb0f3d428fbdcfe3bc4a72ca8f9e4f7c0dd5530f27",
    ("spectrum", "aggregate"): "fd9b3f49d8db8f37394abbf6f4931b3a985fb57338686c37e2de01dc4369f467",
    ("spectrum", "plan"): "c7baa67443bea896594a1d278e9598bfc4d4eadb97723415fdcc4a7e628e188e",
    ("growth", "fit"): "602c25d91fb80b62cc228c0659f0b66fb26587bf10ea19c69cf47c00eb4a0f27",
}
pinned_argparse = pytest.mark.skipif(
    sys.version_info[:2] != HELP_PYTHON, reason="help layout pinned for another Python"
)


@pinned_argparse
@pytest.mark.parametrize("command", sorted(HELP_SHA256), ids=lambda c: "-".join(c) or "rfplan")
def test_help_matches_pinned_bytes(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run([*command, "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert sha256(captured.out) == HELP_SHA256[command]


@pinned_argparse
@pytest.mark.parametrize("command", sorted(USAGE_ERROR_SHA256), ids="-".join)
def test_usage_error_matches_pinned_bytes(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = invoke(capsys, *command, "--format", "xml")
    assert code == 1
    assert out == ""
    assert sha256(err) == USAGE_ERROR_SHA256[command]


def test_domain_errors_exit_two(capsys):
    code, _, err = invoke(
        capsys, "fresnel", "screen", "--zone", "0", "--lambda", "0.125",
        "--d1", "25", "--d2", "25",
    )
    assert code == 2
    assert "error:" in err

    code, _, err = invoke(
        capsys, "linkbudget", "--pt", "20", "--gt", "0", "--gr", "0",
        "--freq", "2.4e9", "--dist", "0.01",
    )
    assert code == 2

    code, _, err = invoke(capsys, "spectrum", "plan", "--scenario", "missing.json")
    assert code == 2


def assert_file_error(capsys, path, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err


def assert_domain_error(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
    return err


EMITTER = {"channel": 6, "tx_power_dbm": 10.0, "x": 1.0, "y": 0.0}


def scenario_document(**change):
    return json.dumps({"ap_position": [0, 0], "emitters": [EMITTER], **change})


TX_BOUND = "emitter tx_power_dbm must lie in [-1000.0, 1000.0]"


def test_spectrum_plan_emitter_power_beyond_float_range_exits_two(capsys, tmp_path):
    # 4000 dBm is 1e400 mW: the scenario is refused at the tx bound
    path = tmp_path / "scenario.json"
    path.write_text(scenario_document(emitters=[EMITTER, {**EMITTER, "tx_power_dbm": 4000.0}]))
    err = assert_domain_error(capsys, "spectrum", "plan", "--scenario", str(path))
    assert err == f"error: bad scenario document: emitters[1]: {TX_BOUND}, got 4000.0\n"


@pytest.mark.parametrize("command", ["simulate", "plan"])
def test_spectrum_bin_sum_beyond_float_range_exits_two(capsys, tmp_path, command):
    # each link's mW would be finite and the sum of the two co-channel links
    # not: the tx bound refuses both emitters before any sum
    stacked = {"channel": 6, "tx_power_dbm": 3155.0, "x": 10.0, "y": 0.0}
    path = tmp_path / "scenario.json"
    path.write_text(scenario_document(emitters=[stacked, stacked], shadowing_sigma_db=0))
    err = assert_domain_error(capsys, "spectrum", command, "--scenario", str(path))
    assert err == f"error: bad scenario document: emitters[0]: {TX_BOUND}, got 3155.0\n"


# a client at (30, 0) hears channel 6, one at (-30, 0) channel 1 and, far
# weaker, channel 11: client-aware minimax picks 11 only if it keeps both
COLLIDING_EMITTERS = [
    {"channel": 6, "tx_power_dbm": 10.0, "x": 31.0, "y": 0.0},
    {"channel": 1, "tx_power_dbm": 10.0, "x": -31.0, "y": 0.0},
    {"channel": 11, "tx_power_dbm": 0.0, "x": -30.0, "y": 5.0},
]


def colliding_document(*ids):
    clients = [{"id": id_, "x": 30.0 - 60.0 * k, "y": 0.0} for k, id_ in enumerate(ids)]
    return scenario_document(clients=clients, emitters=COLLIDING_EMITTERS, shadowing_sigma_db=0)


def test_spectrum_plan_keeps_every_client_when_ids_differ(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(colliding_document("c", "c2"))
    code, out, err = invoke(
        capsys, "spectrum", "plan", "--scenario", str(path), "--candidates", "1,6,11"
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["ap_only_channel       11", "client_aware_channel  11"]


@pytest.mark.parametrize("command", ["simulate", "plan"])
@pytest.mark.parametrize(
    ("ids", "owner"), [(("c", "c"), "another client"), (("ap",), "the access point")]
)
def test_spectrum_colliding_client_id_exits_two(capsys, tmp_path, command, ids, owner):
    # a spectrum per position id: a second "c" or a client "ap" would replace one
    path = tmp_path / "scenario.json"
    path.write_text(colliding_document(*ids))
    err = assert_domain_error(capsys, "spectrum", command, "--scenario", str(path))
    assert err == (
        f"error: bad scenario document: client id {ids[-1]!r} is already "
        f"{owner}'s position id\n"
    )


@pytest.mark.parametrize(
    ("document", "named"),
    [
        ('{"ap_position": [0, 0], "noise_floor_dbn": -60}', "noise_floor_dbn"),
        # it named the Python class, list
        pytest.param("[1, 2]", "expected a JSON object, got an array", id="[1, 2]-list"),
        # each printed a TypeError from a constructor or from ** and iteration
        ('{"ap_position": [0, 0], "bogus": 1}', "unknown field 'bogus'"),
        ('{"ap_position": [0, 0], "clients": [{"id": "c", "x": 1}]}', "missing field 'y'"),
        ('{"ap_position": [0, 0], "clients": "ab"}', "clients must be an array, got a string"),
        ('{"ap_position": [0, 0], "emitters": 5}', "emitters must be an array, got a number"),
        ('{"ap_position": [0, 0], "clients": [[1, 2]]}', "expected a JSON object, got an array"),
        (scenario_document(seed=1.5), "seed must be an integer, got 1.5"),
        (scenario_document(seed=True), "seed must be an integer, got True"),
        (
            scenario_document(emitters=[{**EMITTER, "channel": 1.0}]),
            "emitter channel must be an integer, got 1.0",
        ),
        (
            scenario_document(emitters=[{**EMITTER, "channel": True}]),
            "emitter channel must be an integer, got True",
        ),
        (
            scenario_document(emitters=[{**EMITTER, "tx_power_dbm": "10"}]),
            "emitter tx_power_dbm must be a finite number, got '10'",
        ),
        (
            scenario_document(ap_position=[0, 0, 0]),
            "ap_position must be an (x, y) pair, got [0, 0, 0]",
        ),
        (scenario_document(ap_position=5), "ap_position must be an (x, y) pair, got 5"),
        (scenario_document(noise_floor_dbm="x"), "noise_floor_dbm must be a finite number, got 'x'"),
        # json.loads raises RecursionError, which the CLI used to print as a traceback
        pytest.param("[" * 100_000, "recursion", id="nested-too-deep"),
    ],
)
def test_spectrum_plan_bad_scenario_document_exits_two(capsys, tmp_path, document, named):
    path = tmp_path / "scenario.json"
    path.write_text(document)
    err = assert_domain_error(capsys, "spectrum", "plan", "--scenario", str(path))
    assert err.startswith("error: bad scenario document: ") and named in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    ("document", "message"),
    [
        # it printed "missing field 'y'", naming no client
        ('{"ap_position": [0, 0], "clients": [{"id": "a", "x": 1, "y": 2}, {"id": "b", "x": 1}]}',
         "clients[1]: missing field 'y'"),
        # it printed "channel must lie in 1..14, got 15", naming no emitter
        (scenario_document(emitters=[EMITTER, {**EMITTER, "channel": 15}]),
         "emitters[1]: emitter channel must lie in 1..14, got 15"),
        (scenario_document(emitters=[{**EMITTER, "tx_power_dbm": 1e4}]),
         f"emitters[0]: {TX_BOUND}, got 10000.0"),
    ],
    ids=["client-field", "emitter-channel", "emitter-power"],
)
def test_spectrum_plan_names_the_scenario_record_at_fault(capsys, tmp_path, document, message):
    path = tmp_path / "scenario.json"
    path.write_text(document)
    err = assert_domain_error(capsys, "spectrum", "plan", "--scenario", str(path))
    assert err == f"error: bad scenario document: {message}\n"


PAST_FLOAT_RANGE = 10**400 - 1  # 400 nines: a JSON int no float can hold


@pytest.mark.parametrize(
    ("change", "field"),
    [
        ({"ap_position": [PAST_FLOAT_RANGE, 0]}, "ap_position"),
        ({"clients": [{"id": "c", "x": PAST_FLOAT_RANGE, "y": 0}]}, "client x"),
        ({"clients": [{"id": "c", "x": 0, "y": PAST_FLOAT_RANGE}]}, "client y"),
        ({"emitters": [{**EMITTER, "tx_power_dbm": PAST_FLOAT_RANGE}]}, "emitter tx_power_dbm"),
        ({"emitters": [{**EMITTER, "x": PAST_FLOAT_RANGE}]}, "emitter x"),
        ({"emitters": [{**EMITTER, "y": PAST_FLOAT_RANGE}]}, "emitter y"),
        ({"noise_floor_dbm": PAST_FLOAT_RANGE}, "noise_floor_dbm"),
        ({"shadowing_sigma_db": PAST_FLOAT_RANGE}, "shadowing_sigma_db"),
    ],
)
def test_spectrum_plan_int_past_the_float_range_exits_two(capsys, tmp_path, change, field):
    path = tmp_path / "scenario.json"
    path.write_text(scenario_document(**change))
    err = assert_domain_error(capsys, "spectrum", "plan", "--scenario", str(path))
    item = next((f"{key}[0]: " for key in ("clients", "emitters") if key in change), "")
    assert err == (
        f"error: bad scenario document: {item}{field} must be a finite number, "
        f"got {PAST_FLOAT_RANGE}\n"
    )


SWEEP_RECORD = (
    '{{"sensor_id": {sensor_id}, "timestamp_ms": 0, "start_khz": 2400000, '
    '"bin_khz": 1000, "bins": {bins}}}\n'
)


@pytest.mark.parametrize(
    ("sensor_id", "bins", "message"),
    [
        ("1", '"ab"', "bin value must be an integer, got 'a'"),
        ("1", "[1.5e400]", "bin value must be an integer, got inf"),
        ("1", "[-60.7, -50]", "bin value must be an integer, got -60.7"),
        ("1.5", "[-60, -50]", "sensor_id must be an integer, got 1.5"),
        ("1", "[true, -50]", "bin value must be an integer, got True"),
        ("true", "[-60, -50]", "sensor_id must be an integer, got True"),
    ],
)
def test_spectrum_aggregate_non_integer_sweep_field_exits_two(
    capsys, tmp_path, sensor_id, bins, message
):
    log = tmp_path / "sweeps.jsonl"
    log.write_text(
        SWEEP_RECORD.format(sensor_id=0, bins="[-60, -50]")
        + SWEEP_RECORD.format(sensor_id=sensor_id, bins=bins)
    )
    err = assert_domain_error(capsys, "spectrum", "aggregate", "--sweeps", str(log))
    assert err == f"error: bad sweep record on line 2: {message}\n"


@pytest.mark.parametrize("mode", ["max-hold", "ewma"])
def test_spectrum_aggregate_bad_alpha_exits_two_in_either_mode(capsys, tmp_path, mode):
    log = tmp_path / "sweeps.jsonl"
    # an empty log was refused as "nothing to aggregate", before alpha was read
    for text in (SWEEP_RECORD.format(sensor_id=0, bins="[-60, -50]"), ""):
        log.write_text(text)
        err = assert_domain_error(
            capsys, "spectrum", "aggregate", "--sweeps", str(log), "--mode", mode, "--alpha", "2"
        )
        assert err == "error: --alpha must be a real number in (0, 1], got 2.0\n"


def test_growth_fit_missing_input_exits_two(capsys, tmp_path):
    missing = tmp_path / "missing.txt"
    assert_file_error(capsys, missing, "growth", "fit", "--input", str(missing))


@pytest.mark.parametrize(
    ("text", "span"),
    [
        ("0 1\n1e300 2\n", "times 0.0 to 1e+300"),
        ("0 1\n1e-300 2\n", "times 0.0 to 1e-300"),
        ("1e308 1\n1.5e308 2\n", "times 1e+308 to 1.5e+308"),
    ],
)
def test_growth_fit_outside_the_float_range_exits_two(capsys, tmp_path, text, span):
    path = tmp_path / "counts.txt"
    path.write_text(text)
    err = assert_domain_error(capsys, "growth", "fit", "--input", str(path))
    assert err == f"error: {span}: the least-squares fit leaves the float range\n"


def test_spectrum_aggregate_missing_sweeps_exits_two(capsys, tmp_path):
    missing = tmp_path / "missing.jsonl"
    assert_file_error(capsys, missing, "spectrum", "aggregate", "--sweeps", str(missing))


def test_spectrum_plan_directory_scenario_exits_two(capsys, tmp_path):
    assert_file_error(capsys, tmp_path, "spectrum", "plan", "--scenario", str(tmp_path))


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "aggregate", "--sweeps"], ["spectrum", "simulate", "--scenario"],
     ["spectrum", "plan", "--scenario"], ["growth", "fit", "--input"]],
    ids=" ".join,
)
def test_an_input_file_that_is_not_utf8_exits_two(capsys, tmp_path, argv):
    # a UnicodeDecodeError printed a traceback and exited 1, the usage-error code
    path = tmp_path / "input"
    path.write_bytes(b"\xff" + json.dumps({"ap_position": [0, 0]}).encode())
    err = assert_domain_error(capsys, *argv, str(path))
    assert err == f"error: {path} is not UTF-8 text: invalid start byte at byte 0\n"


def test_out_to_missing_directory_exits_two(capsys, tmp_path):
    target = tmp_path / "missing" / "x.txt"
    assert_file_error(
        capsys, target, "lens", "apply", "--rx-dbm", "-60", "--out", str(target),
    )


# Each id says the flag must be finite and what it was given; the message is
# the refusal of the flag's domain (cli._DOMAINS)
@pytest.mark.parametrize(
    ("argv", "message"),
    [
        pytest.param(["linkbudget", "--pt", "nan", "--gt", "0", "--gr", "0", "--freq", "2.4e9",
                      "--dist", "10"], "--pt must be a finite number, got nan",
                     id="argv0---pt must be finite, got nan"),
        pytest.param(["lens", "apply", "--rx-dbm", "nan"],
                     "--rx-dbm must be a finite number, got nan",
                     id="argv1---rx-dbm must be finite, got nan"),
        pytest.param(["polar", "loss", "--delta-psi", "nan"],
                     "--delta-psi must be a finite number, got nan",
                     id="argv2---delta-psi must be finite, got nan"),
        pytest.param(["polar", "loss", "--delta-psi", "3", "--tilt-deg", "inf"],
                     "--tilt-deg must be a finite number, got inf",
                     id="argv3---tilt-deg must be finite, got inf"),
        pytest.param(["lens", "design", "--focal=-inf"],
                     "--focal must be a finite number, got -inf",
                     id="argv4---focal must be finite, got -inf"),
        pytest.param(["fresnel", "field", "--block", "0:1", "--block", "nan:2"],
                     "--block bound must be a finite number, got nan",
                     id="argv5---block must be finite, got nan:2.0"),
    ],
)
def test_non_finite_float_flags_exit_two(capsys, argv, message):
    err = assert_domain_error(capsys, *argv, "--format", "json")
    assert err == f"error: {message}\n"


def strict_json(text):
    def refuse(token):
        raise ValueError(f"{token} is not a JSON number")

    return json.loads(text, parse_constant=refuse)


# each command printed bare NaN for a nan in its flag
JSON_FLAG_COMMANDS = {
    "--pt": ["linkbudget", "--gt", "0", "--gr", "0", "--freq", "2.4e9", "--dist", "10"],
    "--rx-dbm": ["lens", "apply"],
    "--delta-psi": ["polar", "loss"],
}


@given(flag=st.sampled_from(sorted(JSON_FLAG_COMMANDS)), value=st.floats())
def test_json_documents_parse_strictly(flag, value):
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = [*JSON_FLAG_COMMANDS[flag], f"{flag}={value!r}", "--format", "json"]
    code = run(argv, stdout, stderr)
    if math.isfinite(value):
        assert code == 0
        strict_json(stdout.getvalue())
    else:
        assert (code, stdout.getvalue()) == (2, "")
        assert stderr.getvalue() == f"error: {flag} must be a finite number, got {value!r}\n"


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", ["scalar", "row"])
def test_a_non_finite_result_exits_two_naming_the_field(capsys, monkeypatch, fmt, value, where):
    # no handler returns one today; the guard is the net for one that would
    def handler(args):
        if where == "scalar":
            return cli.Result({"label": "x", "count": 3, "gain_db": value})
        return cli.Result({}, cli.Rows("rows", ["id", "gain_db"], [("a", 1.0), ("b", value)]))

    monkeypatch.setattr(cli, "_cmd_linkbudget", handler)
    err = assert_domain_error(
        capsys, "linkbudget", "--pt", "1", "--gt", "0", "--gr", "0", "--freq", "2.4e9",
        "--dist", "10", "--format", fmt,
    )
    assert err == f"error: result gain_db is {value!r}, not a finite number\n"


LINKBUDGET_GEOMETRY = ["linkbudget", "--pt", "1", "--freq", "2.4e9", "--dist", "10"]


@pytest.mark.parametrize(
    ("gains", "message"),
    [
        (["--gt", "1e308", "--gr", "0"], "--gt must lie in [-1000.0, 1000.0] dB, got 1e+308 dB"),
        (["--gt", "0", "--gr=-1e308"], "--gr must lie in [-1000.0, 1000.0] dB, got -1e+308 dB"),
        # each linear gain was finite, and their product in power_utilization overflowed
        (["--gt", "3000", "--gr", "3000"], "--gt must lie in [-1000.0, 1000.0] dB, got 3000.0 dB"),
    ],
    ids=["gt-1e308", "gr--1e308", "both-3000"],
)
def test_overflowing_gains_name_the_flag(capsys, gains, message):
    err = assert_domain_error(capsys, *LINKBUDGET_GEOMETRY, *gains, "--format", "json")
    assert err == f"error: {message}\n"


finite_gains = st.one_of(
    st.sampled_from([-MAX_DB, MAX_DB]),
    st.floats(-4000.0, 4000.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(gt=finite_gains, gr=finite_gains)
def test_finite_gains_exit_two_or_print_strict_json(gt, gr):
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = [*LINKBUDGET_GEOMETRY, f"--gt={gt!r}", f"--gr={gr!r}", "--format", "json"]
    code = run(argv, stdout, stderr)
    # the dB bound alone decides: any pair of gains within it prints
    assert (code == 0) == (abs(gt) <= MAX_DB and abs(gr) <= MAX_DB)
    if code == 0:
        strict_json(stdout.getvalue())
    else:
        assert (code, stdout.getvalue()) == (2, "")
        assert re.match(r"error: --g[tr] must lie in \[-1000\.0, 1000\.0\] dB, got ",
                        stderr.getvalue())


LENGTH_BOUNDS = "must lie in [1e-12, 1000000000000.0], got"
FREQ_BOUNDS = "must lie in [0.000299792458, 2.99792458e+20], got"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        # each named the library's field: distance, frequency, d1_m, lambda_m, d2_m
        (["linkbudget", "--pt", "1", "--gt", "0", "--gr", "0", "--freq", "2.4e9",
          "--dist", "1e308"], f"--dist {LENGTH_BOUNDS} 1e+308"),
        (["linkbudget", "--pt", "1", "--gt", "0", "--gr", "0", "--freq", "1e-300",
          "--dist", "10"], f"--freq {FREQ_BOUNDS} 1e-300"),
        (["fresnel", "zones", "--lambda", "0.125", "--d1", "1e308", "--d2", "1e308"],
         f"--d1 {LENGTH_BOUNDS} 1e+308"),
        (["fresnel", "zones", "--lambda", "1e300", "--d1", "25", "--d2", "25"],
         f"--lambda {LENGTH_BOUNDS} 1e+300"),
        (["fresnel", "field", "--block", "1:2", "--obliquity", "--lambda", "0.125",
          "--d1", "25", "--d2", "1e-300"], f"--d2 {LENGTH_BOUNDS} 1e-300"),
        # a zone radius past the domain, from lengths inside it; it named
        # r_inner_m, and the sum d1 + d2 named the distance, but neither a flag
        (["fresnel", "screen", "--zone", "200", "--lambda", "1e12", "--d1", "1e12",
          "--d2", "1e12"], "--zone 200 with --lambda 1000000000000.0, --d1 1000000000000.0 "
         "and --d2 1000000000000.0 gives a screen radius of 10000000000000.0 m, past "
         "1000000000000.0 m"),
        (["fresnel", "screen", "--zone", "2", "--lambda", "0.125", "--d1", "6e11",
          "--d2", "6e11"], "--d1 600000000000.0 and --d2 600000000000.0 add up to "
         "1200000000000.0 m, past 1000000000000.0 m"),
        # they named focal length and plate spacing
        (["lens", "design", "--focal", "1e160"], f"--focal {LENGTH_BOUNDS} 1e+160"),
        (["lens", "design", "--spacing", "1e16"], f"--spacing {LENGTH_BOUNDS} 1e+16"),
    ],
    ids=["distance", "frequency", "d1", "lambda", "d2", "zone-radius", "screen-distance",
         "focal", "spacing"],
)
def test_lengths_outside_the_domain_exit_two_naming_the_field(capsys, argv, message):
    err = assert_domain_error(capsys, *argv, "--format", "json")
    assert err == f"error: {message}\n"


# each flag is refused as when the flags after it make the command read it,
# and of two bad flags the one declared first is named, wherever it stands in
# argv. They named the library's fields d1_m, step and frequency, and the
# geometry's d1_m before --lambda; --curve-step came before --curve-max
@pytest.mark.parametrize(
    ("flags", "readers", "messages"),
    [
        (["--lambda", "-5", "--d1", "0"], ["--obliquity", "--d2", "25"],
         [f"--lambda {LENGTH_BOUNDS} -5.0"] * 2),
        (["--curve-step", "0"], ["--curve-max", "3"],
         ["--curve-step must be positive and finite, got 0.0"] * 2),
        (["--curve-step", "0"], ["--curve-max", "0"],
         ["--curve-step must be positive and finite, got 0.0",
          "--curve-max must be positive and finite, got 0.0"]),
        (["--freq", "-3"], ["--obliquity", "--d1", "25", "--d2", "25"],
         [f"--freq {FREQ_BOUNDS} -3.0"] * 2),
    ],
    ids=["lambda-d1", "curve-step", "curve-step-before-u-max", "freq"],
)
def test_fresnel_field_checks_every_given_flag(capsys, flags, readers, messages):
    for argv, message in zip((flags, [*flags, *readers]), messages):
        err = assert_domain_error(capsys, "fresnel", "field", "--block", "1:2", *argv)
        assert err == f"error: {message}\n"


# a --freq given beside --lambda is checked, in declaration order: after
# --lambda and before --d1 and --d2. It was checked after all three, as the
# geometry's d1_m, lambda_m and d2_m, and named frequency
@pytest.mark.parametrize(
    "command",
    [["fresnel", "zones"], ["fresnel", "screen", "--zone", "2"],
     ["fresnel", "field", "--block", "1:2", "--obliquity"]],
    ids=["zones", "screen", "field"],
)
def test_a_freq_beside_lambda_is_checked_after_the_geometry(capsys, command):
    for lam, d1, message in (
        ("0.125", "25", f"--freq {FREQ_BOUNDS} -3.0"),
        ("0.125", "-1", f"--freq {FREQ_BOUNDS} -3.0"),
        ("-1", "25", f"--lambda {LENGTH_BOUNDS} -1.0"),
    ):
        argv = [*command, "--lambda", lam, "--freq", "-3", "--d1", d1, "--d2", "25"]
        assert assert_domain_error(capsys, *argv) == f"error: {message}\n"


positive_finite = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(dist=positive_finite, freq=positive_finite)
def test_any_positive_link_exits_two_or_prints_strict_json(dist, freq):
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = ["linkbudget", "--pt", "1", "--gt", "0", "--gr", "0",
            f"--freq={freq!r}", f"--dist={dist!r}", "--format", "json"]
    code = run(argv, stdout, stderr)
    if code == 0:
        strict_json(stdout.getvalue())
    else:
        assert (code, stdout.getvalue()) == (2, "")
        d, f = re.escape(repr(dist)), re.escape(repr(freq))
        named = (f"distance {d} m is inside one wavelength [^\n]*|--dist must lie in [^\n]*, "
                 f"got {d}|--freq must lie in [^\n]*, got {f}")
        assert re.fullmatch(f"error: ({named})\n", stderr.getvalue())


FRESNEL_GEOMETRY_COMMANDS = [
    ["fresnel", "zones"],
    ["fresnel", "screen", "--zone", "2"],
    ["fresnel", "field", "--block", "1:2", "--obliquity", "--curve-max", "3"],
]


@settings(deadline=None)
@given(
    command=st.sampled_from(FRESNEL_GEOMETRY_COMMANDS),
    lam=positive_finite,
    d1=positive_finite,
    d2=positive_finite,
)
def test_any_positive_fresnel_geometry_exits_two_or_prints_strict_json(command, lam, d1, d2):
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = [*command, f"--lambda={lam!r}", f"--d1={d1!r}", f"--d2={d2!r}", "--format", "json"]
    code = run(argv, stdout, stderr)
    if code == 0:
        strict_json(stdout.getvalue())
    else:
        assert (code, stdout.getvalue()) == (2, "")
        named = "|".join(f"{name} must lie in [^\n]*, got {re.escape(repr(value))}"
                         for name, value in (("--d1", d1), ("--d2", d2), ("--lambda", lam)))
        if command[1] == "screen":  # the zone radius and d1 + d2 it derives are lengths too
            flags, past = f"--d1 {d1!r} and --d2 {d2!r}", " m, past 1000000000000.0 m"
            named += (f"|{re.escape(f'--zone 2 with --lambda {lam!r}, {flags}')} gives a "
                      f"screen radius of [^\n]*{re.escape(past)}"
                      f"|{re.escape(flags)} add up to [^\n]*{re.escape(past)}")
        assert re.fullmatch(f"error: ({named})\n", stderr.getvalue())


finite = st.floats(allow_nan=False, allow_infinity=False)
# JSON ints that no float can hold, either sign
past_float_range = st.integers(min_value=2**1024) | st.integers(max_value=-(2**1024))


def document_fields(anywhere):
    """Numbers mostly on a floor plan's scale, sometimes drawn from anywhere."""
    coordinates = st.one_of(st.floats(-200.0, 200.0), anywhere)
    return {
        "ap_position": st.lists(coordinates, min_size=2, max_size=2),
        "clients": st.lists(st.tuples(coordinates, coordinates), max_size=3).map(
            lambda xys: [{"id": f"c{i}", "x": x, "y": y} for i, (x, y) in enumerate(xys)]
        ),
        "emitters": st.lists(
            st.fixed_dictionaries(
                {
                    "channel": st.integers(1, 14),
                    "tx_power_dbm": st.one_of(st.floats(-100.0, 5000.0), anywhere),
                    "x": coordinates,
                    "y": coordinates,
                }
            ),
            max_size=3,
        ),
        "noise_floor_dbm": st.one_of(st.floats(-200.0, 200.0), anywhere),
        "shadowing_sigma_db": st.one_of(st.floats(0.0, 50.0), anywhere),
        "seed": st.integers(0, 2**64 - 1),
    }


# two to four co-channel emitters at one spot on the plan, near the tx bound
emitter_stacks = st.tuples(
    st.fixed_dictionaries(
        {
            "channel": st.integers(1, 14),
            "tx_power_dbm": st.floats(900.0, MAX_DB),
            "x": st.floats(-200.0, 200.0),
            "y": st.floats(-200.0, 200.0),
        }
    ),
    st.integers(2, 4),
).map(lambda stack: [stack[0]] * stack[1])
# documents on a plan's scale whose stacked emitters put the loudest links the
# bounds allow in the same bins, shadowed up to the sigma bound: each prints,
# given a client for the client-aware plan to score
stacked_documents = st.fixed_dictionaries(
    {
        **document_fields(st.nothing()),
        "emitters": emitter_stacks,
        "shadowing_sigma_db": st.floats(0.0, MAX_SHADOWING_SIGMA_DB),
    }
).filter(lambda document: document["clients"])
# documents with an emitter's tx power, either sign, or the sigma past its
# bound: each exits 2. The loud emitter comes after a stack within the bound
past_tx = st.floats(MAX_DB, exclude_min=True, allow_infinity=False)
loud_emitters = st.tuples(emitter_stacks, past_tx | past_tx.map(lambda tx: -tx)).map(
    lambda drawn: [*drawn[0], {**drawn[0][0], "tx_power_dbm": drawn[1]}]
)
past_sigma = st.floats(MAX_SHADOWING_SIGMA_DB, exclude_min=True, allow_infinity=False)
past_bound_documents = st.one_of(
    st.fixed_dictionaries({**document_fields(finite), "emitters": loud_emitters}),
    st.fixed_dictionaries({**document_fields(finite), "shadowing_sigma_db": past_sigma}),
)
# documents whose every number a float holds, and documents that may also
# hold ints past the float range, which every scenario refuses
float_scenario_documents = st.fixed_dictionaries(document_fields(finite)) | stacked_documents
scenario_documents = st.one_of(
    float_scenario_documents,
    st.fixed_dictionaries(document_fields(finite | past_float_range)),
    past_bound_documents,
)

# The CLI properties run under the cli-fuzz profile (tests/conftest.py): 40
# examples of each of the 12 commands, and at least 100 scenario documents
CLI_FUZZ = settings.get_profile("cli-fuzz")


@pytest.mark.deep_fuzz
@settings(CLI_FUZZ, max_examples=max(CLI_FUZZ.max_examples, 100))
@given(
    case=st.one_of(
        scenario_documents.map(lambda document: (document, None)),
        stacked_documents.map(lambda document: (document, 0)),
        past_bound_documents.map(lambda document: (document, 2)),
    )
)
@example(({"ap_position": [PAST_FLOAT_RANGE, 0]}, 2))
def test_any_finite_scenario_exits_two_or_prints_strict_json(case):
    # the exit code is pinned where the document's kind fixes it
    document, expected = case
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(document))
        code = run(["spectrum", "plan", "--scenario", str(path), "--format", "json"], stdout, stderr)
    assert code == expected or expected is None
    if code == 0:
        strict_json(stdout.getvalue())
    else:
        assert (code, stdout.getvalue()) == (2, "")
        assert re.fullmatch("error: [^\n]+\n", stderr.getvalue())


@pytest.mark.parametrize("command", ["simulate", "plan"])
def test_negative_t_ms_names_the_flag(capsys, command):
    err = assert_domain_error(capsys, "spectrum", command, "--scenario", "divergence", "--t-ms=-5")
    assert err == "error: --t-ms must fit 64 bits, got -5\n"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["fresnel", "field", "--block", "x"], "argument --block: invalid interval value: 'x'"),
        (["spectrum", "plan", "--scenario", "divergence", "--candidates", "1,x"],
         "argument --candidates: invalid channel list value: '1,x'"),
    ],
)
def test_usage_errors_name_the_value_kind(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert f": {message}\n" in err
    assert "_parse" not in err


def test_identical_argv_is_byte_identical(capsys):
    argv = ["spectrum", "simulate", "--scenario", "divergence", "--seed", "7",
            "--format", "json"]
    code1, out1, _ = invoke(capsys, *argv)
    code2, out2, _ = invoke(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2

    for fmt in ("table", "csv", "json"):
        a = invoke(capsys, "lens", "apply", "--rx-dbm", "-61.5", "--format", fmt)
        b = invoke(capsys, "lens", "apply", "--rx-dbm", "-61.5", "--format", fmt)
        assert a == b


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "screen.json"
    code, out, _ = invoke(
        capsys, "fresnel", "screen", "--zone", "2", "--lambda", "0.125",
        "--d1", "25", "--d2", "25", "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""  # everything went to the file
    doc = json.loads(target.read_text())
    assert doc["blocked_zone"] == 2


def test_seed_flag_overrides_scenario_seed(capsys, tmp_path):
    # a shadowed survey, so that the seed moves the draws: the divergence
    # scenario draws nothing, and printed the same whatever the seed
    own, reseeded = tmp_path / "own.json", tmp_path / "reseeded.json"
    own.write_text(scenario_to_json(seeded_survey_scenario(1)))
    reseeded.write_text(scenario_to_json(replace(seeded_survey_scenario(1), seed=99)))
    for command in ("simulate", "plan"):
        overridden = invoke(capsys, "spectrum", command, "--scenario", str(own), "--seed", "99",
                            "--format", "json")
        assert overridden[0] == 0
        assert overridden == invoke(capsys, "spectrum", command, "--scenario", str(reseeded),
                                    "--format", "json")
        assert overridden != invoke(capsys, "spectrum", command, "--scenario", str(own),
                                    "--format", "json")


def test_table_format_is_default(capsys):
    code, out, _ = invoke(capsys, "lens", "apply", "--rx-dbm", "-60")
    assert code == 0
    assert "rx_after_dbm" in out
    assert "{" not in out


def readme_commands():
    """Every `rfplan ...` line of the README's CLI block, comments stripped."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    return [
        line.split("#")[0].strip() for line in block.splitlines() if line.startswith("rfplan ")
    ]


def test_readme_commands_run(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)  # the README's paths are relative to the repo root
    commands = readme_commands()
    assert len(commands) >= 12
    for line in commands:
        argv = shlex.split(line.replace("/tmp/", f"{tmp_path}/"))[1:]
        target = None
        if ">" in argv:
            argv, target = argv[: argv.index(">")], argv[-1]
        code, out, err = invoke(capsys, *argv)
        assert code == 0, (line, err)
        if target is not None:
            Path(target).write_text(out)


# README lines that touch an array: the obliquity field, capacity and spectrum
NUMPY_README_COMMANDS = ("--obliquity", "rfplan polar capacity", "rfplan spectrum ")

RUN_EACH_ARGV = (
    "import io, json, sys\n"
    "from rfplan.cli import run\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    out, err = io.StringIO(), io.StringIO()\n"
    "    code = run(argv, out, err)\n"
    "    print(json.dumps([code, out.getvalue(), err.getvalue(), 'numpy' in sys.modules]))\n"
)


def run_each_in_fresh_interpreter(argvs, prelude=""):
    """[code, stdout, stderr, numpy loaded] after each argv, in one new process."""
    proc = subprocess.run(
        [sys.executable, "-c", prelude + RUN_EACH_ARGV, json.dumps(argvs)],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True,
    )
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_numpy_free_readme_commands_run_without_numpy(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    lines = [line for line in readme_commands()
             if not any(word in line for word in NUMPY_README_COMMANDS)]
    assert len(lines) == 8
    argvs = [shlex.split(line)[1:] for line in lines]
    # a None entry makes every `import numpy` raise ImportError
    results = run_each_in_fresh_interpreter(argvs, "import sys; sys.modules['numpy'] = None\n")
    assert len(results) == len(argvs)
    for argv, (code, out, err, _) in zip(argvs, results):
        assert (code, out, err) == invoke(capsys, *argv), argv


def test_numpy_commands_run_after_a_numpy_free_one(capsys):
    argvs = [
        ["linkbudget", "--pt", "20", "--gt", "3", "--gr", "3", "--freq", "2.437e9",
         "--dist", "10"],
        ["fresnel", "field", "--block", "1:2", "--obliquity", "--lambda", "0.125",
         "--d1", "25", "--d2", "25", "--curve-max", "3"],
        ["polar", "capacity", "--xpd", "0.25", "--seed", "3"],
        ["spectrum", "plan", "--scenario", "divergence", "--format", "json"],
    ]
    results = run_each_in_fresh_interpreter(argvs)
    assert [loaded for *_, loaded in results] == [False, True, True, True]
    for argv, (code, out, err, _) in zip(argvs, results):
        assert (code, out, err) == invoke(capsys, *argv), argv


# every command loads rfplan.cli's own modules and then only the library
# module it runs: a fresh process compiles each module it imports
CLI_MODULES = {"rfplan", "rfplan.cli", "rfplan.errors", "rfplan.modes"}
SPECTRUM_MODULES = {
    "rfplan.linkbudget", "rfplan.spectrum", "rfplan.spectrum.aggregate",
    "rfplan.spectrum.frames", "rfplan.spectrum.plan", "rfplan.spectrum.simulate",
}
FIELD_GEOMETRY = ["--obliquity", "--lambda", "0.125", "--d1", "25", "--d2", "25"]
MODULES_PER_COMMAND = {
    "linkbudget": (["linkbudget", "--pt", "20", "--gt", "3", "--gr", "3", "--freq", "2.437e9",
                    "--dist", "10"], {"rfplan.linkbudget"}),
    "lens-design": (["lens", "design", "--format", "csv"], {"rfplan.lens", "rfplan.linkbudget"}),
    "lens-apply": (["lens", "apply", "--rx-dbm", "-60"], {"rfplan.lens", "rfplan.linkbudget"}),
    "fresnel-zones": (["fresnel", "zones", "--lambda", "0.125", "--d1", "25", "--d2", "25"],
                      {"rfplan.fresnel"}),
    "fresnel-zones-freq": (["fresnel", "zones", "--freq", "2.4e9", "--d1", "25", "--d2", "25"],
                           {"rfplan.fresnel", "rfplan.linkbudget"}),
    "fresnel-screen": (["fresnel", "screen", "--zone", "2", "--lambda", "0.125", "--d1", "25",
                        "--d2", "25"], {"rfplan.fresnel"}),
    "fresnel-field": (["fresnel", "field", "--block", "1:2"], {"rfplan.fresnel"}),
    "fresnel-field-obliquity": (["fresnel", "field", "--block", "1:2", *FIELD_GEOMETRY],
                                {"rfplan.fresnel"}),
    "fresnel-field-curve": (["fresnel", "field", "--block", "1:2", *FIELD_GEOMETRY,
                             "--curve-max", "3"], {"rfplan.fresnel"}),
    "polar-loss": (["polar", "loss", "--delta-psi", "90", "--env", "metal-rich"],
                   {"rfplan.polarization"}),
    "polar-capacity": (["polar", "capacity", "--xpd", "0.25"], {"rfplan.polarization"}),
    "spectrum-simulate": (["spectrum", "simulate", "--scenario", "divergence", "--jsonl"],
                          SPECTRUM_MODULES | {"rfplan.fixtures"}),
    "spectrum-aggregate": (["spectrum", "aggregate", "--sweeps", "{sweeps}"], SPECTRUM_MODULES),
    "spectrum-plan-divergence": (["spectrum", "plan", "--scenario", "divergence"],
                                 SPECTRUM_MODULES | {"rfplan.fixtures"}),
    # a scenario with shadowing draws also loads the shadowing module
    "spectrum-plan-survey": (["spectrum", "plan", "--scenario", "{survey}"],
                             SPECTRUM_MODULES | {"rfplan.fixtures", "rfplan.spectrum.shadowing"}),
    "growth-fit": (["growth", "fit", "--input", str(fixtures.ap_counts_path())],
                   {"rfplan.growth"}),
    "help": (["--help"], set()),
    "usage-error": (["linkbudget", "--format", "xml"], set()),
}

RUN_ONE_ARGV = (
    "import io, json, sys\n"
    "from rfplan.cli import run\n"
    "try:\n"
    "    code = run(json.loads(sys.argv[1]), io.StringIO(), io.StringIO())\n"
    "except SystemExit as exc:  # --help\n"
    "    code = exc.code\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'rfplan')]))\n"
)


@pytest.mark.parametrize("name", MODULES_PER_COMMAND)
def test_each_command_loads_only_its_own_library_module(tmp_path, name):
    argv, modules = MODULES_PER_COMMAND[name]
    sweeps, survey = tmp_path / "sweeps.jsonl", tmp_path / "survey.json"
    sweeps.write_text(seeded_sweep_log(7))
    survey.write_text(scenario_to_json(Scenario(
        (0, 0), clients=(Client("c0", 5.0, 0.0),), emitters=(Emitter(6, 10.0, 1.0, 0.0),),
        shadowing_sigma_db=4.0,
    )))
    argv = [a.format(sweeps=sweeps, survey=survey) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", RUN_ONE_ARGV, json.dumps(argv)],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True,
    )
    code, loaded = json.loads(proc.stdout.splitlines()[-1])  # --help prints above it
    assert code == (1 if name == "usage-error" else 0)
    assert set(loaded) == CLI_MODULES | modules


def test_env_choices_are_the_polarization_presets():
    parser = build_parser()
    for name in ("polar", "loss"):
        subparsers = next(a for a in parser._actions if isinstance(a.choices, dict))
        parser = subparsers.choices[name]
    env = next(a for a in parser._actions if a.dest == "env")
    assert env.choices == sorted(ENVIRONMENT_PRESETS)
    assert env.default in ENVIRONMENT_PRESETS


FRESNEL_25_25 = ["--lambda", "0.125", "--d1", "25", "--d2", "25"]


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        # the zone reached float() unchecked: OverflowError, exit 1
        (["fresnel", "screen", "--zone", str(10**400), *FRESNEL_25_25],
         f"--zone must lie in 1..200, got {10**400}"),
        (["fresnel", "screen", "--zone", "201", *FRESNEL_25_25],
         "--zone must lie in 1..200, got 201"),
        (["fresnel", "screen", "--zone", "0", *FRESNEL_25_25],
         "--zone must lie in 1..200, got 0"),
        # built the table row by row without end
        (["fresnel", "zones", *FRESNEL_25_25, "--max-zone", str(10**26)],
         f"--max-zone must lie in 1..200, got {10**26}"),
        # looped without end
        (["lens", "design", "--step", "1e-300"],
         "--step 1e-300 splits --aperture 40.0 into more than 1000000 steps"),
        # numpy's "Maximum allowed size exceeded", exit 1
        (["fresnel", "field", "--block", "1:2", "--curve-max", "200", "--curve-step", "1e-300"],
         "--curve-step 1e-300 splits --curve-max 200.0 into more than 1000000 steps"),
        # numpy's "expected non-negative integer", exit 1
        (["polar", "capacity", "--xpd", "0.25", "--seed=-3"],
         "--seed must fit 64 bits, got -3"),
    ],
    ids=["zone-1e400", "zone-201", "zone-0", "max-zone-1e26", "lens-step", "curve-step",
         "negative-seed"],
)
def test_unbounded_inputs_exit_two_naming_the_flag(capsys, argv, message):
    assert assert_domain_error(capsys, *argv) == f"error: {message}\n"


def test_overflowing_capacity_exits_two_naming_the_snr(capsys):
    err = assert_domain_error(
        capsys, "polar", "capacity", "--xpd", "1.0", "--snr-linear", "1.7e308"
    )
    # it was refused when snr/2 times an eigenvalue left the float range
    assert err == "error: --snr-linear must lie in (0.0, 1e+100], got 1.7e+308\n"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["polar", "capacity", "--xpd", "2"], "--xpd must lie in [0.0, 1.0], got 2.0"),
        (["polar", "capacity", "--xpd", "0.1", "--snr-linear", "0"],
         "--snr-linear must be positive and finite, got 0.0"),
        (["lens", "apply", "--rx-dbm", "-60", "--uplift-db", "40"],
         "--uplift-db must lie in [0.0, 30.0], got 40.0"),
    ],
    ids=["xpd", "snr-linear", "uplift-db"],
)
def test_bounded_library_inputs_exit_two_naming_the_flag(capsys, argv, message):
    # each was named by the library's field: cross-polar leakage, snr, gain uplift
    assert assert_domain_error(capsys, *argv) == f"error: {message}\n"


def test_curve_step_past_the_float_range_writes_nothing_to_stderr(capsys):
    argv = ["fresnel", "field", "--block", "1:2", "--curve-max", "200", "--curve-step", "1.7e308"]
    # numpy's overflow warning went to the process's stderr, not to run()'s
    proc = subprocess.run(
        [sys.executable, "-m", "rfplan.cli", *argv], capture_output=True, text=True,
        timeout=60, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == invoke(capsys, *argv)
    assert proc.stderr == ""
    # the curve keeps its samples: 0, then u_max
    assert [row.split()[0] for row in proc.stdout.splitlines()[-2:]] == ["0", "200"]


@given(n=st.integers(min_value=-10**30, max_value=10**30) | st.integers(-2, 202))
def test_any_zone_number_exits_two_or_prints_strict_json(n):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = run(["fresnel", "screen", f"--zone={n}", *FRESNEL_25_25, "--format", "json"],
               stdout, stderr)
    if 1 <= n <= 200:
        assert json.loads(stdout.getvalue())["blocked_zone"] == n
    else:
        assert (code, stderr.getvalue()) == (2, f"error: --zone must lie in 1..200, got {n}\n")


# --- every command, driven by the parser ------------------------------------


def leaf_commands(parser, words=()):
    """{command words: leaf parser}, found through the parser's subcommand actions."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            leaves = {}
            for name, sub in action.choices.items():
                leaves.update(leaf_commands(sub, (*words, name)))
            return leaves
    return {words: parser}


LEAF_COMMANDS = leaf_commands(build_parser())
SEEDED_COMMANDS = {("polar", "capacity"), ("spectrum", "simulate"), ("spectrum", "plan")}


@pytest.mark.parametrize("words", sorted(LEAF_COMMANDS), ids=" ".join)
def test_only_the_commands_that_draw_take_a_seed(capsys, tmp_path, words):
    # every command took --seed, and nine of them ignored it
    flags = {flag for action in LEAF_COMMANDS[words]._actions for flag in action.option_strings}
    assert ("--seed" in flags) == (words in SEEDED_COMMANDS)
    sweeps = tmp_path / "sweeps.jsonl"
    sweeps.write_text(seeded_sweep_log(7))
    argv = next(argv for argv, _ in MODULES_PER_COMMAND.values() if argv[:len(words)] == [*words])
    argv = [word.format(sweeps=sweeps) for word in argv]
    if words not in SEEDED_COMMANDS:
        code, out, err = invoke(capsys, *argv, "--seed", "1")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --seed 1\n" in err
        return
    # the library's rule, by the flag's name: polar capacity took 2**64 and
    # named a negative seed `seed`
    for seed in (-1, 2**64):
        err = assert_domain_error(capsys, *argv, f"--seed={seed}")
        assert err == f"error: --seed must fit 64 bits, got {seed}\n"
    code, _, err = invoke(capsys, *argv, "--seed", str(2**64 - 1))
    assert (code, err) == (0, "")
# --format is fixed to json, so exit 0 must print a document; --out would move it
UNDRAWN_FLAGS = {"-h", "--format", "--out"}
FLOAT_EXTREMES = [0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0, 2.0, 1e12, 1e300, 1.7e308]
extreme_floats = st.sampled_from([*FLOAT_EXTREMES, *(-x for x in FLOAT_EXTREMES)])
# A step of at least STEP_FLOOR keeps one example under about 50 ms: at most
# 900 lens profile samples (the aperture is under 90 deg) or 2,000 curve
# samples (u stops at 200), about 30 and 25 ms on a 2-CPU Xeon. A finer
# extreme is refused by the sample-count check before any sample is formed.
STEP_FLOOR = 0.1


@st.composite
def sweep_log_texts(draw):
    """A JSONL sweep log of 0-6 records on one grid, now and then a bad line."""
    n_bins = draw(st.integers(1, 100))
    lines = [
        json.dumps({
            "sensor_id": draw(st.integers(0, 3)),
            "timestamp_ms": draw(st.integers(0, 5)),
            "start_khz": 2_400_000,
            "bin_khz": 1_000,
            "bins": draw(st.lists(st.integers(-128, 127), min_size=n_bins, max_size=n_bins)),
        })
        for _ in range(draw(st.integers(0, 6)))
    ]
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=10)))
    return "".join(line + "\n" for line in lines)


count_series = st.lists(
    st.tuples(st.one_of(finite, extreme_floats), st.one_of(st.integers(1, 10**6), finite)),
    max_size=6,
)

# a value drawn as ("file", text) is written to a file and passed as its path
FILE_FLAGS = {
    "--scenario": st.one_of(
        st.sampled_from(["divergence", "no-such-scenario"]),
        scenario_documents.map(lambda doc: ("file", json.dumps(doc))),
    ),
    "--sweeps": sweep_log_texts().map(lambda text: ("file", text)),
    "--input": st.one_of(count_series, count_series.map(sorted)).map(
        lambda points: ("file", "".join(f"{t!r} {c!r}\n" for t, c in points))
    ),
}


def flag_values(action, edge):
    """argv words for one flag, read from its action. An edge value may be any
    finite float, an extreme or a wild int; any other is on a plan's scale."""
    flag = action.option_strings[-1]
    if action.nargs == 0:  # store_true
        return st.just([flag])
    if flag in FILE_FLAGS:
        return FILE_FLAGS[flag].map(lambda value: [flag, value])
    if action.choices is not None:
        values = st.sampled_from(sorted(action.choices))
    elif action.type is float:
        if not edge:
            values = st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 1000.0))
        elif action.dest.endswith("step"):
            values = st.one_of(extreme_floats, st.floats(STEP_FLOOR, allow_infinity=False))
        else:
            values = st.one_of(extreme_floats, finite)
        values = values.map(repr)
    elif action.type is int:
        values = (st.integers(-(2**70), 2**70) | st.integers(-3, 300) if edge
                  else st.integers(1, 200)).map(str)
    elif action.type is cli._parse_interval:
        bound = st.one_of(extreme_floats, finite) if edge else st.floats(0.0, 10.0)
        values = st.tuples(bound, bound).map(lambda ab: f"{ab[0]!r}:{ab[1]!r}")
    elif action.type is cli._parse_channels:
        values = st.lists(st.integers(-1, 15) if edge else st.integers(1, 14),
                          min_size=1, max_size=4).map(lambda chs: ",".join(map(str, chs)))
    else:
        values = st.text(st.characters(exclude_categories=["Cs"]), max_size=5)
    values = values.map(lambda value: [f"{flag}={value}"])  # = lets a negative parse
    if isinstance(action, argparse._AppendAction):
        return st.lists(values, max_size=3).map(lambda words: sum(words, []))
    return values


@st.composite
def command_lines(draw, words):
    """(argv, usage fault) for one leaf command: its required flags always, the
    optional ones half the time, one of them at an edge value. Now and then
    one fault: a required flag dropped, or a typed value made unparsable."""
    actions = [
        action for action in LEAF_COMMANDS[words]._actions
        if action.option_strings and not UNDRAWN_FLAGS & set(action.option_strings)
    ]
    drawn = [a for a in actions if a.required or draw(st.booleans())]
    valued = [a for a in drawn if a.nargs != 0]
    edge = draw(st.sampled_from(valued)) if valued else None
    fault = None
    if draw(st.integers(0, 9)) == 0:
        candidates = [("drop", a) for a in drawn if a.required] + [
            ("garble", a) for a in drawn if a.type is not None or a.choices is not None
        ]
        if candidates:
            fault = draw(st.sampled_from(candidates))
    argv = [*words, "--format", "json"]
    for action in drawn:
        if fault == ("drop", action):
            continue
        if fault == ("garble", action):
            argv.append(f"{action.option_strings[-1]}=not-a-value")
            continue
        argv += draw(flag_values(action, action is edge))
    return argv, fault


@pytest.mark.deep_fuzz
@pytest.mark.parametrize("words", sorted(LEAF_COMMANDS), ids=" ".join)
@settings(CLI_FUZZ)
@given(data=st.data())
def test_every_command_exits_cleanly_on_any_flags(words, data):
    argv, fault = data.draw(command_lines(words), label="command line")
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for k, word in enumerate(argv):
            if isinstance(word, tuple):
                path = Path(tmp) / f"input{k}"
                path.write_text(word[1])
                argv[k] = str(path)
        code = run(argv, stdout, stderr)  # any exception out of run fails the test
    out, err = stdout.getvalue(), stderr.getvalue()
    if code == 0:
        assert err == ""
        if "--jsonl" in argv:
            for line in out.splitlines():
                strict_json(line)
        else:
            strict_json(out)
    elif code == 2:
        assert out == ""
        assert re.fullmatch("error: [^\n]*\n", err)
    else:
        assert code == 1 and out == ""
        assert err.startswith("rfplan ") and "\nusage: rfplan " in err
    # exit 1 is a usage error, and only a usage error
    assert (code == 1) == (fault is not None), err
    # a value outside its flag's domain exits 2 naming the flag, the first
    # declared of several, before any handler reads a file or a flag
    bad = None if fault is not None else first_bad_flag(words, argv)
    assert bad is None or (code == 2 and err.startswith(f"error: {bad} ")), err


def passes(check, *args) -> bool:
    """Whether check(*args) returns rather than raising a DomainError."""
    try:
        check(*args)
    except DomainError:
        return False
    return True


def first_bad_flag(words, argv):
    """The first flag of the command, in declaration order, given a value
    (or, for --block and --candidates, an item) outside its domain."""
    args = build_parser().parse_args(argv)
    for action in LEAF_COMMANDS[words]._actions:
        flag = action.option_strings[0]
        value = getattr(args, action.dest) if flag in cli._DOMAINS else None
        items = value if isinstance(value, (list, tuple)) else [value]
        if value is not None and not all(passes(cli._DOMAINS[flag], flag, v) for v in items):
            return flag
    return None


# --- each numeric flag's domain against the library --------------------------

FREQ = Frequency(2.437e9)
UNIT_GAIN = AntennaGain(1.0)
SPACING = 0.625 * FREQ.wavelength_m
GEOMETRY_25_25 = PathGeometry(25.0, 25.0, 0.125)
ENV = EnvironmentModel(0.1)
ONE_BIN = SensorSweep(0, 0, 2_400_000, 1_000, (-90,))
AP_SPECTRA = {"ap": aggregate([SensorSweep(0, 0, 2_400_000, 1_000, (-90,) * 100)])}


def wavelength_spaced_lens(spacing):
    """A lens whose plates lie one wavelength of its design frequency apart:
    above cutoff, and at an index below 1, for any spacing that is a length."""
    return LensSpec(spacing, Frequency(SPEED_OF_LIGHT_M_S / spacing if spacing else math.nan),
                    0.3, 40.0)


# The library call that each numeric flag's value reaches, its other inputs
# chosen so that only the flag's own rule can refuse it: one lens profile or
# curve step whatever the step, and a plate spacing above cutoff
LIBRARY_CALLS = {
    "--pt": lambda v: LinkBudget(v, UNIT_GAIN, UNIT_GAIN, LinkGeometry(10.0, FREQ)),
    **dict.fromkeys(("--gt", "--gr"), AntennaGain.from_dbi),
    "--freq": Frequency,
    "--dist": lambda v: LinkGeometry(v, FREQ),
    "--spacing": wavelength_spaced_lens,
    "--focal": lambda v: LensSpec(SPACING, FREQ, v, 40.0),
    "--aperture": lambda v: LensSpec(SPACING, FREQ, 0.3, v),
    "--step": lambda v: lens_profile(LensSpec(SPACING, FREQ, 0.3, 5e-324), v),
    "--rx-dbm": lambda v: boost_rx_power(v, LensEffect()),
    "--uplift-db": lambda v: LensEffect(gain_uplift_db=v),
    "--throughput-frac": lambda v: LensEffect(throughput_uplift_fraction=v),
    "--lambda": lambda v: PathGeometry(25.0, 25.0, v),
    "--d1": lambda v: PathGeometry(v, 25.0, 0.125),
    "--d2": lambda v: PathGeometry(25.0, v, 0.125),
    "--max-zone": lambda v: zone_table(GEOMETRY_25_25, v),
    "--zone": lambda v: screen_for_zone(v, GEOMETRY_25_25),
    "--block": lambda v: field_ratio([v]),
    "--curve-max": lambda v: partial_field_curve(v, U_MAX),
    "--curve-step": lambda v: partial_field_curve(5e-324, v),
    "--delta-psi": lambda v: mismatch_loss_db(v, ENV),
    "--epsilon": EnvironmentModel,
    "--tilt-deg": lambda v: tilt_effect_db(math.radians(v), ENV),  # as polar loss passes it
    "--xpd": dual_polarized_channel,
    "--snr-linear": lambda v: dual_polarized_channel(0.5, v),
    "--seed": lambda v: (Scenario((0.0, 0.0), seed=v), dual_polarized_channel(0.5, seed=v)),
    "--t-ms": lambda v: simulate_sweeps(Scenario((0.0, 0.0)), [(0.0, 0.0)], t_ms=v),
    "--alpha": lambda v: aggregate([ONE_BIN], alpha=v),
    "--candidates": lambda v: select_channel(AP_SPECTRA, "ap-only", [v]),
}
# each numeric flag's parser type, over every command
FLAG_TYPES = {
    action.option_strings[0]: action.type
    for parser in LEAF_COMMANDS.values() for action in parser._actions
    if action.type in (float, int, cli._parse_interval, cli._parse_channels)
}
anywhere_floats = st.one_of(st.floats(), extreme_floats, st.floats(-300.0, 300.0))
anywhere_ints = st.one_of(st.integers(-3, 300), st.integers(-(2**70), 2**70),
                          st.sampled_from([2**64 - 1, 2**64]))
FLAG_VALUES = {
    float: anywhere_floats,
    int: anywhere_ints,
    cli._parse_interval: st.tuples(anywhere_floats, anywhere_floats),
    cli._parse_channels: anywhere_ints,  # one channel of the list
}
flag_cases = st.sampled_from(sorted(FLAG_TYPES)).flatmap(
    lambda flag: st.tuples(st.just(flag), FLAG_VALUES[FLAG_TYPES[flag]])
)


def test_every_numeric_flag_has_a_domain_and_a_library_call():
    assert set(FLAG_TYPES) == set(cli._DOMAINS) == set(LIBRARY_CALLS)


# the deep-fuzz CI step runs the property at 1,000 examples (tests/conftest.py)
@pytest.mark.deep_fuzz
@settings(CLI_FUZZ, max_examples=max(CLI_FUZZ.max_examples, 300))
@given(case=flag_cases)
@example(("--tilt-deg", 90.0))
@example(("--tilt-deg", -90.0))
@example(("--tilt-deg", math.nextafter(90.0, math.inf)))  # math.radians(90.0) is pi/2
@example(("--tilt-deg", math.nextafter(-90.0, -math.inf)))
@example(("--aperture", 0.0))
@example(("--aperture", 90.0))
@example(("--aperture", math.nextafter(90.0, 0.0)))
@example(("--epsilon", 0.0))
@example(("--epsilon", 1.0))
@example(("--xpd", 0.0))
@example(("--xpd", math.nextafter(1.0, math.inf)))
@example(("--alpha", 1.0))
@example(("--alpha", 5e-324))
@example(("--alpha", 0.0))
@example(("--zone", 200))
@example(("--zone", 201))
@example(("--max-zone", 0))
@example(("--curve-max", 200.0))
@example(("--curve-max", math.nextafter(200.0, math.inf)))
@example(("--seed", 2**64 - 1))
@example(("--seed", 2**64))
@example(("--t-ms", -1))
@example(("--freq", SPEED_OF_LIGHT_M_S / 1e12))
@example(("--freq", math.nextafter(SPEED_OF_LIGHT_M_S / 1e12, 0.0)))
@example(("--freq", SPEED_OF_LIGHT_M_S / 1e-12))
@example(("--freq", math.nextafter(SPEED_OF_LIGHT_M_S / 1e-12, math.inf)))
@example(("--spacing", 1e-12))
@example(("--spacing", 0.0))
@example(("--block", (0.0, U_MAX)))
@example(("--block", (1.0, 1.0)))
@example(("--candidates", 14))
@example(("--candidates", 15))
def test_each_flag_domain_admits_what_the_library_admits(case):
    flag, value = case
    assert passes(cli._DOMAINS[flag], flag, value) == passes(LIBRARY_CALLS[flag], value), case

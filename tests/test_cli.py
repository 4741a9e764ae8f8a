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
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfplan import fixtures
from rfplan.cli import run
from rfplan.fresnel import PathGeometry, shading_cone_deg, zone_radius
from rfplan.linkbudget import (
    AntennaGain,
    Frequency,
    LinkBudget,
    LinkGeometry,
    friis_received_dbm,
    fspl_db,
    power_utilization,
)
from rfplan.polarization import dual_polarized_channel, mimo_capacity_bps_hz
from rfplan.spectrum import Client, Emitter, Scenario, scenario_to_json, sweeps_from_jsonl


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
    code, out, _ = invoke(capsys, *argv, "--format", fmt)
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
# error per command, recorded before the parser was declared command by
# command. argparse lays help out differently from one Python minor version
# to the next, so the pins hold for the version they were recorded on.
HELP_PYTHON = (3, 11)
HELP_SHA256 = {
    (): "a4c7879de5d98208d239170de18723f033f7dde15aaaeed2b2b3c914ca762216",
    ("lens",): "4dafaa2097f69299cbc8f0860e11029370ab80d6b466b0542bacbb9a6db4b63f",
    ("fresnel",): "9f02d0c81415d91d855458f4cb6d8b191e1a765eb4f0d98236f99b7f6e876dda",
    ("polar",): "c707f234ede57510fe3855cb4eb435a7953aaef8b1356e560af91090507491be",
    ("spectrum",): "16039ff79ada851d6b0d81fe8187ab2cd485ea247ceb9eff3578132f8e60d89f",
    ("growth",): "8f4b982e1e3a801fcb4db986ef7a043ba77518ebcf6f6fbb70ce7c766970409f",
    ("linkbudget",): "fd2f1218057778060a909a86408fc8a8d745a5bb75000a9b74bfb8062fd53667",
    ("lens", "design"): "9764a76db49ca3bc03fc4ef04ab229adf9236fe92fcb072a30965f022a529650",
    ("lens", "apply"): "7ed9b0daf2050d3f3be7b72754e4bb34612e339933339dd45e9cfcdd9acda80c",
    ("fresnel", "zones"): "d5da418b960680aa4e66aa88506e8b6c65b8b511606a7b76468a31c42a46d4e7",
    ("fresnel", "screen"): "16a188cd69a58729f2f748ecd196dbb126e07ba1a7c3a1cbfaec353a3d80b7c6",
    ("fresnel", "field"): "468b357e1ae9d96e04df28ce493f97e48d8c270945dec6140e720be8aff9a1cd",
    ("polar", "loss"): "16abe22db7dc292faf02bf8f55ec866fbce49920c433320c10e51049288f497e",
    ("polar", "capacity"): "6349d3edcc486a3e49673cb910a84c578b27a8b76ac7404818102f3503aef17e",
    ("spectrum", "simulate"): "11898c34980683674f93032eedf659e76e20b032c6fefcbbf9c4ad97c92e6c19",
    ("spectrum", "aggregate"): "dbbee40664d0e6a7857ec8ee8ca415e72582de60de2307b1770bd8613aadee27",
    ("spectrum", "plan"): "46e0af3fb39eec2764f9c624fa0b66acd033c81953d1afec5b8fd613b0aab999",
    ("growth", "fit"): "ffadf9dd87c91c14104b338e95b789d863534f3977a2b1b573f1ae65273dcc4b",
}
# stderr of `<command> --format xml`, which prints the command's full usage
USAGE_ERROR_SHA256 = {
    ("linkbudget",): "e81c79fea2af921562965d3b408739c5a105d16e4c7c7e4f9afdc5372bdef1d0",
    ("lens", "design"): "97f6e848b77e5f592e4efa835b63af876400be8b5f6fc0936a5d3255fe988cd7",
    ("lens", "apply"): "eb05589cc97368d47f6aad8558c6490713fa56adf18caaa1647bd8731419b8b2",
    ("fresnel", "zones"): "d27b99673255b47512824ed061e778febad8fdd1717d9f154b0c2d7cf3b2d628",
    ("fresnel", "screen"): "cc78c0c20a024bc375ac45a91f4a8ace11be89ca9cbb44f2ffd485967117b4d4",
    ("fresnel", "field"): "c0f132c39206d3ea5e6aa86368dad08b7601c50563cfecacb8a5560afaa6e967",
    ("polar", "loss"): "24cdea72ec6f86b19b56a92210915386a12948723ab66b0465d9929785078f35",
    ("polar", "capacity"): "c3160e7ebc03b302b88598dd4c815114cc570b396c1e8bf11059309c5e0db459",
    ("spectrum", "simulate"): "46be7aa2c3de48ed9bb9ad9636af7e1904c6d06342ff51e55e3ccf6b39ae2213",
    ("spectrum", "aggregate"): "9e1568cbe27ac82367dda1e0f58fa808ad39b3f4dd812fb08cfb218a3d9a6214",
    ("spectrum", "plan"): "56dc423e219e0e0b963d6c5115eac8e0aac5501a7b245f5c69bc3d9c15c21025",
    ("growth", "fit"): "a4a4fa80b1f822751764c66b469344b4065dea3542c0a6e734c0c1c16d454768",
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


@pytest.mark.parametrize(
    ("document", "named"),
    [
        ('{"ap_position": [0, 0], "noise_floor_dbn": -60}', "noise_floor_dbn"),
        ("[1, 2]", "list"),
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
        (scenario_document(noise_floor_dbm="x"), "noise_floor_dbm must be a finite number, got 'x'"),
    ],
)
def test_spectrum_plan_bad_scenario_document_exits_two(capsys, tmp_path, document, named):
    path = tmp_path / "scenario.json"
    path.write_text(document)
    err = assert_domain_error(capsys, "spectrum", "plan", "--scenario", str(path))
    assert "bad scenario document" in err and named in err


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


def test_growth_fit_missing_input_exits_two(capsys, tmp_path):
    missing = tmp_path / "missing.txt"
    assert_file_error(capsys, missing, "growth", "fit", "--input", str(missing))


def test_spectrum_aggregate_missing_sweeps_exits_two(capsys, tmp_path):
    missing = tmp_path / "missing.jsonl"
    assert_file_error(capsys, missing, "spectrum", "aggregate", "--sweeps", str(missing))


def test_spectrum_plan_directory_scenario_exits_two(capsys, tmp_path):
    assert_file_error(capsys, tmp_path, "spectrum", "plan", "--scenario", str(tmp_path))


def test_out_to_missing_directory_exits_two(capsys, tmp_path):
    target = tmp_path / "missing" / "x.txt"
    assert_file_error(
        capsys, target, "lens", "apply", "--rx-dbm", "-60", "--out", str(target),
    )


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["linkbudget", "--pt", "nan", "--gt", "0", "--gr", "0", "--freq", "2.4e9",
          "--dist", "10"], "--pt must be finite, got nan"),
        (["lens", "apply", "--rx-dbm", "nan"], "--rx-dbm must be finite, got nan"),
        (["polar", "loss", "--delta-psi", "nan"], "--delta-psi must be finite, got nan"),
        (["polar", "loss", "--delta-psi", "3", "--tilt-deg", "inf"],
         "--tilt-deg must be finite, got inf"),
        (["lens", "design", "--focal=-inf"], "--focal must be finite, got -inf"),
        (["fresnel", "field", "--block", "0:1", "--block", "nan:2"],
         "--block must be finite, got nan:2.0"),
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
        assert stderr.getvalue() == f"error: {flag} must be finite, got {value!r}\n"


LINKBUDGET_GEOMETRY = ["linkbudget", "--pt", "1", "--freq", "2.4e9", "--dist", "10"]


@pytest.mark.parametrize(
    ("gains", "message"),
    [
        (["--gt", "1e308", "--gr", "0"],
         "--gt must be a gain with a positive, finite linear value, got 1e+308 dBi"),
        (["--gt", "0", "--gr=-1e308"],
         "--gr must be a gain with a positive, finite linear value, got -1e+308 dBi"),
        (["--gt", "3000", "--gr", "3000"],
         "--gt 3000.0 dBi with --gr 3000.0 dBi overflows power_utilization"),
    ],
)
def test_overflowing_gains_name_the_flag(capsys, gains, message):
    err = assert_domain_error(capsys, *LINKBUDGET_GEOMETRY, *gains, "--format", "json")
    assert err == f"error: {message}\n"


finite_gains = st.one_of(
    st.floats(-4000.0, 4000.0), st.floats(allow_nan=False, allow_infinity=False)
)


@given(gt=finite_gains, gr=finite_gains)
def test_finite_gains_exit_two_or_print_strict_json(gt, gr):
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = [*LINKBUDGET_GEOMETRY, f"--gt={gt!r}", f"--gr={gr!r}", "--format", "json"]
    code = run(argv, stdout, stderr)
    if code == 0:
        strict_json(stdout.getvalue())
    else:
        assert (code, stdout.getvalue()) == (2, "")
        assert re.match(r"error: --g[tr] ", stderr.getvalue())


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["linkbudget", "--pt", "1", "--gt", "0", "--gr", "0", "--freq", "2.4e9",
          "--dist", "1e308"],
         "4*pi*R/lambda for distance 1e+308 m and wavelength 0.12491352416666666 m "
         "leaves the float range"),
        (["fresnel", "zones", "--lambda", "0.125", "--d1", "1e308", "--d2", "1e308"],
         "d1_m=1e+308, d2_m=1e+308, lambda_m=0.125"),
        (["fresnel", "zones", "--lambda", "1e300", "--d1", "1e300", "--d2", "1e300"],
         "d1_m=1e+300, d2_m=1e+300, lambda_m=1e+300"),
        (["fresnel", "field", "--block", "1:2", "--obliquity", "--lambda", "1e-300",
          "--d1", "1e-300", "--d2", "1e-300"],
         "d1_m=1e-300, d2_m=1e-300, lambda_m=1e-300"),
        (["fresnel", "field", "--block", "1:2", "--obliquity", "--lambda", "0.125",
          "--d1", "1e200", "--d2", "25"],
         "d1_m=1e+200, d2_m=25.0, lambda_m=0.125"),
    ],
)
def test_values_outside_float_range_exit_two(capsys, argv, message):
    err = assert_domain_error(capsys, *argv, "--format", "json")
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


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
        assert re.fullmatch(f"error: [^\n]*distance {re.escape(repr(dist))} m[^\n]*\n",
                            stderr.getvalue())


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
        named = f"d1_m={d1!r}, d2_m={d2!r}, lambda_m={lam!r}: "
        assert re.fullmatch(f"error: {re.escape(named)}[^\n]*\n", stderr.getvalue())


@pytest.mark.parametrize("command", ["simulate", "plan"])
def test_negative_t_ms_names_the_flag(capsys, command):
    err = assert_domain_error(capsys, "spectrum", command, "--scenario", "divergence", "--t-ms=-5")
    assert err == "error: --t-ms must be non-negative, got -5\n"


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


def test_seed_flag_overrides_scenario_seed(capsys):
    base = invoke(capsys, "spectrum", "simulate", "--scenario", "divergence",
                  "--format", "csv")
    reseeded = invoke(capsys, "spectrum", "simulate", "--scenario", "divergence",
                      "--seed", "99", "--format", "csv")
    # divergence scenario has zero shadowing, so the seed changes nothing
    assert base[1] == reseeded[1]


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
         "seed must be non-negative, got -3"),
    ],
    ids=["zone-1e400", "zone-201", "zone-0", "max-zone-1e26", "lens-step", "curve-step",
         "negative-seed"],
)
def test_unbounded_inputs_exit_two_naming_the_flag(capsys, argv, message):
    assert assert_domain_error(capsys, *argv) == f"error: {message}\n"


@given(n=st.integers(min_value=-10**30, max_value=10**30) | st.integers(-2, 202))
def test_any_zone_number_exits_two_or_prints_strict_json(n):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = run(["fresnel", "screen", f"--zone={n}", *FRESNEL_25_25, "--format", "json"],
               stdout, stderr)
    if 1 <= n <= 200:
        assert json.loads(stdout.getvalue())["blocked_zone"] == n
    else:
        assert (code, stderr.getvalue()) == (2, f"error: --zone must lie in 1..200, got {n}\n")

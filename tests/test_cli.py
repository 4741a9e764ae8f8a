import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
from rfplan.spectrum import sweeps_from_jsonl


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_cli_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, rfplan.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)), check=True,
    )
    assert proc.stdout.strip() == "[]"


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
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == SPECTRUM_STDOUT_SHA256[command, fmt]


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


@pytest.mark.parametrize(
    ("document", "named"),
    [
        ('{"ap_position": [0, 0], "noise_floor_dbn": -60}', "noise_floor_dbn"),
        ("[1, 2]", "list"),
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

"""Each study script in scripts/ runs end to end against the library."""
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# CSVs each script writes into its module-level OUT directory
WRITES = {
    "fresnel_screen_study": ["field_curve_ideal.csv", "field_curve_obliquity.csv"],
}


def test_every_script_is_covered():
    assert sorted(p.stem for p in SCRIPTS.glob("*.py")) == sorted(WRITES)


@pytest.mark.parametrize("name", sorted(WRITES))
def test_script_runs(name, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.OUT = tmp_path
    module.main()
    assert capsys.readouterr().out
    for csv_name in WRITES[name]:
        lines = (tmp_path / csv_name).read_text().splitlines()
        assert len(lines) > 1 and "," in lines[0]

"""Bundled example inputs for the CLI and the test suite."""

from pathlib import Path

_HERE = Path(__file__).parent


def divergence_scenario_path() -> Path:
    """Scenario on which ap-only and client-aware channel choices differ."""
    return _HERE / "divergence_scenario.json"


def ap_counts_path() -> Path:
    """Synthetic access-point count series doubling every 700 days."""
    return _HERE / "ap_counts.txt"


BUNDLED_SCENARIOS = {"divergence": divergence_scenario_path}

"""Hypothesis profiles shared by the test files.

A property reads its profile by name: @settings.get_profile("fuzz").

RFPLAN_CLI_FUZZ_PROFILE=cli-fuzz-deep, the CI step that deepens the fuzzing,
gives every profile below the deep settings: 1,000 examples, no deadline,
never derandomized, which hypothesis otherwise is by default on CI. The
step runs the properties marked @pytest.mark.deep_fuzz (-m deep_fuzz).
Otherwise:
- cli-fuzz: 40 examples of each CLI command, no deadline, about 9 s on a
  2-CPU Xeon;
- fuzz: hypothesis's default 100 examples, no deadline;
- fuzz-timed: hypothesis's defaults, its deadline included.
"""
import os

from hypothesis import settings

DEEP = {"deadline": None, "max_examples": 1000, "derandomize": False}
TIER_1 = {
    "cli-fuzz": {"deadline": None, "max_examples": 40},
    "fuzz": {"deadline": None},
    "fuzz-timed": {},
}

settings.register_profile("cli-fuzz-deep", **DEEP)
_deep = os.environ.get("RFPLAN_CLI_FUZZ_PROFILE") == "cli-fuzz-deep"
for _name, _tier_1 in TIER_1.items():
    settings.register_profile(_name, **(DEEP if _deep else _tier_1))

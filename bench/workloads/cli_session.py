"""cli-session: one `python -m rfplan.cli ...` subprocess per op, one at a time.

Ops cycle through commands.COMMANDS. Users pay interpreter start plus
`import rfplan.cli` on every command, and this is the only workload where
that import is on the timed path. Each command is re-run in-process with
cli.run(argv) to check the subprocess's stdout byte for byte; the traced
pass times those re-runs as cli.run.<command>, and probes cold start with
fresh `python -c` processes with and without `import rfplan.cli`.
"""
from __future__ import annotations

import hashlib
import io
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from rfplan import cli
from rfplan.spectrum import (
    default_sensor_layout,
    scenario_to_json,
    simulate_sweeps,
    sweeps_from_jsonl,
    sweeps_to_jsonl,
)

from commands import COMMANDS
from scenarios import survey_scenario
from workloads import Workload

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
COLD_START_PROBES = 5
TIMEOUT_S = 60
DIVERGENCE_CHANNELS = {"ap_only_channel": "6", "client_aware_channel": "11"}


@dataclass
class Output:
    name: str
    argv: list[str]
    returncode: int
    stdout: bytes
    stderr: bytes


class CliSession(Workload):
    runs_in_children = True
    # ops last about a second: count the kernel around the neighbouring ops too
    speed_window_s = 2.0

    def __init__(self, seed: int, n_ops: int, workdir: Path) -> None:
        self.workdir = workdir
        self.scenario = survey_scenario(np.random.default_rng([seed, 0]))
        survey = workdir / "survey.json"
        survey.write_text(scenario_to_json(self.scenario))
        self.sweeps_path = workdir / "sweeps.jsonl"
        fill = {
            "survey": str(survey),
            "sweeps": str(self.sweeps_path),
            "ap_counts": str(SRC / "rfplan" / "fixtures" / "ap_counts.txt"),
        }
        self.commands = [(name, [a.format(**fill) for a in argv]) for name, argv in COMMANDS]
        # the checkout's sources and nothing else, whatever PYTHONPATH says
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.expected_sweeps = None

    def _python(self, args: list[str], stdout, stderr) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args],
            stdin=subprocess.DEVNULL,
            stdout=stdout,
            stderr=stderr,
            env=self.env,
            cwd=ROOT,
            timeout=TIMEOUT_S,
        )

    def op(self, i: int, tr) -> Output:
        name, argv = self.commands[i % len(self.commands)]
        # the simulate command's stdout is the sweep log the aggregate command reads
        out_path = self.sweeps_path if name == "spectrum-simulate" else self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            with tr.span(f"cli.wall.{name}"):
                proc = self._python(["-m", "rfplan.cli", *argv], out, err)
        return Output(name, argv, proc.returncode, out_path.read_bytes(), err_path.read_bytes())

    def check(self, i: int, out: Output, tr) -> list[str]:
        errors = []
        stderr_lines = out.stderr.count(b"\n")
        tr.count("cli.stderr_lines", stderr_lines)
        if out.returncode != 0:
            tail = out.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return [f"{out.name} exited {out.returncode}: {tail}"]
        buf_out, buf_err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            # the subprocess already reported these on its stderr
            warnings.simplefilter("ignore")
            with tr.span(f"cli.run.{out.name}"):
                code = cli.run(out.argv, stdout=buf_out, stderr=buf_err)
        if code != 0 or buf_out.getvalue().encode() != out.stdout:
            errors.append(f"{out.name}: subprocess stdout differs from in-process cli.run")
        if out.name == "spectrum-plan-divergence":
            rows = dict(line.split(None, 1) for line in out.stdout.decode().splitlines() if line.strip())
            got = {k: rows.get(k, "").strip() for k in DIVERGENCE_CHANNELS}
            if got != DIVERGENCE_CHANNELS:
                errors.append(f"divergence plan {got}, expected {DIVERGENCE_CHANNELS}")
        if out.name == "spectrum-simulate":
            text = out.stdout.decode()
            with tr.span("spectrum.aggregate.sweeps_from_jsonl"):
                sweeps = sweeps_from_jsonl(text)
            tr.count("spectrum.aggregate.sweeps_from_jsonl.records", len(sweeps))
            if self.expected_sweeps is None:
                _, positions = default_sensor_layout(self.scenario)
                self.expected_sweeps = simulate_sweeps(self.scenario, positions)
            if sweeps != self.expected_sweeps:
                errors.append("simulated sweep log differs from simulate_sweeps")
            if sweeps_to_jsonl(sweeps) != text:
                errors.append("JSONL round trip changed the sweep log")
        return errors

    def digest(self, i: int, out: Output) -> str:
        return hashlib.sha256(out.stdout).hexdigest()

    def probes(self, tr) -> None:
        for _ in range(COLD_START_PROBES):
            for span, code in (("cli.interp", "pass"), ("cli.import", "import rfplan.cli")):
                with tr.span(span):
                    proc = self._python(["-c", code], subprocess.DEVNULL, subprocess.DEVNULL)
                if proc.returncode != 0:
                    raise RuntimeError(f"cold-start probe {code!r} exited {proc.returncode}")


WORKLOAD = CliSession

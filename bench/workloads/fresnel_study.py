"""fresnel-study: the obliquity-weighted screen integrals, one geometry per op.

Each op draws d1, d2 in [5, 100] m and a 2.437 or 5.2 GHz wavelength, then
evaluates field_ratio with obliquity for blocked zones {2} and {2, 4},
field_ratio(force_quadrature=True) without obliquity, and the obliquity
partial-field curve with step 0.05 out to u_max in [20, 200). This is the
only workload where adaptive quadrature is on the timed path at scale.

u_max follows a golden-ratio sequence from a seeded start: every seed covers
[20, 200) with the same spread, including the stretch past u = 144 where
scipy's quad starts warning, so op-time percentiles do not swing with the
seed while the inputs still differ.
"""
from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass

import numpy as np
from rfplan.fresnel import (
    QUADRATURE_REL_TOL,
    FieldRatio,
    PathGeometry,
    field_ratio,
    partial_field_curve,
)
from rfplan.linkbudget import Frequency

import reference
from workloads import Workload

FREQUENCIES_HZ = (2.437e9, 5.2e9)
D_RANGE_M = (5.0, 100.0)
U_RANGE = (20.0, 200.0)
STEP = 0.05
BLOCKED = (((1.0, 2.0),), ((1.0, 2.0), (3.0, 4.0)))  # zones {2} and {2, 4}
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _panels(lo: np.ndarray, hi: np.ndarray) -> int:
    """Unit panels the integrator covers: each interval split at interior integers."""
    interior = np.ceil(hi - 1e-12) - np.floor(lo + 1e-12) - 1
    return int(np.sum(1 + np.maximum(interior, 0)))


@dataclass
class Output:
    ratios: list[FieldRatio]  # obliquity, one per BLOCKED entry
    forced: FieldRatio  # quadrature without obliquity, zone {2}
    curve: list[tuple[float, float]]


class FresnelStudy(Workload):
    def __init__(self, seed: int, n_ops: int, workdir) -> None:
        start = np.random.default_rng([seed, 0]).random()
        self.cases = []
        for i in range(n_ops):
            rng = np.random.default_rng([seed, 1, i])
            geometry = PathGeometry(
                d1_m=float(rng.uniform(*D_RANGE_M)),
                d2_m=float(rng.uniform(*D_RANGE_M)),
                lambda_m=Frequency(FREQUENCIES_HZ[int(rng.integers(2))]).wavelength_m,
            )
            u_max = U_RANGE[0] + (U_RANGE[1] - U_RANGE[0]) * ((start + i * _GOLDEN) % 1.0)
            self.cases.append((geometry, u_max))

    def op(self, i: int, tr) -> Output:
        geometry, u_max = self.cases[i]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ratios = []
            for blocked in BLOCKED:
                with tr.span("fresnel.field_ratio"):
                    ratios.append(field_ratio(blocked, obliquity=True, geometry=geometry))
            with tr.span("fresnel.field_ratio"):
                forced = field_ratio(BLOCKED[0], force_quadrature=True)
            with tr.span("fresnel.partial_field_curve"):
                curve = partial_field_curve(u_max, STEP, obliquity=True, geometry=geometry)
        # by name, so the count keeps working once scipy is gone
        tr.count(
            "fresnel.integration_warnings",
            sum(w.category.__name__ == "IntegrationWarning" for w in caught),
        )
        tr.count("fresnel.partial_field_curve.samples", len(curve))
        return Output(ratios, forced, curve)

    def check(self, i: int, out: Output, tr) -> list[str]:
        geometry, u_max = self.cases[i]
        errors = []
        rel_errs = [
            reference.rel_err(got.complex_ratio, reference.field_ratio_ref(blocked, geometry))
            for blocked, got in zip(BLOCKED, out.ratios)
        ]
        rel_errs.append(
            reference.rel_err(out.forced.complex_ratio, reference.closed_form_ratio(BLOCKED[0]))
        )
        u = np.array([p[0] for p in out.curve])
        mags = np.array([p[1] for p in out.curve])
        steps = np.diff(u)
        if u[0] != 0.0 or abs(u[-1] - u_max) > 1e-9 or not np.all((steps > 0) & (steps <= STEP + 1e-9)):
            errors.append(f"curve samples do not step from 0 to {u_max} by at most {STEP}")
        else:
            rel_errs.append(reference.rel_err(mags, reference.partial_field_ref(u, geometry)))
        worst = max(rel_errs)
        tr.peak("fresnel.max_rel_err", worst)
        if worst > QUADRATURE_REL_TOL:
            errors.append(f"relative error {worst:.3g} exceeds {QUADRATURE_REL_TOL}")
        intervals = np.array([iv for blocked in (*BLOCKED, BLOCKED[0]) for iv in blocked])
        tr.count("fresnel.panels", _panels(intervals[:, 0], intervals[:, 1]) + _panels(u[:-1], u[1:]))
        return errors

    def digest(self, i: int, out: Output) -> str:
        # float outputs are checked against the numpy reference within
        # QUADRATURE_REL_TOL, not by bytes, so a different quadrature rule
        # can pass; the digest pins the inputs and the sample grid's size
        geometry, u_max = self.cases[i]
        text = f"{geometry.d1_m!r},{geometry.d2_m!r},{geometry.lambda_m!r},{u_max!r},{len(out.curve)}"
        return hashlib.sha256(text.encode()).hexdigest()


WORKLOAD = FresnelStudy

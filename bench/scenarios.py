"""Seeded site-survey scenarios: an AP, 50 clients and 50 emitters on one floor.

At 51 sensors (the AP plus every client) x 50 emitters one simulation takes
about 150 ms on a 2-CPU Xeon; 201 x 200 takes about 2 s, too long per op
for stable percentiles.
"""
from __future__ import annotations

import numpy as np
from rfplan.spectrum import Client, Emitter, Scenario

N_CLIENTS = 50
N_EMITTERS = 50
FLOOR_M = (60.0, 40.0)
AP_POSITION = (30.0, 20.0)


def survey_scenario(rng: np.random.Generator) -> Scenario:
    w, h = FLOOR_M
    clients = tuple(
        Client(f"c{k:02d}", float(rng.uniform(0, w)), float(rng.uniform(0, h)))
        for k in range(N_CLIENTS)
    )
    emitters = tuple(
        Emitter(
            channel=int(rng.integers(1, 15)),
            tx_power_dbm=float(rng.uniform(-5.0, 20.0)),
            x=float(rng.uniform(0, w)),
            y=float(rng.uniform(0, h)),
        )
        for _ in range(N_EMITTERS)
    )
    return Scenario(
        ap_position=AP_POSITION,
        clients=clients,
        emitters=emitters,
        seed=int(rng.integers(0, 2**32)),
    )

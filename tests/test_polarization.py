import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfplan.errors import DomainError
from rfplan.polarization import (
    DEFAULT_TILT_GAIN_DB_PER_RAD,
    ENVIRONMENT_PRESETS,
    EnvironmentModel,
    MimoChannel,
    calibrate_diffuse_from_isolation,
    dual_polarized_channel,
    environment_preset,
    mimo_capacity_bps_hz,
    mismatch_loss_db,
    tilt_effect_db,
)


def test_mismatch_zero_at_alignment():
    for eps in (0.0, 0.1, 0.5, 1.0):
        assert mismatch_loss_db(0.0, EnvironmentModel(eps)) == pytest.approx(0.0, abs=1e-12)


def test_mismatch_reproduces_measured_isolations():
    sparse = EnvironmentModel(calibrate_diffuse_from_isolation(15.0))
    metal = EnvironmentModel(calibrate_diffuse_from_isolation(4.0))
    assert mismatch_loss_db(90.0, sparse) == pytest.approx(-15.0, abs=1e-6)
    assert mismatch_loss_db(90.0, metal) == pytest.approx(-4.0, abs=1e-6)
    assert sparse.diffuse_fraction == pytest.approx(0.03162277660168379, rel=1e-12)
    assert metal.diffuse_fraction == pytest.approx(0.3981071705534972, rel=1e-12)


def test_mismatch_cos_squared_without_diffuse_floor():
    assert mismatch_loss_db(60.0, EnvironmentModel(0.0)) == pytest.approx(
        -6.0205999132796215, abs=1e-9
    )


@given(
    psi=st.floats(min_value=0.0, max_value=90.0),
    eps=st.floats(min_value=0.0, max_value=1.0),
)
def test_mismatch_never_positive(psi, eps):
    assert mismatch_loss_db(psi, EnvironmentModel(eps)) <= 1e-12


@given(
    psi=st.floats(min_value=0.0, max_value=89.0),
    eps=st.floats(min_value=0.0, max_value=0.99),
)
def test_mismatch_strictly_decreasing_toward_orthogonal(psi, eps):
    env = EnvironmentModel(eps)
    assert mismatch_loss_db(psi + 1.0, env) < mismatch_loss_db(psi, env)


@given(psi=st.floats(min_value=0.0, max_value=90.0))
def test_fully_diffuse_environment_is_flat(psi):
    assert mismatch_loss_db(psi, EnvironmentModel(1.0)) == pytest.approx(0.0, abs=1e-12)


def test_calibrate_edge_cases():
    assert calibrate_diffuse_from_isolation(0.0) == 1.0
    with pytest.raises(DomainError):
        calibrate_diffuse_from_isolation(-1.0)


@given(x=st.floats(min_value=0.0, max_value=40.0))
def test_calibrate_round_trip(x):
    env = EnvironmentModel(calibrate_diffuse_from_isolation(x))
    assert mismatch_loss_db(90.0, env) == pytest.approx(-x, abs=1e-9)


def test_presets_registered():
    assert set(ENVIRONMENT_PRESETS) == {"sparse-room", "metal-rich"}
    assert environment_preset("sparse-room").diffuse_fraction < environment_preset(
        "metal-rich"
    ).diffuse_fraction
    with pytest.raises(DomainError):
        environment_preset("vacuum")


def test_tilt_reference_slope():
    env = EnvironmentModel(0.1)
    assert tilt_effect_db(0.0, env) == 0.0
    assert tilt_effect_db(math.radians(15.0), env) == pytest.approx(2.0, abs=1e-9)
    assert tilt_effect_db(math.radians(-15.0), env) == pytest.approx(-2.0, abs=1e-9)
    assert env.tilt_gain_db_per_rad == DEFAULT_TILT_GAIN_DB_PER_RAD


@given(tilt=st.floats(min_value=0.0, max_value=math.pi / 2))
def test_tilt_odd_symmetry(tilt):
    env = EnvironmentModel(0.2)
    assert tilt_effect_db(-tilt, env) == pytest.approx(-tilt_effect_db(tilt, env), abs=1e-12)


def test_tilt_domain():
    with pytest.raises(DomainError):
        tilt_effect_db(2.0, EnvironmentModel(0.1))


def test_capacity_identity_channel():
    channel = MimoChannel(h=np.eye(2, dtype=complex), snr_linear=100.0)
    assert mimo_capacity_bps_hz(channel) == pytest.approx(11.34485068394299, abs=1e-9)
    # closed form for the identity channel
    assert mimo_capacity_bps_hz(channel) == pytest.approx(2 * math.log2(1 + 50.0), abs=1e-12)


def test_capacity_rank_one_channel():
    channel = MimoChannel(h=np.ones((2, 2), dtype=complex), snr_linear=100.0)
    assert mimo_capacity_bps_hz(channel) == pytest.approx(7.651051691178929, abs=1e-9)


def test_capacity_vanishes_at_zero_snr():
    channel = MimoChannel(h=np.eye(2, dtype=complex), snr_linear=1e-12)
    assert mimo_capacity_bps_hz(channel) == pytest.approx(0.0, abs=1e-9)


def test_capacity_monotone_in_snr():
    h = np.array([[1.0, 0.3], [0.2, 0.9]], dtype=complex)
    caps = [mimo_capacity_bps_hz(MimoChannel(h=h, snr_linear=s)) for s in (1, 10, 100, 1000)]
    assert all(b > a for a, b in zip(caps, caps[1:]))


def test_channel_validation():
    with pytest.raises(DomainError, match=re.escape("finite, got (nan+0j) at [0, 0]")):
        MimoChannel(h=np.full((2, 2), np.nan), snr_linear=10.0)
    h = np.eye(2, dtype=complex)
    h[1, 0] = complex(3.0, math.inf)
    with pytest.raises(DomainError, match=re.escape("finite, got (3+infj) at [1, 0]")):
        MimoChannel(h=h, snr_linear=10.0)
    with pytest.raises(DomainError):
        MimoChannel(h=np.eye(2), snr_linear=0.0)
    with pytest.raises(DomainError):
        MimoChannel(h=np.eye(3), snr_linear=10.0)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_capacity_eigen_route_matches_determinant(seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    snr = float(rng.uniform(0.1, 500.0))
    channel = MimoChannel(h=h, snr_linear=snr)
    gram = h @ h.conj().T
    det = np.linalg.det(np.eye(2) + snr / 2.0 * gram)
    assert mimo_capacity_bps_hz(channel) == pytest.approx(
        math.log2(abs(det)), abs=1e-9
    )


def test_builder_endpoints():
    assert np.array_equal(dual_polarized_channel(0.0).h, np.eye(2, dtype=complex))
    assert np.array_equal(dual_polarized_channel(1.0).h, np.ones((2, 2), dtype=complex))
    mid = dual_polarized_channel(0.25)
    assert np.allclose(mid.h, [[1.0, 0.5], [0.5, 1.0]])
    eig = sorted(np.linalg.eigvalsh(mid.h @ mid.h.conj().T))
    assert eig == pytest.approx([0.25, 2.25], abs=1e-12)


def test_builder_validation():
    with pytest.raises(DomainError):
        dual_polarized_channel(-0.1)
    with pytest.raises(DomainError):
        dual_polarized_channel(1.1)


def test_builder_refuses_a_negative_seed():
    # numpy's default_rng raised its own ValueError
    with pytest.raises(DomainError, match="seed must be non-negative, got -3"):
        dual_polarized_channel(0.25, seed=-3)
    assert mimo_capacity_bps_hz(dual_polarized_channel(0.25, seed=0)) > 0


def test_builder_seeded_perturbation_reproducible():
    a = dual_polarized_channel(0.3, seed=7)
    b = dual_polarized_channel(0.3, seed=7)
    c = dual_polarized_channel(0.3, seed=8)
    assert np.array_equal(a.h, b.h)
    assert not np.array_equal(a.h, c.h)
    # perturbation stays small
    assert np.max(np.abs(a.h - dual_polarized_channel(0.3).h)) < 1.0


def test_capacity_monotone_in_decorrelation():
    # less leakage between branches means more capacity, over the whole grid
    caps = [
        mimo_capacity_bps_hz(dual_polarized_channel(x / 10, snr_linear=100.0))
        for x in range(11)
    ]
    for lo in range(len(caps)):
        for hi in range(lo + 1, len(caps)):
            assert caps[lo] >= caps[hi]

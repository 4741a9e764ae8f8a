"""Independent numpy references the benchmark checks rfplan's outputs against.

Nothing here calls the function it checks: channel powers, EWMA and the
obliquity integral are recomputed from their definitions, and the channel
choice is the benchmark's own argmin over the scores rfplan reports.
"""
from __future__ import annotations

import numpy as np

PREFERRED_CHANNELS = (1, 6, 11)
CHANNELS = tuple(range(1, 15))
HALF_MASK_KHZ = 11_000
REL_TOL_SCORES = 1e-9

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _channel_center_khz(ch: int) -> int:
    return 2_484_000 if ch == 14 else (2407 + 5 * ch) * 1000


def channel_powers_mw(bins_dbm: np.ndarray, start_khz: int, bin_khz: int) -> np.ndarray:
    """(positions x channels) in-mask power: sum of bin powers inside +-11 MHz."""
    centers = start_khz + (np.arange(bins_dbm.shape[1]) + 0.5) * bin_khz
    ch_centers = np.array([_channel_center_khz(ch) for ch in CHANNELS], dtype=float)
    mask = np.abs(centers[None, :] - ch_centers[:, None]) <= HALF_MASK_KHZ
    return (10.0 ** (bins_dbm / 10.0)) @ mask.T


def expected_choice(plan, ap_id: str = "ap") -> int:
    """Argmin of the reported objectives with the documented tie-break."""

    def key(ch):
        score = plan.per_channel_scores[ch]
        return (score.objective, score.per_position_mw[ap_id], ch not in PREFERRED_CHANNELS, ch)

    return min(plan.per_channel_scores, key=key)


def check_plan(plan, spectra, positions) -> list[str]:
    """The choice is the argmin, and every minimax objective matches numpy."""
    errors = []
    want = expected_choice(plan)
    if plan.chosen_channel != want:
        errors.append(f"{plan.mode}: chose {plan.chosen_channel}, argmin is {want}")
    if sorted(plan.per_channel_scores) != list(CHANNELS):
        return errors + [f"{plan.mode}: scored channels {sorted(plan.per_channel_scores)}"]
    first = spectra[positions[0]]
    bins = np.array([spectra[p].bins for p in positions], dtype=float)
    ref = channel_powers_mw(bins, first.start_khz, first.bin_khz).max(axis=0)
    got = np.array([plan.per_channel_scores[ch].objective for ch in CHANNELS])
    if not np.allclose(got, ref, rtol=REL_TOL_SCORES, atol=0.0):
        worst = int(np.argmax(np.abs(got - ref) / ref))
        errors.append(f"{plan.mode}: channel {CHANNELS[worst]} objective {got[worst]} != {ref[worst]}")
    return errors


def ewma_dbm(windows_dbm: np.ndarray, alpha: float) -> np.ndarray:
    """EWMA in mW over (..., sweeps, bins) windows, oldest sweep first, in dBm."""
    power = 10.0 ** (windows_dbm / 10.0)
    smoothed = power[..., 0, :]
    for k in range(1, power.shape[-2]):
        smoothed = alpha * power[..., k, :] + (1.0 - alpha) * smoothed
    return 10.0 * np.log10(smoothed)


def _obliquity(u: np.ndarray, d1: float, d2: float, lam: float) -> np.ndarray:
    r_sq = u * lam * d1 * d2 / (d1 + d2)
    cos_chi = (d1 * d2 - r_sq) / np.sqrt((d1 * d1 + r_sq) * (d2 * d2 + r_sq))
    return 0.5 * (1.0 + cos_chi)


def aperture_contributions(edges: np.ndarray, geometry) -> np.ndarray:
    """Integral of (-i*pi)*K(u)*exp(i*pi*u) over each [edges[k], edges[k+1]].

    16-point Gauss-Legendre per piece after splitting at integer u; K = 1
    when geometry is None. Pieces are at most one unit long and the
    integrand is smooth, so the rule is exact to rounding.
    """
    cuts = np.arange(np.floor(edges[0]) + 1.0, np.ceil(edges[-1]))
    grid = np.union1d(edges, cuts)
    lo, hi = grid[:-1], grid[1:]
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    u = mid[:, None] + half[:, None] * _GL_X[None, :]
    weight = 1.0 if geometry is None else _obliquity(
        u, geometry.d1_m, geometry.d2_m, geometry.lambda_m
    )
    pieces = (-1j * np.pi * weight * np.exp(1j * np.pi * u)) @ _GL_W * half
    # fold the pieces back onto the caller's intervals
    owner = np.searchsorted(edges, lo, side="right") - 1
    return np.bincount(owner, weights=pieces.real, minlength=len(edges) - 1) + 1j * np.bincount(
        owner, weights=pieces.imag, minlength=len(edges) - 1
    )


def field_ratio_ref(blocked, geometry) -> complex:
    """1 minus the blocked intervals' contributions."""
    total = 1.0 + 0.0j
    for a, b in blocked:
        total -= aperture_contributions(np.array([a, b], dtype=float), geometry).sum()
    return complex(total)


def closed_form_ratio(blocked) -> complex:
    """1 + sum(exp(i*pi*b) - exp(i*pi*a)): the aperture integral without obliquity."""
    return complex(1.0 + sum(np.exp(1j * np.pi * b) - np.exp(1j * np.pi * a) for a, b in blocked))


def partial_field_ref(u_samples: np.ndarray, geometry) -> np.ndarray:
    """|field of the open aperture [0, u]| at each sample, u_samples[0] == 0."""
    steps = aperture_contributions(u_samples, geometry)
    return np.abs(np.concatenate(([0.0], np.cumsum(steps))))


def rel_err(got, ref) -> float:
    """Error relative to the free-field magnitude 1, or to |ref| where larger."""
    got = np.asarray(got)
    ref = np.asarray(ref)
    return float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)))

"""Per-link shadowing draws, seeded exactly like default_rng([seed, s, e]).

numpy's SeedSequence (NEP 19, after O'Neill's PCG seed_seq, HMC-CS-2014-0905)
is a fixed hash in uint32 arithmetic: mix the entropy words into a 4-word
pool, then expand the pool into the 8 words that seed PCG64. Running that
hash as array operations over every sensor x emitter link replaces one
SeedSequence per link.

Two more steps of numpy are restated as array code over every link. PCG64's
seeding and first output (pcg64.h): a 128-bit LCG, run here in uint64 limbs,
and its XSL-RR output. Then the fast path of numpy's ziggurat normal sampler
(random_standard_normal in distributions.c), which takes one word and two
256-entry tables, _WI and _KI, pinned below. That path serves about 98.5% of
links. For the rest (the ziggurat's tail, its wedges and their retries) each
link still draws from numpy's own Generator(PCG64) over the same seed words,
so numpy remains the sampler of last resort, and the tests keep it as the
oracle: the tables are recalibrated from the installed numpy, and the draws
compared bit for bit with the per-link loop.

normal(loc, scale) is loc + scale * standard_normal() in numpy's
distributions.c, so the whole matrix of draws is scaled once as
0.0 + sigma * z, which rounds the same; numpy's own check of the scale is
then skipped, and shadowing_draws refuses a negative or non-finite sigma
itself.

This module imports numpy.random, which costs several ms; simulate.py loads
it only for a scenario with shadowing.
"""
from __future__ import annotations

import binascii
import math

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from ..errors import DomainError

# numpy/random/bit_generator.pyx
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


class _HashMix:
    """SeedSequence's hashmix; its hash constant is multiplied on every call."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(_XSHIFT))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(_XSHIFT))


def _pcg64_seeds(seed: int, n_sensors: int, n_emitters: int) -> np.ndarray:
    """SeedSequence([seed, s, e]).generate_state(4, np.uint64) for every link.

    Shape (n_sensors, n_emitters, 4). SeedSequence splits each non-negative
    int into 32-bit words, least significant first (0 is the one word [0]);
    the pool hashes a missing word exactly like a 0 word, so padding with
    zeros changes nothing. Seeds up to 2^64 - 1 give at most 4 entropy words,
    so only the pool-to-pool half of mix_entropy runs.

    The hash is elementwise, so it runs over the seed and padding words as
    (1, 1) arrays, the sensors as a column and the emitters as a row, and
    broadcasts: each pool word mixes with every other, so all come out with
    a row for every sensor and a column for every emitter. Arrays, not
    scalars: numpy warns when a scalar op wraps.
    """
    seed_words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    words = [np.array([[w]], dtype=np.uint32) for w in seed_words]
    words += [w.astype(np.uint32) for w in np.ogrid[:n_sensors, :n_emitters]]
    words += [np.zeros((1, 1), dtype=np.uint32)] * (_POOL_SIZE - len(words))
    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in words]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    hashmix = _HashMix(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)]
    # word pairs read as little-endian uint64, as generate_state does
    return np.stack(state, axis=-1).astype("<u4").view("<u8").astype(np.uint64)


# numpy/random/src/pcg64/pcg64.h: the LCG multiplier as (high, low) words.
# They are arrays: numpy warns when a uint64 op on two scalars wraps, never
# when an array op does.
_MULT_HIGH = np.array(0x2360ED051FC65DA4, dtype=np.uint64)
_MULT_LOW = np.array(0x4385DF649FCCF645, dtype=np.uint64)


def _mul64(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit product of uint64 words a and b as (high, low) words."""
    a_high, a_low = a >> 32, a & _MASK32
    b_high, b_low = b >> 32, b & _MASK32
    low_low = a_low * b_low
    # each partial sum stays below 2^64
    mid = a_high * b_low + (low_low >> 32)
    mid2 = a_low * b_high + (mid & _MASK32)
    return a_high * b_high + (mid >> 32) + (mid2 >> 32), a * b


def _add128(a_high, a_low, b_high, b_low):
    low = a_low + b_low
    return a_high + b_high + (low < a_low), low


def _step(high, low, inc_high, inc_low):
    """One LCG step, state * multiplier + inc mod 2^128, in uint64 limbs."""
    carry, product_low = _mul64(low, _MULT_LOW)
    product_high = carry + low * _MULT_HIGH + high * _MULT_LOW
    return _add128(product_high, product_low, inc_high, inc_low)


def _first_outputs(seeds: np.ndarray) -> np.ndarray:
    """PCG64(words).random_raw() for each row of (n, 4) uint64 seed words.

    pcg64_set_seed reads words 0 and 1 as the initial state's high and low
    halves and words 2 and 3 as the sequence's. pcg_setseq_128_srandom_r
    sets inc = 2 * sequence + 1 and state 0, steps, adds the initial state
    and steps again; random_raw steps once more and returns the XSL-RR
    output of the state.
    """
    init_high, init_low, seq_high, seq_low = seeds.T
    inc_high = (seq_high << 1) | (seq_low >> 63)
    inc_low = (seq_low << 1) | 1
    high, low = _add128(inc_high, inc_low, init_high, init_low)  # the step from 0 gives inc
    high, low = _step(high, low, inc_high, inc_low)
    high, low = _step(high, low, inc_high, inc_low)
    rotation = high >> 58
    xored = high ^ low
    return (xored >> rotation) | (xored << (-rotation & 63))


# random_standard_normal's wi_double and ki_double, little-endian. The tests
# recalibrate both from the installed numpy's own draws.
_WI = np.frombuffer(binascii.a2b_base64(
    "edkVeDtJzzzG9v3jC42LPLRbLDyvUJI8YTtEOLl8lTwMpy/o/AGYPLzQTC4MI5o892E4L00AnDx0cnRaL6ydPMPV"
    "TC1IMp88rbuOJzJNoDxDXQI7BfWgPHc2QZemkqE89Rp6j6InojyA2GM4LrWiPPWRV8A/PKM8L7GiwZ69ozxVm/+N"
    "7zmkPKf+PTa7saQ8dNMaYnUlpTyWzgengJWlPOp+2c8xAqY8PXyjYdJrpjxwBQCSotKmPKb4RtPaNqc8dyqzEK2Y"
    "pzxD9UatRfinPHcKQ1PMVag8mnZ7nmSxqDyYz06pLgupPOoeLIJHY6k8RsU4jsm5qTwsp6TczA6qPFnNd21nYqo8"
    "MBYQbq20qjycbBNtsQWrPCl6QoeEVas8Op9Sjjakqzwygr8q1vGrPPNOWflwPqw8YTsypROKrDyLJnL+ydSsPEi3"
    "gA6fHq08EB/kKZ1nrTzDuCMAzq+tPFN28ak69608/u3Stes9rjwAb3oz6YOuPM6C+b06ya48JmLwhOcNrzyI9thU"
    "9lGvPK7Xh55tla88rC76fVPYrzzsNELgVg2wPJqPOfVALrA8/KUWnupOsDwQoHJbVm+wPAv0cZCGj7A8E2G8hH2v"
    "sDx/zEtmPc+wPGsIFkvI7rA87hWVMiAOsTy+DzEHRy2xPEGRjp8+TLE8HiDEvwhrsTw02ngap4mxPIht7lEbqLE8"
    "yyr4+GbGsTwu1OCTi+SxPJ+gQJmKArI86cbEcmUgsjwfw+l9HT6yPPtrqQy0W7I8f9MdZip5sjwb1xnHgZayPNou"
    "uGK7s7I8U7jhYtjQsjyOqcvo2e2yPNdIbg3BCrM8MLn04Y4nszyhXiZwRESzPNVSyrriYLM8algFvmp9szxksrJv"
    "3ZmzPAM9uL87trM84B1WmIbSszyDWnLevu6zPHSe4HHlCrQ8XXSmLfsmtDykMDzoAEO0PF3HynP3XrQ8NsNmnt96"
    "tDwvj0gyupa0PF1BAvaHsrQ83BGzrEnOtDwFpjgWAOq0PGJVXu+rBbU8WosK8k0htTxPZmrV5jy1PMiyG053WLU8"
    "eF9VDgB0tTwUhQ7GgY+1PFkbJCP9qrU8PXN90XLGtTzTjC974+G1PDhen8hP/bU8wx+jYLgYtjyisKLoHTS2PAsm"
    "twSBT7Y8cpbJV+Jqtjw3MbGDQoa2PLGyUCmiobY8u0Oz6AG9tjxS0yhhYti2PFT4YTHE87Y862iL9ycPtzzGFGlR"
    "jiq3PNzucNz3Rbc8H3PlNWVhtzxJ9O/61ny3PJO9ushNmLc8CRSLPMqztzz7ItvzTM+3POfec4zW6rc8H+qGpGcG"
    "uDx2hsjaACK4PBWfic6iPbg8vfXRH05ZuDzFfnpvA3W4PC33R1/DkLg8Q8AFko6suDycDKGrZci4PCdqRFFJ5Lg8"
    "j7VzKToAuTxHgyjcOBy5PPwK7xJGOLk8iqIDeWJUuTzu1XC7jnC5PDEqLonLjLk8v5k/kxmpuTws2dWMecW5PBF0"
    "byvs4bk8StL6JnL+uTySNvk5DBu6PFvIoiG7N7o8iLsLnn9UujykqUpyWnG6PD0xoGRMjro8CPGfPlarujzO9VrN"
    "eMi6PDazi+G05bo8GqHDTwsDuzxbmJrwfCC7PAAM4KAKPrs8Az3OQbVbuzwniT+5fXm7PDz35fFkl7s8biWF22u1"
    "uzyiwC5rk9O7PIOugZvc8bs8oBbsbEgQvDwtevDl1y68PBwNbhOMTbw8BYfsCGZsvDwXpuvgZou8PKuiNr2Pqrw8"
    "kNY7x+HJvDw34GgwXum8PG6PizIGCb08IO83ENsovTxHxjMV3ki9PCPx55YQab08pfvX9HOJvTxwbiCZCaq9PA5J"
    "/PjSyr08Ny5SldHrvTwc0kn7Bg2+PPZG6sR0Lr48iNHBmRxQvjwl/pcvAHK+PAq/KkshlL48CG/3wIG2vjw6pxB2"
    "I9m+PKnsAWEI/L48IVPCijIfvzxtTbcPpEK/PGgBySBfZr88gpeJBGaKvzy/InEYu66/PIXnL9Jg0788C/YYwVn4"
    "vzx1oNNH1A7APEfJjwKoIcA8qwKpg6k0wDzH9T5O2kfAPH6zrfY7W8A8aCanI9BuwDwXLmOPmILAPFSi6AiXlsA8"
    "xMBxdc2qwDxI1O7RPb/APDA9qjTq08A8k2URz9TowDy2n6bv//3APEFwIARuE8E8NV27myEpwTxtCcRpHT/BPDsu"
    "YEhkVcE88+6dO/lrwTxhEtJ034LBPKzrTlYamsE8ji9/d62xwTyUpnGpnMnBPDmu5Pvr4cE8Adniwp/6wTyBzASd"
    "vBPCPO7Tb3pHLcI8JJyspEVHwjzgWHbHvGHCPC5ZqPqyfMI8eA53zS6YwjxSCipTN7TCPJfbljHU0MI89XipsQ3u"
    "wjzurlbS7AvDPKOkaF57KsM8oxKuBcRJwzxAqDN60mnDPApBVpKzisM8+oiucHWswzymBBezJ8/DPHX0YKrb8sM8"
    "2uW5nKQXxDyUXlQVmD3EPBU6p0TOZMQ8vEOcdWKNxDwnWmudc7fEPAKJzQ0l48Q8QazpU58QxTxCfjpSEUDFPBvk"
    "SqmxccU82Y1xi8ClxTz+0DokitzFPEwehs9pFsY86moAe85TxjzD5Z++QJXGPDLiCY1r28Y8NHpf8CgnxzxzBglW"
    "lXnHPIzO1vQt1Mc8NPIpBQM5yDwUfKq/D6vIPJZEb5TgLsk8q1dAAe7LyTxad5R43I/KPLH9eDgfmMs8M60JgrQ7"
    "zTw="
), "<f8")
_KI = np.frombuffer(binascii.a2b_base64(
    "au8lgD3zDgAAAAAAAAAAAKjG+5i+CAwAQoG9+lSjDQDq7sF+9lEOAH730+lVsg4Aucp+gUvvDgCqRPoKRxkPABjL"
    "/2HtNw8AXCVhlUZPDwCWoxvkpWEPAKSWU3V6cA8AmkQo7LJ8DwDTV2MM8YYPAN4lg1emjw8A2tBNxySXDwAJ9dsH"
    "qZ0PAHT6gfVgow8A+Etb3m+oDwDcVNNg8awPAA+5GGf7sA8AxnRTjZ+0DwB3/mYj7LcPAA7loensug8A7QsEnau9"
    "DwBXbP9gMMAPAEiiNxCCwg8A0VvieqbEDwAx7nqXosYPAKSWKKl6yA8Ahd5LXjLKDwAaIwLpzMsPAMQ5+BJNzQ8A"
    "meyPTbXODwAwyR2/B9APAObE1k1G0Q8AUPTiqHLSDwAeyfBPjtMPAHi0kJma1A8AUw+SuJjVDwDsmY7AidYPADLo"
    "yKlu1w8A6Ah7VEjYDwCMLK2LF9kPANKtpwfd2Q8AjF4QcJnaDwAgLsBdTdsPAND8W1z52w8AfZq5653cDwCdchiB"
    "O90PAJAvNIjS3Q8AZJ82ZGPeDwBOUY1w7t4PAC60pgF03w8AQO2ZZfTfDwDyJLzkb+APAFiiJcLm4A8ATLgoPFnh"
    "DwCZP7yMx+EPAKoc2+kx4g8AkRvahZjiDwCGQbWP++IPAEqNVTNb4w8AKgDQmbfjDwB/rZ7pEOQPADR31EZn5A8A"
    "XAlM07rkDwAkldKuC+UPAHi8TvdZ5Q8AEhLkyKXlDwCJhhM+7+UPAHgQ2W825g8AeNXGdXvmDwCqER5mvuYPAPL0"
    "5VX/5g8AAqcAWT7nDwA5nj6Ce+cPAKJwcOO25w8AQ0J3jfDnDwCM8FOQKOgPADoXNfte6A8AZAiE3JPoDwC8zvBB"
    "x+gPAPZOfTj56A8AHZuHzCnpDwDqiNMJWekPAKKak/uG6Q8AZkhxrLPpDwDVtpQm3+kPAHzmq3MJ6g8ApGbxnDLq"
    "DwAslTKrWuoPABp01aaB6g8A8Bzel6fqDwAg2fOFzOoPADzmZXjw6g8AE+wvdhPrDwBKKv6FNesPALRiMa5W6w8A"
    "+oTi9HbrDwAUIOZflusPAHydz/S06w8A0En0uNLrDwA+Lm6x7+sPAOi9HuML7A8AFVqxUifsDwDTr50EQuwPAJbx"
    "Kf1b7A8A9O5sQHXsDwC0DFDSjewPABIfkbal7A8A/ifE8LzsDwAV+1SE0+wPALPIiHTp7A8At5F/xP7sDwAohTV3"
    "E+0PAANJhI8n7Q8ATC8kEDvtDwBuWK37Te0PAN3DmFRg7Q8A6E9BHXLtDwCCqeRXg+0PAMgspAaU7Q8ABLeFK6Tt"
    "DwC0anTIs+0PAFJmQd/C7Q8AUm6kcdHtDwDTijyB3+0PAICZkA/t7Q8AFNQPHvrtDwDESxKuBu4PAAZa2cAS7g8A"
    "4AaQVx7uDwAkZUtzKe4PALzkChU07g8APJu4PT7uDwD0ginuR+4PAIawHSdR7g8AQX9A6VnuDwAutCg1Yu4PAPGX"
    "WAtq7g8Aegc+bHHuDwCCezJYeO4PALoGe89+7g8AskpI0oTuDwBDY7Zgiu4PAFHIzHqP7g8A2iV+IJTuDwDqKahR"
    "mO4PAFxIEw6c7g8A9HNyVZ/uDwCuzGInou4PAKxCa4Ok7g8AcS38aKbuDwD61m7Xp+4PAAr6BM6o7g8AOzPoS6nu"
    "DwAQZClQqe4PAF4HwNmo7g8AVHaJ56fuDwAkHUh4pu4PAIOeooqk7g8A2uQiHaLuDwAkIDUun+4PAC6vJryb7g8A"
    "5PIkxZfuDwA6CjxHk+4PABZ1VUCO7g8Aepw2rojuDwD9PX+Ogu4PAIi4p9577g8A/zf/m3TuDwBevanDbO4PAH4A"
    "nlJk7g8AiCijRVvuDwC2V06ZUe4PAM8GAEpH7g8AUCzhUzzuDwDYKuCyMO4PAAWCrWIk7g8AWjy4XhfuDwBHFCqi"
    "Ce4PAMxJ4yf77Q8AbCF26uvtDwB+BCLk2+0PANM5zg7L7Q8A9CwEZLntDwDJOOncpu0PAI3pN3KT7Q8ANqg4HH/t"
    "DwArwLnSae0PAACuBo1T7Q8AIqTeQTztDwDYL2rnI+0PAETmL3MK7Q8ANP4H2u/sDwC4tw4Q1OwPALRulQi37A8A"
    "wTAStpjsDwB4qQ0KeewPAP4xD/VX7A8AYsmGZjXsDwA1s7RMEewPANBvjpTr6w8AkragKcTrDwDcDO71musPAEKF"
    "yeFv6w8Anh+t00LrDwBLLQuwE+sPAOkCGlni6g8AVyKZrq7qDwAm446NeOoPAOVz/c8/6g8A9tmNTATqDwA7Vi/W"
    "xekPAKRHqTuE6Q8AKEcdRz/pDwDWxXa99ugPAOboxF2q6A8A6rF64FnoDwBAqZD2BOgPAMAzgkir5w8ApWofdUzn"
    "DwACoioQ6OYPANirtqB95g8AfjA4nwzmDwBC9zhzlOUPAIByl3AU5Q8AWPQ21IvkDwA3Hv2/+eMPAJyx7jVd4w8A"
    "/uQvErXiDwBXVZkDAOIPABSDeII84Q8AsGfuxGjgDwCqcSuwgt8PAKr+fsWH3g8A/TvGCXXdDwATvynlRtwPAIIC"
    "Lvj42g8Adbqy4YXZDwAEz0jv5tcPAAtlva0T1g8AEvDiSQHUDwCsx7SnodEPAJ4fdgTizg8AshFe2KjLDwAiLc1u"
    "0scPAO0iHi8rww8AOrjAgWW9DwA0VADEBrYPAHQoKlhArA8AmEUBHpeeDwD8HaRI+okPACww8PfFZg8AShwzS1oa"
    "DwA="
), "<u8")


def _fast_normals(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat fast path over first PCG64 outputs: (x, accepted).

    Where accepted, x is Generator.standard_normal() of the generator whose
    first output is raw; elsewhere numpy goes on to the tail or a wedge and
    x means nothing. rabs < 2^53, so its conversion to float64 is exact.
    """
    idx = (raw & 0xFF).astype(np.intp)
    rabs = (raw >> 9) & ((1 << 52) - 1)
    sign = (raw >> 8) & 1
    x = rabs.astype(np.float64) * _WI[idx]
    np.negative(x, out=x, where=sign == 1)  # -0.0 at rabs 0, as numpy's x = -x
    return x, rabs < _KI[idx]


class _LinkSeed(ISeedSequence):
    """One link's seed for PCG64: its precomputed generate_state(4, np.uint64)
    words. Any other request raises, so a numpy that seeded PCG64 otherwise
    fails loudly instead of drawing from other words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise RuntimeError(f"PCG64 asked for {n_words} {np.dtype(dtype)} words, not 4 uint64")
        return self.words


def shadowing_draws(seed: int, sigma: float, n_sensors: int, n_emitters: int) -> np.ndarray:
    """draws[s, e] == default_rng([seed, s, e]).normal(0.0, sigma), bit for bit.

    Shape (n_sensors, n_emitters); all zeros, with nothing drawn, when
    sigma is 0. Each link's standard_normal() comes from the ziggurat's fast
    path where it accepts the link's first PCG64 output, and from numpy's
    per-link loop elsewhere; the whole matrix is scaled once as
    0.0 + sigma * z, which is numpy's normal(loc, scale).
    """
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise DomainError(f"sigma must be a non-negative finite number, got {sigma}")
    if sigma == 0.0:
        return np.zeros((n_sensors, n_emitters))
    seeds = _pcg64_seeds(seed, n_sensors, n_emitters).reshape(-1, 4)
    z, fast = _fast_normals(_first_outputs(seeds))
    slow = np.flatnonzero(~fast)
    z[slow] = [Generator(PCG64(_LinkSeed(w))).standard_normal() for w in seeds[slow]]
    with np.errstate(over="ignore"):  # an inf draw, as numpy's normal gives it
        return (0.0 + float(sigma) * z).reshape(n_sensors, n_emitters)

"""Pinned single calls: the sha256 of 1,000 sequential single-run calls per route.

Each route's digest covers the record lines of 1,000 calls of its public
single-run function, drawn in turn from one generator.  The values were
recorded before the flows were rewritten around one engine per flow; a
single call must keep its draws, so they hold unchanged afterwards.
"""
import hashlib

import numpy as np
import pytest

from mdiqct import adversaries
from mdiqct.devices import ChannelParams, DetectorParams
from mdiqct.protocol import (
    Mode,
    RunConfig,
    ideal_config,
    run_baseline,
    run_honest,
    run_weak_coherent,
    run_with_adversary,
    transcript_json_line,
)

CALLS = 1_000
REFERENCE = DetectorParams(eta=0.1, dark=1e-4)


def _honest(config):
    return lambda rng: run_honest(config, rng)


def _baseline(config, strategy=None):
    return lambda rng: run_baseline(config, strategy, rng)


def _attack(config, name, **options):
    strategy = adversaries.by_name(name, target_coin=1, **options)
    return lambda rng: run_with_adversary(config, strategy, rng)


WEAK = RunConfig(detector=REFERENCE, mode=Mode.MDI_WEAK_COHERENT, mu=0.5, k_pulses=10)

# route -> one single-run call on a generator; DIGESTS holds the sha256 of 1,000 of them
ROUTES = {
    "honest-reference": _honest(RunConfig(detector=REFERENCE)),
    "honest-10km": _honest(RunConfig(channel=ChannelParams(10.0, 10.0), detector=DetectorParams(0.3, 1e-2))),
    "baseline": _baseline(RunConfig(detector=REFERENCE, mode=Mode.BASELINE)),
    "baseline-blinding": _baseline(RunConfig(detector=REFERENCE, mode=Mode.BASELINE),
                                   adversaries.alice_blinding_attack(target_coin=1)),
    "bob-med-mdi": _attack(ideal_config(), "bob-med"),
    "bob-med-baseline": _attack(ideal_config(mode=Mode.BASELINE), "bob-med"),
    "alice-individual-basis-flip": _attack(ideal_config(), "alice-individual", med_model="basis-flip"),
    "alice-individual-projective": _attack(ideal_config(), "alice-individual", med_model="projective"),
    "alice-coherent-plus": _attack(ideal_config(), "alice-coherent", sent="plus"),
    "alice-coherent-minus": _attack(ideal_config(), "alice-coherent", sent="minus"),
    "weak-coherent": lambda rng: run_weak_coherent(WEAK, rng),
}
DIGESTS = {
    "honest-reference": "696b5dd5676c1330aa5910c7a6b37dab494f1695866e02d42284939c471f53e8",
    "honest-10km": "2e3bd39055113bf6db04d3aa8463a34643333cfe67ba625134d180d2baf5ed58",
    "baseline": "588a3a1a7bd400e51ce3ada2a12398ada0f5cf84d763ffbc9aa296f2b9b2060e",
    "baseline-blinding": "41c5b95b72661a80437a83230a29598320934bc5640c59084925f22a395e2327",
    "bob-med-mdi": "ccd5863c601a70c196375a00cf96092dc71d8ab4225cf44744a83822285804f6",
    "bob-med-baseline": "c690edd15a8a07302b6b46c1f6a34e6568c799651560bc28ebe5cc6104ba7e9e",
    "alice-individual-basis-flip": "8f6d5d1c2d2032276236ca5d169d11b33a7e1e3ee4741d7f041231560690251a",
    "alice-individual-projective": "7ab8a492baecea27fdcd290e916619bff3e8914351dd68c0202f4bbf44690399",
    "alice-coherent-plus": "3e8f92d565b36dec14295d75f0aad27ba699947056985ae42dd2163577dd79ac",
    "alice-coherent-minus": "1cef9da967d3b99ee0149a76f864725819e5fb1fc5f46f261f5b40ca89274e12",
    "weak-coherent": "e3dd059f5fa1d14a5b19eeb1917461f519ad2500b799f7e94429029bdef8c53e",
}


def digest(call, seed: int) -> str:
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for _ in range(CALLS):
        h.update(transcript_json_line(call(rng)).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_single_calls_are_pinned(route):
    assert digest(ROUTES[route], seed=sum(map(ord, route))) == DIGESTS[route]
